"""Unit tests for the workload builders and reporting views."""

from repro.workloads.bioinformatics import (
    BioDataGenerator,
    crete_trust_policy,
    sigma1_schema,
    sigma2_schema,
)
from repro.workloads.reporting import (
    render_decision_table,
    render_mappings,
    render_peer_state,
    render_reconciliation,
    render_system_overview,
)


class TestFigureTwoNetwork:
    def test_peers_and_schemas(self, figure2):
        assert figure2.peer_names() == ["Alaska", "Beijing", "Crete", "Dresden"]
        assert figure2.alaska.schema.relation_names() == ("O", "P", "S")
        assert figure2.crete.schema.relation_names() == ("OPS",)

    def test_mapping_count(self, figure2):
        # 3 + 3 identity mappings between Σ1 peers, 1 + 1 between Σ2 peers,
        # plus the join and split mappings.
        assert len(figure2.cdss.catalog.mappings()) == 10

    def test_crete_trust_policy(self):
        policy = crete_trust_policy()
        assert policy.peer_priorities == {"Beijing": 2, "Dresden": 1}
        assert policy.default_priority == 0

    def test_schema_builders(self):
        assert sigma1_schema().arity("S") == 3
        assert sigma2_schema().arity("OPS") == 3

    def test_mapping_graph_cyclic(self, figure2):
        graph = figure2.cdss.catalog.mapping_graph()
        assert "Crete" in graph["Alaska"]
        assert "Alaska" in graph["Crete"]


class TestBioDataGenerator:
    def test_deterministic(self):
        first = BioDataGenerator(seed=3).sigma1_rows(5, 5)
        second = BioDataGenerator(seed=3).sigma1_rows(5, 5)
        assert first == second

    def test_different_seeds_differ(self):
        first = BioDataGenerator(seed=3).sigma2_rows(10)
        second = BioDataGenerator(seed=4).sigma2_rows(10)
        assert first != second

    def test_organism_and_protein_names_unique(self):
        generator = BioDataGenerator()
        organisms = {generator.organism(index) for index in range(30)}
        proteins = {generator.protein(index) for index in range(30)}
        assert len(organisms) == 30
        assert len(proteins) == 30

    def test_load_sigma1_and_sigma2(self, figure2):
        generator = BioDataGenerator()
        loaded1 = generator.load_sigma1(figure2.alaska, organisms=4, proteins=4)
        loaded2 = generator.load_sigma2(figure2.crete, pairs=5)
        assert loaded1 >= 8
        assert loaded2 == 5
        assert figure2.alaska.instance.count("O") == 4

    def test_insertion_transactions(self, figure2):
        generator = BioDataGenerator()
        txns = generator.insertion_transactions(figure2.alaska, 3)
        assert len(txns) == 3
        assert figure2.alaska.instance.count("S") == 3
        txns2 = generator.insertion_transactions(figure2.dresden, 2)
        assert len(txns2) == 2
        assert figure2.dresden.instance.count("OPS") == 2


class TestReporting:
    def test_render_peer_state(self, figure2):
        figure2.alaska.insert("O", ("E. coli", 1))
        text = render_peer_state(figure2.alaska)
        assert "Alaska" in text
        assert "E. coli" in text

    def test_render_mappings(self, figure2):
        text = render_mappings(figure2.cdss)
        assert "M_AC" in text
        assert "M_CA" in text

    def test_render_reconciliation_and_overview(self, figure2):
        cdss = figure2.cdss
        figure2.alaska.insert("O", ("E. coli", 1))
        cdss.publish("Alaska")
        outcome = cdss.reconcile("Beijing")
        text = render_reconciliation(outcome, cdss.reconciliation_state("Beijing"))
        assert "Beijing" in text
        overview = render_system_overview(cdss)
        assert "CDSS overview" in overview

    def test_render_decision_table(self, figure2):
        cdss = figure2.cdss
        figure2.alaska.insert("O", ("E. coli", 1))
        cdss.publish("Alaska")
        cdss.reconcile("Beijing")
        table = render_decision_table(
            [cdss.reconciliation_state(name) for name in figure2.peer_names()]
        )
        assert "Beijing" in table
        assert "accepted" in table
