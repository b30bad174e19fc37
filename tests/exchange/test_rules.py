"""Unit tests for compiling mappings into the exchange datalog program."""

from repro.core.mapping import identity_mapping, join_mapping, split_mapping
from repro.core.schema import PeerSchema
from repro.datalog.ast import SkolemTerm
from repro.datalog.evaluation import Database, evaluate_program
from repro.datalog.skolem import SkolemFactory
from repro.exchange.rules import (
    compile_mappings,
    contribution_rules,
    derived_relation,
    is_published_relation,
    mapping_rules,
    published_relation,
    qualify_atom,
    split_derived,
)

SIGMA1 = PeerSchema.build(
    "Sigma1", {"O": ["org", "oid"], "P": ["prot", "pid"], "S": ["oid", "pid", "seq"]}
)
SIGMA2 = PeerSchema.build("Sigma2", {"OPS": ["org", "prot", "seq"]})


class TestNaming:
    def test_published_and_derived_names(self):
        assert published_relation("Alaska", "O") == "Alaska.O!pub"
        assert derived_relation("Alaska", "O") == "Alaska.O"
        assert is_published_relation("Alaska.O!pub")
        assert not is_published_relation("Alaska.O")
        assert split_derived("Crete.OPS") == ("Crete", "OPS")

    def test_a_published_name_is_one_shared_string(self):
        """Every fact of a published row names its relation: one string per
        (peer, relation), not a fresh copy per row."""
        name = published_relation("Alaska", "O")
        assert published_relation("Alaska", "O") is name
        assert published_relation("Alaska", "P") is not name

    def test_qualify_atom(self):
        from repro.datalog.parser import parse_atom

        atom = qualify_atom(parse_atom("O(org, oid)"), "Alaska")
        assert atom.predicate == "Alaska.O"


class TestContributionRules:
    def test_one_rule_per_relation(self):
        rules = contribution_rules("Alaska", SIGMA1)
        assert len(rules) == 3
        heads = {rule.head.predicate for rule in rules}
        assert heads == {"Alaska.O", "Alaska.P", "Alaska.S"}
        for rule in rules:
            assert rule.body[0].predicate.endswith("!pub")
            assert rule.label.startswith("pub_")


class TestMappingRules:
    def test_join_mapping_compiles_to_one_rule(self):
        mapping = join_mapping(
            "M_AC", "Alaska", "Crete",
            "OPS(org, prot, seq)",
            ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
        )
        rules = mapping_rules(mapping, SkolemFactory())
        assert len(rules) == 1
        assert rules[0].head.predicate == "Crete.OPS"
        assert rules[0].label == "M_AC"
        assert {atom.predicate for atom in rules[0].positive_body} == {
            "Alaska.O",
            "Alaska.P",
            "Alaska.S",
        }

    def test_split_mapping_skolemises_existentials(self):
        mapping = split_mapping(
            "M_CA", "Crete", "Alaska",
            ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
            "OPS(org, prot, seq)",
        )
        rules = mapping_rules(mapping, SkolemFactory())
        assert len(rules) == 3
        o_rule = next(rule for rule in rules if rule.head.predicate == "Alaska.O")
        assert isinstance(o_rule.head.terms[1], SkolemTerm)

    def test_identity_mapping_rules(self):
        mappings = identity_mapping("M_AB", "Alaska", "Beijing", SIGMA1.relations)
        factory = SkolemFactory()
        rules = [rule for mapping in mappings for rule in mapping_rules(mapping, factory)]
        assert len(rules) == 3
        assert {rule.head.predicate for rule in rules} == {
            "Beijing.O",
            "Beijing.P",
            "Beijing.S",
        }


class TestCompileMappings:
    def test_full_program_structure(self):
        mappings = [
            join_mapping(
                "M_AC", "Alaska", "Crete",
                "OPS(org, prot, seq)",
                ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
            )
        ]
        program = compile_mappings(
            [("Alaska", SIGMA1), ("Crete", SIGMA2)], mappings
        )
        # 3 + 1 contribution rules, plus 1 mapping rule.
        assert len(program) == 5
        assert "Crete.OPS" in program.idb_predicates

    def test_program_evaluates_published_data(self):
        mappings = [
            join_mapping(
                "M_AC", "Alaska", "Crete",
                "OPS(org, prot, seq)",
                ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
            )
        ]
        program = compile_mappings([("Alaska", SIGMA1), ("Crete", SIGMA2)], mappings)
        database = Database.from_dict(
            {
                published_relation("Alaska", "O"): [("ecoli", 1)],
                published_relation("Alaska", "P"): [("lacZ", 10)],
                published_relation("Alaska", "S"): [(1, 10, "ATG")],
            }
        )
        result = evaluate_program(program, database)
        assert result.relation("Crete.OPS") == frozenset({("ecoli", "lacZ", "ATG")})

    def test_cyclic_mappings_terminate(self):
        mappings = [
            join_mapping(
                "M_AC", "Alaska", "Crete",
                "OPS(org, prot, seq)",
                ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
            ),
            split_mapping(
                "M_CA", "Crete", "Alaska",
                ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
                "OPS(org, prot, seq)",
            ),
        ]
        program = compile_mappings([("Alaska", SIGMA1), ("Crete", SIGMA2)], mappings)
        database = Database.from_dict(
            {
                published_relation("Crete", "OPS"): [("ecoli", "lacZ", "ATG")],
            }
        )
        result = evaluate_program(program, database)
        assert result.count("Alaska.O") == 1
        assert result.count("Crete.OPS") == 1
