"""Unit tests for provenance-annotated datalog evaluation."""

from repro.datalog.evaluation import Database, evaluate_program
from repro.datalog.incremental import IncrementalEngine
from repro.datalog.parser import parse_program
from repro.datalog.provenance_eval import (
    default_variable_namer,
    evaluate_with_provenance,
)
from repro.provenance import CountingSemiring, TropicalSemiring

JOIN_PROGRAM = """
OPS(org, prot, seq) :- O(org, oid), P(prot, pid), S(oid, pid, seq).
"""

UNION_PROGRAM = """
T(x) :- R(x).
T(x) :- Q(x).
"""


class TestProvenanceEvaluation:
    def test_database_matches_plain_evaluation(self):
        program = parse_program(JOIN_PROGRAM)
        db = Database.from_dict(
            {"O": [("ecoli", 1)], "P": [("lacZ", 10)], "S": [(1, 10, "ATG")]}
        )
        plain = evaluate_program(program, db)
        with_provenance = evaluate_with_provenance(program, db)
        assert plain.relation("OPS") == with_provenance.database.relation("OPS")

    def test_join_polynomial_is_product(self):
        program = parse_program(JOIN_PROGRAM)
        db = Database.from_dict(
            {"O": [("ecoli", 1)], "P": [("lacZ", 10)], "S": [(1, 10, "ATG")]}
        )
        result = evaluate_with_provenance(program, db)
        polynomial = result.polynomial("OPS", ("ecoli", "lacZ", "ATG"))
        assert polynomial.monomial_count() == 1
        (monomial,) = polynomial.terms()
        assert monomial.degree == 3

    def test_union_polynomial_is_sum(self):
        program = parse_program(UNION_PROGRAM)
        db = Database.from_dict({"R": [(1,)], "Q": [(1,)]})
        result = evaluate_with_provenance(program, db)
        polynomial = result.polynomial("T", (1,))
        assert polynomial.monomial_count() == 2

    def test_counting_semiring_counts_derivations(self):
        program = parse_program(UNION_PROGRAM)
        db = Database.from_dict({"R": [(1,)], "Q": [(1,)]})
        result = evaluate_with_provenance(program, db)
        polynomial = result.polynomial("T", (1,))
        counting = CountingSemiring()
        count = polynomial.evaluate(
            counting, {variable: 1 for variable in polynomial.variables()}
        )
        assert count == 2

    def test_tropical_semiring_cheapest_derivation(self):
        program = parse_program(UNION_PROGRAM)
        db = Database.from_dict({"R": [(1,)], "Q": [(1,)]})
        result = evaluate_with_provenance(program, db)
        polynomial = result.polynomial("T", (1,))
        costs = {}
        for variable in polynomial.variables():
            costs[variable] = 5.0 if variable.startswith("R") else 2.0
        assert polynomial.evaluate(TropicalSemiring(), costs) == 2.0

    def test_trusted_respects_variable_set(self):
        program = parse_program(UNION_PROGRAM)
        db = Database.from_dict({"R": [(1,)], "Q": [(1,)]})
        result = evaluate_with_provenance(program, db)
        r_variable = default_variable_namer("R", (1,))
        q_variable = default_variable_namer("Q", (1,))
        assert result.trusted("T", (1,), {r_variable})
        assert result.trusted("T", (1,), {q_variable})
        assert not result.trusted("T", (1,), set())

    def test_recursive_program_provenance_terminates(self):
        program = parse_program(
            "Path(x, y) :- Edge(x, y).\nPath(x, z) :- Path(x, y), Edge(y, z)."
        )
        db = Database.from_dict({"Edge": [(1, 2), (2, 1)]})
        result = evaluate_with_provenance(program, db)
        polynomial = result.polynomial("Path", (1, 1))
        assert not polynomial.is_zero()

    def test_base_fact_in_idb_relation_gets_variable(self):
        # A tuple asserted directly into a derived relation keeps its own
        # provenance variable (per-tuple EDB/IDB split).
        program = parse_program("T(x) :- R(x).")
        db = Database.from_dict({"R": [(1,)], "T": [(2,)]})
        result = evaluate_with_provenance(program, db)
        polynomial = result.polynomial("T", (2,))
        assert polynomial.variables() == {default_variable_namer("T", (2,))}

    def test_a_custom_namer_names_are_kept_verbatim(self):
        """Given a namer, evaluation and the incremental engine store its
        names as they are, even one the default scheme would also render;
        without one, the default names are rendered when read."""
        program = parse_program(UNION_PROGRAM)
        db = Database.from_dict({"R": [(1,)], "Q": [(1,)]})
        names = {("R", (1,)): "alpha", ("Q", (1,)): "Q(1)"}

        def namer(relation, values):
            return names[(relation, values)]

        result = evaluate_with_provenance(program, db, variable_namer=namer)
        assert result.graph.base_variables() == {"alpha": ("R", (1,)), "Q(1)": ("Q", (1,))}
        assert result.polynomial("T", (1,)).variables() == {"alpha", "Q(1)"}
        engine = IncrementalEngine(program, db, variable_namer=namer)
        assert engine.graph.base_variables() == result.graph.base_variables()
        assert engine.graph.node("R", (1,)).variable == "alpha"
        unnamed = IncrementalEngine(program, db)
        assert unnamed.graph.base_variables() == {
            default_variable_namer(*key): key for key in names
        }
