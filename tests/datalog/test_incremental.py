"""Unit tests for incremental (insertion/deletion) maintenance."""

import random

import pytest

from repro.datalog.ast import Fact
from repro.datalog.evaluation import Database
from repro.datalog.incremental import IncrementalEngine, full_recompute
from repro.datalog.parser import parse_program

JOIN_PROGRAM = """
OPS(org, prot, seq) :- O(org, oid), P(prot, pid), S(oid, pid, seq).
"""

TC_PROGRAM = """
Path(x, y) :- Edge(x, y).
Path(x, z) :- Path(x, y), Edge(y, z).
"""


def make_join_engine(track_provenance: bool = True) -> IncrementalEngine:
    program = parse_program(JOIN_PROGRAM)
    base = Database.from_dict(
        {"O": [("ecoli", 1)], "P": [("lacZ", 10)], "S": [(1, 10, "ATG")]}
    )
    return IncrementalEngine(program, base, track_provenance=track_provenance)


class TestInsertions:
    def test_initial_fixpoint(self):
        engine = make_join_engine()
        assert engine.database.relation("OPS") == frozenset({("ecoli", "lacZ", "ATG")})

    def test_incremental_insert_joins_with_existing(self):
        engine = make_join_engine()
        result = engine.apply_insertions([Fact("S", (1, 10, "GGG"))])
        assert ("ecoli", "lacZ", "GGG") in engine.database.relation("OPS")
        assert result.inserted_count >= 1

    def test_duplicate_insert_is_noop(self):
        engine = make_join_engine()
        result = engine.apply_insertions([Fact("S", (1, 10, "ATG"))])
        assert result.inserted_count == 0

    def test_matches_full_recomputation(self):
        program = parse_program(TC_PROGRAM)
        engine = IncrementalEngine(program, track_provenance=False)
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (2, 5)]
        for edge in edges:
            engine.apply_insertions([Fact("Edge", edge)])
        expected = full_recompute(program, Database.from_dict({"Edge": edges}))
        assert engine.database.relation("Path") == expected.relation("Path")

    def test_batched_and_single_inserts_agree(self):
        program = parse_program(TC_PROGRAM)
        batched = IncrementalEngine(program)
        single = IncrementalEngine(program)
        edges = [(1, 2), (2, 3), (3, 1), (3, 4)]
        batched.apply_insertions([Fact("Edge", edge) for edge in edges])
        for edge in edges:
            single.apply_insertions([Fact("Edge", edge)])
        assert batched.database.relation("Path") == single.database.relation("Path")

    def test_program_mutation_after_construction_is_honored(self):
        # Program is mutable; rules added after the engine was built must
        # fire on subsequently inserted facts (the compilation refreshes).
        from repro.datalog.parser import parse_rule

        program = parse_program("Copy(x) :- R(x).")
        engine = IncrementalEngine(program, track_provenance=False)
        engine.apply_insertions([Fact("R", (1,))])
        program.add(parse_rule("Twice(x) :- Copy(x), R(x)."))
        result = engine.apply_insertions([Fact("R", (2,))])
        assert engine.database.relation("Copy") == frozenset({(1,), (2,)})
        assert (2,) in engine.database.relation("Twice")
        assert (2,) in result.inserted.get("Twice", set())


class TestDeletions:
    def test_delete_base_removes_derived(self):
        engine = make_join_engine()
        result = engine.apply_deletions([Fact("S", (1, 10, "ATG"))])
        assert ("ecoli", "lacZ", "ATG") not in engine.database.relation("OPS")
        assert result.deleted_count >= 1

    def test_delete_keeps_alternative_derivations(self):
        program = parse_program("T(x) :- R(x).\nT(x) :- Q(x).")
        engine = IncrementalEngine(
            program, Database.from_dict({"R": [(1,)], "Q": [(1,)]})
        )
        engine.apply_deletions([Fact("R", (1,))])
        assert (1,) in engine.database.relation("T")
        engine.apply_deletions([Fact("Q", (1,))])
        assert (1,) not in engine.database.relation("T")

    def test_delete_unknown_fact_is_noop(self):
        engine = make_join_engine()
        result = engine.apply_deletions([Fact("S", (99, 99, "NOPE"))])
        assert result.deleted_count == 0

    def test_deletion_matches_recomputation_with_provenance(self):
        program = parse_program(TC_PROGRAM)
        edges = [(1, 2), (2, 3), (3, 4), (1, 3)]
        engine = IncrementalEngine(program, Database.from_dict({"Edge": edges}))
        engine.apply_deletions([Fact("Edge", (2, 3))])
        remaining = [edge for edge in edges if edge != (2, 3)]
        expected = full_recompute(program, Database.from_dict({"Edge": remaining}))
        assert engine.database.relation("Path") == expected.relation("Path")

    def test_deletion_matches_recomputation_without_provenance(self):
        program = parse_program(TC_PROGRAM)
        edges = [(1, 2), (2, 3), (3, 4), (1, 3)]
        engine = IncrementalEngine(
            program, Database.from_dict({"Edge": edges}), track_provenance=False
        )
        engine.apply_deletions([Fact("Edge", (2, 3))])
        remaining = [edge for edge in edges if edge != (2, 3)]
        expected = full_recompute(program, Database.from_dict({"Edge": remaining}))
        assert engine.database.relation("Path") == expected.relation("Path")

    def test_reinsert_after_delete(self):
        engine = make_join_engine()
        engine.apply_deletions([Fact("S", (1, 10, "ATG"))])
        engine.apply_insertions([Fact("S", (1, 10, "ATG"))])
        assert ("ecoli", "lacZ", "ATG") in engine.database.relation("OPS")


def _state(engine: IncrementalEngine) -> dict[str, frozenset]:
    database = engine.database
    return {predicate: database.relation(predicate) for predicate in database.predicates()}


class TestDeletionStrategyParity:
    """Provenance-based deletion and DRed must produce identical databases,
    especially on programs where tuples have alternative derivations."""

    def _twin_engines(self, program_text, base):
        program_a = parse_program(program_text)
        program_b = parse_program(program_text)
        provenance = IncrementalEngine(
            program_a, Database.from_dict(base), track_provenance=True
        )
        dred = IncrementalEngine(
            program_b, Database.from_dict(base), track_provenance=False
        )
        return provenance, dred

    def test_union_rule_alternative_derivations(self):
        provenance, dred = self._twin_engines(
            "T(x) :- R(x).\nT(x) :- Q(x).",
            {"R": [(1,), (2,)], "Q": [(1,), (3,)]},
        )
        for fact in [Fact("R", (1,)), Fact("Q", (3,)), Fact("Q", (1,))]:
            provenance.apply_deletions([fact])
            dred.apply_deletions([fact])
            assert _state(provenance) == _state(dred)
        assert (1,) not in provenance.database.relation("T")

    def test_diamond_program_keeps_tuple_until_all_paths_die(self):
        diamond = "B(x) :- A(x).\nC(x) :- A(x).\nD(x) :- B(x).\nD(x) :- C(x).\nE(x) :- D(x)."
        provenance, dred = self._twin_engines(diamond, {"A": [(1,)], "B": [(1,)]})
        # A's deletion removes one support; the asserted B fact keeps D and E.
        provenance.apply_deletions([Fact("A", (1,))])
        dred.apply_deletions([Fact("A", (1,))])
        assert _state(provenance) == _state(dred)
        assert (1,) in provenance.database.relation("E")
        provenance.apply_deletions([Fact("B", (1,))])
        dred.apply_deletions([Fact("B", (1,))])
        assert _state(provenance) == _state(dred)
        assert (1,) not in provenance.database.relation("E")

    def test_transitive_closure_with_redundant_edges(self):
        edges = [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)]
        provenance, dred = self._twin_engines(TC_PROGRAM, {"Edge": edges})
        for edge in [(2, 3), (1, 3), (3, 4)]:
            provenance.apply_deletions([Fact("Edge", edge)])
            dred.apply_deletions([Fact("Edge", edge)])
            assert _state(provenance) == _state(dred)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_random_interleaved_streams_agree(self, seed):
        rng = random.Random(seed)
        provenance, dred = self._twin_engines(TC_PROGRAM, {})
        alive: list[tuple] = []
        for _ in range(30):
            if alive and rng.random() < 0.4:
                edge = alive.pop(rng.randrange(len(alive)))
                batch = [Fact("Edge", edge)]
                provenance.apply_deletions(batch)
                dred.apply_deletions(batch)
            else:
                edge = (rng.randint(1, 5), rng.randint(1, 5))
                if edge not in alive:
                    alive.append(edge)
                batch = [Fact("Edge", edge)]
                provenance.apply_insertions(batch)
                dred.apply_insertions(batch)
            assert _state(provenance) == _state(dred)
            reference = full_recompute(
                provenance.program, Database.from_dict({"Edge": alive})
            )
            assert provenance.database.relation("Path") == reference.relation("Path")

    def test_reference_database_matches_incremental_state(self):
        for track in (True, False):
            engine = IncrementalEngine(
                parse_program(TC_PROGRAM),
                Database.from_dict({"Edge": [(1, 2), (2, 3), (1, 3)]}),
                track_provenance=track,
            )
            engine.apply_deletions([Fact("Edge", (2, 3))])
            engine.apply_insertions([Fact("Edge", (3, 5))])
            reference = engine.reference_database()
            assert {
                p: reference.relation(p) for p in reference.predicates()
            } == _state(engine)


class TestProvenanceAccess:
    def test_provenance_polynomial_available(self):
        engine = make_join_engine()
        provenance = engine.provenance()
        polynomial = provenance.polynomial("OPS", ("ecoli", "lacZ", "ATG"))
        assert not polynomial.is_zero()

    def test_provenance_disabled_raises(self):
        engine = make_join_engine(track_provenance=False)
        with pytest.raises(Exception):
            engine.provenance()

    def test_recompute_matches_incremental(self):
        engine = make_join_engine()
        engine.apply_insertions([Fact("O", ("yeast", 2)), Fact("S", (2, 10, "CCC"))])
        incremental_state = {
            predicate: engine.database.relation(predicate)
            for predicate in ("O", "P", "S", "OPS")
        }
        engine.recompute()
        for predicate, rows in incremental_state.items():
            assert engine.database.relation(predicate) == rows
