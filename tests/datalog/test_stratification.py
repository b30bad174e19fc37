"""Unit tests for negation stratification."""

import pytest

from repro.datalog.parser import parse_program
from repro.datalog.stratification import (
    dependency_graph,
    is_stratifiable,
    stratify,
    stratum_numbers,
)
from repro.errors import StratificationError


class TestStratumNumbers:
    def test_positive_program_single_stratum(self):
        program = parse_program("T(x) :- R(x).\nU(x) :- T(x).")
        numbers = stratum_numbers(program)
        assert numbers["T"] == 0
        assert numbers["U"] == 0

    def test_negation_increases_stratum(self):
        program = parse_program("T(x) :- R(x).\nU(x) :- R(x), not T(x).")
        numbers = stratum_numbers(program)
        assert numbers["U"] == numbers["T"] + 1

    def test_negation_through_recursion_rejected(self):
        program = parse_program("T(x) :- R(x), not U(x).\nU(x) :- R(x), not T(x).")
        with pytest.raises(StratificationError):
            stratum_numbers(program)

    def test_is_stratifiable(self):
        good = parse_program("T(x) :- R(x).\nU(x) :- R(x), not T(x).")
        bad = parse_program("T(x) :- R(x), not T(x).")
        assert is_stratifiable(good)
        assert not is_stratifiable(bad)


class TestStratify:
    def test_strata_order(self):
        program = parse_program(
            "Reach(y) :- Reach(x), Edge(x, y).\n"
            "Reach(x) :- Start(x).\n"
            "Missing(x) :- Node(x), not Reach(x)."
        )
        strata = stratify(program)
        assert len(strata) == 2
        first_heads = {rule.head.predicate for rule in strata[0]}
        second_heads = {rule.head.predicate for rule in strata[1]}
        assert first_heads == {"Reach"}
        assert second_heads == {"Missing"}

    def test_empty_program(self):
        assert stratify(parse_program("")) == []

    def test_all_rules_preserved(self):
        program = parse_program(
            "A(x) :- E(x).\nB(x) :- A(x).\nC(x) :- E(x), not B(x).\nD(x) :- C(x)."
        )
        strata = stratify(program)
        total = sum(len(stratum) for stratum in strata)
        assert total == len(program)


class TestGraphHelpers:
    def test_dependency_graph(self):
        program = parse_program("T(x) :- R(x), not S(x).")
        graph = dependency_graph(program)
        assert ("R", False) in graph["T"]
        assert ("S", True) in graph["T"]
