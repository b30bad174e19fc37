"""Stratification of datalog programs with negation.

A program is stratifiable when no predicate depends negatively on itself
through a cycle in the predicate dependency graph.  Stratified evaluation
computes each stratum to fixpoint before any rule in a later stratum reads a
negated atom over it, which gives the standard perfect-model semantics.
"""

from __future__ import annotations

from collections import defaultdict

from ..errors import StratificationError
from .ast import Program, Rule


def dependency_graph(program: Program) -> dict[str, set[tuple[str, bool]]]:
    """Return ``{head: {(body_predicate, negated), ...}}`` for the program."""
    graph: dict[str, set[tuple[str, bool]]] = defaultdict(set)
    for head, body, negated in program.dependency_edges():
        graph[head].add((body, negated))
    return dict(graph)


def stratum_numbers(program: Program) -> dict[str, int]:
    """Assign a stratum number to every IDB predicate.

    Uses the classic iterative algorithm: the stratum of a head predicate must
    be at least the stratum of every positive body predicate and strictly
    greater than the stratum of every negated body predicate.  EDB predicates
    live in stratum 0.  If numbers exceed the number of predicates, the
    program has negation through recursion and is rejected.
    """
    idb = program.idb_predicates
    numbers: dict[str, int] = {predicate: 0 for predicate in idb}
    if not idb:
        return numbers

    limit = len(idb) + 1
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            head = rule.head.predicate
            for literal_predicate, negated in (
                (atom.predicate, atom.negated)
                for atom in rule.body
                if hasattr(atom, "predicate")
            ):
                if literal_predicate not in idb:
                    continue
                required = numbers[literal_predicate] + (1 if negated else 0)
                if numbers[head] < required:
                    numbers[head] = required
                    if numbers[head] > limit:
                        raise StratificationError(
                            "program is not stratifiable: predicate "
                            f"{head!r} depends negatively on itself through recursion"
                        )
                    changed = True
    return numbers


def stratify(program: Program) -> list[list[Rule]]:
    """Partition the program's rules into an ordered list of strata.

    Each stratum is a list of rules that can be evaluated to fixpoint
    together; strata must be evaluated in the returned order.
    """
    numbers = stratum_numbers(program)
    if not program.rules:
        return []
    buckets: dict[int, list[Rule]] = defaultdict(list)
    for rule in program.rules:
        buckets[numbers[rule.head.predicate]].append(rule)
    return [buckets[level] for level in sorted(buckets)]


def is_stratifiable(program: Program) -> bool:
    """True when the program admits a stratification."""
    try:
        stratum_numbers(program)
    except StratificationError:
        return False
    return True
