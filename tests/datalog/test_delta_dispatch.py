"""Semi-naive rounds fire through the per-stratum dispatch index, exactly once.

``CompiledProgram.dispatch`` maps each body predicate to the ``(rule rank,
delta position, rule)`` pairs a delta over it triggers.  The loops it
replaced scanned every rule of a stratum and every positive position of each
rule in every round; they live on here as the reference backend
:class:`ScanPythonBackend`.  Every scenario runs on the reference and on the
real backend, recording ``(rule label, delta position)`` per firing, and the
firing sequences, the order of the recorded derivations and the databases
must be identical.

The reference also keeps the delta plans as they were before they
became exact (:func:`full_delta_fire`): every atom but the delta atom reads
its whole relation, so a combination whose rows arrived in one delta fires
at each of its delta positions.  The exact plans leave out only those
repeats, which record nothing new and derive nothing new, so the graph the
real backend builds — records, their order and the tuple ids — must equal
the reference's; a Hypothesis differential over random programs checks it.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CDSS
from repro.datalog import executor
from repro.datalog.ast import Atom, Constant, Fact, Program, Rule, Variable
from repro.datalog.evaluation import Database
from repro.datalog.executor import ExecutionStats, PythonExecutionBackend
from repro.datalog.incremental import IncrementalEngine
from repro.datalog.parser import parse_program
from repro.datalog.plan import compile_program, compile_rule, delta_dispatch, triggered
from repro.exchange.rules import published_relation
from repro.workloads.bioinformatics import build_figure2_network
from repro.workloads.simulation import RandomWorkload, SimulationConfig, generate_network


def _reading_delta_alone(rule: Rule, position: int):
    """``rule`` with its atom at ``position`` renamed to a relation of its own."""
    body = list(rule.body)
    atom = body[position]
    body[position] = Atom("\N{GREEK CAPITAL LETTER DELTA}" + atom.predicate, atom.terms)
    return compile_rule(Rule(rule.head, tuple(body), label=rule.label))


def full_delta_fire(compiled, database, delta, position, recorder=None, stats=None):
    """The delta firing of ``compiled`` at ``position`` as it was before delta
    plans became exact: every other positive atom reads its whole relation.

    The delta atom reads a renamed relation holding just the delta, so no
    other atom finds delta rows to leave out; the recorder is told the
    original relations.
    """
    renamed = _reading_delta_alone(compiled.rule, position)
    alone = {
        renamed.rule.body[position].predicate:
            delta.get(compiled.rule.body[position].predicate, set())
    }
    if recorder is not None:
        original, report = compiled.signature, recorder

        def recorder(label, _, firings):
            report(label, original, firings)

    return executor.fire_rule(
        renamed, database, alone, position, recorder=recorder, stats=stats
    )


def _scan_stratum(stratum, database, recorder, stats):
    """The pre-index ``run_stratum``: a naive round, then rounds that scan."""
    idb = {compiled.rule.head.predicate for compiled in stratum}
    all_new: dict[str, set[tuple]] = defaultdict(set)
    delta: dict[str, set[tuple]] = defaultdict(set)
    for compiled in stratum:
        head = compiled.rule.head.predicate
        for values in executor.fire_rule(compiled, database, recorder=recorder, stats=stats):
            if database.add(head, values):
                delta[head].add(values)
                all_new[head].add(values)
    while delta:
        if stats is not None:
            stats.rounds += 1
        next_delta: dict[str, set[tuple]] = defaultdict(set)
        for compiled in stratum:
            head = compiled.rule.head.predicate
            body = compiled.rule.body
            for position in compiled.positive_positions:
                predicate = body[position].predicate
                if predicate not in idb or predicate not in delta:
                    continue
                for values in full_delta_fire(
                    compiled, database, delta, position, recorder=recorder, stats=stats
                ):
                    if database.add(head, values):
                        next_delta[head].add(values)
                        all_new[head].add(values)
        delta = next_delta
    if stats is not None:
        stats.tuples_derived += sum(len(values) for values in all_new.values())
    return dict(all_new)


class ScanPythonBackend(PythonExecutionBackend):
    """The closure executor as it was before the dispatch index and before
    delta plans became exact."""

    def run_program(self, compiled, database, recorder=None, stats=None, max_iterations=0):
        database.ensure_indexes(compiled.demanded_indexes)
        all_new: dict[str, set[tuple]] = {}
        for stratum in compiled.strata:
            for predicate, values in _scan_stratum(stratum, database, recorder, stats).items():
                all_new.setdefault(predicate, set()).update(values)
        return all_new

    def propagate(self, compiled, database, delta, recorder=None, stats=None):
        inserted: dict[str, set[tuple]] = defaultdict(set)
        accumulated = {predicate: set(values) for predicate, values in delta.items()}
        for stratum in compiled.strata:
            current = {predicate: set(values) for predicate, values in accumulated.items()}
            while current:
                if stats is not None:
                    stats.rounds += 1
                next_delta: dict[str, set[tuple]] = defaultdict(set)
                for rule in stratum:
                    head = rule.rule.head.predicate
                    body = rule.rule.body
                    for position in rule.positive_positions:
                        if body[position].predicate not in current:
                            continue
                        for values in full_delta_fire(
                            rule, database, current, position, recorder=recorder, stats=stats
                        ):
                            if database.add(head, values):
                                next_delta[head].add(values)
                                inserted[head].add(values)
                                accumulated.setdefault(head, set()).add(values)
                current = next_delta
        if stats is not None:
            stats.tuples_derived += sum(len(values) for values in inserted.values())
        return dict(inserted)


@pytest.fixture
def firings(monkeypatch) -> list[tuple[str, object]]:
    """``(rule label, delta position)`` of every firing (``None`` is a
    plain, non-delta application)."""
    log: list[tuple[str, object]] = []
    fire_rule = executor.fire_rule

    def recorded(compiled, database, delta=None, delta_position=None, **kwargs):
        rule = compiled.rule
        log.append((rule.label or rule.head.predicate, delta_position))
        return fire_rule(compiled, database, delta, delta_position, **kwargs)

    monkeypatch.setattr(executor, "fire_rule", recorded)
    return log


def _run(backend, program, batches, firings, track_provenance):
    """Apply ``(deletes, inserts)`` batches; returns what must not differ."""
    engine = IncrementalEngine(program, track_provenance=track_provenance, backend=backend)
    firings.clear()
    for deletes, inserts in batches:
        engine.apply_deletions(deletes)
        engine.apply_insertions(inserts)
    database = {
        predicate: engine.database.relation(predicate)
        for predicate in engine.database.predicates()
    }
    graph = engine.graph
    derivations = list(graph.derivations()) if graph is not None else []
    # Tuple ids are dense, in interning order: the node list is the id map.
    tuple_ids = [node.key for node in graph.tuples()] if graph is not None else []
    return list(firings), derivations, database, tuple_ids


def assert_dispatch_matches_scan(program, batches, firings, fires=True):
    for track_provenance in (True, False):
        expected = _run(ScanPythonBackend(), program, batches, firings, track_provenance)
        actual = _run(PythonExecutionBackend(), program, batches, firings, track_provenance)
        assert expected[0] or not fires, "the scenario fires nothing"
        assert actual[0] == expected[0], "firing sequences differ"
        assert actual[1] == expected[1], "derivation order differs"
        assert actual[2] == expected[2], "databases differ"
        assert actual[3] == expected[3], "tuple ids differ"


# -- the scenarios -----------------------------------------------------------------


def _generated(seed: int):
    """The random networks of ``test_plan_executor.py`` with their batches."""
    config = SimulationConfig(epochs=3, max_peers=4, transactions_per_epoch=(2, 6))
    rng = random.Random(seed)
    spec = generate_network(rng, config)
    workload = RandomWorkload(spec, config, rng)
    batches = []
    for _ in range(config.epochs):
        deletes, inserts = [], []
        for command in workload.epoch_commands():
            relation = published_relation(command.peer, command.relation)
            if command.kind in ("delete", "modify"):
                old = command.values if command.kind == "delete" else command.old_values
                deletes.append(Fact(relation, old))
            if command.kind != "delete":
                inserts.append(Fact(relation, command.values))
        batches.append((deletes, inserts))
    return CDSS.from_spec(spec).engine.program, batches


def _figure2():
    """Figure 2: a wave of triples, a deletion wave, then the re-insert."""
    program = build_figure2_network().cdss.engine.program
    facts = {"Alaska": [], "Beijing": []}
    for index in range(12):
        peer = ("Alaska", "Beijing")[index % 2]
        oid, pid = 2 * index, 2 * index + 1
        facts[peer] += [
            Fact(published_relation(peer, "O"), (f"organism{oid}", oid)),
            Fact(published_relation(peer, "P"), (f"protein{pid}", pid)),
            Fact(published_relation(peer, "S"), (oid, pid, f"seq{index}")),
        ]
    wave = [fact for peer in facts for fact in facts[peer]]
    doomed = [fact for fact in wave if fact.predicate.endswith("S")][::2]
    return program, [([], wave), (doomed, []), ([], doomed)]


def _star_program(spokes: int = 100):
    lines = ["network star"]
    names = ["Hub", *(f"S{index:03d}" for index in range(spokes))]
    for name in names:
        lines += [f"peer {name}", "  relation R(a, b) key(a)", "  trust * 5"]
    for name in names[1:]:
        lines.append(f"mapping [M_{name}] @Hub.R(a, b) :- @{name}.R(a, b).")
    return CDSS.from_spec("\n".join(lines)).engine.program


def _star():
    """One transaction per spoke on the 100-spoke star, a few at a time."""
    batches = [
        ([], [Fact(published_relation(f"S{spoke:03d}", "R"), (spoke, f"r{spoke}"))])
        for spoke in range(0, 100, 7)
    ]
    batches.append(([], [Fact(published_relation(f"S{spoke:03d}", "R"), (100 + spoke, "x"))
                         for spoke in (3, 50, 97)]))
    return _star_program(), batches


@pytest.mark.parametrize("seed", range(1, 9))
def test_generated_networks_fire_as_the_scan_did(seed, firings):
    assert_dispatch_matches_scan(*_generated(seed), firings)


def test_figure2_deletion_wave_and_reinsert_fire_as_the_scan_did(firings):
    assert_dispatch_matches_scan(*_figure2(), firings)


def test_star_fires_as_the_scan_did(firings):
    assert_dispatch_matches_scan(*_star(), firings)


def test_a_rule_deriving_its_own_body_keeps_full_relations(firings):
    """``B(z, w) :- C(z, 1), B(w, x), A(y, 0)`` inserts B(1, 0) from its
    C-delta firing; its A-delta firing then joins that new B with C(1, 1) and
    A(0, 0) from the delta.  Leaving C's delta rows out there would defer
    B(1, 1) to the next round and record it later, so the rule keeps full
    relations before its delta atom."""
    program = parse_program("B(z, w) :- C(z, 1), B(w, x), A(y, 0).")
    assert compile_program(program).rules[0].plan_for(2).description == (
        "delta A", "probe C[1]", "scan B",
    )
    batches = [([], [Fact("A", (0, 0)), Fact("B", (0, 0)), Fact("C", (1, 1))])]
    assert_dispatch_matches_scan(program, batches, firings)


# -- random programs: exact delta plans against the full-relation oracle -----------

_VARIABLES = tuple(Variable(name) for name in "xyzw")
_PREDICATES = ("A", "B", "C", "H", "K")


@st.composite
def _rules(draw):
    """A safe rule over the binary relations A, B, C, H and K: one to three
    body atoms (self-joins and recursion included) over four variables and
    the occasional constant; the head picks body variables."""
    body = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        terms = tuple(
            Constant(draw(st.integers(0, 1)))
            if draw(st.integers(0, 9)) == 0
            else draw(st.sampled_from(_VARIABLES))
            for _ in range(2)
        )
        body.append(Atom(draw(st.sampled_from(_PREDICATES)), terms))
    bound = sorted({term for atom in body for term in atom.terms if isinstance(term, Variable)})
    if not bound:
        bound = [Constant(0)]
    head = Atom(
        draw(st.sampled_from(_PREDICATES)),
        (draw(st.sampled_from(bound)), draw(st.sampled_from(bound))),
    )
    return Rule(head, tuple(body), label=f"r{draw(st.integers(0, 99))}")


_facts = st.lists(
    st.builds(
        Fact,
        st.sampled_from(("A", "B", "C")),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
    ),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(
    rules=st.lists(_rules(), min_size=1, max_size=4),
    batches=st.lists(st.tuples(_facts, _facts), min_size=1, max_size=3),
)
def test_exact_delta_plans_record_what_full_delta_plans_recorded(rules, batches):
    """Equal databases, equal derivation records in equal first-recorded
    order and equal tuple ids, whatever the program and the batches."""
    firings: list = []
    original = executor.fire_rule

    def recorded(compiled, database, delta=None, delta_position=None, **kwargs):
        rule = compiled.rule
        firings.append((rule.label or rule.head.predicate, delta_position))
        return original(compiled, database, delta, delta_position, **kwargs)

    executor.fire_rule = recorded
    try:
        assert_dispatch_matches_scan(Program(rules), batches, firings, fires=False)
    finally:
        executor.fire_rule = original


# -- cost: a round visits what its delta triggers ---------------------------------


class CountedStratum(list):
    """A stratum that records every rule a loop reaches by iterating it."""

    def __init__(self, rules, visits: list) -> None:
        super().__init__(rules)
        self.visits = visits

    def __iter__(self):
        for rule in super().__iter__():
            self.visits.append(rule)
            yield rule


def test_one_spoke_transaction_visits_only_the_rules_it_triggers(firings, monkeypatch):
    """The star's strata hold 201 rules; a spoke's insert triggers one rule
    per round, and no round walks the rest (the scan walked all 201)."""
    program = _star_program()
    compiled = compile_program(program)
    assert sum(len(stratum) for stratum in compiled.strata) == 201
    engine = IncrementalEngine(program)
    engine.apply_insertions([Fact(published_relation("S000", "R"), (0, "warm"))])

    visits: list = []
    monkeypatch.setattr(
        compiled, "strata", [CountedStratum(stratum, visits) for stratum in compiled.strata]
    )
    firings.clear()
    result = engine.apply_insertions([Fact(published_relation("S042", "R"), (42, "x"))])

    rounds = result.stats.rounds
    assert result.inserted_count == 3  # published, local copy, Hub's copy
    assert rounds >= 2 and len(firings) == 2
    assert len(visits) <= len(firings), f"{len(visits)} rule visits in {rounds} rounds"


def test_dispatch_orders_several_predicates_by_rank_and_position():
    program = _star_program(spokes=3)
    for stratum in compile_program(program).strata:
        dispatch = delta_dispatch(stratum)
        for predicates in (list(dispatch), list(dispatch)[::-1]):
            entries = triggered(dispatch, predicates)
            scan = [
                (rank, position, rule)
                for rank, rule in enumerate(stratum)
                for position in rule.positive_positions
                if rule.rule.body[position].predicate in predicates
            ]
            assert list(entries) == scan
        assert triggered(dispatch, ["no_such_predicate"]) == ()


def test_run_stratum_builds_its_index_when_called_alone(firings):
    program = parse_program(
        "path(x, y) :- edge(x, y).\npath(x, z) :- path(x, y), edge(y, z)."
    )
    database = Database()
    for edge in ((1, 2), (2, 3), (3, 4)):
        database.add("edge", edge)
    (stratum,) = compile_program(program).strata
    derived = executor.run_stratum(stratum, database, stats=ExecutionStats())
    assert derived["path"] == {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}
    assert ("path", 0) in firings  # the recursive occurrence fired as a delta
