"""The five fixed workloads.

Each workload is a class whose constructor is the *set-up* (build the
network through ``CDSS.from_spec``, generate every input from the seed,
preload) and whose :meth:`step` is one timed user operation.  All of them
run exactly :data:`STEPS` steps; ``SIZES`` holds the frozen per-step sizes
(``full`` is what ``BENCHMARK.json`` measures, ``tiny`` is for
``test_e2e.py``).  Only public ``repro`` entry points are called.
"""

from __future__ import annotations

import random

from repro import CDSS
from repro.p2p.network import LatencyModel
from repro.workloads.bioinformatics import build_figure2_network

#: Steps per run.  Fixed so that p90 always has ten samples beyond it.
STEPS = 100


class StepFailed(Exception):
    """A step finished without raising but did not do its job."""


class Workload:
    """Constructor = set-up; :meth:`step` = one timed operation."""

    name = ""
    why = ""
    shape = ""
    sizes: dict[str, dict[str, int]] = {}
    #: A traced invocation runs this workload once more without provenance
    #: tracking and reports the difference as ``provenance.record_s``.
    provenance_ab = False

    cdss: CDSS

    def step(self, index: int) -> int:
        """Run step ``index``; returns the tuple-level updates it committed."""
        raise NotImplementedError

    def finish(self) -> None:
        """Timed tail after the last step (part of ``wall_s``, not a step)."""

    def check(self, deep: bool) -> list[str]:
        """Correctness failures of the final state (untimed).

        ``deep`` adds the oracles that cost more than the run itself; the
        harness asks for them once per seed and relies on the digests to tie
        the other runs to the verified one.
        """
        return []


def _token(rng: random.Random) -> str:
    return f"{rng.getrandbits(40):010x}"


class _Triples:
    """Seeded source of fresh, never-colliding O/P/S triples."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._next = rng.randrange(1, 1_000_000) * 1_000_000

    def take(self, count: int) -> list[tuple[tuple, tuple, tuple]]:
        triples = []
        for _ in range(count):
            oid, pid = self._next, self._next + 1
            self._next += 2
            token = _token(self._rng)
            triples.append(
                (
                    (f"org-{token}-{oid}", oid),
                    (f"prot-{token}-{pid}", pid),
                    (oid, pid, _token(self._rng)),
                )
            )
        return triples


def _commit_triples(peer, triples) -> None:
    builder = peer.new_transaction()
    for organism, protein, sequence in triples:
        builder.insert("O", organism)
        builder.insert("P", protein)
        builder.insert("S", sequence)
    peer.commit(builder)


def _exchange_check(cdss: CDSS) -> list[str]:
    engine = cdss.engine
    if engine.database == engine.reference_database():
        return []
    return ["incrementally maintained exchange database differs from recomputation"]


def _crete_ops_check(cdss: CDSS, expected: int) -> list[str]:
    derived = len(cdss.engine.derived_tuples("Crete", "OPS"))
    if derived == expected:
        return []
    return [f"Crete.OPS derives {derived} tuples, expected {expected}"]


class Fig2Stream(Workload):
    name = "fig2_stream"
    why = (
        "The paper's own scenario through every layer with rich mappings, trust "
        "and conflicts; reconcile dominates and grows with the shared history."
    )
    shape = (
        "Figure-2 network; a scripted update stream at Alaska and Beijing, per 20 "
        "transactions: 12 inserts of `triples` O/P/S triples, 4 modifies and 2 deletes of an "
        "S tuple the peer inserted earlier, 1 cross-peer conflict pair on one key; "
        "step = commit the next `transactions` transactions, publish Alaska+Beijing, "
        "reconcile all four peers"
    )
    sizes = {"full": {"transactions": 2, "triples": 2}, "tiny": {"transactions": 1, "triples": 1}}

    #: Kind of each transaction in a block of 20 (Insert, Modify, Delete, Conflict
    #: pair).  The order is fixed so that every seed does the same amount of work;
    #: the seed picks the values and which earlier tuple a modify/delete hits.
    KINDS = "IIIMIIDICCIMIIMIDIMI"

    def __init__(self, seed: int, size: dict[str, int], config) -> None:
        self._network = build_figure2_network(config)
        self.cdss = self._network.cdss
        rng = random.Random(seed)
        source = _Triples(rng)
        live: dict[str, list[tuple]] = {"Alaska": [], "Beijing": []}
        conflict = None  # the triple both halves of the current conflict pair claim
        script = []  # (peer, [(operation, relation, *values)])
        for index in range(STEPS * size["transactions"]):
            kind = self.KINDS[index % len(self.KINDS)]
            peer = ("Alaska", "Beijing")[index % 2]
            if kind == "I":
                triples = source.take(size["triples"])
                operations = [
                    ("insert", relation, values)
                    for triple in triples
                    for relation, values in zip("OPS", triple)
                ]
                live[peer].extend(sequence for _, _, sequence in triples)
            elif kind == "C":
                first_half = conflict is None
                if first_half:
                    conflict = source.take(1)[0]
                organism, protein, (oid, pid, _) = conflict
                operations = [
                    ("insert", "O", organism),
                    ("insert", "P", protein),
                    ("insert", "S", (oid, pid, _token(rng))),
                ]
                if not first_half:
                    conflict = None
            else:
                held = live[peer]
                oid, pid, sequence = held.pop(rng.randrange(len(held)))
                if kind == "M":
                    held.append((oid, pid, _token(rng)))
                    operations = [("modify", "S", (oid, pid, sequence), held[-1])]
                else:
                    operations = [("delete", "S", (oid, pid, sequence))]
            script.append((peer, operations))
        self._steps = [
            script[start : start + size["transactions"]]
            for start in range(0, len(script), size["transactions"])
        ]
        self.cdss.engine  # compile the mapping program during set-up

    def step(self, index: int) -> int:
        updates = 0
        for peer, operations in self._steps[index]:
            peer = self.cdss.peer(peer)
            builder = peer.new_transaction()
            for operation, *arguments in operations:
                getattr(builder, operation)(*arguments)
            peer.commit(builder)
            updates += len(operations)
        self.cdss.publish("Alaska")
        self.cdss.publish("Beijing")
        for name in self._network.peer_names():
            self.cdss.reconcile(name)
        return updates

    def check(self, deep: bool) -> list[str]:
        return _exchange_check(self.cdss) if deep else []


class BulkInsert(Workload):
    name = "bulk_insert"
    why = (
        "Isolates store.archive -> exchange -> datalog insert -> provenance "
        "recording with no reconcile, so a join/executor gain is not hidden; "
        "the memory-heavy case."
    )
    shape = (
        "Figure-2 network; step = Alaska commits one transaction of `triples` "
        "fresh O/P/S triples and publishes it; no reconcile in the timed region"
    )
    sizes = {"full": {"triples": 60}, "tiny": {"triples": 3}}
    provenance_ab = True

    def __init__(self, seed: int, size: dict[str, int], config) -> None:
        network = build_figure2_network(config)
        self.cdss = network.cdss
        self._alaska = network.alaska
        source = _Triples(random.Random(seed))
        self._batches = [source.take(size["triples"]) for _ in range(STEPS)]
        self._inserted = 0
        self.cdss.engine

    def step(self, index: int) -> int:
        batch = self._batches[index]
        _commit_triples(self._alaska, batch)
        self.cdss.publish("Alaska")
        self._inserted += len(batch)
        return 3 * len(batch)

    def check(self, deep: bool) -> list[str]:
        failures = _crete_ops_check(self.cdss, self._inserted)
        return failures + _exchange_check(self.cdss) if deep else failures


class BulkDelete(Workload):
    name = "bulk_delete"
    why = (
        "The bulk_insert layers used the other way (deletion propagation "
        "through the provenance graph): a gain for inserts that costs deletes, "
        "or the reverse, shows here."
    )
    shape = (
        "Figure-2 network preloaded in set-up with `batches` published "
        "transactions of `batch` triples; step = Alaska commits one transaction "
        "deleting `deletes` distinct S tuples and publishes it"
    )
    sizes = {
        "full": {"batches": 4, "batch": 80, "deletes": 2},
        "tiny": {"batches": 2, "batch": 60, "deletes": 1},
    }

    def __init__(self, seed: int, size: dict[str, int], config) -> None:
        network = build_figure2_network(config)
        self.cdss = network.cdss
        self._alaska = network.alaska
        rng = random.Random(seed)
        source = _Triples(rng)
        sequences = []
        for _ in range(size["batches"]):
            batch = source.take(size["batch"])
            _commit_triples(self._alaska, batch)
            self.cdss.publish("Alaska")
            sequences.extend(sequence for _, _, sequence in batch)
        self._preloaded = len(sequences)
        doomed = rng.sample(sequences, STEPS * size["deletes"])
        self._deletions = [
            doomed[start : start + size["deletes"]]
            for start in range(0, len(doomed), size["deletes"])
        ]
        self._deleted = 0

    def step(self, index: int) -> int:
        doomed = self._deletions[index]
        builder = self._alaska.new_transaction()
        for sequence in doomed:
            builder.delete("S", sequence)
        self._alaska.commit(builder)
        self.cdss.publish("Alaska")
        self._deleted += len(doomed)
        return len(doomed)

    def check(self, deep: bool) -> list[str]:
        failures = _crete_ops_check(self.cdss, self._preloaded - self._deleted)
        return failures + _exchange_check(self.cdss) if deep else failures


def _peer_lines(name: str) -> list[str]:
    return [f"peer {name}", "  relation R(a, b) key(a)", "  trust * 5"]


def _rows_check(cdss: CDSS, hub: str, expected: set[tuple]) -> list[str]:
    held = set(cdss.peer(hub).tuples("R"))
    if held == expected:
        return []
    return [
        f"{hub} holds {len(held)} rows, expected {len(expected)} "
        f"({len(expected - held)} missing, {len(held - expected)} unexpected)"
    ]


def _sync(cdss: CDSS) -> None:
    if not cdss.sync().converged:
        raise StepFailed("sync() did not converge")


class StarSync(Workload):
    name = "star_sync"
    why = (
        "Many peers, trivial mappings: sync orchestration, two reconcile calls "
        "per peer per step, store reads and translation dominate; datalog and "
        "provenance do almost nothing."
    )
    shape = (
        "`spokes` spokes each mapped into Hub (R(a,b) key a), centralized store, "
        "cursor sync, serial runtime, LatencyModel(seed); step = a seeded "
        "`publishers` spokes insert one row each, then cdss.sync()"
    )
    sizes = {"full": {"spokes": 100, "publishers": 6}, "tiny": {"spokes": 8, "publishers": 2}}

    def __init__(self, seed: int, size: dict[str, int], config) -> None:
        spokes = [f"S{index:03d}" for index in range(size["spokes"])]
        lines = ["network star", *_peer_lines("Hub")]
        for spoke in spokes:
            lines.extend(_peer_lines(spoke))
        for spoke in spokes:
            lines.append(f"mapping [M_{spoke}] @Hub.R(a, b) :- @{spoke}.R(a, b).")
        self.cdss = CDSS.from_spec("\n".join(lines), config=config)
        self.cdss.network.set_latency_model(LatencyModel(seed=seed))
        rng = random.Random(seed)
        keys = iter(range(rng.randrange(1, 1_000_000) * 1_000, 10**12))
        self._inserts = [
            [(spoke, (next(keys), _token(rng))) for spoke in rng.sample(spokes, size["publishers"])]
            for _ in range(STEPS)
        ]
        self._rows: set[tuple] = set()
        self.cdss.engine

    def step(self, index: int) -> int:
        for spoke, row in self._inserts[index]:
            self.cdss.peer(spoke).insert("R", row)
            self._rows.add(row)
        _sync(self.cdss)
        return len(self._inserts[index])

    def check(self, deep: bool) -> list[str]:
        return _rows_check(self.cdss, "Hub", self._rows)


class ChurnGossip(Workload):
    name = "churn_gossip"
    why = (
        "The only workload where gossip, sketch reconciliation and the "
        "distributed store (quorum reads, re-replication) do most of the work "
        "and where wire bytes per transaction are large."
    )
    shape = (
        "`clusters` clusters x (1 hub + `members` members), store distributed "
        "shards 8 replication 2, sync gossip fanout 2 sketch iblt, "
        "LatencyModel(seed); step = seeded churn on members (half of the offline "
        "ones rejoin, a fifth of the online ones leave, hubs never leave), a "
        "seeded `committers` members insert one row each (offline ones too; they "
        "publish on return), then cdss.sync(); after the last step everyone "
        "rejoins and one flash-crowd sync() is timed as part of wall_s"
    )
    sizes = {
        "full": {"clusters": 5, "members": 7, "committers": 4},
        "tiny": {"clusters": 2, "members": 3, "committers": 1},
    }

    def __init__(self, seed: int, size: dict[str, int], config) -> None:
        hub_of: dict[str, str] = {}
        lines = [
            "network churn",
            "store distributed shards 8 replication 2",
            "sync gossip fanout 2 sketch iblt",
        ]
        for cluster in range(size["clusters"]):
            hub = f"H{cluster}"
            lines.extend(_peer_lines(hub))
            for member in range(size["members"]):
                name = f"M{cluster}x{member}"
                hub_of[name] = hub
                lines.extend(_peer_lines(name))
        for name, hub in hub_of.items():
            lines.append(f"mapping [M_{name}] @{hub}.R(a, b) :- @{name}.R(a, b).")
        self.cdss = CDSS.from_spec("\n".join(lines), config=config)
        self.cdss.network.set_latency_model(LatencyModel(seed=seed))
        self._hub_of = hub_of

        # The whole churn schedule is an input: fixed fractions, seeded subsets,
        # so every seed commits the same number of transactions.
        rng = random.Random(seed)
        members = sorted(hub_of)
        keys = iter(range(rng.randrange(1, 1_000_000) * 1_000, 10**12))
        online, offline = set(members), set()
        self._schedule = []
        for _ in range(STEPS):
            rejoin = rng.sample(sorted(offline), round(0.5 * len(offline)))
            leave = rng.sample(sorted(online), round(0.2 * len(online)))
            online = (online | set(rejoin)) - set(leave)
            offline = (offline - set(rejoin)) | set(leave)
            commits = [
                (name, (next(keys), _token(rng)))
                for name in rng.sample(members, size["committers"])
            ]
            self._schedule.append((rejoin, leave, commits))
        self._offline = offline
        self._rows: dict[str, set[tuple]] = {hub: set() for hub in hub_of.values()}
        self._committed = 0
        self.cdss.engine

    def step(self, index: int) -> int:
        rejoin, leave, commits = self._schedule[index]
        for name in rejoin:
            self.cdss.set_online(name, True)
        for name in leave:
            self.cdss.set_online(name, False)
        for name, row in commits:
            self.cdss.peer(name).insert("R", row)
            self._rows[self._hub_of[name]].add(row)
        self._committed += len(commits)
        _sync(self.cdss)
        return len(commits)

    def finish(self) -> None:
        for name in sorted(self._offline):
            self.cdss.set_online(name, True)
        _sync(self.cdss)

    def check(self, deep: bool) -> list[str]:
        failures = []
        for hub, rows in self._rows.items():
            failures.extend(_rows_check(self.cdss, hub, rows))
        store = self.cdss.store
        under_replicated = store.under_replicated()
        if under_replicated:
            failures.append(f"under-replicated shards after rejoin: {sorted(under_replicated)}")
        if len(store) != self._committed:
            failures.append(
                f"store archives {len(store)} transactions, {self._committed} were committed"
            )
        return failures


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (Fig2Stream, BulkInsert, BulkDelete, StarSync, ChurnGossip)
}
