"""Step cost must not grow with the history already published.

A fixed-rate stream over the Figure-2 network does the same work in every
block of ten steps: the same mix of inserts, modifies, deletes and one
cross-peer conflict.  Reconciliation is incremental in the newly published
transactions and deletion propagation follows provenance from the deleted
tuples, so the late blocks may not cost more than the early ones.  Cost is
counted, not timed: calls of ``conflicting()`` (conflict detection) and the
tuples the support fixpoint rechecks (``ProvenanceGraph._rederive``, the
deletion-propagation work of a flush) repeat exactly from run to run.
"""

from __future__ import annotations

import sys

from repro.provenance.graph import ProvenanceGraph
from repro.workloads.bioinformatics import build_figure2_network

#: What each of the two publishers commits in a step, by ``step % 10``:
#: Insert a triple, Modify or Delete the oldest S tuple it still holds, or
#: insert its half of a Conflicting pair (same key, different sequence).
KINDS = "IIIMIDIICI"
STEPS = 60
PEERS = ("Alaska", "Beijing", "Crete", "Dresden")


class CallCounter:
    """Counts calls of ``function``, each weighted by ``cost`` of its arguments."""

    def __init__(self, function, cost=lambda *args: 1):
        self.function = function
        self.cost = cost
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += self.cost(*args, **kwargs)
        return self.function(*args, **kwargs)


def count_calls(monkeypatch):
    """Count ``conflicting()`` wherever ``repro`` imported it, and the
    tuples each flush rechecks for support."""
    from repro.core.updates import conflicting

    conflicts = CallCounter(conflicting)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "conflicting", None) is conflicting:
            monkeypatch.setattr(module, "conflicting", conflicts)
    rechecks = CallCounter(
        ProvenanceGraph._rederive, cost=lambda graph, recheck, cone: len(recheck)
    )
    monkeypatch.setattr(
        ProvenanceGraph, "_rederive", lambda self, recheck, cone: rechecks(self, recheck, cone)
    )
    return conflicts, rechecks


def run_stream(cdss, counters) -> list[tuple[int, ...]]:
    """Drive the stream; returns the per-step increase of each counter."""
    held = {"Alaska": [], "Beijing": []}
    per_step = []
    for step in range(STEPS):
        before = tuple(counter.calls for counter in counters)
        kind = KINDS[step % len(KINDS)]
        for offset, name in enumerate(("Alaska", "Beijing")):
            peer = cdss.peer(name)
            oid, pid = 10 * step + offset, 10 * step + offset + 5
            if kind == "C":
                oid, pid = 10 * step, 10 * step + 5  # both peers claim one key
            if kind in "IC":
                builder = peer.new_transaction()
                builder.insert("O", (f"organism{oid}", oid))
                builder.insert("P", (f"protein{pid}", pid))
                builder.insert("S", (oid, pid, f"{name}{step}"))
                peer.commit(builder)
                if kind == "I":
                    held[name].append((oid, pid, f"{name}{step}"))
            elif kind == "M":
                old = held[name].pop(0)
                held[name].append((old[0], old[1], f"{name}{step}"))
                peer.modify("S", old, held[name][-1])
            else:
                peer.delete("S", held[name].pop(0))
            cdss.publish(name)
        for name in PEERS:
            cdss.reconcile(name)
        per_step.append(
            tuple(counter.calls - start for counter, start in zip(counters, before))
        )
    return per_step


def test_late_steps_cost_no_more_than_early_steps(monkeypatch):
    cdss = build_figure2_network().cdss
    counters = count_calls(monkeypatch)
    per_step = run_stream(cdss, counters)

    early = [sum(step[index] for step in per_step[10:20]) for index in range(2)]
    late = [sum(step[index] for step in per_step[-10:]) for index in range(2)]
    # The stream exercises both mechanisms ...
    assert early[0] > 0 and early[1] > 0
    assert any(cdss.reconciliation_state(name).open_conflicts() for name in PEERS)
    assert cdss.engine.provenance.unsupported_tuples()
    # ... and fifty steps of history make neither more expensive.
    assert late[0] <= early[0], f"conflicting() calls grew with history: {early[0]} -> {late[0]}"
    assert late[1] <= early[1], f"support rechecks grew with history: {early[1]} -> {late[1]}"
