"""Per-layer attribution: wall-clock spans around the public entry points.

Spans are recorded from the benchmark's side of the API boundary: a traced
run replaces each entry point in :data:`ENTRY_POINTS` with a wrapper that
notes ``perf_counter_ns`` on entry and exit plus the enclosing span.  Spans
stay in memory; afterwards a span's *self* time is its duration minus the
time its child spans cover, so the self times of all spans in the timed
region plus ``bench.other_s`` add up to the timed wall.  Counts come from
the system's own metrics registry and reports.  Layer names are the repo's
modules.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns
from typing import Callable, NamedTuple, Optional


class EntryPoint(NamedTuple):
    """One public function a traced run wraps.

    ``target`` is ``module:attribute path``; module-level functions are
    patched under the name the *calling* module imported them as.
    """

    seconds: str  #: metric that receives the span's self seconds
    target: str
    calls: Optional[str] = None  #: metric that counts the calls
    size: Optional[str] = None  #: metric that sums ``size_of(result)``
    size_of: Optional[Callable] = None


_STORES = ("repro.p2p.store:UpdateStore", "repro.p2p.distributed:DistributedUpdateStore")

ENTRY_POINTS = (
    EntryPoint("api.build_s", "repro.core.system:CDSS.from_spec"),
    EntryPoint("api.sync_self_s", "repro.core.system:CDSS.sync"),
    EntryPoint("core.commit_s", "repro.core.peer:Peer.commit", calls="core.commits"),
    EntryPoint("core.publish_self_s", "repro.core.system:CDSS.publish"),
    EntryPoint(
        "core.reconcile_self_s",
        "repro.core.system:CDSS.reconcile",
        size="core.applied_updates",
        size_of=lambda outcome: outcome.result.applied_updates,
    ),
    EntryPoint("core.apply_s", "repro.core.peer:Peer.apply_updates"),
    *(
        EntryPoint("p2p.store.archive_s", f"{store}.archive", calls="p2p.store.archive_calls")
        for store in _STORES
    ),
    *(
        EntryPoint(
            "p2p.store.read_s",
            f"{store}.published_since",
            calls="p2p.store.read_calls",
            size="p2p.store.entries_read",
            size_of=len,
        )
        for store in _STORES
    ),
    *(EntryPoint("p2p.store.antecedents_s", f"{store}.antecedents_map") for store in _STORES),
    EntryPoint("p2p.store.churn_s", "repro.core.system:CDSS.set_online"),
    EntryPoint("p2p.gossip.converge_s", "repro.p2p.gossip:GossipCoordinator.run_until_converged"),
    EntryPoint("p2p.gossip.catch_up_s", "repro.p2p.gossip:GossipCoordinator.catch_up"),
    EntryPoint("p2p.reconcile.session_s", "repro.p2p.reconcile:SetReconciler.reconcile"),
    EntryPoint("p2p.sketch.decode_s", "repro.p2p.sketch:IBLTSketch.decode"),
    EntryPoint(
        "exchange.process_self_s", "repro.exchange.engine:ExchangeEngine.process_transaction"
    ),
    EntryPoint(
        "exchange.translate_s",
        "repro.exchange.translation:UpdateTranslator.translate",
        calls="exchange.translate_calls",
    ),
    EntryPoint("datalog.insert_s", "repro.datalog.incremental:IncrementalEngine.apply_insertions"),
    EntryPoint("datalog.delete_s", "repro.datalog.incremental:IncrementalEngine.apply_deletions"),
    EntryPoint(
        "provenance.unsupported_s", "repro.provenance.graph:ProvenanceGraph.unsupported_tuples"
    ),
    EntryPoint("provenance.derivable_s", "repro.provenance.graph:ProvenanceGraph.is_derivable"),
    EntryPoint(
        "reconcile.decide_self_s",
        "repro.reconcile.algorithm:Reconciler.reconcile",
        calls="reconcile.calls",
    ),
    EntryPoint("reconcile.group_s", "repro.reconcile.algorithm:build_groups"),
    EntryPoint("reconcile.priority_s", "repro.reconcile.algorithm:group_priority"),
)

#: Every per-layer metric a traced run reports, in table order.
PER_LAYER = (
    "api.build_s",
    "api.sync_self_s",
    "api.sync_rounds",
    "core.commit_s",
    "core.commits",
    "core.publish_self_s",
    "core.reconcile_self_s",
    "core.apply_s",
    "core.applied_updates",
    "p2p.store.archive_s",
    "p2p.store.archive_calls",
    "p2p.store.read_s",
    "p2p.store.read_calls",
    "p2p.store.entries_read",
    "p2p.store.antecedents_s",
    "p2p.store.churn_s",
    "p2p.store.quorum_reads",
    "p2p.store.quorum_writes",
    "p2p.store.degraded_writes",
    "p2p.store.re_replications",
    "p2p.store.repair_entries",
    "p2p.gossip.converge_s",
    "p2p.gossip.catch_up_s",
    "p2p.gossip.rounds",
    "p2p.gossip.sessions",
    "p2p.gossip.useful_session_frac",
    "p2p.gossip.entries_delivered",
    "p2p.reconcile.session_s",
    "p2p.reconcile.fallbacks",
    "p2p.reconcile.sketch_bytes",
    "p2p.reconcile.entry_bytes",
    "p2p.sketch.decode_s",
    "p2p.sketch.decodes",
    "p2p.sketch.decode_fail_frac",
    "p2p.network.messages",
    "p2p.network.bytes",
    "p2p.network.virtual_s",
    "p2p.network.wire_kb_per_txn",
    "exchange.process_self_s",
    "exchange.transactions",
    "exchange.delta_insertions",
    "exchange.delta_deletions",
    "exchange.translate_s",
    "exchange.translate_calls",
    "datalog.insert_s",
    "datalog.delete_s",
    "datalog.rules_fired",
    "datalog.tuples_derived",
    "datalog.rounds",
    "datalog.rules_per_s",
    "provenance.unsupported_s",
    "provenance.derivable_s",
    "provenance.record_s",
    "provenance.tuple_nodes",
    "provenance.derivations",
    "provenance.circuit_nodes",
    "provenance.circuit_edges",
    "provenance.memo_hit_rate",
    "reconcile.decide_self_s",
    "reconcile.group_s",
    "reconcile.priority_s",
    "reconcile.calls",
    "reconcile.candidates",
    "reconcile.accepted",
    "reconcile.rejected",
    "reconcile.deferred",
    "reconcile.pending",
    "reconcile.us_per_candidate",
    "bench.other_s",
    "bench.trace_overhead_frac",
    "bench.step_p90_ms",
)

#: The metrics that add up to the traced wall: every span's self time plus the
#: part no span covers.  ``api.build_s`` runs during set-up and is not among them.
SELF_TIME = (
    *dict.fromkeys(entry.seconds for entry in ENTRY_POINTS if entry.seconds != "api.build_s"),
    "bench.other_s",
)


def unit_of(metric: str) -> str:
    """The unit a per-layer metric is reported in, read off its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_frac", "_rate")):
        return "ratio"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith("us_per_candidate"):
        return "us"
    if metric.endswith("kb_per_txn"):
        return "KB"
    return "count"


class SpanRecorder:
    """Wraps the entry points and keeps every span in memory."""

    def __init__(self) -> None:
        #: ``[entry point, start_ns, end_ns, parent index, result size]``
        self.spans: list[list] = []
        self._open = -1

    def install(self) -> None:
        """Replace every entry point with its span-recording wrapper."""
        for entry in ENTRY_POINTS:
            module_name, path = entry.target.split(":")
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            wrapper = self._wrap(entry, getattr(owner, attribute))
            if isinstance(vars(owner).get(attribute), classmethod):
                # ``getattr`` already bound the class; keep it callable from it.
                wrapper = staticmethod(wrapper)
            setattr(owner, attribute, wrapper)

    def _wrap(self, entry: EntryPoint, function: Callable) -> Callable:
        spans = self.spans
        size_of = entry.size_of

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record = [entry, perf_counter_ns(), 0, self._open, 0]
            self._open = len(spans)
            spans.append(record)
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                self._open = record[3]
            if size_of is not None:
                record[4] = size_of(result)
            return result

        return traced

    def totals(self, start_ns: int, end_ns: int) -> dict[str, float]:
        """Self seconds, call counts and result sizes of the spans in a window.

        ``bench.other_s`` is the part of the window no span covers.
        """
        totals: dict[str, float] = dict.fromkeys((entry.seconds for entry in ENTRY_POINTS), 0.0)
        covered_by_children = [0] * len(self.spans)
        top_level_ns = 0
        for entry, begin, end, parent, size in self.spans:
            if begin < start_ns or end > end_ns:
                continue
            duration = end - begin
            if parent >= 0:
                covered_by_children[parent] += duration
            else:
                top_level_ns += duration
            totals[entry.seconds] += duration / 1e9
            if entry.calls is not None:
                totals[entry.calls] = totals.get(entry.calls, 0) + 1
            if entry.size is not None:
                totals[entry.size] = totals.get(entry.size, 0) + size
        for record, covered in zip(self.spans, covered_by_children):
            totals[record[0].seconds] -= covered / 1e9
        totals["bench.other_s"] = (end_ns - start_ns - top_level_ns) / 1e9
        return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    timed: dict, build_s: float, moved: Callable[[str], float], cdss, virtual_s: float
) -> dict:
    """Assemble the per-layer table of one traced run.

    ``timed`` is :meth:`SpanRecorder.totals` over the timed region, ``moved``
    gives a registry counter's movement over it.  ``provenance.record_s``,
    ``bench.trace_overhead_frac`` and ``bench.step_p90_ms`` come from the
    untraced runs and are filled in by the parent.
    """
    layers = {name: timed.get(name, 0) for name in PER_LAYER}
    layers["api.build_s"] = build_s
    layers["api.sync_rounds"] = moved("sync.rounds")

    health = cdss.store.health() if hasattr(cdss.store, "health") else {}
    layers["p2p.store.quorum_reads"] = moved("store.quorum.reads")
    layers["p2p.store.quorum_writes"] = moved("store.quorum.writes")
    layers["p2p.store.degraded_writes"] = moved("store.quorum.degraded_writes")
    layers["p2p.store.re_replications"] = health.get("re_replications", 0)
    layers["p2p.store.repair_entries"] = health.get("entries_transferred", 0)

    sessions = moved("gossip.sessions")
    layers["p2p.gossip.rounds"] = moved("gossip.rounds")
    layers["p2p.gossip.sessions"] = sessions
    layers["p2p.gossip.useful_session_frac"] = _ratio(
        sessions - moved("gossip.sessions_unchanged"), sessions
    )
    layers["p2p.gossip.entries_delivered"] = moved("gossip.entries_delivered")
    layers["p2p.reconcile.fallbacks"] = moved("gossip.fallbacks")
    layers["p2p.reconcile.sketch_bytes"] = moved("gossip.bytes_sketch")
    layers["p2p.reconcile.entry_bytes"] = moved("gossip.bytes_entries")
    decode_failures = moved("sketch.decode.failures")
    decodes = moved("sketch.decode.successes") + decode_failures
    layers["p2p.sketch.decodes"] = decodes
    layers["p2p.sketch.decode_fail_frac"] = _ratio(decode_failures, decodes)

    layers["p2p.network.messages"] = moved("net.messages.sent")
    layers["p2p.network.bytes"] = moved("net.bytes.sent")
    layers["p2p.network.virtual_s"] = virtual_s
    layers["p2p.network.wire_kb_per_txn"] = _ratio(
        moved("net.bytes.sent") / 1024, moved("sync.published_transactions")
    )

    layers["exchange.transactions"] = moved("exchange.transactions")
    layers["exchange.delta_insertions"] = moved("exchange.delta.insertions")
    layers["exchange.delta_deletions"] = moved("exchange.delta.deletions")
    layers["datalog.rules_fired"] = moved("exchange.rules_fired")
    layers["datalog.tuples_derived"] = moved("exchange.tuples_derived")
    layers["datalog.rounds"] = moved("exchange.rounds")
    layers["datalog.rules_per_s"] = _ratio(
        layers["datalog.rules_fired"], layers["datalog.insert_s"] + layers["datalog.delete_s"]
    )

    statistics = cdss.engine.statistics()
    layers["provenance.tuple_nodes"] = statistics["provenance_tuple_nodes"]
    layers["provenance.derivations"] = statistics["provenance_derivations"]
    layers["provenance.circuit_nodes"] = statistics["provenance_circuit_nodes"]
    layers["provenance.circuit_edges"] = statistics["provenance_circuit_edges"]
    layers["provenance.memo_hit_rate"] = _ratio(
        moved("provenance.circuit.memo_hits"), moved("provenance.circuit.memo_lookups")
    )

    candidates = moved("sync.candidates_considered")
    layers["reconcile.candidates"] = candidates
    summaries = [cdss.reconciliation_state(peer).summary() for peer in cdss.catalog.peer_names()]
    for decision in ("accepted", "rejected", "deferred", "pending"):
        layers[f"reconcile.{decision}"] = sum(summary[decision] for summary in summaries)
    reconcile_s = sum(
        layers[name]
        for name in ("reconcile.decide_self_s", "reconcile.group_s", "reconcile.priority_s")
    )
    layers["reconcile.us_per_candidate"] = _ratio(reconcile_s * 1e6, candidates)
    return layers
