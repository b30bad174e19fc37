"""Unified observability: structured tracing + a shared metrics registry.

Every subsystem (sync orchestration, update exchange, both datalog
executors, the distributed store, gossip reconciliation, provenance
evaluation) emits into one :class:`Observability` holder:

* :class:`MetricsRegistry` — counters and histograms under stable
  dotted-lowercase names, flattened to a deterministic ``snapshot()``
  dict that is merged into ``SyncReport.metrics`` and the benchmark
  reporting tables;
* :class:`Tracer` — nested spans (``sync.round`` → ``publish`` /
  ``reconcile`` → ``exchange.stratum`` → ``rule.fire``,
  ``store.quorum_read``/``store.quorum_write``, ``gossip.session``,
  ``sketch.decode``, ``provenance.evaluate``) stamped from the network's
  :class:`~repro.p2p.network.VirtualClock`, so two runs of the same seed
  produce **byte-identical** Chrome-trace JSON;
* :data:`NULL_SPAN` / :class:`NullTracer` — the disabled path: a single
  shared no-op context manager, no per-call allocation.

Exports live in :mod:`repro.obs.export`: Chrome-trace-event JSON
(loadable in Perfetto via ``ui.perfetto.dev`` → *Open trace file*) plus
schema and metric-name validators used by CI.
"""

from .export import (
    chrome_trace,
    trace_json,
    validate_chrome_trace,
    validate_metric_keys,
    write_chrome_trace,
)
from .metrics import METRIC_NAME_RE, MetricsRegistry, validate_metric_name
from .tracer import NULL_SPAN, NullTracer, Observability, Tracer

__all__ = [
    "METRIC_NAME_RE",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullTracer",
    "Observability",
    "Tracer",
    "chrome_trace",
    "trace_json",
    "validate_chrome_trace",
    "validate_metric_keys",
    "validate_metric_name",
    "write_chrome_trace",
]
