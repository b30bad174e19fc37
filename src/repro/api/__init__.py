"""The declarative public API of the CDSS.

This package is the primary surface for building and driving networks:

* :mod:`repro.api.spec` — the textual/dict network-spec language
  (``CDSS.from_spec``), with full round-tripping via :func:`spec_of`;
* :mod:`repro.api.builder` — the fluent :class:`NetworkBuilder` with
  build-time validation;
* :mod:`repro.api.sync` — one-call :func:`synchronize` orchestration
  (``cdss.sync()``) returning a structured :class:`SyncReport`;
* :mod:`repro.api.pipeline` — :meth:`SyncReport.pipelined`, the finished
  sync's traffic replayed as overlapped transfers under admission control;
* :mod:`repro.api.query` — ad-hoc datalog queries over a peer's instance
  (``cdss.query()``), optionally provenance-annotated.

The imperative facade (``add_peer``/``add_mapping``/``publish``/``reconcile``)
remains fully supported underneath; everything here composes it.
"""

from .builder import NetworkBuilder, PeerBuilder, build_network
from .query import QueryResult, run_query
from .spec import (
    NetworkSpec,
    PeerSpec,
    SectionSpec,
    parse_network_spec,
    sections_of,
    spec_of,
)
from .sync import DEFAULT_MAX_ROUNDS, SyncReport, SyncRound, sync_round, synchronize

__all__ = [
    "DEFAULT_MAX_ROUNDS",
    "NetworkBuilder",
    "NetworkSpec",
    "PeerBuilder",
    "PeerSpec",
    "QueryResult",
    "SectionSpec",
    "SyncReport",
    "SyncRound",
    "build_network",
    "parse_network_spec",
    "run_query",
    "sections_of",
    "spec_of",
    "sync_round",
    "synchronize",
]
