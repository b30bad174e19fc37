"""The CDSS facade: publication, update exchange and reconciliation.

:class:`CDSS` wires the substrates together the way Figure 1 of the paper
describes:

* peers edit their local instances autonomously and commit transactions;
* ``publish(peer)`` archives the peer's unpublished transactions in the
  shared update store (simulated P2P archive), advances the logical clock,
  and folds the transactions into the incremental update-exchange engine,
  which records how they translate into every other peer's schema;
* ``reconcile(peer)`` retrieves everything published since the peer last
  reconciled and considers it *as translated into the peer's schema*: the
  transactions whose translation brings the peer something become
  candidates for the trust-based reconciliation algorithm, which applies
  the accepted ones to the peer's local instance and defers equal-priority
  conflicts; the rest — the peer's own transactions and those that
  translate to nothing there — are counted as offered and accepted by rule
  (:meth:`CDSS._implicitly_accepted`), without being translated, decided or
  stored;
* ``resolve_conflict(peer, winner)`` lets the site administrator settle a
  deferred conflict, cascading accepts/rejects through dependent
  transactions.

On top of these imperative primitives the facade offers the declarative
surface of :mod:`repro.api`: ``CDSS.from_spec`` builds a whole network from
a textual/dict description, ``sync()`` drives publish + reconcile across
all online peers until quiescence and returns a structured
:class:`~repro.api.sync.SyncReport`, and ``query()`` evaluates ad-hoc
datalog over a peer's instance (optionally provenance-annotated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..config import SystemConfig
from ..errors import ConfigurationError, MappingError, PublicationError
from ..exchange.engine import ExchangeEngine
from ..exchange.migration import migrate_instance
from ..exchange.rules import compile_mappings
from ..exchange.translation import UpdateTranslator
from ..obs import Tracer, write_chrome_trace
from ..p2p.distributed import store_from_config
from ..p2p.gossip import GossipCoordinator
from ..p2p.network import Network
from ..reconcile.algorithm import ReconcileResult, Reconciler
from ..reconcile.decisions import DeferredConflict, ReconciliationState
from ..reconcile.resolution import ResolutionResult, resolve_conflict
from .catalog import Catalog
from .clock import LogicalClock
from .mapping import Mapping
from .peer import Peer
from .schema import PeerSchema
from .transactions import Transaction
from .trust import TrustPolicy


@dataclass
class PublishOutcome:
    """Summary of one publication."""

    peer: str
    epoch: int
    published: list[str] = field(default_factory=list)
    translated_changes: int = 0

    def to_dict(self) -> dict:
        """Plain-data form used by reports, benchmarks and serialization."""
        return {
            "peer": self.peer,
            "epoch": self.epoch,
            "published": list(self.published),
            "translated_changes": self.translated_changes,
        }


@dataclass
class ReconcileOutcome:
    """Summary of one reconciliation, wrapping the algorithm-level result."""

    peer: str
    epoch: int
    #: Entries past the peer's watermark that were offered to it, whether or
    #: not they touched the peer and became candidates of ``result``.
    candidates_considered: int
    result: ReconcileResult

    @property
    def accepted(self) -> list[str]:
        return self.result.accepted

    @property
    def rejected(self) -> list[str]:
        return self.result.rejected

    @property
    def deferred(self) -> list[str]:
        return self.result.deferred

    @property
    def pending(self) -> list[str]:
        return self.result.pending

    def to_dict(self) -> dict:
        """Plain-data form used by reports, benchmarks and serialization."""
        serialized = self.result.to_dict()
        serialized["epoch"] = self.epoch
        serialized["candidates_considered"] = self.candidates_considered
        return serialized


@dataclass
class PublishAllOutcome:
    """Outcome of publishing across several peers.

    Iterates like the plain list of per-peer :class:`PublishOutcome` it used
    to be, but additionally names the peers that were skipped because they
    were offline at the time.
    """

    outcomes: list[PublishOutcome] = field(default_factory=list)
    skipped_offline: list[str] = field(default_factory=list)

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, index):
        return self.outcomes[index]

    @property
    def published_transactions(self) -> int:
        return sum(len(outcome.published) for outcome in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "skipped_offline": list(self.skipped_offline),
            "published_transactions": self.published_transactions,
        }


class CDSS:
    """A complete collaborative data sharing system."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        store_factory=None,
    ) -> None:
        """Create an empty system.

        ``store_factory`` (``(network, store_config) -> store``) overrides
        how the shared update archive is built; by default
        :func:`~repro.p2p.distributed.store_from_config` selects the
        centralized or distributed backend named by ``config.store.backend``.
        """
        self.config = config or SystemConfig.default()
        self.name = "network"
        self.catalog = Catalog()
        self.clock = LogicalClock()
        self.network = Network()
        # One observability holder for the whole system: the network owns
        # it (traffic counters land there even before the CDSS exists) and
        # every other layer shares the same registry/tracer slots.
        self.obs = self.network.obs
        if self.config.observe.mode == "trace":
            self.obs.tracer = Tracer(self.network.clock)
        factory = store_factory if store_factory is not None else store_from_config
        self.store = factory(self.network, self.config.store)
        sync_config = self.config.sync
        self.gossip: Optional[GossipCoordinator] = None
        if sync_config.mode == "gossip":
            self.gossip = GossipCoordinator(
                self.network,
                self.store,
                fanout=sync_config.gossip_fanout,
                observability=self.obs,
            )
        self._engine: Optional[ExchangeEngine] = None
        self._translators: dict[str, UpdateTranslator] = {}
        self._reconcilers: dict[str, Reconciler] = {}

    # -- declarative construction --------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        source,
        config: Optional[SystemConfig] = None,
        storage_factory=None,
        store_factory=None,
    ) -> "CDSS":
        """Build a complete system from a declarative network description.

        ``source`` may be the textual spec language, an equivalent dict, or
        an already-parsed :class:`~repro.api.spec.NetworkSpec`; see
        :mod:`repro.api.spec` for the format.  The spec is fully validated
        before any peer is registered.  ``storage_factory`` (``peer name ->
        storage backend``) selects a non-default backend for every peer's
        local instance, e.g. ``lambda name: SQLiteInstance()``.
        ``store_factory`` (``(network, store_config) -> store``) overrides
        the shared archive; without it the spec's ``store`` section (or
        ``config.store.backend``) picks centralized vs distributed.
        """
        from ..api.builder import build_network

        return build_network(source, config, storage_factory, store_factory)

    def to_spec(self):
        """The declarative :class:`~repro.api.spec.NetworkSpec` of this system.

        Inverse of :meth:`from_spec` for table-based trust policies;
        ``cdss.to_spec().to_text()`` round-trips.
        """
        from ..api.spec import spec_of

        return spec_of(self)

    # -- setup -------------------------------------------------------------------
    def add_peer(
        self,
        name: str,
        schema: PeerSchema,
        trust: Optional[TrustPolicy] = None,
        storage=None,
    ) -> Peer:
        """Register a new participant.

        Args:
            name: Unique peer name.
            schema: The peer's local schema.
            trust: Trust policy (defaults to trusting everyone equally).
            storage: Optional storage backend for the local instance (for
                example a :class:`repro.storage.SQLiteInstance`); defaults to
                an in-memory instance.
        """
        peer = Peer(name, schema, trust, storage=storage)
        self.catalog.add_peer(peer)
        self.network.register(name)
        self._translators[name] = UpdateTranslator(name, schema)
        state = ReconciliationState(
            peer=name,
            implicit_rule=lambda txn_id: self._implicitly_accepted(peer, txn_id),
        )
        self._reconcilers[name] = Reconciler(peer, state)
        if self.gossip is not None:
            self.gossip.register_peer(name)
        self._invalidate_engine()
        return peer

    def add_mapping(self, mapping: Mapping) -> Mapping:
        # Validate peer membership up front with a mapping-level error rather
        # than letting engine compilation fail later with a bare KeyError.
        for role, peer_name in (
            ("source", mapping.source_peer),
            ("target", mapping.target_peer),
        ):
            if not self.catalog.has_peer(peer_name):
                from ..analysis import codes as _codes

                raise MappingError(
                    f"mapping {mapping.mapping_id!r} references {role} peer "
                    f"{peer_name!r}, which is not registered; call add_peer first",
                    code=_codes.UNKNOWN_PEER,
                    span=mapping.span,
                )
        self.catalog.add_mapping(mapping)
        self._invalidate_engine()
        return mapping

    def add_mappings(self, mappings: Iterable[Mapping]) -> list[Mapping]:
        return [self.add_mapping(mapping) for mapping in mappings]

    def peer(self, name: str) -> Peer:
        return self.catalog.peer(name)

    # -- engine management ---------------------------------------------------------
    def _invalidate_engine(self) -> None:
        if self._engine is not None:
            # The rebuilt engine may translate history differently; what each
            # peer accepted by rule under this one becomes a stored decision.
            processed = self._engine.processed_transactions()
            for reconciler in self._reconcilers.values():
                reconciler.state.store_implicit(processed)
        self._engine = None

    def _implicitly_accepted(self, peer: Peer, txn_id: str) -> bool:
        """The implicit-accept rule of ``peer``'s reconciliation state.

        A transaction is accepted without a stored decision when the peer
        has been offered it (it was exchanged and published no later than
        the peer's reconcile watermark) and it does not touch the peer: it
        originated there, or its delta holds nothing for the peer.
        """
        engine = self._engine
        if engine is None or not engine.has_processed(txn_id):
            return False
        delta = engine.delta_for(txn_id)
        offered = delta.epoch <= peer.clock.last_reconciled_epoch
        return offered and not delta.touches(peer.name)

    @property
    def engine(self) -> ExchangeEngine:
        """The update-exchange engine (built lazily, rebuilt on schema changes)."""
        if self._engine is None:
            program = compile_mappings(
                [(peer.name, peer.schema) for peer in self.catalog.peers()],
                self.catalog.mappings(),
            )
            engine = ExchangeEngine(program, self.config.exchange, observability=self.obs)
            # Replay anything already archived so late schema changes keep the
            # translated state consistent.  Only a finished replay is kept: a
            # fault part-way leaves no engine, and the next access replays again.
            for entry in self.store.all_entries():
                engine.process_transaction(entry.transaction)
            self._engine = engine
        return self._engine

    def explain(self) -> str:
        """The mapping program's execution plan: per rule, one line with
        its plan's steps, then the source of its generated kernel."""
        engine = self.engine
        return "\n".join(engine.backend.explain(engine.compiled_program))

    def analyze(self):
        """Run the static analyzer against this system.

        Returns a :class:`~repro.analysis.diagnostics.DiagnosticReport`
        covering chase termination, rule safety, stratifiability, trust
        lints and topology — without executing anything.
        """
        from ..analysis import analyze_system

        return analyze_system(self)

    # -- publication ------------------------------------------------------------------
    def import_existing_data(self, peer_name: str) -> Optional[Transaction]:
        """Wrap a peer's pre-existing local data into an initial transaction.

        The transaction is appended to the peer's update log; the next
        ``publish`` call ships it to the rest of the system.
        """
        peer = self.peer(peer_name)
        transaction = migrate_instance(peer)
        if transaction is not None:
            peer.log.append(transaction)
        return transaction

    def publish(self, peer_name: str) -> PublishOutcome:
        """Publish a peer's unpublished transactions to the shared store."""
        peer = self.peer(peer_name)
        self.network.require_online(peer_name, "publish")

        pending = peer.log.unpublished()
        epoch = self.clock.tick()
        outcome = PublishOutcome(peer=peer_name, epoch=epoch)
        if not pending:
            return outcome

        with self.obs.span("publish", peer=peer_name, epoch=epoch):
            # Make sure the exchange engine exists (and has replayed the
            # archive) before new entries are appended, so nothing is
            # processed twice.
            engine = self.engine
            entries = self.store.archive(pending, epoch, peer_name)
            peer.log.mark_published(len(pending))
            peer.clock.record_publication(epoch)

            if self.gossip is not None:
                self.gossip.record_published(peer_name, entries)

            try:
                for entry in entries:
                    delta = engine.process_transaction(entry.transaction)
                    outcome.published.append(entry.txn_id)
                    outcome.translated_changes += delta.change_count()
            except BaseException:
                # The batch is archived and the engine is a fold over the
                # archive: drop the half-applied engine, and the next access
                # replays every entry, this batch included.
                self._invalidate_engine()
                raise
        metrics = self.obs.metrics
        metrics.counter_add("sync.publications", 1, label=peer_name)
        metrics.counter_add(
            "sync.published_transactions", len(outcome.published), label=peer_name
        )
        return outcome

    def publish_all(self, peer_names: Optional[Sequence[str]] = None) -> PublishAllOutcome:
        """Publish every (or the given) peer's pending transactions, in order.

        Offline peers are skipped but reported in ``skipped_offline`` rather
        than silently omitted; the result still iterates over the per-peer
        :class:`PublishOutcome` list for backward compatibility.
        """
        names = list(peer_names) if peer_names is not None else self.catalog.peer_names()
        result = PublishAllOutcome()
        for name in names:
            if self.network.is_online(name):
                result.outcomes.append(self.publish(name))
            else:
                result.skipped_offline.append(name)
        return result

    # -- reconciliation -------------------------------------------------------------------
    def reconcile(self, peer_name: str) -> ReconcileOutcome:
        """Translate newly published transactions and reconcile them at a peer."""
        peer = self.peer(peer_name)
        self.network.require_online(peer_name, "reconcile")

        engine = self.engine
        watermark = peer.clock.last_reconciled_epoch
        span = self.obs.span("reconcile", peer=peer_name, watermark=watermark)
        with span:
            return self._reconcile_inner(peer, peer_name, engine, watermark)

    def _reconcile_inner(
        self, peer: Peer, peer_name: str, engine: ExchangeEngine, watermark: int
    ) -> ReconcileOutcome:
        if self.gossip is not None:
            # Gossip mode: catch the peer's local entry cache up with the
            # archive (a two-message no-op when the epidemic rounds already
            # converged it) and answer "what did I miss" from the cache.
            # After catch-up the cache equals the archive, so this list is
            # identical to the cursor-mode pull below — the sketch-vs-cursor
            # oracle checks exactly that.
            self.gossip.catch_up(peer_name)
            entries = self.gossip.entries_since(peer_name, watermark)
        else:
            entries = self.store.published_since(watermark)
        # Everything past the watermark is *offered* (reports, downlink
        # traffic and quiescence count it), but only what touches this peer
        # is translated and decided; the rest is accepted by rule.
        offered = len(entries)
        touching = engine.touching(peer_name, watermark)
        if offered != engine.processed_since(watermark):
            # The archive served something other than what was exchanged:
            # establish entry by entry what is being offered.
            touching = []
            for entry in entries:
                if not engine.has_processed(entry.txn_id):
                    raise PublicationError(
                        f"transaction {entry.txn_id!r} is archived but was never exchanged"
                    )
                delta = engine.delta_for(entry.txn_id)
                if delta.touches(peer_name):
                    touching.append((entry.transaction, delta))
        translator = self._translators[peer_name]
        candidates = [
            translator.translate(transaction, delta) for transaction, delta in touching
        ]

        epoch = self.clock.tick()
        reconciler = self._reconcilers[peer_name]
        if candidates or reconciler.state.undecided:
            result = reconciler.reconcile(
                candidates,
                # The store answers ``txn_id in store`` exactly on both
                # backends, which is all the reconciler asks of the archive.
                known_transactions=self.store,
                provenance=engine.provenance if self.config.exchange.track_provenance else None,
                epoch=epoch,
            )
        else:
            # Idle: nothing new touches the peer and nothing awaits a
            # decision, so the reconciler would return exactly this.
            result = ReconcileResult(peer=peer_name, epoch=epoch)
        reconciler.state.implicit_accepts += offered - len(candidates)
        peer.clock.record_reconciliation(self.store.latest_epoch())
        metrics = self.obs.metrics
        metrics.counter_add("sync.reconciliations", 1, label=peer_name)
        metrics.counter_add("sync.candidates_considered", offered, label=peer_name)
        return ReconcileOutcome(
            peer=peer_name,
            epoch=epoch,
            candidates_considered=offered,
            result=result,
        )

    # -- orchestration --------------------------------------------------------------
    def sync(
        self,
        peers: Optional[Sequence[str]] = None,
        max_rounds: Optional[int] = None,
        trace=None,
    ):
        """Publish and reconcile across the network until quiescence.

        Runs rounds of "every online peer publishes, then every online peer
        reconciles" until a round observes no new transactions, and returns
        a structured :class:`~repro.api.sync.SyncReport` (per-peer outcomes,
        translated-change counts, skipped offline peers, open conflicts).
        Restrict participation with ``peers``.

        ``trace`` controls span tracing for this and later calls:
        ``True`` installs a deterministic :class:`~repro.obs.Tracer` on
        the system's shared observability holder (keeping an existing
        one), a :class:`~repro.obs.Tracer` instance installs that tracer,
        and ``False`` removes the current tracer.  Whenever a tracer is
        active — or ``config.observe.mode`` is not ``"off"`` — the
        returned report carries the per-run metrics view in
        ``report.metrics``.
        """
        from ..api.sync import DEFAULT_MAX_ROUNDS, synchronize

        if trace is not None:
            if trace is False:
                self.obs.tracer = None
            elif trace is True:
                if self.obs.tracer is None:
                    self.obs.tracer = Tracer(self.network.clock)
            elif isinstance(trace, Tracer):
                self.obs.tracer = trace
            else:
                raise ConfigurationError(
                    f"trace must be True, False, or a Tracer, got {trace!r}"
                )

        return synchronize(self, peers, DEFAULT_MAX_ROUNDS if max_rounds is None else max_rounds)

    def sync_round(self, peers: Optional[Sequence[str]] = None):
        """Run exactly one publish-then-reconcile pass (no quiescence loop)."""
        from ..api.sync import sync_round

        return sync_round(self, peers)

    def query(
        self,
        peer_name: str,
        text: str,
        provenance: bool = False,
        max_monomials: Optional[int] = 10_000,
    ):
        """Evaluate an ad-hoc datalog query over one peer's local instance.

        The head predicate of the first rule in ``text`` is the answer
        relation; with ``provenance=True`` every answer row is annotated
        with its provenance polynomial over the peer's base tuples (evaluated
        in ``N[X]`` on the provenance graph; ``max_monomials`` bounds
        the expansion and a row exceeding it raises
        :class:`~repro.errors.ProvenanceError` rather than materialising a
        combinatorial polynomial — pass ``None`` to lift the budget).
        Returns a :class:`~repro.api.query.QueryResult`.
        """
        from ..api.query import run_query

        return run_query(
            self,
            peer_name,
            text,
            provenance=provenance,
            max_monomials=max_monomials,
        )

    def resolve_conflict(self, peer_name: str, winner_txn_id: str) -> ResolutionResult:
        """Manually resolve a deferred conflict at a peer (administrator action)."""
        peer = self.peer(peer_name)
        reconciler = self._reconcilers[peer_name]
        return resolve_conflict(peer, reconciler.state, winner_txn_id)

    # -- observability ---------------------------------------------------------------------
    def trace_events(self) -> list[dict]:
        """The spans recorded so far (empty when tracing is off)."""
        tracer = self.obs.tracer
        return tracer.events() if tracer is not None else []

    def write_trace(self, path: str) -> None:
        """Write the recorded spans as Chrome-trace JSON (Perfetto-loadable)."""
        tracer = self.obs.tracer
        if tracer is None:
            raise ConfigurationError(
                "no tracer is active; sync(trace=True) or "
                "'observe trace' in the spec first"
            )
        write_chrome_trace(tracer, path)

    def metrics_snapshot(self) -> dict:
        """Flat cumulative view of the shared metrics registry."""
        return self.obs.metrics.snapshot()

    # -- connectivity ----------------------------------------------------------------------
    def set_online(self, peer_name: str, online: bool) -> None:
        """Connect or disconnect a peer (it keeps operating locally while offline)."""
        self.peer(peer_name).set_online(online)
        self.network.set_online(peer_name, online)

    # -- inspection ---------------------------------------------------------------------------
    def reconciliation_state(self, peer_name: str) -> ReconciliationState:
        return self._reconcilers[peer_name].state

    def open_conflicts(self, peer_name: str) -> list[DeferredConflict]:
        return self._reconcilers[peer_name].state.open_conflicts()

    def peer_snapshot(self, peer_name: str) -> dict[str, frozenset[tuple]]:
        return self.peer(peer_name).snapshot()

    def statistics(self) -> dict[str, int]:
        """System-wide counters used by the reports and benchmarks."""
        stats = {
            "peers": len(self.catalog.peers()),
            "mappings": len(self.catalog.mappings()),
            "published_transactions": len(self.store),
            "epoch": self.clock.value,
        }
        if self._engine is not None:
            stats.update(self._engine.statistics())
        return stats
