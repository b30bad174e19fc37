"""Randomized CDSS simulation with differential oracles.

The demo paper claims ORCHESTRA "has been tested extensively on small- to
medium-sized networks with update-heavy workloads", but the seed reproduction
only ever exercised the one hand-wired Figure-2 topology.  This module turns
that single scenario into a *scenario engine*:

* :func:`generate_network` — a seeded random network generator: random peer
  counts, schemas drawn from a shared signature pool, acyclic tgd mapping
  graphs (copy/join/split mappings with optional existential variables) and
  random table-based trust policies.  Every network is emitted through the
  declarative :class:`~repro.api.spec.NetworkSpec` layer, so it round-trips
  ``to_spec``/``from_spec`` by construction (and the simulator checks it).
* :class:`RandomWorkload` — a seeded driver producing insert/modify/delete/
  conflict command streams over any generated network, plus an offline
  schedule (peers drop out for an epoch and catch up later).
* Differential oracles, in the conditioning/possible-worlds spirit of
  checking an optimized engine against an exhaustively recomputable
  semantics.  After **every** epoch the simulator asserts:

  1. ``incremental-vs-recompute`` — the exchange engine's incrementally
     maintained database equals a from-scratch
     :func:`~repro.datalog.provenance_eval.evaluate_with_provenance`
     recomputation over the published base facts;
  2. ``provenance-vs-dred`` — a mirror engine using DRed deletion (no
     provenance) reaches the same database on the same transaction stream;
  3. ``sync-vs-manual`` — ``cdss.sync()`` orchestration leaves every peer
     instance identical to a hand-rolled publish/reconcile loop built from
     the imperative primitives;
  4. ``memory-vs-sqlite`` — a replica whose peers live in SQLite reaches
     instances identical to the in-memory replica;
  5. ``distributed-vs-centralized`` — a replica archiving into the sharded,
     replicated :class:`~repro.p2p.distributed.DistributedUpdateStore`
     produces sync reports and peer instances identical to the centralized
     archive, round for round, under the same churn schedule;
  6. ``replica-durability`` — every transaction archived in the distributed
     store is held by at least ``min(replication_factor, peers)`` shard
     replicas after churn settles, so losing any ``k - 1`` replicas of a
     shard cannot lose published data;
  7. ``sketch-vs-cursor`` — a replica whose peers catch up via gossip
     sketch reconciliation (:mod:`repro.p2p.gossip`) produces sync reports
     and peer instances identical to scalar-cursor catch-up, round for
     round, under the same churn schedule — sketch decode failures and
     cursor fallbacks may cost bytes, never correctness.

The oracles that compare the primary replica with another one (3, 4, 5, 7)
are the rows of :data:`MIRRORS`; the primary's modes are :data:`MODE_OPTIONS`.

Because the oracles run after every epoch, the epoch reported by a failing
oracle is already minimal: it is the first epoch at which the divergence is
observable for that seed.

Entry points: :func:`run_simulation` (one seed), :func:`run_campaign` (a
batch of seeds), and the ``python -m repro.simulate`` CLI for fuzz
campaigns.  A 25-seed slice runs in the test suite
(``tests/workloads/test_simulation.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..api.builder import NetworkBuilder
from ..api.spec import NetworkSpec, parse_network_spec, sections_of
from ..config import OPTIONS, ExchangeConfig, Option, StoreConfig, SystemConfig, configure
from ..core.system import CDSS
from ..datalog.ast import Atom, Variable
from ..core.mapping import Mapping
from ..errors import ConfigurationError, ReproError
from ..exchange.engine import ExchangeEngine
from ..storage.sqlite_backend import SQLiteInstance

#: The modes a simulation can be run in, by the one word that names each on
#: the command line (``--store distributed``): every option that chooses
#: between two or more alternative implementations.  A mirror replica flips
#: one of them.
MODE_OPTIONS: dict[str, Option] = {
    option.flag: option
    for option in OPTIONS
    if len(option.choices) >= 2 and not option.levels
}


def simulated_system(**modes: str) -> SystemConfig:
    """The primary replica's configuration for the given mode words
    (``store="distributed", sync="gossip"``), over the simulator's base: the
    system defaults with a three-shard archive.
    """
    unknown = sorted(set(modes) - set(MODE_OPTIONS))
    if unknown:
        raise ConfigurationError(
            f"unknown simulation mode {unknown[0]!r}; expected one of {', '.join(MODE_OPTIONS)}"
        )
    return configure(
        SystemConfig(store=StoreConfig(shard_count=3)),
        ((MODE_OPTIONS[flag], word) for flag, word in modes.items()),
    )


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one randomized simulation run.

    The defaults are sized for the fast pytest slice (a few peers, a few
    epochs); fuzz campaigns scale them up via the CLI.
    """

    epochs: int = 4
    min_peers: int = 2
    max_peers: int = 4
    #: Size of the shared pool of relation signatures peers draw from.
    signature_pool: int = 4
    max_relations_per_peer: int = 3
    min_arity: int = 2
    max_arity: int = 4
    #: Probability that a relation signature declares a proper key (a strict
    #: prefix of its attributes) rather than the whole tuple.
    keyed_probability: float = 0.75
    #: Probability of a mapping edge between each forward-ordered peer pair
    #: (every peer additionally gets at least one incoming edge).
    mapping_density: float = 0.5
    #: Probability that a generated mapping joins two source relations.
    join_probability: float = 0.25
    #: Probability that a generated mapping has a multi-atom (split) head.
    split_probability: float = 0.2
    #: Probability that a head position holds a fresh existential variable
    #: (a labelled null after skolemisation) instead of a body variable.
    existential_probability: float = 0.2
    #: Probability that a copy mapping between same-signature relations is an
    #: exact identity (maximizing data flow) rather than randomly wired.
    identity_probability: float = 0.5
    transactions_per_epoch: tuple[int, int] = (2, 6)
    modify_fraction: float = 0.2
    delete_fraction: float = 0.15
    conflict_fraction: float = 0.15
    #: Probability that one random peer sits out an epoch offline.
    offline_probability: float = 0.2
    #: Values are drawn from this many distinct constants per column kind;
    #: key columns use a halved domain so same-key conflicts actually occur.
    domain_size: int = 6
    max_sync_rounds: int = 30
    #: Per-epoch sample bound for the dag-vs-expanded oracle (0 disables);
    #: the oracle compares DAG evaluation with expanded-polynomial evaluation
    #: for sampled derived tuples under several semirings.
    provenance_oracle_samples: int = 25
    #: Expansion budget for the oracle's polynomial side; sampled tuples
    #: whose expansion exceeds it are skipped (the DAG is the whole point
    #: for those).
    provenance_oracle_max_monomials: int = 4096
    #: Configuration of the primary replica (see :func:`simulated_system`).
    #: Each flipping row of :data:`MIRRORS` runs the same configuration with
    #: one of its :data:`MODE_OPTIONS` on the other word.
    system: SystemConfig = simulated_system()

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError("epochs must be at least 1")
        if not 2 <= self.min_peers <= self.max_peers:
            raise ConfigurationError("need 2 <= min_peers <= max_peers")
        if self.signature_pool < 1 or self.max_relations_per_peer < 1:
            raise ConfigurationError("signature_pool and max_relations_per_peer must be >= 1")
        if not 1 <= self.min_arity <= self.max_arity:
            raise ConfigurationError("need 1 <= min_arity <= max_arity")
        low, high = self.transactions_per_epoch
        if not 1 <= low <= high:
            raise ConfigurationError("transactions_per_epoch must be an increasing range from >= 1")
        for name in (
            "keyed_probability", "mapping_density", "join_probability",
            "split_probability", "existential_probability", "identity_probability",
            "modify_fraction", "delete_fraction", "conflict_fraction",
            "offline_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        # conflict_fraction is rolled independently of the modify/delete
        # split, so only the latter two share a probability budget.
        total = self.modify_fraction + self.delete_fraction
        if total > 1.0:
            raise ConfigurationError(
                f"modify_fraction + delete_fraction must not exceed 1, got {total}"
            )
        if self.domain_size < 2:
            raise ConfigurationError("domain_size must be at least 2")
        if self.max_sync_rounds < 1:
            raise ConfigurationError("max_sync_rounds must be at least 1")
        if self.provenance_oracle_samples < 0:
            raise ConfigurationError("provenance_oracle_samples must be >= 0")
        if self.provenance_oracle_max_monomials < 1:
            raise ConfigurationError("provenance_oracle_max_monomials must be >= 1")


# ---------------------------------------------------------------------------
# Network generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Signature:
    """One relation shape shared across peers (name, attributes, key prefix)."""

    name: str
    attributes: tuple[str, ...]
    key_length: int  # == len(attributes) when the whole tuple is the key

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def has_proper_key(self) -> bool:
        return self.key_length < self.arity


def _signature_pool(rng: random.Random, config: SimulationConfig) -> list[_Signature]:
    pool = []
    for index in range(config.signature_pool):
        arity = rng.randint(config.min_arity, config.max_arity)
        attributes = tuple(f"a{position}" for position in range(arity))
        if arity > 1 and rng.random() < config.keyed_probability:
            key_length = rng.randint(1, arity - 1)
        else:
            key_length = arity
        pool.append(_Signature(f"R{index}", attributes, key_length))
    return pool


def _generate_mapping(
    rng: random.Random,
    config: SimulationConfig,
    mapping_id: str,
    source: str,
    target: str,
    source_sigs: Sequence[_Signature],
    target_sigs: Sequence[_Signature],
) -> Mapping:
    """One random copy/join/split tgd from ``source``'s schema to ``target``'s."""
    fresh = iter(range(10_000))

    def body_atom(signature: _Signature, tag: int) -> Atom:
        return Atom(
            signature.name,
            tuple(Variable(f"v{tag}_{k}") for k in range(signature.arity)),
        )

    body = [body_atom(rng.choice(list(source_sigs)), 0)]
    if len(body[0].terms) and rng.random() < config.join_probability:
        second = body_atom(rng.choice(list(source_sigs)), 1)
        # Share one variable so the body is a genuine join.
        terms = list(second.terms)
        terms[rng.randrange(len(terms))] = rng.choice(body[0].terms)
        body.append(Atom(second.predicate, tuple(terms)))

    pool = [term for atom in body for term in atom.terms]

    def head_atom(signature: _Signature) -> Atom:
        terms = []
        for _ in range(signature.arity):
            if rng.random() < config.existential_probability:
                terms.append(Variable(f"e{next(fresh)}"))
            else:
                terms.append(rng.choice(pool))
        return Atom(signature.name, tuple(terms))

    # Exact identity when source and target share the body signature: this is
    # the high-data-flow case (and the one that produces cross-peer conflicts).
    shared = [sig for sig in target_sigs if sig.name == body[0].predicate]
    if (
        len(body) == 1
        and shared
        and rng.random() < config.identity_probability
    ):
        heads = [Atom(body[0].predicate, body[0].terms)]
    else:
        head_sigs = [rng.choice(list(target_sigs))]
        if len(target_sigs) > 1 and rng.random() < config.split_probability:
            others = [sig for sig in target_sigs if sig.name != head_sigs[0].name]
            if others:
                head_sigs.append(rng.choice(others))
        heads = [head_atom(signature) for signature in head_sigs]

    return Mapping(mapping_id, source, target, tuple(body), tuple(heads))


def generate_network(
    seed_or_rng: int | random.Random, config: Optional[SimulationConfig] = None
) -> NetworkSpec:
    """Generate a random, validated :class:`NetworkSpec` from a seed.

    Peers draw their relations from a shared pool of signatures (so schema
    overlap — and therefore data flow and key conflicts — is common), the
    mapping graph is acyclic (edges only go from lower- to higher-indexed
    peers, each non-root peer gets at least one incoming edge), and trust
    policies are random priority tables.  The same seed always yields the
    same spec, and every generated spec round-trips through its textual
    form.
    """
    config = config or SimulationConfig()
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else random.Random(seed_or_rng)

    pool = _signature_pool(rng, config)
    peer_count = rng.randint(config.min_peers, config.max_peers)
    names = [f"Peer{index}" for index in range(peer_count)]

    builder = NetworkBuilder(f"simulated-{peer_count}p")
    peer_sigs: dict[str, list[_Signature]] = {}
    for name in names:
        count = rng.randint(1, min(config.max_relations_per_peer, len(pool)))
        signatures = sorted(rng.sample(pool, count), key=lambda sig: sig.name)
        peer_sigs[name] = signatures
        peer = builder.peer(name)
        for signature in signatures:
            key = signature.attributes[: signature.key_length] if signature.has_proper_key else ()
            peer.relation(signature.name, *signature.attributes, key=key)
        # Random table-based trust: all-equal, a priority table, or
        # trust-only-some (default 0 distrusts everyone unlisted).
        roll = rng.random()
        if roll < 0.45:
            pass  # trust everyone equally (implicit default priority 1)
        else:
            others = [other for other in names if other != name]
            listed = rng.sample(others, rng.randint(1, len(others)))
            for other in listed:
                peer.trust(other, rng.randint(1, 3))
            # Only record a non-default priority: 1 is the implicit default,
            # so omitting it keeps generated specs canonical (and lets the
            # to_spec round-trip oracle compare dicts exactly).
            if roll < 0.75 and rng.randint(0, 1) == 0:
                peer.trust_default(0)

    mapping_counter = 0
    for target_index in range(1, peer_count):
        sources = list(range(target_index))
        chosen = {rng.choice(sources)}
        for source_index in sources:
            if rng.random() < config.mapping_density:
                chosen.add(source_index)
        for source_index in sorted(chosen):
            mapping_counter += 1
            builder.mapping(
                _generate_mapping(
                    rng,
                    config,
                    f"M{mapping_counter}",
                    names[source_index],
                    names[target_index],
                    peer_sigs[names[source_index]],
                    peer_sigs[names[target_index]],
                )
            )
    return builder.spec()


# ---------------------------------------------------------------------------
# Random workload driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadCommand:
    """One transaction to commit, as pure data (replayable on any replica)."""

    txn_id: str
    peer: str
    kind: str  # "insert" | "modify" | "delete" | "conflict"
    relation: str
    values: tuple
    old_values: Optional[tuple] = None


class RandomWorkload:
    """Seeded stream of insert/modify/delete/conflict commands over a spec.

    The driver owns all randomness and bookkeeping (which tuples it has
    inserted where), so the same command list can be applied to any number
    of network replicas and every replica sees byte-identical transactions.
    """

    def __init__(
        self, spec: NetworkSpec, config: SimulationConfig, rng: random.Random
    ) -> None:
        self._spec = spec
        self._config = config
        self._rng = rng
        self._counter = 0
        #: Tuples this driver inserted and believes still present locally.
        self._alive: list[tuple[str, str, tuple]] = []  # (peer, relation, values)
        self._relations: dict[str, list[tuple[str, int, int]]] = {}
        for peer in spec.peers.values():
            entries = []
            for relation, attributes in peer.relations.items():
                key = peer.keys.get(relation, attributes)
                entries.append((relation, len(attributes), len(key)))
            self._relations[peer.name] = entries
        #: (peer_a, peer_b, relation, arity, key_length) sites where two
        #: peers share a properly keyed relation — deliberate conflict pairs.
        self._conflict_sites: list[tuple[str, str, str, int, int]] = []
        names = list(spec.peers)
        for index, left in enumerate(names):
            for right in names[index + 1:]:
                for relation, arity, key_length in self._relations[left]:
                    if key_length >= arity:
                        continue
                    for other, other_arity, other_key in self._relations[right]:
                        if other == relation and other_arity == arity and other_key == key_length:
                            self._conflict_sites.append(
                                (left, right, relation, arity, key_length)
                            )

    # -- value generation ---------------------------------------------------
    def _key_value(self) -> object:
        return self._rng.randrange(max(2, self._config.domain_size // 2))

    def _payload_value(self) -> object:
        value = self._rng.randrange(self._config.domain_size)
        return f"s{value}" if self._rng.random() < 0.5 else value

    def _fresh_tuple(self, arity: int, key_length: int) -> tuple:
        return tuple(
            self._key_value() if position < key_length else self._payload_value()
            for position in range(arity)
        )

    def _next_txn_id(self, peer: str) -> str:
        self._counter += 1
        return f"{peer}-sim{self._counter}"

    # -- command kinds ------------------------------------------------------
    def _insert_command(self, peer: str) -> WorkloadCommand:
        relation, arity, key_length = self._rng.choice(self._relations[peer])
        values = self._fresh_tuple(arity, key_length)
        self._alive.append((peer, relation, values))
        return WorkloadCommand(self._next_txn_id(peer), peer, "insert", relation, values)

    def _modify_command(self, peer: str) -> Optional[WorkloadCommand]:
        candidates = [entry for entry in self._alive if entry[0] == peer]
        if not candidates:
            return None
        entry = self._rng.choice(candidates)
        _, relation, old_values = entry
        arity = len(old_values)
        key_length = next(
            key for name, _, key in self._relations[peer] if name == relation
        )
        if key_length >= arity:
            # Whole-tuple key: a modification may rewrite any position.
            key_length = 0
        for _ in range(4):
            new_values = tuple(
                old_values[position] if position < key_length else self._payload_value()
                for position in range(arity)
            )
            if new_values != old_values:
                break
        else:
            return None
        self._alive.remove(entry)
        self._alive.append((peer, relation, new_values))
        return WorkloadCommand(
            self._next_txn_id(peer), peer, "modify", relation, new_values, old_values
        )

    def _delete_command(self, peer: str) -> Optional[WorkloadCommand]:
        candidates = [entry for entry in self._alive if entry[0] == peer]
        if not candidates:
            return None
        entry = self._rng.choice(candidates)
        self._alive.remove(entry)
        _, relation, values = entry
        return WorkloadCommand(self._next_txn_id(peer), peer, "delete", relation, values)

    def _conflict_commands(self) -> list[WorkloadCommand]:
        """Two peers assert different payloads for the same key."""
        if not self._conflict_sites:
            return []
        left, right, relation, arity, key_length = self._rng.choice(self._conflict_sites)
        key = tuple(self._key_value() for _ in range(key_length))
        commands = []
        payloads: set[tuple] = set()
        for peer in (left, right):
            for _ in range(4):
                rest = tuple(self._payload_value() for _ in range(arity - key_length))
                if rest not in payloads:
                    break
            else:
                # Tiny payload spaces can keep colliding; force a distinct
                # payload so the pair is a genuine conflict ("altN" never
                # collides with generated values).
                rest = rest[:-1] + (f"alt{self._counter}",)
            payloads.add(rest)
            values = key + rest
            self._alive.append((peer, relation, values))
            commands.append(
                WorkloadCommand(self._next_txn_id(peer), peer, "conflict", relation, values)
            )
        return commands

    # -- epoch stream -------------------------------------------------------
    def epoch_commands(self) -> list[WorkloadCommand]:
        """The transaction commands of one workload epoch."""
        low, high = self._config.transactions_per_epoch
        budget = self._rng.randint(low, high)
        commands: list[WorkloadCommand] = []
        names = list(self._spec.peers)
        while len(commands) < budget:
            roll = self._rng.random()
            remaining = budget - len(commands)
            if roll < self._config.conflict_fraction and remaining >= 2:
                pair = self._conflict_commands()
                if pair:
                    commands.extend(pair)
                    continue
            peer = self._rng.choice(names)
            roll = self._rng.random()
            command: Optional[WorkloadCommand] = None
            if roll < self._config.delete_fraction:
                command = self._delete_command(peer)
            elif roll < self._config.delete_fraction + self._config.modify_fraction:
                command = self._modify_command(peer)
            if command is None:
                command = self._insert_command(peer)
            commands.append(command)
        return commands

    def offline_peer(self, last_epoch: bool) -> Optional[str]:
        """Optionally pick one peer to sit this epoch out (never the last)."""
        if not last_epoch and self._rng.random() < self._config.offline_probability:
            return self._rng.choice(list(self._spec.peers))
        return None


# ---------------------------------------------------------------------------
# Differential oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleFailure:
    """One differential-oracle mismatch, pinned to its seed and epoch.

    ``epoch`` is already minimal: oracles run after every epoch, so this is
    the first epoch at which the divergence is observable for ``seed``.
    """

    seed: int
    epoch: int
    oracle: str
    detail: str

    def describe(self) -> str:
        return (
            f"seed {self.seed}: oracle {self.oracle!r} failed at epoch "
            f"{self.epoch} (minimal): {self.detail}"
        )


def _database_relations(database) -> dict[str, frozenset]:
    return {predicate: database.relation(predicate) for predicate in database.predicates()}


def _diff_relation_maps(
    left: dict[str, frozenset], right: dict[str, frozenset],
    left_name: str, right_name: str, samples: int = 3,
) -> Optional[str]:
    """Human-readable first differences between two relation maps, or None."""
    if left == right:
        return None
    parts = []
    for predicate in sorted(set(left) | set(right)):
        only_left = left.get(predicate, frozenset()) - right.get(predicate, frozenset())
        only_right = right.get(predicate, frozenset()) - left.get(predicate, frozenset())
        if only_left:
            shown = sorted(only_left, key=repr)[:samples]
            parts.append(f"{predicate}: {len(only_left)} only in {left_name}, e.g. {shown}")
        if only_right:
            shown = sorted(only_right, key=repr)[:samples]
            parts.append(f"{predicate}: {len(only_right)} only in {right_name}, e.g. {shown}")
    return "; ".join(parts[:6])


def _snapshot_all(cdss: CDSS) -> dict[str, dict[str, frozenset]]:
    return {name: dict(cdss.peer_snapshot(name)) for name in cdss.catalog.peer_names()}


def _diff_snapshots(
    left: dict[str, dict[str, frozenset]],
    right: dict[str, dict[str, frozenset]],
    left_name: str, right_name: str,
) -> Optional[str]:
    parts = []
    for peer in sorted(set(left) | set(right)):
        diff = _diff_relation_maps(
            left.get(peer, {}), right.get(peer, {}), left_name, right_name
        )
        if diff:
            parts.append(f"peer {peer}: {diff}")
    return "; ".join(parts[:4]) or None


# ---------------------------------------------------------------------------
# The simulation itself
# ---------------------------------------------------------------------------

@dataclass
class SimulationResult:
    """Outcome of running one seeded network through the full oracle suite."""

    seed: int
    peers: int
    mappings: int
    epochs_run: int
    transactions: int
    oracle_checks: int
    failures: list[OracleFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "peers": self.peers,
            "mappings": self.mappings,
            "epochs_run": self.epochs_run,
            "transactions": self.transactions,
            "oracle_checks": self.oracle_checks,
            "ok": self.ok,
            "failures": [failure.describe() for failure in self.failures],
        }


@dataclass
class CampaignResult:
    """Aggregate of a batch of seeded simulation runs."""

    results: list[SimulationResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> list[OracleFailure]:
        return [failure for result in self.results for failure in result.failures]

    def to_dict(self) -> dict:
        return {
            "seeds": len(self.results),
            "ok": self.ok,
            "transactions": sum(result.transactions for result in self.results),
            "oracle_checks": sum(result.oracle_checks for result in self.results),
            "results": [result.to_dict() for result in self.results],
        }


def _manual_exchange_loop(cdss: CDSS, *, max_rounds: int) -> None:
    """The hand-rolled publish/reconcile loop ``sync()`` must match."""
    names = cdss.catalog.peer_names()
    for _ in range(max_rounds):
        published = 0
        candidates = 0
        skipped: list[str] = []
        for name in names:
            if cdss.network.is_online(name):
                published += len(cdss.publish(name).published)
            else:
                skipped.append(name)
        for name in names:
            if name not in skipped:
                candidates += cdss.reconcile(name).candidates_considered
        if published == 0 and candidates == 0:
            return
    raise ReproError(f"manual exchange loop did not quiesce within {max_rounds} rounds")


@dataclass(frozen=True)
class Mirror:
    """One replica fed the primary's transactions and compared with it after
    every epoch: peer instances always, sync reports where the row says so.

    Attributes:
        name: The replica's key in :attr:`SimulationRun.mirrors`.
        oracle: The name its mismatches are reported under.
        flips: The :data:`MODE_OPTIONS` word on which the replica runs the
            primary's configuration with the *other* choice, so that option
            is the only variable.  Empty: the replica isolates something
            that is not an option and runs the default system.
        rounds: Also compare the sync reports round for round (published
            ids, translated changes, per-peer accept/reject/defer
            decisions).  Traffic accounting lives outside the round dicts,
            so quorum reads, sketch decode failures and cursor fallbacks
            may cost bytes and time, never an outcome.
        storage_factory: ``peer name -> local instance`` (default: in memory).
        drive: What runs the replica's exchange each epoch, called as
            ``drive(replica, max_rounds=...)``; returns its sync report, if
            it makes one.
    """

    name: str
    oracle: str
    flips: str = ""
    rounds: bool = False
    storage_factory: Optional[Callable[[str], object]] = None
    drive: Callable[..., object] = CDSS.sync


MIRRORS = (
    Mirror("manual", "sync-vs-manual", drive=_manual_exchange_loop),
    Mirror("sqlite", "memory-vs-sqlite", storage_factory=lambda name: SQLiteInstance()),
    Mirror("storecheck", "distributed-vs-centralized", flips="store", rounds=True),
    Mirror("synccheck", "sketch-vs-cursor", flips="sync", rounds=True),
)


def _other_word(option: Option, word: str) -> str:
    return next(choice for choice in option.choices if choice != word)


class SimulationRun:
    """One generated network, its replicas, and the per-epoch oracle loop."""

    def __init__(self, seed: int, config: Optional[SimulationConfig] = None) -> None:
        self.seed = seed
        self.config = config or SimulationConfig()
        rng = random.Random(seed)
        self.spec = generate_network(rng, self.config)
        self.workload = RandomWorkload(self.spec, self.config, rng)
        self.failures: list[OracleFailure] = []
        self.oracle_checks = 0
        self.transactions = 0
        self.epochs_run = 0

        #: Dedicated RNG for oracle sampling: deterministic per seed, but
        #: isolated from the workload stream so sampling config cannot
        #: perturb the generated networks or transactions.
        self._oracle_rng = random.Random(f"{seed}-dag-oracle")
        self.primary = CDSS.from_spec(self.spec, config=self.config.system)
        self._check_spec_roundtrip()
        self._check_analyzer_clean()
        #: The spawned rows of :data:`MIRRORS`, by name, in table order.
        self.mirrors: dict[str, CDSS] = {}
        for mirror in MIRRORS:
            system = SystemConfig()
            if mirror.flips:
                option = MODE_OPTIONS[mirror.flips]
                word = option.get(self.config.system)
                system = configure(self.config.system, [(option, _other_word(option, word))])
            self.mirrors[mirror.name] = CDSS.from_spec(
                self.spec, config=system, storage_factory=mirror.storage_factory
            )
        self._last_reports: dict[str, object] = {}
        #: DRed mirror: same program, provenance disabled, fed the primary's
        #: archived transaction stream.
        self.mirror = ExchangeEngine(
            self.primary.engine.program, ExchangeConfig(track_provenance=False)
        )
        self._mirror_fed = 0

    # -- oracle helpers -----------------------------------------------------
    def _distributed_replica(self) -> CDSS:
        """Whichever replica runs the distributed store (primary or mirror)."""
        if self.config.system.store.backend == "distributed":
            return self.primary
        return self.mirrors["storecheck"]

    def _fail(self, epoch: int, oracle: str, detail: str) -> None:
        self.failures.append(OracleFailure(self.seed, epoch, oracle, detail))

    def _check_spec_roundtrip(self) -> None:
        self.oracle_checks += 1
        reparsed = parse_network_spec(self.spec.to_text())
        if reparsed.to_dict() != self.spec.to_dict():
            self._fail(0, "spec-roundtrip", "to_text -> parse does not round-trip")
            return
        # Full system round-trip: the spec recovered from the *built* CDSS
        # must match the generated one.  The recovered form names each
        # schema explicitly, which for generated peers defaults to the peer
        # name, and has a section for whatever the primary's configuration
        # sets off its default (the generated spec leaves that to the config).
        expected = self.spec.to_dict()
        for name, entry in expected["peers"].items():
            entry.setdefault("schema", name)
        for name, section in sections_of(self.primary.config).items():
            expected[name] = section.to_dict()
        if self.primary.to_spec().to_dict() != expected:
            self._fail(0, "spec-roundtrip", "from_spec -> to_spec does not round-trip")

    def _check_analyzer_clean(self) -> None:
        """Generated networks must pass static analysis with zero errors.

        The generator only emits acyclic mapping graphs over consistent
        schemas, so an error-severity diagnostic (unsafe rule, weak
        acyclicity, arity mismatch, ...) means either the generator or the
        analyzer regressed.  Warnings are allowed: random trust tables
        legitimately shadow defaults or trust unreachable peers.
        """
        from ..analysis import analyze_network_spec

        self.oracle_checks += 1
        report = analyze_network_spec(self.spec)
        if not report.ok:
            findings = "; ".join(
                diagnostic.render() for diagnostic in report.errors()
            )
            self._fail(0, "analyzer", f"generated spec has analyzer errors: {findings}")

    def _check_incremental_vs_recompute(self, epoch: int) -> None:
        self.oracle_checks += 1
        engine = self.primary.engine
        diff = _diff_relation_maps(
            _database_relations(engine.database),
            _database_relations(engine.reference_database()),
            "incremental", "recomputed",
        )
        if diff:
            self._fail(epoch, "incremental-vs-recompute", diff)

    def _check_provenance_vs_dred(self, epoch: int) -> None:
        self.oracle_checks += 1
        entries = self.primary.store.all_entries()
        for entry in entries[self._mirror_fed:]:
            self.mirror.process_transaction(entry.transaction)
        self._mirror_fed = len(entries)
        diff = _diff_relation_maps(
            _database_relations(self.primary.engine.database),
            _database_relations(self.mirror.database),
            "provenance", "dred",
        )
        if diff:
            self._fail(epoch, "provenance-vs-dred", diff)

    def check_mirror(self, mirror: Mirror, epoch: int, primary_snapshot=None) -> None:
        """One row of :data:`MIRRORS`: the replica must be indistinguishable
        from the primary in whatever the row compares."""
        replica = self.mirrors[mirror.name]
        self.oracle_checks += 1
        primary_report = self._last_reports.get("primary")
        mirror_report = self._last_reports.get(mirror.name)
        if mirror.rounds and primary_report is not None and mirror_report is not None:
            left = [round_.to_dict() for round_ in primary_report.rounds]
            right = [round_.to_dict() for round_ in mirror_report.rounds]
            if left != right:
                for index, (a, b) in enumerate(zip(left, right)):
                    if a != b:
                        detail = f"sync round {index + 1} diverges: {a} != {b}"
                        break
                else:
                    detail = f"round counts diverge: {len(left)} vs {len(right)} rounds"
                self._fail(epoch, mirror.oracle, detail)
                return
        diff = _diff_snapshots(
            primary_snapshot or _snapshot_all(self.primary),
            _snapshot_all(replica),
            "primary",
            mirror.name,
        )
        if diff:
            self._fail(epoch, mirror.oracle, diff)

    def _check_replica_durability(self, epoch: int) -> None:
        """Every archived transaction must survive losing k-1 shard replicas.

        After the epoch's churn has settled (and one anti-entropy round has
        run, as a reconnecting peer would trigger anyway), every sequence
        assigned to a shard must be held by at least
        ``min(replication_factor, peers)`` replicas — so losing any
        ``replication_factor - 1`` of them still leaves a copy — and a full
        quorum read must return every transaction ever archived.
        """
        self.oracle_checks += 1
        store = self._distributed_replica().store
        store.anti_entropy()
        under = store.under_replicated()
        if under:
            self._fail(
                epoch,
                "replica-durability",
                f"under-replicated sequences per shard: {under}",
            )
            return
        expected = len(store)
        readable = len(store.all_entries())
        if readable != expected:
            self._fail(
                epoch,
                "replica-durability",
                f"quorum read returned {readable} of {expected} archived transactions",
            )

    def _check_dag_vs_expanded(self, epoch: int) -> None:
        """Sampled derived tuples: DAG evaluation == expanded-polynomial evaluation.

        Checks the hash-consed circuit (memoized semiring evaluation, after
        whatever insertions/deletions/invalidations this epoch performed)
        against :func:`~repro.provenance.graph.reference_polynomial`, which
        expands by walking the derivation hyper-graph directly and never
        touches the circuit — a genuinely independent implementation — under
        a boolean, a counting, and a tropical assignment.
        """
        if self.config.provenance_oracle_samples == 0:
            return
        graph = self.primary.engine.provenance
        if graph is None:
            return
        self.oracle_checks += 1
        from ..errors import ProvenanceError
        from ..provenance.graph import reference_polynomial
        from ..provenance.semiring import (
            BooleanSemiring,
            CountingSemiring,
            TropicalSemiring,
        )

        derived = sorted(
            (node.key for node in graph.tuples() if not node.is_base), key=repr
        )
        # Seeded random sample (not a fixed prefix): different epochs and
        # seeds cross-check different tuples while staying reproducible.
        sample_size = min(len(derived), self.config.provenance_oracle_samples)
        sample = self._oracle_rng.sample(derived, sample_size)
        variables = list(graph.base_variables())
        semirings = [
            (BooleanSemiring(), {variable: True for variable in variables}),
            (CountingSemiring(), {variable: 1 for variable in variables}),
            (TropicalSemiring(), {variable: 1.0 for variable in variables}),
        ]
        for relation, values in sample:
            try:
                polynomial = reference_polynomial(
                    graph,
                    relation,
                    values,
                    max_monomials=self.config.provenance_oracle_max_monomials,
                )
            except ProvenanceError:
                continue  # expansion over budget: exactly what the DAG avoids
            for semiring, assignment in semirings:
                dag_value = graph.evaluator(semiring, assignment).value(
                    graph.root(relation, values)
                )
                completed = {
                    variable: assignment.get(variable, semiring.one())
                    for variable in polynomial.variables()
                }
                expanded_value = polynomial.evaluate(semiring, completed)
                if dag_value != expanded_value:
                    self._fail(
                        epoch,
                        "dag-vs-expanded",
                        f"{relation}{values!r} under {semiring.name}: "
                        f"dag={dag_value!r} expanded={expanded_value!r}",
                    )
                    return

    # -- driving ------------------------------------------------------------
    def _replicas(self) -> tuple[CDSS, ...]:
        return (self.primary, *self.mirrors.values())

    def _commit_everywhere(self, command: WorkloadCommand) -> None:
        for cdss in self._replicas():
            peer = cdss.peer(command.peer)
            builder = peer.new_transaction(command.txn_id)
            if command.kind == "delete":
                builder.delete(command.relation, command.values)
            elif command.kind == "modify":
                builder.modify(command.relation, command.old_values, command.values)
            else:  # insert / conflict
                builder.insert(command.relation, command.values)
            peer.commit(builder)

    def run_epoch(self, epoch: int, last_epoch: bool) -> None:
        commands = self.workload.epoch_commands()
        for command in commands:
            self._commit_everywhere(command)
        self.transactions += len(commands)

        offline = self.workload.offline_peer(last_epoch)
        replicas = self._replicas()
        if offline is not None:
            for cdss in replicas:
                cdss.set_online(offline, False)

        max_rounds = self.config.max_sync_rounds
        self._last_reports = {"primary": self.primary.sync(max_rounds=max_rounds)}
        for mirror in MIRRORS:
            self._last_reports[mirror.name] = mirror.drive(
                self.mirrors[mirror.name], max_rounds=max_rounds
            )

        if offline is not None:
            for cdss in replicas:
                cdss.set_online(offline, True)

        self._check_incremental_vs_recompute(epoch)
        self._check_provenance_vs_dred(epoch)
        self._check_dag_vs_expanded(epoch)
        primary_snapshot = _snapshot_all(self.primary)
        for mirror in MIRRORS:
            self.check_mirror(mirror, epoch, primary_snapshot)
        self._check_replica_durability(epoch)
        self.epochs_run = epoch

    def run(self) -> SimulationResult:
        """Run every epoch, stopping at the first failing oracle."""
        if not self.failures:
            for epoch in range(1, self.config.epochs + 1):
                self.run_epoch(epoch, last_epoch=epoch == self.config.epochs)
                if self.failures:
                    break
        return SimulationResult(
            seed=self.seed,
            peers=len(self.spec.peers),
            mappings=len(self.spec.mappings),
            epochs_run=self.epochs_run,
            transactions=self.transactions,
            oracle_checks=self.oracle_checks,
            failures=self.failures,
        )


def run_simulation(
    seed: int, config: Optional[SimulationConfig] = None
) -> SimulationResult:
    """Generate the network for ``seed``, drive it, and check every oracle."""
    return SimulationRun(seed, config).run()


def run_campaign(
    seeds: Iterable[int], config: Optional[SimulationConfig] = None
) -> CampaignResult:
    """Run :func:`run_simulation` over a batch of seeds."""
    campaign = CampaignResult()
    for seed in seeds:
        campaign.results.append(run_simulation(seed, config))
    return campaign
