"""Configuration dataclasses for the CDSS engines, and the one option table.

The defaults reproduce the behaviour described in the paper.  Every field is
declared once, through :func:`_option`, with its value domain and — when a
network spec can set it — its spec spelling.  :data:`OPTIONS` collects those
declarations into the table everything else is derived from: config
validation (here), the spec language's sections (:mod:`repro.api.spec`), the
builder methods, the analyzer's structure check, the simulator's mode flags
and the README's "System options" table.  Removing an option is removing
its field, and a field stays only while the system reads it: a knob that
no module outside this one reads off a config object is dead, and
``tests/api/test_options.py`` fails it.  Sizes that no caller ever moved
are constants where they are used, not rows.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Optional

from .errors import ConfigurationError


@dataclass(frozen=True)
class Option:
    """One system option: its config field, spec spelling and value domain.

    Attributes:
        default: The field's default; ``None`` means the value may be unset.
        section: The spec section that sets it (``store``, ``sync``, ...);
            empty for a config-only field, which has no spec spelling.
        knob: Its name inside the section (and in the section's dict form).
        head: It is the section's leading word (``store <kind>``), not a
            ``knob value`` pair.
        choices: The words it accepts (word-valued options).
        floor: The smallest integer it accepts (integer-valued options).
            Options with neither ``choices`` nor ``floor`` are plain flags.
        at_most: A sibling field whose value bounds this one from above
            (a quorum cannot exceed the replication factor).
        under: The value of the section's head under which alone the knob
            may be given (``fanout`` only under ``sync gossip``).
        levels: ``choices`` are cumulative levels, each implying the ones
            before it, not alternatives: a spec may list several (the
            highest wins) and the lowest alone means "section absent".
        group, field: The :class:`SystemConfig` attribute and the field on
            it, filled in when :data:`OPTIONS` is collected.
    """

    default: Any
    section: str = ""
    knob: str = ""
    head: bool = False
    choices: tuple[str, ...] = ()
    floor: Optional[int] = None
    at_most: Optional[str] = None
    under: Optional[str] = None
    levels: bool = False
    group: str = ""
    field: str = ""

    @property
    def flag(self) -> str:
        """The one word naming the option on a command line or as a builder
        argument: the section for its head, the knob otherwise."""
        return self.section if self.head else self.knob

    def problem(self, value: object) -> Optional[str]:
        """Why ``value`` lies outside the option's domain (``None``: it does not)."""
        if value is None and self.default is None:
            return None
        if self.choices:
            if value not in self.choices:
                words = [repr(choice) for choice in self.choices]
                listed = words[-1] if len(words) == 1 else (
                    f"{', '.join(words[:-1])} or {words[-1]}"
                )
                return f"must be {listed}, got {value!r}"
        elif self.floor is not None:
            if not isinstance(value, int) or isinstance(value, bool):
                return f"needs an integer, got {value!r}"
            if value < self.floor:
                return f"must be >= {self.floor}, got {value}"
        elif not isinstance(value, bool):
            return f"needs a boolean, got {value!r}"
        return None

    def get(self, config: "SystemConfig") -> Any:
        return getattr(getattr(config, self.group), self.field)


def _option(default: Any, spelling: str = "", **domain: Any) -> Any:
    """Declare a config field.  ``spelling`` is how a spec writes it:
    ``"store <kind>"`` for a section's head, ``"store shards"`` for a knob,
    empty for a config-only field."""
    section, _, knob = spelling.partition(" ")
    option = Option(default, section, knob.strip("<>"), head=knob.startswith("<"), **domain)
    return field(default=default, metadata={"option": option})


class _OptionGroup:
    """Base of the config groups: every field is checked against its domain."""

    def __post_init__(self) -> None:
        for entry in fields(self):  # type: ignore[arg-type]
            option: Option = entry.metadata["option"]
            value = getattr(self, entry.name)
            problem = option.problem(value)
            if problem:
                raise ConfigurationError(f"{entry.name} {problem}")
            if option.at_most is not None and value is not None:
                bound = getattr(self, option.at_most)
                if value > bound:
                    raise ConfigurationError(
                        f"{entry.name} ({value}) cannot exceed {option.at_most} ({bound})"
                    )


@dataclass(frozen=True)
class ExchangeConfig(_OptionGroup):
    """Configuration for the update exchange engine.

    Attributes:
        track_provenance: Maintain provenance for derived tuples.
    """

    track_provenance: bool = _option(True)


@dataclass(frozen=True)
class StoreConfig(_OptionGroup):
    """Configuration of the peer-to-peer update store.

    Attributes:
        backend: ``"centralized"`` (single in-memory archive, the default) or
            ``"distributed"`` (sharded, replicated archive hosted on the
            peers themselves; see :mod:`repro.p2p.distributed`).
        shard_count: Number of shards of the distributed archive.
        replication_factor: Number of replicas of each shard (distributed
            backend) or replica slots per transaction in the overlay
            accounting (centralized backend).
        write_quorum: Acks required for a non-degraded write; ``None`` means
            a majority of the replication factor.
        read_quorum: Replicas consulted per shard on reads.
        segment_size: Epochs per log segment (the unit of shard placement).
    """

    backend: str = _option(
        "centralized", "store <kind>", choices=("centralized", "distributed")
    )
    shard_count: int = _option(4, "store shards", floor=1)
    replication_factor: int = _option(2, "store replication", floor=1)
    write_quorum: Optional[int] = _option(
        None, "store write_quorum", floor=1, at_most="replication_factor"
    )
    read_quorum: int = _option(
        1, "store read_quorum", floor=1, at_most="replication_factor"
    )
    segment_size: int = _option(8, "store segment_size", floor=1)


@dataclass(frozen=True)
class SyncConfig(_OptionGroup):
    """How peers catch up on published transactions, and who schedules it.

    Attributes:
        mode: ``"cursor"`` (each peer replays its log tail straight from the
            archive, the default) or ``"gossip"`` (fanout-f epidemic
            anti-entropy over set-reconciliation sketches; see
            :mod:`repro.p2p.gossip`).
        gossip_fanout: Partners each online peer reconciles with per gossip
            round (gossip mode only).
        sketch: The set-reconciliation sketch sessions use.  ``"iblt"``
            (a subtractable invertible Bloom lookup table that decodes the
            exact symmetric difference) is the only one; the word stays
            because specs spell ``sketch iblt``.
    """

    mode: str = _option("cursor", "sync <mode>", choices=("cursor", "gossip"))
    gossip_fanout: int = _option(2, "sync fanout", floor=1, under="gossip")
    sketch: str = _option("iblt", "sync sketch", choices=("iblt",), under="gossip")


@dataclass(frozen=True)
class ObserveConfig(_OptionGroup):
    """What the shared :mod:`repro.obs` layer records.

    Attributes:
        mode: ``"off"`` (metrics registry only, reports unchanged — the
            default), ``"metrics"`` (additionally attach the flat metrics
            snapshot to ``SyncReport.metrics``), or ``"trace"`` (metrics
            plus a deterministic span tracer stamped from the virtual
            clock, exportable as Chrome-trace JSON).
    """

    mode: str = _option(
        "off", "observe <mode>", choices=("off", "metrics", "trace"), levels=True
    )


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration for a :class:`repro.core.system.CDSS`.

    A spec section and the group it sets share a name (``store``, ``sync``,
    ``observe``).  The groups are declared in the order a spec renders their sections.
    """

    store: StoreConfig = field(default_factory=StoreConfig)
    sync: SyncConfig = field(default_factory=SyncConfig)
    exchange: ExchangeConfig = field(default_factory=ExchangeConfig)
    observe: ObserveConfig = field(default_factory=ObserveConfig)

    @staticmethod
    def default() -> "SystemConfig":
        """Return the configuration used throughout the paper's scenarios."""
        return SystemConfig()


#: Every system option, in declaration order.
OPTIONS: tuple[Option, ...] = tuple(
    dataclasses.replace(entry.metadata["option"], group=group.name, field=entry.name)
    for group in fields(SystemConfig)
    for entry in fields(group.default_factory)  # type: ignore[arg-type]
)

#: The spec sections, each with its options (head first), in render order.
#: Options in no section are config-only: no spec, builder or CLI spelling.
SECTIONS: dict[str, tuple[Option, ...]] = {
    name: tuple(option for option in OPTIONS if option.section == name)
    for name in dict.fromkeys(option.section for option in OPTIONS if option.section)
}


def configure(config: SystemConfig, settings: Iterable[tuple[Option, Any]]) -> SystemConfig:
    """``config`` with every ``(option, value)`` of ``settings`` applied.

    Each group is replaced once, with all its new values together, so a
    quorum and the replication factor that bounds it are judged as a pair.
    """
    changed: dict[str, dict[str, Any]] = {}
    for option, value in settings:
        changed.setdefault(option.group, {})[option.field] = value
    return dataclasses.replace(
        config,
        **{
            group: dataclasses.replace(getattr(config, group), **values)
            for group, values in changed.items()
        },
    )
