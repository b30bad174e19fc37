"""Fluent, validating construction of CDSS networks.

:class:`NetworkBuilder` is the programmatic counterpart of the textual spec
language: each call records declarative intent, and :meth:`NetworkBuilder.build`
validates the whole description at once (unknown peers, duplicate ids, arity
mismatches, trust entries for unregistered participants) before any system
state is created — so a half-built network never leaks out.

::

    cdss = (
        NetworkBuilder("quickstart")
        .peer("Source").relation("R", "key", "value", key=("key",))
        .peer("Target").relation("R", "key", "value", key=("key",))
        .mapping("[M_ST] @Target.R(k, v) :- @Source.R(k, v).")
        .build()
    )
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

from ..config import SECTIONS, SystemConfig, configure
from ..analysis import codes as _codes
from ..core.mapping import Mapping, identity_mapping, mapping_from_tgd
from ..errors import SpecError
from .spec import NetworkSpec, PeerSpec, TRUST_DEFAULT, make_section, malformed


class PeerBuilder:
    """Builder for one peer; created by :meth:`NetworkBuilder.peer`.

    Every method returns a builder, so declarations chain fluently; calls
    that concern the network as a whole (``peer``, ``mapping``, ``build``)
    delegate back to the owning :class:`NetworkBuilder`.
    """

    def __init__(self, network: "NetworkBuilder", spec: PeerSpec) -> None:
        self._network = network
        self._spec = spec

    @property
    def name(self) -> str:
        return self._spec.name

    # -- peer-local declarations --------------------------------------------
    def relation(
        self, name: str, *attributes: str, key: Sequence[str] = ()
    ) -> "PeerBuilder":
        """Declare a relation ``name(attributes...)`` with an optional key."""
        if name in self._spec.relations:
            raise SpecError(
                f"relation {name!r} of peer {self._spec.name!r} is declared twice",
                code=_codes.MALFORMED_SPEC,
            )
        if not attributes:
            raise SpecError(
                f"relation {name!r} of peer {self._spec.name!r} needs at least one attribute"
            )
        self._spec.relations[name] = list(attributes)
        if key:
            self._spec.keys[name] = list(key)
        return self

    def trust(self, peer: str, priority: int) -> "PeerBuilder":
        """Assign a priority to updates originating at ``peer`` (0 = distrust)."""
        if priority < 0:
            raise SpecError("trust priorities must be non-negative")
        self._spec.trust[peer] = priority
        return self

    def trust_default(self, priority: int) -> "PeerBuilder":
        """Priority for updates from peers without an explicit trust entry."""
        return self.trust(TRUST_DEFAULT, priority)

    def trust_only(self, priorities: dict[str, int]) -> "PeerBuilder":
        """Trust exactly the listed peers; everyone else is distrusted."""
        for peer, priority in priorities.items():
            self.trust(peer, priority)
        return self.trust_default(0)

    # -- delegation back to the network builder ------------------------------
    def peer(self, name: str, schema_name: Optional[str] = None) -> "PeerBuilder":
        return self._network.peer(name, schema_name)

    def mapping(self, source: Union[str, Mapping], mapping_id: Optional[str] = None) -> "NetworkBuilder":
        return self._network.mapping(source, mapping_id)

    def identity(
        self,
        mapping_id: str,
        source_peer: str,
        target_peer: str,
        relations: Optional[Iterable[str]] = None,
    ) -> "NetworkBuilder":
        return self._network.identity(mapping_id, source_peer, target_peer, relations)

    def spec(self) -> NetworkSpec:
        return self._network.spec()

    def build(
        self,
        storage_factory: Optional[Callable[[str], object]] = None,
        store_factory=None,
        *,
        strict: bool = False,
    ):
        return self._network.build(storage_factory, store_factory, strict=strict)


class NetworkBuilder:
    """Accumulates a :class:`NetworkSpec` and builds a validated CDSS."""

    def __init__(self, name: str = "network", config: Optional[SystemConfig] = None) -> None:
        self._spec = NetworkSpec(name=name)
        self._config = config
        #: Deferred identity-mapping requests, resolved at build time once
        #: both peers' relations are known.
        self._identities: list[tuple[str, str, str, Optional[list[str]]]] = []

    # -- declarations ---------------------------------------------------------
    def peer(self, name: str, schema_name: Optional[str] = None) -> PeerBuilder:
        """Open a new peer section and return its :class:`PeerBuilder`."""
        if name in self._spec.peers:
            raise SpecError(f"peer {name!r} is declared twice", code=_codes.MALFORMED_SPEC)
        peer_spec = PeerSpec(name=name, schema_name=schema_name)
        self._spec.peers[name] = peer_spec
        return PeerBuilder(self, peer_spec)

    def mapping(
        self, source: Union[str, Mapping], mapping_id: Optional[str] = None
    ) -> "NetworkBuilder":
        """Add a mapping from tgd text (``[Id] @T.R(...) :- @S.R(...).``) or a Mapping."""
        if isinstance(source, Mapping):
            if mapping_id is not None and mapping_id != source.mapping_id:
                raise SpecError(
                    f"mapping id {mapping_id!r} does not match the Mapping's "
                    f"own id {source.mapping_id!r}"
                )
            self._spec.mappings.append(source)
        else:
            self._spec.mappings.append(mapping_from_tgd(source, mapping_id))
        return self

    def mappings(self, sources: Iterable[Union[str, Mapping]]) -> "NetworkBuilder":
        for source in sources:
            self.mapping(source)
        return self

    def identity(
        self,
        mapping_id: str,
        source_peer: str,
        target_peer: str,
        relations: Optional[Iterable[str]] = None,
    ) -> "NetworkBuilder":
        """Copy relations unchanged from ``source_peer`` to ``target_peer``.

        Without ``relations``, every relation the two peers share (same name
        and arity) is copied; one mapping per relation is produced, with ids
        ``{mapping_id}_{relation}``.
        """
        self._identities.append(
            (mapping_id, source_peer, target_peer,
             list(relations) if relations is not None else None)
        )
        return self

    # -- building -------------------------------------------------------------
    def _resolve_identities(self) -> None:
        for mapping_id, source_peer, target_peer, relations in self._identities:
            for role, name in (("source", source_peer), ("target", target_peer)):
                if name not in self._spec.peers:
                    raise SpecError(
                        f"identity mapping {mapping_id!r} references unknown "
                        f"{role} peer {name!r}",
                        code=_codes.UNKNOWN_PEER,
                    )
            source = self._spec.peers[source_peer]
            target = self._spec.peers[target_peer]
            if relations is None:
                shared = [
                    relation
                    for relation, attributes in source.relations.items()
                    if relation in target.relations
                    and len(target.relations[relation]) == len(attributes)
                ]
                if not shared:
                    raise SpecError(
                        f"identity mapping {mapping_id!r}: peers {source_peer!r} and "
                        f"{target_peer!r} share no relations of equal arity"
                    )
            else:
                shared = relations
                for relation in shared:
                    if relation not in source.relations or relation not in target.relations:
                        raise SpecError(
                            f"identity mapping {mapping_id!r}: relation {relation!r} "
                            f"is not shared by {source_peer!r} and {target_peer!r}"
                        )
            arities = {relation: len(source.relations[relation]) for relation in shared}
            self._spec.mappings.extend(
                identity_mapping(mapping_id, source_peer, target_peer, shared, arities)
            )
        self._identities = []

    def spec(self) -> NetworkSpec:
        """The validated :class:`NetworkSpec` accumulated so far."""
        self._resolve_identities()
        self._spec.validate()
        return self._spec

    def analyze(self):
        """Run the static analyzer on the accumulated spec.

        Returns a :class:`~repro.analysis.diagnostics.DiagnosticReport`; the
        spec must already be structurally parseable but need not be clean.
        """
        from ..analysis import analyze_network_spec

        self._resolve_identities()
        return analyze_network_spec(self._spec)

    def build(
        self,
        storage_factory: Optional[Callable[[str], object]] = None,
        store_factory=None,
        *,
        strict: bool = False,
    ):
        """Validate the whole description and construct the CDSS.

        Args:
            storage_factory: Optional ``peer name -> storage backend``
                callable; when given, every peer's local instance is created
                by it (e.g. ``lambda name: SQLiteInstance(f"{name}.db")``)
                instead of the in-memory default.
            store_factory: Optional ``(network, store_config) -> store``
                callable overriding the shared update archive; without it
                the spec's ``store`` section (merged over the config's
                :class:`~repro.config.StoreConfig`) picks centralized vs
                distributed.
            strict: Run the full static analyzer before construction and
                raise :class:`~repro.errors.SpecError` if it reports any
                error-severity diagnostic (weak-acyclicity violations,
                unsafe rules, schema mismatches, ...), not just the
                structural problems ``validate()`` catches.
        """
        from ..core.system import CDSS

        spec = self.spec()
        if strict:
            self.analyze().raise_if_errors(f"network {spec.name!r}")
        config = configure(
            self._config or SystemConfig.default(),
            (pair for section in spec.sections.values() for pair in section.pinned()),
        )
        cdss = CDSS(config, store_factory=store_factory)
        cdss.name = spec.name
        for peer_spec in spec.peers.values():
            storage = storage_factory(peer_spec.name) if storage_factory else None
            cdss.add_peer(
                peer_spec.name, peer_spec.schema(), peer_spec.trust_policy(),
                storage=storage,
            )
        for mapping in spec.mappings:
            cdss.add_mapping(mapping)
        return cdss


def _section_method(name: str) -> Callable[..., NetworkBuilder]:
    """The :class:`NetworkBuilder` method that declares spec section ``name``.

    One is installed per row group of :data:`repro.config.SECTIONS`
    (``store``, ``sync``, ``observe``), taking the section's
    leading word and its knobs as keyword arguments — the call
    ``.sync("gossip", fanout=2)`` is the line ``sync gossip fanout 2``.
    The word defaults to the first one that is not the system's default.
    """
    head, *knobs = SECTIONS[name]

    def declare(
        self: NetworkBuilder, word: str = head.choices[1], **values: object
    ) -> NetworkBuilder:
        if name in self._spec.sections:
            malformed(f"the {name} section is declared twice")
        given = ((knob, value) for knob, value in values.items() if value is not None)
        section = make_section(name, [word], given)
        if section is not None:
            section.validate()
            self._spec.sections[name] = section
        return self

    declare.__name__ = name
    declare.__doc__ = (
        f"Declare ``{name} <{head.knob}>`` ({', '.join(head.choices)}); "
        f"knobs: {', '.join(option.knob for option in knobs) or 'none'}.  "
        "Domains and defaults are the rows of :data:`repro.config.OPTIONS`; "
        "an unset knob defers to the config the network is built over."
    )
    return declare


def _delegated(name: str) -> Callable[..., NetworkBuilder]:
    def delegate(self: PeerBuilder, *args: object, **knobs: object) -> NetworkBuilder:
        return getattr(self._network, name)(*args, **knobs)

    delegate.__name__ = name
    return delegate


for _name in SECTIONS:
    setattr(NetworkBuilder, _name, _section_method(_name))
    setattr(PeerBuilder, _name, _delegated(_name))


def build_network(
    source,
    config: Optional[SystemConfig] = None,
    storage_factory: Optional[Callable[[str], object]] = None,
    store_factory=None,
    *,
    strict: bool = False,
):
    """Build a CDSS directly from a textual/dict/:class:`NetworkSpec` description."""
    from .spec import parse_network_spec

    spec = parse_network_spec(source)
    builder = NetworkBuilder(spec.name, config)
    builder._spec = spec
    return builder.build(storage_factory, store_factory, strict=strict)
