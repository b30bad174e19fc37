"""The system catalogue: every peer and every mapping in the CDSS.

The catalogue validates mappings against the peers' schemas and exposes the
mapping graph (which peer maps to which), which the update-exchange engine
uses to compile its datalog program and which the reporting views display.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from ..errors import MappingError, PeerError
from .mapping import Mapping
from .peer import Peer


class Catalog:
    """Registry of peers and schema mappings."""

    def __init__(self) -> None:
        self._peers: dict[str, Peer] = {}
        self._mappings: dict[str, Mapping] = {}

    # -- peers ------------------------------------------------------------------
    def add_peer(self, peer: Peer) -> Peer:
        if peer.name in self._peers:
            raise PeerError(f"peer {peer.name!r} is already registered")
        self._peers[peer.name] = peer
        return peer

    def peer(self, name: str) -> Peer:
        try:
            return self._peers[name]
        except KeyError:
            raise PeerError(f"unknown peer {name!r}") from None

    def has_peer(self, name: str) -> bool:
        return name in self._peers

    def peers(self) -> list[Peer]:
        return list(self._peers.values())

    def peer_names(self) -> list[str]:
        return list(self._peers)

    # -- mappings -----------------------------------------------------------------
    def add_mapping(self, mapping: Mapping) -> Mapping:
        if mapping.mapping_id in self._mappings:
            raise MappingError(f"mapping {mapping.mapping_id!r} is already registered")
        source = self.peer(mapping.source_peer)
        target = self.peer(mapping.target_peer)
        mapping.validate_against(source.schema, target.schema)
        self._mappings[mapping.mapping_id] = mapping
        return mapping

    def add_mappings(self, mappings: Iterable[Mapping]) -> list[Mapping]:
        return [self.add_mapping(mapping) for mapping in mappings]

    def mapping(self, mapping_id: str) -> Mapping:
        try:
            return self._mappings[mapping_id]
        except KeyError:
            raise MappingError(f"unknown mapping {mapping_id!r}") from None

    def mappings(self) -> list[Mapping]:
        return list(self._mappings.values())

    def mappings_from(self, peer: str) -> list[Mapping]:
        return [m for m in self._mappings.values() if m.source_peer == peer]

    def mappings_into(self, peer: str) -> list[Mapping]:
        return [m for m in self._mappings.values() if m.target_peer == peer]

    # -- the mapping graph -----------------------------------------------------------
    def mapping_graph(self) -> dict[str, set[str]]:
        """``{source peer: {target peers}}`` over all mappings."""
        graph: dict[str, set[str]] = defaultdict(set)
        for mapping in self._mappings.values():
            graph[mapping.source_peer].add(mapping.target_peer)
        return dict(graph)

    def __iter__(self) -> Iterator[Peer]:
        return iter(self._peers.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Catalog(peers={sorted(self._peers)}, "
            f"mappings={sorted(self._mappings)})"
        )
