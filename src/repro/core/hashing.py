"""Process-stable hashing of values, transactions and identifiers.

Python's builtin ``hash()`` is randomized per interpreter run (via
``PYTHONHASHSEED``), which makes it useless for anything two processes must
agree on: replica placement, shard routing, content-addressed transaction
ids, and — the reason this module exists — set-reconciliation sketches,
where both ends of a session must map the same transaction to the same
64-bit digest or the decoded symmetric difference is garbage.

This module provides the one shared utility the p2p layer builds on:

* :func:`canonical_encode` — a deterministic, type-tagged byte encoding of
  plain Python values (ints, strings, tuples, sets, dicts, ...).  Two equal
  values always encode identically; values of different types never collide
  (``1`` vs ``"1"`` vs ``True`` are distinct).
* :func:`stable_hash` — a seeded 64-bit digest of any encodable value
  (BLAKE2b keyed by the seed).  Distinct seeds give independent hash
  families, which the sketches use to re-randomize between decode attempts.
* :func:`prefix_hasher` — the same digest for many tuples that differ only
  in their last item (a link's latency draws under one ``(purpose, seed,
  sender, receiver)`` prefix), encoding and hashing the shared prefix once.
* :func:`hash_encoded` — the digest of an encoding the caller already holds,
  so a value that needs both its size and its digest is encoded once.
* :func:`stable_text_hash` — the legacy SHA-256-prefix digest of a string,
  kept bit-for-bit identical to the hash the distributed store and the
  replica placement ranking always used, so shard routing and placement do
  not change under this module's consolidation.
* :func:`mix64` — a cheap invertible integer mixer (splitmix64 finalizer)
  for deriving double-hashing probe sequences from one digest without
  rehashing the full value per probe.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable

from ..errors import TransactionError

MASK64 = (1 << 64) - 1


def stable_text_hash(text: str) -> int:
    """64-bit digest of a string: the first 8 bytes of SHA-256, big-endian.

    This is the exact function the distributed store has always used for
    consistent-hash ring points and sequence routing; it lives here so every
    placement decision shares one implementation.
    """
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def mix64(value: int) -> int:
    """splitmix64 finalizer: scrambles a 64-bit integer deterministically."""
    value = value & MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & MASK64
    return (value ^ (value >> 31)) & MASK64


def canonical_encode(value: object) -> bytes:
    """Deterministic type-tagged byte encoding of a plain Python value.

    Supported: ``None``, bools, ints, floats, strings, bytes, tuples/lists,
    sets/frozensets (encoded in sorted-by-encoding order, so iteration order
    is irrelevant) and dicts (sorted by encoded key).  Anything else raises
    :class:`TransactionError` — silently falling back to ``repr`` would let
    unstable encodings leak into digests.
    """
    parts: list[bytes] = []
    _encode_into(value, parts)
    return b"".join(parts)


def _encode_into(value: object, parts: list[bytes]) -> None:
    # bool must precede int: True == 1 but must not hash like it.
    if value is None:
        parts.append(b"N;")
    elif isinstance(value, bool):
        parts.append(b"b1;" if value else b"b0;")
    elif isinstance(value, int):
        parts.append(b"i%d;" % value)
    elif isinstance(value, float):
        parts.append(b"f" + repr(value).encode("ascii") + b";")
    elif isinstance(value, str):
        # Covers str-valued enums (UpdateKind) too: they *are* their value.
        data = value.encode("utf-8")
        parts.append(b"s%d:" % len(data))
        parts.append(data)
    elif isinstance(value, bytes):
        parts.append(b"y%d:" % len(value))
        parts.append(value)
    elif isinstance(value, (tuple, list)):
        parts.append(b"t%d:" % len(value))
        for item in value:
            _encode_into(item, parts)
    elif isinstance(value, (set, frozenset)):
        encoded = sorted(canonical_encode(item) for item in value)
        parts.append(b"F%d:" % len(encoded))
        parts.extend(encoded)
    elif isinstance(value, dict):
        items = sorted(
            (canonical_encode(key), canonical_encode(val)) for key, val in value.items()
        )
        parts.append(b"d%d:" % len(items))
        for key_bytes, val_bytes in items:
            parts.append(key_bytes)
            parts.append(val_bytes)
    else:
        raise TransactionError(
            f"cannot stably encode value of type {type(value).__name__}: {value!r}"
        )


def _keyed_state(data: bytes, seed: int) -> hashlib.blake2b:
    return hashlib.blake2b(data, digest_size=8, key=(seed & MASK64).to_bytes(8, "big"))


def hash_encoded(encoded: bytes, seed: int = 0) -> int:
    """:func:`stable_hash` of the value whose :func:`canonical_encode` is
    ``encoded`` — for callers that need the encoding anyway."""
    return int.from_bytes(_keyed_state(encoded, seed).digest(), "big")


def stable_hash(value: object, seed: int = 0) -> int:
    """Seeded 64-bit digest of any :func:`canonical_encode`-able value.

    Stable across processes and interpreter versions; different seeds give
    independent hash families.
    """
    return hash_encoded(canonical_encode(value), seed)


def prefix_hasher(prefix: tuple[object, ...], seed: int = 0) -> Callable[[object], int]:
    """``h`` such that ``h(last) == stable_hash((*prefix, last), seed)``.

    The tuple header and the prefix items are encoded and fed to the keyed
    hash once; each call copies that state and adds only ``last``'s
    encoding, so ranking N candidates under one prefix costs one prefix, not
    N.  Bit-for-bit the :func:`stable_hash` value, so switching a caller
    between the two changes no decision.
    """
    parts: list[bytes] = [b"t%d:" % (len(prefix) + 1)]
    for item in prefix:
        _encode_into(item, parts)
    state = _keyed_state(b"".join(parts), seed)

    def digest_of(last: object) -> int:
        hasher = state.copy()
        hasher.update(canonical_encode(last))
        return int.from_bytes(hasher.digest(), "big")

    return digest_of


def encoded_size(value: object) -> int:
    """Length in bytes of the canonical encoding — the subsystem's measure of
    how large a value is "on the wire" for byte accounting."""
    return len(canonical_encode(value))


def xor_checksum(digests: Iterable[int]) -> int:
    """Order-independent 64-bit set checksum: XOR of member digests."""
    checksum = 0
    for digest in digests:
        checksum ^= digest
    return checksum & MASK64
