"""Reference IBLT: the dense, list-backed table the sparse one replaced.

Every cell of the table lives in three parallel lists (counts, key XORs,
check XORs), so building, subtracting and decoding walk the whole capacity.
It is kept only as the oracle for ``repro.p2p.sketch.IBLTSketch``: the two
must agree on every decode result, every ``SketchError`` and every
``byte_size()``, and on every cell once the sparse table is projected to
dense (:func:`project`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.hashing import MASK64, mix64
from repro.errors import SketchError
from repro.p2p.sketch import IBLTSketch


class DenseIBLTSketch:
    PROBES = 3
    CELLS_PER_ELEMENT = 1.5
    CELL_BYTES = 14

    def __init__(self, capacity: int, seed: int = 0, _cells: Optional[int] = None) -> None:
        if capacity < 1:
            raise SketchError("iblt capacity must be positive")
        self.capacity = capacity
        self.seed = seed & MASK64
        if _cells is not None:
            size = _cells
        else:
            size = max(self.PROBES, int(capacity * self.CELLS_PER_ELEMENT + 0.5))
            size += (-size) % self.PROBES
        self._counts = [0] * size
        self._keys = [0] * size
        self._checks = [0] * size

    def _check_of(self, key: int) -> int:
        return mix64(key ^ self.seed ^ 0xC2B2AE3D27D4EB4F) & 0xFFFFFFFF

    def _probes(self, key: int) -> list[int]:
        span = len(self._counts) // self.PROBES
        return [
            index * span
            + mix64(key ^ self.seed ^ ((index + 1) * 0x9E3779B97F4A7C15 & MASK64)) % span
            for index in range(self.PROBES)
        ]

    def _apply(self, key: int, delta: int) -> None:
        check = self._check_of(key)
        for index in self._probes(key):
            self._counts[index] += delta
            self._keys[index] ^= key
            self._checks[index] ^= check

    def add(self, key: int) -> None:
        self._apply(key & MASK64, +1)

    def remove(self, key: int) -> None:
        self._apply(key & MASK64, -1)

    def subtract(self, other: "DenseIBLTSketch") -> "DenseIBLTSketch":
        if len(self._counts) != len(other._counts) or self.seed != other.seed:
            raise SketchError("cannot subtract sketches of different shapes or seeds")
        result = DenseIBLTSketch(self.capacity, seed=self.seed, _cells=len(self._counts))
        result._counts = [a - b for a, b in zip(self._counts, other._counts)]
        result._keys = [a ^ b for a, b in zip(self._keys, other._keys)]
        result._checks = [a ^ b for a, b in zip(self._checks, other._checks)]
        return result

    def decode(self) -> tuple[set[int], set[int]]:
        counts = list(self._counts)
        keys = list(self._keys)
        checks = list(self._checks)
        only_left: set[int] = set()
        only_right: set[int] = set()

        def pure(index: int) -> bool:
            return counts[index] in (1, -1) and checks[index] == self._check_of(keys[index])

        frontier = [index for index in range(len(counts)) if pure(index)]
        while frontier:
            index = frontier.pop()
            if not pure(index):
                continue
            key = keys[index]
            side = only_left if counts[index] == 1 else only_right
            delta = -counts[index]
            side.add(key)
            check = self._check_of(key)
            for cell in self._probes(key):
                counts[cell] += delta
                keys[cell] ^= key
                checks[cell] ^= check
                if pure(cell):
                    frontier.append(cell)
        if any(counts) or any(keys) or any(checks):
            raise SketchError(
                f"iblt decode stalled (capacity {self.capacity}, "
                f"{sum(1 for c in counts if c)} undrained cells)"
            )
        return only_left, only_right

    def byte_size(self) -> int:
        return len(self._counts) * self.CELL_BYTES

    def cells(self) -> list[tuple[int, int, int]]:
        return list(zip(self._counts, self._keys, self._checks))


def project(sketch: IBLTSketch) -> list[tuple[int, int, int]]:
    """The sparse table as the dense one would hold it: untouched cells are
    all zeros."""
    size = sketch.byte_size() // sketch.CELL_BYTES
    return [tuple(sketch._cells.get(index, (0, 0, 0))) for index in range(size)]
