"""Shared metrics registry: counters and histograms.

Naming contract (linted in CI): every metric name is dotted lowercase —
``^[a-z][a-z0-9_]*(\\.[a-z][a-z0-9_]*)+$`` — and no dotted component may
collide with a ``CDSS###`` diagnostic code from :mod:`repro.analysis`.
Per-peer series share the base name and carry the peer as a label; the
flat snapshot renders them as ``name[label]`` so the base name stays
lintable by stripping the bracket suffix.

Snapshots are plain ``dict``s with keys in sorted order, so equal
registries always serialise identically — the determinism tests compare
them byte-for-byte across same-seed runs.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence

#: Stable metric-name shape: at least two dotted lowercase components.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Diagnostic codes (``CDSS042``) live in a different namespace; a metric
#: component that case-folds onto one would make grep-ability ambiguous.
_DIAGNOSTIC_COMPONENT_RE = re.compile(r"^cdss\d+$")

_LABELLED_KEY_RE = re.compile(r"^(?P<name>[^\[\]]+)\[(?P<label>[^\[\]]+)\]$")


def validate_metric_name(name: str) -> List[str]:
    """Return the naming problems of ``name`` (empty list when clean).

    Accepts both bare names and labelled snapshot keys (``name[label]``);
    the label itself is free-form (peer names keep their case).
    """
    problems: List[str] = []
    base = name
    match = _LABELLED_KEY_RE.match(name)
    if match is not None:
        base = match.group("name")
    if not METRIC_NAME_RE.match(base):
        problems.append(
            f"{name!r}: metric names must be dotted lowercase "
            "(^[a-z][a-z0-9_]*(\\.[a-z][a-z0-9_]*)+$)"
        )
        return problems
    for component in base.split("."):
        if _DIAGNOSTIC_COMPONENT_RE.match(component):
            problems.append(
                f"{name!r}: component {component!r} collides with the "
                "CDSS diagnostic-code namespace"
            )
    return problems


def _check_name(name: str) -> str:
    problems = validate_metric_name(name)
    if problems:
        raise ValueError(problems[0])
    return name


class MetricsRegistry:
    """Counters and histograms under stable dotted names.

    * counters are monotonic sums (``counter_add``);
    * histograms keep deterministic aggregates only — count, total, min,
      max — flattened as ``name.count`` / ``name.total`` / ``name.min`` /
      ``name.max`` in the snapshot.

    Every mutator accepts an optional ``label`` (peer name); labelled
    series are tracked per label *and* rolled into the unlabelled total
    for counters, so ``snapshot()["net.bytes.sent"]`` is the network-wide
    figure and ``snapshot()["net.bytes.sent[Alaska]"]`` one peer's share.
    """

    __slots__ = ("_counters", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        # name -> [count, total, minimum, maximum]
        self._histograms: Dict[str, List[float]] = {}

    # -- mutators --------------------------------------------------------

    def counter_add(
        self, name: str, value: float = 1, label: Optional[str] = None
    ) -> None:
        counters = self._counters
        if name not in counters:
            _check_name(name)
        counters[name] = counters.get(name, 0) + value
        if label is not None:
            key = f"{name}[{label}]"
            counters[key] = counters.get(key, 0) + value

    def counters_add(self, keys: Sequence[str], values: Sequence[float]) -> None:
        """Add ``values[i]`` to the counter under ``keys[i]``.

        A key is a bare name or a prebuilt labelled key (``name[label]``),
        so a hot path that adds to the same series over and over builds its
        keys once; labelled keys are *not* rolled into their total here —
        pass the bare name as its own key.
        """
        counters = self._counters
        for key, value in zip(keys, values):
            try:
                counters[key] += value
            except KeyError:
                _check_name(key.partition("[")[0])
                counters[key] = value

    def observe(
        self, name: str, value: float, label: Optional[str] = None
    ) -> None:
        histograms = self._histograms
        if name not in histograms:
            _check_name(name)
        for key in (name,) if label is None else (name, f"{name}[{label}]"):
            bucket = histograms.get(key)
            if bucket is None:
                histograms[key] = [1, value, value, value]
            else:
                bucket[0] += 1
                bucket[1] += value
                if value < bucket[2]:
                    bucket[2] = value
                if value > bucket[3]:
                    bucket[3] = value

    # -- accessors -------------------------------------------------------

    def counter_value(self, name: str, label: Optional[str] = None) -> float:
        key = name if label is None else f"{name}[{label}]"
        return self._counters.get(key, 0)

    def labelled_counters(self, name: str) -> Dict[str, float]:
        """``{label: value}`` for every labelled series under ``name``."""
        prefix = f"{name}["
        series: Dict[str, float] = {}
        for key in sorted(self._counters):
            if key.startswith(prefix) and key.endswith("]"):
                series[key[len(prefix) : -1]] = self._counters[key]
        return series

    def snapshot(self) -> Dict[str, float]:
        """Flat, deterministically-ordered view of every series."""
        flat: Dict[str, float] = {}
        flat.update(self._counters)
        for name, (count, total, minimum, maximum) in self._histograms.items():
            flat[f"{name}.count"] = count
            flat[f"{name}.total"] = total
            flat[f"{name}.min"] = minimum
            flat[f"{name}.max"] = maximum
        return {key: flat[key] for key in sorted(flat)}

    def since(self, before: Dict[str, float]) -> Dict[str, float]:
        """Per-run view: cumulative series diffed against ``before``.

        Counters and histogram count/total aggregates subtract the prior
        snapshot; histogram min/max report their current value (a
        high-water mark has no meaningful difference).  Series absent
        from the diff (no movement since ``before``) are dropped.
        """
        current = self.snapshot()
        view: Dict[str, float] = {}
        for key, value in current.items():
            if key.endswith((".min", ".max")):
                view[key] = value
            else:
                delta = value - before.get(key, 0)
                if delta:
                    view[key] = delta
        return view
