"""Tuple helpers and labelled nulls.

Tuples flowing through the CDSS are plain Python tuples of scalars, except
that cells produced by existential variables of mappings are *labelled nulls*
— ground skolem terms.  This module provides helpers for building, displaying
and classifying such tuples without the rest of the core package needing to
know about the datalog representation.
"""

from __future__ import annotations

from typing import Sequence

from ..datalog.ast import SkolemTerm

#: Re-exported so that client code can isinstance-check labelled nulls
#: without importing the datalog package.
LabelledNull = SkolemTerm


def labelled_null(function: str, *arguments: object) -> SkolemTerm:
    """Construct a labelled null explicitly (mostly useful in tests)."""
    return SkolemTerm(function, tuple(arguments))


def is_labelled_null(value: object) -> bool:
    """True when ``value`` is a labelled null produced by a mapping."""
    return isinstance(value, SkolemTerm) and value.is_ground


def has_labelled_nulls(values: Sequence[object]) -> bool:
    """True when any cell of the tuple is a labelled null."""
    return any(is_labelled_null(value) for value in values)


def render_value(value: object) -> str:
    """Human-readable rendering of one cell value."""
    if is_labelled_null(value):
        arguments = ", ".join(render_value(argument) for argument in value.arguments)
        return f"⊥{value.function}({arguments})"
    if isinstance(value, str):
        return value
    return repr(value)


def render_tuple(values: Sequence[object]) -> str:
    """Human-readable rendering of a whole tuple."""
    return "(" + ", ".join(render_value(value) for value in values) + ")"
