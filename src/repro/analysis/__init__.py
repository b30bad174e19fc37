"""Static analysis for CDSS networks and datalog programs.

The analyzer examines a :class:`~repro.api.spec.NetworkSpec` or a
:class:`~repro.datalog.ast.Program` *before* anything runs and reports
:class:`Diagnostic` findings with stable ``CDSS0xx`` codes, severities and
source spans:

* chase termination — weak acyclicity of the skolemized mapping dependency
  graph (``CDSS003``),
* rule safety / range restriction (``CDSS001``) and stratifiability
  (``CDSS002``),
* schema consistency — unknown relations/peers, arity mismatches, duplicate
  mapping ids (``CDSS004``–``CDSS007``),
* network shape — isolated peers, redundant mappings (``CDSS008``/``009``),
* trust-policy lints — shadowed, unsatisfiable, and mutually-distrusting
  rows (``CDSS010``–``012``).

``CDSS013`` (a rule the removed SQL execution backend could not compile) is
retired; its number is never reused.

Entry points: ``python -m repro.lint`` (CLI), :func:`analyze_network_spec`,
:func:`analyze_program`, ``cdss.analyze()``, and
``NetworkBuilder.build(strict=True)``.

This module is import-light on purpose — only the diagnostics framework and
code registry load eagerly (lower layers import them for error codes); the
analyzers themselves resolve lazily on first attribute access.
"""

from __future__ import annotations

from . import codes
from .codes import REGISTRY, CodeInfo, severity_of, title_of
from .diagnostics import Diagnostic, DiagnosticReport

__all__ = [
    "codes",
    "CodeInfo",
    "REGISTRY",
    "severity_of",
    "title_of",
    "Diagnostic",
    "DiagnosticReport",
    "analyze_program",
    "analyze_network_spec",
    "analyze_system",
    "weak_acyclicity_violations",
    "position_graph",
]

_LAZY = {
    "analyze_program": ("program", "analyze_program"),
    "analyze_network_spec": ("network", "analyze_network_spec"),
    "analyze_system": ("network", "analyze_system"),
    "weak_acyclicity_violations": ("chase", "weak_acyclicity_violations"),
    "position_graph": ("chase", "position_graph"),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{target[0]}", __name__)
    value = getattr(module, target[1])
    globals()[name] = value
    return value
