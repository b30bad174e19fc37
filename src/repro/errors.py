"""Exception hierarchy for the ORCHESTRA CDSS reproduction.

Every exception raised by the library derives from :class:`ReproError` so that
callers can catch all library failures with a single handler while still being
able to discriminate the subsystem that failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SourceSpan:
    """A location in a spec or datalog source text.

    Lines and columns are 1-based.  ``source`` names the origin (a file path
    or a label like ``"<spec>"``) when known.  Spans are attached to parsed
    atoms, rules, mappings and spec declarations so that static-analysis
    diagnostics (:mod:`repro.analysis`) can point at the offending line.
    """

    line: int
    column: int = 1
    end_line: Optional[int] = None
    end_column: Optional[int] = None
    source: Optional[str] = None

    def __str__(self) -> str:
        origin = self.source or "<input>"
        return f"{origin}:{self.line}:{self.column}"


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library.

    Errors may carry a stable diagnostic ``code`` (``CDSS0xx``, see
    :mod:`repro.analysis.codes`) and a :class:`SourceSpan` pointing at the
    offending spec/program location, so that build-time failures and
    lint-time diagnostics agree on identity and position.
    """

    def __init__(
        self,
        *args: object,
        code: Optional[str] = None,
        span: Optional[SourceSpan] = None,
    ) -> None:
        super().__init__(*args)
        self.code = code
        self.span = span

    def __str__(self) -> str:
        base = super().__str__()
        if self.code:
            return f"[{self.code}] {base}"
        return base


class SchemaError(ReproError):
    """A relation schema or peer schema is malformed or violated."""


class TupleArityError(SchemaError):
    """A tuple's arity does not match its relation schema."""


class UnknownRelationError(SchemaError):
    """A referenced relation does not exist in the schema or instance."""


class MappingError(ReproError):
    """A schema mapping is malformed (unsafe variables, unknown relations)."""


class DatalogError(ReproError):
    """Base class for errors raised by the datalog engine."""


class DatalogParseError(DatalogError):
    """A datalog rule, atom or fact could not be parsed.

    Carries the 1-based ``line``/``column`` of the offending token when the
    parser knows them (also exposed via :attr:`span`).
    """

    def __init__(
        self,
        *args: object,
        code: Optional[str] = None,
        span: Optional[SourceSpan] = None,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ) -> None:
        if span is None and line is not None:
            span = SourceSpan(line=line, column=column if column is not None else 1)
        super().__init__(*args, code=code, span=span)
        self.line = span.line if span is not None else None
        self.column = span.column if span is not None else None


class UnsafeRuleError(DatalogError):
    """A rule uses a variable in its head or a negated atom that is not bound
    by a positive body atom."""


class StratificationError(DatalogError):
    """The rule program cannot be stratified (negation through recursion)."""


class ProvenanceError(ReproError):
    """Provenance annotations are inconsistent or an operation on them failed."""


class SemiringError(ProvenanceError):
    """A semiring operation was applied to incompatible values."""


class StorageError(ReproError):
    """A storage backend failed or was used incorrectly."""


class TransactionError(ReproError):
    """A transaction or update is malformed, or transaction dependencies are
    inconsistent (for example, a cycle among antecedents)."""


class PublicationError(ReproError):
    """Publishing transactions to the shared update store failed."""


class QuorumError(PublicationError):
    """The distributed update store could not reach enough shard replicas to
    serve a read or accept a write (every replica host of a shard is
    offline)."""


class SketchError(ReproError):
    """A set-reconciliation sketch could not decode the symmetric difference
    (more differing elements than its capacity, or a cell-hash collision).
    Callers grow the sketch and retry, then fall back to cursor replay —
    decode failure is a cost signal, never a correctness problem."""


class ReconciliationError(ReproError):
    """The reconciliation algorithm was given inconsistent inputs or asked to
    resolve a conflict that does not exist."""


class TrustError(ReproError):
    """A trust condition is malformed or refers to unknown peers/relations."""


class PeerError(ReproError):
    """A peer is unknown, duplicated, or in an invalid state for the
    requested operation (for example, reconciling while disconnected)."""


class NetworkError(ReproError):
    """The simulated peer-to-peer network refused an operation, typically
    because the requesting peer is offline."""


class ConfigurationError(ReproError):
    """An engine or system configuration value is invalid."""


class SpecError(ReproError):
    """A declarative network specification (or the fluent builder state it
    describes) is malformed: unknown peers, duplicate declarations, trust
    entries for unregistered participants, or unserializable policies."""


class SyncError(ReproError):
    """The sync orchestration could not reach quiescence within its round
    budget, or there were no peers to synchronize.  (Unknown peer names
    raise :class:`PeerError`, matching the rest of the facade.)

    When raised at the round budget, :attr:`report` carries the partial
    :class:`~repro.api.sync.SyncReport` for the rounds that did run, so
    non-convergence is diagnosable without re-running the campaign.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report
