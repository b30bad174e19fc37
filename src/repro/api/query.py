"""Ad-hoc datalog queries over one peer's local instance.

``cdss.query(peer, rule_text)`` evaluates a small datalog program against a
snapshot of the peer's instance and returns the rows of the *answer
predicate* — the head of the first rule.  With ``provenance=True`` the
evaluation additionally records a provenance graph and annotates every
answer row with its provenance polynomial over the peer's base tuples
(the how-provenance of the PODS'07 companion paper)::

    result = cdss.query(
        "Crete",
        "Answer(org, seq) :- OPS(org, prot, seq), prot = 'lacZ'.",
        provenance=True,
    )
    for row in result:
        print(row, result.provenance[row])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..datalog.evaluation import Database, evaluate_program
from ..datalog.parser import parse_program
from ..datalog.plan import compile_program
from ..datalog.provenance_eval import evaluate_with_provenance
from ..errors import SpecError, UnknownRelationError


@dataclass
class QueryResult:
    """Rows of the answer predicate, optionally with provenance polynomials."""

    peer: str
    predicate: str
    rows: frozenset[tuple]
    #: ``{row: Polynomial}`` when the query ran with provenance, else None.
    provenance: Optional[dict] = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row) -> bool:
        return tuple(row) in self.rows

    def to_dict(self) -> dict:
        serialized: dict = {
            "peer": self.peer,
            "predicate": self.predicate,
            "rows": sorted((list(row) for row in self.rows), key=repr),
        }
        if self.provenance is not None:
            serialized["provenance"] = {
                repr(tuple(row)): str(polynomial)
                for row, polynomial in sorted(self.provenance.items(), key=repr)
            }
        return serialized


def run_query(
    cdss,
    peer_name: str,
    text: str,
    provenance: bool = False,
    max_monomials: Optional[int] = 10_000,
) -> QueryResult:
    """Evaluate ``text`` (one or more datalog rules) over a peer's instance.

    Body atoms may reference the peer's schema relations and any predicate
    defined by a rule of the query (in any order — evaluation stratifies the
    program); the head predicate of the first rule is the answer relation.
    """
    peer = cdss.peer(peer_name)
    program = parse_program(text)
    if not program.rules:
        raise SpecError(f"query {text!r} contains no rules")
    # Compile (and validate) before snapshotting the instance: unsafe or
    # unstratifiable queries fail fast, and repeated identical queries reuse
    # the cached join plans instead of re-planning per evaluation.
    compile_program(program)

    answer = program.rules[0].head.predicate
    defined = program.idb_predicates
    for rule in program.rules:
        for predicate in rule.body_predicates():
            if predicate in defined or peer.schema.has_relation(predicate):
                continue
            raise UnknownRelationError(
                f"query rule {rule!r} references {predicate!r}, which is neither "
                f"a relation of peer {peer_name!r} nor defined by the query"
            )

    database = Database.from_dict(peer.snapshot())
    if provenance:
        result = evaluate_with_provenance(program, database)
        rows = result.database.relation(answer)
        # The expansion budget keeps the per-row polynomial view bounded:
        # provenance is stored as a compact derivation graph, and a row whose
        # expansion would exceed the budget raises a ProvenanceError naming
        # it instead of materialising a combinatorial polynomial.
        polynomials = {
            row: result.polynomial(answer, row, max_monomials=max_monomials)
            for row in rows
        }
        return QueryResult(peer_name, answer, rows, polynomials)

    evaluated = evaluate_program(program, database)
    return QueryResult(peer_name, answer, evaluated.relation(answer))
