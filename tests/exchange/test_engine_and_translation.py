"""Unit tests for the exchange engine, translation and migration."""

import pytest

from repro.config import ExchangeConfig
from repro.core.mapping import join_mapping, split_mapping
from repro.core.peer import Peer
from repro.core.schema import PeerSchema
from repro.core.transactions import Transaction
from repro.core.updates import Update
from repro.errors import PublicationError
from repro.exchange.engine import ExchangeEngine
from repro.exchange.migration import migrate_instance
from repro.exchange.rules import compile_mappings
from repro.exchange.translation import CandidateTransaction, UpdateTranslator

SIGMA1 = PeerSchema.build(
    "Sigma1",
    {"O": ["org", "oid"], "P": ["prot", "pid"], "S": ["oid", "pid", "seq"]},
    {"O": ["org"], "P": ["prot"], "S": ["oid", "pid"]},
)
SIGMA2 = PeerSchema.build("Sigma2", {"OPS": ["org", "prot", "seq"]}, {"OPS": ["org", "prot"]})


def build_engine(track_provenance: bool = True) -> ExchangeEngine:
    mappings = [
        join_mapping(
            "M_AC", "Alaska", "Crete",
            "OPS(org, prot, seq)",
            ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
        ),
        split_mapping(
            "M_CA", "Crete", "Alaska",
            ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
            "OPS(org, prot, seq)",
        ),
    ]
    program = compile_mappings([("Alaska", SIGMA1), ("Crete", SIGMA2)], mappings)
    return ExchangeEngine(program, ExchangeConfig(track_provenance=track_provenance))


def alaska_insert_txn(txn_id: str = "A1") -> Transaction:
    return Transaction(
        txn_id,
        "Alaska",
        (
            Update.insert("O", ("ecoli", 1), origin="Alaska"),
            Update.insert("P", ("lacZ", 10), origin="Alaska"),
            Update.insert("S", (1, 10, "ATG"), origin="Alaska"),
        ),
    )


class TestExchangeEngine:
    def test_insert_transaction_delta(self):
        engine = build_engine()
        delta = engine.process_transaction(alaska_insert_txn())
        assert ("OPS", ("ecoli", "lacZ", "ATG")) in delta.inserted["Crete"]
        assert engine.derived_tuples("Crete", "OPS") == frozenset({("ecoli", "lacZ", "ATG")})
        assert engine.published_tuples("Alaska", "O") == frozenset({("ecoli", 1)})

    def test_duplicate_processing_rejected(self):
        engine = build_engine()
        engine.process_transaction(alaska_insert_txn())
        with pytest.raises(PublicationError):
            engine.process_transaction(alaska_insert_txn())

    def test_unknown_delta_rejected(self):
        engine = build_engine()
        with pytest.raises(PublicationError):
            engine.delta_for("missing")

    def test_delete_transaction_delta(self):
        engine = build_engine()
        engine.process_transaction(alaska_insert_txn())
        deletion = Transaction(
            "A2", "Alaska", (Update.delete("S", (1, 10, "ATG"), origin="Alaska"),), frozenset({"A1"})
        )
        delta = engine.process_transaction(deletion)
        assert ("OPS", ("ecoli", "lacZ", "ATG")) in delta.deleted["Crete"]
        assert engine.derived_tuples("Crete", "OPS") == frozenset()

    def test_modify_produces_insert_and_delete(self):
        engine = build_engine()
        engine.process_transaction(alaska_insert_txn())
        modify = Transaction(
            "A2",
            "Alaska",
            (Update.modify("S", (1, 10, "ATG"), (1, 10, "GGG"), origin="Alaska"),),
            frozenset({"A1"}),
        )
        delta = engine.process_transaction(modify)
        assert ("OPS", ("ecoli", "lacZ", "GGG")) in delta.inserted["Crete"]
        assert ("OPS", ("ecoli", "lacZ", "ATG")) in delta.deleted["Crete"]

    def test_split_mapping_creates_labelled_nulls(self):
        engine = build_engine()
        crete = Transaction(
            "C1", "Crete", (Update.insert("OPS", ("human", "BRCA1", "GGC"), origin="Crete"),)
        )
        delta = engine.process_transaction(crete)
        alaska_inserts = dict(delta.inserted)["Alaska"]
        relations = {relation for relation, _values in alaska_inserts}
        assert relations == {"O", "P", "S"}

    def test_statistics_and_provenance(self):
        engine = build_engine()
        engine.process_transaction(alaska_insert_txn())
        stats = engine.statistics()
        assert stats["processed_transactions"] == 1
        assert stats["database_tuples"] > 0
        assert engine.provenance is not None

    def test_provenance_disabled(self):
        engine = build_engine(track_provenance=False)
        engine.process_transaction(alaska_insert_txn())
        assert engine.provenance is None

    def test_recompute_after_every_transaction_changes_nothing(self):
        """From-scratch recomputation of the derived state agrees with the
        incrementally maintained one after an insert and after a modify."""
        incremental = build_engine()
        recomputing = build_engine()
        transactions = [
            alaska_insert_txn("A1"),
            Transaction(
                "A2",
                "Alaska",
                (Update.modify("S", (1, 10, "ATG"), (1, 10, "GGG"), origin="Alaska"),),
                frozenset({"A1"}),
            ),
        ]
        for transaction in transactions:
            left = incremental.process_transaction(transaction)
            right = recomputing.process_transaction(transaction)
            recomputing.recompute()
            assert left.inserted == right.inserted and left.deleted == right.deleted
            assert incremental.database == recomputing.database
        assert recomputing.derived_tuples("Crete", "OPS") == {("ecoli", "lacZ", "GGG")}

    def test_delta_is_empty_for_unaffected_peer(self):
        engine = build_engine()
        crete_only = Transaction(
            "C9", "Crete", (Update.insert("OPS", ("x", "y", "z"), origin="Crete"),)
        )
        delta = engine.process_transaction(crete_only)
        assert not delta.is_empty_for("Alaska")
        assert delta.change_count() > 0


class TestUpdateTranslator:
    def test_translates_insertions(self):
        engine = build_engine()
        transaction = alaska_insert_txn()
        delta = engine.process_transaction(transaction)
        translator = UpdateTranslator("Crete", SIGMA2)
        candidate = translator.translate(transaction, delta)
        assert isinstance(candidate, CandidateTransaction)
        assert candidate.origin == "Alaska"
        assert candidate.target_peer == "Crete"
        assert not candidate.is_empty
        assert candidate.relations() == {"OPS"}

    def test_reassembles_modifications(self):
        engine = build_engine()
        base = alaska_insert_txn()
        engine.process_transaction(base)
        modify = Transaction(
            "A2",
            "Alaska",
            (Update.modify("S", (1, 10, "ATG"), (1, 10, "GGG"), origin="Alaska"),),
            frozenset({"A1"}),
        )
        delta = engine.process_transaction(modify)
        translator = UpdateTranslator("Crete", SIGMA2)
        candidate = translator.translate(modify, delta)
        kinds = [update.kind.value for update in candidate.updates]
        assert kinds == ["modify"]
        assert candidate.antecedents == frozenset({"A1"})

    def test_empty_translation(self):
        engine = build_engine()
        transaction = alaska_insert_txn()
        delta = engine.process_transaction(transaction)
        translator = UpdateTranslator("Alaska", SIGMA1)
        # Alaska's own transaction translated "for Alaska" only re-derives
        # what it already has, which is fine; translate for a peer whose
        # schema lacks the relations instead.
        unrelated = PeerSchema.build("Other", {"Z": ["a"]})
        other_translator = UpdateTranslator("Other", unrelated)
        candidate = other_translator.translate(transaction, delta)
        assert candidate.is_empty


class TestMigration:
    def test_migrate_instance_builds_initial_transaction(self):
        peer = Peer("Alaska", SIGMA1)
        peer.instance.insert("O", ("ecoli", 1))
        peer.instance.insert("P", ("lacZ", 10))
        transaction = migrate_instance(peer)
        assert transaction is not None
        assert transaction.peer == "Alaska"
        assert len(transaction.updates) == 2
        assert peer.producer_of("O", ("ecoli", 1)) == transaction.txn_id

    def test_empty_instance_returns_none(self):
        peer = Peer("Alaska", SIGMA1)
        assert migrate_instance(peer) is None
