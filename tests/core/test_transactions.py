"""Unit tests for transactions and the builder."""

import pytest

from repro.core.transactions import Transaction, TransactionBuilder
from repro.core.updates import Update
from repro.errors import TransactionError


def txn(txn_id: str, antecedents=(), relation="R", values=(1,)) -> Transaction:
    return Transaction(
        txn_id, "Peer", (Update.insert(relation, values, origin="Peer"),), frozenset(antecedents)
    )


class TestTransaction:
    def test_requires_updates(self):
        with pytest.raises(TransactionError):
            Transaction("t1", "Peer", ())

    def test_requires_id(self):
        with pytest.raises(TransactionError):
            Transaction("", "Peer", (Update.insert("R", (1,)),))

    def test_cannot_depend_on_itself(self):
        with pytest.raises(TransactionError):
            Transaction("t1", "Peer", (Update.insert("R", (1,)),), frozenset({"t1"}))

    def test_inserted_and_deleted_tuples(self):
        transaction = Transaction(
            "t1",
            "Peer",
            (
                Update.insert("R", (1,)),
                Update.delete("R", (2,)),
                Update.modify("R", (3,), (4,)),
            ),
        )
        assert ("R", (1,)) in transaction.inserted_tuples()
        assert ("R", (4,)) in transaction.inserted_tuples()
        assert ("R", (2,)) in transaction.deleted_tuples()
        assert ("R", (3,)) in transaction.deleted_tuples()
        assert len(transaction.touched_tuples()) == 4

    def test_with_epoch(self):
        stamped = txn("t1").with_epoch(7)
        assert stamped.epoch == 7
        assert stamped.txn_id == "t1"

    def test_relations_and_describe(self):
        transaction = txn("t1", antecedents={"t0"})
        assert transaction.relations() == {"R"}
        assert "t0" in transaction.describe()


class TestTransactionBuilder:
    def test_builds_transaction_with_updates(self):
        builder = TransactionBuilder("Alaska", "t1")
        builder.insert("O", ("E. coli", 1)).modify("O", ("E. coli", 1), ("E. coli", 2))
        transaction = builder.build()
        assert transaction.txn_id == "t1"
        assert transaction.peer == "Alaska"
        assert len(transaction.updates) == 2

    def test_antecedents_inferred_from_producers(self):
        producers = {("R", (1,)): "earlier"}
        builder = TransactionBuilder("Peer", "t2", producers=producers)
        builder.delete("R", (1,))
        assert builder.build().antecedents == frozenset({"earlier"})

    def test_modify_infers_antecedent(self):
        producers = {("R", (1,)): "earlier"}
        builder = TransactionBuilder("Peer", "t2", producers=producers)
        builder.modify("R", (1,), (2,))
        assert builder.build().antecedents == frozenset({"earlier"})

    def test_own_transaction_not_an_antecedent(self):
        producers = {("R", (1,)): "t3"}
        builder = TransactionBuilder("Peer", "t3", producers=producers)
        builder.delete("R", (1,))
        assert builder.build().antecedents == frozenset()

    def test_explicit_depends_on(self):
        builder = TransactionBuilder("Peer", "t4")
        builder.insert("R", (1,)).depends_on("a", "b")
        assert builder.build().antecedents == frozenset({"a", "b"})

    def test_generated_ids_unique(self):
        first = TransactionBuilder("Peer").txn_id
        second = TransactionBuilder("Peer").txn_id
        assert first != second
