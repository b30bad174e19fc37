"""Sketches, digests, and compact clocks for set reconciliation."""

import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.hashing import (
    MASK64,
    canonical_encode,
    encoded_size,
    hash_encoded,
    mix64,
    prefix_hasher,
    stable_hash,
    stable_text_hash,
    xor_checksum,
)
from repro.core.transactions import Transaction
from repro.core.updates import Update
from repro.errors import SketchError, TransactionError
from repro.p2p.sketch import (
    CompactClock,
    IBLTSketch,
    entry_digest,
    entry_wire_size,
    transaction_digest,
)
from repro.p2p.store import EpochLog, PublishedTransaction

from dense_iblt import DenseIBLTSketch, project


def entry(txn_id: str, epoch: int, sequence: int, peer: str = "Alaska") -> PublishedTransaction:
    txn = Transaction(txn_id, peer, (Update.insert("R", (txn_id,), origin=peer),), epoch=epoch)
    return PublishedTransaction(txn, epoch, sequence, peer)


class TestStableHashing:
    def test_text_hash_is_process_stable(self):
        # Pinned value: any change here silently reshuffles shard placement.
        assert stable_text_hash("Alaska-T1:Beijing") == 0x040E12E4BA2B9168

    def test_stable_hash_is_seeded(self):
        value = ("txn", "Alaska", (1, 2))
        assert stable_hash(value) == stable_hash(value)
        assert stable_hash(value, seed=1) != stable_hash(value, seed=2)

    @settings(max_examples=200, deadline=None)
    @given(
        prefix=st.lists(
            st.one_of(st.text(), st.integers(), st.booleans(), st.none()), max_size=4
        ),
        names=st.lists(st.text(), min_size=1, max_size=4),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
    )
    @example(
        prefix=["gossip-partner", 7, "Zürich"],
        names=["#archive", "Ålesund", "北京", ""],
        seed=0,
    )
    def test_prefix_hasher_equals_stable_hash_of_the_whole_tuple(self, prefix, names, seed):
        rank = prefix_hasher(tuple(prefix), seed)
        for name in names:
            assert rank(name) == stable_hash((*prefix, name), seed)

    def test_hash_encoded_is_stable_hash_of_the_decoded_value(self):
        value = ("entry", "Alaska", 3, (1, "x"))
        assert hash_encoded(canonical_encode(value), 9) == stable_hash(value, 9)

    def test_canonical_encode_distinguishes_types(self):
        # 1, 1.0, True and "1" collide under builtin hash/eq rules; the
        # canonical encoding must keep them apart.
        encodings = {canonical_encode(value) for value in (1, 1.0, True, "1", b"1")}
        assert len(encodings) == 5

    def test_canonical_encode_is_order_insensitive_for_sets_and_dicts(self):
        assert canonical_encode({1, 2, 3}) == canonical_encode({3, 1, 2})
        assert canonical_encode({"a": 1, "b": 2}) == canonical_encode({"b": 2, "a": 1})

    def test_canonical_encode_rejects_unencodable_values(self):
        with pytest.raises(TransactionError):
            canonical_encode(object())

    def test_encoded_size_matches_encoding(self):
        value = ("entry", "Alaska", 3, (1, "x"))
        assert encoded_size(value) == len(canonical_encode(value))

    def test_mix64_diffuses(self):
        outputs = {mix64(i) for i in range(256)}
        assert len(outputs) == 256

    def test_xor_checksum_is_order_free_and_self_inverse(self):
        digests = [stable_hash(i) for i in range(8)]
        shuffled = list(digests)
        random.Random(7).shuffle(shuffled)
        assert xor_checksum(digests) == xor_checksum(shuffled)
        assert xor_checksum(digests + digests) == 0

    def test_digests_are_stable_across_interpreter_runs(self):
        """The digests both ends of a session compute must not depend on
        PYTHONHASHSEED — run the same computation in two fresh interpreters
        with different seeds and require identical output."""
        program = (
            "from repro.core.hashing import stable_hash, stable_text_hash\n"
            "from repro.core.transactions import Transaction\n"
            "from repro.core.updates import Update\n"
            "from repro.p2p.store import PublishedTransaction\n"
            "from repro.p2p.sketch import entry_digest\n"
            "t = Transaction('t1', 'Alaska', (Update.insert('R', (1, 'x'), origin='Alaska'),), epoch=2)\n"
            "e = PublishedTransaction(t, 2, 5, 'Alaska')\n"
            "print(stable_text_hash('probe'), stable_hash(('k', 1)), entry_digest(e))\n"
        )
        outputs = set()
        for hash_seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": hash_seed, "PYTHONPATH": "src"},
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1


class TestDigests:
    def test_entry_digest_covers_position(self):
        # Same transaction at a different archive position is a different entry.
        assert entry_digest(entry("t1", 1, 0)) != entry_digest(entry("t1", 2, 0))
        assert entry_digest(entry("t1", 1, 0)) != entry_digest(entry("t1", 1, 1))

    def test_transaction_digest_ignores_epoch(self):
        # Content digest: the same logical transaction published at different
        # epochs has the same content.
        a = Transaction("t1", "Alaska", (Update.insert("R", (1,), origin="Alaska"),), epoch=1)
        b = Transaction("t1", "Alaska", (Update.insert("R", (1,), origin="Alaska"),), epoch=9)
        assert transaction_digest(a) == transaction_digest(b)

    def test_wire_size_is_positive_and_grows_with_content(self):
        small = entry_wire_size(entry("t", 1, 0))
        big = entry_wire_size(entry("t-with-a-much-longer-identifier", 1, 0))
        assert 0 < small < big

    def test_entry_properties_are_cached(self):
        e = entry("t1", 1, 0)
        assert e.digest == e.digest == entry_digest(e)
        assert e.wire_size == entry_wire_size(e)

    def test_digest_and_wire_size_share_one_encoding(self, monkeypatch):
        import repro.p2p.store as store_module

        encodings = []

        def counting_encode(value):
            encodings.append(value)
            return canonical_encode(value)

        monkeypatch.setattr(store_module, "canonical_encode", counting_encode)
        e = entry("t1", 1, 0)
        assert (e.wire_size, e.digest) == (entry_wire_size(e), entry_digest(e))
        assert len(encodings) == 1


class TestCompactClock:
    """The summary every entry set keeps (:meth:`EpochLog.compact_clock`)."""

    @staticmethod
    def clock_of(entries) -> CompactClock:
        log = EpochLog()
        for item in entries:
            log.add(item)
        return log.compact_clock()

    def test_equal_sets_agree(self):
        entries = [entry(f"t{i}", i + 1, i) for i in range(10)]
        shuffled = list(entries)
        random.Random(3).shuffle(shuffled)
        assert self.clock_of(entries) == self.clock_of(shuffled)

    def test_detects_interior_holes_count_and_max_miss(self):
        # Two sets with equal size and equal latest epoch but different
        # members — a (count, max) vector cannot tell them apart.
        base = [entry(f"t{i}", i + 1, i) for i in range(6)]
        holed = base[:2] + [entry("u2", 3, 2), entry("u3", 4, 3)] + base[4:]
        left, right = self.clock_of(base), self.clock_of(holed)
        assert (left.count, left.latest) == (right.count, right.latest)
        assert not left.agrees_with(right)

    def test_byte_size_is_constant(self):
        assert self.clock_of([]).byte_size() == CompactClock.BYTE_SIZE
        many = [entry(f"t{i}", i + 1, i) for i in range(200)]
        assert self.clock_of(many).byte_size() == CompactClock.BYTE_SIZE


class TestIBLTSketch:
    def _decode_diff(self, left_keys, right_keys, capacity, seed=0):
        left = IBLTSketch(capacity, seed=seed)
        right = IBLTSketch(capacity, seed=seed)
        for key in left_keys:
            left.add(key)
        for key in right_keys:
            right.add(key)
        return left.subtract(right).decode()

    def test_decodes_symmetric_difference_exactly(self):
        shared = {stable_hash(("s", i)) for i in range(200)}
        only_left = {stable_hash(("l", i)) for i in range(7)}
        only_right = {stable_hash(("r", i)) for i in range(4)}
        got_left, got_right = self._decode_diff(
            shared | only_left, shared | only_right, capacity=32
        )
        assert got_left == only_left
        assert got_right == only_right

    def test_equal_sets_decode_empty(self):
        keys = {stable_hash(i) for i in range(50)}
        assert self._decode_diff(keys, keys, capacity=8) == (set(), set())

    def test_overflow_raises_sketch_error(self):
        only_left = {stable_hash(("l", i)) for i in range(200)}
        with pytest.raises(SketchError):
            self._decode_diff(only_left, set(), capacity=4)

    def test_decode_with_grow_and_retry_recovers_every_random_diff(self):
        """A single attempt may stall on unlucky probe collisions; the
        protocol's grow-with-fresh-seed retry must always recover the exact
        diff within a few attempts (trial 12 of this stream stalls on
        attempt 0, so the retry path is genuinely exercised)."""
        rng = random.Random(42)
        for trial in range(25):
            universe = [stable_hash(("u", trial, i)) for i in range(120)]
            rng.shuffle(universe)
            split = rng.randrange(0, 12)
            left = set(universe)
            right = set(universe[split:])
            for attempt in range(3):
                capacity = 32 * (4 ** attempt)
                seed = stable_hash(("retry", trial, attempt))
                try:
                    got_left, got_right = self._decode_diff(
                        left, right, capacity=capacity, seed=seed
                    )
                    break
                except SketchError:
                    continue
            else:
                pytest.fail(f"trial {trial}: decode failed on all attempts")
            assert got_left == set(universe[:split])
            assert got_right == set()

    def test_subtract_requires_same_shape_and_seed(self):
        with pytest.raises(SketchError):
            IBLTSketch(8, seed=1).subtract(IBLTSketch(8, seed=2))
        with pytest.raises(SketchError):
            IBLTSketch(8, seed=1).subtract(IBLTSketch(64, seed=1))

    def test_tiny_tables_still_probe_distinct_cells(self):
        sketch = IBLTSketch(1)
        key = stable_hash("only")
        assert len(set(sketch._probes(key))) == sketch.PROBES

    def test_seeds_give_independent_probe_sequences(self):
        """A retry uses a fresh seed so that keys which stalled together
        land in different cells the next time."""
        keys = [stable_hash(("k", i)) for i in range(200)]
        first, second = IBLTSketch(32, seed=1), IBLTSketch(32, seed=2)
        same = sum(first._probes(key) == second._probes(key) for key in keys)
        assert same < 5
        assert [first._probes(key) for key in keys] == [
            IBLTSketch(32, seed=1)._probes(key) for key in keys
        ]

    def test_byte_size_scales_with_capacity(self):
        assert IBLTSketch(8).byte_size() < IBLTSketch(64).byte_size()

    def test_capacity_is_validated(self):
        with pytest.raises(SketchError):
            IBLTSketch(0)


def _decode_outcome(sketch):
    try:
        return "decoded", sketch.decode()
    except SketchError as error:
        return "stalled", str(error)


digests = st.one_of(st.integers(0, 63), st.integers(0, MASK64))


class TestSparseMatchesDense:
    """The sparse IBLT against the dense list-backed table it replaced
    (``tests/p2p/dense_iblt.py``): same cells, same decodes, same errors,
    same wire size — including differences past capacity."""

    @settings(max_examples=200, deadline=None)
    @given(
        shared=st.sets(digests, max_size=30),
        left_only=st.sets(digests, max_size=30),
        right_only=st.sets(digests, max_size=30),
        capacity=st.integers(1, 40),
        seed=st.integers(0, MASK64),
    )
    @example(shared=set(), left_only=set(range(100, 160)), right_only=set(), capacity=4, seed=0)
    @example(shared={1, 2, 3}, left_only=set(), right_only=set(), capacity=1, seed=7)
    def test_sparse_and_dense_agree(self, shared, left_only, right_only, capacity, seed):
        tables = {}
        for name, cls in (("sparse", IBLTSketch), ("dense", DenseIBLTSketch)):
            left, right = cls(capacity, seed=seed), cls(capacity, seed=seed)
            for key in shared | left_only:
                left.add(key)
            for key in shared | right_only:
                right.add(key)
            tables[name] = (left, right, left.subtract(right))
        for sparse, dense in zip(tables["sparse"], tables["dense"]):
            assert project(sparse) == dense.cells()
            assert sparse.byte_size() == dense.byte_size()
        assert _decode_outcome(tables["sparse"][2]) == _decode_outcome(tables["dense"][2])

    @settings(max_examples=100, deadline=None)
    @given(
        shared=st.sets(digests, max_size=30),
        left_only=st.sets(digests, max_size=30),
        right_only=st.sets(digests, max_size=30),
        capacities=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        seed=st.integers(0, MASK64),
    )
    def test_tables_sharing_a_position_memo_agree_with_dense(
        self, shared, left_only, right_only, capacities, seed
    ):
        """One memo for every table, several shapes, each shape built twice
        (the second build reads every key from the memo): the cells, the
        decode and the memo's own entries are the dense table's."""
        positions: dict = {}
        for capacity in [*capacities, *capacities]:
            tables = {}
            for name, cls in (("sparse", IBLTSketch), ("dense", DenseIBLTSketch)):
                memo = {"positions": positions} if cls is IBLTSketch else {}
                left = cls(capacity, seed=seed, **memo)
                right = cls(capacity, seed=seed, **memo)
                for key in shared | left_only:
                    left.add(key)
                for key in shared | right_only:
                    right.add(key)
                tables[name] = (left, right, left.subtract(right))
            for sparse, dense in zip(tables["sparse"], tables["dense"]):
                assert project(sparse) == dense.cells()
            assert _decode_outcome(tables["sparse"][2]) == _decode_outcome(tables["dense"][2])
        for (shape_seed, size), memo in positions.items():
            dense = DenseIBLTSketch(1, seed=shape_seed, _cells=size)
            for key, (check, cells) in memo.items():
                assert (check, list(cells)) == (dense._check_of(key), dense._probes(key))

    def test_a_position_memo_is_keyed_by_shape(self):
        positions: dict = {}
        for capacity, seed in ((8, 1), (8, 2), (7, 1), (64, 1)):
            IBLTSketch(capacity, seed=seed, positions=positions).add(stable_hash("k"))
        # Capacities 7 and 8 both round to 12 cells: one shape, one memo.
        assert sorted(positions) == [(1, 12), (1, 96), (2, 12)]

    def test_a_forged_pure_cell_stalls_both_the_same_way(self):
        """A cell that looks pure but holds a key never added (what a
        check-hash collision produces) peels into cells nobody touched;
        both tables must report the same stall."""
        outcomes = []
        for cls in (IBLTSketch, DenseIBLTSketch):
            sketch = cls(8, seed=3)
            sketch.add(stable_hash("real"))
            forged = stable_hash("forged")
            index = next(
                cell for cell in range(12) if cell not in sketch._probes(forged)
                and cell not in sketch._probes(stable_hash("real"))
            )
            fields = (1, forged, sketch._check_of(forged))
            if cls is IBLTSketch:
                sketch._cells[index] = list(fields)
            else:
                sketch._counts[index], sketch._keys[index], sketch._checks[index] = fields
            outcomes.append(_decode_outcome(sketch))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "stalled"

    def test_the_sparse_table_holds_only_touched_cells(self):
        sketch = IBLTSketch(1000, seed=1)
        for key in range(5):
            sketch.add(stable_hash(key))
        assert len(sketch._cells) <= 5 * sketch.PROBES
        assert sketch.byte_size() == DenseIBLTSketch(1000, seed=1).byte_size()


class TestRemovalMatchesSubtract:
    """A session builds one table per attempt: the sender's sketch, from
    which the receiver removes its own digests.  ``subtract`` of two
    separately built tables is the reference: the same cells, in the same
    order, and the same decode or the same stall."""

    @settings(max_examples=200, deadline=None)
    @given(
        shared=st.sets(digests, max_size=30),
        left_only=st.sets(digests, max_size=30),
        right_only=st.sets(digests, max_size=30),
        capacity=st.integers(1, 40),
        seed=st.integers(0, MASK64),
        shared_memo=st.booleans(),
    )
    @example(
        shared=set(), left_only=set(range(100, 160)), right_only=set(range(7)),
        capacity=4, seed=0, shared_memo=False,
    )
    @example(
        shared={1, 2, 3}, left_only=set(), right_only=set(), capacity=1, seed=7,
        shared_memo=True,
    )
    def test_removing_the_right_digests_equals_subtracting_the_right_table(
        self, shared, left_only, right_only, capacity, seed, shared_memo
    ):
        positions: dict = {}
        memo = {"positions": positions} if shared_memo else {}
        left = IBLTSketch(capacity, seed=seed, **memo)
        right = IBLTSketch(capacity, seed=seed, **memo)
        received = IBLTSketch(capacity, seed=seed, **memo)
        for key in shared | left_only:
            left.add(key)
            received.add(key)
        for key in shared | right_only:
            right.add(key)
            received.remove(key)
        subtracted = left.subtract(right)
        assert list(received._cells.items()) == list(subtracted._cells.items())
        assert received.byte_size() == subtracted.byte_size()
        assert _decode_outcome(received) == _decode_outcome(subtracted)
