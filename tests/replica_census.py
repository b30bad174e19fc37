"""A distributed store's replication state, counted from the replicas."""

from collections import Counter

from repro.p2p.distributed import DistributedUpdateStore


def copy_target(store: DistributedUpdateStore) -> int:
    """How many copies of each entry the store must keep."""
    return min(store.replication_factor, len(store._network.peers()))


def holders(store: DistributedUpdateStore, shard: int) -> Counter:
    """``{sequence: replicas holding it}`` over the shard's replicas."""
    return Counter(
        entry.sequence for replica in store._replicas.get(shard, []) for entry in replica
    )


def census_problems(store: DistributedUpdateStore) -> list[str]:
    """How the store's own replication answers differ from a brute-force
    count over what every replica holds (empty when they agree).

    Checks ``under_replicated()`` against a count of the holders of every
    assigned sequence, ``_is_complete`` against set inclusion, and that no
    replica holds a sequence its shard was never assigned.
    """
    target = copy_target(store)
    expected: dict[int, list[int]] = {}
    problems = []
    for shard, assigned in store._shard_sequences.items():
        copies = holders(store, shard)
        short = [sequence for sequence in sorted(assigned) if copies[sequence] < target]
        if short:
            expected[shard] = short
        for replica in store._replicas.get(shard, []):
            sequences = {entry.sequence for entry in replica}
            if not sequences <= assigned:
                problems.append(f"shard {shard} replica on {replica.host} holds foreign entries")
            if store._is_complete(shard, replica) != (assigned <= sequences):
                problems.append(f"shard {shard} replica on {replica.host}: _is_complete is wrong")
    if store.under_replicated() != expected:
        problems.append(f"under_replicated() {store.under_replicated()} != census {expected}")
    return problems


def prune_problems(
    store: DistributedUpdateStore, shard: int, before: Counter
) -> list[str]:
    """Sequences a prune left with fewer copies than both the target and
    what they had ``before`` it."""
    target = copy_target(store)
    after = holders(store, shard)
    return [
        f"pruning shard {shard} left sequence {sequence} with {after[sequence]} copies"
        for sequence, copies in sorted(before.items())
        if after[sequence] < min(copies, target)
    ]
