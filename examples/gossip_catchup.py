"""A flash crowd rejoining under epidemic gossip catch-up.

In cursor mode every returning peer replays the archive's log tail straight
from the store — N rejoiners, N replays, all served by one archive.  Gossip
mode replaces that with sketch-based set reconciliation: peers exchange
constant-size clocks, an IBLT of the *difference*, and only the entries the
other side is provably missing, with deterministically chosen fanout
partners spreading the diff peer-to-peer.

This example shows both layers:

1. a CDSS network in ``sync gossip`` mode where half the peers disconnect,
   the rest keep publishing, and the crowd rejoins at once — the sync
   report's gossip phase says how many rounds, sessions, and bytes the
   catch-up cost, and the network's traffic counters show how little of it
   the archive itself had to serve;
2. the reconcile layer head-to-head on a "patchwork" cache missing a few
   scattered entries of a long log, where a scalar cursor must replay
   nearly everything but a sketch session moves O(diff) bytes.

Run with ``PYTHONPATH=src python examples/gossip_catchup.py``.
"""

from repro import CDSS
from repro.core.transactions import Transaction
from repro.core.updates import Update
from repro.obs import Observability
from repro.p2p.reconcile import (
    EntryCache,
    SetReconciler,
    StoreView,
    cursor_transfer_bytes,
    session_counts,
)
from repro.p2p.store import UpdateStore

PEERS = ["Aarhus", "Bergen", "Cadiz", "Delft", "Eltville", "Fulda"]

SPEC = "network flash-crowd\nsync gossip fanout 2 sketch iblt\n" + "".join(
    f"peer {name}\n  relation Reading(id, value) key(id)\n" for name in PEERS
) + "".join(
    f"mapping [M{i}] @{PEERS[i + 1]}.Reading(id, v) :- @{PEERS[i]}.Reading(id, v).\n"
    for i in range(len(PEERS) - 1)
)


def flash_crowd() -> None:
    cdss = CDSS.from_spec(SPEC)
    crowd, stayers = PEERS[: len(PEERS) // 2], PEERS[len(PEERS) // 2:]

    for index in range(6):
        cdss.peer(PEERS[0]).insert("Reading", (index, index * 10))
    cdss.sync()

    print(f"{', '.join(crowd)} go OFFLINE; the rest keep publishing...")
    for peer in crowd:
        cdss.set_online(peer, False)
    for index in range(6, 18):
        cdss.peer(stayers[0]).insert("Reading", (index, index * 10))
    cdss.sync(peers=stayers)

    print(f"{', '.join(crowd)} rejoin at once — the flash crowd.")
    traffic_before = cdss.network.message_stats()
    for peer in crowd:
        cdss.set_online(peer, True)
    report = cdss.sync()
    gossip = report.gossip or {}
    traffic = cdss.network.message_stats()

    print(f"  converged           : {report.converged}")
    print(f"  gossip rounds       : {gossip.get('rounds')}")
    print(f"  sessions / messages : {gossip.get('sessions')} / {gossip.get('messages')}")
    print(f"  entries delivered   : {gossip.get('entries_delivered')}")
    print(f"  total bytes moved   : {gossip.get('bytes')}")
    delta_bytes = traffic["bytes"] - traffic_before["bytes"]
    archive = traffic["per_peer"].get("#archive", {})
    archive_before = traffic_before["per_peer"].get("#archive", {})
    archive_bytes = (
        archive.get("bytes_sent", 0) + archive.get("bytes_received", 0)
        - archive_before.get("bytes_sent", 0) - archive_before.get("bytes_received", 0)
    )
    print(f"  archive's share     : {archive_bytes} of {delta_bytes} bytes")
    for peer in crowd:
        stats = traffic["per_peer"][peer]
        print(
            f"  {peer:<10} received {stats['bytes_received']} B "
            f"in {stats['received']} messages"
        )
    rows = cdss.peer_snapshot(PEERS[-1])["Reading"]
    print(f"  {PEERS[-1]} now holds {len(rows)} readings")


def patchwork_rejoiner() -> None:
    log_length, holes = 500, 12
    store = UpdateStore()
    for epoch in range(1, log_length + 1):
        txn = Transaction(
            f"t{epoch}", "Aarhus",
            (Update.insert("Reading", (epoch, epoch * 10), origin="Aarhus"),),
        )
        store.archive([txn], epoch=epoch, publisher="Aarhus")

    # The rejoiner was intermittently online: it holds everything except a
    # few scattered entries, so its scalar cursor is pinned at its earliest
    # hole and cursor replay would ship nearly the whole log again.
    entries = store.published_since(0)
    missing = set(range(3, log_length, log_length // holes))
    cache = EntryCache("rejoiner")
    cache.add_entries(e for i, e in enumerate(entries) if i not in missing)
    cursor = min(entries[i].epoch for i in missing) - 1
    cursor_bytes = cursor_transfer_bytes(store.published_since(cursor))

    view = StoreView(store)
    view.refresh()
    obs = Observability()
    result = SetReconciler(observability=obs).reconcile(cache, view)
    session = session_counts(obs.metrics)

    print(f"  log length / holes  : {log_length} / {len(missing)}")
    print(f"  cursor replay       : {cursor_bytes} B (tail from epoch {cursor})")
    print(
        f"  sketch session      : {session['bytes']} B "
        f"({session['sketch_bytes']} B sketches + {session['entry_bytes']} B entries)"
    )
    print(f"  delivered / converged: {result.delivered} entries / {result.converged}")
    print(f"  cursor/sketch ratio : {cursor_bytes / session['bytes']:.1f}x")


def main() -> None:
    print("== Flash crowd under gossip sync ==")
    flash_crowd()
    print("\n== Patchwork rejoiner: sketch vs cursor ==")
    patchwork_rejoiner()


if __name__ == "__main__":
    main()
