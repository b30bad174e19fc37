"""The messages a network accounts, read through its one accounting seam."""

from repro.p2p.network import Network


def recorded_rows(network: Network) -> list:
    """Every ``(sender, receiver, kind, size)`` row ``network`` accounts
    from now on, in send order: ``record_messages`` wrapped on the
    instance, the call every message passes through."""
    rows: list = []
    record = network.record_messages

    def recording(batch):
        batch = tuple(batch)
        record(batch)
        rows.extend(batch)

    network.record_messages = recording
    return rows
