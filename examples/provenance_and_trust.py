"""Provenance polynomials and trust evaluation via semiring homomorphisms.

Shows the machinery of the PODS'07 companion paper inside the CDSS: every
tuple that update exchange derives carries a provenance polynomial over the
published base tuples, and different trust questions are answered by
evaluating that provenance in different semirings:

* boolean semiring — "is this tuple derivable from peers I trust?"
* tropical semiring — "what is the cheapest mapping path that produced it?"
* security semiring — "what clearance is needed to see it?"

Run with:  python examples/provenance_and_trust.py
"""

from __future__ import annotations

from repro.provenance import SecuritySemiring, TropicalSemiring, TrustLevel
from repro.workloads.bioinformatics import build_figure2_network


def main() -> None:
    network = build_figure2_network()
    cdss = network.cdss
    alaska, beijing = network.alaska, network.beijing

    # Alaska publishes an organism/protein pair; Beijing independently
    # publishes the same sequence (two derivations of one Σ2 tuple).
    for peer in (alaska, beijing):
        builder = peer.new_transaction()
        builder.insert("O", ("E. coli", 1))
        builder.insert("P", ("recA", 11))
        builder.insert("S", (1, 11, "ATGGCGGAT"))
        peer.commit(builder)

    # One orchestrated sync publishes both and reconciles Dresden.
    cdss.sync(peers=["Alaska", "Beijing", "Dresden"])

    graph = cdss.engine.provenance
    target = ("Dresden.OPS", ("E. coli", "recA", "ATGGCGGAT"))
    polynomial = graph.polynomial_for(*target)
    print("provenance polynomial of Dresden's OPS('E. coli', 'recA', ...):")
    print(f"  {polynomial}")
    nodes, edges = graph.dag_size(*target)
    store_nodes, store_edges = graph.circuit_size()
    print(
        f"  distinct derivations (monomials): {polynomial.monomial_count()}  "
        f"|  stored DAG: {nodes} nodes / {edges} edges "
        f"(whole store: {store_nodes} / {store_edges}, shared across tuples)"
    )

    # Boolean trust: derivable from Alaska alone?  From Beijing alone?
    by_peer = {
        variable: variable.split(".", 1)[0]
        for variable in graph.base_variables()
    }
    for trusted in ({"Alaska"}, {"Beijing"}, set()):
        trusted_variables = {v for v, peer in by_peer.items() if peer in trusted}
        derivable = graph.is_derivable(*target, trusted_variables=trusted_variables)
        print(f"  derivable trusting only {sorted(trusted) or 'nobody'}: {derivable}")

    # Tropical trust: assign each peer's contributions a cost and compute the
    # cheapest derivation.
    costs = {variable: (1.0 if peer == "Beijing" else 5.0) for variable, peer in by_peer.items()}
    annotations = graph.evaluate(TropicalSemiring(), costs)
    print(f"  cheapest-derivation cost (Beijing=1, Alaska=5 per tuple): {annotations[target]}")

    # Security clearances: Alaska's data is SECRET, Beijing's is PUBLIC; the
    # clearance needed for the derived tuple is the best alternative.
    clearances = {
        variable: (TrustLevel.PUBLIC if peer == "Beijing" else TrustLevel.SECRET)
        for variable, peer in by_peer.items()
    }
    annotations = graph.evaluate(SecuritySemiring(), clearances)
    print(f"  clearance required: {annotations[target].name}")

    assert annotations[target] == TrustLevel.PUBLIC

    # A trust policy itself induces a semiring assignment: Crete's priority
    # table (Beijing=2, Dresden=1, everyone else distrusted) becomes tropical
    # costs — higher priority, cheaper hop; distrusted peers cost infinity.
    priorities = network.crete.trust.priorities_by_peer(
        ["Alaska", "Beijing", "Crete", "Dresden"]
    )
    costs_by_peer = {
        peer: (1.0 / priority if priority else float("inf"))
        for peer, priority in priorities.items()
    }
    assignment = {
        variable: costs_by_peer.get(peer, float("inf")) for variable, peer in by_peer.items()
    }
    crete_cost = graph.evaluate(TropicalSemiring(), assignment)[target]
    print(f"  cheapest derivation using only peers Crete trusts: {crete_cost}")
    assert crete_cost != float("inf")  # Beijing's copy alone supports it

    # The same provenance machinery backs ad-hoc queries over a peer's
    # instance: every answer row carries its polynomial over local tuples.
    result = cdss.query(
        "Dresden",
        "Answer(org, seq) :- OPS(org, prot, seq), prot = 'recA'.",
        provenance=True,
    )
    for row in sorted(result.rows):
        print(f"  query answer {row}: provenance {result.provenance[row]}")

    print("\nprovenance and trust example completed successfully")


if __name__ == "__main__":
    main()
