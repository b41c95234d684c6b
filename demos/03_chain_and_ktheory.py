"""
Iterated splittings and exact K-theory
======================================

Peels the running example down to a single vertex, one sink at a time,
and confirms on K_0 that the composite identifications are mutually
inverse integer matrices.
"""

from ampgraph import OMEGA, AmpGraph, check_chain_k0, kk_chain

g = AmpGraph.from_edges(
    ("v1", "v2", "v3", "v4", "v5"),
    {
        ("v1", "v2"): OMEGA,
        ("v1", "v3"): OMEGA,
        ("v2", "v4"): OMEGA,
        ("v3", "v5"): OMEGA,
    },
)

# acyclic and amplified: K_0 is free on the vertex projections, K_1 = 0
cls = g.classify()
print(f"acyclic: {cls.acyclic}  amplified: {cls.amplified}")
print(f"K_0 = Z^{len(g.vertices)} on", " ".join(f"[p[{v}]]" for v in g.vertices))
print("K_1 = 0")

chain = kk_chain(g)
print("\nremoval order:", " -> ".join(sd.sink for sd in chain.steps))
print("terminal vertex:", chain.terminal.vertices[0])
print("summands:", ", ".join(chain.iota_terms))

res = check_chain_k0(chain)
print("\nforward K_0 matrix:")
for row in res.forward:
    print("  " + " ".join(f"{x:3d}" for x in row))
product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*res.backward)]
           for row in res.forward]
print("product with backward is the identity:",
      product == [[int(i == j) for j in range(5)] for i in range(5)])
for check in res.report.checks:
    mark = "ok " if check.passed else "FAIL"
    print(f"  [{mark}] {check.name}")
