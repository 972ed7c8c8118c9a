"""Building cluster states from squeezed sources and checking entanglement.

Shows the graph-to-unitary construction, nullifier expressions, the minimal
squeezing a topology demands, and the two-node inseparability criterion as a
function of the source squeezing.
"""

import numpy as np

from cvmbqc import (
    ClusterGraph,
    cluster_unitary,
    db_to_variance,
    generate_cluster,
    min_squeezing_threshold,
    nullifiers,
    variance_to_db,
    vlf_two_node_check,
)

print("=== the entangling unitary of the two-node graph ===")
graph = ClusterGraph.two_node()
# U includes the two-node graph's Q = diag(1, -1): the phase shifter of the
# two-source preparation
U = cluster_unitary(graph)
print(np.round(U, 6))
print("This factors into: quarter-turn on mode 1, symmetric beam splitter,")
print("back-turn on mode 1 - three linear elements, nothing asymmetric.")

print()
print("=== nullifiers measure cluster quality ===")
for name, g in (("two-node", graph),
                ("3-chain", ClusterGraph.chain(3)),
                ("4-star", ClusterGraph.star(4))):
    exprs = nullifiers(g)
    bound = min_squeezing_threshold(g)
    print(f"{name:9}: threshold y-variance < {bound:.4f} "
          f"({variance_to_db(bound):.2f} dB), nullifiers {[str(e) for e in exprs]}")
print("Richer topologies demand more squeezing; the two-node graph only")
print("needs the variance below 1/4, i.e. any squeezing at all.")

print()
print("=== inseparability vs source squeezing ===")
print(f"{'y variance':>11} {'squeezing dB':>13} {'nullifier sum':>14} {'entangled':>10}")
for v in (0.24, 0.2, 0.125, 0.06, 0.02, db_to_variance(8.3)):
    state = generate_cluster([v, v], graph)
    res = vlf_two_node_check(state)
    print(f"{v:11.4f} {variance_to_db(v):13.2f} {res.nullifier_sum:14.6f} "
          f"{str(res.entangled):>10}")
print("The sum equals 4v, so the pair is entangled exactly when v < 1/8")
print("(3 dB of squeezing); 8.3 dB squeezed sources sit well inside.")
