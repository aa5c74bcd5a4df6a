"""
Orientations, kernels, and why one doubled edge matters
=======================================================

Three views of the same 4-vertex graph K4 minus an edge: in-degree demands
solved by path reversal, Eulerian subgraph counts over an orientation, and the
kernel-perfect supergraph search that needs to double exactly one edge.
"""

from kernelpaint import (
    alon_tarsi_diff,
    digraph_to_dot,
    is_f_KP,
    is_kernel_perfect,
    make_named,
    orient_with_indegrees,
)

g = make_named("K4_minus_e")
print("K4 - e:", sorted(g.edges), "degrees", g.degrees)

# 1. demand one in-arc everywhere: feasible, path reversal finds it
res = orient_with_indegrees(g, [1, 1, 1, 1])
print("\nin-degree >= 1 orientation:", list(res.orientation.arcs))

# 2. demand too much and the orientation hands back the witness set instead
res = orient_with_indegrees(g, [3, 3, 2, 2])
print("in-degree (3,3,2,2):", "feasible" if res.ok else
      f"violating set {sorted(res.violating_set)}, deficiency {res.deficiency}")

# 3. Eulerian counting on a concrete orientation
orient = orient_with_indegrees(g, [1, 1, 1, 1]).orientation
counts = alon_tarsi_diff(orient)
print(f"\nEulerian subgraph counts for that orientation: "
      f"even={counts.even} odd={counts.odd} diff={counts.diff}")

# 4. the kernel-perfect story: strict orientations cannot keep every
# out-degree below the degree, but doubling the edge shared by both
# triangles can
strict = is_f_KP(g, g.degrees, allow_supergraph=False)
print("\nstrict orientation with d+ < d everywhere and kernel-perfect?",
      bool(strict))
relaxed = is_f_KP(g, g.degrees)
print("allowing opposite arc pairs?", bool(relaxed))
print("doubled pair in the witness:", sorted(relaxed.witness.doubled_pairs()))
assert is_kernel_perfect(relaxed.witness)
print("\nwitness in DOT form:")
print(digraph_to_dot(relaxed.witness), end="")
