"""
The full reduction pipeline on one graph
========================================

Start from an independent set incident to many edges, orient the edges it
touches so every vertex collects enough in-arcs, double the rest, and read
off a winning strategy for the online list-coloring game.  This script walks
the whole chain on a small graph and checks every step.
"""

from kernelpaint import (
    Graph,
    extract_reducible,
    is_kernel_perfect,
    make_kernel_painter,
    mic,
    play_paint_game,
    validate_certificate,
)

# A 4-cycle with a pendant vertex: not a Gallai tree, so an independent set
# covering at least |G| edge-incidences must exist.
g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
print("graph:", sorted(g.edges))

cover = mic(g)
print(f"best independent cover: {sorted(cover.witness)} touching {cover.value} edges",
      f"(|G| = {g.n})")

# Budgets f = d(v): one token per incident edge.  The extractor peels
# violating sets until the composite kernel-perfect digraph exists.
cert = extract_reducible(g, g.degrees)
print("certified subgraph H:", list(cert.h_vertices))
print("digraph arcs:", list(cert.digraph.arcs))
print("budgets on H:", cert.f_h)

ok, why = validate_certificate(cert, g, g.degrees)
print("certificate valid?", ok, f"({why})")
assert is_kernel_perfect(cert.digraph)

# The certificate is a strategy: answer every listed set S with a kernel of
# the digraph induced on S.  Traverse every line of play to confirm it never
# loses.
h_sorted = sorted(cert.h_vertices)
relabel = {v: i for i, v in enumerate(h_sorted)}
outcome = play_paint_game(
    g.induced(h_sorted),
    [cert.f_h[v] for v in h_sorted],
    painter=make_kernel_painter(cert.digraph.relabel(relabel)),
)
print(f"kernel painter vs exhaustive lister: {outcome.winner}",
      f"({outcome.states_explored} states)")
