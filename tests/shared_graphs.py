"""Graph builders that several test modules share."""

import itertools

from p5house.graph import Graph

# H6 on 0..5: the path 0-1-2-3 and the 4-cycle 1-2-5-4 on its middle edge.
H6_EDGES = [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 5)]


def h6():
    return Graph(range(6), H6_EDGES)


def random_graph(rng, n, p=0.5):
    """G(n, p) on 0..n-1, one draw per vertex pair in lexicographic order."""
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(range(n), edges)
