"""Seeded input builders of the benchmark, on the checker's adjacency dicts.

Nothing here calls p5house: a change to the library's generator or oracle
does not change the inputs.  Every builder takes a ``random.Random`` and is a
pure function of its state, so one seed gives one input set.
"""

from __future__ import annotations

import random
from itertools import combinations

from checker import (
    Adj, CheckFailed, find_pattern, flip, is_prime, is_split, labelled_kinds, make, pattern_on,
    substitute,
)

# The paper's H6: the square 1-4-5-2 with pendant 0 at 1 and pendant 3 at 2.
H6_EDGES = ((0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 5))


def relabel(rng: random.Random, g: Adj) -> Adj:
    ids = list(range(len(g)))
    rng.shuffle(ids)
    new = dict(zip(sorted(g), ids))
    return {new[v]: frozenset(new[w] for w in s) for v, s in g.items()}


def random_split(rng: random.Random, ids: list[int]) -> Adj:
    """A split graph: a clique on the first half of ``ids`` (rounded up), a
    stable set on the rest, and each clique-stable pair an edge with
    probability 1/2."""
    k = (len(ids) + 1) // 2
    clique, stable = ids[:k], ids[k:]
    edges = list(combinations(clique, 2))
    edges += [(s, c) for s in stable for c in clique if rng.random() < 0.5]
    return make(ids, edges)


def pentagon(ids: list[int]) -> Adj:
    return make(ids, [(ids[i], ids[(i + 1) % 5]) for i in range(5)])


def grow_prime(rng: random.Random, n: int) -> Adj:
    """A prime, non-split member on n >= 6 vertices, grown from H6.

    Each step attaches one new vertex to a random subset of the others and
    is kept only when the graph stays a member (any new pattern must use the
    new vertex), non-split and prime.
    """
    g = make(range(6), H6_EDGES)
    while len(g) < n:
        v = len(g)
        for _ in range(400):
            p = rng.uniform(0.2, 0.8)
            nbrs = [u for u in g if rng.random() < p]
            cand = dict(g)
            cand[v] = frozenset(nbrs)
            for u in nbrs:
                cand[u] = g[u] | {v}
            if find_pattern(cand, pins=(v,)) is None and not is_split(cand) and is_prime(cand):
                g = cand
                break
        else:
            raise CheckFailed(f"no prime extension found at n={v}")
    return g


def substitution_member(rng: random.Random, n: int, outer_n: int = 8) -> Adj:
    """A member on n vertices: a prime graph on ``outer_n`` vertices grown
    from H6, each vertex replaced by a block, the blocks as equal in size as
    n allows.  A block is a pentagon, a grown prime graph or a random split
    graph.  Substitution keeps the class because P5 and the house are prime.
    """
    outer = grow_prime(rng, outer_n)
    g, next_id = outer, outer_n
    for i, site in enumerate(sorted(outer)):
        size = n // outer_n + (i < n % outer_n)
        if size == 1:
            continue
        ids = list(range(next_id, next_id + size))
        next_id += size
        roll = rng.random()
        if size == 5 and roll < 1 / 3:
            block = pentagon(ids)
        elif size >= 6 and roll < 2 / 3:
            block = {ids[v]: frozenset(ids[w] for w in s) for v, s in grow_prime(rng, size).items()}
        else:
            block = random_split(rng, ids)
        g = substitute(block, g, site)
    return relabel(rng, g)


def near_member(rng: random.Random, g: Adj) -> Adj:
    """The graph with one vertex pair flipped, kept when the search pinned to
    both ends of the pair finds a P5 (every new pattern uses the pair, so
    the flip made a non-member), then relabelled at random.

    Flips that make only houses are left out: the oracle meets them only
    after a full P5 scan, fifty times the median time to reject, and the
    share of them a seed drew moved a whole round's time.  Non-members with
    only houses are a stratum of the census6 sample instead.

    On up to 22 vertices the pinned search tries every 5-set through the
    pair.  On more it probes 1000 seeded random ones and then gives the flip
    up, so set-up never pays for proving that a flip made no P5.
    """
    vs = sorted(g)
    while True:
        u, v = rng.sample(vs, 2)
        h = flip(g, u, v)
        rest = [w for w in vs if w not in (u, v)]
        triples = (combinations(rest, 3) if len(vs) <= 22
                   else (rng.sample(rest, 3) for _ in range(1000)))
        if any(pattern_on(h, (u, v, *t)) == "P5" for t in triples):
            return relabel(rng, h)


def plant_p5(rng: random.Random, g: Adj, spots: list[int]) -> Adj:
    """The graph with a P5 set up on five of ``spots``, chosen by the seed
    (only pairs inside those five change), then relabelled at random."""
    five = rng.sample(spots, 5)
    want = {frozenset(p) for p in zip(five, five[1:])}
    h = g
    for u, v in combinations(five, 2):
        if (frozenset((u, v)) in want) != (v in h[u]):
            h = flip(h, u, v)
    if pattern_on(h, tuple(five)) != "P5":
        raise CheckFailed("planted P5 did not come out")
    return relabel(rng, h)


def chain(n: int) -> Adj:
    """C4 on 0..3, then 4..n-1 in order, even ones adjacent to every earlier
    vertex and odd ones isolated: a substitution tree of depth n - 4."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    edges += [(u, v) for v in range(4, n, 2) for u in range(v)]
    return make(range(n), edges)


def census_counts(max_n: int) -> list[int]:
    """Members among all labelled graphs on n vertices, for n = 0..max_n."""
    return [sum(not kinds for kinds in labelled_kinds(n)) for n in range(max_n + 1)]
