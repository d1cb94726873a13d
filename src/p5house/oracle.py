"""Brute-force ground truth: induced-pattern search and class membership.

The five patterns are fixed and tiny, so an exhaustive search over vertex
tuples is both the simplest and the most trustworthy oracle.  Embeddings
are enumerated in ascending lexicographic order, with each pattern's
automorphisms quotiented away by canonical position constraints, so a
search's first hit is reproducible.

Two kinds of search produce that order.  The bitmask kernels walk the
positions in nested loops over adjacency masks, carrying down the masks
that earlier positions rule out, and test the last vertex with one mask
operation.  ``_kernel`` serves P5, C5 (the same walk with the closing edge
and its order constraints) and the house, which on positions 0..4 is
exactly the complement of P5 with the same constraint v0 < v4;
``_search`` is the one place that picks the walk for each.  For the P5
scan of a large graph's first ranks, ``_p5_scan`` calls ``_twin_kernel``
itself, which walks one vertex at positions 1 and 2 per class of vertices
that the rest of the walk cannot tell apart, as the vertices of a module
are, and gives the same hit.
``_h6_kernel`` serves the decorated-H6 search: it walks H6's six
positions and prunes with the simplicial and anti-simplicial vertex
masks, which only drops prefixes no decorated copy extends, so it returns
the first decorated embedding of the generic order.  The generic
generator ``_embeddings`` serves P4 (and a plain, undecorated H6 asked of
``find_induced``) and the vertex-pinned search, and is the reference the
kernels are tested against.  All are O(n^5) or O(n^6)
in the worst case; the kernels spend a few mask operations per prefix,
with no generator frames.

``find_induced`` always searches the whole graph, by ``_search``'s plain
walk, and is the ground truth.
The refutation rule, which every membership answer and witness comes
from, is stated here alone: the first induced P5, else the first house,
else (in triple mode) the first pentagon.  Up to 16 vertices
(``_WHOLE_GRAPH_MAX``) each is sought in the whole graph.  Above that, P5
is first sought among the copies that start at one of the first few
vertices (``_PREFIX``), where most non-members met in practice have one,
by ``_twin_kernel``'s walk; after a miss the search reads the modular
decomposition: P5, the house and C5 are prime graphs, so the least copy
of each lies in the graph of one prime node, the input restricted to the
least vertex of each child (``_least_hit``), by the plain walk.
``_p5_scan`` makes this size choice, the only one, and builds those
graphs once for ``_after_p5_scan``, the house and C5 search.
``first_forbidden`` is these two calls over one decomposition tree;
``decompose`` makes them around its build, over the tree the build walks,
the second only when its build has raised.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from .graph import Graph
from .modular import _Node, _prime_representatives

__all__ = [
    "PatternKind",
    "PatternHit",
    "H6Hit",
    "find_induced",
    "contains_induced_using",
    "first_forbidden",
    "is_class_member",
    "find_special_h6",
]


class PatternKind(enum.Enum):
    P4 = "P4"
    P5 = "P5"
    HOUSE = "house"
    C5 = "C5"
    H6 = "H6"


# Pattern edge lists on positions 0..k-1.  The house is the complement of the
# four-edge path; H6 is the square 1-4-5-2 with pendants 0 at 1 and 3 at 2.
_PATTERN_EDGES: dict[PatternKind, tuple[tuple[int, int], ...]] = {
    PatternKind.P4: ((0, 1), (1, 2), (2, 3)),
    PatternKind.P5: ((0, 1), (1, 2), (2, 3), (3, 4)),
    PatternKind.HOUSE: ((0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)),
    PatternKind.C5: ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
    PatternKind.H6: ((0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 5)),
}

# Canonical "position i gets a smaller vertex than position j" constraints
# that pick one representative per automorphism orbit.
_PATTERN_ORDER: dict[PatternKind, tuple[tuple[int, int], ...]] = {
    PatternKind.P4: ((0, 3),),
    PatternKind.P5: ((0, 4),),
    PatternKind.HOUSE: ((0, 4),),
    PatternKind.C5: ((0, 1), (0, 2), (0, 3), (0, 4), (1, 4)),
    PatternKind.H6: ((0, 3),),
}


def _compile(kind: PatternKind):
    edges = set(_PATTERN_EDGES[kind])
    k = 1 + max(max(e) for e in edges)
    adj_req: list[list[int]] = [[] for _ in range(k)]
    non_req: list[list[int]] = [[] for _ in range(k)]
    for p in range(k):
        for q in range(p):
            if (q, p) in edges or (p, q) in edges:
                adj_req[p].append(q)
            else:
                non_req[p].append(q)
    above: list[list[int]] = [[] for _ in range(k)]
    for i, j in _PATTERN_ORDER[kind]:
        above[j].append(i)
    return k, adj_req, non_req, above


_COMPILED = {kind: _compile(kind) for kind in PatternKind}

# The kinds the per-call paths test, bound once: a member lookup on the
# enum class costs several times a global name's.
_P5, _HOUSE = PatternKind.P5, PatternKind.HOUSE
_FORBIDDEN = (_P5, _HOUSE)
_FORBIDDEN_TRIPLE = _FORBIDDEN + (PatternKind.C5,)

# _p5_scan scans graphs with at most this many vertices
# whole.  Here the decomposition costs about what it saves: at n = 16,
# is_class_member took 0.169 ms whole against 0.139 ms on the prime nodes
# for substitution members, 0.178 against 0.325 ms for grown prime members;
# at n = 24, 0.78 against 0.31 ms and 0.94 against 1.21 ms (medians of
# best-of-7 times, 2 vCPUs, Python 3.11).  It must be at least _PREFIX.
_WHOLE_GRAPH_MAX = 16

# The v0 ranks of the P5 scan of the whole graph that comes before the
# prime nodes are read.  On the bench's 768 members near-members of seed 1
# (n 30..41), prefixes of 2, 3, 4, 6 and 8 ranks hold the first P5 of 517,
# 606, 655, 702 and 729 of them.  A member pays the whole prefix; a
# near-member whose first P5 lies past it pays for the tree as well.  Over
# _twin_kernel's walk, prefixes of 2, 4, 6 and 8 ranks gave the members
# bench a graphs_per_s, which sums the rejections as the bench times them,
# of 5,842, 7,656, 8,113 and 9,073, a reject_ms of 0.0213, 0.0206, 0.0213
# and 0.0209 ms and a recognize_ms of 0.217, 0.237, 0.267 and 0.281 ms
# (medians of six 8 s runs, seeds 1..3, 2 vCPUs, Python 3.11), so 8 ranks:
# the most throughput at the same median rejection, for a member's
# recognize 19% slower than at 4 ranks.
_PREFIX = 8


@dataclass(frozen=True)
class PatternHit:
    """An induced copy: position i of the pattern sits at embedding[i]."""

    kind: PatternKind
    embedding: tuple[int, ...]


@dataclass(frozen=True)
class H6Hit:
    """A decorated induced H6 (positions named v1..v6 in embedding order).

    The degree-one vertices v1, v4 are simplicial in the host and at least
    one degree-three vertex is anti-simplicial; hits are normalized so that
    v2 carries the anti-simplicial flag.  All flags can be re-derived from
    the host graph.
    """

    embedding: tuple[int, ...]
    v1_simplicial: bool
    v4_simplicial: bool
    v2_anti_simplicial: bool
    v3_anti_simplicial: bool


def _embeddings(
    g: Graph, kind: PatternKind, pin: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield induced embeddings in lexicographic order (one per orbit).

    With ``pin`` set, only embeddings using that vertex are produced; the
    pinned search tries the vertex at every pattern position, so it decides
    existence but may emit duplicates.
    """
    k, adj_req, non_req, above = _COMPILED[kind]
    n = g.n
    if n < k:
        return
    masks = g._masks
    full = (1 << n) - 1
    vs = g.vertices
    pin_bit = 0 if pin is None else 1 << g._pos[pin]

    def search(pin_pos: int | None) -> Iterator[tuple[int, ...]]:
        chosen = [0] * k

        def extend(level: int, used: int) -> Iterator[tuple[int, ...]]:
            if level == k:
                yield tuple(vs[c.bit_length() - 1] for c in chosen)
                return
            cand = full & ~used
            for q in adj_req[level]:
                cand &= masks[chosen[q].bit_length() - 1]
            for q in non_req[level]:
                cand &= ~masks[chosen[q].bit_length() - 1]
            for q in above[level]:
                cand &= ~((chosen[q] << 1) - 1)
            if pin_pos is not None:
                cand &= pin_bit if level == pin_pos else ~pin_bit
            while cand:
                b = cand & -cand
                cand ^= b
                chosen[level] = b
                yield from extend(level + 1, used | b)

        return extend(0, 0)

    if pin is None:
        yield from search(None)
    else:
        for p in range(k):
            yield from search(p)


def _kernel(masks: tuple[int, ...], cycle: bool, first: int = 0) -> tuple[int, ...] | None:
    """Bit positions of the first induced P5 (v0 < v4) in lexicographic
    order or, with ``cycle``, of the first induced C5 (v0 least, v1 < v4),
    among the copies whose v0 has rank ``first`` or above.

    Nested levels over adjacency masks, one per position.  ``allow`` holds
    the vertices positions 1..3 may take (above v0 for the cycle), and
    ``reach_k`` the vertices still allowed at position 4 once positions
    0..k are fixed, so the fifth vertex is one mask test.
    """
    n = len(masks)
    full = (1 << n) - 1
    for i0 in range(first, n):
        n0 = masks[i0]
        above0 = full >> (i0 + 1) << (i0 + 1)
        if cycle:
            allow, reach0 = above0, above0 & n0
        else:
            allow, reach0 = full, above0 & ~n0
        if not reach0:
            continue
        off0 = n0 | 1 << i0
        c1 = n0 & allow
        while c1:
            b1 = c1 & -c1
            c1 ^= b1
            i1 = b1.bit_length() - 1
            n1 = masks[i1]
            reach1 = reach0 & ~n1
            if cycle:
                reach1 &= full >> (i1 + 1) << (i1 + 1)
            if not reach1:
                continue
            off01 = n0 | n1
            c2 = n1 & ~off0 & allow
            while c2:
                b2 = c2 & -c2
                c2 ^= b2
                n2 = masks[b2.bit_length() - 1]
                reach2 = reach1 & ~n2
                if not reach2:
                    continue
                c3 = n2 & ~off01 & allow
                while c3:
                    b3 = c3 & -c3
                    c3 ^= b3
                    c4 = masks[b3.bit_length() - 1] & reach2
                    if c4:
                        return (
                            i0,
                            i1,
                            b2.bit_length() - 1,
                            b3.bit_length() - 1,
                            (c4 & -c4).bit_length() - 1,
                        )
    return None


def _twin_kernel(
    masks: tuple[int, ...], first: int, stop: int | None
) -> tuple[int, ...] | None:
    """_kernel's P5 walk, which walks one v1 per key ``n1 & ~N[v0]`` and,
    under it, one v2 per key ``n2 & ~(N[v0] | key1)``: the same first hit.

    Below v1, the walk reads v1's mask only through its key: v4's candidates
    ``reach1`` and v3's exclusion lie outside N[v0], and v2's candidates are
    the key itself.  Below v2, it reads v2's mask only through its key,
    which is v3's candidates, as ``reach1`` lies outside N[v0] and key1.
    So a vertex whose key an earlier vertex of its level had roots a
    subtree that was walked already without a hit, and is skipped.  The
    vertices of a module that holds neither v0 nor v1 share a key, so on a
    graph built by substitution the walk visits about one vertex of each
    module at both levels.  On small graphs there is little to skip and the
    key sets cost more than they save (a fifth more time on six-vertex
    graphs), so _p5_scan, the one caller, walks this way only its prefix
    of a graph above _WHOLE_GRAPH_MAX vertices; _search, and so
    find_induced, always takes the plain walk.
    """
    n = len(masks)
    full = (1 << n) - 1
    for i0 in range(first, n if stop is None else min(stop, n)):
        n0 = masks[i0]
        reach0 = full >> (i0 + 1) << (i0 + 1) & ~n0
        if not reach0:
            continue
        off0 = n0 | 1 << i0
        seen1 = set()
        c1 = n0
        while c1:
            b1 = c1 & -c1
            c1 ^= b1
            key1 = masks[b1.bit_length() - 1] & ~off0
            if key1 in seen1:
                continue
            seen1.add(key1)
            reach1 = reach0 & ~key1
            if not reach1:
                continue
            off01 = off0 | key1
            seen2 = set()
            c2 = key1
            while c2:
                b2 = c2 & -c2
                c2 ^= b2
                c3 = masks[b2.bit_length() - 1] & ~off01
                if c3 in seen2:
                    continue
                seen2.add(c3)
                reach2 = reach1 & ~c3
                if not reach2:
                    continue
                while c3:
                    b3 = c3 & -c3
                    c3 ^= b3
                    c4 = masks[b3.bit_length() - 1] & reach2
                    if c4:
                        return (
                            i0,
                            b1.bit_length() - 1,
                            b2.bit_length() - 1,
                            b3.bit_length() - 1,
                            (c4 & -c4).bit_length() - 1,
                        )
    return None


def _search(g: Graph, kind: PatternKind, first: int = 0) -> tuple[int, ...] | None:
    """g's first copy of ``kind`` (P5, the house or C5) whose v0 has rank
    ``first`` or above, as vertex ids, or None, by _kernel's walk.  The
    house is the P5 of the complement, whose masks are taken here without
    building its graph."""
    masks = g._masks
    if kind is _P5:
        pos = _kernel(masks, False, first)
    elif kind is _HOUSE:
        full = (1 << len(masks)) - 1
        pos = _kernel([full ^ m ^ (1 << i) for i, m in enumerate(masks)], False, first)
    else:
        pos = _kernel(masks, True, first)
    if pos is None:
        return None
    vs = g.vertices
    return tuple(vs[i] for i in pos)


def find_induced(g: Graph, kind: PatternKind) -> PatternHit | None:
    """First induced copy of the pattern in lexicographic order, or None.

    P5, house and C5 go through the bitmask kernel (_search); other
    patterns take the generic search.
    """
    if kind in _FORBIDDEN_TRIPLE:
        emb = _search(g, kind)
    else:
        emb = next(_embeddings(g, kind), None)
    return None if emb is None else PatternHit(kind=kind, embedding=emb)


def contains_induced_using(g: Graph, kind: PatternKind, v: int) -> bool:
    """True iff some induced copy of the pattern goes through vertex v.

    A vertex added to a member creates a forbidden pattern exactly when
    one goes through it, so this decides membership of one-vertex
    extensions on its own.
    """
    for _ in _embeddings(g, kind, pin=v):
        return True
    return False


def _least_hit(nodes: list[Graph], kind: PatternKind, v0_from: int | None = None) -> PatternHit | None:
    """The least copy of ``kind`` (P5, the house or C5) that any of
    ``nodes`` holds, or None; a P5 among those whose v0 is ``v0_from`` or
    above, which P5 needs.

    For the representative graphs of g's prime nodes (see _p5_scan)
    this is g's least copy.  Each pattern is prime, so a copy in g lies
    inside the smallest strong module holding it and meets each child of
    that module's node in one vertex at most; moving each vertex to the
    least vertex of its child gives a copy whose embedding, put in the
    pattern's canonical order, is not greater, so g's least copy lies in
    that node's representative graph."""
    best = None
    for h in nodes:
        emb = _search(h, kind, 0 if v0_from is None else bisect_left(h.vertices, v0_from))
        if emb is not None and (best is None or emb < best):
            best = emb
    return None if best is None else PatternHit(kind=kind, embedding=best)


def _p5_scan(g: Graph) -> tuple[PatternHit | None, list[Graph], _Node | None]:
    """g's first P5 or None, with the graphs the rest of the rule reads and
    g's decomposition tree where this made it.  Up to _WHOLE_GRAPH_MAX
    vertices g is scanned whole, the graphs are [g] and no tree is made.
    Above that, g's copies whose v0 has one of its first _PREFIX ranks are
    scanned, by _twin_kernel's walk, which is called here alone; after a
    miss the tree is made, the graphs are the representative graphs of its
    prime nodes with five children or more, built here once, and the least
    P5 from that rank on is read off them (_least_hit), by the plain walk:
    a prime node's graph has no modules for the twin walk to skip."""
    if g.n <= _WHOLE_GRAPH_MAX:
        return find_induced(g, _P5), [g], None
    pos = _twin_kernel(g._masks, 0, _PREFIX)
    if pos is not None:
        return PatternHit(kind=_P5, embedding=tuple(g.vertices[i] for i in pos)), [g], None
    root = _Node(g._full_mask())
    nodes = [g._induced(m) for m in _prime_representatives(g, root)]
    return _least_hit(nodes, _P5, g.vertices[_PREFIX]), nodes, root


def _after_p5_scan(nodes: list[Graph], kinds: tuple[PatternKind, ...]) -> PatternHit | None:
    """first_forbidden's answer for ``kinds`` (P5 first) once _p5_scan has
    found no P5: the first hit of the other kinds, in order, each the least
    copy in the graphs ``nodes`` that _p5_scan gave (_least_hit)."""
    for kind in kinds[1:]:
        hit = _least_hit(nodes, kind)
        if hit is not None:
            return hit
    return None


def first_forbidden(g: Graph, triple: bool = False) -> PatternHit | None:
    """The refutation of membership: the first induced P5, else the first
    house, else (with ``triple``) the first pentagon; None for a member.
    The search is the module docstring's rule, over one decomposition tree
    of g, made only where the search reads it."""
    hit, nodes, _ = _p5_scan(g)
    if hit is not None:
        return hit
    return _after_p5_scan(nodes, _FORBIDDEN_TRIPLE if triple else _FORBIDDEN)


def is_class_member(g: Graph, triple: bool = False) -> bool:
    """Membership test: no induced P5 and no induced house.

    With ``triple`` the pentagon is forbidden as well.
    """
    return first_forbidden(g, triple) is None


_H6_SWAP = (3, 2, 1, 0, 5, 4)  # the H6 automorphism exchanging its two halves


def _decorations(g: Graph) -> tuple[int, int]:
    """(simplicial, anti-simplicial) vertex masks: a vertex's neighbours
    form a clique, respectively its non-neighbours a stable set."""
    full = g._full_mask()
    simp = anti = 0
    for i, m in enumerate(g._masks):
        b = 1 << i
        if g._clique(m):
            simp |= b
        if g._stable(full & ~m & ~b):
            anti |= b
    return simp, anti


def _h6_kernel(masks: tuple[int, ...], simp: int, anti: int) -> tuple[int, ...] | None:
    """Bit positions of the first decorated induced H6 (v0 < v3) in
    lexicographic order: v0 and v3 simplicial, v1 or v2 anti-simplicial.

    The positions are walked in order over adjacency masks, like
    ``_kernel``.  Each prune is a necessary condition of a decorated copy:
    v0 and v3 come from ``simp``, v2 from ``anti`` unless v1 is in it, and
    a prefix is dropped once position 3, 4 or 5 has no candidate left
    (``allow3``, ``reach4``, ``reach5``), so the first hit is the first
    decorated embedding of the generic search.
    """
    n = len(masks)
    full = (1 << n) - 1
    c0 = simp
    while c0:
        b0 = c0 & -c0
        c0 ^= b0
        i0 = b0.bit_length() - 1
        n0 = masks[i0]
        off0 = n0 | b0
        allow3 = simp & ~n0 & (full >> (i0 + 1) << (i0 + 1))
        if not allow3:
            continue
        c1 = n0
        while c1:
            b1 = c1 & -c1
            c1 ^= b1
            n1 = masks[b1.bit_length() - 1]
            allow3_1 = allow3 & ~n1
            reach4_1 = n1 & ~off0
            if not (allow3_1 and reach4_1):
                continue
            c2 = reach4_1 if b1 & anti else reach4_1 & anti
            while c2:
                b2 = c2 & -c2
                c2 ^= b2
                n2 = masks[b2.bit_length() - 1]
                c3 = n2 & allow3_1
                reach4 = reach4_1 & ~n2 & ~b2
                reach5 = n2 & ~n0 & ~n1
                if not (c3 and reach4 and reach5):
                    continue
                while c3:
                    b3 = c3 & -c3
                    c3 ^= b3
                    n3 = masks[b3.bit_length() - 1]
                    reach5_3 = reach5 & ~n3 & ~b3
                    if not reach5_3:
                        continue
                    c4 = reach4 & ~n3
                    while c4:
                        b4 = c4 & -c4
                        c4 ^= b4
                        c5 = reach5_3 & masks[b4.bit_length() - 1]
                        if c5:
                            return (
                                i0,
                                b1.bit_length() - 1,
                                b2.bit_length() - 1,
                                b3.bit_length() - 1,
                                b4.bit_length() - 1,
                                (c5 & -c5).bit_length() - 1,
                            )
    return None


def find_special_h6(g: Graph) -> H6Hit | None:
    """Search for an induced H6 whose degree-one vertices are simplicial in g
    and at least one of whose degree-three vertices is anti-simplicial.

    The first qualifying embedding (in enumeration order) is returned,
    normalized so that the anti-simplicial degree-three vertex sits at v2.
    """
    simp, anti = _decorations(g)
    pos = _h6_kernel(g._masks, simp, anti)
    if pos is None:
        return None
    a2, a3 = bool(anti >> pos[1] & 1), bool(anti >> pos[2] & 1)
    if not a2:
        pos = tuple(pos[i] for i in _H6_SWAP)
        a2, a3 = a3, a2
    vs = g.vertices
    return H6Hit(
        embedding=tuple(vs[i] for i in pos),
        v1_simplicial=True,
        v4_simplicial=True,
        v2_anti_simplicial=a2,
        v3_anti_simplicial=a3,
    )


def validate_hit(g: Graph, hit: PatternHit) -> bool:
    """Re-check that a hit's embedding induces exactly its pattern."""
    emb = hit.embedding
    k, _, _, _ = _COMPILED[hit.kind]
    if len(emb) != k or len(set(emb)) != k:
        return False
    edges = set(_PATTERN_EDGES[hit.kind])
    for j in range(k):
        for i in range(j):
            want = (i, j) in edges or (j, i) in edges
            if g.has_edge(emb[i], emb[j]) != want:
                return False
    return True


def validate_h6_hit(g: Graph, hit: H6Hit) -> bool:
    """Re-derive an H6Hit's decorations from the host graph."""
    if not validate_hit(g, PatternHit(kind=PatternKind.H6, embedding=hit.embedding)):
        return False
    e = hit.embedding
    if not (g.is_simplicial(e[0]) and g.is_simplicial(e[3])):
        return False
    a2, a3 = g.is_anti_simplicial(e[1]), g.is_anti_simplicial(e[2])
    return a2 == hit.v2_anti_simplicial and a3 == hit.v3_anti_simplicial and a2
