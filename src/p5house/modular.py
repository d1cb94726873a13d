"""Homogeneous sets, primality, and the substitution operation."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, VertexSet

__all__ = [
    "HomogeneousSet",
    "is_homogeneous",
    "find_proper_homogeneous_set",
    "substitute",
    "quotient_factor",
]


@dataclass(frozen=True)
class HomogeneousSet:
    """A proper homogeneous set: no outside vertex is mixed on it, and
    2 <= |members| <= |V| - 1."""

    host: Graph
    members: VertexSet

    def validate(self) -> None:
        g, xs = self.host, self.members
        if not 2 <= len(xs) <= g.n - 1:
            raise ValueError("homogeneous set is not proper")
        if not xs <= g.vertex_set:
            raise ValueError("members outside the host graph")
        if not is_homogeneous(g, xs):
            raise ValueError("some outside vertex is mixed on the set")


def is_homogeneous(g: Graph, xs: VertexSet) -> bool:
    """No vertex outside xs is mixed on it (has both a neighbour and a
    non-neighbour in xs)."""
    m = g._mask_of(xs)
    return all(
        not (hit := adj & m) or hit == m
        for i, adj in enumerate(g._masks)
        if not m >> i & 1
    )


def _closure(masks: tuple[int, ...], full: int, m: int) -> int:
    """Smallest module containing the mask m: every vertex mixed on the
    current set is forced into any homogeneous superset."""
    changed = True
    while changed and m != full:
        changed = False
        rest = full & ~m
        while rest:
            b = rest & -rest
            rest ^= b
            hit = masks[b.bit_length() - 1] & m
            if hit != 0 and hit != m:
                m |= b
                changed = True
    return m


def _better(a: int, b: int) -> bool:
    """a beats b: a is larger, or as large with the smaller sorted tuple,
    which for equal sizes is the set holding the lowest bit of a ^ b."""
    ka, kb = a.bit_count(), b.bit_count()
    return ka > kb or (ka == kb and (a ^ b) & -(a ^ b) & a != 0)


def _split_off(g: Graph, m: int) -> list[int]:
    """The children of the strong module m in the modular decomposition when
    G[m] is disconnected or its complement is, else [m]."""
    parts = g._components_masks(m)
    return parts if len(parts) > 1 else g._anti_components_masks(m)


def _top_two(parts: list[int]) -> int:
    """Union of the two largest disjoint parts, ties to the lower least bit."""
    a, b = sorted(parts, key=lambda p: (-p.bit_count(), p & -p))[:2]
    return a | b


def _prime_root_children(g: Graph) -> list[int]:
    """Maximal proper modules of a graph whose root module is prime.

    Refines V - v into P(G, v), its maximal modules not containing v; each
    is a root child or lies inside M(v), the root child holding v, which one
    closure per remaining part grows."""
    masks, full = g._masks, g._full_mask()
    v = 1
    parts = [p for p in (masks[0], full & ~masks[0] & ~v) if p]
    pending = full & ~v
    while pending:
        y = pending & -pending
        pending ^= y
        adj = masks[y.bit_length() - 1]
        for i, part in enumerate(parts):
            inside = part & adj
            if inside and inside != part and not part & y:
                parts[i] = inside
                parts.append(part ^ inside)
                pending |= part
    mv = v
    for part in parts:
        if not part & mv:
            grown = _closure(masks, full, mv | part)
            if grown != full:
                mv = grown
    return [mv] + [p for p in parts if not p & mv]


def find_proper_homogeneous_set(g: Graph) -> HomogeneousSet | None:
    """Return a proper homogeneous set, or None iff the graph is prime.

    The set returned is the largest proper closure of a vertex pair (the
    smallest module containing the pair), ties broken by the smaller
    sorted member tuple; a large one flattens the resulting trees.  The
    closure of a pair is the module of its lowest common node in the
    modular decomposition tree when that node is prime, and the union of
    the two children holding the pair when it is degenerate (parallel or
    series).  So the winner lies in the top two levels:

    - a degenerate root with k >= 3 children: the union of its two
      largest children;
    - otherwise, the best over the root children C with |C| >= 2 of C
      itself when C is prime or has two children, and of the union of
      C's two largest children when C is degenerate with three or more.

    The result is validated where it is used, by quotient_factor.
    """
    if g.n < 3:
        return None
    full = g._full_mask()
    children = _split_off(g, full)
    if len(children) >= 3:
        best = _top_two(children)
    else:
        if len(children) == 1:
            children = _prime_root_children(g)
        best = 0
        for c in children:
            if c.bit_count() < 2:
                continue
            kids = _split_off(g, c)
            cand = _top_two(kids) if len(kids) >= 3 else c
            if _better(cand, best):
                best = cand
        if not best:
            return None
    return HomogeneousSet(host=g, members=g._set_of(best))


def _lift(m: int, bits: list[int]) -> int:
    """Carry a mask over one graph's ranks to the ranks of another graph,
    where bits[i] is the bit that rank i becomes."""
    out = 0
    while m:
        b = m & -m
        m ^= b
        out |= bits[b.bit_length() - 1]
    return out


def substitute(g1: Graph, g2: Graph, u: int) -> Graph:
    """Substitute g1 for the vertex u of g2.

    The result keeps g1 intact, keeps g2 minus u intact, and wires every
    remaining g2-vertex to all of g1 or none of it according to its
    adjacency with u.  Vertex sets must be disjoint, except that u itself
    may also appear in g1 (the marker convention used by quotient_factor,
    which makes the round trip label-exact).
    """
    if u not in g2:
        raise ValueError(f"substitution site {u} is not a vertex of the outer graph")
    ju = g2._pos[u]
    outer = g2._vs[:ju] + g2._vs[ju + 1 :]
    overlap = [v for v in outer if v in g1]
    if overlap:
        raise ValueError(f"vertex ids {overlap} appear in both graphs")
    vs = tuple(sorted(g1._vs + outer))
    pos = {v: i for i, v in enumerate(vs)}
    bits1 = [1 << pos[v] for v in g1._vs]
    bits2 = [1 << pos[v] if v != u else 0 for v in g2._vs]
    mu = g2._masks[ju]
    around_u = _lift(mu, bits2)
    all1 = sum(bits1)
    masks = [0] * len(vs)
    for b, m in zip(bits1, g1._masks):
        masks[b.bit_length() - 1] = _lift(m, bits1) | around_u
    for j, (b, m) in enumerate(zip(bits2, g2._masks)):
        if b:
            masks[b.bit_length() - 1] = _lift(m, bits2) | (all1 if mu >> j & 1 else 0)
    g = Graph.__new__(Graph)
    g._vs, g._pos, g._masks, g._hash = vs, pos, tuple(masks), None
    return g


def quotient_factor(g: Graph, h: HomogeneousSet) -> tuple[Graph, Graph, int]:
    """Split g along a proper homogeneous set.

    Returns (child, quotient, marker): child is the subgraph induced on the
    members; quotient is g with the members collapsed onto the least member
    id; substitute(child, quotient, marker) reproduces g exactly.  Every
    outside vertex sees the marker as it sees the whole set, so the
    quotient is the subgraph induced on the outside and the marker.
    """
    if h.host != g:
        raise ValueError("homogeneous set belongs to a different graph")
    h.validate()
    inside = g._mask_of(h.members)
    marker_bit = inside & -inside
    child = g._induced(inside)
    quotient = g._induced(g._full_mask() & ~inside | marker_bit)
    return child, quotient, g.vertices[marker_bit.bit_length() - 1]
