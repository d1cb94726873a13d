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


# Kinds of a node of the modular decomposition tree.  A single vertex is a
# leaf: a prime node without children.
_PRIME, _PARALLEL, _SERIES = 0, 1, 2


class _Node:
    """A node of a graph's modular decomposition tree: a strong module, as
    a mask on the graph's ranks.  Its kind and its children (the maximal
    strong modules inside it) are found on first use and kept, so each
    module of the tree is split at most once and only where it is read."""

    __slots__ = ("mask", "_kind", "_kids")

    def __init__(self, mask: int, kind: int | None = None, kids: tuple | None = None):
        self.mask, self._kind, self._kids = mask, kind, kids

    def kind(self, g: Graph) -> int:
        """Parallel when G[mask] is disconnected, series when its
        complement is, else prime; the children of a degenerate node, its
        components or anti-components, come with it."""
        if self._kind is None:
            m = self.mask
            if not m & (m - 1):
                self._kind, self._kids = _PRIME, ()
                return _PRIME
            kind, parts = _PARALLEL, g._components_masks(m)
            if len(parts) == 1:
                kind, parts = _SERIES, g._anti_components_masks(m)
            if len(parts) == 1:
                self._kind = _PRIME
            else:
                self._kind, self._kids = kind, tuple(map(_Node, parts))
        return self._kind

    def kids(self, g: Graph) -> tuple["_Node", ...]:
        if self._kids is None:
            self.kind(g)  # a degenerate node's children come with its kind
            if self._kids is None:
                self._kids = tuple(map(_Node, _prime_parts(g._masks, self.mask)))
        return self._kids


def _prime_parts(masks: tuple[int, ...], m: int) -> list[int]:
    """Maximal proper modules of G[m] when that graph is prime.

    Refines m - v, v its least vertex, into P(G[m], v), the maximal modules
    not containing v; each is a child or lies inside M(v), the child
    holding v, which one closure per remaining part grows."""
    v = m & -m
    nv = masks[v.bit_length() - 1]
    parts = [p for p in (nv & m, m & ~nv & ~v) if p]
    pending = m & ~v
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
            grown = _closure(masks, m, mv | part)
            if grown != m:
                mv = grown
    return [mv] + [p for p in parts if not p & mv]


def _prime_representatives(g: Graph, least: int) -> list[int]:
    """Masks of the representative graphs of the prime nodes of g's
    modular decomposition that have at least ``least`` children: each is
    the least vertex of every child of its node.

    Only modules with ``least`` vertices or more are split, since none
    smaller holds such a node."""
    out, stack = [], [_Node(g._full_mask())]
    while stack:
        node = stack.pop()
        kids = node.kids(g)
        if node.kind(g) == _PRIME and len(kids) >= least:
            rep = 0
            for kid in kids:
                rep |= kid.mask & -kid.mask
            out.append(rep)
        stack.extend(kid for kid in kids if kid.mask.bit_count() >= least)
    return out


def _top_two(kids: tuple[_Node, ...]) -> tuple[_Node, _Node]:
    """The two largest children, ties to the lower least bit."""
    a, b = sorted(kids, key=lambda k: (-k.mask.bit_count(), k.mask & -k.mask))[:2]
    return a, b


def _pick(g: Graph, root: _Node) -> tuple[_Node, tuple[_Node, ...]] | None:
    """The pair-closure rule (see find_proper_homogeneous_set) on the
    decomposition tree of G[root.mask]: (host, picked), the node whose
    children the chosen proper homogeneous set unites and those children,
    or None when the root is prime over single vertices.

    Reads the root's children and, below a degenerate root child, that
    child's children; nothing deeper."""
    kids = root.kids(g)
    if root.kind(g) and len(kids) >= 3:
        return root, _top_two(kids)
    best, pick = 0, None
    for c in kids:
        m = c.mask
        if not m & (m - 1):
            continue
        if c.kind(g) and len(c.kids(g)) >= 3:
            picked = _top_two(c.kids(g))
            cand, host = picked[0].mask | picked[1].mask, c
        else:
            picked, cand, host = (c,), m, root
        if _better(cand, best):
            best, pick = cand, (host, picked)
    return pick


def _cut(g: Graph, root: _Node, host: _Node, picked: tuple[_Node, ...]) -> tuple[_Node, _Node, int]:
    """The substitution step along _pick's answer, on trees: (the child's
    tree, the quotient's tree, the marker's bit).

    The child's tree is the picked subtree, or a node of the host's kind
    over the two picked children.  The quotient's tree is the root's with
    the picked children of the host replaced by a leaf at the marker, the
    least vertex of the chosen set."""
    inside = picked[0].mask | picked[-1].mask
    marker = inside & -inside
    kind = host.kind(g)
    child = picked[0] if len(picked) == 1 else _Node(inside, kind, picked)
    kids = tuple(k for k in host.kids(g) if not k.mask & inside) + (_Node(marker, _PRIME, ()),)
    quotient = _Node(host.mask & ~inside | marker, kind, kids)
    if host is not root:
        quotient = _Node(root.mask & ~inside | marker, root.kind(g),
                         tuple(quotient if k is host else k for k in root.kids(g)))
    return child, quotient, marker


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

    _pick states the rule on the decomposition tree, whose nodes are split
    as it reads them: the top two levels only.  The result is validated
    where it is used, by quotient_factor.
    """
    if g.n < 3:
        return None
    pick = _pick(g, _Node(g._full_mask()))
    if pick is None:
        return None
    picked = pick[1]
    return HomogeneousSet(host=g, members=g._set_of(picked[0].mask | picked[-1].mask))


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
    return Graph._from_masks(vs, tuple(masks), pos)


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
