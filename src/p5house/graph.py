"""Immutable simple graphs over integer vertex ids.

Everything downstream (pattern search, decomposition, recomposition checks)
leans on two properties of this class: operations never mutate, and derived
graphs keep the vertex ids of their host.  A round-tripped graph can then be
compared label-for-label, with no isomorphism test in sight.

Adjacency is stored as one bitmask per vertex (vertices are ranked by id), so
connectivity and completeness checks used in the hot paths are integer ops.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

VertexSet = frozenset[int]

__all__ = [
    "Graph",
    "MixedStatus",
    "WitnessMode",
    "SplitCert",
    "VertexSet",
    "split_certificate",
    "find_mixed_witness",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "empty_graph",
]


class MixedStatus(enum.Enum):
    COMPLETE = "complete"
    ANTI_COMPLETE = "anti-complete"
    MIXED = "mixed"


class WitnessMode(enum.Enum):
    CONNECTED_EDGE = "connected-edge"
    ANTI_CONNECTED_NON_EDGE = "anti-connected-non-edge"


@dataclass(frozen=True)
class SplitCert:
    """Witness that a graph is split: a clique and a stable set covering it."""

    clique: VertexSet
    stable: VertexSet


class Graph:
    """A finite, simple, undirected graph with stable integer vertex ids."""

    __slots__ = ("_vs", "_pos", "_masks", "_hash")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        vs = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(vs)}
        masks = [0] * len(vs)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            try:
                i, j = pos[u], pos[v]
            except KeyError as exc:
                raise ValueError(f"edge ({u}, {v}) uses unknown vertex {exc.args[0]}") from None
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self._vs = tuple(vs)
        self._pos = pos
        self._masks = tuple(masks)
        self._hash: int | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._vs)

    @property
    def vertices(self) -> tuple[int, ...]:
        """Vertex ids in ascending order."""
        return self._vs

    @property
    def vertex_set(self) -> VertexSet:
        return frozenset(self._vs)

    def __contains__(self, v: int) -> bool:
        return v in self._pos

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._masks[self._pos[u]] >> self._pos[v] & 1)

    def neighbors(self, v: int) -> VertexSet:
        return self._set_of(self._masks[self._pos[v]])

    def degree(self, v: int) -> int:
        return self._masks[self._pos[v]].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for i, u in enumerate(self._vs):
            m = self._masks[i] >> (i + 1) << (i + 1)
            while m:
                b = m & -m
                m ^= b
                out.append((u, self._vs[b.bit_length() - 1]))
        return out

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._masks) // 2

    # -- mask plumbing (ids <-> bit positions) -----------------------------

    def _mask_of(self, xs: Iterable[int]) -> int:
        pos = self._pos
        m = 0
        for v in xs:
            try:
                m |= 1 << pos[v]
            except KeyError:
                raise ValueError(f"vertex {v} is not in this graph") from None
        return m

    def _set_of(self, mask: int) -> VertexSet:
        vs = self._vs
        out = []
        while mask:
            b = mask & -mask
            mask ^= b
            out.append(vs[b.bit_length() - 1])
        return frozenset(out)

    def _adj_mask(self, v: int) -> int:
        return self._masks[self._pos[v]]

    def _full_mask(self) -> int:
        return (1 << len(self._vs)) - 1

    def _components_masks(self, mask: int, flip: int = 0) -> list[int]:
        """Connected components of the subgraph induced on ``mask``; with
        ``flip`` -1, of the complement's (each adjacency mask read as
        ``masks[i] ^ flip``)."""
        masks = self._masks
        comps = []
        rest = mask
        while rest:
            start = rest & -rest
            comp = start
            frontier = start
            while frontier:
                grow = 0
                while frontier:
                    b = frontier & -frontier
                    frontier ^= b
                    grow |= masks[b.bit_length() - 1] ^ flip
                frontier = grow & rest & ~comp
                comp |= frontier
            comps.append(comp)
            rest &= ~comp
        return comps

    def _anti_components_masks(self, mask: int) -> list[int]:
        return self._components_masks(mask, -1)

    def _clique(self, m: int) -> bool:
        return self._complete(m, m)

    def _stable(self, m: int) -> bool:
        return self._anti_complete(m, m)

    def _complete(self, mx: int, my: int) -> bool:
        """Every mx-my pair over distinct vertices is an edge."""
        masks = self._masks
        while mx:
            b = mx & -mx
            mx ^= b
            if my & ~b & ~masks[b.bit_length() - 1]:
                return False
        return True

    def _anti_complete(self, mx: int, my: int) -> bool:
        masks = self._masks
        while mx:
            b = mx & -mx
            mx ^= b
            if my & masks[b.bit_length() - 1]:
                return False
        return True

    def _attach(self, m: int) -> tuple[int, int]:
        """(vertices with a neighbour in m, vertices adjacent to all of m).

        Outside m these read off every vertex's mixed status at once: a
        vertex is complete to m in the second mask, anti-complete outside
        the first, and mixed in the first but not the second."""
        masks = self._masks
        touch, common = 0, self._full_mask()
        while m:
            b = m & -m
            m ^= b
            nb = masks[b.bit_length() - 1]
            touch |= nb
            common &= nb
        return touch, common

    # -- derived graphs ----------------------------------------------------

    @staticmethod
    def _from_masks(
        vs: tuple[int, ...], masks: tuple[int, ...], pos: dict[int, int] | None = None
    ) -> "Graph":
        """The graph on the ascending ids ``vs`` whose i-th vertex has the
        adjacency mask ``masks[i]``, both taken as they are (``pos``, the
        rank of each id, too when given)."""
        g = Graph.__new__(Graph)
        g._vs = vs
        g._pos = {v: i for i, v in enumerate(vs)} if pos is None else pos
        g._masks = masks
        g._hash = None
        return g

    def induced(self, xs: Iterable[int]) -> "Graph":
        """Subgraph induced on ``xs``; ids are kept as they are."""
        return self._induced(self._mask_of(xs))

    def _induced(self, keep: int, marker: int | None = None, attach: int = 0) -> "Graph":
        """Subgraph induced on the mask ``keep``; with ``marker`` (the id of
        no kept vertex) one more vertex, sorted into place among the kept
        ids and adjacent to the vertices of ``attach``, which must lie
        inside ``keep``."""
        rank = [0] * len(self._vs)
        vs = []
        rest = keep
        while rest:
            b = rest & -rest
            rest ^= b
            i = b.bit_length() - 1
            rank[i] = 1 << len(vs)
            vs.append(self._vs[i])
        k = len(vs)
        masks = []
        around = 0
        rest = keep
        while rest:
            b = rest & -rest
            rest ^= b
            m = self._masks[b.bit_length() - 1] & keep
            out = 0
            while m:
                c = m & -m
                m ^= c
                out |= rank[c.bit_length() - 1]
            if attach & b:
                out |= 1 << k
                around |= 1 << len(masks)
            masks.append(out)
        if marker is not None:
            masks.append(around)
            vs.append(marker)
            if k and marker < vs[k - 1]:
                # sort the marker into place: ranks at..k-1 move up by one
                at = bisect_left(vs, marker, 0, k)
                low, high = (1 << at) - 1, (1 << k) - 1
                masks = [m & low | (m & high & ~low) << 1 | (m >> k & 1) << at for m in masks]
                masks.insert(at, masks.pop())
                vs.insert(at, vs.pop())
        return Graph._from_masks(tuple(vs), tuple(masks))

    def minus(self, xs: Iterable[int]) -> "Graph":
        drop = set(xs)
        return self.induced(v for v in self._vs if v not in drop)

    def complement(self) -> "Graph":
        full = self._full_mask()
        masks = tuple((full & ~m & ~(1 << i)) for i, m in enumerate(self._masks))
        return Graph._from_masks(self._vs, masks, self._pos)

    # -- connectivity ------------------------------------------------------

    def components(self) -> list[VertexSet]:
        """Vertex sets of components, ordered by smallest member id."""
        return [self._set_of(m) for m in self._components_masks(self._full_mask())]

    def anti_components(self) -> list[VertexSet]:
        """Vertex sets of components of the complement, same ordering."""
        return [self._set_of(m) for m in self._anti_components_masks(self._full_mask())]

    def is_connected(self) -> bool:
        return len(self._components_masks(self._full_mask())) == 1

    def connected_on(self, xs: Iterable[int]) -> bool:
        return len(self._components_masks(self._mask_of(xs))) == 1

    def anti_connected_on(self, xs: Iterable[int]) -> bool:
        return len(self._anti_components_masks(self._mask_of(xs))) == 1

    # -- completeness and mixing -------------------------------------------

    def is_clique(self, xs: Iterable[int]) -> bool:
        return self._clique(self._mask_of(xs))

    def is_stable(self, xs: Iterable[int]) -> bool:
        return self._stable(self._mask_of(xs))

    def mixed_status(self, v: int, xs: Iterable[int]) -> MixedStatus:
        """Classify v against the nonempty set xs (v must lie outside xs)."""
        m = self._mask_of(xs)
        if not m:
            raise ValueError("mixed_status against an empty set")
        if m >> self._pos[v] & 1:
            raise ValueError(f"vertex {v} belongs to the probed set")
        hit = self._adj_mask(v) & m
        if hit == m:
            return MixedStatus.COMPLETE
        if hit == 0:
            return MixedStatus.ANTI_COMPLETE
        return MixedStatus.MIXED

    def is_simplicial(self, v: int) -> bool:
        """True iff the neighborhood of v is a clique."""
        return self._clique(self._adj_mask(v))

    def is_anti_simplicial(self, v: int) -> bool:
        """True iff the non-neighbors of v form a stable set."""
        return self._stable(self._full_mask() & ~self._adj_mask(v) & ~(1 << self._pos[v]))

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vs == other._vs and self._masks == other._masks

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._vs, self._masks))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# -- small builders ----------------------------------------------------------


def path_graph(ids: Iterable[int]) -> Graph:
    seq = list(ids)
    return Graph(seq, list(zip(seq, seq[1:])))


def cycle_graph(ids: Iterable[int]) -> Graph:
    seq = list(ids)
    if len(seq) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(seq, list(zip(seq, seq[1:])) + [(seq[-1], seq[0])])


def complete_graph(ids: Iterable[int]) -> Graph:
    seq = list(ids)
    return Graph(seq, [(u, v) for i, u in enumerate(seq) for v in seq[i + 1 :]])


def empty_graph(ids: Iterable[int]) -> Graph:
    return Graph(ids)


# -- split graph recognition ---------------------------------------------------


def split_certificate(g: Graph) -> SplitCert | None:
    """Return a clique/stable bipartition of V, or None when no split exists.

    Uses the degree-sequence test: with degrees d1 >= ... >= dn and m the
    largest index with d_m >= m - 1, the graph is split iff
    sum(d_i, i <= m) == m(m-1) + sum(d_i, i > m), in which case any m
    vertices carrying the top m degrees form the clique and the rest a
    stable set (Hammer and Simeone).  Both sides may be empty.
    """
    return _split_cert(g, g._full_mask())


def _split_cert(g: Graph, keep: int) -> SplitCert | None:
    """split_certificate of the subgraph induced on the mask ``keep``, read
    off g's masks: the clique is the m vertices of highest degree, ties to
    the lower id (Hammer and Simeone's test, as above)."""
    masks = g._masks
    bits, degs = [], []
    rest = keep
    while rest:
        b = rest & -rest
        rest ^= b
        bits.append(b)
        degs.append((masks[b.bit_length() - 1] & keep).bit_count())
    top = sorted(degs, reverse=True)
    m = 0
    for i, d in enumerate(top):
        if d < i:
            break
        m = i + 1
    if sum(top[:m]) != m * (m - 1) + sum(top[m:]):
        return None
    # every degree above the m-th, then the lowest ids of its ties
    t = top[m - 1] if m else 0
    clique = sum(b for b, d in zip(bits, degs) if d > t)
    clique += sum([b for b, d in zip(bits, degs) if d == t][: top[:m].count(t)])
    return SplitCert(clique=g._set_of(clique), stable=g._set_of(keep & ~clique))


# -- mixed-vertex witnesses ------------------------------------------------------


def find_mixed_witness(
    g: Graph, v: int, xs: Iterable[int], mode: WitnessMode
) -> tuple[int, int]:
    """Return (x1, x2) with x1 a neighbor of v and x2 a non-neighbor, where
    x1x2 is an edge (CONNECTED_EDGE) or a non-edge (ANTI_CONNECTED_NON_EDGE).

    Requires v mixed on xs and the induced subgraph on xs connected
    (respectively anti-connected); under those preconditions such a pair
    always exists.  The lexicographically least pair is returned.
    """
    return _mixed_witness(g, v, g._mask_of(xs), mode)


def _mixed_witness(g: Graph, v: int, m: int, mode: WitnessMode) -> tuple[int, int]:
    """find_mixed_witness on the mask m of the set, with the same checks."""
    if not m:
        raise ValueError("mixed_status against an empty set")
    vb = 1 << g._pos[v]
    if m & vb:
        raise ValueError(f"vertex {v} belongs to the probed set")
    masks = g._masks
    nb = masks[vb.bit_length() - 1] & m
    if not nb or nb == m:
        raise ValueError(f"vertex {v} is not mixed on the given set")
    if mode is WitnessMode.CONNECTED_EDGE:
        if len(g._components_masks(m)) != 1:
            raise ValueError("witness requested on a disconnected set")
        want_edge = True
    else:
        if len(g._anti_components_masks(m)) != 1:
            raise ValueError("witness requested on a non-anti-connected set")
        want_edge = False
    nnb = m & ~nb
    vs = g._vs
    while nb:
        b = nb & -nb
        nb ^= b
        adj = masks[b.bit_length() - 1]
        far = nnb & adj if want_edge else nnb & ~adj
        if far:
            return (vs[b.bit_length() - 1], vs[(far & -far).bit_length() - 1])
    raise RuntimeError("no witness pair found despite preconditions")
