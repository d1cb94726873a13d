"""Homogeneous sets, primality, and the substitution operation."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, VertexSet, _lift

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
    not containing v (Ehrenfeucht, Gabow, McConnell and Sullivan, J.
    Algorithms 16, 1994), from its split into v's neighbours and
    non-neighbours: a part on which some vertex is mixed, the union of its
    vertices' masks less their intersection, is split by that vertex's
    neighbourhood, which every module inside the part respects.

    Each part is a child or lies inside M(v), the child holding v.  G[m]
    being prime, every proper module lies inside one child, so the closure
    of mv, the part of M(v) found so far, and a part P is proper exactly
    when P lies inside M(v); once it takes in a vertex of a part already
    found outside M(v), it is all of m and stops there.  The closure is
    anchored at v: every vertex left out of a module that holds v agrees
    with v on it, so adding a vertex b forces in exactly the vertices not
    yet taken that see b and v differently, (masks[v] ^ masks[b]) & m."""
    v = m & -m
    nv = masks[v.bit_length() - 1]
    parts, work = [], [p for p in (nv & m, m & ~nv & ~v) if p]
    while work:
        part = work.pop()
        some, every, rest = 0, -1, part
        while rest:
            b = rest & -rest
            rest ^= b
            adj = masks[b.bit_length() - 1]
            some |= adj
            every &= adj
        mixed = some & ~every & m & ~part
        if mixed:
            inside = part & masks[(mixed & -mixed).bit_length() - 1]
            work += (inside, part ^ inside)
        else:
            parts.append(part)
    mv, out = v, 0
    for part in parts:
        if part & mv:
            continue
        todo, grown = part, part | mv
        while todo:
            b = todo & -todo
            todo ^= b
            new = (nv ^ masks[b.bit_length() - 1]) & m & ~grown
            grown |= new
            if new & out or grown == m:
                break
            todo |= new
        if grown & out or grown == m:
            out |= part
        else:
            mv = grown
    return [mv] + [p for p in parts if not p & mv]


def _prime_representatives(g: Graph, root: _Node) -> list[int]:
    """Masks of the representative graphs of the prime nodes of g's
    modular decomposition that have five children or more: each is the
    least vertex of every child of its node.

    P5, the house and C5 have five vertices, so only such nodes are read,
    and only modules of five vertices or more are split, since none
    smaller holds one.  ``root`` is g's decomposition tree, which keeps the
    modules split here for its other readers."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        kids = node.kids(g)
        if node.kind(g) == _PRIME and len(kids) >= 5:
            rep = 0
            for kid in kids:
                rep |= kid.mask & -kid.mask
            out.append(rep)
        stack.extend(kid for kid in kids if kid.mask.bit_count() >= 5)
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


def _compose(subs: list, frontier: list) -> tuple[list, Graph | None]:
    """Compose a run of substitutions: (checks, graph).

    ``subs`` lists the run's substitutions in preorder, each as (marker,
    quotient, child), where a part is the index of a frontier graph, or
    minus the index of a substitution; the first is the run's root.
    ``frontier`` holds, in preorder, the graphs the run takes as given, and
    anything that is not a Graph for one that could not be built.  The
    graph of a substitution is substitute(child, quotient, marker), but no
    intermediate graph is built: the frontier's vertex ids are ranked once,
    and every graph of the run is a vertex mask over those ranks.

    Each substitution is checked on vertex sets.  ``checks`` holds
    (substitution, overlap, quotient set, child set) for every substitution
    none of whose descendants failed, children before parents; overlap is
    _overlap's answer, a failure unless empty.  ``graph`` is the run's
    graph, None after any failure.

    A vertex of a frontier graph stands for the final vertices it expands
    to: itself, unless an enclosing substitution consumes it as its marker,
    and then the expansion of that substitution's child (which may hold the
    marker of a substitution further up).  A final vertex is adjacent to
    the expansions of its frontier neighbours and to all that the markers
    of the substitutions whose child holds it are adjacent to; so a
    marker's own mask is the outside mask of its substitution's child.

    A run of one substitution, the commonest, is composed in one pass over
    its two graphs.  A longer run takes two: the sets, from the last
    substitution back, give each child's expansion; then the masks are
    built from the root down, a quotient's frontier before its child's.
    The one-pass shortcut pays for itself: without it, bench/run.py's
    census6 read recompose_ms 32% and verify_ms 12-17% higher, worse in
    every pair but one (two series of four 10 s pairs, seeds 2601-2604,
    2 vCPUs, Python 3.11.7).
    """
    if len(subs) == 1:
        q, c = frontier
        if type(q) is not Graph or type(c) is not Graph:
            return [], None
        ids = sorted({*q._vs, *c._vs})
        rank = {v: i for i, v in enumerate(ids)}
        qbits = [1 << rank[x] for x in q._vs]
        cbits = [1 << rank[x] for x in c._vs]
        qset, cset = sum(qbits), sum(cbits)
        b = rank.get(subs[0][0])
        b = 0 if b is None else 1 << b
        if not qset & b or qset & cset & ~b:
            return [(0, _overlap(qset, cset, b, ids), qset, cset)], None
        checks = [(0, (), qset, cset)]
        masks = [0] * len(ids)
        lift = qbits.copy()
        lift[qbits.index(b)] = cset
        outside = 0
        for x, out in zip(qbits, _lift(q._masks, lift)):
            if x == b:
                outside = out
            else:
                masks[x.bit_length() - 1] = out
        for x, out in zip(cbits, _lift(c._masks, cbits)):
            masks[x.bit_length() - 1] = out | outside
        g = Graph._from_masks(tuple(ids), tuple(masks), rank)
        kept = qset ^ b | cset
        return checks, g if kept == (1 << len(ids)) - 1 else g._induced(kept)

    ids = set()
    for g in frontier:
        if type(g) is Graph:
            ids.update(g._vs)
    ids = sorted(ids)
    rank = {v: i for i, v in enumerate(ids)}
    parts = []  # per frontier graph: its masks, its vertices' bits and their union
    for g in frontier:
        if type(g) is not Graph:
            parts.append((None, None, None))
        else:
            bits = [1 << rank[x] for x in g._vs]
            parts.append((g._masks, bits, sum(bits)))
    checks = []
    sets = [None] * len(subs)  # per substitution: the vertex set of its graph
    for i in range(len(subs) - 1, -1, -1):
        s, j, c = subs[i]
        q = parts[j][2] if j >= 0 else sets[-j]
        c = parts[c][2] if c >= 0 else sets[-c]
        if q is None or c is None:
            continue
        b = rank.get(s)
        b = 0 if b is None else 1 << b
        overlap = _overlap(q, c, b, ids)
        checks.append((i, overlap, q, c))
        if overlap == ():
            sets[i] = q ^ b | c
    if sets[0] is None:
        return checks, None

    masks = [0] * len(ids)
    consumed = {}  # marker bit -> [its expansion, its mask, ...] of the innermost consumer
    k = outside = 0  # the marker bits consumed around, the inherited outside mask
    reading = []  # the substitutions whose quotient is being read, innermost last
    i = 0
    while True:
        while i >= 0:  # open substitution i and go down its quotients
            s, j, c = subs[i]
            b = 1 << rank[s]
            m = parts[c][2] if c >= 0 else sets[-c]
            hit = m & k
            if hit:
                m ^= hit
                while hit:
                    h = hit & -hit
                    hit ^= h
                    m |= consumed[h][0]
            consumed[b] = entry = [m, 0, b, consumed.get(b), k, c]
            reading.append(entry)
            k |= b
            i = -j if j < 0 else ~j
        rows, bits, hit = parts[~i]
        hit &= k  # the graph's vertices that markers around it consume
        lift = bits
        if hit:
            lift = bits.copy()
            h = hit
            while h:
                b = h & -h
                h ^= b
                lift[bits.index(b)] = consumed[b][0]
        for b, out in zip(bits, _lift(rows, lift)):
            out |= outside
            if b & hit:
                consumed[b][1] = out
            else:
                masks[b.bit_length() - 1] = out
        if not reading:
            break
        # the innermost quotient being read is done: go on to its child
        _, outside, b, shadowed, k, c = reading.pop()
        if shadowed is None:
            del consumed[b]
        else:
            consumed[b] = shadowed
        i = -c if c < 0 else ~c
    g = Graph._from_masks(tuple(ids), tuple(masks), rank)
    return checks, g if sets[0] == (1 << len(ids)) - 1 else g._induced(sets[0])


def _overlap(q: int, c: int, b: int, ids: list[int]) -> list[int] | tuple | None:
    """One substitution checked on the vertex sets q of its quotient and c
    of its child, b being its marker's bit: None when the marker is missing
    from the quotient, else the ids the rest of the quotient shares with
    the child, () when it shares none."""
    if not q & b:
        return None
    both = q & c & ~b
    out = []
    while both:
        h = both & -both
        both ^= h
        out.append(ids[h.bit_length() - 1])
    return out or ()


def _problem(u: int, overlap: list[int] | None) -> str | None:
    """substitute's complaint about one substitution of a run, if any."""
    if overlap is None:
        return f"substitution site {u} is not a vertex of the outer graph"
    if overlap:
        return f"vertex ids {overlap} appear in both graphs"
    return None


def substitute(g1: Graph, g2: Graph, u: int) -> Graph:
    """Substitute g1 for the vertex u of g2: the run of one substitution.

    The result keeps g1 intact, keeps g2 minus u intact, and wires every
    remaining g2-vertex to all of g1 or none of it according to its
    adjacency with u.  Vertex sets must be disjoint, except that u itself
    may also appear in g1 (the marker convention used by quotient_factor,
    which makes the round trip label-exact).  recompose and verify_tree
    compose whole runs of substitutions with the same kernel (_compose).
    """
    checks, g = _compose([(u, 0, 1)], [g2, g1])
    problem = _problem(u, checks[0][1])
    if problem:
        raise ValueError(problem)
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
