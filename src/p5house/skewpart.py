"""Skew-partitions and their six-tuple decompositions.

A skew-partition of G is a pair (X, Y) covering the vertex set with G[X]
disconnected and G[Y] not anti-connected.  For prime, non-split members of
the class, a decorated H6 (found in the graph or its complement) yields such
a partition constructively; maximizing it and classifying the resulting
six-tuple produces the witness the divide construction consumes.

Each obligation is checked once: the public functions check their input,
then run private bodies on masks, which the decomposer chains without
re-checking what the stage before has just built.  Between the private
bodies a six-tuple is only its masks (_SixMasks), taken once, for
classification; its vertex sets (_SixMasks.sets) are made only where a
SkewDecomposition is handed out.  The lemma suite
(lemma_violations, with usability) holds on every six-tuple of a prime
member, so the decomposer leaves it to the tests.

The component side is the only one stated: a six-tuple of G is on the
anti-component side exactly when the six-tuple of G's complement under the
swapped partition (_complement_side) is on the component side.  So the
classification checks the component-side conditions, and the lemma suite
the component-side lemmas, on both six-tuples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graph import Graph, VertexSet, WitnessMode, _mixed_witness, split_certificate
from .oracle import H6Hit, validate_h6_hit

__all__ = [
    "SkewPartition",
    "SkewDecomposition",
    "AttachmentClasses",
    "UsableCase",
    "CaseTag",
    "Side",
    "UnclassifiableVertex",
    "ConstructionFailed",
    "NeitherCaseHolds",
    "attachment_classes",
    "skew_from_special_h6",
    "maximize_skew",
    "decompose_skew",
    "classify_usable",
    "lemma_violations",
]


class UnclassifiableVertex(Exception):
    """A vertex attaches to the probe path with a signature the class forbids."""

    def __init__(self, vertex: int, signature: tuple[int, int, int, int]):
        self.vertex = vertex
        self.signature = signature
        super().__init__(f"vertex {vertex} has forbidden attachment signature {signature}")


class ConstructionFailed(Exception):
    """A structure the construction relies on is absent from the input."""


class NeitherCaseHolds(Exception):
    """The decomposition satisfies neither the component-side nor the
    anti-component-side condition set."""


class Side(enum.Enum):
    IN_G = "in-graph"
    IN_COMPLEMENT = "in-complement"


class CaseTag(enum.Enum):
    CASE3 = "components-side"
    CASE4 = "anti-components-side"


@dataclass(frozen=True)
class SkewPartition:
    x: VertexSet
    y: VertexSet

    def validate(self, g: Graph) -> None:
        self._masks(g)

    def _masks(self, g: Graph) -> tuple[int, int]:
        """Validate on g and return the masks of X and Y."""
        try:
            x, y = g._mask_of(self.x), g._mask_of(self.y)
        except ValueError:
            raise ValueError("skew-partition must partition the vertex set") from None
        _check_skew(g, x, y)
        return x, y


def _check_skew(g: Graph, x: int, y: int) -> None:
    """The skew-partition conditions on the masks of X and Y."""
    if not x or not y:
        raise ValueError("skew-partition sides must be nonempty")
    if x & y or x | y != g._full_mask():
        raise ValueError("skew-partition must partition the vertex set")
    if len(g._components_masks(x)) == 1:
        raise ValueError("X side must induce a disconnected subgraph")
    if len(g._anti_components_masks(y)) == 1:
        raise ValueError("Y side must induce a non-anti-connected subgraph")


@dataclass(frozen=True)
class SkewDecomposition:
    """The six-tuple attached to a skew-partition.

    x_parts / y_parts are the vertex sets of the non-trivial components of
    G[X] and non-trivial anti-components of G[Y]; s and k collect the
    leftover trivial ones (a stable set and a clique); s_mixed[j] holds the
    s-vertices mixed on y_parts[j], k_mixed[i] the k-vertices mixed on
    x_parts[i].
    """

    x_parts: tuple[VertexSet, ...]
    y_parts: tuple[VertexSet, ...]
    s: VertexSet
    k: VertexSet
    s_mixed: tuple[VertexSet, ...]
    k_mixed: tuple[VertexSet, ...]

    @property
    def x(self) -> VertexSet:
        return frozenset().union(*self.x_parts, self.s)

    @property
    def y(self) -> VertexSet:
        return frozenset().union(*self.y_parts, self.k)


@dataclass(frozen=True)
class AttachmentClasses:
    """How vertices outside an induced three-edge path a-b-c-d attach to it.

    clone_x holds the clones of path vertex x; a_set is anti-complete to the
    path, b_set complete to {b, c} and anti-complete to {a, d}, c_set
    complete to all four.  Together with the path these cover the graph.
    """

    path: tuple[int, int, int, int]
    clone_a: VertexSet
    clone_b: VertexSet
    clone_c: VertexSet
    clone_d: VertexSet
    a_set: VertexSet
    b_set: VertexSet
    c_set: VertexSet


@dataclass(frozen=True)
class UsableCase:
    tag: CaseTag
    decomposition: SkewDecomposition
    special_index: int


# Signature of a vertex against (a, b, c, d) -> its class.  The five
# signatures missing from this table cannot occur in a class member.
_SIGNATURES = {
    (0, 0, 0, 0): "a_set",
    (0, 1, 0, 0): "clone_a",
    (1, 1, 0, 0): "clone_a",
    (1, 0, 1, 0): "clone_b",
    (1, 1, 1, 0): "clone_b",
    (0, 1, 0, 1): "clone_c",
    (0, 1, 1, 1): "clone_c",
    (0, 0, 1, 0): "clone_d",
    (0, 0, 1, 1): "clone_d",
    (0, 1, 1, 0): "b_set",
    (1, 1, 1, 1): "c_set",
}
_CLASS_NAMES = ("clone_a", "clone_b", "clone_c", "clone_d", "a_set", "b_set", "c_set")


def attachment_classes(g: Graph, a: int, b: int, c: int, d: int) -> AttachmentClasses:
    """Partition the rest of the graph by attachment to the induced path
    a-b-c-d.  Raises UnclassifiableVertex when a vertex carries one of the
    signatures that cannot occur in a class member; callers use that as a
    cheap membership refutation."""
    classes = _attachment_masks(g, (a, b, c, d))
    return AttachmentClasses(
        path=(a, b, c, d), **{name: g._set_of(m) for name, m in classes.items()}
    )


def _attachment_masks(g: Graph, path: tuple[int, int, int, int]) -> dict[str, int]:
    """attachment_classes on masks: class name -> mask."""
    a, b, c, d = path
    if len(set(path)) != 4:
        raise ValueError("path vertices must be distinct")
    want = {(a, b): True, (b, c): True, (c, d): True, (a, c): False, (a, d): False, (b, d): False}
    for (u, v), adj in want.items():
        if g.has_edge(u, v) != adj:
            raise ValueError(f"{a}-{b}-{c}-{d} is not an induced three-edge path")
    nbrs = [g._adj_mask(p) for p in path]
    rest = g._full_mask() & ~g._mask_of(path)
    classes = dict.fromkeys(_CLASS_NAMES, 0)
    for sig, name in _SIGNATURES.items():
        m = rest
        for bit, nb in zip(sig, nbrs):
            m &= nb if bit else ~nb
        classes[name] |= m
        rest &= ~m
    if rest:
        i = (rest & -rest).bit_length() - 1
        raise UnclassifiableVertex(g.vertices[i], tuple(nb >> i & 1 for nb in nbrs))
    return classes


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ConstructionFailed(what)


def _construct_on(work: Graph, hit: H6Hit) -> tuple[int, int]:
    """Core construction: ``hit``, a valid decorated H6 of complement(work),
    gives the masks of a skew-partition (X, Y) of ``work`` whose X side has
    at least two non-trivial components."""
    e = hit.embedding
    # Translate the decorated H6 of the complement into the probe structure
    # inside the working graph: an induced path a-b-c-d, clones e[5] of b
    # and e[4] of c, a simplicial, and b, c anti-simplicial; the hit's
    # edges and decorations give all of it once complemented.
    a, b, c, d = e[1], e[3], e[0], e[2]
    try:
        ac = _attachment_masks(work, (a, b, c, d))
    except (ValueError, UnclassifiableVertex) as exc:
        raise ConstructionFailed(f"attachment analysis failed: {exc}") from exc
    bit = {v: 1 << work._pos[v] for v in (a, b, c, d)}
    clone_b, clone_c = ac["clone_b"], ac["clone_c"]
    _require(work._clique(ac["c_set"] | clone_b | bit[b]),
             "neighborhood of the simplicial path start is not a clique")
    _require(work._stable(ac["a_set"] | ac["clone_a"] | ac["clone_d"] | bit[a] | bit[d]),
             "path-end side is not a stable set")
    # b1: the b-clone with fewest neighbors among the c-clones (ties: least
    # id); N: those neighbors, necessarily complete to the other b-clones.
    masks = work._masks
    b1, fewest = 0, -1
    rest = clone_b
    while rest:
        v = rest & -rest
        rest ^= v
        count = (masks[v.bit_length() - 1] & clone_c).bit_count()
        if fewest < 0 or count < fewest:
            b1, fewest = v, count
    n_set = masks[b1.bit_length() - 1] & clone_c
    _require(work._complete(n_set, clone_b & ~b1),
             "minimal clone neighborhood is not complete to the clone class")
    y = ac["c_set"] | n_set | (clone_b & ~b1) | bit[b] | bit[c]
    x = work._full_mask() & ~y
    _require(bool(clone_c & ~n_set), "no clone of c escapes the minimal neighborhood")
    try:
        _check_skew(work, x, y)
    except ValueError as exc:
        raise ConstructionFailed(f"constructed partition invalid: {exc}") from exc
    nontrivial = [m for m in work._components_masks(x) if m.bit_count() >= 2]
    _require(len(nontrivial) >= 2, "X side lacks two non-trivial components")
    return x, y


def skew_from_special_h6(g: Graph, hit: H6Hit, side: Side) -> SkewPartition:
    """Build a skew-partition of g from a decorated H6 hit.

    side=IN_COMPLEMENT: the hit lives in complement(g); the construction
    runs directly on g and the returned partition has at least two
    non-trivial components on its X side.

    side=IN_G: the hit lives in g itself; the same construction runs on
    complement(g) (the graph whose complement holds the hit) and the sides
    are swapped on the way back, so the returned partition of g has at
    least two non-trivial anti-components on its Y side.

    The graph must be prime and not split; splitness is rejected here,
    primality is the caller's obligation.  A stale hit raises
    ConstructionFailed.
    """
    if split_certificate(g) is not None:
        raise ValueError("split graphs admit no such skew-partition")
    if side is Side.IN_COMPLEMENT:
        host, work = g.complement(), g
    else:
        host, work = g, g.complement()
    _require(validate_h6_hit(host, hit), "stale or invalid decorated H6 hit")
    x, y = _construct_on(work, hit)
    if side is Side.IN_G:
        x, y = y, x
    return SkewPartition(x=g._set_of(x), y=g._set_of(y))


def maximize_skew(g: Graph, sp: SkewPartition) -> SkewPartition:
    """Grow the X side greedily until no single vertex can move over.

    Candidates are scanned in ascending id; a vertex moves from Y to X iff
    the result is still a skew-partition whose X side keeps at least two
    non-trivial components.  The scan restarts after each accepted move.
    """
    x_mask, y_mask = sp._masks(g)
    if sum(1 for m in g._components_masks(x_mask) if m.bit_count() >= 2) < 2:
        raise ValueError("X side must already have two non-trivial components")
    x_mask, y_mask = _maximize(g, x_mask, y_mask)
    return SkewPartition(x=g._set_of(x_mask), y=g._set_of(y_mask))


def _maximize(g: Graph, x_mask: int, y_mask: int) -> tuple[int, int]:
    """maximize_skew on masks; each move keeps the partition skew."""
    moved = True
    while moved:
        moved = False
        cand = y_mask
        while cand:
            b = cand & -cand
            cand ^= b
            ny = y_mask & ~b
            if ny == 0 or len(g._anti_components_masks(ny)) == 1:
                continue
            nx = x_mask | b
            if sum(1 for m in g._components_masks(nx) if m.bit_count() >= 2) < 2:
                continue
            x_mask, y_mask = nx, ny
            moved = True
            break
    return x_mask, y_mask


def decompose_skew(g: Graph, sp: SkewPartition) -> SkewDecomposition:
    """Compute the six-tuple of a skew-partition, literally by definition."""
    return _decompose(g, *sp._masks(g)).sets(g)


def _decompose(g: Graph, x: int, y: int) -> _SixMasks:
    """decompose_skew on the masks of a skew-partition of g: the six-tuple's
    masks."""
    x_parts = [m for m in g._components_masks(x) if m.bit_count() >= 2]
    y_parts = [m for m in g._anti_components_masks(y) if m.bit_count() >= 2]
    s, k = x, y
    for m in x_parts:
        s &= ~m
    for m in y_parts:
        k &= ~m
    return _SixMasks(g, x_parts, y_parts, s, k)


class _SixMasks:
    """The masks of a six-tuple's parts on g, with the vertices mixed on,
    complete to and touching each non-trivial part, each taken once.

    s_mixed and k_mixed are read off the parts' mixed vertices unless
    given (by _six_masks and _complement_side, from a known six-tuple)."""

    __slots__ = ("x_parts", "y_parts", "s", "k", "s_mixed", "k_mixed", "x", "y",
                 "x_touch", "x_mixed", "y_common", "y_mixed")

    def __init__(self, g: Graph, x_parts: list[int], y_parts: list[int], s: int, k: int,
                 s_mixed: list[int] | None = None, k_mixed: list[int] | None = None):
        self.x_parts, self.y_parts, self.s, self.k = x_parts, y_parts, s, k
        self.x, self.y = s, k
        self.x_touch, self.x_mixed = [], []
        for m in x_parts:
            self.x |= m
            touch, common = g._attach(m)
            self.x_touch.append(touch)
            self.x_mixed.append(touch & ~common & ~m)
        self.y_common, self.y_mixed = [], []
        for m in y_parts:
            self.y |= m
            touch, common = g._attach(m)
            self.y_common.append(common)
            self.y_mixed.append(touch & ~common & ~m)
        self.s_mixed = [s & m for m in self.y_mixed] if s_mixed is None else s_mixed
        self.k_mixed = [k & m for m in self.x_mixed] if k_mixed is None else k_mixed

    def sets(self, g: Graph) -> SkewDecomposition:
        """The six-tuple as vertex sets, the public view."""
        sets = g._set_of
        return SkewDecomposition(
            x_parts=tuple(map(sets, self.x_parts)),
            y_parts=tuple(map(sets, self.y_parts)),
            s=sets(self.s),
            k=sets(self.k),
            s_mixed=tuple(map(sets, self.s_mixed)),
            k_mixed=tuple(map(sets, self.k_mixed)),
        )


def _six_masks(g: Graph, d: SkewDecomposition) -> _SixMasks:
    """The masks of a six-tuple given as vertex sets."""
    mask = g._mask_of
    return _SixMasks(
        g, [mask(p) for p in d.x_parts], [mask(p) for p in d.y_parts], mask(d.s), mask(d.k),
        [mask(p) for p in d.s_mixed], [mask(p) for p in d.k_mixed],
    )


def _case3_conditions(g: Graph, d: _SixMasks) -> int | None:
    """Check the component-side condition set; return the least index whose
    mixed-clique is complete to the other components, or None."""
    if not d.x_parts or not all(d.k_mixed) or _twice(d.k_mixed):
        return None
    for mixed, ki in zip(d.x_mixed, d.k_mixed):
        if d.y & ~ki & mixed:
            return None
    full = g._full_mask()
    for xi, touch in zip(d.x_parts, d.x_touch):
        if (full & ~xi & ~d.s & ~touch).bit_count() < 2:
            return None
    for i, xi in enumerate(d.x_parts):
        if g._complete(d.k_mixed[i], d.x & ~xi & ~d.s):
            return i
    return None


def _complement_side(g: Graph, d: _SixMasks) -> tuple[Graph, _SixMasks]:
    """The six-tuple of complement(g) under the swapped partition (Y, X):
    the same parts with their sides traded, since the anti-components of
    G[Y] are the components of its complement, and a vertex is mixed on a
    part in g exactly when it is in the complement.  Returns the
    complement and the six-tuple's masks on it."""
    co = g.complement()
    return co, _SixMasks(co, d.y_parts, d.x_parts, d.k, d.s, d.k_mixed, d.s_mixed)


def classify_usable(g: Graph, d: SkewDecomposition) -> UsableCase:
    """Decide which condition set the six-tuple satisfies: the
    component-side conditions on g, else on the complement's six-tuple
    under the swapped partition, which are g's anti-component-side ones
    term by term (touching a part in the complement is not being complete
    to it in g, complete there is anti-complete in g).  The component side
    wins ties; special_index is the least part index realizing the
    completeness (resp. anti-completeness) condition.  Raises
    NeitherCaseHolds when neither set of five conditions checks out.
    """
    i, swapped = _classify(g, _six_masks(g, d))
    return UsableCase(tag=CaseTag.CASE3 if swapped is None else CaseTag.CASE4,
                      decomposition=d, special_index=i)


def _classify(g: Graph, d: _SixMasks) -> tuple[int, tuple[Graph, _SixMasks] | None]:
    """classify_usable on the six-tuple's masks: the special index, with
    None on the component side, or else the complement and its six-tuple's
    masks, on whose component side the index lies."""
    i = _case3_conditions(g, d)
    if i is not None:
        return i, None
    co, cd = _complement_side(g, d)
    i = _case3_conditions(co, cd)
    if i is not None:
        return i, (co, cd)
    raise NeitherCaseHolds(
        f"decomposition with {len(d.x_parts)} components / {len(d.y_parts)} "
        "anti-components satisfies neither condition set"
    )


# -- lemma suite -------------------------------------------------------------


def _usable_a(d: _SixMasks) -> bool:
    """Usability, component flavor: two non-trivial components, disjoint
    mixed families, and every Y-vertex has a neighbor in every component."""
    if len(d.x_parts) < 2 or _twice(d.s_mixed) or _twice(d.k_mixed):
        return False
    return all(not d.y & ~touch for touch in d.x_touch)


def _twice(masks: list[int]) -> int:
    """The bits set in two or more of the masks."""
    once = twice = 0
    for m in masks:
        twice |= once & m
        once |= m
    return twice


# The words of the component-side messages, in g's frame: for g's
# six-tuple, and for the complement's under the swapped partition, whose
# component side is g's anti-component side.
_IN_G = ("Y", "component", "anti-component", "anti-complete", "connected-edge")
_IN_COMPLEMENT = ("X", "anti-component", "component", "complete", "anti-connected")


def lemma_violations(g: Graph, d: SkewDecomposition) -> list[str]:
    """Check every applicable skew-partition lemma against a six-tuple that
    arose from a prime class member; returns human-readable violations.
    A member's six-tuples have none, so decompose does not call this; the
    tests run it on the six-tuples decompose builds.

    Covered: single-part mixing (no vertex of one side is mixed on more than
    one non-trivial part of the other), mixed-witness existence and its
    adjacency contract, the dichotomy lemmas on (component, anti-component)
    pairs bridged by an outside vertex, cross-side non-mixing for usable
    partitions, and the non-empty/anti-complete structure of the mixed
    families when the partition is usable.

    The dichotomy lemmas are their own dual and are checked on g.  The
    others are stated for the component side and checked on g's six-tuple,
    then on the complement's under the swapped partition (_complement_side),
    whose component side is g's anti-component side: a vertex is mixed on a
    part in g exactly when it is in the complement, and completeness and
    anti-completeness between disjoint sets trade places.  Every message is
    worded in g's frame.
    """
    dm = _six_masks(g, d)
    out = _component_side_violations(g, dm, _IN_G)
    for i, (xi, touch) in enumerate(zip(dm.x_parts, dm.x_touch)):
        for j, (yj, common) in enumerate(zip(dm.y_parts, dm.y_common)):
            if common & ~touch & ~xi & ~yj:
                out.extend(_dichotomy_violations(g, d.x_parts[i], d.y_parts[j]))
    co, cdm = _complement_side(g, dm)
    return out + _component_side_violations(co, cdm, _IN_COMPLEMENT)


def _component_side_violations(g: Graph, d: _SixMasks, words: tuple[str, ...]) -> list[str]:
    """The component-side lemmas on a six-tuple's masks: no Y-vertex is
    mixed on two components, each mixed vertex of a component has a
    connected-edge witness, and, when the partition is usable (_usable_a),
    no component vertex is mixed on an anti-component, no mixed family of
    S is empty and one is anti-complete to the other anti-components.
    ``words`` name Y, a component, an anti-component, anti-complete and
    the witness in the frame the messages are read in."""
    side, part, other, adjacency, witness = words
    pos = g._pos
    out: list[str] = []

    def mixed_on(v: int, mixed: list[int]) -> list[int]:
        return [j for j, m in enumerate(mixed) if m >> pos[v] & 1]

    for v in sorted(g._set_of(d.y & _twice(d.x_mixed))):
        out.append(f"vertex {v} of {side} mixed on {part}s {mixed_on(v, d.x_mixed)}")
    for xi, mixed in zip(d.x_parts, d.x_mixed):
        for v in sorted(g._set_of(mixed)):
            w1, w2 = _mixed_witness(g, v, xi, WitnessMode.CONNECTED_EDGE)
            if not (g.has_edge(v, w1) and not g.has_edge(v, w2) and g.has_edge(w1, w2)):
                out.append(f"bad {witness} witness ({w1}, {w2}) for {v}")
    if _usable_a(d):
        for u in sorted(g._set_of(d.x & ~d.s)):
            for j in mixed_on(u, d.y_mixed):
                out.append(f"{part} vertex {u} mixed on {other} {j}")
        if d.y_parts:
            if not all(d.s_mixed):
                out.append(f"usable {part}-side partition with an empty mixed family")
            if not any(
                g._anti_complete(sj, d.y & ~yj & ~d.k)
                for sj, yj in zip(d.s_mixed, d.y_parts)
            ):
                out.append(f"no mixed family is {adjacency} to the other {other}s")
    return out


def _dichotomy_violations(g: Graph, xs: VertexSet, ys: VertexSet) -> list[str]:
    """The two dichotomy lemmas for a connected X, anti-connected Y, and some
    outside vertex complete to Y and anti-complete to X."""
    out: list[str] = []
    xm, ym = g._mask_of(xs), g._mask_of(ys)
    pos, masks = g._pos, g._masks
    in_x = {v: masks[pos[v]] & xm for v in ys}  # each Y-vertex's neighbours in X
    for yv in ys:
        nv, sv = masks[pos[yv]], in_x[yv]
        for yv2 in ys:
            if yv >= yv2 or nv >> pos[yv2] & 1:
                continue
            sv2 = in_x[yv2]
            if sv & ~sv2:
                if sv != xm:
                    out.append(f"split vertex {yv} not complete to the component")
                if sv2:
                    out.append(f"split vertex {yv2} not anti-complete to the component")
            if sv2 & ~sv:
                if sv2 != xm:
                    out.append(f"split vertex {yv2} not complete to the component")
                if sv:
                    out.append(f"split vertex {yv} not anti-complete to the component")
    for xv in xs:
        b = 1 << pos[xv]
        hit = masks[pos[xv]] & ym
        if hit and hit != ym:
            if not g._complete(xm & ~b, hit) or not g._anti_complete(xm & ~b, ym & ~hit):
                out.append(f"component does not follow the split of its mixed vertex {xv}")
    for yv in ys:
        b = 1 << pos[yv]
        hit = in_x[yv]
        if hit and hit != xm:
            if not g._complete(ym & ~b, hit) or not g._anti_complete(ym & ~b, xm & ~hit):
                out.append(f"anti-component does not follow the split of its mixed vertex {yv}")
    return out
