"""Split graph divides and split graph unification.

A divide (A, B, C, L, T) relaxes the homogeneous-set decomposition: the
vertices mixed on A all sit in the clique L, whose outside adjacency is
rigidly controlled.  Factoring along a divide produces a composable pair of
strictly smaller graphs glued along the common split subgraph L ∪ T;
unification is the inverse gluing.  These two operations are the soundness
boundary of the whole grammar, so each checks its input: factor the divide
conditions, which imply every pair condition of its output, and unify the
pair conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, VertexSet, _lift
from .skewpart import CaseTag, UsableCase

__all__ = [
    "SplitGraphDivide",
    "PairRoles",
    "ComposablePair",
    "DivideInvalid",
    "InvalidPair",
    "build_divide",
    "validate_divide",
    "factor",
    "unify",
]


class DivideInvalid(Exception):
    """The constructed five-tuple violates a divide condition."""


class InvalidPair(Exception):
    """A composable-pair condition fails; carries the first violated one."""

    def __init__(self, bullet: str):
        self.bullet = bullet
        super().__init__(f"composable pair violates: {bullet}")


@dataclass(frozen=True)
class SplitGraphDivide:
    a: VertexSet
    b: VertexSet
    c: VertexSet
    l: VertexSet
    t: VertexSet


@dataclass(frozen=True)
class PairRoles:
    """Role sets of a composable pair plus its two marker vertices.

    marker_c stands in for the missing B ∪ C side inside g1; marker_a for
    the missing A side inside g2.  Recomposition drops both.
    """

    a_set: VertexSet
    b_set: VertexSet
    c_set: VertexSet
    l_set: VertexSet
    t_set: VertexSet
    marker_a: int
    marker_c: int


@dataclass(frozen=True)
class ComposablePair:
    g1: Graph
    g2: Graph
    roles: PairRoles


def validate_divide(g: Graph, d: SplitGraphDivide) -> bool:
    """Check all nine divide conditions; True iff every one holds."""
    masks = _role_masks(g, d.a, d.b, d.c, d.l, d.t)
    return masks is not None and _divide_holds(g, *masks)


def _role_masks(g: Graph, *sets) -> list[int] | None:
    """The masks of the sets on g, or None when one leaves g."""
    try:
        return [g._mask_of(s) for s in sets]
    except ValueError:
        return None


def _divide_holds(g: Graph, a: int, b: int, c: int, l: int, t: int) -> bool:
    """The nine divide conditions on the masks of A, B, C, L and T."""
    union = a | b | c | l | t
    if sum(m.bit_count() for m in (a, b, c, l, t)) != union.bit_count():
        return False
    if union != g._full_mask():
        return False
    if a.bit_count() < 2 or c.bit_count() < 2:
        return False
    if not l or not g._clique(l):
        return False
    if not g._stable(t):
        return False
    touch, common = g._attach(a)
    if l & ~(touch & ~common):
        return False
    if not g._complete(a, b):
        return False
    if not g._anti_complete(a, c | t):
        return False
    if not g._complete(l, b | c):
        return False
    if not g._anti_complete(t, c):
        return False
    return True


def build_divide(g: Graph, case: UsableCase) -> SplitGraphDivide:
    """Turn a component-side witness into a divide of g.

    With X1 the special component and K1 its mixed clique: A = X1; B = the
    Y-vertices complete to X1; C = the other components, the Y-vertices
    anti-complete to X1, and the leftover stable vertices complete to K1;
    L = K1; T = the leftover stable vertices with a non-neighbor in K1.
    factor, not this function, checks the nine divide conditions.
    """
    if case.tag is not CaseTag.CASE3:
        raise ValueError("divides are built from component-side witnesses only")
    d = case.decomposition
    i = case.special_index
    a, l = d.x_parts[i], d.k_mixed[i]
    a_mask, l_mask = g._mask_of(a), g._mask_of(l)
    touch, common = g._attach(a_mask)
    rest = g._mask_of(d.y) & ~l_mask
    b, c = rest & common, rest & ~touch
    for j, xj in enumerate(d.x_parts):
        if j != i:
            c |= g._mask_of(xj)
    s = g._mask_of(d.s)
    l_common = g._attach(l_mask)[1]
    c |= s & l_common
    t = s & ~l_common
    return SplitGraphDivide(a=a, b=g._set_of(b), c=g._set_of(c), l=l, t=g._set_of(t))


def _pair_violation(p: ComposablePair) -> str | None:
    """First violated composable-pair condition, or None when valid."""
    r = p.roles
    sets = [r.a_set, r.b_set, r.c_set, r.l_set, r.t_set]
    if sum(len(s) for s in sets) != len(frozenset().union(*sets)):
        return "role sets overlap"
    if not r.a_set:
        return "A side is empty"
    if not r.c_set:
        return "C side is empty"
    if r.marker_a == r.marker_c:
        return "markers coincide"
    if {r.marker_a, r.marker_c} & frozenset().union(*sets):
        return "a marker collides with a role vertex"
    # The role sets and markers are disjoint from here on, so a factor's
    # vertex set is the union of its roles iff each lies inside it and
    # together they fill it.
    g1, g2 = p.g1, p.g2
    masks = _role_masks(g1, r.a_set, r.l_set, r.t_set, (r.marker_c,))
    if masks is None or masks[0] | masks[1] | masks[2] | masks[3] != g1._full_mask():
        return "g1 vertex set is not A, L, T plus its marker"
    a, l1, t1, mc = masks
    if not g1._clique(l1):
        return "L is not a clique in g1"
    if not g1._stable(t1):
        return "T is not stable in g1"
    if not g1._anti_complete(a, t1):
        return "A is not anti-complete to T in g1"
    if not g1._complete(mc, l1):
        return "g1 marker is not complete to L"
    if not g1._anti_complete(mc, a | t1):
        return "g1 marker is not anti-complete to A and T"
    masks = _role_masks(g2, r.b_set, r.c_set, r.l_set, r.t_set, (r.marker_a,))
    if masks is None or masks[0] | masks[1] | masks[2] | masks[3] | masks[4] != g2._full_mask():
        return "g2 vertex set is not B, C, L, T plus its marker"
    b, c, l2, t2, ma = masks
    if g1._induced(l1 | t1) != g2._induced(l2 | t2):
        return "the two sides disagree on the common split subgraph"
    if not g2._anti_complete(t2, c):
        return "T is not anti-complete to C in g2"
    if not g2._complete(l2, b | c):
        return "L is not complete to B and C in g2"
    if not g2._complete(ma, b):
        return "g2 marker is not complete to B"
    if not g2._anti_complete(ma, c | l2 | t2):
        return "g2 marker is not anti-complete to C, L and T"
    return None


def _factor_graphs(
    g: Graph, a: int, b: int, c: int, l: int, t: int, marker_a: int, marker_c: int
) -> tuple[Graph, Graph]:
    """The two factor graphs of g along the role masks a, b, c, l, t: g1 is
    g on A, L, T plus ``marker_c`` adjacent to L, g2 is g on B, C, L, T plus
    ``marker_a`` adjacent to B."""
    return g._induced(a | l | t, marker_c, l), g._induced(b | c | l | t, marker_a, b)


def factor(g: Graph, d: SplitGraphDivide) -> ComposablePair:
    """Split g along a valid divide into its composable pair.

    g1 keeps A, L, T and gains a marker standing in for the contracted C
    side; g2 keeps B, C, L, T and gains a marker standing in for the
    contracted A side.  Both factors are strictly smaller than g.  Marker
    ids are fresh (max id + 1 and + 2) and recorded in the roles.

    Note that g1 is an induced subgraph of g up to the marker, while g2
    need not be: factoring deletes the A-L edges before contracting A.
    Raises DivideInvalid unless the nine divide conditions hold.
    """
    masks = _role_masks(g, d.a, d.b, d.c, d.l, d.t)
    if masks is None or not _divide_holds(g, *masks):
        raise DivideInvalid("factor called with an invalid divide")
    top = g.vertices[-1]
    marker_c, marker_a = top + 1, top + 2
    return ComposablePair(
        *_factor_graphs(g, *masks, marker_a, marker_c),
        roles=PairRoles(
            a_set=d.a, b_set=d.b, c_set=d.c, l_set=d.l, t_set=d.t,
            marker_a=marker_a, marker_c=marker_c,
        ),
    )


def unify(p: ComposablePair) -> Graph:
    """Glue a composable pair along its common split subgraph.

    The result keeps g1 minus its marker and g2 minus its marker, and joins
    A completely to B and not at all to C.  Raises InvalidPair with the
    first violated pair condition.
    """
    bullet = _pair_violation(p)
    if bullet is not None:
        raise InvalidPair(bullet)
    r = p.roles
    vs = tuple(sorted(r.a_set | r.b_set | r.c_set | r.l_set | r.t_set))
    pos = {v: i for i, v in enumerate(vs)}
    masks = [0] * len(vs)
    # Each factor's masks carried over to the result's ranks, its marker
    # dropped; the L-T edges of both factors coincide.
    for part, marker in ((p.g1, r.marker_c), (p.g2, r.marker_a)):
        bits = [0 if v == marker else 1 << pos[v] for v in part._vs]
        for b, m in zip(bits, _lift(part._masks, bits)):
            if b:
                masks[b.bit_length() - 1] |= m
    a = sum(1 << pos[v] for v in r.a_set)
    b = sum(1 << pos[v] for v in r.b_set)
    for side, other in ((a, b), (b, a)):
        while side:
            low = side & -side
            side ^= low
            masks[low.bit_length() - 1] |= other
    return Graph._from_masks(vs, tuple(masks), pos)
