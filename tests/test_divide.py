import random

import pytest

from p5house.graph import Graph
from p5house.oracle import PatternKind, find_induced, is_class_member
from p5house.divide import (
    ComposablePair,
    DivideInvalid,
    InvalidPair,
    PairRoles,
    SplitGraphDivide,
    build_divide,
    factor,
    unify,
    validate_divide,
)
from p5house.generator import random_composable_pair
from p5house.skewpart import SkewPartition, classify_usable, decompose_skew


def fixture_graph():
    """A = {0,1} (an edge), B = {2}, C = {3,4} (an edge), L = {5}, T empty."""
    edges = [(0, 1), (0, 2), (1, 2), (5, 0), (5, 2), (5, 3), (5, 4), (3, 4)]
    return Graph(range(6), edges)


def fixture_divide():
    return SplitGraphDivide(
        a=frozenset({0, 1}),
        b=frozenset({2}),
        c=frozenset({3, 4}),
        l=frozenset({5}),
        t=frozenset(),
    )


class TestValidateDivide:
    def test_fixture_is_valid(self):
        assert validate_divide(fixture_graph(), fixture_divide())

    def test_extra_l_edge_breaks_mixedness(self):
        g = fixture_graph()
        g2 = Graph(g.vertices, g.edges() + [(5, 1)])
        assert not validate_divide(g2, fixture_divide())

    def test_small_c_rejected(self):
        g = fixture_graph().minus({4})
        d = fixture_divide()
        d2 = SplitGraphDivide(a=d.a, b=d.b, c=frozenset({3}), l=d.l, t=d.t)
        assert not validate_divide(g, d2)

    def test_cover_required(self):
        g = Graph(range(7), fixture_graph().edges())
        assert not validate_divide(g, fixture_divide())


class TestFactor:
    def test_fixture_factors_exactly(self):
        g = fixture_graph()
        pair = factor(g, fixture_divide())
        # markers: 6 stands in for the contracted C side, 7 for A
        assert pair.roles.marker_c == 6 and pair.roles.marker_a == 7
        assert pair.g1.vertex_set == frozenset({0, 1, 5, 6})
        assert set(pair.g1.edges()) == {(0, 1), (0, 5), (5, 6)}
        assert pair.g2.vertex_set == frozenset({2, 3, 4, 5, 7})
        assert set(pair.g2.edges()) == {(2, 5), (3, 5), (4, 5), (3, 4), (2, 7)}

    def test_round_trip(self):
        g = fixture_graph()
        assert unify(factor(g, fixture_divide())) == g

    def test_factors_strictly_smaller(self):
        g = fixture_graph()
        pair = factor(g, fixture_divide())
        assert pair.g1.n < g.n and pair.g2.n < g.n

    def test_invalid_divide_rejected(self):
        g = fixture_graph()
        d = fixture_divide()
        bad = SplitGraphDivide(a=d.a, b=d.c, c=d.b, l=d.l, t=d.t)
        with pytest.raises(DivideInvalid):
            factor(g, bad)


def remark_pair():
    """g1 is the path a1-l-c, g2 the house b1-b2-c1-a-l; A={a1}, B={b1,b2},
    C={c1}, L={l}, T empty.  Ids: a1=0, b1=1, b2=2, c1=3, l=4, c=5, a=6."""
    g1 = Graph([0, 4, 5], [(0, 4), (4, 5)])
    # house b1-b2-c1-a-l: consecutive pairs in that order are the non-edges
    seq = [1, 2, 3, 6, 4]
    house_edges = [
        (seq[i], seq[j]) for i in range(5) for j in range(i + 1, 5) if j - i != 1
    ]
    g2 = Graph([1, 2, 3, 4, 6], house_edges)
    roles = PairRoles(
        a_set=frozenset({0}),
        b_set=frozenset({1, 2}),
        c_set=frozenset({3}),
        l_set=frozenset({4}),
        t_set=frozenset(),
        marker_a=6,
        marker_c=5,
    )
    return ComposablePair(g1=g1, g2=g2, roles=roles)


class TestUnify:
    def test_remark_fixture_edges(self):
        pair = remark_pair()
        g = unify(pair)
        assert set(g.edges()) == {(0, 4), (0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 4)}

    def test_remark_fixture_loses_the_house(self):
        pair = remark_pair()
        assert find_induced(pair.g2, PatternKind.HOUSE) is not None
        g = unify(pair)
        assert find_induced(g, PatternKind.HOUSE) is None
        assert is_class_member(g)

    def test_degenerate_empty_b_and_t(self):
        g1 = Graph([0, 1, 2, 9], [(2, 0), (9, 2)])  # A={0,1}, L={2}, c=9
        g2 = Graph([2, 3, 4, 8], [(2, 3), (2, 4)])  # C={3,4}, a=8
        roles = PairRoles(
            a_set=frozenset({0, 1}),
            b_set=frozenset(),
            c_set=frozenset({3, 4}),
            l_set=frozenset({2}),
            t_set=frozenset(),
            marker_a=8,
            marker_c=9,
        )
        g = unify(ComposablePair(g1=g1, g2=g2, roles=roles))
        assert g.vertex_set == frozenset({0, 1, 2, 3, 4})
        assert set(g.edges()) == {(0, 2), (2, 3), (2, 4)}

    def test_first_violated_bullet_reported(self):
        pair = remark_pair()
        # break "L complete to B and C in g2" by dropping the l-c1 edge
        g2 = Graph(pair.g2.vertices, [e for e in pair.g2.edges() if e != (3, 4)])
        with pytest.raises(InvalidPair) as err:
            unify(ComposablePair(g1=pair.g1, g2=g2, roles=pair.roles))
        assert "L is not complete" in str(err.value)

    def test_empty_a_rejected(self):
        pair = remark_pair()
        roles = PairRoles(
            a_set=frozenset(),
            b_set=pair.roles.b_set,
            c_set=pair.roles.c_set,
            l_set=pair.roles.l_set,
            t_set=pair.roles.t_set,
            marker_a=pair.roles.marker_a,
            marker_c=pair.roles.marker_c,
        )
        with pytest.raises(InvalidPair):
            unify(ComposablePair(g1=pair.g1.minus({0}), g2=pair.g2, roles=roles))


def unify_by_edges(p):
    """unify's former body, on edge lists: each factor's edges away from
    its marker, and every A-B pair; Graph absorbs the L-T edges that both
    factors hold."""
    r = p.roles
    verts = r.a_set | r.b_set | r.c_set | r.l_set | r.t_set
    edges = [e for e in p.g1.edges() if r.marker_c not in e]
    edges += [e for e in p.g2.edges() if r.marker_a not in e]
    edges += [(u, v) for u in r.a_set for v in r.b_set]
    return Graph(verts, edges)


class TestUnifyOnMasks:
    def test_same_graph_as_edge_lists(self):
        """Over the unification nodes of decompose's trees of the 300
        golden members, the pairs the generator unified to build them, and
        random composable pairs on scattered ids."""
        import itertools

        from p5house.decomposer import CoSgu, Sgu, Subst, decompose, recompose
        from p5house.generator import GenConfig, generate

        pairs = []

        class Factors:
            def on_factor(self, work, divide, pair):
                pairs.append(pair)

        for seed in range(300):
            g, tree = generate(GenConfig(seed=seed, max_depth=3))
            decompose(g, observer=Factors())
            stack = [tree]
            while stack:
                t = stack.pop()
                if isinstance(t, Subst):
                    stack += [t.quotient, t.child]
                elif isinstance(t, (Sgu, CoSgu)):
                    pairs.append(ComposablePair(recompose(t.part1), recompose(t.part2), t.roles))
                    stack += [t.part1, t.part2]
        assert len(pairs) >= 100
        rng = random.Random(88)
        pairs += [random_composable_pair(rng, itertools.count(rng.randint(0, 40)))
                  for _ in range(1000)]
        for pair in pairs:
            got, want = unify(pair), unify_by_edges(pair)
            assert got == want and got.vertices == want.vertices
            assert got._pos == want._pos and hash(got) == hash(want)


class TestCompositionPreservesFreeness:
    def test_random_pairs(self):
        rng = random.Random(1234)
        for _ in range(150):
            pair = random_composable_pair(rng)
            g = unify(pair)
            for kind in (PatternKind.P5, PatternKind.HOUSE, PatternKind.C5):
                if (
                    find_induced(pair.g1, kind) is None
                    and find_induced(pair.g2, kind) is None
                ):
                    assert find_induced(g, kind) is None, kind


class TestConverseWithProviso:
    def test_p5_and_c5_need_no_proviso(self):
        rng = random.Random(4321)
        for _ in range(150):
            pair = random_composable_pair(rng)
            g = unify(pair)
            for kind in (PatternKind.P5, PatternKind.C5):
                if find_induced(g, kind) is None:
                    assert find_induced(pair.g1, kind) is None
                    assert find_induced(pair.g2, kind) is None

    def test_house_direction_needs_mixed_l(self):
        rng = random.Random(8765)
        for _ in range(150):
            pair = random_composable_pair(rng)
            g = unify(pair)
            if find_induced(g, PatternKind.HOUSE) is not None:
                continue
            assert find_induced(pair.g1, PatternKind.HOUSE) is None
            proviso = all(
                any(not g.has_edge(l, a) for a in pair.roles.a_set)
                for l in pair.roles.l_set
            )
            if proviso:
                assert find_induced(pair.g2, PatternKind.HOUSE) is None

    def test_remark_fixture_shows_proviso_is_needed(self):
        pair = remark_pair()
        g = unify(pair)
        # l is complete to A = {a1}, so the proviso fails, and indeed g2
        # holds a house although g does not
        assert all(g.has_edge(4, a) for a in pair.roles.a_set)
        assert find_induced(g, PatternKind.HOUSE) is None
        assert find_induced(pair.g2, PatternKind.HOUSE) is not None


class TestBuildDivide:
    def test_hand_built_case(self):
        g = Graph(
            range(8),
            [(0, 1), (2, 3), (6, 7)]
            + [(6, 0), (6, 2), (6, 3)]
            + [(7, 2), (7, 0), (7, 1)],
        )
        sp = SkewPartition(x=frozenset(range(6)), y=frozenset({6, 7}))
        d = decompose_skew(g, sp)
        case = classify_usable(g, d)
        divide = build_divide(g, case)
        assert divide.a == frozenset({0, 1})
        assert divide.l == frozenset({6})
        assert validate_divide(g, divide)
        assert unify(factor(g, divide)) == g

    def test_case4_refused(self):
        from p5house.skewpart import CaseTag, UsableCase

        g = fixture_graph()
        d = decompose_skew(
            g, SkewPartition(x=frozenset({0, 1, 3, 4}), y=frozenset({2, 5}))
        )
        fake = UsableCase(tag=CaseTag.CASE4, decomposition=d, special_index=0)
        with pytest.raises(ValueError):
            build_divide(g, fake)


def table_graph():
    """A = {0,1}, B = {2}, C = {3,4}, L = {5,7}, T = {6,8}: every divide
    condition holds, and each has two vertices to break it on."""
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (5, 7), (0, 5), (0, 7),
             (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 4), (6, 2), (8, 5)]
    return Graph(range(9), edges)


def table_divide(**moved):
    sets = dict(a={0, 1}, b={2}, c={3, 4}, l={5, 7}, t={6, 8})
    sets.update(moved)
    return SplitGraphDivide(**{k: frozenset(v) for k, v in sets.items()})


def flip(g, *pairs):
    """g with the adjacency of each pair flipped."""
    edges = set(g.edges())
    for u, v in pairs:
        edges ^= {(min(u, v), max(u, v))}
    return Graph(g.vertices, edges)


def relabel(g, old, new):
    pos = {old: new}
    return Graph([pos.get(v, v) for v in g.vertices],
                 [(pos.get(u, u), pos.get(v, v)) for u, v in g.edges()])


class TestDivideConditions:
    """One mutant of table_graph's divide per condition, each breaking it
    alone: validate_divide is False and factor refuses it.  |A| >= 2 has
    no row: it follows from L being non-empty and mixed on A."""

    CASES = {
        "roles overlap": (table_graph(), table_divide(a={0, 1, 6})),
        "roles miss a vertex": (Graph(range(10), table_graph().edges()), table_divide()),
        "C is too small": (table_graph().minus({4}), table_divide(c={3})),
        "L is empty": (table_graph().minus({5, 7}), table_divide(l=set())),
        "L is not a clique": (flip(table_graph(), (5, 7)), table_divide()),
        "T is not stable": (flip(table_graph(), (6, 8)), table_divide()),
        "L is not mixed on A": (flip(table_graph(), (5, 1)), table_divide()),
        "A is not complete to B": (flip(table_graph(), (1, 2)), table_divide()),
        "A is not anti-complete to C": (flip(table_graph(), (1, 3)), table_divide()),
        "A is not anti-complete to T": (flip(table_graph(), (0, 6)), table_divide()),
        "L is not complete to B": (flip(table_graph(), (7, 2)), table_divide()),
        "L is not complete to C": (flip(table_graph(), (5, 4)), table_divide()),
        "T is not anti-complete to C": (flip(table_graph(), (6, 3)), table_divide()),
    }

    def test_table_graph_is_a_divide(self):
        g, d = table_graph(), table_divide()
        assert validate_divide(g, d)
        assert unify(factor(g, d)) == g

    @pytest.mark.parametrize("name", CASES)
    def test_broken_condition_is_refused(self, name):
        g, d = self.CASES[name]
        assert not validate_divide(g, d)
        with pytest.raises(DivideInvalid):
            factor(g, d)


def table_pair(**roles):
    """table_graph's composable pair: g1 on A, L, T plus marker 9, g2 on
    B, C, L, T plus marker 10; ``roles`` replaces some of its roles."""
    pair = factor(table_graph(), table_divide())
    r = pair.roles
    assert (r.marker_c, r.marker_a) == (9, 10)
    fields = dict(a_set=r.a_set, b_set=r.b_set, c_set=r.c_set, l_set=r.l_set,
                  t_set=r.t_set, marker_a=r.marker_a, marker_c=r.marker_c)
    fields.update((k, frozenset(v) if isinstance(v, set) else v) for k, v in roles.items())
    return pair.g1, pair.g2, PairRoles(**fields)


G1, G2, ROLES = table_pair()


class TestPairConditions:
    """One mutant of table_graph's composable pair per pair condition,
    each breaking it alone: unify names that condition."""

    CASES = [
        ("role sets overlap", G1, G2, table_pair(a_set={0, 1, 6})[2]),
        ("A side is empty", G1.minus({0, 1}), G2, table_pair(a_set=set())[2]),
        ("C side is empty", G1, G2.minus({3, 4}), table_pair(c_set=set())[2]),
        ("markers coincide", G1, relabel(G2, 10, 9), table_pair(marker_a=9)[2]),
        ("a marker collides with a role vertex", G1, relabel(G2, 10, 0),
         table_pair(marker_a=0)[2]),
        ("g1 vertex set is not A, L, T plus its marker", G1.minus({1}), G2, ROLES),
        ("L is not a clique in g1", flip(G1, (5, 7)), flip(G2, (5, 7)), ROLES),
        ("T is not stable in g1", flip(G1, (6, 8)), flip(G2, (6, 8)), ROLES),
        ("A is not anti-complete to T in g1", flip(G1, (1, 8)), G2, ROLES),
        ("g1 marker is not complete to L", flip(G1, (9, 7)), G2, ROLES),
        ("g1 marker is not anti-complete to A and T", flip(G1, (9, 6)), G2, ROLES),
        ("g2 vertex set is not B, C, L, T plus its marker", G1, G2.minus({4}), ROLES),
        ("the two sides disagree on the common split subgraph", G1, flip(G2, (8, 5)), ROLES),
        ("T is not anti-complete to C in g2", G1, flip(G2, (8, 4)), ROLES),
        ("L is not complete to B and C in g2", G1, flip(G2, (7, 3)), ROLES),
        ("g2 marker is not complete to B", G1, flip(G2, (10, 2)), ROLES),
        ("g2 marker is not anti-complete to C, L and T", G1, flip(G2, (10, 5)), ROLES),
    ]

    def test_table_pair_unifies(self):
        assert unify(ComposablePair(g1=G1, g2=G2, roles=ROLES)) == table_graph()

    @pytest.mark.parametrize("bullet, g1, g2, roles", CASES, ids=[case[0] for case in CASES])
    def test_broken_condition_is_named(self, bullet, g1, g2, roles):
        with pytest.raises(InvalidPair) as err:
            unify(ComposablePair(g1=g1, g2=g2, roles=roles))
        assert err.value.bullet == bullet
