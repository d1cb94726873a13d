import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p5house.graph import Graph, MixedStatus, cycle_graph, path_graph
from p5house.modular import find_proper_homogeneous_set
from p5house.oracle import find_special_h6, is_class_member
from p5house.skewpart import (
    CaseTag,
    ConstructionFailed,
    NeitherCaseHolds,
    Side,
    SkewPartition,
    UnclassifiableVertex,
    attachment_classes,
    classify_usable,
    decompose_skew,
    lemma_violations,
    maximize_skew,
    skew_from_special_h6,
)

H6_EDGES = [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 5)]


def h6():
    return Graph(range(6), H6_EDGES)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(range(n), edges)


class TestAttachmentClasses:
    def test_bare_path(self):
        g = path_graph([1, 2, 3, 4])
        ac = attachment_classes(g, 1, 2, 3, 4)
        assert all(
            not s
            for s in (ac.clone_a, ac.clone_b, ac.clone_c, ac.clone_d, ac.a_set, ac.b_set, ac.c_set)
        )

    def test_universal_vertex_lands_in_c(self):
        g = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4)] + [(5, i) for i in range(1, 5)])
        ac = attachment_classes(g, 1, 2, 3, 4)
        assert ac.c_set == frozenset({5})

    def test_c6_vertex_is_unclassifiable(self):
        g = cycle_graph([1, 2, 3, 4, 5, 6])
        with pytest.raises(UnclassifiableVertex) as err:
            attachment_classes(g, 2, 3, 4, 5)
        assert err.value.vertex in {1, 6}

    def test_rejects_non_path(self):
        g = cycle_graph([1, 2, 3, 4])
        with pytest.raises(ValueError):
            attachment_classes(g, 1, 2, 3, 4)

    def test_total_cover_on_members(self):
        rng = random.Random(23)
        found = 0
        while found < 40:
            g = random_graph(rng, rng.randint(4, 8))
            if not is_class_member(g, triple=True):
                continue
            path = None
            for tup in itertools.permutations(g.vertices, 4):
                a, b, c, d = tup
                if (
                    g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
                    and not g.has_edge(a, c) and not g.has_edge(a, d) and not g.has_edge(b, d)
                ):
                    path = tup
                    break
            if path is None:
                continue
            found += 1
            ac = attachment_classes(g, *path)
            classes = [ac.clone_a, ac.clone_b, ac.clone_c, ac.clone_d, ac.a_set, ac.b_set, ac.c_set]
            union = frozenset(path).union(*classes)
            assert union == g.vertex_set
            assert sum(len(s) for s in classes) == g.n - 4


class TestSkewFromSpecialH6:
    def test_h6_through_complement(self):
        g = h6()
        hit = find_special_h6(g)
        assert hit is not None
        work = g.complement()
        sp = skew_from_special_h6(work, hit, side=Side.IN_COMPLEMENT)
        assert sp.x == frozenset({1, 2, 4, 5})
        assert sp.y == frozenset({0, 3})
        sp.validate(work)
        parts = [c for c in work.induced(sp.x).components() if len(c) >= 2]
        assert len(parts) >= 2

    def test_h6_in_graph_side_swaps(self):
        g = h6()
        hit = find_special_h6(g)
        sp = skew_from_special_h6(g, hit, side=Side.IN_G)
        sp.validate(g)
        anti_parts = [c for c in g.induced(sp.y).anti_components() if len(c) >= 2]
        assert len(anti_parts) >= 2

    def test_split_graph_rejected(self):
        g = Graph(range(6), [(0, 1)])
        hit = find_special_h6(h6())
        with pytest.raises(ValueError):
            skew_from_special_h6(g, hit, side=Side.IN_G)

    def test_stale_hit_rejected(self):
        from p5house.oracle import H6Hit

        g = h6()
        fake = H6Hit(
            embedding=(0, 1, 2, 3, 4, 5),
            v1_simplicial=True,
            v4_simplicial=True,
            v2_anti_simplicial=True,
            v3_anti_simplicial=True,
        )
        with pytest.raises(ConstructionFailed):
            skew_from_special_h6(g, fake, side=Side.IN_COMPLEMENT)

    def test_prime_non_split_members_sampled(self):
        """Sampled prime non-split members always yield a valid partition
        with the promised structure on the right side."""
        rng = random.Random(4242)
        cases = [h6(), h6().complement()]
        for _ in range(3000):
            g = random_graph(rng, rng.choice([7, 8, 9]), p=rng.choice([0.4, 0.5, 0.6]))
            if not is_class_member(g, triple=True):
                continue
            from p5house.graph import split_certificate

            if split_certificate(g) is not None or find_proper_homogeneous_set(g) is not None:
                continue
            cases.append(g)
        for g in cases:
            hit = find_special_h6(g)
            if hit is not None:
                sp = skew_from_special_h6(g, hit, side=Side.IN_G)
                sp.validate(g)
                anti = [c for c in g.induced(sp.y).anti_components() if len(c) >= 2]
                assert len(anti) >= 2
            hit_co = find_special_h6(g.complement())
            if hit_co is not None:
                sp = skew_from_special_h6(g, hit_co, side=Side.IN_COMPLEMENT)
                sp.validate(g)
                comps = [c for c in g.induced(sp.x).components() if len(c) >= 2]
                assert len(comps) >= 2
            assert hit is not None or hit_co is not None


class TestMaximizeSkew:
    def test_fixed_point_unchanged(self):
        work = h6().complement()
        sp = SkewPartition(x=frozenset({1, 2, 4, 5}), y=frozenset({0, 3}))
        assert maximize_skew(work, sp) == sp

    def test_absorbs_an_available_vertex(self):
        # two disjoint edges plus a dominating clique pair; vertex 6 starts
        # in Y but can move into X (it is isolated there)
        g = Graph(
            range(7),
            [(0, 1), (2, 3), (4, 5), (4, 6), (5, 6)]
            + [(4, i) for i in range(4)]
            + [(5, i) for i in range(4)],
        )
        sp = SkewPartition(x=frozenset({0, 1, 2, 3}), y=frozenset({4, 5, 6}))
        sp.validate(g)
        out = maximize_skew(g, sp)
        assert 6 in out.x
        out.validate(g)

    def test_no_single_vertex_extension_remains(self):
        rng = random.Random(321)
        tried = 0
        while tried < 30:
            g = random_graph(rng, 8)
            sp = _find_seed_partition(g)
            if sp is None:
                continue
            tried += 1
            out = maximize_skew(g, sp)
            out.validate(g)
            for v in sorted(out.y):
                ny = out.y - {v}
                nx = out.x | {v}
                if not ny or g.anti_connected_on(ny):
                    continue
                parts = [c for c in g.induced(nx).components() if len(c) >= 2]
                assert len(parts) < 2, f"vertex {v} could still move"


def _find_seed_partition(g):
    """Any skew-partition with two non-trivial components on the X side."""
    vs = list(g.vertices)
    for r in range(2, len(vs) - 1):
        for xs in itertools.combinations(vs, r):
            x = frozenset(xs)
            y = g.vertex_set - x
            parts = [c for c in g.induced(x).components() if len(c) >= 2]
            if len(parts) < 2:
                continue
            if g.anti_connected_on(y):
                continue
            return SkewPartition(x=x, y=y)
    return None


class TestDecomposeSkew:
    def test_two_triangles_against_clique(self):
        # X: triangles {0,1,2} and {3,4,5}; Y: clique {6,7} complete to X
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7)]
        edges += [(y, x) for y in (6, 7) for x in range(6)]
        g = Graph(range(8), edges)
        sp = SkewPartition(x=frozenset(range(6)), y=frozenset({6, 7}))
        d = decompose_skew(g, sp)
        assert len(d.x_parts) == 2 and len(d.y_parts) == 0
        assert d.s == frozenset() and d.k == frozenset({6, 7})
        # nobody in K is mixed on either triangle
        assert d.k_mixed == (frozenset(), frozenset())

    def test_isolated_x_vertex_goes_to_s(self):
        edges = [(0, 1), (2, 3), (5, 6)] + [(y, x) for y in (5, 6) for x in (0, 1)]
        g = Graph(range(7), edges)  # 4 isolated in X
        sp = SkewPartition(x=frozenset({0, 1, 2, 3, 4}), y=frozenset({5, 6}))
        d = decompose_skew(g, sp)
        assert d.s == frozenset({4})

    def test_joined_stable_pairs_empty_k(self):
        # Y = join of two stable pairs: all four vertices sit in non-trivial
        # anti-components, so K is empty
        y_edges = [(4, 6), (4, 7), (5, 6), (5, 7)]
        x_edges = [(0, 1), (2, 3)]
        cross = [(6, 0), (6, 1), (7, 2)]
        g = Graph(range(8), x_edges + y_edges + cross)
        sp = SkewPartition(x=frozenset(range(4)), y=frozenset({4, 5, 6, 7}))
        d = decompose_skew(g, sp)
        assert d.k == frozenset()
        assert len(d.y_parts) == 2


class TestClassifyUsable:
    def test_h6_pipeline_case(self):
        work = h6().complement()
        sp = SkewPartition(x=frozenset({1, 2, 4, 5}), y=frozenset({0, 3}))
        d = decompose_skew(work, sp)
        case = classify_usable(work, d)
        assert case.tag is CaseTag.CASE3
        assert case.special_index == 0
        assert not lemma_violations(work, d)

    def test_hand_built_components_side(self):
        g = Graph(
            range(8),
            [(0, 1), (2, 3), (6, 7)]
            + [(6, 0), (6, 2), (6, 3)]   # 6 mixed on {0,1}, complete to {2,3}
            + [(7, 2), (7, 0), (7, 1)],  # 7 mixed on {2,3}, complete to {0,1}
            # vertices 4, 5: isolated members of X (stable leftovers)
        )
        sp = SkewPartition(x=frozenset(range(6)), y=frozenset({6, 7}))
        d = decompose_skew(g, sp)
        case = classify_usable(g, d)
        assert case.tag is CaseTag.CASE3
        assert case.special_index == 0

    def test_anti_component_side_classification(self):
        """The dual of the hand-built component-side instance classifies on
        the anti-component side with the transposed special index."""
        g = Graph(
            range(8),
            [(0, 1), (2, 3), (6, 7)]
            + [(6, 0), (6, 2), (6, 3)]
            + [(7, 2), (7, 0), (7, 1)],
        ).complement()
        sp = SkewPartition(x=frozenset({6, 7}), y=frozenset(range(6)))
        d = decompose_skew(g, sp)
        case = classify_usable(g, d)
        assert case.tag is CaseTag.CASE4
        assert case.special_index == 0
        assert not lemma_violations(g, d)

    def test_neither_case(self):
        # X of isolated vertices only (m=0) and Y a clique (n=0)
        g = Graph(range(4), [(2, 3)])
        sp = SkewPartition(x=frozenset({0, 1}), y=frozenset({2, 3}))
        d = decompose_skew(g, sp)
        assert len(d.x_parts) == 0 and len(d.y_parts) == 0
        with pytest.raises(NeitherCaseHolds):
            classify_usable(g, d)


class TestLemmaSuite:
    def test_detects_double_mixing_outside_the_class(self):
        """On a graph containing a four-edge path, a vertex can be mixed on
        two components at once; the checker must flag it rather than pass
        vacuously."""
        g = Graph(
            range(7),
            [(0, 1), (2, 3), (4, 0), (4, 2), (4, 5), (4, 6), (5, 6),
             (5, 0), (5, 1), (5, 2), (5, 3), (6, 0), (6, 1), (6, 2), (6, 3)],
        )
        sp = SkewPartition(x=frozenset({0, 1, 2, 3}), y=frozenset({4, 5, 6}))
        sp.validate(g)
        d = decompose_skew(g, sp)
        assert any("mixed on components" in v for v in lemma_violations(g, d))

    def test_dichotomy_on_random_members(self):
        """Whenever a member has a connected X, anti-connected Y, and an
        outside vertex complete to Y and anti-complete to X, both dichotomy
        conclusions hold."""
        rng = random.Random(99)
        checked = 0
        while checked < 25:
            g = random_graph(rng, rng.randint(5, 8))
            if not is_class_member(g, triple=True):
                continue
            hit = _find_bridge_triple(g)
            if hit is None:
                continue
            checked += 1
            xs, ys = hit
            from p5house.skewpart import _dichotomy_violations

            assert _dichotomy_violations(g, xs, ys) == []

    def test_violations_on_pipeline_decompositions(self):
        work = h6().complement()
        sp = SkewPartition(x=frozenset({1, 2, 4, 5}), y=frozenset({0, 3}))
        d = decompose_skew(work, sp)
        assert lemma_violations(work, d) == []


def _find_bridge_triple(g):
    vs = list(g.vertices)
    for v in vs:
        others = [u for u in vs if u != v]
        for rx in range(2, len(others)):
            for xs in itertools.combinations(others, rx):
                x = frozenset(xs)
                if not g.connected_on(x):
                    continue
                if g.mixed_status(v, x) is not MixedStatus.ANTI_COMPLETE:
                    continue
                rest = [u for u in others if u not in x]
                for ry in range(2, len(rest) + 1):
                    for ys in itertools.combinations(rest, ry):
                        y = frozenset(ys)
                        if not g.anti_connected_on(y):
                            continue
                        if g.mixed_status(v, y) is MixedStatus.COMPLETE:
                            return x, y
    return None


# -- the anti-component side as the component side of the complement ---------


def reference_case4_conditions(g, d):
    """The anti-component-side conditions as a dual of the component-side
    ones, written out on g: the reference that classifying through the
    complement (skewpart._complement_side) is held to."""
    from p5house.skewpart import _twice

    if not d.y_parts or not all(d.s_mixed) or _twice(d.s_mixed):
        return None
    for mixed, sj in zip(d.y_mixed, d.s_mixed):
        if d.x & ~sj & mixed:
            return None
    full = g._full_mask()
    for yj, common in zip(d.y_parts, d.y_common):
        if (full & ~yj & ~d.k & common).bit_count() < 2:
            return None
    for j, yj in enumerate(d.y_parts):
        if g._anti_complete(d.s_mixed[j], d.y & ~yj & ~d.k):
            return j
    return None


def assert_classified_as_reference(g, sp):
    """classify_usable agrees with the component-side conditions and the
    reference dual on g; the complement's six-tuple that it checks is the
    one of the swapped partition.  Returns the tag, or None for neither."""
    from p5house.skewpart import _case3_conditions, _complement_side, _six_masks

    d = decompose_skew(g, sp)
    dm = _six_masks(g, d)
    co, cd, _ = _complement_side(g, d, dm)
    assert co == g.complement()
    assert cd == decompose_skew(co, SkewPartition(x=sp.y, y=sp.x))
    i, j = _case3_conditions(g, dm), reference_case4_conditions(g, dm)
    if i is None and j is None:
        with pytest.raises(NeitherCaseHolds):
            classify_usable(g, d)
        return None
    case = classify_usable(g, d)
    want = (CaseTag.CASE3, i) if i is not None else (CaseTag.CASE4, j)
    assert (case.tag, case.special_index) == want and case.decomposition == d
    return case.tag


class TestComplementSide:
    def test_pipeline_six_tuples_match_the_reference(self):
        from p5house.generator import GenConfig, generate
        from p5house.decomposer import decompose
        from test_decomposer import CASE4_MEMBER, _Events, grown_primes

        graphs = [generate(GenConfig(seed=s, max_depth=3))[0] for s in range(300)]
        graphs += [CASE4_MEMBER] + grown_primes(7, range(8, 13))
        events = _Events()
        for g in graphs:
            for side in (g, g.complement()):
                decompose(side, observer=events)
        tags = [assert_classified_as_reference(work, sp) for work, sp, _, _ in events.skew]
        assert len(tags) >= 40 and CaseTag.CASE4 in tags and None not in tags

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_skew_partitions_match_the_reference(self, data):
        """Random graphs on n <= 10 vertices with a skew partition (X, Y)
        built in: X is one to three connected parts and a few isolated
        vertices, Y a clique and maybe a non-adjacent pair complete to it.
        A Y-vertex attaches to X at random or, to meet the component-side
        conditions often, is mixed on at most one part and complete or
        anti-complete to the others.  The swapped partition of the
        complement is checked too, so each case is met from both sides."""
        draw = data.draw
        n_k, pair = draw(st.integers(0, 3)), draw(st.booleans())
        n_k = max(n_k, 1 if pair else 2)  # Y has two anti-components
        budget = 10 - n_k - 2 * pair
        sizes = []
        while budget >= 2 and len(sizes) < 3 and (not sizes or draw(st.booleans())):
            sizes.append(draw(st.integers(2, min(3, budget))))
            budget -= sizes[-1]
        n_s = draw(st.integers(0 if len(sizes) > 1 else 1, min(2, budget)))
        n = sum(sizes) + n_s + n_k + 2 * pair
        ids = iter(draw(st.permutations(range(n))))
        parts = [[next(ids) for _ in range(size)] for size in sizes]
        s_side = [next(ids) for _ in range(n_s)]
        k_side = [next(ids) for _ in range(n_k)]
        pair_side = [next(ids) for _ in range(2 * pair)]
        coin = st.booleans()
        edges = set(itertools.combinations(k_side, 2))
        edges |= {(p, k) for p in pair_side for k in k_side}
        for part in parts:
            edges |= set(zip(part, part[1:]))
            edges |= {e for e in itertools.combinations(part, 2) if draw(coin)}
        for v in s_side:
            edges |= {(v, w) for w in k_side + pair_side if draw(coin)}
        for v in k_side + pair_side:
            home = draw(st.sampled_from(range(-1, len(parts)))) if v in k_side else -1
            structured = draw(st.integers(0, 3)) > 0
            for i, part in enumerate(parts):
                if not structured:
                    edges |= {(v, w) for w in part if draw(coin)}
                elif i == home:
                    edges |= {(v, w) for w in part[: draw(st.integers(1, len(part) - 1))]}
                elif draw(coin):
                    edges |= {(v, w) for w in part}
        g = Graph(range(n), edges)
        sp = SkewPartition(x=frozenset(s_side).union(*parts), y=frozenset(k_side + pair_side))
        tag = assert_classified_as_reference(g, sp)
        co_tag = assert_classified_as_reference(g.complement(), SkewPartition(x=sp.y, y=sp.x))
        # each side's component-side case is the other's anti-component side
        assert {tag, co_tag} in ({None}, {CaseTag.CASE3}, {CaseTag.CASE3, CaseTag.CASE4})
