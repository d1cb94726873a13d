import itertools
import random

import pytest

from p5house import decomposer, modular, oracle, skewpart
from p5house.census import labeled_graphs
from p5house.graph import Graph, SplitCert, complete_graph, cycle_graph, path_graph, split_certificate
from p5house.modular import find_proper_homogeneous_set, quotient_factor, substitute
from p5house.oracle import PatternKind, find_induced, find_special_h6, first_forbidden, is_class_member
from p5house.skewpart import ConstructionFailed, NeitherCaseHolds
from p5house.decomposer import (
    CoSgu,
    InternalStructureError,
    MalformedTree,
    NotClassMember,
    PentagonLeaf,
    Sgu,
    SplitLeaf,
    Subst,
    decompose,
    recompose,
    tree_stats,
    verify_tree,
)
from shared_graphs import H6_EDGES, h6, random_graph


class TestBranches:
    def test_pentagon(self):
        t = decompose(cycle_graph([3, 1, 4, 5, 9]))
        assert isinstance(t, PentagonLeaf)
        assert t.cycle[0] == 1

    def test_split_leaf(self):
        t = decompose(complete_graph(range(4)))
        assert isinstance(t, SplitLeaf)

    def test_diamond_is_a_split_leaf(self):
        t = decompose(Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
        assert isinstance(t, SplitLeaf)

    def test_blown_up_pentagon_is_substitution(self):
        c5 = cycle_graph(range(5))
        inner = complete_graph([10, 11])
        g = substitute(inner, c5, 0)
        t = decompose(g)
        assert isinstance(t, Subst)
        kinds = {type(t.quotient).__name__, type(t.child).__name__}
        assert kinds == {"PentagonLeaf", "SplitLeaf"}
        assert recompose(t) == g

    def test_sparse_vertex_ids_survive_the_whole_pipeline(self):
        shift = 100
        g = Graph(
            [v + shift for v in range(6)],
            [(u + shift, v + shift) for u, v in H6_EDGES],
        )
        t = decompose(g)
        assert isinstance(t, (Sgu, CoSgu))
        assert t.roles.marker_c == shift + 6 and t.roles.marker_a == shift + 7
        assert recompose(t) == g
        assert verify_tree(t, g).ok

    def test_h6_is_a_unification(self):
        g = h6()
        t = decompose(g)
        assert isinstance(t, (Sgu, CoSgu))
        assert recompose(t) == g
        rep = verify_tree(t, g)
        assert rep.ok
        for part in (recompose(t.part1), recompose(t.part2)):
            assert part.n < g.n
            assert is_class_member(part, triple=True)

    def test_non_member_rejected_with_witness(self):
        with pytest.raises(NotClassMember) as err:
            decompose(path_graph(range(5)))
        assert err.value.hit.kind is PatternKind.P5
        assert err.value.hit.embedding == (0, 1, 2, 3, 4)

    def test_house_rejected(self):
        seq = [0, 1, 2, 3, 4]
        edges = [(seq[i], seq[j]) for i in range(5) for j in range(i + 1, 5) if j - i != 1]
        with pytest.raises(NotClassMember) as err:
            decompose(Graph(range(5), edges))
        assert err.value.hit.kind is PatternKind.HOUSE

    def test_triple_mode_rejects_pentagon(self):
        with pytest.raises(NotClassMember) as err:
            decompose(cycle_graph(range(5)), triple=True)
        assert err.value.hit.kind is PatternKind.C5


class TestRecompose:
    def test_leaf_identity(self):
        g = complete_graph(range(3))
        t = decompose(g)
        assert recompose(t) == g

    def test_exhaustive_small(self):
        from p5house.census import labeled_graphs

        for n in range(6):
            for g in labeled_graphs(n):
                if not is_class_member(g):
                    continue
                t = decompose(g)
                assert recompose(t) == g
                assert verify_tree(t, g).ok

    def test_remark_fixture_tree(self):
        """A manually assembled unification node recomposes to the glued
        graph even though one leaf carries a bogus certificate; verify_tree
        is what flags the leaf."""
        from test_divide import remark_pair

        pair = remark_pair()
        g1_cert = SplitCert(clique=frozenset({4}), stable=frozenset({0, 5}))
        bogus = SplitCert(clique=frozenset({1, 2, 3}), stable=frozenset({4, 6}))
        tree = Sgu(
            part1=SplitLeaf(graph=pair.g1, cert=g1_cert),
            part2=SplitLeaf(graph=pair.g2, cert=bogus),
            roles=pair.roles,
        )
        g = recompose(tree)
        assert set(g.edges()) == {(0, 4), (0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 4)}
        rep = verify_tree(tree, g)
        assert not rep.ok
        assert any("clique/stable" in msg for _, msg in rep.failures)

    def test_malformed_marker(self):
        t = Subst(
            quotient=SplitLeaf(graph=complete_graph([1, 2]), cert=SplitCert(frozenset({1, 2}), frozenset())),
            child=SplitLeaf(graph=complete_graph([5, 6]), cert=SplitCert(frozenset({5, 6}), frozenset())),
            marker=99,
        )
        with pytest.raises(MalformedTree) as err:
            recompose(t)
        assert "root" in str(err.value)


class TestVerifyTree:
    def test_tampered_leaf_detected(self):
        g = complete_graph(range(3))
        t = decompose(g)
        other = path_graph(range(3))
        bad = SplitLeaf(graph=other, cert=t.cert)
        rep = verify_tree(bad, g)
        assert not rep.ok

    def test_c4_leaf_fails_certificate(self):
        c4 = cycle_graph(range(4))
        leaf = SplitLeaf(
            graph=c4, cert=SplitCert(clique=frozenset({0, 1}), stable=frozenset({2, 3}))
        )
        rep = verify_tree(leaf, c4)
        assert not rep.ok
        assert any("clique/stable" in msg for _, msg in rep.failures)

    def test_wrong_pentagon_order(self):
        g = cycle_graph(range(5))
        leaf = PentagonLeaf(graph=g, cycle=(0, 1, 2, 3, 4))
        assert verify_tree(leaf, g).ok
        leaf = PentagonLeaf(graph=g, cycle=(0, 2, 1, 3, 4))
        assert not verify_tree(leaf, g).ok

    def test_tampered_unification_roles(self):
        """Moving a vertex between the role sets must break a pair condition
        and surface as a verification failure, not a silent recomposition."""
        g = h6()
        t = decompose(g)
        assert isinstance(t, (Sgu, CoSgu))
        r = t.roles
        moved = sorted(r.b_set)[0]
        bad_roles = type(r)(
            a_set=r.a_set | {moved},
            b_set=r.b_set - {moved},
            c_set=r.c_set,
            l_set=r.l_set,
            t_set=r.t_set,
            marker_a=r.marker_a,
            marker_c=r.marker_c,
        )
        bad = type(t)(part1=t.part1, part2=t.part2, roles=bad_roles)
        rep = verify_tree(bad, g)
        assert not rep.ok

    def test_one_vertex_substitution(self):
        quotient = decompose(path_graph(range(3)))
        child = decompose(Graph([7], []))
        g = substitute(child.graph, quotient.graph, 1)
        rep = verify_tree(Subst(quotient=quotient, child=child, marker=1), g)
        assert rep.failures == [("root", "substituted set is not proper"),
                                ("root", "children fail to shrink")]

    def test_unification_with_one_vertex_a_side(self):
        """A valid pair with |A| = 1: g2's marker stands in for A alone, so
        g2 is as large as the glued graph."""
        from p5house.divide import ComposablePair, PairRoles, unify

        g1 = Graph([0, 1, 10], [(0, 1), (1, 10)])
        g2 = Graph([1, 2, 3, 11], [(1, 2), (1, 3)])
        roles = PairRoles(a_set=frozenset({0}), b_set=frozenset(), c_set=frozenset({2, 3}),
                          l_set=frozenset({1}), t_set=frozenset(), marker_a=11, marker_c=10)
        g = unify(ComposablePair(g1=g1, g2=g2, roles=roles))
        t = Sgu(part1=decompose(g1), part2=decompose(g2), roles=roles)
        assert verify_tree(t, g).failures == [("root", "children fail to shrink")]


class TestProperties:
    def test_random_members_round_trip(self):
        rng = random.Random(606)
        done = 0
        while done < 40:
            g = random_graph(rng, rng.randint(1, 9))
            if not is_class_member(g):
                continue
            done += 1
            t = decompose(g)
            assert recompose(t) == g
            rep = verify_tree(t, g)
            assert rep.ok, rep.failures

    def test_triple_mode_never_builds_pentagons(self):
        rng = random.Random(607)
        done = 0
        while done < 30:
            g = random_graph(rng, rng.randint(1, 8))
            if not is_class_member(g, triple=True):
                continue
            done += 1
            t = decompose(g, triple=True)
            _, leaves = tree_stats(t)
            assert leaves["pentagon"] == 0

    def test_anti_component_side_witness_flips_to_components(self):
        """A prime member whose maximized partition classifies on the
        anti-component side: the pipeline swaps to the complement, where the
        component-side conditions hold, and still round-trips."""
        from p5house.skewpart import CaseTag

        edges = [(0, 2), (0, 4), (0, 5), (0, 6), (0, 7), (1, 4), (1, 5), (1, 6),
                 (1, 7), (3, 5), (3, 7), (4, 5), (4, 6), (5, 7)]
        g = Graph(range(8), edges).complement()
        tags = []

        class Obs:
            def on_skew_decomposition(self, work, sp, d, case):
                tags.append(case.tag)

        t = decompose(g, observer=Obs())
        assert CaseTag.CASE4 in tags and CaseTag.CASE3 in tags
        assert recompose(t) == g
        assert verify_tree(t, g).ok

    def test_observer_sees_factor_events(self):
        events = []

        class Obs:
            def on_factor(self, work, divide, pair):
                events.append((work.n, pair.g1.n, pair.g2.n))

            def on_skew_decomposition(self, work, sp, d, case):
                events.append("skew")

        decompose(h6(), observer=Obs())
        assert any(isinstance(e, tuple) for e in events)
        assert "skew" in events


def edgeless_leaf(vs):
    return SplitLeaf(graph=Graph(vs), cert=SplitCert(clique=frozenset(), stable=frozenset(vs)))


def subst_chain(inner, depth):
    """Wrap ``inner`` in ``depth`` substitution nodes, each over a
    two-vertex quotient that adds one new isolated vertex."""
    t = inner
    for i in range(depth):
        t = Subst(quotient=edgeless_leaf([0, 10_000 + i]), child=t, marker=0)
    return t


class TestDeepTrees:
    def test_depth_5000_recomposes_verifies_and_reports_depth(self):
        t = subst_chain(edgeless_leaf([0, 1]), 5000)
        g = recompose(t)
        assert g == Graph([0, 1] + [10_000 + i for i in range(5000)])
        rep = verify_tree(t, g)
        assert rep.ok, rep.failures[:1]
        assert rep.depth == 5000
        assert tree_stats(t) == (5000, {"split": 5001, "pentagon": 0})

    def test_deep_failure_names_its_path(self):
        bad = Subst(quotient=edgeless_leaf([1, 2]), child=edgeless_leaf([0, 5]), marker=99)
        t = subst_chain(bad, 4999)
        with pytest.raises(MalformedTree) as err:
            recompose(t)
        assert err.value.path == "root" + ".child" * 4999
        rep = verify_tree(t, Graph([0]))
        assert rep.failures == [
            ("root" + ".child" * 4999,
             "substitution impossible: substitution site 99 is not a vertex of the outer graph")
        ]

    def test_depth_5000_with_markers_absent_from_their_child(self):
        """Each level substitutes the chain so far for a fresh marker, so
        every marker is dropped from the final graph."""
        t = edgeless_leaf([0, 1])
        for i in range(5000):
            t = Subst(quotient=edgeless_leaf([10_000 + i, 20_000 + i]), child=t, marker=20_000 + i)
        g = recompose(t)
        assert g == Graph([0, 1] + [10_000 + i for i in range(5000)])
        rep = verify_tree(t, g)
        assert rep.ok, rep.failures[:1]
        assert rep.depth == 5000

    def test_depth_500_alternating_unification_and_substitution(self):
        """Each level substitutes the tree so far for an A-vertex of a
        composable pair's g1 (A may hold any graph) and glues the pair.  The
        A-vertex has no neighbour, so that the graph stays sparse."""
        from p5house.divide import PairRoles, unify, ComposablePair

        t, g, ids = edgeless_leaf([0, 1]), Graph([0, 1]), itertools.count(2)
        for _ in range(250):
            a, a2, l, mc, c1, c2, ma = (next(ids) for _ in range(7))
            g1 = Graph([a, a2, l, mc], [(l, a2), (mc, l)])
            g2 = Graph([l, c1, c2, ma], [(l, c1), (l, c2)])
            part1 = Subst(quotient=decompose(g1), child=t, marker=a)
            roles = PairRoles(a_set=frozenset({a2}) | g.vertex_set, b_set=frozenset(),
                              c_set=frozenset({c1, c2}), l_set=frozenset({l}), t_set=frozenset(),
                              marker_a=ma, marker_c=mc)
            g = unify(ComposablePair(g1=substitute(g, g1, a), g2=g2, roles=roles))
            t = Sgu(part1=part1, part2=decompose(g2), roles=roles)
        assert recompose(t) == g
        rep = verify_tree(t, g)
        assert rep.ok, rep.failures[:1]
        assert rep.depth == 500


# Prime, non-split members: the first has a decorated H6 in itself and in its
# complement; the complement of H6 has one only in its complement.
BOTH_SIDES = Graph(range(8), [(0, 1), (0, 2), (0, 3), (0, 4), (0, 7), (1, 2), (1, 7), (2, 3),
                              (2, 4), (2, 5), (2, 6), (3, 6), (4, 5), (4, 6)])


class TestComplementSideOnDemand:
    @staticmethod
    def count_searches(monkeypatch):
        hosts = []
        real = decomposer.find_special_h6

        def counting(g):
            hosts.append(g)
            return real(g)

        monkeypatch.setattr(decomposer, "find_special_h6", counting)
        return hosts

    def test_one_search_when_the_graph_side_works(self, monkeypatch):
        hosts = self.count_searches(monkeypatch)
        g = h6()
        t = decompose(g)
        assert hosts == [g]
        assert verify_tree(t, g).ok

    def test_complement_searched_when_the_graph_has_none(self, monkeypatch):
        g = h6().complement()
        assert find_special_h6(g) is None
        hosts = self.count_searches(monkeypatch)
        t = decompose(g)
        assert hosts == [g, g.complement()]
        assert verify_tree(t, g).ok

    def test_error_messages(self, monkeypatch):
        monkeypatch.setattr(decomposer, "find_special_h6", lambda g: None)
        with pytest.raises(InternalStructureError) as err:
            decompose(h6())
        assert str(err.value) == "no decorated H6 in a prime non-split member or its complement"
        monkeypatch.undo()

        works = []

        def refuse(work, hit):
            works.append(work)
            raise ConstructionFailed("refused")

        # one construction: the complement side is not tried after a
        # failure, and a member's build raises the failure itself
        monkeypatch.setattr(skewpart, "_construct_on", refuse)
        with pytest.raises(ConstructionFailed) as err:
            decompose(BOTH_SIDES)
        assert str(err.value) == "refused" and works == [BOTH_SIDES.complement()]


# The house: the complement of the path 0-1-2-3-4.
HOUSE_EDGES = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]


def on_ids(edges, ids):
    """The graph with these edges on positions 0..k-1, carried to ids."""
    return Graph(ids, [(ids[a], ids[b]) for a, b in edges])


def rejection(g, triple=False):
    with pytest.raises(NotClassMember) as err:
        decompose(g, triple=triple)
    return err.value.hit


def substitution_member(rng, n):
    """A member on n >= 2 vertices: split graphs, pentagons, H6 and its
    complement substituted into one another at random vertices, on
    scattered ids."""
    ids = iter(rng.sample(range(20 * n), 20 * n))

    def block(room):
        kind = rng.choice(("split", "pentagon", "h6", "co-h6") if room >= 6 else ("split",))
        if kind == "pentagon":
            return cycle_graph([next(ids) for _ in range(5)])
        if kind in ("h6", "co-h6"):
            g = on_ids(H6_EDGES, [next(ids) for _ in range(6)])
            return g if kind == "h6" else g.complement()
        k = rng.randint(2, min(room, 6))
        vs = [next(ids) for _ in range(k)]
        clique = vs[: rng.randint(0, k)]
        edges = list(itertools.combinations(clique, 2))
        edges += [(u, v) for u in clique for v in vs[len(clique):] if rng.random() < 0.5]
        return Graph(vs, edges)

    g = block(n)
    while g.n < n:
        g = substitute(block(n - g.n + 1), g, rng.choice(g.vertices))
    return g


def flip(rng, g):
    """g with one random vertex pair flipped."""
    u, v = rng.sample(g.vertices, 2)
    edges = set(g.edges())
    edges ^= {(min(u, v), max(u, v))}
    return Graph(g.vertices, edges)


class TestWitness:
    """decompose rejects with first_forbidden's hit: it makes the same P5
    scan, and looks for a house, by first_forbidden's own search after the
    P5 scan, only once its build has raised."""

    def test_every_graph_up_to_six_vertices(self):
        for triple in (False, True):
            for n in range(7):
                for g in labeled_graphs(n):
                    expected = first_forbidden(g, triple)
                    if expected is None:
                        decompose(g, triple=triple)
                    else:
                        assert rejection(g, triple) == expected

    def test_house_only_near_members(self):
        rng = random.Random(909)
        found = 0
        while found < 200:
            g = flip(rng, substitution_member(rng, rng.randint(30, 41)))
            expected = first_forbidden(g)
            if expected is None or expected.kind is not PatternKind.HOUSE:
                continue
            found += 1
            assert rejection(g) == expected
            assert rejection(g, triple=True) == expected

    def test_house_inside_a_proper_module(self):
        house = on_ids(HOUSE_EDGES, [10, 11, 12, 13, 14])
        g = substitute(house, path_graph([0, 1, 2]), 1)
        hit = rejection(g)
        assert hit == first_forbidden(g) and set(hit.embedding) == set(house.vertices)

    def test_pentagon_met_before_a_house_gives_the_house(self, calls):
        # The house on 0..4 is the module split off first, so the walk
        # reaches the pentagon (inside the quotient) before it; the build
        # raises at the house's prime node, and the witness is the house
        # that first_forbidden's search finds in the graphs of the P5 scan,
        # up to the size limit g alone, with no scan of g for a C5.
        g = Graph(range(10), HOUSE_EDGES + cycle_graph(range(5, 10)).edges())
        hit = rejection(g, triple=True)
        assert calls.steps() == [("scan", g, PatternKind.P5), ("raised",),
                                 *calls.reads([g], PatternKind.HOUSE)]
        assert hit == first_forbidden(g, triple=True) and hit.kind is PatternKind.HOUSE

    def test_pentagon_leaf_in_triple_mode_gives_its_c5(self):
        c5 = cycle_graph([10, 11, 12, 13, 14])
        g = substitute(c5, complete_graph([0, 1]), 0)
        hit = rejection(g, triple=True)
        assert hit == first_forbidden(g, triple=True) and set(hit.embedding) == set(c5.vertices)

    def test_node_hit_missing_from_the_root(self, calls):
        # Above the size limit the witness comes from the prime node, so a
        # house scan of the whole graph would change nothing: none is made,
        # and g's P5 scan is the twin walk of its prefix.
        g = substitute(on_ids(HOUSE_EDGES, [30, 31, 32, 33, 34]), complete_graph(range(13)), 1)
        assert g.n > oracle._WHOLE_GRAPH_MAX
        expected = first_forbidden(g)
        for triple in (False, True):
            calls.clear()
            assert rejection(g, triple) == expected and expected.kind is PatternKind.HOUSE
            assert all(h != g for _, h, _ in calls.of("scan"))

    def test_least_hit_from_a_later_prime_node(self, calls):
        # A house blown up by a house: the build raises at the quotient's
        # prime node, visited first, but the child's house, on lower ids,
        # is the least.  Up to the size limit it is found by a whole-graph
        # search; above it, in a clique, on the prime representatives,
        # which the P5 scan has built and read, after its prefix walk,
        # before the build.
        outer = on_ids(HOUSE_EDGES, [1, 20, 21, 22, 23])
        inner = on_ids(HOUSE_EDGES, [1, 2, 3, 4, 5])
        g = substitute(inner, outer, 1)
        big = substitute(g, complete_graph([1] + list(range(30, 38))), 1)
        assert g.n <= oracle._WHOLE_GRAPH_MAX < big.n
        reps = [outer, inner]
        for h, scan, after in (
            (g, [("scan", g, PatternKind.P5)], calls.reads([g], PatternKind.HOUSE)),
            (big, [calls.prefix(big), *calls.reads(reps, PatternKind.P5)],
             calls.reads(reps, PatternKind.HOUSE)),
        ):
            for triple in (False, True):
                expected = first_forbidden(h, triple)
                calls.clear()
                assert rejection(h, triple) == expected
                assert set(expected.embedding) == set(inner.vertices)
                assert calls.steps() == scan + [("raised",)] + after

    def test_least_c5_from_a_later_pentagon_leaf(self, calls):
        # The same with pentagons: a member, but in triple mode the least
        # C5 is the child leaf's, reached after the quotient leaf.
        outer = cycle_graph([1, 20, 21, 22, 23])
        inner = cycle_graph([1, 2, 3, 4, 5])
        g = substitute(inner, outer, 1)
        decompose(g)
        expected = first_forbidden(g, triple=True)
        assert set(expected.embedding) == set(inner.vertices)
        calls.clear()
        assert rejection(g, triple=True) == expected
        assert calls.of("scan") == [("scan", g, PatternKind.P5)]

    def test_least_hit_over_prime_nodes_on_random_non_members(self):
        """The witness is first_forbidden's in both modes on P5-free
        non-members with several prime nodes: substitution members with
        one pair flipped, and their complements."""
        rng = random.Random(911)
        found = {False: 0, True: 0}
        while min(found.values()) < 150:
            g = flip(rng, substitution_member(rng, rng.randint(8, 18)))
            for h in (g, g.complement()):
                for triple in (False, True):
                    expected = first_forbidden(h, triple)
                    if expected is None:
                        decompose(h, triple=triple)
                    else:
                        assert rejection(h, triple) == expected
                        found[triple] += expected.kind is not PatternKind.P5


def prime_representatives(g):
    """The masks of g's prime representatives, over a tree of their own."""
    return modular._prime_representatives(g, modular._Node(g._full_mask()))


def is_prime_node(g):
    return (
        split_certificate(g) is None
        and decomposer._pentagon_cycle(g) is None
        and find_proper_homogeneous_set(g) is None
    )


class TestOraclePlacement:
    def test_split_member_gets_only_the_root_p5_scan(self, calls):
        g = Graph(range(5), [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
        assert isinstance(decompose(g), SplitLeaf)
        assert calls.of("scan") == [("scan", g, PatternKind.P5)]

    def test_member_gets_only_the_p5_scan(self, calls, monkeypatch):
        # The finished tree certifies a member: one pattern scan, the P5
        # scan of g, whatever unification steps the build takes.  Above
        # the size limit that is g over the prefix ranks, by the twin walk,
        # then the prime representatives, all smaller than g, from the next
        # rank on, by the plain walk.
        unified = []
        real = decomposer._unification_node

        def logged(h, events):
            unified.append(h)
            return real(h, events)

        monkeypatch.setattr(decomposer, "_unification_node", logged)
        rng = random.Random(915)
        graphs = [substitute(h6().complement(), on_ids(H6_EDGES, range(10, 16)), 10)]
        graphs += [substitution_member(rng, rng.randint(20, 41)) for _ in range(20)]
        for g in graphs:
            for triple in (False, True):
                if triple and not is_class_member(g, triple=True):
                    continue
                calls.clear()
                t = decompose(g, triple=triple)
                assert verify_tree(t, g).ok
                walks = calls.of("twin", "kernel")
                if g.n <= oracle._WHOLE_GRAPH_MAX:
                    assert calls.steps() == [("scan", g, PatternKind.P5), ("built",)]
                    assert walks == [("kernel", g._masks, False, 0)]
                else:
                    reps = [g._induced(m) for m in prime_representatives(g)]
                    assert calls.steps() == [calls.prefix(g), *calls.reads(reps, PatternKind.P5),
                                             ("built",)]
                    assert walks[0] == calls.prefix(g)
                    assert [masks for _, masks, *_ in walks[1:]] == [h._masks for h in reps]
                    assert all(call[0] == "kernel" and len(call[1]) < g.n for call in walks[1:])
        assert len(unified) >= 10

    def test_p5_rejection_takes_no_homogeneous_set_search(self, calls):
        g = substitute(complete_graph([10, 11]), path_graph(range(5)), 2)
        assert rejection(g).kind is PatternKind.P5
        assert calls.of("build") == []

    def test_one_decomposition_and_no_homogeneous_set_search(self, monkeypatch):
        # A substitution member over two unification nodes: one modular
        # decomposition tree, for the input and for each factor, each the
        # host of the items below it, and no homogeneous-set search or
        # quotient_factor call.
        def refuse(*args):
            raise AssertionError("called")

        monkeypatch.setattr(modular, "find_proper_homogeneous_set", refuse)
        monkeypatch.setattr(modular, "quotient_factor", refuse)
        trees, hosts = [], set()
        node, expand = decomposer._Node, decomposer._leaf

        def tree_logged(mask):
            trees.append(mask)
            return node(mask)

        def leaf_logged(host, m):
            hosts.add(host)
            return expand(host, m)

        monkeypatch.setattr(decomposer, "_Node", tree_logged)
        monkeypatch.setattr(decomposer, "_leaf", leaf_logged)
        factors = []

        class Obs:
            def on_factor(self, work, divide, pair):
                factors.extend((pair.g1, pair.g2))

        g = substitute(h6().complement(), on_ids(H6_EDGES, range(10, 16)), 10)
        t = decompose(g, observer=Obs())
        assert verify_tree(t, g).ok
        roots = [g] + factors
        assert len(factors) == 4 and trees == [h._full_mask() for h in roots]
        assert hosts == set(roots)

    def test_house_rejection_after_a_member_prime_node(self, calls, monkeypatch):
        # The build unifies the member's prime node, an H6, before it
        # raises at the house's: the events it held are never handed over.
        module = Graph([10, 11, 12, 13, 14, 15], on_ids(HOUSE_EDGES, [10, 11, 12, 13, 14]).edges())
        g = substitute(module, h6(), 0)
        held = []
        unification_node = decomposer._unification_node

        def node_logged(h, events):
            try:
                return unification_node(h, events)
            finally:
                held.extend(method for method, _ in events[len(held):])

        monkeypatch.setattr(decomposer, "_unification_node", node_logged)
        events = []

        class Obs:
            def on_skew_decomposition(self, *args):
                events.append(args)

            def on_factor(self, *args):
                events.append(args)

        expected = first_forbidden(g)
        calls.clear()
        with pytest.raises(NotClassMember) as err:
            decompose(g, observer=Obs())
        assert err.value.hit == expected and expected.kind is PatternKind.HOUSE
        assert calls.steps() == [("scan", g, PatternKind.P5), ("raised",),
                                 *calls.reads([g], PatternKind.HOUSE)]
        assert held == ["on_skew_decomposition", "on_factor"] and events == []

    def test_p5_past_the_prefix_never_reaches_the_build(self, calls, monkeypatch):
        # P5 near-members above the size limit whose first P5 begins at
        # rank _PREFIX or later: the P5 scan finds it on the prime nodes of
        # g's decomposition tree, made once per call, so no build starts.
        made, unified = [], []

        class Counted(modular._Node):
            __slots__ = ()

            def __init__(self, mask, *args):
                made.append(mask)
                super().__init__(mask, *args)

        for module in (modular, oracle, decomposer):
            monkeypatch.setattr(module, "_Node", Counted)
        monkeypatch.setattr(decomposer, "_unification_node", lambda *args: unified.append(args))
        rng = random.Random(917)
        found = 0
        for _ in range(100):
            g = flip(rng, substitution_member(rng, rng.randint(20, 41)))
            expected = first_forbidden(g)
            if (expected is None or expected.kind is not PatternKind.P5
                    or g.vertices.index(expected.embedding[0]) < oracle._PREFIX):
                continue
            found += 1
            for triple in (False, True):
                made.clear()
                calls.clear()
                assert rejection(g, triple) == expected
                assert made.count(g._full_mask()) == 1
                assert calls.of("build") == [] and unified == []
        assert found >= 10

    def test_refutations_make_no_whole_graph_house_scan(self, calls):
        # House-only near-members above the size limit: one P5 scan of g
        # over the prefix ranks, by the twin walk, then every scan is of the
        # representative graph of a prime node of g with five children or
        # more, split ones included, as in first_forbidden: for a P5 before
        # the build, for the house after it has raised.  They are built
        # once, off the one decomposition tree that the build walks.
        rng = random.Random(913)
        found = 0
        while found < 20:
            g = flip(rng, substitution_member(rng, rng.randint(20, 30)))
            if (oracle.find_induced(g, PatternKind.P5) is not None or is_class_member(g)
                    or is_prime_node(g)):
                continue
            found += 1
            nodes = [g._induced(m) for m in prime_representatives(g)]
            assert nodes and all(h != g for h in nodes)
            assert all(find_proper_homogeneous_set(h) is None for h in nodes)
            for triple in (False, True):
                expected = first_forbidden(g, triple)
                calls.clear()
                assert rejection(g, triple) == expected
                assert calls.steps() == [calls.prefix(g), *calls.reads(nodes, PatternKind.P5),
                                         ("raised",), *calls.reads(nodes, PatternKind.HOUSE)]
                walks = calls.of("twin", "kernel")
                assert walks[0] == calls.prefix(g)
                assert all(call[0] == "kernel" and len(call[1]) < g.n for call in walks[1:])
                roots = calls.roots()
                assert len(roots) == 2 and all(root is roots[0] for root in roots)
                assert roots[0].mask == g._full_mask()


# A prime member whose maximized partition classifies on the anti-component
# side (see TestProperties), so its unification step builds two six-tuples.
CASE4_MEMBER = Graph(range(8), [(0, 2), (0, 4), (0, 5), (0, 6), (0, 7), (1, 4), (1, 5), (1, 6),
                                (1, 7), (3, 5), (3, 7), (4, 5), (4, 6), (5, 7)]).complement()


def grown_primes(seed, sizes):
    """Prime, non-split members grown from H6 one vertex at a time, one per
    size; each new vertex joins a random subset of the others and is kept
    when the graph stays a prime, non-split member."""
    rng = random.Random(seed)
    g, out = h6(), []
    for n in sizes:
        while g.n < n:
            v = g.n
            p = rng.uniform(0.2, 0.8)
            cand = Graph(range(v + 1), g.edges() + [(u, v) for u in range(v) if rng.random() < p])
            if (is_class_member(cand) and split_certificate(cand) is None
                    and find_proper_homogeneous_set(cand) is None):
                g = cand
        out.append(g)
    return out


class _Events:
    def __init__(self):
        self.skew = []
        self.factor = []

    def on_skew_decomposition(self, work, sp, d, case):
        self.skew.append((work, sp, d, case))

    def on_factor(self, work, divide, pair):
        self.factor.append((work, pair))


class TestUnificationChecksOnce:
    """decompose's unification pipeline checks each obligation once; the
    re-checks it dropped are kept here as assertions on what it built."""

    def test_dropped_rechecks_still_hold(self, monkeypatch):
        from p5house.divide import _pair_violation
        from p5house.generator import GenConfig, generate
        from p5house.oracle import validate_h6_hit
        from p5house.skewpart import CaseTag, _check_skew, _six_masks, _usable_a, lemma_violations

        searched = []
        real = decomposer.find_special_h6

        def search(host):
            hit = real(host)
            searched.append((host, hit))
            return hit

        monkeypatch.setattr(decomposer, "find_special_h6", search)
        graphs = [generate(GenConfig(seed=s, max_depth=3))[0] for s in range(300)]
        graphs += [CASE4_MEMBER] + grown_primes(7, range(8, 13))
        events = _Events()
        for g in graphs:
            for side in (g, g.complement()):
                decompose(side, observer=events)
        hits = [(host, hit) for host, hit in searched if hit is not None]
        assert len(events.factor) >= 40 and len(hits) >= len(events.factor)
        for host, hit in hits:
            assert validate_h6_hit(host, hit)
        # after a CASE4 event the six-tuple is rebuilt in the complement,
        # where it need not be usable
        flipped = False
        for work, sp, d, case in events.skew:
            _check_skew(work, work._mask_of(sp.x), work._mask_of(sp.y))
            assert work.is_stable(d.s) and work.is_clique(d.k)
            assert lemma_violations(work, d) == []
            assert flipped or _usable_a(_six_masks(work, d))
            flipped = case.tag is CaseTag.CASE4
        for work, pair in events.factor:
            assert _pair_violation(pair) is None
            for part in (pair.g1, pair.g2):
                assert part.n < work.n
                assert first_forbidden(part, triple=True) is None

    def test_each_check_runs_once_per_unification_step(self, monkeypatch):
        from p5house import divide

        calls = {}

        def count(owner, name):
            real = getattr(owner, name)
            calls[name] = 0

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, counted)

        sixes = []  # per six-tuple's masks: (non-trivial parts, _attach calls)
        real_init = skewpart._SixMasks.__init__

        def init(dm, g, x_parts, y_parts, *rest):
            before = attached[0]
            real_init(dm, g, x_parts, y_parts, *rest)
            sixes.append((len(x_parts) + len(y_parts), attached[0] - before))

        attached = [0]
        real_attach = Graph._attach

        def attach(g, m):
            attached[0] += 1
            return real_attach(g, m)

        monkeypatch.setattr(skewpart._SixMasks, "__init__", init)
        monkeypatch.setattr(Graph, "_attach", attach)
        count(skewpart, "split_certificate")  # the pipeline's own split tests
        count(skewpart, "validate_h6_hit")
        count(skewpart, "_check_skew")
        count(skewpart, "_decompose")
        count(divide, "_divide_holds")
        count(divide, "_pair_violation")
        count(skewpart, "lemma_violations")
        count(skewpart, "_usable_a")
        # (graph, unification steps, six-tuples): a step on the
        # anti-component side takes a second six-tuple, the complement's,
        # from the first without decomposing again
        for g, steps, six_tuples in ((h6(), 1, 1), (h6().complement(), 1, 1),
                                     (CASE4_MEMBER, 2, 3)):
            for name in calls:
                calls[name] = 0
            sixes.clear()
            events = _Events()
            decompose(g, observer=events)
            assert (len(events.factor), len(events.skew)) == (steps, six_tuples)
            # one _SixMasks per six-tuple, one _attach per non-trivial part
            assert len(sixes) == six_tuples and all(k == n for n, k in sixes)
            assert calls == {
                "split_certificate": 0,
                "validate_h6_hit": 0,
                "_check_skew": steps,
                "_decompose": steps,
                "_divide_holds": steps,
                "_pair_violation": 0,
                "lemma_violations": 0,
                "_usable_a": 0,
            }


class TestBuildCertifies:
    """The two claims decompose rests on: a non-member never finishes its
    build, and a member's C5, if any, sits in a pentagon leaf of its
    substitution skeleton (Fouquet: a prime graph with no P5 and no house
    that holds a C5 is that C5)."""

    def test_no_non_member_finishes_its_build(self):
        rng = random.Random(917)
        near = []
        for _ in range(300):
            g = flip(rng, substitution_member(rng, rng.randint(8, 41)))
            near += [g, g.complement()]
        refuted = {}
        for corpus, graphs in (("labelled", (g for n in range(7) for g in labeled_graphs(n))),
                               ("near", near)):
            refuted[corpus] = 0
            for g in graphs:
                if is_class_member(g):
                    continue
                refuted[corpus] += 1
                # the failures of a construction, not of a programming error
                with pytest.raises((InternalStructureError, ConstructionFailed, NeitherCaseHolds)):
                    decomposer._build(g, None, [], modular._Node(g._full_mask()))
        assert refuted["labelled"] == 13_560 and refuted["near"] >= 500

    def test_member_c5_only_in_pentagon_leaves(self):
        from p5house.generator import GenConfig, generate

        graphs = [g for n in range(7) for g in labeled_graphs(n) if is_class_member(g)]
        for s in range(300):
            g = generate(GenConfig(seed=s, max_depth=3))[0]
            graphs += [g, g.complement()]
        primes = 0
        for g in graphs:
            for kind, _, step in read_skeleton(g):
                if kind == "prime":
                    primes += 1
                    assert find_induced(step, PatternKind.C5) is None
        assert primes >= 700


def reference_skeleton(g):
    """The substitution skeleton as decompose once walked it: at every node
    a Graph, split_certificate, the pentagon test and
    find_proper_homogeneous_set, then quotient_factor for the quotient
    (walked first) and the child.  Records (kind, vertex set, payload): the
    leaf, the marker, or the prime node's graph."""
    out = []
    stack = [g]
    while stack:
        h = stack.pop()
        cert = split_certificate(h)
        if cert is not None:
            out.append(("split", h.vertex_set, SplitLeaf(graph=h, cert=cert)))
            continue
        cycle = decomposer._pentagon_cycle(h)
        if cycle is not None:
            out.append(("pentagon", h.vertex_set, PentagonLeaf(graph=h, cycle=cycle)))
            continue
        hs = find_proper_homogeneous_set(h)
        if hs is None:
            out.append(("prime", h.vertex_set, h))
            continue
        child, quotient, marker = quotient_factor(h, hs)
        assert child.n < h.n and quotient.n < h.n
        out.append(("subst", h.vertex_set, marker))
        stack.extend((child, quotient))
    return out


def read_skeleton(g):
    """decompose's skeleton of g in the records of reference_skeleton: the
    tree _build makes with each prime node's graph kept as a leaf.  The
    build must meet the prime nodes in the records' order (a quotient
    before its child), the order of its unification steps."""
    met = []

    def prime_leaf(h, events):
        met.append(h)
        return h, ()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomposer, "_unification_node", prime_leaf)
        tree = decomposer._build(g, None, [], modular._Node(g._full_mask()))
    out = []

    def read(t):
        """Append t's records in preorder; return its vertex set."""
        if type(t) is Subst:
            i = len(out)
            out.append(None)
            vs = read(t.quotient) | read(t.child)
            out[i] = ("subst", vs, t.marker)
            return vs
        if type(t) is Graph:
            out.append(("prime", t.vertex_set, t))
            return t.vertex_set
        out.append(("split" if type(t) is SplitLeaf else "pentagon", t.graph.vertex_set, t))
        return t.graph.vertex_set

    read(tree)
    assert met == [h for kind, _, h in out if kind == "prime"]
    return out


def chain(n):
    """C4 on 0..3, then 4..n-1 in order, even ones adjacent to every
    earlier vertex and odd ones isolated: a skeleton of depth n - 4."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    edges += [(u, v) for v in range(4, n, 2) for u in range(v)]
    return Graph(range(n), edges)


class TestSkeletonFromTheDecomposition:
    """The skeleton the build reads off one modular decomposition equals
    the one the per-node homogeneous-set search gives, record for record."""

    def test_every_graph_up_to_six_vertices(self):
        for n in range(7):
            for g in labeled_graphs(n):
                assert read_skeleton(g) == reference_skeleton(g), g.edges()

    def test_golden_members(self):
        from p5house.generator import GenConfig, generate

        kinds = set()
        for s in range(300):
            g = generate(GenConfig(seed=s, max_depth=3))[0]
            for h in (g, g.complement()):
                records = read_skeleton(h)
                assert records == reference_skeleton(h)
                kinds.update(kind for kind, _, _ in records)
        assert kinds == {"split", "pentagon", "subst", "prime"}

    def test_random_graphs_and_complements(self):
        rng = random.Random(2027)
        for i in range(2000):
            n = rng.randint(1, 16)
            g = substitution_member(rng, max(n, 2)) if i % 2 else random_graph(rng, n, rng.random())
            for h in (g, g.complement()):
                assert read_skeleton(h) == reference_skeleton(h), (h.vertices, h.edges())

    def test_chain(self):
        g = chain(60)
        records = read_skeleton(g)
        assert records == reference_skeleton(g)
        assert sum(kind == "subst" for kind, _, _ in records) == 56
