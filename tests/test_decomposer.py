import itertools
import random

import pytest

from p5house import decomposer
from p5house.graph import Graph, SplitCert, complete_graph, cycle_graph, path_graph
from p5house.modular import substitute
from p5house.oracle import PatternKind, find_special_h6, is_class_member
from p5house.skewpart import ConstructionFailed
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

H6_EDGES = [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 5)]


def h6():
    return Graph(range(6), H6_EDGES)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(range(n), edges)


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

    def test_complement_side_tried_after_a_construction_failure(self, monkeypatch):
        g = BOTH_SIDES
        co_hit = find_special_h6(g.complement())
        assert find_special_h6(g) is not None and co_hit is not None
        flipped, pair = decomposer._run_pipeline(g, co_hit, None)
        real = decomposer._run_pipeline
        works = []

        def fail_first(work, hit, observer):
            works.append(work)
            if len(works) == 1:
                raise ConstructionFailed("first side refused")
            return real(work, hit, observer)

        monkeypatch.setattr(decomposer, "_run_pipeline", fail_first)
        t = decompose(g)
        assert works[:2] == [g.complement(), g]
        assert type(t) is (CoSgu if flipped else Sgu) and t.roles == pair.roles
        assert verify_tree(t, g).ok

    def test_error_messages(self, monkeypatch):
        monkeypatch.setattr(decomposer, "find_special_h6", lambda g: None)
        with pytest.raises(InternalStructureError) as err:
            decompose(h6())
        assert str(err.value) == "no decorated H6 in a prime non-split member or its complement"
        monkeypatch.undo()

        def refuse(work, hit, observer):
            raise ConstructionFailed("refused")

        monkeypatch.setattr(decomposer, "_run_pipeline", refuse)
        with pytest.raises(InternalStructureError) as err:
            decompose(BOTH_SIDES)
        assert str(err.value) == "both construction sides failed: refused"
