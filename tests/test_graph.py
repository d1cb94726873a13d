import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p5house.graph import (
    Graph,
    MixedStatus,
    WitnessMode,
    complete_graph,
    cycle_graph,
    empty_graph,
    find_mixed_witness,
    path_graph,
    split_certificate,
)


def edge_set(g):
    return set(g.edges())


def random_graph(rng, n, p=0.5, base=0):
    verts = range(base, base + n)
    edges = [(u, v) for u, v in itertools.combinations(verts, 2) if rng.random() < p]
    return Graph(verts, edges)


class TestBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph([1, 2], [(1, 1)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError):
            Graph([1, 2], [(1, 3)])

    def test_induced_keeps_ids(self):
        g = path_graph([10, 20, 30, 40])
        h = g.induced({20, 30, 40})
        assert h.vertices == (20, 30, 40)
        assert edge_set(h) == {(20, 30), (30, 40)}

    def test_induced_with_a_marker_anywhere_in_the_id_order(self):
        rng = random.Random(11)
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 9), base=rng.choice([0, 5]) * 2)
            keep = [v for v in g.vertices if rng.random() < 0.6]
            attach = [v for v in keep if rng.random() < 0.5]
            free = [v for v in range(-1, 30) if v not in keep]
            marker = rng.choice(free)
            h = g._induced(g._mask_of(keep), marker, g._mask_of(attach))
            edges = g.induced(keep).edges() + [(marker, v) for v in attach]
            expected = Graph(keep + [marker], edges)
            assert h == expected
            assert h.vertices == tuple(sorted(keep + [marker]))

    def test_equality_is_label_exact(self):
        assert path_graph([1, 2, 3]) == path_graph([1, 2, 3])
        assert path_graph([1, 2, 3]) != path_graph([1, 3, 2])

    def test_duplicate_edges_absorbed(self):
        g = Graph([1, 2], [(1, 2), (2, 1), (1, 2)])
        assert g.edge_count == 1


class TestComplement:
    def test_triangle_complement_is_edgeless(self):
        assert edge_set(complete_graph([1, 2, 3]).complement()) == set()

    def test_p4_is_self_complementary(self):
        g = path_graph([1, 2, 3, 4])
        assert edge_set(g.complement()) == edge_set(path_graph([2, 4, 1, 3]))

    def test_c5_complement_is_a_five_cycle(self):
        g = cycle_graph([1, 2, 3, 4, 5])
        assert edge_set(g.complement()) == edge_set(cycle_graph([1, 3, 5, 2, 4]))

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 10))
            assert g.complement().complement() == g


class TestComponents:
    def test_two_disjoint_edges(self):
        g = Graph([1, 2, 3, 4], [(1, 2), (3, 4)])
        assert g.components() == [frozenset({1, 2}), frozenset({3, 4})]

    def test_anti_components_of_complete_bipartite(self):
        g = Graph([1, 2, 3, 4], [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert g.anti_components() == [frozenset({1, 2}), frozenset({3, 4})]

    def test_c5_is_one_component(self):
        g = cycle_graph([1, 2, 3, 4, 5])
        assert g.components() == [g.vertex_set]

    def test_duality_with_complement(self):
        rng = random.Random(11)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 9))
            assert g.components() == g.complement().anti_components()


class TestMixedStatus:
    def test_star_center_complete(self):
        g = Graph(range(5), [(0, i) for i in range(1, 5)])
        assert g.mixed_status(0, {1, 2, 3, 4}) is MixedStatus.COMPLETE

    def test_isolated_vertex_anti_complete(self):
        g = Graph(range(4), [(1, 2), (2, 3)])
        assert g.mixed_status(0, {1, 2, 3}) is MixedStatus.ANTI_COMPLETE

    def test_path_vertex_mixed(self):
        g = Graph([1, 2, 3, 4], [(1, 2), (2, 3)])
        assert g.mixed_status(2, {1, 4}) is MixedStatus.MIXED

    def test_rejects_member_probe(self):
        g = path_graph([1, 2, 3])
        with pytest.raises(ValueError):
            g.mixed_status(1, {1, 2})

    def test_rejects_empty_set(self):
        g = path_graph([1, 2, 3])
        with pytest.raises(ValueError):
            g.mixed_status(1, set())


class TestSimplicial:
    def test_path_leaf_simplicial(self):
        g = path_graph([1, 2, 3])
        assert g.is_simplicial(1)
        assert not g.is_simplicial(2)

    def test_h6_decorations(self):
        g = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (2, 5), (3, 6), (5, 6)])
        assert g.is_simplicial(1) and g.is_simplicial(4)
        # non-neighbors of vertex 2 are {4, 6}, a stable pair
        assert not g.has_edge(4, 6)
        assert g.is_anti_simplicial(2)

    def test_universal_vertex_anti_simplicial(self):
        g = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert g.is_anti_simplicial(0)

    def test_duality(self):
        rng = random.Random(3)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8))
            for v in g.vertices:
                assert g.is_anti_simplicial(v) == g.complement().is_simplicial(v)


def brute_force_split(g):
    """Whether some subset of the vertices is a clique whose complement is
    stable, trying every subset, on adjacency masks read off has_edge."""
    vs = list(g.vertices)
    n = len(vs)
    adj = [sum(1 << j for j, w in enumerate(vs) if g.has_edge(v, w)) for v in vs]
    full = (1 << n) - 1
    for clique in range(1 << n):
        stable = full ^ clique
        if all((adj[i] | 1 << i) & clique == clique for i in range(n) if clique >> i & 1) and all(
            not adj[i] & stable for i in range(n) if stable >> i & 1
        ):
            return True
    return False


class TestSplitCertificate:
    def test_triangle(self):
        cert = split_certificate(complete_graph([1, 2, 3]))
        assert cert is not None
        assert cert.clique == frozenset({1, 2, 3})
        assert cert.stable == frozenset()

    def test_c4_not_split(self):
        g = cycle_graph([1, 2, 3, 4])
        assert split_certificate(g) is None
        assert not brute_force_split(g)

    def test_c5_not_split(self):
        g = cycle_graph([1, 2, 3, 4, 5])
        assert split_certificate(g) is None
        assert not brute_force_split(g)

    def test_empty_and_single(self):
        assert split_certificate(empty_graph([])) is not None
        assert split_certificate(empty_graph([5])) is not None

    def test_agrees_with_brute_force_up_to_n6(self):
        # every labelled graph up to six vertices, then seeded random
        # graphs with n 7..14: as many split graphs (a random clique and
        # stable set with random edges between them, so degrees tie often)
        # as arbitrary ones, each with one vertex pair flipped half the time
        from p5house.census import labeled_graphs

        rng = random.Random(1607)
        graphs = [g for n in range(7) for g in labeled_graphs(n)]
        for n in range(7, 15):
            for i in range(24):
                if i % 2:
                    g = random_graph(rng, n, rng.random())
                else:
                    k = rng.randint(0, n)
                    p = rng.random()
                    edges = list(itertools.combinations(range(k), 2))
                    edges += [(u, v) for u in range(k) for v in range(k, n) if rng.random() < p]
                    g = Graph(range(n), edges)
                if rng.random() < 0.5:
                    edges = set(g.edges()) ^ {tuple(sorted(rng.sample(range(n), 2)))}
                    g = Graph(range(n), edges)
                graphs.append(g)
        found = 0
        for g in graphs:
            cert = split_certificate(g)
            assert (cert is not None) == brute_force_split(g)
            if cert is not None:
                found += g.n >= 7
                assert cert.clique | cert.stable == g.vertex_set
                assert not cert.clique & cert.stable
                assert g.is_clique(cert.clique)
                assert g.is_stable(cert.stable)
        assert found >= 50


class TestMixedWitness:
    def test_path_attachment(self):
        g = Graph([1, 2, 3, 9], [(1, 2), (2, 3), (9, 1)])
        assert find_mixed_witness(g, 9, {1, 2, 3}, WitnessMode.CONNECTED_EDGE) == (1, 2)

    def test_c5_pair(self):
        g = cycle_graph([1, 2, 3, 4, 5])
        assert find_mixed_witness(g, 1, {2, 3}, WitnessMode.CONNECTED_EDGE) == (2, 3)

    def test_rejects_non_mixed(self):
        g = path_graph([1, 2, 3])
        with pytest.raises(ValueError):
            find_mixed_witness(g, 1, {2}, WitnessMode.CONNECTED_EDGE)

    def test_rejects_disconnected_probe_set(self):
        g = Graph([1, 2, 3, 4], [(1, 2), (1, 3)])
        with pytest.raises(ValueError):
            find_mixed_witness(g, 1, {2, 3}, WitnessMode.CONNECTED_EDGE)

    @staticmethod
    def _check_all(g):
        vs = list(g.vertices)
        for v in vs:
            others = [u for u in vs if u != v]
            for r in range(1, len(others) + 1):
                for xs in itertools.combinations(others, r):
                    x = frozenset(xs)
                    if g.mixed_status(v, x) is not MixedStatus.MIXED:
                        continue
                    if g.connected_on(x):
                        x1, x2 = find_mixed_witness(g, v, x, WitnessMode.CONNECTED_EDGE)
                        assert g.has_edge(v, x1) and not g.has_edge(v, x2)
                        assert g.has_edge(x1, x2)
                    if g.anti_connected_on(x):
                        x1, x2 = find_mixed_witness(
                            g, v, x, WitnessMode.ANTI_CONNECTED_NON_EDGE
                        )
                        assert g.has_edge(v, x1) and not g.has_edge(v, x2)
                        assert not g.has_edge(x1, x2)

    def test_contract_exhaustive_small(self):
        from p5house.census import labeled_graphs

        for n in range(6):
            for g in labeled_graphs(n):
                self._check_all(g)

    def test_contract_sampled_n6(self):
        from p5house.census import graph_from_pair_mask

        rng = random.Random(2024)
        for _ in range(400):
            g = graph_from_pair_mask(6, rng.getrandbits(15))
            self._check_all(g)


# -- the mask kernel's duals ---------------------------------------------------


@st.composite
def graphs_and_masks(draw):
    """A random graph on up to ten vertices with sparse ids, and a mask of
    its vertices."""
    n = draw(st.integers(0, 10))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    pairs = list(itertools.combinations(ids, 2))
    edges = [e for e, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                        max_size=len(pairs)))) if keep]
    return Graph(ids, edges), draw(st.integers(0, (1 << n) - 1))


class TestMaskKernelDuals:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(graphs_and_masks())
    def test_anti_components_are_the_complements_components(self, gm):
        g, m = gm
        assert g._anti_components_masks(m) == g.complement()._components_masks(m)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(graphs_and_masks())
    def test_clique_and_stable_against_every_pair(self, gm):
        g, m = gm
        pairs = list(itertools.combinations(sorted(g._set_of(m)), 2))
        assert g._clique(m) == all(g.has_edge(u, v) for u, v in pairs)
        assert g._stable(m) == (not any(g.has_edge(u, v) for u, v in pairs))
