"""Refutation above the size limit: first_forbidden and decompose read the
prime nodes of the modular decomposition, after a short P5 scan of the
whole graph, and give the brute-force search's hits exactly."""

import itertools
import random

import pytest

from p5house import oracle
from p5house.decomposer import NotClassMember, decompose
from p5house.graph import Graph
from p5house.oracle import PatternHit, PatternKind, find_induced, first_forbidden, is_class_member

from test_decomposer import chain, flip, substitution_member

KINDS = (PatternKind.P5, PatternKind.HOUSE, PatternKind.C5)


def reference(g):
    """The brute-force refutation in both modes, from whole-graph scans:
    {triple: the first P5, else house, else (with triple) C5, or None}."""
    out = {}
    for kind in KINDS:
        hit = find_induced(g, kind)
        if hit is not None:
            if kind is not PatternKind.C5:
                out[False] = hit
            out[True] = hit
            break
    out.setdefault(False, None)
    out.setdefault(True, None)
    return out


def decompose_hit(g, triple):
    try:
        decompose(g, triple=triple)
    except NotClassMember as exc:
        return exc.hit
    return None


def assert_matches_reference(g):
    """first_forbidden, is_class_member and decompose's rejection all give
    the whole-graph search's answer, in both modes; returns it."""
    expected = reference(g)
    for triple in (False, True):
        hit = expected[triple]
        assert first_forbidden(g, triple) == hit, (triple, g.vertices, g.edges())
        assert is_class_member(g, triple) == (hit is None)
        assert decompose_hit(g, triple) == hit, (triple, g.vertices, g.edges())
    return expected


def random_graph(rng, n):
    """n vertices on scattered ids, edge density drawn from [0, 1]."""
    ids = rng.sample(range(3 * n), n)
    p = rng.random()
    return Graph(ids, [(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < p])


def late_p5():
    """A non-member above the size limit whose only P5, k, k+2, ..., k+8
    for k = oracle._PREFIX, begins at rank k, the first rank past the
    whole-graph prefix: a clique on 0..k-1 joined to the disjoint union of
    that path and a clique on the other vertices, at least six."""
    k = oracle._PREFIX
    n = max(k + 11, oracle._WHOLE_GRAPH_MAX + 1)
    path = list(range(k, k + 9, 2))
    clique = [v for v in range(k, n) if v not in path]
    edges = list(itertools.combinations(range(k), 2))
    edges += [(u, v) for u in range(k) for v in path + clique]
    edges += list(zip(path, path[1:])) + list(itertools.combinations(clique, 2))
    return Graph(range(n), edges)


class TestAgainstTheReference:
    def test_random_graphs_and_complements(self):
        rng = random.Random(4801)
        kinds = set()
        for _ in range(2000):
            g = random_graph(rng, rng.randint(17, 48))
            for h in (g, g.complement()):
                expected = assert_matches_reference(h)
                kinds.add(None if expected[True] is None else expected[True].kind)
        # past 16 vertices a random graph is a P5 or house non-member, but
        # for the densest and sparsest draws
        assert kinds == {None, PatternKind.P5, PatternKind.HOUSE}

    def test_substitution_members_and_near_members(self):
        rng = random.Random(4802)
        beyond_prefix = house_only = 0
        for _ in range(150):
            member = substitution_member(rng, rng.randint(17, 60))
            assert assert_matches_reference(member)[False] is None
            for _ in range(2):
                near = flip(rng, member)
                for h in (near, near.complement()):
                    hit = assert_matches_reference(h)[False]
                    if hit is None:
                        continue
                    house_only += hit.kind is PatternKind.HOUSE
                    beyond_prefix += (hit.kind is PatternKind.P5
                                      and h.vertices.index(hit.embedding[0]) >= oracle._PREFIX)
        assert house_only >= 10 and beyond_prefix >= 10

    @pytest.mark.parametrize("n", [60, 200])
    def test_chain(self, n):
        g = chain(n)
        assert assert_matches_reference(g) == {False: None, True: None}

    def test_boundary_sizes(self):
        rng = random.Random(4803)
        for n in (oracle._WHOLE_GRAPH_MAX, oracle._WHOLE_GRAPH_MAX + 1):
            for _ in range(150):
                g = random_graph(rng, n)
                for h in (g, g.complement(), substitution_member(rng, n)):
                    assert_matches_reference(h)
                    assert_matches_reference(flip(rng, h))

    def test_only_p5_begins_past_the_prefix(self):
        # Above the size limit, g has a vertex at rank _PREFIX, where the
        # search on the prime nodes starts.
        assert oracle._PREFIX <= oracle._WHOLE_GRAPH_MAX
        g = late_p5()
        k = oracle._PREFIX
        assert g.n > oracle._WHOLE_GRAPH_MAX
        assert oracle._twin_kernel(g._masks, 0, k) is None
        assert oracle._kernel(g._masks, False)[0] == k
        expected = PatternHit(kind=PatternKind.P5, embedding=tuple(range(k, k + 9, 2)))
        assert assert_matches_reference(g) == {False: expected, True: expected}


class TestPlacement:
    def test_is_class_member_above_the_limit(self, calls):
        # One P5 scan of the whole graph over the prefix ranks, the first
        # call and the only twin walk, one decomposition tree, whose prime
        # nodes are read once, for P5 from the next rank on and then for the
        # other kinds, and scans of smaller graphs only: no whole-graph
        # house scan, on members, house-only near-members and late_p5.
        rng = random.Random(4804)
        members, house_only = [], []
        while len(house_only) < 10:
            g = substitution_member(rng, rng.randint(20, 41))
            if len(members) < 10:
                members.append(g)
            near = flip(rng, g)
            if find_induced(near, PatternKind.P5) is None and find_induced(near, PatternKind.HOUSE):
                house_only.append(near)
        for g in [late_p5()] + members + house_only:
            expected = reference(g)
            for triple in (False, True):
                calls.clear()
                assert is_class_member(g, triple) == (expected[triple] is None)
                assert calls[0] == calls.prefix(g) and calls.of("twin") == [calls.prefix(g)]
                assert all(h.n < g.n for _, h, _ in calls.of("scan"))
                roots = calls.roots()
                assert len(roots) == 1 and roots[0].mask == g._full_mask()
                assert all(len(masks) < g.n for _, masks, *_ in calls.of("kernel"))

    def test_whole_graph_scans_up_to_the_limit(self, calls):
        g = substitution_member(random.Random(4805), oracle._WHOLE_GRAPH_MAX)
        is_class_member(g)
        assert calls.of("scan") == [("scan", g, PatternKind.P5), ("scan", g, PatternKind.HOUSE)]
        assert calls.of("twin", "reps") == []

    def test_prime_representatives_built_once(self, calls, monkeypatch):
        # Above the size limit the representative graphs of g's prime nodes
        # are built once per call, by the P5 scan, and every later search
        # reads those same graphs: first_forbidden on members, decompose on
        # house-only near-members, whose house is looked for after the
        # build has raised.
        induced = Graph._induced
        built = []

        def induced_logged(h, *args):
            built.append(h)
            return induced(h, *args)

        monkeypatch.setattr(Graph, "_induced", induced_logged)
        rng = random.Random(4806)
        members = house_only = 0
        while members < 20 or house_only < 10:
            g = substitution_member(rng, rng.randint(20, 41))
            near = flip(rng, g)
            for h, check in ((g, first_forbidden), (near, decompose_hit)):
                if check is decompose_hit and (find_induced(h, PatternKind.P5) is not None
                                               or first_forbidden(h) is None):
                    continue
                for triple in (False, True):
                    calls.clear()
                    built.clear()
                    check(h, triple)
                    assert len(calls.of("reps")) == 1
                    read = [nodes for _, nodes, _ in calls.of("least_hit")]
                    assert len(read) >= 2 and all(nodes is read[0] for nodes in read)
                    if check is first_forbidden:
                        assert built.count(h) == len(built) == len(read[0])
                members += check is first_forbidden
                house_only += check is decompose_hit
