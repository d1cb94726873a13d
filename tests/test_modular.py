import itertools
import random

import pytest

import reference_prime_parts as reference
from p5house.graph import Graph, MixedStatus, complete_graph, cycle_graph, path_graph
from p5house.modular import (
    HomogeneousSet,
    find_proper_homogeneous_set,
    is_homogeneous,
    quotient_factor,
    substitute,
)
from p5house.oracle import is_class_member
from shared_graphs import random_graph
from test_decomposer import flip, substitution_member


def diamond():
    return Graph([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])


def brute_force_proper_homogeneous(g):
    vs = list(g.vertices)
    out = []
    for r in range(2, len(vs)):
        for xs in itertools.combinations(vs, r):
            if is_homogeneous(g, frozenset(xs)):
                out.append(frozenset(xs))
    return out


def pair_closure(g, seed):
    """Smallest homogeneous set containing the seed, by adding mixed
    vertices until none is left."""
    m = g._mask_of(seed)
    full = g._full_mask()
    changed = True
    while changed and m != full:
        changed = False
        rest = full & ~m
        while rest:
            b = rest & -rest
            rest ^= b
            hit = g._masks[b.bit_length() - 1] & m
            if hit != 0 and hit != m:
                m |= b
                changed = True
    return g._set_of(m)


def reference_homogeneous_set(g):
    """The all-pairs search: the largest proper pair closure, ties broken
    by the smaller sorted member tuple; None iff the graph is prime."""
    if g.n < 3:
        return None
    best = None
    vs = g.vertices
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            closed = pair_closure(g, {u, v})
            if len(closed) > g.n - 1:
                continue
            if (
                best is None
                or len(closed) > len(best)
                or (len(closed) == len(best) and sorted(closed) < sorted(best))
            ):
                best = closed
    return best


def found_members(g):
    hs = find_proper_homogeneous_set(g)
    return None if hs is None else hs.members


def substitution_graph(rng, n_max):
    """A random graph grown by substituting random graphs for vertices, so
    that its modular decomposition has prime and degenerate nodes at
    several levels; vertex ids are scattered."""
    def rnd(ids):
        p = rng.random()
        return Graph(ids, [(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < p])

    target = rng.randint(1, n_max)
    ids = iter(rng.sample(range(1000), 1000))
    g = rnd([next(ids) for _ in range(min(target, rng.randint(1, 5)))])
    while g.n < target:
        inner = rnd([next(ids) for _ in range(rng.randint(2, min(5, target - g.n + 1)))])
        g = substitute(inner, g, rng.choice(g.vertices))
    return g


class TestFindProperHomogeneousSet:
    def test_diamond(self):
        g = diamond()
        # the two degree-two vertices form a homogeneous set ...
        assert is_homogeneous(g, frozenset({3, 4}))
        # ... and the search returns some valid proper one (here the larger
        # {1, 3, 4}, which vertex 2 is complete to)
        hs = find_proper_homogeneous_set(g)
        assert hs is not None
        assert hs.members == frozenset({1, 3, 4})
        hs.validate()

    def test_p4_is_prime(self):
        g = path_graph([1, 2, 3, 4])
        assert find_proper_homogeneous_set(g) is None
        assert brute_force_proper_homogeneous(g) == []

    def test_c5_is_prime(self):
        g = cycle_graph(range(5))
        assert find_proper_homogeneous_set(g) is None
        assert brute_force_proper_homogeneous(g) == []

    def test_none_iff_brute_force_empty(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 7))
            hs = find_proper_homogeneous_set(g)
            brute = brute_force_proper_homogeneous(g)
            assert (hs is None) == (not brute)
            if hs is not None:
                assert hs.members in brute


class TestSameChoiceAsPairSearch:
    """The search reads the answer off the top of the modular
    decomposition; the all-pairs closure search above is the reference."""

    def test_every_graph_up_to_six_vertices(self):
        from p5house.census import labeled_graphs

        for n in range(7):
            for g in labeled_graphs(n):
                assert found_members(g) == reference_homogeneous_set(g), g.edges()

    def test_random_graphs_up_to_sixteen_vertices(self):
        rng = random.Random(2024)
        for i in range(3000):
            if i % 3:
                g = substitution_graph(rng, 16)
            else:
                g = random_graph(rng, rng.randint(1, 16), rng.random())
            assert found_members(g) == reference_homogeneous_set(g), (g.vertices, g.edges())

    def test_every_graph_decompose_reaches(self):
        # decompose reads its homogeneous sets off the modular
        # decomposition: every substitution node of its trees substitutes
        # the set the all-pairs search picks on the node's graph, and every
        # unification node's graph is prime.
        from p5house.decomposer import CoSgu, Sgu, Subst, decompose, recompose
        from p5house.generator import GenConfig, generate

        seen = []
        for seed in range(80):
            g, _ = generate(GenConfig(seed=seed, max_depth=4))
            stack = [decompose(g)]
            while stack:
                t = stack.pop()
                if isinstance(t, Subst):
                    chosen = recompose(t.child).vertex_set
                    assert chosen == reference_homogeneous_set(recompose(t))
                    stack += [t.quotient, t.child]
                elif isinstance(t, (Sgu, CoSgu)):
                    assert reference_homogeneous_set(recompose(t)) is None
                    stack += [t.part1, t.part2]
                else:
                    continue
                seen.append(isinstance(t, Subst))
        assert sum(seen) > 100 and not all(seen)

    def test_degenerate_root_with_three_children(self):
        # components {0}, {1, 2}, {3, 4, 5}: the two largest, not all but
        # the smallest child alone
        g = Graph(range(6), [(1, 2), (3, 4), (4, 5)])
        assert found_members(g) == frozenset({1, 2, 3, 4, 5})
        # the complement: a series root, same answer
        assert found_members(g.complement()) == frozenset({1, 2, 3, 4, 5})
        # three components of size two: the two with the lowest ids win
        g = Graph(range(8), [(0, 5), (1, 2), (3, 7)])
        assert found_members(g) == frozenset({0, 1, 2, 5})
        for h in (g, g.complement()):
            assert found_members(h) == reference_homogeneous_set(h)

    def test_equal_size_ties(self):
        # P4 with each end blown up into an edge: two prime-root children
        # of size two tie, and the lower sorted tuple wins
        g = Graph([1, 2, 3, 4, 5, 6], [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
        assert found_members(g) == frozenset({1, 2}) == reference_homogeneous_set(g)
        # the same with ids that put the other child first
        g = Graph([9, 8, 3, 4, 5, 6], [(9, 8), (9, 3), (8, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
        assert found_members(g) == frozenset({5, 6}) == reference_homogeneous_set(g)

    def test_two_child_root_with_a_wide_degenerate_child(self):
        # K1 plus a disjoint triangle bcd: the pair closures inside the
        # triangle are its edges, so the answer is {b, c}, not the module
        # {b, c, d}
        a, b, c, d = 1, 2, 3, 4
        g = Graph([a, b, c, d], [(b, c), (b, d), (c, d)])
        assert found_members(g) == frozenset({b, c}) == reference_homogeneous_set(g)


def substitute_by_edges(g1, g2, u):
    """Substitution spelled out on edge lists: g1's edges, g2's edges away
    from u, and every g2-neighbour of u joined to all of g1."""
    verts = list(g1.vertices) + [v for v in g2.vertices if v != u]
    edges = g1.edges() + [(a, b) for a, b in g2.edges() if u not in (a, b)]
    for v in g2.neighbors(u):
        edges.extend((v, w) for w in g1.vertices)
    return Graph(verts, edges)


class TestSubstitute:
    def test_same_graph_as_edge_lists(self):
        rng = random.Random(31)
        for _ in range(2000):
            n1, n2 = rng.randint(1, 9), rng.randint(1, 9)
            ids = rng.sample(range(60), n1 + n2)
            g1 = Graph(ids[:n1], [e for e in itertools.combinations(ids[:n1], 2) if rng.random() < 0.5])
            g2 = Graph(ids[n1:], [e for e in itertools.combinations(ids[n1:], 2) if rng.random() < 0.5])
            u = rng.choice(g2.vertices)
            assert substitute(g1, g2, u) == substitute_by_edges(g1, g2, u)
            # the marker convention: u may also be a vertex of g1
            g1u = Graph(g1.vertices + (u,), g1.edges() + [(u, v) for v in g1.vertices if rng.random() < 0.5])
            assert substitute(g1u, g2, u) == substitute_by_edges(g1u, g2, u)
    def test_k2_into_path_center_gives_diamond(self):
        g1 = complete_graph([8, 9])
        g2 = path_graph([1, 2, 3])
        out = substitute(g1, g2, 2)
        assert out.vertex_set == frozenset({1, 3, 8, 9})
        assert set(out.edges()) == {(8, 9), (1, 8), (1, 9), (3, 8), (3, 9)}

    def test_single_vertex_renames(self):
        g1 = Graph([7])
        g2 = path_graph([1, 2, 3])
        out = substitute(g1, g2, 2)
        assert out == path_graph([1, 7, 3])

    def test_two_isolated_into_edge_gives_p3(self):
        g1 = Graph([5, 6])
        g2 = complete_graph([1, 2])
        out = substitute(g1, g2, 2)
        assert out == Graph([1, 5, 6], [(1, 5), (1, 6)])

    def test_rejects_bad_site(self):
        with pytest.raises(ValueError):
            substitute(Graph([5]), path_graph([1, 2, 3]), 9)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            substitute(Graph([1, 5]), path_graph([1, 2, 3]), 2)

    def test_allows_marker_overlap_only(self):
        # the substituted vertex itself may reappear inside the inner graph
        out = substitute(Graph([2, 5], [(2, 5)]), path_graph([1, 2, 3]), 2)
        assert out.vertex_set == frozenset({1, 2, 3, 5})


def quotient_factor_by_edges(g, h):
    """The split spelled out on edge lists: the members' induced subgraph,
    and the rest of g with the least member joined to every vertex
    complete to the set."""
    members = h.members
    marker = min(members)
    child = g.induced(members)
    outside = [v for v in g.vertices if v not in members]
    q_edges = [(a, b) for a, b in g.edges() if a not in members and b not in members]
    for v in outside:
        if g.mixed_status(v, members) is MixedStatus.COMPLETE:
            q_edges.append((v, marker))
    return child, Graph(outside + [marker], q_edges), marker


class TestQuotientFactor:
    def test_diamond_round_trip(self):
        g = diamond()
        hs = HomogeneousSet(host=g, members=frozenset({3, 4}))
        child, quotient, marker = quotient_factor(g, hs)
        assert marker == 3
        assert child == Graph([3, 4])
        assert quotient == complete_graph([1, 2, 3])
        assert substitute(child, quotient, marker) == g

    def test_round_trip_exhaustive_small(self):
        from p5house.census import labeled_graphs

        for n in range(7):
            for g in labeled_graphs(n):
                hs = find_proper_homogeneous_set(g)
                if hs is None:
                    continue
                child, quotient, marker = quotient_factor(g, hs)
                assert child.n < g.n and quotient.n < g.n
                assert substitute(child, quotient, marker) == g
                assert (child, quotient, marker) == quotient_factor_by_edges(g, hs)

    def test_round_trip_sampled_n7(self):
        rng = random.Random(777)
        for _ in range(3000):
            g = random_graph(rng, 7)
            hs = find_proper_homogeneous_set(g)
            if hs is None:
                continue
            child, quotient, marker = quotient_factor(g, hs)
            assert substitute(child, quotient, marker) == g

    def test_same_split_as_edge_lists(self):
        rng = random.Random(41)
        checked = 0
        while checked < 2000:
            g = substitution_graph(rng, 16)
            hs = find_proper_homogeneous_set(g)
            if hs is not None:
                assert quotient_factor(g, hs) == quotient_factor_by_edges(g, hs)
                checked += 1

    def test_prime_graph_rejected(self):
        g = cycle_graph(range(5))
        with pytest.raises(ValueError):
            quotient_factor(g, HomogeneousSet(host=g, members=frozenset({0, 1})))


class TestClassClosure:
    def test_substitution_preserves_membership(self):
        rng = random.Random(55)
        produced = 0
        while produced < 60:
            g1 = random_graph(rng, rng.randint(2, 5))
            g2base = random_graph(rng, rng.randint(2, 5))
            g2 = Graph(
                [v + 10 for v in g2base.vertices],
                [(u + 10, v + 10) for u, v in g2base.edges()],
            )
            if not (is_class_member(g1) and is_class_member(g2)):
                continue
            u = rng.choice(g2.vertices)
            assert is_class_member(substitute(g1, g2, u))
            produced += 1


def strong_modules(g):
    """Brute force: the modules of g (the empty set aside) that overlap no
    other module."""
    n = g.n
    modules = [m for m in range(1, 1 << n) if is_homogeneous(g, g._set_of(m))]
    return {m for m in modules
            if not any(m & o and m & ~o and o & ~m for o in modules)}


class TestDecompositionTree:
    """modular._Node, split all the way down, is the modular
    decomposition tree."""

    def check(self, g):
        from p5house.modular import _PARALLEL, _PRIME, _SERIES, _Node

        stack, nodes = [_Node(g._full_mask())], []
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.kids(g))
        assert {node.mask for node in nodes} == strong_modules(g)
        for node in nodes:
            kids = [k.mask for k in node.kids(g)]
            kind = node.kind(g)
            if not kids:
                assert node.mask.bit_count() == 1 and kind == _PRIME
                continue
            assert sum(kids) == node.mask and len(kids) >= 2
            if kind == _PARALLEL:
                assert sorted(kids) == sorted(g._components_masks(node.mask))
            elif kind == _SERIES:
                assert sorted(kids) == sorted(g._anti_components_masks(node.mask))
            else:
                assert kind == _PRIME and len(kids) >= 4

    def test_every_graph_up_to_five_vertices(self):
        from p5house.census import labeled_graphs

        for n in range(1, 6):
            for g in labeled_graphs(n):
                self.check(g)

    def test_random_graphs_up_to_ten_vertices(self):
        rng = random.Random(77)
        for i in range(300):
            n = rng.randint(1, 10)
            g = substitution_graph(rng, n) if i % 2 else random_graph(rng, n, rng.random())
            self.check(g)


def prime_graph(rng, ids):
    """A random prime graph on ``ids``, |ids| >= 4: the reference closure
    of every vertex pair is the whole graph."""
    full = (1 << len(ids)) - 1
    while True:
        g = random_graph(rng, len(ids))
        if all(reference.closure(g._masks, full, 1 << u | 1 << v) == full
               for u, v in itertools.combinations(range(len(ids)), 2)):
            return Graph(ids, [(ids[u], ids[v]) for u, v in g.edges()])


class TestPrimePartsAgainstReference:
    """modular._prime_parts splits each prime node into the same children
    as the reference split by one full closure per part
    (reference_prime_parts), on graphs with n 17..60."""

    def reference_split(self, g, m):
        from p5house.modular import _PARALLEL, _PRIME, _SERIES

        if not m & (m - 1):
            return _PRIME, []
        for kind, parts in ((_PARALLEL, g._components_masks(m)),
                            (_SERIES, g._anti_components_masks(m))):
            if len(parts) > 1:
                return kind, parts
        return _PRIME, reference.prime_parts(g._masks, m)

    def check(self, g):
        """Walk g's decomposition tree, split all the way down, beside the
        reference's; return its prime nodes with children, as a map from
        mask to the children's masks."""
        from p5house.modular import _PRIME, _Node

        primes = {}
        stack = [_Node(g._full_mask())]
        while stack:
            node = stack.pop()
            kind, parts = self.reference_split(g, node.mask)
            kids = node.kids(g)
            assert node.kind(g) == kind
            assert sorted(k.mask for k in kids) == sorted(parts)
            if kind == _PRIME and kids:
                primes[node.mask] = [k.mask for k in kids]
            stack.extend(kids)
        return primes

    def test_random_graphs_and_their_complements(self):
        rng = random.Random(1901)
        for _ in range(30):
            g = random_graph(rng, rng.randint(17, 60), rng.uniform(0.2, 0.8))
            self.check(g)
            self.check(g.complement())

    def test_substitution_graphs(self):
        rng = random.Random(1902)
        done = 0
        while done < 40:
            g = substitution_graph(rng, 60)
            if g.n >= 17:
                self.check(g)
                done += 1

    def test_near_members_of_substitution_members(self):
        rng = random.Random(1903)
        for _ in range(40):
            g = flip(rng, substitution_member(rng, rng.randint(17, 60)))
            self.check(g)

    def test_least_vertex_inside_a_large_prime_child(self):
        # M(v) is a prime child of 24 vertices, split further: the closure
        # of v and any of its other vertices takes in all of it.
        rng = random.Random(1904)
        inner = substitute(prime_graph(rng, list(range(20, 25))), prime_graph(rng, list(range(20))), 19)
        g = substitute(inner, prime_graph(rng, list(range(100, 120))), 100)
        primes = self.check(g)
        assert g.vertices[0] == 0
        assert g._mask_of(inner.vertices) in primes[g._full_mask()]

    def test_least_vertex_a_child_of_its_own(self):
        # M(v) = {v}, the other children large modules.
        rng = random.Random(1905)
        g = prime_graph(rng, list(range(20)))
        for u, size in ((5, 8), (11, 12), (17, 6)):
            ids = [100 * u + x for x in range(size)]
            g = substitute(Graph(ids, [(ids[a], ids[b]) for a, b in random_graph(rng, size).edges()]), g, u)
        kids = self.check(g)[g._full_mask()]
        assert 1 in kids and max(k.bit_count() for k in kids) == 12
