import itertools
import random

from p5house.graph import Graph, complete_graph, cycle_graph, path_graph, split_certificate
from p5house.census import labeled_graphs
from p5house.oracle import (
    _H6_SWAP,
    H6Hit,
    PatternKind,
    _PREFIX,
    _embeddings,
    _kernel,
    _twin_kernel,
    contains_induced_using,
    find_induced,
    find_special_h6,
    first_forbidden,
    is_class_member,
    validate_h6_hit,
    validate_hit,
)

from shared_graphs import random_graph
from test_decomposer import flip, substitution_member

H6_EDGES = [(1, 2), (2, 3), (3, 4), (2, 5), (3, 6), (5, 6)]


def h6(base=1):
    shift = base - 1
    return Graph(range(base, base + 6), [(u + shift, v + shift) for u, v in H6_EDGES])


def house_from_path_labels(p):
    # p0-p1-p2-p3-p4 with consecutive pairs NON-adjacent (complement of a path)
    edges = [
        (p[i], p[j])
        for i in range(5)
        for j in range(i + 1, 5)
        if j - i != 1
    ]
    return Graph(p, edges)


def brute_force_contains(g, kind):
    sizes = {PatternKind.P4: 4, PatternKind.P5: 5, PatternKind.C5: 5,
             PatternKind.HOUSE: 5, PatternKind.H6: 6}
    patterns = {
        PatternKind.P4: {(0, 1), (1, 2), (2, 3)},
        PatternKind.P5: {(0, 1), (1, 2), (2, 3), (3, 4)},
        PatternKind.C5: {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)},
        PatternKind.HOUSE: {(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)},
        PatternKind.H6: {(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 5)},
    }
    k = sizes[kind]
    pat = patterns[kind]
    for tup in itertools.permutations(g.vertices, k):
        if all(
            g.has_edge(tup[i], tup[j]) == ((i, j) in pat)
            for i in range(k)
            for j in range(i + 1, k)
        ):
            return True
    return False


class TestFindInduced:
    def test_p5_in_itself_is_identity(self):
        g = path_graph([0, 1, 2, 3, 4])
        hit = find_induced(g, PatternKind.P5)
        assert hit is not None and hit.embedding == (0, 1, 2, 3, 4)

    def test_c5_has_no_p5(self):
        g = cycle_graph(range(5))
        assert find_induced(g, PatternKind.P5) is None
        assert not brute_force_contains(g, PatternKind.P5)

    def test_house_fixture(self):
        g = house_from_path_labels([1, 2, 3, 4, 5])
        hit = find_induced(g, PatternKind.HOUSE)
        assert hit is not None
        assert validate_hit(g, hit)

    def test_agrees_with_permutation_search(self):
        rng = random.Random(99)
        for _ in range(150):
            g = random_graph(rng, rng.randint(0, 7))
            for kind in PatternKind:
                assert (find_induced(g, kind) is not None) == brute_force_contains(g, kind)

    def test_hits_revalidate(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_graph(rng, rng.randint(5, 8))
            for kind in PatternKind:
                hit = find_induced(g, kind)
                if hit is not None:
                    assert validate_hit(g, hit)

    def test_pinned_search_matches_permutation_search(self):
        patterns = {
            PatternKind.P5: {(0, 1), (1, 2), (2, 3), (3, 4)},
            PatternKind.HOUSE: {(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)},
        }
        rng = random.Random(17)
        for _ in range(60):
            g = random_graph(rng, rng.randint(4, 7))
            for kind, pat in patterns.items():
                for v in g.vertices:
                    expected = any(
                        v in t
                        and all(
                            g.has_edge(t[i], t[j]) == ((i, j) in pat)
                            for i in range(5)
                            for j in range(i + 1, 5)
                        )
                        for t in itertools.permutations(g.vertices, 5)
                    )
                    assert contains_induced_using(g, kind, v) == expected


KERNEL_KINDS = (PatternKind.P5, PatternKind.HOUSE, PatternKind.C5)


def assert_kernels_match_generic(graphs, complements=True):
    """The kernels' hit is the generic search's first embedding, exactly,
    on each graph and (with ``complements``) on its complement."""
    for g in graphs:
        for h in (g, g.complement()) if complements else (g,):
            for kind in KERNEL_KINDS:
                hit = find_induced(h, kind)
                first = next(_embeddings(h, kind), None)
                assert (None if hit is None else hit.embedding) == first, (kind, h.edges())


def seeded_random_graphs(count, max_n, seed):
    """Graphs with n <= max_n over the full density range, on shuffled
    non-contiguous ids so that positions and ids differ."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(0, max_n)
        ids = rng.sample(range(3 * max_n), n)
        p = rng.random()
        edges = [(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < p]
        out.append(Graph(ids, edges))
    return out


def generic_p5_by_v0(g):
    """For each vertex v of g in order, the generic search's first P5 whose
    v0 is v, or None: the pinned search yields the copies with the pinned
    vertex at position 0 first, in lexicographic order."""
    out = []
    for v in g.vertices:
        emb = next(_embeddings(g, PatternKind.P5, pin=v), None)
        out.append(emb if emb is not None and emb[0] == v else None)
    return out


class TestKernels:
    def test_first_hits_match_generic_on_all_small_graphs(self):
        # the labelled graphs on 0..n-1 are closed under complement
        graphs = (g for n in range(7) for g in labeled_graphs(n))
        assert_kernels_match_generic(graphs, complements=False)

    def test_first_hits_match_generic_on_random_graphs(self):
        assert_kernels_match_generic(seeded_random_graphs(2000, 16, seed=303))

    def test_house_hit_is_p5_kernel_hit_on_complement(self):
        hits = 0
        for g in seeded_random_graphs(400, 14, seed=404):
            house = find_induced(g, PatternKind.HOUSE)
            pos = _kernel(g.complement()._masks, cycle=False)
            expected = None if pos is None else tuple(g.vertices[i] for i in pos)
            assert (None if house is None else house.embedding) == expected
            hits += house is not None
        assert hits > 50

    def test_twin_walk_matches_plain_and_generic_above_the_limit(self):
        # the prefix scan's walk of _p5_scan, on graphs past 16 vertices: on
        # rank windows from several offsets to the end, against the plain
        # walk and the generic search, and on the windows [0, stop) for stop
        # in 1, _PREFIX and n - 1, against the plain walk's first hit where
        # its v0 lies below stop and None otherwise.  The graphs are random
        # graphs and their complements, substitution members and one-flip
        # near-members, and a graph whose v1 candidates 1 and 2 of v0 = 0
        # share their neighbourhood {4} outside N[0] but differ inside it (1
        # is adjacent to 3): 2 is skipped, and the hit lies under v1 = 3
        rng = random.Random(2207)
        graphs = []
        for _ in range(25):
            n = rng.randint(17, 60)
            ids = rng.sample(range(3 * n), n)
            p = rng.uniform(0.05, 0.95)
            g = Graph(ids, [(u, v) for u, v in itertools.combinations(ids, 2) if rng.random() < p])
            graphs += [g, g.complement()]
        for _ in range(12):
            member = substitution_member(rng, rng.randint(17, 28))
            graphs += [member, flip(rng, member), flip(rng, member)]
        crafted = Graph(range(17), [(0, 1), (0, 2), (0, 3), (0, 5), (1, 3), (1, 4), (2, 4),
                                    (4, 5), (3, 6), (6, 7), (7, 8)]
                        + list(itertools.combinations(range(9, 17), 2)))
        assert _twin_kernel(crafted._masks, 0, None) == (0, 3, 6, 7, 8)
        hits, inside, beyond = 0, 0, 0
        for g in graphs + [crafted]:
            by_v0 = generic_p5_by_v0(g)
            for first in sorted({0, 1, g.n // 3, 2 * g.n // 3, g.n - 5}):
                twin = _twin_kernel(g._masks, first, None)
                assert twin == _kernel(g._masks, False, first), (first, g.vertices, g.edges())
                emb = None if twin is None else tuple(g.vertices[i] for i in twin)
                generic = next((e for e in by_v0[first:] if e is not None), None)
                assert emb == generic, (first, g.vertices, g.edges())
                hits += twin is not None
            plain = _kernel(g._masks, False)
            for stop in (1, _PREFIX, g.n - 1):
                in_window = plain is not None and plain[0] < stop
                twin = _twin_kernel(g._masks, 0, stop)
                assert twin == (plain if in_window else None), (stop, g.vertices, g.edges())
                inside += in_window
                beyond += plain is not None and not in_window
        assert hits > 200 and inside > 150 and beyond > 10

    def test_c5_hit_is_canonical(self):
        # pentagon 3-9-4-7-5-3: least vertex first, then its smaller neighbour
        g = cycle_graph([3, 9, 4, 7, 5])
        assert find_induced(g, PatternKind.C5).embedding == (3, 5, 7, 4, 9)


class TestFirstForbidden:
    def test_p5_before_house(self):
        # a house on 0..4 plus a pendant path making a P5 with larger ids:
        # the P5 is reported first
        g = house_from_path_labels([0, 1, 2, 3, 4])
        assert first_forbidden(g).kind is PatternKind.HOUSE
        g2 = Graph(range(9), g.edges() + [(4, 5), (5, 6), (6, 7), (7, 8)])
        hit = first_forbidden(g2)
        assert hit.kind is PatternKind.P5
        assert hit == find_induced(g2, PatternKind.P5)

    def test_agrees_with_kinds_in_order(self):
        for g in seeded_random_graphs(300, 10, seed=505):
            for triple in (False, True):
                kinds = KERNEL_KINDS if triple else KERNEL_KINDS[:2]
                hits = [find_induced(g, kind) for kind in kinds]
                expected = next((h for h in hits if h is not None), None)
                assert first_forbidden(g, triple) == expected
                assert is_class_member(g, triple) == (expected is None)


class TestClassMember:
    def test_c5_modes(self):
        g = cycle_graph(range(5))
        assert is_class_member(g, triple=False)
        assert not is_class_member(g, triple=True)

    def test_p5_not_member(self):
        assert not is_class_member(path_graph(range(5)))

    def test_split_graphs_are_members(self):
        from p5house.census import labeled_graphs

        for n in range(7):
            for g in labeled_graphs(n):
                if split_certificate(g) is not None:
                    assert is_class_member(g, triple=True)

    def test_complement_invariance(self):
        rng = random.Random(31)
        for _ in range(120):
            g = random_graph(rng, rng.randint(0, 7))
            for triple in (False, True):
                assert is_class_member(g, triple) == is_class_member(g.complement(), triple)

    def test_house_iff_p5_in_complement(self):
        rng = random.Random(41)
        for _ in range(120):
            g = random_graph(rng, rng.randint(0, 7))
            assert (find_induced(g, PatternKind.HOUSE) is not None) == (
                find_induced(g.complement(), PatternKind.P5) is not None
            )


def reference_special_h6(g):
    """The decorated-H6 search by the generic search: the first H6
    embedding whose v1, v4 are simplicial and v2 or v3 anti-simplicial,
    normalized so that v2 is anti-simplicial."""
    simp = {v: g.is_simplicial(v) for v in g.vertices}
    anti = {v: g.is_anti_simplicial(v) for v in g.vertices}
    for emb in _embeddings(g, PatternKind.H6):
        if not (simp[emb[0]] and simp[emb[3]]):
            continue
        a2, a3 = anti[emb[1]], anti[emb[2]]
        if not (a2 or a3):
            continue
        if not a2:
            emb = tuple(emb[i] for i in _H6_SWAP)
            a2, a3 = a3, a2
        return H6Hit(
            embedding=emb,
            v1_simplicial=True,
            v4_simplicial=True,
            v2_anti_simplicial=a2,
            v3_anti_simplicial=a3,
        )
    return None


class TestSpecialH6Kernel:
    def test_matches_reference_on_all_small_graphs(self):
        # the labelled graphs on 0..n-1 are closed under complement
        hits = 0
        for g in (g for n in range(7) for g in labeled_graphs(n)):
            hit = find_special_h6(g)
            assert hit == reference_special_h6(g), g.edges()
            hits += hit is not None
        assert hits == 360

    @staticmethod
    def assert_matches_reference(graphs):
        hits = 0
        for g in graphs:
            for h in (g, g.complement()):
                hit = find_special_h6(h)
                assert hit == reference_special_h6(h), h.edges()
                hits += hit is not None
        return hits

    def test_matches_reference_on_random_graphs(self):
        # decorated copies are rare in uniform random graphs: 19 hits here
        assert self.assert_matches_reference(seeded_random_graphs(2000, 16, seed=606)) >= 10

    def test_matches_reference_on_graphs_grown_from_h6(self):
        """H6 plus up to ten vertices joined at random, on shuffled ids."""
        rng = random.Random(707)
        graphs = []
        for _ in range(1000):
            n = 6 + rng.randint(0, 10)
            p = rng.random()
            ids = rng.sample(range(3 * n), n)
            edges = [(ids[u - 1], ids[v - 1]) for u, v in H6_EDGES]
            edges += [(ids[u], ids[v]) for v in range(6, n) for u in range(v) if rng.random() < p]
            graphs.append(Graph(ids, edges))
        assert self.assert_matches_reference(graphs) > 200

    def test_named_cases_match_reference(self):
        only_v3 = Graph(range(1, 8), H6_EDGES + [(7, 4), (7, 6)])
        for g in (h6(), h6(base=5), complete_graph(range(4)), only_v3):
            assert find_special_h6(g) == reference_special_h6(g)


class TestSpecialH6:
    def test_h6_itself(self):
        g = h6(base=1)
        hit = find_special_h6(g)
        assert hit is not None
        assert hit.embedding == (1, 2, 3, 4, 5, 6)
        assert hit.v2_anti_simplicial and hit.v3_anti_simplicial
        assert validate_h6_hit(g, hit)

    def test_k4_has_none(self):
        assert find_special_h6(complete_graph(range(4))) is None

    def test_normalization_puts_anti_simplicial_second(self):
        # force only v3 anti-simplicial by adding an apex adjacent to v4, v6:
        # then non-neighbors of v2 include the apex and 4 with 4-apex an edge
        g = Graph(
            range(1, 8),
            H6_EDGES + [(7, 4), (7, 6)],
        )
        hit = find_special_h6(g)
        if hit is not None:
            assert g.is_anti_simplicial(hit.embedding[1])
            assert validate_h6_hit(g, hit)

    def test_prime_non_split_members_carry_one(self):
        """Every prime, non-split member found by seeded sampling (plus the
        canonical six-vertex family) has the decorated subgraph in itself or
        its complement."""
        from p5house.modular import find_proper_homogeneous_set

        cases = [h6(), h6().complement()]
        rng = random.Random(8080)
        for _ in range(4000):
            n = rng.choice([7, 8, 9])
            g = random_graph(rng, n, p=rng.choice([0.35, 0.5, 0.65]))
            if not is_class_member(g, triple=True):
                continue
            if split_certificate(g) is not None:
                continue
            if find_proper_homogeneous_set(g) is not None:
                continue
            cases.append(g)
        assert len(cases) > 2, "sampling found no prime non-split members"
        for g in cases:
            assert find_special_h6(g) is not None or find_special_h6(g.complement()) is not None
