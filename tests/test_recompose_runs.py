"""recompose and verify_tree against the per-node reference.

recompose and verify_tree compose each maximal run of substitutions at once
(modular._compose).  reference_recompose keeps the per-node bodies they
replaced, which build every intermediate graph; on every tree here both
must give the same graph (ids and masks) or the same MalformedTree path and
message, and the same TreeReport: failures in order, depth, leaf counts.
"""

import itertools
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_recompose as reference
from p5house.census import labeled_graphs
from p5house.decomposer import (
    CoSgu,
    MalformedTree,
    NotClassMember,
    PentagonLeaf,
    Sgu,
    SplitLeaf,
    Subst,
    decompose,
    recompose,
    verify_tree,
)
from p5house.divide import PairRoles
from p5house.generator import GenConfig, generate, random_composable_pair
from p5house.graph import Graph, SplitCert, cycle_graph, split_certificate
from p5house.oracle import is_class_member


def outcome(fn, tree):
    try:
        g = fn(tree)
    except MalformedTree as exc:
        return "malformed", exc.path, str(exc)
    return "graph", g._vs, g._masks


def report(fn, tree, g):
    rep = fn(tree, g)
    return rep.ok, rep.failures, rep.depth, rep.leaf_counts


def assert_same(tree, g=None):
    got = outcome(recompose, tree)
    assert got == outcome(reference.recompose, tree)
    if g is None:
        g = reference.recompose(tree) if got[0] == "graph" else Graph([0])
    assert report(verify_tree, tree, g) == report(reference.verify_tree, tree, g)
    return got


def leaf(vs, edges=()):
    g = Graph(vs, edges)
    cert = split_certificate(g)
    if cert is None:
        return PentagonLeaf(graph=g, cycle=tuple(vs))
    return SplitLeaf(graph=g, cert=cert)


def bogus(vs, edges=()):
    """A split leaf whose certificate puts every vertex on both sides."""
    return SplitLeaf(graph=Graph(vs, edges), cert=SplitCert(frozenset(vs), frozenset(vs)))


def bad_unification():
    """An SGU node over two edges whose roles miss every vertex."""
    roles = PairRoles(a_set=frozenset(), b_set=frozenset(), c_set=frozenset(), l_set=frozenset(),
                      t_set=frozenset(), marker_a=98, marker_c=99)
    return Sgu(part1=leaf([40, 41], [(40, 41)]), part2=leaf([42, 43], [(42, 43)]), roles=roles)


def member_tree(seed):
    """A generated member's SGU or CoSGU tree, with its graph."""
    for s in itertools.count(seed):
        g, tree = generate(GenConfig(seed=s, max_depth=2,
                                     weights={"split": 1.0, "sgu": 1.0, "cosgu": 1.0}))
        if type(tree) in (Sgu, CoSgu):
            return g, tree


class TestValidTrees:
    def test_every_labelled_member_up_to_six_vertices(self):
        members = 0
        for n in range(7):
            for g in labeled_graphs(n):
                if is_class_member(g):
                    members += 1
                    assert assert_same(decompose(g), g)[0] == "graph"
        assert members == 20308

    def test_generated_members_with_and_without_live_markers(self):
        dead = 0
        for seed in range(900):
            g, tree = generate(GenConfig(seed=seed, max_depth=3))
            assert assert_same(tree, g)[0] == "graph"
            stack = [tree]
            while stack:
                node = stack.pop()
                if type(node) is Subst:
                    dead += node.marker not in recompose(node.child)
                    stack += (node.quotient, node.child)
                elif type(node) in (Sgu, CoSgu):
                    stack += (node.part1, node.part2)
        assert dead > 0

    def test_nested_substitutions_with_one_marker_id(self):
        # the inner child keeps the marker id 10, which the outer
        # substitution consumes in turn; its child keeps 10 once more
        inner = Subst(quotient=leaf([10, 1, 2], [(10, 1), (1, 2)]),
                      child=leaf([10, 3], [(10, 3)]), marker=10)
        outer = Subst(quotient=inner, child=leaf([10, 4, 5], [(10, 4)]), marker=10)
        assert assert_same(outer)[1] == (1, 2, 3, 4, 5, 10)
        top = Subst(quotient=leaf([0, 10], [(0, 10)]), child=outer, marker=10)
        assert assert_same(top)[1] == (0, 1, 2, 3, 4, 5, 10)
        # a marker id dropped inside a quotient and reused by the child of
        # a substitution further up
        dropped = Subst(quotient=leaf([7, 8], [(7, 8)]), child=leaf([20, 21]), marker=7)
        again = Subst(quotient=dropped, child=leaf([7, 30], [(7, 30)]), marker=20)
        assert assert_same(again)[1] == (7, 8, 21, 30)

    def test_unification_nodes_inside_runs(self):
        for seed in range(0, 40, 4):
            g1, sgu = member_tree(seed)
            v, top = g1.vertices[0], max(g1.vertices) + 1
            # the unification's graph as the quotient, then as the child
            inner = Subst(quotient=leaf([v, top], [(v, top)]), child=leaf([top + 1, top + 2]),
                          marker=top)
            assert assert_same(Subst(quotient=sgu, child=inner, marker=v))[0] == "graph"
            around = Subst(quotient=leaf([top, top + 1], [(top, top + 1)]), child=sgu, marker=top)
            assert assert_same(around)[0] == "graph"

    def test_pentagon_leaf_in_a_run(self):
        c5 = cycle_graph([0, 1, 2, 3, 4])
        tree = Subst(quotient=PentagonLeaf(graph=c5, cycle=(0, 1, 2, 3, 4)),
                     child=leaf([0, 9], [(0, 9)]), marker=0)
        assert assert_same(tree)[0] == "graph"


class TestMalformedTrees:
    def test_missing_marker(self):
        tree = Subst(quotient=leaf([1, 2]), child=leaf([5, 6]), marker=99)
        assert assert_same(tree) == ("malformed", "root",
                                     "malformed tree at root: marker 99 missing from quotient")

    def test_overlapping_ids(self):
        tree = Subst(quotient=leaf([1, 2, 3]), child=leaf([2, 3, 7]), marker=1)
        assert assert_same(tree)[2].endswith("vertex ids [2, 3] appear in both graphs")

    def test_one_vertex_child(self):
        tree = Subst(quotient=leaf([1, 2]), child=leaf([5]), marker=1)
        assert assert_same(tree, Graph([2, 5]))[0] == "graph"
        rep = verify_tree(tree, Graph([2, 5]))
        assert rep.failures == [("root", "substituted set is not proper"),
                                ("root", "children fail to shrink")]

    def test_bad_unification_below_a_bad_substitution(self):
        bad_subst = Subst(quotient=bad_unification(), child=leaf([5, 6]), marker=99)
        assert assert_same(bad_subst)[1] == "root.quotient"
        # a failing substitution before the unification in postorder comes first
        first = Subst(quotient=Subst(quotient=leaf([1, 2]), child=leaf([3, 4]), marker=9),
                      child=bad_unification(), marker=1)
        assert assert_same(first)[1] == "root.quotient"
        later = Subst(quotient=bad_unification(),
                      child=Subst(quotient=leaf([1, 2]), child=leaf([3, 4]), marker=9), marker=40)
        assert assert_same(later)[1] == "root.quotient"
        rep = verify_tree(later, Graph([0]))
        assert [path for path, _ in rep.failures] == ["root.quotient", "root.child"]

    def test_failures_keep_postorder_around_runs(self):
        tree = Subst(
            quotient=Subst(quotient=bogus([1, 2]), child=leaf([3, 4]), marker=9),
            child=Subst(quotient=bogus([5, 6]), child=bogus([7, 8]), marker=5),
            marker=1,
        )
        assert_same(tree)
        rep = verify_tree(tree, Graph([0]))
        assert [path for path, _ in rep.failures] == [
            "root.quotient.quotient", "root.quotient", "root.child.quotient", "root.child.child",
        ]


def random_tree(rng, depth, ids, must=()):
    """A random tree, malformed now and then.  Leaves are on fresh ids from
    ``ids`` (from 100 on), and now and then on one of the first 30 again.
    A substitution's marker is its child's least id, a fresh id or one of
    the first 30, and some leaf of its quotient holds it; every id of
    ``must`` goes to some leaf too.  A unification node (where nothing is
    a must) is a generated pair, its roles shifted now and then so that
    the pair conditions fail."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        vs = list(must) + [next(ids) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.1:
            vs.append(rng.randrange(100, 130))
        vs = list(dict.fromkeys(vs))
        edges = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.5]
        return leaf(vs, edges) if rng.random() < 0.9 else bogus(vs, edges)
    if roll < 0.85 or must:
        down = [m for m in must if rng.random() < 0.5]
        child = random_tree(rng, depth - 1, ids, down)
        least = min(_leaf_ids(child))
        marker = rng.choice([least, least, next(ids), rng.randrange(100, 130)])
        up = [m for m in must if m not in down] + [marker]
        quotient = random_tree(rng, depth - 1, ids, up)
        return Subst(quotient=quotient, child=child, marker=marker)
    pair = random_composable_pair(rng, ids)
    parts = []
    for g in (pair.g1, pair.g2):
        try:
            parts.append(decompose(g))
        except NotClassMember:
            parts.append(bogus(g.vertices, g.edges()))
    roles = pair.roles
    if rng.random() < 0.2:
        roles = PairRoles(roles.c_set, roles.b_set, roles.a_set, roles.l_set, roles.t_set,
                          roles.marker_a, roles.marker_c)
    return rng.choice((Sgu, CoSgu))(part1=parts[0], part2=parts[1], roles=roles)


def _leaf_ids(tree):
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if type(node) in (SplitLeaf, PentagonLeaf):
            out |= node.graph.vertex_set
        elif type(node) is Subst:
            stack += (node.quotient, node.child)
        else:
            stack += (node.part1, node.part2)
    return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32), st.integers(1, 6))
def test_random_trees_match_the_reference(seed, depth):
    rng = random.Random(seed)
    tree = random_tree(rng, depth, itertools.count(100))
    got = assert_same(tree)
    if got[0] == "graph":
        # the rebuilt graph with one edge flipped must fail the comparison
        g = reference.recompose(tree)
        if g.n >= 2:
            u, v = g.vertices[:2]
            edges = set(g.edges()) ^ {(u, v)}
            assert_same(tree, Graph(g.vertices, edges))
