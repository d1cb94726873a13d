"""Tests of the benchmark's checker and input builders.

Run from the root of the repository:  python3 -m pytest bench/test_checker.py
"""

import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import inputs  # noqa: E402


def path(n):
    return checker.make(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return checker.make(range(n), [(i, (i + 1) % n) for i in range(n)])


def test_p5_and_house_are_rejected():
    p5 = path(5)
    assert checker.find_pattern(p5) == ("P5", (0, 1, 2, 3, 4))
    assert checker.find_pattern(checker.complement(p5))[0] == "house"
    assert not checker.is_member(p5)
    assert not checker.is_member(checker.complement(p5))
    assert not checker.is_member(path(7))


def test_pattern_table_has_every_labelling():
    # 5!/2 labelled P5s (a path and its reverse coincide) and as many houses.
    kinds = list(checker.PATTERNS.values())
    assert kinds.count("P5") == kinds.count("house") == 60
    assert checker.pattern_on(path(5), (1, 0, 2, 3, 4)) == "P5"
    assert checker.pattern_on(cycle(5), (0, 1, 2, 3, 4)) is None


def test_c5_and_split_graphs_are_members():
    assert checker.is_member(cycle(5))
    assert checker.is_pentagon(cycle(5))
    rng = random.Random(3)
    for n in range(2, 10):
        g = inputs.random_split(rng, list(range(n)))
        assert checker.is_split(g)
        assert checker.is_member(g)


def test_split_recognition():
    assert not checker.is_split(cycle(4))
    assert not checker.is_split(cycle(5))
    assert not checker.is_split(checker.make(range(4), [(0, 1), (2, 3)]))  # 2K2
    assert checker.is_split(path(4))


def test_membership_is_closed_under_complement():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(5, 8)
        g = checker.make(range(n), [p for p in combinations(range(n), 2) if rng.random() < 0.5])
        assert checker.is_member(g) == checker.is_member(checker.complement(g))


def test_mask_search_agrees_with_subset_search():
    kinds = checker.labelled_kinds(5)
    pairs = list(combinations(range(5), 2))
    for mask, found in enumerate(kinds):
        g = checker.make(range(5), [p for k, p in enumerate(pairs) if mask >> k & 1])
        assert found == {k for k in ("P5", "house") if checker.find_pattern(g, kinds=(k,))}
    assert inputs.census_counts(5) == [1, 1, 2, 8, 64, 904]


def test_primality():
    assert checker.is_prime(path(4))
    assert checker.is_prime(cycle(5))
    assert not checker.is_prime(cycle(4))  # {0, 2} is a module
    assert not checker.is_prime(checker.make(range(3), [(0, 1)]))


def test_pinned_search_uses_the_pins():
    g = checker.make(range(6), [(0, 1), (1, 2), (2, 3), (3, 4)])  # P5 plus isolated 5
    assert checker.find_pattern(g, pins=(0, 4)) is not None
    assert checker.find_pattern(g, pins=(5,)) is None


def test_grown_prime_graphs_are_prime_nonsplit_members():
    g = inputs.grow_prime(random.Random(5), 10)
    assert len(g) == 10
    assert checker.is_member(g) and checker.is_prime(g) and not checker.is_split(g)


def test_substitution_members_and_near_members():
    rng = random.Random(7)
    g = inputs.substitution_member(rng, 19, outer_n=6)
    assert sorted(g) == list(range(19))
    assert checker.is_member(g)
    h = inputs.near_member(rng, g)
    assert abs(len(checker.edges_of(g)) - len(checker.edges_of(h))) == 1
    assert checker.find_pattern(h, kinds=("P5",)) is not None


def test_chain_is_a_member_and_planting_breaks_it():
    g = inputs.chain(14)
    assert checker.is_member(g)
    h = inputs.plant_p5(random.Random(2), g, list(range(5, 14, 2)))
    assert not checker.is_member(h)
    assert checker.from_rows(checker.to_rows(h)) == h


def test_operations():
    # An edge substituted for the end 0 of the path 0-1-2: both of its ends
    # (0 keeps its id, as the library's marker convention allows) see 1.
    outer = path(3)
    child = checker.make([0, 7], [(0, 7)])
    g = checker.substitute(child, outer, 0)
    assert g == checker.make([0, 1, 2, 7], [(0, 7), (0, 1), (7, 1), (1, 2)])
    with pytest.raises(checker.CheckFailed):
        checker.substitute(checker.make([1, 9], []), outer, 0)


def test_tree_check_on_library_trees():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import p5house

    h6 = checker.make(range(6), inputs.H6_EDGES)
    g = p5house.Graph(range(6), inputs.H6_EDGES)
    tree = p5house.decompose(g)
    assert type(tree).__name__ in ("Sgu", "CoSgu")
    assert checker.tree_graph(tree) == h6
    chain = inputs.chain(12)
    tree = p5house.decompose(p5house.Graph(sorted(chain), checker.edges_of(chain)))
    assert checker.tree_graph(tree) == chain
    assert checker.tree_depth(tree) == 8
    p5_leaf = p5house.SplitLeaf(graph=p5house.path_graph(range(5)), cert=None)
    with pytest.raises(checker.CheckFailed, match="neither split nor a pentagon"):
        checker.tree_graph(p5_leaf)
    swapped = type(tree)(quotient=tree.child, child=tree.quotient, marker=tree.marker)
    assert checker.tree_graph(swapped) != chain
