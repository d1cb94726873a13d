import random
import sys

import pytest

from p5house.graph import split_certificate
from p5house.oracle import PatternHit, PatternKind, is_class_member
from p5house.decomposer import NotClassMember, SplitLeaf, recompose, tree_stats, verify_tree
from p5house.generator import (
    GenConfig,
    GenerationExhausted,
    generate,
    random_composable_pair,
    random_split_graph,
)
from p5house.treedoc import tree_to_document


class TestConfig:
    def test_rejects_bad_leaf_sizes(self):
        with pytest.raises(ValueError):
            GenConfig(seed=1, leaf_size=(0, 3))
        with pytest.raises(ValueError):
            GenConfig(seed=1, leaf_size=(4, 3))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            GenConfig(seed=1, weights={"split": -1.0})
        with pytest.raises(ValueError):
            GenConfig(seed=1, weights={"split": 0.0})
        with pytest.raises(ValueError):
            GenConfig(seed=1, weights={"nonsense": 1.0})

    @pytest.mark.parametrize("weights", [
        {"split": float("nan")},
        {"split": 1.0, "subst": float("nan")},
        {"split": float("inf"), "subst": float("inf")},
        {"subst": 1e308, "sgu": 1e308},  # each finite, the sum overflows
    ])
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="weights and their sum must be finite"):
            GenConfig(seed=1, weights=weights)
        with pytest.raises(ValueError, match="nonnegative"):
            GenConfig(seed=1, weights=dict(weights, cosgu=float("-inf")))

    def test_weights_cannot_change_after_construction(self):
        # the checks above would be bypassed by an edit made afterwards:
        # the config's weights are a read-only copy of the caller's
        weights = {"split": 1.0, "subst": 1.0}
        cfg = GenConfig(seed=1, weights=weights)
        for key in ("split", "cosgu"):
            with pytest.raises(TypeError):
                cfg.weights[key] = float("nan")
        weights["subst"] = float("inf")
        weights["sgu"] = 5.0
        assert dict(cfg.weights) == {"split": 1.0, "subst": 1.0}
        assert generate(cfg) == generate(GenConfig(seed=1, weights={"split": 1.0, "subst": 1.0}))


class TestRandomSplitGraph:
    def test_outputs_certify(self):
        rng = random.Random(10)
        for _ in range(200):
            g, cert = random_split_graph(rng, (1, 7))
            assert 1 <= g.n <= 7
            assert cert.clique | cert.stable == g.vertex_set
            assert g.is_clique(cert.clique) and g.is_stable(cert.stable)
            assert split_certificate(g) is not None

    def test_degenerate_sides_occur(self):
        rng = random.Random(11)
        shapes = set()
        for _ in range(300):
            g, cert = random_split_graph(rng, (3, 3))
            if not cert.clique:
                shapes.add("all-stable")
                assert g.edge_count == 0
            if not cert.stable:
                shapes.add("all-clique")
                assert g.edge_count == 3
        assert shapes == {"all-stable", "all-clique"}


class TestRandomPair:
    def test_pairs_are_valid_and_fresh(self):
        from p5house.divide import _pair_violation

        rng = random.Random(12)
        for _ in range(100):
            pair = random_composable_pair(rng)
            assert _pair_violation(pair) is None
            assert len(pair.roles.a_set) >= 2 and len(pair.roles.c_set) >= 2


class TestGenerate:
    def test_deterministic(self):
        cfg = GenConfig(seed=20240817, max_depth=3)
        g1, t1 = generate(cfg)
        g2, t2 = generate(cfg)
        assert g1 == g2 and t1 == t2
        assert tree_to_document(t1, g1) == tree_to_document(t2, g2)

    def test_all_split_weights_give_a_split_graph(self):
        cfg = GenConfig(seed=5, weights={"split": 1.0})
        g, t = generate(cfg)
        assert split_certificate(g) is not None
        assert type(t).__name__ == "SplitLeaf"

    def test_members_with_verified_trees(self):
        for seed in range(60):
            cfg = GenConfig(seed=seed, max_depth=3, leaf_size=(1, 5))
            g, t = generate(cfg)
            assert recompose(t) == g
            assert verify_tree(t, g).ok
            assert is_class_member(g)

    def test_pentagon_free_trees_give_triple_members(self):
        hits = 0
        for seed in range(40):
            cfg = GenConfig(seed=seed + 500, max_depth=2, leaf_size=(1, 4))
            g, t = generate(cfg)
            _, leaves = tree_stats(t)
            if leaves["pentagon"] == 0:
                hits += 1
                assert is_class_member(g, triple=True)
        assert hits > 0

    def test_one_vertex_parts_collapse(self):
        # every node above the depth cap is a substitution and every leaf
        # has one vertex: substituting a single vertex changes nothing, so
        # the whole tree is one leaf
        cfg = GenConfig(seed=1, max_depth=1, leaf_size=(1, 1), weights={"subst": 1.0, "split": 0.0})
        g, t = generate(cfg)
        assert type(t) is SplitLeaf and t.graph == g and g.n == 1

    def test_exhaustion_when_no_pair_decomposes(self, monkeypatch):
        import p5house.generator as generator

        def refuse(g):
            raise NotClassMember(PatternHit(kind=PatternKind.P5, embedding=(0, 1, 2, 3, 4)))

        monkeypatch.setattr(generator, "decompose", refuse)
        with pytest.raises(GenerationExhausted, match="no member pair"):
            generate(GenConfig(seed=1, weights={"sgu": 1.0}))

    def test_deep_tree_under_a_low_recursion_limit(self):
        # Nodes under construction sit on an explicit stack: seed 322's
        # tree is 43 levels deep, past a recursion limit 25 frames above
        # this test's own.
        cfg = GenConfig(seed=322, max_depth=1000, leaf_size=(2, 3),
                        weights={"subst": 1.0, "split": 1.0})
        frames, f = 0, sys._getframe()
        while f is not None:
            frames, f = frames + 1, f.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames + 25)
        try:
            g, t = generate(cfg)
        finally:
            sys.setrecursionlimit(limit)
        assert tree_stats(t)[0] == 43
        assert recompose(t) == g and verify_tree(t, g).ok
