"""Seeded synthesis of class members by running the grammar forward.

Trees are drawn top-down on the decomposer's tree walk.  Leaves are random
split graphs or pentagons; substitution nodes plug one generated member into
another, and a one-vertex part leaves the other as it is; unification nodes
build a composable pair role by role (the cross-role adjacency is forced by
the pair conditions, the inside of each role is random) and keep only pairs
whose sides decompose, retrying up to a fixed cap.  The graph is the tree's
recomposition, which checks each unification node's pair conditions.

Randomness comes from random.Random (Mersenne Twister) seeded from the
config, so a corpus is a pure function of its configuration; no cross-
implementation stream compatibility is promised, only determinism here.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

from .graph import Graph, SplitCert
from .decomposer import CoSgu, DecompTree, NotClassMember, PentagonLeaf, Sgu, SplitLeaf, Subst, decompose, recompose, _pentagon_cycle, _walk
from .divide import ComposablePair, PairRoles

__all__ = [
    "GenConfig",
    "GenerationExhausted",
    "random_split_graph",
    "random_composable_pair",
    "generate",
]

_RETRY_CAP = 64

_KINDS = ("split", "pentagon", "subst", "sgu", "cosgu")
_LEAF_KINDS = ("split", "pentagon")


class GenerationExhausted(Exception):
    """Retries ran out; the configuration is too tight to satisfy."""


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one deterministic generation run.

    weights maps the node kinds ("split", "pentagon", "subst", "sgu",
    "cosgu") to finite, nonnegative selection weights with a finite,
    positive sum, kept as a read-only copy so that no later edit bypasses
    these checks; leaf_size bounds the number of vertices of a split leaf.
    At the depth cap only the two leaf kinds are drawn; if both of their
    weights are zero, a split leaf is used.
    """

    seed: int
    max_depth: int = 3
    leaf_size: tuple[int, int] = (1, 6)
    weights: Mapping[str, float] = field(
        default_factory=lambda: {"split": 3.0, "pentagon": 1.0, "subst": 3.0, "sgu": 2.0, "cosgu": 2.0}
    )

    def __post_init__(self):
        lo, hi = self.leaf_size
        if lo < 1 or hi < lo:
            raise ValueError("leaf sizes must satisfy 1 <= lo <= hi")
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))
        unknown = set(self.weights) - set(_KINDS)
        if unknown:
            raise ValueError(f"unknown node kinds in weights: {sorted(unknown)}")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("weights must be nonnegative")
        # a NaN or infinite weight, or a sum that overflows, leaves _pick's
        # roll never below 0, so every draw would fall to the last kind
        total = sum(self.weights.values())
        if not math.isfinite(total):
            raise ValueError("weights and their sum must be finite")
        if total <= 0:
            raise ValueError("weights must have a positive sum")


def _pick(rng: random.Random, weights: Mapping[str, float], kinds: tuple[str, ...]) -> str:
    table = [(k, weights.get(k, 0.0)) for k in kinds]
    total = sum(w for _, w in table)
    if total <= 0:
        return "split"
    roll = rng.random() * total
    for k, w in table:
        roll -= w
        if roll < 0:
            return k
    return table[-1][0]


def random_split_graph(
    rng: random.Random,
    size_range: tuple[int, int],
    ids: Iterator[int] | None = None,
) -> tuple[Graph, SplitCert]:
    """A random split graph: clique and stable sides of random sizes, each
    cross pair an edge with probability 1/2.  Returns the graph with the
    certificate it was built from."""
    lo, hi = size_range
    n = rng.randint(lo, hi)
    k = rng.randint(0, n)
    ids = ids if ids is not None else itertools.count(0)
    clique = [next(ids) for _ in range(k)]
    stable = [next(ids) for _ in range(n - k)]
    edges = [(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]]
    edges += [(u, v) for u in clique for v in stable if rng.random() < 0.5]
    return Graph(clique + stable, edges), SplitCert(
        clique=frozenset(clique), stable=frozenset(stable)
    )


def _random_internal(rng: random.Random, verts: list[int]) -> list[tuple[int, int]]:
    return [
        (u, v) for i, u in enumerate(verts) for v in verts[i + 1 :] if rng.random() < 0.5
    ]


def random_composable_pair(
    rng: random.Random, ids: Iterator[int] | None = None
) -> ComposablePair:
    """A random composable pair, valid by construction.

    Role sizes are small (|A|, |C| in 2..4, |L| in 1..3, |B|, |T| in 0..2);
    the inside of A, B, C is uniform random, L is a clique, T stable, and
    every forced cross-role adjacency follows the pair conditions.  Each
    L-vertex gets a proper nonempty neighborhood in A, so it is mixed on A.
    Neither the pair conditions nor class membership are checked here:
    unify checks the conditions when generate recomposes its tree.
    """
    ids = ids if ids is not None else itertools.count(0)
    a_set = [next(ids) for _ in range(rng.randint(2, 4))]
    l_set = [next(ids) for _ in range(rng.randint(1, 3))]
    t_set = [next(ids) for _ in range(rng.randint(0, 2))]
    b_set = [next(ids) for _ in range(rng.randint(0, 2))]
    c_set = [next(ids) for _ in range(rng.randint(2, 4))]
    marker_c = next(ids)
    marker_a = next(ids)

    a_edges = _random_internal(rng, a_set)
    lt_edges = [(u, v) for i, u in enumerate(l_set) for v in l_set[i + 1 :]]
    lt_edges += [(u, v) for u in l_set for v in t_set if rng.random() < 0.5]
    la_edges = []
    for l in l_set:
        hood = rng.sample(a_set, rng.randint(1, len(a_set) - 1))
        la_edges += [(l, v) for v in hood]
    g1 = Graph(
        a_set + l_set + t_set + [marker_c],
        a_edges + lt_edges + la_edges + [(marker_c, l) for l in l_set],
    )

    g2_edges = list(lt_edges)
    g2_edges += _random_internal(rng, b_set)
    g2_edges += _random_internal(rng, c_set)
    g2_edges += [(u, v) for u in b_set for v in c_set if rng.random() < 0.5]
    g2_edges += [(u, v) for u in b_set for v in t_set if rng.random() < 0.5]
    g2_edges += [(l, v) for l in l_set for v in b_set + c_set]
    g2_edges += [(marker_a, v) for v in b_set]
    g2 = Graph(b_set + c_set + l_set + t_set + [marker_a], g2_edges)

    pair = ComposablePair(
        g1=g1,
        g2=g2,
        roles=PairRoles(
            a_set=frozenset(a_set),
            b_set=frozenset(b_set),
            c_set=frozenset(c_set),
            l_set=frozenset(l_set),
            t_set=frozenset(t_set),
            marker_a=marker_a,
            marker_c=marker_c,
        ),
    )
    return pair


def _draw(rng: random.Random, cfg: GenConfig, kind: str, ids: Iterator[int]):
    """A node of a generated tree that generate's walk does not descend
    into, as (tree, sorted vertex ids): a split or pentagon leaf, or a
    unification node over a composable pair, kept only when both sides
    decompose, which certifies them as members and gives their subtrees."""
    if kind == "split":
        g, cert = random_split_graph(rng, cfg.leaf_size, ids)
        return SplitLeaf(graph=g, cert=cert), g.vertices
    if kind == "pentagon":
        verts = [next(ids) for _ in range(5)]
        order = rng.sample(verts, 5)
        g = Graph(verts, list(zip(order, order[1:])) + [(order[-1], order[0])])
        cycle = _pentagon_cycle(g)
        assert cycle is not None
        return PentagonLeaf(graph=g, cycle=cycle), g.vertices
    for _ in range(_RETRY_CAP):
        pair = random_composable_pair(rng, ids)
        try:
            t1 = decompose(pair.g1)
            t2 = decompose(pair.g2)
        except NotClassMember:
            continue
        break
    else:
        raise GenerationExhausted("no member pair within the retry cap")
    r = pair.roles
    node = Sgu if kind == "sgu" else CoSgu
    return node(part1=t1, part2=t2, roles=r), tuple(sorted(r.a_set | r.b_set | r.c_set | r.l_set | r.t_set))


def generate(cfg: GenConfig) -> tuple[Graph, DecompTree]:
    """Generate one class member together with the tree that built it.

    The output is a pure function of the config.  The tree is drawn top
    down on decomposer._walk, whose explicit stack keeps a tree of any
    depth clear of the interpreter's recursion limit; the graph is the
    tree's recomposition, made once at the end."""
    rng = random.Random(cfg.seed)
    ids = itertools.count(0)

    def down(_, depth):
        kind = _pick(rng, cfg.weights, _LEAF_KINDS if depth >= cfg.max_depth else _KINDS)
        if kind == "subst":  # the child is drawn first, so its ids are the lower
            return None, ((None, depth + 1), (None, depth + 1))
        return _draw(rng, cfg, kind, ids), ()

    def up(node, _depth, parts):
        if not parts:
            return node
        (child, child_vs), (quotient, quotient_vs) = parts
        # substituting a single vertex changes nothing: the substitution
        # is its other part
        if len(child_vs) == 1:
            return parts[1]
        if len(quotient_vs) == 1:
            return parts[0]
        marker = rng.choice(quotient_vs)
        vs = child_vs + tuple(v for v in quotient_vs if v != marker)
        return Subst(quotient=quotient, child=child, marker=marker), vs

    tree = _walk(None, 0, down, up)[0]
    return recompose(tree), tree
