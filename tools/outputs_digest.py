"""Digests of decompose's outputs over fixed corpora, to compare two checkouts.

Usage, from the root of a checkout:

    python3 tools/outputs_digest.py
    python3 tools/outputs_digest.py --corpus labelled --max-n 4

Each graph of a corpus goes through decompose and first_forbidden in both
modes (triple off, then on).  Per corpus the script prints six lines, one
per kind of output, each with its count and the sha256 of the outputs in
order:

- ``documents``: the tree document of each member;
- ``witnesses``: repr of the NotClassMember hit of each non-member, or the
  type and message of any other exception;
- ``events``: the on_skew_decomposition / on_factor observer events, every
  vertex set sorted, every graph as its ids and sorted edges, with a
  separator after each call;
- ``reports``: verify_tree's report on each member's tree;
- ``refutations``: repr of first_forbidden's answer on each graph;
- ``readback``: what document_to_tree reads back from each member's
  document: the tree's nodes in preorder (each node's fields, each leaf's
  graph as its ids and sorted edges) and the root graph.

The corpora are every labelled graph with n <= --max-n, 900 generated
members (seeds 0..899, depth 3), the census6, members and prime inputs of
bench seeds 1-3 as the benchmark builds them, and ``large``: 300 seeded
random graphs with n 17..48 over the full density range, 40 near-members
with n 30..41 whose only patterns are houses (a substitution member of the
benchmark's builder with one pair flipped) and the n = 60 chain.  The bench
and large graphs are taken as given and complemented.  Two checkouts give
the same outputs on these corpora exactly when they print the same lines.
The script uses the standard library and the p5house package of the
checkout it sits in.

``tools/outputs_digest.txt`` holds the lines of a full run, and CI diffs a
fresh run against it, so a change that keeps every output passes as it
is.  A change meant to alter outputs must regenerate the file:

    python3 tools/outputs_digest.py > tools/outputs_digest.txt
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from p5house.census import labeled_graphs  # noqa: E402
from p5house.decomposer import (  # noqa: E402
    NotClassMember,
    PentagonLeaf,
    SplitLeaf,
    Subst,
    decompose,
    verify_tree,
)
from p5house.generator import GenConfig, generate  # noqa: E402
from p5house.graph import Graph  # noqa: E402
from p5house.oracle import PatternKind, find_induced, first_forbidden  # noqa: E402
from p5house.treedoc import document_to_tree, tree_to_document  # noqa: E402

KINDS = ("documents", "witnesses", "events", "reports", "refutations", "readback")
CORPORA = ("labelled", "generated", "bench", "large")
BENCH_WORKLOADS = ("census6", "members", "prime")
BENCH_SEEDS = (1, 2, 3)
GENERATED = 900
LARGE_RANDOM = 300
LARGE_HOUSE_ONLY = 40


def _sets(*sets):
    return tuple(tuple(sorted(s)) for s in sets)


def _graph(g):
    return tuple(g.vertices), tuple(sorted(g.edges()))


def _nodes(tree):
    """A tree's nodes in preorder, each as its fields, a leaf with its graph."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, SplitLeaf):
            out.append(("split_leaf", _sets(node.cert.clique, node.cert.stable), _graph(node.graph)))
        elif isinstance(node, PentagonLeaf):
            out.append(("pentagon_leaf", node.cycle, _graph(node.graph)))
        elif isinstance(node, Subst):
            out.append(("subst", node.marker))
            stack += (node.child, node.quotient)
        else:
            r = node.roles
            out.append((
                type(node).__name__, _sets(r.a_set, r.b_set, r.c_set, r.l_set, r.t_set),
                r.marker_a, r.marker_c,
            ))
            stack += (node.part2, node.part1)
    return out


class Digest:
    """One running sha256 and count per kind of output."""

    def __init__(self):
        self.sha = {kind: hashlib.sha256() for kind in KINDS}
        self.count = dict.fromkeys(KINDS, 0)

    def put(self, kind: str, data) -> None:
        self.sha[kind].update(data if isinstance(data, bytes) else repr(data).encode() + b"\n")
        self.count[kind] += 1

    # observer callbacks of decompose
    def on_skew_decomposition(self, work, sp, d, case):
        self.put("events", (
            "skew", _graph(work), _sets(sp.x, sp.y), _sets(*d.x_parts), _sets(*d.y_parts),
            _sets(d.s, d.k), _sets(*d.s_mixed), _sets(*d.k_mixed),
            case.tag.value, case.special_index, _sets(*case.decomposition.x_parts),
        ))

    def on_factor(self, work, divide, pair):
        r = pair.roles
        self.put("events", (
            "factor", _graph(work), _sets(divide.a, divide.b, divide.c, divide.l, divide.t),
            _graph(pair.g1), _graph(pair.g2),
            _sets(r.a_set, r.b_set, r.c_set, r.l_set, r.t_set), r.marker_a, r.marker_c,
        ))

    def add(self, g: Graph) -> None:
        for triple in (False, True):
            try:
                tree = decompose(g, triple=triple, observer=self)
            except NotClassMember as exc:
                self.put("witnesses", exc.hit)
            except Exception as exc:
                self.put("witnesses", (type(exc).__name__, str(exc)))
            else:
                text = tree_to_document(tree, g)
                self.put("documents", text.encode())
                tree2, root = document_to_tree(text)
                self.put("readback", (_nodes(tree2), _graph(root)))
                report = verify_tree(tree, g)
                self.put("reports", (report.ok, report.failures, report.depth, report.leaf_counts))
            self.sha["events"].update(b"--\n")
            self.put("refutations", first_forbidden(g, triple))

    def lines(self, corpus: str) -> list[str]:
        return [f"{corpus} {kind} {self.count[kind]} {self.sha[kind].hexdigest()}" for kind in KINDS]


def labelled(max_n: int):
    for n in range(max_n + 1):
        yield from labeled_graphs(n)


def generated():
    for seed in range(GENERATED):
        yield generate(GenConfig(seed=seed, max_depth=3))[0]


def _bench_modules():
    sys.path.insert(0, str(ROOT / "bench"))
    import checker
    import inputs
    import run

    return checker, inputs, run


def _with_complements(graphs):
    for g in graphs:
        yield g
        yield g.complement()


def bench_inputs(workload: str, seed: int):
    """The members and non-members the benchmark builds for one workload
    and seed, from bench/run.py's builders, each as given and complemented."""
    checker, _, run = _bench_modules()
    built = run.BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    for adjs in built[:2]:
        yield from _with_complements(Graph(sorted(adj), checker.edges_of(adj)) for adj in adjs)


def _house_only_near_members(rng: random.Random):
    """Substitution members of the benchmark's builder with n 30..41 and one
    pair flipped, kept when the whole graph has a house and no P5."""
    checker, inputs, _ = _bench_modules()
    while True:
        adj = inputs.substitution_member(rng, rng.randint(30, 41))
        u, v = rng.sample(sorted(adj), 2)
        adj = checker.flip(adj, u, v)
        g = Graph(sorted(adj), checker.edges_of(adj))
        if find_induced(g, PatternKind.P5) is None and find_induced(g, PatternKind.HOUSE):
            yield g


def large():
    """Graphs above the size where first_forbidden and decompose read the
    modular decomposition, each as given and complemented."""
    checker, inputs, _ = _bench_modules()
    rng = random.Random("large")
    randoms = []
    for _ in range(LARGE_RANDOM):
        n, p = rng.randint(17, 48), rng.random()
        ids = rng.sample(range(3 * n), n)
        randoms.append(Graph(ids, [(u, v) for u, v in combinations(ids, 2) if rng.random() < p]))
    yield from _with_complements(randoms)
    near = _house_only_near_members(rng)
    yield from _with_complements(next(near) for _ in range(LARGE_HOUSE_ONLY))
    chain = inputs.chain(60)
    yield from _with_complements([Graph(sorted(chain), checker.edges_of(chain))])


def corpora(names: list[str], max_n: int):
    for name in names:
        if name == "labelled":
            yield f"labelled<={max_n}", labelled(max_n)
        elif name == "generated":
            yield f"generated{GENERATED}", generated()
        elif name == "large":
            yield "large", large()
        else:
            for workload in BENCH_WORKLOADS:
                for seed in BENCH_SEEDS:
                    yield f"bench-{workload}-{seed}", bench_inputs(workload, seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corpus", action="append", choices=CORPORA,
                        help="corpus to digest (repeatable; default: all four)")
    parser.add_argument("--max-n", type=int, default=6,
                        help="largest n of the labelled corpus (default 6)")
    args = parser.parse_args(argv)
    for name, graphs in corpora(args.corpus or list(CORPORA), args.max_n):
        digest = Digest()
        for g in graphs:
            digest.add(g)
        print("\n".join(digest.lines(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
