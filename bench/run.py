"""Benchmark of p5house: four seeded workloads through the public functions.

Usage, from the root of the repository:

    python3 bench/run.py --workload members --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

A run builds its inputs from the seed with the benchmark's own code (set up
several times; the median is ``setup_s``), then repeats whole rounds of the
same operations until the next round would end past ``--seconds``, and at
least two rounds.  Every output is checked, against the benchmark's checker
or against a property the method must have.  An input's time for an
operation is the least of its timings in the run, and a metric is the median
of those times over the inputs.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs half its time untraced and half traced, and reports per-layer call
counts and self times per round plus the tracing overhead.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import inputs  # noqa: E402
from tracer import HIT_RATIOS, Tracer  # noqa: E402

WORKLOADS = ("census6", "members", "prime", "chain")
SETUP_REPEATS = 3
CENSUS_SAMPLE = 600  # six-vertex graphs in the census6 sample
# Non-members per member.  With random labels, the time to reject one
# spreads over orders of magnitude, so many are needed for a steady median.
MEMBER_POOL = 8
MEMBER_NEARS = 8
# Member sizes.  A member's operations cost about n**3.8, and a round must
# stay short enough for eight or more rounds in 30 s on a slow host.
MEMBER_SIZES = range(30, 42)
PRIME_NEARS = 32
CHAIN_NON_MEMBERS = 960
# Passes per round of the four operations after decompose.  Together they
# take a sixth of decompose's time on chain and a half on members, and a
# short call needs more samples than a long one for its least time to fall
# in a fast spell of the host.
MEMBER_PASSES = {"members": 2, "chain": 8}
TAIL_MIN_SAMPLES = 40
CENSUS_MAX_N = 6
# The per-call sample of census6 is timed in passes around the one sweep of
# a round, so that each graph's least time comes from passes far apart.
CENSUS_PARTS = ("cases",) * 6 + ("sweep",) + ("cases",) * 6


def load_library():
    """Import p5house from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        lib = importlib.import_module("p5house")
        importlib.import_module("p5house.census")
    except ImportError as exc:
        sys.exit(f"bench: cannot import p5house from {src}: {exc}")
    if Path(lib.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: p5house was imported from {lib.__file__}, not from {src}")
    return lib


@dataclass
class Case:
    rows: tuple[int, ...]  # the checker's view, compact: see checker.to_rows
    graph: object  # p5house.Graph

    @property
    def adj(self) -> checker.Adj:
        return checker.from_rows(self.rows)


@dataclass
class Inputs:
    members: list[Case]
    non_members: list[Case]
    census_counts: list[int] | None = None
    passes: int = 1  # passes of the operations after decompose, per round


# -- workloads -------------------------------------------------------------------


def build_census6(rng: random.Random) -> tuple[list, list, list[int]]:
    """The reference member counts of every n <= 6, plus a seeded sample of
    the six-vertex graphs for the per-call timings.  The sample is
    stratified by four kinds in their shares among all six-vertex graphs:
    split members, other members, non-members with a P5 and non-members
    with only houses.  The kinds differ several-fold in time, so each run
    times the same number of each."""
    counts = inputs.census_counts(CENSUS_MAX_N - 1)
    kinds = checker.labelled_kinds(CENSUS_MAX_N)
    counts.append(sum(not k for k in kinds))
    pairs = list(combinations(range(CENSUS_MAX_N), 2))

    def graph(mask):
        return checker.make(range(CENSUS_MAX_N), [p for k, p in enumerate(pairs) if mask >> k & 1])

    strata: dict[str, list[int]] = {"split": [], "other": [], "P5": [], "house": []}
    for mask, found in enumerate(kinds):
        if found:
            strata["P5" if "P5" in found else "house"].append(mask)
        else:
            strata["split" if checker.is_split(graph(mask)) else "other"].append(mask)
    sample = {kind: [graph(m) for m in rng.sample(masks, round(CENSUS_SAMPLE * len(masks) / len(kinds)))]
              for kind, masks in strata.items()}
    return sample["split"] + sample["other"], sample["P5"] + sample["house"], counts


def build_members(rng: random.Random) -> tuple[list, Iterable]:
    """One substitution-tree member for every n in 30..41.  Their
    near-members come from ``MEMBER_POOL`` members of each size built the
    same way, the timed ones among them, ``MEMBER_NEARS`` from each: the
    time to reject a near-member hangs on the member it comes from, and a
    median over the near-members of eight members moved by a third from
    seed to seed."""
    pool = [[inputs.substitution_member(rng, n) for n in MEMBER_SIZES]
            for _ in range(MEMBER_POOL)]
    return pool[0], (inputs.near_member(rng, g) for row in pool for g in row
                     for _ in range(MEMBER_NEARS))


def build_prime(rng: random.Random) -> tuple[list, Iterable]:
    """Eight prime, non-split members for every n in 10..14, each with
    ``PRIME_NEARS`` near-members."""
    members = [inputs.relabel(rng, inputs.grow_prime(rng, n))
               for n in range(10, 15) for _ in range(8)]
    return members, (inputs.near_member(rng, g) for g in members for _ in range(PRIME_NEARS))


def build_chain(rng: random.Random) -> tuple[list, Iterable]:
    """The n = 60 substitution chain and ``CHAIN_NON_MEMBERS`` non-members.

    No single flipped pair makes the chain a non-member (it has no induced
    P4, which a P5 or a house less one pair would still contain), so each
    non-member is the chain with a P5 set up on five of its isolated odd
    vertices, relabelled at random like the near-members of the other
    workloads."""
    g = inputs.chain(60)
    odd = list(range(5, 60, 2))
    return [g], (inputs.plant_p5(rng, g, odd) for _ in range(CHAIN_NON_MEMBERS))


BUILDERS = {"census6": build_census6, "members": build_members,
            "prime": build_prime, "chain": build_chain}


def set_up(lib, workload: str, seed: int) -> Inputs:
    built = BUILDERS[workload](random.Random(f"{workload}:{seed}"))

    def cases(adjs):
        return [Case(checker.to_rows(a), lib.Graph(sorted(a), checker.edges_of(a))) for a in adjs]
    return Inputs(cases(built[0]), cases(built[1]), built[2] if len(built) > 2 else None,
                  MEMBER_PASSES.get(workload, 1))


# -- one round -------------------------------------------------------------------


class OpFailed(Exception):
    """A timed library call raised; the library's exception is the cause."""


def failure(exc: BaseException, n: int) -> str:
    return f"n={n}: {type(exc).__name__}: {exc}"[:200]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    swept: int = 0  # graphs one sweep visits
    best: dict[str, dict[int, float]] = field(default_factory=dict)
    trees: list = field(default_factory=list)

    def record(self, metric: str, key: int, dt: float) -> None:
        per_input = self.best.setdefault(metric, {})
        per_input[key] = min(per_input.get(key, dt), dt)

    def timed(self, metric: str, key: int, fn, *args):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:
            raise OpFailed from exc
        self.record(metric, key, time.perf_counter() - t0)
        return out

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)


def rebuilds(tree, adj: checker.Adj) -> bool:
    try:
        return checker.tree_graph(tree) == adj
    except checker.CheckFailed:
        return False


def induces(adj: checker.Adj, hit) -> bool:
    """The witness's five vertices induce the pattern it names."""
    emb = tuple(hit.embedding)
    return (len(set(emb)) == 5 and all(v in adj for v in emb)
            and checker.pattern_on(adj, emb) == hit.kind.value)


def round_trip(lib, tree, g):
    return lib.document_to_tree(lib.tree_to_document(tree, g))


NON_MEMBER_OPS = 2  # recognize, reject


def run_member(lib, key: int, case: Case, tally: Tally, keep_tree: bool, passes: int) -> None:
    """``decompose`` once, then ``passes`` passes of the four other
    operations on its tree, each output checked.  When one raises, it and
    the ones after it count as failed; when a check raises, the output
    counts as wrong and the operations left as failed."""
    g, done, ops = case.graph, 0, 1 + 4 * passes
    tally.attempted += ops
    try:
        tree = tally.timed("decompose", key, lib.decompose, g)
        done = 1
        tally.expect(rebuilds(tree, case.adj), "tree fails the checker's tree check")
        if keep_tree:
            tally.trees.append(tree)
        for _ in range(passes):
            recognized = tally.timed("recognize", key, lib.is_class_member, g)
            done += 1
            tally.expect(recognized, "member not recognized")
            report = tally.timed("verify", key, lib.verify_tree, tree, g)
            done += 1
            tally.expect(report.ok, f"verify_tree failed: {report.failures[:1]}")
            recomposed = tally.timed("recompose", key, lib.recompose, tree)
            done += 1
            tally.expect(recomposed == g, "recompose differs")
            tree2, g2 = tally.timed("document", key, round_trip, lib, tree, g)
            done += 1
            tally.expect(g2 == g and lib.recompose(tree2) == g, "document round trip differs")
    except OpFailed as exc:
        tally.failed += ops - done
        tally.errors.append(failure(exc.__cause__, g.n))
    except Exception as exc:
        tally.failed += ops - done
        tally.wrong.append(failure(exc, g.n))


def run_non_member(lib, key: int, case: Case, tally: Tally) -> None:
    g = case.graph
    tally.attempted += NON_MEMBER_OPS
    try:
        recognized = tally.timed("recognize_non_member", key, lib.is_class_member, g)
    except OpFailed as exc:
        tally.failed += NON_MEMBER_OPS
        tally.errors.append(failure(exc.__cause__, g.n))
        return
    tally.expect(not recognized, "non-member recognized")
    t0 = time.perf_counter()
    try:
        lib.decompose(g)
    except lib.NotClassMember as exc:
        tally.record("reject", key, time.perf_counter() - t0)
        tally.expect(induces(case.adj, exc.hit), f"witness {exc.hit} does not induce its pattern")
    except Exception as exc:
        tally.failed += 1
        tally.errors.append("reject " + failure(exc, g.n))
    else:
        tally.wrong.append("decompose accepted a non-member")


def run_sweep(tally: Tally, counts: list[int]) -> None:
    """One ``run_sweep(6)``, timed stretch by stretch: a stretch ends at each
    member the sweep hands to ``on_member``.  Every sweep has the same
    stretches, so each stretch is an input whose least time over the run's
    sweeps is kept, as for the other operations."""
    census = sys.modules["p5house.census"]
    stamps = [time.perf_counter()]
    tally.attempted += 1
    try:
        result = census.run_sweep(CENSUS_MAX_N,
                                  on_member=lambda g, tree: stamps.append(time.perf_counter()))
    except Exception as exc:
        tally.failed += 1
        tally.errors.append("sweep " + failure(exc, CENSUS_MAX_N))
        return
    stamps.append(time.perf_counter())
    for key, (t0, t1) in enumerate(zip(stamps, stamps[1:])):
        tally.record("sweep", key, t1 - t0)
    tally.swept = sum(r.total for r in result.rows)
    tally.expect(result.mismatch_count == 0, f"{result.mismatch_count} sweep mismatches")
    tally.expect([r.members for r in result.rows] == counts,
                 "per-n member counts differ from the checker's")
    tally.expect([r.total for r in result.rows] ==
                 [1 << (n * (n - 1) // 2) for n in range(CENSUS_MAX_N + 1)],
                 "sweep did not visit every labelled graph")


def run_round(lib, data: Inputs, tally: Tally, keep_trees: bool) -> None:
    parts = ("cases",) if data.census_counts is None else CENSUS_PARTS
    for part in parts:
        if part == "sweep":
            run_sweep(tally, data.census_counts)
            continue
        for key, case in enumerate(data.members):
            run_member(lib, key, case, tally, keep_trees, data.passes)
        for key, case in enumerate(data.non_members):
            run_non_member(lib, key, case, tally)
        keep_trees = False


def measure(lib, data: Inputs, seconds: float) -> tuple[Tally, int]:
    """Whole rounds until the next one would end past ``seconds``, and at
    least two, so that every input's least time is over two rounds."""
    tally, rounds = Tally(), 0
    gc.collect()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_round(lib, data, tally, keep_trees=rounds == 0)
        rounds += 1
        now = time.perf_counter()
        if rounds >= 2 and now - start + (now - t0) > seconds:
            return tally, rounds


# -- reporting -------------------------------------------------------------------


def median_ms(tally: Tally, metric: str) -> float | None:
    """None when every call of the operation failed."""
    times = tally.best.get(metric)
    return statistics.median(times.values()) * 1e3 if times else None


def busy_s(tally: Tally) -> float:
    """Least time of one pass over the inputs, summed over every timed call."""
    return sum(sum(per_input.values()) for m, per_input in tally.best.items() if m != "sweep")


def end_to_end(tally: Tally, data: Inputs, setup_s: float) -> dict[str, tuple[float, str]]:
    if data.census_counts is not None:
        graphs, busy = tally.swept, sum(tally.best.get("sweep", {}).values())
    else:
        graphs, busy = len(data.members) + len(data.non_members), busy_s(tally)
    graphs_per_s = graphs / busy if busy else None
    return {
        "setup_s": (setup_s, "s"),
        "graphs_per_s": (graphs_per_s, "graphs/s"),
        "recognize_ms": (median_ms(tally, "recognize"), "ms"),
        "decompose_ms": (median_ms(tally, "decompose"), "ms"),
        "verify_ms": (median_ms(tally, "verify"), "ms"),
        "recompose_ms": (median_ms(tally, "recompose"), "ms"),
        "document_ms": (median_ms(tally, "document"), "ms"),
        "reject_ms": (median_ms(tally, "reject"), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def tail_ms(tally: Tally) -> tuple[float, float] | None:
    """(percentile, value) of decompose: the highest percentile with at
    least ten inputs above it, given only from 40 inputs on."""
    xs = sorted(tally.best.get("decompose", {}).values())
    if len(xs) < TAIL_MIN_SAMPLES:
        return None
    return 100 * (len(xs) - 10) / len(xs), xs[len(xs) - 11] * 1e3


def describe(data: Inputs, tally: Tally) -> dict:
    """Make-up of the inputs: sizes, node kinds of the member trees, counts."""
    def hist(cases):
        out: dict[int, int] = {}
        for c in cases:
            out[c.graph.n] = out.get(c.graph.n, 0) + 1
        return dict(sorted(out.items()))
    kinds: dict[str, int] = {}
    for tree in tally.trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            kinds[type(node).__name__] = kinds.get(type(node).__name__, 0) + 1
            stack.extend(getattr(node, a) for a in ("quotient", "child", "part1", "part2")
                         if hasattr(node, a))
    out = {"members": len(data.members), "non_members": len(data.non_members),
           "member_sizes": hist(data.members), "non_member_sizes": hist(data.non_members),
           "tree_nodes": dict(sorted(kinds.items())),
           "tree_depth_max": max((checker.tree_depth(t) for t in tally.trees), default=0)}
    if data.census_counts is not None:
        out["census_members_by_n"] = data.census_counts
    return out


def per_layer(tracer: Tracer, rounds: int, trees: list, overhead_pct: float | None) -> dict:
    self_s = tracer.self_seconds()
    out: dict[str, tuple[float, str]] = {}
    for name in tracer.names:
        out[f"{name}.calls"] = (tracer.calls[name] / rounds, "count")
        out[f"{name}.self_s"] = (self_s[name] / rounds, "s")
    for name in HIT_RATIOS:
        calls = tracer.calls[name]
        out[f"{name}.hit_ratio"] = (tracer.hits[name] / calls if calls else 0.0, "ratio")
    out["decomposer.tree_nodes"] = (sum(checker.tree_nodes(t) for t in trees), "count")
    out["decomposer.tree_depth_max"] = (max((checker.tree_depth(t) for t in trees), default=0),
                                        "count")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    lib = load_library()
    setups, data = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = set_up(lib, workload, seed)
        setups.append(time.perf_counter() - t0)
        if data is not None and [c.rows for c in built.members + built.non_members] != \
                [c.rows for c in data.members + data.non_members]:
            sys.exit("bench: set-up is not a function of the seed")
        data = built

    if not trace:
        tally, rounds = measure(lib, data, seconds)
        metrics = end_to_end(tally, data, statistics.median(setups))
    else:
        plain, _ = measure(lib, data, seconds / 2)
        tracer = Tracer()
        tracer.install(lib)
        try:
            tally, rounds = measure(lib, data, seconds / 2)
        finally:
            tracer.uninstall()
        if data.census_counts is not None:
            traced, untraced = (sum(t.best.get("sweep", {}).values()) for t in (tally, plain))
        else:
            traced, untraced = busy_s(tally), busy_s(plain)
        overhead = 100 * (traced / untraced - 1) if traced and untraced else None
        metrics = per_layer(tracer, rounds, tally.trees, overhead)
        tracer.write(BENCH / "out" / f"trace-{workload}",
                     {"workload": workload, "seed": seed, "rounds": rounds})
        tally.attempted += plain.attempted
        tally.failed += plain.failed
        tally.wrong += plain.wrong
        tally.errors += plain.errors

    print(f"# workload {workload}, seed {seed}, {rounds} rounds, trace {int(trace)}")
    print("# inputs " + json.dumps(describe(data, tally)))
    for name, (value, unit) in metrics.items():
        print(f"{name} {'-' if value is None else f'{value:.6g}'} {unit}")
    tail = None if trace else tail_ms(tally)
    if tail is not None:
        print(f"# decompose_tail_ms {tail[1]:.6g} ms (p{tail[0]:.1f})")
    for what in tally.wrong[:5]:
        print(f"# WRONG: {what}")
    for what in tally.errors[:5]:
        print(f"# FAILED: {what}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
