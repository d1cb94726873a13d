"""Alternating parent/change pairs of the benchmark, summed up per metric.

Usage, from the root of the repository:

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 30 --seed 2301
    python3 tools/bench_pairs.py --parent HEAD --workloads census6 --pairs 1 --seconds 2

The parent revision is checked out into a temporary ``git worktree``, which
is removed afterwards, also on failure; the change is the working tree this
script sits in, uncommitted edits included.  Pair i runs BENCHMARK.json's
command (``bench/run.py``, with this interpreter) once on each side, for each
workload, with seed ``--seed`` + i: the parent first on even i, the change
first on odd i.  A run that exits non-zero, is not ``correct`` or reports
``failed`` > 0 stops the script with exit status 1.

For each workload and end-to-end metric of BENCHMARK.json the script prints
the parent's and the change's medians, the change's difference, the
parent's interquartile range and in how many pairs the change was better,
in the direction of the metric's ``better``.  A change median worse than
the parent's by more than the metric's ``bound`` (a fraction of the
parent's median) is marked ``WORSE``; the mark does not change the exit
status.  Every run's last line, with its side, commit, seed, seconds and
Python version, goes to one JSON file (``--out``) with the summary.  The
script uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def run_bench(command: list[str], checkout: Path, workload: str, seed: int,
              seconds: float) -> dict:
    """One benchmark run in ``checkout``: its last line, parsed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {checkout} "
                         f"exited with {proc.returncode}")
    last = json.loads(lines[-1])
    if last.get("correct") is not True or last.get("failed") != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {checkout} was not correct "
                         f"or had failed operations")
    return last


def iqr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: list[dict], spec: dict) -> list[dict]:
    """One row per workload and end-to-end metric of ``spec`` (BENCHMARK.json's
    layout), from runs given as {"workload", "side", "pair", "result"}."""
    values: dict[tuple[str, str, str], dict[int, float]] = {}
    workloads: list[str] = []
    for run in runs:
        if run["workload"] not in workloads:
            workloads.append(run["workload"])
        for name, metric in run["result"]["metrics"].items():
            if metric["value"] is not None:
                values.setdefault((run["workload"], name, run["side"]), {})[run["pair"]] = \
                    metric["value"]
    rows = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = values.get((workload, name, "parent"), {})
            change = values.get((workload, name, "change"), {})
            pairs = sorted(parent.keys() & change.keys())
            if not pairs:
                continue
            p_med = statistics.median(parent[i] for i in pairs)
            c_med = statistics.median(change[i] for i in pairs)
            wins = sum(change[i] < parent[i] if lower else change[i] > parent[i] for i in pairs)
            delta = (c_med - p_med) / p_med if p_med else 0.0
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "better": metric["better"], "parent_median": p_med, "change_median": c_med,
                "delta": delta, "parent_iqr": iqr([parent[i] for i in pairs]),
                "change_wins": wins, "pairs": len(pairs),
                "worse_than_bound": (delta if lower else -delta) > metric["bound"],
            })
    return rows


def format_summary(rows: list[dict]) -> list[str]:
    lines, workload = [], None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            lines.append(f"{workload}: {'metric':<14} {'parent':>11} {'change':>11} "
                         f"{'delta':>8} {'parent IQR':>11}  change wins")
        mark = "  WORSE" if row["worse_than_bound"] else ""
        lines.append(f"{'':<{len(workload) + 1}} {row['metric']:<14} "
                     f"{row['parent_median']:>11.6g} {row['change_median']:>11.6g} "
                     f"{100 * row['delta']:>+7.1f}% {row['parent_iqr']:>11.4g}  "
                     f"{row['change_wins']}/{row['pairs']}{mark}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="per run; default: BENCHMARK.json's")
    parser.add_argument("--seed", type=int, default=1, help="the seed of pair 0")
    parser.add_argument("--out", default="bench_pairs.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable, *spec["command"][1:]]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    python = sys.version.split()[0]
    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    commits = {"parent": parent_commit, "change": git("rev-parse", "HEAD")}
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    worktree = tmp / "parent"
    runs = []
    try:
        git("worktree", "add", "--detach", str(worktree), parent_commit)
        checkouts = {"parent": worktree, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            for workload in workloads:
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result = run_bench(command, checkouts[side], workload, seed, seconds)
                    runs.append({"workload": workload, "side": side, "pair": i, "seed": seed,
                                 "seconds": seconds, "commit": commits[side],
                                 "dirty": dirty and side == "change", "python": python,
                                 "result": result})
                    print(f"pair {i} seed {seed} {workload} {side}: done", file=sys.stderr)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=ROOT,
                       capture_output=True, check=False)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True, check=False)

    rows = summarize(runs, spec)
    print(f"parent {parent_commit[:12]}, change {commits['change'][:12]}"
          f"{' with uncommitted edits' if dirty else ''}; {args.pairs} pairs of {seconds:g} s, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}, Python {python}")
    print("\n".join(format_summary(rows)))
    Path(args.out).write_text(json.dumps(
        {"parent": {"rev": args.parent, "commit": parent_commit},
         "change": {"commit": commits["change"], "dirty": dirty},
         "python": python, "seconds": seconds, "pairs": args.pairs, "seed": args.seed,
         "runs": runs, "summary": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
