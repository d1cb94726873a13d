"""The summary step of tools/bench_pairs.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = {"end_to_end": [
    {"name": "reject_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "graphs_per_s", "unit": "graphs/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(workload, side, pair, **metrics):
    return {"workload": workload, "side": side, "pair": pair,
            "result": {"metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}}


def test_medians_iqr_wins_and_bound(tool):
    parent_reject = [0.040, 0.050, 0.045, 0.060, 0.055]
    change_reject = [0.020, 0.030, 0.050, 0.025, 0.022]
    parent_rate = [100.0, 110.0, 90.0, 105.0, 95.0]
    change_rate = [70.0, 120.0, 60.0, 65.0, 75.0]
    runs = []
    for i in range(5):
        runs.append(run("members", "parent", i, reject_ms=parent_reject[i],
                        graphs_per_s=parent_rate[i], setup_s=None))
        runs.append(run("members", "change", i, reject_ms=change_reject[i],
                        graphs_per_s=change_rate[i], setup_s=None))
    rows = tool.summarize(runs, SPEC)
    # setup_s has no value on either side, so it has no row
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("members", "reject_ms"), ("members", "graphs_per_s")]
    reject, rate = rows
    assert reject["parent_median"] == 0.050 and reject["change_median"] == 0.025
    assert reject["delta"] == pytest.approx(-0.5)
    # inclusive quartiles of 0.040 0.045 0.050 0.055 0.060
    assert reject["parent_iqr"] == pytest.approx(0.010)
    assert (reject["change_wins"], reject["pairs"]) == (4, 5)
    assert not reject["worse_than_bound"]
    # higher is better: the change is better only in pair 1, and its median
    # is 30% below the parent's, past the 0.25 bound
    assert (rate["change_wins"], rate["pairs"]) == (1, 5)
    assert rate["delta"] == pytest.approx(-0.3)
    assert rate["worse_than_bound"]
    lines = tool.format_summary(rows)
    assert lines[0].startswith("members: metric")
    assert lines[1].split() == ["reject_ms", "0.05", "0.025", "-50.0%", "0.01", "4/5"]
    assert lines[2].split() == ["graphs_per_s", "100", "70", "-30.0%", "10", "1/5", "WORSE"]


def test_pairs_missing_a_side_are_left_out(tool):
    runs = [run("census6", "parent", 0, reject_ms=1.0), run("census6", "change", 0, reject_ms=1.3),
            run("census6", "parent", 1, reject_ms=2.0)]
    (row,) = tool.summarize(runs, SPEC)
    assert (row["parent_median"], row["change_median"], row["pairs"]) == (1.0, 1.3, 1)
    assert row["parent_iqr"] == 0.0 and row["change_wins"] == 0
    assert row["worse_than_bound"]
