"""Smoke test of tools/outputs_digest.py, the output-equivalence harness."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs_digest.py"


def digests():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--corpus", "labelled", "--max-n", "4"],
        capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_two_runs_print_the_same_digests():
    first, second = digests(), digests()
    assert first == second
    rows = [line.split() for line in first.splitlines()]
    assert [row[:2] for row in rows] == [
        ["labelled<=4", kind]
        for kind in ("documents", "witnesses", "events", "reports", "refutations", "readback")
    ]
    # 76 labelled graphs on n <= 4, all members, each decomposed and refuted
    # in both modes; none is big enough to take the unification branch
    assert [int(row[2]) for row in rows] == [152, 0, 0, 152, 152, 152]
    assert all(len(row[3]) == 64 for row in rows)
