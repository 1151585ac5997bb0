"""Checks of the benchmark itself (run from the repository root):

    python3 perfbench/selftest.py [workload ...]

For each workload, three shortest traced runs (one untraced and one traced
round each): two with one seed, one with another.  Every run must be correct
with no failed op, and every count metric must repeat exactly across the two
runs of one seed.  All counts except cli.output_bytes must also repeat across
the two seeds, since each round has the same mix and sizes whatever the
seed; output bytes follow the printed digits, which depend on the instances.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_DEPENDENT = {"cli.output_bytes"}


def traced_run(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    units = {"count", "count/round", "B/round", "ratio"}
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in units and name != "trace.overhead_frac"}


def check(workload: str) -> list[str]:
    first, again, other = traced_run(workload, 1), traced_run(workload, 1), traced_run(workload, 2)
    problems = []
    for label, result in (("seed 1", first), ("seed 1 again", again), ("seed 2", other)):
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload} {label}: correct={result['correct']} "
                            f"failed={result['failed']}")
    base = counts(first)
    for name, value in base.items():
        if counts(again)[name] != value:
            problems.append(f"{workload} {name}: {value} then {counts(again)[name]} at one seed")
        if name not in SEED_DEPENDENT and counts(other)[name] != value:
            problems.append(f"{workload} {name}: {value} at seed 1, {counts(other)[name]} at seed 2")
    return problems


def main(names) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in names or [w["name"] for w in spec["workloads"]]:
        found = check(name)
        print(f"{name}: {'ok' if not found else 'FAIL'}", flush=True)
        problems += found
    for line in problems:
        print("  " + line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
