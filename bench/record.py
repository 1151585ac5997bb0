"""Paired benchmark record: a parent commit against the working tree.

    python3 bench/record.py --parent HEAD --workload regime-map --pairs 10 \
        --seconds 20 --seed 31101 --out BENCH_31.json

Run from the repository root.  The parent side is a `git archive` of the
named commit; the change side is a copy of the working tree (the tracked
files as they are on disk, plus untracked files that are not ignored).
Each side runs `perfbench/run.py --trace 0` from its own copy, with
PYTHONDONTWRITEBYTECODE=1, one run at a time.  Pair i uses seed
``--seed + i`` on both sides; the parent runs first in even pairs and the
change in odd ones.

The JSON record holds, per workload and end-to-end metric, every pair's
scaled and raw values, each side's median and quartiles, the pairs each
side won, and a verdict: ``gain`` when the change won every pair and the
medians lie further apart than the parent's quartile spread, ``loss`` when
the parent did, else ``tie``.  A workload with a run that answered wrong,
failed an op or crashed is invalid: every metric's verdict is
``invalid``, its values are those of the pairs whose runs both finished,
and a crashed run is kept with its exit code and the last line of its
stderr.  The record is written either way, and the script then exits 1.
It also holds each run's probe slowdown, correctness and op counts, the
machine, the seeds, and each side's SHA-256 over ``src/**/*.py`` and
``src/hiergame`` line count.
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


def export_commit(rev: str, dest: Path) -> str:
    """The files of commit `rev` under `dest`, as `git archive` writes them;
    returns the commit's full hash."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def export_working_tree(dest: Path) -> None:
    """The working tree's tracked files as on disk, and its untracked files
    that .gitignore does not exclude, under `dest`."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True,
                            check=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def src_lines(tree: Path) -> int:
    return sum(len(path.read_bytes().splitlines())
               for path in sorted((tree / "src" / "hiergame").rglob("*.py")))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run from `tree`: its result line and
    the environment line printed before it, or, when it exits non-zero, its
    exit code and the last line of its stderr."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        *_, last = [""] + proc.stderr.strip().splitlines()
        return {"seed": seed, "returncode": proc.returncode, "stderr": last}
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    info, result = json.loads(env_line), json.loads(result_line)
    return {
        "seed": seed,
        "returncode": 0,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "slowdown": info["slowdown"],
        "scaled": {name: m["value"] for name, m in result["metrics"].items()},
        "raw": info["raw"],
        "env": info["env"],
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def compare(parent: list[float], change: list[float], higher_better: bool,
            bound: float) -> dict:
    """Both sides' values of one metric over the pairs, their medians and
    quartiles, the pairs each side won (ties count for neither) and the
    verdict.  `within_bound` says whether the change's median is worse than
    the parent's by at most `bound`, a fraction of the parent's median."""
    sign = 1.0 if higher_better else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    mid_p, mid_c = statistics.median(parent), statistics.median(change)
    q_p = quartiles(parent)
    apart = abs(mid_c - mid_p) > q_p[1] - q_p[0]
    n = len(parent)
    verdict = "gain" if won == n and apart else "loss" if lost == n and apart else "tie"
    return {
        "parent": parent, "change": change,
        "parent_median": mid_p, "change_median": mid_c,
        "parent_quartiles": q_p, "change_quartiles": quartiles(change),
        "relative_change": mid_c / mid_p - 1.0 if mid_p else None,
        "pairs": n, "pairs_won": won, "pairs_lost": lost, "verdict": verdict,
        "within_bound": sign * (mid_p - mid_c) <= bound * abs(mid_p),
    }


def faults(runs: list[dict]) -> list[str]:
    """What makes the runs of one workload invalid, one line per bad run:
    a crash, a wrong answer or a failed op."""
    lines = []
    for r in runs:
        where = f"pair {r['pair']} {r['side']} (seed {r['seed']})"
        if r["returncode"]:
            lines.append(f"{where} crashed with exit code {r['returncode']}: {r['stderr']}")
        elif not r["correct"] or r["failed"]:
            lines.append(f"{where} answered wrong: correct {r['correct']}, "
                         f"{r['failed']} of {r['attempted']} ops failed")
    return lines


def summarise(runs: list[dict], spec: dict, valid: bool = True) -> dict:
    """Per end-to-end metric of `spec` (BENCHMARK.json), the comparison of
    the scaled values and of the raw ones over the pairs whose runs both
    finished; every verdict is ``invalid`` unless `valid`."""
    done = {(r["pair"], r["side"]): r for r in runs if not r["returncode"]}
    pairs = sorted({i for i, _ in done if (i, "parent") in done and (i, "change") in done})
    metrics = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for kind in ("scaled", "raw"):
            parent, change = ([done[i, side][kind][name] for i in pairs]
                              for side in ("parent", "change"))
            out = compare(parent, change, higher, m["bound"]) if pairs else {"pairs": 0}
            if not valid:
                out["verdict"] = "invalid"
            metrics[name][kind] = out
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to run; repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="JSON record to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"seconds": args.seconds, "pairs": args.pairs,
              "seeds": [args.seed + i for i in range(args.pairs)],
              "command": "PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py "
                         "--workload W --seed S --seconds T --trace 0",
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="hiergame-bench-") as scratch:
        trees = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        record["parent_commit"] = export_commit(args.parent, trees["parent"])
        export_working_tree(trees["change"])
        record["trees"] = {side: {"src_lines": src_lines(tree)} for side, tree in trees.items()}
        record["src_lines_net"] = (record["trees"]["change"]["src_lines"]
                                   - record["trees"]["parent"]["src_lines"])
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(record["seeds"]):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(trees[side], workload, seed, args.seconds)
                    run.update(side=side, pair=i, first=order[0] == side)
                    runs.append(run)
                    print(f"{workload} pair {i} {side}: " + (
                        f"exit code {run['returncode']}" if run["returncode"] else
                        f"ops_per_s {run['scaled']['ops_per_s']:.6g} slowdown "
                        f"{run['slowdown']:.3g} correct {run['correct']}"),
                        file=sys.stderr, flush=True)
            for run in runs:
                env = run.pop("env", None)
                if env is not None:
                    record.setdefault("machine", {k: env[k] for k in (
                        "nproc", "cpu", "python", "numpy", "scipy")})
                    record["trees"][run["side"]].setdefault("src_sha256", env["src_sha256"])
            invalid = faults(runs)
            record["workloads"][workload] = {
                "valid": not invalid, "faults": invalid,
                "runs": runs, "metrics": summarise(runs, spec, not invalid)}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(summary_lines(record)))
    return 0 if all(entry["valid"] for entry in record["workloads"].values()) else 1


def summary_lines(record: dict) -> list[str]:
    """The printed summary: per workload and metric the scaled medians, the
    pairs won and the verdict, after the faults of an invalid workload."""
    lines = []
    for workload, entry in record["workloads"].items():
        if not entry["valid"]:
            lines.append(f"{workload}: INVALID, every verdict is invalid")
            lines += [f"  {line}" for line in entry["faults"]]
        for name, m in entry["metrics"].items():
            s = m["scaled"]
            medians = (f"{s['parent_median']:>10.4g} -> {s['change_median']:>10.4g} "
                       f"won {s['pairs_won']}/{s['pairs']}" if s["pairs"] else
                       f"{'no pair finished':>38s}")
            lines.append(f"{workload:15s} {name:12s} {medians} {s['verdict']}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
