"""hiergame benchmark: one workload per run, checked answers, metrics as JSON.

    python3 perfbench/run.py --workload sparse-exact --seed 7 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  With
``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json: the
median set-up time over several set-ups, then ops per second, median and
p90 op latency and peak RSS over whole rounds lasting at least
``--seconds``.  With ``--trace 1`` the run first times whole rounds
untraced for half of ``--seconds``, then wraps the package's public
functions (see spans.py) and replays the same rounds; it prints the
per-layer metrics, per round, and writes every span to
``.perfbench_out/trace-<workload>-seed<seed>.csv.gz``.

Times are reported at a reference CPU speed.  The single-thread speed of
shared machines drifts by tens of percent over seconds to minutes, so
every quarter second between ops the run times a fixed pure-Python loop
that does not touch hiergame, and divides each op latency, round time and
set-up time by the slowdown the loop showed around it (its time over the
reference time).  The program under test and the loop slow down together,
so the scaled times hold still while the raw ones move; a change to
hiergame moves only the former.  The raw values and the run's median
slowdown are printed with the environment.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

# single-threaded by design: numpy's BLAS would otherwise start a thread
# per core for the matrix products of the exact sums
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MIN_OPS = 100  # so that at least 10 op latencies lie beyond the p90
MAX_REPORTED_FAILURES = 5
PROBE_LOOPS = 50_000
PROBE_REFERENCE_S = 0.0033  # the probe loop's time at the reference speed
PROBE_EVERY_S = 0.25

# counters computed from call inputs or outputs, reported per round
COUNTERS = ("vote.configs_enumerated", "vote.draws", "ising.corridor_configs",
            "payoff.oracle_calls", "vote.oracle.hits", "cli.output_bytes")


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the CPU's current speed."""
    t0 = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return perf_counter() - t0


def fresh_import():
    """Import hiergame from scratch, so each set-up pays the package import."""
    for name in [n for n in sys.modules if n == "hiergame" or n.startswith("hiergame.")]:
        del sys.modules[name]
    return importlib.import_module("hiergame"), importlib.import_module("hiergame.cli")


def run_rounds(workload, seconds: float | None = None, rounds: int | None = None,
               min_ops: int = 0) -> dict:
    """Run whole rounds until `seconds` have passed and `min_ops` ops are
    done, or exactly `rounds` rounds.  Each op records the index of the
    latest speed probe; probe time is left out of every wall time."""
    latencies: list[float] = []
    op_probe: list[int] = []
    op_round: list[int] = []
    round_walls: list[float] = []
    probes: list[float] = []
    failed = 0
    done = 0
    probe_total = 0.0
    last_probe = -PROBE_EVERY_S
    start = perf_counter()
    while True:
        round_start, round_probes = perf_counter(), 0.0
        for op in workload.round(done):
            if perf_counter() - last_probe >= PROBE_EVERY_S:
                probe = speed_probe()
                probes.append(probe)
                round_probes += probe
                last_probe = perf_counter()
            op_probe.append(len(probes) - 1)
            op_round.append(done)
            t0 = perf_counter()
            try:
                result = op.run()
                latencies.append(perf_counter() - t0)
                ok = op.check(result)
                problem = "wrong answer"
            except Exception as exc:  # any op error is a failed op, not a crash
                latencies.append(perf_counter() - t0)
                ok, problem = False, f"{type(exc).__name__}: {exc}"
            if not ok:
                failed += 1
                if failed <= MAX_REPORTED_FAILURES:
                    print(f"failed op {op.kind} in round {done}: {problem}", file=sys.stderr)
        done += 1
        now = perf_counter()
        round_walls.append(now - round_start - round_probes)
        probe_total += round_probes
        if done == rounds or (rounds is None and now - start - probe_total >= seconds
                              and len(latencies) >= min_ops):
            return {"rounds": done, "wall": now - start - probe_total,
                    "round_walls": round_walls, "latencies": latencies, "probes": probes,
                    "op_probe": op_probe, "op_round": op_round,
                    "attempted": len(latencies), "failed": failed}


def slowdowns(probes: list[float]) -> list[float]:
    """Slowdown against the reference speed at each probe: the median of
    the probe and its two neighbours on each side (about a second)."""
    return [statistics.median(probes[max(0, i - 2):i + 3]) / PROBE_REFERENCE_S
            for i in range(len(probes))]


def end_to_end(phase: dict, setup_s: float, scaled: bool) -> dict:
    """End-to-end metrics, raw or at the reference speed.  Scaled, each op
    latency and each round's wall time is divided by the slowdown measured
    around it.  Every round holds the same ops, so the throughput of the
    median round is the run's throughput with slow outlier rounds left out."""
    factor = slowdowns(phase["probes"]) if scaled else None
    op_factor = [factor[i] if scaled else 1.0 for i in phase["op_probe"]]
    latencies = [d / f for d, f in zip(phase["latencies"], op_factor)]
    per_round: list[list[float]] = [[] for _ in phase["round_walls"]]
    for r, f in zip(phase["op_round"], op_factor):
        per_round[r].append(f)
    walls = [w / statistics.median(fs) for w, fs in zip(phase["round_walls"], per_round)]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "ops_per_s": phase["attempted"] / phase["rounds"] / statistics.median(walls),
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rec, names, rounds: int, overhead: float, factor: float) -> dict:
    """Per-layer metrics per round, from spans and computed counters; self
    times at the reference speed."""
    by_name = rec.self_times()
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            value = overhead
        elif name == "trace.rounds":
            value = rounds
        elif name == "vote.free_vertices_max":
            value = rec.free_vertices_max
        elif name == "vote.oracle.hit_ratio":
            calls = by_name.get("vote.oracle", (0, 0.0))[0]
            value = rec.counters["vote.oracle.hits"] / calls if calls else 0.0
        elif name in COUNTERS:
            value = rec.counters[name] / rounds
        elif name.endswith(".calls"):
            value = by_name.get(name[:-len(".calls")], (0, 0.0))[0] / rounds
        elif name.endswith(".self_s"):
            value = by_name.get(name[:-len(".self_s")], (0, 0.0))[1] / rounds / factor
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
        if isinstance(value, float) and value.is_integer() and not name.endswith("_s"):
            value = int(value)
        out[name] = value
    return out


def environment(workload: str, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hiergame" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no hiergame source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, scaled_setups = [], []
        before = speed_probe()
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            hg, cli = fresh_import()
            workload = WORKLOADS[args.workload](hg, cli, args.seed, workdir)
            setups.append(perf_counter() - t0)
            after = speed_probe()
            scaled_setups.append(setups[-1] * 2 * PROBE_REFERENCE_S / (before + after))
            before = after
        gc.collect()
        if args.trace:
            plain = run_rounds(workload, seconds=args.seconds / 2)
            rec = spans.Recorder()
            rec.install()
            workload.rec = rec
            traced = run_rounds(workload, rounds=plain["rounds"])
            factor = statistics.median(slowdowns(traced["probes"]))
            overhead = (traced["wall"] / factor) / (
                plain["wall"] / statistics.median(slowdowns(plain["probes"]))) - 1.0
            names = [m["name"] for m in spec["per_layer"]]
            raw = {}
            values = per_layer(rec, names, traced["rounds"], overhead, factor)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            rec.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv.gz")
            if rec.missing:
                print(f"not traced (absent): {', '.join(rec.missing)}", file=sys.stderr)
            phases = (plain, traced)
        else:
            phase = run_rounds(workload, seconds=args.seconds, min_ops=MIN_OPS)
            factor = statistics.median(slowdowns(phase["probes"]))
            raw = end_to_end(phase, statistics.median(setups), scaled=False)
            values = end_to_end(phase, statistics.median(scaled_setups), scaled=True)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            phases = (phase,)
        correct_rounds = workload.final_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    for name, value in values.items():
        note = f"  (raw {raw[name]:.6g})" if name in raw and raw[name] != value else ""
        print(f"{name:40s} {value:>16.6g} {units[name]}{note}")
    print(f"{'ops_failed_frac':40s} {failed / attempted:>16.6g} ratio")
    print(f"{'ops':40s} {attempted:>16d} count "
          f"({sum(p['rounds'] for p in phases)} rounds)")
    print(f"{'slowdown':40s} {factor:>16.6g} x reference speed")
    print(json.dumps({"env": environment(args.workload, args.seed), "raw": raw,
                      "slowdown": factor}))
    result = {
        "correct": failed == 0 and correct_rounds,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
