"""The paired-run verdict of bench/record.py."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)


def test_gain_needs_every_pair_and_medians_past_the_parent_spread():
    parent = [1400.0, 1430.0, 1410.0, 1420.0, 1440.0]
    out = record.compare(parent, [2200.0, 2250.0, 2180.0, 2230.0, 2260.0], True, 0.25)
    assert (out["verdict"], out["pairs_won"], out["pairs_lost"]) == ("gain", 5, 0)
    assert out["parent_median"] == 1420.0 and out["parent_quartiles"] == [1410.0, 1430.0]
    assert out["relative_change"] == pytest.approx(2230.0 / 1420.0 - 1.0)
    assert out["within_bound"]
    # one lost pair makes a tie, however far apart the medians are
    out = record.compare(parent, [2200.0, 2250.0, 2180.0, 2230.0, 1300.0], True, 0.25)
    assert (out["verdict"], out["pairs_won"], out["pairs_lost"]) == ("tie", 4, 1)
    # every pair won, but by less than the parent's own quartile spread
    out = record.compare(parent, [v + 5.0 for v in parent], True, 0.25)
    assert out["verdict"] == "tie" and out["pairs_won"] == 5
    # an identical change is a tie with no pair won or lost
    out = record.compare(parent, list(parent), True, 0.25)
    assert (out["verdict"], out["pairs_won"], out["pairs_lost"]) == ("tie", 0, 0)


def test_lower_is_better_and_the_bound_is_relative_to_the_parent():
    parent = [0.66, 0.65, 0.67]
    out = record.compare(parent, [0.41, 0.40, 0.42], False, 0.25)
    assert out["verdict"] == "gain" and out["within_bound"]
    out = record.compare(parent, [0.90, 0.91, 0.92], False, 0.25)
    assert out["verdict"] == "loss" and not out["within_bound"]
    out = record.compare(parent, [0.80, 0.81, 0.79], False, 0.25)
    assert out["verdict"] == "loss" and out["within_bound"]
    # one pair: its quartiles are its value
    assert record.compare([1.0], [0.5], False, 0.25)["parent_quartiles"] == [1.0, 1.0]


def _fake_tree(dest, script: str) -> None:
    """A tree whose perfbench/run.py is `script`, with a one-line package."""
    (dest / "perfbench").mkdir(parents=True)
    (dest / "perfbench" / "run.py").write_text(script)
    (dest / "src" / "hiergame").mkdir(parents=True)
    (dest / "src" / "hiergame" / "__init__.py").write_text("\n")


def _finishing_run(correct: bool = True, failed: int = 0, rate: float = 100.0) -> str:
    """A run.py that prints an environment line and a result line as
    perfbench/run.py does."""
    return f'''import json
metrics = {{"ops_per_s": {rate}, "op_p50_ms": 1.0, "op_p90_ms": 2.0, "peak_rss_mb": 40.0,
           "setup_s": 0.05}}
env = {{"nproc": 2, "cpu": "cpu", "python": "3", "numpy": "2", "scipy": "1",
       "src_sha256": "{rate}"}}
print(json.dumps({{"env": env, "raw": metrics, "slowdown": 1.0}}))
print(json.dumps({{"correct": {correct}, "attempted": 10, "failed": {failed},
                  "metrics": {{k: {{"value": v}} for k, v in metrics.items()}}}}))
'''


_CRASHING_RUN = '''import sys
sys.stderr.write("Traceback (most recent call last):\\nRuntimeError: boom\\n")
sys.exit(3)
'''


def _record(monkeypatch, tmp_path, capsys, parent: str, change: str) -> tuple[int, dict, str]:
    """record.main over two pairs of fake parent and change runs: its exit
    code, the record it wrote and what it printed on stdout."""
    monkeypatch.setattr(record, "export_commit",
                        lambda rev, dest: _fake_tree(dest, parent) or "0" * 40)
    monkeypatch.setattr(record, "export_working_tree", lambda dest: _fake_tree(dest, change))
    out = tmp_path / "bench.json"
    code = record.main(["--parent", "HEAD", "--workload", "regime-map", "--pairs", "2",
                        "--seconds", "1", "--seed", "5", "--out", str(out)])
    return code, json.loads(out.read_text()), capsys.readouterr().out


def test_valid_runs_get_verdicts(monkeypatch, tmp_path, capsys):
    code, rec, printed = _record(monkeypatch, tmp_path, capsys, _finishing_run(rate=100.0),
                                 _finishing_run(rate=200.0))
    entry = rec["workloads"]["regime-map"]
    assert code == 0 and entry["valid"] and entry["faults"] == []
    assert entry["metrics"]["ops_per_s"]["scaled"]["verdict"] == "gain"
    assert entry["metrics"]["op_p50_ms"]["raw"]["verdict"] == "tie"
    assert rec["trees"]["change"]["src_sha256"] == "200.0"
    assert "INVALID" not in printed
    # each metric's line shows the scaled medians, then the raw ones
    rows = {line.split()[1]: line.split()[2:] for line in printed.splitlines()}
    assert rows["ops_per_s"] == ["scaled", "100", "->", "200", "won", "2/2", "gain",
                                 "raw", "100", "->", "200", "won", "2/2", "gain"]
    assert rows["op_p50_ms"][-7:] == ["raw", "1", "->", "1", "won", "0/2", "tie"]


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)])
def test_wrong_answers_make_every_verdict_invalid(monkeypatch, tmp_path, capsys, correct,
                                                  failed):
    # a faster change that answered wrong, or failed an op, gains nothing
    code, rec, printed = _record(monkeypatch, tmp_path, capsys, _finishing_run(),
                                 _finishing_run(correct, failed, rate=200.0))
    entry = rec["workloads"]["regime-map"]
    assert code == 1 and not entry["valid"] and len(entry["faults"]) == 2
    assert "pair 0 change (seed 5) answered wrong" in entry["faults"][0]
    for metric in entry["metrics"].values():
        for kind in ("scaled", "raw"):
            assert metric[kind]["verdict"] == "invalid" and metric[kind]["pairs"] == 2
    assert entry["metrics"]["ops_per_s"]["scaled"]["pairs_won"] == 2
    assert printed.startswith("regime-map: INVALID")
    rows = [line for line in printed.splitlines() if line.startswith("regime-map ")]
    assert len(rows) == 5 and all(line.endswith(" invalid") and line.count(" invalid") == 2
                                  for line in rows)


def test_crashed_run_is_recorded_and_its_workload_invalid(monkeypatch, tmp_path, capsys):
    code, rec, printed = _record(monkeypatch, tmp_path, capsys, _finishing_run(),
                                 _CRASHING_RUN)
    entry = rec["workloads"]["regime-map"]
    assert code == 1 and not entry["valid"]
    crashed = [r for r in entry["runs"] if r["side"] == "change"]
    assert [(r["returncode"], r["stderr"], r["seed"]) for r in crashed] == \
        [(3, "RuntimeError: boom", 5), (3, "RuntimeError: boom", 6)]
    assert all(r["correct"] for r in entry["runs"] if r["side"] == "parent")
    assert entry["faults"][0] == \
        "pair 0 change (seed 5) crashed with exit code 3: RuntimeError: boom"
    assert entry["metrics"]["ops_per_s"]["scaled"] == {"pairs": 0, "verdict": "invalid"}
    assert "src_sha256" not in rec["trees"]["change"]
    assert printed.count("no pair finished invalid") == 10
