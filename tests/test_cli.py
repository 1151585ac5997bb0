"""End-to-end command-line behavior: exit codes, files, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import hiergame as hg
from hiergame import cli
from hiergame.cli import (EXIT_CAP, EXIT_DEGENERATE, EXIT_INTERNAL, EXIT_INVARIANT, EXIT_OK,
                          EXIT_PARSE, main)


def _write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    hg.save_graph(g, path)
    return str(path)


def _write_game(tmp_path, name="game.json"):
    path = tmp_path / name
    hg.save_game(hg.prisoners_dilemma(), path)
    return str(path)


_CONDITION = ["--condition", "d1=+1", "--condition", "d2=-1"]


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_validate_ok(tmp_path):
    graph = _write_graph(tmp_path, hg.crossed_chains())
    out = str(tmp_path / "report.json")
    assert main(["validate", "--graph", graph, "--out", out]) == EXIT_OK
    report = _read_json(out)
    assert report["ok"] is True
    assert report["violations"] == []


def test_validate_names_offending_vertex(tmp_path):
    data = hg.graph_to_dict(hg.single_chain(2))
    for edge in data["edges"]:
        edge["weight"] = 0.3
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    out = str(tmp_path / "report.json")
    assert main(["validate", "--graph", str(path), "--out", out]) == EXIT_INVARIANT
    report = _read_json(out)
    assert report["ok"] is False
    assert any("u1" in v and "sum" in v for v in report["violations"])


def test_parse_failure_exit(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{oops")
    assert main(["validate", "--graph", str(path)]) == EXIT_PARSE
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "GraphFormatError"
    assert "JSON" in err["message"]


def test_internal_error_exit(tmp_path, capsys, monkeypatch):
    # a fault inside a subcommand ends as one JSON line and exit code 1
    def broken(g):
        raise RuntimeError("broken validator")

    monkeypatch.setattr(cli, "validate_graph", broken)
    graph = _write_graph(tmp_path, hg.single_chain(2))
    assert main(["validate", "--graph", graph]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err) == {"error": "RuntimeError", "message": "broken validator"}


def test_parser_is_reused_without_carry_over(tmp_path, capsys):
    graph = _write_graph(tmp_path, hg.crossed_chains())
    assert cli._parser() is cli._parser()
    assert main(["influence", "--graph", graph,
                 "--condition", "d1=-1", "--condition", "d2=+1"]) == EXIT_OK
    capsys.readouterr()
    # the second run gives no --condition: nothing is left over from the first
    assert main(["influence", "--graph", graph]) == EXIT_INVARIANT
    err = json.loads(capsys.readouterr().err)
    assert "missing=['d1', 'd2']" in err["message"]


def test_unreadable_graph_everywhere(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["influence", "--graph", missing,
                 "--condition", "d1=+1"]) == EXIT_PARSE


def test_influence_matches_closed_form(tmp_path):
    graph = _write_graph(tmp_path, hg.crossed_chains())
    out = str(tmp_path / "influence.json")
    code = main(["influence", "--graph", graph, "--out", out,
                 "--condition", "d1=-1", "--condition", "d2=+1"])
    assert code == EXIT_OK
    table = _read_json(out)
    x_closed, _ = hg.chain_xy(4, 4, 1.0)
    assert table["prob_plus"]["1"] == pytest.approx(x_closed, abs=1e-12)
    assert table["condition"] == {"d1": -1, "d2": 1}

    code = main(["influence", "--graph", graph, "--out", out,
                 "--mode", "gaussian",
                 "--condition", "d1=+1", "--condition", "d2=+1"])
    assert code == EXIT_OK
    assert _read_json(out)["mode"] == "gaussian"


def test_influence_requires_full_condition(tmp_path, capsys):
    graph = _write_graph(tmp_path, hg.crossed_chains())
    for command in ("influence", "sample"):
        assert main([command, "--graph", graph,
                     "--condition", "d1=+1"]) == EXIT_INVARIANT
        assert "missing=['d2'] extra=[]" in capsys.readouterr().err
        assert main([command, "--graph", graph, "--condition", "d1=+1",
                     "--condition", "d2=+1", "--condition", "u=-1"]) == EXIT_INVARIANT
        assert "missing=[] extra=['u']" in capsys.readouterr().err
        assert main([command, "--graph", graph, "--condition", "d1=+1",
                     "--condition", "d1=-1",
                     "--condition", "d2=+1"]) == EXIT_INVARIANT


# the one 3-decider graph of test_game's transform pool, as JSON
_THREE_DECIDERS = {
    "vertices": [{"id": "v0", "role": "agent"}, {"id": "v1", "role": "agent"},
                 {"id": "v2", "role": "decider"}, {"id": "v3", "role": "decider"},
                 {"id": "v4", "role": "executive"}, {"id": "v5", "role": "executive"},
                 {"id": "v6", "role": "decider"}],
    "edges": [{"from": "v1", "to": "v0", "weight": 0.42976919345158615},
              {"from": "v2", "to": "v1", "weight": 0.43909544615176466},
              {"from": "v3", "to": "v0", "weight": 0.1758484866687668},
              {"from": "v1", "to": "v4", "weight": 1.0},
              {"from": "v0", "to": "v5", "weight": 0.34652892602075697},
              {"from": "v6", "to": "v0", "weight": 0.39438231987964706},
              {"from": "v6", "to": "v1", "weight": 0.5609045538482352},
              {"from": "v2", "to": "v5", "weight": 0.653471073979243}],
    "free_float": 0.572184409937582, "noise_sigma": 0.6554300259595989}


@pytest.mark.parametrize("graph, conditions, digest", [
    # crossed chains under all four command vectors
    (hg.graph_to_dict(hg.crossed_chains()),
     [["d1=+1", "d2=+1"], ["d1=+1", "d2=-1"], ["d1=-1", "d2=+1"], ["d1=-1", "d2=-1"]],
     "52f3ee946883eaf10848f975721a234ecd536a489e90b52f076f53b5fcdaf350"),
    # three deciders, the first of them commanding -1
    (_THREE_DECIDERS, [["v2=-1", "v3=+1", "v6=-1"]],
     "0691e56ddd43b9726dd44e05c445072d21a61b5b276e24d69d4c695a9754cb0a"),
])
def test_influence_output_is_pinned(tmp_path, capsys, graph, conditions, digest):
    # `influence` stdout in both modes, pinned byte for byte
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    h = hashlib.sha256()
    for mode, condition in itertools.product(("tanh", "gaussian"), conditions):
        argv = ["influence", "--graph", str(path), "--mode", mode]
        assert main(argv + [f"--condition={c}" for c in condition]) == EXIT_OK
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == digest


def test_ising_command(tmp_path):
    graph = _write_graph(tmp_path, hg.two_decider_chain(2, 3))
    out = str(tmp_path / "ising.json")
    code = main(["ising", "--graph", graph, "--target", "1", "--out", out,
                 "--condition", "d1=+1", "--condition", "d2=+1"])
    assert code == EXIT_OK
    _, y_closed = hg.chain_xy(2, 3, 1.0)
    assert _read_json(out)["prob_plus"] == pytest.approx(y_closed, abs=1e-12)


def _single_error_line(capsys) -> dict:
    """The one JSON error object a failed run wrote, once it printed nothing."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_ising_out_of_float_range_exits_invariant(tmp_path, capsys):
    # Z(-1) and Z(+1) both overflow: no "prob_plus": NaN on stdout
    g = hg.two_decider_chain(300, 300, noise_sigma=hg.sigma_for_beta(3.0))
    argv = ["ising", "--graph", _write_graph(tmp_path, g), "--target", "1",
            "--condition", "d1=+1", "--condition", "d2=-1"]
    assert main(argv) == EXIT_INVARIANT
    err = _single_error_line(capsys)
    assert err["error"] == "ValueError" and "beta" in err["message"]


def test_infinite_gain_exits_at_load(tmp_path, capsys):
    # sqrt(2/pi)/sigma is infinite: influence printed NaN and sample 0.0
    graph = _write_graph(tmp_path, hg.two_decider_chain(1, 1, noise_sigma=1e-320))
    for command in ("influence", "sample", "ising"):
        argv = [command, "--graph", graph, "--condition", "d1=+1", "--condition", "d2=-1"]
        if command == "ising":
            argv += ["--target", "1"]
        assert main(argv) == EXIT_PARSE
        err = _single_error_line(capsys)
        assert err["error"] == "GraphFormatError" and "gain" in err["message"]
    assert main(["validate", "--graph", graph]) == EXIT_INVARIANT
    assert json.loads(capsys.readouterr().out)["violations"] == \
        ["noise_sigma 1e-320 makes the gain infinite"]


def test_json_output_refuses_non_finite_floats():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            cli._emit_json({"prob_plus": value}, None)


def test_transform_nash_round_trip(tmp_path):
    graph = _write_graph(tmp_path, hg.crossed_chains())
    game = _write_game(tmp_path)
    tensor = str(tmp_path / "tensor.json")
    assert main(["transform", "--graph", graph, "--game", game,
                 "--out", tensor]) == EXIT_OK

    via_tensor = str(tmp_path / "nash1.json")
    via_files = str(tmp_path / "nash2.json")
    assert main(["nash", "--tensor", tensor, "--out", via_tensor]) == EXIT_OK
    assert main(["nash", "--graph", graph, "--game", game,
                 "--out", via_files]) == EXIT_OK
    first, second = _read_json(via_tensor), _read_json(via_files)
    assert first == second
    assert first["equilibria"][0]["profile"] == [["C", "C"], ["C", "C"]]

    assert main(["nash"]) == EXIT_INVARIANT


def test_nash_rejects_malformed_tensor(tmp_path):
    graph = _write_graph(tmp_path, hg.crossed_chains())
    game = _write_game(tmp_path)
    tensor = str(tmp_path / "tensor.json")
    main(["transform", "--graph", graph, "--game", game, "--out", tensor])
    data = _read_json(tensor)
    data["payoffs"] = data["payoffs"][:2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["nash", "--tensor", str(bad)]) == EXIT_PARSE


@pytest.mark.parametrize("field, value, message", [
    ("labels", {"+1": "C", "-1": "C"}, "labels must name +1 and -1 distinctly, got 'C' for both"),
    ("strategies", [["C", "C"]] * 4, "strategies must be distinct command vectors"),
    ("strategies", [["C"], ["D"], ["C", "D"], ["D", "D"]], "one move per executive"),
])
def test_nash_refuses_ambiguous_tensor(tmp_path, capsys, field, value, message):
    # equal labels or repeated or short strategies make profiles ambiguous:
    # exit 2, not an equilibrium over them
    graph = _write_graph(tmp_path, hg.crossed_chains())
    tensor = tmp_path / "tensor.json"
    assert main(["transform", "--graph", graph, "--game", _write_game(tmp_path),
                 "--out", str(tensor)]) == EXIT_OK
    data = _read_json(tensor)
    data[field] = value
    tensor.write_text(json.dumps(data))
    assert main(["nash", "--tensor", str(tensor)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "GameFormatError" and message in err["message"]


# a decider tensor over one executive, where a string of one-character
# moves or names could pass for a list of them
_ONE_EXECUTIVE_TENSOR = {
    "deciders": ["d1", "d2"], "executives": ["1"], "labels": {"+1": "C", "-1": "D"},
    "strategies": [["C"], ["D"]], "payoffs": [[[1, 1], [0, 2]], [[2, 0], [0, 0]]],
    "provenance": {},
}


@pytest.mark.parametrize("kind, field, value, name", [
    ("game", ("players",), "12", "players"),
    ("game", ("payoffs", 1, "profile"), "CD", "profile"),
    ("game", ("payoffs", 0, "u"), "11", "u"),
    ("tensor", ("deciders",), "dx", "deciders"),
    ("tensor", ("executives",), "1", "executives"),
    ("tensor", ("strategies",), "CD", "strategies"),
    ("tensor", ("strategies", 0), "C", "strategy"),
])
def test_string_in_place_of_a_list_is_refused(tmp_path, capsys, kind, field, value, name):
    # read as a list of its characters, each of these strings would make a
    # valid file; it is refused instead: exit 2 and one JSON line
    graph = _write_graph(tmp_path, hg.crossed_chains())
    data = json.loads(json.dumps(hg.game_to_dict(hg.prisoners_dilemma()) if kind == "game"
                                 else _ONE_EXECUTIVE_TENSOR))
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    argv = (["transform", "--graph", graph, "--game", str(path)] if kind == "game"
            else ["nash", "--tensor", str(path)])
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    *steps, key = field
    target = data
    for step in steps:
        target = target[step]
    target[key] = value
    path.write_text(json.dumps(data))
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({
        "error": "GameFormatError",
        "message": f"{name} must be a list, got the string {value!r}"}) + "\n"


def test_file_errors_name_the_file(tmp_path, capsys):
    # every input file that cannot be read or is not JSON exits 2 with a
    # message that names the file
    graph = _write_graph(tmp_path, hg.crossed_chains())
    game = _write_game(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    for bad in (broken, tmp_path / "absent.json"):
        for argv in (["validate", "--graph", str(bad)],
                     ["transform", "--graph", graph, "--game", str(bad)],
                     ["nash", "--tensor", str(bad)]):
            assert main(argv) == EXIT_PARSE
            err = json.loads(capsys.readouterr().err)
            assert str(bad) in err["message"], (argv, err)


def _input_files(directory) -> dict[str, str]:
    """Paths of a valid graph (crossed_chains), game and decider-tensor file
    written to `directory`, by kind."""
    paths = {kind: str(Path(directory) / f"{kind}.json") for kind in ("graph", "game", "tensor")}
    hg.save_graph(hg.crossed_chains(), paths["graph"])
    hg.save_game(hg.prisoners_dilemma(), paths["game"])
    assert main(["transform", "--graph", paths["graph"], "--game", paths["game"],
                 "--out", paths["tensor"]]) == EXIT_OK
    return paths


# every run of every subcommand that reads a file, by the kind of file
_READERS = {
    "graph": (["validate", "--graph", "{graph}"],
              ["influence", "--graph", "{graph}"] + _CONDITION,
              ["ising", "--graph", "{graph}", "--target", "1"] + _CONDITION,
              ["sample", "--graph", "{graph}", "--samples", "50"] + _CONDITION,
              ["transform", "--graph", "{graph}", "--game", "{game}"],
              ["nash", "--graph", "{graph}", "--game", "{game}"]),
    "game": (["transform", "--graph", "{graph}", "--game", "{game}"],
             ["nash", "--graph", "{graph}", "--game", "{game}"]),
    "tensor": (["nash", "--tensor", "{tensor}"],),
}


@pytest.mark.parametrize("argv", _READERS["graph"] + _READERS["tensor"] + (
    ["sweep", "--vary", "x=0.1:0.9:5", "--fix", "y=0.8"],), ids=lambda argv: argv[0] + argv[1])
def test_unwritable_out_exits_parse(tmp_path, capsys, argv):
    # every subcommand that writes output exits 2 when --out cannot be
    # opened, and says which path
    paths = _input_files(tmp_path)
    out = tmp_path / "missing" / "out.json"
    assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == EXIT_PARSE
    assert str(out) in _single_error_line(capsys)["message"]
    assert not out.parent.exists()


@pytest.mark.parametrize("seed", ["-1", "-12345678901234567890", "x"])
def test_sample_refuses_a_bad_seed_as_a_usage_error(tmp_path, capsys, seed):
    # numpy refuses a negative seed once drawing starts (exit 3, naming no
    # flag); the parser refuses it first, naming --seed
    graph = _write_graph(tmp_path, hg.crossed_chains())
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--graph", graph, "--samples", "10", "--seed", seed] + _CONDITION)
    assert exc.value.code == EXIT_PARSE
    err = _single_error_line(capsys)
    assert err["error"] == "ArgumentError" and "--seed" in err["message"]


def test_sample_determinism(tmp_path):
    graph = _write_graph(tmp_path, hg.crossed_chains())
    first = tmp_path / "s1.json"
    second = tmp_path / "s2.json"
    flags = ["sample", "--graph", graph, "--samples", "4000", "--seed", "11",
             "--condition", "d1=+1", "--condition", "d2=+1"]
    assert main(flags + ["--out", str(first)]) == EXIT_OK
    assert main(flags + ["--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()

    freq = _read_json(first)["freq_plus"]
    dist = hg.conditional_influence(
        hg.crossed_chains(), {"d1", "d2"}, {"1"}, {"d1": 1, "d2": 1},
        hg.VoteParams.from_beta(1.0, 0.5))
    assert freq["1"] == pytest.approx(dist.plus_prob("1"), abs=0.03)
    # each frequency is exactly the share of +1 draws of the same sampler run
    g = hg.crossed_chains()
    draws = hg.sample_many(g, {"d1": 1, "d2": 1}, hg.VoteParams.from_graph(g), 4000, 11)
    assert freq == {i: float(np.mean(draws[i] == 1)) for i in ("1", "2")}


_CHAIN_300 = hg.graph_to_dict(hg.single_chain(300, free_float=0.2))


@pytest.mark.parametrize("graph, conditions, samples, helper, digest", [
    # crossed chains under all four command vectors
    (hg.graph_to_dict(hg.crossed_chains()),
     [["d1=+1", "d2=+1"], ["d1=+1", "d2=-1"], ["d1=-1", "d2=+1"], ["d1=-1", "d2=-1"]],
     1000, False, "e52c351308102e8b59d5bd77db5153bcb3d8b4010abfa633722dc224c6ca5fc8"),
    # a long chain at one draw and at 4000, the latter also with the
    # uniform-filling helper thread
    (_CHAIN_300, [["d1=+1"], ["d1=-1"]], 1, False,
     "27ff20c58e9f4a0b1f47ed736379b983caeb00d84f961bea5b3bf0dcfa2e6c36"),
    (_CHAIN_300, [["d1=+1"], ["d1=-1"]], 4000, False,
     "a18ceb784942f72a364164366ef36036a30788dd3ca0b97cbd4b1f0c8d6ab8a0"),
    (_CHAIN_300, [["d1=+1"], ["d1=-1"]], 4000, True,
     "a18ceb784942f72a364164366ef36036a30788dd3ca0b97cbd4b1f0c8d6ab8a0"),
    # fan-in 2 to 11 at 100 draws: tables at fan-in 2 and 3, per-draw
    # fields above
    (hg.graph_to_dict(helpers.complete_dag(10)), [["d0=+1", "d1=-1"], ["d0=-1", "d1=-1"]],
     100, False, "849daa2560988cbee8ed494a0f0a8fe02ad987ba2d3aeecf0e42e85ddf941f3e"),
    # executives with successors
    (hg.graph_to_dict(helpers.executive_successors()),
     [["d1=+1", "d2=-1"], ["d1=-1", "d2=-1"]], 2000, False,
     "716f3de6f1ab9a1c3e7df7d7b4404e03600412def6d07a8ff10eb1052db9437a"),
])
def test_sample_output_is_pinned(tmp_path, capsys, monkeypatch, graph, conditions, samples,
                                 helper, digest):
    # `sample` stdout in both modes, pinned byte for byte
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    started = helpers.sampler_helper(monkeypatch, helper)
    h = hashlib.sha256()
    for mode, condition in itertools.product(("tanh", "gaussian"), conditions):
        argv = ["sample", "--graph", str(path), "--mode", mode, "--samples", str(samples),
                "--seed", "23"]
        assert main(argv + [f"--condition={c}" for c in condition]) == EXIT_OK
        h.update(capsys.readouterr().out.encode())
    assert len(started) == (2 * len(conditions) if helper else 0)
    assert h.hexdigest() == digest


@pytest.mark.parametrize("helper", [False, True])
def test_sample_holds_only_the_executives_draws(tmp_path, monkeypatch, helper):
    # `sample` keeps the executive's draws and the few rows still to be
    # read: on a 2000-edge chain at 5000 draws its peak, graph loading
    # included, stays well under one byte per vertex per draw (keeping
    # every vertex's draws, it peaked at 12.9 MB, 1.29 bytes)
    g = hg.single_chain(2000)
    n = 5000
    argv = ["sample", "--graph", _write_graph(tmp_path, g), "--seed", "1",
            "--condition", "d1=+1", "--out", str(tmp_path / "out.json"), "--samples"]
    started = helpers.sampler_helper(monkeypatch, helper)
    assert main(argv + ["10"]) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(argv + [str(n)]) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= len(g.vertices) * n // 2
    assert len(started) == (2 if helper else 0)


@pytest.mark.parametrize("helper", [False, True])
def test_sample_counts_its_draws_as_they_are_drawn(tmp_path, monkeypatch, helper):
    # `sample` on 2000 executives, each without successors, at 5000 draws:
    # it counts each executive's draws and hands the row back, so its peak
    # stays within the graph load's own peak plus 300 bytes per draw
    # (keeping the executives' draws needs 2000 bytes per draw, 10 MB)
    g = helpers.fan_hierarchy(2000, 1)
    n = 5000
    path = _write_graph(tmp_path, g)
    argv = ["sample", "--graph", path, "--seed", "1", "--condition", "d0=+1",
            "--out", str(tmp_path / "out.json"), "--samples"]
    started = helpers.sampler_helper(monkeypatch, helper)
    assert main(argv + ["10"]) == EXIT_OK
    tracemalloc.start()
    try:
        hg.load_graph(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        assert main(argv + [str(n)]) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= load_peak + 300 * n
    assert len(started) == (2 if helper else 0)
    freq = _read_json(tmp_path / "out.json")["freq_plus"]
    draws = hg.sample_many(g, {"d0": 1}, hg.VoteParams.from_graph(g), n, 1)
    assert freq == {i: float(np.mean(draws[i] == 1)) for i in sorted(hg.executives(g))}


def test_sample_limit_exit(tmp_path, capsys, monkeypatch):
    g = hg.crossed_chains()
    graph = _write_graph(tmp_path, g)
    flags = ["sample", "--graph", graph, "--condition", "d1=+1", "--condition", "d2=+1"]
    t0 = time.perf_counter()
    assert main(flags + ["--samples", "10000000000000"]) == EXIT_INVARIANT
    assert time.perf_counter() - t0 < 1.0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert str(hg.vote.MAX_SAMPLE_SPINS) in err["message"]
    # the README example fits with room to spare
    assert 100000 * len(g.vertices) <= hg.vote.MAX_SAMPLE_SPINS // 10
    # the limit counts draws times vertices, inclusive
    monkeypatch.setattr(hg.vote, "MAX_SAMPLE_SPINS", 100 * len(g.vertices))
    assert main(flags + ["--samples", "100"]) == EXIT_OK
    assert main(flags + ["--samples", "101"]) == EXIT_INVARIANT


def test_tensor_limit_exit(tmp_path, capsys):
    # 10 executives under 3 deciders: transform and nash refuse the tensor
    # at once, with one JSON line naming the limit
    g = helpers.fan_hierarchy(10, 3)
    graph = _write_graph(tmp_path, g)
    execs = tuple(sorted(hg.executives(g)))
    game = tmp_path / "game10.json"
    hg.save_game(hg.NormalFormGame(execs, {
        spins: tuple(float(s) for s in spins)
        for spins in itertools.product((1, -1), repeat=len(execs))}), game)
    for command in ("transform", "nash"):
        t0 = time.perf_counter()
        assert main([command, "--graph", graph, "--game", str(game)]) == EXIT_INVARIANT
        assert time.perf_counter() - t0 < 1.0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert str(hg.game.MAX_TENSOR_ENTRIES) in err["message"]


def test_cap_exit(tmp_path):
    # the last of 8 free vertices of a complete DAG needs a table over all 8
    graph = _write_graph(tmp_path, helpers.complete_dag(8))
    argv = ["influence", "--graph", graph, "--condition", "d0=+1", "--condition", "d1=+1"]
    assert main(argv + ["--cap", "7"]) == EXIT_CAP
    assert main(argv + ["--cap", "8"]) == EXIT_OK


def test_transform_without_decider_exit(tmp_path, capsys):
    # no decider to share to is an invalid input (exit 3), refused before
    # any sum can go over the cap (exit 4)
    g = hg.HierarchyGraph((hg.Vertex("1", "executive"), hg.Vertex("2", "executive")),
                          (hg.Edge("1", "2", 1.0), hg.Edge("2", "1", 1.0)), 0.5, 1.0)
    argv = ["transform", "--graph", _write_graph(tmp_path, g), "--game", _write_game(tmp_path)]
    for cap in ([], ["--cap", "1"]):
        assert main(argv + cap) == EXIT_INVARIANT
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "need at least one decider"}


def test_transform_shares_on_cycle_exit(tmp_path, capsys):
    # path shares on a cyclic hierarchy are an invalid input (exit 3),
    # refused before any sum can go over the cap (exit 4)
    g = hg.HierarchyGraph(
        (hg.Vertex("d1", "decider"), hg.Vertex("a", "agent"),
         hg.Vertex("1", "executive"), hg.Vertex("2", "executive")),
        (hg.Edge("d1", "a", 0.5), hg.Edge("1", "a", 0.5), hg.Edge("a", "1", 1.0),
         hg.Edge("a", "2", 1.0)), 0.5, 1.0)
    argv = ["transform", "--graph", _write_graph(tmp_path, g), "--game", _write_game(tmp_path),
            "--mechanism", "shares"]
    for cap in ([], ["--cap", "1"]):
        assert main(argv + cap) == EXIT_INVARIANT
        assert json.loads(capsys.readouterr().err) == {
            "error": "CyclicGraphError", "message": "path shares need an acyclic hierarchy"}


def test_transform_refuses_repeated_players(tmp_path, capsys):
    # a game over players 1, 1, 2 would count executive 1 twice
    path = tmp_path / "game.json"
    data = hg.game_to_dict(hg.NormalFormGame(
        ("1", "2", "3"), {s: (1.0, 2.0, 3.0) for s in itertools.product((1, -1), repeat=3)}))
    data["players"] = ["1", "1", "2"]
    path.write_text(json.dumps(data))
    graph = _write_graph(tmp_path, hg.crossed_chains())
    for mechanism in ("shapley", "shares"):
        assert main(["transform", "--graph", graph, "--game", str(path),
                     "--mechanism", mechanism]) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GameFormatError" and "distinct" in err["message"]


def test_cap_below_one_exit(tmp_path, capsys):
    # a cap below 1 is an invalid input (exit 3), not an over-cap sum (exit 4)
    graph = _write_graph(tmp_path, hg.crossed_chains())
    runs = (["influence", "--graph", graph] + _CONDITION,
            ["ising", "--graph", graph, "--target", "1"] + _CONDITION)
    for argv in runs:
        for cap in ("0", "-3"):
            assert main(argv + ["--cap", cap]) == EXIT_INVARIANT
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0]) == {
                "error": "ValueError",
                "message": f"the enumeration cap must be at least 1, got {cap}"}
        assert main(argv + ["--cap", "1"]) == EXIT_CAP
        assert "EnumerationCapError" in capsys.readouterr().err


def test_ising_has_no_mode_flag(tmp_path, capsys):
    # the spin model has no response mode, so `ising` takes no --mode
    graph = _write_graph(tmp_path, hg.crossed_chains())
    with pytest.raises(SystemExit) as exc:
        main(["ising", "--graph", graph, "--target", "1", "--mode", "gaussian"] + _CONDITION)
    assert exc.value.code == EXIT_PARSE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ArgumentError" and "--mode" in err["message"]


def test_ising_needs_a_condition_flag(tmp_path, capsys):
    # a usage error like any other: exit 2 and one JSON line naming the flag
    graph = _write_graph(tmp_path, hg.crossed_chains())
    with pytest.raises(SystemExit) as exc:
        main(["ising", "--graph", graph, "--target", "1"])
    assert exc.value.code == EXIT_PARSE
    err = _single_error_line(capsys)
    assert err["error"] == "ArgumentError" and "--condition" in err["message"]


def test_sample_has_no_cap_flag(tmp_path, capsys):
    # sampling does no exact sum, so `sample` takes no --cap
    graph = _write_graph(tmp_path, hg.crossed_chains())
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--graph", graph, "--samples", "10", "--cap", "0"] + _CONDITION)
    assert exc.value.code == EXIT_PARSE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ArgumentError" and "--cap" in err["message"]


def test_nash_tensor_refuses_mode_and_cap(tmp_path, capsys):
    # a tensor file already holds the game, so --mode and --cap have
    # nothing to act on; with --graph and --game both still apply
    graph = _write_graph(tmp_path, hg.crossed_chains())
    game = _write_game(tmp_path)
    tensors = {mode: str(tmp_path / f"{mode}.json") for mode in ("tanh", "gaussian")}
    for mode, tensor in tensors.items():
        assert main(["transform", "--graph", graph, "--game", game, "--mode", mode,
                     "--out", tensor]) == EXIT_OK
    for extra in (["--mode", "tanh"], ["--cap", "22"], ["--cap", "0", "--mode", "gaussian"]):
        assert main(["nash", "--tensor", tensors["tanh"]] + extra) == EXIT_INVARIANT
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "ValueError",
            "message": "nash --tensor takes no --mode or --cap: they apply to --graph and --game"}
    nash = {}
    for mode, tensor in tensors.items():
        assert main(["nash", "--tensor", tensor]) == EXIT_OK
        nash[mode] = capsys.readouterr().out
    assert nash["tanh"] != nash["gaussian"]
    files = ["nash", "--graph", graph, "--game", game]
    assert main(files) == EXIT_OK
    assert capsys.readouterr().out == nash["tanh"]
    assert main(files + ["--mode", "gaussian", "--cap", "22"]) == EXIT_OK
    assert capsys.readouterr().out == nash["gaussian"]
    assert main(files + ["--cap", "1"]) == EXIT_CAP


def test_degenerate_exit(tmp_path):
    g = hg.crossed_chains(noise_sigma=hg.sigma_for_beta(1e-6))
    graph = _write_graph(tmp_path, g)
    game = _write_game(tmp_path)
    assert main(["transform", "--graph", graph, "--game", game,
                 "--mechanism", "shapley"]) == EXIT_DEGENERATE


def test_sweep_xy_regime_structure(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--vary", "x=0.1:0.9:9", "--fix", "y=0.8",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,regime,value,nash"
    regimes = [line.split(",")[2] for line in lines[1:]]
    assert regimes == ["pd-v1", "pd-v1", "pd-v1", "boundary", "cooperation",
                       "boundary", "pd-v2", "pd-v2", "pd-v2"]
    coop = lines[5].split(",")
    assert float(coop[3]) == pytest.approx(0.6, abs=1e-12)
    assert coop[4] == "CC;CC"
    # boundary between disagreeing value branches is reported as nan
    assert lines[4].split(",")[3] == "nan"


def test_sweep_admits_the_triple_point(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--vary", "y=0.5:0.9:5", "--fix", "x=0.5",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,regime,value,nash"
    first = lines[1].split(",")
    # y = 1/2: all regions meet, every branch gives 0, no game to solve
    assert first[:4] == ["0.5", "0.5", "boundary", "0"]
    assert first[4] == ""
    assert [line.split(",")[2] for line in lines[2:]] == ["cooperation"] * 4


def test_sweep_chain_mode(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--vary", "beta=0.5:2:4", "--fix", "a=2",
                 "--fix", "c=3", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,x,y,regime,value,nash"
    assert len(lines) == 5
    for line in lines[1:]:
        cells = line.split(",")
        beta, x, y = float(cells[0]), float(cells[1]), float(cells[2])
        x_closed, y_closed = hg.chain_xy(2, 3, beta)
        assert x == pytest.approx(x_closed, rel=1e-12)
        assert y == pytest.approx(y_closed, rel=1e-12)
        assert cells[3] == hg.classify_regime(x_closed, y_closed).regime


def test_sweep_reruns_byte_identical(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["sweep", "--vary", "x=0.2:0.8:7", "--vary", "y=0.6:0.9:4"]
    assert main(flags + ["--out", str(first)]) == EXIT_OK
    assert main(flags + ["--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header == "x,y,regime,value,nash"
    assert len(first.read_text().splitlines()) == 1 + 7 * 4


def test_sweep_chain_beyond_float_range_exits_invariant(capsys):
    code = main(["sweep", "--vary", "beta=0.5:400:5", "--fix", "a=2", "--fix", "c=2"])
    assert code == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert "beta" in err["message"]


def test_sweep_degenerate_height_has_empty_nash(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--vary", "x=0.1:0.9:9", "--fix", "y=0.5000000000001",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 9
    assert all(row[4] == "" for row in rows)


@pytest.mark.parametrize("flags, digest", [
    (["--vary", "y=0.505:0.995:99", "--vary", "x=0.005:0.995:199"],
     "203ac2ae6e7692567db6b6cb1febc03fa29b8f1da9fe44dd79ffbdac8f17ef34"),
    (["--vary", "beta=0.5:2:4", "--fix", "a=2", "--fix", "c=3"],
     "747bff5997d9cdf1b0a487c639528185392088032849b6825da0d26f40d02d07"),
])
def test_sweep_readme_csvs_are_pinned(tmp_path, flags, digest):
    # the two README sweeps, pinned byte for byte
    out = tmp_path / "sweep.csv"
    assert main(["sweep"] + flags + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_CHAIN_ROWS = ((1, 1), (1, 3), (2, 3), (2, 5), (3, 4), (4, 4), (4, 7), (6, 2), (8, 8))


@pytest.mark.parametrize("sweeps, digest", [
    # one row of the README grid at a y whose repr %.15g shortens
    ([["--vary", "x=0.005:0.995:199", "--fix", "y=0.8400000000000001"]],
     "154766289e6311816bd2cd9482b3ca1e932c2067185ce5925aea527c3860ab1b"),
    # nine chain geometries over beta, concatenated
    ([["--vary", "beta=0.5:2:99", "--fix", f"a={a}", "--fix", f"c={c}"]
      for a, c in _CHAIN_ROWS],
     "07a61ed0db7b101ee49721cf1aad959647a08e92d88afdaa813a7f59913306f5"),
    # three varied chain axes, 6400 points: two chunks
    ([["--vary", "a=1:4:4", "--vary", "c=1:8:8", "--vary", "beta=0.5:2:200",
       "--fix", "D=0.3"]],
     "8831cba8238a00e91c9cae20f71548d9c36ac08884d4d5ee895355e385c0794d"),
    # nan values on the tipping lines, a value of exactly 0 at the triple
    # point and empty nash cells at y = 1/2
    ([["--vary", "x=0.1:0.9:9", "--vary", "y=0.5:0.8:4"]],
     "97b24e5ba685a6495e527aa6b95def67792de35583695968776cb7741f22dbe2"),
])
def test_sweep_csvs_are_pinned(capsys, sweeps, digest):
    h = hashlib.sha256()
    for argv in sweeps:
        assert main(["sweep"] + argv) == EXIT_OK
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == digest


def test_sweep_error_in_a_later_chunk_follows_its_rows(capsys, monkeypatch):
    # a bad point in the second chunk: stdout holds the header and the rows
    # of the first chunk, then the point's error is one JSON line and exit 3
    argv = ["sweep", "--vary", "x=0.005:0.995:199", "--vary", "y=0.505:0.995:99"]
    assert main(argv) == EXIT_OK
    before = "".join(capsys.readouterr().out.splitlines(keepends=True)[:1 + cli.SWEEP_CHUNK])
    real_chunks = cli.SweepSpec.chunks

    def chunks_with(bad):
        def chunks(spec):
            for n, columns in enumerate(real_chunks(spec)):
                if n == 1:
                    for name, at, value in bad:
                        columns[name] = columns[name].copy()
                        columns[name][at] = value
                yield columns
        return chunks

    # the first failing point in grid order names itself; at one point x
    # is checked before y
    cases = (
        ([("y", 7, 0.25), ("x", 9, 1.0)], "the regime map needs 1/2 <= y < 1, got 0.25"),
        ([("y", 9, math.nan), ("x", 12, 1.0)], "the regime map needs 1/2 <= y < 1, got nan"),
        ([("x", 3, math.nan), ("y", 5, 1.0)], "x must lie inside (0, 1), got nan"),
        ([("x", 12, 0.0), ("y", 12, 1.0)], "x must lie inside (0, 1), got 0.0"),
        ([("y", 4095, 0.4999999999999999)],
         "the regime map needs 1/2 <= y < 1, got 0.4999999999999999"),
    )
    for bad, message in cases:
        monkeypatch.setattr(cli.SweepSpec, "chunks", chunks_with(bad))
        assert main(argv) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == before
        assert captured.err == json.dumps({"error": "ValueError", "message": message}) + "\n"
    monkeypatch.undo()
    # a fixed y of nan is refused before any row
    assert main(["sweep", "--vary", "x=0.005:0.995:199", "--fix", "y=nan"]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps(
        {"error": "ValueError", "message": "fixed y must lie inside (0, 1)"}) + "\n"
    # a chain point whose y rounds to 1 at index 4404, in the second chunk
    assert main(["sweep", "--vary", "beta=0.5:25:6000", "--fix", "a=2",
                 "--fix", "c=2"]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1 + cli.SWEEP_CHUNK
    assert hashlib.sha256(captured.out.encode()).hexdigest() == \
        "629fa3f56374da6b1e7dd3ac650c858830842a046c0d3c4c1229bd9fd6015a53"
    assert captured.err == json.dumps(
        {"error": "ValueError", "message": "the regime map needs 1/2 <= y < 1, got 1.0"}) + "\n"


def test_sweep_chain_chunk_is_checked_once_in_grid_order(capsys, monkeypatch):
    # in one chain chunk the first failing point in grid order names
    # itself: a point whose y rounds to 1 comes before a later refusal by
    # chain_xy, a bad D or a bad chain length, and after an earlier one
    good, y_one = (2.0, 3.0, 1.0, 0.5), (2.0, 2.0, 20.0, 0.5)  # (a, c, beta, D)
    y_message = "the regime map needs 1/2 <= y < 1, got 1.0"
    refusals = (
        ((2.0, 2.0, 400.0, 0.5), "chain closed form is not representable at beta=400.0 "
                                 "(a=2, c=2): a denominator is zero or not finite"),
        ((2.0, 2.0, 1.0, 1.5), "D must lie inside (0, 1), got 1.5"),
        ((1.5, 2.0, 1.0, 0.5), "chain lengths must be positive integers, got a=1.5 c=2.0"),
    )

    def columns(points):
        return dict(zip(("a", "c", "beta", "D"), (np.array(v) for v in zip(*points))))

    for bad, message in refusals:
        for points, expected in (([good, y_one, good, bad, good], y_message),
                                 ([bad, y_one], message), ([good, bad, y_one], message)):
            with pytest.raises(ValueError) as exc:
                cli._sweep_xy(columns(points))
            assert str(exc.value) == expected
    # one domain check per chunk: 6400 points are two chunks
    calls = []
    real = cli._map_domain
    monkeypatch.setattr(cli, "_map_domain", lambda x, y: calls.append(len(x)) or real(x, y))
    assert main(["sweep", "--vary", "beta=0.5:2:99", "--fix", "a=2", "--fix", "c=3"]) == EXIT_OK
    assert calls == [99]
    calls.clear()
    assert main(["sweep", "--vary", "a=1:4:4", "--vary", "c=1:8:8", "--vary", "beta=0.5:2:200",
                 "--fix", "D=0.3"]) == EXIT_OK
    assert calls == [cli.SWEEP_CHUNK, 6400 - cli.SWEEP_CHUNK]
    capsys.readouterr()


def test_sweep_grid_bound(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    t0 = time.perf_counter()
    code = main(["sweep", "--vary", "x=0.1:0.9:1000000000", "--fix", "y=0.8",
                 "--out", str(out)])
    assert code == EXIT_INVARIANT
    assert time.perf_counter() - t0 < 1.0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"
    assert not out.exists()
    # a failure in the first chunk of points also leaves no file
    assert main(["sweep", "--vary", "x=0.1:0.9:5", "--fix", "y=0.3",
                 "--out", str(out)]) == EXIT_INVARIANT
    assert not out.exists()


def test_sweep_spec_violations(capsys):
    assert main(["sweep", "--vary", "x=0.1:0.9:1", "--fix", "y=0.8"]) == EXIT_INVARIANT
    assert main(["sweep", "--vary", "x=0.9:0.1:5", "--fix", "y=0.8"]) == EXIT_INVARIANT
    assert main(["sweep", "--vary", "x=0.1:1.0:5", "--fix", "y=0.8"]) == EXIT_INVARIANT
    assert main(["sweep", "--vary", "x=0.1:0.9:5", "--fix", "a=2"]) == EXIT_INVARIANT
    assert main(["sweep", "--vary", "x=0.1:0.9:5"]) == EXIT_INVARIANT
    assert main(["sweep", "--vary", "a=1:4:4"]) == EXIT_INVARIANT
    capsys.readouterr()
    # a parameter named twice: each way of doing so is named
    for flags, message in (
        (["--vary", "x=0.1:0.9:5", "--vary", "x=0.1:0.9:5", "--fix", "y=0.8"],
         "parameter x varied twice"),
        (["--vary", "x=0.1:0.9:5", "--fix", "y=0.7", "--fix", "y=0.8"],
         "parameter y fixed twice"),
        (["--vary", "x=0.1:0.9:5", "--fix", "x=0.5", "--fix", "y=0.8"],
         "parameter x both varied and fixed"),
        # finite bounds whose span overflows, on which np.linspace would warn
        (["--vary", "beta=-1e308:1e308:4", "--fix", "a=2", "--fix", "c=3"],
         "axis beta needs finite bounds a finite distance apart, got -1e+308:1e+308"),
    ):
        assert main(["sweep"] + flags) == EXIT_INVARIANT
        assert capsys.readouterr().err == json.dumps(
            {"error": "ValueError", "message": message}) + "\n"
    # map scope: y below 1/2 has no regime
    assert main(["sweep", "--vary", "x=0.1:0.9:5", "--fix", "y=0.3"]) == EXIT_INVARIANT
    # chain lengths must be whole
    assert main(["sweep", "--vary", "a=1:2:3", "--fix", "c=2"]) == EXIT_INVARIANT
    # bad D
    assert main(["sweep", "--vary", "a=1:4:4", "--fix", "c=2",
                 "--fix", "D=1.5"]) == EXIT_INVARIANT


def test_argparse_rejects_unknown(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--vary", "q=0.1:0.9:5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


# one field of the crossed_chains() graph JSON: a top-level key, or a key of
# one vertex or one edge (the graph has 16 of each)
_FIELDS = st.one_of(
    st.sampled_from(["free_float", "noise_sigma", "vertices", "edges"]).map(lambda k: (k,)),
    st.tuples(st.just("vertices"), st.integers(0, 15), st.sampled_from(["id", "role"])),
    st.tuples(st.just("edges"), st.integers(0, 15), st.sampled_from(["from", "to", "weight"])),
)
_DELETE = object()
_VALUES = st.sampled_from([
    _DELETE, None, math.nan, math.inf, -math.inf, 1e308, -1e308, 0, -1, True, "x", [], {},
    "ghost", "d1", "1", "decider", "agent", "executive", 1e-320,
])


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(field=_FIELDS, value=_VALUES)
@example(field=("noise_sigma",), value=1e-320)  # infinite gain; rarely drawn among 1680 pairs
def test_mutated_graph_exits_cleanly(field, value):
    data = hg.graph_to_dict(hg.crossed_chains())
    *path, key = field
    target = data
    for step in path:
        target = target[step]
    if value is _DELETE:
        del target[key]
    else:
        target[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        graph, game = Path(tmp) / "graph.json", Path(tmp) / "game.json"
        graph.write_text(json.dumps(data))
        hg.save_game(hg.prisoners_dilemma(), game)
        for argv in _READERS["graph"]:
            _assert_exits_cleanly([a.format(graph=graph, game=game) for a in argv],
                                  (field, value))


def _strict_json(text: str):
    """`text` parsed as JSON that holds no NaN or infinity."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _assert_exits_cleanly(argv, context):
    """`main(argv)` in-process ends with a documented exit code other than
    1 and at most one line on stderr, a JSON error object; a run that
    succeeds prints strict JSON (sweeps print CSV).  Returns the exit code
    and what went to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_INVARIANT, EXIT_CAP, EXIT_DEGENERATE), \
        (argv, context, err.getvalue())
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1, (argv, context, lines)
    if lines:
        assert set(json.loads(lines[0])) == {"error", "message"}
    if code == EXIT_OK and argv[0] != "sweep":
        _strict_json(out.getvalue())
    return code, err.getvalue()


# one field of the crossed_chains() decider-game tensor JSON: a top-level
# key, one label, one strategy or one of its moves, one decider or
# executive, or one payoff row or entry (4 strategies, 2 deciders)
_TENSOR_FIELDS = st.one_of(
    st.sampled_from(["deciders", "executives", "labels", "strategies", "payoffs",
                     "provenance"]).map(lambda k: (k,)),
    st.tuples(st.just("labels"), st.sampled_from(["+1", "-1"])),
    st.tuples(st.sampled_from(["deciders", "executives", "strategies", "payoffs"]),
              st.integers(0, 1)),
    st.tuples(st.just("strategies"), st.integers(0, 3), st.integers(0, 1)),
    st.tuples(st.just("payoffs"), st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)),
)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(field=_TENSOR_FIELDS, value=st.one_of(_VALUES, st.sampled_from(["C", "D", -1e-300])))
def test_mutated_tensor_exits_cleanly(field, value):
    with tempfile.TemporaryDirectory() as tmp:
        graph, game, tensor = (Path(tmp) / name for name in ("g.json", "game.json", "t.json"))
        hg.save_graph(hg.crossed_chains(), graph)
        hg.save_game(hg.prisoners_dilemma(), game)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["transform", "--graph", str(graph), "--game", str(game),
                         "--out", str(tensor)]) == EXIT_OK
        data = json.loads(tensor.read_text())
        *path, key = field
        target = data
        for step in path:
            target = target[step]
        if value is _DELETE:
            del target[key]
        else:
            target[key] = value
        tensor.write_text(json.dumps(data))
        _assert_exits_cleanly(["nash", "--tensor", str(tensor)], (field, value))


# valid sweeps, one map and one chain: every --vary and --fix value is
# split into its name and numbers, one of which is replaced or dropped
_SWEEPS = (
    ["--vary", "x=0.1:0.9:5", "--fix", "y=0.8"],
    ["--vary", "beta=0.5:2:4", "--fix", "a=2", "--fix", "c=3", "--fix", "D=0.3"],
)
# small numbers only, so that no valid mutation sweeps a large grid;
# 20000000 steps is above MAX_SWEEP_POINTS
_TOKENS = st.sampled_from([
    _DELETE, "", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-1", "0", "1", "2",
    "0.5", "3.5", "+1", "20000000", "x", "y", "a", "c", "beta", "D", "q", "=", ":", "1:2",
])


def _mutated_sweep(sweep, flag, part, token):
    argv = list(_SWEEPS[sweep])
    at = 2 * (flag % (len(argv) // 2)) + 1
    name, _, numbers = argv[at].partition("=")
    parts = [name] + numbers.split(":")
    if token is _DELETE:
        del parts[part % len(parts)]
    else:
        parts[part % len(parts)] = token
    argv[at] = parts[0] + "=" + ":".join(parts[1:])
    return argv


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(argv=st.builds(_mutated_sweep, st.integers(0, 1), st.integers(0, 3),
                      st.integers(0, 3), _TOKENS))
# infinite axis bounds: refused before np.linspace can warn about them
@example(argv=["--vary", "beta=0.5:inf:3", "--fix", "a=2", "--fix", "c=3"])
@example(argv=["--vary", "beta=-inf:2:4", "--fix", "a=2", "--fix", "c=3"])
@example(argv=["--vary", "D=0.1:inf:4", "--fix", "a=2", "--fix", "c=3"])
@example(argv=["--vary", "a=1:inf:4", "--fix", "c=3"])
def test_mutated_sweep_exits_cleanly(argv):
    _assert_exits_cleanly(["sweep"] + argv, argv)


def _set_edge_weight(data, value):
    data["edges"][0]["weight"] = value


def _set_free_float(data, value):
    data["free_float"] = value


def _set_payoff(data, value):
    data["payoffs"][1]["u"][0] = value


def _set_tensor_entry(data, value):
    data["payoffs"][0][1][0] = value


@pytest.mark.parametrize("kind, argv, change", [
    ("graph", ["validate", "--graph", "{graph}"], _set_edge_weight),
    ("graph", ["sample", "--graph", "{graph}", "--samples", "50"] + _CONDITION, _set_free_float),
    ("game", ["transform", "--graph", "{graph}", "--game", "{game}"], _set_payoff),
    ("tensor", ["nash", "--tensor", "{tensor}"], _set_tensor_entry),
], ids=["weight", "free_float", "payoff", "tensor"])
def test_integer_too_large_for_a_float_exits_parse(tmp_path, capsys, kind, argv, change):
    # a JSON integer of 401 digits parses but has no float: the file is
    # malformed (exit 2), not a fault of hiergame (exit 1)
    paths = _input_files(tmp_path)
    capsys.readouterr()
    data = json.loads(Path(paths[kind]).read_text())
    change(data, 10 ** 400)
    Path(paths[kind]).write_text(json.dumps(data))
    code, err = _assert_exits_cleanly([a.format(**paths) for a in argv], kind)
    assert code == EXIT_PARSE, err
    assert "malformed" in json.loads(err)["message"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind, change, profile", [
    ("game", _set_payoff, "profile ['C', 'D']"),
    ("tensor", _set_tensor_entry, "decider d1 at profile [['C', 'C'], ['C', 'D']]"),
], ids=["game", "tensor"])
def test_non_finite_payoff_exits_parse(tmp_path, capsys, kind, change, profile, value):
    # json reads NaN and Infinity: a NaN tensor entry left nash with no
    # equilibrium (exit 0), a NaN game payoff gave nash answers computed from
    # it and transform an exit 3 at printing; the file is refused on reading
    paths = _input_files(tmp_path)
    capsys.readouterr()
    data = json.loads(Path(paths[kind]).read_text())
    change(data, value)
    Path(paths[kind]).write_text(json.dumps(data))
    for argv in _READERS[kind]:
        assert main([a.format(**paths) for a in argv]) == EXIT_PARSE
        err = _single_error_line(capsys)
        assert err["error"] == "GameFormatError" and f"{profile} is not finite" in err["message"]


# byte splices (position, bytes removed, bytes put in their place) of one
# valid input file; positions wrap around the file's length
_SPLICES = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 3),
                              st.binary(max_size=3)), min_size=1, max_size=3)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(_READERS)), splices=_SPLICES)
@example(kind="graph", splices=[(0, 0, b"\xff\xfe")])  # a UTF-16 byte-order mark
@example(kind="game", splices=[(0, 0, b"\xff\xfe")])
@example(kind="tensor", splices=[(0, 1 << 30, b"[" * 100000)])  # nested too deep to parse
@example(kind="graph", splices=[(0, 1 << 30, b"[" * 100000)])
def test_byte_mutated_file_exits_cleanly(kind, splices):
    # every run that reads the file ends cleanly; one whose file is no
    # longer UTF-8 JSON exits 2 with a message that names the file
    with tempfile.TemporaryDirectory() as tmp:
        paths = _input_files(tmp)
        data = bytearray(Path(paths[kind]).read_bytes())
        for at, removed, put in splices:
            at %= len(data) + 1
            data[at:at + removed] = put
        Path(paths[kind]).write_bytes(data)
        try:
            json.loads(data.decode("utf-8"))
            broken = False
        except (ValueError, RecursionError):
            broken = True
        for argv in _READERS[kind]:
            argv = [a.format(**paths) for a in argv]
            code, err = _assert_exits_cleanly(argv, (kind, splices))
            if broken:
                assert code == EXIT_PARSE and paths[kind] in err, (argv, splices, err)
