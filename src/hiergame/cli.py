"""Command-line front end.

Subcommands cover the pipeline end to end: validate graph files, query
vote and Ising conditionals, dump transformed-game tensors, solve for
pure equilibria, draw forward samples, and sweep parameter grids to CSV.

Exit codes: 0 success, 1 internal error, 2 unreadable or malformed input
or unwritable output, 3 invariant violation, 4 enumeration cap exceeded,
5 degenerate influence.
Failures print one JSON line on stderr with the error class and message.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from .elimination import DEFAULT_CAP
from .errors import (
    CyclicGraphError,
    DegenerateInfluenceError,
    EnumerationCapError,
    GameFormatError,
    GraphFormatError,
    MultiEdgeError,
)
from .game import (
    REGIME_LABELS,
    TransformedGame,
    load_game,
    nash_mask,
    prisoners_dilemma,
    pure_nash,
    regime_map,
    symmetric_payoffs,
    tensor_from_dict,
    tensor_to_dict,
    transform_game,
)
from .graph import deciders, executives, load_graph, read_json, validate_graph
from .ising import chain_xy, coupling_from_hierarchy, ising_conditional
from .vote import VoteParams, conditional_influence, sample_counts

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_CAP = 4
EXIT_DEGENERATE = 5

SWEEP_PARAMS = ("a", "c", "beta", "D", "x", "y")
MAX_SWEEP_POINTS = 10**7
SWEEP_CHUNK = 4096  # grid points evaluated and written at a time
CAP_HELP = ("enumeration cap: log2 of the largest table an exact sum may build "
            f"(default {DEFAULT_CAP})")


def _emit(pieces: Iterator[str], out: str | None) -> None:
    """Write `pieces` to the file `out`, or stdout if None; the first piece is
    made before the file is opened, so a failure there leaves no file."""
    first = next(pieces)
    with (open(out, "w", encoding="utf-8") if out is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(first)
        fh.writelines(pieces)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(iter([json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"]), out)


def _spin(text: str) -> int:
    token = text.strip()
    if token in {"+1", "+", "1"}:
        return 1
    if token in {"-1", "-"}:
        return -1
    raise argparse.ArgumentTypeError(f"spin must be +1 or -1, got {text!r}")


def _condition_flag(text: str) -> tuple[str, int]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected name=spin, got {text!r}")
    return name, _spin(value)


def _vary_flag(text: str) -> tuple[str, float, float, int]:
    name, sep, value = text.partition("=")
    if not sep or name not in SWEEP_PARAMS:
        raise argparse.ArgumentTypeError(
            f"expected one of {','.join(SWEEP_PARAMS)} as name=lo:hi:steps, got {text!r}")
    parts = value.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:steps in {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return name, lo, hi, steps


def _fix_flag(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or name not in SWEEP_PARAMS:
        raise argparse.ArgumentTypeError(
            f"expected one of {','.join(SWEEP_PARAMS)} as name=value, got {text!r}")
    try:
        return name, float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _seed_flag(text: str) -> int:
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if seed < 0:
        raise argparse.ArgumentTypeError(f"the seed must be non-negative, got {seed}")
    return seed


def _condition_dict(pairs) -> dict[str, int]:
    condition: dict[str, int] = {}
    for name, spin in pairs or []:
        if name in condition and condition[name] != spin:
            raise ValueError(f"conflicting condition for vertex {name}")
        condition[name] = spin
    return condition


def _decider_condition(g, pairs) -> dict[str, int]:
    """The --condition spins, which must assign every decider exactly, in
    sorted decider order."""
    condition = _condition_dict(pairs)
    lam = sorted(deciders(g))
    if set(condition) != set(lam):
        missing = sorted(set(lam) - set(condition))
        extra = sorted(set(condition) - set(lam))
        raise ValueError(
            f"condition must assign every decider exactly; missing={missing} extra={extra}")
    return {k: condition[k] for k in lam}


def cmd_validate(args) -> int:
    g = load_graph(args.graph, validate=False)
    report = validate_graph(g)
    _emit_json({
        "ok": report.ok,
        "violations": list(report.violations),
        "warnings": list(report.warnings),
    }, args.out)
    return EXIT_OK if report.ok else EXIT_INVARIANT


def cmd_influence(args) -> int:
    g = load_graph(args.graph)
    params = VoteParams.from_graph(g, args.mode)
    condition = _decider_condition(g, args.condition)
    lam = deciders(g)
    table = {i: conditional_influence(g, lam, {i}, condition, params, args.cap).plus_prob(i)
             for i in sorted(executives(g))}
    _emit_json({
        "condition": condition,
        "mode": params.mode,
        "prob_plus": table,
    }, args.out)
    return EXIT_OK


def cmd_ising(args) -> int:
    g = load_graph(args.graph)
    model = coupling_from_hierarchy(g)
    condition = _condition_dict(args.condition)
    if not condition:
        raise ValueError("at least one --condition is required")
    value = ising_conditional(model, args.target, condition, args.cap)
    _emit_json({
        "target": args.target,
        "condition": condition,
        "beta": model.beta,
        "prob_plus": value,
    }, args.out)
    return EXIT_OK


def _build_transform(args) -> TransformedGame:
    g = load_graph(args.graph)
    base = load_game(args.game)
    params = VoteParams.from_graph(g, args.mode or "tanh")  # nash leaves --mode unset
    return transform_game(base, g, params, mechanism=args.mechanism, cap=args.cap)


def cmd_transform(args) -> int:
    tg = _build_transform(args)
    _emit_json(tensor_to_dict(tg), args.out)
    return EXIT_OK


def cmd_nash(args) -> int:
    if args.tensor is not None:
        if args.mode is not None or args.cap is not None:
            raise ValueError("nash --tensor takes no --mode or --cap: "
                             "they apply to --graph and --game")
        tg = tensor_from_dict(read_json(args.tensor, "tensor", GameFormatError))
    elif args.graph is not None and args.game is not None:
        tg = _build_transform(args)
    else:
        raise ValueError("nash needs either --tensor or both --graph and --game")
    equilibria = []
    for idx in pure_nash(tg):
        equilibria.append({
            "profile": [list(cmds) for cmds in tg.profile_labels(idx)],
            "payoffs": [float(v) for v in tg.payoffs[idx]],
        })
    _emit_json({"deciders": list(tg.deciders), "equilibria": equilibria}, args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    g = load_graph(args.graph)
    params = VoteParams.from_graph(g, args.mode)
    condition = _decider_condition(g, args.condition)
    execs = sorted(executives(g))
    counts = sample_counts(g, condition, params, args.samples, args.seed, vertices=execs)
    freq = {i: counts[i] / args.samples for i in execs}
    _emit_json({
        "samples": args.samples,
        "seed": args.seed,
        "condition": condition,
        "mode": params.mode,
        "freq_plus": freq,
    }, args.out)
    return EXIT_OK


@dataclass(frozen=True)
class SweepSpec:
    """A grid over (a, c, beta, D) chain geometry or direct (x, y) points.

    Varied axes iterate in the order given, first axis outermost.  x and y
    ranges must stay inside (0, 1), and the grid may hold at most
    MAX_SWEEP_POINTS points.
    """

    varied: tuple[tuple[str, float, float, int], ...]
    fixed: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.varied:
            raise ValueError("sweep needs at least one --vary axis")
        seen = set()
        for name, lo, hi, steps in self.varied:
            if name in seen:
                raise ValueError(f"parameter {name} varied twice")
            seen.add(name)
            if steps < 2:
                raise ValueError(f"axis {name} needs at least 2 steps")
            if not lo < hi:
                raise ValueError(f"axis {name} needs lo < hi")
            if name in ("x", "y") and not (0.0 < lo and hi < 1.0):
                raise ValueError(f"axis {name} must stay inside (0, 1)")
        points = math.prod(steps for *_, steps in self.varied)
        if points > MAX_SWEEP_POINTS:
            raise ValueError(
                f"sweep grid has {points} points; the limit is {MAX_SWEEP_POINTS}")
        for name, value in self.fixed:
            if name in seen:
                raise ValueError(f"parameter {name} both varied and fixed")
            seen.add(name)
            if name in ("x", "y") and not 0.0 < value < 1.0:
                raise ValueError(f"fixed {name} must lie inside (0, 1)")
        direct = {"x", "y"} & seen
        chain = {"a", "c", "beta", "D"} & seen
        if direct and chain:
            raise ValueError("cannot mix direct x,y with chain parameters a,c,beta,D")
        if direct and direct != {"x", "y"}:
            raise ValueError("direct sweeps need both x and y (varied or fixed)")
        if not direct and not {"a", "c"} <= chain:
            raise ValueError("chain sweeps need a and c (varied or fixed)")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, *_ in self.varied)

    def chunks(self):
        """The grid in order, SWEEP_CHUNK points at a time, as one array per
        parameter, varied or fixed."""
        axes = [np.linspace(lo, hi, steps) for _, lo, hi, steps in self.varied]
        shape = tuple(len(axis) for axis in axes)
        total = math.prod(shape)
        for start in range(0, total, SWEEP_CHUNK):
            flat = np.arange(start, min(start + SWEEP_CHUNK, total))
            columns = {name: np.full(len(flat), value) for name, value in self.fixed}
            columns.update(zip(self.names, (axis[i] for axis, i in
                                            zip(axes, np.unravel_index(flat, shape)))))
            yield columns


def _map_domain(x, y):
    """Check points, floats or arrays of one shape, against the regime map's
    domain, which admits y = 1/2, where all three regions meet.  The first
    point off the map, in order, raises: its x is checked before its y."""
    x_in = (0.0 < x) & (x < 1.0)
    on = np.asarray(x_in & (0.5 <= y) & (y < 1.0))
    if on.all():
        return x, y
    first = np.argmin(on)
    x, y, x_in = (np.ravel(v)[first].item() for v in (x, y, x_in))
    if not x_in:
        raise ValueError(f"x must lie inside (0, 1), got {x}")
    raise ValueError(f"the regime map needs 1/2 <= y < 1, got {y}")


def _chain_point(a: float, c: float, beta: float, d: float) -> tuple[float, float]:
    if not 0.0 < d < 1.0:
        raise ValueError(f"D must lie inside (0, 1), got {d}")
    beta = beta * (1.0 - d) / d
    if not (a.is_integer() and c.is_integer() and a >= 1 and c >= 1):
        raise ValueError(f"chain lengths must be positive integers, got a={a} c={c}")
    return _map_domain(*chain_xy(int(a), int(c), beta))


def _sweep_xy(columns: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of a chunk of grid points; the first point off the map, in
    grid order, raises its `_map_domain` error."""
    if "x" in columns:
        return _map_domain(columns["x"], columns["y"])
    # chain points keep the scalar closed form on math: numpy's cosh and sinh
    # may differ from libm by an ulp, enough to move a 15-digit CSV cell
    n = len(columns["a"])
    points = zip(columns["a"].tolist(), columns["c"].tolist(),
                 columns["beta"].tolist() if "beta" in columns else [1.0] * n,
                 columns["D"].tolist() if "D" in columns else [0.5] * n)
    x, y = np.array([_chain_point(*p) for p in points]).T
    return x, y


def _nash_profiles() -> list[str]:
    """CSV spelling of the 16 profiles of the symmetric decider game, in
    nash_mask order: semicolons between deciders, so that with pipes
    between equilibria the sweep CSV stays naively splittable."""
    labels = prisoners_dilemma().labels
    moves = ["".join(labels[s] for s in strategy) for strategy in product((1, -1), repeat=2)]
    return [f"{first};{second}" for first in moves for second in moves]


def _sweep_text(spec: SweepSpec):
    """The sweep CSV, one piece per chunk of grid points; the header comes
    with the first piece.  Each chunk places its points on the regime map
    and lists the pure equilibria of the decider games they induce; the
    nash cell is empty where the game degenerates (y = 1/2, where commands
    carry no influence to attribute).  A fixed x or y is formatted once,
    into the row format; each chunk is one format call."""
    lead = tuple(n for n in spec.names if n not in ("x", "y"))
    text = ",".join(lead + ("x", "y", "regime", "value", "nash")) + "\n"
    fixed = {name: ("%.15g" % value).replace("%", "%%") for name, value in spec.fixed}
    row_fmt = ",".join(fixed.get(n, "%.15g") for n in lead + ("x", "y")) + ",%s,%.15g,%s\n"
    labels = np.array(REGIME_LABELS, dtype=object)
    profiles = _nash_profiles()
    bits = 1 << np.arange(len(profiles))
    for columns in spec.chunks():
        x, y = _sweep_xy(columns)
        code, value = regime_map(x, y)
        payoffs, degenerate = symmetric_payoffs(x, y)
        keys = (nash_mask(payoffs).reshape(len(x), -1) @ bits) * ~degenerate
        nash = {key: "|".join(p for b, p in enumerate(profiles) if key >> b & 1)
                for key in np.unique(keys).tolist()}
        cells = [columns[n] for n in lead] + [v for n, v in (("x", x), ("y", y)) if n not in fixed]
        cells += [labels[code], value, [nash[k] for k in keys.tolist()]]
        rows = np.array(cells, dtype=object).T
        yield text + (row_fmt * len(x)) % tuple(rows.ravel().tolist())
        text = ""


def cmd_sweep(args) -> int:
    _emit(_sweep_text(SweepSpec(tuple(args.vary), tuple(args.fix or []))), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end like every other failure:
    one JSON line on stderr, then exit code 2 (EXIT_PARSE)."""

    def error(self, message: str):
        sys.exit(_fail(argparse.ArgumentError(None, f"{self.prog}: {message}"), EXIT_PARSE))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hiergame",
        description="Hierarchical command games: votes, Ising conditionals, "
                    "transformed games, equilibria, sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, graph=True, game=False, cap=True):
        if graph:
            p.add_argument("--graph", required=True, help="hierarchy graph JSON file")
        if game:
            p.add_argument("--game", required=True, help="base game JSON file")
        p.add_argument("--mode", choices=("tanh", "gaussian"), default="tanh")
        if cap:
            p.add_argument("--cap", type=int, default=None, help=CAP_HELP)
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("validate", help="check a graph file against all invariants")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("influence", help="executive vote conditionals under a command vector")
    add_common(p)
    p.add_argument("--condition", action="append", type=_condition_flag,
                   metavar="VERTEX=SPIN", help="decider command, repeatable")
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("ising", help="spin conditional in the coupled Ising model")
    p.add_argument("--graph", required=True, help="hierarchy graph JSON file")
    p.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    p.add_argument("--out", default=None, help="write output to this file")
    p.add_argument("--target", required=True, help="vertex whose spin to predict")
    p.add_argument("--condition", action="append", type=_condition_flag,
                   metavar="VERTEX=SPIN")
    p.set_defaults(func=cmd_ising)

    p = sub.add_parser("transform", help="dump the decider game tensor")
    add_common(p, game=True)
    p.add_argument("--mechanism", choices=("shapley", "shares"), default="shapley")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("nash", help="pure equilibria of the decider game")
    p.add_argument("--tensor", default=None, help="tensor JSON from the transform command")
    p.add_argument("--graph", default=None)
    p.add_argument("--game", default=None)
    p.add_argument("--mechanism", choices=("shapley", "shares"), default="shapley")
    add_common(p, graph=False)
    # unset unless given, so that --tensor can refuse it
    p.set_defaults(func=cmd_nash, mode=None)

    p = sub.add_parser("sample", help="forward-sample executive votes")
    add_common(p, cap=False)
    p.add_argument("--condition", action="append", type=_condition_flag,
                   metavar="VERTEX=SPIN")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sweep", help="grid sweep to CSV (regime map)")
    p.add_argument("--vary", action="append", type=_vary_flag, required=True,
                   metavar="NAME=LO:HI:STEPS",
                   help="axis over a, c, beta, D, x or y; repeatable")
    p.add_argument("--fix", action="append", type=_fix_flag, metavar="NAME=VALUE")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call; parsing leaves it
    unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, GameFormatError, OSError) as exc:  # OSError: from --out
        return _fail(exc, EXIT_PARSE)
    except EnumerationCapError as exc:
        return _fail(exc, EXIT_CAP)
    except DegenerateInfluenceError as exc:
        return _fail(exc, EXIT_DEGENERATE)
    except (CyclicGraphError, MultiEdgeError, ValueError) as exc:
        return _fail(exc, EXIT_INVARIANT)
    except Exception as exc:  # a fault of hiergame itself: still one JSON line
        return _fail(exc, EXIT_INTERNAL)


def _fail(exc: Exception, code: int) -> int:
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
    sys.stderr.write(line + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
