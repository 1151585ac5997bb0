"""Lifting a two-move base game from executives to deciders.

Deciders choose command vectors (one spin per executive).  Commands reach
executives through the hierarchy's vote process, one independent binary
process per executive coordinate, giving each executive a probability of
playing +1.  Expected base payoffs under those probabilities are then
reallocated to deciders through a share matrix, producing a normal-form
game among the deciders that can be solved for pure equilibria.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import GameFormatError
from .graph import (HierarchyGraph, deciders as graph_deciders, executives as graph_executives,
                    read_json, write_json)
from .payoff import require_decided, shapley_from_table, shares_by_paths
from .vote import VoteParams, influence_table

NASH_TOL = 1e-12
BOUNDARY_TOL = 1e-9
# payoffs a decider tensor may hold: (2^n)^m profiles times m deciders for n
# executives, 80 MB of floats; the transform's own arrays are a few times that
MAX_TENSOR_ENTRIES = 10**7

REGIME_PD_V1 = "pd-v1"
REGIME_COOPERATION = "cooperation"
REGIME_PD_V2 = "pd-v2"
REGIME_BOUNDARY = "boundary"

PD_V1_PROFILE = (("D", "C"), ("C", "D"))
COOPERATION_PROFILE = (("C", "C"), ("C", "C"))
PD_V2_PROFILE = (("C", "D"), ("D", "C"))

# regime codes of regime_map: the three regions, then the lower and the
# upper tipping line; the tuples below give each code's label and equilibria
PD_V1, COOPERATION, PD_V2, LOWER_LINE, UPPER_LINE = range(5)
REGIME_LABELS = (REGIME_PD_V1, REGIME_COOPERATION, REGIME_PD_V2,
                 REGIME_BOUNDARY, REGIME_BOUNDARY)
REGIME_NASH = ((PD_V1_PROFILE,), (COOPERATION_PROFILE,), (PD_V2_PROFILE,),
               (PD_V1_PROFILE, COOPERATION_PROFILE), (COOPERATION_PROFILE, PD_V2_PROFILE))

SYMMETRIC_DECIDERS = ("d1", "d2")


@dataclass(frozen=True)
class NormalFormGame:
    """Two-move game: spin profiles (one +-1 per player) map to payoff
    vectors; labels name the two moves (+1 is "C" by default)."""

    players: tuple[str, ...]
    payoffs: Mapping[tuple[int, ...], tuple[float, ...]]
    labels: Mapping[int, str] = field(default_factory=lambda: {1: "C", -1: "D"})

    def __post_init__(self) -> None:
        n = len(self.players)
        if n == 0:
            raise ValueError("game needs at least one player")
        if len(set(self.players)) != n:
            raise ValueError(f"player names must be distinct, got {list(self.players)}")
        expected = set(product((1, -1), repeat=n))
        if set(self.payoffs) != expected:
            raise ValueError("payoff table must cover every spin profile exactly once")
        for key, u in self.payoffs.items():
            if len(u) != n:
                raise ValueError(f"payoff vector for {key} has wrong length")
        if set(self.labels) != {1, -1} or self.labels[1] == self.labels[-1]:
            raise ValueError("labels must name +1 and -1 distinctly")

    def payoff(self, spins: tuple[int, ...]) -> tuple[float, ...]:
        return self.payoffs[spins]


def prisoners_dilemma(players: tuple[str, str] = ("1", "2")) -> NormalFormGame:
    """The baseline dilemma: mutual cooperation beats mutual defection, but
    unilateral defection beats both."""
    payoffs = {
        (1, 1): (1.0, 1.0),
        (1, -1): (-3.0, 3.0),
        (-1, 1): (3.0, -3.0),
        (-1, -1): (-1.0, -1.0),
    }
    return NormalFormGame(tuple(players), payoffs)


def game_to_dict(g: NormalFormGame) -> dict:
    rows = []
    for spins in product((1, -1), repeat=len(g.players)):
        rows.append({
            "profile": [g.labels[s] for s in spins],
            "u": list(g.payoffs[spins]),
        })
    return {
        "players": list(g.players),
        "labels": {"+1": g.labels[1], "-1": g.labels[-1]},
        "payoffs": rows,
    }


def _labels(data: Mapping) -> tuple[dict[int, str], dict[str, int]]:
    """The distinct move labels of game or tensor data by spin, and back."""
    labels = {1: str(data["labels"]["+1"]), -1: str(data["labels"]["-1"])}
    if labels[1] == labels[-1]:
        raise GameFormatError(f"labels must name +1 and -1 distinctly, "
                              f"got {labels[1]!r} for both")
    return labels, {name: spin for spin, name in labels.items()}


def _listed(value, name: str) -> tuple:
    """A list field of game or tensor data; a string is not a list here."""
    if isinstance(value, str):
        raise GameFormatError(f"{name} must be a list, got the string {value!r}")
    return tuple(value)


def game_from_dict(data: Mapping) -> NormalFormGame:
    try:
        players = tuple(str(p) for p in _listed(data["players"], "players"))
        labels, reverse = _labels(data)
        payoffs: dict[tuple[int, ...], tuple[float, ...]] = {}
        for row in data["payoffs"]:
            spins = tuple(reverse[str(move)] for move in _listed(row["profile"], "profile"))
            if spins in payoffs:
                raise ValueError(f"duplicate profile {row['profile']}")
            payoffs[spins] = tuple(float(u) for u in _listed(row["u"], "u"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GameFormatError(f"malformed game data: {exc}") from exc
    try:
        return NormalFormGame(players, payoffs, labels)
    except ValueError as exc:
        raise GameFormatError(str(exc)) from exc


def load_game(path: str | Path) -> NormalFormGame:
    return game_from_dict(read_json(path, "game", GameFormatError))


def save_game(g: NormalFormGame, path: str | Path) -> None:
    write_json(game_to_dict(g), path)


def pre_payoff(g: NormalFormGame, probs: Sequence[float]) -> tuple[float, ...]:
    """Expected base payoffs when executive k (in player order) plays +1
    with probability probs[k].

    Executives act independently, so expected payoffs multiply out over
    the product distribution.  Floats or arrays of one shape: each array
    entry is exactly what the scalar call at that point returns.
    """
    if len(probs) != len(g.players):
        raise ValueError(f"need one probability per player, got {len(probs)}")
    minus = [1.0 - p for p in probs]
    totals = [0.0] * len(g.players)
    for spins in product((1, -1), repeat=len(g.players)):
        w = 1.0
        for p, q, s in zip(probs, minus, spins):
            w *= p if s == 1 else q
        for j, u in enumerate(g.payoffs[spins]):
            totals[j] += w * u
    return tuple(totals)


@functools.lru_cache(maxsize=32)
def _profile_gather(n: int, m: int) -> tuple[tuple, ...]:
    """Per executive k of n, the index that reads its P(+1) from a (2,) * m
    table at every profile of m deciders' strategy indices: executive k
    receives bit n-1-k of each decider's strategy index (set for -1), which
    is that decider's axis of the table."""
    bits = [(np.arange(2 ** n) >> (n - 1 - k)) & 1 for k in range(n)]
    return tuple((...,) + np.ix_(*[b] * m) for b in bits)


@np.errstate(invalid="ignore")  # degenerate batch points carry inf shares
def _decider_payoffs(base: NormalFormGame, table: Mapping[tuple[int, ...], np.ndarray],
                     shares: Sequence[np.ndarray]) -> np.ndarray:
    """The decider-game tensor, shape B + (2^n,) * m + (m,) over batch axes
    B: `table` is an `influence_table` over the players (shape (n,) + B), and
    decider d receives sum_k shares[d][k] times executive k's expected
    payoff from `pre_payoff`."""
    n, m = len(base.players), len(shares)
    column = np.stack([table[p] for p in product((1, -1), repeat=m)], axis=-1)
    column = column.reshape(column.shape[:-1] + (2,) * m)
    expected = pre_payoff(base, [column[k][index]
                                 for k, index in enumerate(_profile_gather(n, m))])
    return np.stack([sum(np.asarray(row[k])[(...,) + (None,) * m] * expected[k]
                         for k in range(n)) for row in shares], axis=-1)


@dataclass(frozen=True)
class TransformedGame:
    """Normal-form game among deciders induced by a base game.

    Strategies are command vectors over the executives (same order as
    `executives`); `payoffs` has one axis per decider plus a trailing axis
    selecting the decider whose payoff is read.
    """

    deciders: tuple[str, ...]
    executives: tuple[str, ...]
    strategies: tuple[tuple[int, ...], ...]
    payoffs: np.ndarray
    labels: Mapping[int, str]
    provenance: Mapping[str, object] = field(default_factory=dict)

    def profile_labels(self, idx: tuple[int, ...]) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(self.labels[s] for s in self.strategies[j]) for j in idx)

    def strategy_index(self, commands: tuple[str, ...]) -> int:
        reverse = {v: k for k, v in self.labels.items()}
        spins = tuple(reverse[move] for move in commands)
        return self.strategies.index(spins)

    def profile_index(self, profile: tuple[tuple[str, ...], ...]) -> tuple[int, ...]:
        return tuple(self.strategy_index(cmd) for cmd in profile)


def tensor_to_dict(tg: TransformedGame) -> dict:
    return {
        "deciders": list(tg.deciders),
        "executives": list(tg.executives),
        "labels": {"+1": tg.labels[1], "-1": tg.labels[-1]},
        "strategies": [[tg.labels[s] for s in strat] for strat in tg.strategies],
        "payoffs": tg.payoffs.tolist(),
        "provenance": dict(tg.provenance),
    }


def tensor_from_dict(data: Mapping) -> TransformedGame:
    try:
        labels, reverse = _labels(data)
        strategies = tuple(tuple(reverse[m] for m in _listed(strat, "strategy"))
                           for strat in _listed(data["strategies"], "strategies"))
        payoffs = np.asarray(data["payoffs"], dtype=float)
        tg = TransformedGame(
            _listed(data["deciders"], "deciders"), _listed(data["executives"], "executives"),
            strategies, payoffs, labels, dict(data.get("provenance", {})))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GameFormatError(f"malformed tensor data: {exc}") from exc
    if payoffs.shape != (len(strategies),) * len(tg.deciders) + (len(tg.deciders),):
        raise GameFormatError("tensor shape does not match deciders and strategies")
    if len(set(strategies)) != len(strategies) or \
            any(len(s) != len(tg.executives) for s in strategies):
        raise GameFormatError("tensor strategies must be distinct command vectors "
                              "with one move per executive")
    return tg


def _decider_game(base: NormalFormGame, lam_order: tuple[str, ...], payoffs: np.ndarray,
                  provenance: Mapping[str, object]) -> TransformedGame:
    """A `_decider_payoffs` tensor as a game whose strategies are all command vectors."""
    strategies = tuple(product((1, -1), repeat=len(base.players)))
    return TransformedGame(lam_order, base.players, strategies, payoffs, dict(base.labels),
                           dict(provenance))


def _check_tensor_size(n: int, m: int) -> None:
    """Refuse a decider tensor over n executives and m deciders that would
    hold more than MAX_TENSOR_ENTRIES payoffs, before any of it is built."""
    if m << (n * m) > MAX_TENSOR_ENTRIES:
        raise ValueError(f"the decider tensor of {m} deciders over {n} executives holds "
                         f"(2^{n})^{m} x {m} payoffs, more than the tensor limit "
                         f"{MAX_TENSOR_ENTRIES}")


def transform_game(base: NormalFormGame, g: HierarchyGraph, params: VoteParams,
                   mechanism: str = "shapley", cap: int | None = None) -> TransformedGame:
    """Full pipeline from a hierarchy: vote conditionals, payoff shares,
    decider game.  `mechanism` picks the share rule (shapley or shares).  The
    conditionals are read once, into one `influence_table` for shares and
    tensor, after the arguments are checked, the tensor is known to fit
    MAX_TENSOR_ENTRIES and path shares, which need an acyclic hierarchy,
    are taken."""
    if mechanism not in ("shapley", "shares"):
        raise ValueError(f"unknown mechanism {mechanism!r}")
    lam_order = tuple(sorted(graph_deciders(g)))
    if mechanism == "shapley" and not lam_order:
        raise ValueError("need at least one decider")
    execs = graph_executives(g)
    if set(base.players) != execs:
        raise ValueError("game players must match the graph's executives")
    _check_tensor_size(len(base.players), len(lam_order))
    if mechanism == "shares":  # refuses a cyclic hierarchy before any sum
        shares = shares_by_paths(g, base.players).values
    table = influence_table(g, params, lam_order, base.players, cap)
    if mechanism == "shapley":
        shares, degenerate = shapley_from_table(table)
        # name the smallest degenerate executive, whatever the player order
        ranked = sorted(range(len(base.players)), key=base.players.__getitem__)
        require_decided(degenerate[ranked], tuple(base.players[k] for k in ranked))
    provenance = {
        "mechanism": mechanism,
        "mode": params.mode,
        "free_float": params.free_float,
        "noise_sigma": params.noise_sigma,
    }
    return _decider_game(base, lam_order, _decider_payoffs(base, table, shares), provenance)


def nash_mask(payoffs: np.ndarray) -> np.ndarray:
    """Pure-equilibrium mask of payoff tensors laid out like
    `TransformedGame.payoffs`, over any leading batch axes.  A profile
    survives when no unilateral deviation gains more than NASH_TOL."""
    m = payoffs.shape[-1]
    mask = np.ones(payoffs.shape[:-1], dtype=bool)
    for d in range(m):
        own = payoffs[..., d]
        mask &= own >= own.max(axis=d - m, keepdims=True) - NASH_TOL
    return mask


def pure_nash(tg: TransformedGame) -> tuple[tuple[int, ...], ...]:
    """All pure equilibria as profile index tuples (one strategy index per
    decider), sorted, by `nash_mask`."""
    return tuple(sorted(tuple(int(v) for v in idx)
                        for idx in np.argwhere(nash_mask(tg.payoffs))))


def symmetric_payoffs(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Decider-game payoffs of the prisoner's dilemma (`prisoners_dilemma`)
    at symmetric influence points, and which points are degenerate.

    `x` and `y` are floats or arrays of one shape, a batch of points.  The
    payoffs have shape ``np.shape(x) + (4, 4, 2)``, indexed like
    `TransformedGame.payoffs` of `symmetric_transform`.  Each executive
    plays +1 with probability y under unanimous +1 commands and x when only
    its far decider (the second for the first executive, the first for the
    second) says +1; mirrored commands mirror the probability.  The stacked
    table of these conditionals takes `transform_game`'s route through
    `shapley_from_table` and `_decider_payoffs`.  A point is degenerate
    when |2y - 1| < DEGENERACY_TOL: no share is defined there and its
    payoffs are meaningless.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    table = {(1, 1): np.array([y, y]), (1, -1): np.array([1.0 - x, x]),
             (-1, 1): np.array([x, 1.0 - x]), (-1, -1): np.array([1.0 - y, 1.0 - y])}
    shares, degenerate = shapley_from_table(table)
    return _decider_payoffs(prisoners_dilemma(), table, shares), degenerate.any(axis=0)


def symmetric_transform(x: float, y: float) -> TransformedGame:
    """Decider game of the prisoner's dilemma at a symmetric influence
    point (x, y) over the default two-decider, two-executive layout; its
    equilibria are those `regime_map` names."""
    base = prisoners_dilemma()
    payoffs, degenerate = symmetric_payoffs(x, y)
    require_decided(degenerate, (min(base.players),))
    return _decider_game(base, SYMMETRIC_DECIDERS, payoffs,
                         {"mechanism": "shapley", "x": x, "y": y})


@dataclass(frozen=True)
class RegimeSummary:
    x: float
    y: float
    x_bar: float
    y_bar: float
    regime: str
    nash: tuple[tuple[tuple[str, ...], ...], ...]
    value: float


def tipping_points(y: float) -> tuple[float, float]:
    """The two boundary positions in x at symmetric height y."""
    return (2.0 - y) / 3.0, (y + 1.0) / 3.0


def _line_value(v1, v2):
    return np.where(abs(v1 - v2) <= BOUNDARY_TOL, 0.5 * (v1 + v2), np.nan)


def regime_map(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Regime code and first-decider equilibrium value at symmetric points,
    elementwise over floats or arrays of (x, y).  Callers check the domain.

    Regions in x at fixed y: below (2-y)/3 both deciders command defection
    from their own executive (pd-v1, value -1+2x); between the lines
    unanimous cooperation (-1+2y); above (y+1)/3 the mirrored dilemma
    (pd-v2, 1-2x).  Points within BOUNDARY_TOL of a line get the code
    LOWER_LINE or UPPER_LINE; their value is the mean of the two adjacent
    branches when those agree within BOUNDARY_TOL, and nan where the
    equilibrium payoff jumps.  Codes index REGIME_LABELS and REGIME_NASH.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    lower, upper = tipping_points(y)
    v1, v_coop, v2 = -1.0 + 2.0 * x, -1.0 + 2.0 * y, 1.0 - 2.0 * x
    where = [abs(x - lower) <= BOUNDARY_TOL, abs(x - upper) <= BOUNDARY_TOL,
             x < lower, x < upper]
    code = np.select(where, [LOWER_LINE, UPPER_LINE, PD_V1, COOPERATION], PD_V2)
    value = np.select(where, [_line_value(v1, v_coop), _line_value(v_coop, v2), v1, v_coop], v2)
    return code, value


def classify_regime(x: float, y: float, x_bar: float | None = None,
                    y_bar: float | None = None) -> RegimeSummary:
    """Place a symmetric influence point in its equilibrium regime.

    The regions are those of `regime_map`.  Points within BOUNDARY_TOL of a
    line are flagged "boundary" and carry both adjacent equilibria; the
    value there is nan unless the adjacent branches agree.
    """
    x_bar = x if x_bar is None else x_bar
    y_bar = y if y_bar is None else y_bar
    if abs(x - x_bar) > 1e-12 or abs(y - y_bar) > 1e-12:
        raise ValueError(
            "asymmetric inputs are outside the classified scope; "
            "use the full tensor via transform_game instead")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if not 0.5 < y <= 1.0:
        raise ValueError(f"y must lie in (1/2, 1], got {y}")
    code, value = regime_map(x, y)
    code = int(code)
    return RegimeSummary(x, y, x_bar, y_bar, REGIME_LABELS[code], REGIME_NASH[code],
                         float(value))


def game_value(x: float, y: float) -> float:
    """Equilibrium payoff of the first decider at a symmetric point.

    Piecewise: -1+2x in pd-v1, -1+2y under cooperation, 1-2x in pd-v2.
    Exactly on a tipping line the two adjacent branches generally disagree
    (the equilibrium payoff jumps); the shared value is returned when they
    do agree, otherwise this raises.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if not 0.5 <= y <= 1.0:
        raise ValueError(f"y must lie in [1/2, 1], got {y}")
    _, value = regime_map(x, y)
    if math.isnan(value):
        raise ValueError("equilibrium payoff jumps at this tipping point")
    return float(value)
