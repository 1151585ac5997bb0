"""How much of each executive's behaviour belongs to each decider.

Influence is probed through a coalition game: the value of a decider
coalition K for executive i is how far commanding +1 from exactly K moves
i's vote, rescaled so the full coalition is worth 1.  Shapley averaging
over orderings then yields one share per (decider, executive) pair.  A
path-product mechanism is provided as a structural alternative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import CyclicGraphError, DegenerateInfluenceError
from .graph import HierarchyGraph, deciders, executives

InfluenceOracle = Callable[[str, Mapping[str, int]], float]

DEGENERACY_TOL = 1e-12


@np.errstate(divide="ignore", invalid="ignore")
def _coalition_values(table: Mapping[tuple[int, ...], float]):
    """Pull (p_K - p_none) / (2 p_all - 1) of each coalition K (a frozenset of
    decider positions) in one executive's {command pattern: P(+1)}, and the
    mask |2 p_all - 1| < DEGENERACY_TOL where no share is defined."""
    m = len(next(iter(table)))
    span = 2.0 * table[(1,) * m] - 1.0
    none = table[(-1,) * m]
    return ({frozenset(j for j, s in enumerate(pattern) if s == 1): np.divide(p - none, span)
             for pattern, p in table.items()}, abs(span) < DEGENERACY_TOL)


def oracle_table(oracle: InfluenceOracle, lam: tuple[str, ...], execs: tuple[str, ...]):
    """{command pattern over `lam`: P(+1) of each of `execs`, in order on a
    leading axis}, one oracle call per executive and pattern."""
    return {pattern: np.array([oracle(i, dict(zip(lam, pattern))) for i in execs], dtype=float)
            for pattern in product((1, -1), repeat=len(lam))}


def require_decided(degenerate, execs: tuple[str, ...]) -> None:
    """Raise DegenerateInfluenceError for the first executive whose mask is set."""
    if np.any(degenerate):
        raise DegenerateInfluenceError(f"unanimous commands leave executive "
                                       f"{execs[int(np.argmax(degenerate))]!r} undecided")


@np.errstate(invalid="ignore")
def shapley_from_table(table: Mapping[tuple[int, ...], float]):
    """Shapley share of each decider in one executive's coalition game, and
    the degeneracy mask.  `table` gives P(+1) under every command pattern,
    as floats or arrays of one shape (a batch of executives or points).
    Weights (|K|-1)! (m-|K|)! / m! apply to marginal contributions z(K) - z(K - {d})."""
    values, degenerate = _coalition_values(table)
    m = len(next(iter(table)))
    fact = math.factorial
    weights = {size: fact(size - 1) * fact(m - size) / fact(m) for size in range(1, m + 1)}
    shares = []
    for member in range(m):
        total = 0.0
        for size in range(1, m + 1):
            for combo in combinations(range(m), size):
                if member in combo:
                    k = frozenset(combo)
                    total += weights[size] * (values[k] - values[k - {member}])
        shares.append(total)
    return shares, degenerate


@dataclass(frozen=True, eq=False)
class ShareMatrix:
    """Share of each executive's payoff attributed to each decider:
    ``values[d, k]`` is the share of ``deciders[d]`` in the payoff of
    ``executives[k]``."""

    deciders: tuple[str, ...]
    executives: tuple[str, ...]
    values: np.ndarray


def shares_by_paths(g: HierarchyGraph,
                    execs: Iterable[str] | None = None) -> ShareMatrix:
    """Structural alternative: share = sum over directed decider-to-executive
    paths of the product of edge weights.  Acyclic graphs only.  Rows follow
    the sorted deciders; columns follow `execs` in the order given, or the
    sorted executives when `execs` is None.

    One pass in reverse topological order carries, for every vertex, the
    path sums from it to each executive; a path ends at its executive."""
    order = g.topological_order
    if order is None:
        raise CyclicGraphError("path shares need an acyclic hierarchy")
    lam = tuple(sorted(deciders(g)))
    execs = tuple(execs) if execs is not None else tuple(sorted(executives(g)))
    for i in execs:
        g.require_vertex(i)
    column = {i: k for k, i in enumerate(execs)}
    downstream: dict[str, list[float]] = {}
    for v in reversed(order):
        sums = [0.0] * len(execs)
        for nxt, w in g.succ_map[v]:
            sums = [s + w * d for s, d in zip(sums, downstream[nxt])]
        if v in column:
            sums[column[v]] = 1.0
        downstream[v] = sums
    values = [[downstream[member][column[i]] for i in execs] for member in lam]
    return ShareMatrix(lam, execs, np.array(values, dtype=float).reshape(len(lam), len(execs)))
