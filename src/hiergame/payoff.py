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


@dataclass(frozen=True)
class CoalitionFunction:
    executive: str
    deciders: tuple[str, ...]
    table: Mapping[frozenset[str], float]

    def value(self, coalition: Iterable[str]) -> float:
        return self.table[frozenset(coalition)]


def build_coalition_function(oracle: InfluenceOracle, executive: str,
                             lam: Iterable[str]) -> CoalitionFunction:
    """Tabulate the coalition value over every subset of deciders."""
    lam = tuple(sorted(set(lam)))
    values, degenerate = _coalition_values(oracle_table(oracle, lam, (executive,)))
    require_decided(degenerate, (executive,))
    return CoalitionFunction(executive, lam, {frozenset(lam[j] for j in k): float(value[0])
                                              for k, value in values.items()})


def coalition_value(oracle: InfluenceOracle, executive: str,
                    coalition: Iterable[str], lam: Iterable[str]) -> float:
    """Normalized pull of the coalition on one executive:
    (P(+1 | +1 exactly on K) - P(+1 | all -1)) / (2 P(+1 | all +1) - 1).
    Raises DegenerateInfluenceError when the denominator vanishes."""
    coalition, lam = frozenset(coalition), frozenset(lam)
    if not coalition <= lam:
        raise ValueError("coalition must be a subset of the deciders")
    return build_coalition_function(oracle, executive, lam).value(coalition)


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


@dataclass(frozen=True)
class ShareMatrix:
    """Share of each executive's payoff attributed to each decider."""

    deciders: tuple[str, ...]
    executives: tuple[str, ...]
    values: Mapping[tuple[str, str], float]

    def share(self, decider: str, executive: str) -> float:
        return self.values[(decider, executive)]

    def column_sum(self, executive: str) -> float:
        return sum(self.values[(lam, executive)] for lam in self.deciders)


def shapley_shares(oracle: InfluenceOracle, lam: Iterable[str],
                   execs: Iterable[str]) -> ShareMatrix:
    """Shapley value of each decider in every executive's coalition game."""
    lam = tuple(sorted(set(lam)))
    execs = tuple(sorted(set(execs)))
    if not lam:
        raise ValueError("need at least one decider")
    shares, degenerate = shapley_from_table(oracle_table(oracle, lam, execs))
    require_decided(degenerate, execs)
    rows = np.array(shares).T.tolist()  # per executive, one share per decider
    return ShareMatrix(lam, execs, {(member, i): v for i, row in zip(execs, rows)
                                    for member, v in zip(lam, row)})


def shares_by_paths(g: HierarchyGraph,
                    execs: Iterable[str] | None = None) -> ShareMatrix:
    """Structural alternative: share = sum over directed decider-to-executive
    paths of the product of edge weights.  Acyclic graphs only.

    One pass in reverse topological order carries, for every vertex, the
    path sums from it to each executive; a path ends at its executive."""
    order = g.topological_order
    if order is None:
        raise CyclicGraphError("path shares need an acyclic hierarchy")
    lam = tuple(sorted(deciders(g)))
    execs = tuple(sorted(execs if execs is not None else executives(g)))
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
    values = {(member, i): downstream[member][column[i]] for i in execs for member in lam}
    return ShareMatrix(lam, execs, values)
