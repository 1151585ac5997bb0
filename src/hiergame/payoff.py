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
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .errors import CyclicGraphError, DegenerateInfluenceError
from .graph import HierarchyGraph, deciders, executives

InfluenceOracle = Callable[[str, Mapping[str, int]], float]

DEGENERACY_TOL = 1e-12


def _pattern(lam: Iterable[str], plus: Iterable[str]) -> dict[str, int]:
    plus = set(plus)
    return {v: (1 if v in plus else -1) for v in lam}


def coalition_value(oracle: InfluenceOracle, executive: str,
                    coalition: Iterable[str], lam: Iterable[str]) -> float:
    """Normalized pull of the coalition on one executive.

    (P(+1 | +1 exactly on K) - P(+1 | all -1)) / (2 P(+1 | all +1) - 1).
    Raises DegenerateInfluenceError when unanimous commands leave the
    executive at a coin flip, since then no share is defined.
    """
    lam = tuple(sorted(set(lam)))
    coalition = frozenset(coalition)
    if not coalition <= set(lam):
        raise ValueError("coalition must be a subset of the deciders")
    p_all = oracle(executive, _pattern(lam, lam))
    span = 2.0 * p_all - 1.0
    if abs(span) < DEGENERACY_TOL:
        raise DegenerateInfluenceError(
            f"unanimous commands leave executive {executive!r} undecided"
        )
    p_k = oracle(executive, _pattern(lam, coalition))
    p_none = oracle(executive, _pattern(lam, ()))
    return (p_k - p_none) / span


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
    table = {}
    for size in range(len(lam) + 1):
        for combo in combinations(lam, size):
            table[frozenset(combo)] = coalition_value(oracle, executive, combo, lam)
    return CoalitionFunction(executive, lam, table)


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
    """Shapley value of each decider in every executive's coalition game.

    Standard weights (|K|-1)! (m-|K|)! / m! over coalitions containing the
    decider, applied to the marginal contribution z(K) - z(K minus decider).
    """
    lam = tuple(sorted(set(lam)))
    execs = tuple(sorted(set(execs)))
    if not lam:
        raise ValueError("need at least one decider")
    m = len(lam)
    fact = math.factorial
    weights = {size: fact(size - 1) * fact(m - size) / fact(m) for size in range(1, m + 1)}
    values: dict[tuple[str, str], float] = {}
    for i in execs:
        cf = build_coalition_function(oracle, i, lam)
        for member in lam:
            total = 0.0
            for size in range(1, m + 1):
                for combo in combinations(lam, size):
                    if member not in combo:
                        continue
                    k = frozenset(combo)
                    total += weights[size] * (cf.table[k] - cf.table[k - {member}])
            values[(member, i)] = total
    return ShareMatrix(lam, execs, values)


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
