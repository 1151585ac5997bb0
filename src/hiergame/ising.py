"""Pair-coupling spin model induced by a hierarchy, and its exact sums.

Each directed edge v->w of weight f becomes an undirected coupling
J_vw = f (1-D)/D, and the vote noise width sets the inverse temperature
beta = sqrt(2 / (pi sigma^2)).  Boundary-conditioned sums run over the
corridor between the conditioned set and the queried set.  What hangs
beyond the conditioned set drops out of ratios taken at a fixed
condition.  What hangs beyond the queried set drops out only where it
touches a single queried vertex, by spin-flip symmetry: a region beyond
that links two of them is not summed, so ratios over two or more queried
vertices are not the model's joint law there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from .elimination import fixed_fields, stored_in, sum_product
from .errors import MultiEdgeError
from .graph import HierarchyGraph, nodes_between_adjacency, reach
from .vote import VoteParams


@dataclass(frozen=True)
class IsingModel:
    """Undirected pair couplings at a fixed inverse temperature.

    `couplings` is a tuple of (u, v, J) with u < v lexicographically; the
    coupling graph must be connected.
    """

    vertices: tuple[str, ...]
    couplings: tuple[tuple[str, str, float], ...]
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        ids = set(self.vertices)
        seen: set[tuple[str, str]] = set()
        for u, v, _ in self.couplings:
            if u >= v:
                raise ValueError(f"coupling pair ({u!r}, {v!r}) must be sorted and distinct")
            if u not in ids or v not in ids:
                raise ValueError(f"coupling ({u!r}, {v!r}) references an unknown vertex")
            if (u, v) in seen:
                raise ValueError(f"duplicate coupling for pair ({u!r}, {v!r})")
            seen.add((u, v))
        if self.vertices and len(reach({self.vertices[0]}, self.adjacency,
                                       removed=frozenset())) != len(self.vertices):
            raise ValueError("coupling graph is not connected")

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v, _ in self.couplings:
            adj[u].add(v)
            adj[v].add(u)
        return {k: frozenset(s) for k, s in adj.items()}

    @cached_property
    def coupling_map(self) -> dict[tuple[str, str], float]:
        return {(u, v): j for u, v, j in self.couplings}

    @cached_property
    def corridor_layouts(self) -> dict:
        """Structure of the corridor sums asked of this model, by query;
        filled and bounded through `elimination.stored_in`."""
        return {}

    def coupling(self, u: str, v: str) -> float:
        key = (u, v) if u < v else (v, u)
        return self.coupling_map[key]


def coupling_from_hierarchy(g: HierarchyGraph) -> IsingModel:
    """Map a hierarchy to its pair-coupling model.

    J's scale and beta are `VoteParams`' `command_scale` and `gain`.  Fails
    when two directed edges share an unordered vertex pair.
    """
    params = VoteParams.from_graph(g)
    scale = params.command_scale
    pairs: dict[tuple[str, str], float] = {}
    for e in g.edges:
        key = (e.src, e.dst) if e.src < e.dst else (e.dst, e.src)
        if key in pairs:
            raise MultiEdgeError(
                f"two directed edges share the unordered pair ({key[0]!r}, {key[1]!r})"
            )
        pairs[key] = e.weight * scale
    couplings = tuple((u, v, pairs[(u, v)]) for u, v in sorted(pairs))
    return IsingModel(tuple(sorted(g.vertex_ids)), couplings, params.gain)


@dataclass(frozen=True)
class KPointQuery:
    """Boundary-conditioned correlation query: fixed spins on A, queried
    spins on B, summed over the corridor interior between them."""

    condition: Mapping[str, int]
    target: Mapping[str, int]

    def __post_init__(self) -> None:
        overlap = set(self.condition) & set(self.target)
        if overlap:
            raise ValueError(f"condition and target overlap on {sorted(overlap)}")
        if not self.condition or not self.target:
            raise ValueError("condition and target must both be nonempty")
        for name, spins in (("condition", self.condition), ("target", self.target)):
            for v, s in spins.items():
                if s not in (1, -1):
                    raise ValueError(f"{name} spin for {v!r} must be +1 or -1")


class _Corridor(NamedTuple):
    """The factors of one corridor sum on one model: a field factor per
    summed vertex coupled to a fixed one, then a pair factor per coupling
    of two summed vertices.  Built by `_corridor`; nothing in it depends on
    the fixed spins."""

    scopes: tuple[tuple[str, ...], ...]
    pulls: tuple[tuple[tuple[str, float], ...], ...]  # per field: (fixed vertex, J)
    pair_tables: tuple[np.ndarray, ...]  # per pair: exp(beta J s s')
    fixed_pairs: tuple[tuple[str, str, float], ...]  # couplings of two fixed spins

    def tables(self, spins: Mapping[str, int], beta: float) -> list[np.ndarray]:
        """The factor tables under fixed `spins`: each field adds J times
        spin per pull, in coupling order from 0.0 (`fixed_fields`)."""
        h = beta * np.array(fixed_fields(self.pulls, spins))
        return list(np.exp(np.stack((-h, h), axis=1))) + list(self.pair_tables)


@stored_in("corridor_layouts")
def _corridor(model: IsingModel, a: frozenset[str], b: frozenset[str],
              keys: tuple[str, ...]) -> _Corridor:
    """The factors of the corridor sum from A to B that sums the interior
    and the `keys`, some of B, with the rest of A and B fixed; built once
    and kept in `model.corridor_layouts` (see `stored_in`).

    Every coupling inside corridor-plus-boundary contributes, in one pass
    over the couplings: between two summed spins as a pair factor, between
    a summed and a fixed one as a pull on the summed spin's field, and
    between two fixed ones as a constant.  Every interior vertex couples to
    the boundary or to another interior vertex, so each one is in some
    factor.
    """
    summed = nodes_between_adjacency(model.adjacency, a, b).union(keys)
    fixed = (a | b) - summed
    pulls: dict[str, list[tuple[str, float]]] = {}
    pairs: list[tuple[str, str, float]] = []
    fixed_pairs: list[tuple[str, str, float]] = []
    for u, v, j in model.couplings:
        if u in summed:
            if v in summed:
                pairs.append((u, v, j))
            elif v in fixed:
                pulls.setdefault(u, []).append((v, j))
        elif u in fixed:
            if v in summed:
                pulls.setdefault(v, []).append((u, j))
            elif v in fixed:
                fixed_pairs.append((u, v, j))
    bj = model.beta * np.array([j for *_, j in pairs])
    pair_tables = np.exp(np.stack((bj, -bj, -bj, bj), axis=1)).reshape(-1, 2, 2)
    pair_tables.flags.writeable = False
    return _Corridor(tuple((v,) for v in pulls) + tuple((u, v) for u, v, _ in pairs),
                     tuple(map(tuple, pulls.values())), tuple(pair_tables),
                     tuple(fixed_pairs))


def k_point(model: IsingModel, query: KPointQuery, cap: int | None = None) -> float:
    """Boundary-conditioned partition sum over the corridor interior.

    Sums exp(beta * sum of J s s') over all spin patterns of the corridor
    between the conditioned and target sets, with both boundaries held
    fixed.  Every coupling inside corridor-plus-boundary contributes,
    including boundary-boundary pairs.  The sum is exp(beta * boundary
    energy) times a sum of products of one factor per free-free coupling
    and one per free vertex coupled to the boundary (all of its pull from
    there), taken by variable elimination; the cap bounds log2 of its
    largest table.  The factors' structure is built once per model and
    pair of sets (see `_corridor`).  A sum out of float range is a ValueError.

    What hangs beyond the conditioned set drops out of ratios of sums at a
    fixed condition.  What hangs beyond the targets drops out only where it
    touches a single target, by spin-flip symmetry; where it links two
    targets, the sums normalised over the target patterns differ from the
    model's joint law of the targets.
    """
    spins = {**query.condition, **query.target}
    layout = _corridor(model, frozenset(query.condition), frozenset(query.target), ())
    const = 0.0
    for u, v, j in layout.fixed_pairs:
        const += j * spins[u] * spins[v]
    total = sum_product(layout.scopes, lambda: layout.tables(spins, model.beta), (), cap)
    try:
        return _in_range(math.exp(model.beta * const) * float(total[0]), model.beta)
    except OverflowError:
        return _in_range(math.inf, model.beta)


def ising_conditional(model: IsingModel, vertex: str,
                      condition: Mapping[str, int], cap: int | None = None) -> float:
    """P(spin at `vertex` is +1 | fixed boundary spins).

    One corridor sum from the condition to the vertex with the vertex's
    spin as its key gives Z(-1) and Z(+1), and P = Z(+1) / (Z(-1) + Z(+1));
    the couplings among the conditioned vertices cancel.  The cap counts
    the vertex's spin along with the interior's (see `k_point`); a
    Z(-1) + Z(+1) that overflows or underflows is a ValueError.
    """
    KPointQuery(condition, {vertex: 1})  # checks the spins as k_point does
    layout = _corridor(model, frozenset(condition), frozenset((vertex,)), (vertex,))
    z = sum_product(layout.scopes, lambda: layout.tables(condition, model.beta),
                    (vertex,), cap)
    return float(z[1]) / _in_range(float(z[0]) + float(z[1]), model.beta)


def _in_range(value: float, beta: float) -> float:
    """A positive corridor sum, unless it overflowed or underflowed."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"the corridor sum leaves the floating-point range at beta={beta!r}")
    return value


def chain_conditional(distance: int, beta_j: float, spin_a: int, spin_b: int) -> float:
    """Endpoint conditional on a uniform chain of `distance` edges with
    coupling-times-temperature beta_j: (1 +- tanh^distance(beta_j)) / 2."""
    if distance < 1:
        raise ValueError("distance must be at least one edge")
    if spin_a not in (1, -1) or spin_b not in (1, -1):
        raise ValueError("endpoint spins must be +1 or -1")
    t = math.tanh(beta_j) ** distance
    return 0.5 * (1.0 + t) if spin_a == spin_b else 0.5 * (1.0 - t)


def _mu(sign: int, k: int, beta: float) -> float:
    return (math.cosh(beta) ** (k - 1) * math.cosh(beta / 2.0)
            + sign * math.sinh(beta) ** (k - 1) * math.sinh(beta / 2.0))


def chain_xy(a: int, c: int, beta: float) -> tuple[float, float]:
    """Closed-form executive conditionals on the standard two-decider chain.

    The executive hangs between two deciders along chains of `a` and `c`
    edges (interior weights 1, final edges 1/2, free float 1/2).  Returns
    (x, y): x is P(+1) when the a-side decider says -1 and the c-side says
    +1; y is P(+1) under unanimous +1.
    """
    if a < 1 or c < 1:
        raise ValueError("chain lengths must be at least one edge")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    # at large beta the mu(-1, ...) terms cancel to zero and the mu(+1, ...)
    # products overflow, leaving 0/0, inf/inf or an OverflowError
    try:
        x_num = _mu(-1, a, beta) * _mu(+1, c, beta)
        x_den = x_num + _mu(+1, a, beta) * _mu(-1, c, beta)
        y_num = _mu(+1, a, beta) * _mu(+1, c, beta)
        y_den = y_num + _mu(-1, a, beta) * _mu(-1, c, beta)
    except OverflowError:
        x_den = y_den = math.inf
    if not all(math.isfinite(d) and d != 0.0 for d in (x_den, y_den)):
        raise ValueError(f"chain closed form is not representable at beta={beta!r} "
                         f"(a={a}, c={c}): a denominator is zero or not finite")
    return x_num / x_den, y_num / y_den
