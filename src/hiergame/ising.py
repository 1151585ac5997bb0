"""Pair-coupling spin model induced by a hierarchy, and its exact sums.

Each directed edge v->w of weight f becomes an undirected coupling
J_vw = f (1-D)/D, and the vote noise width sets the inverse temperature
beta = sqrt(2 / (pi sigma^2)).  Boundary-conditioned sums run over the
corridor between the conditioned set and the queried set; everything
hanging beyond either set drops out of normalized ratios.  With the
boundary fixed, the corridor splits into independent components, and its
sum is the product of theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .errors import MultiEdgeError
from .graph import HierarchyGraph, _components, _reach, nodes_between_adjacency
from .vote import _SQRT_2_OVER_PI, _check_cap, _exact_sum, _spin_blocks


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
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
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
        if self.vertices and len(_reach({self.vertices[0]}, self.adjacency,
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

    def coupling(self, u: str, v: str) -> float:
        key = (u, v) if u < v else (v, u)
        return self.coupling_map[key]


def coupling_from_hierarchy(g: HierarchyGraph) -> IsingModel:
    """Map a hierarchy to its equivalent pair-coupling model.

    Fails when two directed edges share an unordered vertex pair, since a
    single symmetric coupling cannot carry both weights.
    """
    scale = (1.0 - g.free_float) / g.free_float
    pairs: dict[tuple[str, str], float] = {}
    for e in g.edges:
        key = (e.src, e.dst) if e.src < e.dst else (e.dst, e.src)
        if key in pairs:
            raise MultiEdgeError(
                f"two directed edges share the unordered pair ({key[0]!r}, {key[1]!r})"
            )
        pairs[key] = e.weight * scale
    beta = _SQRT_2_OVER_PI / g.noise_sigma
    couplings = tuple((u, v, pairs[(u, v)]) for u, v in sorted(pairs))
    return IsingModel(tuple(sorted(g.vertex_ids)), couplings, beta)


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


def _boltzmann_blocks(fields: np.ndarray, pairs: list[tuple[int, int, float]],
                      beta: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (spins, exp(beta * energy)) blocks over every spin pattern of
    one corridor component, from its boundary fields and internal pairs."""
    for spins in _spin_blocks(len(fields)):
        energy = spins @ fields
        for iu, iv, j in pairs:
            energy += j * spins[:, iu] * spins[:, iv]
        yield spins, np.exp(beta * energy)


def k_point(model: IsingModel, query: KPointQuery, cap: int | None = None) -> float:
    """Boundary-conditioned partition sum over the corridor interior.

    Sums exp(beta * sum of J s s') over all spin patterns of the corridor
    between the conditioned and target sets, with both boundaries held
    fixed.  Every coupling inside corridor-plus-boundary contributes,
    including boundary-boundary pairs.  The couplings among free vertices
    split the interior into components that the boundary leaves
    independent, so the sum is exp(beta * boundary energy) times one sum
    per component, and the cap bounds the largest component.
    """
    a = frozenset(query.condition)
    b = frozenset(query.target)
    for v in a | b:
        if v not in model.adjacency:
            raise ValueError(f"unknown vertex id {v!r}")
    interior = nodes_between_adjacency(model.adjacency, a, b)
    comps = _components(model.adjacency, interior)
    _check_cap(max(map(len, comps), default=0), cap)

    fixed: dict[str, float] = {}
    fixed.update({v: float(s) for v, s in query.condition.items()})
    fixed.update({v: float(s) for v, s in query.target.items()})
    zone = interior | set(fixed)
    # vertex -> (its component, its column there)
    where = {v: (c, k) for c, comp in enumerate(comps) for k, v in enumerate(comp)}

    const = 0.0
    fields = [np.zeros(len(comp)) for comp in comps]
    pair_terms: list[list[tuple[int, int, float]]] = [[] for _ in comps]
    for u, v, j in model.couplings:
        if u not in zone or v not in zone:
            continue
        u_free, v_free = u in where, v in where
        if u_free and v_free:
            c, iu = where[u]
            pair_terms[c].append((iu, where[v][1], j))
        elif u_free:
            c, iu = where[u]
            fields[c][iu] += j * fixed[v]
        elif v_free:
            c, iv = where[v]
            fields[c][iv] += j * fixed[u]
        else:
            const += j * fixed[u] * fixed[v]

    total = math.exp(model.beta * const)
    for comp_fields, comp_pairs in zip(fields, pair_terms):
        total *= float(_exact_sum(_boltzmann_blocks(comp_fields, comp_pairs, model.beta))[0])
    return total


def ising_conditional(model: IsingModel, vertex: str,
                      condition: Mapping[str, int], cap: int | None = None) -> float:
    """P(spin at `vertex` is +1 | fixed boundary spins), as the ratio of
    corridor sums with the vertex pinned up versus either way."""
    up = k_point(model, KPointQuery(condition, {vertex: 1}), cap)
    down = k_point(model, KPointQuery(condition, {vertex: -1}), cap)
    return up / (up + down)


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
