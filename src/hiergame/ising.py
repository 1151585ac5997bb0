"""Pair-coupling spin model induced by a hierarchy, and its exact sums.

Each directed edge v->w of weight f becomes an undirected coupling
J_vw = f (1-D)/D, and the vote noise width sets the inverse temperature
beta = sqrt(2 / (pi sigma^2)).  The law of a set of targets given fixed
spins on a conditioned set is one sum over the corridor between the two
sets and every region beyond the targets that links two of them.  What
hangs beyond the conditioned set sums to a function of the condition
alone, and what hangs beyond a single target to an even function of its
spin, by spin-flip symmetry, hence a constant: both drop out of the law.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .elimination import fixed_fields, stored_in, sum_product
from .errors import MultiEdgeError
from .graph import HierarchyGraph, reach
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


class _Corridor(NamedTuple):
    """The factors of one query's sum on one model: a field factor per
    summed vertex coupled to a conditioned one, then a pair factor per
    coupling of two summed vertices.  Built by `_corridor`; nothing in it
    depends on the conditioned spins."""

    scopes: tuple[tuple[str, ...], ...]
    pulls: tuple[tuple[tuple[str, float], ...], ...]  # per field: (fixed vertex, J)
    pair_tables: tuple[np.ndarray, ...]  # per pair: exp(beta J s s')

    def tables(self, spins: Mapping[str, int], beta: float) -> list[np.ndarray]:
        """The factor tables under fixed `spins`: each field adds J times
        spin per pull, in coupling order from 0.0 (`fixed_fields`)."""
        h = beta * np.array(fixed_fields(self.pulls, spins))
        return list(np.exp(np.stack((-h, h), axis=1))) + list(self.pair_tables)


@stored_in("corridor_layouts")
def _corridor(model: IsingModel, a: frozenset[str], targets: tuple[str, ...]) -> _Corridor:
    """The factors of the sum from conditioned set A to `targets` with the
    targets' spins as its keys, once the two sets pass their checks; built
    once and kept in `model.corridor_layouts` (see `stored_in`).

    The sum runs over the targets and every component of the graph minus
    A and the targets that touches a target and either A (the corridor
    between A and the targets) or a second target.  A component that
    touches one target and not A sums to an even function of that
    target's spin, by spin-flip symmetry, hence a constant.  Every
    coupling inside the summed region plus A contributes, in one pass over
    the couplings: between two summed spins as a pair factor, between a
    summed and a fixed one as a pull on the summed spin's field.
    Couplings of two fixed spins are a constant of the condition and are
    left out.
    """
    b = frozenset(targets)
    overlap = a & b
    if overlap:
        raise ValueError(f"condition and target overlap on {sorted(overlap)}")
    if not a or not b:
        raise ValueError("condition and target must both be nonempty")
    if len(b) < len(targets):
        raise ValueError(f"targets must be distinct, got {list(targets)}")
    adj = model.adjacency
    for v in a | b:
        if v not in adj:
            raise ValueError(f"unknown vertex id {v!r}")
    summed, seen = set(b), set(b)
    for w in set().union(*(adj[t] for t in targets)) - a:
        if w not in seen:
            part = reach({w}, adj, removed=a | b)
            seen |= part
            touched = set().union(*(adj[v] for v in part))
            if touched & a or len(touched & b) >= 2:
                summed |= part
    pulls: dict[str, list[tuple[str, float]]] = {}
    pairs: list[tuple[str, str, float]] = []
    for u, v, j in model.couplings:
        if u in summed:
            if v in summed:
                pairs.append((u, v, j))
            elif v in a:
                pulls.setdefault(u, []).append((v, j))
        elif u in a and v in summed:
            pulls.setdefault(v, []).append((u, j))
    bj = model.beta * np.array([j for *_, j in pairs])
    pair_tables = np.exp(np.stack((bj, -bj, -bj, bj), axis=1)).reshape(-1, 2, 2)
    pair_tables.flags.writeable = False
    return _Corridor(tuple((v,) for v in pulls) + tuple((u, v) for u, v, _ in pairs),
                     tuple(map(tuple, pulls.values())), tuple(pair_tables))


def ising_joint(model: IsingModel, targets: Sequence[str], condition: Mapping[str, int],
                cap: int | None = None) -> dict[tuple[int, ...], float]:
    """P(spins on `targets` | fixed spins on `condition`), keyed by the
    tuple of target spins in target order.

    One sum over the region of `_corridor`, keyed on the targets' spins,
    gives each pattern's weight Z(s); the law is Z(s) over the total,
    summed in key order.  The cap counts every target's spin along with
    the summed interior's (see `sum_product`); a total that overflows or
    underflows is a ValueError.
    """
    for v, s in condition.items():
        if s not in (1, -1):
            raise ValueError(f"condition spin for {v!r} must be +1 or -1")
    keys = tuple(targets)
    layout = _corridor(model, frozenset(condition), keys)
    z = sum_product(layout.scopes, lambda: layout.tables(condition, model.beta),
                    keys, cap).tolist()
    total = _in_range(sum(z), model.beta)
    # entry c has key j at +1 exactly where bit j of c is set
    patterns = itertools.product((-1, 1), repeat=len(keys))
    return {pattern[::-1]: w / total for pattern, w in zip(patterns, z)}


def ising_conditional(model: IsingModel, vertex: str,
                      condition: Mapping[str, int], cap: int | None = None) -> float:
    """P(spin at `vertex` is +1 | fixed boundary spins): `ising_joint` of
    the one target, Z(+1) / (Z(-1) + Z(+1))."""
    return ising_joint(model, (vertex,), condition, cap)[(1,)]


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


def chain_xy(a: int, c: int, beta: float) -> tuple[float, float]:
    """Closed-form executive conditionals on the standard two-decider chain.

    The executive hangs between two deciders along chains of `a` and `c`
    edges (interior weights 1, final edges 1/2, free float 1/2).  Returns
    (x, y): x is P(+1) when the a-side decider says -1 and the c-side says
    +1; y is P(+1) under unanimous +1.  With mu(s, k) = cosh(beta)^(k-1)
    cosh(beta/2) + s sinh(beta)^(k-1) sinh(beta/2), x = p / (p + q) for
    p = mu(-1, a) mu(+1, c) and q = mu(+1, a) mu(-1, c), and y = p / (p + q)
    for p = mu(+1, a) mu(+1, c) and q = mu(-1, a) mu(-1, c).
    """
    if a < 1 or c < 1:
        raise ValueError("chain lengths must be at least one edge")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    # at large beta the mu(-1, k) terms cancel to zero and the mu(+1, k)
    # products overflow, leaving 0/0, inf/inf or an OverflowError
    try:
        ch, sh = math.cosh(beta), math.sinh(beta)
        ch_half, sh_half = math.cosh(beta / 2.0), math.sinh(beta / 2.0)
        cosh_a, sinh_a = ch ** (a - 1) * ch_half, sh ** (a - 1) * sh_half
        cosh_c, sinh_c = ch ** (c - 1) * ch_half, sh ** (c - 1) * sh_half
        mu_a_plus, mu_a_minus = cosh_a + sinh_a, cosh_a - sinh_a
        mu_c_plus, mu_c_minus = cosh_c + sinh_c, cosh_c - sinh_c
        x_num = mu_a_minus * mu_c_plus
        x_den = x_num + mu_a_plus * mu_c_minus
        y_num = mu_a_plus * mu_c_plus
        y_den = y_num + mu_a_minus * mu_c_minus
    except OverflowError:
        x_den = y_den = math.inf
    if not all(math.isfinite(d) and d != 0.0 for d in (x_den, y_den)):
        raise ValueError(f"chain closed form is not representable at beta={beta!r} "
                         f"(a={a}, c={c}): a denominator is zero or not finite")
    return x_num / x_den, y_num / y_den
