"""Noisy weighted voting on a hierarchy and its exact conditionals.

Each vertex with predecessors adopts +1 with a probability driven by the
weighted sum of its predecessors' spins, scaled by (1-D)/D for free float
D, against zero-mean Gaussian noise of width sigma.  Two response curves
are supported: the exact Gaussian tail ("gaussian") and its logistic
approximation ("tanh", the default).  Conditional distributions are exact
sums over the spin configurations of every vertex that can change them,
so the number of those free vertices is capped.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import CyclicGraphError, EnumerationCapError
from .graph import HierarchyGraph, deciders

MODE_TANH = "tanh"
MODE_GAUSSIAN = "gaussian"

DEFAULT_CAP = 22
CAP_ENV_VAR = "HIERGAME_CAP"

_BLOCK_BITS = 14  # enumeration chunk size: 2**14 configurations per block

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def sigma_for_beta(beta: float) -> float:
    """Noise width that makes the logistic gain equal `beta`."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return _SQRT_2_OVER_PI / beta


@dataclass(frozen=True)
class VoteParams:
    """Vote-process parameters: free float D in (0,1), noise width, mode."""

    free_float: float
    noise_sigma: float
    mode: str = MODE_TANH

    def __post_init__(self) -> None:
        if not 0.0 < self.free_float < 1.0:
            raise ValueError(f"free_float {self.free_float} outside (0, 1)")
        if not self.noise_sigma > 0.0:
            raise ValueError("noise_sigma must be positive")
        if self.mode not in (MODE_TANH, MODE_GAUSSIAN):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def gain(self) -> float:
        """Logistic gain a = sqrt(2 / (pi sigma^2)); doubles as the inverse
        temperature of the matching pair-coupling model."""
        return _SQRT_2_OVER_PI / self.noise_sigma

    @property
    def command_scale(self) -> float:
        return (1.0 - self.free_float) / self.free_float

    @classmethod
    def from_graph(cls, g: HierarchyGraph, mode: str = MODE_TANH) -> "VoteParams":
        return cls(g.free_float, g.noise_sigma, mode)

    @classmethod
    def from_beta(cls, beta: float, free_float: float, mode: str = MODE_TANH) -> "VoteParams":
        return cls(free_float, sigma_for_beta(beta), mode)


def default_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be positive")
    return value


def _check_cap(n_free: int, cap: int | None) -> None:
    limit = default_cap() if cap is None else cap
    if n_free > limit:
        raise EnumerationCapError(
            f"exact sum has {n_free} free vertices, above the enumeration cap {limit}"
        )


def _spin_blocks(k: int) -> Iterator[np.ndarray]:
    """All 2**k patterns of k spins as rows of +-1 floats, in blocks of at
    most 2**_BLOCK_BITS rows; bit j of a row's number is spin j."""
    rows = 1 << min(k, _BLOCK_BITS)
    shifts = np.arange(k, dtype=np.uint64)
    for start in range(0, 1 << k, rows):
        # no block-sized temporary stays alive while the caller holds a block
        codes = np.arange(start, start + rows, dtype=np.uint64)[:, None]
        yield 2.0 * ((codes >> shifts) & np.uint64(1)).astype(np.float64) - 1.0


def _prune_barren(g: HierarchyGraph, keep: frozenset[str]) -> tuple[HierarchyGraph, int]:
    """Drop, until none is left, every vertex outside `keep` that has no
    remaining successor.

    Such a vertex is free and untargeted, and its vote factor sums to 1 over
    its own spin, so dropping it leaves every sum over the rest unchanged,
    on cycles too.  A dropped vertex without predecessors carries no factor
    and sums to 2 instead; their number comes back with the graph induced
    on the kept vertices, which is `g` itself when nothing is dropped.  The
    kept set is closed under predecessors, so weights stay normalized.
    """
    succ_left = {v: len(out) for v, out in g.succ_map.items()}
    stack = [v for v, n in succ_left.items() if n == 0 and v not in keep]
    dropped: set[str] = set()
    while stack:
        v = stack.pop()
        dropped.add(v)
        for u, _ in g.pred_map[v]:
            succ_left[u] -= 1
            if succ_left[u] == 0 and u not in keep:
                stack.append(u)
    if not dropped:
        return g, 0
    roots = sum(1 for v in dropped if not g.pred_map[v])
    kept = HierarchyGraph(tuple(v for v in g.vertices if v.id not in dropped),
                          tuple(e for e in g.edges if e.dst not in dropped),
                          g.free_float, g.noise_sigma)
    return kept, roots


def outcome_probability(spin, field, params: VoteParams):
    """P(vertex adopts `spin` | net command field), elementwise on arrays."""
    if params.mode == MODE_TANH:
        return 0.5 * (1.0 + np.tanh(params.gain * np.multiply(spin, field)))
    z = np.multiply(spin, field) / (params.noise_sigma * math.sqrt(2.0))
    return 0.5 * (1.0 + _erf(z))


def single_vote_prob(weights: Mapping[str, float], commands: Mapping[str, int],
                     params: VoteParams) -> float:
    """Probability that one vertex votes +1 given its predecessors' spins.

    `weights` are the normalized predecessor weights; `commands` assigns a
    spin (+1 or -1) to every predecessor.
    """
    if not weights:
        raise ValueError("vertex has no predecessors, its spin is free")
    total = 0.0
    for v, w in weights.items():
        if v not in commands:
            raise ValueError(f"no command for predecessor {v!r}")
        s = commands[v]
        if s not in (1, -1):
            raise ValueError(f"command for {v!r} must be +1 or -1, got {s!r}")
        total += w * s
    if abs(sum(weights.values()) - 1.0) > 1e-9:
        raise ValueError("predecessor weights must sum to 1")
    return float(outcome_probability(1, params.command_scale * total, params))


def _validate_assignment(assignment: Mapping[str, int], over: frozenset[str],
                         what: str) -> None:
    if set(assignment) != set(over):
        raise ValueError(f"{what} must assign every vertex of the set exactly once")
    for v, s in assignment.items():
        if s not in (1, -1):
            raise ValueError(f"{what} for {v!r} must be +1 or -1, got {s!r}")


@dataclass(frozen=True)
class ConditionalDistribution:
    """Exact distribution over spin patterns on a target vertex set B,
    conditioned on fixed spins over A."""

    condition: Mapping[str, int]
    vertices: tuple[str, ...]
    table: Mapping[tuple[int, ...], float]
    partition: float
    notes: tuple[str, ...] = ()

    def prob(self, assignment: Mapping[str, int]) -> float:
        _validate_assignment(assignment, frozenset(self.vertices), "assignment")
        key = tuple(assignment[v] for v in self.vertices)
        return self.table[key]

    def plus_prob(self, vertex: str) -> float:
        """Marginal probability that `vertex` is +1."""
        if vertex not in self.vertices:
            raise ValueError(f"{vertex!r} is not a target vertex")
        k = self.vertices.index(vertex)
        return sum(p for key, p in self.table.items() if key[k] == 1)

    def outcomes(self) -> Iterator[tuple[dict[str, int], float]]:
        for key, p in self.table.items():
            yield dict(zip(self.vertices, key)), p


def _iter_weight_blocks(g: HierarchyGraph, condition: Mapping[str, int],
                        params: VoteParams) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (free spins, weights) blocks over every pattern of the vertices
    outside the condition, taken in sorted id order.

    A weight is the product of single-vote factors of its row, with the
    conditioned vertices holding their fixed spins.
    """
    order = tuple(sorted(g.vertex_ids))
    index = {v: k for k, v in enumerate(order)}
    n = len(order)
    wmat = np.zeros((n, n))
    factor_cols = []
    for v, preds in g.pred_map.items():
        if preds:
            factor_cols.append(index[v])
            for u, w in preds:
                wmat[index[u], index[v]] = w
    factor_cols.sort()
    free_idx = np.array([index[v] for v in order if v not in condition], dtype=np.intp)
    scale = params.command_scale
    base = np.zeros(n)
    for v, s in condition.items():
        base[index[v]] = float(s)
    for free_spins in _spin_blocks(len(free_idx)):
        spins = np.broadcast_to(base, (len(free_spins), n)).copy()
        spins[:, free_idx] = free_spins
        fields = scale * (spins @ wmat)
        if factor_cols:
            probs = outcome_probability(spins[:, factor_cols], fields[:, factor_cols], params)
            weights = np.prod(probs, axis=1)
        else:
            weights = np.ones(len(spins))
        yield free_spins, weights


def _exact_sum(blocks: Iterable[tuple[np.ndarray, np.ndarray]],
               keys: Sequence[int] = ()) -> np.ndarray:
    """Summed weight per pattern of the free-spin columns `keys`.

    `blocks` yields (free spins, weights) pairs that together cover every
    free pattern once.  Entry c of the result sums the rows whose key
    column j is +1 exactly where bit j of c is set; with no keys the one
    entry is the total.  Blocks are pulled one at a time, so a producer's
    block arrays are freed as the next block is made.
    """
    if not keys:
        total = 0.0
        for _, weights in blocks:
            total += float(weights.sum())
        return np.array([total])
    sums = np.zeros(1 << len(keys))
    for spins, weights in blocks:
        codes = np.zeros(len(weights), dtype=np.int64)
        for j, col in enumerate(keys):
            codes |= (spins[:, col] > 0).astype(np.int64) << j
        sums += np.bincount(codes, weights=weights, minlength=len(sums))
    return sums


def conditional_influence(g: HierarchyGraph, a: frozenset[str] | set[str],
                          b: frozenset[str] | set[str],
                          condition: Mapping[str, int], params: VoteParams,
                          cap: int | None = None) -> ConditionalDistribution:
    """Exact conditional P(spins on B | spins on A) for one coordinate of the
    command vector.

    Sums the product of per-vertex vote factors over every configuration of
    the unconditioned vertices and normalizes.  On an acyclic graph with A
    equal to the decider set this reproduces the forward pass exactly; with
    other conditioning sets (or cycles) it is the normalized-sum semantics.
    Barren vertices are pruned first (see `_prune_barren`), and the cap
    bounds the free vertices left.
    """
    a = frozenset(a)
    b = frozenset(b)
    for v in a | b:
        g.require_vertex(v)
    if a & b:
        raise ValueError("conditioned and target sets must be disjoint")
    if not b:
        raise ValueError("target set is empty")
    _validate_assignment(condition, a, "condition")
    kept, roots = _prune_barren(g, a | b)
    _check_cap(len(kept.vertices) - len(a), cap)

    notes: tuple[str, ...] = ()
    if g.topological_order is not None and not a >= deciders(g):
        notes = ("mid-graph conditioning: condition set does not cover all deciders",)

    # A configuration and its global spin flip carry bitwise-identical weight
    # (the response functions are odd), so evaluating under a sign-canonical
    # condition and relabeling keeps P(tau|sigma) == P(-tau|-sigma) exact.
    flipped = bool(a) and condition[min(a)] == -1
    work = {v: -s for v, s in condition.items()} if flipped else condition

    b_order = tuple(sorted(b))
    nb = len(b_order)
    free = [v for v in sorted(kept.vertex_ids) if v not in a]
    sums = _exact_sum(_iter_weight_blocks(kept, work, params),
                      [free.index(v) for v in b_order])
    z = float(sums.sum())
    complement = np.arange(1 << nb)[::-1]
    if flipped:
        sums = sums[complement]
    elif not a:
        sums = 0.5 * (sums + sums[complement])
    if z <= 0.0:
        raise ValueError("conditional distribution has zero total weight")
    table = {}
    for code in range(1 << nb):
        key = tuple(1 if (code >> j) & 1 else -1 for j in range(nb))
        table[key] = float(sums[code]) / z
    return ConditionalDistribution(dict(condition), b_order, table, z * 2.0 ** roots, notes)


def partition_function(g: HierarchyGraph, a: frozenset[str] | set[str],
                       condition: Mapping[str, int], params: VoteParams,
                       cap: int | None = None) -> float:
    """Total weight of all configurations compatible with the condition.

    Equals exactly 1 on an acyclic graph conditioned on all deciders, and
    2**(number of free deciders) when some deciders are left free; on cyclic
    graphs it is a genuine normalizer with no closed form.  Barren vertices
    are pruned first, and the cap bounds the free vertices left.
    """
    a = frozenset(a)
    for v in a:
        g.require_vertex(v)
    _validate_assignment(condition, a, "condition")
    kept, roots = _prune_barren(g, a)
    _check_cap(len(kept.vertices) - len(a), cap)
    total = _exact_sum(_iter_weight_blocks(kept, condition, params))
    return float(total[0]) * 2.0 ** roots


def sample_many(g: HierarchyGraph, condition: Mapping[str, int],
                params: VoteParams, n: int, seed: int) -> dict[str, np.ndarray]:
    """Draw `n` independent full spin assignments by ancestral sampling.

    Requires an acyclic graph conditioned on exactly the decider set.
    Returns an int8 array of +-1 per vertex; deterministic in `seed`.
    """
    order = g.topological_order
    if order is None:
        raise CyclicGraphError("forward sampling needs an acyclic hierarchy")
    lam = deciders(g)
    _validate_assignment(condition, lam, "condition")
    if n < 1:
        raise ValueError("need at least one sample")

    rng = np.random.default_rng(seed)
    scale = params.command_scale
    spins: dict[str, np.ndarray] = {}
    for v in order:
        preds = g.pred_map[v]
        if not preds:
            spins[v] = np.full(n, condition[v], dtype=np.int8)
            continue
        fld = np.zeros(n)
        for u, w in preds:
            fld += w * spins[u]
        p_plus = outcome_probability(1, scale * fld, params)
        draws = rng.random(n)
        spins[v] = np.where(draws < p_plus, 1, -1).astype(np.int8)
    return spins


def sample_outcome(g: HierarchyGraph, condition: Mapping[str, int],
                   params: VoteParams, seed: int) -> dict[str, int]:
    """One full spin assignment drawn by ancestral sampling."""
    draws = sample_many(g, condition, params, 1, seed)
    return {v: int(arr[0]) for v, arr in draws.items()}


def influence_oracle(g: HierarchyGraph, params: VoteParams,
                     cap: int | None = None) -> Callable[[str, Mapping[str, int]], float]:
    """Callable (executive, commands) -> P(executive votes +1 | commands),
    with commands giving one spin per decider.  Results are cached."""
    lam = deciders(g)
    cache: dict[tuple[str, tuple[tuple[str, int], ...]], float] = {}

    def oracle(executive: str, commands: Mapping[str, int]) -> float:
        key = (executive, tuple(sorted(commands.items())))
        if key not in cache:
            dist = conditional_influence(g, lam, {executive}, dict(commands), params, cap)
            cache[key] = dist.plus_prob(executive)
        return cache[key]

    return oracle
