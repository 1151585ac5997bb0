"""Noisy weighted voting on a hierarchy and its exact conditionals.

Each vertex with predecessors adopts +1 with a probability driven by the
weighted sum of its predecessors' spins, scaled by (1-D)/D for free float
D, against zero-mean Gaussian noise of width sigma.  Two response curves
are supported: the exact Gaussian tail ("gaussian") and its logistic
approximation ("tanh", the default).  Conditional distributions are exact
sums over the spin configurations of every vertex that can change them,
taken by variable elimination, so the size of its largest table is capped.
"""

from __future__ import annotations

import functools
import heapq
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import CyclicGraphError, EnumerationCapError
from .graph import HierarchyGraph, deciders

MODE_TANH = "tanh"
MODE_GAUSSIAN = "gaussian"

DEFAULT_CAP = 22
CAP_ENV_VAR = "HIERGAME_CAP"
# draws times vertices that sample_many may hold, one int8 spin each
MAX_SAMPLE_SPINS = 10**8

# products that cost about as much as one einsum call: cheaper steps are joined
_FUSE_PRODUCTS = 1 << 9
# elimination plans kept for reuse, one per factor scopes, keys and cap
_PLAN_CACHE = 64
# steps spanning at least this many spins are wide: their tables are
# multiplied pairwise by broadcasting, which beats one einsum call there
# and loses to it on smaller steps
_PAIRWISE_SPINS = 12

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


def _check_cap(width: int, limit: int) -> None:
    if width > limit:
        raise EnumerationCapError(
            f"exact sum needs a table over {width} spins, above the enumeration cap {limit}"
        )


class _Einsum(NamedTuple):
    """A narrow step: one plain einsum call.  Like `_Broadcast.run`, `run`
    takes every table made so far and frees the ones it consumes."""

    inputs: tuple[int, ...]
    sublists: tuple[tuple[int, ...], ...]  # one per input, then the output's

    def run(self, made: list[np.ndarray | None]) -> np.ndarray:
        operands: list = []
        for f, sublist in zip(self.inputs, self.sublists):
            operands += (made[f], sublist)
            made[f] = None
        return np.einsum(*operands, self.sublists[-1], optimize=False)


class _Broadcast(NamedTuple):
    """A wide step: a fixed numpy program of broadcast multiplies and adds.

    Each input is transposed into label order and indexed to broadcast over
    every label of the step (`views`: axis permutation, index, halves to
    add).  `products` then multiplies operand j into operand i, in C order,
    and drops j.  Each label that no other operand holds and the output
    does not is summed as soon as that holds, by adding its two halves and
    keeping a length-1 axis; on a length-2 axis that is far faster than
    `sum`.  What is left has the output's spins in label order.
    """

    inputs: tuple[int, ...]
    views: tuple[tuple[tuple[int, ...], tuple, tuple], ...]
    products: tuple[tuple[int, int, tuple], ...]
    shape: tuple[int, ...]

    def run(self, made: list[np.ndarray | None]) -> np.ndarray:
        operands = []
        for f, (perm, index, halves) in zip(self.inputs, self.views):
            operands.append(_add_halves(made[f].transpose(perm)[index], halves))
            made[f] = None
        for i, j, halves in self.products:
            product = np.multiply(operands[i], operands.pop(j), order="C")
            operands[i] = _add_halves(product, halves)
        return operands[0].reshape(self.shape)


def _add_halves(x: np.ndarray, halves: tuple) -> np.ndarray:
    for low, high in halves:
        x = np.add(x[low], x[high])
    return x


def _broadcast_step(inputs: tuple[int, ...], sublists: list[tuple[int, ...]],
                    out: tuple[int, ...], width: int) -> _Broadcast:
    """Compile a wide step over labels 0..width-1 onto the sorted `out`
    labels: the pair of operands with the smallest union of labels is
    multiplied first, and every label is summed as soon as one operand
    alone holds it."""
    held = [set(sublist) for sublist in sublists]

    def summed(k: int) -> tuple:
        others = set(out).union(*(h for i, h in enumerate(held) if i != k))
        gone = sorted(held[k] - others)
        held[k].difference_update(gone)
        return tuple(((slice(None),) * label + (slice(0, 1),),
                      (slice(None),) * label + (slice(1, 2),)) for label in gone)

    views = []
    for k, sublist in enumerate(sublists):
        perm = tuple(sorted(range(len(sublist)), key=sublist.__getitem__))
        index = tuple(slice(None) if label in held[k] else None for label in range(width))
        views.append((perm, index, summed(k)))
    products = []
    while len(held) > 1:
        i, j = min(((i, j) for j in range(len(held)) for i in range(j)),
                   key=lambda pair: (len(held[pair[0]] | held[pair[1]]), pair))
        held[i] |= held.pop(j)
        products.append((i, j, summed(i)))
    return _Broadcast(inputs, tuple(views), tuple(products), (2,) * len(out))


class _Plan(NamedTuple):
    """How `_sum_product` sums one list of factor scopes.

    Tables are numbered as `_sum_product` receives them, then one all-ones
    table per key that no factor mentions, then one per step in order.  A
    step consumes the tables it names: one einsum call when it spans fewer
    than _PAIRWISE_SPINS spins, else a broadcast program (`_Broadcast`);
    None marks a step that a later one took over.  `final` sums what is
    left onto the keys, or is None when nothing is.
    """

    unheld: int
    steps: tuple[_Einsum | _Broadcast | None, ...]
    final: _Einsum | _Broadcast | None


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _elimination_plan(scopes: tuple[tuple[str, ...], ...], keys: tuple[str, ...],
                      limit: int) -> _Plan:
    """Greedy variable elimination order over the factor scopes: the spin
    with the fewest neighbours first (ties to the one in fewest factors,
    then the smallest name), each step summing out one spin from the
    product of the factors that mention it (Dechter 1999).

    Raises EnumerationCapError as soon as an input factor, the keys or a
    step span more than `limit` spins; the factors are checked before any
    bookkeeping, which on a dense graph grows with the cube of its size.
    A step whose input comes from an earlier step takes over that step's
    inputs while the joint einsum costs less than one more call; the
    tables made stay those of single-spin steps.  Every step is compiled
    here, once per structure (see `_Plan`), so a warm sum searches for no
    contraction path.
    """
    _check_cap(max(map(len, scopes), default=0), limit)
    _check_cap(len(keys), limit)
    scopes = list(scopes)
    holding: dict[str, set[int]] = {}
    for f, scope in enumerate(scopes):
        for v in scope:
            if v in holding:
                holding[v].add(f)
            else:
                holding[v] = {f}
    # a key that no factor mentions takes either spin freely
    unheld = [k for k in keys if k not in holding]
    for k in unheld:
        holding[k] = {len(scopes)}
        scopes.append((k,))
    nbrs: dict[str, set[str]] = {}
    for v, ids in holding.items():
        around = set()
        for f in ids:
            around.update(scopes[f])
        around.discard(v)
        nbrs[v] = around

    # open steps: [inputs, spins spanned, spins kept], None once taken over
    steps: list[list | None] = []
    made_by: dict[int, int] = {}

    def absorb(ids: set[int], spins: set[str], out: tuple[str, ...]) -> list:
        inputs: list[int] = []
        for f in sorted(ids):
            s = made_by.get(f)
            if s is not None:
                child_inputs, child_spins, _ = steps[s]
                joint = spins | child_spins
                if (len(ids) + len(child_inputs)) << len(joint) <= _FUSE_PRODUCTS:
                    inputs += child_inputs
                    spins = joint
                    steps[s] = None
                    continue
            inputs.append(f)
        return [inputs, spins, out]

    key_set = frozenset(keys)
    rank: dict[str, int] = {}
    heap = [(len(nbrs[v]), len(ids), v) for v, ids in holding.items() if v not in key_set]
    heapq.heapify(heap)
    while heap:
        degree, count, v = heapq.heappop(heap)
        if v not in nbrs or (degree, count) != (len(nbrs[v]), len(holding[v])):
            continue  # eliminated, or its entry is stale
        around = nbrs.pop(v)
        ids = holding.pop(v)
        rank[v] = len(rank)
        _check_cap(len(around) + 1, limit)
        new = len(scopes)
        scopes.append(tuple(around))  # put in label order below
        made_by[new] = len(steps)
        steps.append(absorb(ids, around | {v}, scopes[new]))
        for u in around:
            u_nbrs = nbrs[u]
            u_nbrs |= around
            u_nbrs.discard(u)
            u_nbrs.discard(v)
            u_ids = holding[u]
            u_ids -= ids
            u_ids.add(new)
            if u not in key_set:
                heapq.heappush(heap, (len(u_nbrs), len(u_ids), u))
    # what no step consumed: the keys' factors and the constant ones
    live = set().union(*holding.values()) | {f for f, scope in enumerate(scopes) if not scope}
    final = absorb(live, set(keys), keys[::-1]) if live else None
    # Spins are labelled in elimination order, then the keys in the order
    # of the result's axes, and every table a step makes holds its spins in
    # label order.  A step's summed spins then lead its axes, a wide step
    # reads the tables made before it without reordering them, and the
    # final step needs no transpose.
    rank.update((k, len(rank) + i) for i, k in enumerate(keys[::-1]))
    for f in made_by:
        scopes[f] = tuple(sorted(scopes[f], key=rank.__getitem__))

    def compile_step(step: list | None) -> _Einsum | _Broadcast | None:
        if step is None:
            return None
        inputs, spins, out = step
        label = {u: k for k, u in enumerate(sorted(spins, key=rank.__getitem__))}
        sublists = [tuple(label[u] for u in scopes[f]) for f in inputs]
        out_labels = tuple(sorted(label[u] for u in out))
        if len(spins) < _PAIRWISE_SPINS:
            return _Einsum(tuple(inputs), tuple(sublists) + (out_labels,))
        return _broadcast_step(tuple(inputs), sublists, out_labels, len(spins))

    return _Plan(len(unheld), tuple(map(compile_step, steps)), compile_step(final))


def _sum_product(scopes: Sequence[tuple[str, ...]],
                 tables: Callable[[], list[np.ndarray]],
                 keys: Sequence[str] = (), cap: int | None = None) -> np.ndarray:
    """Sum over every spin outside `keys` of a product of factors, per
    pattern of the key spins, by variable elimination.

    Factor f is a table over the spins named in ``scopes[f]``, one axis of
    length 2 per spin in scope order, index 0 holding -1 and index 1 +1;
    `tables()` builds them, in scope order, once the plan is known to fit
    the cap.  The plan (see `_elimination_plan`) depends on the scopes,
    keys and cap alone, so sums over the same structure share it and only
    run its steps: plain einsum calls and broadcast multiplies and sums.
    The cap bounds log2 of the largest table an elimination step sums
    over: the eliminated spin and its neighbours.  Entry c of the result
    sums the patterns whose key j is +1 exactly where bit j of c is set;
    with no keys the one entry is the total.
    """
    limit = default_cap() if cap is None else cap
    plan = _elimination_plan(tuple(scopes), tuple(keys), limit)
    made: list[np.ndarray | None] = tables() + [np.ones(2)] * plan.unheld
    for step in plan.steps:
        made.append(None if step is None else step.run(made))
    return np.ones(1) if plan.final is None else plan.final.run(made).reshape(-1)


def _prune_barren(g: HierarchyGraph, keep: frozenset[str]) -> tuple[tuple[str, ...], int]:
    """Drop, until none is left, every vertex outside `keep` that has no
    remaining successor.

    Such a vertex is free and untargeted, and its vote factor sums to 1 over
    its own spin, so dropping it leaves every sum over the rest unchanged,
    on cycles too.  A dropped vertex without predecessors carries no factor
    and sums to 2 instead.  Returns the kept vertex ids in graph order and
    the number of those roots.  The kept set is closed under predecessors,
    so weights stay normalized.
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
    roots = sum(1 for v in dropped if not g.pred_map[v])
    return tuple(v for v in g.vertex_ids if v not in dropped), roots


def _odd_response(field, params: VoteParams, out: np.ndarray | None = None):
    """2 P(+1 | field) - 1, an odd function of the field; into `out` if
    given, which may be `field` itself."""
    if params.mode == MODE_TANH:
        return np.tanh(np.multiply(params.gain, field, out), out)
    return _erf(np.divide(field, params.noise_sigma * math.sqrt(2.0), out), out)


def outcome_probability(spin, field, params: VoteParams):
    """P(vertex adopts `spin` | net command field), elementwise on arrays."""
    return 0.5 * (1.0 + _odd_response(np.multiply(spin, field), params))


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


def _vote_tables(fixed: Sequence[float], weights: Sequence[float], n_free: int,
                 params: VoteParams) -> np.ndarray:
    """Vote tables of vertices with `n_free` summed predecessors each:
    entry [s, r] is row r's P(-1) (s = 0) or P(+1) (s = 1) at every pattern
    of those predecessors, pattern bit j set where the row's predecessor j
    is +1.

    Row r's field starts at ``fixed[r]`` and adds -w or +w per predecessor,
    in the order of its `n_free` entries of `weights` (row-major), doubling
    once per predecessor; one response call covers every row.  All of it
    happens in place in one array, the fields in its P(+1) half, which is
    contiguous, so small tables pay little per numpy call.
    """
    half = 1 << n_free
    probs = np.empty((2, len(fixed), half))
    field = probs[1]
    field[:, 0] = fixed
    w = np.array(weights).reshape(len(fixed), n_free)
    for j in range(n_free):
        low, high, step = field[:, :1 << j], field[:, 1 << j:2 << j], w[:, j:j + 1]
        np.add(low, step, high)
        np.subtract(low, step, low)
    np.multiply(field, params.command_scale, field)
    odd = _odd_response(field, params, field)
    np.subtract(1.0, odd, probs[0])
    np.add(odd, 1.0, odd)
    np.multiply(probs, 0.5, probs)
    return probs


def _vote_sum(g: HierarchyGraph, kept: Sequence[str], condition: Mapping[str, int],
              params: VoteParams, keys: Sequence[str] = (),
              cap: int | None = None) -> np.ndarray:
    """Summed vote weight over every pattern of the kept vertices outside
    the condition, per pattern of `keys` (see `_sum_product`).

    Each kept vertex with predecessors contributes its vote factor, a table
    over its free spin and its free predecessors' spins, with the
    conditioned vertices holding their fixed spins.  Factors with the same
    number of free predecessors are built together by `_vote_tables`.
    """
    scopes: list[tuple[str, ...]] = []
    # free predecessors -> (factor ids, vertices, fixed fields, free weights)
    groups: dict[int, tuple[list[int], list[str], list[float], list[float]]] = {}
    for v in kept:
        preds = g.pred_map[v]
        if not preds:
            continue
        fixed = 0.0
        free, weights = [], []
        for u, w in preds:
            if u in condition:
                fixed += w * condition[u]
            else:
                free.append(u)
                weights.append(w)
        group = groups.get(len(free))
        if group is None:
            group = groups[len(free)] = ([], [], [], [])
        group[0].append(len(scopes))
        group[1].append(v)
        group[2].append(fixed)
        group[3].extend(weights)
        # the last predecessor doubled is the slowest-varying axis
        scopes.append(((v,) if v not in condition else ()) + tuple(reversed(free)))

    def tables() -> list[np.ndarray]:
        out: list = [None] * len(scopes)
        for n_free, (ids, names, fixed, weights) in groups.items():
            probs = _vote_tables(fixed, weights, n_free, params)
            for f, v, row in zip(ids, names, probs.transpose(1, 0, 2)):
                if v in condition:
                    row = row[1] if condition[v] == 1 else row[0]
                out[f] = row.reshape((2,) * len(scopes[f]))
        return out

    return _sum_product(scopes, tables, keys, cap)


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
    Barren vertices are pruned first (see `_prune_barren`) and the rest is
    summed by variable elimination, whose cap bounds log2 of the largest
    table one step sums over (see `_sum_product`).
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
    sums = _vote_sum(g, kept, work, params, b_order, cap)
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
    graphs it is a genuine normalizer with no closed form.  Pruning, the
    sum and the cap are those of `conditional_influence`.
    """
    a = frozenset(a)
    for v in a:
        g.require_vertex(v)
    _validate_assignment(condition, a, "condition")
    kept, roots = _prune_barren(g, a)
    return float(_vote_sum(g, kept, condition, params, (), cap)[0]) * 2.0 ** roots


def sample_many(g: HierarchyGraph, condition: Mapping[str, int],
                params: VoteParams, n: int, seed: int) -> dict[str, np.ndarray]:
    """Draw `n` independent full spin assignments by ancestral sampling.

    Requires an acyclic graph conditioned on exactly the decider set, and
    at most MAX_SAMPLE_SPINS draws times vertices.  In topological order,
    each vertex with predecessors draws one uniform per draw and is +1
    where it falls below P(+1 | predecessors), read from the vertex's
    table over predecessor patterns (`_vote_tables`) or, where that table
    would take more bytes to build than the `n` spins, from the field of
    each draw.  Both sum -w or +w per predecessor in order from 0.0, so a
    seed gives the same draws either way.  Returns an int8 array of +-1
    per vertex, one byte per vertex per draw; deterministic in `seed`.
    """
    order = g.topological_order
    if order is None:
        raise CyclicGraphError("forward sampling needs an acyclic hierarchy")
    lam = deciders(g)
    _validate_assignment(condition, lam, "condition")
    if n < 1:
        raise ValueError("need at least one sample")
    if n * len(g.vertices) > MAX_SAMPLE_SPINS:
        raise ValueError(f"{n} draws over {len(g.vertices)} vertices hold more than "
                         f"{MAX_SAMPLE_SPINS} spins, the sampling limit")

    # fan-in k -> weights of the vertices tabled, in order: those whose
    # table, about eight arrays of 2^k floats while built, fits in their n
    # spins.  Deciders stay predecessors: a fixed field would reorder sums.
    groups: dict[int, list[float]] = {}
    for v in order:
        preds = g.pred_map[v]
        if preds and 64 << len(preds) <= n:
            groups.setdefault(len(preds), []).extend(w for _, w in preds)
    # P(+1) halves only, handed out in topological order
    tables = {k: iter(_vote_tables([0.0] * (len(w) // k), w, k, params)[1].copy())
              for k, w in groups.items()}

    rng = np.random.default_rng(seed)
    # each vertex's +1 mask as 0/1 bytes (the code of fan-in 1), turned
    # into its spins at the end, in blocks of at most 64 KiB: one block for
    # every vertex would, once freed, raise the C allocator's mmap
    # threshold, and later calls would keep that much memory resident
    per_block = max(1, (1 << 16) // n)
    blocks = [np.empty((min(per_block, len(order) - i), n), dtype=bool)
              for i in range(0, len(order), per_block)]
    bits: dict[str, np.ndarray] = {}
    for v, mask in zip(order, (row for block in blocks for row in block)):
        bits[v] = mask.view(np.uint8)
        preds = g.pred_map[v]
        if not preds:
            mask.fill(condition[v] == 1)
            continue
        fan_in_tables = tables.get(len(preds))
        if fan_in_tables is None:
            field = np.zeros(n)
            for u, w in preds:
                field += np.array((-w, w)).take(bits[u])  # w times the spin
            p = outcome_probability(1, params.command_scale * field, params)
        else:
            table = next(fan_in_tables)
            code = bits[preds[0][0]]
            wide = np.min_scalar_type(len(table) - 1)
            for j, (u, _) in enumerate(preds[1:], 1):
                code = np.left_shift(bits[u], j, dtype=wide) | code
            p = table.take(code)
        np.less(rng.random(n), p, out=mask)
    for block in blocks:
        spins = block.view(np.int8)
        spins *= 2
        spins -= 1
    bits.update(zip(order, (row for block in blocks for row in block.view(np.int8))))
    return bits


def sample_outcome(g: HierarchyGraph, condition: Mapping[str, int],
                   params: VoteParams, seed: int) -> dict[str, int]:
    """One full spin assignment drawn by ancestral sampling."""
    draws = sample_many(g, condition, params, 1, seed)
    return {v: int(arr[0]) for v, arr in draws.items()}


def influence_oracle(g: HierarchyGraph, params: VoteParams,
                     cap: int | None = None) -> Callable[[str, Mapping[str, int]], float]:
    """Callable (executive, commands) -> P(executive votes +1 | commands),
    with commands giving one spin per decider.

    Results are cached by the sign-canonical command vector, the one whose
    first decider says +1: P(+1 | -commands) is the canonical
    distribution's P(-1), bit for bit what `conditional_influence` gives
    for the flipped commands.
    """
    lam = deciders(g)
    cache: dict[tuple[str, tuple[tuple[str, int], ...]], ConditionalDistribution] = {}

    def oracle(executive: str, commands: Mapping[str, int]) -> float:
        flipped = bool(commands) and commands[min(commands)] == -1
        canonical = {v: -s for v, s in commands.items()} if flipped else dict(commands)
        key = (executive, tuple(sorted(canonical.items())))
        if key not in cache:
            cache[key] = conditional_influence(g, lam, {executive}, canonical, params, cap)
        return cache[key].prob({executive: -1 if flipped else 1})

    return oracle
