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
import threading
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .broadcast import _Broadcast, _broadcast_step
from .errors import CyclicGraphError, EnumerationCapError
from .graph import HierarchyGraph, deciders

MODE_TANH = "tanh"
MODE_GAUSSIAN = "gaussian"

DEFAULT_CAP = 22
# draws times vertices that a sampler call may draw, whatever it reports
MAX_SAMPLE_SPINS = 10**8

# products that cost about as much as one einsum call: cheaper steps are joined
_FUSE_PRODUCTS = 1 << 9
# elimination plans kept for reuse, one per factor scopes, keys and cap; also
# the query layouts each graph or coupling model keeps
_PLAN_CACHE = 64
# steps spanning at least this many spins are wide: their tables are
# multiplied pairwise by broadcasting, which beats one einsum call there
# and loses to it on smaller steps
_PAIRWISE_SPINS = 12
# fan-in groups with at most this many free predecessors are narrow: one
# numpy program builds all their vote tables; on wider groups such a
# program holds too much and runs slower than a call per group
_NARROW_FAN_IN = 3
# a sampler call that draws fewer uniforms than this fills them inline: a
# helper thread's start and join cost about as much as filling that many
_HELPER_UNIFORMS = 1 << 18
# a helper thread fills uniforms ahead of the sampler into a ring of this
# many chunks of at most _CHUNK_ROWS rows each: 128 bytes per draw in all
_RING_SLOTS = 4
_CHUNK_ROWS = 4
# a helper thread pays only on a CPU of its own.  The sampler stops its
# helper for the rest of a call once it has waited _PARALLEL_CHECK for one
# chunk, as for a helper that lags.  Once per call, after 10
# _PARALLEL_CHECK, it also stops it if it has been on a CPU for less than
# _PARALLEL_SHARE of the time it was ready to run.  At that point, on an
# idle two-vCPU VM, 338 of 340 calls read 0.75-1 (median 1); with a
# spinning process on the second vCPU, 266 of 269 read 0.46-0.73 (median
# 0.62), and there filling inline is as fast.  Later calls then fill inline for
# _SHARED_CPU_REST seconds, doubled for each call in a row that found the
# CPU busy, up to 16 times
_PARALLEL_CHECK = 2e-3
_PARALLEL_SHARE = 0.75
_SHARED_CPU_REST = 0.25
_shared_cpu_until = 0.0  # perf_counter time until which calls fill inline
_shared_cpu_doublings = 0  # of the next rest, at most 4
# the sampler tables a vertex whose P(+1) table takes at most this many
# bytes to build (fan-in up to 3) at any number of draws: at few draws such
# a table costs less than the vertex's per-draw field
_SMALL_TABLE_BYTES = 512
# a per-draw field is summed predecessor by predecessor from +-1 spin rows,
# the latest _SIGNED_ROWS of them kept for later vertices
_SIGNED_ROWS = 64

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# ufunc operands: on arrays of a few entries a call costs about half as
# much with a 0-d array operand as with a Python float
_ONE = np.array(1.0)
_HALF = np.array(0.5)


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
    with no keys the one entry is the total.  A cap of None means
    DEFAULT_CAP; a cap below 1 is a ValueError.
    """
    limit = DEFAULT_CAP if cap is None else cap
    if limit < 1:
        raise ValueError(f"the enumeration cap must be at least 1, got {limit}")
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
    # imported here: scipy.special adds about 25 MB to the process, and
    # only the gaussian mode needs it
    from scipy.special import erf
    return erf(np.divide(field, params.noise_sigma * math.sqrt(2.0), out), out)


def outcome_probability(spin, field, params: VoteParams, out: np.ndarray | None = None):
    """P(vertex adopts `spin` | net command field), elementwise on arrays;
    into `out` if given, which may be `field` itself."""
    p = _odd_response(np.multiply(spin, field, out), params, out)
    p += 1.0
    p *= 0.5
    return p


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


def _vote_tables(fixed: Sequence[float], weights: Sequence[float] | np.ndarray, n_free: int,
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
    w = np.asarray(weights).reshape(len(fixed), n_free)
    for j in range(n_free):
        low, high, step = field[:, :1 << j], field[:, 1 << j:2 << j], w[:, j:j + 1]
        np.add(low, step, high)
        np.subtract(low, step, low)
    _respond(field, probs, params)
    return probs


def _respond(field: np.ndarray, probs: np.ndarray, params: VoteParams) -> None:
    """Fill `probs` with P(-1) (``probs[0]``) and P(+1) (``probs[1]``) at
    each `field`, which may be ``probs[1]`` and is overwritten: scale,
    response, then ``(1 -+ odd) / 2``."""
    np.multiply(field, params.command_scale, field)
    odd = _odd_response(field, params, field)
    np.subtract(_ONE, odd, probs[0])
    np.add(odd, _ONE, probs[1])
    np.multiply(probs, _HALF, probs)


class _FanIn(NamedTuple):
    """The vote factors of one query whose vertices have `n_free` summed
    predecessors each, built together (see `_vote_factors`)."""

    n_free: int
    ids: tuple[int, ...]  # each vertex's factor number
    pinned: tuple[str | None, ...]  # each vertex if it is conditioned, else None
    pulls: tuple[tuple[tuple[str, float], ...], ...]  # its conditioned predecessors
    weights: np.ndarray  # its free predecessors' weights, one row per vertex


class _Narrow(NamedTuple):
    """The table program of a query's narrow groups, those with at most
    _NARROW_FAN_IN free predecessors (see `_vote_factors`).  The groups come
    by falling fan-in, their entries in group, row, pattern order:
    `entry_row` holds each entry's row and `pulls` each row's conditioned
    predecessors.  `steps[j]` holds -w or +w, by bit j of the pattern, for
    the leading entries, those whose row has a free predecessor j of weight
    w.  `ends` holds where each group's entries end."""

    groups: tuple[_FanIn, ...]
    pulls: tuple[tuple[tuple[str, float], ...], ...]
    entry_row: np.ndarray
    steps: tuple[np.ndarray, ...]
    ends: tuple[int, ...]


def _narrow_program(groups: list[_FanIn]) -> _Narrow:
    groups = sorted(groups, key=lambda group: -group.n_free)
    rows = np.cumsum([0] + [len(group.ids) for group in groups])
    entry_row, ends = [np.zeros(0, np.intp)], [0]
    steps: list[list[np.ndarray]] = [[] for _ in range(groups[0].n_free if groups else 0)]
    for k, group in enumerate(groups):
        patterns = np.arange(1 << group.n_free)
        entry_row.append(np.repeat(np.arange(rows[k], rows[k + 1]), len(patterns)))
        ends.append(ends[-1] + len(entry_row[-1]))
        for j in range(group.n_free):
            w = group.weights[:, j:j + 1]
            steps[j].append(np.concatenate((-w, w), axis=1)[:, (patterns >> j) & 1].ravel())
    return _Narrow(tuple(groups), tuple(pulls for group in groups for pulls in group.pulls),
                   np.concatenate(entry_row), tuple(map(np.concatenate, steps)), tuple(ends[1:]))


class _VoteLayout(NamedTuple):
    """What an exact vote query on one graph takes from the conditioned set
    A and the targets B alone, never from the condition's spins or the vote
    parameters (see `_vote_layout`): factor scopes, fan-in groups, the
    narrow groups' entry rows and step weights, and the result's keys."""

    roots: int  # pruned vertices without predecessors, each summing to 2
    scopes: tuple[tuple[str, ...], ...]
    narrow: _Narrow
    wide: tuple[_FanIn, ...]  # groups above _NARROW_FAN_IN free predecessors
    targets: tuple[str, ...]  # B sorted: the result's keys
    grid: tuple[tuple[int, ...], ...]  # the target spins of each result entry
    notes: tuple[str, ...]


def _vote_layout(g: HierarchyGraph, a: frozenset[str], b: frozenset[str]) -> _VoteLayout:
    """The layout of query (A, B) on `g`, built once and kept in
    `g.query_layouts`, which holds at most _PLAN_CACHE layouts and drops the
    oldest first.

    Building it checks that A and B are disjoint sets of vertices of `g`,
    prunes the barren vertices (see `_prune_barren`) and gives each kept
    vertex with predecessors a vote factor: a table over its free spin and
    its free predecessors' spins, the conditioned ones pulling with fixed
    spins.  Factors with the same number of free predecessors form a group.
    The narrow groups' table program (see `_Narrow`) holds k 2^k entries
    per row of fan-in k; the wide groups' tables, exponential in their
    fan-in, are left to the sum, which checks the cap first.
    """
    layouts = g.query_layouts
    layout = layouts.get((a, b))
    if layout is not None:
        return layout
    for v in a | b:
        g.require_vertex(v)
    if a & b:
        raise ValueError("conditioned and target sets must be disjoint")
    kept, roots = _prune_barren(g, a | b)
    scopes: list[tuple[str, ...]] = []
    # free predecessors -> (factor ids, pinned vertices, pulls, free weights)
    groups: dict[int, tuple[list, list, list, list[float]]] = {}
    for v in kept:
        preds = g.pred_map[v]
        if not preds:
            continue
        pulls, free, weights = [], [], []
        for u, w in preds:
            if u in a:
                pulls.append((u, w))
            else:
                free.append(u)
                weights.append(w)
        group = groups.get(len(free))
        if group is None:
            group = groups[len(free)] = ([], [], [], [])
        group[0].append(len(scopes))
        group[1].append(v if v in a else None)
        group[2].append(tuple(pulls))
        group[3].extend(weights)
        # the last predecessor doubled is the slowest-varying axis
        scopes.append(((v,) if v not in a else ()) + tuple(reversed(free)))
    notes: tuple[str, ...] = ()
    if g.topological_order is not None and not a >= deciders(g):
        notes = ("mid-graph conditioning: condition set does not cover all deciders",)
    grid = tuple(tuple(1 if (code >> j) & 1 else -1 for j in range(len(b)))
                 for code in range(1 << len(b)))
    fan_ins = [_FanIn(n, tuple(ids), tuple(pinned), tuple(pulls),
                      np.array(weights).reshape(len(ids), n))
               for n, (ids, pinned, pulls, weights) in groups.items()]
    layout = _VoteLayout(
        roots, tuple(scopes),
        _narrow_program([group for group in fan_ins if group.n_free <= _NARROW_FAN_IN]),
        tuple(group for group in fan_ins if group.n_free > _NARROW_FAN_IN),
        tuple(sorted(b)), grid, notes)
    if len(layouts) >= _PLAN_CACHE:
        del layouts[next(iter(layouts))]
    layouts[(a, b)] = layout
    return layout


def _vote_factors(layout: _VoteLayout, condition: Mapping[str, int],
                  params: VoteParams) -> list[np.ndarray]:
    """The vote factors of the layout's query, in factor order.

    A vertex's fixed field adds the pull of each conditioned predecessor,
    weight times spin, in predecessor order from 0.0.  The narrow program
    (see `_Narrow`) gives every entry its row's fixed field, adds step j
    into the leading entries, and runs one scale and response pass; each
    wide group calls `_vote_tables`.  Either way an entry sees the same
    float operations in the same order (x - w and x + -w round alike), and
    each group's tables get an array of their own, so every factor has the
    shape and strides `_vote_tables` gives it and einsum sums it in the
    same order.  A conditioned vertex keeps the half of its own spin.
    """

    def fixed_fields(rows: tuple) -> list[float]:
        fixed = []
        for pulls in rows:
            field = 0.0
            for u, w in pulls:
                field += w * condition[u]
            fixed.append(field)
        return fixed

    out: list = [None] * len(layout.scopes)

    def hand_out(group: _FanIn, probs: np.ndarray) -> None:
        probs = probs.reshape((2, len(group.ids)) + (2,) * group.n_free)
        for r, (f, v) in enumerate(zip(group.ids, group.pinned)):
            out[f] = probs[:, r] if v is None else probs[1 if condition[v] == 1 else 0, r]

    narrow = layout.narrow
    if narrow.groups:
        field = np.array(fixed_fields(narrow.pulls))[narrow.entry_row]
        for step in narrow.steps:
            head = field[:len(step)]
            np.add(head, step, head)
        probs = np.empty((2, len(field)))
        _respond(field, probs, params)
        for group, start, end in zip(narrow.groups, (0,) + narrow.ends, narrow.ends):
            hand_out(group, probs[:, start:end].copy())
    for group in layout.wide:
        hand_out(group, _vote_tables(fixed_fields(group.pulls), group.weights,
                                     group.n_free, params))
    return out


def _vote_sum(layout: _VoteLayout, condition: Mapping[str, int], params: VoteParams,
              cap: int | None = None) -> np.ndarray:
    """Summed vote weight over every pattern of the kept vertices outside
    the condition, per pattern of the layout's targets (see `_sum_product`),
    the factors (see `_vote_factors`) built once the plan fits the cap."""
    return _sum_product(layout.scopes, lambda: _vote_factors(layout, condition, params),
                        layout.targets, cap)


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
    table one step sums over (see `_sum_product`).  The structure of the
    query is built once per graph and (A, B) (see `_vote_layout`).
    """
    a = frozenset(a)
    b = frozenset(b)
    layout = _vote_layout(g, a, b)
    if not b:
        raise ValueError("target set is empty")
    _validate_assignment(condition, a, "condition")

    # A configuration and its global spin flip carry bitwise-identical weight
    # (the response functions are odd), so evaluating under a sign-canonical
    # condition and relabeling keeps P(tau|sigma) == P(-tau|-sigma) exact.
    flipped = bool(a) and condition[min(a)] == -1
    work = {v: -s for v, s in condition.items()} if flipped else condition

    sums = _vote_sum(layout, work, params, cap)
    z = float(sums.sum())
    # entry c and entry 2^|B| - 1 - c hold opposite target patterns
    if flipped:
        sums = sums[::-1]
    elif not a:
        sums = 0.5 * (sums + sums[::-1])
    if z <= 0.0:
        raise ValueError("conditional distribution has zero total weight")
    table = dict(zip(layout.grid, (sums / z).tolist()))
    return ConditionalDistribution(dict(condition), layout.targets, table,
                                   z * 2.0 ** layout.roots, layout.notes)


def partition_function(g: HierarchyGraph, a: frozenset[str] | set[str],
                       condition: Mapping[str, int], params: VoteParams,
                       cap: int | None = None) -> float:
    """Total weight of all configurations compatible with the condition.

    Equals exactly 1 on an acyclic graph conditioned on all deciders, and
    2**(number of free deciders) when some deciders are left free; on cyclic
    graphs it is a genuine normalizer with no closed form.  Pruning, the
    sum, the cap and the reuse of structure are those of
    `conditional_influence`, with no targets.
    """
    a = frozenset(a)
    layout = _vote_layout(g, a, frozenset())
    _validate_assignment(condition, a, "condition")
    return float(_vote_sum(layout, condition, params, cap)[0]) * 2.0 ** layout.roots


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _cpu_times() -> tuple[float, float]:
    """(seconds on a CPU, seconds ready to run but waiting for one) of the
    calling thread, as Linux's scheduler counts them; (0.0, 0.0) where the
    system does not report them."""
    try:
        with open("/proc/thread-self/schedstat", "rb") as fh:
            on, queued = fh.read().split()[:2]
        return int(on) * 1e-9, int(queued) * 1e-9
    except (OSError, ValueError):
        return 0.0, 0.0


def _uniform_rows(seed: int, rows: int, n: int) -> Iterator[np.ndarray]:
    """`rows` rows of `n` uniforms: row r holds positions [r n, (r + 1) n)
    of default_rng(seed)'s stream, as r + 1 successive ``random(n)`` calls
    would draw it.  A row is valid until the next one is taken.

    With an integer seed, two usable CPUs and at least _HELPER_UNIFORMS
    uniforms in all, a helper thread fills chunks of rows into a ring of
    _RING_SLOTS reused buffers ahead of the reader, from its own
    default_rng(seed) moved to each chunk's position with `advance`.  Both
    threads claim chunks in order and fill each with one call: while the
    chunk the reader needs is being filled, the reader fills the next
    unclaimed one, so the two share the filling.  The reader stops the
    helper and goes on alone once it has waited _PARALLEL_CHECK for one
    chunk or the helper has died; and, judged once per call, once the
    reader has been on a CPU for less than _PARALLEL_SHARE of the time it
    was ready to run, as when the second CPU is busy, in which case later
    calls fill inline for a while (see `busy`).  The helper is joined when
    the generator finishes or is closed, after at most one more chunk.
    """
    rng = np.random.default_rng(seed)
    if (rows * n < _HELPER_UNIFORMS or _usable_cpus() < 2
            or not isinstance(seed, (int, np.integer))
            or time.perf_counter() < _shared_cpu_until):
        out = np.empty(n)
        for _ in range(rows):
            yield rng.random(out=out)
        return
    per = max(1, min(_CHUNK_ROWS, (1 << 16) // n))
    chunks = -(-rows // per)
    ring = np.empty((_RING_SLOTS, per, n))
    held = [-1] * _RING_SLOTS  # the chunk each slot holds, once it is filled
    claimed = reading = 0  # chunks claimed by either thread; the chunk being read
    stop = helper_gone = False
    cond = threading.Condition()

    def fill(source: list, start: int, out: np.ndarray) -> np.ndarray:
        """`out` from stream position `start` on, drawn from `source`,
        [generator, its stream position]."""
        if start != source[1]:
            source[0].bit_generator.advance(start - source[1])
        source[0].random(out=out)
        source[1] = start + out.size
        return out

    def slot(c: int) -> np.ndarray:
        return ring[c % _RING_SLOTS, :min(per, rows - c * per)]

    def helper() -> None:
        nonlocal claimed, helper_gone
        try:
            own = [np.random.default_rng(seed), 0]
            while True:
                with cond:
                    while not stop and reading + _RING_SLOTS <= claimed < chunks:
                        cond.wait()
                    if stop or claimed == chunks:
                        return
                    c = claimed
                    claimed += 1
                # one call per chunk: a stopped helper is joined once it has
                # filled at most one more chunk
                fill(own, c * per * n, slot(c))
                with cond:
                    held[c % _RING_SLOTS] = c
                    cond.notify()
        finally:
            with cond:
                helper_gone = True
                cond.notify()

    mine = [rng, 0]
    spare = None
    judge_at, start = time.perf_counter() + 10 * _PARALLEL_CHECK, _cpu_times()

    def busy() -> bool:
        """Whether the reader, judged once per call 10 _PARALLEL_CHECK
        after it began, has been on a CPU for less than _PARALLEL_SHARE of
        the time it was ready to run, as when the second CPU is busy and
        the reader, its helper and another thread take turns on two (time
        asleep, waiting for the helper or a lock, counts neither way).  If
        so, later calls fill inline for _SHARED_CPU_REST seconds, doubled
        for each call in a row that found the CPU busy, up to 16 times."""
        global _shared_cpu_until, _shared_cpu_doublings
        nonlocal judge_at
        now = time.perf_counter()
        if now < judge_at:
            return False
        judge_at = math.inf
        on, queued = (b - a for a, b in zip(start, _cpu_times()))
        if on >= _PARALLEL_SHARE * (on + queued):
            _shared_cpu_doublings = 0
            return False
        _shared_cpu_until = now + _SHARED_CPU_REST * 2 ** _shared_cpu_doublings
        _shared_cpu_doublings = min(_shared_cpu_doublings + 1, 4)
        return True

    def take(c: int) -> Iterable[np.ndarray]:
        """The rows of chunk c once it is filled; until then the reader
        fills the next unclaimed chunk with a free slot.  Once the helper
        has died, has kept the reader waiting _PARALLEL_CHECK for chunk c,
        or the CPU is busy (see `busy`), the reader stops it and fills each
        row of a chunk the helper has not finished into a spare row, which
        the helper never writes."""
        nonlocal claimed, reading, stop, spare
        patience = _PARALLEL_CHECK
        while True:
            with cond:
                if reading != c:
                    reading = c  # frees the slot of chunk c - 1
                    cond.notify()
                if not stop and (helper_gone or busy() or patience <= 0.0):
                    stop = True
                    cond.notify()
                if held[c % _RING_SLOTS] == c:
                    return slot(c)
                if stop:
                    break
                if claimed < min(c + _RING_SLOTS, chunks):
                    d = claimed
                    claimed += 1
                else:
                    since = time.perf_counter()
                    cond.wait(patience)
                    patience -= time.perf_counter() - since
                    continue
            fill(mine, d * per * n, slot(d))
            with cond:
                held[d % _RING_SLOTS] = d
        if spare is None:
            spare = np.empty(n)
        return (fill(mine, (c * per + i) * n, spare) for i in range(min(per, rows - c * per)))

    thread = threading.Thread(target=helper, name="hiergame-uniforms", daemon=True)
    thread.start()
    try:
        for c in range(chunks):
            yield from take(c)
    finally:
        with cond:
            stop = True
            cond.notify()
        thread.join()


def _sampled(g: HierarchyGraph, condition: Mapping[str, int], n: int,
             vertices: Iterable[str] | None) -> Iterable[str]:
    """The vertices a sampler call reports (default: every vertex), once
    every check has passed that must pass before anything is drawn."""
    if g.topological_order is None:
        raise CyclicGraphError("forward sampling needs an acyclic hierarchy")
    _validate_assignment(condition, deciders(g), "condition")
    if n < 1:
        raise ValueError("need at least one sample")
    if n * len(g.vertices) > MAX_SAMPLE_SPINS:
        raise ValueError(f"{n} draws over {len(g.vertices)} vertices make more than "
                         f"{MAX_SAMPLE_SPINS} spins, the sampling limit")
    if vertices is None:
        return g.roles.keys()
    keep = frozenset(vertices)
    for v in sorted(keep - g.roles.keys()):
        g.require_vertex(v)
    return keep


def _drawn_masks(g: HierarchyGraph, condition: Mapping[str, int], params: VoteParams,
                 n: int, seed: int, keep: Iterable[str],
                 rows: Iterator[np.ndarray] | None = None) -> Iterator[tuple[str, np.ndarray]]:
    """(vertex, its +1 mask over the `n` draws) for each vertex of `keep`,
    in topological order, right after the vertex has drawn; the arguments
    are those `_sampled` checked.  With `rows`, the vertices of `keep` draw
    into its successive rows, which the caller holds.  Every other mask is
    a row of a pool, handed back once the last of its vertex's successors
    has drawn (at once for a vertex without successors), so it is valid
    only until the next one is yielded.  See `sample_many` for the draws.
    """
    order = g.topological_order
    held = keep if rows is not None else frozenset()
    # fan-in k -> weights of the vertices tabled, in order: those whose
    # table, about eight arrays of 2^k floats while built, fits in their n
    # spins or in _SMALL_TABLE_BYTES.  Deciders stay predecessors: a fixed
    # field would reorder sums.
    groups: dict[int, list[float]] = {}
    fits = max(n, _SMALL_TABLE_BYTES)
    drawing = 0
    for v in order:
        preds = g.pred_map[v]
        if preds:
            drawing += 1
            if 64 << len(preds) <= fits:
                groups.setdefault(len(preds), []).extend([w for _, w in preds])
    # predecessor -> its spins as +-1 bytes, for the per-draw fields summed
    # predecessor by predecessor: at most _SIGNED_ROWS, the oldest dropped
    # first, each also dropped once its vertex's mask is no longer read
    signed: dict[str, np.ndarray] = {}

    # P(+1) halves only, handed out in topological order; fan-in 1 as
    # pairs of floats, P(+1) at predecessor -1 and at +1
    tables = {}
    for k, w in groups.items():
        plus = _vote_tables([0.0] * (len(w) // k), w, k, params)[1].copy()
        flat = memoryview(plus.ravel())
        tables[k] = zip(flat[::2], flat[1::2]) if k == 1 else iter(plus)
    uniforms = _uniform_rows(seed, drawing, n)
    try:
        # `unread` counts the successors yet to draw of each vertex that
        # some successor has read
        pool: list[np.ndarray] = []
        unread: dict[str, int] = {}
        succ_map = g.succ_map
        bits: dict[str, np.ndarray] = {}
        picked = np.empty(n, dtype=bool)
        for v in order:
            if v in held:
                mask = next(rows)
            else:
                mask = pool.pop() if pool else np.empty(n, dtype=bool)
            bits[v] = mask
            preds = g.pred_map[v]
            if not preds:
                mask.fill(condition[v] == 1)
            elif len(preds) not in tables:
                field = np.zeros(n)
                for p, w in preds:
                    s = signed.get(p)
                    if s is None:
                        s = signed[p] = 2 * bits[p].view(np.int8) - 1
                        if len(signed) > _SIGNED_ROWS:
                            del signed[next(iter(signed))]
                    field += w * s
                field *= params.command_scale
                np.less(next(uniforms), outcome_probability(1, field, params, field), out=mask)
            elif len(preds) == 1:
                # +1 below the lower entry, or below the higher one where
                # the predecessor's spin picks it: the entry a gather would
                # pick, bit for bit.  A valid graph's positive weight puts
                # the higher entry at +1.  The entries come from fields -w
                # and +w, so they are both NaN or neither.
                low, high = next(tables[1])
                select = np.logical_and
                if high < low:
                    low, high, select = high, low, np.greater  # picked where -1
                u = next(uniforms)
                np.less(u, low, out=mask)
                np.less(u, high, out=picked)
                select(picked, bits[preds[0][0]], out=picked)
                mask |= picked
            else:
                table = next(tables[len(preds)])
                code = bits[preds[0][0]].view(np.uint8)
                wide = np.min_scalar_type(len(table) - 1)
                for j, (p, _) in enumerate(preds[1:], 1):
                    code = np.left_shift(bits[p].view(np.uint8), j, dtype=wide) | code
                np.less(next(uniforms), table.take(code), out=mask)
            if v in keep:
                yield v, mask
            finished = [] if succ_map[v] else [v]
            for p, _ in preds:
                left = unread.pop(p, len(succ_map[p])) - 1
                if left:
                    unread[p] = left
                else:
                    finished.append(p)
            for p in finished:
                signed.pop(p, None)
                if p not in held:
                    pool.append(bits.pop(p))
    finally:
        uniforms.close()


def sample_many(g: HierarchyGraph, condition: Mapping[str, int],
                params: VoteParams, n: int, seed: int,
                vertices: Iterable[str] | None = None) -> dict[str, np.ndarray]:
    """Draw `n` independent full spin assignments by ancestral sampling
    and return the spins of `vertices` (default: every vertex).

    Requires an acyclic graph conditioned on exactly the decider set, ids
    of the graph in `vertices`, and at most MAX_SAMPLE_SPINS draws times
    vertices, every vertex counted whatever `vertices` holds.  In
    topological order, each vertex with predecessors draws one uniform per
    draw and is +1 where it falls below P(+1 | predecessors): the r-th
    such vertex reads positions [r n, (r + 1) n) of default_rng(seed)'s
    stream.  P(+1) comes
    from the vertex's table over predecessor patterns (`_vote_tables`) or,
    where that table would take more bytes to build than both the `n`
    spins and _SMALL_TABLE_BYTES, from the field of each draw.  Both sum -w
    or +w per predecessor in order from 0.0, so a seed gives the same draws
    either way; a vertex with one predecessor compares each uniform with
    both entries of its table and keeps the one its predecessor's spin picks.

    The uniforms may be filled by a second thread (see `_uniform_rows`);
    it runs only with two usable CPUs and an integer seed, when the call
    draws at least _HELPER_UNIFORMS of them and no recent call found the
    second CPU busy, and the draws of a seed are the same either way.  On
    two idle CPUs it fills whole chunks beside the draws: on a two-vCPU VM,
    a 1e5-draw call on a 100-vertex arborescence took about 36 ms with it
    and 61 ms without.

    Returns {vertex: int8 array of its +-1 spins} for `vertices`, in
    topological order; deterministic in `seed`, and each array the same
    whatever else `vertices` holds.  Besides the returned spins, one byte
    per vertex per draw, the call holds one bool row per vertex that a
    later vertex still reads, so memory grows with the width of the
    topological order, not with the number of vertices.  Where only the
    number of +1 draws is wanted, `sample_counts` gives it without
    holding the returned spins.
    """
    keep = _sampled(g, condition, n, vertices)
    # each returned vertex's +1 mask, turned into its spins at the end, in
    # blocks of at most 64 KiB: one block for every vertex would, once
    # freed, raise the C allocator's mmap threshold, and later calls would
    # keep that much memory resident
    kept = [v for v in g.topological_order if v in keep]
    per_block = max(1, (1 << 16) // n)
    blocks = [np.empty((min(per_block, len(kept) - i), n), dtype=bool)
              for i in range(0, len(kept), per_block)]
    rows = (row for block in blocks for row in block)
    for _ in _drawn_masks(g, condition, params, n, seed, keep, rows):
        pass
    for block in blocks:
        spins = block.view(np.int8)
        spins *= 2
        spins -= 1
    return dict(zip(kept, (row for block in blocks for row in block.view(np.int8))))


def sample_counts(g: HierarchyGraph, condition: Mapping[str, int],
                  params: VoteParams, n: int, seed: int,
                  vertices: Iterable[str] | None = None) -> dict[str, int]:
    """{vertex: how many of the `n` draws put it at +1} for `vertices`
    (default: every vertex), in topological order.

    The draws, their requirements and their refusals are those of
    `sample_many` with the same arguments, so each count equals
    ``np.count_nonzero(sample_many(...)[v] == 1)``.  Each vertex's draws
    are counted as soon as they are drawn, so the call holds only the bool
    rows that a later vertex still reads and the uniforms being read, not
    one byte per draw of each vertex asked for.
    """
    keep = _sampled(g, condition, n, vertices)
    return {v: int(np.count_nonzero(mask))
            for v, mask in _drawn_masks(g, condition, params, n, seed, keep)}


def influence_table(g: HierarchyGraph, params: VoteParams, lam: Sequence[str],
                    execs: Sequence[str],
                    cap: int | None = None) -> dict[tuple[int, ...], np.ndarray]:
    """{command pattern over the deciders `lam`: P(+1) of each of `execs`,
    in order}, the patterns in ``product((1, -1), repeat=len(lam))`` order.

    One conditional per executive and sign-canonical pattern, the one whose
    first decider says +1: its P(-1) is the mirrored pattern's P(+1), bit
    for bit what `conditional_influence` gives for the mirrored commands.
    """
    lam = tuple(lam)
    patterns = list(product((1, -1), repeat=len(lam)))
    table = {pattern: np.empty(len(execs)) for pattern in patterns}
    for pattern in patterns[:(len(patterns) + 1) // 2]:
        condition = dict(zip(lam, pattern))
        plus, mirror = table[pattern], table[tuple(-s for s in pattern)]
        for k, i in enumerate(execs):
            probs = conditional_influence(g, lam, {i}, condition, params, cap).table
            # () is its own mirror: its P(+1) is written last
            mirror[k] = probs[(-1,)]
            plus[k] = probs[(1,)]
    return table
