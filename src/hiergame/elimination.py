"""The exact sum-product kernel, by variable elimination, that both
semantics' front ends (`vote`, `ising`) hand their factor tables to: the
elimination plan and its cache, both step kinds (einsum calls and the
tiled broadcasts of wide steps), the enumeration cap, and the two rules
the front ends share, the layout store (`stored_in`) and the fixed field
of a row of pulls (`fixed_fields`).  Every sum runs on the calling thread.
"""

from __future__ import annotations

import functools
import heapq
import string
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EnumerationCapError

DEFAULT_CAP = 22

# products that cost about as much as one einsum call: cheaper steps are joined
_FUSE_PRODUCTS = 1 << 9
# elimination plans kept for reuse, one per factor scopes, keys and cap; also
# the query layouts each graph or coupling model keeps (see `stored_in`)
_PLAN_CACHE = 64
# steps spanning at least this many spins are wide: their tables are
# multiplied pairwise by broadcasting, which beats one einsum call there
# and loses to it on smaller steps
_PAIRWISE_SPINS = 12
# a wide step's product is tiled where numpy's inner loop over its plain
# broadcast would span fewer than _TILE_RUN labels (2^4 entries): both
# operands then present the step's last t <= _TILE_MAX labels as one axis,
# if the copies this takes hold at most _TILE_COPY times the product's
# entries.  Timed one at a time on a 2-core Xeon VM, the dense-exact
# workload's 495 products took 1.42 times as long untiled, and 7% longer
# at _TILE_MAX = 9 (more copying)
_TILE_RUN = 4
_TILE_MAX = 5
_TILE_COPY = 1.5
# einsum's letters for sublist labels 0, 1, ...
_LETTERS = string.ascii_uppercase + string.ascii_lowercase


def _check_cap(width: int, limit: int) -> None:
    if width > limit:
        raise EnumerationCapError(
            f"exact sum needs a table over {width} spins, above the enumeration cap {limit}"
        )


class _Einsum(NamedTuple):
    """A narrow step: one plain einsum call.  Like `_Broadcast.run`, `run`
    takes every table made so far and frees the ones it consumes.

    `subscripts` spells the step's label sublists, one per input and then
    the output's, as einsum's own reading of sublists does (`_LETTERS`),
    so the call is the sublist call's, compiled once."""

    inputs: tuple[int, ...]
    subscripts: str

    def run(self, made: list[np.ndarray | None]) -> np.ndarray:
        operands = [made[f] for f in self.inputs]
        for f in self.inputs:
            made[f] = None
        return np.einsum(self.subscripts, *operands, optimize=False)


def _subscripts(sublists: Iterable[tuple[int, ...]], out: tuple[int, ...]) -> str:
    def spell(labels: tuple[int, ...]) -> str:
        return "".join(_LETTERS[k] for k in labels)
    return ",".join(map(spell, sublists)) + "->" + spell(out)


class _Broadcast(NamedTuple):
    """A wide step: a fixed numpy program of broadcast multiplies and adds.

    Each input is transposed into the plan's label order (see
    `_elimination_plan`) and indexed to broadcast over every label of the
    step (`views`: axis permutation, index, halves to add).  `products`
    then multiplies operand j into operand i, in C order, and drops j.  A
    product whose plain broadcast would loop over a few entries at a time
    is tiled (`tile`: t and the product's shape, else None): each operand
    presents the step's last t labels as one contiguous axis (see
    `_tiled`), and the product is written into a C-order array of the full
    width.  The same entries are multiplied either way, so the results are
    bitwise those of the plain broadcast.  Each label that no other operand
    holds and the output does not is summed as soon as that holds, by
    adding its two halves and keeping a length-1 axis; on a length-2 axis
    that is far faster than `sum`.  What is left, of length 1 on each
    summed label, has the output's spins in label order.
    """

    inputs: tuple[int, ...]
    views: tuple[tuple[tuple[int, ...], tuple, tuple], ...]
    products: tuple[tuple[int, int, tuple[int, tuple[int, ...]] | None, tuple], ...]
    shape: tuple[int, ...]

    def run(self, made: list[np.ndarray | None]) -> np.ndarray:
        """The step's table from every table made so far, freeing the ones
        it consumes."""
        operands = [made[f].transpose(perm)[index]
                    for f, (perm, index, _) in zip(self.inputs, self.views)]
        for f in self.inputs:
            made[f] = None
        for k, (_, _, halves) in enumerate(self.views):
            operands[k] = _add_halves(operands[k], halves)
        for i, j, tile, halves in self.products:
            operands[i] = _add_halves(_product(operands[i], operands.pop(j), tile), halves)
        return operands[0].reshape(self.shape)


def _product(a: np.ndarray, b: np.ndarray,
             tile: tuple[int, tuple[int, ...]] | None) -> np.ndarray:
    """a * b in C order, tiled as `tile` says (see `_Broadcast`)."""
    if tile is None:
        return np.multiply(a, b, order="C")
    # the product comes before the copies, which go first: allocated after
    # them, it raised a dense-exact process's peak RSS by about 1.5 MiB
    t, shape = tile
    product = np.empty(shape, a.dtype)
    np.multiply(_tiled(a, t), _tiled(b, t), out=product.reshape(shape[:-t] + (1 << t,)))
    return product


def _tiled(x: np.ndarray, t: int) -> np.ndarray:
    """`x` with its last t axes as one: of length 1 where it holds none of
    those labels, else of 2^t entries in C order, which reshaping copies
    only where `x` does not already hold them so."""
    head, tail = x.shape[:-t], x.shape[-t:]
    if tail == (1,) * t:
        return x.reshape(head + (1,))
    if tail != (2,) * t:
        full = np.empty(head + (2,) * t, x.dtype)
        np.copyto(full, x)
        x = full
    return x.reshape(head + (1 << t,))


def _add_halves(x: np.ndarray, halves: tuple) -> np.ndarray:
    """`x` with the label of each (low, high) slice pair summed in turn."""
    for low, high in halves:
        x = np.add(x[low], x[high])
    return x


def _broadcast_step(inputs: tuple[int, ...], sublists: list[tuple[int, ...]],
                    out: tuple[int, ...], width: int) -> _Broadcast:
    """Compile a wide step over labels 0..width-1 onto the sorted `out`
    labels: the pair of operands with the smallest union of labels is
    multiplied first, and every label is summed as soon as one operand
    alone holds it.  `_tile` decides which products to tile."""
    held = [set(sublist) for sublist in sublists]

    def summed(k: int) -> tuple:
        others = set(out).union(*(h for i, h in enumerate(held) if i != k))
        gone = sorted(held[k] - others)
        held[k].difference_update(gone)
        return tuple(((slice(None),) * label + (slice(0, 1),),
                      (slice(None),) * label + (slice(1, 2),)) for label in gone)

    views = []
    loose = []
    for k, sublist in enumerate(sublists):
        perm = tuple(sorted(range(len(sublist)), key=sublist.__getitem__))
        index = tuple(slice(None) if label in held[k] else None for label in range(width))
        halves = summed(k)
        views.append((perm, index, halves))
        # labels perhaps out of contiguous label order: all but the run of
        # last axes that are the last labels in order, less the first axis
        # (perhaps strided) unless a summed label made the input a new array
        kept = [label for label in sublist if label in held[k]]
        ranked = sorted(kept)
        ordered = 0
        while ordered < len(kept) - (not halves) and kept[-1 - ordered] == ranked[-1 - ordered]:
            ordered += 1
        loose.append(set(ranked[:len(kept) - ordered]))
    products = []
    while len(held) > 1:
        i, j = min(((i, j) for j in range(len(held)) for i in range(j)),
                   key=lambda pair: (len(held[pair[0]] | held[pair[1]]), pair))
        tile = _tile((held[i], loose[i]), (held[j], loose.pop(j)), width)
        held[i] |= held.pop(j)
        loose[i] = set()
        products.append((i, j, tile, summed(i)))
    return _Broadcast(inputs, tuple(views), tuple(products), (2,) * len(out))


def _tile(a: tuple[set[int], set[int]], b: tuple[set[int], set[int]],
          width: int) -> tuple[int, tuple[int, ...]] | None:
    """None, or (t, the product's shape) to tile the product of operands
    `a` and `b` over the last t of labels 0..width-1 (see _TILE_RUN); each
    operand is (labels held, those perhaps out of contiguous label order).
    numpy's inner loop spans the product's last labels while the same
    operands hold each, in order; t is the largest that fits the rule."""
    union = a[0] | b[0]
    labels = sorted(union, reverse=True)
    kinds = [(label in a[0], label in b[0]) for label in labels]
    run = 0
    while (run < len(labels) and kinds[run] == kinds[0]
           and labels[run] not in a[1] and labels[run] not in b[1]):
        run += 1
    if run >= _TILE_RUN:
        return None
    best = None
    for t in range(run + 1, _TILE_MAX + 1):
        tail = set(range(width - t, width))
        if not tail <= union:
            break
        copied = sum(1 << len(held | tail) for held, loose in (a, b)
                     if tail & held and (tail - held or tail & loose))
        if copied <= _TILE_COPY * (1 << len(union)):
            best = t
    return None if best is None else (best, tuple(2 if label in union else 1
                                                   for label in range(width)))


class _Plan(NamedTuple):
    """How `sum_product` sums one list of factor scopes.

    Tables are numbered as `sum_product` receives them, then one all-ones
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
            return _Einsum(tuple(inputs), _subscripts(sublists, out_labels))
        return _broadcast_step(tuple(inputs), sublists, out_labels, len(spins))

    compiled = tuple(map(compile_step, steps + [final]))
    return _Plan(len(unheld), compiled[:-1], compiled[-1])


def sum_product(scopes: Sequence[tuple[str, ...]],
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
    DEFAULT_CAP; a cap below 1 is a ValueError.  The sum runs on the
    calling thread and starts none.
    """
    limit = DEFAULT_CAP if cap is None else cap
    if limit < 1:
        raise ValueError(f"the enumeration cap must be at least 1, got {limit}")
    plan = _elimination_plan(tuple(scopes), tuple(keys), limit)
    made = tables()
    if plan.unheld:
        made += [np.ones(2)] * plan.unheld
    for step in plan.steps:
        made.append(None if step is None else step.run(made))
    return np.ones(1) if plan.final is None else plan.final.run(made).reshape(-1)


def stored_in(attr: str) -> Callable[[Callable], Callable]:
    """Decorator: ``build(owner, *key)`` runs once per key, its result kept
    in the dict ``getattr(owner, attr)``, which holds at most _PLAN_CACHE
    results and drops the oldest first."""
    def decorate(build: Callable) -> Callable:
        @functools.wraps(build)
        def stored(owner, *key):
            layouts = getattr(owner, attr)
            layout = layouts.get(key)
            if layout is None:
                layout = build(owner, *key)
                if len(layouts) >= _PLAN_CACHE:
                    del layouts[next(iter(layouts))]
                layouts[key] = layout
            return layout
        return stored
    return decorate


def fixed_fields(rows: Iterable[Iterable[tuple[str, float]]],
                 spins: Mapping[str, int]) -> list[float]:
    """Each row's fixed field: weight times spin per (vertex, weight) pull,
    summed in pull order from 0.0."""
    fields = []
    for pulls in rows:
        field = 0.0
        for u, w in pulls:
            field += w * spins[u]
        fields.append(field)
    return fields
