"""The exact sum-product kernel, by variable elimination, that both
semantics' front ends (`vote`, `ising`) hand their factor tables to: the
elimination plan and its cache, both step kinds (einsum calls and the
tiled broadcasts of wide steps), the enumeration cap, and the two rules
the front ends share, the layout store (`stored_in`) and the fixed field
of a row of pulls (`fixed_fields`), and the count of usable CPUs
(`usable_cpus`) by which the sums and the sampler decide whether to
start a helper thread.
"""

from __future__ import annotations

import functools
import heapq
import os
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
# a wide step spanning at least this many spins runs as two parts, one per
# value of its first kept spin, the second on a helper thread when two CPUs
# are usable.  In dense-exact runs on a 2-vCPU Xeon VM, splitting from 17
# spins cut the p90 latency by 13% and raised the median by 8%; from 16
# spins the median rose 12%, and from 18 spins, where the 17-spin steps of
# the cycles stay whole, the p90 rose too.  A thread start costs 0.1-0.2 ms
_SPLIT_SPINS = 17
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
    that is far faster than `sum`.  What is left, of shape `result` (a
    length per label), has the output's spins in label order.

    A step of _SPLIT_SPINS or more spins with `parts` runs those instead:
    the same program on the half of the entries where the first kept label
    is -1, and on the half where it is +1.  Each part views the inputs
    that hold that label at one index, shares the others, and writes into
    its half of the output, which is allocated once.  In a part, a product
    that sums a label is made from the operands' halves on that label, and
    the two products are added (see `program`): the same sums in half the
    memory.  Every entry gets the same float operations in the same order,
    so the output is bitwise the whole program's.  The sum's helper thread
    may run the second part (see `_Helper`).  A step has no parts when it
    keeps no spin or a tile would span a label that a part cuts.
    """

    inputs: tuple[int, ...]
    views: tuple[tuple[tuple[int, ...], tuple, tuple], ...]
    products: tuple[tuple[int, int, tuple[int, tuple[int, ...]] | None, tuple], ...]
    shape: tuple[int, ...]
    result: tuple[int, ...]
    parts: tuple[_Broadcast, _Broadcast] | None

    def run(self, made: list[np.ndarray | None]) -> np.ndarray:
        """The step's table from every table made so far, freeing the ones
        it consumes; `made` is a `_Made` when the step runs in parts."""
        parts = self.parts if len(self.views[0][1]) >= _SPLIT_SPINS else None
        operands = [[made[f].transpose(perm)[index]
                     for f, (perm, index, _) in zip(self.inputs, program.views)]
                    for program in parts or (self,)]
        for f in self.inputs:
            made[f] = None
        if parts is None:
            return self.program(operands[0]).reshape(self.shape)
        out = np.empty(self.shape)
        first, second = operands
        made.helper.split(lambda: parts[0].program(first, out[0]),
                          lambda: parts[1].program(second, out[1]))
        return out

    def program(self, operands: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
        """The program on `operands`, the inputs as `views` picks them
        (transposed and indexed), which it consumes in place.  A part runs
        with `out`, its half of the output, and writes its result there."""
        into = None if out is None else out.reshape(self.result)
        for k, (_, _, halves) in enumerate(self.views):
            operands[k] = _add_halves(operands[k], halves, None if self.products else into)
        last = len(self.products) - 1
        for k, (i, j, tile, halves) in enumerate(self.products):
            dest = into if k == last else None
            a, b = operands[i], operands.pop(j)
            if out is None or not halves:
                operands[i] = _add_halves(_product(a, b, tile, None if halves else dest),
                                          halves, dest)
                continue
            # in a part, the first label summed here is summed as the product
            # is made, from the products of the operands' halves: the sums
            # that adding the product's halves makes, in half its memory
            (low, high), rest = halves[0], halves[1:]
            x = _product(_pick(a, low), _pick(b, low), tile, None if rest else dest)
            np.add(x, _product(_pick(a, high), _pick(b, high), tile), out=x)
            operands[i] = _add_halves(x, rest, dest)
        if into is not None and operands[0] is not into:  # nothing summed or multiplied
            np.copyto(into, operands[0])
        return operands[0]


class _Made(list):
    """The tables of one sum whose plan has steps to run in parts, as
    `sum_product` makes them, and the sum's helper thread (`helper`),
    which those steps share."""

    __slots__ = ("helper",)


def usable_cpus() -> int:
    """The CPUs this process may run on: the sums and the sampler start a
    helper thread only when there are two or more."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


class _Helper:
    """The second CPU of one `sum_product` call: a thread, started at the
    call's first split step when two CPUs are usable and joined when the
    call ends, that runs the second part of each split step unless the
    caller, done with the first part, finds it not yet started and runs it
    itself.  An error the helper hits is raised in the caller."""

    __slots__ = ("pool",)

    def __init__(self) -> None:
        self.pool = None

    def split(self, first: Callable[[], object], second: Callable[[], object]) -> None:
        """Run `first` and `second`, which write disjoint arrays, the second
        perhaps on the helper; return once both have finished."""
        if self.pool is None:
            if usable_cpus() < 2:
                first()
                second()
                return
            # imported here: it costs a few ms, which a sum with no split
            # step should not pay at import
            from concurrent.futures import ThreadPoolExecutor
            self.pool = ThreadPoolExecutor(1, thread_name_prefix="hiergame-halves")
        job = self.pool.submit(second)
        first()
        if job.cancel():
            second()
        else:
            job.result()

    def close(self) -> None:
        """Join the helper, if it started, once it has finished any part it
        is running; a part it has not started is dropped."""
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)


def _product(a: np.ndarray, b: np.ndarray, tile: tuple[int, tuple[int, ...]] | None,
             out: np.ndarray | None = None) -> np.ndarray:
    """a * b in C order, tiled as `tile` says (see `_Broadcast`), into
    `out` when given."""
    if tile is None:
        return np.multiply(a, b, out=out, order="C")
    # the product comes before the copies, which go first: allocated after
    # them, it raised a dense-exact process's peak RSS by about 1.5 MiB
    t, shape = tile
    product = np.empty(shape, a.dtype) if out is None else out
    np.multiply(_tiled(a, t), _tiled(b, t), out=product.reshape(shape[:-t] + (1 << t,)))
    return product


def _pick(x: np.ndarray, half: tuple) -> np.ndarray:
    """`x` at one index of the label that the `half` slices pick, or all of
    `x` where it does not hold that label (its axis has length 1)."""
    return x[half] if x.shape[len(half) - 1] == 2 else x


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


def _add_halves(x: np.ndarray, halves: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """`x` with the label of each (low, high) slice pair summed in turn;
    the last sum, if any, goes into `out` when given."""
    for k, (low, high) in enumerate(halves, 1 - len(halves)):
        x = np.add(x[low], x[high], out=out if k == 0 else None)
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
    step = _Broadcast(inputs, tuple(views), tuple(products), (2,) * len(out),
                      tuple(2 if label in out else 1 for label in range(width)), None)
    # a part cuts the first kept label, and the first summed label of each
    # product that sums one (see `_part`): no tile may span either
    if out and all(tile is None or max([out[0]] + [len(low) - 1 for low, _ in sums[:1]])
                   < width - tile[0] for _, _, tile, sums in products):
        step = step._replace(parts=(_part(step, out[0], 0), _part(step, out[0], 1)))
    return step


def _part(step: _Broadcast, label: int, h: int) -> _Broadcast:
    """`step` over the entries where `label`, which no tile spans and no
    operand sums, takes index h.  A tiled product that sums a label is
    made a half of that label at a time (see `_Broadcast.program`), so its
    shape has length 1 there too."""
    def cut(shape: tuple[int, ...], at: int) -> tuple[int, ...]:
        return shape[:at] + (1,) + shape[at + 1:]
    pick = slice(h, h + 1)
    views = tuple((perm, index if index[label] is None else
                   index[:label] + (pick,) + index[label + 1:], halves)
                  for perm, index, halves in step.views)
    products = []
    for i, j, tile, halves in step.products:
        if tile is not None:
            t, shape = tile
            shape = cut(shape, label)
            if halves:
                shape = cut(shape, len(halves[0][0]) - 1)
            tile = (t, shape)
        products.append((i, j, tile, halves))
    return step._replace(views=views, products=tuple(products), shape=step.shape[1:],
                         result=cut(step.result, label))


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
    left onto the keys, or is None when nothing is.  `widest` is the most
    spins a step with parts spans, 0 when none has parts.
    """

    unheld: int
    steps: tuple[_Einsum | _Broadcast | None, ...]
    final: _Einsum | _Broadcast | None
    widest: int


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
    widest = max((len(step.views[0][1]) for step in compiled
                  if isinstance(step, _Broadcast) and step.parts), default=0)
    return _Plan(len(unheld), compiled[:-1], compiled[-1], widest)


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
    DEFAULT_CAP; a cap below 1 is a ValueError.

    With two or more usable CPUs, the sum starts a helper thread at its
    first step of _SPLIT_SPINS or more spins and joins it before it
    returns or raises; the helper runs the second half of each such step
    (see `_Broadcast`, `_Helper`).  The result is bitwise the same with
    one CPU, where no thread starts, and there is no option for it.
    """
    limit = DEFAULT_CAP if cap is None else cap
    if limit < 1:
        raise ValueError(f"the enumeration cap must be at least 1, got {limit}")
    plan = _elimination_plan(tuple(scopes), tuple(keys), limit)
    made = tables()
    if plan.unheld:
        made += [np.ones(2)] * plan.unheld
    if plan.widest < _SPLIT_SPINS:
        return _run(plan, made)
    made = _Made(made)
    made.helper = _Helper()
    try:
        return _run(plan, made)
    finally:
        made.helper.close()


def _run(plan: _Plan, made: list[np.ndarray | None]) -> np.ndarray:
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
