"""Wide elimination steps as fixed numpy programs of broadcast multiplies.

`vote._elimination_plan` compiles each step that spans at least
`vote._PAIRWISE_SPINS` spins with `_broadcast_step`; the sum runs it as a
`_Broadcast`, which multiplies the step's tables pairwise and sums each
spin as soon as one table alone holds it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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


class _Broadcast(NamedTuple):
    """A wide step: a fixed numpy program of broadcast multiplies and adds.

    Each input is transposed into label order and indexed to broadcast over
    every label of the step (`views`: axis permutation, index, halves to
    add).  `products` then multiplies operand j into operand i, in C order,
    and drops j.  A product whose plain broadcast would loop over a few
    entries at a time is tiled (`tile`: t and the product's shape, else
    None): each operand presents the step's last t labels as one contiguous
    axis (see `_tiled`), and the product is written into a C-order array of
    the full width.  The same entries are multiplied either way, so the
    results are bitwise those of the plain broadcast.  Each label that no
    other operand holds and the output does not is summed as soon as that
    holds, by adding its two halves and keeping a length-1 axis; on a
    length-2 axis that is far faster than `sum`.  What is left has the
    output's spins in label order.
    """

    inputs: tuple[int, ...]
    views: tuple[tuple[tuple[int, ...], tuple, tuple], ...]
    products: tuple[tuple[int, int, tuple[int, tuple[int, ...]] | None, tuple], ...]
    shape: tuple[int, ...]

    def run(self, made: list[np.ndarray | None]) -> np.ndarray:
        operands = []
        for f, (perm, index, halves) in zip(self.inputs, self.views):
            operands.append(_add_halves(made[f].transpose(perm)[index], halves))
            made[f] = None
        for i, j, tile, halves in self.products:
            if tile is None:
                product = np.multiply(operands[i], operands.pop(j), order="C")
            else:
                # the product comes before the copies, which go first:
                # allocated after them, it raised a dense-exact process's
                # peak RSS by about 1.5 MiB
                t, shape = tile
                product = np.empty(shape, operands[i].dtype)
                np.multiply(_tiled(operands[i], t), _tiled(operands.pop(j), t),
                            out=product.reshape(shape[:-t] + (1 << t,)))
            operands[i] = _add_halves(product, halves)
        return operands[0].reshape(self.shape)


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
