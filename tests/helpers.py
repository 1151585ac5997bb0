"""Independent brute-force oracles and random instance generators.

Everything here recomputes quantities from first principles with plain
itertools and math (no numpy, no package internals beyond graph structure),
so tests compare the package against genuinely separate code paths.  The
exceptions are `brute_sample_many`, which must consume numpy's random
stream exactly as the sampler does, and `concatenated_vote_tables`,
`select_regime_map`, `six_mu_chain_xy`, `stacked_symmetric_nash` and
`key_nash_cell`, which must repeat the package's float operations or
spellings to compare bit for bit; the latter four are earlier forms of
`regime_map`, `chain_xy`, `symmetric_nash` and the sweep's nash cell.  The
last functions set the sampler's usable CPUs, switch its uniform-filling
helper thread on or off and inject faults into it, for the tests of that
thread.
"""

import itertools
import math
import random
import threading
import time

import numpy as np
from scipy.special import erf

from hiergame import Edge, HierarchyGraph, Vertex, game, outcome_probability, payoff, vote


def response(spin: int, field: float, mode: str, sigma: float) -> float:
    """Probability that one vote lands on `spin` given the weighted field."""
    if mode == "tanh":
        a = math.sqrt(2.0 / math.pi) / sigma
        return 0.5 + 0.5 * math.tanh(a * spin * field)
    return 0.5 * (1.0 + math.erf(spin * field / (sigma * math.sqrt(2.0))))


def product_weight(g: HierarchyGraph, spins: dict, mode: str) -> float:
    """Product of per-vertex vote factors for one full configuration."""
    scale = (1.0 - g.free_float) / g.free_float
    w = 1.0
    for v in g.vertex_ids:
        preds = g.pred_map[v]
        if not preds:
            continue
        field = scale * sum(wt * spins[u] for u, wt in preds)
        w *= response(spins[v], field, mode, g.noise_sigma)
    return w


def brute_vote_conditional(g: HierarchyGraph, target: str, condition: dict,
                           mode: str = "tanh") -> float:
    """P(target = +1 | condition) by raw enumeration of the product measure."""
    free = [v for v in sorted(g.vertex_ids) if v not in condition]
    num = den = 0.0
    for combo in itertools.product((1, -1), repeat=len(free)):
        spins = dict(condition)
        spins.update(zip(free, combo))
        w = product_weight(g, spins, mode)
        den += w
        if spins[target] == 1:
            num += w
    return num / den


def brute_vote_joint(g: HierarchyGraph, targets: list, condition: dict,
                     mode: str = "tanh") -> dict:
    """P(spins on `targets` | condition) for every target pattern, keyed by
    the tuple of target spins in the order given."""
    free = [v for v in sorted(g.vertex_ids) if v not in condition]
    sums = {}
    den = 0.0
    for combo in itertools.product((1, -1), repeat=len(free)):
        spins = dict(condition)
        spins.update(zip(free, combo))
        w = product_weight(g, spins, mode)
        den += w
        key = tuple(spins[v] for v in targets)
        sums[key] = sums.get(key, 0.0) + w
    return {key: num / den for key, num in sums.items()}


def brute_vote_partition(g: HierarchyGraph, condition: dict, mode: str = "tanh") -> float:
    free = [v for v in sorted(g.vertex_ids) if v not in condition]
    total = 0.0
    for combo in itertools.product((1, -1), repeat=len(free)):
        spins = dict(condition)
        spins.update(zip(free, combo))
        total += product_weight(g, spins, mode)
    return total


def brute_ising_conditional(couplings, beta: float, target: str, condition: dict) -> float:
    """P(target = +1 | condition) from the full-graph Boltzmann weights.

    No corridor restriction here: parts screened off by the boundary factor
    out of the ratio, so this doubles as a check of that restriction.
    """
    vertices = sorted({u for u, _, _ in couplings} | {v for _, v, _ in couplings})
    free = [v for v in vertices if v not in condition]
    num = den = 0.0
    for combo in itertools.product((1, -1), repeat=len(free)):
        spins = dict(condition)
        spins.update(zip(free, combo))
        energy = sum(j * spins[u] * spins[v] for u, v, j in couplings)
        w = math.exp(beta * energy)
        den += w
        if spins[target] == 1:
            num += w
    return num / den


def brute_ising_joint(couplings, beta: float, targets: list, condition: dict) -> dict:
    """P(spins on `targets` | condition) from the full-graph Boltzmann
    weights, keyed as `brute_vote_joint` keys it."""
    vertices = sorted({u for u, _, _ in couplings} | {v for _, v, _ in couplings})
    free = [v for v in vertices if v not in condition]
    sums = {}
    den = 0.0
    for combo in itertools.product((1, -1), repeat=len(free)):
        spins = dict(condition)
        spins.update(zip(free, combo))
        w = math.exp(beta * sum(j * spins[u] * spins[v] for u, v, j in couplings))
        den += w
        key = tuple(spins[v] for v in targets)
        sums[key] = sums.get(key, 0.0) + w
    return {key: num / den for key, num in sums.items()}


def tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _assemble(n: int, directed: list, rng: random.Random,
              free_float: float, noise_sigma: float) -> HierarchyGraph:
    """Roles from degrees, random renormalized predecessor weights."""
    names = [f"v{k}" for k in range(n)]
    has_pred = {v for _, v in directed}
    has_succ = {u for u, _ in directed}
    vertices = []
    for v in names:
        if v not in has_pred:
            role = "decider"
        elif v not in has_succ:
            role = "executive"
        else:
            role = "agent"
        vertices.append(Vertex(v, role))
    raw = {}
    for u, v in directed:
        raw[(u, v)] = rng.uniform(0.2, 1.0)
    totals = {}
    for (u, v), w in raw.items():
        totals[v] = totals.get(v, 0.0) + w
    edges = [Edge(u, v, w / totals[v]) for (u, v), w in raw.items()]
    return HierarchyGraph(tuple(vertices), tuple(edges), free_float, noise_sigma)


def random_tree(rng: random.Random, n: int,
                free_float: float | None = None,
                noise_sigma: float | None = None) -> HierarchyGraph:
    """Random undirected tree, randomly oriented into a DAG.

    Orientation follows a random precedence order, so in-degree-2 joins
    appear regularly; roots become deciders and sinks executives.
    """
    assert n >= 2
    if free_float is None:
        free_float = rng.uniform(0.1, 0.9)
    if noise_sigma is None:
        noise_sigma = math.sqrt(2.0 / math.pi) / rng.uniform(0.4, 1.6)
    parent = {k: rng.randrange(k) for k in range(1, n)}
    rank = {k: i for i, k in enumerate(rng.sample(range(n), n))}
    directed = []
    for k, p in parent.items():
        a, b = (p, k) if rank[p] < rank[k] else (k, p)
        directed.append((f"v{a}", f"v{b}"))
    return _assemble(n, directed, rng, free_float, noise_sigma)


def random_arborescence(rng: random.Random, n: int,
                        free_float: float | None = None,
                        noise_sigma: float | None = None) -> HierarchyGraph:
    """Random tree with every edge pointing away from vertex 0: in-degree
    at most 1 everywhere."""
    assert n >= 2
    if free_float is None:
        free_float = rng.uniform(0.1, 0.9)
    if noise_sigma is None:
        noise_sigma = math.sqrt(2.0 / math.pi) / rng.uniform(0.4, 1.6)
    directed = [(f"v{rng.randrange(k)}", f"v{k}") for k in range(1, n)]
    return _assemble(n, directed, rng, free_float, noise_sigma)


def random_fan_in_dag(rng: random.Random, n: int, roots: tuple, max_fan_in: int) -> HierarchyGraph:
    """Random DAG on v0..v{n-1}: the vertices numbered in `roots` (v0 among
    them) have no predecessors, every other v_k listens to between 1 and
    `max_fan_in` earlier vertices.  Roots numbered late come after drawing
    vertices in the sampler's topological order."""
    assert 0 in roots
    directed = []
    for k in range(1, n):
        if k not in roots:
            count = rng.randint(1, min(k, max_fan_in))
            directed += [(f"v{j}", f"v{k}") for j in sorted(rng.sample(range(k), count))]
    return _assemble(n, directed, rng, rng.uniform(0.1, 0.9),
                     math.sqrt(2.0 / math.pi) / rng.uniform(0.4, 1.6))


def random_dag(rng: random.Random, n: int, extra: int = 2,
               free_float: float | None = None,
               noise_sigma: float | None = None) -> HierarchyGraph:
    """Connected random DAG: oriented random tree plus a few extra forward
    edges (may create joins and undirected cycles, never directed ones)."""
    assert n >= 2
    if free_float is None:
        free_float = rng.uniform(0.1, 0.9)
    if noise_sigma is None:
        noise_sigma = math.sqrt(2.0 / math.pi) / rng.uniform(0.4, 1.6)
    parent = {k: rng.randrange(k) for k in range(1, n)}
    order = rng.sample(range(n), n)
    rank = {k: i for i, k in enumerate(order)}
    seen = set()
    directed = []
    for k, p in parent.items():
        a, b = (p, k) if rank[p] < rank[k] else (k, p)
        directed.append((f"v{a}", f"v{b}"))
        seen.add((a, b))
    tries = 0
    while extra > 0 and tries < 50 * extra:
        tries += 1
        i, j = rng.sample(range(n), 2)
        a, b = (i, j) if rank[i] < rank[j] else (j, i)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        directed.append((f"v{a}", f"v{b}"))
        extra -= 1
    return _assemble(n, directed, rng, free_float, noise_sigma)


def random_digraph(rng: random.Random, n: int, extra: int = 3,
                   free_float: float | None = None,
                   noise_sigma: float | None = None) -> HierarchyGraph:
    """Connected random digraph: randomly oriented tree plus a few extra
    edges in either direction, so directed cycles appear regularly."""
    assert n >= 3
    if free_float is None:
        free_float = rng.uniform(0.1, 0.9)
    if noise_sigma is None:
        noise_sigma = math.sqrt(2.0 / math.pi) / rng.uniform(0.4, 1.6)
    pairs = set()
    for k in range(1, n):
        p = rng.randrange(k)
        pairs.add((p, k) if rng.random() < 0.5 else (k, p))
    tries = 0
    while extra > 0 and tries < 50 * extra:
        tries += 1
        i, j = rng.sample(range(n), 2)
        if (i, j) in pairs or (j, i) in pairs:
            continue
        pairs.add((i, j))
        extra -= 1
    directed = [(f"v{a}", f"v{b}") for a, b in sorted(pairs)]
    return _assemble(n, directed, rng, free_float, noise_sigma)


def complete_dag(n_free: int, n_deciders: int = 2, free_float: float = 0.5,
                 noise_sigma: float = 1.0) -> HierarchyGraph:
    """Deciders d0.. and free vertices v0..v{n_free-1}, where v_k listens
    with equal weights to every decider and every earlier free vertex: the
    densest hierarchy, whose exact sums need a table over every free vertex
    at once."""
    deciders = [f"d{k}" for k in range(n_deciders)]
    free = [f"v{k}" for k in range(n_free)]
    vertices = [Vertex(d, "decider") for d in deciders]
    vertices += [Vertex(v, "executive" if k == n_free - 1 else "agent")
                 for k, v in enumerate(free)]
    edges = []
    for k, v in enumerate(free):
        preds = deciders + free[:k]
        edges += [Edge(u, v, 1.0 / len(preds)) for u in preds]
    return HierarchyGraph(tuple(vertices), tuple(edges), free_float, noise_sigma)


def executive_successors() -> HierarchyGraph:
    """Deciders d1, d2 and executives 1, 2, 3, where executive 1 commands
    executive 2 and agent b, and executive 2 commands executive 3."""
    vertices = (Vertex("d1", "decider"), Vertex("d2", "decider"), Vertex("a", "agent"),
                Vertex("1", "executive"), Vertex("2", "executive"), Vertex("b", "agent"),
                Vertex("3", "executive"))
    edges = (Edge("d1", "a", 0.6), Edge("d2", "a", 0.4), Edge("a", "1", 1.0),
             Edge("1", "2", 0.7), Edge("d2", "2", 0.3), Edge("1", "b", 0.5), Edge("a", "b", 0.5),
             Edge("b", "3", 0.8), Edge("2", "3", 0.2))
    return HierarchyGraph(vertices, edges, 0.4, 0.8)


def fan_hierarchy(n_execs: int, n_deciders: int) -> HierarchyGraph:
    """Deciders d0.. and executives 0.., every executive listening with
    equal weights to every decider: the widest decider game per vertex."""
    deciders = [f"d{k}" for k in range(n_deciders)]
    execs = [str(k) for k in range(n_execs)]
    vertices = [Vertex(d, "decider") for d in deciders] + [Vertex(i, "executive") for i in execs]
    edges = [Edge(d, i, 1.0 / n_deciders) for d in deciders for i in execs]
    return HierarchyGraph(tuple(vertices), tuple(edges), 0.5, 1.0)


def random_couplings(rng: random.Random, n: int, extra: int = 3) -> list:
    """Connected random coupling graph on v00..: a random tree plus `extra`
    further pairs, each pair (u, v, J) with u < v and J of either sign."""
    names = [f"v{k:02d}" for k in range(n)]
    pairs = {tuple(sorted((names[rng.randrange(k)], names[k]))) for k in range(1, n)}
    tries = 0
    while extra > 0 and tries < 50 * extra:
        tries += 1
        pair = tuple(sorted(rng.sample(names, 2)))
        if pair not in pairs:
            pairs.add(pair)
            extra -= 1
    return [(u, v, rng.uniform(-1.0, 1.0)) for u, v in sorted(pairs)]


def brute_shapley(value, players) -> dict:
    """Shapley value of each player as its marginal contribution
    value(before + {p}) - value(before), averaged over all orderings of
    `players`; `value` maps a frozenset of players to a number."""
    orders = list(itertools.permutations(players))
    totals = dict.fromkeys(players, 0)
    for order in orders:
        before = frozenset()
        for p in order:
            totals[p] += value(before | {p}) - value(before)
            before = before | {p}
    return {p: t / len(orders) for p, t in totals.items()}


def brute_decider_game(payoffs: dict, execs: list, lam: list, tables: dict) -> dict:
    """Decider-game payoffs from first principles.

    `payoffs` maps each executive spin profile (in `execs` order) to the
    executives' base payoffs; `tables[i][pattern]` is executive i's P(+1)
    under one command per decider (in `lam` order).  Shares are the Shapley
    values of each executive's normalized coalition game; expected payoffs
    sum over every executive spin profile.  Returns {profile: payoffs},
    where a profile holds one command vector (over `execs`) per decider.
    Exact on `fractions.Fraction` inputs: no float enters the arithmetic.
    """
    def pull(i, coalition):
        p = tables[i]
        plus = tuple(1 if d in coalition else -1 for d in lam)
        return (p[plus] - p[(-1,) * len(lam)]) / (2 * p[(1,) * len(lam)] - 1)

    shares = {i: brute_shapley(lambda k, i=i: pull(i, k), lam) for i in execs}
    vectors = list(itertools.product((1, -1), repeat=len(execs)))
    game = {}
    for profile in itertools.product(vectors, repeat=len(lam)):
        prob = [tables[i][tuple(vec[k] for vec in profile)] for k, i in enumerate(execs)]
        expected = [0] * len(execs)
        for spins in vectors:
            w = math.prod(p if s == 1 else 1 - p for p, s in zip(prob, spins))
            for j in range(len(execs)):
                expected[j] += w * payoffs[spins][j]
        game[profile] = tuple(sum(shares[i][d] * expected[j] for j, i in enumerate(execs))
                              for d in lam)
    return game


def brute_sample_many(g: HierarchyGraph, condition: dict, params, n: int, seed: int) -> dict:
    """Ancestral sampling written plainly: per vertex in topological order,
    the weighted field of every draw, its P(+1) and one uniform per draw,
    so a seed must give bit for bit the sampler's int8 +-1 arrays."""
    rng = np.random.default_rng(seed)
    spins = {}
    for v in g.topological_order:
        preds = g.pred_map[v]
        if not preds:
            spins[v] = np.full(n, condition[v], dtype=np.int8)
            continue
        field = np.zeros(n)
        for u, w in preds:
            field += w * spins[u]
        p_plus = outcome_probability(1, params.command_scale * field, params)
        spins[v] = np.where(rng.random(n) < p_plus, 1, -1).astype(np.int8)
    return spins


def concatenated_vote_tables(fixed: list, weights: list, n_free: int, params) -> np.ndarray:
    """Vote tables built by concatenation, one new array per doubling: row
    r holds P(-1) at every pattern of its n_free predecessors, then P(+1),
    pattern bit j set where predecessor j is +1.  The float operations, in
    order, are those of `hiergame.vote._vote_tables`, which fills one array
    in place, so the two agree bit for bit."""
    field = np.array(fixed)[:, None]
    w = np.array(weights).reshape(len(fixed), n_free)
    for j in range(n_free):
        step = w[:, j:j + 1]
        field = np.concatenate((field - step, field + step), axis=1)
    field = params.command_scale * field
    if params.mode == "tanh":
        odd = np.tanh(params.gain * field)
    else:
        odd = erf(field / (params.noise_sigma * math.sqrt(2.0)))
    probs = np.concatenate((1.0 - odd, 1.0 + odd), axis=1)
    probs *= 0.5
    return probs


def select_regime_map(x, y) -> tuple[np.ndarray, np.ndarray]:
    """`hiergame.game.regime_map` as two four-way `np.select` calls, which
    evaluate both line values everywhere."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    lower, upper = (2.0 - y) / 3.0, (y + 1.0) / 3.0
    v1, v_coop, v2 = -1.0 + 2.0 * x, -1.0 + 2.0 * y, 1.0 - 2.0 * x

    def line_value(left, right):
        return np.where(abs(left - right) <= game.BOUNDARY_TOL, 0.5 * (left + right), np.nan)

    where = [abs(x - lower) <= game.BOUNDARY_TOL, abs(x - upper) <= game.BOUNDARY_TOL,
             x < lower, x < upper]
    code = np.select(where, [game.LOWER_LINE, game.UPPER_LINE, game.PD_V1, game.COOPERATION],
                     game.PD_V2)
    value = np.select(where, [line_value(v1, v_coop), line_value(v_coop, v2), v1, v_coop], v2)
    return code, value


def _mu(sign: int, k: int, beta: float) -> float:
    return (math.cosh(beta) ** (k - 1) * math.cosh(beta / 2.0)
            + sign * math.sinh(beta) ** (k - 1) * math.sinh(beta / 2.0))


def six_mu_chain_xy(a: int, c: int, beta: float) -> tuple[float, float]:
    """`hiergame.ising.chain_xy` with each mu term computed where it is
    used: six `_mu` calls, and the same refusals and messages."""
    if a < 1 or c < 1:
        raise ValueError("chain lengths must be at least one edge")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
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


@np.errstate(divide="ignore", invalid="ignore")
def stacked_symmetric_nash(x, y) -> tuple[np.ndarray, np.ndarray]:
    """`hiergame.game.symmetric_nash` with the first decider's four best
    response tests stacked into a (..., 4) mask, then crossed with the
    second decider's, the same tests in the order (0, 2, 1, 3)."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    span = 2.0 * y - 1.0
    far = 2.0 * (x + y - 1.0) * (3.0 * x - y - 1.0) / span
    own = 2.0 * (x - y) * (3.0 * x + y - 2.0) / span
    floor = np.maximum(far, 0.0) + np.maximum(own, 0.0) - game.NASH_TOL
    first = np.stack([0.0 >= floor, far >= floor, own >= floor, far + own >= floor], axis=-1)
    second = first[..., (0, 2, 1, 3)]
    return first[..., :, None] & second[..., None, :], abs(span) < payoff.DEGENERACY_TOL


def key_nash_cell(key: int) -> str:
    """The sweep's nash cell of a point whose equilibria set the bits of the
    16-bit `key`, bit 4i + j for the first decider's strategy i and the
    second's j over [CC, CD, DC, DD]; a degenerate point has key 0."""
    moves = ["".join("C" if s == 1 else "D" for s in vector)
             for vector in itertools.product((1, -1), repeat=2)]
    profiles = [f"{first};{second}" for first in moves for second in moves]
    return "|".join(p for b, p in enumerate(profiles) if key >> b & 1)


def usable_cpus(monkeypatch, n: int) -> None:
    """Make the sampler see `n` usable CPUs."""
    monkeypatch.setattr(vote, "usable_cpus", lambda: n)


def _thread_starts(monkeypatch) -> list:
    """A list that collects the name of each thread started."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def sampler_helper(monkeypatch, on: bool) -> list:
    """Force the sampler's uniform-filling helper thread on (even with one
    usable CPU) or off; the sampler sees two usable CPUs.  Returns a list
    that collects the name of each thread started, such as the sampler's
    ("hiergame-uniforms")."""
    monkeypatch.setattr(vote, "_HELPER_UNIFORMS", 1 if on else 1 << 62)
    usable_cpus(monkeypatch, 2)
    return _thread_starts(monkeypatch)


def faulty_sampler_helper(monkeypatch, fault: str | None) -> tuple[list, list]:
    """Make the sampler's helper thread raise on its first fill ("dies"),
    sleep 0.2 s, using no CPU, before each fill ("lags"), or just fill
    (None).  Returns a list that collects the helper's uncaught exceptions
    and one that collects the shape of each array the helper filled."""
    make = np.random.default_rng
    fills = []

    class Faulty:
        def __init__(self, seed):
            self.inner = make(seed)
            self.bit_generator = self.inner.bit_generator

        def random(self, out):
            if fault == "dies":
                raise RuntimeError("helper died")
            if fault == "lags":
                time.sleep(0.2)
            fills.append(out.shape)
            return self.inner.random(out=out)

    def rng(seed):
        return make(seed) if threading.current_thread() is threading.main_thread() else Faulty(seed)

    failures = []
    monkeypatch.setattr(np.random, "default_rng", rng)
    monkeypatch.setattr(threading, "excepthook", failures.append)
    return failures, fills
