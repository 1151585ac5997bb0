"""Seeded hierarchy generators for the benchmark workloads.

Each generator takes a string key and builds the same graph for the same
key on every run, so stored references stay valid.  The generators use only
the package's graph types, never its algorithms.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# Gain 1 (sigma = sqrt(2/pi)) keeps vote factors well away from 0 and 1.
UNIT_GAIN_SIGMA = math.sqrt(2.0 / math.pi)


def graph_digest(g) -> str:
    """SHA-256 of a graph's structure, independent of the package's JSON
    layout, so a changed generator cannot silently reuse old references."""
    data = [
        [[v.id, v.role] for v in g.vertices],
        [[e.src, e.dst, repr(e.weight)] for e in g.edges],
        repr(g.free_float), repr(g.noise_sigma),
    ]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def _assemble(hg, names, directed, deciders, executives, rng, free_float, sigma):
    raw = {(u, v): rng.uniform(0.2, 1.0) for u, v in directed}
    totals: dict[str, float] = {}
    for (_, v), w in raw.items():
        totals[v] = totals.get(v, 0.0) + w
    vertices = []
    for v in names:
        role = "decider" if v in deciders else "executive" if v in executives else "agent"
        vertices.append(hg.Vertex(v, role))
    edges = [hg.Edge(u, v, w / totals[v]) for (u, v), w in raw.items()]
    return hg.HierarchyGraph(tuple(vertices), tuple(edges), free_float, sigma)


def _sparse(hg, rng, n, extra):
    """Random tree on n vertices, randomly oriented, plus `extra` forward
    edges; roots are deciders and sinks executives."""
    names = [f"v{k}" for k in range(n)]
    rank = {k: i for i, k in enumerate(rng.sample(range(n), n))}
    directed = []
    for k in range(1, n):
        p = rng.randrange(k)
        a, b = (p, k) if rank[p] < rank[k] else (k, p)
        directed.append((a, b))
    seen = set(directed)
    while extra > 0:
        i, j = rng.sample(range(n), 2)
        a, b = (i, j) if rank[i] < rank[j] else (j, i)
        if (a, b) not in seen:
            seen.add((a, b))
            directed.append((a, b))
            extra -= 1
    pairs = [(names[a], names[b]) for a, b in directed]
    has_pred = {v for _, v in pairs}
    has_succ = {u for u, _ in pairs}
    deciders = set(names) - has_pred
    executives = set(names) - has_succ
    free_float = rng.uniform(0.3, 0.7)
    sigma = UNIT_GAIN_SIGMA / rng.uniform(0.6, 1.4)
    return _assemble(hg, names, pairs, deciders, executives, rng, free_float, sigma)


def sparse_graph(hg, family: str, free: int, index: int):
    """A random tree ("tree") or tree-plus-three-edges DAG ("dag") with
    exactly `free` undecided vertices, drawn until the count matches."""
    extra = {"tree": 0, "dag": 3}[family]
    for attempt in range(10_000):
        rng = random.Random(f"sparse/{family}/{free}/{index}/{attempt}")
        n = free + rng.randint(3, 6)
        g = _sparse(hg, rng, n, extra)
        n_deciders = sum(1 for v in g.vertices if v.role == "decider")
        if n - n_deciders == free:
            return g
    raise RuntimeError(f"no {family} graph with {free} free vertices")


def dense_dag(hg, n_deciders: int, free: int, index: int):
    """Near-complete DAG: free vertex k listens to every decider and every
    earlier free vertex, less about a tenth of the non-chain edges.  The
    last vertex is the only sink, so every free vertex is its ancestor."""
    rng = random.Random(f"dense-dag/{n_deciders}/{free}/{index}")
    deciders = [f"d{k}" for k in range(n_deciders)]
    agents = [f"v{k}" for k in range(free)]
    directed = []
    for k, v in enumerate(agents):
        for u in deciders + agents[:k]:
            keep = k == 0 or u == agents[k - 1] or rng.random() > 0.1
            if keep:
                directed.append((u, v))
    free_float = rng.uniform(0.35, 0.65)
    return _assemble(hg, deciders + agents, directed, set(deciders),
                     {agents[-1]}, rng, free_float, UNIT_GAIN_SIGMA)


def dense_cycle(hg, n_deciders: int, free: int, index: int):
    """Dense cyclic hierarchy: a directed ring of free vertices where each
    also listens to about half the other ring vertices and half the
    deciders.  Every free vertex lies on a cycle; the executive is a ring
    vertex (it has successors, which validation only warns about)."""
    rng = random.Random(f"dense-cycle/{n_deciders}/{free}/{index}")
    deciders = [f"d{k}" for k in range(n_deciders)]
    ring = [f"r{k}" for k in range(free)]
    anchors = {ring[j * (free // n_deciders)]: d for j, d in enumerate(deciders)}
    directed = []
    for k, v in enumerate(ring):
        prev = ring[k - 1]
        preds = [prev] + [u for u in ring if u not in (v, prev) and rng.random() < 0.5]
        preds += [d for d in deciders if anchors.get(v) == d or rng.random() < 0.5]
        directed += [(u, v) for u in preds]
    free_float = rng.uniform(0.35, 0.65)
    return _assemble(hg, deciders + ring, directed, set(deciders),
                     {ring[-1]}, rng, free_float, UNIT_GAIN_SIGMA)


def wide_arborescence(hg, n: int, index: int):
    """Shallow, wide out-tree: vertex k hangs under a random vertex among the
    first eighth of its predecessors, so most vertices are leaves."""
    rng = random.Random(f"arborescence/{n}/{index}")
    names = [f"v{k}" for k in range(n)]
    directed = [(names[rng.randrange(max(1, k // 8))], names[k]) for k in range(1, n)]
    has_succ = {u for u, _ in directed}
    executives = set(names[1:]) - has_succ
    return _assemble(hg, names, directed, {names[0]}, executives, rng, 0.3,
                     UNIT_GAIN_SIGMA)


def command_vectors(deciders):
    """Every +-1 assignment to the sorted deciders, in a fixed order."""
    lam = sorted(deciders)
    out = []
    for code in range(1 << len(lam)):
        out.append({v: (1 if (code >> j) & 1 else -1) for j, v in enumerate(lam)})
    return out


def sparse_query(g, family: str, free: int, index: int, q: int):
    """The q-th stored query on a sparse pool graph: a random command on
    every decider and one random executive as the target."""
    rng = random.Random(f"query/{family}/{free}/{index}/{q}")
    condition = {v.id: rng.choice((1, -1)) for v in g.vertices if v.role == "decider"}
    target = rng.choice(sorted(v.id for v in g.vertices if v.role == "executive"))
    return condition, target
