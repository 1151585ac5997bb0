"""Weighted directed hierarchy graphs and their structural queries.

A hierarchy is a connected directed graph whose edge weights are normalized
over each vertex's predecessors: whoever has at least one incoming edge
receives total incoming weight 1.  Vertices play one of three roles:
"decider" (no predecessors, issues commands), "executive" (plays the base
game), or "agent" (everything in between).
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

from .errors import GraphFormatError

ROLE_DECIDER = "decider"
ROLE_AGENT = "agent"
ROLE_EXECUTIVE = "executive"
ROLES = (ROLE_DECIDER, ROLE_AGENT, ROLE_EXECUTIVE)

WEIGHT_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Vertex:
    id: str
    role: str


@dataclass(frozen=True, slots=True)
class Edge:
    src: str
    dst: str
    weight: float


@dataclass(frozen=True)
class HierarchyGraph:
    """Immutable hierarchy: vertices, weighted directed edges, and the two
    vote parameters carried by graph files (free float and noise width)."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    free_float: float
    noise_sigma: float

    @cached_property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def roles(self) -> dict[str, str]:
        return {v.id: v.role for v in self.vertices}

    @cached_property
    def pred_map(self) -> dict[str, tuple[tuple[str, float], ...]]:
        """vertex id -> ((predecessor id, weight), ...) in edge order."""
        out: dict = {v.id: [] for v in self.vertices}
        for e in self.edges:
            if e.dst in out:
                out[e.dst].append((e.src, e.weight))
        for k, preds in out.items():  # in place: no second map beside it
            out[k] = tuple(preds)
        return out

    @cached_property
    def topological_order(self) -> tuple[str, ...] | None:
        """Vertex ids by Kahn's algorithm, always taking the smallest ready
        id, so the order (and hence sampling randomness) is reproducible;
        None when the graph has a directed cycle."""
        indeg = {v: len(preds) for v, preds in self.pred_map.items()}
        ready = [v for v, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        out = []
        while ready:
            v = heapq.heappop(ready)
            out.append(v)
            for w, _ in self.succ_map[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        return tuple(out) if len(out) == len(indeg) else None

    @cached_property
    def succ_map(self) -> dict[str, tuple[tuple[str, float], ...]]:
        """vertex id -> ((successor id, weight), ...) in edge order."""
        out: dict = {v.id: [] for v in self.vertices}
        for e in self.edges:
            if e.src in out:
                out[e.src].append((e.dst, e.weight))
        for k, succs in out.items():  # in place: no second map beside it
            out[k] = tuple(succs)
        return out

    @cached_property
    def undirected_adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v.id: set() for v in self.vertices}
        for e in self.edges:
            if e.src in adj and e.dst in adj and e.src != e.dst:
                adj[e.src].add(e.dst)
                adj[e.dst].add(e.src)
        return {k: frozenset(v) for k, v in adj.items()}

    @cached_property
    def query_layouts(self) -> dict:
        """Structure of the exact queries asked of this graph, by query;
        filled and bounded through `elimination.stored_in`."""
        return {}

    def require_vertex(self, vertex: str) -> None:
        if vertex not in self.roles:
            raise ValueError(f"unknown vertex id {vertex!r}")


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_graph(g: HierarchyGraph) -> ValidationReport:
    """Check every structural invariant and return the full report.

    Violations make the graph unusable; warnings point at unusual but
    permitted structure (an executive that still has successors, say).
    """
    violations: list[str] = []
    warnings: list[str] = []

    ids: set[str] = set()
    for v in g.vertices:
        if v.id in ids:
            violations.append(f"duplicate vertex id {v.id!r}")
        ids.add(v.id)
        if v.role not in ROLES:
            violations.append(f"vertex {v.id} has unknown role {v.role!r}")

    seen_edges: set[tuple[str, str]] = set()
    for e in g.edges:
        if e.src not in ids or e.dst not in ids:
            violations.append(f"edge {e.src}->{e.dst} references an unknown vertex")
            continue
        if e.src == e.dst:
            violations.append(f"self-loop on vertex {e.src}")
        if (e.src, e.dst) in seen_edges:
            violations.append(f"duplicate edge {e.src}->{e.dst}")
        seen_edges.add((e.src, e.dst))
        if not e.weight > 0.0:
            violations.append(f"edge {e.src}->{e.dst} has non-positive weight {e.weight}")

    from .vote import VoteParams  # here: vote imports this module
    try:  # the first of the vote parameters' rules that D or sigma breaks
        VoteParams(g.free_float, g.noise_sigma)
    except ValueError as exc:
        violations.append(str(exc))

    for vid, preds in g.pred_map.items():
        if not preds:
            continue
        total = sum(w for _, w in preds)
        if abs(total - 1.0) > WEIGHT_TOL:
            violations.append(f"predecessor weights of vertex {vid} sum to {total:.10g}")

    for v in g.vertices:
        has_preds = bool(g.pred_map.get(v.id))
        if v.role == ROLE_DECIDER and has_preds:
            violations.append(f"decider {v.id} has predecessors")
        if v.role != ROLE_DECIDER and not has_preds:
            violations.append(
                f"vertex {v.id} has no predecessors but role {v.role!r} (deciders and "
                "command-takers must be disjoint)"
            )
        if v.role == ROLE_EXECUTIVE and g.succ_map.get(v.id):
            warnings.append(f"executive {v.id} has successors")

    if g.vertices and not violations:
        reached = _reach_both_ways(g, g.vertex_ids[0])
        if len(reached) != len(g.vertices):
            missing = sorted(ids - reached)
            violations.append(f"graph is not connected (unreached: {', '.join(missing)})")

    if not g.vertices:
        violations.append("graph has no vertices")

    return ValidationReport(tuple(violations), tuple(warnings))


def deciders(g: HierarchyGraph) -> frozenset[str]:
    """Vertices with no predecessors (the command issuers)."""
    return frozenset(v for v, preds in g.pred_map.items() if not preds)


def executives(g: HierarchyGraph) -> frozenset[str]:
    return frozenset(v.id for v in g.vertices if v.role == ROLE_EXECUTIVE)


def has_directed_cycle(g: HierarchyGraph) -> bool:
    return g.topological_order is None


def reach(sources: set[str], adj: Mapping[str, frozenset[str]],
          removed: frozenset[str]) -> set[str]:
    """Vertices reachable from `sources` along undirected edges, never
    entering `removed`."""
    seen = set(s for s in sources if s not in removed)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen and w not in removed:
                seen.add(w)
                queue.append(w)
    return seen


def _reach_both_ways(g: HierarchyGraph, start: str) -> set[str]:
    """Vertices reachable from `start` along edges taken either way, found
    from the predecessor and successor maps without building
    `undirected_adjacency`."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for nbrs in (g.pred_map[v], g.succ_map[v]):
            for w, _ in nbrs:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen


def nodes_between_adjacency(adj: Mapping[str, frozenset[str]],
                            a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """Interior of the A-to-B corridor on an undirected adjacency map.

    A vertex outside A and B is "beyond A" when removing A disconnects it
    from B, and symmetrically for "beyond B".  The corridor interior is
    everything else: vertices that can still see B around A and A around B.
    A and B themselves are excluded; callers treat them as fixed boundary.
    """
    if not a or not b:
        raise ValueError("both vertex sets must be nonempty")
    if a & b:
        raise ValueError("vertex sets must be disjoint")
    for v in a | b:
        if v not in adj:
            raise ValueError(f"unknown vertex id {v!r}")
    sees_b = reach(set(b), adj, removed=frozenset(a))
    sees_a = reach(set(a), adj, removed=frozenset(b))
    return frozenset((sees_a & sees_b) - a - b)


def nodes_between(g: HierarchyGraph, a: Iterable[str], b: Iterable[str]) -> frozenset[str]:
    """Interior vertices of the undirected corridor between sets A and B."""
    return nodes_between_adjacency(g.undirected_adjacency, frozenset(a), frozenset(b))


def semantics_agree(g: HierarchyGraph, condition: Iterable[str],
                    targets: Iterable[str]) -> bool:
    """True when the vote process and the coupled spin model on `g` give
    the same law of `targets` given `condition`, with the `tanh` response.

    A vote factor is exp(beta s h) / (2 cosh beta h); the spin model keeps
    only its numerator.  The 1/cosh term depends on the free spins exactly
    at a vertex with two or more predecessors, one of them unconditioned.
    No such vertex may be conditioned or stay connected to a target once
    the conditioned vertices are removed.  Anywhere else, summing out its
    side of the condition leaves a function of the condition alone, which
    cancels from both laws.  Cycles change none of this.

    The predicate is one-sided: "agree" is exact, while "differ" may be
    conservative.  It speaks only for the `tanh` response, the one that
    `coupling_from_hierarchy` mirrors; in `gaussian` mode the two differ
    even on a chain of two edges.  Either set may be a spin mapping, whose
    spins do not matter.  Empty or overlapping sets are refused, as
    `nodes_between` refuses them.
    """
    a, b = frozenset(condition), frozenset(targets)
    nodes_between(g, a, b)  # for its refusals
    preds = g.pred_map
    zone = reach(set(b), g.undirected_adjacency, removed=a) | a
    return all(len(preds[v]) < 2 or all(u in a for u, _ in preds[v]) for v in zone)


def graph_to_dict(g: HierarchyGraph) -> dict:
    return {
        "vertices": [{"id": v.id, "role": v.role} for v in g.vertices],
        "edges": [{"from": e.src, "to": e.dst, "weight": e.weight} for e in g.edges],
        "free_float": g.free_float,
        "noise_sigma": g.noise_sigma,
    }


def graph_from_dict(data: Mapping, validate: bool = True) -> HierarchyGraph:
    """Build and fully validate a hierarchy from parsed JSON data.

    Raises GraphFormatError on malformed structure or, unless `validate` is
    off, on any invariant violation; the message lists every problem found.
    Pass validate=False to get the raw object for a diagnostic report.
    """
    try:
        raw_vertices = data["vertices"]
        raw_edges = data["edges"]
        free_float = float(data["free_float"])
        noise_sigma = float(data["noise_sigma"])
        vertices = tuple(Vertex(str(v["id"]), str(v["role"])) for v in raw_vertices)
        edges = tuple(
            Edge(str(e["from"]), str(e["to"]), float(e["weight"])) for e in raw_edges
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed graph data: {exc}") from exc
    g = HierarchyGraph(vertices, edges, free_float, noise_sigma)
    if validate:
        _require_valid(g)
    return g


def _require_valid(g: HierarchyGraph) -> None:
    report = validate_graph(g)
    if not report.ok:
        raise GraphFormatError("; ".join(report.violations))


def read_json(path: str | Path, what: str, error: type[Exception]):
    """The JSON file at `path`, parsed: the one JSON reader.  An unreadable
    or invalid file raises `error`, naming the `what` file and its path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON; nesting too deep
        raise error(f"{what} file {path} is not valid JSON: {exc}") from exc


def write_json(payload, path: str | Path) -> None:
    """Write `payload` to `path` as indented JSON: the one JSON writer."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def load_graph(path: str | Path, validate: bool = True) -> HierarchyGraph:
    """Read and, unless `validate` is off, fully validate a graph file, as
    `graph_from_dict` does; the parsed JSON is let go before validation."""
    g = graph_from_dict(read_json(path, "graph", GraphFormatError), validate=False)
    if validate:
        _require_valid(g)
    return g


def save_graph(g: HierarchyGraph, path: str | Path) -> None:
    write_json(graph_to_dict(g), path)
