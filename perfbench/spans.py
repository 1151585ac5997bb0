"""Traced-run recorder: spans and computed counters around hiergame's
public functions, installed from outside the package.

`Recorder.install` replaces each listed function with a timing wrapper in
every loaded hiergame module that binds it (``pure_nash`` is bound in both
``hiergame.game`` and ``hiergame.cli``, for instance), so nested calls nest
as spans.  Spans stay in memory and are written out once the run ends.

Counters are computed from the inputs of each call, not measured:
``vote.configs_enumerated`` is the sum of 2**free over exact vote sums,
``ising.corridor_configs`` the sum of 2**interior over corridor sums,
``vote.draws`` draws times vertices per sampling call.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name); the span name is the metric prefix
TRACED = (
    ("hiergame.graph", "load_graph", "graph.load_graph"),
    ("hiergame.graph", "validate_graph", "graph.validate_graph"),
    ("hiergame.graph", "has_directed_cycle", "graph.has_directed_cycle"),
    ("hiergame.graph", "nodes_between_adjacency", "graph.nodes_between_adjacency"),
    ("hiergame.vote", "conditional_influence", "vote.conditional_influence"),
    ("hiergame.vote", "partition_function", "vote.partition_function"),
    ("hiergame.vote", "sample_many", "vote.sample_many"),
    ("hiergame.vote", "influence_oracle", "vote.influence_oracle"),
    ("hiergame.ising", "ising_conditional", "ising.ising_conditional"),
    ("hiergame.ising", "k_point", "ising.k_point"),
    ("hiergame.ising", "chain_xy", "ising.chain_xy"),
    ("hiergame.payoff", "shapley_shares", "payoff.shapley_shares"),
    ("hiergame.game", "influence_tables", "game.influence_tables"),
    ("hiergame.game", "transform_game", "game.transform_game"),
    ("hiergame.game", "transform_from_tables", "game.transform_from_tables"),
    ("hiergame.game", "symmetric_transform", "game.symmetric_transform"),
    ("hiergame.game", "pure_nash", "game.pure_nash"),
    ("hiergame.cli", "main", "cli.main"),
    ("hiergame.cli", "sweep_point", "cli.sweep_point"),
)

ORACLE_SPAN = "vote.oracle"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Recorder:
    """Collects spans (name, start, end, parent) and integer counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.live: Counter = Counter()  # calls so far, for oracle hit detection
        self.counters: Counter = Counter()
        self.free_vertices_max = 0
        self.missing: list[str] = []
        self._corridor_cache: dict = {}

    # -- spans ------------------------------------------------------------
    def wrap(self, name, fn, before=None, after=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1])
            rec.starts.append(0.0)
            rec.ends.append(0.0)
            rec.live[name] += 1
            rec._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec._stack.pop()
                rec.starts[sid] = t0
                rec.ends[sid] = t1
            return result if after is None else after(result)

        return traced

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    # -- counters computed from call inputs ------------------------------
    def _vote_sum(self, args, kwargs):
        g = args[0]
        a = _arg(args, kwargs, 1, "a")
        free = len(g.vertices) - len(frozenset(a))
        self.counters["vote.configs_enumerated"] += 1 << free
        self.free_vertices_max = max(self.free_vertices_max, free)

    def _corridor(self, nodes_between, args, kwargs):
        model, query = args[0], _arg(args, kwargs, 1, "query")
        key = (id(model), frozenset(query.condition), frozenset(query.target))
        if key not in self._corridor_cache:
            interior = nodes_between(model.adjacency, key[1], key[2])
            self._corridor_cache[key] = 1 << len(interior)
        self.counters["ising.corridor_configs"] += self._corridor_cache[key]

    def _draws(self, args, kwargs):
        g = args[0]
        n = _arg(args, kwargs, 3, "n")
        self.counters["vote.draws"] += int(n) * len(g.vertices)

    def _oracle(self, oracle):
        """Wrap the closure influence_oracle returns: a call is a hit when
        it finishes without a new conditional_influence call."""
        traced = self.wrap(ORACLE_SPAN, oracle)

        def counted(executive, commands):
            before = self.live["vote.conditional_influence"]
            value = traced(executive, commands)
            if self.live["vote.conditional_influence"] == before:
                self.counters["vote.oracle.hits"] += 1
            return value

        return counted

    def _shapley_wrapper(self, fn):
        traced = self.wrap("payoff.shapley_shares", fn)

        def shapley(oracle, *args, **kwargs):
            def counted(executive, commands):
                self.counters["payoff.oracle_calls"] += 1
                return oracle(executive, commands)
            return traced(counted, *args, **kwargs)

        return functools.wraps(fn)(shapley)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Patch every loaded hiergame module that binds a traced function."""
        modules = [m for name, m in sys.modules.items()
                   if name == "hiergame" or name.startswith("hiergame.")]
        graph_mod = sys.modules["hiergame.graph"]
        nodes_between = graph_mod.nodes_between_adjacency  # unwrapped, for counters
        hooks = {
            "vote.conditional_influence": (self._vote_sum, None),
            "vote.partition_function": (self._vote_sum, None),
            "vote.sample_many": (self._draws, None),
            "vote.influence_oracle": (None, self._oracle),
            "ising.k_point": (lambda a, k: self._corridor(nodes_between, a, k), None),
        }
        for module, attr, name in TRACED:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if name == "payoff.shapley_shares":
                wrapper = self._shapley_wrapper(original)
            else:
                before, after = hooks.get(name, (None, None))
                wrapper = self.wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- results -----------------------------------------------------------
    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds).  Self time is
        a span's duration minus the durations of its direct children; spans
        nest strictly because the run is single-threaded."""
        n = len(self.names)
        child = [0.0] * n
        for sid in range(n):
            parent = self.parents[sid]
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid in range(n):
            entry = out[self.names[sid]]
            entry[0] += 1
            entry[1] += self.ends[sid] - self.starts[sid] - child[sid]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        """All spans as gzip CSV: id, name, start, end, parent (-1 = root)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent\n")
            for sid, name in enumerate(self.names):
                fh.write(f"{sid},{name},{self.starts[sid]!r},{self.ends[sid]!r},"
                         f"{self.parents[sid]}\n")
