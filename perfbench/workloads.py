"""The four benchmark workloads.

A workload is built once per set-up from the seed, then hands out rounds.
Every round holds the same fixed mix of op kinds; the seed picks the
instances and commands inside each kind and the order of the ops.  Whole
rounds keep the mix, and with it each latency quantile, independent of the
seed and of how long a run lasts.  Every op's answer is checked against the
references in ``refs/``, which ``make_refs.py`` produced once.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import gen

REFS_DIR = Path(__file__).resolve().parent / "refs"
EXACT_TOL = 1e-12


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def load_refs(name: str) -> dict:
    with open(REFS_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One in-process `hiergame` command; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def close(value: float, ref: float, relative: bool = False) -> bool:
    scale = max(1.0, abs(ref)) if relative else 1.0
    return abs(value - ref) <= EXACT_TOL * scale


class Workload:
    name = ""

    def __init__(self, hg, cli, seed: int, workdir: Path) -> None:
        self.hg, self.cli, self.seed, self.workdir = hg, cli, seed, workdir
        self.rec = None  # a spans.Recorder during traced rounds
        self.refs = load_refs(self.name)

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{r}")

    def cli_run(self, argv: list[str]) -> tuple[int, str]:
        code, text = run_cli(self.cli, argv)
        if self.rec is not None:
            self.rec.count("cli.output_bytes", len(text.encode()))
        return code, text

    def final_check(self) -> bool:
        return True


# ---------------------------------------------------------------- regime-map

X_AXIS = "x=0.005:0.995:199"
Y_AXIS = "y=0.505:0.995:99"
CHAIN_BETA = "beta=0.5:2:99"
# (a, c) geometries swept over beta in every round
CHAIN_ROWS = ((1, 1), (1, 3), (2, 3), (2, 5), (3, 4), (4, 4), (4, 7), (6, 2), (8, 8))
README_CHAIN = ["sweep", "--vary", "beta=0.5:2:4", "--fix", "a=2", "--fix", "c=3"]


def grid_ys() -> list[str]:
    """The 99 y values of the README grid, as exact float reprs, so that a
    one-row sweep at `--fix y=<repr>` reproduces that row of the grid."""
    return [repr(float(v)) for v in np.linspace(0.505, 0.995, 99)]


class RegimeMap(Workload):
    """Per round: the 199-point README sweep for each of the 99 y rows,
    nine chain-geometry rows and the README chain sweep, in seeded order."""

    name = "regime-map"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ys = grid_ys()
        if set(self.ys) != set(self.refs["rows"]):
            raise RuntimeError("regime-map references do not match the y grid")
        self.row_text: dict[str, str] = {}

    def _sweep(self, argv: list[str]) -> Callable[[], object]:
        return lambda: self.cli_run(["sweep"] + argv)

    def _check(self, digest: str, y: str | None = None):
        def check(result) -> bool:
            code, text = result
            if y is not None and y not in self.row_text:
                self.row_text[y] = text
            return code == 0 and sha256(text) == digest
        return check

    def round(self, r: int) -> list[Op]:
        ops = [Op("xy-row", self._sweep(["--vary", X_AXIS, "--fix", f"y={y}"]),
                  self._check(self.refs["rows"][y], y)) for y in self.ys]
        for a, c in CHAIN_ROWS:
            argv = ["--vary", CHAIN_BETA, "--fix", f"a={a}", "--fix", f"c={c}"]
            ops.append(Op("chain-row", self._sweep(argv),
                          self._check(self.refs["chain_rows"][f"{a},{c}"])))
        ops.append(Op("readme-chain", self._sweep(README_CHAIN[1:]),
                      self._check(self.refs["readme_chain_sha256"])))
        self.rng(r).shuffle(ops)
        return ops

    def final_check(self) -> bool:
        """The rows of one round, stacked in y order, are the full 199x99
        README grid, byte for byte."""
        if set(self.row_text) != set(self.ys):
            return False
        bodies = [self.row_text[y].split("\n", 1) for y in self.ys]
        text = bodies[0][0] + "\n" + "".join(body for _, body in bodies)
        return sha256(text) == self.refs["grid_sha256"]


# -------------------------------------------------------------- sparse-exact

SPARSE_POOL = 6  # graphs per (family, free count), two stored queries each
# (family, free vertices, ops per round)
SPARSE_RANDOM = (("tree", 12, 2), ("dag", 12, 2), ("tree", 14, 1), ("dag", 14, 1))
CROSSED_ARMS = (3, 4, 5)
TRANSFORM_ARMS = (3, 4)
ISING_ARMS = (8, 9, 10)


def crossed(hg, arms: int):
    return hg.crossed_chains(arms, arms, arms, arms)


class SparseExact(Workload):
    """Per round: conditional_influence under all four command vectors on
    crossed_chains(3), (4) and (5) (executive seeded); six random tree and
    DAG queries; Shapley transform_game on crossed_chains(3) and (4); one
    ising_conditional on crossed_chains(8), (9) and (10)."""

    name = "sparse-exact"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        hg = self.hg
        self.crossed = {a: crossed(hg, a) for a in set(CROSSED_ARMS) | set(TRANSFORM_ARMS)}
        self.params = {a: hg.VoteParams.from_graph(g) for a, g in self.crossed.items()}
        self.models = {a: hg.coupling_from_hierarchy(crossed(hg, a)) for a in ISING_ARMS}
        self.base = hg.prisoners_dilemma()
        self.pool = {}
        for family, free, _ in SPARSE_RANDOM:
            for i in range(SPARSE_POOL):
                g = gen.sparse_graph(hg, family, free, i)
                key = f"{family}{free}/{i}"
                if gen.graph_digest(g) != self.refs["graphs"][key]:
                    raise RuntimeError(f"generated graph {key} differs from its reference")
                self.pool[key] = (g, hg.VoteParams.from_graph(g))

    def _conditional(self, g, params, condition, target, ref) -> Op:
        hg = self.hg
        lam = frozenset(condition)
        run = lambda: hg.conditional_influence(g, lam, {target}, condition, params)  # noqa: E731
        return Op("conditional", run, lambda d: close(d.plus_prob(target), ref))

    def round(self, r: int) -> list[Op]:
        hg, rng, refs = self.hg, self.rng(r), self.refs
        ops = []
        for arms in CROSSED_ARMS:
            g = self.crossed[arms]
            for code, cond in enumerate(gen.command_vectors(["d1", "d2"])):
                ex = rng.choice(("1", "2"))
                ops.append(self._conditional(g, self.params[arms], cond, ex,
                                             refs["crossed"][f"{arms}/{ex}/{code}"]))
        for family, free, count in SPARSE_RANDOM:
            for _ in range(count):
                i, q = rng.randrange(SPARSE_POOL), rng.randrange(2)
                g, params = self.pool[f"{family}{free}/{i}"]
                cond, target = gen.sparse_query(g, family, free, i, q)
                ops.append(self._conditional(g, params, cond, target,
                                             refs["random"][f"{family}{free}/{i}/{q}"]))
        for arms in TRANSFORM_ARMS:
            g, params, ref = self.crossed[arms], self.params[arms], refs["transform"][str(arms)]
            run = (lambda g=g, params=params:
                   hg.transform_game(self.base, g, params, mechanism="shapley"))
            ops.append(Op("transform", run, lambda tg, ref=ref: all(
                close(float(v), w) for v, w in zip(tg.payoffs.ravel(), ref))))
        for arms in ISING_ARMS:
            model = self.models[arms]
            code = rng.randrange(4)
            cond = gen.command_vectors(["d1", "d2"])[code]
            ex = rng.choice(("1", "2"))
            ref = refs["ising"][f"{arms}/{ex}/{code}"]
            run = lambda model=model, ex=ex, cond=cond: hg.ising_conditional(model, ex, cond)  # noqa: E731
            ops.append(Op("ising", run, lambda p, ref=ref: close(p, ref)))
        rng.shuffle(ops)
        return ops


# --------------------------------------------------------------- dense-exact

# tier name -> (deciders, free vertices, families, graphs per family, modes)
DENSE_TIERS = {
    "t16": (2, 16, ("dag", "cycle"), 3, ("tanh", "gaussian")),
    "t17": (3, 17, ("dag", "cycle"), 3, ("tanh", "gaussian")),
    "t18": (2, 18, ("dag", "cycle"), 2, ("tanh", "gaussian")),
    "t20": (2, 20, ("dag",), 1, ("tanh",)),
}
# command vectors stored per graph (codes into gen.command_vectors)
DENSE_CONDS = {2: (1, 2), 3: (3, 5)}
# the fixed per-round mix: (tier, family, query, mode)
DENSE_MIX = (
    ("t16", "dag", "single", "tanh"), ("t16", "dag", "joint", "gaussian"),
    ("t16", "cycle", "single", "gaussian"), ("t16", "cycle", "joint", "tanh"),
    ("t16", "cycle", "partition", "tanh"), ("t16", "cycle", "partition", "gaussian"),
    ("t17", "dag", "single", "gaussian"), ("t17", "dag", "joint", "tanh"),
    ("t17", "cycle", "single", "tanh"), ("t17", "cycle", "joint", "gaussian"),
    ("t17", "cycle", "partition", "gaussian"), ("t17", "dag", "single", "tanh"),
    ("t18", "dag", "single", "tanh"), ("t18", "dag", "joint", "gaussian"),
    ("t18", "cycle", "single", "gaussian"), ("t18", "cycle", "joint", "tanh"),
    ("t18", "cycle", "partition", "tanh"),
    ("t20", "dag", "single", "tanh"),
)


def dense_graph(hg, family: str, n_deciders: int, free: int, index: int):
    build = gen.dense_dag if family == "dag" else gen.dense_cycle
    return build(hg, n_deciders, free, index)


def dense_targets(g) -> tuple[str, str]:
    """(single target, second joint target): the executive, and the vertex
    listed just before it."""
    names = [v.id for v in g.vertices]
    ex = next(v.id for v in g.vertices if v.role == "executive")
    return ex, names[names.index(ex) - 1]


class DenseExact(Workload):
    """Per round: the eighteen queries of DENSE_MIX on near-complete DAGs
    and dense cyclic hierarchies with 16 to 20 free vertices; the seed picks
    the graph and the command vector of each."""

    name = "dense-exact"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.graphs = {}
        for tier, (nd, free, families, count, _) in DENSE_TIERS.items():
            for family in families:
                for i in range(count):
                    g = dense_graph(self.hg, family, nd, free, i)
                    key = f"{tier}/{family}/{i}"
                    if gen.graph_digest(g) != self.refs["graphs"][key]:
                        raise RuntimeError(f"generated graph {key} differs from its reference")
                    self.graphs[key] = g

    def round(self, r: int) -> list[Op]:
        hg, rng = self.hg, self.rng(r)
        ops = []
        for tier, family, query, mode in DENSE_MIX:
            nd, free, _, count, _ = DENSE_TIERS[tier]
            i = rng.randrange(count)
            code = rng.choice(DENSE_CONDS[nd])
            g = self.graphs[f"{tier}/{family}/{i}"]
            ref = self.refs["queries"][f"{tier}/{family}/{i}/{code}/{mode}"]
            cond = gen.command_vectors(v.id for v in g.vertices if v.role == "decider")[code]
            lam = frozenset(cond)
            params = hg.VoteParams(g.free_float, g.noise_sigma, mode)
            single, second = dense_targets(g)
            if query == "partition":
                run = (lambda g=g, lam=lam, cond=cond, params=params:
                       hg.partition_function(g, lam, cond, params))
                check = (lambda z, ref=ref: close(z, ref["partition"], relative=True))
            elif query == "single":
                run = (lambda g=g, lam=lam, cond=cond, params=params, t=single:
                       hg.conditional_influence(g, lam, {t}, cond, params))
                check = (lambda d, ref=ref, t=single: close(d.plus_prob(t), ref["single"]))
            else:
                targets = {single, second}
                run = (lambda g=g, lam=lam, cond=cond, params=params, t=targets:
                       hg.conditional_influence(g, lam, t, cond, params))
                check = (lambda d, ref=ref: all(
                    close(d.prob(dict(zip(ref["joint_order"], map(int, key.split(","))))), p)
                    for key, p in ref["joint"].items()))
            ops.append(Op(f"{tier}-{query}", run, check))
        rng.shuffle(ops)
        return ops


# ------------------------------------------------------------ forward-sample

# kind -> ((graph family, size), draws); variants differ in command and seed
SAMPLE_KINDS = {
    "crossed100": (("crossed", 100), 10_000),
    "arbo500": (("arbo", 500), 10_000),
    "crossed150": (("crossed", 150), 10_000),
    "chain1000": (("chain", 1000), 10_000),
    "arbo1000": (("arbo", 1000), 10_000),
    "arbo100": (("arbo", 100), 100_000),
    "chain2000": (("chain", 2000), 10_000),
    "chain3000": (("chain", 3000), 10_000),
}
# the fixed per-round mix: (kind, ops per round), cheapest first.  The
# counts put the median inside the arbo500 block and the p90 in the middle
# of the chain2000 block, away from any jump in cost between kinds.
SAMPLE_MIX = (("crossed100", 5), ("arbo500", 6), ("crossed150", 1), ("chain1000", 2),
              ("arbo1000", 1), ("arbo100", 1), ("chain2000", 3), ("chain3000", 1))
SAMPLE_VARIANTS = 4
CHAIN_FREE_FLOAT = 0.2


def sample_graph(hg, kind: str, variant: int):
    """Graph for one variant of a kind; arborescences alternate between two
    seeded trees, chains and crossed chains are fixed."""
    (family, size), _ = SAMPLE_KINDS[kind]
    if family == "chain":
        return hg.single_chain(size, free_float=CHAIN_FREE_FLOAT), f"{kind}"
    if family == "crossed":
        return hg.crossed_chains(size, size, size, size), f"{kind}"
    index = variant % 2
    return gen.wide_arborescence(hg, size, index), f"{kind}-{index}"


def sample_argv(g, path: Path, kind: str, variant: int) -> list[str]:
    """`hiergame sample` flags for one variant: the variant number picks
    the command vector and the sampling seed."""
    _, draws = SAMPLE_KINDS[kind]
    lam = sorted(v.id for v in g.vertices if v.role == "decider")
    cond = gen.command_vectors(lam)[variant % (1 << len(lam))]
    argv = ["sample", "--graph", str(path), "--samples", str(draws),
            "--seed", str(11 + variant // 2)]
    for v in lam:
        argv += ["--condition", f"{v}={cond[v]:+d}"]
    return argv


class ForwardSample(Workload):
    """Per round: the twenty in-process `hiergame sample` runs of
    SAMPLE_MIX on chains of 1000 to 3000 edges, crossed chains with arms of
    100 and 150 and wide arborescences, each loading and validating its JSON
    file first."""

    name = "forward-sample"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.instances = {}
        written = set()
        for kind in SAMPLE_KINDS:
            for variant in range(SAMPLE_VARIANTS):
                g, stem = sample_graph(self.hg, kind, variant)
                if gen.graph_digest(g) != self.refs["graphs"][stem]:
                    raise RuntimeError(f"generated graph {stem} differs from its reference")
                path = self.workdir / f"{stem}.json"
                if stem not in written:
                    self.hg.save_graph(g, path)
                    written.add(stem)
                self.instances[(kind, variant)] = (g, path)

    def _chain_check(self, g, kind: str, spin: int, freq: float) -> bool:
        """Executive frequency within 5 binomial standard errors of the
        closed-form chain conditional."""
        (_, length), draws = SAMPLE_KINDS[kind]
        gain = math.sqrt(2.0 / math.pi) / g.noise_sigma
        beta_j = gain * (1.0 - g.free_float) / g.free_float
        p = self.hg.chain_conditional(length, beta_j, spin, 1)
        return abs(freq - p) <= 5.0 * math.sqrt(p * (1.0 - p) / draws)

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = []
        for kind, count in SAMPLE_MIX:
            for _ in range(count):
                variant = rng.randrange(SAMPLE_VARIANTS)
                g, path = self.instances[(kind, variant)]
                argv = sample_argv(g, path, kind, variant)
                digest = self.refs["outputs"][f"{kind}/{variant}"]

                def check(result, digest=digest, kind=kind, g=g, argv=argv):
                    code, text = result
                    if code != 0 or sha256(text) != digest:
                        return False
                    if not kind.startswith("chain"):
                        return True
                    spin = int(argv[-1].split("=")[1])
                    return self._chain_check(g, kind, spin, json.loads(text)["freq_plus"]["1"])

                ops.append(Op(kind, lambda argv=argv: self.cli_run(argv), check))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (RegimeMap, SparseExact, DenseExact, ForwardSample)}
