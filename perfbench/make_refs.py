"""Produce the stored references in perfbench/refs/ (run once, from the
repository root):

    python3 perfbench/make_refs.py [workload ...]

Exact answers come from the independent brute force in tests/helpers.py:
its enumeration of every configuration and its weights, summed with
math.fsum in chunks instead of a running `+=`.  Over 2**19 terms a running
sum drifts by about 1e-12, as large as the gate, while the package's
blocked numpy sums stay within a few ulps of the exactly rounded value.
Sweep and sample references are SHA-256 digests of the CLI output at the
commit that made them; they gate byte identity.  Every package answer is compared with its
reference here too, and the worst difference is printed.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import helpers  # noqa: E402
import hiergame as hg  # noqa: E402
from hiergame import cli  # noqa: E402

import gen  # noqa: E402
import workloads as wl  # noqa: E402


def _sweep(argv):
    code, text = wl.run_cli(cli, ["sweep"] + argv)
    assert code == 0, argv
    return text


def regime_map() -> dict:
    grid = _sweep(["--vary", wl.Y_AXIS, "--vary", wl.X_AXIS])
    rows = {y: _sweep(["--vary", wl.X_AXIS, "--fix", f"y={y}"]) for y in wl.grid_ys()}
    stacked = rows[wl.grid_ys()[0]].split("\n", 1)[0] + "\n" + "".join(
        rows[y].split("\n", 1)[1] for y in wl.grid_ys())
    assert stacked == grid, "one-row sweeps do not stack into the full grid"
    chain_rows = {}
    for a, c in wl.CHAIN_ROWS:
        chain_rows[f"{a},{c}"] = wl.sha256(
            _sweep(["--vary", wl.CHAIN_BETA, "--fix", f"a={a}", "--fix", f"c={c}"]))
    return {
        "grid_flags": ["sweep", "--vary", wl.Y_AXIS, "--vary", wl.X_AXIS],
        "grid_sha256": wl.sha256(grid),
        "readme_chain_flags": wl.README_CHAIN,
        "readme_chain_sha256": wl.sha256(_sweep(wl.README_CHAIN[1:])),
        "rows": {y: wl.sha256(text) for y, text in rows.items()},
        "chain_rows": chain_rows,
    }


def _worst(pairs) -> float:
    return max(abs(a - b) for a, b in pairs)


def _transform_reference(tables) -> list[float]:
    """Two-decider Shapley transform of the prisoner's dilemma, written out
    from its definition: shares from the coalition values, expected base
    payoffs under independent executives."""
    pd = {(1, 1): (1.0, 1.0), (1, -1): (-3.0, 3.0), (-1, 1): (3.0, -3.0), (-1, -1): (-1.0, -1.0)}
    execs = ("1", "2")
    share = {}
    for i in execs:
        t = tables[i]
        span = 2.0 * t[(1, 1)] - 1.0
        z1 = (t[(1, -1)] - t[(-1, -1)]) / span  # coalition {d1}
        z2 = (t[(-1, 1)] - t[(-1, -1)]) / span  # coalition {d2}
        share[("d1", i)] = 0.5 * z1 + 0.5 * (1.0 - z2)
        share[("d2", i)] = 0.5 * z2 + 0.5 * (1.0 - z1)
    strategies = list(itertools.product((1, -1), repeat=2))
    out = []
    for s1, s2 in itertools.product(strategies, repeat=2):
        probs = [tables[i][(s1[k], s2[k])] for k, i in enumerate(execs)]
        expected = [0.0, 0.0]
        for outcome, u in pd.items():
            w = 1.0
            for p, spin in zip(probs, outcome):
                w *= p if spin == 1 else 1.0 - p
            expected[0] += w * u[0]
            expected[1] += w * u[1]
        for d in ("d1", "d2"):
            out.append(sum(share[(d, i)] * expected[k] for k, i in enumerate(execs)))
    return out


class _Sums:
    """Sums of many floats to within a few ulps: terms go to fixed-size
    chunks that are summed exactly with math.fsum."""

    CHUNK = 4096

    def __init__(self) -> None:
        self.open = defaultdict(list)
        self.done = defaultdict(list)

    def add(self, key, w: float) -> None:
        chunk = self.open[key]
        chunk.append(w)
        if len(chunk) == self.CHUNK:
            self.done[key].append(math.fsum(chunk))
            chunk.clear()

    def total(self, key) -> float:
        return math.fsum(self.done[key] + [math.fsum(self.open[key])])


def _configurations(vertices, condition):
    """Every spin assignment that extends `condition`, as in helpers."""
    free = [v for v in sorted(vertices) if v not in condition]
    for combo in itertools.product((1, -1), repeat=len(free)):
        spins = dict(condition)
        spins.update(zip(free, combo))
        yield spins


def brute_vote(g, condition, mode, targets) -> dict:
    """Partition sum and, for each target, P(target = +1), with the weights
    of helpers.product_weight; also the joint table of the first two."""
    sums = _Sums()
    pair = sorted(targets[:2])
    for spins in _configurations(g.vertex_ids, condition):
        w = helpers.product_weight(g, spins, mode)
        sums.add("z", w)
        for t in targets:
            if spins[t] == 1:
                sums.add(t, w)
        if len(pair) == 2:
            sums.add((spins[pair[0]], spins[pair[1]]), w)
    z = sums.total("z")
    out = {"partition": z, "plus": {t: sums.total(t) / z for t in targets}}
    if len(pair) == 2:
        out["joint_order"] = pair
        out["joint"] = {f"{a},{b}": sums.total((a, b)) / z
                        for a, b in itertools.product((1, -1), repeat=2)}
    return out


def brute_ising(couplings, beta, target, condition) -> float:
    """helpers.brute_ising_conditional with exactly summed weights."""
    vertices = {u for u, _, _ in couplings} | {v for _, v, _ in couplings}
    sums = _Sums()
    for spins in _configurations(vertices, condition):
        energy = sum(j * spins[u] * spins[v] for u, v, j in couplings)
        w = math.exp(beta * energy)
        sums.add("z", w)
        if spins[target] == 1:
            sums.add("plus", w)
    return sums.total("plus") / sums.total("z")


def _corridor_couplings(model, arms: int, executive: str):
    """Couplings of the two chains that meet at `executive`; with both
    deciders fixed the other two chains factor out of the ratio."""
    prefixes = ("p", "r") if executive == "1" else ("q", "s")
    keep = {"d1", "d2", executive} | {f"{p}{k}" for p in prefixes for k in range(1, arms)}
    return [(u, v, j) for u, v, j in model.couplings if u in keep and v in keep]


def sparse_exact() -> dict:
    vectors = gen.command_vectors(["d1", "d2"])
    crossed, tables, diffs = {}, {}, []
    for arms in sorted(set(wl.CROSSED_ARMS) | set(wl.TRANSFORM_ARMS)):
        g = wl.crossed(hg, arms)
        params = hg.VoteParams.from_graph(g)
        tables[arms] = {"1": {}, "2": {}}
        for code, cond in enumerate(vectors):
            plus = brute_vote(g, cond, "tanh", ["1", "2"])["plus"]
            for ex in ("1", "2"):
                ref = plus[ex]
                crossed[f"{arms}/{ex}/{code}"] = ref
                tables[arms][ex][(cond["d1"], cond["d2"])] = ref
                got = hg.conditional_influence(g, {"d1", "d2"}, {ex}, cond, params).plus_prob(ex)
                diffs.append((got, ref))
    random_refs, graphs = {}, {}
    for family, free, _ in wl.SPARSE_RANDOM:
        for i in range(wl.SPARSE_POOL):
            g = gen.sparse_graph(hg, family, free, i)
            graphs[f"{family}{free}/{i}"] = gen.graph_digest(g)
            params = hg.VoteParams.from_graph(g)
            for q in range(2):
                cond, target = gen.sparse_query(g, family, free, i, q)
                ref = brute_vote(g, cond, "tanh", [target])["plus"][target]
                random_refs[f"{family}{free}/{i}/{q}"] = ref
                got = hg.conditional_influence(g, set(cond), {target}, cond, params)
                diffs.append((got.plus_prob(target), ref))
    transform = {}
    for arms in wl.TRANSFORM_ARMS:
        ref = _transform_reference(tables[arms])
        g = wl.crossed(hg, arms)
        tg = hg.transform_game(hg.prisoners_dilemma(), g, hg.VoteParams.from_graph(g))
        diffs += list(zip(tg.payoffs.ravel().tolist(), ref))
        transform[str(arms)] = ref
    ising = {}
    for arms in wl.ISING_ARMS:
        model = hg.coupling_from_hierarchy(wl.crossed(hg, arms))
        for ex in ("1", "2"):
            couplings = _corridor_couplings(model, arms, ex)
            for code, cond in enumerate(vectors):
                ref = brute_ising(couplings, model.beta, ex, cond)
                ising[f"{arms}/{ex}/{code}"] = ref
                diffs.append((hg.ising_conditional(model, ex, cond), ref))
    print(f"sparse-exact: worst difference {_worst(diffs):.3g} over {len(diffs)} answers")
    return {"crossed": crossed, "random": random_refs, "graphs": graphs,
            "transform": transform, "ising": ising}


def dense_exact() -> dict:
    graphs, queries, diffs = {}, {}, []
    for tier, (nd, free, families, count, modes) in wl.DENSE_TIERS.items():
        for family in families:
            for i in range(count):
                t0 = time.perf_counter()
                g = wl.dense_graph(hg, family, nd, free, i)
                graphs[f"{tier}/{family}/{i}"] = gen.graph_digest(g)
                single, second = wl.dense_targets(g)
                lam = sorted(v.id for v in g.vertices if v.role == "decider")
                for code in wl.DENSE_CONDS[nd]:
                    cond = gen.command_vectors(lam)[code]
                    for mode in modes:
                        full = brute_vote(g, cond, mode, [single, second])
                        ref = {"partition": full["partition"], "single": full["plus"][single],
                               "joint_order": full["joint_order"], "joint": full["joint"]}
                        queries[f"{tier}/{family}/{i}/{code}/{mode}"] = ref
                        params = hg.VoteParams(g.free_float, g.noise_sigma, mode)
                        got = hg.conditional_influence(g, set(cond), {single, second}, cond, params)
                        diffs.append((got.plus_prob(single), ref["single"]))
                        for key, p in ref["joint"].items():
                            spins = dict(zip(ref["joint_order"], map(int, key.split(","))))
                            diffs.append((got.prob(spins), p))
                        z = hg.partition_function(g, set(cond), cond, params)
                        diffs.append((z / ref["partition"], 1.0))
                print(f"  {tier}/{family}/{i}: {time.perf_counter() - t0:.0f} s", flush=True)
    print(f"dense-exact: worst difference {_worst(diffs):.3g} over {len(diffs)} answers")
    return {"graphs": graphs, "queries": queries}


def forward_sample() -> dict:
    graphs, outputs = {}, {}
    workdir = ROOT / ".perfbench_out" / "refs-work"
    workdir.mkdir(parents=True, exist_ok=True)
    for kind in wl.SAMPLE_KINDS:
        for variant in range(wl.SAMPLE_VARIANTS):
            g, stem = wl.sample_graph(hg, kind, variant)
            graphs[stem] = gen.graph_digest(g)
            path = workdir / f"{stem}.json"
            hg.save_graph(g, path)
            code, text = wl.run_cli(cli, wl.sample_argv(g, path, kind, variant))
            assert code == 0
            outputs[f"{kind}/{variant}"] = wl.sha256(text)
    return {"graphs": graphs, "outputs": outputs}


BUILDERS = {"regime-map": regime_map, "sparse-exact": sparse_exact,
            "dense-exact": dense_exact, "forward-sample": forward_sample}


def main(names) -> None:
    (HERE / "refs").mkdir(exist_ok=True)
    for name in names or BUILDERS:
        t0 = time.perf_counter()
        data = BUILDERS[name]()
        with open(HERE / "refs" / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: written in {time.perf_counter() - t0:.0f} s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
