"""Single-vote curves, exact conditionals, partition sums, and the sampler."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hiergame as hg
from hiergame import HierarchyGraph, Vertex, Edge, VoteParams
from hiergame import elimination, vote
from hiergame.vote import _prune_barren

import helpers

TANH1 = VoteParams.from_beta(1.0, 0.5)
GAUSS1 = VoteParams(0.5, 1.0, mode="gaussian")


def gaussian_cdf_quadrature(z: float, steps: int = 200_001) -> float:
    """Simpson integration of the standard normal density on [0, z]."""
    if z < 0:
        return 1.0 - gaussian_cdf_quadrature(-z, steps)
    xs = np.linspace(0.0, z, steps)
    ys = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    h = xs[1] - xs[0]
    acc = ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()
    return 0.5 + acc * h / 3.0


def test_params_validation():
    with pytest.raises(ValueError):
        VoteParams(0.0, 1.0)
    with pytest.raises(ValueError):
        VoteParams(1.0, 1.0)
    with pytest.raises(ValueError):
        VoteParams(0.5, 0.0)
    with pytest.raises(ValueError):
        VoteParams(0.5, 1.0, mode="fuzzy")
    with pytest.raises(ValueError):
        hg.sigma_for_beta(0.0)
    # sqrt(2/pi)/sigma overflows: a field of 0 would meet an infinite gain
    # and give NaN
    with pytest.raises(ValueError, match="gain"):
        VoteParams(0.5, 1e-320)
    assert math.isfinite(VoteParams(0.5, 2.3e-308).gain)


def test_gain_round_trip():
    for beta in (0.1, 0.5, 1.0, 2.0, 7.3):
        assert VoteParams.from_beta(beta, 0.5).gain == pytest.approx(beta, abs=1e-15)
    assert VoteParams(0.5, math.sqrt(2.0 / math.pi)).gain == pytest.approx(1.0, abs=1e-15)


def test_single_vote_balanced_field_is_half():
    weights = {"a": 0.5, "b": 0.5}
    commands = {"a": 1, "b": -1}
    assert hg.single_vote_prob(weights, commands, TANH1) == 0.5
    assert hg.single_vote_prob(weights, commands, GAUSS1) == 0.5


def test_single_vote_tanh_unit_field():
    # one predecessor, weight 1, command +1, D=1/2, gain 1
    p = hg.single_vote_prob({"a": 1.0}, {"a": 1}, TANH1)
    assert p == pytest.approx(0.5 + 0.5 * math.tanh(1.0), abs=1e-15)
    assert p == pytest.approx(0.8807970779778823, abs=1e-15)


def test_single_vote_gaussian_against_quadrature():
    p = hg.single_vote_prob({"a": 1.0}, {"a": 1}, GAUSS1)
    assert p == pytest.approx(gaussian_cdf_quadrature(1.0), abs=1e-10)
    assert p == pytest.approx(0.841344746068543, abs=1e-12)
    # tanh with matched noise width stays close to the exact curve
    p_tanh = hg.single_vote_prob({"a": 1.0}, {"a": 1}, VoteParams(0.5, 1.0))
    assert abs(p_tanh - p) < 0.02


def test_tanh_tracks_gaussian_across_fields():
    for c in np.linspace(-3.0, 3.0, 25):
        pt = hg.outcome_probability(1, c, VoteParams(0.5, 1.0))
        pg = hg.outcome_probability(1, c, GAUSS1)
        assert abs(float(pt) - float(pg)) < 0.02


def test_single_vote_input_errors():
    with pytest.raises(ValueError):
        hg.single_vote_prob({}, {}, TANH1)
    with pytest.raises(ValueError):
        hg.single_vote_prob({"a": 1.0}, {}, TANH1)
    with pytest.raises(ValueError):
        hg.single_vote_prob({"a": 1.0}, {"a": 2}, TANH1)
    with pytest.raises(ValueError):
        hg.single_vote_prob({"a": 0.4}, {"a": 1}, TANH1)
    with pytest.raises(ValueError, match="sum to 1"):  # off by more than WEIGHT_TOL
        hg.single_vote_prob({"a": 0.5, "b": 0.5 + 1e-10}, {"a": 1, "b": 1}, TANH1)


def test_single_vote_monotone_in_field():
    fields = np.linspace(-4.0, 4.0, 41)
    for params in (TANH1, GAUSS1):
        probs = [float(hg.outcome_probability(1, c, params)) for c in fields]
        assert all(b > a for a, b in zip(probs, probs[1:]))


def test_one_step_graph_reduces_to_single_vote():
    g = hg.single_chain(1)
    params = VoteParams.from_graph(g)
    dist = hg.conditional_influence(g, {"d1"}, {"1"}, {"d1": 1}, params)
    assert dist.plus_prob("1") == pytest.approx(
        hg.single_vote_prob({"d1": 1.0}, {"d1": 1}, params), abs=1e-15)


def test_conditional_matches_brute_force_on_random_dags():
    rng = random.Random(42)
    for _ in range(12):
        g = helpers.random_dag(rng, rng.randint(3, 8))
        mode = rng.choice(["tanh", "gaussian"])
        params = VoteParams.from_graph(g, mode=mode)
        lam = sorted(hg.deciders(g))
        condition = {v: rng.choice((1, -1)) for v in lam}
        targets = sorted(set(g.vertex_ids) - set(lam))
        target = rng.choice(targets)
        dist = hg.conditional_influence(g, set(lam), {target}, condition, params)
        expected = helpers.brute_vote_conditional(g, target, condition, mode)
        assert dist.plus_prob(target) == pytest.approx(expected, abs=1e-12)


def test_joint_conditional_matches_brute_force():
    rng = random.Random(9)
    g = helpers.random_dag(rng, 7)
    params = VoteParams.from_graph(g)
    lam = sorted(hg.deciders(g))
    condition = {v: 1 for v in lam}
    rest = sorted(set(g.vertex_ids) - set(lam))
    b = rest[:2]
    dist = hg.conditional_influence(g, set(lam), set(b), condition, params)
    free = [v for v in sorted(g.vertex_ids) if v not in condition]
    total = 0.0
    for outcome, prob in dist.outcomes():
        num = 0.0
        den = 0.0
        for combo in itertools.product((1, -1), repeat=len(free)):
            spins = dict(condition)
            spins.update(zip(free, combo))
            w = helpers.product_weight(g, spins, "tanh")
            den += w
            if all(spins[v] == outcome[v] for v in b):
                num += w
        assert prob == pytest.approx(num / den, abs=1e-12)
        total += prob
    assert total == pytest.approx(1.0, abs=1e-12)


def test_forward_marginals_match_enumeration_on_trees():
    # on a tree the predecessors of any join are independent given the
    # deciders, so plain marginal propagation is exact
    rng = random.Random(77)
    for _ in range(10):
        g = helpers.random_tree(rng, rng.randint(3, 10))
        params = VoteParams.from_graph(g)
        lam = sorted(hg.deciders(g))
        condition = {v: rng.choice((1, -1)) for v in lam}

        marginal: dict[str, float] = {}
        order = [v for v in _topo(g) if v not in condition]
        for v in order:
            preds = g.pred_map[v]
            p_plus = 0.0
            for combo in itertools.product((1, -1), repeat=len(preds)):
                w_combo = 1.0
                field = 0.0
                for (u, w), s in zip(preds, combo):
                    if u in condition:
                        prob_u = 1.0 if s == condition[u] else 0.0
                    else:
                        prob_u = marginal[u] if s == 1 else 1.0 - marginal[u]
                    w_combo *= prob_u
                    field += w * s
                if w_combo == 0.0:
                    continue
                p_plus += w_combo * helpers.response(1, params.command_scale * field,
                                                     params.mode, params.noise_sigma)
            marginal[v] = p_plus

        for i in sorted(hg.executives(g)):
            dist = hg.conditional_influence(g, set(lam), {i}, condition, params)
            assert dist.plus_prob(i) == pytest.approx(marginal[i], abs=1e-12)


def _topo(g: HierarchyGraph):
    indeg = {v: len(g.pred_map[v]) for v in g.vertex_ids}
    ready = sorted(v for v, d in indeg.items() if d == 0)
    out = []
    while ready:
        v = ready.pop(0)
        out.append(v)
        for nxt, _ in g.succ_map[v]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
                ready.sort()
    return out


def test_spin_flip_symmetry_is_exact():
    rng = random.Random(3)
    for mode in ("tanh", "gaussian"):
        g = helpers.random_dag(rng, 6)
        params = VoteParams.from_graph(g, mode=mode)
        lam = sorted(hg.deciders(g))
        condition = {v: rng.choice((1, -1)) for v in lam}
        flipped = {v: -s for v, s in condition.items()}
        target = sorted(set(g.vertex_ids) - set(lam))[-1]
        d1 = hg.conditional_influence(g, set(lam), {target}, condition, params)
        d2 = hg.conditional_influence(g, set(lam), {target}, flipped, params)
        assert d1.prob({target: 1}) == d2.prob({target: -1})
        assert d1.prob({target: -1}) == d2.prob({target: 1})
        # the single-vertex response itself is exactly odd around 1/2
        for c in (0.0, 0.3, 1.7, -2.2):
            assert hg.outcome_probability(1, c, params) == \
                hg.outcome_probability(-1, -c, params)


def test_unconditioned_distribution_is_symmetric():
    g = three_cycle(1.0)
    for mode in ("tanh", "gaussian"):
        params = VoteParams(free_float=0.5, noise_sigma=1.0, mode=mode)
        dist = hg.conditional_influence(g, set(), set(g.vertex_ids), {}, params)
        for spins, prob in dist.outcomes():
            assert prob == dist.prob({v: -s for v, s in spins.items()})


def test_noise_dominates_limit():
    g = hg.crossed_chains()
    params = VoteParams.from_beta(1e-9, 0.5)
    dist = hg.conditional_influence(g, {"d1", "d2"}, {"1", "2"},
                                    {"d1": 1, "d2": -1}, params)
    for _, prob in dist.outcomes():
        assert prob == pytest.approx(0.25, abs=1e-9)


def test_benchmark_x_equals_closed_form():
    # equal arm lengths: the disagreeing-command conditional is exactly 1/2
    g = hg.crossed_chains()
    params = VoteParams.from_graph(g)
    dist = hg.conditional_influence(g, {"d1", "d2"}, {"1"}, {"d1": -1, "d2": 1}, params)
    x_closed, _ = hg.chain_xy(4, 4, 1.0)
    assert dist.plus_prob("1") == pytest.approx(x_closed, abs=1e-12)


def test_partition_is_one_on_dags():
    params = VoteParams.from_beta(1.0, 0.5)
    g = hg.single_chain(5)
    assert hg.partition_function(g, {"d1"}, {"d1": 1}, params) == pytest.approx(1.0, abs=1e-12)
    g2 = hg.crossed_chains()
    assert hg.partition_function(g2, {"d1", "d2"}, {"d1": 1, "d2": -1},
                                 params) == pytest.approx(1.0, abs=1e-12)
    rng = random.Random(11)
    for _ in range(6):
        gr = helpers.random_dag(rng, rng.randint(3, 8))
        pr = VoteParams.from_graph(gr)
        cond = {v: rng.choice((1, -1)) for v in hg.deciders(gr)}
        assert hg.partition_function(gr, hg.deciders(gr), cond, pr) == \
            pytest.approx(1.0, abs=1e-12)


def three_cycle(sigma: float, free_float: float = 0.5) -> HierarchyGraph:
    return HierarchyGraph(
        (Vertex("a", "agent"), Vertex("b", "agent"), Vertex("c", "agent")),
        (Edge("a", "b", 1.0), Edge("b", "c", 1.0), Edge("c", "a", 1.0)),
        free_float, sigma)


def test_cyclic_partition_matches_eight_term_sum():
    for mode in ("tanh", "gaussian"):
        g = three_cycle(hg.sigma_for_beta(1.0))
        params = VoteParams.from_graph(g, mode=mode)
        z = hg.partition_function(g, set(), {}, params)
        assert z == pytest.approx(helpers.brute_vote_partition(g, {}, mode), abs=1e-12)
        assert abs(z - 1.0) > 1e-3  # genuinely nontrivial on a cycle


def test_cyclic_distribution_matches_brute_force():
    g = three_cycle(hg.sigma_for_beta(1.0))
    params = VoteParams.from_graph(g)
    dist = hg.conditional_influence(g, set(), {"a", "b", "c"}, {}, params)
    total = 0.0
    for outcome, prob in dist.outcomes():
        cond = dict(outcome)
        w = helpers.product_weight(g, cond, "tanh")
        z = helpers.brute_vote_partition(g, {}, "tanh")
        assert prob == pytest.approx(w / z, abs=1e-12)
        total += prob
    assert total == pytest.approx(1.0, abs=1e-12)


def test_mid_graph_conditioning_is_flagged():
    g = hg.single_chain(4)
    params = VoteParams.from_graph(g)
    dist = hg.conditional_influence(g, {"u2"}, {"1"}, {"u2": 1}, params)
    assert any("mid-graph" in note for note in dist.notes)
    full = hg.conditional_influence(g, {"d1"}, {"1"}, {"d1": 1}, params)
    assert full.notes == ()


def test_mid_graph_conditional_uses_normalized_sum():
    g = hg.single_chain(4)
    params = VoteParams.from_graph(g)
    dist = hg.conditional_influence(g, {"u2"}, {"1"}, {"u2": 1}, params)
    expected = helpers.brute_vote_conditional(g, "1", {"u2": 1})
    assert dist.plus_prob("1") == pytest.approx(expected, abs=1e-12)


def test_pruned_conditional_matches_brute_force():
    # trees, DAGs and cyclic digraphs under decider, mid-graph and empty
    # conditions, with single and joint targets
    rng = random.Random(2024)
    pruned = 0
    for k in range(24):
        make = (helpers.random_tree, helpers.random_dag, helpers.random_digraph)[k % 3]
        g = make(rng, rng.randint(5, 10))
        mode = rng.choice(["tanh", "gaussian"])
        params = VoteParams.from_graph(g, mode=mode)
        ids = sorted(g.vertex_ids)
        kind = k // 3 % 3  # every family meets every kind of condition
        a = (sorted(hg.deciders(g)) if kind == 0
             else rng.sample(ids, rng.randint(1, 3)) if kind == 1 else [])
        rest = [v for v in ids if v not in a]
        b = rng.sample(rest, 1 + k % 2)
        condition = {v: rng.choice((1, -1)) for v in a}
        dist = hg.conditional_influence(g, set(a), set(b), condition, params)
        expected = helpers.brute_vote_joint(g, list(dist.vertices), condition, mode)
        for key, prob in expected.items():
            assert dist.table[key] == pytest.approx(prob, abs=1e-12)
        kept, _ = _prune_barren(g, frozenset(a) | frozenset(b))
        pruned += len(kept) < len(g.vertices)
    assert pruned >= 12


def test_pruned_partition_counts_free_deciders():
    # free deciders that get pruned carry no factor and sum to 2 each
    rng = random.Random(77)
    free_roots = 0
    for k in range(12):
        make = (helpers.random_dag, helpers.random_digraph)[k % 2]
        g = make(rng, rng.randint(4, 9))
        mode = rng.choice(["tanh", "gaussian"])
        params = VoteParams.from_graph(g, mode=mode)
        a = rng.sample(sorted(g.vertex_ids), rng.randint(0, 3))
        condition = {v: rng.choice((1, -1)) for v in a}
        z = hg.partition_function(g, set(a), condition, params)
        assert z == pytest.approx(helpers.brute_vote_partition(g, condition, mode), rel=1e-12)
        free_roots += _prune_barren(g, frozenset(a))[1]
    assert free_roots > 0
    g = helpers.random_dag(rng, 9)
    assert hg.partition_function(g, set(), {}, VoteParams.from_graph(g)) == \
        2.0 ** len(hg.deciders(g))


def test_enumeration_cap():
    # the cap bounds log2 of the largest table elimination needs; on a
    # complete DAG every free vertex meets every other one, so the last
    # vertex needs a table over all 14
    g = helpers.complete_dag(14)
    params = VoteParams.from_graph(g)
    lam = {"d0", "d1"}
    cond = {"d0": 1, "d1": 1}
    with pytest.raises(hg.EnumerationCapError):
        hg.conditional_influence(g, lam, {"v13"}, cond, params, cap=13)
    hg.conditional_influence(g, lam, {"v13"}, cond, params, cap=14)
    # target "v6": v13, then v12, ..., then v7 go, leaving a table over 7
    hg.conditional_influence(g, lam, {"v6"}, cond, params, cap=7)
    # a factor over 300 spins trips the cap before any elimination
    # bookkeeping; no cap means DEFAULT_CAP
    big = helpers.complete_dag(300)
    with pytest.raises(hg.EnumerationCapError,
                       match=f"300 spins, above the enumeration cap {elimination.DEFAULT_CAP}$"):
        hg.conditional_influence(big, lam, {"v299"}, cond, VoteParams.from_graph(big))


def test_cap_trip_allocates_nothing_exponential():
    # a cold query over the cap is refused before any table is built: the
    # last of 27 free vertices of a complete DAG would need 2^28 entries
    # alone, and the refusal, layout and plan check included, peaks under 1 MB
    g = helpers.complete_dag(27)
    params = VoteParams.from_graph(g)
    cond = {"d0": 1, "d1": 1}
    tracemalloc.start()
    try:
        with pytest.raises(hg.EnumerationCapError):
            hg.conditional_influence(g, set(cond), {"v26"}, cond, params, cap=22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_cap_below_one_is_refused():
    # a cap below 1 is bad input, not a sum over the cap
    g = hg.crossed_chains()
    params = VoteParams.from_graph(g)
    lam, cond = {"d1", "d2"}, {"d1": 1, "d2": 1}
    model = hg.coupling_from_hierarchy(g)
    for cap in (0, -3):
        refused = pytest.raises(ValueError, match=f"enumeration cap must be at least 1, got {cap}")
        with refused:
            hg.conditional_influence(g, lam, {"1"}, cond, params, cap=cap)
        with refused:
            hg.partition_function(g, lam, cond, params, cap=cap)
        with refused:
            hg.ising_conditional(model, "1", cond, cap)
        with refused:
            hg.ising_joint(model, ["1", "2"], cond, cap)
    # 1 is a cap, though no elimination step of this graph fits under it
    with pytest.raises(hg.EnumerationCapError):
        hg.conditional_influence(g, lam, {"1"}, cond, params, cap=1)


def test_long_chain_conditional_is_exact():
    # a chain's elimination tables have two spins at most, whatever its length
    for beta, free_float in ((5.0, 0.5), (3.0, 0.3)):
        g = hg.single_chain(3000, free_float=free_float, noise_sigma=hg.sigma_for_beta(beta))
        params = VoteParams.from_graph(g)
        beta_j = params.gain * params.command_scale
        for spin in (1, -1):
            dist = hg.conditional_influence(g, {"d1"}, {"1"}, {"d1": spin}, params)
            assert dist.plus_prob("1") == pytest.approx(
                hg.chain_conditional(3000, beta_j, spin, 1), abs=1e-12)


def test_eliminated_sums_match_brute_force():
    # DAGs and cyclic digraphs of 8 to 12 vertices with extra edges that
    # widen the elimination tables; decider, mid-graph and empty conditions;
    # single and joint targets and the partition sum, in both modes
    rng = random.Random(4242)
    for k in range(18):
        make = (helpers.random_dag, helpers.random_digraph)[k % 2]
        g = make(rng, rng.randint(8, 12), extra=rng.randint(2, 8))
        mode = ("tanh", "gaussian")[k // 2 % 2]
        params = VoteParams.from_graph(g, mode=mode)
        ids = sorted(g.vertex_ids)
        kind = k // 4 % 3
        a = (sorted(hg.deciders(g)) if kind == 0
             else rng.sample(ids, rng.randint(1, 3)) if kind == 1 else [])
        condition = {v: rng.choice((1, -1)) for v in a}
        rest = [v for v in ids if v not in a]
        b = rng.sample(rest, 1 + k % 3 // 2)
        dist = hg.conditional_influence(g, set(a), set(b), condition, params)
        expected = helpers.brute_vote_joint(g, list(dist.vertices), condition, mode)
        for key, prob in expected.items():
            assert dist.table[key] == pytest.approx(prob, abs=1e-12)
        z = hg.partition_function(g, set(a), condition, params)
        assert z == pytest.approx(helpers.brute_vote_partition(g, condition, mode), rel=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(family=st.sampled_from(["tree", "dag", "digraph"]), n=st.integers(3, 10),
       kind=st.integers(0, 2), mode=st.sampled_from(["tanh", "gaussian"]),
       rng=st.randoms(use_true_random=False))
def test_eliminated_sums_match_brute_force_property(family, n, kind, mode, rng):
    # random small trees, DAGs and digraphs under decider, mid-graph and empty
    # conditions: single and joint conditionals and the partition sum
    make = {"tree": helpers.random_tree, "dag": helpers.random_dag,
            "digraph": helpers.random_digraph}[family]
    g = make(rng, n)
    params = VoteParams.from_graph(g, mode=mode)
    ids = sorted(g.vertex_ids)
    a = (sorted(hg.deciders(g)) if kind == 0
         else rng.sample(ids, rng.randint(1, n - 2)) if kind == 1 else [])
    condition = {v: rng.choice((1, -1)) for v in a}
    rest = [v for v in ids if v not in a]
    target = rng.choice(rest)
    dist = hg.conditional_influence(g, set(a), {target}, condition, params)
    assert dist.plus_prob(target) == pytest.approx(
        helpers.brute_vote_conditional(g, target, condition, mode), abs=1e-12)
    if len(rest) >= 2:
        dist = hg.conditional_influence(g, set(a), set(rng.sample(rest, 2)), condition, params)
        expected = helpers.brute_vote_joint(g, list(dist.vertices), condition, mode)
        for key, prob in expected.items():
            assert dist.table[key] == pytest.approx(prob, abs=1e-12)
    z = hg.partition_function(g, set(a), condition, params)
    assert z == pytest.approx(helpers.brute_vote_partition(g, condition, mode), rel=1e-12)


def _count_wide_steps(monkeypatch) -> list:
    """Record the output rank of every wide (broadcast) step run."""
    taken = []
    run = elimination._Broadcast.run

    def counted(step, made):
        taken.append(len(step.shape))
        return run(step, made)

    monkeypatch.setattr(elimination._Broadcast, "run", counted)
    return taken


def test_wide_steps_match_brute_force(monkeypatch):
    # dense random DAGs and cyclic digraphs with 13 free vertices, whose
    # elimination takes steps over at least _PAIRWISE_SPINS spins: single and
    # joint conditionals and (on cycles) the partition sum, both modes, under
    # sign-canonical and flipped commands
    wide = _count_wide_steps(monkeypatch)
    rng = random.Random(9090)
    cases = ((helpers.random_dag, 75, "tanh", 1), (helpers.random_dag, 75, "gaussian", -1),
             (helpers.random_digraph, 60, "tanh", -1), (helpers.random_digraph, 60, "gaussian", 1))
    for make, extra, mode, first in cases:
        g = make(rng, 14, extra=extra)
        params = VoteParams.from_graph(g, mode=mode)
        order = g.topological_order or sorted(g.vertex_ids)
        a = sorted(hg.deciders(g)) or rng.sample(order, 1)
        condition = {v: rng.choice((1, -1)) for v in a}
        condition[a[0]] = first
        rest = [v for v in order if v not in condition]
        assert len(rest) == 13
        t1, t2 = rest[-1], rest[-2]
        expected = helpers.brute_vote_joint(g, [t1, t2], condition, mode)
        wide.clear()
        dist = hg.conditional_influence(g, set(a), {t1}, condition, params)
        assert wide
        plus = sum(p for key, p in expected.items() if key[0] == 1)
        assert dist.plus_prob(t1) == pytest.approx(plus, abs=1e-12)
        wide.clear()
        dist = hg.conditional_influence(g, set(a), {t1, t2}, condition, params)
        assert wide
        for (s1, s2), p in expected.items():
            assert dist.prob({t1: s1, t2: s2}) == pytest.approx(p, abs=1e-12)
        if g.topological_order is None:
            wide.clear()
            z = hg.partition_function(g, set(a), condition, params)
            assert wide
            assert z == pytest.approx(helpers.brute_vote_partition(g, condition, mode), rel=1e-12)
    # twelve targets on the last graph: the last step is itself wide and lays its
    # twelve key axes out in the result's order
    wide.clear()
    targets = set(rest[1:])
    dist = hg.conditional_influence(g, set(a), targets, condition, params)
    assert 12 in wide
    expected = helpers.brute_vote_joint(g, list(dist.vertices), condition, mode)
    for key, p in expected.items():
        assert dist.table[key] == pytest.approx(p, abs=1e-12)


def test_warm_sums_search_no_contraction_path(monkeypatch):
    # plans are compiled once per structure: a warm conditional with wide
    # steps calls no einsum path search and repeats the cold answer
    wide = _count_wide_steps(monkeypatch)
    g = helpers.random_digraph(random.Random(9092), 14, extra=60)
    params = VoteParams.from_graph(g)
    a = {sorted(g.vertex_ids)[0]}
    target = {sorted(g.vertex_ids)[-1]}
    elimination._elimination_plan.cache_clear()
    cold = hg.conditional_influence(g, a, target, dict.fromkeys(a, 1), params)
    assert wide

    def searched(*args, **kwargs):
        raise AssertionError("einsum_path called on a warm sum")

    monkeypatch.setattr(np, "einsum_path", searched)
    monkeypatch.setattr(np._core.einsumfunc, "einsum_path", searched)
    warm = hg.conditional_influence(g, a, target, dict.fromkeys(a, 1), params)
    assert warm.table == cold.table and warm.partition == cold.partition


def test_einsum_subscripts_repeat_sublist_calls(monkeypatch):
    # every narrow step's compiled subscripts give the bytes of the sublist
    # call they stand for, on seeded sparse and dense graphs and crossed
    # chains: single, joint and partition sums, both modes
    rng = random.Random(9095)
    graphs = [hg.crossed_chains(k, k, k, k) for k in (3, 4, 5)]
    graphs += [helpers.random_tree(rng, 14) for _ in range(2)]
    graphs += [helpers.random_dag(rng, 14) for _ in range(2)]
    graphs += [helpers.random_dag(rng, 12, extra=40), helpers.random_digraph(rng, 12, extra=30)]
    run = elimination._Einsum.run
    steps = []

    def checked(step, made):
        operands = [made[f] for f in step.inputs]
        *ins, out = (tuple(map(elimination._LETTERS.index, part))
                     for part in step.subscripts.replace("->", ",").split(","))
        sublist_call = np.einsum(*itertools.chain(*zip(operands, ins)), out, optimize=False)
        result = run(step, made)
        assert result.shape == sublist_call.shape
        assert result.tobytes() == sublist_call.tobytes(), step.subscripts
        steps.append(step.subscripts)
        return result

    monkeypatch.setattr(elimination._Einsum, "run", checked)
    elimination._elimination_plan.cache_clear()
    try:
        for g in graphs:
            ids = sorted(g.vertex_ids)
            a = sorted(hg.deciders(g)) or ids[:1]
            rest = [v for v in (g.topological_order or ids) if v not in a]
            condition = {v: rng.choice((1, -1)) for v in a}
            for mode in ("tanh", "gaussian"):
                params = VoteParams.from_graph(g, mode=mode)
                for b in (rest[-1:], rest[-2:], []):
                    vote._vote_sum(vote._vote_layout(g, frozenset(a), frozenset(b)),
                                   condition, params)
    finally:
        elimination._elimination_plan.cache_clear()
    assert len(steps) >= 80 and any("," in subscripts for subscripts in steps)


def test_sums_over_unheld_keys_are_pinned():
    # a key that no factor mentions takes either spin freely: sums with such
    # keys before, between and after the held keys, with no factor at all,
    # and in a wide final step keep their pinned bytes
    rng = np.random.default_rng(9096)
    cases = [([("a", "b"), ("b", "c")], ("z", "a")),
             ([("a", "b"), ("b", "c")], ("a", "z", "c")),
             ([("a", "b"), ("b", "c"), ("c",)], ("c", "y", "z")),
             ([("a", "b")], ("z",)),
             ([], ("y", "z")),
             ([(f"s{i}", f"s{i + 1}") for i in range(9)],
              ("y",) + tuple(f"s{i}" for i in range(10)) + ("z",))]
    h = hashlib.sha256()
    for scopes, keys in cases:
        tables = [rng.random((2,) * len(scope)) for scope in scopes]
        plan = elimination._elimination_plan(tuple(scopes), keys, elimination.DEFAULT_CAP)
        assert plan.unheld == sum(k not in set().union(*scopes) for k in keys) > 0
        summed = elimination.sum_product(scopes, lambda: list(tables), keys)
        assert summed.shape == (1 << len(keys),)
        h.update(summed.tobytes())
    assert h.hexdigest() == "fe1b91edac8555ec083affe8911af3c2d40420e905c708261c6243219cd04756"


def _wide_sums(monkeypatch, queries: list, tiled: bool) -> tuple[list, list]:
    """Each query's `_vote_sum` bytes from freshly compiled plans, tiled as
    planned or (`tiled` False) never, and the tiled product count of every
    wide step run; each step's result must be C-contiguous, in label order."""
    if not tiled:
        monkeypatch.setattr(elimination, "_tile", lambda *args: None)
    counts = []
    run = elimination._Broadcast.run

    def checked(step, made):
        out = run(step, made)
        assert out.shape == step.shape and out.flags.c_contiguous
        counts.append(sum(tile is not None for _, _, tile, _ in step.products))
        return out

    monkeypatch.setattr(elimination._Broadcast, "run", checked)
    elimination._elimination_plan.cache_clear()
    try:
        return [vote._vote_sum(*query).tobytes() for query in queries], counts
    finally:
        elimination._elimination_plan.cache_clear()
        monkeypatch.undo()


def test_tiled_products_repeat_plain_broadcasts_bitwise(monkeypatch):
    # dense random DAGs and digraphs with 13 to 18 free vertices: single,
    # joint and partition sums, both modes, come out bitwise the same with
    # the wide steps' products tiled as with every product a plain broadcast
    rng = random.Random(9094)
    queries = []
    for make, n, extra, free in ((helpers.random_dag, 14, 75, 13),
                                 (helpers.random_digraph, 14, 60, 13),
                                 (helpers.random_dag, 19, 140, 18),
                                 (helpers.random_digraph, 19, 120, 18)):
        g = make(rng, n, extra=extra)
        order = g.topological_order or sorted(g.vertex_ids)
        a = sorted(hg.deciders(g)) or rng.sample(order, 1)
        assert len(g.vertices) - len(a) == free
        condition = {v: rng.choice((1, -1)) for v in a}
        rest = [v for v in order if v not in condition]
        for mode in ("tanh", "gaussian"):
            params = VoteParams.from_graph(g, mode=mode)
            for b in ({rest[-1]}, {rest[-1], rest[-2]}, set()):
                queries.append((vote._vote_layout(g, frozenset(a), frozenset(b)),
                                condition, params))
    tiled, counts = _wide_sums(monkeypatch, queries, tiled=True)
    assert sum(counts) > 0
    plain, counts = _wide_sums(monkeypatch, queries, tiled=False)
    assert counts and not any(counts)
    assert tiled == plain


def test_tiled_products_bound_the_peak(monkeypatch):
    # a tiled product's copies hold at most 1.5 times its entries
    # (_TILE_COPY), so a 20-free-vertex dense conditional peaks at most that
    # far above its peak with plain broadcasts (measured: the same 25.3 MB)
    g = helpers.complete_dag(20)
    query = (vote._vote_layout(g, frozenset({"d0", "d1"}), frozenset({"v19"})),
             {"d0": 1, "d1": -1}, VoteParams.from_graph(g))
    peaks = []
    for tiled in (True, False):
        if not tiled:
            monkeypatch.setattr(elimination, "_tile", lambda *args: None)
        elimination._elimination_plan.cache_clear()
        try:
            plan = elimination._elimination_plan(query[0].scopes, query[0].targets,
                                                 elimination.DEFAULT_CAP)
            vote._vote_sum(*query)
            tracemalloc.start()
            try:
                vote._vote_sum(*query)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        finally:
            elimination._elimination_plan.cache_clear()
            monkeypatch.undo()
        if tiled:
            entries = [math.prod(tile[1]) for step in plan.steps + (plan.final,)
                       if isinstance(step, elimination._Broadcast)
                       for _, _, tile, _ in step.products if tile is not None]
    assert entries
    assert peaks[0] <= peaks[1] + 1.5 * 8 * max(entries)


def _split_pool():
    """Seeded dense DAGs and digraphs with 13 free vertices, whose sums take
    wide steps of 12 and 13 spins, with a command vector and the targets of
    a single, a joint and a twelve-vertex query on each."""
    rng = random.Random(9098)
    pool = []
    for make, extra in ((helpers.random_dag, 75), (helpers.random_digraph, 60),
                        (helpers.random_dag, 70), (helpers.random_digraph, 55)):
        g = make(rng, 14, extra=extra)
        order = g.topological_order or sorted(g.vertex_ids)
        a = sorted(hg.deciders(g)) or rng.sample(order, 1)
        condition = {v: rng.choice((1, -1)) for v in a}
        rest = [v for v in order if v not in condition]
        pool.append((g, condition, ({rest[-1]}, set(rest[-2:]), set(rest[1:]))))
    return pool


def _split_answers(pool) -> list:
    """Every query's answer bytes on `pool`: the conditionals' tables and
    partition sums and the partition function, in both modes."""
    answers = []
    for g, condition, target_sets in pool:
        for mode in ("tanh", "gaussian"):
            params = VoteParams.from_graph(g, mode=mode)
            for targets in target_sets:
                dist = hg.conditional_influence(g, set(condition), targets, condition, params)
                answers.append((dist.vertices, list(dist.table),
                                np.array([*dist.table.values(), dist.partition]).tobytes()))
            z = hg.partition_function(g, set(condition), condition, params)
            answers.append(np.float64(z).tobytes())
    return answers


@pytest.mark.parametrize("mode", ["on", "off", "lags", "raises"])
def test_split_steps_repeat_serial_bytes(monkeypatch, mode):
    # wide steps split in two along their first kept spin, down to 12
    # spins, give the serial bytes whether the helper thread runs every
    # second half, none (one usable CPU: no thread starts), or lags so that
    # the caller runs them; an error on the helper's half reaches the
    # caller, and no call leaves a thread running
    pool = _split_pool()
    with monkeypatch.context() as m:
        m.setattr(elimination, "_SPLIT_SPINS", 1 << 30)
        serial = _split_answers(pool)
    before = threading.active_count()
    started, ran = helpers.kernel_helper(monkeypatch, mode)
    if mode == "raises":
        for g, condition, target_sets in pool:
            params = VoteParams.from_graph(g)
            with pytest.raises(RuntimeError, match="helper failed"):
                hg.conditional_influence(g, set(condition), target_sets[2], condition, params)
            assert threading.active_count() == before
        assert ran.count(True) == len(pool)
        return
    assert _split_answers(pool) == serial
    assert threading.active_count() == before
    assert ran, "no step was split"
    if mode == "off":
        assert started == [] and not any(ran)
        return
    assert started and set(started) == {"hiergame-halves"}
    if mode == "on":
        # the helper ran each second half
        assert ran.count(True) == ran.count(False)
    else:
        # the caller ran some second halves the helper had not started
        assert ran.count(False) > ran.count(True)


def test_split_step_that_only_reorders_repeats_serial_bytes(monkeypatch):
    # a wide final step over one table sums and multiplies nothing, and
    # its parts still write both halves of the output
    table = np.random.default_rng(9100).random((2,) * 13)
    scopes = [tuple(f"s{k}" for k in range(13))]
    keys = scopes[0][::-1]
    serial = elimination.sum_product(scopes, lambda: [table], keys)
    _, ran = helpers.kernel_helper(monkeypatch, "on")
    assert elimination.sum_product(scopes, lambda: [table], keys).tobytes() == serial.tobytes()
    assert ran.count(True) == ran.count(False) == 1


def test_split_steps_under_contention(monkeypatch):
    # three threads summing at once, each with its helper, on however few
    # cores, with the interpreter lock switched as often as it will go: a
    # half run twice, or read before it is written, changes the bytes
    pool = _split_pool()[:2]
    serial = _split_answers(pool)
    monkeypatch.setattr(elimination, "_SPLIT_SPINS", 12)
    helpers.usable_cpus(monkeypatch, 2)
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [threading.Thread(target=lambda k=k: got.update({k: _split_answers(pool)}))
                for k in range(3)]
        for run in runs:
            run.start()
        for run in runs:
            run.join(timeout=120)
            assert not run.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == {k: serial for k in range(3)}
    assert not any(t.name.startswith("hiergame-halves") for t in threading.enumerate())


def _copy(g: HierarchyGraph) -> HierarchyGraph:
    """The same hierarchy as a new object, with no query layouts yet."""
    return HierarchyGraph(g.vertices, g.edges, g.free_float, g.noise_sigma)


def _same(warm, cold) -> bool:
    return (warm.vertices == cold.vertices and warm.table == cold.table
            and list(warm.table) == list(cold.table) and warm.partition == cold.partition
            and warm.notes == cold.notes and warm.condition == cold.condition)


def test_warm_queries_repeat_cold_answers():
    # a query on a graph that already holds its layout gives, bit for bit,
    # what the same query gives on a fresh copy of the graph: single and
    # joint targets and the partition sum, both modes, canonical and
    # flipped commands, decider and mid-graph conditions, sparse and dense
    rng = random.Random(6061)
    graphs = [helpers.random_tree(rng, 12), helpers.random_dag(rng, 12),
              helpers.random_dag(rng, 13, extra=40), helpers.random_digraph(rng, 12, extra=30)]
    checked = 0
    for k, g in enumerate(graphs):
        ids = sorted(g.vertex_ids)
        lam = sorted(hg.deciders(g))
        for a in (lam, rng.sample(ids, 2)):
            if not a:
                continue
            rest = [v for v in ids if v not in a]
            for b in (rest[-1:], rest[-2:]):
                for mode in ("tanh", "gaussian"):
                    params = VoteParams.from_graph(g, mode=mode)
                    canonical = {v: rng.choice((1, -1)) for v in a}
                    canonical[min(a)] = 1
                    flipped = {v: -s for v, s in canonical.items()}
                    # warm the layouts with some other command vector
                    other = {v: rng.choice((1, -1)) for v in a}
                    hg.conditional_influence(g, set(a), set(b), other, params)
                    hg.partition_function(g, set(a), other, params)
                    for cond in (canonical, flipped):
                        warm = hg.conditional_influence(g, set(a), set(b), cond, params)
                        cold = hg.conditional_influence(_copy(g), set(a), set(b), cond, params)
                        assert _same(warm, cold), (k, a, b, mode)
                        assert hg.partition_function(g, set(a), cond, params) == \
                            hg.partition_function(_copy(g), set(a), cond, params)
                        checked += 1
    assert checked >= 48
    # the mid-graph note rides on the layout
    g = hg.single_chain(4)
    params = VoteParams.from_graph(g)
    for _ in range(2):
        assert hg.conditional_influence(g, {"u2"}, {"1"}, {"u2": 1}, params).notes
        assert hg.conditional_influence(g, {"d1"}, {"1"}, {"d1": -1}, params).notes == ()


def test_warm_queries_do_no_structural_work(monkeypatch):
    # once a graph holds the layout of (A, B), a query with other spins or
    # other vote parameters neither prunes the graph nor looks for deciders
    g = helpers.random_dag(random.Random(6062), 14, extra=4)
    lam = sorted(hg.deciders(g))
    target = {sorted(set(g.vertex_ids) - set(lam))[-1]}
    calls = {"prune": 0, "deciders": 0}

    def once(name, fn):
        def counted(*args):
            calls[name] += 1
            if calls[name] > 1:
                raise AssertionError(f"{name} called on a warm query")
            return fn(*args)
        return counted

    monkeypatch.setattr(vote, "_prune_barren", once("prune", vote._prune_barren))
    monkeypatch.setattr(vote, "deciders", once("deciders", vote.deciders))
    for mode in ("tanh", "gaussian"):
        for spins in itertools.product((1, -1), repeat=len(lam)):
            cond = dict(zip(lam, spins))
            hg.conditional_influence(g, set(lam), target, cond,
                                     VoteParams.from_graph(g, mode=mode))
    assert calls == {"prune": 1, "deciders": 1}
    calls.update(prune=0, deciders=0)
    for spins in itertools.product((1, -1), repeat=len(lam)):
        hg.partition_function(g, set(lam), dict(zip(lam, spins)), VoteParams.from_graph(g))
    assert calls == {"prune": 1, "deciders": 1}


def test_graphs_with_the_same_names_keep_their_own_layouts():
    # same vertex names, different edges or weights: each graph answers for
    # itself, whichever was asked first
    rng = random.Random(6063)
    first = helpers.random_dag(rng, 9, extra=3, free_float=0.4, noise_sigma=0.8)
    # move weight between the two predecessors of some joined vertex
    joined = next(v for v, preds in first.pred_map.items() if len(preds) >= 2)
    (u0, w0), (u1, w1) = first.pred_map[joined][:2]
    shift = 0.5 * min(w0, w1)
    edges = []
    for e in first.edges:
        if e.dst == joined and e.src in (u0, u1):
            e = Edge(e.src, e.dst, e.weight + (shift if e.src == u0 else -shift))
        edges.append(e)
    reweighted = HierarchyGraph(first.vertices, tuple(edges), 0.4, 0.8)
    rewired = HierarchyGraph(first.vertices, tuple(e for e in first.edges if e.dst != joined)
                             + (Edge(u0, joined, 1.0),), 0.4, 0.8)
    lam = sorted(hg.deciders(first))
    cond = dict.fromkeys(lam, 1)
    answers = []
    for g in (first, reweighted, rewired, first):
        assert sorted(hg.deciders(g)) == lam
        params = VoteParams.from_graph(g)
        dist = hg.conditional_influence(g, set(lam), {joined}, cond, params)
        assert dist.plus_prob(joined) == pytest.approx(
            helpers.brute_vote_conditional(g, joined, cond), abs=1e-12)
        z = hg.partition_function(g, set(lam), cond, params)
        assert z == pytest.approx(helpers.brute_vote_partition(g, cond), rel=1e-12)
        answers.append(dist.plus_prob(joined))
    assert len(set(answers[:3])) == 3 and answers[3] == answers[0]


def test_layout_store_is_bounded():
    # more distinct target sets than _PLAN_CACHE: the graph keeps at most
    # _PLAN_CACHE layouts, and a query whose layout was dropped is rebuilt
    # with the same answer
    g = hg.single_chain(elimination._PLAN_CACHE + 10)
    params = VoteParams.from_graph(g)
    targets = sorted(set(g.vertex_ids) - {"d1"})
    assert len(targets) > elimination._PLAN_CACHE
    first = hg.conditional_influence(g, {"d1"}, {targets[0]}, {"d1": 1}, params)
    for t in targets:
        hg.conditional_influence(g, {"d1"}, {t}, {"d1": 1}, params)
        assert len(g.query_layouts) <= elimination._PLAN_CACHE
    hg.partition_function(g, {"d1"}, {"d1": 1}, params)
    assert len(g.query_layouts) <= elimination._PLAN_CACHE
    again = hg.conditional_influence(g, {"d1"}, {targets[0]}, {"d1": 1}, params)
    assert _same(again, first)


def test_tanh_queries_leave_scipy_unloaded():
    # scipy.special adds about 25 MB to a process; only the gaussian
    # response needs it, so it is imported on the first gaussian table
    code = ("import sys, hiergame as hg\n"
            "g = hg.crossed_chains()\n"
            "cond = {'d1': 1, 'd2': -1}\n"
            "hg.conditional_influence(g, set(cond), {'1'}, cond, hg.VoteParams.from_graph(g))\n"
            "hg.sample_many(g, cond, hg.VoteParams.from_graph(g), 10, seed=1)\n"
            "assert 'scipy.special' not in sys.modules\n"
            "hg.conditional_influence(g, set(cond), {'1'}, cond,\n"
            "                         hg.VoteParams.from_graph(g, mode='gaussian'))\n"
            "assert 'scipy.special' in sys.modules\n")
    src = str(Path(hg.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("mode", ["tanh", "gaussian"])
def test_vote_tables_match_concatenated_build(mode):
    # the in-place builder repeats the concatenating one bit for bit, so no
    # sampler draw or exact sum can move: fan-ins 0 to 14, one and several rows
    rng = np.random.default_rng(1414)
    params = VoteParams(0.3, 0.8, mode)
    for n_free in range(15):
        for rows in (1, 2, 7):
            fixed = rng.uniform(-1.0, 1.0, rows).tolist()
            weights = rng.uniform(0.0, 0.5, rows * n_free).tolist()
            tables = vote._vote_tables(fixed, weights, n_free, params)
            assert tables.shape == (2, rows, 1 << n_free)
            want = helpers.concatenated_vote_tables(fixed, weights, n_free, params)
            assert np.array_equal(np.concatenate(tables, axis=1), want), (n_free, rows)


def _per_group_factors(layout, condition, params):
    """The factors of a layout as one `_vote_tables` call per fan-in group
    builds them, narrow groups included."""
    out = [None] * len(layout.scopes)
    for group in layout.narrow.groups + layout.wide:
        fixed = []
        for pulls in group.pulls:
            field = 0.0
            for u, w in pulls:
                field += w * condition[u]
            fixed.append(field)
        probs = vote._vote_tables(fixed, group.weights, group.n_free, params)
        probs = probs.reshape((2, len(fixed)) + (2,) * group.n_free)
        for r, (f, v) in enumerate(zip(group.ids, group.pinned)):
            out[f] = probs[:, r] if v is None else probs[1 if condition[v] == 1 else 0, r]
    return out


def test_narrow_program_repeats_per_group_tables():
    # every factor the narrow groups' program builds equals, bit for bit,
    # the one a `_vote_tables` call per group builds, with the same type,
    # shape and strides, a view of its group's own C-contiguous array; so
    # the sums agree bit for bit too.  Trees, DAGs, digraphs, crossed chains
    # and a complete DAG (wide groups); decider, mid-graph (pinned vertices
    # with predecessors) and empty conditions; both modes and both signs
    rng = random.Random(1616)
    graphs = ([helpers.random_tree(rng, 12) for _ in range(3)]
              + [helpers.random_dag(rng, 12, extra=rng.choice((2, 8))) for _ in range(3)]
              + [helpers.random_digraph(rng, 11, extra=6) for _ in range(2)]
              + [hg.crossed_chains(), hg.crossed_chains(3, 2, 4, 1), helpers.complete_dag(8)])
    seen = {"fan-in 0": 0, "pinned": 0, "narrow": 0, "wide": 0}
    for g in graphs:
        ids = sorted(g.vertex_ids)
        lam = sorted(hg.deciders(g))
        for a in (lam, rng.sample(ids, 3), []):
            rest = [v for v in ids if v not in a]
            layout = vote._vote_layout(g, frozenset(a), frozenset(rest[-1:]))
            groups = layout.narrow.groups + layout.wide
            seen["fan-in 0"] += any(group.n_free == 0 for group in groups)
            seen["pinned"] += any(v is not None for group in groups for v in group.pinned)
            seen["narrow"] += bool(layout.narrow.groups)
            seen["wide"] += bool(layout.wide)
            assert all(group.n_free <= vote._NARROW_FAN_IN for group in layout.narrow.groups)
            assert all(group.n_free > vote._NARROW_FAN_IN for group in layout.wide)
            for mode in ("tanh", "gaussian"):
                params = VoteParams.from_graph(g, mode=mode)
                for sign in (1, -1):
                    cond = {v: sign * rng.choice((1, -1)) for v in a}
                    got = vote._vote_factors(layout, cond, params)
                    want = _per_group_factors(layout, cond, params)
                    for group in groups:
                        bases = set()
                        for f in group.ids:
                            x, y = got[f], want[f]
                            assert type(x) is type(y) and x.shape == y.shape
                            assert x.strides == y.strides and x.tobytes() == y.tobytes()
                            if isinstance(x, np.ndarray):
                                assert x.base.flags.c_contiguous and x.base.size == y.base.size
                                bases.add(id(x.base))
                        assert len(bases) <= 1
                    assert len({id(x.base) for x in got if isinstance(x, np.ndarray)}) == \
                        sum(any(v is None for v in group.pinned) or group.n_free > 0
                            for group in groups)
                    summed = elimination.sum_product(layout.scopes, lambda: want, layout.targets)
                    assert vote._vote_sum(layout, cond, params).tobytes() == summed.tobytes()
    assert min(seen.values()) > 0, seen


def test_argument_validation():
    g = hg.single_chain(2)
    params = VoteParams.from_graph(g)
    with pytest.raises(ValueError):
        hg.conditional_influence(g, {"d1"}, {"d1"}, {"d1": 1}, params)
    with pytest.raises(ValueError):
        hg.conditional_influence(g, {"d1"}, set(), {"d1": 1}, params)
    with pytest.raises(ValueError):
        hg.conditional_influence(g, {"d1"}, {"1"}, {}, params)
    with pytest.raises(ValueError):
        hg.conditional_influence(g, {"d1"}, {"1"}, {"d1": 3}, params)
    with pytest.raises(ValueError):
        hg.conditional_influence(g, {"ghost"}, {"1"}, {"ghost": 1}, params)


def test_assignment_validation_keeps_its_rules():
    # any mapping whose keys are exactly the set passes; a missing or an
    # extra vertex, or a spin other than +1 or -1, fails with its message
    over = frozenset({"d1", "d2"})
    for ok in ({"d1": 1, "d2": -1}, types.MappingProxyType({"d2": 1, "d1": 1})):
        vote._validate_assignment(ok, over, "condition")
    for bad, message in (({"d1": 1}, "condition must assign every vertex of the set exactly once"),
                         ({"d1": 1, "d2": 1, "d3": 1},
                          "condition must assign every vertex of the set exactly once"),
                         (types.MappingProxyType({"d1": 1, "d2": 0}),
                          "condition for 'd2' must be \\+1 or -1, got 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            vote._validate_assignment(bad, over, "condition")
    g = hg.crossed_chains()
    params = VoteParams.from_graph(g)
    dist = hg.conditional_influence(g, over, {"1"}, types.MappingProxyType({"d1": 1, "d2": -1}),
                                    params)
    assert dist.table == hg.conditional_influence(g, over, {"1"}, {"d1": 1, "d2": -1},
                                                  params).table
    with pytest.raises(ValueError, match="^assignment must assign every vertex"):
        dist.prob({"1": 1, "2": 1})


def test_sampler_is_deterministic():
    g = hg.crossed_chains()
    params = VoteParams.from_graph(g)
    cond = {"d1": 1, "d2": -1}
    a = hg.sample_many(g, cond, params, 500, seed=2024)
    b = hg.sample_many(g, cond, params, 500, seed=2024)
    c = hg.sample_many(g, cond, params, 500, seed=2025)
    for v in g.vertex_ids:
        assert np.array_equal(a[v], b[v])
    assert any(not np.array_equal(a[v], c[v]) for v in g.vertex_ids)
    single = {v: int(draws[0]) for v, draws in hg.sample_many(g, cond, params, 1, seed=7).items()}
    assert set(single) == set(g.vertex_ids)
    assert all(s in (1, -1) for s in single.values())
    assert single["d1"] == 1 and single["d2"] == -1


@pytest.mark.parametrize("mode, digest", [
    ("tanh", "fc6bda8bb968a183bd0ab2451782aba2256ae99b69dcf5f3a3348e50632c4d4e"),
    ("gaussian", "a48637a5eb90e3d5809e8c67368438643340008a5a50d818904245a99a22f9d4"),
])
def test_sampler_draws_are_pinned(mode, digest):
    # the sampler draws vertex by vertex in topological order, so any change
    # to that order (or to the draws) changes the samples of a fixed seed
    g = hg.crossed_chains()
    draws = hg.sample_many(g, {"d1": 1, "d2": -1}, VoteParams.from_graph(g, mode), 1000, seed=5)
    h = hashlib.sha256()
    for v in sorted(draws):
        h.update(v.encode())
        h.update(draws[v].tobytes())
    assert h.hexdigest() == digest


def test_sampler_matches_plain_reference():
    # tables on small fan-in; the per-draw field where a table would
    # outgrow the draws (everywhere at n = 1, 7 and 64, fan-in above 3 at
    # n = 1000); pattern codes wider than a byte (fan-in 9 at n = 2^15)
    rng = random.Random(83)
    pool = [(hg.crossed_chains(), (1, 7, 1000)), (helpers.complete_dag(10), (64,)),
            (helpers.complete_dag(8), (1 << 15,))]
    for k in range(8):
        pool.append((helpers.random_arborescence(rng, 8), (1, 7, 1000)))
        pool.append((helpers.random_dag(rng, 9, extra=2 + k), (1, 7, 1000)))
    fan_ins = {len(p) for g, _ in pool for p in g.pred_map.values()}
    assert fan_ins >= {1, 2, 3, 4, 5, 9}
    for g, sizes in pool:
        lam = sorted(hg.deciders(g))
        cond = {d: rng.choice((1, -1)) for d in lam}
        for mode in ("tanh", "gaussian"):
            params = VoteParams.from_graph(g, mode)
            for n in sizes:
                seed = rng.randrange(1 << 30)
                got = hg.sample_many(g, cond, params, n, seed)
                want = helpers.brute_sample_many(g, cond, params, n, seed)
                assert got.keys() == want.keys()
                for v, arr in want.items():
                    assert got[v].dtype == np.int8 and got[v].shape == (n,)
                    assert np.array_equal(got[v], arr), (v, mode, n)


def test_sampler_holds_one_byte_per_spin():
    # the spins themselves take V * n bytes; tables, the current vertex's
    # draws and the int8 conversion must stay within 256 bytes per draw,
    # also where a fan-in of 15 at 64 draws must keep the per-draw field
    for g, cond, n in ((hg.single_chain(2000), {"d1": 1}, 5000),
                       (helpers.complete_dag(14), {"d0": 1, "d1": -1}, 64)):
        params = VoteParams.from_graph(g)
        hg.sample_many(g, cond, params, 10, seed=1)
        tracemalloc.start()
        try:
            draws = hg.sample_many(g, cond, params, n, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(draws) == len(g.vertices)
        assert peak <= len(g.vertices) * n + 256 * n


def test_sampler_threaded_equals_inline_equals_brute_force(monkeypatch):
    # fan-ins 0 to 9 hit the fan-in-1 compares, tables of small and large
    # fan-in and the per-draw field; roots
    # numbered late sit between drawing vertices in topological order; 23
    # drawing vertices leave a partial last chunk of helper-filled rows
    rng = random.Random(1111)
    pool = [helpers.random_fan_in_dag(rng, 27, (0, 5, 13, 20), 9) for _ in range(3)]
    # negative and zero weights, as a graph built without validation may
    # have: the fan-in-1 compares run mirrored where P(+1) falls with the
    # predecessor's spin
    pool.append(HierarchyGraph(
        (Vertex("d", "decider"), Vertex("a", "agent"), Vertex("b", "agent"),
         Vertex("c", "executive")),
        (Edge("d", "a", -0.8), Edge("a", "b", 0.0), Edge("b", "c", 1.3)), 0.4, 0.9))
    for g in pool[:3]:
        order = g.topological_order
        fan_ins = [len(g.pred_map[v]) for v in order]
        assert max(fan_ins) == 9 and sum(1 for k in fan_ins if k) == 23
        first = next(i for i, k in enumerate(fan_ins) if k)
        assert fan_ins[first:].count(0) >= 2, "roots do not sit between drawing vertices"
    for g in pool:
        cond = {d: rng.choice((1, -1)) for d in sorted(hg.deciders(g))}
        for mode in ("tanh", "gaussian"):
            params = VoteParams.from_graph(g, mode)
            for n in (1, 63, 64, 127, 128, 5000, 20000):
                seed = rng.randrange(1 << 30)
                want = helpers.brute_sample_many(g, cond, params, n, seed)
                for on in (False, True):
                    with monkeypatch.context() as m:
                        started = helpers.sampler_helper(m, on)
                        got = hg.sample_many(g, cond, params, n, seed)
                    assert started == (["hiergame-uniforms"] if on else [])
                    assert got.keys() == want.keys()
                    for v, arr in want.items():
                        assert got[v].dtype == np.int8 and got[v].shape == (n,)
                        assert np.array_equal(got[v], arr), (v, mode, n, on)


def test_sampler_helper_runs_only_where_it_pays(monkeypatch):
    g = hg.single_chain(40)
    params = VoteParams.from_graph(g)
    big = vote._HELPER_UNIFORMS // 40 + 1
    started = helpers.sampler_helper(monkeypatch, on=True)
    monkeypatch.setattr(vote, "_HELPER_UNIFORMS", 40 * big)
    hg.sample_many(g, {"d1": 1}, params, big - 1, seed=3)
    assert started == []
    hg.sample_many(g, {"d1": 1}, params, big, seed=3)
    hg.sample_many(g, {"d1": 1}, params, big, seed=np.int64(3))
    assert len(started) == 2
    # one usable CPU, or a seed that is not an integer: no helper
    hg.sample_many(g, {"d1": 1}, params, big, seed=np.random.SeedSequence(3))
    helpers.usable_cpus(monkeypatch, 1)
    hg.sample_many(g, {"d1": 1}, params, big, seed=3)
    assert len(started) == 2


def test_sampler_joins_its_helper_thread(monkeypatch):
    # no helper thread outlives a call: on return, and on an exception
    # raised mid-loop while the helper fills rows ahead
    g = helpers.complete_dag(10)
    cond = {"d0": 1, "d1": -1}
    params = VoteParams.from_graph(g)
    before = threading.active_count()
    started = helpers.sampler_helper(monkeypatch, on=True)
    hg.sample_many(g, cond, params, 3000, seed=1)
    assert threading.active_count() == before
    calls = []
    response = vote.outcome_probability

    def fail_third(*args):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("stop mid-loop")
        return response(*args)

    with monkeypatch.context() as m:
        m.setattr(vote, "outcome_probability", fail_third)
        with pytest.raises(RuntimeError, match="mid-loop"):
            hg.sample_many(g, cond, params, 3000, seed=1)
    assert len(calls) == 3
    assert threading.active_count() == before
    assert len(started) == 2
    assert not any(t.name == "hiergame-uniforms" for t in threading.enumerate())


def test_sampler_helper_fills_a_chunk_per_call(monkeypatch):
    # the helper fills each chunk it claims, _CHUNK_ROWS rows of 5000 or
    # the last chunk's 3, with one call on the chunk's slot: it takes the
    # interpreter lock once per chunk, not once per row
    g = hg.single_chain(400)
    params = VoteParams.from_graph(g)
    want = helpers.brute_sample_many(g, {"d1": 1}, params, 5000, 6)
    _, fills = helpers.faulty_sampler_helper(monkeypatch, None)
    started = helpers.sampler_helper(monkeypatch, on=True)
    got = hg.sample_many(g, {"d1": 1}, params, 5000, 6)
    assert started == ["hiergame-uniforms"]
    assert fills, "the helper filled nothing"
    assert set(fills) <= {(vote._CHUNK_ROWS, 5000), (399 % vote._CHUNK_ROWS, 5000)}
    for v, arr in want.items():
        assert np.array_equal(got[v], arr), v


@pytest.mark.parametrize("fault", ["dies", "lags"])
def test_sampler_survives_a_failing_helper(monkeypatch, fault):
    # a helper that dies on its first chunk, or lags and so keeps the
    # reader waiting _PARALLEL_CHECK for a chunk, leaves its chunks to the
    # reader, which may already have filled later ones: it moves its
    # generator back, and the draws stay those of the stream
    g = hg.single_chain(200)
    params = VoteParams.from_graph(g)
    want = helpers.brute_sample_many(g, {"d1": 1}, params, 5000, 9)
    failures, fills = helpers.faulty_sampler_helper(monkeypatch, fault)
    started = helpers.sampler_helper(monkeypatch, on=True)
    before = time.perf_counter()
    got = hg.sample_many(g, {"d1": 1}, params, 5000, 9)
    assert started == ["hiergame-uniforms"]
    assert [str(f.exc_value) for f in failures] == (["helper died"] if fault == "dies" else [])
    # a lagging helper was stopped after its first chunk of 50
    assert len(fills) == (0 if fault == "dies" else 1)
    # the reader waited out the lagging helper once at most, at the join
    assert time.perf_counter() - before < 1.0
    for v, arr in want.items():
        assert np.array_equal(got[v], arr), v


def test_sampler_helpers_under_contention(monkeypatch):
    # four sampling threads at once, each with its helper, on however few
    # cores, with the interpreter lock switched as often as it will go:
    # a chunk claimed twice, or read before it is filled, changes the draws
    g = hg.single_chain(120)
    params = VoteParams.from_graph(g)
    want = {seed: helpers.brute_sample_many(g, {"d1": 1}, params, 3000, seed)
            for seed in range(4)}
    helpers.sampler_helper(monkeypatch, on=True)
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [threading.Thread(target=lambda seed=seed: got.update(
                    {seed: hg.sample_many(g, {"d1": 1}, params, 3000, seed)}))
                for seed in want]
        for run in runs:
            run.start()
        for run in runs:
            run.join(timeout=120)
            assert not run.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got.keys() == want.keys()
    for seed, draws in want.items():
        for v, arr in draws.items():
            assert np.array_equal(got[seed][v], arr), (seed, v)
    assert not any(t.name == "hiergame-uniforms" for t in threading.enumerate())


@pytest.mark.parametrize("wide", [False, True])
def test_sampler_with_helper_holds_one_byte_per_spin(monkeypatch, wide):
    # the bound of test_sampler_holds_one_byte_per_spin with the helper
    # thread forced on: its ring of uniforms, 128 bytes per draw, fits in
    # the same 256 bytes per draw, and it is gone when the call returns.
    # A fan-in-1 chain keeps its helper; on a wide graph the helper lags
    # and is stopped, so the per-draw fields, their +-1 rows and the spare
    # row the reader then fills come on top of the ring.  (At 64 draws the
    # helper's fixed few KiB would not fit, but there the cut-off keeps it
    # off.)
    if wide:
        g, cond = helpers.complete_dag(70), {"d0": 1, "d1": -1}
        _, fills = helpers.faulty_sampler_helper(monkeypatch, "lags")
    else:
        g, cond = hg.single_chain(2000), {"d1": 1}
    n = 5000
    assert (len(g.vertices) - len(hg.deciders(g))) * n >= vote._HELPER_UNIFORMS
    params = VoteParams.from_graph(g)
    before = threading.active_count()
    started = helpers.sampler_helper(monkeypatch, on=True)
    hg.sample_many(g, cond, params, 10, seed=1)
    if wide:
        fills.clear()
    begun = time.perf_counter()
    tracemalloc.start()
    try:
        draws = hg.sample_many(g, cond, params, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(draws) == len(g.vertices)
    assert peak <= len(g.vertices) * n + 256 * n
    assert len(started) == 2
    assert threading.active_count() == before
    if wide:
        # stopped after its first chunk of 17, it was waited for once
        assert len(fills) == 1, "the helper was not stopped"
        assert time.perf_counter() - begun < 1.0
        want = helpers.brute_sample_many(g, cond, params, n, 1)
        for v, arr in want.items():
            assert np.array_equal(draws[v], arr), v


def test_sampler_returns_the_vertices_asked_for(monkeypatch):
    # the executives, one vertex, a random subset, none or all: exactly
    # those come back, each bit for bit the full call's array, while every
    # other vertex draws into a recycled row
    rng = random.Random(1717)
    graphs = [hg.single_chain(30), hg.crossed_chains(), helpers.complete_dag(12),
              helpers.random_dag(rng, 14, extra=5), helpers.executive_successors()]
    for g in graphs:
        ids = sorted(g.vertex_ids)
        cond = {d: rng.choice((1, -1)) for d in sorted(hg.deciders(g))}
        subsets = [sorted(hg.executives(g)), [rng.choice(ids)],
                   rng.sample(ids, len(ids) // 2), [], ids]
        for mode, n in itertools.product(("tanh", "gaussian"), (1, 64, 5000)):
            params = VoteParams.from_graph(g, mode)
            seed = rng.randrange(1 << 30)
            full = hg.sample_many(g, cond, params, n, seed)
            for on in (False, True):
                with monkeypatch.context() as m:
                    started = helpers.sampler_helper(m, on)
                    for subset in subsets:
                        got = hg.sample_many(g, cond, params, n, seed, vertices=subset)
                        assert got.keys() == set(subset)
                        for v, arr in got.items():
                            assert arr.dtype == np.int8
                            assert np.array_equal(arr, full[v]), (v, mode, n, on)
                assert len(started) == (len(subsets) if on else 0)


@pytest.mark.parametrize("helper", [False, True])
@pytest.mark.parametrize("g, cond, kept", [
    (hg.single_chain(2000), {"d1": 1}, {"1"}),
    # 2000 vertices without successors, each row recycled at once
    (helpers.fan_hierarchy(2000, 1), {"d0": 1}, {"0"}),
])
def test_sampler_holds_only_the_rows_it_returns(monkeypatch, helper, g, cond, kept):
    # asked for one vertex of 2001, the sampler holds that vertex's draws
    # and the rows still to be read, not a row per vertex
    params = VoteParams.from_graph(g)
    n = 5000
    started = helpers.sampler_helper(monkeypatch, helper)
    hg.sample_many(g, cond, params, 10, seed=1, vertices=kept)
    tracemalloc.start()
    try:
        draws = hg.sample_many(g, cond, params, n, 1, vertices=kept)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert draws.keys() == kept
    assert peak <= 300 * n
    assert len(started) == (2 if helper else 0)


def test_sampler_refuses_unknown_vertices_before_drawing(monkeypatch):
    g = hg.crossed_chains()
    params = VoteParams.from_graph(g)
    cond = {"d1": 1, "d2": -1}
    calls = []
    rows = vote._uniform_rows
    monkeypatch.setattr(vote, "_uniform_rows", lambda *args: calls.append(args) or rows(*args))
    started = helpers.sampler_helper(monkeypatch, on=True)
    with pytest.raises(ValueError, match="'ghost'"):
        hg.sample_many(g, cond, params, 5000, 1, vertices=["1", "ghost"])
    assert calls == [] and started == []
    hg.sample_many(g, cond, params, 5000, 1, vertices=["1"])
    assert len(calls) == 1 and len(started) == 1


def test_sample_counts_count_the_plus_draws(monkeypatch):
    # each count is the number of +1 draws of the same sample_many call,
    # for the executives, one vertex, a random subset, none or all, helper
    # thread off and forced on
    rng = random.Random(1818)
    graphs = [hg.single_chain(30), hg.crossed_chains(), helpers.complete_dag(12),
              helpers.random_dag(rng, 14, extra=5), helpers.executive_successors()]
    for g in graphs:
        ids = sorted(g.vertex_ids)
        order = g.topological_order
        cond = {d: rng.choice((1, -1)) for d in sorted(hg.deciders(g))}
        subsets = [sorted(hg.executives(g)), [rng.choice(ids)],
                   rng.sample(ids, len(ids) // 2), [], ids]
        for mode, n in itertools.product(("tanh", "gaussian"), (1, 64, 5000)):
            params = VoteParams.from_graph(g, mode)
            seed = rng.randrange(1 << 30)
            for on in (False, True):
                with monkeypatch.context() as m:
                    started = helpers.sampler_helper(m, on)
                    for subset in subsets:
                        draws = hg.sample_many(g, cond, params, n, seed, vertices=subset)
                        got = hg.sample_counts(g, cond, params, n, seed, vertices=subset)
                        assert list(got) == [v for v in order if v in subset]
                        for v, count in got.items():
                            assert type(count) is int
                            assert count == np.count_nonzero(draws[v] == 1), (v, mode, n, on)
                    assert hg.sample_counts(g, cond, params, n, seed) == {
                        v: np.count_nonzero(arr == 1)
                        for v, arr in hg.sample_many(g, cond, params, n, seed).items()}
                assert len(started) == (2 * len(subsets) + 2 if on else 0)


def test_sample_counts_refuse_like_sample_many(monkeypatch):
    # an unknown id is refused before a uniform is drawn or a helper thread
    # started; cycles, partial conditions and the spin limit as sample_many
    g = hg.crossed_chains()
    params = VoteParams.from_graph(g)
    cond = {"d1": 1, "d2": -1}
    calls = []
    rows = vote._uniform_rows
    monkeypatch.setattr(vote, "_uniform_rows", lambda *args: calls.append(args) or rows(*args))
    started = helpers.sampler_helper(monkeypatch, on=True)
    with pytest.raises(ValueError, match="'ghost'"):
        hg.sample_counts(g, cond, params, 5000, 1, vertices=["1", "ghost"])
    assert calls == [] and started == []
    assert hg.sample_counts(g, cond, params, 5000, 1, vertices=["1"]).keys() == {"1"}
    assert len(calls) == 1 and len(started) == 1
    cycle = three_cycle(1.0)
    with pytest.raises(hg.CyclicGraphError):
        hg.sample_counts(cycle, {}, VoteParams.from_graph(cycle), 10, seed=0)
    with pytest.raises(ValueError, match="condition"):
        hg.sample_counts(g, {"d1": 1}, params, 10, seed=0)
    with pytest.raises(ValueError, match="at least one"):
        hg.sample_counts(g, cond, params, 0, seed=0)
    with pytest.raises(ValueError, match="sampling limit"):
        hg.sample_counts(g, cond, params, vote.MAX_SAMPLE_SPINS, seed=0)
    assert len(calls) == 1


def test_sampler_refuses_a_negative_seed_before_drawing(monkeypatch):
    # numpy would refuse a negative seed only once the draws start; both
    # samplers refuse it, naming the seed, before a table is built, a
    # uniform drawn or a helper thread started
    g = hg.crossed_chains()
    params = VoteParams.from_graph(g)
    cond = {"d1": 1, "d2": -1}
    calls = []
    for name in ("_uniform_rows", "_vote_tables"):
        monkeypatch.setattr(vote, name, lambda *args, f=getattr(vote, name):
                            calls.append(f.__name__) or f(*args))
    started = helpers.sampler_helper(monkeypatch, on=True)
    for sample in (hg.sample_many, hg.sample_counts):
        for seed in (-1, np.int64(-7)):
            with pytest.raises(ValueError, match=f"seed must be non-negative, got {seed}"):
                sample(g, cond, params, 5000, seed)
    assert calls == [] and started == []
    hg.sample_counts(g, cond, params, 5000, 0)
    assert "_uniform_rows" in calls and started == ["hiergame-uniforms"]


def test_sampler_rejects_cycles_and_partial_conditions():
    g = three_cycle(1.0)
    with pytest.raises(hg.CyclicGraphError):
        hg.sample_many(g, {}, VoteParams.from_graph(g), 10, seed=0)
    chain = hg.single_chain(3)
    with pytest.raises(ValueError):
        hg.sample_many(chain, {}, VoteParams.from_graph(chain), 10, seed=0)


def test_sampler_saturates_at_high_gain():
    g = hg.single_chain(5, noise_sigma=hg.sigma_for_beta(50.0))
    params = VoteParams.from_graph(g)
    draws = hg.sample_many(g, {"d1": 1}, params, 2000, seed=5)
    agree = float(np.mean(draws["1"] == 1))
    assert agree >= 0.999


def test_sampler_frequencies_match_enumeration():
    g = hg.crossed_chains()
    params = VoteParams.from_graph(g)
    cond = {"d1": -1, "d2": 1}
    n = 20000
    draws = hg.sample_many(g, cond, params, n, seed=31)
    dist = hg.conditional_influence(g, {"d1", "d2"}, {"1"}, cond, params)
    p = dist.plus_prob("1")
    se = math.sqrt(p * (1.0 - p) / n)
    freq = float(np.mean(draws["1"] == 1))
    assert abs(freq - p) < 4.0 * se


def test_influence_table_agrees_with_conditional():
    # every pattern's entries, canonical or mirrored, are bit for bit the
    # conditional under that pattern, in both modes and with no decider
    rng = random.Random(41)
    graphs = [hg.two_decider_chain(3, 2), hg.crossed_chains(2, 3, 3, 2),
              helpers.random_dag(rng, 8), helpers.random_digraph(rng, 6),
              HierarchyGraph((Vertex("1", "executive"), Vertex("2", "executive")),
                             (Edge("1", "2", 1.0), Edge("2", "1", 1.0)), 0.5, 1.0)]
    for g, mode in itertools.product(graphs, ("tanh", "gaussian")):
        params = VoteParams.from_graph(g, mode=mode)
        lam, execs = sorted(hg.deciders(g)), sorted(hg.executives(g), reverse=True)
        table = hg.influence_table(g, params, lam, execs)
        assert list(table) == list(itertools.product((1, -1), repeat=len(lam)))
        for pattern, plus in table.items():
            condition = dict(zip(lam, pattern))
            assert plus.tolist() == [hg.conditional_influence(g, lam, {i}, condition, params)
                                     .plus_prob(i) for i in execs]
