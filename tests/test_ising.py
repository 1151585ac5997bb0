"""Boundary-conditioned coupling sums and the chain closed forms."""

import itertools
import math
import random

import networkx
import pytest

import helpers
import hiergame as hg
from hiergame import elimination
from hiergame.ising import IsingModel, KPointQuery


BETA = 1.0


def _path_model(n_edges: int, j: float, beta: float) -> IsingModel:
    names = [f"v{k:02d}" for k in range(n_edges + 1)]
    couplings = tuple((names[k], names[k + 1], j) for k in range(n_edges))
    return IsingModel(tuple(names), couplings, beta)


def test_k_point_single_edge():
    model = IsingModel(("a", "b"), (("a", "b", 0.7),), 1.3)
    up = hg.k_point(model, KPointQuery({"a": 1}, {"b": 1}))
    down = hg.k_point(model, KPointQuery({"a": 1}, {"b": -1}))
    assert up == pytest.approx(math.exp(1.3 * 0.7), abs=1e-15)
    assert down == pytest.approx(math.exp(-1.3 * 0.7), abs=1e-15)


def test_k_point_three_chain():
    model = _path_model(2, 1.0, BETA)
    agree = hg.k_point(model, KPointQuery({"v00": 1}, {"v02": 1}))
    differ = hg.k_point(model, KPointQuery({"v00": 1}, {"v02": -1}))
    assert agree == pytest.approx(2.0 * math.cosh(2.0 * BETA), rel=1e-15)
    assert differ == pytest.approx(2.0, rel=1e-15)


def test_k_point_counts_boundary_couplings():
    model = IsingModel(("a", "b", "t"),
                       (("a", "b", 0.4), ("a", "t", 0.6), ("b", "t", 0.9)), 1.1)
    same = hg.k_point(model, KPointQuery({"a": 1, "b": 1}, {"t": 1}))
    mixed = hg.k_point(model, KPointQuery({"a": 1, "b": -1}, {"t": 1}))
    assert same == pytest.approx(math.exp(1.1 * (0.4 + 0.6 + 0.9)), rel=1e-15)
    assert mixed == pytest.approx(math.exp(1.1 * (-0.4 + 0.6 - 0.9)), rel=1e-15)


def test_k_point_weak_coupling_counts_states():
    model = _path_model(5, 1.0, 1e-12)
    total = hg.k_point(model, KPointQuery({"v00": 1}, {"v05": 1}))
    assert total == pytest.approx(2.0 ** 4, rel=1e-9)


def test_k_point_spin_flip_symmetry():
    rng = random.Random(11)
    g = helpers.random_dag(rng, 7)
    model = hg.coupling_from_hierarchy(g)
    ids = sorted(model.vertices)
    condition = {ids[0]: 1, ids[1]: -1}
    target = {ids[-1]: 1, ids[-2]: -1}
    flipped_c = {v: -s for v, s in condition.items()}
    flipped_t = {v: -s for v, s in target.items()}
    plain = hg.k_point(model, KPointQuery(condition, target))
    mirror = hg.k_point(model, KPointQuery(flipped_c, flipped_t))
    assert plain == pytest.approx(mirror, rel=1e-13)


def test_ising_conditional_single_edge():
    for beta_j in (0.2, 1.0, 2.5):
        model = IsingModel(("a", "b"), (("a", "b", beta_j),), 1.0)
        p = hg.ising_conditional(model, "b", {"a": 1})
        assert p == pytest.approx(0.5 * (1.0 + math.tanh(beta_j)), abs=1e-15)
        q = hg.ising_conditional(model, "b", {"a": -1})
        assert p + q == pytest.approx(1.0, abs=1e-15)


def test_ising_conditional_weak_coupling_is_half():
    model = IsingModel(("a", "b"), (("a", "b", 1e-15),), 1.0)
    assert hg.ising_conditional(model, "b", {"a": 1}) == pytest.approx(0.5, abs=1e-12)


def test_corridor_drops_dangling_branch():
    # a side branch hanging off the corridor carries the same factor for
    # either spin of its attachment point, so it cancels in the ratio
    model = IsingModel(
        ("d", "e", "i", "x", "y"),
        (("d", "i", 1.0), ("e", "i", 1.0), ("i", "x", 1.0), ("x", "y", 1.0)),
        BETA,
    )
    p = hg.ising_conditional(model, "e", {"d": 1})
    assert p == pytest.approx(hg.chain_conditional(2, BETA, 1, 1), abs=1e-13)
    brute = helpers.brute_ising_conditional(model.couplings, BETA, "e", {"d": 1})
    assert p == pytest.approx(brute, abs=1e-13)


def test_ising_conditional_matches_full_enumeration():
    rng = random.Random(23)
    for _ in range(6):
        g = helpers.random_dag(rng, 8)
        model = hg.coupling_from_hierarchy(g)
        lam = sorted(hg.deciders(g))
        condition = {v: rng.choice((1, -1)) for v in lam}
        others = sorted(set(g.vertex_ids) - set(lam))
        target = rng.choice(others)
        p = hg.ising_conditional(model, target, condition)
        brute = helpers.brute_ising_conditional(model.couplings, model.beta,
                                                target, condition)
        assert p == pytest.approx(brute, abs=1e-12)


def _corridor_sum(model, condition, target):
    """k_point by plain enumeration of the whole corridor interior."""
    fixed = {**condition, **target}
    interior = sorted(hg.graph.nodes_between_adjacency(
        model.adjacency, frozenset(condition), frozenset(target)))
    zone = set(interior) | set(fixed)
    terms = [(u, v, j) for u, v, j in model.couplings if u in zone and v in zone]
    total = 0.0
    for combo in itertools.product((1, -1), repeat=len(interior)):
        spins = dict(fixed)
        spins.update(zip(interior, combo))
        total += math.exp(model.beta * sum(j * spins[u] * spins[v] for u, v, j in terms))
    return total


def test_corridor_components_match_full_enumeration():
    # both deciders fixed: the arms into an executive are independent
    # components of its corridor; on a tree with every leaf fixed, each
    # branch at the target vertex with a free vertex in it is one
    rng = random.Random(31)
    cases = [(hg.crossed_chains(3, 2, 2, 3), {"d1": s, "d2": t}, "1")
             for s, t in ((1, 1), (1, -1), (-1, 1))]
    for _ in range(8):
        g = helpers.random_tree(rng, rng.randint(6, 11))
        adj = g.undirected_adjacency
        leaves = sorted(v for v in adj if len(adj[v]) == 1)
        target = max(sorted(adj), key=lambda v: len(adj[v]))
        cases.append((g, {v: rng.choice((1, -1)) for v in leaves}, target))
    split = 0
    for g, condition, target in cases:
        model = hg.coupling_from_hierarchy(g)
        interior = hg.graph.nodes_between_adjacency(
            model.adjacency, frozenset(condition), frozenset({target}))
        corridor = networkx.Graph(model.adjacency).subgraph(interior)
        split += networkx.number_connected_components(corridor) >= 2
        for spin in (1, -1):
            assert hg.k_point(model, KPointQuery(condition, {target: spin})) == \
                pytest.approx(_corridor_sum(model, condition, {target: spin}), rel=1e-12)
        p = hg.ising_conditional(model, target, condition)
        brute = helpers.brute_ising_conditional(model.couplings, model.beta,
                                                target, condition)
        assert p == pytest.approx(brute, abs=1e-12)
    assert split >= len(cases) // 2


def test_k_point_drops_only_single_target_regions():
    # d -> t1, d -> t2, t1 -> x, t2 -> x: the region {x} beyond the targets
    # links t1 and t2, and k_point does not sum it, so its sums normalised
    # over the four target patterns are not the model's joint law; each
    # target alone, whose region is its own, still gets its marginal
    g = hg.HierarchyGraph(
        (hg.Vertex("d", "decider"), hg.Vertex("t1", "agent"),
         hg.Vertex("t2", "agent"), hg.Vertex("x", "executive")),
        (hg.Edge("d", "t1", 1.0), hg.Edge("d", "t2", 1.0),
         hg.Edge("t1", "x", 0.5), hg.Edge("t2", "x", 0.5)),
        0.5, hg.sigma_for_beta(1.0))
    model = hg.coupling_from_hierarchy(g)
    condition = {"d": 1}
    sums = {s: hg.k_point(model, KPointQuery(condition, {"t1": s[0], "t2": s[1]}))
            for s in itertools.product((1, -1), repeat=2)}
    total = sum(sums.values())
    joint = helpers.brute_ising_joint(model.couplings, model.beta, ["t1", "t2"], condition)
    gap = helpers.tv_distance({s: z / total for s, z in sums.items()}, joint)
    assert gap == pytest.approx(6.30e-2, abs=5e-5)
    for t in ("t1", "t2"):
        up, down = (hg.k_point(model, KPointQuery(condition, {t: s})) for s in (1, -1))
        law = helpers.brute_ising_joint(model.couplings, model.beta, [t], condition)
        assert abs(up / (up + down) - law[(1,)]) <= 1e-12


def test_chain_conditional_matches_enumeration():
    j = 0.7
    for distance in range(1, 13):
        model = _path_model(distance, j, BETA)
        left, right = "v00", f"v{distance:02d}"
        for sa in (1, -1):
            p = hg.ising_conditional(model, right, {left: sa})
            assert p == pytest.approx(
                hg.chain_conditional(distance, BETA * j, sa, 1), abs=1e-12)


def test_chain_conditional_forms():
    assert hg.chain_conditional(1, 0.8, 1, 1) == pytest.approx(
        0.5 * (1.0 + math.tanh(0.8)), abs=1e-15)
    assert hg.chain_conditional(5, 0.0, 1, 1) == 0.5
    for d in (1, 3, 7):
        total = (hg.chain_conditional(d, 1.2, 1, 1)
                 + hg.chain_conditional(d, 1.2, 1, -1))
        assert total == 1.0
    # correlation decays with distance
    probs = [hg.chain_conditional(d, 0.9, 1, 1) for d in range(1, 8)]
    assert all(a > b > 0.5 for a, b in zip(probs, probs[1:]))
    with pytest.raises(ValueError):
        hg.chain_conditional(0, 1.0, 1, 1)
    with pytest.raises(ValueError):
        hg.chain_conditional(2, 1.0, 2, 1)


def test_chain_xy_matches_enumeration():
    for a, c, beta in ((1, 1, 1.0), (2, 3, 1.0), (4, 4, 1.0), (1, 5, 0.5),
                       (3, 2, 2.0), (5, 3, 0.5)):
        g = hg.two_decider_chain(a, c, noise_sigma=hg.sigma_for_beta(beta))
        model = hg.coupling_from_hierarchy(g)
        x_closed, y_closed = hg.chain_xy(a, c, beta)
        x = hg.ising_conditional(model, "1", {"d1": -1, "d2": 1})
        y = hg.ising_conditional(model, "1", {"d1": 1, "d2": 1})
        assert x == pytest.approx(x_closed, abs=1e-12)
        assert y == pytest.approx(y_closed, abs=1e-12)
        brute_x = helpers.brute_ising_conditional(model.couplings, model.beta,
                                                  "1", {"d1": -1, "d2": 1})
        assert x_closed == pytest.approx(brute_x, abs=1e-12)


def test_chain_xy_shape():
    assert hg.chain_xy(3, 3, 1.0)[0] == 0.5
    assert hg.chain_xy(6, 6, 0.7)[0] == 0.5
    x_tiny, y_tiny = hg.chain_xy(2, 4, 1e-9)
    assert x_tiny == pytest.approx(0.5, abs=1e-8)
    assert y_tiny == pytest.approx(0.5, abs=1e-8)
    for a, c, beta in ((1, 1, 0.3), (2, 5, 1.0), (7, 2, 2.0)):
        x, y = hg.chain_xy(a, c, beta)
        assert 0.0 < x < 1.0
        assert 0.5 < y < 1.0
    # pushing the dissenting decider further away weakens its pull
    xs = [hg.chain_xy(a, 3, 1.0)[0] for a in range(1, 11)]
    assert all(u < v for u, v in zip(xs, xs[1:]))


def test_chain_xy_domain():
    for bad in ((0, 2, 1.0), (2, 0, 1.0), (2, 2, 0.0), (2, 2, -1.0)):
        with pytest.raises(ValueError):
            hg.chain_xy(*bad)
    # at large beta a denominator cancels to 0/0, goes inf/inf or overflows
    for a, c, beta in ((2, 2, 50.0), (2, 2, 400.0), (5, 2, 400.0)):
        with pytest.raises(ValueError, match="beta"):
            hg.chain_xy(a, c, beta)


def test_coupling_from_hierarchy_values():
    g = hg.single_chain(3)
    model = hg.coupling_from_hierarchy(g)
    assert model.beta == 1.0
    assert all(j == 1.0 for _, _, j in model.couplings)

    g = hg.two_decider_chain(2, 2, free_float=0.25,
                             noise_sigma=hg.sigma_for_beta(0.5))
    model = hg.coupling_from_hierarchy(g)
    assert model.beta == pytest.approx(0.5, rel=1e-15)
    assert model.coupling("u1", "1") == pytest.approx(0.5 * 3.0, rel=1e-15)
    assert model.coupling("d1", "u1") == pytest.approx(3.0, rel=1e-15)
    assert model.vertices == tuple(sorted(g.vertex_ids))
    assert list(model.couplings) == sorted(model.couplings)


def test_coupling_from_hierarchy_rejects_antiparallel():
    from hiergame.graph import Edge, HierarchyGraph, Vertex
    g = HierarchyGraph(
        (Vertex("d", "decider"), Vertex("m", "agent"), Vertex("e", "executive")),
        (Edge("d", "m", 0.5), Edge("e", "m", 0.5), Edge("m", "e", 1.0)),
        0.5, 1.0,
    )
    with pytest.raises(hg.MultiEdgeError):
        hg.coupling_from_hierarchy(g)


def test_model_validation():
    with pytest.raises(ValueError, match="sorted"):
        IsingModel(("a", "b"), (("b", "a", 1.0),), 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        IsingModel(("a", "b"), (("a", "b", 1.0), ("a", "b", 2.0)), 1.0)
    with pytest.raises(ValueError, match="unknown"):
        IsingModel(("a", "b"), (("a", "z", 1.0),), 1.0)
    with pytest.raises(ValueError, match="connected"):
        IsingModel(("a", "b", "c", "d"),
                   (("a", "b", 1.0), ("c", "d", 1.0)), 1.0)
    for beta in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="beta"):
            IsingModel(("a", "b"), (("a", "b", 1.0),), beta)
    # a noise width whose gain overflows gives no model
    with pytest.raises(ValueError, match="gain"):
        hg.coupling_from_hierarchy(hg.two_decider_chain(1, 1, noise_sigma=1e-320))


def test_query_validation():
    with pytest.raises(ValueError, match="overlap"):
        KPointQuery({"a": 1}, {"a": 1})
    with pytest.raises(ValueError, match="nonempty"):
        KPointQuery({}, {"a": 1})
    with pytest.raises(ValueError, match="nonempty"):
        KPointQuery({"a": 1}, {})
    with pytest.raises(ValueError, match="spin"):
        KPointQuery({"a": 2}, {"b": 1})
    model = IsingModel(("a", "b"), (("a", "b", 1.0),), 1.0)
    with pytest.raises(ValueError, match="unknown vertex"):
        hg.k_point(model, KPointQuery({"a": 1}, {"zz": 1}))


def test_k_point_matches_enumeration_on_random_coupling_graphs():
    # couplings of either sign on random graphs of 8 to 12 vertices with
    # cycles; one or two conditioned and one or two target vertices
    rng = random.Random(808)
    for k in range(12):
        couplings = helpers.random_couplings(rng, rng.randint(8, 12), extra=rng.randint(2, 8))
        vertices = tuple(sorted({u for u, _, _ in couplings} | {v for _, v, _ in couplings}))
        model = IsingModel(vertices, tuple(couplings), rng.uniform(0.3, 1.5))
        picked = rng.sample(vertices, 2 + k % 3)
        n_cond = 1 + (k % 3 == 2)
        condition = {v: rng.choice((1, -1)) for v in picked[:n_cond]}
        target = {v: rng.choice((1, -1)) for v in picked[n_cond:]}
        assert hg.k_point(model, KPointQuery(condition, target)) == \
            pytest.approx(_corridor_sum(model, condition, target), rel=1e-12)
        vertex = picked[-1]
        p = hg.ising_conditional(model, vertex, condition)
        brute = helpers.brute_ising_conditional(model.couplings, model.beta, vertex, condition)
        assert p == pytest.approx(brute, abs=1e-12)


def _complete_model(n: int, j: float, beta: float) -> IsingModel:
    names = [f"v{k:02d}" for k in range(n)]
    couplings = tuple((u, v, j) for u, v in itertools.combinations(names, 2))
    return IsingModel(tuple(names), couplings, beta)


def test_k_point_cap():
    # the cap bounds log2 of the largest table elimination needs: every
    # interior vertex of a complete coupling graph meets the other ten
    model = _complete_model(13, 0.1, 1.0)  # 11 interior vertices
    query = KPointQuery({"v00": 1}, {"v12": 1})
    with pytest.raises(hg.EnumerationCapError):
        hg.k_point(model, query, cap=10)
    hg.k_point(model, query, cap=11)
    # the 11 interior vertices of a path only ever meet two at a time
    hg.k_point(_path_model(12, 1.0, 1.0), query, cap=2)


def _split_corridor_cases(rng):
    """(model, condition, target): crossed chains with both deciders fixed
    and trees with every leaf fixed, whose corridors split into components."""
    cases = [(hg.coupling_from_hierarchy(hg.crossed_chains(3, 2, 2, 3)), {"d1": s, "d2": t}, "1")
             for s, t in ((1, 1), (1, -1), (-1, 1))]
    for _ in range(4):
        g = helpers.random_tree(rng, rng.randint(6, 11))
        adj = g.undirected_adjacency
        leaves = sorted(v for v in adj if len(adj[v]) == 1)
        target = max(sorted(adj), key=lambda v: len(adj[v]))
        cases.append((hg.coupling_from_hierarchy(g), {v: rng.choice((1, -1)) for v in leaves},
                      target))
    return cases


def test_keyed_conditional_matches_k_point_ratio():
    # one sum keyed on the target agrees with the ratio of the two pinned
    # corridor sums and with the full enumeration, on random coupling graphs
    # with cycles and on corridors that split into components
    rng = random.Random(1010)
    cases = _split_corridor_cases(rng)
    for k in range(10):
        couplings = helpers.random_couplings(rng, rng.randint(8, 12), extra=rng.randint(2, 8))
        vertices = tuple(sorted({u for u, _, _ in couplings} | {v for _, v, _ in couplings}))
        model = IsingModel(vertices, tuple(couplings), rng.uniform(0.3, 1.5))
        picked = rng.sample(vertices, 2 + k % 2)
        cases.append((model, {v: rng.choice((1, -1)) for v in picked[:-1]}, picked[-1]))
    for model, condition, target in cases:
        p = hg.ising_conditional(model, target, condition)
        up = hg.k_point(model, KPointQuery(condition, {target: 1}))
        down = hg.k_point(model, KPointQuery(condition, {target: -1}))
        assert p == pytest.approx(up / (up + down), abs=1e-14)
        brute = helpers.brute_ising_conditional(model.couplings, model.beta, target, condition)
        assert p == pytest.approx(brute, abs=1e-12)
        # warm: the same query again, and the flipped condition
        assert hg.ising_conditional(model, target, condition) == p
        flipped = {v: -s for v, s in condition.items()}
        assert hg.ising_conditional(model, target, flipped) == pytest.approx(1.0 - p, abs=1e-14)


def test_ising_conditional_errors():
    model = IsingModel(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 0.5)), 1.0)
    with pytest.raises(ValueError, match="unknown vertex"):
        hg.ising_conditional(model, "zz", {"a": 1})
    with pytest.raises(ValueError, match="unknown vertex"):
        hg.ising_conditional(model, "c", {"zz": 1})
    with pytest.raises(ValueError, match="overlap"):
        hg.ising_conditional(model, "a", {"a": 1})
    with pytest.raises(ValueError, match="nonempty"):
        hg.ising_conditional(model, "c", {})
    with pytest.raises(ValueError, match="spin"):
        hg.ising_conditional(model, "c", {"a": 2})
    # a valid query after the failed ones, and the failed ones again once it is warm
    assert hg.ising_conditional(model, "c", {"a": 1}) > 0.5
    with pytest.raises(ValueError, match="spin"):
        hg.ising_conditional(model, "c", {"a": 0})
    with pytest.raises(ValueError, match="overlap"):
        hg.ising_conditional(model, "c", {"a": 1, "c": 1})


def test_warm_ising_conditional_skips_the_corridor_search(monkeypatch):
    model = hg.coupling_from_hierarchy(hg.crossed_chains(4, 4, 4, 4))
    cold = hg.ising_conditional(model, "1", {"d1": 1, "d2": -1})

    def searched(*args):
        raise AssertionError("corridor searched on a warm query")

    monkeypatch.setattr(hg.ising, "nodes_between_adjacency", searched)
    assert hg.ising_conditional(model, "1", {"d1": 1, "d2": -1}) == cold
    hg.ising_conditional(model, "1", {"d1": -1, "d2": -1})
    with pytest.raises(AssertionError, match="corridor"):
        hg.ising_conditional(model, "2", {"d1": 1, "d2": -1})


def test_ising_conditional_cap_counts_the_target():
    # the target's spin is a key of the sum: on the complete 13-vertex model
    # the first interior vertex meets the other ten and the target
    model = _complete_model(13, 0.1, 1.0)
    with pytest.raises(hg.EnumerationCapError):
        hg.ising_conditional(model, "v12", {"v00": 1}, cap=11)
    p = hg.ising_conditional(model, "v12", {"v00": 1}, cap=12)
    up = hg.k_point(model, KPointQuery({"v00": 1}, {"v12": 1}), cap=11)
    down = hg.k_point(model, KPointQuery({"v00": 1}, {"v12": -1}), cap=11)
    assert p == pytest.approx(up / (up + down), abs=1e-14)


def test_corridor_layout_store_is_bounded():
    model = _path_model(elimination._PLAN_CACHE + 10, 0.7, 1.0)
    for v in model.vertices[1:]:
        hg.ising_conditional(model, v, {"v00": 1})
        hg.k_point(model, KPointQuery({"v00": 1}, {v: 1}))
        assert len(model.corridor_layouts) <= elimination._PLAN_CACHE
    assert hg.ising_conditional(model, "v01", {"v00": 1}) == pytest.approx(
        hg.chain_conditional(1, 0.7, 1, 1), abs=1e-15)


@pytest.mark.parametrize("length,beta", [(100, 6.0), (300, 3.0)])
def test_sums_beyond_float_range_are_refused(length, beta):
    # both Z(-1) and Z(+1) overflow on these chains under opposed deciders:
    # a ValueError naming beta, never a NaN
    g = hg.two_decider_chain(length, length, noise_sigma=hg.sigma_for_beta(beta))
    model = hg.coupling_from_hierarchy(g)
    with pytest.raises(ValueError, match="beta"):
        hg.ising_conditional(model, "1", {"d1": 1, "d2": -1})
    with pytest.raises(ValueError, match="beta"):
        hg.k_point(model, KPointQuery({"d1": 1}, {"d2": -1}))
    # the boundary energy alone overflows math.exp
    model = IsingModel(("a", "b", "c"), (("a", "b", 1000.0), ("b", "c", 1.0)), 1.0)
    with pytest.raises(ValueError, match="beta"):
        hg.k_point(model, KPointQuery({"a": 1}, {"b": 1}))
    # the short chain at the same beta is still answered
    g = hg.two_decider_chain(2, 3, noise_sigma=hg.sigma_for_beta(beta))
    p = hg.ising_conditional(hg.coupling_from_hierarchy(g), "1", {"d1": -1, "d2": 1})
    assert p == pytest.approx(hg.chain_xy(2, 3, beta)[0], abs=1e-12)


def test_coupling_takes_the_vote_constants():
    # J's scale and beta are VoteParams' command_scale and gain, bit for bit
    g = hg.two_decider_chain(2, 3, free_float=0.3, noise_sigma=0.7)
    params = hg.VoteParams.from_graph(g)
    model = hg.coupling_from_hierarchy(g)
    assert model.beta == params.gain
    weights = {tuple(sorted((e.src, e.dst))): e.weight for e in g.edges}
    assert model.couplings == tuple((u, v, weights[(u, v)] * params.command_scale)
                                    for u, v in sorted(weights))
