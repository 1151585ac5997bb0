"""Boundary-conditioned spin laws and the chain closed forms.

A k-point test checks `ising_joint`, the law of k target spins given
fixed spins on a conditioned set.
"""

import itertools
import math
import random

import networkx
import pytest

import helpers
import hiergame as hg
from hiergame import elimination
from hiergame.ising import IsingModel


BETA = 1.0


def _path_model(n_edges: int, j: float, beta: float) -> IsingModel:
    names = [f"v{k:02d}" for k in range(n_edges + 1)]
    couplings = tuple((names[k], names[k + 1], j) for k in range(n_edges))
    return IsingModel(tuple(names), couplings, beta)


def test_k_point_single_edge():
    model = IsingModel(("a", "b"), (("a", "b", 0.7),), 1.3)
    law = hg.ising_joint(model, ["b"], {"a": 1})
    assert law[(1,)] / law[(-1,)] == pytest.approx(math.exp(2.0 * 1.3 * 0.7), rel=1e-15)
    assert law[(1,)] + law[(-1,)] == pytest.approx(1.0, abs=1e-15)


def test_k_point_three_chain():
    # the middle spin sums to 2 cosh(2 beta) when the ends agree, 2 when not
    model = _path_model(2, 1.0, BETA)
    law = hg.ising_joint(model, ["v02"], {"v00": 1})
    assert law[(1,)] / law[(-1,)] == pytest.approx(math.cosh(2.0 * BETA), rel=1e-15)


def test_k_point_counts_boundary_couplings():
    # each fixed neighbour pulls the target; the fixed pair a-b cancels
    model = IsingModel(("a", "b", "t"),
                       (("a", "b", 0.4), ("a", "t", 0.6), ("b", "t", 0.9)), 1.1)
    same = hg.ising_joint(model, ["t"], {"a": 1, "b": 1})
    mixed = hg.ising_joint(model, ["t"], {"a": 1, "b": -1})
    assert same[(1,)] / same[(-1,)] == pytest.approx(math.exp(2.2 * (0.6 + 0.9)), rel=1e-15)
    assert mixed[(1,)] / mixed[(-1,)] == pytest.approx(math.exp(2.2 * (0.6 - 0.9)), rel=1e-15)
    # with b a second target, the coupling of the two targets counts too
    pair = hg.ising_joint(model, ["b", "t"], {"a": 1})
    assert pair[(1, 1)] / pair[(-1, -1)] == pytest.approx(
        math.exp(2.2 * (0.4 + 0.6)), rel=1e-15)
    assert pair[(1, -1)] / pair[(-1, 1)] == pytest.approx(
        math.exp(2.2 * (0.4 - 0.6)), rel=1e-15)


def test_k_point_weak_coupling_counts_states():
    # at beta -> 0 every pattern of two targets weighs the same
    model = _path_model(5, 1.0, 1e-12)
    law = hg.ising_joint(model, ["v05", "v02"], {"v00": 1})
    assert len(law) == 4
    assert all(p == pytest.approx(0.25, rel=1e-9) for p in law.values())


def test_k_point_spin_flip_symmetry():
    rng = random.Random(11)
    g = helpers.random_dag(rng, 7)
    model = hg.coupling_from_hierarchy(g)
    ids = sorted(model.vertices)
    condition = {ids[0]: 1, ids[1]: -1}
    targets = [ids[-1], ids[-2]]
    plain = hg.ising_joint(model, targets, condition)
    mirror = hg.ising_joint(model, targets, {v: -s for v, s in condition.items()})
    for key, p in plain.items():
        assert p == pytest.approx(mirror[tuple(-s for s in key)], rel=1e-13)


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
        law = hg.ising_joint(model, [target], condition)
        brute = helpers.brute_ising_joint(model.couplings, model.beta, [target], condition)
        assert max(abs(law[k] - brute[k]) for k in brute) <= 1e-12
        p = hg.ising_conditional(model, target, condition)
        brute = helpers.brute_ising_conditional(model.couplings, model.beta,
                                                target, condition)
        assert p == pytest.approx(brute, abs=1e-12)
    assert split >= len(cases) // 2


def test_joint_sums_the_region_linking_two_targets():
    # d -> t1, d -> t2, t1 -> x, t2 -> x: the region {x} beyond the targets
    # links t1 and t2, so the joint law sums it; each target alone, for
    # which {x} hangs off that target only, sums it to a constant
    g = hg.HierarchyGraph(
        (hg.Vertex("d", "decider"), hg.Vertex("t1", "agent"),
         hg.Vertex("t2", "agent"), hg.Vertex("x", "executive")),
        (hg.Edge("d", "t1", 1.0), hg.Edge("d", "t2", 1.0),
         hg.Edge("t1", "x", 0.5), hg.Edge("t2", "x", 0.5)),
        0.5, hg.sigma_for_beta(1.0))
    model = hg.coupling_from_hierarchy(g)
    condition = {"d": 1}
    for targets in (["t1", "t2"], ["t2", "t1"], ["t1"], ["t2"]):
        law = hg.ising_joint(model, targets, condition)
        brute = helpers.brute_ising_joint(model.couplings, model.beta, targets, condition)
        assert law.keys() == brute.keys()
        assert max(abs(law[k] - brute[k]) for k in brute) <= 1e-12
    # without x the targets would be independent given d
    law = hg.ising_joint(model, ["t1", "t2"], condition)
    t1 = hg.ising_conditional(model, "t1", condition)
    t2 = hg.ising_conditional(model, "t2", condition)
    assert law[(1, 1)] - t1 * t2 > 5e-3


def _linking_component(g, condition, targets) -> bool:
    """Whether some component of `g` minus the condition and the targets
    touches two or more targets and no conditioned vertex."""
    graph = networkx.Graph(g.undirected_adjacency)
    rest = graph.subgraph(set(graph) - set(condition) - set(targets))
    for part in networkx.connected_components(rest):
        touched = set().union(*(graph[v] for v in part))
        if not touched & set(condition) and len(touched & set(targets)) >= 2:
            return True
    return False


def test_joint_matches_enumeration_on_random_graphs():
    # random conditioned sets and one to three targets on trees, DAGs and
    # digraphs; some queries have a region beyond the targets that links
    # two of them, which the joint law must sum
    rng = random.Random(3301)
    linked = 0
    for make in (helpers.random_tree, helpers.random_dag, helpers.random_digraph) * 60:
        g = make(rng, rng.randint(4, 9))
        try:
            model = hg.coupling_from_hierarchy(g)
        except hg.MultiEdgeError:
            continue
        ids = sorted(g.vertex_ids)
        condition = rng.sample(ids, rng.randint(1, len(ids) // 2))
        rest = [v for v in ids if v not in condition]
        targets = rng.sample(rest, rng.randint(1, min(3, len(rest))))
        spins = {v: rng.choice((1, -1)) for v in condition}
        law = hg.ising_joint(model, targets, spins)
        brute = helpers.brute_ising_joint(model.couplings, model.beta, targets, spins)
        assert law.keys() == brute.keys()
        assert max(abs(law[k] - brute[k]) for k in brute) <= 1e-12, (g, spins, targets)
        linked += _linking_component(g, condition, targets)
    assert linked >= 10


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


def _chain_outcome(fn, a, c, beta):
    try:
        return tuple(v.hex() for v in fn(a, c, beta))
    except ValueError as exc:
        return type(exc), str(exc)


def test_chain_xy_matches_six_mu_reference():
    # every answer by float hex, every refusal by its message, from tiny
    # beta through the cancellation, overflow and OverflowError refusals
    lengths = (1, 2, 3, 7, 50, 333, 1000)
    betas = (1e-300, 1e-9, 0.1, 0.5, 1.0, 2.0, 3.7, 20.0, 37.5, 100.0, 355.0, 700.0,
             709.78, 710.5, 711.0, 1e300, math.inf, math.nan, 0.0, -1.0)
    outcomes = {}
    for a, c, beta in itertools.product((0,) + lengths, lengths, betas):
        outcomes[a, c, beta] = _chain_outcome(hg.chain_xy, a, c, beta)
        assert outcomes[a, c, beta] == _chain_outcome(helpers.six_mu_chain_xy, a, c, beta)
    assert all(outcomes[a, c, beta][0] is ValueError
               for a, c, beta in outcomes if beta in (700.0, 711.0, 1e300))
    assert sum(outcome[0] is not ValueError for outcome in outcomes.values()) > 200


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
    model = IsingModel(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 1.0)), 1.0)
    with pytest.raises(ValueError, match="overlap"):
        hg.ising_joint(model, ["a", "b"], {"a": 1})
    with pytest.raises(ValueError, match="nonempty"):
        hg.ising_joint(model, ["a"], {})
    with pytest.raises(ValueError, match="nonempty"):
        hg.ising_joint(model, [], {"a": 1})
    with pytest.raises(ValueError, match="spin"):
        hg.ising_joint(model, ["b"], {"a": 2})
    with pytest.raises(ValueError, match="unknown vertex"):
        hg.ising_joint(model, ["zz"], {"a": 1})
    with pytest.raises(ValueError, match="distinct"):
        hg.ising_joint(model, ["b", "c", "b"], {"a": 1})
    # none of the refused queries left a layout behind
    assert not model.corridor_layouts


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
        targets = picked[n_cond:]
        law = hg.ising_joint(model, targets, condition)
        brute = helpers.brute_ising_joint(model.couplings, model.beta, targets, condition)
        assert max(abs(law[k] - brute[k]) for k in brute) <= 1e-12
        vertex = picked[-1]
        p = hg.ising_conditional(model, vertex, condition)
        brute = helpers.brute_ising_conditional(model.couplings, model.beta, vertex, condition)
        assert p == pytest.approx(brute, abs=1e-12)


def _complete_model(n: int, j: float, beta: float) -> IsingModel:
    names = [f"v{k:02d}" for k in range(n)]
    couplings = tuple((u, v, j) for u, v in itertools.combinations(names, 2))
    return IsingModel(tuple(names), couplings, beta)


def test_k_point_cap():
    # the cap bounds log2 of the largest table elimination needs, and it
    # counts every target spin: every interior vertex of a complete
    # coupling graph meets the other nine and both targets
    model = _complete_model(13, 0.1, 1.0)  # 10 interior vertices
    targets, condition = ["v12", "v11"], {"v00": 1}
    with pytest.raises(hg.EnumerationCapError):
        hg.ising_joint(model, targets, condition, cap=11)
    hg.ising_joint(model, targets, condition, cap=12)
    # the 10 interior vertices of a path only ever meet two at a time
    hg.ising_joint(_path_model(12, 1.0, 1.0), targets, condition, cap=2)


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
    # the conditional is the one-target joint law, bit for bit, and agrees
    # with the full enumeration, on random coupling graphs with cycles and
    # on corridors that split into components
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
        law = hg.ising_joint(model, [target], condition)
        assert p == law[(1,)] and law[(-1,)] == pytest.approx(1.0 - p, abs=1e-15)
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
    # neither a one-target nor a joint query searches the graph once warm
    model = hg.coupling_from_hierarchy(hg.crossed_chains(4, 4, 4, 4))
    cold = hg.ising_conditional(model, "1", {"d1": 1, "d2": -1})
    cold_joint = hg.ising_joint(model, ["1", "2"], {"d1": 1})

    def searched(*args, **kwargs):
        raise AssertionError("corridor searched on a warm query")

    monkeypatch.setattr(hg.ising, "reach", searched)
    assert hg.ising_conditional(model, "1", {"d1": 1, "d2": -1}) == cold
    hg.ising_conditional(model, "1", {"d1": -1, "d2": -1})
    assert hg.ising_joint(model, ["1", "2"], {"d1": 1}) == cold_joint
    hg.ising_joint(model, ["1", "2"], {"d1": -1})
    with pytest.raises(AssertionError, match="corridor"):
        hg.ising_conditional(model, "2", {"d1": 1, "d2": -1})
    with pytest.raises(AssertionError, match="corridor"):
        hg.ising_joint(model, ["2", "1"], {"d1": 1})


def test_ising_conditional_cap_counts_the_target():
    # the target's spin is a key of the sum: on the complete 13-vertex model
    # the first interior vertex meets the other ten and the target
    model = _complete_model(13, 0.1, 1.0)
    with pytest.raises(hg.EnumerationCapError):
        hg.ising_conditional(model, "v12", {"v00": 1}, cap=11)
    p = hg.ising_conditional(model, "v12", {"v00": 1}, cap=12)
    assert p == pytest.approx(helpers.brute_ising_conditional(
        model.couplings, model.beta, "v12", {"v00": 1}), abs=1e-12)


def test_corridor_layout_store_is_bounded():
    # one-target and joint queries share the store
    model = _path_model(elimination._PLAN_CACHE + 10, 0.7, 1.0)
    for v in model.vertices[2:]:
        hg.ising_conditional(model, v, {"v00": 1})
        hg.ising_joint(model, [v, "v01"], {"v00": 1})
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
        hg.ising_joint(model, ["d2", "1"], {"d1": 1})
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
