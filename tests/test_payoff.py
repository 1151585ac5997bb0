"""Coalition values and decider share attribution."""

import random

import pytest

import helpers
import hiergame as hg
from hiergame.graph import Edge, HierarchyGraph, Vertex
from hiergame.payoff import build_coalition_function, coalition_value


def _oracle(g, params=None):
    if params is None:
        params = hg.VoteParams.from_graph(g)
    return hg.influence_oracle(g, params)


def test_coalition_endpoints():
    g = hg.two_decider_chain(2, 3)
    oracle = _oracle(g)
    lam = ("d1", "d2")
    assert coalition_value(oracle, "1", (), lam) == 0.0
    assert coalition_value(oracle, "1", lam, lam) == pytest.approx(1.0, abs=1e-14)


def test_two_decider_closed_form():
    for a, c in ((2, 3), (1, 4), (3, 3)):
        g = hg.two_decider_chain(a, c)
        oracle = _oracle(g)
        x = oracle("1", {"d1": -1, "d2": 1})
        y = oracle("1", {"d1": 1, "d2": 1})
        assert coalition_value(oracle, "1", ("d2",), ("d1", "d2")) == \
            pytest.approx((x + y - 1.0) / (2.0 * y - 1.0), abs=1e-13)
        shares = hg.shapley_shares(oracle, ("d1", "d2"), ("1",))
        assert shares.share("d1", "1") == pytest.approx(
            (y - x) / (2.0 * y - 1.0), abs=1e-12)
        assert shares.share("d2", "1") == pytest.approx(
            (x + y - 1.0) / (2.0 * y - 1.0), abs=1e-12)
        assert shares.column_sum("1") == pytest.approx(1.0, abs=1e-12)


def test_benchmark_shares_split_evenly():
    g = hg.crossed_chains()
    oracle = _oracle(g)
    shares = hg.shapley_shares(oracle, hg.deciders(g), hg.executives(g))
    for i in ("1", "2"):
        assert shares.share("d1", i) == pytest.approx(0.5, abs=1e-12)
        assert shares.share("d2", i) == pytest.approx(0.5, abs=1e-12)


def test_three_decider_star_symmetry():
    vertices = (Vertex("d1", "decider"), Vertex("d2", "decider"),
                Vertex("d3", "decider"), Vertex("e", "executive"))
    third = 1.0 / 3.0
    edges = (Edge("d1", "e", third), Edge("d2", "e", third), Edge("d3", "e", third))
    g = HierarchyGraph(vertices, edges, 0.5, 1.0)
    oracle = _oracle(g)
    shares = hg.shapley_shares(oracle, hg.deciders(g), ("e",))
    for lam in ("d1", "d2", "d3"):
        assert shares.share(lam, "e") == pytest.approx(third, abs=1e-12)
    assert shares.column_sum("e") == pytest.approx(1.0, abs=1e-12)


def test_shares_sum_to_one_on_random_graphs():
    rng = random.Random(7)
    checked = 0
    for _ in range(8):
        g = helpers.random_dag(rng, 8)
        oracle = _oracle(g)
        shares = hg.shapley_shares(oracle, hg.deciders(g), hg.executives(g))
        for i in hg.executives(g):
            assert shares.column_sum(i) == pytest.approx(1.0, abs=1e-12)
            checked += 1
    assert checked >= 8


def test_dummy_decider_gets_nothing():
    # d2 feeds only a dead-end agent, so it never reaches the executive
    vertices = (Vertex("d1", "decider"), Vertex("d2", "decider"),
                Vertex("m", "agent"), Vertex("w", "agent"),
                Vertex("e", "executive"))
    edges = (Edge("d1", "m", 1.0), Edge("m", "e", 1.0),
             Edge("m", "w", 0.5), Edge("d2", "w", 0.5))
    g = HierarchyGraph(vertices, edges, 0.5, 1.0)
    oracle = _oracle(g)
    shares = hg.shapley_shares(oracle, ("d1", "d2"), ("e",))
    assert abs(shares.share("d2", "e")) < 1e-14
    assert shares.share("d1", "e") == pytest.approx(1.0, abs=1e-13)
    paths = hg.shares_by_paths(g)
    assert paths.share("d2", "e") == 0.0
    assert paths.share("d1", "e") == 1.0


def test_degenerate_influence_raises():
    flat = lambda executive, commands: 0.5
    with pytest.raises(hg.DegenerateInfluenceError):
        coalition_value(flat, "e", ("d1",), ("d1", "d2"))
    with pytest.raises(hg.DegenerateInfluenceError):
        hg.shapley_shares(flat, ("d1", "d2"), ("e",))


def test_coalition_argument_checks():
    g = hg.two_decider_chain(1, 1)
    oracle = _oracle(g)
    with pytest.raises(ValueError):
        coalition_value(oracle, "1", ("ghost",), ("d1", "d2"))
    with pytest.raises(ValueError):
        hg.shapley_shares(oracle, (), ("1",))


def test_coalition_function_table():
    g = hg.two_decider_chain(2, 2)
    oracle = _oracle(g)
    cf = build_coalition_function(oracle, "1", ("d1", "d2"))
    assert len(cf.table) == 4
    assert cf.value(()) == 0.0
    assert cf.value(("d1", "d2")) == pytest.approx(1.0, abs=1e-14)
    # equal arms make the two singleton coalitions interchangeable
    assert cf.value(("d1",)) == pytest.approx(cf.value(("d2",)), abs=1e-12)


def test_path_shares_examples():
    assert hg.shares_by_paths(hg.single_chain(5)).share("d1", "1") == 1.0

    shares = hg.shares_by_paths(hg.crossed_chains(a=2, b=4, c=4, d=2))
    for lam in ("d1", "d2"):
        for i in ("1", "2"):
            assert shares.share(lam, i) == 0.5
        assert shares.column_sum(i) == 1.0

    # parallel branches add up
    vertices = (Vertex("d1", "decider"), Vertex("p", "agent"),
                Vertex("q", "agent"), Vertex("e", "executive"))
    edges = (Edge("d1", "p", 1.0), Edge("d1", "q", 1.0),
             Edge("p", "e", 0.5), Edge("q", "e", 0.5))
    g = HierarchyGraph(vertices, edges, 0.5, 1.0)
    assert hg.shares_by_paths(g).share("d1", "e") == 1.0


def test_path_shares_long_chain():
    shares = hg.shares_by_paths(hg.single_chain(3000))
    assert shares.values == {("d1", "1"): 1.0}


def _path_sum(g, v, target):
    """Sum over directed v-to-target paths of the weight product, each path
    ending at its first visit to the target."""
    if v == target:
        return 1.0
    return sum(w * _path_sum(g, nxt, target) for nxt, w in g.succ_map[v])


def test_path_shares_match_path_enumeration():
    rng = random.Random(5)
    for _ in range(10):
        g = helpers.random_dag(rng, rng.randint(3, 12), extra=rng.randint(0, 6))
        shares = hg.shares_by_paths(g)
        for (member, i), value in shares.values.items():
            assert value == pytest.approx(_path_sum(g, member, i), abs=1e-12)


def test_path_shares_need_acyclic():
    vertices = (Vertex("d", "decider"), Vertex("m", "agent"),
                Vertex("e", "executive"))
    edges = (Edge("d", "m", 0.5), Edge("e", "m", 0.5), Edge("m", "e", 1.0))
    g = HierarchyGraph(vertices, edges, 0.5, 1.0)
    with pytest.raises(hg.CyclicGraphError):
        hg.shares_by_paths(g)
