"""Coalition values and decider share attribution."""

import random

import numpy as np
import pytest

import helpers
import hiergame as hg
from hiergame.graph import Edge, HierarchyGraph, Vertex
from hiergame.payoff import _coalition_values, oracle_table, require_decided, shapley_from_table


def _oracle(g, params=None):
    if params is None:
        params = hg.VoteParams.from_graph(g)
    return hg.influence_oracle(g, params)


def _coalitions(oracle, executive, lam):
    """One executive's coalition values, keyed by frozensets of decider
    names, after the degeneracy check."""
    values, degenerate = _coalition_values(oracle_table(oracle, lam, (executive,)))
    require_decided(degenerate, (executive,))
    return {frozenset(lam[j] for j in k): float(v[0]) for k, v in values.items()}


def _shapley(oracle, lam, execs):
    """Shapley shares as a (deciders x executives) array, by the route
    transform_game takes."""
    shares, degenerate = shapley_from_table(oracle_table(oracle, lam, execs))
    require_decided(degenerate, execs)
    return np.array(shares)


def test_coalition_endpoints():
    g = hg.two_decider_chain(2, 3)
    values = _coalitions(_oracle(g), "1", ("d1", "d2"))
    assert values[frozenset()] == 0.0
    assert values[frozenset({"d1", "d2"})] == pytest.approx(1.0, abs=1e-14)


def test_two_decider_closed_form():
    for a, c in ((2, 3), (1, 4), (3, 3)):
        g = hg.two_decider_chain(a, c)
        oracle = _oracle(g)
        x = oracle("1", {"d1": -1, "d2": 1})
        y = oracle("1", {"d1": 1, "d2": 1})
        assert _coalitions(oracle, "1", ("d1", "d2"))[frozenset({"d2"})] == \
            pytest.approx((x + y - 1.0) / (2.0 * y - 1.0), abs=1e-13)
        (d1,), (d2,) = _shapley(oracle, ("d1", "d2"), ("1",))
        assert d1 == pytest.approx((y - x) / (2.0 * y - 1.0), abs=1e-12)
        assert d2 == pytest.approx((x + y - 1.0) / (2.0 * y - 1.0), abs=1e-12)
        assert d1 + d2 == pytest.approx(1.0, abs=1e-12)


def test_benchmark_shares_split_evenly():
    g = hg.crossed_chains()
    shares = _shapley(_oracle(g), ("d1", "d2"), ("1", "2"))
    assert shares == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)


def test_three_decider_star_symmetry():
    vertices = (Vertex("d1", "decider"), Vertex("d2", "decider"),
                Vertex("d3", "decider"), Vertex("e", "executive"))
    third = 1.0 / 3.0
    edges = (Edge("d1", "e", third), Edge("d2", "e", third), Edge("d3", "e", third))
    g = HierarchyGraph(vertices, edges, 0.5, 1.0)
    shares = _shapley(_oracle(g), ("d1", "d2", "d3"), ("e",))
    assert shares == pytest.approx(np.full((3, 1), third), abs=1e-12)
    assert shares.sum() == pytest.approx(1.0, abs=1e-12)


def test_shares_sum_to_one_on_random_graphs():
    rng = random.Random(7)
    checked = 0
    for _ in range(8):
        g = helpers.random_dag(rng, 8)
        execs = tuple(sorted(hg.executives(g)))
        shares = _shapley(_oracle(g), tuple(sorted(hg.deciders(g))), execs)
        for column in shares.sum(axis=0):
            assert column == pytest.approx(1.0, abs=1e-12)
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
    (d1,), (d2,) = _shapley(_oracle(g), ("d1", "d2"), ("e",))
    assert abs(d2) < 1e-14
    assert d1 == pytest.approx(1.0, abs=1e-13)
    paths = hg.shares_by_paths(g)
    assert (paths.deciders, paths.executives) == (("d1", "d2"), ("e",))
    assert paths.values.tolist() == [[1.0], [0.0]]


def test_degenerate_influence_raises():
    flat = lambda executive, commands: 0.5
    with pytest.raises(hg.DegenerateInfluenceError):
        _coalitions(flat, "e", ("d1", "d2"))
    with pytest.raises(hg.DegenerateInfluenceError):
        _shapley(flat, ("d1", "d2"), ("e",))


def test_coalition_function_table():
    g = hg.two_decider_chain(2, 2)
    values = _coalitions(_oracle(g), "1", ("d1", "d2"))
    assert len(values) == 4
    assert values[frozenset()] == 0.0
    assert values[frozenset({"d1", "d2"})] == pytest.approx(1.0, abs=1e-14)
    # equal arms make the two singleton coalitions interchangeable
    assert values[frozenset({"d1"})] == pytest.approx(values[frozenset({"d2"})], abs=1e-12)


def test_path_shares_examples():
    chain = hg.shares_by_paths(hg.single_chain(5))
    assert (chain.deciders, chain.executives, chain.values.tolist()) == (("d1",), ("1",), [[1.0]])

    shares = hg.shares_by_paths(hg.crossed_chains(a=2, b=4, c=4, d=2))
    assert (shares.deciders, shares.executives) == (("d1", "d2"), ("1", "2"))
    assert shares.values.tolist() == [[0.5, 0.5], [0.5, 0.5]]
    assert shares.values.sum(axis=0).tolist() == [1.0, 1.0]

    # parallel branches add up
    vertices = (Vertex("d1", "decider"), Vertex("p", "agent"),
                Vertex("q", "agent"), Vertex("e", "executive"))
    edges = (Edge("d1", "p", 1.0), Edge("d1", "q", 1.0),
             Edge("p", "e", 0.5), Edge("q", "e", 0.5))
    g = HierarchyGraph(vertices, edges, 0.5, 1.0)
    assert hg.shares_by_paths(g).values.tolist() == [[1.0]]


def test_path_shares_keep_the_given_executive_order():
    # the default columns are the sorted executives; given ones keep their order
    vertices = (Vertex("d1", "decider"), Vertex("d2", "decider"),
                Vertex("a", "executive"), Vertex("b", "executive"))
    edges = (Edge("d1", "a", 1.0), Edge("d1", "b", 0.25), Edge("d2", "b", 0.75))
    g = HierarchyGraph(vertices, edges, 0.5, 1.0)
    default = hg.shares_by_paths(g)
    assert default.executives == ("a", "b")
    assert default.values.tolist() == [[1.0, 0.25], [0.0, 0.75]]
    given = hg.shares_by_paths(g, ["b", "a"])
    assert (given.deciders, given.executives) == (("d1", "d2"), ("b", "a"))
    assert given.values.tolist() == [[0.25, 1.0], [0.75, 0.0]]


def test_path_shares_long_chain():
    shares = hg.shares_by_paths(hg.single_chain(3000))
    assert (shares.deciders, shares.executives, shares.values.tolist()) == \
        (("d1",), ("1",), [[1.0]])


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
        assert shares.values.shape == (len(shares.deciders), len(shares.executives))
        for d, member in enumerate(shares.deciders):
            for k, i in enumerate(shares.executives):
                assert shares.values[d, k] == pytest.approx(_path_sum(g, member, i), abs=1e-12)


def test_path_shares_need_acyclic():
    vertices = (Vertex("d", "decider"), Vertex("m", "agent"),
                Vertex("e", "executive"))
    edges = (Edge("d", "m", 0.5), Edge("e", "m", 0.5), Edge("m", "e", 1.0))
    g = HierarchyGraph(vertices, edges, 0.5, 1.0)
    with pytest.raises(hg.CyclicGraphError):
        hg.shares_by_paths(g)
