"""Where the vote process and the coupled spin model agree, and where not.

`hiergame.semantics_agree` says where the two laws are the same with the
`tanh` response: no vertex that is conditioned, or still connected to a
target once the conditioned vertices are removed, has two or more
predecessors with one of them unconditioned.  Chains, arborescences and
joins fed only by conditioned vertices pass.  A join with a free
predecessor on the way to the target, or one off that way that the spin
model still couples in, fails; so does a chain in `gaussian` mode.  The
gaps are far above tolerance and pinned down here, and the predicate's
"agree" is checked against the brute forces of `helpers` on random
trees, arborescences, DAGs and digraphs.
"""

import random
from itertools import product

import pytest

import helpers
import hiergame as hg


TANH = hg.VoteParams.from_beta(1.0, 0.5)


def _vote(g, executive, condition, params=TANH):
    dist = hg.conditional_influence(g, set(condition), {executive},
                                    condition, params)
    return dist.plus_prob(executive)


def _ising(g, executive, condition, beta_params=None):
    model = hg.coupling_from_hierarchy(g)
    return hg.ising_conditional(model, executive, condition)


def test_single_chains_agree():
    for length in range(1, 9):
        g = hg.single_chain(length)
        assert hg.semantics_agree(g, {"d1"}, {"1"})
        for spin in (1, -1):
            vote = _vote(g, "1", {"d1": spin})
            assert vote == pytest.approx(
                hg.chain_conditional(length, 1.0, spin, 1), abs=1e-12)
            assert vote == pytest.approx(_ising(g, "1", {"d1": spin}), abs=1e-12)


def test_arborescences_agree():
    rng = random.Random(5)
    for _ in range(10):
        g = helpers.random_arborescence(rng, rng.randint(4, 10))
        params = hg.VoteParams.from_graph(g)
        lam = sorted(hg.deciders(g))
        model = hg.coupling_from_hierarchy(g)
        for pattern in product((1, -1), repeat=len(lam)):
            condition = dict(zip(lam, pattern))
            for i in sorted(hg.executives(g)):
                assert hg.semantics_agree(g, condition, {i})
                vote = _vote(g, i, condition, params)
                spin_model = hg.ising_conditional(model, i, condition)
                assert vote == pytest.approx(spin_model, abs=1e-12)


def test_fully_conditioned_joins_agree():
    # a join is harmless when every predecessor is itself conditioned
    for g in (hg.two_decider_chain(1, 1), hg.crossed_chains(1, 1, 1, 1)):
        for pattern in product((1, -1), repeat=2):
            condition = {"d1": pattern[0], "d2": pattern[1]}
            for i in sorted(hg.executives(g)):
                assert hg.semantics_agree(g, condition, {i})
                assert _vote(g, i, condition) == pytest.approx(
                    _ising(g, i, condition), abs=1e-12)


def test_high_degree_conditioned_join_agrees():
    from hiergame.graph import Edge, HierarchyGraph, Vertex
    third = 1.0 / 3.0
    g = HierarchyGraph(
        (Vertex("d1", "decider"), Vertex("d2", "decider"),
         Vertex("d3", "decider"), Vertex("e", "executive")),
        (Edge("d1", "e", third), Edge("d2", "e", third), Edge("d3", "e", third)),
        0.5, hg.sigma_for_beta(1.0),
    )
    assert hg.semantics_agree(g, {"d1", "d2", "d3"}, {"e"})
    for pattern in product((1, -1), repeat=3):
        condition = dict(zip(("d1", "d2", "d3"), pattern))
        assert _vote(g, "e", condition) == pytest.approx(
            _ising(g, "e", condition), abs=1e-12)


def test_free_join_gap_is_macroscopic():
    # one chain longer than an edge feeds the join with a free predecessor;
    # the two semantics visibly part ways
    g = hg.two_decider_chain(2, 1)
    assert not hg.semantics_agree(g, {"d1", "d2"}, {"1"})
    vote = _vote(g, "1", {"d1": -1, "d2": 1})
    spin_model = _ising(g, "1", {"d1": -1, "d2": 1})
    assert spin_model == pytest.approx(hg.chain_xy(2, 1, 1.0)[0], abs=1e-12)
    assert abs(vote - spin_model) > 0.01
    assert vote - spin_model == pytest.approx(-0.020392873570, abs=1e-9)


def test_benchmark_gap_frozen():
    g = hg.crossed_chains()
    assert not hg.semantics_agree(g, {"d1", "d2"}, {"1"})
    vote_y = _vote(g, "1", {"d1": 1, "d2": 1})
    ising_y = _ising(g, "1", {"d1": 1, "d2": 1})
    assert ising_y == pytest.approx(hg.chain_xy(4, 4, 1.0)[1], abs=1e-12)
    assert vote_y == pytest.approx(0.668214882193, abs=1e-9)
    assert ising_y == pytest.approx(0.695971019861, abs=1e-9)
    # equal arm lengths force the disagreeing conditional to 1/2 in both
    vote_x = _vote(g, "1", {"d1": -1, "d2": 1})
    ising_x = _ising(g, "1", {"d1": -1, "d2": 1})
    assert vote_x == pytest.approx(0.5, abs=1e-12)
    assert ising_x == pytest.approx(0.5, abs=1e-12)


def test_gap_vanishes_in_both_coupling_limits():
    # both semantics saturate when coupling dominates noise and both flatten
    # to a fair coin when noise dominates, so the gap peaks in between
    gaps = {}
    for beta in (4.0, 1.0, 0.25, 0.01):
        g = hg.two_decider_chain(2, 3, noise_sigma=hg.sigma_for_beta(beta))
        params = hg.VoteParams.from_graph(g)
        vote = _vote(g, "1", {"d1": 1, "d2": 1}, params)
        model = hg.coupling_from_hierarchy(g)
        spin_model = hg.ising_conditional(model, "1", {"d1": 1, "d2": 1})
        gaps[beta] = abs(vote - spin_model)
    assert gaps[1.0] > 0.02
    assert gaps[4.0] < 1e-3
    assert gaps[0.25] < 1e-3
    assert gaps[0.01] < 1e-8


def _largest_gaps(g, executives):
    """Largest |vote - Ising| at each of `executives` over every decider
    pattern, both sides from the brute forces of `helpers`."""
    lam = sorted(hg.deciders(g))
    model = hg.coupling_from_hierarchy(g)
    gaps = dict.fromkeys(executives, 0.0)
    for pattern in product((1, -1), repeat=len(lam)):
        condition = dict(zip(lam, pattern))
        vote = helpers.brute_vote_joint(g, executives, condition)
        spin_model = helpers.brute_ising_joint(model.couplings, model.beta,
                                               executives, condition)
        for k, i in enumerate(executives):
            gap = abs(sum(p for key, p in vote.items() if key[k] == 1)
                      - sum(p for key, p in spin_model.items() if key[k] == 1))
            gaps[i] = max(gaps[i], gap)
    return gaps


@pytest.mark.parametrize("make", [helpers.random_tree, helpers.random_arborescence,
                                  helpers.random_dag, helpers.random_digraph])
def test_agreement_predicate_is_exact_on_random_graphs(make):
    # every (graph, executive) pair the predicate passes agrees to 1e-12 on
    # every decider pattern; graphs with two edges on one pair have no
    # spin model, and a digraph may have no decider
    rng = random.Random(2601)
    agreed = differed = 0
    for _ in range(150):
        g = make(rng, rng.randint(3, 10))
        lam = hg.deciders(g)
        try:
            hg.coupling_from_hierarchy(g)
        except hg.MultiEdgeError:
            continue
        execs = sorted(hg.executives(g)) if lam else []
        agree = [i for i in execs if hg.semantics_agree(g, lam, {i})]
        agreed += len(agree)
        differed += len(execs) - len(agree)
        if agree:
            assert max(_largest_gaps(g, agree).values()) <= 1e-12, (g, agree)
    assert agreed > 0
    assert (differed > 0) == (make is not helpers.random_arborescence)


def _equal_weights(vertices, edges):
    """Hierarchy at beta = 1 and D = 1/2 whose vertices split their
    incoming weight equally; `vertices` maps id to role."""
    fan_in = {}
    for _, dst in edges:
        fan_in[dst] = fan_in.get(dst, 0) + 1
    return hg.HierarchyGraph(tuple(hg.Vertex(v, role) for v, role in vertices.items()),
                             tuple(hg.Edge(u, v, 1.0 / fan_in[v]) for u, v in edges),
                             0.5, hg.sigma_for_beta(1.0))


def test_join_with_one_free_predecessor_differs():
    # d1 -> u -> v <- d2, v -> e: v's 1/cosh term still depends on u
    g = _equal_weights({"d1": "decider", "d2": "decider", "u": "agent", "v": "agent",
                        "e": "executive"},
                       [("d1", "u"), ("u", "v"), ("d2", "v"), ("v", "e")])
    assert not hg.semantics_agree(g, {"d1", "d2"}, {"e"})
    assert _largest_gaps(g, ["e"])["e"] == pytest.approx(1.5531093333e-2, abs=1e-12)


def test_free_join_off_the_path_differs():
    # d1 -> u -> e, with u -> x <- w <- d2 beside it: the vote process
    # prunes x as barren, while the spin model couples u to w through x
    g = _equal_weights({"d1": "decider", "d2": "decider", "u": "agent", "w": "agent",
                        "x": "executive", "e": "executive"},
                       [("d1", "u"), ("u", "e"), ("u", "x"), ("w", "x"), ("d2", "w")])
    assert not hg.semantics_agree(g, {"d1", "d2"}, {"e"})
    assert _largest_gaps(g, ["e"])["e"] == pytest.approx(2.9687492547e-2, abs=1e-12)
    # conditioned on u, which cuts x off from e, the join no longer matters
    assert hg.semantics_agree(g, {"u"}, {"e"})
    model = hg.coupling_from_hierarchy(g)
    for spin in (1, -1):
        assert helpers.brute_vote_conditional(g, "e", {"u": spin}) == pytest.approx(
            helpers.brute_ising_conditional(model.couplings, model.beta, "e", {"u": spin}),
            abs=1e-12)


def test_conditioned_join_with_free_predecessors_differs():
    # conditioning v, whose predecessors a and b are free, couples them
    # through v's 1/cosh term: checking only the corridor and the target
    # would miss it
    g = _equal_weights({"d": "decider", "b": "decider", "a": "agent", "v": "agent",
                        "t": "executive"},
                       [("d", "a"), ("a", "v"), ("b", "v"), ("a", "t")])
    condition = {"d": 1, "v": -1}
    assert hg.nodes_between(g, condition, {"t"}) == {"a"}
    assert not hg.semantics_agree(g, condition, {"t"})
    model = hg.coupling_from_hierarchy(g)
    gap = abs(helpers.brute_vote_conditional(g, "t", condition)
              - helpers.brute_ising_conditional(model.couplings, model.beta, "t", condition))
    assert gap == pytest.approx(2.8265214024e-2, abs=1e-12)


def test_targets_sharing_a_barren_join_differ():
    # two targets both feed x: the vote process prunes x, the spin model
    # correlates the targets through it, although x lies beyond them
    g = _equal_weights({"d": "decider", "t1": "agent", "t2": "agent", "x": "executive"},
                       [("d", "t1"), ("d", "t2"), ("t1", "x"), ("t2", "x")])
    assert hg.nodes_between(g, {"d"}, {"t1", "t2"}) == frozenset()
    assert not hg.semantics_agree(g, {"d"}, {"t1", "t2"})
    model = hg.coupling_from_hierarchy(g)
    targets = ["t1", "t2"]
    vote = helpers.brute_vote_joint(g, targets, {"d": 1})
    spin_model = helpers.brute_ising_joint(model.couplings, model.beta, targets, {"d": 1})
    assert helpers.tv_distance(vote, spin_model) == pytest.approx(6.3044417257e-2, abs=1e-12)


@pytest.mark.parametrize("make", [helpers.random_tree, helpers.random_dag,
                                  helpers.random_digraph])
def test_agreement_predicate_is_exact_for_any_condition_and_targets(make):
    # random conditioned sets, not only deciders, and one to three targets:
    # every pass is exact on the joint law of the targets, by the brute
    # forces and by the package's two exact engines
    rng = random.Random(2602)
    passes = 0
    for _ in range(400):
        g = make(rng, rng.randint(3, 8))
        try:
            model = hg.coupling_from_hierarchy(g)
        except hg.MultiEdgeError:
            continue
        ids = sorted(g.vertex_ids)
        condition = rng.sample(ids, rng.randint(1, len(ids) - 1))
        rest = [v for v in ids if v not in condition]
        targets = rng.sample(rest, rng.randint(1, min(3, len(rest))))
        if not hg.semantics_agree(g, condition, targets):
            continue
        passes += 1
        params = hg.VoteParams.from_graph(g)
        for pattern in product((1, -1), repeat=len(condition)):
            spins = dict(zip(condition, pattern))
            vote = helpers.brute_vote_joint(g, targets, spins)
            spin_model = helpers.brute_ising_joint(model.couplings, model.beta,
                                                   targets, spins)
            assert helpers.tv_distance(vote, spin_model) <= 1e-12, (g, spins, targets)
            dist = hg.conditional_influence(g, condition, targets, spins, params)
            law = hg.ising_joint(model, targets, spins)
            assert max(abs(dist.prob(dict(zip(targets, key))) - p)
                       for key, p in law.items()) <= 1e-12, (g, spins, targets)
    assert passes >= 20


def test_gaussian_mode_differs_on_a_chain():
    # the spin model mirrors only the tanh response: with the gaussian one
    # a chain of two edges already differs, although the predicate passes it
    g = hg.single_chain(2)
    assert hg.semantics_agree(g, {"d1"}, {"1"})
    gaussian = hg.VoteParams.from_beta(1.0, 0.5, "gaussian")
    vote = _vote(g, "1", {"d1": 1}, gaussian)
    assert vote == pytest.approx(helpers.brute_vote_conditional(g, "1", {"d1": 1}, "gaussian"),
                                 abs=1e-12)
    assert vote == pytest.approx(0.811977793877, abs=1e-9)
    assert _ising(g, "1", {"d1": 1}) == pytest.approx(0.790012829193, abs=1e-9)
    assert _vote(g, "1", {"d1": 1}) == pytest.approx(_ising(g, "1", {"d1": 1}), abs=1e-12)

