"""Base game, decider-game transform, equilibria, and regime map."""

import hashlib
import json
import math
import random
from itertools import product

import numpy as np
import pytest

import helpers
import hiergame as hg
from hiergame.game import (REGIME_LABELS, NormalFormGame, TransformedGame, _decider_game,
                           _decider_payoffs, nash_mask, pre_payoff, regime_map,
                           symmetric_payoffs, tensor_from_dict, tensor_to_dict)
from hiergame.payoff import shapley_from_table


def test_prisoners_dilemma_table():
    pd = hg.prisoners_dilemma()
    assert pd.players == ("1", "2")
    assert pd.labels == {1: "C", -1: "D"}
    assert pd.payoff((1, 1)) == (1.0, 1.0)
    assert pd.payoff((1, -1)) == (-3.0, 3.0)
    assert pd.payoff((-1, 1)) == (3.0, -3.0)
    assert pd.payoff((-1, -1)) == (-1.0, -1.0)
    # defection dominates, mutual cooperation beats mutual defection
    assert pd.payoff((-1, 1))[0] > pd.payoff((1, 1))[0]
    assert pd.payoff((1, 1))[0] > pd.payoff((-1, -1))[0]
    assert pd.payoff((-1, -1))[0] > pd.payoff((1, -1))[0]


def test_game_validation():
    with pytest.raises(ValueError):
        NormalFormGame((), {})
    with pytest.raises(ValueError, match="every spin profile"):
        NormalFormGame(("1",), {(1,): (0.0,)})
    with pytest.raises(ValueError, match="wrong length"):
        NormalFormGame(("1",), {(1,): (0.0, 1.0), (-1,): (0.0,)})
    with pytest.raises(ValueError, match="labels"):
        NormalFormGame(("1",), {(1,): (0.0,), (-1,): (0.0,)},
                       {1: "C", -1: "C"})
    # a repeated name would count one executive's payoff twice
    with pytest.raises(ValueError, match=r"distinct, got \['1', '1', '2'\]"):
        NormalFormGame(("1", "1", "2"), {s: (0.0,) * 3 for s in product((1, -1), repeat=3)})


def test_game_round_trip(tmp_path):
    pd = hg.prisoners_dilemma()
    path = tmp_path / "game.json"
    hg.save_game(pd, path)
    back = hg.load_game(path)
    assert back == pd
    assert hg.game_from_dict(hg.game_to_dict(pd)) == pd


def test_game_format_errors(tmp_path):
    good = hg.game_to_dict(hg.prisoners_dilemma())

    dup = json.loads(json.dumps(good))
    dup["payoffs"][1]["profile"] = dup["payoffs"][0]["profile"]
    with pytest.raises(hg.GameFormatError, match="duplicate"):
        hg.game_from_dict(dup)

    missing = {k: v for k, v in good.items() if k != "labels"}
    with pytest.raises(hg.GameFormatError):
        hg.game_from_dict(missing)

    repeated = dict(good, players=["1", "1"])
    with pytest.raises(hg.GameFormatError, match="distinct"):
        hg.game_from_dict(repeated)

    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    with pytest.raises(hg.GameFormatError, match="JSON"):
        hg.load_game(bad_json)
    with pytest.raises(hg.GameFormatError, match="read"):
        hg.load_game(tmp_path / "absent.json")


def test_format_dicts_take_tuples_and_round_trip():
    # the list fields of game and tensor data may be tuples in memory
    pd = hg.prisoners_dilemma()
    data = hg.game_to_dict(pd)
    data["players"] = tuple(data["players"])
    for row in data["payoffs"]:
        row["profile"], row["u"] = tuple(row["profile"]), tuple(row["u"])
    assert hg.game_from_dict(data) == pd
    tg = hg.symmetric_transform(0.4, 0.8)
    data = tensor_to_dict(tg)
    for key in ("deciders", "executives", "strategies"):
        data[key] = tuple(map(tuple, data[key]) if key == "strategies" else data[key])
    back = tensor_from_dict(data)
    assert (back.deciders, back.executives, back.strategies, back.labels, back.provenance) \
        == (tg.deciders, tg.executives, tg.strategies, tg.labels, tg.provenance)
    assert np.array_equal(back.payoffs, tg.payoffs)
    assert tensor_to_dict(back) == tensor_to_dict(tg)

def _all_plus_profile():
    return {"d1": {"1": 1, "2": 1}, "d2": {"1": 1, "2": 1}}


def _mirror_tables(x, y):
    """{executive: {command pattern: P(+1)}} at a symmetric influence point:
    y under unanimous +1, x when only the executive's far decider says +1."""
    return {"1": {(1, 1): y, (-1, 1): x, (1, -1): 1.0 - x, (-1, -1): 1.0 - y},
            "2": {(1, 1): y, (1, -1): x, (-1, 1): 1.0 - x, (-1, -1): 1.0 - y}}


def _stacked(tables, execs):
    """The same conditionals as a stacked {pattern: P(+1) per executive}."""
    return {p: np.array([tables[i][p] for i in execs]) for p in tables[execs[0]]}


def _explicit_game(base, lam, tables, shares):
    """The decider game of explicit conditionals and share rows (one row
    per decider), through the one tensor assembly."""
    payoffs = _decider_payoffs(base, _stacked(tables, base.players), shares)
    return _decider_game(base, lam, payoffs, {})


def _profile_payoff(pd, lam, tables, profile):
    """pre_payoff under a command profile: each executive's probability
    from its table at the commands it receives."""
    return pre_payoff(pd, [tables[i][tuple(profile[d][i] for d in lam)] for i in pd.players])


def test_pre_payoff_points():
    pd = hg.prisoners_dilemma()
    lam = ("d1", "d2")
    for y in (0.6, 0.85, 1.0):
        tables = _mirror_tables(0.3, y)
        u = _profile_payoff(pd, lam, tables, _all_plus_profile())
        assert u[0] == pytest.approx(2.0 * y - 1.0, abs=1e-14)
        assert u[1] == pytest.approx(u[0], abs=1e-14)
    # coin-flip influence washes every command out
    tables = _mirror_tables(0.5, 0.5)
    assert _profile_payoff(pd, lam, tables, _all_plus_profile()) == \
        pytest.approx((0.0, 0.0), abs=1e-15)
    # deterministic influence recovers the commanded cell
    tables = _mirror_tables(0.0, 1.0)
    profile = {"d1": {"1": 1, "2": 1}, "d2": {"1": -1, "2": -1}}
    # each executive follows its own near decider at these corners
    u = _profile_payoff(pd, lam, tables, profile)
    assert u == pytest.approx(pd.payoff((1, -1)), abs=1e-14)
    with pytest.raises(ValueError, match="one probability per player"):
        pre_payoff(pd, [0.5])
    # arrays of probabilities, corners included: every entry is exactly the
    # scalar call's result at that point
    rng = np.random.default_rng(3)
    probs = [rng.uniform(0.0, 1.0, (6, 5)) for _ in pd.players]
    probs[0][0, :2], probs[1][1, :2] = (0.0, 1.0), (1.0, 0.0)
    batched = pre_payoff(pd, probs)
    for idx in np.ndindex(6, 5):
        scalar = pre_payoff(pd, [p[idx].item() for p in probs])
        assert np.array_equal([u[idx] for u in batched], scalar)


def test_identity_tables_recover_base_dilemma():
    # each executive obeys its own decider exactly; shares route each
    # executive's payoff to that decider alone
    pd = hg.prisoners_dilemma()
    lam = ("d1", "d2")
    tables = {
        "1": {p: 1.0 if p[0] == 1 else 0.0 for p in product((1, -1), repeat=2)},
        "2": {p: 1.0 if p[1] == 1 else 0.0 for p in product((1, -1), repeat=2)},
    }
    tg = _explicit_game(pd, lam, tables, [[1.0, 0.0], [0.0, 1.0]])
    eqs = hg.pure_nash(tg)
    # only the own-executive coordinate matters, so defection there is
    # dominant and the other coordinate is arbitrary
    assert eqs == ((2, 1), (2, 3), (3, 1), (3, 3))
    for idx in eqs:
        assert tuple(tg.payoffs[idx]) == (-1.0, -1.0)


def _random_base(rng, players):
    return NormalFormGame(tuple(players), {
        spins: tuple(rng.uniform(-3.0, 3.0) for _ in players)
        for spins in product((1, -1), repeat=len(players))})


@pytest.mark.parametrize("m,n", [(3, 3), (4, 2), (2, 3)])
def test_transform_matches_brute_force(m, n):
    # Shapley shares over all m! orderings and expected payoffs summed over
    # every executive spin profile, against the one tensor assembly
    rng = random.Random(100 * m + n)
    lam = tuple(f"d{k}" for k in range(m))
    for _ in range(3):
        base = _random_base(rng, [str(k) for k in range(1, n + 1)])
        tables = {}
        for i in base.players:
            tables[i] = {p: rng.uniform(0.05, 0.95) for p in product((1, -1), repeat=m)}
            tables[i][(1,) * m] = rng.uniform(0.6, 0.95)
        shares, degenerate = shapley_from_table(_stacked(tables, base.players))
        assert not degenerate.any()
        tg = _explicit_game(base, lam, tables, shares)
        assert tg.payoffs.shape == (2 ** n,) * m + (m,)
        brute = helpers.brute_decider_game(base.payoffs, list(base.players), list(lam), tables)
        assert len(brute) == 2 ** (n * m)
        for profile, expected in brute.items():
            idx = tuple(tg.strategies.index(vec) for vec in profile)
            assert tg.payoffs[idx] == pytest.approx(expected, abs=1e-12)


def test_transform_matches_symmetric_tensor():
    pd = hg.prisoners_dilemma()
    for dims in ((4, 4, 4, 4), (2, 3, 3, 2)):
        g = hg.crossed_chains(*dims)
        params = hg.VoteParams.from_graph(g)
        table = hg.influence_table(g, params, ("d1", "d2"), ("1",))
        (x,), (y,) = table[(-1, 1)], table[(1, 1)]
        tg = hg.transform_game(pd, g, params)
        sym = hg.symmetric_transform(x, y)
        assert tg.deciders == sym.deciders == ("d1", "d2")
        assert tg.strategies == sym.strategies
        assert np.max(np.abs(tg.payoffs - sym.payoffs)) < 1e-12
        assert tg.provenance["mechanism"] == "shapley"


def test_transform_mechanisms_agree_only_under_symmetry():
    pd = hg.prisoners_dilemma()
    g = hg.crossed_chains()
    params = hg.VoteParams.from_graph(g)
    even = hg.transform_game(pd, g, params, mechanism="shapley")
    paths = hg.transform_game(pd, g, params, mechanism="shares")
    assert np.max(np.abs(even.payoffs - paths.payoffs)) < 1e-12

    g = hg.crossed_chains(2, 3, 3, 2)
    params = hg.VoteParams.from_graph(g)
    even = hg.transform_game(pd, g, params, mechanism="shapley")
    paths = hg.transform_game(pd, g, params, mechanism="shares")
    assert np.max(np.abs(even.payoffs - paths.payoffs)) > 1e-3

    with pytest.raises(ValueError, match="mechanism"):
        hg.transform_game(pd, g, params, mechanism="split")


def test_shapley_transform_runs_each_conditional_once(monkeypatch):
    # the Shapley shares read the influence tables: 2 executives x 4 patterns,
    # of which influence_table sums the 2 whose first decider says +1
    original = hg.vote._vote_sum
    calls = []

    def counted(layout, *args, **kwargs):
        calls.append(layout.targets)
        return original(layout, *args, **kwargs)

    monkeypatch.setattr(hg.vote, "_vote_sum", counted)
    g = hg.crossed_chains(3, 3, 3, 3)
    hg.transform_game(hg.prisoners_dilemma(), g, hg.VoteParams.from_graph(g),
                      mechanism="shapley")
    assert len(calls) == 4


def test_transform_player_mismatch():
    base = hg.prisoners_dilemma(("left", "right"))
    g = hg.crossed_chains()
    with pytest.raises(ValueError, match="players"):
        hg.transform_game(base, g, hg.VoteParams.from_graph(g))


def _transform_pool():
    """Twelve hierarchies with 2 or 3 deciders: crossed chains and small
    random DAGs, each under a random base game over shuffled players."""
    graphs = [hg.crossed_chains(k, k, k, k) for k in range(3, 7)]
    graphs += [hg.crossed_chains(2, 3, 3, 2), hg.crossed_chains(4, 2, 5, 3)]
    rng = random.Random(808)
    while len(graphs) < 12:
        g = helpers.random_dag(rng, rng.randint(5, 9))
        if 2 <= len(hg.deciders(g)) <= 3 and len(hg.executives(g)) <= 3:
            graphs.append(g)
    assert {len(hg.deciders(g)) for g in graphs} == {2, 3}
    pool = []
    for g in graphs:
        players = sorted(hg.executives(g))
        rng.shuffle(players)
        pool.append((g, _random_base(rng, players)))
    return pool


def test_decider_tensors_are_pinned():
    # every transform_game tensor of the pool in both modes under both
    # mechanisms, and the symmetric payoffs and degeneracy mask over the
    # README sweep grid, pinned byte for byte; the brute-force tests in
    # this module check the same numbers for correctness
    h = hashlib.sha256()
    for g, base in _transform_pool():
        for mode, mechanism in product(("tanh", "gaussian"), ("shapley", "shares")):
            params = hg.VoteParams.from_graph(g, mode=mode)
            tg = hg.transform_game(base, g, params, mechanism=mechanism)
            assert (tg.deciders, tg.executives) == (tuple(sorted(hg.deciders(g))), base.players)
            h.update(tg.payoffs.tobytes())
    assert h.hexdigest() == "9ddaf1da3afa754410ec2cdfc78d94c66bbb4c73ceb6c31a402923979b487300"
    y, x = np.meshgrid(np.linspace(0.505, 0.995, 99), np.linspace(0.005, 0.995, 199),
                       indexing="ij")
    payoffs, degenerate = symmetric_payoffs(x, y)
    assert payoffs.shape == (99, 199, 4, 4, 2) and not degenerate.any()
    assert hashlib.sha256(payoffs.tobytes() + degenerate.tobytes()).hexdigest() == \
        "c0300d88e9368be14a4e273220075a4843e745d0ddc627071abafdcfd52e5dd8"


def test_transform_game_reads_one_table(monkeypatch):
    # one influence_table pass of n * 2^(m-1) kernel sums, each under a
    # sign-canonical command vector, under either mechanism
    g, base = next((g, base) for g, base in _transform_pool() if len(hg.deciders(g)) == 3)
    first = min(hg.deciders(g))
    passes, calls = [], []
    real_table, real_sum = hg.game.influence_table, hg.vote._vote_sum

    def counting_table(*args):
        passes.append(args)
        return real_table(*args)

    def counting_sum(layout, condition, *args):
        calls.append((layout.targets, tuple(sorted(condition.items()))))
        return real_sum(layout, condition, *args)

    monkeypatch.setattr(hg.game, "influence_table", counting_table)
    monkeypatch.setattr(hg.vote, "_vote_sum", counting_sum)
    for mechanism in ("shapley", "shares"):
        passes.clear()
        calls.clear()
        hg.transform_game(base, g, hg.VoteParams.from_graph(g), mechanism=mechanism)
        assert len(passes) == 1
        assert len(calls) == len(set(calls)) == len(base.players) * 2 ** 2
        assert all(dict(condition)[first] == 1 for _, condition in calls)


def test_transform_degeneracy_names_smallest_executive():
    # both executives are undecided; the error names the smallest id
    # whatever the player order of the base game
    g = hg.crossed_chains(noise_sigma=hg.sigma_for_beta(1e-6))
    base = hg.prisoners_dilemma(("2", "1"))
    with pytest.raises(hg.DegenerateInfluenceError, match="executive '1' undecided"):
        hg.transform_game(base, g, hg.VoteParams.from_graph(g), mechanism="shapley")


def _decider_free_cycle():
    """A valid hierarchy of two executives on a cycle: no decider to share to."""
    return hg.HierarchyGraph((hg.Vertex("1", "executive"), hg.Vertex("2", "executive")),
                             (hg.Edge("1", "2", 1.0), hg.Edge("2", "1", 1.0)), 0.5, 1.0)


def _decider_cycle():
    """A valid hierarchy whose executive 1 feeds back into agent a."""
    return hg.HierarchyGraph(
        (hg.Vertex("d1", "decider"), hg.Vertex("a", "agent"),
         hg.Vertex("1", "executive"), hg.Vertex("2", "executive")),
        (hg.Edge("d1", "a", 0.5), hg.Edge("1", "a", 0.5), hg.Edge("a", "1", 1.0),
         hg.Edge("a", "2", 1.0)), 0.5, 1.0)


def test_transform_needs_a_decider():
    g = _decider_free_cycle()
    assert hg.validate_graph(g).ok
    with pytest.raises(ValueError, match="at least one decider"):
        hg.transform_game(hg.prisoners_dilemma(), g, hg.VoteParams.from_graph(g))


def test_transform_refuses_oversized_tensor(monkeypatch):
    # 10 executives under 3 deciders: (2^10)^3 x 3 payoffs, far above the
    # limit, refused before any conditional is computed or table read
    g = helpers.fan_hierarchy(10, 3)
    base = _random_base(random.Random(31), sorted(hg.executives(g)))
    params = hg.VoteParams.from_graph(g)
    limit = str(hg.game.MAX_TENSOR_ENTRIES)
    calls = []
    with monkeypatch.context() as mp:
        mp.setattr(hg.vote, "conditional_influence", lambda *args: calls.append(args))
        mp.setattr(hg.game, "influence_table", lambda *args: calls.append(args))
        for mechanism in ("shapley", "shares"):
            with pytest.raises(ValueError, match=f"2\\^10\\)\\^3 x 3 payoffs.*{limit}"):
                hg.transform_game(base, g, params, mechanism=mechanism)
        # so are an unknown mechanism, a Shapley transform with no decider
        # and path shares on a cycle, whatever the cap
        pd = hg.prisoners_dilemma()
        for g, mechanism, cap, error, message in (
                (hg.crossed_chains(), "bogus", None, ValueError, "unknown mechanism 'bogus'"),
                (_decider_free_cycle(), "shapley", 1, ValueError, "need at least one decider"),
                (_decider_cycle(), "shares", 1, hg.CyclicGraphError,
                 "path shares need an acyclic hierarchy")):
            with pytest.raises(error, match=f"^{message}$"):
                hg.transform_game(pd, g, hg.VoteParams.from_graph(g), mechanism, cap)
    assert calls == []
    # the limit counts profiles times deciders, inclusive: crossed chains
    # give a 4 x 4 x 2 tensor
    g = hg.crossed_chains()
    params = hg.VoteParams.from_graph(g)
    monkeypatch.setattr(hg.game, "MAX_TENSOR_ENTRIES", 32)
    assert hg.transform_game(hg.prisoners_dilemma(), g, params).payoffs.size == 32
    monkeypatch.setattr(hg.game, "MAX_TENSOR_ENTRIES", 31)
    with pytest.raises(ValueError, match="limit 31"):
        hg.transform_game(hg.prisoners_dilemma(), g, params)


def test_transform_near_zero_coupling():
    # commands stop mattering, so every payoff collapses to the mixed value
    pd = hg.prisoners_dilemma()
    g = hg.crossed_chains(noise_sigma=hg.sigma_for_beta(1e-6))
    params = hg.VoteParams.from_graph(g)
    tg = hg.transform_game(pd, g, params, mechanism="shares")
    assert np.max(np.abs(tg.payoffs)) < 1e-5
    with pytest.raises(hg.DegenerateInfluenceError):
        hg.transform_game(pd, g, params, mechanism="shapley")


def _random_game(rng, m, n_strat):
    payoffs = np.array([rng.gauss(0.0, 1.0)
                        for _ in range(n_strat ** m * m)]).reshape(
                            (n_strat,) * m + (m,))
    return TransformedGame(
        tuple(f"d{k}" for k in range(m)), ("1", "2"),
        tuple(product((1, -1), repeat=2))[:n_strat], payoffs,
        {1: "C", -1: "D"})


def _brute_nash(payoffs, tol):
    m = payoffs.shape[-1]
    found = []
    for idx in product(*map(range, payoffs.shape[:-1])):
        ok = True
        for d in range(m):
            own = payoffs[idx + (d,)]
            for alt in range(payoffs.shape[d]):
                dev = list(idx)
                dev[d] = alt
                if payoffs[tuple(dev) + (d,)] > own + tol:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(idx)
    return tuple(sorted(found))


def test_pure_nash_matches_deviation_scan():
    rng = random.Random(41)
    for m in (2, 3):
        for _ in range(6):
            tg = _random_game(rng, m, 4)
            assert hg.pure_nash(tg) == _brute_nash(tg.payoffs, 1e-12)


def test_pure_nash_ties():
    payoffs = np.zeros((4, 4, 2))
    tg = TransformedGame(("d1", "d2"), ("1", "2"),
                         tuple(product((1, -1), repeat=2)), payoffs,
                         {1: "C", -1: "D"})
    assert len(hg.pure_nash(tg)) == 16


def test_batched_symmetric_pipeline_is_exact():
    # both exact tipping lines, both band edges, interior points, and a
    # height where |2y - 1| < 1e-12 leaves no share defined; every other
    # point's tensor is checked against the brute-force decider game
    degenerate_y = 0.5 + 1e-13
    points = []
    for y in (degenerate_y, 0.51, 0.6, 0.75, 0.9, 0.99):
        lower, upper = hg.tipping_points(y)
        points += [(x, y) for x in (lower, upper, 1.0 - y, y, 0.05, 0.3, 0.5, 0.7, 0.95)]
    x, y = (np.array(v) for v in zip(*points))
    pd = hg.prisoners_dilemma()
    payoffs, degenerate = symmetric_payoffs(x, y)
    mask = nash_mask(payoffs)
    codes, values = regime_map(x, y)
    assert payoffs.shape == (len(points), 4, 4, 2)
    assert mask.shape == (len(points), 4, 4)
    ties = 0
    for k, (xk, yk) in enumerate(points):
        assert degenerate[k] == (yk == degenerate_y)
        if degenerate[k]:
            with pytest.raises(hg.DegenerateInfluenceError):
                hg.symmetric_transform(xk, yk)
            continue
        tg = hg.symmetric_transform(xk, yk)
        assert np.array_equal(payoffs[k], tg.payoffs)
        brute = helpers.brute_decider_game(pd.payoffs, ["1", "2"], ["d1", "d2"],
                                           _mirror_tables(xk, yk))
        for profile, expected in brute.items():
            idx = tuple(tg.strategies.index(vec) for vec in profile)
            assert payoffs[k][idx] == pytest.approx(expected, abs=1e-12)
        eqs = tuple(tuple(int(v) for v in idx) for idx in np.argwhere(mask[k]))
        assert eqs == hg.pure_nash(tg)
        ties += len(eqs) > 1
        summary = hg.classify_regime(xk, yk)
        assert REGIME_LABELS[codes[k]] == summary.regime
        assert values[k] == summary.value or math.isnan(values[k]) and math.isnan(summary.value)
    assert ties > 0


def test_profile_index_round_trip():
    tg = hg.symmetric_transform(0.3, 0.9)
    assert tg.strategies == ((1, 1), (1, -1), (-1, 1), (-1, -1))
    assert tg.strategy_index(("C", "C")) == 0
    assert tg.profile_index(hg.PD_V1_PROFILE) == (2, 1)
    assert tg.profile_labels((2, 1)) == hg.PD_V1_PROFILE
    assert tg.profile_labels((0, 0)) == hg.COOPERATION_PROFILE


def test_tipping_points():
    assert hg.tipping_points(1.0) == pytest.approx((1.0 / 3.0, 2.0 / 3.0))
    lo, hi = hg.tipping_points(0.5)
    assert lo == hi == pytest.approx(0.5)


def test_classify_regions():
    s = hg.classify_regime(0.6, 0.9)
    assert s.regime == hg.REGIME_COOPERATION
    assert s.nash == (hg.COOPERATION_PROFILE,)
    assert s.value == pytest.approx(0.8)

    s = hg.classify_regime(0.2, 0.9)
    assert s.regime == hg.REGIME_PD_V1
    assert s.nash == (hg.PD_V1_PROFILE,)
    assert s.value == pytest.approx(-0.6)

    s = hg.classify_regime(0.7, 0.9)
    assert s.regime == hg.REGIME_PD_V2
    assert s.nash == (hg.PD_V2_PROFILE,)
    assert s.value == pytest.approx(-0.4)


def test_classify_boundary():
    y = 0.7
    lower, upper = hg.tipping_points(y)
    s = hg.classify_regime(lower, y)
    assert s.regime == hg.REGIME_BOUNDARY
    assert s.nash == (hg.PD_V1_PROFILE, hg.COOPERATION_PROFILE)
    assert math.isnan(s.value)
    s = hg.classify_regime(upper + 2e-10, y)
    assert s.regime == hg.REGIME_BOUNDARY
    assert s.nash == (hg.COOPERATION_PROFILE, hg.PD_V2_PROFILE)


def test_classify_domain():
    with pytest.raises(ValueError):
        hg.classify_regime(1.2, 0.9)
    with pytest.raises(ValueError):
        hg.classify_regime(0.4, 0.5)
    with pytest.raises(ValueError, match="classified scope"):
        hg.classify_regime(0.6, 0.9, x_bar=0.7, y_bar=0.9)


def test_game_value_points():
    assert hg.game_value(0.5, 1.0) == pytest.approx(1.0)
    assert hg.game_value(0.2, 0.9) == pytest.approx(-0.6)
    assert hg.game_value(0.7, 0.9) == pytest.approx(-0.4)
    # the three regions meet at one point where the value is continuous
    assert hg.game_value(0.5, 0.5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="jumps"):
        hg.game_value(hg.tipping_points(0.9)[0], 0.9)
    with pytest.raises(ValueError):
        hg.game_value(0.4, 0.4)


def test_value_matches_tensor_equilibrium():
    # the regime map covers influence points a monotone hierarchy can
    # produce: 1-y <= x <= y, where both shares stay in [0, 1]; on the
    # edges of that band command ties create extra equilibria
    rng = random.Random(97)
    checked = 0
    while checked < 60:
        y = rng.uniform(0.52, 0.99)
        x = rng.uniform(1.0 - y + 1e-3, y - 1e-3)
        lower, upper = hg.tipping_points(y)
        if min(abs(x - lower), abs(x - upper)) < 1e-6:
            continue
        tg = hg.symmetric_transform(x, y)
        eqs = hg.pure_nash(tg)
        assert len(eqs) == 1
        summary = hg.classify_regime(x, y)
        assert tg.profile_labels(eqs[0]) == summary.nash[0]
        u = tg.payoffs[eqs[0]]
        assert u[0] == pytest.approx(u[1], abs=1e-12)
        assert u[0] == pytest.approx(hg.game_value(x, y), abs=1e-12)
        checked += 1


def test_outside_band_flips_incentives():
    # x < 1-y means the far decider's share is negative: each decider then
    # profits from hurting the other executive and full defection becomes
    # the unique equilibrium, so the three-regime map does not extend there
    tg = hg.symmetric_transform(0.1, 0.52)
    assert hg.pure_nash(tg) == ((3, 3),)
    # on the band edge x = 1-y the far command is payoff-neutral: ties
    y = 0.52
    tg = hg.symmetric_transform(1.0 - y, y)
    assert len(hg.pure_nash(tg)) > 1


def test_end_to_end_regimes():
    pd = hg.prisoners_dilemma()
    cases = (
        ((4, 4, 4, 4), 1.0, hg.REGIME_COOPERATION, ((0, 0),)),
        ((1, 5, 5, 1), 1.0, hg.REGIME_PD_V1, ((2, 1),)),
        ((5, 1, 1, 5), 1.0, hg.REGIME_PD_V2, ((1, 2),)),
        ((1, 5, 5, 1), 0.25, hg.REGIME_PD_V1, ((2, 1),)),
        ((2, 3, 3, 2), 1.0, hg.REGIME_COOPERATION, ((0, 0),)),
    )
    for dims, beta, regime, expected_eq in cases:
        g = hg.crossed_chains(*dims, noise_sigma=hg.sigma_for_beta(beta))
        params = hg.VoteParams.from_graph(g)
        table = hg.influence_table(g, params, ("d1", "d2"), ("1", "2"))
        (x, _), (_, x_bar), (y, y_bar) = table[(-1, 1)], table[(1, -1)], table[(1, 1)]
        summary = hg.classify_regime(x, y, x_bar, y_bar)
        assert summary.regime == regime
        tg = hg.transform_game(pd, g, params)
        eqs = hg.pure_nash(tg)
        assert eqs == expected_eq
        assert tg.payoffs[eqs[0] + (0,)] == pytest.approx(summary.value, abs=1e-12)
    # frozen spot checks for the first two rows
    g = hg.crossed_chains()
    table = hg.influence_table(g, hg.VoteParams.from_graph(g), ("d1", "d2"), ("1",))
    assert table[(1, 1)][0] == pytest.approx(0.668214882193, abs=1e-9)
    g = hg.crossed_chains(1, 5, 5, 1)
    table = hg.influence_table(g, hg.VoteParams.from_graph(g), ("d1", "d2"), ("1",))
    assert table[(-1, 1)][0] == pytest.approx(0.373657196623, abs=1e-9)
