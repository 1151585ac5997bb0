"""Structure, validation catalog, corridors, and file round-trips."""

import copy
import json
import pickle
import random
import tracemalloc

import networkx
import pytest

import hiergame as hg
from hiergame import Edge, HierarchyGraph, Vertex

import helpers


def simple_chain_dict():
    return {
        "vertices": [
            {"id": "d1", "role": "decider"},
            {"id": "u1", "role": "agent"},
            {"id": "1", "role": "executive"},
        ],
        "edges": [
            {"from": "d1", "to": "u1", "weight": 1.0},
            {"from": "u1", "to": "1", "weight": 1.0},
        ],
        "free_float": 0.5,
        "noise_sigma": 0.7978845608028654,
    }


def test_crossed_chains_is_valid():
    report = hg.validate_graph(hg.crossed_chains())
    assert report.ok
    assert report.violations == ()
    assert report.warnings == ()


def test_roles_on_benchmark_graph():
    g = hg.crossed_chains()
    assert hg.deciders(g) == frozenset({"d1", "d2"})
    assert hg.executives(g) == frozenset({"1", "2"})
    assert not hg.has_directed_cycle(g)


def test_deciders_are_exactly_predecessor_free():
    rng = random.Random(7)
    for _ in range(20):
        g = helpers.random_dag(rng, rng.randint(3, 9))
        lam = hg.deciders(g)
        for v in g.vertex_ids:
            assert (v in lam) == (not g.pred_map[v])


def test_weight_sum_violation_names_vertex():
    g = HierarchyGraph(
        (Vertex("d1", "decider"), Vertex("e", "executive")),
        (Edge("d1", "e", 0.7),), 0.5, 1.0)
    report = hg.validate_graph(g)
    assert not report.ok
    assert any("e" in v and "0.7" in v for v in report.violations)


def test_validation_catalog():
    base = simple_chain_dict()

    g = hg.graph_from_dict(base)
    assert hg.validate_graph(g).ok

    dup = HierarchyGraph(
        (Vertex("a", "decider"), Vertex("a", "executive")),
        (Edge("a", "a", 1.0),), 0.5, 1.0)
    rep = hg.validate_graph(dup)
    assert any("duplicate vertex" in v for v in rep.violations)
    assert any("self-loop" in v for v in rep.violations)

    bad_role = HierarchyGraph(
        (Vertex("d", "decider"), Vertex("e", "boss")),
        (Edge("d", "e", 1.0),), 0.5, 1.0)
    assert any("unknown role" in v for v in hg.validate_graph(bad_role).violations)

    dangling = HierarchyGraph(
        (Vertex("d", "decider"), Vertex("e", "executive")),
        (Edge("d", "ghost", 1.0), Edge("d", "e", 1.0)), 0.5, 1.0)
    assert any("unknown vertex" in v for v in hg.validate_graph(dangling).violations)

    dup_edge = HierarchyGraph(
        (Vertex("d", "decider"), Vertex("e", "executive")),
        (Edge("d", "e", 0.5), Edge("d", "e", 0.5)), 0.5, 1.0)
    assert any("duplicate edge" in v for v in hg.validate_graph(dup_edge).violations)

    neg = HierarchyGraph(
        (Vertex("d", "decider"), Vertex("e", "executive")),
        (Edge("d", "e", -1.0),), 0.5, 1.0)
    assert any("non-positive weight" in v for v in hg.validate_graph(neg).violations)

    bad_float = HierarchyGraph(
        (Vertex("d", "decider"), Vertex("e", "executive")),
        (Edge("d", "e", 1.0),), 1.5, 1.0)
    assert any("free_float" in v for v in hg.validate_graph(bad_float).violations)

    bad_sigma = HierarchyGraph(
        (Vertex("d", "decider"), Vertex("e", "executive")),
        (Edge("d", "e", 1.0),), 0.5, 0.0)
    assert any("noise_sigma" in v for v in hg.validate_graph(bad_sigma).violations)

    # a width so small that the gain sqrt(2/pi)/sigma is infinite; the
    # smallest normal width is still valid
    tiny_sigma = HierarchyGraph(
        (Vertex("d", "decider"), Vertex("e", "executive")),
        (Edge("d", "e", 1.0),), 0.5, 1e-320)
    assert hg.validate_graph(tiny_sigma).violations == \
        ("noise_sigma 1e-320 makes the gain infinite",)
    assert hg.validate_graph(hg.single_chain(1, noise_sigma=2.3e-308)).ok


def test_role_degree_consistency_rules():
    labeled_decider_with_preds = HierarchyGraph(
        (Vertex("d", "decider"), Vertex("x", "decider")),
        (Edge("d", "x", 1.0),), 0.5, 1.0)
    rep = hg.validate_graph(labeled_decider_with_preds)
    assert any("decider x has predecessors" in v for v in rep.violations)

    executive_without_preds = HierarchyGraph(
        (Vertex("e", "executive"), Vertex("d", "decider")),
        (Edge("e", "d", 1.0),), 0.5, 1.0)
    rep = hg.validate_graph(executive_without_preds)
    assert any("no predecessors" in v for v in rep.violations)


def test_executive_with_successors_warns_only():
    g = HierarchyGraph(
        (Vertex("d", "decider"), Vertex("e", "executive"), Vertex("f", "executive")),
        (Edge("d", "e", 1.0), Edge("e", "f", 1.0)), 0.5, 1.0)
    rep = hg.validate_graph(g)
    assert rep.ok
    assert any("executive e has successors" in w for w in rep.warnings)


def test_disconnected_graph_flagged():
    g = HierarchyGraph(
        (Vertex("d", "decider"), Vertex("e", "executive"),
         Vertex("d2", "decider"), Vertex("e2", "executive")),
        (Edge("d", "e", 1.0), Edge("d2", "e2", 1.0)), 0.5, 1.0)
    rep = hg.validate_graph(g)
    assert any("not connected" in v for v in rep.violations)


def test_disconnected_graph_report_is_pinned():
    # the search starts at the first vertex, an executive reached from the
    # rest of its component only against edge direction; the unreached
    # vertices, the warnings and their order are pinned as the search over
    # the undirected adjacency map, which validation no longer builds, gave
    # them
    g = HierarchyGraph(
        tuple(Vertex(v, role) for v, role in (
            ("x", "executive"), ("d2", "decider"), ("a", "agent"), ("d1", "decider"),
            ("y", "executive"), ("z", "executive"), ("d3", "decider"), ("b", "agent"),
            ("w", "executive"), ("q", "executive"), ("v", "executive"))),
        (Edge("a", "x", 0.5), Edge("b", "x", 0.5), Edge("d1", "a", 1.0), Edge("d3", "b", 1.0),
         Edge("a", "y", 1.0), Edge("d2", "z", 1.0), Edge("d2", "w", 1.0), Edge("x", "q", 1.0),
         Edge("w", "v", 1.0)), 0.5, 1.0)
    rep = hg.validate_graph(g)
    assert rep.violations == ("graph is not connected (unreached: d2, v, w, z)",)
    assert rep.warnings == ("executive x has successors", "executive w has successors")
    assert "undirected_adjacency" not in vars(g)


def test_load_graph_peak(tmp_path):
    # loading lets go of the parsed JSON before validating, and validation
    # searches the predecessor and successor maps: a 3000-edge chain file
    # of 396 KB peaked at 2.79 MB, about 930 bytes per vertex (5.17 MB
    # while the JSON was held and the undirected adjacency map built)
    g = hg.single_chain(3000)
    path = tmp_path / "chain.json"
    hg.save_graph(g, path)
    hg.load_graph(path)
    tracemalloc.start()
    try:
        loaded = hg.load_graph(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == g
    assert peak <= 1100 * len(g.vertices)


def test_graph_records_hold_no_dict(tmp_path):
    # Vertex and Edge keep their fields in slots, with no per-record dict
    # (89 and 97 bytes each with one, 49 and 57 without), and still pickle
    # and copy equal.  A loaded 3000-edge chain retains 644 bytes per
    # vertex, against 724 with a dict per record
    assert not hasattr(Vertex("v", "agent"), "__dict__")
    assert not hasattr(Edge("u", "v", 1.0), "__dict__")
    g = hg.single_chain(3000)
    assert pickle.loads(pickle.dumps(g)) == g
    assert copy.deepcopy(g) == g
    path = tmp_path / "chain.json"
    hg.save_graph(g, path)
    hg.load_graph(path)
    tracemalloc.start()
    try:
        loaded = hg.load_graph(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == g
    assert held <= 680 * len(g.vertices)


def test_edge_maps_hold_one_map_at_a_time():
    # pred_map and succ_map turn their lists into tuples in place: on a
    # 3000-edge chain each peaked at 168-179 bytes per vertex, against
    # 263-273 while a map of lists and one of tuples were both held
    g = hg.single_chain(3000)
    for name, (near, far) in (("pred_map", ("dst", "src")), ("succ_map", ("src", "dst"))):
        tracemalloc.start()
        try:
            got = getattr(g, name)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 210 * len(g.vertices)
        expected = {v.id: [] for v in g.vertices}
        for e in g.edges:
            expected[getattr(e, near)].append((getattr(e, far), e.weight))
        assert got == {v: tuple(edges) for v, edges in expected.items()}
        assert all(type(edges) is tuple for edges in got.values())


def test_directed_cycle_detection():
    g = HierarchyGraph(
        (Vertex("a", "agent"), Vertex("b", "agent"), Vertex("c", "agent")),
        (Edge("a", "b", 1.0), Edge("b", "c", 1.0), Edge("c", "a", 1.0)),
        0.5, 1.0)
    assert hg.has_directed_cycle(g)
    assert g.topological_order is None
    assert hg.validate_graph(g).ok
    assert not hg.has_directed_cycle(hg.single_chain(4))

    # Kahn's order taking the smallest ready id first is the lexicographic
    # topological sort; it exists exactly on the acyclic graphs
    rng = random.Random(41)
    for maker in (helpers.random_dag, helpers.random_digraph):
        for _ in range(40):
            g = maker(rng, rng.randint(3, 12))
            nx_graph = networkx.DiGraph()
            nx_graph.add_nodes_from(g.vertex_ids)
            nx_graph.add_edges_from((e.src, e.dst) for e in g.edges)
            if networkx.is_directed_acyclic_graph(nx_graph):
                assert g.topological_order == tuple(
                    networkx.lexicographical_topological_sort(nx_graph))
                assert not hg.has_directed_cycle(g)
            else:
                assert g.topological_order is None
                assert hg.has_directed_cycle(g)


def test_nodes_between_on_benchmark():
    g = hg.crossed_chains()
    interior = hg.nodes_between(g, {"d1", "d2"}, {"1"})
    assert interior == frozenset({"p1", "p2", "p3", "r1", "r2", "r3"})
    interior2 = hg.nodes_between(g, {"d1", "d2"}, {"2"})
    assert interior2 == frozenset({"q1", "q2", "q3", "s1", "s2", "s3"})


def test_nodes_between_excludes_boundary_and_validates():
    g = hg.single_chain(3)
    assert hg.nodes_between(g, {"d1"}, {"1"}) == frozenset({"u1", "u2"})
    with pytest.raises(ValueError):
        hg.nodes_between(g, {"d1"}, {"d1"})
    with pytest.raises(ValueError):
        hg.nodes_between(g, set(), {"1"})
    with pytest.raises(ValueError):
        hg.nodes_between(g, {"nope"}, {"1"})


def test_semantics_agree():
    # the vote and spin laws differ only through a vertex with two or more
    # predecessors, one of them free; a condition's spins do not matter
    assert hg.semantics_agree(hg.single_chain(3), {"d1": -1}, ["1"])
    assert hg.semantics_agree(hg.two_decider_chain(1, 1), {"d1", "d2"}, {"1"})
    assert not hg.semantics_agree(hg.two_decider_chain(3, 2), {"d1", "d2"}, {"1"})
    assert not hg.semantics_agree(hg.crossed_chains(), {"d1": 1, "d2": 1}, {"1"})

    # a diamond's join has two free predecessors, unless both are conditioned
    g = HierarchyGraph(
        (Vertex("d", "decider"), Vertex("u", "agent"), Vertex("w", "agent"),
         Vertex("e", "executive")),
        (Edge("d", "u", 1.0), Edge("d", "w", 1.0),
         Edge("u", "e", 0.5), Edge("w", "e", 0.5)),
        0.5, 1.0)
    assert hg.validate_graph(g).ok
    assert not hg.semantics_agree(g, {"d"}, {"e"})
    assert hg.semantics_agree(g, {"u", "w"}, {"e"})

    # empty or overlapping sets and unknown vertices are refused, as
    # nodes_between refuses them
    for condition, targets in ((set(), {"e"}), ({"d"}, set()), ({"d", "e"}, {"e"}),
                               ({"nope"}, {"e"})):
        with pytest.raises(ValueError):
            hg.semantics_agree(g, condition, targets)


def test_json_round_trip(tmp_path):
    g = hg.crossed_chains(a=3, b=4, c=5, d=2, free_float=0.3)
    path = tmp_path / "g.json"
    hg.save_graph(g, path)
    g2 = hg.load_graph(path)
    assert g2 == g
    # and the dict form is stable under a second round
    assert hg.graph_to_dict(g2) == hg.graph_to_dict(g)


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(hg.GraphFormatError):
        hg.load_graph(path)

    path.write_text(json.dumps({"vertices": []}))
    with pytest.raises(hg.GraphFormatError):
        hg.load_graph(path)

    data = simple_chain_dict()
    data["edges"][0]["weight"] = "heavy"
    path.write_text(json.dumps(data))
    with pytest.raises(hg.GraphFormatError):
        hg.load_graph(path)

    with pytest.raises(hg.GraphFormatError):
        hg.load_graph(tmp_path / "missing.json")


def test_load_rejects_invalid_graph(tmp_path):
    data = simple_chain_dict()
    data["edges"][1]["weight"] = 0.4
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(data))
    with pytest.raises(hg.GraphFormatError) as err:
        hg.load_graph(path)
    assert "1" in str(err.value)


def test_random_generators_produce_valid_graphs():
    rng = random.Random(123)
    for maker in (helpers.random_tree, helpers.random_arborescence, helpers.random_dag):
        for _ in range(15):
            g = maker(rng, rng.randint(2, 10))
            rep = hg.validate_graph(g)
            assert rep.ok, (maker.__name__, rep.violations)
            assert not hg.has_directed_cycle(g)


def test_arborescence_has_in_degree_at_most_one():
    rng = random.Random(5)
    for _ in range(10):
        g = helpers.random_arborescence(rng, rng.randint(2, 10))
        assert all(len(g.pred_map[v]) <= 1 for v in g.vertex_ids)
