"""Walk builders, contraction, insertion partitions, and walk validation."""

from __future__ import annotations

import ast
import math
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualflow as df
from conftest import random_sub_tournament, reference_validation
from dualflow.model import Grid

WALK_POINTS = [
    (0, 0, 0, 0),
    (0, 1, 0, 1),
    (0, 1, "4/3", 1),
    (0, 1, "4/3", 2),
    (0, "2/3", "4/3", 2),
]


# ---------------------------------------------------------------------------
# contraction


def test_contract_example_edge(example):
    graph, costs = example
    contracted, new_costs, record = df.contract_edge(
        graph, costs, df.find_edge(graph, 0, 1)
    )
    assert contracted.node_count == 3
    # node 1 merged into node 0; old v2 -> 1, old v3 -> 2
    expected = {
        (2, 0): Fraction(-1),
        (1, 0): Fraction(0),
        (0, 2): Fraction(2),
        (0, 1): Fraction(4, 3),
        (1, 2): Fraction(10, 9),
    }
    assert dict(zip(contracted.edges, new_costs)) == expected
    assert record.node_map == (0, 0, 1, 2)
    assert record.shift == 0


def test_contract_two_node_graph():
    graph = df.Digraph(2, ((0, 1),))
    contracted, new_costs, record = df.contract_edge(graph, df.cost_vector([1]), 0)
    assert contracted.node_count == 1
    assert contracted.edges == ()
    assert new_costs == ()
    assert df.lift_point(record, df.Point.of(0)) == df.Point.of(0, 1)


def test_contract_negative_self_loop():
    graph = df.Digraph(2, ((0, 1), (1, 0)))
    with pytest.raises(df.NegativeSelfLoop):
        df.contract_edge(graph, df.cost_vector([1, -2]), 0)


def test_contract_face_empty():
    # making (0,1) tight forces u1 = 2, but the path 0->2->1 caps u1 at 0
    graph = df.Digraph(3, ((0, 1), (0, 2), (2, 1)))
    with pytest.raises(df.FaceEmpty):
        df.contract_edge(graph, df.cost_vector([2, 0, 0]), 0)


def test_contract_missing_edge(example):
    graph, costs = example
    with pytest.raises(df.EdgeMissing):
        df.contract_edge(graph, costs, 99)


def test_contract_anchor_removal(example):
    """Contracting an edge into the anchor relocates it with a shift."""
    graph, costs = example
    edge = df.find_edge(graph, 2, 0)  # head is the anchor
    contracted, new_costs, record = df.contract_edge(graph, costs, edge)
    assert record.removed_node == 0
    assert record.kept_node == 2
    assert record.shift == 0  # zero-cost edge: no numeric shift
    vertex = df.enumerate_vertices(contracted, new_costs).vertices[0]
    lifted = df.lift_point(record, vertex)
    assert lifted[df.ANCHOR] == 0
    assert df.is_feasible(graph, costs, lifted)
    assert edge in df.tight_graph(graph, costs, lifted)


def test_contraction_node_map_follows_its_rule():
    """The removed node's index leaves the order, or the kept node's when the
    removed node is the anchor; the other nodes keep their order, and the
    node whose index left takes its partner's.  Zero costs make every
    edge's face nonempty."""
    rng = random.Random(83)
    for _ in range(60):
        graph, _ = random_sub_tournament(rng, rng.randint(2, 7))
        n, costs = graph.node_count, (Fraction(0),) * graph.edge_count
        for i, (tail, head) in enumerate(graph.edges):
            node_map = df.contract_edge(graph, costs, i)[2].node_map
            dropped, partner = (tail, head) if head == df.ANCHOR else (head, tail)
            order = [v for v in range(n) if v != dropped]
            assert [node_map[v] for v in order] == list(range(n - 1))
            assert node_map[dropped] == node_map[partner]


# ---------------------------------------------------------------------------
# lift / project


def test_lift_walk_point(example):
    graph, costs = example
    _, _, record = df.contract_edge(graph, costs, df.find_edge(graph, 0, 1))
    lifted = df.lift_point(record, df.Point.of(0, "4/3", 2))
    assert lifted == df.Point.of(0, 1, "4/3", 2)


def test_lift_mechanical_for_infeasible_input(example):
    graph, costs = example
    _, _, record = df.contract_edge(graph, costs, df.find_edge(graph, 0, 1))
    # the contracted zero point is itself infeasible; the lift is mechanical
    lifted = df.lift_point(record, df.Point.of(0, 0, 0))
    assert lifted == df.Point.of(0, 1, 0, 0)


def test_lift_project_round_trip():
    rng = random.Random(61)
    done = 0
    while done < 20:
        graph, costs = random_sub_tournament(rng, rng.randint(2, 5))
        edge = rng.randrange(graph.edge_count)
        try:
            contracted, new_costs, record = df.contract_edge(graph, costs, edge)
        except df.FaceEmpty:
            continue
        done += 1
        for vertex in df.enumerate_vertices(contracted, new_costs).vertices:
            lifted = df.lift_point(record, vertex)
            assert df.is_feasible(graph, costs, lifted)
            assert edge in df.tight_graph(graph, costs, lifted)
            assert df.project_point(record, lifted) == vertex


@given(
    seed=st.integers(0, 10**6), size=st.integers(2, 5), integer_costs=st.booleans()
)
@settings(max_examples=60, deadline=None)
def test_lift_project_property(seed, size, integer_costs):
    """Over a random single-edge contraction, lifting then projecting a
    contracted vertex, and projecting then lifting a vertex on the edge's
    face, give the point back; the same contraction on the integer grid
    lifts every vertex to the scaled rational lift."""
    rng = random.Random(seed)
    graph, costs = random_sub_tournament(rng, size, integer_costs=integer_costs)
    edges = list(range(graph.edge_count))
    rng.shuffle(edges)
    for edge in edges:
        try:
            contracted, new_costs, record = df.contract_edge(graph, costs, edge)
        except df.FaceEmpty:
            continue
        break
    else:
        raise AssertionError("no edge of a nonempty polyhedron is contractible")
    grid = Grid(costs)
    _, grid_costs, grid_record = df.contract_edge(graph, grid.costs, edge)
    assert tuple(grid.to_rational(c) for c in grid_costs) == new_costs
    for vertex in df.enumerate_vertices(contracted, new_costs).vertices:
        lifted = df.lift_point(record, vertex)
        assert df.project_point(record, lifted) == vertex
        grid_lifted = df.lift_point(grid_record, df.Point(grid.to_state(vertex)))
        assert grid.to_point(grid_lifted) == lifted
    for vertex in df.enumerate_vertices(graph, costs).vertices:
        if edge in df.tight_graph(graph, costs, vertex):
            assert df.lift_point(record, df.project_point(record, vertex)) == vertex


def test_face_bijection():
    """Contracted vertices lift exactly onto the original vertices whose
    tight set contains the contracted edge."""
    rng = random.Random(67)
    done = 0
    while done < 25:
        graph, costs = random_sub_tournament(rng, rng.randint(2, 5))
        edge = rng.randrange(graph.edge_count)
        try:
            contracted, new_costs, record = df.contract_edge(graph, costs, edge)
        except df.FaceEmpty:
            continue
        done += 1
        lifted = sorted(
            df.lift_point(record, w).coords
            for w in df.enumerate_vertices(contracted, new_costs).vertices
        )
        on_face = sorted(
            v.coords
            for v in df.enumerate_vertices(graph, costs).vertices
            if edge in df.tight_graph(graph, costs, v)
        )
        assert lifted == on_face


# ---------------------------------------------------------------------------
# last_backward_edge


def test_last_backward_single_edge_path(example, near_vertex):
    graph, costs = example
    tree = df.tight_graph(graph, costs, near_vertex)
    edge, start_side, goal_side = df.last_backward_edge(graph, tree, 0, 3)
    assert edge == df.find_edge(graph, 3, 0)
    assert start_side == {0, 2}
    assert goal_side == {1, 3}


def test_last_backward_no_backward_edge():
    graph = df.Digraph(3, ((0, 1), (1, 2)))
    with pytest.raises(df.NoBackwardEdge):
        df.last_backward_edge(graph, frozenset({0, 1}), 0, 2)


def test_last_backward_other_target(example, near_vertex):
    graph, costs = example
    tree = df.tight_graph(graph, costs, near_vertex)
    edge, start_side, goal_side = df.last_backward_edge(graph, tree, 1, 3)
    assert edge == df.find_edge(graph, 3, 1)
    assert start_side == {1}
    assert goal_side == {0, 2, 3}


# ---------------------------------------------------------------------------
# insertion partitions


def test_insertion_partition_from_zero_vertex(example, near_vertex):
    graph, costs = example
    edge = df.find_edge(graph, 0, 3)
    circuit, sign = df.build_insertion_partition(graph, costs, near_vertex, edge)
    # nothing reaches v3 by tight paths, and v1, v2 stay connected to v0
    assert sorted(circuit.s_set) == [3]
    assert sign == 1
    step = df.max_step(graph, costs, near_vertex, circuit, sign)
    landed = df.apply_circuit_step(graph, costs, near_vertex, step)
    assert df.slack(graph, costs, landed, edge) < df.slack(
        graph, costs, near_vertex, edge
    )


def test_insertion_partition_absorbs_tight_chain():
    # tight edge 1 -> 2 pulls node 1 onto the goal side of edge (0, 2)
    graph = df.Digraph(3, ((0, 1), (1, 2), (0, 2)))
    costs = df.cost_vector([1, 0, 3])
    point = df.Point.of(0, "1/2", "1/2")
    circuit, sign = df.build_insertion_partition(
        graph, costs, point, df.find_edge(graph, 0, 2)
    )
    assert sorted(circuit.s_set) == [1, 2]
    assert sign == 1


def test_insertion_partition_full_absorption():
    # every node but the tail reaches the head by tight edges
    graph = df.Digraph(3, ((0, 1), (2, 1)))
    costs = df.cost_vector([1, 0])
    point = df.Point.of(0, 0, 0)
    circuit, sign = df.build_insertion_partition(
        graph, costs, point, df.find_edge(graph, 0, 1)
    )
    assert sorted(circuit.s_set) == [1, 2]
    assert sign == 1


def test_insertion_partition_strictly_reduces_slack(example, near_vertex):
    graph, costs = example
    edge = df.find_edge(graph, 1, 3)
    circuit, sign = df.build_insertion_partition(graph, costs, near_vertex, edge)
    step = df.max_step(graph, costs, near_vertex, circuit, sign)
    landed = df.apply_circuit_step(graph, costs, near_vertex, step)
    assert df.slack(graph, costs, landed, edge) < Fraction(4, 3)


def test_insertion_partition_path_conflict():
    # a tight directed path 0 -> 1 -> 2 while asking to insert loose (0, 2)
    graph = df.Digraph(3, ((0, 1), (1, 2), (0, 2)))
    costs = df.cost_vector([0, 0, 5])
    point = df.Point.of(0, 0, 0)
    with pytest.raises(df.PathConflict):
        df.build_insertion_partition(graph, costs, point, df.find_edge(graph, 0, 2))


def test_insertion_partition_rejects_tight_edge(example, near_vertex):
    graph, costs = example
    with pytest.raises(df.ValidationError):
        df.build_insertion_partition(
            graph, costs, near_vertex, df.find_edge(graph, 3, 0)
        )


def test_insertion_partition_negative_sign():
    # inserting an edge whose goal side captures the anchor flips the sign
    graph = df.Digraph(2, ((1, 0), (0, 1)))
    costs = df.cost_vector([1, 1])
    circuit, sign = df.build_insertion_partition(
        graph, costs, df.Point.of(0, 0), df.find_edge(graph, 1, 0)
    )
    assert sign == -1
    assert sorted(circuit.s_set) == [1]


# ---------------------------------------------------------------------------
# walk builders


def test_edge_walk_example(example, near_vertex, far_vertex):
    graph, costs = example
    walk = df.edge_walk(graph, costs, near_vertex, far_vertex)
    assert walk.points[0] == near_vertex
    assert walk.points[-1] == far_vertex
    assert 4 <= walk.length <= 10
    assert df.validate_walk(graph, costs, walk).valid


def test_edge_walk_trivial(example, near_vertex):
    graph, costs = example
    walk = df.edge_walk(graph, costs, near_vertex, near_vertex)
    assert walk.length == 0
    assert df.validate_walk(graph, costs, walk).valid


def test_edge_walk_adjacent_pair(example):
    graph, costs = example
    u, v = df.Point.of(*WALK_POINTS[0]), df.Point.of(*WALK_POINTS[1])
    walk = df.edge_walk(graph, costs, u, v)
    assert walk.length == 1


def test_edge_walk_rejects_degenerate_instance():
    graph = df.Digraph(2, ((0, 1), (1, 0)))
    costs = df.cost_vector([1, -1])
    vertex = df.Point.of(0, 1)
    with pytest.raises(df.DegenerateInstance):
        df.edge_walk(graph, costs, vertex, vertex)


def test_circuit_walk_example(example, near_vertex, far_vertex):
    graph, costs = example
    walk = df.circuit_walk(graph, costs, near_vertex, far_vertex)
    assert walk.points[0] == near_vertex
    assert walk.points[-1] == far_vertex
    assert 4 <= walk.length <= 6
    assert df.validate_walk(graph, costs, walk).valid


def test_circuit_walk_trivial(example, far_vertex):
    graph, costs = example
    walk = df.circuit_walk(graph, costs, far_vertex, far_vertex)
    assert walk.length == 0


def test_circuit_walk_degenerate_singleton():
    graph = df.Digraph(2, ((0, 1), (1, 0)))
    costs = df.cost_vector([1, -1])
    vertex = df.Point.of(0, 1)
    walk = df.circuit_walk(graph, costs, vertex, vertex)
    assert walk.length == 0


def test_circuit_walk_on_degenerate_instance():
    """Degeneracy is tolerated in circuit mode."""
    graph = df.Digraph(3, ((0, 1), (1, 2), (0, 2), (2, 0)))
    costs = df.cost_vector([1, 1, 2, -2])  # (0,2) tight whenever (0,1),(1,2) are
    vertices = df.enumerate_vertices(graph, costs).vertices
    report = df.degeneracy_report(graph, costs)
    assert not report.nondegenerate
    for u in vertices:
        for v in vertices:
            walk = df.circuit_walk(graph, costs, u, v)
            assert walk.points[-1] == v
            assert df.validate_walk(graph, costs, walk).valid
            assert walk.length <= 3


def test_builders_respect_bounds_random():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(3, 5)
        graph, costs = random_sub_tournament(rng, n)
        vertices = df.enumerate_vertices(graph, costs).vertices
        nondegenerate = df.degeneracy_report(graph, costs).nondegenerate
        edge_bound = min((n - 1) * graph.edge_count, (n**3 - n) // 6)
        circuit_bound = n * (n - 1) // 2
        for u in vertices:
            for v in vertices:
                walk = df.circuit_walk(graph, costs, u, v)
                assert walk.length <= circuit_bound
                assert df.validate_walk(graph, costs, walk).valid
                oracle_length = df.circuit_distance(graph, costs, u, v).length
                assert oracle_length <= walk.length
                if nondegenerate and u != v:
                    edge = df.edge_walk(graph, costs, u, v)
                    assert edge.length <= edge_bound
                    assert df.validate_walk(graph, costs, edge).valid
                    assert (
                        df.combinatorial_distance(graph, costs, u, v).length
                        <= edge.length
                    )


def test_edge_walk_succeeds_after_perturbation():
    graph = df.Digraph(3, ((0, 1), (1, 2), (0, 2), (2, 0)))
    costs = df.cost_vector([1, 1, 2, -2])
    assert not df.degeneracy_report(graph, costs).nondegenerate
    jiggled = df.perturb_costs(graph, costs, seed=13)
    if not df.feasibility_status(graph, jiggled).feasible:
        pytest.skip("perturbation broke feasibility for this seed")
    assert df.degeneracy_report(graph, jiggled).nondegenerate
    vertices = df.enumerate_vertices(graph, jiggled).vertices
    for u in vertices:
        for v in vertices:
            walk = df.edge_walk(graph, jiggled, u, v)
            assert df.validate_walk(graph, jiggled, walk).valid


def _reference_instances():
    """Twelve seeded sub-tournaments on 2-7 nodes, dense enough to have
    many vertices; every odd one has integer costs in {0, 1, 2}, so three
    of those are degenerate."""
    rng = random.Random(1409)
    return [
        random_sub_tournament(rng, 2 + k % 6, skip=0.25, integer_costs=k % 2 == 1)
        for k in range(12)
    ]


# (instance, source vertex index, target vertex index) -> the message of the
# edge walk's DegenerateInstance, one message per way the rule detects a tie
DEGENERATE_EDGE_WALKS = {
    (5, 0, 1): "target vertex carries extra tight edges",
    (9, 0, 2): "target vertex carries extra tight edges",
    (5, 0, 2): "a walk vertex carries extra tight edges; perturb the costs",
    (9, 5, 0): "a walk vertex carries extra tight edges; perturb the costs",
    (11, 0, 6): "a walk vertex carries extra tight edges; perturb the costs",
    (5, 2, 14): "pivot tightened several inequalities at once; perturb the costs",
    (5, 5, 15): "pivot tightened several inequalities at once; perturb the costs",
    (11, 2, 6): "pivot tightened several inequalities at once; perturb the costs",
}


def test_recorded_steps_match_step_between():
    """Every step a builder records is the one ``step_between`` derives
    from its two points on the original graph, over every ordered vertex
    pair of the reference instances, in both modes."""
    walked = {"edge": 0, "circuit": 0}
    for graph, costs in _reference_instances():
        vertices = df.enumerate_vertices(graph, costs).vertices
        for u in vertices:
            for v in vertices:
                for mode, builder in (("edge", df.edge_walk), ("circuit", df.circuit_walk)):
                    try:
                        walk = builder(graph, costs, u, v)
                    except df.DegenerateInstance:
                        if mode == "circuit":
                            raise
                        continue
                    walked[mode] += walk.length
                    for k, step in enumerate(walk.steps):
                        assert step == df.step_between(
                            graph, costs, walk.points[k], walk.points[k + 1]
                        )
    assert min(walked.values()) > 1000, walked


def test_edge_walk_degenerate_messages():
    instances = _reference_instances()
    for (index, i, j), message in DEGENERATE_EDGE_WALKS.items():
        graph, costs = instances[index]
        vertices = df.enumerate_vertices(graph, costs).vertices
        with pytest.raises(df.DegenerateInstance) as caught:
            df.edge_walk(graph, costs, vertices[i], vertices[j])
        assert str(caught.value) == message
        # the circuit walk between the same vertices tolerates the tie
        assert df.validate_walk(
            graph, costs, df.circuit_walk(graph, costs, vertices[i], vertices[j])
        ).valid


def test_edge_walk_counts_tight_class_pairs_not_tight_edges():
    """The edge walk's degeneracy rule counts the tight edges between
    classes once per class pair, the pinned edges forming the classes.  The
    source has five tight edges on five nodes, yet the target-tree edges
    tight there are pinned before any step, and what is left between the
    classes is a tree of pairs: one pivot reaches the target."""
    graph = df.Digraph(
        5, ((3, 0), (0, 4), (1, 2), (1, 3), (4, 1), (3, 2), (2, 4), (4, 3))
    )
    costs = df.cost_vector([1, 1, 1, 2, 1, 0, 2, 2])
    source, target = df.Point.of(0, 2, -1, -1, 1), df.Point.of(0, -2, -5, -1, -3)
    tight = [i for i in range(graph.edge_count) if df.slack(graph, costs, source, i) == 0]
    assert len(tight) == 5
    walk = df.edge_walk(graph, costs, source, target)
    assert walk.length == 1
    assert walk.points == (source, target)
    assert df.validate_walk(graph, costs, walk) == df.WalkValidation(True, None)


# ---------------------------------------------------------------------------
# the integer grid

# near -> far on the example and on gk(2), as the rational builders walked them
PINNED_WALKS = {
    ("example", "circuit"): [
        (0, 0, 0, 0), (0, 0, 0, "10/9"), (0, 0, "2/9", "4/3"), (0, "2/3", "8/9", 2),
        (0, "2/3", "4/3", 2),
    ],
    ("example", "edge"): [
        (0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 0, "10/9"), (0, 1, "8/9", 2),
        (0, 1, "4/3", 2), (0, "2/3", "4/3", 2),
    ],
    ("gk2", "circuit"): [
        (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, "10/9", 0, 0, 0),
        (0, 0, "2/9", "4/3", 0, 0, 0), (0, "2/3", "8/9", 2, 0, 0, 0),
        (0, "2/3", "4/3", 2, 0, 0, 0), (0, "2/3", "4/3", 2, 0, 0, "10/9"),
        (0, "2/3", "4/3", 2, 0, "2/9", "4/3"), (0, "2/3", "4/3", 2, "2/3", "8/9", 2),
        (0, "2/3", "4/3", 2, "2/3", "4/3", 2),
    ],
    ("gk2", "edge"): [
        (0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0, 0), (0, 1, 0, "10/9", 0, 0, 0),
        (0, 1, "8/9", 2, 0, 0, 0), (0, 1, "4/3", 2, 0, 0, 0),
        (0, "2/3", "4/3", 2, 0, 0, 0), (0, "2/3", "4/3", 2, 1, 0, 1),
        (0, "2/3", "4/3", 2, 1, 0, "10/9"), (0, "2/3", "4/3", 2, 1, "8/9", 2),
        (0, "2/3", "4/3", 2, 1, "4/3", 2), (0, "2/3", "4/3", 2, "2/3", "4/3", 2),
    ],
}


@pytest.mark.parametrize("name, mode", sorted(PINNED_WALKS))
def test_builders_walk_the_pinned_points(name, mode, near_vertex, far_vertex):
    k = 1 if name == "example" else 2
    graph, costs = df.family_gk(k)
    source, target = (
        df.Point(p.coords[:1] + p.coords[1:] * k) for p in (near_vertex, far_vertex)
    )
    builder = df.circuit_walk if mode == "circuit" else df.edge_walk
    walk = builder(graph, costs, source, target)
    assert walk.points == tuple(df.Point.of(*p) for p in PINNED_WALKS[name, mode])
    assert df.validate_walk(graph, costs, walk).valid


# shortest-path vertices from and to node 0 of a perturbed 10-node
# sub-tournament, walked as the builders did when they lifted each point
# through every contraction record so far; each walk contracts nine edges
PINNED_TEN_NODE_WALKS = {
    "circuit": [
        (0, "2183/1000", "957/1000", "4083/1000", "116/125",
         "729/500", "1217/250", "489/200", "2103/1000", "21/100"),
        (0, "-937/1000", "-2163/1000", "963/1000", "-274/125",
         "-831/500", "437/250", "-27/40", "-1017/1000", "-291/100"),
        (0, "-1013/1000", "-2163/1000", "887/1000", "-567/250",
         "-869/500", "209/125", "-27/40", "-1093/1000", "-291/100"),
        (0, "-521/200", "-2163/1000", "-141/200", "-567/250",
         "-333/100", "2/25", "-27/40", "-1093/1000", "-291/100"),
        (0, "-521/200", "-2163/1000", "-124/125", "-567/250",
         "-3617/1000", "-207/1000", "-27/40", "-1093/1000", "-291/100"),
        (0, "-241/125", "-743/500", "-124/125", "-567/250",
         "-3617/1000", "-207/1000", "-27/40", "-1093/1000", "-2233/1000"),
        (0, "-1559/1000", "-1117/1000", "-124/125", "-1899/1000",
         "-3617/1000", "-207/1000", "-27/40", "-1093/1000", "-233/125"),
        (0, "-241/125", "-743/500", "-1361/1000", "-567/250",
         "-1993/500", "-207/1000", "-27/40", "-1093/1000", "-2233/1000"),
        (0, "-521/200", "-2163/1000", "-1019/500", "-567/250",
         "-4663/1000", "-207/1000", "-27/40", "-1093/1000", "-291/100"),
        (0, "-521/200", "-2163/1000", "-428/125", "-567/250",
         "-4663/1000", "-207/1000", "-27/40", "-1093/1000", "-291/100"),
    ],
    "edge": [
        (0, "2183/1000", "957/1000", "4083/1000", "116/125",
         "729/500", "1217/250", "489/200", "2103/1000", "21/100"),
        (0, "2183/1000", "957/1000", "4083/1000", "213/250",
         "729/500", "599/125", "489/200", "2027/1000", "21/100"),
        (0, "-937/1000", "-2163/1000", "963/1000", "-567/250",
         "-831/500", "209/125", "-27/40", "-1093/1000", "-291/100"),
        (0, "-937/1000", "-2163/1000", "963/1000", "-567/250",
         "-831/500", "-207/1000", "-27/40", "-1093/1000", "-291/100"),
        (0, "-413/250", "-2163/1000", "963/1000", "-567/250",
         "-831/500", "-207/1000", "-27/40", "-1093/1000", "-291/100"),
        (0, "-413/250", "-743/500", "963/1000", "-567/250",
         "-197/200", "-207/1000", "-27/40", "-1093/1000", "-2233/1000"),
        (0, "-413/250", "-121/100", "963/1000", "-249/125",
         "-709/1000", "-207/1000", "-27/40", "-1093/1000", "-1957/1000"),
        (0, "-413/250", "-121/100", "963/1000", "-249/125",
         "-217/125", "-207/1000", "-27/40", "-1093/1000", "-1957/1000"),
        (0, "-109/200", "-103/1000", "963/1000", "-177/200",
         "-217/125", "-207/1000", "-27/40", "-1093/1000", "-17/20"),
        (0, "-109/200", "-103/1000", "12/125", "-177/200",
         "-2603/1000", "-207/1000", "-27/40", "-1093/1000", "-17/20"),
        (0, "-241/125", "-743/500", "-1287/1000", "-567/250",
         "-1993/500", "-207/1000", "-27/40", "-1093/1000", "-2233/1000"),
        (0, "-521/200", "-2163/1000", "-491/250", "-567/250",
         "-4663/1000", "-207/1000", "-27/40", "-1093/1000", "-291/100"),
        (0, "-521/200", "-2163/1000", "-428/125", "-567/250",
         "-4663/1000", "-207/1000", "-27/40", "-1093/1000", "-291/100"),
    ],
}


@pytest.mark.parametrize("mode", sorted(PINNED_TEN_NODE_WALKS))
def test_builders_walk_the_pinned_ten_node_points(mode):
    graph, costs = random_sub_tournament(random.Random(26), 10, integer_costs=True)
    costs = df.perturb_costs(graph, costs, 26, denominator=1000)
    expected = tuple(df.Point.of(*p) for p in PINNED_TEN_NODE_WALKS[mode])
    builder = df.circuit_walk if mode == "circuit" else df.edge_walk
    walk = builder(graph, costs, expected[0], expected[-1])
    assert walk.points == expected
    assert df.validate_walk(graph, costs, walk).valid


def _all_rational(walk) -> bool:
    coords = [c for point in walk.points for c in point]
    epsilons = [step.epsilon for step in walk.steps]
    return all(type(x) is Fraction for x in coords + epsilons)


def test_builders_on_a_grid_past_2_to_the_40(example):
    """Costs over co-prime denominators put the grid's scale past 2**40;
    both builders' walks still validate in rationals, and are Fractions."""
    graph, base = example
    denominators = [7, 11, 13, 17, 10**9 + 7]
    costs = tuple(
        c + Fraction(i + 1, denominators[i % len(denominators)])
        for i, c in enumerate(base)
    )
    assert Grid(costs).scale > 2**40
    assert df.degeneracy_report(graph, costs).nondegenerate
    vertices = df.enumerate_vertices(graph, costs).vertices
    for source in vertices:
        for target in vertices:
            if source == target:
                continue
            for builder in (df.circuit_walk, df.edge_walk):
                walk = builder(graph, costs, source, target)
                check = df.validate_walk(graph, costs, walk)
                assert check.valid, check.violation
                assert _all_rational(walk)


def test_walk_from_points_reports_rationals(example, near_vertex):
    graph, costs = example
    points = [near_vertex, df.Point.of(0, 0, 0, "1/3")]
    with pytest.raises(df.ValidationError, match=r"moved 1/3, maximal 10/9$"):
        df.walk_from_points(graph, costs, points, "circuit")


def test_walk_from_points_checks_the_first_point(example, near_vertex):
    """An infeasible first point is refused at any walk length, the
    one-point walk included."""
    graph, costs = example
    infeasible = df.Point.of(0, 0, 0, 3)
    for points in ([infeasible], [infeasible, near_vertex]):
        with pytest.raises(df.InfeasiblePoint):
            df.walk_from_points(graph, costs, points, "circuit")
    walk = df.walk_from_points(graph, costs, [near_vertex], "edge")
    assert walk.points == (near_vertex,) and walk.steps == ()


def test_walk_from_points_tests_feasibility_once(monkeypatch, example, near_vertex, far_vertex):
    """Only the first point is tested for feasibility: every later one ends
    a maximal step from a feasible point."""
    graph, costs = example
    walk = df.circuit_walk(graph, costs, near_vertex, far_vertex)
    tested = []

    def counting(*args):
        tested.append(args[2])
        return df.is_feasible(*args)

    monkeypatch.setattr("dualflow.walks.is_feasible", counting)
    monkeypatch.setattr("dualflow.circuits.is_feasible", counting)
    assert df.walk_from_points(graph, costs, walk.points, "circuit") == walk
    assert len(tested) == 1


def test_walk_from_points_off_the_cost_grid(example):
    """Points need not lie on the costs' grid: the grid widens to hold them."""
    graph, costs = example
    points = [df.Point.of(0, 0, 0, "1/5"), df.Point.of(0, 0, 0, "10/9")]
    walk = df.walk_from_points(graph, costs, points, "circuit")
    assert walk.points == tuple(points)
    assert walk.steps[0].epsilon == Fraction(41, 45)
    assert _all_rational(walk)


# ---------------------------------------------------------------------------
# validate_walk


def test_validate_known_walk_both_modes(example):
    graph, costs = example
    points = [df.Point.of(*p) for p in WALK_POINTS]
    for mode in ("edge", "circuit"):
        walk = df.walk_from_points(graph, costs, points, mode)
        assert df.validate_walk(graph, costs, walk).valid


def test_validate_rejects_non_circuit_difference(example, near_vertex):
    graph, costs = example
    with pytest.raises(df.ValidationError):
        df.walk_from_points(
            graph, costs, [near_vertex, df.Point.of(0, 1, "4/3", 1)], "circuit"
        )


def test_validate_reports_non_circuit_difference(example, near_vertex):
    graph, costs = example
    # a genuine step recorded against the wrong destination
    step = df.max_step(
        graph, costs, near_vertex, df.PartitionCircuit(frozenset({3})), 1
    )
    walk = df.Walk((near_vertex, df.Point.of(0, 1, "4/3", 1)), (step,), "circuit")
    report = df.validate_walk(graph, costs, walk)
    assert not report.valid
    assert "0/1 direction" in report.violation


def test_validate_rejects_truncated_step(example, near_vertex):
    graph, costs = example
    circuit = df.PartitionCircuit(frozenset({3}))
    step = df.max_step(graph, costs, near_vertex, circuit, 1)
    halfway = df.Point.of(0, 0, 0, step.epsilon / 2)
    truncated = df.SignedStep(circuit, 1, step.epsilon / 2, step.entering_edges)
    walk = df.Walk((near_vertex, halfway), (truncated,), "circuit")
    report = df.validate_walk(graph, costs, walk)
    assert not report.valid
    assert "not maximal" in report.violation


def test_validate_rejects_infeasible_point(example, near_vertex):
    graph, costs = example
    walk = df.Walk((df.Point.of(0, 0, 0, 3),), (), "circuit")
    report = df.validate_walk(graph, costs, walk)
    assert not report.valid
    assert "infeasible" in report.violation


def test_validate_edge_mode_needs_vertices(example, near_vertex):
    graph, costs = example
    circuit = df.PartitionCircuit(frozenset({3}))
    step = df.max_step(graph, costs, near_vertex, circuit, 1)
    landed = df.apply_circuit_step(graph, costs, near_vertex, step)
    walk = df.Walk((near_vertex, landed), (step,), "edge")
    report = df.validate_walk(graph, costs, walk)
    assert not report.valid
    assert "not a vertex" in report.violation


def _move(s_set, sign, epsilon, entering):
    return df.SignedStep(
        df.PartitionCircuit(frozenset(s_set)), sign, Fraction(epsilon), frozenset(entering)
    )


# From the example's vertex (0, 0, 0, 0), raising node 3 alone is a maximal
# step of 10/9 that makes edge 8 = (2, 3) tight.
_UP_3 = _move({3}, 1, "10/9", {8})
_AT_UP_3 = (0, 0, 0, "10/9")

# name -> (graph or None for the example, points, steps, mode, violation)
BAD_WALKS = {
    "wrong dimension": (
        None, [(0, 0, 0, 0), (0, 0, 0)], [_UP_3], "circuit",
        "point 1 has the wrong dimension",
    ),
    "infeasible": (
        None, [(0, 0, 0, 0), (0, 0, 0, 3)], [_move({3}, 1, 3, {8})], "circuit",
        "point 1 is infeasible",
    ),
    "infeasible between moved nodes": (
        # only edges 5 = (1, 3) and 7 = (1, 2) are violated, and both ends
        # of each moved, by different amounts
        None, [(0, 0, 0, 0), (0, -2, "1/6", "1/6")], [_UP_3], "circuit",
        "point 1 is infeasible",
    ),
    "does not move": (
        None, [(0, 0, 0, 0), (0, 0, 0, 0)], [_UP_3], "circuit",
        "step 0 does not move",
    ),
    "0/1 direction": (
        None, [(0, 0, 0, 0), (0, 1, "4/3", 1)], [_UP_3], "circuit",
        "step 0 is not a multiple of a 0/1 direction",
    ),
    "wrong node set": (
        None, [(0, 0, 0, 0), _AT_UP_3], [_move({2}, 1, "10/9", {8})], "circuit",
        "step 0 moves the wrong node set",
    ),
    "invalid circuit": (
        # node 1 alone splits the path 0 - 1 - 2 into S and a disconnected rest
        df.Digraph(3, ((0, 1), (1, 0), (1, 2), (2, 1))),
        [(0, 0, 0), (0, 1, 0)], [_move({1}, 1, 1, {0})], "circuit",
        "step 0 uses an invalid circuit",
    ),
    "wrong sign": (
        None, [(0, 0, 0, 0), _AT_UP_3], [_move({3}, -1, "10/9", {8})], "circuit",
        "step 0 disagrees with its record",
    ),
    "wrong length": (
        None, [(0, 0, 0, 0), _AT_UP_3], [_move({3}, 1, 1, {8})], "circuit",
        "step 0 disagrees with its record",
    ),
    "unbounded": (
        # nothing leaves node 1, so lowering it never makes an edge tight
        df.Digraph(2, ((0, 1),)), [(0, 0), (0, -1)], [_move({1}, -1, 1, ())], "circuit",
        "step 0 is impossible: no edge bounds this direction",
    ),
    # A blocking edge that is tight before the step goes negative after it,
    # so the point check fires first and "step k is impossible: a blocking
    # edge is already tight" cannot be reached.
    "blocked by a tight edge": (
        None, [_AT_UP_3, (0, 0, 0, "19/9")], [_move({3}, 1, 1, {8})], "circuit",
        "point 1 is infeasible",
    ),
    "not maximal": (
        None, [(0, 0, 0, 0), (0, 0, 0, "5/9")], [_move({3}, 1, "5/9", {8})], "circuit",
        "step 0 is not maximal",
    ),
    "wrong entering edges": (
        None, [(0, 0, 0, 0), _AT_UP_3], [_move({3}, 1, "10/9", {5})], "circuit",
        "step 0 records wrong entering edges",
    ),
    "extra entering edge": (
        None, [(0, 0, 0, 0), _AT_UP_3], [_move({3}, 1, "10/9", {5, 8})], "circuit",
        "step 0 records wrong entering edges",
    ),
    "not a vertex": (
        None, [(0, 0, 0, 0), _AT_UP_3], [_UP_3], "edge",
        "point 1 is not a vertex",
    ),
    "not adjacent": (
        # one maximal circuit step joins these vertices, but their common
        # tight edges leave three components
        None, [(0, -1, 0, "1/3"), (0, "1/3", "4/3", "1/3")],
        [_move({1, 2}, 1, "4/3", {2, 4})], "edge",
        "points 0 and 1 are not adjacent vertices",
    ),
    # the first check that fails wins: every point before any step, every
    # step before the vertex checks
    "infeasible after a bad step": (
        None, [(0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 3)],
        [_UP_3, _move({3}, 1, 3, {8})], "circuit",
        "point 2 is infeasible",
    ),
    "bad step before a non-vertex": (
        None, [(0, 0, 0, 0), _AT_UP_3, (0, 0, 0, "5/9")],
        [_UP_3, _move({3}, -1, "5/9", {6})], "edge",
        "step 1 is not maximal",
    ),
}


def test_validate_off_the_cost_grid(example):
    """A point's /7 coordinate lies off the costs' lcm of 9: the checker's
    scale must cover the points' denominators as well as the costs'."""
    graph, costs = example
    points = (df.Point.of(0, 0, 0, "1/7"), df.Point.of(0, 0, 0, "10/9"))
    step = _move({3}, 1, "61/63", {8})
    assert df.max_step(graph, costs, points[0], step.circuit, 1) == step
    walk = df.Walk(points, (step,), "circuit")
    assert df.validate_walk(graph, costs, walk) == df.WalkValidation(True, None)
    shortened = df.Walk(
        (points[0], df.Point.of(0, 0, 0, "1/2")), (step.replace(epsilon=Fraction(5, 14)),),
        "circuit",
    )
    assert df.validate_walk(graph, costs, shortened) == df.WalkValidation(
        False, "step 0 is not maximal"
    )
    wrong_length = df.Walk(points, (step.replace(epsilon=Fraction(61, 62)),), "circuit")
    assert df.validate_walk(graph, costs, wrong_length) == df.WalkValidation(
        False, "step 0 disagrees with its record"
    )


@pytest.mark.parametrize("name", list(BAD_WALKS))
def test_validate_pins_every_violation(name, example):
    graph, points, steps, mode, violation = BAD_WALKS[name]
    costs = example[1] if graph is None else (Fraction(1),) * graph.edge_count
    walk = df.Walk(tuple(df.Point.of(*p) for p in points), tuple(steps), mode)
    report = df.validate_walk(graph or example[0], costs, walk)
    assert report == df.WalkValidation(False, violation)


def test_validate_rejects_a_wrong_cost_count(example, near_vertex):
    graph, costs = example
    walk = df.Walk((near_vertex,), (), "circuit")
    with pytest.raises(df.DimensionMismatch):
        df.validate_walk(graph, costs[:-1], walk)


def _step_code_called(*args, **kwargs):
    raise AssertionError("validate_walk ran step code")


def _gk_ends(ks, near_vertex, far_vertex):
    """gk(k)'s near and far vertices for each k, in both orders."""
    for k in ks:
        graph, costs = df.family_gk(k)
        near, far = (
            df.Point(p.coords[:1] + p.coords[1:] * k) for p in (near_vertex, far_vertex)
        )
        yield from ((graph, costs, near, far), (graph, costs, far, near))


def test_validate_walk_runs_no_step_code(monkeypatch, near_vertex, far_vertex):
    """Built walks validate with the builders' step code, the circuit test
    and the model's feasibility and tightness helpers all broken: the
    validator derives its verdict from the points and records alone."""
    built = [
        (graph, costs, builder(graph, costs, a, b))
        for graph, costs, a, b in _gk_ends((1, 3), near_vertex, far_vertex)
        for builder in (df.edge_walk, df.circuit_walk)
    ]
    for name in (
        "dualflow.circuits._max_step",
        "dualflow.circuits.crossing_edges",
        "dualflow.circuits.direction_table",
        "dualflow.circuits.uniform_shift",
        "dualflow.circuits.is_valid_circuit",
        "dualflow.walks.crossing_edges",
        "dualflow.walks.is_valid_circuit",
        "dualflow.circuits.is_feasible",
        "dualflow.walks.tight_graph",
        "dualflow.walks.is_feasible",
        "dualflow.model.tight_graph",
        "dualflow.model.is_feasible",
        "dualflow.walks.Grid",
        "dualflow.model.Grid",
    ):
        monkeypatch.setattr(name, _step_code_called)
    for graph, costs, walk in built:
        assert walk.length > 0
        assert df.validate_walk(graph, costs, walk) == df.WalkValidation(True, None)


def test_builders_build_no_contracted_instance(monkeypatch, near_vertex, far_vertex):
    """The builders walk the original graph and record each step as they
    take it: with contraction and step recovery broken, gk(2) and gk(3)
    walks still build and validate in both modes and both directions."""
    monkeypatch.setattr("dualflow.walks.contract_edge", _step_code_called)
    monkeypatch.setattr("dualflow.walks._step_between", _step_code_called)
    for graph, costs, a, b in _gk_ends((2, 3), near_vertex, far_vertex):
        for builder in (df.edge_walk, df.circuit_walk):
            walk = builder(graph, costs, a, b)
            assert walk.points[0] == a and walk.points[-1] == b
            assert walk.length > 0
            assert df.validate_walk(graph, costs, walk) == df.WalkValidation(True, None)


def test_builders_build_one_grid_and_no_whole_graph_circuit_test(
    monkeypatch, near_vertex, far_vertex
):
    """Each builder call builds one Grid, in its endpoint check, and runs no
    whole-graph circuit test: its steps' S are circuits by construction."""
    grids = []

    class CountingGrid(Grid):
        def __init__(self, *args, **kwargs):
            grids.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("dualflow.model.Grid", CountingGrid)
    monkeypatch.setattr("dualflow.walks.Grid", CountingGrid)
    monkeypatch.setattr("dualflow.walks.is_valid_circuit", _step_code_called)
    built = []
    for graph, costs, a, b in _gk_ends((2, 3), near_vertex, far_vertex):
        for builder in (df.edge_walk, df.circuit_walk):
            grids.clear()
            walk = builder(graph, costs, a, b)
            assert len(grids) == 1, (builder.__name__, graph.node_count)
            assert walk.length > 0
            built.append((graph, costs, walk))
    monkeypatch.undo()
    for graph, costs, walk in built:
        assert df.validate_walk(graph, costs, walk) == df.WalkValidation(True, None)


def test_builders_run_no_point_checks(monkeypatch, near_vertex, far_vertex):
    """The builders make each recorded point on their grid with
    Grid.to_point: no Point.__post_init__ runs inside circuit_walk or
    edge_walk, on gk(3) in both directions."""
    ends = list(_gk_ends((3,), near_vertex, far_vertex))
    checked, check = [], df.Point.__post_init__
    monkeypatch.setattr(df.Point, "__post_init__", lambda p: checked.append(p) or check(p))
    built = [
        (graph, costs, builder(graph, costs, a, b))
        for graph, costs, a, b in ends
        for builder in (df.edge_walk, df.circuit_walk)
    ]
    assert checked == []
    monkeypatch.undo()
    for graph, costs, walk in built:
        assert walk.length > 0
        assert df.validate_walk(graph, costs, walk) == df.WalkValidation(True, None)


def _corruptions(graph, step):
    """Each way of falsifying one step's record, with the violation it must
    raise.  The blocking edges are recomputed here from their definition."""
    s_set, sign = step.circuit.s_set, step.sign
    blocking = {
        i for i, (tail, head) in enumerate(graph.edges)
        if (head if sign > 0 else tail) in s_set and (tail if sign > 0 else head) not in s_set
    }
    for i in sorted(step.entering_edges):
        yield "drop an entering edge", step.replace(
            entering_edges=step.entering_edges - {i}
        ), "records wrong entering edges"
    for i in sorted(set(range(graph.edge_count)) - blocking)[:3]:
        yield "add a non-blocking edge", step.replace(
            entering_edges=step.entering_edges | {i}
        ), "records wrong entering edges"
    yield "flip the sign", step.replace(sign=-sign), "disagrees with its record"
    for v in sorted(set(range(1, graph.node_count)) - s_set)[:2]:
        yield "add a node to S", step.replace(
            circuit=df.PartitionCircuit(s_set | {v})
        ), "moves the wrong node set"


def test_validate_rejects_every_corrupted_record():
    rng = random.Random(2014)
    seen = {}
    for trial in range(30):
        graph, costs = random_sub_tournament(rng, rng.randint(3, 6), integer_costs=trial % 3 == 0)
        vertices = df.enumerate_vertices(graph, costs).vertices
        if len(vertices) < 2:
            continue
        source, target = rng.sample(vertices, 2)
        walks = [df.circuit_walk(graph, costs, source, target)]
        if df.degeneracy_report(graph, costs).nondegenerate:
            walks.append(df.edge_walk(graph, costs, source, target))
        for walk in walks:
            assert df.validate_walk(graph, costs, walk).valid
            for k, step in enumerate(walk.steps):
                for kind, bad, violation in _corruptions(graph, step):
                    steps = walk.steps[:k] + (bad,) + walk.steps[k + 1:]
                    report = df.validate_walk(graph, costs, walk.replace(steps=steps))
                    assert report == df.WalkValidation(False, f"step {k} {violation}"), kind
                    seen[kind] = seen.get(kind, 0) + 1
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def _validation_corpus(rng, trials):
    """Seeded built walks and their corruptions, as ``(graph, costs, walk)``:
    the example and random sub-tournaments of 2-6 nodes (every third with
    integer costs); one circuit walk each, and an edge walk on
    nondegenerate instances; those walks with the mode flipped, with one
    step's record edited and with one point moved, repeated, cut short,
    swapped with the next or dropped; moves from a vertex along a random
    node set, recorded with no entering edge; and each first circuit step
    from each vertex as a two-point edge walk."""
    instances = [df.example_graph()] + [
        random_sub_tournament(rng, rng.randint(2, 6), integer_costs=trial % 3 == 0)
        for trial in range(trials)
    ]
    for graph, costs in instances:
        n = graph.node_count
        unit = Fraction(1, math.lcm(*(c.denominator for c in costs)))
        vertices = df.enumerate_vertices(graph, costs).vertices
        source, target = rng.choice(vertices), rng.choice(vertices)
        walks = [df.circuit_walk(graph, costs, source, target)]
        if df.degeneracy_report(graph, costs).nondegenerate:
            walks.append(df.edge_walk(graph, costs, source, target))
        for walk in walks:
            yield graph, costs, walk
            flipped = "edge" if walk.mode == "circuit" else "circuit"
            yield graph, costs, walk.replace(mode=flipped)
            for k, step in enumerate(walk.steps):
                v, i = rng.randrange(1, n), rng.randrange(graph.edge_count)
                for bad in (
                    step.replace(sign=-step.sign),
                    step.replace(epsilon=2 * step.epsilon),
                    step.replace(entering_edges=step.entering_edges ^ {i}),
                    step.replace(circuit=df.PartitionCircuit(step.circuit.s_set | {v})),
                ):
                    steps = walk.steps[:k] + (bad,) + walk.steps[k + 1:]
                    yield graph, costs, walk.replace(steps=steps)
            points = walk.points
            for k, point in enumerate(points):
                v = rng.randrange(1, n)
                nudged = list(point.coords)
                nudged[v] += rng.choice((unit, -unit, unit / 2))
                for edit in (nudged, points[k - 1].coords if k else point.coords[:-1]):
                    edited = points[:k] + (df.Point(tuple(edit)),) + points[k + 1:]
                    yield graph, costs, walk.replace(points=edited)
                if 0 < k < len(points) - 1:
                    swapped = points[:k] + (points[k + 1], point) + points[k + 2:]
                    yield graph, costs, walk.replace(points=swapped)
                    dropped = points[:k] + points[k + 1:]
                    steps = walk.steps[:k] + walk.steps[k + 1:]
                    yield graph, costs, walk.replace(points=dropped, steps=steps)
        s_set = frozenset(rng.sample(range(1, n), rng.randint(1, n - 1)))
        for sign in (1, -1):
            moved = df.Point(tuple(
                x + sign * unit if v in s_set else x for v, x in enumerate(source.coords)
            ))
            step = df.SignedStep(df.PartitionCircuit(s_set), sign, unit, frozenset())
            yield graph, costs, df.Walk((source, moved), (step,), "circuit")
        for vertex in vertices[:3]:
            for neighbor in df.first_circuit_neighbors(graph, costs, vertex):
                yield graph, costs, df.Walk((vertex, neighbor.point), neighbor.steps, "edge")


def test_validate_walk_matches_the_reference():
    """validate_walk and the checker from the definitions in conftest give
    the same verdict on every walk of the corpus, and the corpus reaches a
    valid walk and each of the twelve violations."""
    verdicts = set()
    for graph, costs, walk in _validation_corpus(random.Random(2019), 60):
        report = df.validate_walk(graph, costs, walk)
        assert report == reference_validation(graph, costs, walk), walk
        violation = report.violation or "valid"
        verdicts.add(re.sub(r"(point|step|points|and) \d+", r"\1 k", violation))
    assert verdicts == {
        "valid",
        "point k has the wrong dimension",
        "point k is infeasible",
        "step k does not move",
        "step k is not a multiple of a 0/1 direction",
        "step k moves the wrong node set",
        "step k uses an invalid circuit",
        "step k disagrees with its record",
        "step k is impossible: no edge bounds this direction",
        "step k is not maximal",
        "step k records wrong entering edges",
        "point k is not a vertex",
        "points k and k are not adjacent vertices",
    }


# ---------------------------------------------------------------------------
# perturbation


def test_perturb_costs_shape_and_size(example):
    graph, costs = example
    jiggled = df.perturb_costs(graph, costs, seed=5)
    assert len(jiggled) == len(costs)
    for before, after in zip(costs, jiggled):
        assert 0 <= after - before < 1
        assert (after - before).denominator <= 10**9


@pytest.mark.parametrize("denominator", [0, -3])
def test_perturb_costs_rejects_a_denominator_below_one(example, denominator):
    graph, costs = example
    with pytest.raises(df.ValidationError):
        df.perturb_costs(graph, costs, seed=5, denominator=denominator)


# ---------------------------------------------------------------------------
# internal invariants


def test_package_has_no_assert_statements():
    """Invariant checks raise InternalInvariant, which survives ``python -O``."""
    package = pathlib.Path(df.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"
