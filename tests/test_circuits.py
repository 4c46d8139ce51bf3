"""Circuits: partition enumeration, direction vectors, maximal steps."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest

import dualflow as df
from conftest import random_sub_tournament


def members(partitions):
    return [sorted(p.s_set) for p in partitions]


# ---------------------------------------------------------------------------
# enumerate_partitions


def test_partitions_two_node_graph():
    graph = df.Digraph(2, ((0, 1),))
    assert members(df.enumerate_partitions(graph)) == [[1]]


def test_partitions_example(example):
    graph, _ = example
    got = members(df.enumerate_partitions(graph))
    assert got == [[1], [1, 2], [1, 2, 3], [1, 3], [2], [2, 3], [3]]


def test_partitions_directed_path():
    graph = df.Digraph(3, ((0, 1), (1, 2)))
    # {v1} is invalid: it would strand {v0, v2} disconnected
    assert members(df.enumerate_partitions(graph)) == [[1, 2], [2]]


def test_partitions_single_node():
    assert df.enumerate_partitions(df.Digraph(1, ())) == ()


def test_partitions_both_sides_connected():
    rng = random.Random(3)
    for _ in range(20):
        graph, _ = random_sub_tournament(rng, rng.randint(2, 6))
        nodes = set(range(graph.node_count))
        for circuit in df.enumerate_partitions(graph):
            assert df.ANCHOR not in circuit.s_set
            assert df.is_valid_circuit(graph, circuit.s_set)
        # brute-force recount
        count = 0
        for mask in range(1, 2 ** (graph.node_count - 1)):
            subset = frozenset(
                v for v in range(1, graph.node_count) if mask >> (v - 1) & 1
            )
            if df.is_valid_circuit(graph, subset):
                count += 1
        assert count == len(df.enumerate_partitions(graph))


def _reference_instances():
    instances = [
        ("example", df.example_graph()),
        ("gk2", df.family_gk(2)),
        ("bipartite-2x3", df.complete_bipartite(2, 3, df.random_bipartite_costs(2, 3, 7))),
        ("bipartite-3x3", df.complete_bipartite(3, 3, df.random_bipartite_costs(3, 3, 7))),
    ]
    for seed in range(20):
        rng = random.Random(seed)
        instances.append((f"random-{seed}", random_sub_tournament(rng, 2 + seed % 6)))
    return instances


REFERENCE_INSTANCES = _reference_instances()
RANDOM_INSTANCES = [item for item in REFERENCE_INSTANCES if item[0].startswith("random")]


def _nx_connected(graph, nodes):
    """networkx's verdict on the underlying subgraph induced by the nodes."""
    underlying = nx.MultiGraph()
    underlying.add_nodes_from(range(graph.node_count))
    underlying.add_edges_from(graph.edges)
    return bool(nodes) and nx.is_connected(underlying.subgraph(nodes))


@pytest.mark.parametrize(
    "graph,_costs",
    [instance for _, instance in REFERENCE_INSTANCES],
    ids=[name for name, _ in REFERENCE_INSTANCES],
)
def test_valid_circuits_match_networkx(graph, _costs):
    """Independent reference: a subset S of the non-anchor nodes is a
    circuit iff networkx finds both S and its complement connected."""
    nodes = set(range(graph.node_count))
    others = range(1, graph.node_count)
    valid = []
    for size in range(1, graph.node_count):
        for combo in itertools.combinations(others, size):
            s_set = frozenset(combo)
            expected = _nx_connected(graph, s_set) and _nx_connected(graph, nodes - s_set)
            assert df.is_valid_circuit(graph, s_set) == expected, sorted(s_set)
            if expected:
                valid.append(combo)
    assert [tuple(sorted(c.s_set)) for c in df.enumerate_partitions(graph)] == sorted(valid)
    assert not df.is_valid_circuit(graph, frozenset())
    assert not df.is_valid_circuit(graph, frozenset({df.ANCHOR}))
    assert not df.is_valid_circuit(graph, frozenset(nodes))
    assert not df.is_valid_circuit(graph, frozenset({graph.node_count}))
    assert not df.is_valid_circuit(graph, frozenset({-1}))


@pytest.mark.parametrize(
    "graph,costs",
    [instance for _, instance in RANDOM_INSTANCES],
    ids=[name for name, _ in RANDOM_INSTANCES],
)
def test_insertion_partitions_match_networkx(graph, costs):
    """Every insertion partition built at a vertex for a loose edge keeps
    the anchor outside S, and networkx finds both sides connected."""
    nodes = set(range(graph.node_count))
    built = 0
    for vertex in df.enumerate_vertices(graph, costs).vertices:
        for edge in range(graph.edge_count):
            if df.slack(graph, costs, vertex, edge) == 0:
                continue
            try:
                circuit, sign = df.build_insertion_partition(graph, costs, vertex, edge)
            except df.PathConflict:
                continue
            built += 1
            assert sign in (1, -1)
            assert df.ANCHOR not in circuit.s_set
            assert _nx_connected(graph, circuit.s_set)
            assert _nx_connected(graph, nodes - circuit.s_set)
    assert built or graph.edge_count == graph.node_count - 1


def test_insertion_partition_guard_raises(monkeypatch, example, near_vertex):
    """The partition is checked before it is returned: a rejected side
    raises InvalidPartition."""
    graph, costs = example
    monkeypatch.setattr("dualflow.walks.is_valid_circuit", lambda *_: False)
    with pytest.raises(df.InvalidPartition):
        df.build_insertion_partition(
            graph, costs, near_vertex, df.find_edge(graph, 0, 3)
        )


# ---------------------------------------------------------------------------
# circuit_vector


@pytest.mark.parametrize(
    "s_set,expected",
    [
        ({3}, (0, 0, 0, 1)),
        ({1, 3}, (0, 1, 0, 1)),
        ({1, 2, 3}, (0, 1, 1, 1)),
    ],
)
def test_circuit_vector(s_set, expected):
    circuit = df.PartitionCircuit(frozenset(s_set))
    assert df.circuit_vector(circuit, 4) == tuple(Fraction(x) for x in expected)


@pytest.mark.parametrize("member", [4, -1])
def test_circuit_vector_rejects_a_member_out_of_range(member):
    circuit = df.PartitionCircuit(frozenset({member}))
    with pytest.raises(df.ValidationError, match="^circuit member out of range$"):
        df.circuit_vector(circuit, 4)


def test_circuit_rejects_anchor():
    with pytest.raises(df.ValidationError):
        df.PartitionCircuit(frozenset({0, 1}))
    with pytest.raises(df.ValidationError):
        df.PartitionCircuit(frozenset())


# ---------------------------------------------------------------------------
# max_step


def test_max_step_single_rise(example, near_vertex):
    graph, costs = example
    step = df.max_step(
        graph, costs, near_vertex, df.PartitionCircuit(frozenset({3})), 1
    )
    assert step.epsilon == Fraction(10, 9)
    assert step.entering_edges == {df.find_edge(graph, 2, 3)}


def test_max_step_not_applicable(example, near_vertex):
    graph, costs = example
    blocked = df.PartitionCircuit(frozenset({1, 2}))
    for sign in (1, -1):
        with pytest.raises(df.NotApplicable):
            df.max_step(graph, costs, near_vertex, blocked, sign)


def test_max_step_negative_direction(example, near_vertex):
    graph, costs = example
    step = df.max_step(
        graph, costs, near_vertex, df.PartitionCircuit(frozenset({1})), -1
    )
    assert step.epsilon == 1
    assert step.entering_edges == {df.find_edge(graph, 1, 2)}


def test_max_step_unbounded():
    graph = df.Digraph(3, ((0, 1), (1, 2)))
    costs = df.cost_vector([1, 1])
    with pytest.raises(df.UnboundedDirection):
        df.max_step(
            graph, costs, df.Point.of(0, 0, 0), df.PartitionCircuit(frozenset({2})), -1
        )


def test_max_step_requires_feasible(example):
    graph, costs = example
    with pytest.raises(df.InfeasiblePoint):
        df.max_step(
            graph,
            costs,
            df.Point.of(0, 0, 0, 3),
            df.PartitionCircuit(frozenset({3})),
            1,
        )


# ---------------------------------------------------------------------------
# apply_circuit_step


@pytest.mark.parametrize(
    "s_set,sign,expected",
    [
        ({1, 3}, 1, (0, 1, 0, 1)),
        ({1, 2, 3}, 1, (0, 1, 1, 1)),
        ({1}, -1, (0, -1, 0, 0)),
    ],
)
def test_apply_circuit_step(example, near_vertex, s_set, sign, expected):
    graph, costs = example
    circuit = df.PartitionCircuit(frozenset(s_set))
    step = df.max_step(graph, costs, near_vertex, circuit, sign)
    landed = df.apply_circuit_step(graph, costs, near_vertex, step)
    assert landed == df.Point.of(*expected)
    assert landed[df.ANCHOR] == 0


def test_apply_stale_step(example, near_vertex, far_vertex):
    graph, costs = example
    circuit = df.PartitionCircuit(frozenset({3}))
    step = df.max_step(graph, costs, near_vertex, circuit, 1)
    with pytest.raises(df.StaleStep):
        df.apply_circuit_step(graph, costs, far_vertex, step)


def test_step_maximality_witnessed(example, near_vertex):
    """Past the landing point, every blocking edge certifies infeasibility."""
    graph, costs = example
    for circuit in df.enumerate_partitions(graph):
        for sign in (1, -1):
            try:
                step = df.max_step(graph, costs, near_vertex, circuit, sign)
            except (df.NotApplicable, df.UnboundedDirection):
                continue
            landed = df.apply_circuit_step(graph, costs, near_vertex, step)
            assert df.is_feasible(graph, costs, landed)
            overshoot = Fraction(1, 7)
            delta = (step.epsilon + overshoot) * sign
            pushed = df.Point(
                tuple(
                    c + delta if v in circuit.s_set else c
                    for v, c in enumerate(near_vertex.coords)
                )
            )
            assert not df.is_feasible(graph, costs, pushed)
            for e in step.entering_edges:
                assert df.slack(graph, costs, landed, e) == 0


def test_steps_preserve_feasibility_random():
    rng = random.Random(17)
    for _ in range(25):
        graph, costs = random_sub_tournament(rng, rng.randint(2, 5))
        point = df.feasibility_status(graph, costs).witness
        for circuit in df.enumerate_partitions(graph):
            for sign in (1, -1):
                try:
                    step = df.max_step(graph, costs, point, circuit, sign)
                except (df.NotApplicable, df.UnboundedDirection):
                    continue
                landed = df.apply_circuit_step(graph, costs, point, step)
                assert df.is_feasible(graph, costs, landed)


def test_edge_steps_are_circuit_steps():
    """Adjacent vertices differ by one maximal signed circuit step."""
    rng = random.Random(29)
    seen_pairs = 0
    while seen_pairs < 30:
        graph, costs = random_sub_tournament(rng, rng.randint(3, 5))
        vertices = df.enumerate_vertices(graph, costs).vertices
        for i, u in enumerate(vertices):
            for v in vertices[i + 1 :]:
                if not df.are_adjacent(graph, costs, u, v):
                    continue
                seen_pairs += 1
                step = df.step_between(graph, costs, u, v)
                assert df.apply_circuit_step(graph, costs, u, step) == v
                back = df.step_between(graph, costs, v, u)
                assert df.apply_circuit_step(graph, costs, v, back) == u


def test_step_between_rejects_non_steps(example, near_vertex):
    """Every move that is not a maximal step raises ValidationError naming
    why, in step_between and in walk_from_points alike: a move along a
    direction blocked at the source, and one along a ray, included."""
    graph, costs = example
    with pytest.raises(df.ValidationError):
        df.step_between(graph, costs, near_vertex, df.Point.of(0, 1, "4/3", 1))
    with pytest.raises(df.ValidationError):
        df.step_between(graph, costs, near_vertex, near_vertex)
    blocked = df.Point.of(0, 1, 1, 0)
    with pytest.raises(df.ValidationError, match="a blocking edge is already tight$"):
        df.step_between(graph, costs, near_vertex, blocked)
    with pytest.raises(df.ValidationError, match="a blocking edge is already tight$"):
        df.walk_from_points(graph, costs, [near_vertex, blocked], "circuit")
    ray = df.Digraph(2, ((0, 1),))
    with pytest.raises(df.ValidationError, match="no edge bounds this direction$"):
        df.step_between(ray, df.cost_vector([1]), df.Point.of(0, 0), df.Point.of(0, -1))


@pytest.mark.parametrize(
    "graph",
    [
        df.example_graph()[0],
        df.Digraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))),
    ],
    ids=["example", "five-cycle"],
)
def test_partitions_match_observed_edge_directions(graph):
    """Across many cost draws, normalized differences of adjacent vertices
    realize every enumerated circuit and nothing else."""
    rng = random.Random(101)
    observed = set()
    for _ in range(200):
        costs = tuple(
            Fraction(rng.randint(0, 24), rng.randint(1, 8))
            for _ in range(graph.edge_count)
        )
        vertices = df.enumerate_vertices(graph, costs).vertices
        for i, u in enumerate(vertices):
            for v in vertices[i + 1 :]:
                if not df.are_adjacent(graph, costs, u, v):
                    continue
                moved = frozenset(
                    k for k in range(graph.node_count) if u.coords[k] != v.coords[k]
                )
                observed.add(moved)  # anchors never move, so this is canonical
    expected = {c.s_set for c in df.enumerate_partitions(graph)}
    assert observed == expected
