"""Oracles: vertex enumeration, adjacency, exact distances and diameters."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest

import dualflow as df
from conftest import geometric_adjacency, random_sub_tournament
from dualflow.model import blocks, component_count, join_points
from dualflow.oracle import _circuit_search, default_depth_cap

# the five vertices of the length-4 skeleton walk, in walk order
WALK_POINTS = [
    (0, 0, 0, 0),
    (0, 1, 0, 1),
    (0, 1, "4/3", 1),
    (0, 1, "4/3", 2),
    (0, "2/3", "4/3", 2),
]


# ---------------------------------------------------------------------------
# enumerate_vertices


def test_vertices_example_contains_both(example, near_vertex, far_vertex):
    graph, costs = example
    vertex_set = df.enumerate_vertices(graph, costs)
    assert near_vertex in vertex_set.vertices
    assert far_vertex in vertex_set.vertices
    for vertex in vertex_set.vertices:
        assert df.is_vertex(graph, costs, vertex)
    assert len(set(vertex_set.vertices)) == len(vertex_set.vertices)


def test_vertices_example_frozen_count(example):
    graph, costs = example
    vertex_set = df.enumerate_vertices(graph, costs)
    assert len(vertex_set.vertices) == 14
    feasible_trees = sum(len(w) for w in vertex_set.tree_witnesses)
    infeasible = 0
    for tree in df.enumerate_spanning_trees(graph):
        try:
            df.vertex_from_tree(graph, costs, tree)
        except df.InfeasibleTree:
            infeasible += 1
    assert feasible_trees + infeasible == 51


def test_vertices_single_node():
    graph = df.Digraph(1, ())
    vertex_set = df.enumerate_vertices(graph, ())
    assert vertex_set.vertices == (df.Point.of(0),)
    assert vertex_set.tree_witnesses == ((frozenset(),),)


def test_vertices_degenerate_two_node():
    graph = df.Digraph(2, ((0, 1), (1, 0)))
    vertex_set = df.enumerate_vertices(graph, df.cost_vector([1, -1]))
    assert vertex_set.vertices == (df.Point.of(0, 1),)
    assert len(vertex_set.tree_witnesses[0]) == 2


# ---------------------------------------------------------------------------
# are_adjacent


def test_walk_pairs_adjacent(example):
    graph, costs = example
    points = [df.Point.of(*p) for p in WALK_POINTS]
    for u, v in zip(points, points[1:]):
        assert df.are_adjacent(graph, costs, u, v)


def test_distant_vertices_not_adjacent(example, near_vertex, far_vertex):
    graph, costs = example
    assert not df.are_adjacent(graph, costs, near_vertex, far_vertex)


def test_disjoint_tight_sets_not_adjacent(example, near_vertex):
    graph, costs = example
    fourth = df.Point.of(0, 1, "4/3", 2)
    assert (
        df.tight_graph(graph, costs, near_vertex)
        & df.tight_graph(graph, costs, fourth)
        == frozenset()
    )
    assert not df.are_adjacent(graph, costs, near_vertex, fourth)


def test_adjacency_errors(example, near_vertex):
    graph, costs = example
    with pytest.raises(df.IdenticalPoints):
        df.are_adjacent(graph, costs, near_vertex, near_vertex)
    with pytest.raises(df.NotAVertex):
        df.are_adjacent(graph, costs, near_vertex, df.Point.of(0, 1, 1, 1))


def test_adjacency_matches_geometric_rank_test():
    """Two-component criterion == common tight constraints of corank one."""
    rng = random.Random(37)
    for _ in range(25):
        graph, costs = random_sub_tournament(rng, rng.randint(3, 5))
        vertices = df.enumerate_vertices(graph, costs).vertices
        for i, u in enumerate(vertices):
            for v in vertices[i + 1 :]:
                assert df.are_adjacent(graph, costs, u, v) == geometric_adjacency(
                    graph, costs, u, v
                )


def test_adjacency_symmetric():
    rng = random.Random(41)
    graph, costs = random_sub_tournament(rng, 5)
    vertices = df.enumerate_vertices(graph, costs).vertices
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            assert df.are_adjacent(graph, costs, u, v) == df.are_adjacent(
                graph, costs, v, u
            )


# ---------------------------------------------------------------------------
# first_circuit_neighbors

FIRST_STEPS = {
    (0, -1, 0, 0): (0, "5/3", "4/3", 2),
    (0, 0, 1, 0): (0, "2/3", "1/3", 2),
    (0, 0, 0, "10/9"): (0, "2/3", "4/3", "8/9"),
    (0, 1, 0, 1): (0, "-1/3", "4/3", 1),
    (0, 0, 1, 1): (0, "2/3", "1/3", 1),
    (0, 1, 1, 1): (0, "-1/3", "1/3", 1),
}


def test_first_circuit_neighbors_example(example, near_vertex, far_vertex):
    graph, costs = example
    neighbors = df.first_circuit_neighbors(graph, costs, near_vertex)
    assert len(neighbors) == 6
    expected = {df.Point.of(*p) for p in FIRST_STEPS}
    assert {n.point for n in neighbors} == expected


def test_first_circuit_neighbor_gaps(example, near_vertex, far_vertex):
    graph, costs = example
    for destination, expected_gap in FIRST_STEPS.items():
        dest = df.Point.of(*destination)
        gap = tuple(a - b for a, b in zip(far_vertex.coords, dest.coords))
        assert gap == df.Point.of(*expected_gap).coords


def test_first_circuit_neighbors_single_node():
    graph = df.Digraph(1, ())
    assert df.first_circuit_neighbors(graph, (), df.Point.of(0)) == ()


def test_first_circuit_neighbors_match_max_step(example, near_vertex):
    graph, costs = example
    neighbors = df.first_circuit_neighbors(graph, costs, near_vertex)
    for neighbor in neighbors:
        for step in neighbor.steps:
            rebuilt = df.max_step(
                graph, costs, near_vertex, step.circuit, step.sign
            )
            assert rebuilt == step
            assert (
                df.apply_circuit_step(graph, costs, near_vertex, step)
                == neighbor.point
            )


def test_first_circuit_neighbors_off_grid_point(example):
    """Works for feasible points whose denominators differ from the costs'."""
    graph, costs = example
    point = df.Point.of(0, "-1/7", "1/7", "1/7")
    assert df.is_feasible(graph, costs, point)
    neighbors = df.first_circuit_neighbors(graph, costs, point)
    assert neighbors
    for neighbor in neighbors:
        assert df.is_feasible(graph, costs, neighbor.point)


def test_scaled_search_matches_public_neighbors():
    """The integer-scaled frontier expansion used by the distance search
    agrees with the public neighbor construction, state by state."""
    from dualflow.oracle import _scaled_instance

    rng = random.Random(97)
    for _ in range(15):
        graph, costs = random_sub_tournament(rng, rng.randint(3, 5))
        scaled = _scaled_instance(graph, costs)
        for vertex in df.enumerate_vertices(graph, costs).vertices:
            public = {
                n.point: {(s.circuit.s_set, s.sign, s.epsilon) for s in n.steps}
                for n in df.first_circuit_neighbors(graph, costs, vertex)
            }
            state = scaled.to_state(vertex)
            fast: dict[df.Point, set] = {}
            for pair_index, target in scaled.neighbors(state):
                step = scaled.signed_step(state, pair_index)
                fast.setdefault(scaled.to_point(target), set()).add(
                    (step.circuit.s_set, step.sign, step.epsilon)
                )
            assert fast == public
    off_grid = Fraction(1, scaled.scale + 1)
    with pytest.raises(df.InternalInvariant):
        scaled.to_state(df.Point.of(0, off_grid, *[0] * (graph.node_count - 2)))


# ---------------------------------------------------------------------------
# distances


def test_combinatorial_distance_example(example, near_vertex, far_vertex):
    graph, costs = example
    result = df.combinatorial_distance(graph, costs, near_vertex, far_vertex)
    assert result.length == 4
    assert df.validate_walk(graph, costs, result.walk).valid
    assert result.walk.points[0] == near_vertex
    assert result.walk.points[-1] == far_vertex


def test_combinatorial_distance_zero(example, near_vertex):
    graph, costs = example
    assert df.combinatorial_distance(graph, costs, near_vertex, near_vertex).length == 0


def test_combinatorial_distance_adjacent(example):
    graph, costs = example
    u, v = df.Point.of(*WALK_POINTS[0]), df.Point.of(*WALK_POINTS[1])
    assert df.combinatorial_distance(graph, costs, u, v).length == 1


def test_circuit_distance_example(example, near_vertex, far_vertex):
    graph, costs = example
    result = df.circuit_distance(graph, costs, near_vertex, far_vertex)
    assert result.length == 4
    assert df.validate_walk(graph, costs, result.walk).valid


def test_circuit_distance_zero(example, near_vertex):
    graph, costs = example
    result = df.circuit_distance(graph, costs, near_vertex, near_vertex)
    assert result.length == 0


def test_circuit_distance_reverse_frozen(example, near_vertex, far_vertex):
    # directional: the reverse distance is strictly smaller here
    graph, costs = example
    result = df.circuit_distance(graph, costs, far_vertex, near_vertex)
    assert result.length == 2
    assert df.validate_walk(graph, costs, result.walk).valid


def test_circuit_distance_depth_cap(example, near_vertex, far_vertex):
    graph, costs = example
    with pytest.raises(df.DepthCapExceeded):
        df.circuit_distance(graph, costs, near_vertex, far_vertex, depth_cap=2)


def test_circuit_distance_state_cap(example, near_vertex, far_vertex):
    graph, costs = example
    with pytest.raises(df.FrontierTooLarge):
        df.circuit_distance(graph, costs, near_vertex, far_vertex, state_cap=3)


def test_circuit_distance_requires_vertices(example, near_vertex):
    graph, costs = example
    with pytest.raises(df.NotAVertex):
        df.circuit_distance(graph, costs, near_vertex, df.Point.of(0, 1, 1, 1))


# ---------------------------------------------------------------------------
# diameters


def test_diameter_example_frozen(example):
    graph, costs = example
    edge = df.diameter(graph, costs, "edge")
    circuit = df.diameter(graph, costs, "circuit")
    assert edge.value == 4
    assert circuit.value == 4
    assert circuit.value >= 4  # lower bound certified by the example's pair


def test_diameter_single_node():
    graph = df.Digraph(1, ())
    assert df.diameter(graph, (), "edge").value == 0
    assert df.diameter(graph, (), "circuit").value == 0


def test_diameter_witness_pair_attains_value(example):
    graph, costs = example
    result = df.diameter(graph, costs, "circuit")
    u, v = result.pair
    assert df.circuit_distance(graph, costs, u, v).length == result.value


def test_distance_order_and_bounds_random():
    """Circuit distance <= combinatorial distance; both within the proven
    caps; edge-mode distances symmetric."""
    rng = random.Random(53)
    for _ in range(12):
        graph, costs = random_sub_tournament(rng, rng.randint(3, 5))
        vertices = df.enumerate_vertices(graph, costs).vertices
        n = graph.node_count
        for i, u in enumerate(vertices):
            for v in vertices[i + 1 :]:
                forward = df.combinatorial_distance(graph, costs, u, v)
                back = df.combinatorial_distance(graph, costs, v, u)
                assert forward.length == back.length
                assert forward.length <= min(
                    (n - 1) * graph.edge_count, (n**3 - n) // 6
                )
                assert df.validate_walk(graph, costs, forward.walk).valid
                for a, b in ((u, v), (v, u)):
                    circ = df.circuit_distance(graph, costs, a, b)
                    assert circ.length <= forward.length
                    assert circ.length <= n * (n - 1) // 2
                    assert df.validate_walk(graph, costs, circ.walk).valid


# ---------------------------------------------------------------------------
# block decomposition against the undecomposed references


@lru_cache(maxsize=1)
def cut_vertex_instances() -> tuple[tuple[df.Digraph, df.CostVector], ...]:
    """42 seeded feasible instances with a cut vertex, in turn: two random
    tournaments on 3-4 nodes glued at random nodes; a 4-node tournament with
    a leaf; a sparse 6-node sub-tournament with bridges or cut vertices.
    Every fourth has integer costs in {0, 1, 2}, so degenerate blocks occur."""
    rng = random.Random(61)
    made = []
    while len(made) < 42:
        integer = len(made) % 4 == 0
        kind = len(made) % 3
        if kind == 0:
            parts = []
            for _ in range(2):
                part, part_costs = random_sub_tournament(
                    rng, rng.randint(3, 4), skip=0.0, integer_costs=integer
                )
                parts.append((part, part_costs, rng.randrange(part.node_count)))
            graph, costs, _ = df.glue(parts)
        elif kind == 1:
            graph, costs = random_sub_tournament(rng, 4, skip=0.0, integer_costs=integer)
            graph, costs = df.add_leaf(graph, costs, rng.randrange(4))
        else:
            graph, costs = random_sub_tournament(rng, 6, skip=0.45, integer_costs=integer)
        if len(blocks(graph)) > 1 and df.feasibility_status(graph, costs).feasible:
            made.append((graph, costs))
    return tuple(made)


def whole_graph_vertices(graph, costs) -> dict:
    """Vertex -> set of tree witnesses, from every spanning tree of the
    whole graph."""
    found: dict = {}
    for tree in df.enumerate_spanning_trees(graph):
        try:
            vertex = df.vertex_from_tree(graph, costs, tree)
        except df.InfeasibleTree:
            continue
        found.setdefault(vertex, set()).add(tree)
    return found


def test_blocks_split_at_the_cut_vertices():
    """Blocks partition the edges, share exactly the nodes whose removal
    disconnects the graph, and their local coordinates round-trip."""
    for graph, costs in cut_vertex_instances():
        parts = blocks(graph)
        assert sorted(i for b in parts for i in b.edges) == list(range(graph.edge_count))
        holders: dict[int, int] = {}
        for block in parts:
            for v in block.nodes:
                holders[v] = holders.get(v, 0) + 1
        for v in range(graph.node_count):
            # removing v leaves its own isolated component behind
            rest = [(t, h) for t, h in graph.edges if v not in (t, h)]
            split = component_count(graph.node_count, rest) > 2
            assert split == (holders[v] > 1)
        for vertex in df.enumerate_vertices(graph, costs).vertices:
            local = [block.local(vertex) for block in parts]
            assert join_points(graph.node_count, parts, local) == vertex


def test_decomposed_vertices_match_whole_graph_trees():
    degenerate = 0
    for graph, costs in cut_vertex_instances():
        expected = whole_graph_vertices(graph, costs)
        vertex_set = df.enumerate_vertices(graph, costs)
        assert vertex_set.vertices == tuple(sorted(expected, key=lambda p: p.coords))
        for vertex, trees in zip(vertex_set.vertices, vertex_set.tree_witnesses):
            assert len(set(trees)) == len(trees)
            assert set(trees) == expected[vertex]
        report = df.degeneracy_report(graph, costs)
        assert set(report.witnesses) == {v for v, t in expected.items() if len(t) > 1}
        degenerate += not report.nondegenerate
    assert degenerate >= 5


def test_decomposed_circuit_distances_match_whole_graph_search():
    rng = random.Random(67)
    pairs = 0
    for graph, costs in cut_vertex_instances():
        vertices = df.enumerate_vertices(graph, costs).vertices
        reference = {}
        for source in vertices:
            others = [v for v in vertices if v != source]
            if others:
                reach = _circuit_search(
                    graph, costs, source, others, default_depth_cap(graph), 10**6
                )
                for target, length in reach.lengths.items():
                    reference[source, target] = length
        for source, target in rng.sample(sorted(reference, key=str), min(8, len(reference))):
            result = df.circuit_distance(graph, costs, source, target)
            assert result.length == reference[source, target]
            assert df.validate_walk(graph, costs, result.walk).valid
            pairs += 1
        result = df.diameter(graph, costs, "circuit")
        assert result.value == max(reference.values(), default=0)
        if result.value:
            assert reference[result.pair] == result.value
        else:
            assert result.pair is None
    assert pairs >= 200


def test_decomposed_edge_distances_match_geometric_skeleton():
    rng = random.Random(71)
    pairs = 0
    for graph, costs in cut_vertex_instances():
        vertices = df.enumerate_vertices(graph, costs).vertices
        neighbors: dict = {u: [] for u in vertices}
        for i, u in enumerate(vertices):
            for v in vertices[i + 1 :]:
                if geometric_adjacency(graph, costs, u, v):
                    neighbors[u].append(v)
                    neighbors[v].append(u)
        reference = {}
        for source in vertices:
            depth = {source: 0}
            queue = [source]
            for v in queue:
                for w in neighbors[v]:
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        queue.append(w)
            for target, length in depth.items():
                reference[source, target] = length
        for source, target in rng.sample(sorted(reference, key=str), min(8, len(reference))):
            result = df.combinatorial_distance(graph, costs, source, target)
            assert result.length == reference[source, target]
            assert df.validate_walk(graph, costs, result.walk).valid
            pairs += 1
        result = df.diameter(graph, costs, "edge")
        assert result.value == max(reference.values())
        if result.value:
            assert reference[result.pair] == result.value
    assert pairs >= 200


GK_NEAR = (0, 0, 0)
GK_FAR = ("2/3", "4/3", 2)


def gk_pair(k: int) -> tuple[df.Point, df.Point]:
    return df.Point.of(0, *GK_NEAR * k), df.Point.of(0, *GK_FAR * k)


def test_circuit_caps_bound_the_whole_query_on_gk2():
    graph, costs = df.family_gk(2)
    near, far = gk_pair(2)
    assert df.circuit_distance(graph, costs, near, far, depth_cap=8).length == 8
    with pytest.raises(df.DepthCapExceeded):
        df.circuit_distance(graph, costs, near, far, depth_cap=7)
    with pytest.raises(df.FrontierTooLarge):
        df.circuit_distance(graph, costs, near, far, state_cap=3)
    with pytest.raises(df.DepthCapExceeded):
        df.diameter(graph, costs, "circuit", depth_cap=7)
    with pytest.raises(df.FrontierTooLarge):
        df.diameter(graph, costs, "circuit", state_cap=20)


def test_gk3_circuit_distance():
    graph, costs = df.family_gk(3)
    near, far = gk_pair(3)
    result = df.circuit_distance(graph, costs, near, far)
    assert result.length == 12
    assert df.validate_walk(graph, costs, result.walk).valid
