"""Oracles: vertex enumeration, adjacency, exact distances and diameters."""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

import dualflow as df
from conftest import (
    circuit_search,
    geometric_adjacency,
    random_sub_tournament,
    reference_neighbors,
)
from dualflow import model, oracle
from dualflow.circuits import _step_between
from dualflow.model import (
    Grid,
    _Skeleton,
    _instance,
    _pivots,
    blocks,
    check_costs,
    component_count,
)
from dualflow.oracle import _ScaledInstance, _search, default_depth_cap

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


def test_first_circuit_neighbors_match_max_step(example):
    """At every vertex of the example and of random instances, the
    neighbours, read off the graph's direction table, are the steps the
    definition gives (``reference_neighbors``), in order; and each is the
    step that ``max_step``, which splits its own S, rebuilds and
    ``apply_circuit_step`` lands."""
    rng = random.Random(89)
    instances = [example] + [
        random_sub_tournament(rng, 3 + k % 3, integer_costs=k % 2 == 1) for k in range(8)
    ]
    for graph, costs in instances:
        for vertex in df.enumerate_vertices(graph, costs).vertices:
            neighbors = df.first_circuit_neighbors(graph, costs, vertex)
            assert [
                (n.point, s.circuit.s_set, s.sign, s.epsilon, s.entering_edges)
                for n in neighbors
                for s in n.steps
            ] == reference_neighbors(graph, costs, vertex)
            for neighbor in neighbors:
                assert len(neighbor.steps) == 1
                (step,) = neighbor.steps
                assert df.max_step(graph, costs, vertex, step.circuit, step.sign) == step
                assert df.apply_circuit_step(graph, costs, vertex, step) == neighbor.point


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
    gives the steps of the definition (``reference_neighbors``), in order,
    state by state."""
    rng = random.Random(97)
    for _ in range(15):
        graph, costs = random_sub_tournament(rng, rng.randint(3, 5))
        grid = Grid(costs)
        scaled = _ScaledInstance(graph, grid)
        for vertex in df.enumerate_vertices(graph, costs).vertices:
            public = [
                (point, [(s_set, sign, length)])
                for point, s_set, sign, length, _ in reference_neighbors(graph, costs, vertex)
            ]
            state = grid.to_state(vertex)
            fast = []
            for target in scaled.neighbors(state):
                # the destination alone gives S, the sign and the step length
                moved = frozenset(v for v in range(len(state)) if target[v] != state[v])
                delta = {target[v] - state[v] for v in moved}
                assert len(delta) == 1
                delta = delta.pop()
                fast.append((
                    grid.to_point(target),
                    [(moved, 1 if delta > 0 else -1, Fraction(abs(delta), grid.scale))],
                ))
            assert fast == public
    off_grid = Fraction(1, grid.scale + 1)
    with pytest.raises(df.InternalInvariant):
        grid.to_state(df.Point.of(0, off_grid, *[0] * (graph.node_count - 2)))


def reference_search(graph, costs, source, targets):
    """Plain breadth-first search over the public neighbours that expands
    every layer in full: each target's depth and its chain of points, along
    the first parent recorded."""
    parents = {source: None}
    depth = {source: 0}
    frontier = [source]
    while frontier and not all(t in depth for t in targets):
        next_frontier = []
        for point in frontier:
            for neighbor in df.first_circuit_neighbors(graph, costs, point):
                if neighbor.point not in parents:
                    parents[neighbor.point] = point
                    depth[neighbor.point] = depth[point] + 1
                    next_frontier.append(neighbor.point)
        frontier = next_frontier
    chains = {}
    for target in targets:
        chain = [target]
        while parents[chain[-1]] is not None:
            chain.append(parents[chain[-1]])
        chains[target] = chain[::-1]
    return {t: depth[t] for t in targets}, chains, parents


def test_goal_tested_search_matches_full_expansion(monkeypatch):
    """The search that tests its last one or two layers instead of
    generating them finds the lengths and chains of a search that generates
    every layer, for one target and for several; its one-step test accepts
    exactly the neighbours among the start, the neighbours and the states
    two steps away.  On instances with at least 4·|V| directions the
    two-step test fires, and a search capped one below a target's depth
    raises: no two-step hit lands past the cap."""
    hits = []
    two_step = _ScaledInstance.two_step

    def counted(self, state, target):
        middle = two_step(self, state, target)
        if middle is not None:
            hits.append(middle)
        return middle

    monkeypatch.setattr(_ScaledInstance, "two_step", counted)

    rng = random.Random(101)
    degenerate = 0
    for index in range(16):
        integer_costs = index % 2 == 1
        graph, costs = random_sub_tournament(
            rng, 3 + index % 4, integer_costs=integer_costs
        )
        degenerate += not df.degeneracy_report(graph, costs).nondegenerate
        vertices = df.enumerate_vertices(graph, costs).vertices
        source = rng.choice(vertices)
        others = [v for v in vertices if v != source]
        if not others:
            continue
        single = [[t] for t in rng.sample(others, min(3, len(others)))]
        for targets in single + [others]:
            lengths, chains, parents = reference_search(graph, costs, source, targets)
            reach = circuit_search(
                graph, costs, source, targets, default_depth_cap(graph), 10**6
            )
            assert reach.lengths == lengths
            for target in targets:
                assert reach.chain(target) == chains[target]
        grid = Grid(costs)
        scaled = _ScaledInstance(graph, grid)
        for point in rng.sample(sorted(parents, key=str), min(6, len(parents))):
            state = grid.to_state(point)
            near = set(scaled.neighbors(state))
            two_away = {s for n in near for s in scaled.neighbors(n)} - near - {state}
            assert not scaled.one_step(state, state)
            assert all(scaled.one_step(state, n) for n in near)
            assert not any(scaled.one_step(state, s) for s in two_away)
    assert degenerate >= 2

    gated = [
        df.complete_bipartite(m, n, df.random_bipartite_costs(m, n, 7))
        for m, n in ((2, 4), (3, 3))
    ]
    gated += [
        random_sub_tournament(rng, 6, skip=0.0, integer_costs=integer_costs)
        for integer_costs in (False, True)
    ]
    for graph, costs in gated:
        assert len(_ScaledInstance(graph, Grid(costs)).directions) >= 4 * graph.node_count
        vertices = df.enumerate_vertices(graph, costs).vertices
        source = rng.choice(vertices)
        others = [v for v in vertices if v != source]
        depths = circuit_search(
            graph, costs, source, others, default_depth_cap(graph), 10**6
        ).lengths
        # two or three steps away: the two-step test decides them, and the
        # reference's full expansion of the layers before stays cheap
        near = [v for v in others if 2 <= depths[v] <= 3]
        targets = rng.sample(near, min(3, len(near)))
        lengths, chains, _ = reference_search(graph, costs, source, targets)
        hits.clear()
        for group in [[t] for t in targets] + [targets]:
            depth_cap = max(lengths[t] for t in group)
            reach = circuit_search(graph, costs, source, group, depth_cap, 10**6)
            assert reach.lengths == {t: lengths[t] for t in group}
            for target in group:
                assert reach.chain(target) == chains[target]
            with pytest.raises(df.DepthCapExceeded):
                circuit_search(graph, costs, source, group, depth_cap - 1, 10**6)
        assert hits


def step_of(state, target):
    """The set S and the value δ of the step ``target - state``."""
    moved = frozenset(v for v, (a, b) in enumerate(zip(state, target)) if a != b)
    (delta,) = {target[v] - state[v] for v in moved}
    return moved, delta


def test_two_step_test_matches_brute_force():
    """For sampled states x and every state t of a pool around them, the
    two-step test hits exactly when t is in N(N(x)) but neither x nor in
    N(x), with ``neighbors`` as the reference, and returns the first state
    z of N(x), in generation order, that has t in N(z).  Every case of the
    rule is hit: δ₁ = δ₂, δ₁ = −δ₂, S₁ ⊊ S₂ and S₂ ⊊ S₁."""
    rng = random.Random(103)
    instances = [
        df.complete_bipartite(m, n, df.random_bipartite_costs(m, n, 7))
        for m, n in ((2, 4), (3, 3))
    ]
    for index in range(12):
        instances.append(
            random_sub_tournament(rng, 3 + index % 4, integer_costs=index % 2 == 1)
        )
    cases = dict.fromkeys(("equal", "opposite", "S1 in S2", "S2 in S1"), 0)
    for graph, costs in instances:
        grid = Grid(costs)
        scaled = _ScaledInstance(graph, grid)
        vertex = grid.to_state(rng.choice(df.enumerate_vertices(graph, costs).vertices))
        near = list(dict.fromkeys(scaled.neighbors(vertex)))
        pool = set(near) | {s for n in near for s in scaled.neighbors(n)} | {vertex}
        for state in [vertex] + rng.sample(sorted(pool), min(3, len(pool))):
            one = scaled.neighbors(state)
            first = {}  # each state two steps away -> its first middle state
            for middle in one:
                for target in scaled.neighbors(middle):
                    first.setdefault(target, middle)
            for target in pool | set(first):
                middle = scaled.two_step(state, target)
                if target == state or target in one or target not in first:
                    assert middle is None
                    continue
                assert middle == first[target]
                s1, d1 = step_of(state, middle)
                s2, d2 = step_of(middle, target)
                cases["equal"] += d1 == d2
                cases["opposite"] += d1 == -d2
                cases["S1 in S2"] += s1 < s2
                cases["S2 in S1"] += s2 < s1
    assert all(cases.values()), cases


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
# entry checks


@pytest.mark.parametrize("count", [8, 10])
def test_oracles_check_the_cost_count(example, near_vertex, far_vertex, count):
    graph, costs = example
    wrong = (costs + costs)[:count]
    with pytest.raises(df.DimensionMismatch):
        df.combinatorial_distance(graph, wrong, near_vertex, far_vertex)
    with pytest.raises(df.DimensionMismatch):
        df.circuit_distance(graph, wrong, near_vertex, far_vertex)
    for mode in ("edge", "circuit"):
        with pytest.raises(df.DimensionMismatch):
            df.diameter(graph, wrong, mode)


def test_oracles_accept_cost_lists(near_vertex, far_vertex):
    for graph, costs in (df.example_graph(), df.family_gk(2)):
        near = df.Point.of(*near_vertex, *[0] * (graph.node_count - 4))
        far = df.Point.of(*far_vertex, *[0] * (graph.node_count - 4))
        as_list = list(costs)
        for oracle in (df.combinatorial_distance, df.circuit_distance):
            assert oracle(graph, as_list, near, far) == oracle(graph, costs, near, far)
        for mode in ("edge", "circuit"):
            assert df.diameter(graph, as_list, mode) == df.diameter(graph, costs, mode)


def test_diameter_rejects_unknown_mode(example):
    graph, costs = example
    with pytest.raises(df.ValidationError, match="mode must be 'edge' or 'circuit'"):
        df.diameter(graph, costs, "vertex")


@pytest.mark.parametrize("mode", ["edge", "circuit"])
def test_diameter_of_an_infeasible_instance(example, mode):
    """A negative-cost cycle leaves its block without vertices, on its own
    or glued to a feasible block; the distances and the builders say so
    too."""
    cycle = df.Digraph(3, ((0, 1), (1, 2), (2, 0)))
    cycle_costs = df.cost_vector([1, 1, -3])
    graph, costs = example
    glued, glued_costs, _ = df.glue([(graph, costs, 0), (cycle, cycle_costs, 1)])
    for instance in ((cycle, cycle_costs), (glued, glued_costs)):
        with pytest.raises(df.InfeasibleInstance):
            df.diameter(*instance, mode)
        source = df.Point((0,) * instance[0].node_count)
        target = df.Point((0,) + (1,) * (instance[0].node_count - 1))
        distance = df.combinatorial_distance if mode == "edge" else df.circuit_distance
        walk = df.edge_walk if mode == "edge" else df.circuit_walk
        for use in (distance, walk):
            with pytest.raises(df.InfeasibleInstance):
                use(*instance, source, target)


ENDPOINT_USERS = [
    df.combinatorial_distance, df.circuit_distance, df.edge_walk, df.circuit_walk
]


@pytest.mark.parametrize("use", ENDPOINT_USERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "point, error",
    [
        ((0, 5, 0, 0), df.InfeasiblePoint),
        ((0, 0, 0), df.DimensionMismatch),
        ((0, "1/3", "2/3", 1), df.NotAVertex),
    ],
    ids=["infeasible", "wrong-length", "non-vertex"],
)
def test_one_endpoint_check(example, near_vertex, use, point, error):
    """Both distance oracles and both builders reject a bad endpoint, on
    either end, with the same error."""
    graph, costs = example
    bad = df.Point.of(*point)
    for source, target in ((near_vertex, bad), (bad, near_vertex)):
        with pytest.raises(error):
            use(graph, costs, source, target)


def test_point_messages_print_rationals(example, near_vertex):
    graph, costs = example
    assert str(df.Point.of(0, "2/3", "4/3", 2)) == "(0, 2/3, 4/3, 2)"
    with pytest.raises(df.NotAVertex) as caught:
        df.combinatorial_distance(graph, costs, near_vertex, df.Point.of(0, "1/3", "2/3", 1))
    assert str(caught.value) == "(0, 1/3, 2/3, 1) is not a vertex"
    with pytest.raises(df.InfeasiblePoint):
        df.combinatorial_distance(graph, costs, near_vertex, df.Point.of(0, "1/2", 0, 0))


# ---------------------------------------------------------------------------
# block decomposition against the undecomposed references


def triangle_chain(rng: random.Random, integer: bool) -> tuple[df.Digraph, df.CostVector]:
    """Four directed triangles, each glued at a non-anchor node of the one
    before, so that the blocks hang at nodes 0, 2, 4 and 6, each one level
    below the last.  Nonnegative costs keep it feasible; each triangle is a
    directed cycle, of random direction, so that it has three vertices
    unless its cycle costs nothing."""
    edges = []
    for base in (0, 2, 4, 6):
        cycle = ((base, base + 1), (base + 1, base + 2), (base + 2, base))
        forward = rng.random() < 0.5
        edges += [pair if forward else pair[::-1] for pair in cycle]
    if integer:
        costs = tuple(Fraction(rng.randint(0, 2)) for _ in edges)
    else:
        costs = tuple(Fraction(rng.randint(0, 40), rng.randint(1, 20)) for _ in edges)
    return df.Digraph(9, tuple(edges)), costs


@lru_cache(maxsize=1)
def cut_vertex_instances() -> tuple[tuple[df.Digraph, df.CostVector], ...]:
    """42 seeded feasible instances with a cut vertex, in turn: two random
    tournaments on 3-4 nodes glued at random nodes; a 4-node tournament with
    a leaf; a sparse 6-node sub-tournament with bridges or cut vertices.
    Every fourth has integer costs in {0, 1, 2}, so degenerate blocks occur.
    Then two chains of triangles (see :func:`triangle_chain`), the second
    with integer costs, whose blocks lie up to three levels deep."""
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
    chains = random.Random(73)
    made += [triangle_chain(chains, integer) for integer in (False, True)]
    return tuple(made)


def whole_graph_vertices(graph, costs) -> dict:
    """Vertex -> list of tree witnesses, in the order
    :func:`dualflow.enumerate_spanning_trees` yields them, from every
    spanning tree of the whole graph solved by
    :func:`dualflow.vertex_from_tree`."""
    found: dict = {}
    for tree in df.enumerate_spanning_trees(graph):
        try:
            vertex = df.vertex_from_tree(graph, costs, tree)
        except df.InfeasibleTree:
            continue
        found.setdefault(vertex, []).append(tree)
    return found


def test_blocks_split_at_the_cut_vertices():
    """Blocks partition the edges, share exactly the nodes whose removal
    disconnects the graph, and their local coordinates round-trip: a
    vertex's grid state divides exactly onto each block's own grid, where
    it is one of the block's vertices."""
    for graph, _ in cut_vertex_instances()[-2:]:
        assert [block.nodes[0] for block in blocks(graph)] == [0, 2, 4, 6]
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
        instance = _instance(graph, costs)
        grid = Grid(costs)
        for vertex in df.enumerate_vertices(graph, costs).vertices:
            state = grid.to_state(vertex)
            locals_ = instance.split(state)
            for block, local in zip(parts, locals_):
                block_costs = tuple(costs[i] for i in block.edges)
                block_grid = Grid(block_costs)
                assert block_grid.to_point(local) in df.enumerate_vertices(
                    block.graph, block_costs
                ).vertices
                if grid.scale // block_grid.scale > 1:
                    off_grid = list(state)
                    off_grid[block.nodes[-1]] += 1
                    with pytest.raises(df.InternalInvariant):
                        instance.split(off_grid)
            assert instance.join(locals_) == state
            assert grid.to_point(instance.join(locals_)) == vertex


def edge_shuffled(graph, costs, rng: random.Random) -> tuple[df.Digraph, df.CostVector]:
    """The same instance with its edges, and their costs, in a random order."""
    order = list(range(graph.edge_count))
    rng.shuffle(order)
    return df.Digraph(graph.node_count, [graph.edges[i] for i in order]), tuple(
        costs[i] for i in order
    )


def test_decomposed_vertices_match_whole_graph_trees():
    """Vertices joined from the blocks' have the witnesses that solving
    every spanning tree of the whole graph finds, in its order, also where
    the blocks' edge indices interleave (the edge-shuffled copies)."""
    rng = random.Random(5)
    shuffled = [edge_shuffled(graph, costs, rng) for graph, costs in cut_vertex_instances()]
    degenerate = 0
    for graph, costs in cut_vertex_instances() + tuple(shuffled):
        expected = whole_graph_vertices(graph, costs)
        vertex_set = df.enumerate_vertices(graph, costs)
        assert vertex_set.vertices == tuple(sorted(expected, key=lambda p: p.coords))
        for vertex, trees in zip(vertex_set.vertices, vertex_set.tree_witnesses):
            assert list(trees) == expected[vertex]
        report = df.degeneracy_report(graph, costs)
        assert set(report.witnesses) == {v for v, t in expected.items() if len(t) > 1}
        degenerate += not report.nondegenerate
    assert degenerate >= 5


def biconnected_instances() -> list[tuple[df.Digraph, df.CostVector]]:
    """2-connected instances, whose vertices come straight from one pruned
    tree search: seeded sub-tournaments on 3-7 nodes, every fourth complete,
    with rational or integer costs in {0, 1, 2} in turn; bipartite 3x4 with
    all costs 1; and the infeasible 3-cycle."""
    rng = random.Random(83)
    made = []
    while len(made) < 40:
        size = 3 + len(made) % 5
        skip = 0.0 if len(made) % 4 == 0 else 0.3
        graph, costs = random_sub_tournament(
            rng, size, skip=skip, integer_costs=len(made) % 2 == 1
        )
        if len(blocks(graph)) == 1:
            made.append((graph, costs))
    bipartite, _ = df.complete_bipartite(3, 4, df.random_bipartite_costs(3, 4, 7))
    made.append((bipartite, df.cost_vector([1] * bipartite.edge_count)))
    made.append((df.Digraph(3, ((0, 1), (1, 2), (2, 0))), df.cost_vector([1, 1, -3])))
    return made


def test_pruned_tree_search_matches_every_solved_tree():
    """The grid search finds the vertices and witnesses that solving every
    spanning tree finds, with each vertex's witnesses in enumeration order,
    and their union is the vertex's tight set."""
    degenerate = 0
    for graph, costs in biconnected_instances():
        assert len(blocks(graph)) == 1
        expected = whole_graph_vertices(graph, costs)
        vertex_set = df.enumerate_vertices(graph, costs)
        assert vertex_set.vertices == tuple(sorted(expected, key=lambda p: p.coords))
        for vertex, trees in zip(vertex_set.vertices, vertex_set.tree_witnesses):
            assert list(trees) == expected[vertex]
            assert frozenset().union(*trees) == df.tight_graph(graph, costs, vertex)
        degenerate += any(len(trees) > 1 for trees in vertex_set.tree_witnesses)
    assert degenerate >= 10


def subtree_cuts(graph, tight) -> set[tuple[int, int]]:
    """The union, over every spanning tree of the tight edges, of the
    tree's cuts: cutting a tree edge leaves a side without the anchor, a
    node bitmask, paired with +1 when the cut edge's tail lies on that side
    (moving the side up loosens the edge) and -1 otherwise."""
    tight_graph = df.Digraph(graph.node_count, [graph.edges[i] for i in tight])
    found = set()
    for tree in df.enumerate_spanning_trees(tight_graph):
        for cut in tree:
            reached, grew = {df.ANCHOR}, True
            while grew:
                grew = False
                for k in tree - {cut}:
                    tail, head = tight_graph.edges[k]
                    if (tail in reached) != (head in reached):
                        reached |= {tail, head}
                        grew = True
            side = sum(1 << v for v in range(graph.node_count) if v not in reached)
            found.add((side, 1 if side >> tight_graph.edges[cut][0] & 1 else -1))
    return found


def test_pivots_are_the_tight_graphs_bonds():
    """The pivot search's moves at a vertex come from its tight edges alone:
    they are every spanning tree's cuts with their loosening signs, at every
    vertex of the 2-connected instances and of each block of the cut-vertex
    instances.  A degenerate vertex's come from testing its connected
    sides; 104 of the 1,160 vertices here are degenerate."""
    cases = biconnected_instances()
    for graph, costs in cut_vertex_instances():
        cases += [(b.graph, tuple(costs[i] for i in b.edges)) for b in blocks(graph)]
    degenerate = 0
    for graph, costs in cases:
        for vertex in df.enumerate_vertices(graph, costs).vertices:
            tight = sorted(df.tight_graph(graph, costs, vertex))
            assert _pivots(graph, tight) == subtree_cuts(graph, tight)
            degenerate += len(tight) >= graph.node_count
    assert degenerate >= 100


def test_tree_cap_counts_vertices_not_spanning_trees(monkeypatch):
    """The cap bounds the vertices a query holds, not the spanning trees:
    gk(4) has 6,765,201 spanning trees but answers its 38,416 vertices at
    the default cap.  gk(10)'s 14^10 vertices raise before the product
    builds one."""
    assert len(df.enumerate_vertices(*df.family_gk(4)).vertices) == 38_416

    def build(*args):
        raise AssertionError("a vertex of gk(10) was built")

    monkeypatch.setattr(Grid, "to_point", build)
    monkeypatch.setattr(model._Instance, "join", build)
    for query in (df.enumerate_vertices, df.degeneracy_report):
        with pytest.raises(df.InstanceTooLarge, match="^more than 1000000 vertices$"):
            query(*df.family_gk(10))


def test_tree_caps_hold_on_a_warm_record(example, near_vertex, far_vertex):
    """The record keeps what it found, not a cap: once every capped call
    has answered at the default cap, a smaller cap still raises, naming
    the cap as passed, and the smallest cap that holds answers the same.
    The vertex set's cap bounds the product of the blocks' vertex counts
    (gk(2): 14 * 14) and the witnesses it lists, the other calls' each
    block's vertices."""
    graph, costs = example
    calls = [
        lambda cap: df.enumerate_vertices(graph, costs, tree_cap=cap),
        lambda cap: df.degeneracy_report(graph, costs, tree_cap=cap),
        lambda cap: df.combinatorial_distance(graph, costs, near_vertex, far_vertex, tree_cap=cap),
        lambda cap: df.diameter(graph, costs, "edge", tree_cap=cap),
        lambda cap: df.diameter(graph, costs, "circuit", tree_cap=cap),
    ]
    for call in calls:
        expected = call(10**6)
        with pytest.raises(df.InstanceTooLarge, match="^more than 13 vertices$"):
            call(13)
        assert call(14) == expected
    graph, costs = df.family_gk(2)
    expected = df.enumerate_vertices(graph, costs)
    with pytest.raises(df.InstanceTooLarge, match="^more than 195 vertices$"):
        df.enumerate_vertices(graph, costs, tree_cap=195)
    assert df.enumerate_vertices(graph, costs, tree_cap=196) == expected
    near, far = gk_pair(2)
    with pytest.raises(df.InstanceTooLarge, match="^more than 13 vertices$"):
        df.combinatorial_distance(graph, costs, near, far, tree_cap=13)
    assert df.combinatorial_distance(graph, costs, near, far, tree_cap=14).length == 8


def test_tree_cap_bounds_the_witnesses_listed(monkeypatch):
    """A degenerate vertex holds several witnesses.  The two-node cycle's
    one vertex has two: its vertex set raises at cap 1 on a cold record and
    on a warm one, and answers at 2; its degeneracy report lists none and
    answers at 1.  Bipartite 5x5 with all costs 1 has one vertex and
    390,625 witnesses: at cap 10 the listing stops at the eleventh."""
    graph, costs = df.Digraph(2, ((0, 1), (1, 0))), df.cost_vector([1, -1])
    _instance.cache_clear()
    with pytest.raises(df.InstanceTooLarge, match="^more than 1 witnesses$"):
        df.enumerate_vertices(graph, costs, tree_cap=1)
    expected = df.enumerate_vertices(graph, costs, tree_cap=2)
    assert len(expected.tree_witnesses[0]) == 2
    with pytest.raises(df.InstanceTooLarge, match="^more than 1 witnesses$"):
        df.enumerate_vertices(graph, costs, tree_cap=1)
    assert df.enumerate_vertices(graph, costs, tree_cap=2) == expected
    assert df.degeneracy_report(graph, costs, tree_cap=1).witnesses == (df.Point.of(0, 1),)
    listed, search = [], model._tree_search

    def counted(*args):
        for tree in search(*args):
            listed.append(tree)
            yield tree

    monkeypatch.setattr(model, "_tree_search", counted)
    graph, _ = df.complete_bipartite(5, 5, df.random_bipartite_costs(5, 5, 7))
    costs = df.cost_vector([1] * graph.edge_count)
    with pytest.raises(df.InstanceTooLarge, match="^more than 10 witnesses$"):
        df.enumerate_vertices(graph, costs, tree_cap=10)
    assert len(listed) == 11


def test_a_cold_pivot_search_stops_at_the_cap(monkeypatch):
    """On a cold record the pivot search raises as it stores the first
    vertex over the cap: bipartite 7x7 (cost seed 7) has 924 vertices, and
    at cap 100 at most 101 are stored.  The warm record then raises below
    924 and answers at 924."""
    graph, costs = df.complete_bipartite(7, 7, df.random_bipartite_costs(7, 7, 7))
    stored = set()  # the first vertex and every later move's target hold what is stored

    def first_vertex(*args):
        found = first_vertex.original(*args)
        stored.clear()
        stored.update(found)
        return found

    def move(*args):
        target = move.original(*args)
        stored.add(target)
        return target

    first_vertex.original, move.original = model._first_vertex, model._move
    monkeypatch.setattr(model, "_first_vertex", first_vertex)
    monkeypatch.setattr(model, "_move", move)
    _instance.cache_clear()
    with pytest.raises(df.InstanceTooLarge, match="^more than 100 vertices$"):
        df.diameter(graph, costs, "edge", tree_cap=100)
    assert 100 < len(stored - {0}) <= 101
    monkeypatch.undo()
    assert len(df.enumerate_vertices(graph, costs).vertices) == 924
    for query in (df.enumerate_vertices, df.degeneracy_report):
        with pytest.raises(df.InstanceTooLarge, match="^more than 923 vertices$"):
            query(graph, costs, tree_cap=923)
    assert df.diameter(graph, costs, "edge", tree_cap=924).value == 15


def test_pivot_skeleton_matches_rank_adjacency(monkeypatch):
    """The adjacency that the vertex solve's pivot search finds is the
    rank-based adjacency over every vertex pair, on degenerate instances
    too; the infeasible instance has no skeleton.  The reference's tight
    sets, a pure function of the instance and the point, are computed once
    per vertex."""
    monkeypatch.setitem(
        geometric_adjacency.__globals__, "reference_tight",
        lru_cache(maxsize=None)(geometric_adjacency.__globals__["reference_tight"]),
    )
    degenerate = 0
    for graph, costs in biconnected_instances():
        record = _instance(graph, tuple(costs))
        skeleton = record.skeleton(math.inf)
        if not skeleton.states:
            assert not df.feasibility_status(graph, costs).feasible
            continue
        vertices = record.vertex_set(math.inf).vertices
        expected: list[list[int]] = [[] for _ in vertices]
        for i, u in enumerate(vertices):
            for j in range(i + 1, len(vertices)):
                if geometric_adjacency(graph, costs, u, vertices[j]):
                    expected[i].append(j)
                    expected[j].append(i)
        assert skeleton.adjacency == tuple(map(tuple, expected))
        degenerate += not df.degeneracy_report(graph, costs).nondegenerate
    assert degenerate >= 10


@lru_cache(maxsize=None)
def circuit_reference(graph, costs, vertices) -> dict:
    """Every ordered pair of distinct vertices' circuit distance, from the
    whole graph's search; kept, for the tests that share an instance."""
    reference = {}
    for source in vertices:
        others = [v for v in vertices if v != source]
        if others:
            reach = circuit_search(
                graph, costs, source, others, default_depth_cap(graph), 10**6
            )
            for target, length in reach.lengths.items():
                reference[source, target] = length
    return reference


@lru_cache(maxsize=None)
def edge_reference(graph, costs, vertices) -> dict:
    """Every ordered pair of vertices' edge distance, by breadth-first
    search over the rank-based adjacency; kept, for the tests that share an
    instance."""
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
    return reference


def has_coarser_block(graph, costs) -> bool:
    """Whether some block's own grid is coarser than the whole graph's, so
    that the oracles divide its local states by a factor above 1."""
    scale = Grid(costs).scale
    return any(Grid([costs[i] for i in block.edges]).scale < scale for block in blocks(graph))


def test_decomposed_circuit_distances_match_whole_graph_search():
    """Each witness walk is the one :func:`dualflow.walk_from_points`
    re-derives from its points, step by step."""
    rng = random.Random(67)
    pairs = coarser = 0
    for graph, costs in cut_vertex_instances():
        coarser += has_coarser_block(graph, costs)
        vertices = df.enumerate_vertices(graph, costs).vertices
        reference = circuit_reference(graph, costs, vertices)
        for source, target in rng.sample(sorted(reference, key=str), min(8, len(reference))):
            result = df.circuit_distance(graph, costs, source, target)
            assert result.length == reference[source, target]
            assert df.validate_walk(graph, costs, result.walk).valid
            assert result.walk == df.walk_from_points(graph, costs, result.walk.points, "circuit")
            pairs += 1
        result = df.diameter(graph, costs, "circuit")
        assert result.value == max(reference.values(), default=0)
        if result.value:
            assert reference[result.pair] == result.value
        else:
            assert result.pair is None
    assert pairs >= 200
    assert coarser >= 20


def test_decomposed_edge_distances_match_geometric_skeleton():
    """Each witness walk is the one :func:`dualflow.walk_from_points`
    re-derives from its points, step by step."""
    rng = random.Random(71)
    pairs = coarser = 0
    for graph, costs in cut_vertex_instances():
        coarser += has_coarser_block(graph, costs)
        vertices = df.enumerate_vertices(graph, costs).vertices
        reference = edge_reference(graph, costs, vertices)
        for source, target in rng.sample(sorted(reference, key=str), min(8, len(reference))):
            result = df.combinatorial_distance(graph, costs, source, target)
            assert result.length == reference[source, target]
            assert df.validate_walk(graph, costs, result.walk).valid
            assert result.walk == df.walk_from_points(graph, costs, result.walk.points, "edge")
            pairs += 1
        result = df.diameter(graph, costs, "edge")
        assert result.value == max(reference.values())
        if result.value:
            assert reference[result.pair] == result.value
    assert pairs >= 200
    assert coarser >= 20


@pytest.mark.parametrize(
    "distance", [df.circuit_distance, df.combinatorial_distance],
    ids=["circuit_distance", "combinatorial_distance"],
)
def test_distance_converts_each_point_once(monkeypatch, distance, near_vertex, far_vertex):
    """A distance runs on the endpoint check's grid states from start to
    finish.  On gk(2) near -> far (two blocks, distance 8), with the
    instance's record warm, it checks the costs once, builds each walk point
    once and re-derives each step once; it looks up no vertex's index by its
    point and calls no public :func:`dualflow.walk_from_points`."""
    graph, costs = df.family_gk(2)
    near, far = (df.Point(p.coords[:1] + p.coords[1:] * 2) for p in (near_vertex, far_vertex))
    expected = distance(graph, costs, near, far)
    assert expected.length == 8
    calls = Counter()

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for module in ("model", "walks", "oracle"):
        monkeypatch.setattr(
            f"dualflow.{module}.check_costs", counting("check_costs", check_costs)
        )
    monkeypatch.setattr(Grid, "to_point", counting("to_point", Grid.to_point))
    monkeypatch.setattr(
        "dualflow.walks._step_between", counting("_step_between", _step_between)
    )
    monkeypatch.setattr(df.VertexSet, "index_of", counting("index_of", df.VertexSet.index_of))
    walk_from_points = counting("walk_from_points", df.walk_from_points)
    monkeypatch.setattr("dualflow.walks.walk_from_points", walk_from_points)
    monkeypatch.setattr("dualflow.oracle.walk_from_points", walk_from_points, raising=False)
    assert distance(graph, costs, near, far) == expected
    assert dict(calls) == {"check_costs": 1, "to_point": 8 + 1, "_step_between": 8}


@pytest.mark.parametrize(
    "distance", [df.circuit_distance, df.combinatorial_distance],
    ids=["circuit_distance", "combinatorial_distance"],
)
def test_distance_on_a_warm_record_builds_no_grid(monkeypatch, distance):
    """A distance checks its endpoints on the record's grid: on gk(2),
    with the record warm, it constructs no :class:`Grid`."""
    graph, costs = df.family_gk(2)
    near, far = gk_pair(2)
    expected = distance(graph, costs, near, far)
    grids = []

    class CountingGrid(Grid):
        def __init__(self, *args, **kwargs):
            grids.append(args)
            super().__init__(*args, **kwargs)

    for module in ("model", "walks", "oracle"):
        monkeypatch.setattr(f"dualflow.{module}.Grid", CountingGrid)
    assert distance(graph, costs, near, far) == expected
    assert grids == []


GK2_BAD_ENDS = [
    # off the costs' grid (1/9), infeasible in the first block
    ("0,0,3/2,0,0,0,0", df.InfeasiblePoint,
     "(0, 0, 3/2, 0, 0, 0, 0) is infeasible: edge 4 (0 -> 2) has slack -1/6"),
    # off the costs' grid, feasible, not a vertex
    ("0,1/2,1/2,1/2,0,0,0", df.NotAVertex, "(0, 1/2, 1/2, 1/2, 0, 0, 0) is not a vertex"),
    # on the grid, infeasible in the second block
    ("0,0,0,0,0,5,0", df.InfeasiblePoint,
     "(0, 0, 0, 0, 0, 5, 0) is infeasible: edge 13 (0 -> 5) has slack -11/3"),
]


@pytest.mark.parametrize("point, error, message", GK2_BAD_ENDS)
@pytest.mark.parametrize(
    "call",
    [df.combinatorial_distance, df.circuit_distance, df.edge_walk, df.circuit_walk],
    ids=["combinatorial_distance", "circuit_distance", "edge_walk", "circuit_walk"],
)
def test_endpoints_off_the_grid_keep_their_errors(call, point, error, message):
    """An endpoint off the costs' grid is judged on a grid widened for it
    alone: on gk(2), a cut-vertex instance, both distances and both
    builders raise the same error as for an on-grid one, as either end."""
    graph, costs = df.family_gk(2)
    _, far = gk_pair(2)
    bad = df.Point.of(*point.split(","))
    for source, target in ((bad, far), (far, bad)):
        with pytest.raises(error) as caught:
            call(graph, costs, source, target)
        assert type(caught.value) is error and str(caught.value) == message


def test_each_call_looks_up_one_record(monkeypatch, near_vertex, far_vertex):
    """gk(2)'s two blocks are identical, so they share one record, whose
    pivot search runs once for every oracle; a circuit distance on a cold
    record runs no pivot search, and no oracle counts spanning trees.  With
    the record warm, each oracle call checks the costs once and makes one
    lookup in the record cache, and each walk builder checks the costs
    once."""
    graph, costs = df.family_gk(2)
    near, far = gk_pair(2)
    searches, counts, checks = [], [], []

    def first_vertex(*args):
        searches.append(args[0])
        return first_vertex.original(*args)

    def count_trees(graph):
        counts.append(graph)
        return count_trees.original(graph)

    def counted_check(*args):
        checks.append(args[0])
        return check_costs(*args)

    first_vertex.original = model._first_vertex
    count_trees.original = model.count_spanning_trees
    monkeypatch.setattr(model, "_first_vertex", first_vertex)
    monkeypatch.setattr(model, "count_spanning_trees", count_trees)
    _instance.cache_clear()
    assert df.circuit_distance(graph, costs, near, far).length == 8
    assert searches == counts == []
    oracles = [
        lambda: df.enumerate_vertices(graph, costs),
        lambda: df.degeneracy_report(graph, costs),
        lambda: df.combinatorial_distance(graph, costs, near, far),
        lambda: df.circuit_distance(graph, costs, near, far),
        lambda: df.diameter(graph, costs, "edge"),
        lambda: df.diameter(graph, costs, "circuit"),
    ]
    builders = [
        lambda: df.edge_walk(graph, costs, near, far),
        lambda: df.circuit_walk(graph, costs, near, far),
    ]
    answers = [oracle() for oracle in oracles]
    assert counts == []
    walks = [builder() for builder in builders]
    block, other = _instance(graph, costs).parts
    assert block is other
    assert searches == [block.graph]
    for module in ("model", "walks", "oracle"):
        monkeypatch.setattr(f"dualflow.{module}.check_costs", counted_check)
    for oracle, answer in zip(oracles, answers):
        checks.clear()
        before = _instance.cache_info()
        assert oracle() == answer
        after = _instance.cache_info()
        assert (after.hits + after.misses) - (before.hits + before.misses) == 1
        assert len(checks) == 1
    assert searches == [block.graph]
    for builder, walk in zip(builders, walks):
        checks.clear()
        assert builder() == walk
        assert len(checks) == 1


def rule_pair(vertices, reference):
    """The pair the diameter rule picks from all-pairs distances: the first
    source in vertex order whose eccentricity is the diameter, with the
    last of its farthest vertices in vertex order; None for diameter 0."""
    value = max((reference[u, v] for u in vertices for v in vertices if u != v), default=0)
    if value == 0:
        return None
    for source in vertices:
        farthest = [t for t in vertices if t != source and reference[source, t] == value]
        if farthest:
            return source, farthest[-1]


def two_connected_instances() -> list:
    """The example, bipartite 2x3, 3x3 and 2x5, and seeded 2-connected
    sub-tournaments on three to six nodes."""
    made = [df.example_graph()]
    for m, n in ((2, 3), (3, 3), (2, 5)):
        made.append(df.complete_bipartite(m, n, df.random_bipartite_costs(m, n, 7)))
    rng = random.Random(79)
    while len(made) < 24:
        graph, costs = random_sub_tournament(rng, rng.randint(3, 6))
        if len(blocks(graph)) == 1:
            made.append((graph, costs))
    return made


@pytest.mark.parametrize("mode", ["edge", "circuit"])
def test_diameter_pair_follows_the_rule(mode):
    """Both modes pick the diameter's pair by one rule, ties included."""
    references = {"edge": edge_reference, "circuit": circuit_reference}
    for graph, costs in two_connected_instances():
        vertices = df.enumerate_vertices(graph, costs).vertices
        reference = references[mode](graph, costs, vertices)
        result = df.diameter(graph, costs, mode)
        assert result.value == max(reference.values(), default=0)
        assert result.pair == rule_pair(vertices, reference)


def pruning_instances() -> list:
    """The feasible instances of :func:`biconnected_instances` on at most six
    nodes (the circuit diameter of its 7-node complete tournament ran past
    100 s), 40 sub-tournaments on 3-6 nodes, every second with integer costs
    so that degenerate vertices occur, and :func:`cut_vertex_instances`."""
    rng = random.Random(16)
    draws = [
        random_sub_tournament(rng, rng.randint(3, 6), skip=0.3, integer_costs=i % 2 == 1)
        for i in range(40)
    ]
    made = [
        (graph, costs) for graph, costs in biconnected_instances() + draws
        if graph.node_count <= 6 and df.feasibility_status(graph, costs).feasible
    ]
    return made + list(cut_vertex_instances())


def test_pruned_circuit_diameter_matches_every_pair():
    """The circuit diameter skips sources and drops targets by their edge
    distance, and still gives the value and the pair of searching every
    ordered pair on the whole graph; each source's circuit eccentricity is
    at most its edge eccentricity, which the pruning rests on."""
    degenerate = 0
    for graph, costs in pruning_instances():
        vertices = df.enumerate_vertices(graph, costs).vertices
        circuit = circuit_reference(graph, costs, vertices)
        edge = edge_reference(graph, costs, vertices)
        for source in vertices:
            others = [t for t in vertices if t != source]
            assert max((circuit[source, t] for t in others), default=0) <= max(
                (edge[source, t] for t in others), default=0
            )
        result = df.diameter(graph, costs, "circuit")
        assert result.value == max(circuit.values(), default=0)
        assert result.pair == rule_pair(vertices, circuit)
        degenerate += not df.degeneracy_report(graph, costs).nondegenerate
    assert degenerate >= 20


@pytest.mark.parametrize("width", [1, 3, 7])
def test_eccentricities_at_small_ball_widths(monkeypatch, width):
    """At these widths a block's skeleton spans many of the eccentricity
    kernel's chunks, the last one mostly partial.  Edge diameters keep the
    value and the pair of the rank-based reference, the pruned circuit
    diameter still matches every pair, and a disconnected graph raises
    rather than loops."""
    monkeypatch.setattr(oracle, "_BALL_WIDTH", width)
    for graph, costs in two_connected_instances() + list(cut_vertex_instances()):
        vertices = df.enumerate_vertices(graph, costs).vertices
        reference = edge_reference(graph, costs, vertices)
        result = df.diameter(graph, costs, "edge")
        assert result.value == max(reference.values())
        assert result.pair == rule_pair(vertices, reference)
    test_pruned_circuit_diameter_matches_every_pair()
    with pytest.raises(df.InternalInvariant, match="^the skeleton is not connected$"):
        oracle._eccentricities(((1,), (0,), (3,), (2,)))


@pytest.mark.parametrize(
    "m, n, value", [(5, 6, 11), (6, 6, 13), (6, 7, 13), (7, 7, 15)], ids=str
)
def test_large_bipartite_edge_diameters(m, n, value):
    """Bipartite m x n, cost seed 7, at the default caps; 7x7's 924
    vertices span four of the kernel's chunks.  The pair is the diameter
    rule's over a skeleton search from every vertex."""
    graph, costs = df.complete_bipartite(m, n, df.random_bipartite_costs(m, n, 7))
    result = df.diameter(graph, costs, "edge")
    record = _instance(graph, tuple(costs))
    skeleton = record.skeleton(math.inf)
    count = len(skeleton.states)
    depths = [_search(skeleton, i, range(count), math.inf, math.inf).depths for i in range(count)]
    source = next(i for i, found in enumerate(depths) if max(found.values()) == value)
    far = max(j for j, length in depths[source].items() if length == value)
    assert max(max(found.values()) for found in depths) == value
    ends = (skeleton.states[source], skeleton.states[far])
    assert result == df.DiameterResult(value, tuple(map(record.grid.to_point, ends)))


def test_diameters_search_from_the_eccentricities(monkeypatch):
    """The skeleton's eccentricities come before any search.  A circuit
    diameter of the example, gk(1), skips 12 of its 14 sources without
    searching them: 2 skeleton searches and 2 circuit searches.  An edge
    diameter of a 2-connected block makes one skeleton search, from the
    first source of the largest eccentricity, or none if it has one vertex."""
    spaces = []

    def counted(space, *args):
        spaces.append(type(space))
        return _search(space, *args)

    monkeypatch.setattr("dualflow.oracle._search", counted)
    assert df.diameter(*df.family_gk(1), "circuit").value == 4
    assert Counter(spaces) == {_Skeleton: 2, _ScaledInstance: 2}
    searched = 0
    for graph, costs in two_connected_instances():
        spaces.clear()
        value = df.diameter(graph, costs, "edge").value  # 0 only with one vertex
        assert spaces == ([_Skeleton] if value else [])
        searched += bool(value)
    assert searched >= 20


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


@pytest.mark.parametrize(
    "mode, pair",
    [("edge", ((-1, 0, 0), (1, "4/3", 2))), ("circuit", (GK_NEAR, GK_FAR))],
    ids=["edge", "circuit"],
)
def test_blocks_sharing_a_record_search_it_once(monkeypatch, mode, pair):
    """gk(k)'s k blocks share the example's record.  A diameter searches it
    once and reads that answer for the other blocks: gk(k) makes as many
    searches as the example, gk(1), alone.  The value is 4k, and the pair
    repeats the block's pair k times."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _search(*args)

    monkeypatch.setattr("dualflow.oracle._search", counted)
    df.diameter(*df.family_gk(1), mode)
    once = len(calls)
    for k, value in ((2, 8), (3, 12), (10, 40)):
        graph, costs = df.family_gk(k)
        calls.clear()
        result = df.diameter(graph, costs, mode)
        assert (result.value, len(calls)) == (value, once)
        assert result.pair == tuple(df.Point.of(0, *end * k) for end in pair)


def test_a_shared_record_keeps_every_cap_error_on_gk2():
    """gk(2)'s second block reuses the first's answer only where its own
    search would repeat the first's, so each cap fails where it failed
    when every block was searched: the first block's diameter is 4 and its
    largest search holds 74 states, which must fit what is left."""
    graph, costs = df.family_gk(2)
    with pytest.raises(df.DepthCapExceeded, match="^target not reached within depth 7$"):
        df.diameter(graph, costs, "circuit", depth_cap=7)
    assert df.diameter(graph, costs, "circuit", depth_cap=8).value == 8
    with pytest.raises(df.FrontierTooLarge, match="^more than 147 states explored$"):
        df.diameter(graph, costs, "circuit", state_cap=147)
    assert df.diameter(graph, costs, "circuit", state_cap=148).value == 8


def test_only_the_vertex_set_makes_vertex_points(monkeypatch, example):
    """The pivot search keeps grid states, and only the record's vertex set
    converts them all (the degeneracy report converts only its degenerate
    vertices).  With the record cache cleared before each call, a
    distance makes one Point per walk point, a diameter one per end of its
    pair, and :func:`dualflow.enumerate_vertices` one per vertex."""
    calls = []

    def counted(grid, state):
        calls.append(state)
        return to_point(grid, state)

    to_point = Grid.to_point
    monkeypatch.setattr(Grid, "to_point", counted)

    def points_made(call, *args) -> int:
        _instance.cache_clear()
        calls.clear()
        call(*args)
        return len(calls)

    gk2, gk10 = df.family_gk(2), df.family_gk(10)
    assert points_made(df.combinatorial_distance, *gk2, *gk_pair(2)) == 9
    for instance in (example, gk2, gk10):
        for mode in ("edge", "circuit"):
            assert points_made(df.diameter, *instance, mode) == 2
    assert points_made(df.enumerate_vertices, *example) == 14
    assert points_made(df.enumerate_vertices, *gk2) == 196


def test_only_enumerate_vertices_lists_witnesses(monkeypatch):
    """Bipartite 5x5 with all costs 1 has one vertex, where all 25 edges
    are tight, and 390,625 witnesses.  From a cold record, the edge
    distance, the edge diameter and the degeneracy report list none of
    them, and the report makes only the degenerate vertex's Point;
    :func:`dualflow.enumerate_vertices` lists them all, in one search."""
    graph, _ = df.complete_bipartite(5, 5, df.random_bipartite_costs(5, 5, 7))
    costs = df.cost_vector([1] * graph.edge_count)
    vertex = df.Point.of(0, 0, 0, 0, 0, 1, 1, 1, 1, 1)
    calls = Counter()

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    monkeypatch.setattr(model, "_tree_search", counting("_tree_search", model._tree_search))
    monkeypatch.setattr(Grid, "to_point", counting("to_point", Grid.to_point))

    def cold(call, *args):
        _instance.cache_clear()
        calls.clear()
        return call(*args)

    assert cold(df.combinatorial_distance, graph, costs, vertex, vertex).length == 0
    assert calls["_tree_search"] == 0
    assert cold(df.diameter, graph, costs, "edge") == df.DiameterResult(0, None)
    assert calls["_tree_search"] == 0
    assert cold(df.degeneracy_report, graph, costs) == df.DegeneracyReport(False, (vertex,))
    assert dict(calls) == {"to_point": 1}
    vertex_set = cold(df.enumerate_vertices, graph, costs)
    assert vertex_set.vertices == (vertex,)
    assert len(vertex_set.tree_witnesses[0]) == 390_625
    assert calls["_tree_search"] == 1


def test_cap_errors_name_the_caps_as_passed(example):
    """On an instance with two blocks, the second block's search fails with
    only what the first left of each cap, and the error still names the
    caps the caller passed."""
    graph, costs = example
    triangle = df.Digraph(3, ((0, 1), (1, 2), (2, 0)))
    glued, glued_costs, _ = df.glue(
        [(graph, costs, 0), (triangle, (Fraction(1),) * 3, 0)]
    )
    assert len(blocks(glued)) == 2
    whole = df.diameter(glued, glued_costs, "circuit")
    assert whole.value == 5
    with pytest.raises(df.DepthCapExceeded, match="within depth 4$"):
        df.diameter(glued, glued_costs, "circuit", depth_cap=4)
    with pytest.raises(df.FrontierTooLarge, match="more than 74 states"):
        df.diameter(glued, glued_costs, "circuit", state_cap=74)
    source, target = whole.pair
    distance = df.circuit_distance(glued, glued_costs, source, target).length
    assert distance == 5
    with pytest.raises(df.DepthCapExceeded, match=f"within depth {distance - 1}$"):
        df.circuit_distance(glued, glued_costs, source, target, depth_cap=distance - 1)
    stored = 0
    while True:
        try:
            df.circuit_distance(glued, glued_costs, source, target, state_cap=stored)
            break
        except df.FrontierTooLarge as error:
            assert str(error) == f"more than {stored} states explored"
            stored += 1
    # the example's search stores 74 states and the triangle's 2, so caps
    # 74 and 75 fail in the triangle's search, with 0 and 1 left
    assert stored == 76


def test_gk3_circuit_distance():
    graph, costs = df.family_gk(3)
    near, far = gk_pair(3)
    result = df.circuit_distance(graph, costs, near, far)
    assert result.length == 12
    assert df.validate_walk(graph, costs, result.walk).valid


def test_goal_test_stores_a_tenth_of_the_bipartite_3x4_search():
    """A distance-4 query on bipartite 3x4 stored 229,243 states when the
    search generated its last layer, and 9,685 when it tested that layer.
    Testing the last two layers stores 416: the two expanded layers and the
    winning chain.  The state cap counts that chain too."""
    graph, costs = df.complete_bipartite(3, 4, df.random_bipartite_costs(3, 4, 7))
    vertices = df.enumerate_vertices(graph, costs).vertices
    source, target = vertices[0], vertices[-1]
    depth_cap = default_depth_cap(graph)
    reach = circuit_search(graph, costs, source, [target], depth_cap, 10**6)
    assert reach.lengths[target] == 4
    stored = len(reach.parents)
    assert stored == 416
    capped = circuit_search(graph, costs, source, [target], depth_cap, stored)
    assert capped.lengths == {target: 4}
    with pytest.raises(df.FrontierTooLarge):
        circuit_search(graph, costs, source, [target], depth_cap, stored - 1)


def test_bipartite_4x5_first_to_last_circuit_distance_within_default_caps():
    """The search that generated its last layer, and the one that tested
    it, both raised FrontierTooLarge here; testing two layers answers."""
    graph, costs = df.complete_bipartite(4, 5, df.random_bipartite_costs(4, 5, 7))
    vertices = df.enumerate_vertices(graph, costs).vertices
    result = df.circuit_distance(graph, costs, vertices[0], vertices[-1])
    assert result.length == 5
    assert df.validate_walk(graph, costs, result.walk).valid
    assert result.walk.points[0] == vertices[0]
    assert result.walk.points[-1] == vertices[-1]


def test_bipartite_4x4_circuit_distance_within_default_caps():
    m = n = 4
    graph, costs = df.complete_bipartite(m, n, df.random_bipartite_costs(m, n, 7))
    assert df.degeneracy_report(graph, costs).nondegenerate
    vertices = df.enumerate_vertices(graph, costs).vertices
    result = df.circuit_distance(graph, costs, vertices[0], vertices[-1])
    assert df.validate_walk(graph, costs, result.walk).valid
    assert result.length <= m + n - 2


def test_circuit_diameter_keeps_no_search_state():
    """Between queries the caches hold only each instance's record (its
    grid, tree count, blocks and pivot search) and each graph's direction
    table, whose sizes depend on the instance: traced memory grows by less
    than 1 MiB across a circuit diameter, however many states its searches
    stored."""
    tracemalloc.start()
    try:
        for m, n in ((3, 3), (3, 4)):
            matrix = df.random_bipartite_costs(m, n, 7)
            graph, costs = df.complete_bipartite(m, n, matrix)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            df.diameter(graph, costs, "circuit")
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
            assert retained < 2**20, f"{m}x{n} kept {retained / 2**20:.2f} MiB"
    finally:
        tracemalloc.stop()
