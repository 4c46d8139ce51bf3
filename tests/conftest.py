"""Shared fixtures and independent check helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import settings

import dualflow as df

# Tier-1 draws the same examples on every run, so that a failure reproduces;
# ``--hypothesis-profile=campaign`` draws fresh ones.  Each test keeps its
# own ``max_examples``.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("campaign", derandomize=False, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def example():
    return df.example_graph()


@pytest.fixture(scope="session")
def near_vertex():
    return df.Point.of(0, 0, 0, 0)


@pytest.fixture(scope="session")
def far_vertex():
    return df.Point.of(0, "2/3", "4/3", 2)


def random_sub_tournament(
    rng: random.Random, size: int, skip: float = 0.5, integer_costs: bool = False
) -> tuple[df.Digraph, df.CostVector]:
    """Connected orientation of a random subset of the complete graph with
    nonnegative rational costs (denominators up to 20, values in [0, 3]), or
    with integer costs in {0, 1, 2}, under which degenerate vertices are
    common."""
    while True:
        edges = []
        for i in range(size):
            for j in range(i + 1, size):
                roll = rng.random()
                if roll < skip:
                    continue
                edges.append((i, j) if roll < (1 + skip) / 2 else (j, i))
        try:
            graph = df.Digraph(size, tuple(edges))
        except df.ValidationError:
            continue
        if integer_costs:
            return graph, tuple(Fraction(rng.randint(0, 2)) for _ in edges)
        costs = []
        for _ in edges:
            den = rng.randint(1, 20)
            costs.append(Fraction(rng.randint(0, 3 * den), den))
        return graph, tuple(costs)


def reference_spanning_trees(graph: df.Digraph) -> list[frozenset[int]]:
    """Every spanning tree, from the definition and sharing no code with the
    package's search: each set of ``node_count - 1`` edges, in
    ``itertools.combinations`` order, kept when networkx finds that its
    edges connect all nodes."""
    trees = []
    for subset in itertools.combinations(range(graph.edge_count), graph.node_count - 1):
        underlying = nx.MultiGraph()
        underlying.add_nodes_from(range(graph.node_count))
        underlying.add_edges_from(graph.edges[i] for i in subset)
        if nx.is_connected(underlying):
            trees.append(frozenset(subset))
    return trees


def circuit_search(graph, costs, source, targets, depth_cap, state_cap):
    """The circuit oracle's breadth-first search over one instance's grid
    points, not split into blocks, from a point to points: each target's
    depth (``lengths``) and shortest chain (``chain(target)``) in points,
    and the states it stored (``parents``)."""
    from dualflow.model import Grid
    from dualflow.oracle import _ScaledInstance, _search

    grid = Grid(costs)
    reach = _search(
        _ScaledInstance(graph, grid), grid.to_state(source),
        [grid.to_state(t) for t in targets], depth_cap, state_cap,
    )
    return SimpleNamespace(
        lengths={grid.to_point(state): d for state, d in reach.depths.items()},
        chain=lambda target: list(map(grid.to_point, reach.path(grid.to_state(target)))),
        parents=reach.parents,
    )


def reference_neighbors(graph: df.Digraph, costs, point: df.Point) -> list[tuple]:
    """The maximal circuit steps from a feasible point, from the definition,
    as ``(destination, S, sign, length, entering edges)`` in circuit order.

    S runs over the sets of non-anchor nodes in lexicographic order of their
    sorted members, kept when networkx finds S and its complement connected,
    and the sign over +1, then -1.  Along sign·χ(S) the slack of an edge
    (t, h) changes at the rate -sign·(χ_S(h) - χ_S(t)); the step's length
    is the least slack of the edges whose slack falls, and its entering
    edges are those that reach 0.  A direction along which no slack falls
    (a ray), or whose length is 0, has no step."""
    underlying = nx.MultiGraph()
    underlying.add_nodes_from(range(graph.node_count))
    underlying.add_edges_from(graph.edges)
    nodes = set(range(graph.node_count))
    subsets = sorted(
        combo
        for size in range(1, graph.node_count)
        for combo in itertools.combinations(range(1, graph.node_count), size)
    )
    steps = []
    for members in subsets:
        s_set = frozenset(members)
        if not all(nx.is_connected(underlying.subgraph(side)) for side in (s_set, nodes - s_set)):
            continue
        for sign in (1, -1):
            falling = {
                i: costs[i] - point[head] + point[tail]
                for i, (tail, head) in enumerate(graph.edges)
                if sign * ((head in s_set) - (tail in s_set)) > 0
            }
            length = min(falling.values(), default=0)
            if not length:
                continue
            destination = df.Point(tuple(
                x + sign * length if v in s_set else x for v, x in enumerate(point.coords)
            ))
            entering = frozenset(i for i, s in falling.items() if s == length)
            steps.append((destination, s_set, sign, length, entering))
    return steps


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix by Gaussian elimination (independent of the
    package's own linear algebra, which there is none of)."""
    matrix = [row[:] for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(matrix)):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        factor = matrix[rank][col]
        matrix[rank] = [x / factor for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                scale = matrix[r][col]
                matrix[r] = [a - scale * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def constraint_rows(
    graph: df.Digraph, edge_indices, with_anchor: bool = True
) -> list[list[Fraction]]:
    """Normal vectors of tight edge constraints, optionally plus the anchor row."""
    rows = []
    for i in edge_indices:
        tail, head = graph.edges[i]
        row = [Fraction(0)] * graph.node_count
        row[head] += 1
        row[tail] -= 1
        rows.append(row)
    if with_anchor:
        anchor_row = [Fraction(0)] * graph.node_count
        anchor_row[df.ANCHOR] = Fraction(1)
        rows.append(anchor_row)
    return rows


def reference_slacks(graph: df.Digraph, costs, point: df.Point) -> list[Fraction]:
    """Each edge's slack ``c - u_head + u_tail`` at the point, in rationals."""
    return [c - point[head] + point[tail] for c, (tail, head) in zip(costs, graph.edges)]


def reference_tight(graph: df.Digraph, costs, point: df.Point) -> frozenset[int]:
    """The edges whose slack at the point is zero."""
    slacks = reference_slacks(graph, costs, point)
    return frozenset(i for i, s in enumerate(slacks) if s == 0)


def definitional_is_vertex(graph: df.Digraph, costs, point: df.Point) -> bool:
    """A feasible point is a vertex iff its tight constraints pin it down:
    the tight normals plus the anchor row must have full rank."""
    tight = reference_tight(graph, costs, point)
    return rational_rank(constraint_rows(graph, tight)) == graph.node_count


def geometric_adjacency(graph: df.Digraph, costs, u: df.Point, v: df.Point) -> bool:
    """Vertices span an edge iff their common tight constraints cut the space
    down to one dimension (rank node_count - 1 including the anchor row)."""
    common = reference_tight(graph, costs, u) & reference_tight(graph, costs, v)
    return rational_rank(constraint_rows(graph, common)) == graph.node_count - 1


def reference_validation(graph: df.Digraph, costs, walk) -> df.WalkValidation:
    """``validate_walk``'s verdict, from the definitions and sharing no code
    with the package but its data types; the costs must be one per edge.

    It checks in ``validate_walk``'s order and reports in its words: every
    point's dimension and feasibility (``Fraction`` slacks); then every
    step: its move ``q - p`` must be ``δ ≠ 0`` on the recorded S and 0
    elsewhere, S and its complement connected (networkx), and the record's
    sign and length those of ``δ``.  Along ``sign·χ(S)`` the slack of an
    edge (t, h) falls when ``sign·(χ_S(h) - χ_S(t)) > 0``: those edges block
    the step, it is maximal when one of them is tight after it, and those
    are its entering edges.  In edge mode every point must then be a vertex
    and each consecutive pair adjacent, by the rank-based definitions."""
    n = graph.node_count
    point_slacks = []
    for k, point in enumerate(walk.points):
        if len(point) != n:
            return df.WalkValidation(False, f"point {k} has the wrong dimension")
        point_slacks.append(reference_slacks(graph, costs, point))
        if min(point_slacks[-1], default=0) < 0:
            return df.WalkValidation(False, f"point {k} is infeasible")
    underlying = nx.MultiGraph()
    underlying.add_nodes_from(range(n))
    underlying.add_edges_from(graph.edges)
    for k, step in enumerate(walk.steps):
        before, after = walk.points[k], walk.points[k + 1]
        moves = {v: after[v] - before[v] for v in range(n) if after[v] != before[v]}
        if not moves:
            return df.WalkValidation(False, f"step {k} does not move")
        if len(set(moves.values())) != 1:
            return df.WalkValidation(
                False, f"step {k} is not a multiple of a 0/1 direction"
            )
        s_set = step.circuit.s_set
        if set(moves) != s_set:
            return df.WalkValidation(False, f"step {k} moves the wrong node set")
        sides = (s_set, set(range(n)) - s_set)
        if not all(nx.is_connected(underlying.subgraph(side)) for side in sides):
            return df.WalkValidation(False, f"step {k} uses an invalid circuit")
        delta = next(iter(moves.values()))
        if step.sign * delta < 0 or abs(delta) != step.epsilon:
            return df.WalkValidation(False, f"step {k} disagrees with its record")
        blocking = [
            i for i, (tail, head) in enumerate(graph.edges)
            if step.sign * ((head in s_set) - (tail in s_set)) > 0
        ]
        if not blocking:
            return df.WalkValidation(
                False, f"step {k} is impossible: no edge bounds this direction"
            )
        entering = frozenset(i for i in blocking if point_slacks[k + 1][i] == 0)
        if not entering:
            return df.WalkValidation(False, f"step {k} is not maximal")
        if entering != step.entering_edges:
            return df.WalkValidation(False, f"step {k} records wrong entering edges")
    if walk.mode == "edge":
        for k, point in enumerate(walk.points):
            if not definitional_is_vertex(graph, costs, point):
                return df.WalkValidation(False, f"point {k} is not a vertex")
        for k, (u, v) in enumerate(zip(walk.points, walk.points[1:])):
            if not geometric_adjacency(graph, costs, u, v):
                return df.WalkValidation(
                    False, f"points {k} and {k + 1} are not adjacent vertices"
                )
    return df.WalkValidation(True, None)
