"""Ground-truth oracles: vertex enumeration from spanning trees, skeleton
adjacency, and exact distances/diameters by breadth-first search.

Every distance and diameter query is split at the cut vertices (see
:func:`dualflow.model.blocks`).  The polyhedron is the product of its
blocks' polyhedra, so the skeleton is the Cartesian product of the blocks'
skeletons, and every circuit lies inside one block.  Each block is
searched on its own and the lengths add.  Witness walks move one block at a
time: each of their points is joined from the blocks' local points by
:func:`dualflow.model.join_points`, and the walk is checked on the whole
graph by :func:`walk_from_points`.  A 2-connected graph is its own single
block.  The depth and state caps bound the whole query, and the blocks
share them; ``tree_cap`` applies per block.  Each query checks the cost
vector's length on entry.

Both distances and both diameters run one breadth-first search
(:func:`_search`) over a block's space; only the space depends on the
mode.  Edge walks search the skeleton, whose states are vertex indices.
Circuit walks search the instance's integer view,
:class:`dualflow.model.Grid` (all coordinates are multiples of 1/L where L
is the lcm of the cost denominators), which keeps the states hashable and
the arithmetic cheap without leaving exact arithmetic.  Its directions and
their blocking edges come from :mod:`dualflow.circuits`, so the search
stops each step where :func:`dualflow.circuits.max_step` does; only the
slack arithmetic runs on integers.  That space tests the layer that holds
its last targets against them instead of generating it (see
:meth:`_ScaledInstance.goal_test`).  Edge queries read no depth or state
cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .circuits import (
    SignedStep,
    _blocking_edges,
    _max_step,
    enumerate_partitions,
)
from .errors import (
    DepthCapExceeded,
    FrontierTooLarge,
    IdenticalPoints,
    InfeasibleInstance,
    InfeasiblePoint,
    NotApplicable,
    UnboundedDirection,
    ValidationError,
)
from .model import (
    Block,
    CostVector,
    DEFAULT_TREE_CAP,
    Digraph,
    Grid,
    Point,
    VertexSet,
    _NO_VERTEX,
    blocks,
    check_costs,
    check_vertices,
    component_count,
    enumerate_vertices,
    is_feasible,
    join_points,
    shift_point,
)
from .walks import Walk, walk_from_points

DEFAULT_STATE_CAP = 10**6


@dataclass(frozen=True)
class DistanceResult:
    length: int
    walk: Walk


@dataclass(frozen=True)
class DiameterResult:
    value: int
    pair: tuple[Point, Point] | None


def are_adjacent(graph: Digraph, costs: CostVector, u: Point, v: Point) -> bool:
    """Vertices are adjacent iff their common tight edges split the nodes
    into exactly two connected components (isolated nodes count)."""
    if u == v:
        raise IdenticalPoints("adjacency needs two distinct vertices")
    tight_u, tight_v = check_vertices(graph, costs, u, v)
    common = tight_u & tight_v
    return component_count(graph.node_count, [graph.edges[i] for i in common]) == 2


@dataclass(frozen=True)
class CircuitNeighbor:
    """One reachable point together with the signed step that lands on it."""

    point: Point
    steps: tuple[SignedStep, ...]


def first_circuit_neighbors(
    graph: Digraph, costs: CostVector, point: Point
) -> tuple[CircuitNeighbor, ...]:
    """The destination of the maximal step along every applicable signed
    circuit, in circuit order; inapplicable and unbounded directions are
    dropped.  A destination fixes S, the sign and the step length, so no two
    directions share one."""
    if not is_feasible(graph, costs, point):
        raise InfeasiblePoint("max_step requires a feasible start")
    neighbors = []
    for circuit in enumerate_partitions(graph):
        for sign in (1, -1):
            try:
                step = _max_step(graph, costs, point, circuit, sign)
            except (NotApplicable, UnboundedDirection):
                continue
            destination = shift_point(point, circuit.s_set, sign * step.epsilon)
            neighbors.append(CircuitNeighbor(destination, (step,)))
    return tuple(neighbors)


# ---------------------------------------------------------------------------
# search spaces


class _ScaledInstance(Grid):
    """The instance's :class:`Grid` with its signed circuits: the circuit
    search's space, whose states are grid points."""

    def __init__(self, graph: Digraph, costs: CostVector):
        super().__init__(costs)
        self.tails = [e[0] for e in graph.edges]
        self.heads = [e[1] for e in graph.edges]
        # (members of S, sign) -> blocking edges, per bounded signed circuit
        self.directions: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
        for circuit in enumerate_partitions(graph):
            members = tuple(sorted(circuit.s_set))
            for sign in (1, -1):
                blocking = tuple(_blocking_edges(graph, circuit, sign))
                if blocking:
                    self.directions[members, sign] = blocking

    def neighbors(self, state: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """The destination state of every applicable direction."""
        result = []
        for (members, sign), blocking in self.directions.items():
            epsilon = None
            for i in blocking:
                s = self.costs[i] - state[self.heads[i]] + state[self.tails[i]]
                if epsilon is None or s < epsilon:
                    epsilon = s
                    if s == 0:
                        break
            if not epsilon:  # 0 (not applicable); None cannot occur
                continue
            delta = epsilon if sign > 0 else -epsilon
            target = list(state)
            for v in members:
                target[v] += delta
            result.append(tuple(target))
        return tuple(result)

    def one_step(self, state: tuple[int, ...], target: tuple[int, ...]) -> bool:
        """Whether ``target`` is in ``neighbors(state)``, decided from the
        difference alone: it must be δ on the members of one direction of
        sign(δ), whose smallest blocking slack is exactly |δ|."""
        members = tuple(v for v, (a, b) in enumerate(zip(state, target)) if a != b)
        if not members:
            return False
        delta = target[members[0]] - state[members[0]]
        if any(target[v] - state[v] != delta for v in members):
            return False
        blocking = self.directions.get((members, 1 if delta > 0 else -1))
        if blocking is None:
            return False
        step = abs(delta)
        tight = False
        for i in blocking:
            s = self.costs[i] - state[self.heads[i]] + state[self.tails[i]]
            if s < step:
                return False
            tight = tight or s == step
        return tight

    def goal_test(
        self,
        frontier: Sequence[tuple[int, ...]],
        targets: Sequence[tuple[int, ...]],
        found: dict,
    ) -> dict[tuple[int, ...], list[tuple[int, ...]]] | None:
        """Each frontier state with the targets not in ``found`` one step
        from it that no earlier frontier state reaches, or None when some
        such target is one step from none.  Testing a state against fewer
        targets than there are directions costs less than expanding it; with
        more targets the frontier is not tested, and the answer is None."""
        if len(targets) - len(found) >= len(self.directions):
            return None
        remaining = [target for target in targets if target not in found]
        hits = {}
        for state in frontier:
            hit = [target for target in remaining if self.one_step(state, target)]
            if hit:
                hits[state] = hit
                remaining = [target for target in remaining if target not in hit]
                if not remaining:
                    return hits
        return None


# Holds each instance's grid and direction table only, never search state,
# so a circuit query's memory is bounded by the states its search stores.
@lru_cache(maxsize=64)
def _scaled_instance(graph: Digraph, costs: CostVector) -> _ScaledInstance:
    return _ScaledInstance(graph, costs)


@dataclass(frozen=True)
class _Skeleton:
    """The polyhedron's skeleton: the edge search's space, whose states are
    vertex indices."""

    vertex_set: VertexSet
    adjacency: tuple[tuple[int, ...], ...]

    def to_state(self, point: Point) -> int:
        return self.vertex_set.index_of(point)

    def to_point(self, state: int) -> Point:
        return self.vertex_set.vertices[state]

    def neighbors(self, state: int) -> tuple[int, ...]:
        return self.adjacency[state]

    def goal_test(
        self, frontier: Sequence[int], targets: Sequence[int], found: dict
    ) -> None:
        """Never tests: a vertex has as many neighbours to expand as to test."""
        return None


def _vertices(graph: Digraph, costs: CostVector, tree_cap: int) -> VertexSet:
    """The vertex set of one block, which only a negative-cost cycle leaves
    empty: that raises :class:`InfeasibleInstance`."""
    vertex_set = enumerate_vertices(graph, costs, tree_cap)
    if not vertex_set.vertices:
        raise InfeasibleInstance(_NO_VERTEX)
    return vertex_set


@lru_cache(maxsize=64)
def _skeleton(graph: Digraph, costs: CostVector, tree_cap: int) -> _Skeleton:
    """Raises :class:`InfeasibleInstance` for an empty polyhedron.

    A vertex's tight graph is connected and has no self-loops, so each of
    its edges lies in one of its spanning trees, the vertex's witness
    trees: their union is the tight set."""
    vertex_set = _vertices(graph, costs, tree_cap)
    n = len(vertex_set.vertices)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    tights = [frozenset().union(*trees) for trees in vertex_set.tree_witnesses]
    for i in range(n):
        for j in range(i + 1, n):
            common = [graph.edges[e] for e in tights[i] & tights[j]]
            if component_count(graph.node_count, common) == 2:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return _Skeleton(vertex_set, tuple(tuple(a) for a in adjacency))


_Space = _ScaledInstance | _Skeleton


def _space(mode: str, graph: Digraph, costs: CostVector, tree_cap: int) -> _Space:
    """One block's search space: its skeleton for edge walks, its grid
    points and their circuit steps for circuit walks."""
    if mode == "edge":
        return _skeleton(graph, costs, tree_cap)
    return _scaled_instance(graph, costs)


# ---------------------------------------------------------------------------
# search


def default_depth_cap(graph: Digraph) -> int:
    n = graph.node_count
    return n * (n - 1) // 2


@dataclass(frozen=True)
class _Reach:
    """One search: the depth of each target state, and the search tree
    that gives a shortest chain on demand."""

    space: _Space
    parents: dict
    depths: dict

    @property
    def lengths(self) -> dict[Point, int]:
        return {self.space.to_point(state): d for state, d in self.depths.items()}

    def chain(self, target: Point) -> list[Point]:
        states = [self.space.to_state(target)]
        while self.parents[states[-1]] is not None:
            states.append(self.parents[states[-1]])
        return [self.space.to_point(state) for state in reversed(states)]


def _search(
    space: _Space, start, targets: Sequence, depth_cap: float, state_cap: float
) -> _Reach:
    """Breadth-first search over one block's space from the state ``start``
    until every target state is found; the oracles call it once per block.

    Each layer's frontier first goes to the space's goal test.  When that
    gives every remaining target the first frontier state one step from it
    as its parent, the one a full expansion would record, the search stops
    and the last layer is never generated.  Otherwise the frontier is
    expanded.  Raises :class:`FrontierTooLarge` past ``state_cap`` stored
    states and :class:`DepthCapExceeded` when some target stays unreached.
    """
    wanted = set(targets)
    parents = {start: None}
    depths = {start: 0} if start in wanted else {}
    frontier = [start]
    depth = 0
    while frontier and len(depths) < len(wanted) and depth < depth_cap:
        depth += 1
        tested = space.goal_test(frontier, targets, depths)
        if tested is None:
            layer = zip(frontier, map(space.neighbors, frontier))
        else:
            layer = tested.items()
        next_frontier = []
        for parent, states in layer:
            for state in states:
                if state in parents:
                    continue
                parents[state] = parent
                if len(parents) > state_cap:
                    raise FrontierTooLarge(f"more than {state_cap} states explored")
                next_frontier.append(state)
                if state in wanted:
                    depths[state] = depth
        frontier = next_frontier
    if len(depths) < len(wanted):
        raise DepthCapExceeded(f"target not reached within depth {depth_cap}")
    return _Reach(space, parents, depths)


# ---------------------------------------------------------------------------
# distances


def _walk_through_blocks(
    node_count: int, parts: Sequence[Block], chains: Sequence[Sequence[Point]]
) -> list[Point]:
    """The whole graph's points of a walk that runs each block's chain of
    local points in turn, moving one block at a time: every other block
    stays at the end of its chain if it came earlier, else at its start."""
    current = [chain[0] for chain in chains]
    points = [join_points(node_count, parts, current)]
    for index, chain in enumerate(chains):
        for local in chain[1:]:
            current[index] = local
            points.append(join_points(node_count, parts, current))
    return points


def _distance(
    mode: str,
    graph: Digraph,
    costs: CostVector,
    source: Point,
    target: Point,
    tree_cap: int,
    depth_cap: float,
    state_cap: float,
) -> DistanceResult:
    """Shortest walk in the mode, by one search per block; the lengths add.
    The caps bound the whole query: each block's search gets the depth and
    the states that the earlier blocks left."""
    check_vertices(graph, costs, source, target)
    parts = blocks(graph)
    chains = []
    for block in parts:
        space = _space(mode, block.graph, block.costs(costs), tree_cap)
        goal = block.local(target)
        reach = _search(
            space, space.to_state(block.local(source)), [space.to_state(goal)],
            depth_cap, state_cap,
        )
        depth_cap -= reach.lengths[goal]
        state_cap -= len(reach.parents)
        chains.append(reach.chain(goal))
    points = _walk_through_blocks(graph.node_count, parts, chains)
    walk = walk_from_points(graph, costs, points, mode)
    return DistanceResult(len(points) - 1, walk)


def combinatorial_distance(
    graph: Digraph,
    costs: CostVector,
    source: Point,
    target: Point,
    tree_cap: int = DEFAULT_TREE_CAP,
) -> DistanceResult:
    """Exact shortest edge-walk length.  The skeleton is the Cartesian
    product of the blocks' skeletons, so each block's skeleton is searched
    breadth-first and the lengths add; ``tree_cap`` applies per block, and
    no depth or state cap applies.  Endpoints are checked by
    :func:`dualflow.model.check_vertices`."""
    return _distance(
        "edge", graph, costs, source, target, tree_cap, math.inf, math.inf
    )


def circuit_distance(
    graph: Digraph,
    costs: CostVector,
    source: Point,
    target: Point,
    depth_cap: int | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> DistanceResult:
    """Exact shortest circuit-walk length from source to target (directional).

    Every circuit lies inside one block, so each block is searched on its
    own and the lengths add.  The caps bound the whole query: each block's
    search gets the depth and the states that the earlier blocks left.
    Endpoints are checked by :func:`dualflow.model.check_vertices`.
    """
    if depth_cap is None:
        depth_cap = default_depth_cap(graph)
    return _distance(
        "circuit", graph, costs, source, target, DEFAULT_TREE_CAP, depth_cap, state_cap
    )


# ---------------------------------------------------------------------------
# diameters


def _diameter(
    mode: str,
    graph: Digraph,
    costs: CostVector,
    tree_cap: int,
    depth_cap: float,
    state_cap: float,
) -> tuple[int, tuple[Point, Point], int]:
    """One block's diameter, the pair attaining it, and the most states one
    search held.  The pair is the first source in vertex order whose
    eccentricity is the diameter, with the last of its farthest vertices in
    vertex order."""
    vertices = _vertices(graph, costs, tree_cap).vertices
    space = _space(mode, graph, costs, tree_cap)
    states = [space.to_state(vertex) for vertex in vertices]
    best, pair, held = 0, (vertices[0], vertices[0]), 0
    for i, source in enumerate(states):
        others = states[:i] + states[i + 1 :]
        if not others:
            continue
        reach = _search(space, source, others, depth_cap, state_cap)
        held = max(held, len(reach.parents))
        length = max(reach.depths.values())
        if length > best:
            far = max(
                j for j, state in enumerate(states) if reach.depths.get(state) == length
            )
            best, pair = length, (vertices[i], vertices[far])
    return best, pair, held


def diameter(
    graph: Digraph,
    costs: CostVector,
    mode: str,
    tree_cap: int = DEFAULT_TREE_CAP,
    depth_cap: int | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> DiameterResult:
    """Maximum distance over vertex pairs: unordered for edge mode, ordered
    for circuit mode (circuit walks are directional).

    Distances add over the blocks and each block's pair can be chosen on its
    own, so the diameter is the sum of the blocks' diameters, attained by
    the pair joined from the blocks' pairs.  In both modes a block's pair
    is the first source in vertex order whose eccentricity is the block's
    diameter, with the last of its farthest vertices in vertex order.
    ``tree_cap`` applies per block.  Edge mode
    reads no depth or state cap; in circuit mode each block's searches get
    the depth that the earlier blocks' diameters left, and the states that
    their largest searches left.  An infeasible instance has a block
    without vertices and raises :class:`InfeasibleInstance`.
    """
    if mode not in ("edge", "circuit"):
        raise ValidationError("mode must be 'edge' or 'circuit'")
    check_costs(graph, costs)
    if mode == "edge":
        depth_cap = state_cap = math.inf
    elif depth_cap is None:
        depth_cap = default_depth_cap(graph)
    parts = blocks(graph)
    total = 0
    ends = []
    for block in parts:
        value, pair, states = _diameter(
            mode, block.graph, block.costs(costs), tree_cap, depth_cap - total, state_cap
        )
        state_cap -= states
        total += value
        ends.append(pair)
    if total == 0:
        return DiameterResult(0, None)
    source = join_points(graph.node_count, parts, [a for a, _ in ends])
    target = join_points(graph.node_count, parts, [b for _, b in ends])
    return DiameterResult(total, (source, target))
