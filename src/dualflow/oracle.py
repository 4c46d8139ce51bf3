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

Circuit-walk search runs on the instance's integer view,
:class:`dualflow.model.Grid` (all coordinates are multiples of 1/L where L
is the lcm of the cost denominators), which keeps the state space hashable
and the arithmetic cheap without leaving exact arithmetic.  Its directions and their blocking
edges come from :mod:`dualflow.circuits`, so the search stops each step
where :func:`dualflow.circuits.max_step` does; only the slack arithmetic
runs on integers.  The search tests the layer that holds its last targets
against them instead of generating it (see :func:`_circuit_search`).
"""

from __future__ import annotations

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
    NotAVertex,
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
    bfs_parents,
    blocks,
    check_costs,
    component_count,
    enumerate_vertices,
    feasibility_status,
    is_feasible,
    is_vertex,
    join_points,
    shift_point,
    tight_graph,
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
    for point in (u, v):
        if not is_vertex(graph, costs, point):
            raise NotAVertex(f"{point} is not a vertex")
    common = tight_graph(graph, costs, u) & tight_graph(graph, costs, v)
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
# scaled instance


class _ScaledInstance(Grid):
    """The instance's :class:`Grid` with its signed circuits, for the search
    over integer states."""

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
        self._neighbor_cache: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    def neighbors(self, state: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """The destination state of every applicable direction."""
        cached = self._neighbor_cache.get(state)
        if cached is not None:
            return cached
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
        packed = tuple(result)
        self._neighbor_cache[state] = packed
        return packed

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


@lru_cache(maxsize=64)
def _scaled_instance(graph: Digraph, costs: CostVector) -> _ScaledInstance:
    return _ScaledInstance(graph, costs)


# ---------------------------------------------------------------------------
# skeleton of the polyhedron


@dataclass(frozen=True)
class _Skeleton:
    vertex_set: VertexSet
    adjacency: tuple[tuple[int, ...], ...]


_NO_VERTEX = "the instance has no vertex (negative-cost cycle)"


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


def _chain(parents: dict, end):
    """The path from the root of a search's parents map to ``end``."""
    chain = [end]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])
    chain.reverse()
    return chain


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


def combinatorial_distance(
    graph: Digraph,
    costs: CostVector,
    source: Point,
    target: Point,
    tree_cap: int = DEFAULT_TREE_CAP,
) -> DistanceResult:
    """Exact shortest edge-walk length.  The skeleton is the Cartesian
    product of the blocks' skeletons, so each block's skeleton is searched
    breadth-first and the lengths add; ``tree_cap`` applies per block.  An
    infeasible instance has a block without vertices and raises
    :class:`InfeasibleInstance`."""
    check_costs(graph, costs)
    for point in (source, target):
        if len(point) != graph.node_count:
            raise NotAVertex(f"{point} is not an enumerated vertex")
    parts = blocks(graph)
    skeletons = [_skeleton(block.graph, block.costs(costs), tree_cap) for block in parts]
    chains = []
    for block, skeleton in zip(parts, skeletons):
        src = skeleton.vertex_set.index_of(block.local(source))
        dst = skeleton.vertex_set.index_of(block.local(target))
        parents = bfs_parents(src, skeleton.adjacency.__getitem__)
        if dst not in parents:
            raise NotAVertex("target unreachable on the skeleton")
        chains.append([skeleton.vertex_set.vertices[i] for i in _chain(parents, dst)])
    points = _walk_through_blocks(graph.node_count, parts, chains)
    walk = walk_from_points(graph, costs, points, "edge")
    return DistanceResult(len(points) - 1, walk)


# ---------------------------------------------------------------------------
# circuit distance


def default_depth_cap(graph: Digraph) -> int:
    n = graph.node_count
    return n * (n - 1) // 2


@dataclass(frozen=True)
class _Reach:
    """One circuit search: the distance to each target, and the search tree
    that gives a shortest chain on demand."""

    scaled: _ScaledInstance
    parents: dict[tuple[int, ...], tuple[int, ...] | None]
    lengths: dict[Point, int]

    def chain(self, target: Point) -> list[Point]:
        states = _chain(self.parents, self.scaled.to_state(target))
        return [self.scaled.to_point(state) for state in states]


def _goal_test(
    scaled: _ScaledInstance,
    frontier: Sequence[tuple[int, ...]],
    targets: Sequence[tuple[int, ...]],
) -> dict[tuple[int, ...], tuple[int, ...]] | None:
    """Each target's first frontier state one step from it, or None when
    some target is not one step from any."""
    remaining = list(targets)
    hits = {}
    for state in frontier:
        hit = [target for target in remaining if scaled.one_step(state, target)]
        if hit:
            for target in hit:
                hits[target] = state
            remaining = [target for target in remaining if target not in hits]
            if not remaining:
                return hits
    return None


def _circuit_search(
    graph: Digraph,
    costs: CostVector,
    source: Point,
    targets: Sequence[Point],
    depth_cap: int,
    state_cap: int,
) -> _Reach:
    """BFS over exact points of one instance, not split into blocks; the
    oracles call it once per block.

    Stops as soon as every target is found.  While fewer targets remain
    than the instance has directions, testing a state against them costs
    less than expanding it, so each layer's frontier is first tested in
    order: if every remaining target is one step from it, each takes the
    first frontier state that hits it as its parent, the one full
    expansion would record, and the last layer is never generated.
    Raises :class:`FrontierTooLarge` past ``state_cap`` stored states and
    :class:`DepthCapExceeded` when some target stays unreached.
    """
    scaled = _scaled_instance(graph, costs)
    start = scaled.to_state(source)
    target_of = {scaled.to_state(t): t for t in targets}
    # a set filled one state at a time: its order picks the diameter's pair
    # among equally far targets
    wanted = {state for state in target_of}
    found: dict[tuple[int, ...], int] = {}  # target state -> its depth
    parents: dict[tuple[int, ...], tuple[int, ...] | None] = {start: None}
    frontier = [start]
    depth = 0
    if start in wanted:
        found[start] = 0
    while frontier and len(found) < len(wanted) and depth < depth_cap:
        depth += 1
        missing = [state for state in wanted if state not in found]
        if len(missing) < len(scaled.directions):
            hits = _goal_test(scaled, frontier, missing)
            if hits is not None:
                for target, state in hits.items():
                    parents[target] = state
                    if len(parents) > state_cap:
                        raise FrontierTooLarge(
                            f"more than {state_cap} states explored"
                        )
                    found[target] = depth
                break
        next_frontier = []
        for state in frontier:
            for target in scaled.neighbors(state):
                if target in parents:
                    continue
                parents[target] = state
                if len(parents) > state_cap:
                    raise FrontierTooLarge(
                        f"more than {state_cap} states explored"
                    )
                next_frontier.append(target)
                if target in wanted:
                    found[target] = depth
        frontier = next_frontier
        if len(found) == len(wanted):
            break
    lengths: dict[Point, int] = {}
    for state in wanted:
        if state not in found:
            raise DepthCapExceeded(
                f"target not reached within depth {depth_cap}"
            )
        lengths[target_of[state]] = found[state]
    return _Reach(scaled, parents, lengths)


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
    An endpoint that is infeasible because the polyhedron is empty raises
    :class:`InfeasibleInstance`.
    """
    for point in (source, target):
        try:
            vertex = is_vertex(graph, costs, point)  # checks the costs too
        except InfeasiblePoint:
            if not feasibility_status(graph, costs).feasible:
                raise InfeasibleInstance(_NO_VERTEX) from None
            raise
        if not vertex:
            raise NotAVertex(f"{point} is not a vertex")
    if depth_cap is None:
        depth_cap = default_depth_cap(graph)
    parts = blocks(graph)
    chains = []
    for block in parts:
        goal = block.local(target)
        reach = _circuit_search(
            block.graph, block.costs(costs), block.local(source), [goal],
            depth_cap, state_cap,
        )
        depth_cap -= reach.lengths[goal]
        state_cap -= len(reach.parents)
        chains.append(reach.chain(goal))
    points = _walk_through_blocks(graph.node_count, parts, chains)
    walk = walk_from_points(graph, costs, points, "circuit")
    return DistanceResult(len(points) - 1, walk)


# ---------------------------------------------------------------------------
# diameters


def _edge_diameter(
    graph: Digraph, costs: CostVector, tree_cap: int
) -> tuple[int, tuple[Point, Point]]:
    skeleton = _skeleton(graph, costs, tree_cap)
    vertices = skeleton.vertex_set.vertices
    best, pair = 0, (vertices[0], vertices[0])
    for src in range(len(vertices)):
        depths: dict[int, int] = {}
        for w, parent in bfs_parents(src, skeleton.adjacency.__getitem__).items():
            depths[w] = 0 if parent is None else depths[parent] + 1
        if len(depths) < len(vertices):
            raise NotAVertex("skeleton is disconnected")
        far = max(depths, key=lambda w: (depths[w], w))
        if depths[far] > best:
            best = depths[far]
            pair = (vertices[src], vertices[far])
    return best, pair


def _circuit_diameter(
    graph: Digraph, costs: CostVector, tree_cap: int, depth_cap: int, state_cap: int
) -> tuple[int, tuple[Point, Point], int]:
    """The value, a pair attaining it, and the most states one search held."""
    vertices = _vertices(graph, costs, tree_cap).vertices
    best, pair, states = 0, (vertices[0], vertices[0]), 0
    for source in vertices:
        others = [v for v in vertices if v != source]
        if not others:
            continue
        reach = _circuit_search(graph, costs, source, others, depth_cap, state_cap)
        states = max(states, len(reach.parents))
        for target, length in reach.lengths.items():
            if length > best:
                best = length
                pair = (source, target)
    return best, pair, states


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
    the pair joined from the blocks' pairs.  ``tree_cap`` applies per
    block; in circuit mode each block's searches get the depth that the
    earlier blocks' diameters left, and the states that their largest
    searches left.  An infeasible instance has a block without vertices
    and raises :class:`InfeasibleInstance`.
    """
    if mode not in ("edge", "circuit"):
        raise ValidationError("mode must be 'edge' or 'circuit'")
    check_costs(graph, costs)
    if depth_cap is None:
        depth_cap = default_depth_cap(graph)
    parts = blocks(graph)
    total = 0
    ends = []
    for block in parts:
        block_costs = block.costs(costs)
        if mode == "edge":
            value, pair = _edge_diameter(block.graph, block_costs, tree_cap)
        else:
            value, pair, states = _circuit_diameter(
                block.graph, block_costs, tree_cap, depth_cap - total, state_cap
            )
            state_cap -= states
        total += value
        ends.append(pair)
    if total == 0:
        return DiameterResult(0, None)
    source = join_points(graph.node_count, parts, [a for a, _ in ends])
    target = join_points(graph.node_count, parts, [b for _, b in ends])
    return DiameterResult(total, (source, target))
