"""Ground-truth oracles: vertex enumeration from spanning trees, skeleton
adjacency, and exact distances/diameters by breadth-first search.

Every distance and diameter query is split at the cut vertices (see
:func:`dualflow.model.blocks`).  The polyhedron is the product of its
blocks' polyhedra, so the skeleton is the Cartesian product of the blocks'
skeletons, and every circuit lies inside one block.  Each block is
searched on its own and the lengths add.  Witness walks move one block at a
time and are checked on the whole graph by :func:`walk_from_points`.  A
2-connected graph is its own single block.  The depth and state caps bound
the whole query, and the blocks share them; ``tree_cap`` applies per block.

Circuit-walk search runs on an integer-scaled copy of the instance (all
coordinates are multiples of 1/L where L is the lcm of the cost
denominators), which keeps the state space hashable and the arithmetic
cheap without leaving exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .circuits import (
    PartitionCircuit,
    SignedStep,
    _max_step,
    enumerate_partitions,
)
from .errors import (
    DepthCapExceeded,
    FrontierTooLarge,
    IdenticalPoints,
    InfeasiblePoint,
    InternalInvariant,
    NotApplicable,
    NotAVertex,
    UnboundedDirection,
)
from .model import (
    Block,
    CostVector,
    DEFAULT_TREE_CAP,
    Digraph,
    Point,
    VertexSet,
    bfs_parents,
    blocks,
    component_count,
    enumerate_vertices,
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
            raise NotAVertex(f"{tuple(point)} is not a vertex")
    common = tight_graph(graph, costs, u) & tight_graph(graph, costs, v)
    return component_count(graph.node_count, [graph.edges[i] for i in common]) == 2


@dataclass(frozen=True)
class CircuitNeighbor:
    """One reachable point together with every signed step that lands on it."""

    point: Point
    steps: tuple[SignedStep, ...]


def first_circuit_neighbors(
    graph: Digraph, costs: CostVector, point: Point
) -> tuple[CircuitNeighbor, ...]:
    """All destinations of maximal circuit steps from the point, deduplicated
    by destination; inapplicable and unbounded directions are dropped."""
    if not is_feasible(graph, costs, point):
        raise InfeasiblePoint("max_step requires a feasible start")
    groups: dict[Point, list[SignedStep]] = {}
    order: list[Point] = []
    for circuit in enumerate_partitions(graph):
        for sign in (1, -1):
            try:
                step = _max_step(graph, costs, point, circuit, sign)
            except (NotApplicable, UnboundedDirection):
                continue
            destination = shift_point(point, circuit.s_set, sign * step.epsilon)
            if destination not in groups:
                groups[destination] = []
                order.append(destination)
            groups[destination].append(step)
    return tuple(
        CircuitNeighbor(destination, tuple(groups[destination]))
        for destination in order
    )


# ---------------------------------------------------------------------------
# scaled instance


class _ScaledInstance:
    """Integer view of an instance: coordinates and costs times the lcm of
    the cost denominators."""

    def __init__(self, graph: Digraph, costs: CostVector):
        self.graph = graph
        self.costs = costs
        self.scale = math.lcm(1, *(c.denominator for c in costs))
        self.int_costs = [int(c * self.scale) for c in costs]
        self.tails = [e[0] for e in graph.edges]
        self.heads = [e[1] for e in graph.edges]
        # (circuit, sign, blocking edge list, member tuple) per direction
        self.pairs: list[tuple[PartitionCircuit, int, tuple[int, ...], tuple[int, ...]]] = []
        for circuit in enumerate_partitions(graph):
            members = tuple(sorted(circuit.s_set))
            for sign in (1, -1):
                blocking = tuple(
                    i
                    for i in range(graph.edge_count)
                    if (self.heads[i] in circuit.s_set) != (self.tails[i] in circuit.s_set)
                    and (
                        (sign > 0 and self.heads[i] in circuit.s_set)
                        or (sign < 0 and self.tails[i] in circuit.s_set)
                    )
                )
                if blocking:
                    self.pairs.append((circuit, sign, blocking, members))
        self._neighbor_cache: dict[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]] = {}

    def to_state(self, point: Point) -> tuple[int, ...]:
        state = tuple(int(c * self.scale) for c in point.coords)
        if any(Fraction(s, self.scale) != c for s, c in zip(state, point.coords)):
            # vertices are sums of costs, so every reachable point is on the grid
            raise InternalInvariant("point is not on the instance's rational grid")
        return state

    def to_point(self, state: tuple[int, ...]) -> Point:
        return Point(tuple(Fraction(s, self.scale) for s in state))

    def neighbors(
        self, state: tuple[int, ...]
    ) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(pair index, destination state) for every applicable direction."""
        cached = self._neighbor_cache.get(state)
        if cached is not None:
            return cached
        result = []
        for pair_index, (circuit, sign, blocking, members) in enumerate(self.pairs):
            epsilon = None
            for i in blocking:
                s = self.int_costs[i] - state[self.heads[i]] + state[self.tails[i]]
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
            result.append((pair_index, tuple(target)))
        packed = tuple(result)
        self._neighbor_cache[state] = packed
        return packed

    def signed_step(self, state: tuple[int, ...], pair_index: int) -> SignedStep:
        circuit, sign, blocking, _ = self.pairs[pair_index]
        slacks = {
            i: self.int_costs[i] - state[self.heads[i]] + state[self.tails[i]]
            for i in blocking
        }
        epsilon = min(slacks.values())
        entering = frozenset(i for i, s in slacks.items() if s == epsilon)
        return SignedStep(circuit, sign, Fraction(epsilon, self.scale), entering)


@lru_cache(maxsize=64)
def _scaled_instance(graph: Digraph, costs: CostVector) -> _ScaledInstance:
    return _ScaledInstance(graph, costs)


# ---------------------------------------------------------------------------
# skeleton of the polyhedron


@dataclass(frozen=True)
class _Skeleton:
    vertex_set: VertexSet
    adjacency: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=64)
def _skeleton(graph: Digraph, costs: CostVector, tree_cap: int) -> _Skeleton:
    vertex_set = enumerate_vertices(graph, costs, tree_cap=tree_cap)
    vertices = vertex_set.vertices
    n = len(vertices)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    tights = [tight_graph(graph, costs, v) for v in vertices]
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
    start: Point, parts: Sequence[Block], chains: Sequence[Sequence[Point]]
) -> list[Point]:
    """The whole graph's points of a walk from ``start`` that runs each
    block's chain of local points in turn, moving one block at a time.  A
    block step along S moves the union of the lifts of S's nodes."""
    points = [start]
    for block, chain in zip(parts, chains):
        for before, after in zip(chain, chain[1:]):
            moved = [x for x in range(1, len(before)) if before[x] != after[x]]
            s_set = frozenset().union(*(block.lift[x] for x in moved))
            delta = after[moved[0]] - before[moved[0]]
            points.append(shift_point(points[-1], s_set, delta))
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
    breadth-first and the lengths add; ``tree_cap`` applies per block."""
    for point in (source, target):
        if len(point) != graph.node_count:
            raise NotAVertex(f"{point} is not an enumerated vertex")
    parts = blocks(graph)
    chains = []
    for block in parts:
        skeleton = _skeleton(block.graph, block.costs(costs), tree_cap)
        src = skeleton.vertex_set.index_of(block.local(source))
        dst = skeleton.vertex_set.index_of(block.local(target))
        parents = bfs_parents(src, skeleton.adjacency.__getitem__)
        if dst not in parents:
            raise NotAVertex("target unreachable on the skeleton")
        chains.append([skeleton.vertex_set.vertices[i] for i in _chain(parents, dst)])
    points = _walk_through_blocks(source, parts, chains)
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

    Stops as soon as every target is found.  Raises
    :class:`FrontierTooLarge` past ``state_cap`` states and
    :class:`DepthCapExceeded` when some target stays unreached.
    """
    scaled = _scaled_instance(graph, costs)
    start = scaled.to_state(source)
    target_of = {scaled.to_state(t): t for t in targets}
    # a set filled one state at a time: its order picks the diameter's pair
    # among equally far targets
    wanted = {state for state in target_of}
    found: dict[tuple[int, ...], None] = {}
    parents: dict[tuple[int, ...], tuple[int, ...] | None] = {start: None}
    frontier = [start]
    depth = 0
    if start in wanted:
        found[start] = None
    while frontier and len(found) < len(wanted) and depth < depth_cap:
        depth += 1
        next_frontier = []
        for state in frontier:
            for _, target in scaled.neighbors(state):
                if target in parents:
                    continue
                parents[target] = state
                if len(parents) > state_cap:
                    raise FrontierTooLarge(
                        f"more than {state_cap} states explored"
                    )
                next_frontier.append(target)
                if target in wanted:
                    found[target] = None
        frontier = next_frontier
        if len(found) == len(wanted):
            break
    lengths: dict[Point, int] = {}
    for state in wanted:
        if state not in found:
            raise DepthCapExceeded(
                f"target not reached within depth {depth_cap}"
            )
        lengths[target_of[state]] = len(_chain(parents, state)) - 1
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
    """
    for point in (source, target):
        if not is_vertex(graph, costs, point):
            raise NotAVertex(f"{tuple(point)} is not a vertex")
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
    points = _walk_through_blocks(source, parts, chains)
    walk = walk_from_points(graph, costs, points, "circuit")
    return DistanceResult(len(points) - 1, walk)


# ---------------------------------------------------------------------------
# diameters


def _edge_diameter(
    graph: Digraph, costs: CostVector, tree_cap: int
) -> tuple[int, tuple[Point, Point] | None]:
    skeleton = _skeleton(graph, costs, tree_cap)
    vertices = skeleton.vertex_set.vertices
    best = 0
    pair = None
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
) -> tuple[int, tuple[Point, Point] | None, int]:
    """The value, a pair attaining it, and the most states one search held."""
    vertices = enumerate_vertices(graph, costs, tree_cap=tree_cap).vertices
    best = 0
    pair = None
    states = 0
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
    searches left.
    """
    if mode not in ("edge", "circuit"):
        raise ValueError("mode must be 'edge' or 'circuit'")
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
        if pair is None:  # a block with a single vertex
            only = enumerate_vertices(block.graph, block_costs, tree_cap).vertices[0]
            pair = (only, only)
        total += value
        ends.append(pair)
    if total == 0:
        return DiameterResult(0, None)
    source = join_points(graph.node_count, parts, [a for a, _ in ends])
    target = join_points(graph.node_count, parts, [b for _, b in ends])
    return DiameterResult(total, (source, target))
