"""Constructive walk builders, edge contraction, and walk validation.

Both builders drive the current point toward a fixed spanning tree of the
target's tight set, one target edge at a time: pivot (or circuit-step) until
the edge becomes tight, contract it, and continue on the smaller instance.
Contraction pins the edge so later steps cannot lose it; finished walks are
stitched back to the original coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .circuits import (
    PartitionCircuit,
    SignedStep,
    _max_step,
    is_valid_circuit,
    max_step,
    step_between,
)
from .errors import (
    DegenerateInstance,
    DimensionMismatch,
    EdgeMissing,
    FaceEmpty,
    InfeasibleLift,
    InfeasiblePoint,
    InternalInvariant,
    InvalidPartition,
    NegativeSelfLoop,
    NoBackwardEdge,
    NotApplicable,
    NotAVertex,
    PathConflict,
    UnboundedDirection,
    ValidationError,
)
from .model import (
    ANCHOR,
    CostVector,
    Digraph,
    Point,
    _find,
    bfs_parents,
    check_spanning_tree,
    component_count,
    connected_in_underlying,
    feasibility_status,
    is_feasible,
    is_vertex,
    shift_point,
    slack,
    tight_graph,
    tree_adjacency,
    underlying_adjacency,
)


@dataclass(frozen=True)
class ContractionRecord:
    """Everything needed to move points between an instance and the instance
    obtained by merging one tight edge's head into its tail."""

    original_graph: Digraph
    original_costs: CostVector
    graph: Digraph
    costs: CostVector
    edge_index: int
    kept_node: int
    removed_node: int
    edge_cost: Fraction
    node_map: tuple[int, ...]
    edge_map: tuple[int | None, ...]
    shift: Fraction


@dataclass(frozen=True)
class Walk:
    """A point sequence with one recorded signed step per move."""

    points: tuple[Point, ...]
    steps: tuple[SignedStep, ...]
    mode: str

    def __post_init__(self):
        if self.mode not in ("edge", "circuit"):
            raise ValidationError("mode must be 'edge' or 'circuit'")
        if not self.points:
            raise ValidationError("walk needs at least one point")
        if len(self.steps) != len(self.points) - 1:
            raise ValidationError("need exactly one step per move")

    @property
    def length(self) -> int:
        return len(self.steps)


def find_edge(graph: Digraph, tail: int, head: int) -> int:
    for i, edge in enumerate(graph.edges):
        if edge == (tail, head):
            return i
    raise EdgeMissing(f"no edge ({tail},{head})")


# ---------------------------------------------------------------------------
# contraction


def contract_edge(
    graph: Digraph, costs: CostVector, edge_index: int
) -> tuple[Digraph, CostVector, ContractionRecord]:
    """Merge the edge's head into its tail, producing the face polyhedron.

    Outgoing costs of the merged node become ``min(c_tail_out, c_head_out +
    c_edge)`` and incoming ones ``min(c_in_tail, c_in_head - c_edge)``;
    parallel survivors merge by minimum.  An antiparallel partner turns into
    a loop whose cost must be nonnegative, otherwise the face is empty.  If
    the head was the anchor, the merged node becomes the new anchor and
    lifted points are shifted so the old anchor coordinate is zero again.
    """
    if not (0 <= edge_index < graph.edge_count):
        raise EdgeMissing(f"edge index {edge_index} out of range")
    contracted, contracted_costs, record = _contract(graph, costs, edge_index)
    if not feasibility_status(contracted, contracted_costs).feasible:
        raise FaceEmpty(f"no feasible point makes edge {edge_index} tight")
    return contracted, contracted_costs, record


def _contract(
    graph: Digraph, costs: CostVector, edge_index: int
) -> tuple[Digraph, CostVector, ContractionRecord]:
    """:func:`contract_edge` without the emptiness test, for callers that
    hold a feasible point at which the edge is tight."""
    kept, removed = graph.edges[edge_index]
    edge_cost = costs[edge_index]
    if removed == ANCHOR:
        order = [kept] + [v for v in range(1, graph.node_count) if v != kept]
        new_index = {old: new for new, old in enumerate(order)}
        new_index[ANCHOR] = new_index[kept]
        shift = -edge_cost
    else:
        new_index = {}
        for v in range(graph.node_count):
            if v == removed:
                new_index[v] = kept if kept < removed else kept - 1
            else:
                new_index[v] = v if v < removed else v - 1
        shift = Fraction(0)
    node_map = tuple(new_index[v] for v in range(graph.node_count))

    new_edges: list[tuple[int, int]] = []
    new_costs: list[Fraction] = []
    edge_map: list[int | None] = []
    position: dict[tuple[int, int], int] = {}
    for i, ((tail, head), cost) in enumerate(zip(graph.edges, costs)):
        if i == edge_index:
            edge_map.append(None)
            continue
        adjusted = cost
        if tail == removed:
            adjusted = cost + edge_cost
        elif head == removed:
            adjusted = cost - edge_cost
        pair = (node_map[tail], node_map[head])
        if pair[0] == pair[1]:
            # only the antiparallel partner can collapse to a loop
            if adjusted < 0:
                raise NegativeSelfLoop(
                    f"loop cost {adjusted} < 0; the edge's face is empty"
                )
            edge_map.append(None)
            continue
        if pair in position:
            k = position[pair]
            new_costs[k] = min(new_costs[k], adjusted)
            edge_map.append(k)
        else:
            position[pair] = len(new_edges)
            edge_map.append(len(new_edges))
            new_edges.append(pair)
            new_costs.append(adjusted)
    contracted = Digraph(graph.node_count - 1, tuple(new_edges))
    contracted_costs = tuple(new_costs)
    record = ContractionRecord(
        original_graph=graph,
        original_costs=costs,
        graph=contracted,
        costs=contracted_costs,
        edge_index=edge_index,
        kept_node=kept,
        removed_node=removed,
        edge_cost=edge_cost,
        node_map=node_map,
        edge_map=tuple(edge_map),
        shift=shift,
    )
    return contracted, contracted_costs, record


def _lift_raw(record: ContractionRecord, point: Point) -> Point:
    coords = []
    for v in range(record.original_graph.node_count):
        if v == record.removed_node:
            base = point[record.node_map[record.kept_node]]
            coords.append(base + record.edge_cost + record.shift)
        else:
            coords.append(point[record.node_map[v]] + record.shift)
    return Point(tuple(coords))


def lift_point(record: ContractionRecord, point: Point) -> Point:
    """Map a contracted-instance point back to the original coordinates.

    The removed coordinate is restored from the tight contracted edge; when
    feasible input lifts to an infeasible point the cost adjustment is wrong
    and :class:`InfeasibleLift` reports the internal inconsistency.
    """
    if len(point) != record.graph.node_count:
        raise DimensionMismatch("point does not belong to the contracted instance")
    lifted = _lift_raw(record, point)
    if is_feasible(record.graph, record.costs, point) and not is_feasible(
        record.original_graph, record.original_costs, lifted
    ):
        raise InfeasibleLift("feasible point lifted to an infeasible one")
    return lifted


def project_point(record: ContractionRecord, point: Point) -> Point:
    """Map an original-instance point lying on the contracted face down to
    the contracted instance (inverse of :func:`lift_point`)."""
    if len(point) != record.original_graph.node_count:
        raise DimensionMismatch("point does not belong to the original instance")
    coords: list[Fraction | None] = [None] * record.graph.node_count
    for v in range(record.original_graph.node_count):
        if v != record.removed_node:
            coords[record.node_map[v]] = point[v] - record.shift
    return Point(tuple(coords))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# pivots


def last_backward_edge(
    graph: Digraph, tree: Sequence[int] | frozenset[int], start: int, goal: int
) -> tuple[int, frozenset[int], frozenset[int]]:
    """On the tree path from ``start`` to ``goal``, find the last edge
    directed away from ``goal`` and the two components of the tree minus it.

    Returns ``(edge_index, side_of_start, side_of_goal)``; raises
    :class:`NoBackwardEdge` when every path edge already points toward the
    goal (a tight directed path, excluded for valid pivots).
    """
    if start == goal:
        raise ValidationError("start and goal coincide")
    tree = check_spanning_tree(graph, tree)
    adj, edge_of = tree_adjacency(graph, tree)
    parents = bfs_parents(start, adj.__getitem__)
    # walking back from the goal, the first edge whose tail lies nearer the
    # goal is the last one on the path pointing away from it
    node = goal
    while node != start:
        prev = parents[node]
        chosen = edge_of[prev, node]
        if graph.edges[chosen][0] == node:
            break
        node = prev
    else:
        raise NoBackwardEdge("the whole tree path is directed toward the goal")
    side_of_start = frozenset(
        bfs_parents(start, lambda v: [w for w in adj[v] if edge_of[v, w] != chosen])
    )
    side_of_goal = frozenset(range(graph.node_count)) - side_of_start
    return chosen, side_of_start, side_of_goal


def build_insertion_partition(
    graph: Digraph, costs: CostVector, point: Point, edge_index: int
) -> tuple[PartitionCircuit, int]:
    """Build the circuit whose step shrinks the slack of the given edge.

    The goal side collects the edge's head plus every node with a tight
    directed path into it; the start side is the component of the edge's
    tail in the underlying graph without the goal side; whatever remains
    joins the goal side.  The result is returned in canonical form (anchor
    outside the stored set) with the matching sign.
    """
    if not (0 <= edge_index < graph.edge_count):
        raise EdgeMissing(f"edge index {edge_index} out of range")
    if not is_feasible(graph, costs, point):
        raise InfeasiblePoint("partition construction needs a feasible point")
    if slack(graph, costs, point, edge_index) == 0:
        raise ValidationError("edge is already tight")
    circuit, sign, _ = _insertion_partition(graph, costs, point, edge_index)
    return circuit, sign


def _insertion_partition(
    graph: Digraph, costs: CostVector, point: Point, edge_index: int
) -> tuple[PartitionCircuit, int, frozenset[int]]:
    """:func:`build_insertion_partition` for a feasible point at which the
    edge is loose; also returns the nodes with a tight directed path into
    the edge's head."""
    start, goal = graph.edges[edge_index]
    into: list[list[int]] = [[] for _ in range(graph.node_count)]
    for i in tight_graph(graph, costs, point):
        tail, head = graph.edges[i]
        into[head].append(tail)
    goal_side = frozenset(bfs_parents(goal, into.__getitem__))
    if start in goal_side:
        raise PathConflict(
            "a tight directed path already runs from the edge's tail to its head"
        )
    adj = underlying_adjacency(graph)
    start_side = set(
        bfs_parents(start, lambda v: [w for w in adj[v] if w not in goal_side])
    )
    full_goal_side = set(range(graph.node_count)) - start_side
    if not connected_in_underlying(graph, full_goal_side):
        raise InvalidPartition("goal side is disconnected")
    if not connected_in_underlying(graph, start_side):
        raise InvalidPartition("start side is disconnected")
    if ANCHOR in start_side:
        return PartitionCircuit(frozenset(full_goal_side)), 1, goal_side
    return PartitionCircuit(frozenset(start_side)), -1, goal_side


# ---------------------------------------------------------------------------
# walk builders


def walk_from_points(
    graph: Digraph, costs: CostVector, points: Sequence[Point], mode: str
) -> Walk:
    """Assemble a walk by recovering the signed step of each move."""
    steps = tuple(
        step_between(graph, costs, points[i], points[i + 1])
        for i in range(len(points) - 1)
    )
    return Walk(tuple(points), steps, mode)


def _lexmin_tree(graph: Digraph, tight: frozenset[int]) -> list[int]:
    """Lexicographically smallest spanning tree inside a tight set."""
    parent = list(range(graph.node_count))
    tree = []
    for i in sorted(tight):
        tail, head = graph.edges[i]
        rt, rh = _find(parent, tail), _find(parent, head)
        if rt != rh:
            parent[rt] = rh
            tree.append(i)
    if len(tree) != graph.node_count - 1:
        raise NotAVertex("tight set does not span the graph")
    return tree


class _ContractionStack:
    """Original-space bookkeeping for a builder walking through contractions."""

    def __init__(self, graph: Digraph, costs: CostVector):
        self.graph = graph
        self.costs = costs
        self.records: list[ContractionRecord] = []

    def lift(self, point: Point) -> Point:
        for record in reversed(self.records):
            point = _lift_raw(record, point)
        return point

    def contract(self, point: Point, remaining: list[int]) -> tuple[Point, list[int]]:
        """Contract ``remaining[0]``, which is tight at the feasible point;
        return the point and the other remaining edges after contraction."""
        self.graph, self.costs, record = _contract(self.graph, self.costs, remaining[0])
        self.records.append(record)
        remaining = [record.edge_map[i] for i in remaining[1:]]
        if None in remaining:
            raise InternalInvariant("a target edge collapsed")
        return project_point(record, point), remaining


def edge_walk(
    graph: Digraph, costs: CostVector, source: Point, target: Point
) -> Walk:
    """Edge walk between two vertices of a nondegenerate instance.

    Repeatedly inserts the next missing target-tree edge by pivoting along
    the split at the last backward edge of the current tree, then contracts
    the inserted edge.  Any tie among entering inequalities reveals
    degeneracy and aborts.
    """
    for point in (source, target):
        if not is_vertex(graph, costs, point):
            raise NotAVertex(f"{tuple(point)} is not a vertex")
    target_tight = tight_graph(graph, costs, target)
    if len(target_tight) != graph.node_count - 1:
        raise DegenerateInstance("target vertex carries extra tight edges")
    if source == target:
        return Walk((source,), (), "edge")
    stack = _ContractionStack(graph, costs)
    current = source
    remaining = sorted(target_tight)
    points = [source]
    while remaining:
        rs = remaining[0]
        goal_tail, goal_head = stack.graph.edges[rs]
        seen_pivots = 0
        deleted: set[int] = set()
        bound = min(
            stack.graph.edge_count,
            stack.graph.node_count * (stack.graph.node_count - 1) // 2,
        )
        while slack(stack.graph, stack.costs, current, rs) != 0:
            tight = tight_graph(stack.graph, stack.costs, current)
            if len(tight) != stack.graph.node_count - 1:
                raise DegenerateInstance(
                    "a walk vertex carries extra tight edges; perturb the costs"
                )
            dropped, start_side, goal_side = last_backward_edge(
                stack.graph, tight, goal_tail, goal_head
            )
            if ANCHOR in start_side:
                circuit, sign = PartitionCircuit(goal_side), 1
            else:
                circuit, sign = PartitionCircuit(start_side), -1
            try:
                step = _max_step(stack.graph, stack.costs, current, circuit, sign)
            except NotApplicable as exc:
                raise DegenerateInstance(
                    "pivot blocked by an already-tight edge; perturb the costs"
                ) from exc
            if len(step.entering_edges) > 1:
                raise DegenerateInstance(
                    "pivot tightened several inequalities at once; perturb the costs"
                )
            if step.entering_edges & deleted:
                raise InternalInvariant("re-inserted a deleted edge")
            deleted.add(dropped)
            current = shift_point(current, circuit.s_set, sign * step.epsilon)
            points.append(stack.lift(current))
            seen_pivots += 1
            if seen_pivots > bound:
                raise InternalInvariant("pivot phase exceeded its guaranteed bound")
        current, remaining = stack.contract(current, remaining)
    if points[-1] != target:
        raise InternalInvariant("edge walk did not terminate at the target")
    return walk_from_points(graph, costs, points, "edge")


def circuit_walk(
    graph: Digraph, costs: CostVector, source: Point, target: Point
) -> Walk:
    """Circuit walk between two vertices; degeneracy is tolerated.

    Inserts each target-tree edge with at most ``nodes - 1`` maximal steps
    (the set of nodes that reach the edge's head by tight directed paths
    grows every step), contracting after every insertion.
    """
    for point in (source, target):
        if not is_vertex(graph, costs, point):
            raise NotAVertex(f"{tuple(point)} is not a vertex")
    if source == target:
        return Walk((source,), (), "circuit")
    target_tight = tight_graph(graph, costs, target)
    stack = _ContractionStack(graph, costs)
    current = source
    remaining = _lexmin_tree(graph, target_tight)
    points = [source]
    while remaining:
        rs = remaining[0]
        reach = None
        steps_in_phase = 0
        while slack(stack.graph, stack.costs, current, rs) != 0:
            # the partition's goal side is the reach set at the current point
            circuit, sign, grown = _insertion_partition(
                stack.graph, stack.costs, current, rs
            )
            if reach is not None and not grown > reach:
                raise InternalInvariant("insertion step did not grow the reach set")
            reach = grown
            step = _max_step(stack.graph, stack.costs, current, circuit, sign)
            current = shift_point(current, circuit.s_set, sign * step.epsilon)
            points.append(stack.lift(current))
            steps_in_phase += 1
            if steps_in_phase > stack.graph.node_count - 1:
                raise InternalInvariant("insertion phase exceeded its guaranteed bound")
        current, remaining = stack.contract(current, remaining)
    if points[-1] != target:
        raise InternalInvariant("circuit walk did not terminate at the target")
    return walk_from_points(graph, costs, points, "circuit")


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class WalkValidation:
    valid: bool
    violation: str | None = None


def validate_walk(graph: Digraph, costs: CostVector, walk: Walk) -> WalkValidation:
    """Check a walk point by point; violations are reported, never raised.

    Every point must be feasible; every move must be a positive multiple of
    a valid circuit vector, maximal, and faithfully recorded; in edge mode
    every point must additionally be a vertex and consecutive pairs must be
    adjacent on the skeleton.
    """
    for k, point in enumerate(walk.points):
        if len(point) != graph.node_count:
            return WalkValidation(False, f"point {k} has the wrong dimension")
        if not is_feasible(graph, costs, point):
            return WalkValidation(False, f"point {k} is infeasible")
    for k, step in enumerate(walk.steps):
        before, after = walk.points[k], walk.points[k + 1]
        moved = {
            v
            for v in range(graph.node_count)
            if before.coords[v] != after.coords[v]
        }
        if not moved:
            return WalkValidation(False, f"step {k} does not move")
        deltas = {after.coords[v] - before.coords[v] for v in moved}
        if len(deltas) != 1:
            return WalkValidation(
                False, f"step {k} is not a multiple of a 0/1 direction"
            )
        delta = deltas.pop()
        if frozenset(moved) != step.circuit.s_set:
            return WalkValidation(False, f"step {k} moves the wrong node set")
        if not is_valid_circuit(graph, step.circuit.s_set):
            return WalkValidation(False, f"step {k} uses an invalid circuit")
        sign = 1 if delta > 0 else -1
        if sign != step.sign or abs(delta) != step.epsilon:
            return WalkValidation(False, f"step {k} disagrees with its record")
        try:
            maximal = max_step(graph, costs, before, step.circuit, step.sign)
        except (NotApplicable, UnboundedDirection) as exc:
            return WalkValidation(False, f"step {k} is impossible: {exc}")
        if maximal.epsilon != step.epsilon:
            return WalkValidation(False, f"step {k} is not maximal")
        if maximal.entering_edges != step.entering_edges:
            return WalkValidation(False, f"step {k} records wrong entering edges")
    if walk.mode == "edge":
        # a vertex's tight edges join all nodes; two vertices are adjacent
        # when their common tight edges leave exactly two components
        tights = [tight_graph(graph, costs, point) for point in walk.points]
        for k, tight in enumerate(tights):
            pairs = [graph.edges[i] for i in tight]
            if component_count(graph.node_count, pairs) != 1:
                return WalkValidation(False, f"point {k} is not a vertex")
        for k in range(len(walk.points) - 1):
            pairs = [graph.edges[i] for i in tights[k] & tights[k + 1]]
            if component_count(graph.node_count, pairs) != 2:
                return WalkValidation(
                    False, f"points {k} and {k + 1} are not adjacent vertices"
                )
    return WalkValidation(True, None)


# ---------------------------------------------------------------------------
# perturbation


def perturb_costs(
    graph: Digraph, costs: CostVector, seed: int, denominator: int = 10**9
) -> CostVector:
    """Add independent random rationals with the given denominator; breaks
    ties so that degenerate instances become nondegenerate almost surely."""
    rng = random.Random(seed)
    return tuple(c + Fraction(rng.randrange(denominator), denominator) for c in costs)
