"""Constructive walk builders, edge contraction, and walk validation.

Both builders are one insertion driver: it drives the current point toward
the target's lexicographically smallest tight spanning tree, one target
edge at a time, stepping until the edge becomes tight and then pinning it,
so that later steps keep it tight.  Only the step rule depends on the
mode: pivots for edge walks, insertion partitions for circuit walks.

The builders build the instance's integer view (:class:`dualflow.model.Grid`),
check their endpoints on it (:func:`dualflow.model.check_vertices`) and
walk the original graph there.  The step rules take edge indices and
return node sets; a pinned edge counts as tight in both directions, so no
step separates its ends, and each step's S is a circuit by construction.
The driver keeps one slack per edge and updates it at the edges a step's S
moves, which :func:`dualflow.circuits.crossing_edges` splits into blocking
and loosening ones; every step is recorded as it is taken, with its length
converted to :class:`~fractions.Fraction` once.  No contracted instance is
built: :func:`contract_edge`, :func:`lift_point` and :func:`project_point`
serve callers that want the face polyhedron itself.

:func:`walk_from_points` turns points into walks by re-deriving each step
with :func:`dualflow.circuits.step_between`'s rule, on a grid; the oracles
hand their witness walks' grid states to its core.  :func:`validate_walk`
is the independent check: it reads every verdict off each point's integer
slacks, computed from the costs on a scale of its own (the lcm of the
denominators of the costs and of the walk's coordinates), decides each
step's circuit itself, and uses neither :class:`~dualflow.model.Grid` nor
any of the step or circuit code.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .circuits import (
    PartitionCircuit,
    SignedStep,
    _step_between,
    crossing_edges,
    is_valid_circuit,
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
    NotAVertex,
    PathConflict,
    ValidationError,
)
from .model import (
    ANCHOR,
    CostVector,
    Digraph,
    Grid,
    Point,
    Record,
    _check_vertices,
    _find,
    bfs_parents,
    check_costs,
    check_spanning_tree,
    component_count,
    feasibility_status,
    is_feasible,
    slack,
    tight_graph,
    tree_adjacency,
    underlying_adjacency,
)


class ContractionRecord(Record):
    """Everything needed to move points between an instance and the instance
    obtained by merging one tight edge's head into its tail.  Its numbers are
    in the units of the costs it was built from: rationals, or a
    :class:`~dualflow.model.Grid`'s integers."""

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


class Walk(Record):
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
    check_costs(graph, costs)
    if not (0 <= edge_index < graph.edge_count):
        raise EdgeMissing(f"edge index {edge_index} out of range")
    kept, removed = graph.edges[edge_index]
    edge_cost = costs[edge_index]
    # one endpoint's index leaves the order and that endpoint takes its
    # partner's; the anchor's index never leaves
    dropped, partner = (kept, removed) if removed == ANCHOR else (removed, kept)
    node_map = [v - (v > dropped) for v in range(graph.node_count)]
    node_map[dropped] = node_map[partner]
    shift = -edge_cost if removed == ANCHOR else 0

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
    if not feasibility_status(contracted, contracted_costs).feasible:
        raise FaceEmpty(f"no feasible point makes edge {edge_index} tight")
    record = ContractionRecord(
        original_graph=graph,
        original_costs=costs,
        graph=contracted,
        costs=contracted_costs,
        edge_index=edge_index,
        kept_node=kept,
        removed_node=removed,
        edge_cost=edge_cost,
        node_map=tuple(node_map),
        edge_map=tuple(edge_map),
        shift=shift,
    )
    return contracted, contracted_costs, record


def lift_point(record: ContractionRecord, point: Point) -> Point:
    """Map a contracted-instance point back to the original coordinates.

    Every node takes its contracted node's coordinate plus the record's
    shift, and the removed node adds the cost of the tight edge; when
    feasible input lifts to an infeasible point the cost adjustment is wrong
    and :class:`InfeasibleLift` reports the internal inconsistency.
    """
    if len(point) != record.graph.node_count:
        raise DimensionMismatch("point does not belong to the contracted instance")
    lifted = Point(tuple(
        point[x] + record.shift + (record.edge_cost if v == record.removed_node else 0)
        for v, x in enumerate(record.node_map)
    ))
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
# step rules
#
# Both rules take edge indices and return node sets.  The builders pin each
# inserted edge, and a pinned edge counts as tight in both directions, so no
# step separates its ends; the public functions below run the rules with
# nothing pinned.


def _last_backward(
    graph: Digraph, tree: Iterable[int], pinned: Collection[int], start: int, goal: int
) -> tuple[int, frozenset[int], frozenset[int]]:
    """On the path from ``start`` to ``goal`` in the spanning tree, the last
    edge directed away from ``goal`` that is not pinned, and the nodes on
    each side of the tree without it, each side joined by tree edges."""
    adj, edge_of = tree_adjacency(graph, tree)
    parents = bfs_parents(start, adj.__getitem__)
    # walking back from the goal, the first edge whose tail lies nearer the
    # goal is the last one on the path pointing away from it
    node = goal
    while node != start:
        prev = parents[node]
        chosen = edge_of[prev, node]
        if graph.edges[chosen][0] == node and chosen not in pinned:
            break
        node = prev
    else:
        raise NoBackwardEdge("the whole tree path is directed toward the goal")
    side_of_start = frozenset(
        bfs_parents(start, lambda v: [w for w in adj[v] if edge_of[v, w] != chosen])
    )
    return chosen, side_of_start, frozenset(range(graph.node_count)) - side_of_start


def _insertion_partition(
    graph: Digraph, tight: Iterable[int], pinned: Iterable[int], start: int, goal: int
) -> tuple[frozenset[int], int, frozenset[int]]:
    """The insertion partition of the loose edge from ``start`` to ``goal``:
    the S side (anchor outside), its sign, and the reach set, the nodes with
    a directed path into ``goal`` along tight edges, pinned ones either way.

    Both sides are connected: the start side is a component of the graph
    without the reach set, and every other node is joined to the reach set,
    itself connected, by a path that avoids the start side.
    """
    into: list[list[int]] = [[] for _ in range(graph.node_count)]
    for i in tight:
        tail, head = graph.edges[i]
        into[head].append(tail)
    for i in pinned:
        tail, head = graph.edges[i]
        into[tail].append(head)
    goal_side = frozenset(bfs_parents(goal, into.__getitem__))
    if start in goal_side:
        raise PathConflict(
            "a tight directed path already runs from the edge's tail to its head"
        )
    adjacency = underlying_adjacency(graph)
    start_side = frozenset(
        bfs_parents(start, lambda v: [w for w in adjacency[v] if w not in goal_side])
    )
    if ANCHOR in start_side:
        return frozenset(range(graph.node_count)) - start_side, 1, goal_side
    return start_side, -1, goal_side


def last_backward_edge(
    graph: Digraph, tree: Sequence[int] | frozenset[int], start: int, goal: int
) -> tuple[int, frozenset[int], frozenset[int]]:
    """On the tree path from ``start`` to ``goal``, find the last edge
    directed away from ``goal`` and the two components of the tree minus it.

    Returns ``(edge_index, side_of_start, side_of_goal)``; raises
    :class:`NoBackwardEdge` when every path edge already points toward the
    goal (a tight directed path, excluded for valid pivots).
    """
    if not (0 <= start < graph.node_count and 0 <= goal < graph.node_count):
        raise ValidationError(f"node {start} or {goal} out of range")
    if start == goal:
        raise ValidationError("start and goal coincide")
    return _last_backward(graph, check_spanning_tree(graph, tree), (), start, goal)


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
    s_set, sign, _ = _insertion_partition(
        graph, tight_graph(graph, costs, point), (), *graph.edges[edge_index]
    )
    if not is_valid_circuit(graph, s_set):
        raise InvalidPartition("a side of the partition is disconnected")
    return PartitionCircuit(s_set), sign


# ---------------------------------------------------------------------------
# walk builders


def walk_from_points(
    graph: Digraph, costs: CostVector, points: Sequence[Point], mode: str
) -> Walk:
    """Assemble a walk by recovering the signed step of each move, on a grid
    fine enough for the points as well as the costs.  The first point must be
    feasible (else :class:`InfeasiblePoint`) and each move a maximal step
    (else :class:`ValidationError`), so every later point, the end of a
    maximal step from a feasible point, is feasible without a check; edge
    mode checks neither vertices nor adjacency, which :func:`validate_walk`
    does."""
    check_costs(graph, costs)
    grid = Grid(costs, points)
    states = [grid.to_state(p) for p in points]
    if states and not is_feasible(graph, grid.costs, states[0]):
        raise InfeasiblePoint("the walk's first point is infeasible")
    return _walk_from_states(graph, grid, states, mode)


def _walk_from_states(graph: Digraph, grid: Grid, states: Sequence, mode: str) -> Walk:
    """:func:`walk_from_points` on its points' grid states, the first one
    feasible: each step is re-derived there, and each point built once."""
    steps = []
    for before, after in zip(states, states[1:]):
        step = _step_between(graph, grid.costs, before, after, grid.scale)
        steps.append(SignedStep(
            step.circuit, step.sign, grid.to_rational(step.epsilon), step.entering_edges
        ))
    return Walk(tuple(map(grid.to_point, states)), tuple(steps), mode)


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


def _insertion_walk(
    graph: Digraph, costs: CostVector, source: Point, target: Point, mode: str
) -> Walk:
    """The walk that inserts each edge of the target's lexicographically
    smallest tight spanning tree in turn, stepping until the edge is tight
    and then pinning it.  Runs on the costs' grid, from the endpoint
    states that the endpoint check returns on it; an edge walk's target
    must carry no extra tight edge.

    The state is the point and one slack per edge, updated only at the
    edges that cross a step's S.  A class is the nodes joined by pinned
    edges, and ``c`` is the number of classes.  An edge walk pivots at the
    last backward edge on the tree path from the inserted edge's tail to
    its head, the tree being the pinned edges plus one tight edge per
    ordered pair of classes; any tie aborts, and the class pairs it pivots
    out may not come back.  Only these counts read the label per node that
    names its class.  A circuit walk steps along the insertion partition,
    whose reach set must grow every step.  Each step is recorded on the
    original graph as it is taken.
    """
    check_costs(graph, costs)
    grid = Grid(costs)
    tights, (source_state, target_state) = _check_vertices(graph, costs, grid, (source, target))
    n, target_tight = graph.node_count, tights[1]
    if mode == "edge" and len(target_tight) != n - 1:
        raise DegenerateInstance("target vertex carries extra tight edges")
    if source == target:
        return Walk((source,), (), mode)
    edges = graph.edges
    state = list(source_state)
    slacks = [c - state[head] + state[tail] for c, (tail, head) in zip(grid.costs, edges)]
    pinned: list[int] = []
    label = list(range(n))
    points, steps = [grid.to_point(state)], []
    for inserted in _lexmin_tree(graph, target_tight):
        start, goal = edges[inserted]
        c = n - len(pinned)
        phase: list = []  # pivoted-out class pairs, or reach sets
        if mode == "edge":
            pair_of = [(label[tail], label[head]) for tail, head in edges]
            bound = min(len({p for p in pair_of if p[0] != p[1]}), c * (c - 1) // 2)
        while slacks[inserted]:
            tight = [i for i, x in enumerate(slacks) if not x]
            if mode == "edge":
                across = {pair_of[i]: i for i in tight if pair_of[i][0] != pair_of[i][1]}
                if len(across) != c - 1:
                    raise DegenerateInstance(
                        "a walk vertex carries extra tight edges; perturb the costs"
                    )
                dropped, start_side, goal_side = _last_backward(
                    graph, pinned + list(across.values()), pinned, start, goal
                )
                s_set, sign = (goal_side, 1) if ANCHOR in start_side else (start_side, -1)
            else:
                s_set, sign, reach = _insertion_partition(graph, tight, pinned, start, goal)
                if phase and not reach > phase[-1]:
                    raise InternalInvariant("insertion step did not grow the reach set")
                phase.append(reach)
                if len(phase) > c - 1:
                    raise InternalInvariant("insertion phase exceeded its guaranteed bound")
            into, out = crossing_edges(graph, s_set)
            blocking, loosening = (into, out) if sign > 0 else (out, into)
            epsilon = min((slacks[i] for i in blocking), default=0)
            if epsilon <= 0:
                raise InternalInvariant("a step is blocked at once or not at all")
            for i in blocking:
                slacks[i] -= epsilon
            for i in loosening:
                slacks[i] += epsilon
            entering = frozenset(i for i in blocking if not slacks[i])
            if mode == "edge":
                entering_pairs = {pair_of[i] for i in entering}
                if len(entering_pairs) > 1:
                    raise DegenerateInstance(
                        "pivot tightened several inequalities at once; perturb the costs"
                    )
                if entering_pairs.intersection(phase):
                    raise InternalInvariant("re-inserted a deleted edge")
                phase.append(pair_of[dropped])
                if len(phase) > bound:
                    raise InternalInvariant("pivot phase exceeded its guaranteed bound")
            for v in s_set:
                state[v] += sign * epsilon
            points.append(grid.to_point(state))
            steps.append(SignedStep(
                PartitionCircuit(s_set), sign, grid.to_rational(epsilon), entering
            ))
        pinned.append(inserted)
        kept, merged = label[start], label[goal]
        label = [kept if x == merged else x for x in label]
    if tuple(state) != target_state:
        raise InternalInvariant(f"{mode} walk did not terminate at the target")
    return Walk(tuple(points), tuple(steps), mode)


def edge_walk(
    graph: Digraph, costs: CostVector, source: Point, target: Point
) -> Walk:
    """Edge walk between two vertices of a nondegenerate instance.

    Repeatedly inserts the next missing target-tree edge by pivoting along
    the split at the last backward edge of the current tree, then pins the
    inserted edge.  Any tie among entering inequalities reveals degeneracy
    and aborts, and so does a target with extra tight edges.  Endpoints are
    checked by :func:`dualflow.model.check_vertices`.
    """
    return _insertion_walk(graph, costs, source, target, "edge")


def circuit_walk(
    graph: Digraph, costs: CostVector, source: Point, target: Point
) -> Walk:
    """Circuit walk between two vertices; degeneracy is tolerated.

    Inserts each target-tree edge with at most ``nodes - 1`` maximal steps
    (the set of nodes that reach the edge's head by tight directed paths
    grows every step), pinning it after every insertion.  Endpoints are
    checked by :func:`dualflow.model.check_vertices`.
    """
    return _insertion_walk(graph, costs, source, target, "circuit")


# ---------------------------------------------------------------------------
# validation


class WalkValidation(Record):
    valid: bool
    violation: str | None = None


def validate_walk(graph: Digraph, costs: CostVector, walk: Walk) -> WalkValidation:
    """Check a walk point by point; violations are reported, never raised.

    Every point must be feasible; every move must be a positive multiple of
    a valid circuit vector, maximal, and faithfully recorded; in edge mode
    every point must additionally be a vertex and consecutive pairs must be
    adjacent on the skeleton.

    Every check reads one integer slack vector per point, on the walk's own
    scale ``L``: the lcm of the denominators of the costs and of every
    coordinate of every point, so that each point converts to integers
    exactly, once.  Each point's slacks come from the scaled costs,
    ``c - u_head + u_tail``, and each step's move is the difference of two
    consecutive points.  A step's S is a circuit when S and its complement
    are each connected by the edges among them, decided here by a search
    over neighbour bitmasks; the edge-mode vertex and adjacency tests count
    components with :func:`~dualflow.model.component_count`.  The scale is
    computed here, not taken from :class:`~dualflow.model.Grid`, and no
    step or circuit code of :mod:`dualflow.circuits` runs here, so the
    check shares no arithmetic with what it checks.
    """
    check_costs(graph, costs)
    n, edges = graph.node_count, graph.edges
    denominators = {c.denominator for c in costs}
    denominators.update(x.denominator for p in walk.points for x in p.coords)
    scale = math.lcm(1, *denominators)
    scaled = [c.numerator * (scale // c.denominator) for c in costs]
    states: list[list[int]] = []
    slacks: list[list[int]] = []
    for k, point in enumerate(walk.points):
        if len(point) != n:
            return WalkValidation(False, f"point {k} has the wrong dimension")
        state = [x.numerator * (scale // x.denominator) for x in point]
        s = [c - state[head] + state[tail] for c, (tail, head) in zip(scaled, edges)]
        if any(x < 0 for x in s):
            return WalkValidation(False, f"point {k} is infeasible")
        states.append(state)
        slacks.append(s)
    neighbours = [0] * n
    for tail, head in edges:
        neighbours[tail] |= 1 << head
        neighbours[head] |= 1 << tail

    def connected(mask: int) -> bool:
        """Whether the edges among the nodes of ``mask`` join them all."""
        reach = todo = mask & -mask
        while todo:
            node = todo & -todo
            grown = neighbours[node.bit_length() - 1] & mask & ~reach
            reach |= grown
            todo = (todo ^ node) | grown
        return reach == mask

    for k, step in enumerate(walk.steps):
        shift = {v: x - y for v, (x, y) in enumerate(zip(states[k + 1], states[k])) if x != y}
        if not shift:
            return WalkValidation(False, f"step {k} does not move")
        deltas = set(shift.values())
        if len(deltas) != 1:
            return WalkValidation(
                False, f"step {k} is not a multiple of a 0/1 direction"
            )
        delta = deltas.pop()
        s_set = step.circuit.s_set
        if frozenset(shift) != s_set:
            return WalkValidation(False, f"step {k} moves the wrong node set")
        # the anchor never moves, so the complement is never empty
        mask = sum(1 << v for v in s_set)
        if not (connected(mask) and connected(((1 << n) - 1) ^ mask)):
            return WalkValidation(False, f"step {k} uses an invalid circuit")
        sign = 1 if delta > 0 else -1
        if sign != step.sign or Fraction(abs(delta), scale) != step.epsilon:
            return WalkValidation(False, f"step {k} disagrees with its record")
        # edges into S block a rise, edges out of S a fall, and each loses
        # the step's length of slack: the step is maximal when one ends
        # tight, and those are its entering edges.  One tight before the
        # step would be negative after it, which the point checks report.
        blocking = [i for i, (t, h) in enumerate(edges) if (h in s_set) - (t in s_set) == sign]
        if not blocking:
            return WalkValidation(
                False, f"step {k} is impossible: no edge bounds this direction"
            )
        entering = frozenset(i for i in blocking if slacks[k + 1][i] == 0)
        if not entering:
            return WalkValidation(False, f"step {k} is not maximal")
        if entering != step.entering_edges:
            return WalkValidation(False, f"step {k} records wrong entering edges")
    if walk.mode == "edge":
        # a vertex's tight edges join all nodes; two vertices are adjacent
        # when their common tight edges leave exactly two components
        tights = [frozenset(i for i, x in enumerate(s) if x == 0) for s in slacks]
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
    check_costs(graph, costs)
    if not isinstance(denominator, int) or denominator < 1:
        raise ValidationError(f"denominator {denominator!r} is not a positive integer")
    rng = random.Random(seed)
    return tuple(c + Fraction(rng.randrange(denominator), denominator) for c in costs)
