"""Ground-truth oracles: the skeleton that the vertex solve's pivot search
finds, and exact distances/diameters by breadth-first search.

Every distance and diameter query is split at the cut vertices (see
:func:`dualflow.model.blocks`).  The polyhedron is the product of its
blocks' polyhedra, so the skeleton is the Cartesian product of the blocks'
skeletons, and every circuit lies inside one block.  Each block is
searched on its own and the lengths add.  Each query checks the costs on
entry and reads the rest from its instance's record (``model._Instance``):
the grid that the endpoints are checked on, each block's record, and the
one map between whole and block-local grid states, ``split`` and
``join``.  Witness walks move one block at a time on the whole grid, and
the core of :func:`walk_from_points` re-derives each step and builds each
point once.  A 2-connected graph is one block.  The depth and state caps
bound the whole query and ``tree_cap`` each block's vertices.

Both distances and both diameters run one breadth-first search
(:func:`_search`) over a block's space; only the space depends on the
mode.  Edge walks search the skeleton, whose states are vertex indices.
Circuit walks search the block's integer view,
:class:`dualflow.model.Grid` (all coordinates are multiples of 1/L where L
is the lcm of the cost denominators), which keeps the states hashable and
the arithmetic cheap without leaving exact arithmetic.  Its directions and
their blocking edges are the graph's
:func:`dualflow.circuits.direction_table`, so the search stops each step
where :func:`dualflow.circuits.max_step` does; only the slack arithmetic
runs on integers.  That space tests whether its last
targets lie one or two steps from the frontier instead of generating the
layers that hold them (see :meth:`_ScaledInstance.goal_test`), so the
search stores only the layers it expands and the chains to those targets.
Both diameters start from the skeleton's eccentricities, found at once
(:func:`_eccentricities`); a circuit diameter searches both spaces, as edge
distances bound circuit distances and so pick its sources and targets.
Edge queries read no depth or state cap.  A cap error names the cap the
caller passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import sub
from typing import Sequence

from .circuits import direction_table, uniform_shift
from .errors import (
    DepthCapExceeded,
    FrontierTooLarge,
    IdenticalPoints,
    InfeasibleInstance,
    InternalInvariant,
    ValidationError,
)
from .model import (
    CostVector,
    DEFAULT_TREE_CAP,
    Digraph,
    Grid,
    Point,
    _Instance,
    _NO_VERTEX,
    _Skeleton,
    _check_vertices,
    _instance,
    check_costs,
    check_vertices,
    component_count,
    enumerate_vertices,
)
from .walks import Walk, _walk_from_states

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


# ---------------------------------------------------------------------------
# search spaces


@lru_cache(maxsize=64)
def _circuit_table(graph: Digraph) -> tuple:
    """The graph's half of :class:`_ScaledInstance`, in its attributes'
    order, cached per graph like :func:`dualflow.circuits.direction_table`."""
    directions = direction_table(graph)
    # the two-step test's index of the directions: (bitmask of S, sign)
    # -> the direction's rank in generation order and its members
    ranks = {
        (sum(1 << v for v in members), sign): (rank, members)
        for rank, (members, sign) in enumerate(directions)
    }
    # Testing a frontier state for two steps took 12-15 µs on every block
    # measured (CPython 3.11, Xeon); expanding it took 5 µs on the
    # example's 14 directions, 14 µs on bipartite 3x3's 42 and 37 µs on
    # 3x4's 91.  A hit also spares the layer after, so the two-step scan
    # runs from 4·|V| directions up, which keeps 4-node blocks (at most
    # 14 directions) on the one-step test.
    two_layers = len(directions) >= 4 * graph.node_count
    free_nodes = (1 << graph.node_count) - 2  # every node but the anchor
    tails, heads = [e[0] for e in graph.edges], [e[1] for e in graph.edges]
    return tails, heads, directions, ranks, free_nodes, two_layers


class _ScaledInstance:
    """A block's signed circuits on its record's :class:`Grid`: the
    circuit search's space, whose states are grid points."""

    def __init__(self, graph: Digraph, grid: Grid):
        self.costs = grid.costs
        (self.tails, self.heads, self.directions, self.ranks, self.free_nodes,
         self.two_layers) = _circuit_table(graph)

    from_grid = to_grid = staticmethod(lambda state: state)  # grid states are search states

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
        shift = uniform_shift(state, target)
        if shift is None:
            return False
        members, delta = shift
        blocking = self.directions.get((members, 1 if delta > 0 else -1))
        return blocking is not None and self.slack(state, blocking) == abs(delta)

    def slack(self, state: tuple[int, ...], blocking: Sequence[int]) -> int:
        """The smallest slack of the blocking edges at ``state``: the length
        of the direction's maximal step."""
        return min(
            self.costs[i] - state[self.heads[i]] + state[self.tails[i]]
            for i in blocking
        )

    def two_step(
        self, state: tuple[int, ...], target: tuple[int, ...]
    ) -> tuple[int, ...] | None:
        """The first state ``z`` of ``neighbors(state)``, in order, with
        ``target`` in ``neighbors(z)``, or None when ``target`` is not two
        steps from ``state``, or is one step from it or ``state`` itself.

        Decided from ``d = target - state``.  With ``z = state + δ₁·χ(S₁)``
        and ``target = z + δ₂·χ(S₂)``, ``d`` is δ₁ on the nodes of S₁ alone,
        δ₂ on those of S₂ alone and δ₁ + δ₂ on both, so it has at most three
        distinct nonzero values, and the pair (δ₁, δ₂) comes from them: both
        are values, or one is a value c (or 0) minus the other.  A pair fixes
        ``S₁`` except for the nodes of value δ₁ when δ₁ = δ₂, which may lie
        in either set, and the zero nodes when δ₁ = −δ₂, which may lie in
        both or neither; those are enumerated.  A candidate ``S₁`` counts if
        it keys a direction of sign δ₁ whose smallest blocking slack is
        exactly |δ₁|, and ``target`` is one step from the ``z`` it gives.
        ``S₁ = S₂`` needs no case: it lands on ``state`` or on one step
        from it."""
        values = set(map(sub, target, state))
        values.discard(0)
        if not values or len(values) > 3:
            return None
        if len(values) == 1 and self.one_step(state, target):
            return None
        classes = dict.fromkeys(values, 0)  # value of d -> bitmask of its nodes
        for v, (a, b) in enumerate(zip(state, target)):
            if a != b:
                classes[b - a] |= 1 << v
        zero = self.free_nodes & ~sum(classes.values())
        pairs = set()
        for second in values:
            for first in values:
                pairs.add((first, second))
            for c in values | {0}:
                if c != second:
                    pairs.update(((c - second, second), (second, c - second)))
        candidates = set()  # (rank, δ₁, members) of each direction S₁ may be
        for first, second in pairs:
            both = first + second
            if not classes.keys() <= {first, second, both}:
                continue
            if first == second:
                fixed, open_nodes = classes.get(both, 0), classes[first]
            elif both == 0:
                fixed, open_nodes = classes.get(first, 0), zero
            else:
                fixed, open_nodes = classes.get(first, 0) | classes.get(both, 0), 0
            sign = 1 if first > 0 else -1
            subset = open_nodes
            while True:
                entry = self.ranks.get((fixed | subset, sign))
                if entry is not None:
                    candidates.add((entry[0], first, entry[1]))
                if not subset:
                    break
                subset = (subset - 1) & open_nodes
        for _, first, members in sorted(candidates):
            blocking = self.directions[members, 1 if first > 0 else -1]
            if self.slack(state, blocking) != abs(first):
                continue
            middle = list(state)
            for v in members:
                middle[v] += first
            middle = tuple(middle)
            if self.one_step(middle, target):
                return middle
        return None

    def goal_test(
        self,
        frontier: Sequence[tuple[int, ...]],
        targets: Sequence[tuple[int, ...]],
        found: dict,
        two_fit: bool,
    ) -> list[tuple[tuple[int, ...], ...]] | None:
        """A chain from the frontier to each target not in ``found``, or
        None when some such target is neither one nor two steps from any
        frontier state.  Targets are tested one at a time: the frontier is
        scanned for a state one step from the target, and if none is, for a
        state two steps from it.  The chain is the one a full expansion
        would record: the first frontier state one step from the target;
        else the first frontier state two steps from it, with its first
        neighbour, in order, one step from the target.

        Testing a state against fewer targets than there are directions
        costs less than expanding it; with more targets the frontier is not
        tested, and the answer is None.  The two-step scan runs only when
        ``two_fit`` says that a two-step chain ends within the depth cap,
        and only on blocks where :attr:`two_layers` holds."""
        if len(targets) - len(found) >= len(self.directions):
            return None
        two_steps = two_fit and self.two_layers
        chains = []
        for target in targets:
            if target in found:
                continue
            # One pass over the frontier tests it for one step and keeps, in
            # order, the states whose difference to the target has few
            # enough distinct entries to be two steps from it: a one-step
            # difference has at most two (δ and 0), a two-step one four.
            near = []
            for state in frontier:
                distinct = len(set(map(sub, target, state)))
                if distinct <= 2 and self.one_step(state, target):
                    chains.append((state, target))
                    break
                if two_steps and distinct <= 4:
                    near.append(state)
            else:
                if not two_steps:
                    return None
                for state in near:
                    middle = self.two_step(state, target)
                    if middle is not None:
                        chains.append((state, middle, target))
                        break
                else:
                    return None
        return chains


_Space = _ScaledInstance | _Skeleton


def _space(mode: str, part: _Instance, tree_cap: int) -> _Space:
    """One block's search space, from its record: its skeleton for edge
    walks, within ``tree_cap`` vertices, its grid points and their circuit
    steps for circuit walks."""
    return part.skeleton(tree_cap) if mode == "edge" else _ScaledInstance(part.graph, part.grid)


# ---------------------------------------------------------------------------
# search


def default_depth_cap(graph: Digraph) -> int:
    n = graph.node_count
    return n * (n - 1) // 2


@dataclass(frozen=True)
class _Reach:
    """One search: the depth of each target state, and the search tree
    that gives a shortest chain on demand."""

    parents: dict
    depths: dict

    def path(self, state) -> list:
        """The states of a shortest chain from the start to ``state``."""
        states = [state]
        while self.parents[states[-1]] is not None:
            states.append(self.parents[states[-1]])
        return states[::-1]


def _search(
    space: _Space,
    start,
    targets: Sequence,
    depth_cap: float,
    state_cap: float,
    spent: tuple[float, float] = (0, 0),
) -> _Reach:
    """Breadth-first search over one block's space from the state ``start``
    until every target state is found; the oracles call it once per block.

    Each layer's frontier first goes to the space's goal test.  When that
    gives every remaining target a chain from the frontier, one or two
    steps long, the chain a full expansion would record, the search stores
    those chains and stops: the last one or two layers are never generated.
    Otherwise the frontier is expanded.  A two-step chain is asked for only
    where it ends within the depth cap.

    The caps bound the whole query, of which earlier blocks' searches have
    spent ``spent``: a depth and a count of stored states.  Raises
    :class:`FrontierTooLarge` when the query would store more than
    ``state_cap`` states and :class:`DepthCapExceeded` when some target lies
    deeper than the query's ``depth_cap`` allows; both name the caps as
    passed.
    """
    max_depth = depth_cap - spent[0]
    max_states = state_cap - spent[1]
    wanted = set(targets)
    parents = {start: None}
    depths = {start: 0} if start in wanted else {}
    frontier = [start]
    depth = 0
    while frontier and len(depths) < len(wanted) and depth < max_depth:
        depth += 1
        chains = space.goal_test(frontier, targets, depths, depth < max_depth)
        if chains is not None:
            for chain in chains:
                for parent, state in zip(chain, chain[1:]):
                    if state not in parents:
                        parents[state] = parent
                        if len(parents) > max_states:
                            raise FrontierTooLarge(f"more than {state_cap} states explored")
                depths[chain[-1]] = depth + len(chain) - 2
            break
        next_frontier = []
        for parent in frontier:
            for state in space.neighbors(parent):
                if state in parents:
                    continue
                parents[state] = parent
                if len(parents) > max_states:
                    raise FrontierTooLarge(f"more than {state_cap} states explored")
                next_frontier.append(state)
                if state in wanted:
                    depths[state] = depth
        frontier = next_frontier
    if len(depths) < len(wanted):
        raise DepthCapExceeded(f"target not reached within depth {depth_cap}")
    return _Reach(parents, depths)


# ---------------------------------------------------------------------------
# distances


def _walk_through_blocks(instance: _Instance, chains: Sequence) -> list:
    """The whole graph's grid states of a walk that runs each block's chain
    of local states in turn, moving one block at a time: every other block
    stays at its chain's end if it came earlier, else at its start."""
    current = [chain[0] for chain in chains]
    states = [instance.join(current)]
    for index, chain in enumerate(chains):
        for local in chain[1:]:
            current[index] = local
            states.append(instance.join(current))
    return states


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
    the states that the earlier blocks left.  Runs on the record's grid
    from start to finish: the endpoint check's states are split into the
    blocks' local states, and the blocks' chains are joined back."""
    check_costs(graph, costs)
    instance = _instance(graph, tuple(costs))
    _, ends = _check_vertices(graph, costs, instance.grid, (source, target))
    chains = []
    depth = states = 0
    starts, goals = map(instance.split, ends)
    for part, start, goal in zip(instance.parts, starts, goals):
        space = _space(mode, part, tree_cap)
        start, goal = space.from_grid(start), space.from_grid(goal)
        reach = _search(space, start, [goal], depth_cap, state_cap, (depth, states))
        depth += reach.depths[goal]
        states += len(reach.parents)
        chains.append(list(map(space.to_grid, reach.path(goal))))
    walk = _walk_from_states(graph, instance.grid, _walk_through_blocks(instance, chains), mode)
    return DistanceResult(walk.length, walk)


def combinatorial_distance(
    graph: Digraph,
    costs: CostVector,
    source: Point,
    target: Point,
    tree_cap: int = DEFAULT_TREE_CAP,
) -> DistanceResult:
    """Exact shortest edge-walk length.  The skeleton is the Cartesian
    product of the blocks' skeletons, so each block's skeleton is searched
    breadth-first and the lengths add; ``tree_cap`` bounds each block's
    vertices, and no depth or state cap applies.  Endpoints are checked by
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


_BALL_WIDTH = 256  # columns per chunk of _eccentricities' int bitmask balls


def _eccentricities(adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Each vertex's eccentricity in the undirected graph ``adjacency``: the
    largest radius at which its ball, over :data:`_BALL_WIDTH` columns at a
    time, is not full.  A radius-(d+1) ball joins the radius-d balls of the
    vertex and its neighbours.  If no ball grows, raises InternalInvariant."""
    count = len(adjacency)
    radii = [0] * count
    for low in range(0, count, _BALL_WIDTH):
        columns = range(low, min(low + _BALL_WIDTH, count))
        full = (1 << len(columns)) - 1
        balls = [1 << (v - low) if v in columns else 0 for v in range(count)]
        growing = [v for v in range(count) if balls[v] != full]
        radius = 0
        while growing:
            radius += 1
            grown = balls.copy()
            for v in growing:
                if radii[v] < radius:
                    radii[v] = radius
                ball = balls[v]
                for u in adjacency[v]:
                    ball |= balls[u]
                grown[v] = ball
            if grown == balls:
                raise InternalInvariant("the skeleton is not connected")
            balls, growing = grown, [v for v in growing if grown[v] != full]
    return radii


def _diameter(
    mode: str,
    part: _Instance,
    tree_cap: int,
    depth_cap: float,
    state_cap: float,
    spent: tuple[float, float] = (0, 0),
) -> tuple[int, tuple[int, int], int]:
    """One block's diameter, from its record, the pair of vertex indices
    attaining it, and the most states one search held.  The pair is the
    first source in vertex order whose eccentricity is the diameter, with
    the last of its farthest vertices in vertex order.  The caps and
    ``spent`` are :func:`_search`'s; a block without vertices (a
    negative-cost cycle) raises :class:`InfeasibleInstance`.

    Edge mode searches from the first source of the largest edge
    eccentricity.  In circuit mode no circuit distance exceeds the edge
    distance, as a skeleton edge is a maximal circuit step: a source whose
    edge eccentricity is at most the best so far is skipped unsearched, and
    a kept source searches only the targets at edge distance above it.  A
    dropped target can neither raise the diameter nor be the farthest vertex
    of a source that does, and the first source that attains the diameter is
    never skipped, so the value and pair are those of searching every pair."""
    skeleton = part.skeleton(tree_cap)
    if not skeleton.states:
        raise InfeasibleInstance(_NO_VERTEX)
    space = _space(mode, part, tree_cap)
    states = list(map(space.from_grid, skeleton.states))  # range(len(states)) on edges
    radii = _eccentricities(skeleton.adjacency)
    sources = range(len(states)) if mode == "circuit" else [radii.index(max(radii))]
    best, pair, held = 0, (0, 0), 0
    for i in sources:
        if radii[i] <= best:
            continue
        if mode == "edge":
            targets = states[:i] + states[i + 1 :]
        else:
            bound = _search(skeleton, i, range(len(states)), math.inf, math.inf).depths
            targets = [state for j, state in enumerate(states) if bound[j] > best]
        reach = _search(space, states[i], targets, depth_cap, state_cap, spent)
        held = max(held, len(reach.parents))
        length = max(reach.depths.values())
        if length > best:
            far = max(
                j for j, state in enumerate(states) if reach.depths.get(state) == length
            )
            best, pair = length, (i, far)
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
    diameter, with the last of its farthest vertices in vertex order; edge
    mode searches from that source alone.  In circuit mode a block skips
    the sources and drops the targets that the skeleton's edge distances
    show cannot beat the best eccentricity so far (see :func:`_diameter`);
    the value and the pair are those of searching every pair, and so is
    every :class:`DepthCapExceeded`, but a state cap that a search of every
    pair exceeded may now be met.
    ``tree_cap`` bounds each block's vertices, in both modes.  Edge mode
    reads no depth or state cap; in circuit mode each block's searches get
    the depth that the earlier blocks' diameters left, and the states that
    their largest searches left.  Blocks sharing a record reuse its answer
    while it fits the caps left, and search again, to hit a cap as a new
    search would, otherwise.  An infeasible instance has a block without
    vertices and raises :class:`InfeasibleInstance`.
    """
    if mode not in ("edge", "circuit"):
        raise ValidationError("mode must be 'edge' or 'circuit'")
    check_costs(graph, costs)
    if mode == "edge":
        depth_cap = state_cap = math.inf
    elif depth_cap is None:
        depth_cap = default_depth_cap(graph)
    instance = _instance(graph, tuple(costs))
    total = states = 0
    ends, answers = [], {}
    for part in instance.parts:
        found = answers.get(part)
        if not (found and found[0] < depth_cap - total and found[2] <= state_cap - states):
            found = answers[part] = _diameter(
                mode, part, tree_cap, depth_cap, state_cap, (total, states)
            )
        value, pair, held = found
        states += held
        total += value
        ends.append([part.skeleton(tree_cap).states[k] for k in pair])
    if total == 0:
        return DiameterResult(0, None)
    pair = tuple(instance.grid.to_point(instance.join(side)) for side in zip(*ends))
    return DiameterResult(total, pair)
