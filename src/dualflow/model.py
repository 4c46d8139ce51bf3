"""Core model: directed graphs with exact rational costs and the polyhedron
``{u : u_head - u_tail <= cost for every edge, u[0] = 0}``.

All numeric data at the API is :class:`fractions.Fraction`; node 0 is always
the anchor whose coordinate is pinned to zero.  :class:`Grid` is the one
integer view of an instance, on which the builders and the circuit oracle
run; the feasibility, tightness and step functions work on either view.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatch,
    EdgeMissing,
    FormatError,
    InfeasibleInstance,
    InfeasiblePoint,
    InfeasibleTree,
    InstanceTooLarge,
    InternalInvariant,
    NotAVertex,
    ValidationError,
)

Rational = Fraction

ANCHOR = 0

DEFAULT_TREE_CAP = 10**6


def rational(value: int | str | Fraction) -> Fraction:
    """Parse a rational from an integer, ``P/Q`` string, or Fraction.

    Rejects zero or negative denominators in ``P/Q`` form.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise FormatError(
            f"bad rational {value!r}: expected an int, a 'P/Q' string or a Fraction"
        )
    text = value.strip()
    if "/" in text:
        head, _, tail = text.partition("/")
        try:
            num, den = int(head), int(tail)
        except ValueError as exc:
            raise FormatError(f"bad rational {text!r}") from exc
        if den == 0:
            raise ValidationError(f"zero denominator in {text!r}")
        if den < 0:
            raise ValidationError(f"negative denominator in {text!r}")
        return Fraction(num, den)
    try:
        return Fraction(int(text))
    except ValueError as exc:
        raise FormatError(f"bad rational {text!r}") from exc


def rational_str(value: Fraction) -> str:
    """Canonical text form: ``P`` for integers, ``P/Q`` otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Digraph:
    """Directed graph on nodes ``0..node_count-1`` with node 0 as anchor.

    No self-loops, no duplicate (tail, head) pairs, underlying undirected
    graph connected.  Antiparallel edge pairs are allowed.  Any iterable of
    int pairs is stored as a tuple of tuples.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.node_count, int):
            raise ValidationError(f"node count {self.node_count!r} is not an int")
        if self.node_count < 1:
            raise ValidationError("graph needs at least one node")
        try:
            edges = tuple([(operator.index(t), operator.index(h)) for t, h in self.edges])
        except (TypeError, ValueError):
            raise ValidationError("edges must be pairs of int node indices") from None
        object.__setattr__(self, "edges", edges)
        seen = set()
        for tail, head in edges:
            if not (0 <= tail < self.node_count and 0 <= head < self.node_count):
                raise ValidationError(f"edge ({tail},{head}) out of range")
            if tail == head:
                raise ValidationError(f"self-loop at node {tail}")
            if (tail, head) in seen:
                raise ValidationError(f"duplicate edge ({tail},{head})")
            seen.add((tail, head))
        if component_count(self.node_count, self.edges) != 1:
            raise ValidationError("underlying undirected graph is disconnected")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def bfs_parents(
    root: int, neighbors: Callable[[int], Iterable[int]]
) -> dict[int, int | None]:
    """Breadth-first search from ``root``: maps every reached node to the node
    it was first reached from (``None`` for the root), in visiting order."""
    parents: dict[int, int | None] = {root: None}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in neighbors(v):
            if w not in parents:
                parents[w] = v
                queue.append(w)
    return parents


def _find(parent: list[int], v: int) -> int:
    """Union-find root of ``v``, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


@dataclass(frozen=True)
class Block:
    """One biconnected block of a graph, renumbered on its own.

    Local node 0 is the anchor: the block's node nearest node 0 of the whole
    graph (a cut vertex, or node 0 itself).  ``nodes`` and ``edges`` map local
    node and edge indices to the whole graph's.  The polyhedron is the
    direct sum of its blocks' polyhedra in the local coordinates
    ``u[x] - u[anchor]``.
    """

    graph: Digraph
    nodes: tuple[int, ...]
    edges: tuple[int, ...]


def blocks(graph: Digraph) -> tuple[Block, ...]:
    """The biconnected blocks, found by an iterative Hopcroft-Tarjan depth-first
    search from node 0, in the order the search entered them, so that each
    block's anchor lies in an earlier block.  A 2-connected graph is its own
    single block, with the very same :class:`Digraph`."""
    adj = underlying_adjacency(graph)
    order = [-1] * graph.node_count
    low = [0] * graph.node_count
    order[ANCHOR] = 0
    visited = 1
    found: list[list[int]] = []  # anchor first, in the order the blocks close
    entered: list[int] = []  # search time of each block's first node below its anchor
    stack: list[int] = []
    todo = [(ANCHOR, iter(adj[ANCHOR]))]
    while todo:
        v, pending = todo[-1]
        for w in pending:
            if order[w] < 0:
                order[w] = low[w] = visited
                visited += 1
                stack.append(w)
                todo.append((w, iter(adj[w])))
                break
            low[v] = min(low[v], order[w])
        else:
            todo.pop()
            if todo:
                parent = todo[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] >= order[parent]:
                    members = []
                    while not members or members[-1] != v:
                        members.append(stack.pop())
                    found.append([parent] + sorted(members))
                    entered.append(order[v])
    if len(found) <= 1:
        return (Block(graph, tuple(range(graph.node_count)), tuple(range(graph.edge_count))),)
    home: dict[int, int] = {}  # node -> the block holding it below its anchor
    for index, members in enumerate(found):
        for v in members[1:]:
            home[v] = index
    block_edges: list[list[int]] = [[] for _ in found]
    for i, (tail, head) in enumerate(graph.edges):
        index = home.get(tail)
        if index is None or head not in found[index]:
            index = home[head]
        block_edges[index].append(i)
    result = []
    for members, edge_ids in zip(found, block_edges):
        local = {v: x for x, v in enumerate(members)}
        block_graph = Digraph(
            len(members),
            tuple((local[graph.edges[i][0]], local[graph.edges[i][1]]) for i in edge_ids),
        )
        result.append(Block(block_graph, tuple(members), tuple(edge_ids)))
    return tuple(block for _, block in sorted(zip(entered, result)))


@lru_cache(maxsize=256)
def underlying_adjacency(graph: Digraph) -> tuple[tuple[int, ...], ...]:
    """Undirected neighbor lists (deduplicated) of the graph."""
    adj: list[set[int]] = [set() for _ in range(graph.node_count)]
    for tail, head in graph.edges:
        adj[tail].add(head)
        adj[head].add(tail)
    return tuple(tuple(sorted(a)) for a in adj)


def component_count(node_count: int, pairs: Iterable[tuple[int, int]]) -> int:
    """Number of connected components on nodes ``0..node_count-1`` joined by
    the given undirected node pairs; isolated nodes count."""
    parent = list(range(node_count))
    count = node_count
    for tail, head in pairs:
        root_t, root_h = _find(parent, tail), _find(parent, head)
        if root_t != root_h:
            parent[root_t] = root_h
            count -= 1
    return count


def tree_adjacency(
    graph: Digraph, tree: Iterable[int]
) -> tuple[list[list[int]], dict[tuple[int, int], int]]:
    """Undirected neighbor lists of a forest's edges, plus the edge index
    joining each ordered pair of neighbors."""
    adj: list[list[int]] = [[] for _ in range(graph.node_count)]
    edge_of: dict[tuple[int, int], int] = {}
    for i in tree:
        tail, head = graph.edges[i]
        adj[tail].append(head)
        adj[head].append(tail)
        edge_of[tail, head] = edge_of[head, tail] = i
    return adj, edge_of


CostVector = tuple[Fraction, ...]


def cost_vector(values: Iterable[int | str | Fraction]) -> CostVector:
    return tuple(rational(v) for v in values)


def check_costs(graph: Digraph, costs: Sequence[Fraction]) -> None:
    """One cost per edge (else :class:`DimensionMismatch`), each an ``int``
    or a ``Fraction`` (else :class:`FormatError`)."""
    if len(costs) != graph.edge_count:
        raise DimensionMismatch(
            f"{len(costs)} costs for {graph.edge_count} edges"
        )
    for i, c in enumerate(costs):
        if not isinstance(c, (int, Fraction)):
            raise FormatError(f"bad cost {c!r} on edge {i}: expected an int or a Fraction")


@dataclass(frozen=True)
class Point:
    """A candidate member of the polyhedron; coordinate 0 is pinned to zero.
    Coordinates are ``Fraction`` or ``int``; anything else raises
    :class:`FormatError`."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValidationError("empty point")
        for c in self.coords:
            if not isinstance(c, (int, Fraction)):
                raise FormatError(f"bad coordinate {c!r}: expected an int or a Fraction")
        if self.coords[ANCHOR] != 0:
            raise ValidationError("anchor coordinate must be zero")

    @classmethod
    def of(cls, *values: int | str | Fraction) -> "Point":
        return cls(tuple(rational(v) for v in values))

    def __getitem__(self, index: int) -> Fraction:
        return self.coords[index]

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(rational_str(c) for c in self.coords) + ")"


def shift_point(point: Point, s_set: frozenset[int], delta: Fraction) -> Point:
    """The point after every coordinate in ``s_set`` moves by ``delta``."""
    return Point(
        tuple(c + delta if v in s_set else c for v, c in enumerate(point.coords))
    )


class Grid:
    """The integer view of an instance: its costs, and points, times
    ``scale``, the lcm of the cost denominators.

    A vertex solves tight edges, so its coordinates are sums of costs, and a
    maximal circuit step moves by a slack; every point a walk from a vertex
    reaches therefore lies on ``(1/scale)·ℤ^V``, and the view is exact.
    ``points`` widens the grid to hold the given points as well.
    """

    def __init__(self, costs: Sequence[Fraction], points: Iterable[Point] = ()):
        denominators = [c.denominator for c in costs]
        denominators += [c.denominator for point in points for c in point]
        self.scale = math.lcm(1, *denominators)
        self.costs = tuple(c.numerator * (self.scale // c.denominator) for c in costs)
        self._rationals: dict[int, Fraction] = {}  # each value's Fraction, made once

    def to_state(self, point: Point) -> tuple[int, ...]:
        """The point's coordinates times ``scale``."""
        state = []
        for c in point:
            factor, rest = divmod(self.scale, c.denominator)
            if rest:
                raise InternalInvariant("point is not on the instance's rational grid")
            state.append(c.numerator * factor)
        return tuple(state)

    def to_rational(self, value: int) -> Fraction:
        found = self._rationals.get(value)
        if found is None:
            found = self._rationals[value] = Fraction(value, self.scale)
        return found

    def to_point(self, state: Iterable[int]) -> Point:
        """The point whose coordinates times ``scale`` are ``state``, without
        :class:`Point`'s checks: its states are anchored, its values exact."""
        point = object.__new__(Point)
        object.__setattr__(point, "coords", tuple(map(self.to_rational, state)))
        return point


SpanningTree = frozenset[int]

TightEdgeSet = frozenset[int]


# ---------------------------------------------------------------------------
# file format


def parse_graph(text: str) -> tuple[Digraph, CostVector]:
    """Parse the line-oriented graph format.

    Comment lines start with ``#``; the first payload line is ``nodes N``;
    every following line is ``edge TAIL HEAD COST`` with COST an integer or
    ``P/Q``.
    """
    node_count: int | None = None
    edges: list[tuple[int, int]] = []
    costs: list[Fraction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if node_count is None:
            if tokens[0] != "nodes" or len(tokens) != 2:
                raise FormatError(f"line {lineno}: expected 'nodes N'")
            try:
                node_count = int(tokens[1])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad node count") from exc
            if node_count < 1:
                raise ValidationError(f"line {lineno}: need at least one node")
            continue
        if tokens[0] != "edge" or len(tokens) != 4:
            raise FormatError(f"line {lineno}: expected 'edge TAIL HEAD COST'")
        try:
            tail, head = int(tokens[1]), int(tokens[2])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad node index") from exc
        edges.append((tail, head))
        costs.append(rational(tokens[3]))
    if node_count is None:
        raise FormatError("missing 'nodes N' line")
    return Digraph(node_count, tuple(edges)), tuple(costs)


def serialize_graph(graph: Digraph, costs: Sequence[Fraction]) -> str:
    """Inverse of :func:`parse_graph`; normalizes whitespace and rationals,
    preserves edge order."""
    check_costs(graph, costs)
    lines = [f"nodes {graph.node_count}"]
    for (tail, head), cost in zip(graph.edges, costs):
        lines.append(f"edge {tail} {head} {rational_str(cost)}")
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> tuple[Digraph, CostVector]:
    """Read a graph file; bytes that are not UTF-8 raise :class:`FormatError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return parse_graph(text)


def save_graph(path: str, graph: Digraph, costs: Sequence[Fraction]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_graph(graph, costs))


# ---------------------------------------------------------------------------
# feasibility and tightness


def slack(
    graph: Digraph, costs: Sequence[Fraction], point: Point, edge_index: int
) -> Fraction:
    """Slack of one edge inequality: ``cost - (u_head - u_tail)``."""
    check_costs(graph, costs)
    _check_dimension(graph, point)
    if not 0 <= edge_index < len(graph.edges):
        raise EdgeMissing(f"edge index {edge_index} out of range")
    tail, head = graph.edges[edge_index]
    return costs[edge_index] - point[head] + point[tail]


def _check_dimension(graph: Digraph, point: Point) -> None:
    if len(point) != graph.node_count:
        raise DimensionMismatch(f"point has {len(point)} coords for {graph.node_count} nodes")


def is_feasible(graph: Digraph, costs: Sequence[Fraction], point: Point) -> bool:
    """True iff every edge inequality holds exactly."""
    check_costs(graph, costs)
    _check_dimension(graph, point)
    return all(
        point[head] - point[tail] <= costs[i]
        for i, (tail, head) in enumerate(graph.edges)
    )


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: Point | None


def feasibility_status(graph: Digraph, costs: Sequence[Fraction]) -> FeasibilityResult:
    """Decide whether the polyhedron is nonempty.

    Runs Bellman-Ford relaxation with an implicit zero-label source; the
    system is infeasible exactly when a negative-cost directed cycle exists.
    On success the shifted labels give a feasible witness point.
    """
    check_costs(graph, costs)
    labels = _bellman_ford(graph, costs, Fraction(0))
    if labels is None:
        return FeasibilityResult(False, None)
    return FeasibilityResult(True, Point(tuple(lab - labels[ANCHOR] for lab in labels)))


def _bellman_ford(graph: Digraph, costs: Sequence, zero) -> list | None:
    """The labels from a ``zero``-label source, None on a negative cycle."""
    labels = [zero] * graph.node_count
    changed = True
    for _ in range(graph.node_count - 1):
        if not changed:
            break
        changed = False
        for i, (tail, head) in enumerate(graph.edges):
            candidate = labels[tail] + costs[i]
            if candidate < labels[head]:
                labels[head] = candidate
                changed = True
    for i, (tail, head) in enumerate(graph.edges):
        if labels[tail] + costs[i] < labels[head]:
            return None
    return labels


def tight_graph(
    graph: Digraph, costs: Sequence[Fraction], point: Point
) -> TightEdgeSet:
    """Indices of edges whose inequality is tight at the point."""
    check_costs(graph, costs)
    _check_dimension(graph, point)
    gaps = [c - point[head] + point[tail] for c, (tail, head) in zip(costs, graph.edges)]
    if min(gaps, default=0) < 0:
        raise InfeasiblePoint("tight_graph requires a feasible point")
    return frozenset(i for i, gap in enumerate(gaps) if not gap)


def check_spanning_tree(graph: Digraph, tree: Iterable[int]) -> SpanningTree:
    """Validate a set of edge indices as a spanning tree of the graph."""
    tree = frozenset(tree)
    for i in tree:
        if not (0 <= i < graph.edge_count):
            raise ValidationError(f"edge index {i} out of range")
    if len(tree) != graph.node_count - 1:
        raise ValidationError(
            f"tree has {len(tree)} edges, expected {graph.node_count - 1}"
        )
    if component_count(graph.node_count, [graph.edges[i] for i in tree]) != 1:
        raise ValidationError("edge set does not span the graph")
    return tree


def vertex_from_tree(
    graph: Digraph, costs: Sequence[Fraction], tree: Iterable[int]
) -> Point:
    """The unique point with anchor zero making all tree edges tight.

    Raises :class:`InfeasibleTree` when that point violates a non-tree
    inequality.
    """
    check_costs(graph, costs)
    tree = check_spanning_tree(graph, tree)
    adj, edge_of = tree_adjacency(graph, tree)
    coords = [Fraction(0)] * graph.node_count
    for v, parent in bfs_parents(ANCHOR, adj.__getitem__).items():
        if parent is not None:
            # tight edge: u_head - u_tail = cost
            i = edge_of[parent, v]
            if graph.edges[i] == (parent, v):
                coords[v] = coords[parent] + costs[i]
            else:
                coords[v] = coords[parent] - costs[i]
    point = Point(tuple(coords))
    if not is_feasible(graph, costs, point):
        raise InfeasibleTree(
            f"tree point {point} violates an inequality"
        )
    return point


def is_vertex(graph: Digraph, costs: Sequence[Fraction], point: Point) -> bool:
    """True iff the tight graph touches every node and is connected."""
    tight = tight_graph(graph, costs, point)  # validates feasibility
    return component_count(graph.node_count, [graph.edges[i] for i in tight]) == 1


_NO_VERTEX = "the instance has no vertex (negative-cost cycle)"


def check_vertices(
    graph: Digraph, costs: Sequence[Fraction], *points: Point
) -> list[TightEdgeSet]:
    """The endpoint check of the distance oracles and the walk builders:
    raise unless every point is a vertex, and return each point's tight
    set.  A wrong length raises :class:`DimensionMismatch`, an infeasible
    point :class:`InfeasiblePoint` naming its first violated edge (or
    :class:`InfeasibleInstance` when the polyhedron is empty) and a feasible
    non-vertex :class:`NotAVertex`."""
    check_costs(graph, costs)
    return _check_vertices(graph, costs, Grid(costs), points)[0]


def _check_vertices(
    graph: Digraph, costs: Sequence[Fraction], grid: Grid, points: Sequence[Point]
) -> tuple[list[TightEdgeSet], list[tuple[int, ...]]]:
    """:func:`check_vertices` on the costs' checked ``grid``, also returning
    each point's state on it.  A vertex solves tight edges, so it lies on
    that grid; a point off it, which therefore fails, is judged on a grid
    widened for that point alone."""
    tights, states = [], []
    for point in points:
        _check_dimension(graph, point)
        off_grid = any(grid.scale % c.denominator for c in point)
        view = Grid(costs, (point,)) if off_grid else grid
        state = view.to_state(point)
        slacks = [c - state[h] + state[t] for c, (t, h) in zip(view.costs, graph.edges)]
        if min(slacks, default=0) < 0:
            if not feasibility_status(graph, costs).feasible:
                raise InfeasibleInstance(_NO_VERTEX)
            i = next(i for i, s in enumerate(slacks) if s < 0)
            tail, head = graph.edges[i]
            raise InfeasiblePoint(
                f"{point} is infeasible: edge {i} ({tail} -> {head}) has slack "
                f"{rational_str(view.to_rational(slacks[i]))}"
            )
        tight = frozenset(i for i, s in enumerate(slacks) if not s)
        if component_count(graph.node_count, [graph.edges[i] for i in tight]) != 1:
            raise NotAVertex(f"{point} is not a vertex")
        tights.append(tight)
        states.append(state)
    return tights, states


# ---------------------------------------------------------------------------
# spanning tree enumeration


def count_spanning_trees(graph: Digraph) -> int:
    """Number of spanning trees of the underlying multigraph (matrix-tree)."""
    n = graph.node_count
    # integer Laplacian with multiplicities; drop the anchor row/column
    lap = [[0] * n for _ in range(n)]
    for tail, head in graph.edges:
        lap[tail][tail] += 1
        lap[head][head] += 1
        lap[tail][head] -= 1
        lap[head][tail] -= 1
    minor = [row[1:] for row in lap[1:]]
    return _int_determinant(minor)


def _int_determinant(matrix: list[list[int]]) -> int:
    """Bareiss fraction-free elimination; exact for integer matrices (1 if empty)."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


def enumerate_spanning_trees(
    graph: Digraph, cap: int = DEFAULT_TREE_CAP
) -> Iterator[SpanningTree]:
    """Yield every spanning tree (as a frozenset of edge indices), in
    lexicographic order of their sorted edge indices.

    Counts first via the matrix-tree theorem and raises
    :class:`InstanceTooLarge` when the count exceeds ``cap``.
    """
    _check_cap(count_spanning_trees(graph), cap, "spanning trees")
    yield from _tree_search(graph, range(graph.edge_count))


def _check_cap(held: int, cap: int, what: str) -> None:
    """The one test of a query's ``tree_cap``, on the ``what`` it holds."""
    if held > cap:
        raise InstanceTooLarge(f"more than {cap} {what}")


def _tree_search(graph: Digraph, usable: Sequence[int]) -> Iterator[SpanningTree]:
    """The one spanning-tree search: include/exclude backtracking (Read and
    Tarjan, 1975) over ``usable``, ascending indices of edges that span the
    graph, include first, so trees come in lexicographic order.  ``label``
    maps each node to its component's root; an edge is excluded only while
    the later edges can still span, so every branch yields a tree."""
    n, edges = graph.node_count, [graph.edges[i] for i in usable]

    def rec(index: int, chosen: list[int], label: list[int]) -> Iterator[SpanningTree]:
        if len(chosen) == n - 1:
            yield frozenset(chosen)
            return
        tail, head = edges[index]
        root_t, root_h = label[tail], label[head]
        if root_t != root_h:
            chosen.append(usable[index])
            joined = [root_t if root == root_h else root for root in label]
            yield from rec(index + 1, chosen, joined)
            chosen.pop()
        # skipping a cycle edge cannot disconnect anything; else the later
        # edges must still join the forest's components, named by ``label``
        if root_t == root_h or component_count(
            n, [(label[t], label[h]) for t, h in edges[index + 1 :]]
        ) == len(chosen) + 1:
            yield from rec(index + 1, chosen, label)

    yield from rec(0, [], list(range(n)))


# ---------------------------------------------------------------------------
# vertices and degeneracy


@dataclass(frozen=True)
class VertexSet:
    """All vertices plus, per vertex, every spanning tree that maps to it."""

    vertices: tuple[Point, ...]
    tree_witnesses: tuple[tuple[frozenset[int], ...], ...]

    @cached_property
    def _index(self) -> dict[Point, int]:
        return {vertex: i for i, vertex in enumerate(self.vertices)}

    def index_of(self, point: Point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise NotAVertex(f"{point} is not an enumerated vertex") from None


def enumerate_vertices(
    graph: Digraph, costs: Sequence[Fraction], tree_cap: int = DEFAULT_TREE_CAP
) -> VertexSet:
    """Every vertex, sorted by coordinates, with its witnesses: its tight
    graph's spanning trees in lexicographic order, listed by no other query
    and cached per instance.  ``tree_cap`` bounds the vertices of each
    block (:func:`blocks`) and of their product, and the witnesses listed;
    the product is checked before it is built."""
    check_costs(graph, costs)
    return _instance(graph, tuple(costs)).vertex_set(tree_cap)


@dataclass(frozen=True)
class _Skeleton:
    """The pivot search's grid data, with no Points and no trees: the sorted
    vertex states, each one's ascending tight edges and the skeleton, the edge
    search's space, whose states ``states`` and ``index`` map to grid states."""

    tight: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...]
    states: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]

    def from_grid(self, state: tuple[int, ...]) -> int:
        return self.index[state]

    def to_grid(self, state: int) -> tuple[int, ...]:
        return self.states[state]

    def neighbors(self, state: int) -> tuple[int, ...]:
        return self.adjacency[state]

    # never tests: a vertex has as many neighbours to expand as to test
    goal_test = staticmethod(lambda frontier, targets, found, two_fit: None)


class _Instance:
    """A checked instance's record, one per instance (:func:`_instance`):
    each part is computed on first use and kept.  It holds no search state
    and no cap; it is the one place that applies a call's ``tree_cap``, to
    what the call holds: each block's vertices, their product and the
    witnesses listed, while they are found and again once they are kept."""

    def __init__(self, graph: Digraph, costs: CostVector):
        self.graph, self.costs = graph, costs
        self._skeleton = self._tight_sets = self._witnessed = None

    @cached_property
    def grid(self) -> Grid:
        return Grid(self.costs)

    @cached_property
    def _blocks(self) -> tuple[tuple[Block, _Instance, int], ...]:
        """Each block, its record, looked up once so that identical blocks
        share one, and the factor by which its grid is coarser than the
        whole graph's; () for a 2-connected graph."""
        found = blocks(self.graph)
        if len(found) == 1:
            return ()
        parts = [(b, _instance(b.graph, tuple(self.costs[i] for i in b.edges))) for b in found]
        return tuple((b, part, self.grid.scale // part.grid.scale) for b, part in parts)

    @property
    def parts(self) -> tuple[_Instance, ...]:
        """Each block's record; a 2-connected graph's is itself, kept out of
        :attr:`_blocks` so that no record refers to itself."""
        return tuple(part for _, part, _ in self._blocks) or (self,)

    def split(self, state: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Each block's local state, in :attr:`parts` order, of a grid state
        of the whole graph: its nodes' coordinates minus its anchor's, on
        the block's own grid."""
        if not self._blocks:
            return (tuple(state),)
        result = []
        for block, _, factor in self._blocks:
            base = state[block.nodes[0]]
            local, rests = zip(*(divmod(state[v] - base, factor) for v in block.nodes))
            if any(rests):
                raise InternalInvariant("a vertex is not on its block's grid")
            result.append(local)
        return tuple(result)

    def join(self, states: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """The inverse of :meth:`split`: each block node sits at its anchor's
        coordinate plus its local one, scaled to the whole graph's grid.
        :func:`blocks` order sets every anchor before its block."""
        if not self._blocks:
            return tuple(states[0])
        coords = [0] * self.graph.node_count
        for (block, _, factor), local in zip(self._blocks, states):
            base = coords[block.nodes[0]]
            for v, x in zip(block.nodes[1:], local[1:]):
                coords[v] = base + factor * x
        return tuple(coords)

    def tight_sets(self, tree_cap: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each vertex's grid state and tight edges, sorted by state: the pivot
        search's, or the blocks' product, whose tight sets are the unions and
        whose size ``tree_cap`` bounds before it is built and once it is kept."""
        if self._tight_sets is None:
            skeletons = [part.skeleton(tree_cap) for part in self.parts]
            _check_cap(math.prod(len(found.states) for found in skeletons), tree_cap, "vertices")
            per_block = [
                [(s, tuple(block.edges[i] for i in t)) for s, t in zip(found.states, found.tight)]
                for (block, _, _), found in zip(self._blocks, skeletons)
            ]
            self._tight_sets = sorted(  # the states are distinct: no tight sets are compared
                (self.join(states), sum(tights, ()))
                for states, tights in (zip(*choice) for choice in itertools.product(*per_block))
            ) if self._blocks else list(zip(skeletons[0].states, skeletons[0].tight))
        _check_cap(len(self._tight_sets), tree_cap, "vertices")
        return self._tight_sets

    def vertex_set(self, tree_cap: int) -> VertexSet:
        """Every vertex, sorted: the only maker of a VertexSet and the only
        lister of witnesses, by :func:`_tree_search` on the whole graph, from
        each vertex's tight edges where they are not already a tree, within
        ``tree_cap`` witnesses."""
        joined = self.tight_sets(tree_cap)
        if self._witnessed is None:
            n, listed, trees = self.graph.node_count, 0, []
            for _, t in joined:
                trees.append([])
                for tree in [frozenset(t)] if len(t) < n else _tree_search(self.graph, sorted(t)):
                    _check_cap(listed := listed + 1, tree_cap, "witnesses")
                    trees[-1].append(tree)
            points = tuple(self.grid.to_point(s) for s, _ in joined)
            self._witnessed = VertexSet(points, tuple(map(tuple, trees))), listed
        _check_cap(self._witnessed[1], tree_cap, "witnesses")
        return self._witnessed[0]

    def skeleton(self, tree_cap: int) -> _Skeleton:
        """The whole graph's vertex states, tight edges and skeleton, by
        breadth-first search along pivots on the grid (after Avis and Fukuda,
        1992), with no Point and no tree.  Each distinct pivot moves once: the
        tight graph's bonds (:func:`_pivots`), which hold every skeleton edge.
        More than ``tree_cap`` vertices raise when the search stores the
        first one too many, and at once when the search is kept."""
        if self._skeleton is None:
            graph, grid, edges = self.graph, self.grid, self.graph.edges
            queue = _first_vertex(graph, grid.costs)
            tight, neighbours = {}, {state: [] for state in queue}
            for state in queue:
                slacks = [c - state[h] + state[t] for c, (t, h) in zip(grid.costs, edges)]
                tight[state] = found = tuple(i for i, s in enumerate(slacks) if not s)
                for members, sign in _pivots(graph, found):
                    target = _move(state, slacks, edges, members, sign)
                    if target:
                        neighbours[state].append(target)
                        if target not in neighbours:
                            neighbours[target] = []
                            queue.append(target)
                            _check_cap(len(queue), tree_cap, "vertices")
            states = tuple(sorted(queue))
            index = {state: k for k, state in enumerate(states)}
            adjacency = tuple(tuple(sorted(index[t] for t in neighbours[s])) for s in states)
            self._skeleton = _Skeleton(tuple(map(tight.get, states)), adjacency, states, index)
        _check_cap(len(self._skeleton.states), tree_cap, "vertices")
        return self._skeleton


# The one cache keyed on costs: callers pass costs that check_costs passed.
_instance = lru_cache(maxsize=64)(_Instance)


def _first_vertex(graph: Digraph, costs: Sequence[int]) -> list[tuple[int, ...]]:
    """A vertex's grid state in a list, or []: Bellman-Ford, then tight parts meet."""
    labels = _bellman_ford(graph, costs, 0)
    state = labels and tuple(x - labels[ANCHOR] for x in labels)
    while state:
        slacks = [c - state[h] + state[t] for c, (t, h) in zip(costs, graph.edges)]
        root = list(range(graph.node_count))
        for s, (t, h) in zip(slacks, graph.edges):
            if not s:
                root[_find(root, t)] = _find(root, h)
        loose = [v for v in range(graph.node_count) if _find(root, v) != _find(root, ANCHOR)]
        if not loose:
            return [state]
        members = sum(1 << v for v in loose if _find(root, v) == _find(root, loose[0]))
        up = _move(state, slacks, graph.edges, members, 1)
        state = up or _move(state, slacks, graph.edges, members, -1)
    return []


def _move(state: tuple, slacks: list, edges: Sequence, members: int, sign: int) -> tuple | int:
    """The state with bitmask ``members`` moved by ``sign`` to a blocking edge, or 0."""
    heads, tails = (members, ~members) if sign > 0 else (~members, members)
    blocking = [s for s, (t, h) in zip(slacks, edges) if heads >> h & tails >> t & 1]
    move = sign * min(blocking, default=0)
    return move and tuple(x + move * (members >> v & 1) for v, x in enumerate(state))


def _pivots(graph: Digraph, tight: Sequence[int]) -> set[tuple[int, int]]:
    """A vertex's distinct ``(S, sign)``, its tight graph's bonds: ``S``, a
    bitmask without the anchor, and the rest each stay connected by the tight
    edges not crossing ``S``; ``sign`` loosens a crossing edge.  A tree's bonds
    are its subtrees; else each connected ``S``, grown from single nodes, is tested."""
    n, edges, found = graph.node_count, graph.edges, set()
    if len(tight) >= n:
        pairs, todo, seen = [edges[i] for i in tight], [1 << v for v in range(1, n)], set()
        while todo:
            members = todo.pop()
            if members & 1 << ANCHOR or members in seen:
                continue
            seen.add(members)
            sides = [(members >> h & 1) - (members >> t & 1) for t, h in pairs]
            if component_count(n, [p for p, side in zip(pairs, sides) if not side]) == 2:
                found.update((members, -side) for side in sides if side)
            todo += [members | 1 << t | 1 << h for (t, h), side in zip(pairs, sides) if side]
        return found
    adj, edge_of = tree_adjacency(graph, tight)
    below = [1 << v for v in range(n)]
    for v, parent in reversed(bfs_parents(ANCHOR, adj.__getitem__).items()):
        if parent is not None:
            below[parent] |= below[v]
            found.add((below[v], 1 if edges[edge_of[parent, v]][0] == v else -1))
    return found


@dataclass(frozen=True)
class DegeneracyReport:
    nondegenerate: bool
    witnesses: tuple[Point, ...]


def degeneracy_report(
    graph: Digraph, costs: Sequence[Fraction], tree_cap: int = DEFAULT_TREE_CAP
) -> DegeneracyReport:
    """Check whether every vertex has exactly ``node_count - 1`` tight edges.

    Witnesses are the vertices with more, whose tight graphs hold a cycle
    and so several spanning trees.  It counts tight edges, lists no tree and
    makes Points of these vertices alone; ``tree_cap`` bounds the vertices of
    each block and of their product, as in :func:`enumerate_vertices`."""
    check_costs(graph, costs)
    instance, n = _instance(graph, tuple(costs)), graph.node_count
    joined = instance.tight_sets(tree_cap)
    witnesses = tuple(instance.grid.to_point(s) for s, t in joined if len(t) >= n)
    return DegeneracyReport(not witnesses, witnesses)
