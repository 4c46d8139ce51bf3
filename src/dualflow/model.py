"""Core model: directed graphs with exact rational costs and the polyhedron
``{u : u_head - u_tail <= cost for every edge, u[0] = 0}``.

All numeric data is :class:`fractions.Fraction`; node 0 is always the anchor
whose coordinate is pinned to zero.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatch,
    FormatError,
    InfeasiblePoint,
    InfeasibleTree,
    InstanceTooLarge,
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
    graph connected.  Antiparallel edge pairs are allowed.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.node_count < 1:
            raise ValidationError("graph needs at least one node")
        seen = set()
        for tail, head in self.edges:
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
    node and edge indices to the whole graph's.  ``lift[x]`` is the set of the
    whole graph's nodes that move when local node ``x`` moves: ``x`` and every
    node hanging below it in the block-cut tree.  The polyhedron is the
    direct sum of its blocks' polyhedra in the local coordinates
    ``u[x] - u[anchor]``.
    """

    graph: Digraph
    nodes: tuple[int, ...]
    edges: tuple[int, ...]
    lift: tuple[frozenset[int], ...]

    def costs(self, costs: Sequence[Fraction]) -> Sequence[Fraction]:
        """The block's edge costs; a block holding every edge is the whole
        graph and gets the caller's costs unchanged."""
        if len(self.edges) == len(costs):
            return costs
        return tuple(costs[i] for i in self.edges)

    def local(self, point: Point) -> Point:
        """The block's local coordinates of a point of the whole graph."""
        base = point[self.nodes[0]]
        if not base:
            return Point(tuple(point[v] for v in self.nodes))
        return Point(tuple(point[v] - base for v in self.nodes))


@lru_cache(maxsize=256)
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
        n, m = graph.node_count, graph.edge_count
        lift = (frozenset(),) + tuple(frozenset({v}) for v in range(1, n))
        return (Block(graph, tuple(range(n)), tuple(range(m)), lift),)
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
    below: dict[int, frozenset[int]] = {}
    result = []
    for members, edge_ids in zip(found, block_edges):
        local = {v: x for x, v in enumerate(members)}
        lift = tuple(
            frozenset({v}) | below.get(v, frozenset()) if x else frozenset()
            for x, v in enumerate(members)
        )
        below[members[0]] = below.get(members[0], frozenset()).union(*lift)
        block_graph = Digraph(
            len(members),
            tuple((local[graph.edges[i][0]], local[graph.edges[i][1]]) for i in edge_ids),
        )
        result.append(Block(block_graph, tuple(members), tuple(edge_ids), lift))
    return tuple(block for _, block in sorted(zip(entered, result)))


def join_points(
    node_count: int, parts: Sequence[Block], points: Sequence[Point]
) -> Point:
    """The point of the whole graph whose block-local parts are ``points``:
    each local coordinate moves the nodes its lift names."""
    coords = [Fraction(0)] * node_count
    for block, point in zip(parts, points):
        for x in range(1, len(block.nodes)):
            if point[x]:
                for v in block.lift[x]:
                    coords[v] += point[x]
    return Point(tuple(coords))


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


def connected_in_underlying(graph: Digraph, nodes: Iterable[int]) -> bool:
    """True iff the node subset induces a connected underlying subgraph."""
    nodes = set(nodes)
    if not nodes:
        return False
    adj = underlying_adjacency(graph)
    inside = bfs_parents(next(iter(nodes)), lambda v: [w for w in adj[v] if w in nodes])
    return len(inside) == len(nodes)


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
    if len(costs) != graph.edge_count:
        raise DimensionMismatch(
            f"{len(costs)} costs for {graph.edge_count} edges"
        )


@dataclass(frozen=True)
class Point:
    """A candidate member of the polyhedron; coordinate 0 is pinned to zero."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValidationError("empty point")
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


def shift_point(point: Point, s_set: frozenset[int], delta: Fraction) -> Point:
    """The point after every coordinate in ``s_set`` moves by ``delta``."""
    return Point(
        tuple(c + delta if v in s_set else c for v, c in enumerate(point.coords))
    )


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
    tail, head = graph.edges[edge_index]
    return costs[edge_index] - point[head] + point[tail]


def is_feasible(graph: Digraph, costs: Sequence[Fraction], point: Point) -> bool:
    """True iff every edge inequality holds exactly."""
    check_costs(graph, costs)
    if len(point) != graph.node_count:
        raise DimensionMismatch(
            f"point has {len(point)} coords for {graph.node_count} nodes"
        )
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
    labels = [Fraction(0)] * graph.node_count
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
            return FeasibilityResult(False, None)
    anchor_label = labels[ANCHOR]
    witness = Point(tuple(lab - anchor_label for lab in labels))
    return FeasibilityResult(True, witness)


def tight_graph(
    graph: Digraph, costs: Sequence[Fraction], point: Point
) -> TightEdgeSet:
    """Indices of edges whose inequality is tight at the point."""
    check_costs(graph, costs)
    if len(point) != graph.node_count:
        raise DimensionMismatch(
            f"point has {len(point)} coords for {graph.node_count} nodes"
        )
    tight = []
    for i, (tail, head) in enumerate(graph.edges):
        gap = costs[i] - point[head] + point[tail]
        if gap < 0:
            raise InfeasiblePoint("tight_graph requires a feasible point")
        if gap == 0:
            tight.append(i)
    return frozenset(tight)


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
            f"tree point {tuple(map(rational_str, point))} violates an inequality"
        )
    return point


def is_vertex(graph: Digraph, costs: Sequence[Fraction], point: Point) -> bool:
    """True iff the tight graph touches every node and is connected."""
    tight = tight_graph(graph, costs, point)  # validates feasibility
    return component_count(graph.node_count, [graph.edges[i] for i in tight]) == 1


# ---------------------------------------------------------------------------
# spanning tree enumeration


def count_spanning_trees(graph: Digraph) -> int:
    """Number of spanning trees of the underlying multigraph (matrix-tree)."""
    n = graph.node_count
    if n == 1:
        return 1
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
    """Bareiss fraction-free elimination; exact for integer matrices."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
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
    return sign * m[n - 1][n - 1]


def enumerate_spanning_trees(
    graph: Digraph, cap: int = DEFAULT_TREE_CAP
) -> Iterator[SpanningTree]:
    """Yield every spanning tree (as a frozenset of edge indices).

    Counts first via the matrix-tree theorem and raises
    :class:`InstanceTooLarge` when the count exceeds ``cap``.
    """
    _check_tree_cap(count_spanning_trees(graph), cap)
    n = graph.node_count
    if n == 1:
        yield frozenset()
        return
    m = graph.edge_count

    def rec(index: int, chosen: list[int], parent: list[int]) -> Iterator[SpanningTree]:
        if len(chosen) == n - 1:
            yield frozenset(chosen)
            return
        if index == m:
            return
        tail, head = graph.edges[index]
        root_t = _find(parent, tail)
        root_h = _find(parent, head)
        if root_t == root_h:
            # cycle edge: skipping it cannot disconnect anything
            yield from rec(index + 1, chosen, parent)
            return
        # include the edge
        merged = parent[:]
        merged[root_t] = root_h
        chosen.append(index)
        yield from rec(index + 1, chosen, merged)
        chosen.pop()
        # exclude it, but only if the rest can still span
        if _spannable(graph, parent, index + 1):
            yield from rec(index + 1, chosen, parent)

    yield from rec(0, [], list(range(n)))


def _check_tree_cap(total: int, cap: int) -> None:
    if total > cap:
        raise InstanceTooLarge(f"{total} spanning trees exceed cap {cap}")


def _spannable(graph: Digraph, parent: list[int], start: int) -> bool:
    """Can the components in ``parent`` still be joined by edges >= start?"""
    probe = parent[:]
    components = len({_find(probe, v) for v in range(graph.node_count)})
    for i in range(start, graph.edge_count):
        tail, head = graph.edges[i]
        rt, rh = _find(probe, tail), _find(probe, head)
        if rt != rh:
            probe[rt] = rh
            components -= 1
            if components == 1:
                return True
    return components == 1


# ---------------------------------------------------------------------------
# vertices and degeneracy


@dataclass(frozen=True)
class VertexSet:
    """All vertices plus, per vertex, every spanning tree that maps to it."""

    vertices: tuple[Point, ...]
    tree_witnesses: tuple[tuple[frozenset[int], ...], ...]

    def index_of(self, point: Point) -> int:
        try:
            return self.vertices.index(point)
        except ValueError:
            raise NotAVertex(f"{point} is not an enumerated vertex") from None


def enumerate_vertices(
    graph: Digraph, costs: Sequence[Fraction], tree_cap: int = DEFAULT_TREE_CAP
) -> VertexSet:
    """Every vertex, sorted by coordinates.  Results are cached per instance
    and cap.

    The vertices are the product of the blocks' vertices (see
    :func:`blocks`), and each tree witness is the union of one witness tree
    per block.  Each block solves each of its spanning trees and keeps the
    feasible results.  ``tree_cap`` bounds the whole graph's spanning trees,
    the product of the blocks' counts, because the result is the product.
    """
    check_costs(graph, costs)
    return _vertex_set(graph, tuple(costs), tree_cap)


@lru_cache(maxsize=64)
def _vertex_set(graph: Digraph, costs: CostVector, tree_cap: int) -> VertexSet:
    parts = blocks(graph)
    if len(parts) == 1:
        return _tree_vertex_set(graph, costs, tree_cap)
    _check_tree_cap(math.prod(count_spanning_trees(b.graph) for b in parts), tree_cap)
    factors = []
    for block in parts:
        vertex_set = _vertex_set(block.graph, block.costs(costs), tree_cap)
        witnesses = [
            [frozenset(block.edges[i] for i in tree) for tree in trees]
            for trees in vertex_set.tree_witnesses
        ]
        factors.append(list(zip(vertex_set.vertices, witnesses)))
    combined = []
    for choice in itertools.product(*factors):
        vertex = join_points(graph.node_count, parts, [point for point, _ in choice])
        trees = tuple(
            frozenset().union(*union)
            for union in itertools.product(*(witnesses for _, witnesses in choice))
        )
        combined.append((vertex, trees))
    combined.sort(key=lambda item: item[0].coords)
    return VertexSet(
        tuple(vertex for vertex, _ in combined),
        tuple(trees for _, trees in combined),
    )


def _tree_vertex_set(graph: Digraph, costs: CostVector, tree_cap: int) -> VertexSet:
    buckets: dict[tuple[Fraction, ...], list[frozenset[int]]] = {}
    for tree in enumerate_spanning_trees(graph, cap=tree_cap):
        try:
            vertex = vertex_from_tree(graph, costs, tree)
        except InfeasibleTree:
            continue
        buckets.setdefault(vertex.coords, []).append(tree)
    ordered = sorted(buckets)
    return VertexSet(
        tuple(Point(coords) for coords in ordered),
        tuple(tuple(buckets[coords]) for coords in ordered),
    )


@dataclass(frozen=True)
class DegeneracyReport:
    nondegenerate: bool
    witnesses: tuple[Point, ...]


def degeneracy_report(
    graph: Digraph, costs: Sequence[Fraction], tree_cap: int = DEFAULT_TREE_CAP
) -> DegeneracyReport:
    """Check whether every vertex has exactly ``node_count - 1`` tight edges.

    Witnesses are the vertices with more than one tree witness: a vertex's
    tight graph spans all nodes, so it has more than ``node_count - 1``
    edges exactly when it holds a cycle and hence several spanning trees.
    """
    vertex_set = enumerate_vertices(graph, costs, tree_cap)
    witnesses = tuple(
        vertex
        for vertex, trees in zip(vertex_set.vertices, vertex_set.tree_witnesses)
        if len(trees) > 1
    )
    return DegeneracyReport(not witnesses, witnesses)
