"""Independent output checks for the benchmark.

Everything here is written from the definitions of the polyhedron
``{u : u_head - u_tail <= cost, u[0] = 0}`` with plain ``Fraction``
arithmetic and shares no code with ``dualflow``: a checker folded into the
code it checks would agree with that code's bugs.  Graphs are passed as
``(node_count, edges)`` with ``edges`` a sequence of ``(tail, head)`` pairs
and points as coordinate tuples.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction


class CheckError(Exception):
    """An output contradicts the polyhedron's definition or the paper."""


def component_count(node_count: int, edges) -> int:
    """Connected components of the undirected graph on ``edges``; isolated
    nodes count."""
    label = list(range(node_count))

    def root(v: int) -> int:
        while label[v] != v:
            label[v] = label[label[v]]
            v = label[v]
        return v

    for tail, head in edges:
        a, b = root(tail), root(head)
        if a != b:
            label[a] = b
    return len({root(v) for v in range(node_count)})


def connected(edges, nodes) -> bool:
    """True iff ``nodes`` is nonempty and connected by the undirected edges
    that have both ends inside it."""
    nodes = set(nodes)
    if not nodes:
        return False
    start = next(iter(nodes))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for tail, head in edges:
            for a, b in ((tail, head), (head, tail)):
                if a == v and b in nodes and b not in seen:
                    seen.add(b)
                    queue.append(b)
    return seen == nodes


def cut_vertices(node_count: int, edges) -> set[int]:
    """Nodes whose removal disconnects the underlying graph."""
    result = set()
    for v in range(node_count):
        rest = set(range(node_count)) - {v}
        if rest and not connected([e for e in edges if v not in e], rest):
            result.add(v)
    return result


def slacks(edges, costs, point) -> list[Fraction]:
    return [c - point[h] + point[t] for (t, h), c in zip(edges, costs)]


def tight_edges(edges, costs, point) -> list[tuple[int, int]]:
    return [e for e, s in zip(edges, slacks(edges, costs, point)) if s == 0]


def is_vertex(node_count: int, edges, costs, point) -> bool:
    """Feasible, and the tight edges connect every node."""
    if len(point) != node_count or point[0] != 0:
        return False
    if any(s < 0 for s in slacks(edges, costs, point)):
        return False
    return component_count(node_count, tight_edges(edges, costs, point)) == 1


def brute_vertices(node_count: int, edges, costs) -> set[tuple[Fraction, ...]]:
    """Every vertex, by solving each ``node_count - 1`` edge subset that
    forms a spanning tree and keeping the feasible solutions."""
    found = set()
    for subset in itertools.combinations(range(len(edges)), node_count - 1):
        tree = [edges[i] for i in subset]
        if component_count(node_count, tree) != 1:
            continue
        coords: list[Fraction | None] = [None] * node_count
        coords[0] = Fraction(0)
        pending = list(subset)
        while pending:
            rest = []
            for i in pending:
                tail, head = edges[i]
                if coords[tail] is not None and coords[head] is None:
                    coords[head] = coords[tail] + costs[i]
                elif coords[head] is not None and coords[tail] is None:
                    coords[tail] = coords[head] - costs[i]
                elif coords[tail] is None:
                    rest.append(i)
            pending = rest
        point = tuple(coords)
        if all(s >= 0 for s in slacks(edges, costs, point)):
            found.add(point)
    return found


def degenerate(node_count: int, edges, costs, vertices) -> bool:
    """Some vertex has more than ``node_count - 1`` tight edges."""
    return any(
        len(tight_edges(edges, costs, v)) > node_count - 1 for v in vertices
    )


def circuit_bound(node_count: int) -> int:
    return node_count * (node_count - 1) // 2


def edge_bound(node_count: int, edge_count: int) -> int:
    return min((node_count - 1) * edge_count, (node_count**3 - node_count) // 6)


def check_walk(node_count, edges, costs, points, source, target, mode) -> int:
    """Check a walk move by move and return its length.

    Every point is feasible; every move adds one constant to a node set S
    whose two sides are both connected, and goes exactly as far as the
    slack of the edges it shrinks allows; the walk runs from ``source`` to
    ``target``.  In edge mode every point is a vertex and consecutive
    vertices share tight edges splitting the nodes into two components.
    """
    points = [tuple(p) for p in points]
    if not points or points[0] != tuple(source):
        raise CheckError("walk does not start at the source")
    if points[-1] != tuple(target):
        raise CheckError("walk does not end at the target")
    for k, point in enumerate(points):
        if len(point) != node_count or point[0] != 0:
            raise CheckError(f"point {k} has a bad dimension or anchor")
        if any(s < 0 for s in slacks(edges, costs, point)):
            raise CheckError(f"point {k} is infeasible")
    everything = set(range(node_count))
    for k, (before, after) in enumerate(zip(points, points[1:])):
        moved = {v for v in everything if before[v] != after[v]}
        shifts = {after[v] - before[v] for v in moved}
        if len(shifts) != 1:
            raise CheckError(f"move {k} is not a constant shift of one node set")
        shift = shifts.pop()
        if not connected(edges, moved) or not connected(edges, everything - moved):
            raise CheckError(f"move {k} splits the nodes into a disconnected side")
        shrinking = [
            s
            for (tail, head), s in zip(edges, slacks(edges, costs, before))
            if (head in moved and tail not in moved) == (shift > 0)
            and (head in moved) != (tail in moved)
        ]
        if not shrinking or min(shrinking) != abs(shift):
            raise CheckError(f"move {k} is not a maximal step")
    if mode == "edge":
        for k, point in enumerate(points):
            if not is_vertex(node_count, edges, costs, point):
                raise CheckError(f"edge-walk point {k} is not a vertex")
        for k, (before, after) in enumerate(zip(points, points[1:])):
            common = set(tight_edges(edges, costs, before)) & set(
                tight_edges(edges, costs, after)
            )
            if component_count(node_count, common) != 2:
                raise CheckError(f"edge-walk points {k}, {k + 1} are not adjacent")
    return len(points) - 1


def check_bound(name: str, value: int, bound: int) -> None:
    if value > bound:
        raise CheckError(f"{name} {value} exceeds the paper's bound {bound}")


def check_le(name: str, low: int, high: int) -> None:
    if low > high:
        raise CheckError(f"{name}: {low} > {high}")


def check_eq(name: str, got, expected) -> None:
    if got != expected:
        raise CheckError(f"{name}: got {got}, expected {expected}")


def check_vertex_set(reported, expected) -> int:
    """The reported vertices are exactly the expected (brute-force) set."""
    got = [tuple(p) for p in reported]
    if len(set(got)) != len(got):
        raise CheckError("vertex list repeats a vertex")
    if set(got) != set(expected):
        raise CheckError(
            f"vertex set differs from brute force: {len(got)} vs {len(expected)}"
        )
    return len(got)


# ---------------------------------------------------------------------------
# self-test: each checker must reject a known-bad input


def _example():
    edges = ((3, 0), (2, 0), (3, 1), (0, 3), (0, 2), (1, 3), (0, 1), (1, 2), (2, 3))
    costs = tuple(
        Fraction(c) for c in (0, 0, 0, 2, "4/3", "4/3", 1, 1, "10/9")
    )
    return 4, edges, costs


def _pt(*values):
    return tuple(Fraction(v) for v in values)


def self_test() -> list[str]:
    """Return the names of known-bad inputs a checker failed to reject (and
    of known-good inputs it rejected); an empty list means all is well."""
    n, edges, costs = _example()
    near, far = _pt(0, 0, 0, 0), _pt(0, "2/3", "4/3", 2)
    good = [near, _pt(0, 1, 0, 1), _pt(0, 1, "4/3", 1), _pt(0, 1, "4/3", 2), far]
    problems = []

    def expect(name, accepted, fn):
        try:
            fn()
            ok = accepted
        except CheckError:
            ok = not accepted
        if not ok:
            problems.append(name)

    expect("good edge walk", True, lambda: check_walk(n, edges, costs, good, near, far, "edge"))
    non_maximal = [near, _pt(0, "1/2", 0, "1/2"), *good[1:]]
    expect("non-maximal step", False, lambda: check_walk(n, edges, costs, non_maximal, near, far, "circuit"))
    expect("wrong endpoint", False, lambda: check_walk(n, edges, costs, good, near, good[3], "circuit"))
    skipped = [good[0], good[2], *good[3:]]
    expect("dropped walk point", False, lambda: check_walk(n, edges, costs, skipped, near, far, "circuit"))
    infeasible = [near, _pt(0, 3, 0, 3)]
    expect("infeasible point", False, lambda: check_walk(n, edges, costs, infeasible, near, infeasible[1], "circuit"))
    vertices = sorted(brute_vertices(n, edges, costs))
    expect("good vertex set", True, lambda: check_eq("count", check_vertex_set(vertices, vertices), 14))
    expect("dropped vertex", False, lambda: check_vertex_set(vertices[1:], vertices))
    expect("bound exceeded", False, lambda: check_bound("circuit walk", 7, circuit_bound(n)))
    expect("cut vertex", True, lambda: check_eq("cut", cut_vertices(3, ((0, 1), (1, 2))), {1}))
    return problems


if __name__ == "__main__":
    failures = self_test()
    print("self-test:", "ok" if not failures else "FAILED " + ", ".join(failures))
    raise SystemExit(1 if failures else 0)
