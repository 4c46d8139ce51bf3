"""Circuit directions as connected node bipartitions, and maximal steps.

A circuit is canonically stored as the node set S with the anchor outside;
its direction vector is 1 on S and 0 elsewhere.  A positive step raises the
S coordinates until an edge crossing into S becomes tight; a negative step
lowers them until an edge leaving S becomes tight.  Every step outside
:func:`dualflow.walks.validate_walk` reads that rule here: one S's split by
:func:`crossing_edges`, or every S's in the graph's :func:`direction_table`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from operator import ne, sub
from types import MappingProxyType
from typing import Any, Collection, Mapping, Sequence

from .errors import (
    InfeasiblePoint,
    NotApplicable,
    StaleStep,
    UnboundedDirection,
    ValidationError,
)
from .model import (
    ANCHOR,
    Digraph,
    Point,
    Record,
    component_count,
    is_feasible,
    shift_point,
)


class PartitionCircuit(Record):
    """The S side of a bipartition; the anchor always lies on the other side."""

    s_set: frozenset[int]

    def __post_init__(self):
        if not self.s_set:
            raise ValidationError("circuit S side is empty")
        if ANCHOR in self.s_set:
            raise ValidationError("anchor cannot lie in S")


class SignedStep(Record):
    """A maximal move along a circuit: direction, sign, length, blocking edges."""

    circuit: PartitionCircuit
    sign: int
    epsilon: Fraction
    entering_edges: frozenset[int]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValidationError("sign must be +1 or -1")
        if self.epsilon <= 0:
            raise ValidationError("step length must be positive")


def is_valid_circuit(graph: Digraph, s_set: frozenset[int]) -> bool:
    """Both S and its complement must be nonempty and connected."""
    if not s_set or ANCHOR in s_set:
        return False
    if any(not (0 <= v < graph.node_count) for v in s_set):
        return False
    # the edges inside either side leave one component per side iff both
    # sides are connected
    inside = [(t, h) for t, h in graph.edges if (t in s_set) == (h in s_set)]
    return component_count(graph.node_count, inside) == 2


def enumerate_partitions(graph: Digraph) -> tuple[PartitionCircuit, ...]:
    """All circuits, ordered lexicographically by sorted member list."""
    others = range(1, graph.node_count)
    candidates = []
    for size in range(1, graph.node_count):
        for combo in combinations(others, size):
            candidates.append(combo)
    candidates.sort()
    result = []
    for combo in candidates:
        s_set = frozenset(combo)
        if is_valid_circuit(graph, s_set):
            result.append(PartitionCircuit(s_set))
    return tuple(result)


def circuit_vector(circuit: PartitionCircuit, node_count: int) -> tuple[Fraction, ...]:
    """The 0/1 direction vector of the circuit."""
    if any(not 0 <= v < node_count for v in circuit.s_set):
        raise ValidationError("circuit member out of range")
    return tuple(
        Fraction(1) if v in circuit.s_set else Fraction(0) for v in range(node_count)
    )


def crossing_edges(graph: Digraph, s_set: Collection[int]) -> tuple[list[int], list[int]]:
    """The edges crossing S, in one pass: those into S and those out of it.
    A rise of S is blocked by the first and loosens the second; a fall is
    the other way round."""
    into, out = [], []
    for i, (tail, head) in enumerate(graph.edges):
        head_in = head in s_set
        if head_in != (tail in s_set):
            (into if head_in else out).append(i)
    return into, out


@lru_cache(maxsize=64)
def direction_table(graph: Digraph) -> Mapping[tuple[tuple[int, ...], int], tuple[int, ...]]:
    """``(sorted S, sign)`` -> blocking edges for every signed circuit that
    some edge blocks, in circuit order, sign +1 first.  It is exponential in
    the node count: only callers that visit every circuit read it."""
    table = {}
    for circuit in enumerate_partitions(graph):
        members = tuple(sorted(circuit.s_set))
        for sign, blocking in zip((1, -1), crossing_edges(graph, circuit.s_set)):
            if blocking:
                table[members, sign] = tuple(blocking)
    return MappingProxyType(table)


def uniform_shift(source: Sequence, target: Sequence) -> tuple[tuple[int, ...], Any] | None:
    """``(sorted S, δ)`` when ``target - source`` is δ ≠ 0 on the nodes of S
    and 0 elsewhere, else None; rational or grid coordinates alike."""
    values = set(map(sub, target, source))
    values.discard(0)
    if len(values) != 1:
        return None
    (delta,) = values
    return tuple(compress(range(len(source)), map(ne, source, target))), delta


def max_step(
    graph: Digraph,
    costs: Sequence[Fraction],
    point: Point,
    circuit: PartitionCircuit,
    sign: int,
) -> SignedStep:
    """Longest feasible move from the point along the signed circuit.

    Raises :class:`NotApplicable` when a blocking edge is already tight and
    :class:`UnboundedDirection` when nothing blocks.
    """
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    if not is_valid_circuit(graph, circuit.s_set):
        raise ValidationError("not a circuit of this graph")
    if not is_feasible(graph, costs, point):
        raise InfeasiblePoint("max_step requires a feasible start")
    into, out = crossing_edges(graph, circuit.s_set)
    return _max_step(graph, costs, point, circuit, sign, into if sign > 0 else out)


def _max_step(
    graph: Digraph,
    costs: Sequence[Fraction],
    point: Point,
    circuit: PartitionCircuit,
    sign: int,
    blocking: Sequence[int],
) -> SignedStep:
    """:func:`max_step` for callers that already hold a valid circuit, a
    sign of +1 or -1, a feasible point of this instance and the edges that
    block the signed circuit."""
    edges = graph.edges
    slacks = {i: costs[i] - point[edges[i][1]] + point[edges[i][0]] for i in blocking}
    if not slacks:
        raise UnboundedDirection("no edge bounds this direction")
    epsilon = min(slacks.values())
    if epsilon == 0:
        raise NotApplicable("a blocking edge is already tight")
    entering = frozenset(i for i, s in slacks.items() if s == epsilon)
    return SignedStep(circuit, sign, epsilon, entering)


class CircuitNeighbor(Record):
    """One reachable point together with the signed step that lands on it."""

    point: Point
    steps: tuple[SignedStep, ...]


def first_circuit_neighbors(
    graph: Digraph, costs: Sequence[Fraction], point: Point
) -> tuple[CircuitNeighbor, ...]:
    """The destination of the maximal step along every applicable signed
    circuit, in circuit order; inapplicable and unbounded directions are
    dropped.  A destination fixes S, the sign and the step length, so no two
    directions share one."""
    if not is_feasible(graph, costs, point):
        raise InfeasiblePoint("max_step requires a feasible start")
    neighbors = []
    for (members, sign), blocking in direction_table(graph).items():
        circuit = PartitionCircuit(frozenset(members))
        try:
            step = _max_step(graph, costs, point, circuit, sign, blocking)
        except NotApplicable:
            continue
        destination = shift_point(point, circuit.s_set, sign * step.epsilon)
        neighbors.append(CircuitNeighbor(destination, (step,)))
    return tuple(neighbors)


def apply_circuit_step(
    graph: Digraph, costs: Sequence[Fraction], point: Point, step: SignedStep
) -> Point:
    """Destination of a step; verifies the step was produced at this point."""
    try:
        fresh = max_step(graph, costs, point, step.circuit, step.sign)
    except (NotApplicable, UnboundedDirection) as exc:
        raise StaleStep(f"step cannot arise here: {exc}") from exc
    if fresh.epsilon != step.epsilon or fresh.entering_edges != step.entering_edges:
        raise StaleStep("step length or entering edges disagree with this point")
    return shift_point(point, step.circuit.s_set, step.sign * step.epsilon)


def step_between(
    graph: Digraph, costs: Sequence[Fraction], source: Point, target: Point
) -> SignedStep:
    """Recover the unique signed circuit step carrying source to target.

    The difference must be a positive multiple of a circuit's 0/1 vector and
    the step must be maximal at the source, which must be feasible (else
    :class:`InfeasiblePoint`); any other move, one blocked at the source or
    unbounded included, raises :class:`ValidationError` naming why.
    """
    if not is_feasible(graph, costs, source):
        raise InfeasiblePoint("max_step requires a feasible start")
    return _step_between(graph, costs, source, target, 1)


def _step_between(
    graph: Digraph,
    costs: Sequence[Fraction],
    source: Sequence,
    target: Sequence,
    scale: int,
) -> SignedStep:
    """:func:`step_between` from a source the caller holds feasible, on
    costs and points (or tuples) ``scale`` times the instance's (a
    :class:`dualflow.model.Grid` view); the step is in the same units, and
    the error message prints the instance's rationals."""
    if len(source) != len(target):
        raise ValidationError("points have different lengths")
    if source == target:
        raise ValidationError("points are identical")
    shift = uniform_shift(source, target)
    if shift is None:
        raise ValidationError("difference is not a multiple of a 0/1 vector")
    members, delta = shift
    circuit, sign = PartitionCircuit(frozenset(members)), 1 if delta > 0 else -1
    if not is_valid_circuit(graph, circuit.s_set):
        raise ValidationError("not a circuit of this graph")
    into, out = crossing_edges(graph, circuit.s_set)
    try:
        step = _max_step(graph, costs, source, circuit, sign, into if sign > 0 else out)
    except (NotApplicable, UnboundedDirection) as exc:
        raise ValidationError(f"step is not maximal: {exc}") from exc
    if step.epsilon != abs(delta):
        length, maximal = Fraction(abs(delta), scale), Fraction(step.epsilon, scale)
        raise ValidationError(f"step is not maximal: moved {length}, maximal {maximal}")
    return step
