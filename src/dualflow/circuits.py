"""Circuit directions as connected node bipartitions, and maximal steps.

A circuit is canonically stored as the node set S with the anchor outside;
its direction vector is 1 on S and 0 elsewhere.  A positive step raises the
S coordinates until an edge crossing into S becomes tight; a negative step
lowers them until an edge leaving S becomes tight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    component_count,
    is_feasible,
    shift_point,
    slack,
)


@dataclass(frozen=True)
class PartitionCircuit:
    """The S side of a bipartition; the anchor always lies on the other side."""

    s_set: frozenset[int]

    def __post_init__(self):
        if not self.s_set:
            raise ValidationError("circuit S side is empty")
        if ANCHOR in self.s_set:
            raise ValidationError("anchor cannot lie in S")


@dataclass(frozen=True)
class SignedStep:
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
        for combo in itertools.combinations(others, size):
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
    if any(v >= node_count for v in circuit.s_set):
        raise ValidationError("circuit member out of range")
    return tuple(
        Fraction(1) if v in circuit.s_set else Fraction(0) for v in range(node_count)
    )


def _blocking_edges(
    graph: Digraph, circuit: PartitionCircuit, sign: int
) -> list[int]:
    """Edges whose slack shrinks along the signed direction.

    Sign + moves S up, so edges from the complement into S block; sign -
    moves S down, so edges from S out block.
    """
    s_set = circuit.s_set
    result = []
    for i, (tail, head) in enumerate(graph.edges):
        tail_in = tail in s_set
        head_in = head in s_set
        if sign > 0 and head_in and not tail_in:
            result.append(i)
        elif sign < 0 and tail_in and not head_in:
            result.append(i)
    return result


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
    return _max_step(graph, costs, point, circuit, sign)


def _max_step(
    graph: Digraph,
    costs: Sequence[Fraction],
    point: Point,
    circuit: PartitionCircuit,
    sign: int,
) -> SignedStep:
    """:func:`max_step` for callers that already hold a valid circuit, a
    sign of +1 or -1 and a feasible point of this instance."""
    slacks = {
        i: slack(graph, costs, point, i) for i in _blocking_edges(graph, circuit, sign)
    }
    if not slacks:
        raise UnboundedDirection("no edge bounds this direction")
    epsilon = min(slacks.values())
    if epsilon == 0:
        raise NotApplicable("a blocking edge is already tight")
    entering = frozenset(i for i, s in slacks.items() if s == epsilon)
    return SignedStep(circuit, sign, epsilon, entering)


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
    the step must be maximal at the source; raises ValidationError otherwise.
    """
    return _step_between(graph, costs, source, target, 1)


def _step_between(
    graph: Digraph,
    costs: Sequence[Fraction],
    source: Point,
    target: Point,
    scale: int,
) -> SignedStep:
    """:func:`step_between` on costs and points ``scale`` times the
    instance's (a :class:`dualflow.model.Grid` view); the step is in the same
    units, and the error message prints the instance's rationals."""
    if len(source) != len(target):
        raise ValidationError("points have different lengths")
    moved = {
        v for v in range(len(source.coords)) if source.coords[v] != target.coords[v]
    }
    if not moved:
        raise ValidationError("points are identical")
    if ANCHOR in moved:
        raise ValidationError("anchor coordinate moved")
    deltas = {target.coords[v] - source.coords[v] for v in moved}
    if len(deltas) != 1:
        raise ValidationError("difference is not a multiple of a 0/1 vector")
    delta = deltas.pop()
    s_set = frozenset(moved)
    if not is_valid_circuit(graph, s_set):
        raise ValidationError("moved nodes do not form a circuit")
    if not is_feasible(graph, costs, source):
        raise InfeasiblePoint("max_step requires a feasible start")
    sign = 1 if delta > 0 else -1
    step = _max_step(graph, costs, source, PartitionCircuit(s_set), sign)
    if step.epsilon != abs(delta):
        length, maximal = Fraction(abs(delta), scale), Fraction(step.epsilon, scale)
        raise ValidationError(f"step is not maximal: moved {length}, maximal {maximal}")
    return step
