"""Instance generators: the four-node running example, glueing, the glued
family, leaf addition, and complete bipartite (dual transportation) graphs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError
from .model import ANCHOR, CostVector, Digraph, check_costs, cost_vector, rational


def example_graph() -> tuple[Digraph, CostVector]:
    """Four nodes, nine edges; the smallest known instance whose circuit
    diameter reaches the node count."""
    edges = (
        (3, 0),
        (2, 0),
        (3, 1),
        (0, 3),
        (0, 2),
        (1, 3),
        (0, 1),
        (1, 2),
        (2, 3),
    )
    costs = cost_vector([0, 0, 0, 2, "4/3", "4/3", 1, 1, "10/9"])
    return Digraph(4, edges), costs


def glue(
    parts: Sequence[tuple[Digraph, CostVector, int]],
) -> tuple[Digraph, CostVector, tuple[tuple[int, ...], ...]]:
    """Fuse several graphs at one chosen node each.

    The attach nodes collapse into the new anchor (node 0); every other node
    keeps its part-local order.  Costs carry over unchanged; a part whose
    cost count differs from its edge count raises
    :class:`~dualflow.errors.DimensionMismatch`.  Returns the glued
    instance plus one old-index -> new-index map per part.

    Each part has one attach node and every other node gets a fresh index,
    so no two parts share an edge: the glued edges are the parts' edges in
    order.
    """
    if not parts:
        raise ValidationError("need at least one part")
    node_maps: list[tuple[int, ...]] = []
    next_index = 1
    for graph, costs, attach in parts:
        check_costs(graph, costs)
        if not (0 <= attach < graph.node_count):
            raise ValidationError(f"attach node {attach} out of range")
        mapping = []
        for v in range(graph.node_count):
            if v == attach:
                mapping.append(ANCHOR)
            else:
                mapping.append(next_index)
                next_index += 1
        node_maps.append(tuple(mapping))
    edges: list[tuple[int, int]] = []
    costs_out: list[Fraction] = []
    for (graph, costs, _), mapping in zip(parts, node_maps):
        for (tail, head), cost in zip(graph.edges, costs):
            edges.append((mapping[tail], mapping[head]))
            costs_out.append(cost)
    glued = Digraph(next_index, tuple(edges))
    return glued, tuple(costs_out), tuple(node_maps)


def family_gk(k: int) -> tuple[Digraph, CostVector]:
    """``k`` copies of the example glued at their anchors: 3k+1 nodes."""
    if not isinstance(k, int) or k < 1:
        raise ValidationError(f"k {k!r} is not an int >= 1")
    graph, costs = example_graph()
    glued, glued_costs, _ = glue([(graph, costs, ANCHOR)] * k)
    return glued, glued_costs


def add_leaf(
    graph: Digraph, costs: CostVector, attach: int
) -> tuple[Digraph, CostVector]:
    """Append one new node hanging off ``attach`` by a zero-cost edge.

    The leaf coordinate is forced to equal the attach coordinate at every
    vertex, so walks between old vertices are unaffected.
    """
    check_costs(graph, costs)
    if not isinstance(attach, int) or not (0 <= attach < graph.node_count):
        raise ValidationError(f"attach node {attach!r} out of range")
    leaf = graph.node_count
    new_graph = Digraph(graph.node_count + 1, graph.edges + ((attach, leaf),))
    return new_graph, tuple(costs) + (Fraction(0),)


def complete_bipartite(
    m: int, n: int, costs: Sequence[Sequence[int | str | Fraction]]
) -> tuple[Digraph, CostVector]:
    """All ``m * n`` edges directed from the first side (holding the anchor)
    to the second, with the given cost matrix."""
    if not (isinstance(m, int) and isinstance(n, int)) or m < 1 or n < 1:
        raise ValidationError(f"sides {m!r} and {n!r} are not ints >= 1")
    if len(costs) != m or any(len(row) != n for row in costs):
        raise ValidationError(f"cost matrix must be {m}x{n}")
    edges = []
    flat = []
    for i in range(m):
        for j in range(n):
            edges.append((i, m + j))
            flat.append(rational(costs[i][j]))
    return Digraph(m + n, tuple(edges)), tuple(flat)


def random_bipartite_costs(
    m: int, n: int, seed: int, max_denominator: int = 100
) -> list[list[Fraction]]:
    """Seeded positive rational cost matrix for the bipartite generator."""
    if not (isinstance(m, int) and isinstance(n, int)):
        raise ValidationError(f"sides {m!r} and {n!r} are not ints")
    if not isinstance(max_denominator, int) or max_denominator < 1:
        raise ValidationError(f"max_denominator {max_denominator!r} is not an int >= 1")
    rng = random.Random(seed)
    matrix = []
    for _ in range(m):
        row = []
        for _ in range(n):
            den = rng.randint(1, max_denominator)
            num = rng.randint(1, 3 * den)
            row.append(Fraction(num, den))
        matrix.append(row)
    return matrix
