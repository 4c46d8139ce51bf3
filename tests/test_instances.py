"""Instance generators: the running example, glueing, the glued family,
leaves, and complete bipartite graphs."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualflow as df
from conftest import random_sub_tournament
from dualflow.model import DEFAULT_TREE_CAP, _instance
from dualflow.oracle import DEFAULT_STATE_CAP, _diameter, default_depth_cap


TRIANGLE = (df.Digraph(3, ((0, 1), (1, 2), (2, 0))), df.cost_vector([1, 1, 1]))


# ---------------------------------------------------------------------------
# example_graph


def test_example_costs(example):
    graph, costs = example
    assert costs[df.find_edge(graph, 2, 3)] == Fraction(10, 9)
    labels = {
        (3, 0): 0,
        (2, 0): 0,
        (3, 1): 0,
        (0, 3): 2,
        (0, 2): Fraction(4, 3),
        (1, 3): Fraction(4, 3),
        (0, 1): 1,
        (1, 2): 1,
        (2, 3): Fraction(10, 9),
    }
    assert dict(zip(graph.edges, costs)) == labels


def test_example_underlying_complete(example):
    graph, _ = example
    pairs = {frozenset(edge) for edge in graph.edges}
    assert pairs == {
        frozenset(p) for p in itertools.combinations(range(4), 2)
    }


def test_example_nondegenerate(example):
    graph, costs = example
    assert df.degeneracy_report(graph, costs).nondegenerate


# ---------------------------------------------------------------------------
# glue


def test_glue_two_example_copies(example):
    graph, costs = example
    glued, glued_costs, maps = df.glue([(graph, costs, 0), (graph, costs, 0)])
    assert glued.node_count == 7
    assert glued.edge_count == 18
    assert len(glued_costs) == 18
    assert maps[0][0] == maps[1][0] == 0


@pytest.mark.parametrize("count", [8, 10])
def test_glue_checks_each_parts_cost_count(example, count):
    graph, costs = example
    wrong = (costs + costs)[:count]
    for parts in ([(graph, wrong, 0)], [(graph, costs, 0), (graph, wrong, 0)]):
        with pytest.raises(df.DimensionMismatch, match=f"{count} costs for 9 edges"):
            df.glue(parts)


def test_glue_identity(example):
    graph, costs = example
    glued, glued_costs, _ = df.glue([(graph, costs, 0)])
    assert glued == graph
    assert glued_costs == costs


def test_glue_partitions_stay_inside_one_part(example):
    graph, costs = example
    tri, tric = TRIANGLE
    glued, glued_costs, maps = df.glue([(graph, costs, 0), (tri, tric, 0)])
    part_nodes = [
        {maps[k][v] for v in range(parts.node_count)} - {0}
        for k, parts in ((0, graph), (1, tri))
    ]
    for circuit in df.enumerate_partitions(glued):
        assert any(circuit.s_set <= nodes for nodes in part_nodes)


def test_glue_at_non_anchor_node(example):
    graph, costs = example
    tri, tric = TRIANGLE
    glued, glued_costs, maps = df.glue([(graph, costs, 2), (tri, tric, 1)])
    assert glued.node_count == 4 + 3 - 1
    assert maps[0][2] == 0 and maps[1][1] == 0
    assert df.feasibility_status(glued, glued_costs).feasible


def test_glue_order_isomorphic(example):
    """Swapping parts permutes labels but fixes the anchor and all structure."""
    graph, costs = example
    tri, tric = TRIANGLE
    ab, ab_costs, _ = df.glue([(graph, costs, 0), (tri, tric, 0)])
    ba, ba_costs, _ = df.glue([(tri, tric, 0), (graph, costs, 0)])
    assert ab.node_count == ba.node_count
    # the permutation shifting the triangle block before the example block
    relabel = {0: 0, 1: 3, 2: 4, 3: 5, 4: 1, 5: 2}
    relabeled = {
        ((relabel[t], relabel[h]), c) for (t, h), c in zip(ab.edges, ab_costs)
    }
    assert relabeled == set(zip(ba.edges, ba_costs))


def test_glue_additivity_edge_mode(example):
    graph, costs = example
    tri, tric = TRIANGLE
    glued, glued_costs, _ = df.glue([(graph, costs, 0), (tri, tric, 0)])
    total = (
        df.diameter(graph, costs, "edge").value
        + df.diameter(tri, tric, "edge").value
    )
    assert df.diameter(glued, glued_costs, "edge").value == total


@given(
    seed=st.integers(0, 10**6),
    sizes=st.lists(st.integers(2, 4), min_size=2, max_size=3),
    integer_costs=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_glue_is_a_product(seed, sizes, integer_costs):
    """Glued at random nodes, small parts' vertex counts multiply and both
    diameters add; the glued graph's own vertices and diameters, searched
    whole without the block split, agree."""
    rng = random.Random(seed)
    parts = [
        random_sub_tournament(rng, size, integer_costs=integer_costs) for size in sizes
    ]
    glued, costs, _ = df.glue(
        [(graph, part_costs, rng.randrange(graph.node_count)) for graph, part_costs in parts]
    )
    count = math.prod(len(df.enumerate_vertices(g, c).vertices) for g, c in parts)
    assert len(df.enumerate_vertices(glued, costs).vertices) == count
    whole_record = _instance(glued, costs)
    assert len(whole_record.skeleton(math.inf).states) == count
    depth_cap = default_depth_cap(glued)
    whole = {
        "edge": _diameter(
            "edge", whole_record, DEFAULT_TREE_CAP, math.inf, math.inf
        )[0],
        "circuit": _diameter(
            "circuit", whole_record, DEFAULT_TREE_CAP, depth_cap, DEFAULT_STATE_CAP
        )[0],
    }
    for mode in ("edge", "circuit"):
        total = sum(df.diameter(g, c, mode).value for g, c in parts)
        assert df.diameter(glued, costs, mode).value == total == whole[mode]


# ---------------------------------------------------------------------------
# family_gk


def test_gk_one_is_example(example):
    graph, costs = example
    built, built_costs = df.family_gk(1)
    assert built == graph
    assert built_costs == costs


def test_gk_two_shape():
    graph, costs = df.family_gk(2)
    assert graph.node_count == 7
    assert graph.edge_count == 18


def test_gk_three_shape():
    graph, costs = df.family_gk(3)
    assert graph.node_count == 10
    assert graph.edge_count == 27


# ---------------------------------------------------------------------------
# add_leaf


def test_add_leaf_shape(example):
    graph, costs = example
    bigger, bigger_costs = df.add_leaf(graph, costs, 2)
    assert bigger.node_count == 5
    assert bigger.edges[-1] == (2, 4)
    assert bigger_costs[-1] == 0


def test_add_leaf_accepts_a_cost_list(example):
    graph, costs = example
    bigger, bigger_costs = df.add_leaf(graph, list(costs), 2)
    assert bigger_costs == costs + (Fraction(0),)
    assert len(bigger_costs) == bigger.edge_count


def test_leaf_coordinate_tracks_attach_node(example):
    graph, costs = example
    bigger, bigger_costs = df.add_leaf(graph, costs, 2)
    for vertex in df.enumerate_vertices(bigger, bigger_costs).vertices:
        assert vertex[4] == vertex[2]


def test_leaf_preserves_circuit_diameter(example):
    graph, costs = example
    base = df.diameter(graph, costs, "circuit").value
    bigger, bigger_costs = df.add_leaf(graph, costs, 0)
    assert df.diameter(bigger, bigger_costs, "circuit").value >= base
    two, two_costs = df.add_leaf(bigger, bigger_costs, 1)
    assert df.diameter(two, two_costs, "circuit").value >= base


# ---------------------------------------------------------------------------
# complete_bipartite


def test_bipartite_shape_and_costs():
    graph, costs = df.complete_bipartite(2, 3, [[1, 2, 3], [4, 5, 6]])
    assert graph.node_count == 5
    assert graph.edges == ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))
    assert costs == df.cost_vector([1, 2, 3, 4, 5, 6])


def test_bipartite_single_pair():
    graph, costs = df.complete_bipartite(1, 1, [[5]])
    vertices = df.enumerate_vertices(graph, costs).vertices
    assert vertices == (df.Point.of(0, 5),)


def test_bipartite_two_by_two_bounds():
    rng = random.Random(83)
    found = 0
    while found < 5:
        matrix = df.random_bipartite_costs(2, 2, rng.randrange(10**6))
        graph, costs = df.complete_bipartite(2, 2, matrix)
        if not df.degeneracy_report(graph, costs).nondegenerate:
            continue
        found += 1
        assert df.diameter(graph, costs, "edge").value <= 1
        assert df.diameter(graph, costs, "circuit").value <= 2


def test_bipartite_rejects_bad_matrix():
    with pytest.raises(df.ValidationError):
        df.complete_bipartite(2, 2, [[1, 2]])


def test_random_bipartite_costs_seeded():
    first = df.random_bipartite_costs(2, 3, seed=9)
    second = df.random_bipartite_costs(2, 3, seed=9)
    assert first == second
    for row in first:
        for value in row:
            assert value > 0
            assert value.denominator <= 100


# ---------------------------------------------------------------------------
# lower-bound family checks at desk scale


def test_gk_circuit_diameter_lower_bound_small(example):
    graph, costs = example
    assert df.diameter(graph, costs, "circuit").value >= 4


def test_lower_bound_pipeline_small_sizes():
    """The glued-plus-leaves construction keeps the promised diameter for
    node counts four through six."""
    for n in (4, 5, 6):
        k = (n - 1) // 3
        graph, costs = df.family_gk(k)
        while graph.node_count < n:
            graph, costs = df.add_leaf(graph, costs, 0)
        bound = -(-4 * n // 3) - 4  # ceil(4n/3) - 4
        assert df.diameter(graph, costs, "circuit").value >= bound


def test_lower_bound_pipeline_seven_nodes(example):
    """At seven nodes the pipeline yields two glued copies; the locality of
    circuits plus the per-copy distance certifies diameter >= 8 >= bound."""
    n = 7
    bound = -(-4 * n // 3) - 4
    assert bound == 6
    graph, costs = example
    near = df.Point.of(0, 0, 0, 0)
    far = df.Point.of(0, "2/3", "4/3", 2)
    assert df.circuit_distance(graph, costs, near, far).length == 4
    glued, glued_costs = df.family_gk(2)
    assert glued.node_count == n
    copy_nodes = [set(range(1, 4)), set(range(4, 7))]
    for circuit in df.enumerate_partitions(glued):
        assert any(circuit.s_set <= nodes for nodes in copy_nodes)
    source = df.Point(near.coords + near.coords[1:])
    target = df.Point(far.coords + far.coords[1:])
    assert df.is_vertex(glued, glued_costs, source)
    assert df.is_vertex(glued, glued_costs, target)
    # every circuit step moves one copy only, so 4 + 4 steps are forced
