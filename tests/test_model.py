"""Core model: file format, feasibility, tight graphs, vertices, degeneracy."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualflow as df
from conftest import (
    definitional_is_vertex,
    random_sub_tournament,
    reference_spanning_trees,
)
from dualflow.model import Block, Grid, Record, _Skeleton, check_costs, check_vertices
from dualflow.oracle import _Reach

EXAMPLE_TEXT = """\
# canonical 4-node instance
nodes 4
edge 3 0 0
edge 2 0 0
edge 3 1 0
edge 0 3 2
edge 0 2 4/3
edge 1 3 4/3
edge 0 1 1
edge 1 2 1
edge 2 3 10/9
"""


# ---------------------------------------------------------------------------
# parse / serialize


def test_parse_example_file():
    graph, costs = df.parse_graph(EXAMPLE_TEXT)
    assert graph.node_count == 4
    assert graph.edge_count == 9
    index = df.find_edge(graph, 2, 3)
    assert costs[index] == Fraction(10, 9)


def test_parse_single_node():
    graph, costs = df.parse_graph("nodes 1\n")
    assert graph.node_count == 1
    assert costs == ()


def test_parse_zero_denominator():
    with pytest.raises(df.ValidationError):
        df.parse_graph("nodes 2\nedge 0 1 4/0\n")


@pytest.mark.parametrize(
    "text",
    [
        "nodes 2\nedge 0 0 1\n",  # self-loop
        "nodes 2\nedge 0 1 1\nedge 0 1 2\n",  # duplicate
        "nodes 3\nedge 0 1 1\n",  # disconnected
        "nodes 2\nedge 0 5 1\n",  # out of range
        "nodes 0\n",  # no anchor
    ],
)
def test_parse_invalid_graphs(text):
    with pytest.raises(df.ValidationError):
        df.parse_graph(text)


@pytest.mark.parametrize(
    "text",
    [
        "edge 0 1 1\n",  # missing header
        "nodes 2\nlink 0 1 1\n",  # unknown directive
        "nodes 2\nedge 0 1\n",  # short line
        "nodes 2\nedge 0 1 x\n",  # junk cost
    ],
)
def test_parse_malformed_lines(text):
    with pytest.raises(df.FormatError):
        df.parse_graph(text)


@pytest.mark.parametrize(
    "parse",
    [df.rational, lambda value: df.Point.of(0, value), lambda value: df.cost_vector([value])],
    ids=["rational", "Point.of", "cost_vector"],
)
@pytest.mark.parametrize("value", [0.5, None, b"1/2", [1]])
def test_rational_rejects_other_types(parse, value):
    with pytest.raises(df.FormatError, match="bad rational"):
        parse(value)


@pytest.mark.parametrize("value", [0.5, 0.0, "1/2", None], ids=["float", "zero-float", "str", "None"])
def test_point_rejects_other_coordinate_types(value):
    with pytest.raises(df.FormatError, match="bad coordinate"):
        df.Point((0, Fraction(1), value, 2))


def test_point_accepts_ints_and_fractions():
    point = df.Point((0, 1, Fraction(1, 2)))
    assert point == df.Point.of(0, 1, "1/2")
    assert str(point) == "(0, 1, 1/2)"


def test_point_still_rejects_a_float_coordinate():
    """Grid points are built without the coordinate type test; the public
    constructor keeps it."""
    with pytest.raises(df.FormatError, match="bad coordinate"):
        df.Point((0, 1.5))


def test_grid_points_are_points_of_fractions(example, far_vertex):
    graph, costs = example
    grid = Grid(costs)
    point = grid.to_point(grid.to_state(far_vertex))
    assert point == far_vertex and hash(point) == hash(far_vertex)
    assert all(isinstance(c, Fraction) for c in point)


def test_check_vertices_checks_the_costs_once(monkeypatch, example, near_vertex, far_vertex):
    """The endpoints' tight sets are read from the grid's costs, which are
    not checked again."""
    graph, costs = example
    expected = [df.tight_graph(graph, costs, v) for v in (near_vertex, far_vertex)]
    checked = []

    def counting(*args):
        checked.append(args)
        return check_costs(*args)

    monkeypatch.setattr("dualflow.model.check_costs", counting)
    assert check_vertices(graph, costs, near_vertex, far_vertex) == expected
    assert len(checked) == 1


def test_builder_rejects_a_float_endpoint(example, far_vertex):
    graph, costs = example
    with pytest.raises(df.FormatError):
        df.circuit_walk(graph, costs, df.Point((0, 0, 0, 0.0)), far_vertex)


@pytest.mark.parametrize(
    "call",
    [
        lambda g, c, a, b: df.circuit_walk(g, c, a, b),
        lambda g, c, a, b: df.edge_walk(g, c, a, b),
        lambda g, c, a, b: df.circuit_distance(g, c, a, b),
        lambda g, c, a, b: df.enumerate_vertices(g, c),
        lambda g, c, a, b: df.validate_walk(g, c, df.Walk((a,), (), "circuit")),
        lambda g, c, a, b: df.validate_walk(g, c, df.Walk((df.Point.of(0, 0),), (), "circuit")),
        lambda g, c, a, b: df.slack(g, c, a, 3),
    ],
    ids=[
        "circuit_walk", "edge_walk", "circuit_distance", "enumerate_vertices", "validate_walk",
        "validate_walk_wrong_dimension", "slack",
    ],
)
def test_a_float_cost_is_a_format_error(call, example, near_vertex, far_vertex):
    graph, costs = example
    bad = costs[:2] + (0.5,) + costs[3:]
    with pytest.raises(df.FormatError, match=r"^bad cost 0\.5 on edge 2: expected an int or a Fraction$"):
        call(graph, bad, near_vertex, far_vertex)


def test_serialize_round_trip_preserves_order(example):
    graph, costs = example
    text = df.serialize_graph(graph, costs)
    again, again_costs = df.parse_graph(text)
    assert again == graph
    assert again_costs == costs
    # whitespace and rational form are normalized on the second pass
    assert df.serialize_graph(again, again_costs) == text


@given(
    n=st.integers(2, 5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_random_graphs(n, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    graph, costs = random_sub_tournament(rng, n)
    text = df.serialize_graph(graph, costs)
    again, again_costs = df.parse_graph(text)
    assert (again, again_costs) == (graph, costs)


# ---------------------------------------------------------------------------
# feasibility


def test_zero_point_feasible(example, near_vertex):
    graph, costs = example
    assert df.is_feasible(graph, costs, near_vertex)


def test_tree_point_feasible(example, far_vertex):
    graph, costs = example
    assert df.is_feasible(graph, costs, far_vertex)


def test_infeasible_point(example):
    graph, costs = example
    assert not df.is_feasible(graph, costs, df.Point.of(0, 0, 0, 3))


def test_feasibility_dimension_mismatch(example):
    graph, costs = example
    with pytest.raises(df.DimensionMismatch):
        df.is_feasible(graph, costs, df.Point.of(0, 1))


def test_anchor_pinned():
    with pytest.raises(df.ValidationError):
        df.Point.of(1, 0)


def test_feasibility_status_example(example):
    graph, costs = example
    status = df.feasibility_status(graph, costs)
    assert status.feasible
    assert status.witness == df.Point.of(0, 0, 0, 0)


def test_feasibility_status_negative_cycle():
    graph = df.Digraph(2, ((0, 1), (1, 0)))
    status = df.feasibility_status(graph, df.cost_vector([1, -2]))
    assert not status.feasible
    assert status.witness is None


def test_feasibility_status_zero_cycle():
    graph = df.Digraph(2, ((0, 1), (1, 0)))
    status = df.feasibility_status(graph, df.cost_vector([1, -1]))
    assert status.feasible
    assert status.witness == df.Point.of(0, 1)


def test_infeasible_iff_negative_cycle_oracle():
    """Cross-check against exhaustive simple-cycle enumeration."""
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 8)
        graph, _ = random_sub_tournament(rng, n)
        costs = tuple(
            Fraction(rng.randint(-8, 12), rng.randint(1, 6))
            for _ in range(graph.edge_count)
        )
        digraph = nx.DiGraph()
        digraph.add_nodes_from(range(n))
        weight = {}
        for (tail, head), cost in zip(graph.edges, costs):
            digraph.add_edge(tail, head)
            weight[tail, head] = cost
        has_negative = any(
            sum(weight[c[i], c[(i + 1) % len(c)]] for i in range(len(c))) < 0
            for c in nx.simple_cycles(digraph)
        )
        status = df.feasibility_status(graph, costs)
        assert status.feasible == (not has_negative)
        if status.feasible:
            assert df.is_feasible(graph, costs, status.witness)


# ---------------------------------------------------------------------------
# tight graphs and vertices


def test_tight_graph_at_zero(example, near_vertex):
    graph, costs = example
    tight = df.tight_graph(graph, costs, near_vertex)
    assert tight == {
        df.find_edge(graph, 3, 0),
        df.find_edge(graph, 2, 0),
        df.find_edge(graph, 3, 1),
    }


def test_tight_graph_at_far_vertex(example, far_vertex):
    graph, costs = example
    tight = df.tight_graph(graph, costs, far_vertex)
    assert tight == {
        df.find_edge(graph, 0, 3),
        df.find_edge(graph, 0, 2),
        df.find_edge(graph, 1, 3),
    }


def test_tight_graph_mid_walk(example):
    graph, costs = example
    tight = df.tight_graph(graph, costs, df.Point.of(0, 1, "4/3", 1))
    assert tight == {
        df.find_edge(graph, 0, 1),
        df.find_edge(graph, 0, 2),
        df.find_edge(graph, 3, 1),
    }


def test_tight_graph_rejects_infeasible(example):
    graph, costs = example
    with pytest.raises(df.InfeasiblePoint):
        df.tight_graph(graph, costs, df.Point.of(0, 0, 0, 3))


def test_vertex_from_far_tree(example, far_vertex):
    graph, costs = example
    tree = {
        df.find_edge(graph, 0, 3),
        df.find_edge(graph, 0, 2),
        df.find_edge(graph, 1, 3),
    }
    assert df.vertex_from_tree(graph, costs, tree) == far_vertex


def test_vertex_from_near_tree(example, near_vertex):
    graph, costs = example
    tree = {
        df.find_edge(graph, 3, 0),
        df.find_edge(graph, 2, 0),
        df.find_edge(graph, 3, 1),
    }
    assert df.vertex_from_tree(graph, costs, tree) == near_vertex


def test_vertex_from_infeasible_tree(example):
    graph, costs = example
    tree = {
        df.find_edge(graph, 0, 1),
        df.find_edge(graph, 1, 2),
        df.find_edge(graph, 2, 3),
    }
    # the tree solves to (0, 1, 2, 28/9), which violates the (0,3) edge
    with pytest.raises(df.InfeasibleTree):
        df.vertex_from_tree(graph, costs, tree)


def test_vertex_from_tree_round_trip(example):
    graph, costs = example
    for tree in df.enumerate_spanning_trees(graph):
        try:
            vertex = df.vertex_from_tree(graph, costs, tree)
        except df.InfeasibleTree:
            continue
        assert tree <= df.tight_graph(graph, costs, vertex)


def test_is_vertex_examples(example, near_vertex):
    graph, costs = example
    assert df.is_vertex(graph, costs, near_vertex)
    assert not df.is_vertex(graph, costs, df.Point.of(0, 1, 1, 1))


def test_is_vertex_single_node():
    graph = df.Digraph(1, ())
    assert df.is_vertex(graph, (), df.Point.of(0))


def test_is_vertex_matches_definitional_oracle():
    """Spanning-and-connected tight graph == tight constraints of full rank."""
    rng = random.Random(5)
    for _ in range(40):
        graph, costs = random_sub_tournament(rng, rng.randint(2, 5))
        candidates = []
        for tree in df.enumerate_spanning_trees(graph):
            try:
                candidates.append(df.vertex_from_tree(graph, costs, tree))
            except df.InfeasibleTree:
                continue
        witness = df.feasibility_status(graph, costs).witness
        candidates.append(witness)
        for point in candidates:
            assert df.is_vertex(graph, costs, point) == definitional_is_vertex(
                graph, costs, point
            )


def test_directed_path_exclusion():
    """If one feasible point makes an edge tight, any vertex with a different
    tight directed path between its endpoints makes the edge tight too."""
    rng = random.Random(23)
    for _ in range(40):
        graph, costs = random_sub_tournament(rng, rng.randint(3, 5))
        vertices = df.enumerate_vertices(graph, costs).vertices
        for i, (tail, head) in enumerate(graph.edges):
            if not any(
                i in df.tight_graph(graph, costs, v) for v in vertices
            ):
                continue
            for vertex in vertices:
                tight = df.tight_graph(graph, costs, vertex)
                if _has_tight_path(graph, tight - {i}, tail, head):
                    assert i in tight


def _has_tight_path(graph, tight, source, goal):
    out = {v: [] for v in range(graph.node_count)}
    for i in tight:
        tail, head = graph.edges[i]
        out[tail].append(head)
    seen, stack = {source}, [source]
    while stack:
        v = stack.pop()
        if v == goal:
            return True
        for w in out[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


# ---------------------------------------------------------------------------
# spanning trees and degeneracy


def test_tree_count_matches_enumeration(example):
    graph, _ = example
    trees = list(df.enumerate_spanning_trees(graph))
    assert len(trees) == df.count_spanning_trees(graph) == 51
    assert len(set(trees)) == len(trees)
    for tree in trees:
        assert len(tree) == graph.node_count - 1


@given(n=st.integers(2, 5), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_tree_count_matches_enumeration_random(n, seed):
    graph, _ = random_sub_tournament(random.Random(seed), n)
    trees = set(df.enumerate_spanning_trees(graph))
    assert len(trees) == df.count_spanning_trees(graph)


def test_tree_enumeration_matches_reference():
    """The search yields the definition's spanning trees in its order,
    lexicographic in sorted edge indices, on the example, gk(2), the
    one-node graph and 60 random sub-tournaments of 1-6 nodes."""
    graphs = [df.example_graph()[0], df.family_gk(2)[0], df.Digraph(1, ())]
    rng = random.Random(18)
    graphs += [random_sub_tournament(rng, 1 + i % 6)[0] for i in range(60)]
    for graph in graphs:
        assert list(df.enumerate_spanning_trees(graph)) == reference_spanning_trees(graph)


def test_tree_enumeration_cap():
    graph, _ = df.example_graph()
    with pytest.raises(df.InstanceTooLarge):
        list(df.enumerate_spanning_trees(graph, cap=50))


def test_degeneracy_example(example):
    graph, costs = example
    report = df.degeneracy_report(graph, costs)
    assert report.nondegenerate
    assert report.witnesses == ()
    # integer costs make ties common: the witnesses are exactly the vertices
    # with more than node_count - 1 tight edges
    rng = random.Random(31)
    degenerate = 0
    for _ in range(60):
        graph, costs = random_sub_tournament(
            rng, rng.randint(2, 6), integer_costs=True
        )
        extra_tight = tuple(
            v
            for v in df.enumerate_vertices(graph, costs).vertices
            if len(df.tight_graph(graph, costs, v)) > graph.node_count - 1
        )
        report = df.degeneracy_report(graph, costs)
        assert report.witnesses == extra_tight
        assert report.nondegenerate == (not extra_tight)
        degenerate += not report.nondegenerate
    assert degenerate > 0


def test_degeneracy_two_node():
    graph = df.Digraph(2, ((0, 1), (1, 0)))
    report = df.degeneracy_report(graph, df.cost_vector([1, -1]))
    assert not report.nondegenerate
    assert report.witnesses == (df.Point.of(0, 1),)


def test_degeneracy_single_node():
    graph = df.Digraph(1, ())
    report = df.degeneracy_report(graph, ())
    assert report.nondegenerate


def test_degeneracy_respects_tree_cap(example):
    graph, costs = example
    with pytest.raises(df.InstanceTooLarge):
        df.degeneracy_report(graph, costs, tree_cap=10)


def test_rational_results_stay_canonical():
    """Every arithmetic result keeps a positive denominator and gcd one."""
    import math

    rng = random.Random(2)
    values = [
        Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(60)
    ]
    for a, b in zip(values, values[1:]):
        for result in (a + b, a - b, a * b):
            assert result.denominator > 0
            assert math.gcd(abs(result.numerator), result.denominator) == 1
    assert Fraction(0, 7) == Fraction(0, 1)


# ---------------------------------------------------------------------------
# typed errors at the public boundary


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda g, c: df.contract_edge(g, c[:3], 0), df.DimensionMismatch),
        (lambda g, c: df.perturb_costs(g, c[:3], 1), df.DimensionMismatch),
        (lambda g, c: df.add_leaf(g, c[:5], 0), df.DimensionMismatch),
        (lambda g, c: df.random_bipartite_costs(2, 2, 1, 0), df.ValidationError),
        (lambda g, c: df.Digraph("3", ((0, 1), (1, 2))), df.ValidationError),
        (lambda g, c: df.Digraph(2, ((0, "1"),)), df.ValidationError),
        (lambda g, c: df.Digraph(2, ((0, 1, 1),)), df.ValidationError),
        (lambda g, c: df.Digraph(2, None), df.ValidationError),
        (lambda g, c: df.slack(g, c, df.Point.of(0, 0, 0, 0), 99), df.EdgeMissing),
        (lambda g, c: df.slack(g, c, df.Point.of(0, 0, 0, 0), -1), df.EdgeMissing),
        (lambda g, c: df.slack(g, c, df.Point.of(0, 0), 3), df.DimensionMismatch),
        (lambda g, c: df.last_backward_edge(g, {0, 1, 2}, 0, 9), df.ValidationError),
        (lambda g, c: df.random_bipartite_costs(2.0, 2, 1), df.ValidationError),
        (lambda g, c: df.random_bipartite_costs(2, 2, 1, 2.5), df.ValidationError),
        (lambda g, c: df.family_gk(2.0), df.ValidationError),
        (lambda g, c: df.family_gk("2"), df.ValidationError),
        (lambda g, c: df.complete_bipartite(2.0, 2, [[1, 1], [1, 1]]), df.ValidationError),
        (lambda g, c: df.add_leaf(g, c, "1"), df.ValidationError),
        (lambda g, c: df.perturb_costs(g, c, 1, denominator=2.5), df.ValidationError),
    ],
)
def test_public_calls_raise_typed_errors(example, call, error):
    graph, costs = example
    with pytest.raises(error):
        call(graph, costs)


def test_digraph_stores_its_edges_as_a_tuple_of_pairs():
    graph = df.Digraph(2, [[0, 1], (1, 0)])
    assert graph.edges == ((0, 1), (1, 0))
    assert graph == df.Digraph(2, ((0, 1), (1, 0)))
    assert len(df.enumerate_vertices(graph, df.cost_vector([1, 1])).vertices) == 2


# ---------------------------------------------------------------------------
# records


def _record_cases():
    """One valid field set per record class, and bad field sets with the
    typed error each must raise, as ``(class, fields, bad)``."""
    graph = df.Digraph(2, ((0, 1),))
    p, q = df.Point.of(0, 0), df.Point.of(0, 1)
    circuit = df.PartitionCircuit(frozenset({1}))
    step = df.SignedStep(circuit, 1, Fraction(1), frozenset({0}))
    walk = df.Walk((p, q), (step,), "circuit")
    costs = (Fraction(1),)
    return [
        (df.Digraph, {"node_count": 2, "edges": ((0, 1),)}, [
            ({"node_count": 0, "edges": ()}, df.ValidationError),
            ({"node_count": 2, "edges": ((0, 0),)}, df.ValidationError),
            ({"node_count": 3, "edges": ((0, 1),)}, df.ValidationError),
        ]),
        (Block, {"graph": graph, "nodes": (0, 1), "edges": (0,)}, []),
        (df.Point, {"coords": (Fraction(0), Fraction(1, 2))}, [
            ({"coords": ()}, df.ValidationError),
            ({"coords": (Fraction(1),)}, df.ValidationError),
            ({"coords": (0, 0.5)}, df.FormatError),
        ]),
        (df.FeasibilityResult, {"feasible": True, "witness": p}, []),
        (df.VertexSet, {"vertices": (p, q), "tree_witnesses": ((frozenset({0}),),) * 2}, []),
        (_Skeleton, {"tight": ((0,),), "adjacency": ((),), "states": ((0, 0),),
                     "index": {(0, 0): 0}}, []),
        (df.DegeneracyReport, {"nondegenerate": False, "witnesses": (p,)}, []),
        (df.PartitionCircuit, {"s_set": frozenset({1})}, [
            ({"s_set": frozenset()}, df.ValidationError),
            ({"s_set": frozenset({0, 1})}, df.ValidationError),
        ]),
        (df.SignedStep, {"circuit": circuit, "sign": -1, "epsilon": Fraction(1, 3),
                         "entering_edges": frozenset({0})}, [
            ({"circuit": circuit, "sign": 2, "epsilon": Fraction(1),
              "entering_edges": frozenset()}, df.ValidationError),
            ({"circuit": circuit, "sign": 1, "epsilon": Fraction(0),
              "entering_edges": frozenset()}, df.ValidationError),
        ]),
        (df.CircuitNeighbor, {"point": q, "steps": (step,)}, []),
        (df.ContractionRecord, {
            "original_graph": graph, "original_costs": costs, "graph": df.Digraph(1, ()),
            "costs": (), "edge_index": 0, "kept_node": 0, "removed_node": 1,
            "edge_cost": Fraction(1), "node_map": (0, 0), "edge_map": (None,),
            "shift": Fraction(1),
        }, []),
        (df.Walk, {"points": (p, q), "steps": (step,), "mode": "circuit"}, [
            ({"points": (), "steps": (), "mode": "edge"}, df.ValidationError),
            ({"points": (p, q), "steps": (step,), "mode": "pivot"}, df.ValidationError),
            ({"points": (p, q), "steps": (), "mode": "edge"}, df.ValidationError),
        ]),
        (df.WalkValidation, {"valid": False, "violation": "step 0 is not maximal"}, []),
        (df.DistanceResult, {"length": 1, "walk": walk}, []),
        (df.DiameterResult, {"value": 1, "pair": (p, q)}, []),
        (_Reach, {"parents": {0: None}, "depths": {0: 0}}, []),
    ]


RECORD_CASES = _record_cases()


def test_record_cases_cover_every_record_class():
    records = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("dualflow.")}
    assert {cls for cls, _, _ in RECORD_CASES} == records
    assert len(records) == 16


@pytest.mark.parametrize(
    "cls, fields, bad", RECORD_CASES, ids=[cls.__name__ for cls, _, _ in RECORD_CASES]
)
def test_record_parity(cls, fields, bad):
    """Each record keeps what it had as a frozen dataclass: construction by
    position and keyword, equality within its class only, the hash of its
    field tuple, frozen fields, the dataclass ``repr`` and its typed checks."""
    record = cls(**fields)
    values = tuple(fields.values())
    assert cls(*values) == record
    assert tuple(getattr(record, name) for name in fields) == values
    twin = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(fields, "object")})
    assert twin(*values) != record and record != twin(*values)
    like = dataclasses.make_dataclass(cls.__qualname__, list(fields), frozen=True)(*values)
    assert repr(record) == repr(like)
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(like)
        assert {record: 1}[cls(**fields)] == 1
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    name = next(iter(fields))
    assert record.replace() == record == record.__replace__(**{name: fields[name]})
    for bad_fields, error in bad:
        with pytest.raises(error):
            cls(**bad_fields)
        with pytest.raises(error):
            record.replace(**bad_fields)


def test_record_defaults_and_cached_properties():
    assert df.WalkValidation(True).violation is None
    assert df.WalkValidation(True) == df.WalkValidation(True, None)
    vertices = df.enumerate_vertices(*df.example_graph()).vertices
    vertex_set = df.VertexSet(vertices, ((),) * len(vertices))
    assert vertex_set.index_of(vertices[-1]) == len(vertices) - 1
    assert vertex_set.index_of(vertices[0]) == 0
    with pytest.raises(df.NotAVertex):
        vertex_set.index_of(df.Point.of(0, 99, 0, 0))
    with pytest.raises(TypeError):
        df.Point((Fraction(0),)).replace(coordinates=())
