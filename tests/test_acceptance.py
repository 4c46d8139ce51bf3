"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -s`` to see the lines as they print;
the random-instance sweep is shared between the bound and sandwich checks.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

import dualflow as df
from conftest import circuit_search, random_sub_tournament

SWEEP_SEED = 20260809
SWEEP_INSTANCES = 200
DEGENERATE_INSTANCES = 100


@contextmanager
def criterion(number: int, name: str, budget_seconds: float, extra: float = 0.0):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - started + extra
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# shared random sweep (criteria 5 and 6)


@dataclass
class PairRecord:
    circuit_builder: int
    circuit_oracle: int
    edge_builder: int | None
    edge_oracle: int | None


@dataclass
class InstanceRecord:
    graph: df.Digraph
    costs: df.CostVector
    nondegenerate: bool
    pairs: dict = field(default_factory=dict)


@pytest.fixture(scope="session")
def sweep():
    """Builders, oracles, and validations for every ordered vertex pair of
    200 seeded random sub-tournaments on three to six nodes."""
    from dualflow.oracle import default_depth_cap

    rng = random.Random(SWEEP_SEED)
    records: list[InstanceRecord] = []
    started = time.monotonic()
    for _ in range(SWEEP_INSTANCES):
        size = rng.choice([3, 4, 5, 6])
        graph, costs = random_sub_tournament(rng, size)
        assert df.feasibility_status(graph, costs).feasible
        vertices = df.enumerate_vertices(graph, costs).vertices
        record = InstanceRecord(
            graph, costs, df.degeneracy_report(graph, costs).nondegenerate
        )
        oracle_circuit: dict[tuple[df.Point, df.Point], int] = {}
        for source in vertices:
            targets = [v for v in vertices if v != source]
            if not targets:
                continue
            reach = circuit_search(
                graph, costs, source, targets, default_depth_cap(graph), 10**6
            )
            for target, length in reach.lengths.items():
                oracle_circuit[source, target] = length
        for source in vertices:
            for target in vertices:
                if source == target:
                    continue
                walk = df.circuit_walk(graph, costs, source, target)
                check = df.validate_walk(graph, costs, walk)
                assert check.valid, check.violation
                edge_builder = edge_oracle = None
                if record.nondegenerate:
                    edge = df.edge_walk(graph, costs, source, target)
                    edge_check = df.validate_walk(graph, costs, edge)
                    assert edge_check.valid, edge_check.violation
                    edge_builder = edge.length
                    edge_oracle = df.combinatorial_distance(
                        graph, costs, source, target
                    ).length
                record.pairs[source, target] = PairRecord(
                    circuit_builder=walk.length,
                    circuit_oracle=oracle_circuit[source, target],
                    edge_builder=edge_builder,
                    edge_oracle=edge_oracle,
                )
        records.append(record)
    return records, time.monotonic() - started


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_example_vertices(example, near_vertex, far_vertex):
    with criterion(1, "example vertices", 1.0):
        graph, costs = example
        near_tree = {
            df.find_edge(graph, 3, 0),
            df.find_edge(graph, 2, 0),
            df.find_edge(graph, 3, 1),
        }
        far_tree = {
            df.find_edge(graph, 0, 3),
            df.find_edge(graph, 0, 2),
            df.find_edge(graph, 1, 3),
        }
        assert df.vertex_from_tree(graph, costs, near_tree) == near_vertex
        assert df.vertex_from_tree(graph, costs, far_tree) == far_vertex


def test_criterion_2_example_edge_walk(example):
    with criterion(2, "example edge walk", 1.0):
        graph, costs = example
        points = [
            df.Point.of(0, 0, 0, 0),
            df.Point.of(0, 1, 0, 1),
            df.Point.of(0, 1, "4/3", 1),
            df.Point.of(0, 1, "4/3", 2),
            df.Point.of(0, "2/3", "4/3", 2),
        ]
        walk = df.walk_from_points(graph, costs, points, "edge")
        check = df.validate_walk(graph, costs, walk)
        assert check.valid, check.violation
        for u, v in zip(points, points[1:]):
            assert df.are_adjacent(graph, costs, u, v)


def test_criterion_3_example_first_steps(example, near_vertex, far_vertex):
    with criterion(3, "example first circuit steps", 1.0):
        graph, costs = example
        expected_gaps = {
            df.Point.of(0, -1, 0, 0): df.Point.of(0, "5/3", "4/3", 2),
            df.Point.of(0, 0, 1, 0): df.Point.of(0, "2/3", "1/3", 2),
            df.Point.of(0, 0, 0, "10/9"): df.Point.of(0, "2/3", "4/3", "8/9"),
            df.Point.of(0, 1, 0, 1): df.Point.of(0, "-1/3", "4/3", 1),
            df.Point.of(0, 0, 1, 1): df.Point.of(0, "2/3", "1/3", 1),
            df.Point.of(0, 1, 1, 1): df.Point.of(0, "-1/3", "1/3", 1),
        }
        neighbors = df.first_circuit_neighbors(graph, costs, near_vertex)
        assert len(neighbors) == 6
        assert {n.point for n in neighbors} == set(expected_gaps)
        for destination, gap in expected_gaps.items():
            diff = tuple(
                a - b for a, b in zip(far_vertex.coords, destination.coords)
            )
            assert diff == gap.coords
        blocked = df.PartitionCircuit(frozenset({1, 2}))
        for sign in (1, -1):
            with pytest.raises(df.NotApplicable):
                df.max_step(graph, costs, near_vertex, blocked, sign)


def test_criterion_4_example_distances(example, near_vertex, far_vertex):
    with criterion(4, "example distances", 5.0):
        graph, costs = example
        assert df.circuit_distance(graph, costs, near_vertex, far_vertex).length == 4
        assert (
            df.combinatorial_distance(graph, costs, near_vertex, far_vertex).length
            == 4
        )


def test_criterion_5_quadratic_bounds(sweep):
    records, sweep_elapsed = sweep
    with criterion(5, "quadratic bound compliance", 300.0, extra=sweep_elapsed):
        assert len(records) == SWEEP_INSTANCES
        checked_pairs = 0
        checked_edge = 0
        for record in records:
            nodes = record.graph.node_count
            assert 3 <= nodes <= 6
            edge_bound = min(
                (nodes - 1) * record.graph.edge_count, (nodes**3 - nodes) // 6
            )
            circuit_bound = nodes * (nodes - 1) // 2
            for pair in record.pairs.values():
                checked_pairs += 1
                assert pair.circuit_builder <= circuit_bound
                if pair.edge_builder is not None:
                    checked_edge += 1
                    assert pair.edge_builder <= edge_bound
        assert checked_pairs > 0 and checked_edge > 0
        print(
            f"  (criterion 5 detail: {checked_pairs} ordered pairs, "
            f"{checked_edge} with edge walks)"
        )


def test_criterion_6_oracle_sandwich(sweep):
    records, _ = sweep
    with criterion(6, "oracle sandwich", 300.0):
        for record in records:
            for pair in record.pairs.values():
                assert pair.circuit_oracle <= pair.circuit_builder
                if pair.edge_builder is not None:
                    assert pair.edge_oracle <= pair.edge_builder
                    assert pair.circuit_oracle <= pair.edge_oracle


TRIANGLE = (df.Digraph(3, ((0, 1), (1, 2), (2, 0))), df.cost_vector([1, 1, 1]))


def test_criterion_7_glue_additivity(example):
    with criterion(7, "glue additivity", 600.0):
        graph, costs = example
        tri, tric = TRIANGLE
        glued, glued_costs, _ = df.glue([(graph, costs, 0), (tri, tric, 0)])
        edge_sum = (
            df.diameter(graph, costs, "edge").value
            + df.diameter(tri, tric, "edge").value
        )
        assert df.diameter(glued, glued_costs, "edge").value == edge_sum
        circuit_sum = (
            df.diameter(graph, costs, "circuit").value
            + df.diameter(tri, tric, "circuit").value
        )
        assert df.diameter(glued, glued_costs, "circuit").value == circuit_sum


def test_criterion_8_lower_bound_family(example):
    with criterion(8, "glued family lower bound", 60.0):
        graph, costs = example
        near = df.Point.of(0, 0, 0, 0)
        far = df.Point.of(0, "2/3", "4/3", 2)
        # each copy holds a pair at circuit distance exactly four
        assert df.circuit_distance(graph, costs, near, far).length == 4

        glued, glued_costs = df.family_gk(2)
        copy_nodes = [set(range(1, 4)), set(range(4, 7))]
        # every circuit of the glued instance lives inside one copy, so any
        # circuit walk splits into two independent per-copy walks
        for circuit in df.enumerate_partitions(glued):
            assert any(circuit.s_set <= nodes for nodes in copy_nodes)
        # both endpoints exist as vertices of the glued instance
        source = df.Point(near.coords + near.coords[1:])
        target = df.Point(far.coords + far.coords[1:])
        assert df.is_vertex(glued, glued_costs, source)
        assert df.is_vertex(glued, glued_costs, target)
        # hence the circuit diameter is at least 4 + 4 = 8; the constructive
        # walk must respect the same decomposition
        walk = df.circuit_walk(glued, glued_costs, source, target)
        assert df.validate_walk(glued, glued_costs, walk).valid
        assert 8 <= walk.length <= 21
        # the distances add over the copies: exactly 4k, and the pair is
        # extreme, so gk(2)'s circuit diameter is exactly 8
        for k in range(2, 7):
            gk, gk_costs = df.family_gk(k)
            ends = [df.Point(p.coords[:1] + p.coords[1:] * k) for p in (near, far)]
            result = df.circuit_distance(gk, gk_costs, *ends)
            assert result.length == 4 * k
            assert df.validate_walk(gk, gk_costs, result.walk).valid
        assert df.diameter(glued, glued_costs, "circuit").value == 8
        # so gk(k)'s circuit diameter is exactly 4k: it exceeds the bipartite
        # circuit bound |V| - 2 by k + 1, an arbitrary additive constant,
        # and it is at least 4/3 |V| - 4
        for k in range(1, 11):
            gk, gk_costs = df.family_gk(k)
            nodes = gk.node_count
            value = df.diameter(gk, gk_costs, "circuit").value
            assert value == 4 * k
            assert value - (nodes - 2) == k + 1
            assert value >= Fraction(4, 3) * nodes - 4


def signatures(m: int, n: int) -> int:
    """C(m+n-2, m-1): the row-degree sequences of a spanning tree of K_{m,n}
    (Balinski's signatures), the vertex count of every nondegenerate m x n
    instance measured."""
    return math.comb(m + n - 2, m - 1)


def test_criterion_9_bipartite_bounds():
    with criterion(9, "bipartite diameter bounds", 120.0):
        rng = random.Random(SWEEP_SEED + 9)
        done = 0
        while done < 50:
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            matrix = df.random_bipartite_costs(m, n, rng.randrange(10**9))
            graph, costs = df.complete_bipartite(m, n, matrix)
            if not df.degeneracy_report(graph, costs).nondegenerate:
                continue
            done += 1
            assert len(df.enumerate_vertices(graph, costs).vertices) == signatures(m, n)
            assert df.diameter(graph, costs, "edge").value <= (m - 1) * (n - 1)
            assert df.diameter(graph, costs, "circuit").value <= m + n - 2
        # m = n = 4: three fixed instances and 16 random ones.  A circuit
        # diameter searches only the sources whose edge eccentricity exceeds
        # the best so far, and from each only the farther targets; that
        # still takes 0.1-4 s per instance, too slow to draw 50.  Cost seeds
        # 11 and 12 have diameter 5; their searches fit the default caps only
        # because the search tests its last two layers.
        m = n = 4
        drawn = [(rng.randrange(10**9), None) for _ in range(16)]
        for seed, expected in [(7, 4), (11, 5), (12, 5)] + drawn:
            graph, costs = df.complete_bipartite(m, n, df.random_bipartite_costs(m, n, seed))
            assert df.degeneracy_report(graph, costs).nondegenerate
            assert len(df.enumerate_vertices(graph, costs).vertices) == signatures(m, n)
            circuit = df.diameter(graph, costs, "circuit").value
            assert expected in (None, circuit)
            assert circuit <= m + n - 2
            assert df.diameter(graph, costs, "edge").value <= (m - 1) * (n - 1)
        # edge bounds from m x n = 5 x 5 to 7 x 7 at the default caps: the
        # vertices and their skeleton come from the pivot search, and the
        # cap counts them, not the 390,625 to 1.4e10 spanning trees
        large = [(5, 5, 70, 9), (5, 6, 126, 11), (6, 6, 252, 13), (7, 7, 924, 15)]
        for m, n, count, expected in large:
            graph, costs = df.complete_bipartite(m, n, df.random_bipartite_costs(m, n, 7))
            assert df.degeneracy_report(graph, costs).nondegenerate
            assert len(df.enumerate_vertices(graph, costs).vertices) == count == signatures(m, n)
            edge = df.diameter(graph, costs, "edge").value
            assert edge == expected
            assert edge <= (m - 1) * (n - 1)
        print(
            "  (criterion 9 detail: 50 random instances with m, n <= 3, "
            "bipartite 4x4 (cost seeds 7, 11 and 12, and 16 random cost "
            "seeds), and the edge diameters of bipartite 5x5, 5x6, 6x6 and "
            "7x7 (cost seed 7); every vertex count is C(m+n-2, m-1))"
        )


def test_criterion_10_contraction_face_bijection():
    with criterion(10, "contraction face bijection", 60.0):
        rng = random.Random(SWEEP_SEED + 10)
        done = 0
        while done < 50:
            size = rng.randint(2, 5)
            graph, costs = random_sub_tournament(rng, size)
            edge = rng.randrange(graph.edge_count)
            try:
                contracted, new_costs, record = df.contract_edge(graph, costs, edge)
            except df.FaceEmpty:
                continue
            done += 1
            lifted = [
                df.lift_point(record, w)
                for w in df.enumerate_vertices(contracted, new_costs).vertices
            ]
            assert len({p.coords for p in lifted}) == len(lifted)
            on_face = [
                v
                for v in df.enumerate_vertices(graph, costs).vertices
                if edge in df.tight_graph(graph, costs, v)
            ]
            assert sorted(p.coords for p in lifted) == sorted(
                p.coords for p in on_face
            )


def test_criterion_11_degenerate_instances():
    from dualflow.oracle import default_depth_cap

    with criterion(11, "degenerate instances", 30.0):
        rng = random.Random(SWEEP_SEED + 11)
        degenerate = pairs = perturbed_pairs = 0
        for _ in range(DEGENERATE_INSTANCES):
            size = rng.choice([3, 4, 5, 6])
            graph, costs = random_sub_tournament(rng, size, integer_costs=True)
            nodes = graph.node_count
            vertices = df.enumerate_vertices(graph, costs).vertices
            for source in vertices:
                targets = [v for v in vertices if v != source]
                if not targets:
                    continue
                reach = circuit_search(
                    graph, costs, source, targets, default_depth_cap(graph), 10**6
                )
                for target in targets:
                    pairs += 1
                    walk = df.circuit_walk(graph, costs, source, target)
                    check = df.validate_walk(graph, costs, walk)
                    assert check.valid, check.violation
                    assert walk.length <= nodes * (nodes - 1) // 2
                    assert reach.lengths[target] <= walk.length
                    try:
                        edge = df.edge_walk(graph, costs, source, target)
                    except df.DegenerateInstance:
                        continue
                    check = df.validate_walk(graph, costs, edge)
                    assert check.valid, check.violation
            if df.degeneracy_report(graph, costs).nondegenerate:
                continue
            degenerate += 1
            perturbed = df.perturb_costs(graph, costs, rng.randrange(10**9))
            assert df.degeneracy_report(graph, perturbed).nondegenerate
            edge_bound = min((nodes - 1) * graph.edge_count, (nodes**3 - nodes) // 6)
            perturbed_vertices = df.enumerate_vertices(graph, perturbed).vertices
            for source in perturbed_vertices:
                for target in perturbed_vertices:
                    if source == target:
                        continue
                    perturbed_pairs += 1
                    edge = df.edge_walk(graph, perturbed, source, target)
                    check = df.validate_walk(graph, perturbed, edge)
                    assert check.valid, check.violation
                    assert edge.length <= edge_bound
        assert degenerate > 0
        print(
            f"  (criterion 11 detail: {degenerate} degenerate instances, "
            f"{pairs} ordered pairs, {perturbed_pairs} after perturbation)"
        )
