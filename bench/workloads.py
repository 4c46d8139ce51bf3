"""The four workloads: input generation from a seed, and one round of
operations each.

A round is a generator of :class:`Op` objects.  The runner times each
``op.fn()``, stores the result in ``op.result`` (``op.ok`` is false when the
call raised or the check rejected it) and then resumes the generator, which
may build later operations from earlier results.  ``op.check`` runs outside
the timed region and returns the answer recorded for the run.  Checks that
span several operations run at the end of the round and raise
:class:`CheckError`.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import dualflow as df
from dualflow import cli

from checks import (
    CheckError,
    brute_vertices,
    check_bound,
    check_eq,
    check_le,
    check_vertex_set,
    check_walk,
    circuit_bound,
    cut_vertices,
    degenerate,
    edge_bound,
    tight_edges,
)


@dataclass
class Op:
    name: str
    fn: Callable[[], Any]
    check: Callable[[Any], Any]
    counted: bool = True
    result: Any = None
    answer: Any = None
    ok: bool = False


@dataclass
class Instance:
    """One input instance plus the benchmark's own view of it: named points,
    whether it has a cut vertex, and (on first use) its brute-force
    vertex set."""

    label: str
    graph: df.Digraph
    costs: df.CostVector
    points: dict

    def __post_init__(self):
        self.n = self.graph.node_count
        self.edges = self.graph.edges
        self.tag = "cutvertex" if cut_vertices(self.n, self.edges) else "biconnected"
        self._brute = None

    def brute(self) -> set:
        if self._brute is None:
            self._brute = brute_vertices(self.n, self.edges, self.costs)
        return self._brute

    def walk_length(self, walk, source, target, mode) -> int:
        length = check_walk(
            self.n, self.edges, self.costs,
            [p.coords for p in walk.points], source.coords, target.coords, mode,
        )
        check_eq(f"{self.label} {mode} walk length field", walk.length, length)
        return length


def clear_caches() -> None:
    """Clear every ``functools`` cache in dualflow's modules, so each round
    starts as cold as a fresh process and holds no memory from the last."""
    for name, module in list(sys.modules.items()):
        if name == "dualflow" or name.startswith("dualflow."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# ---------------------------------------------------------------------------
# input generation


def sub_tournament(rng: random.Random, size: int, skip: float = 0.5, integer=False):
    """Connected orientation of a random subset of the complete graph; costs
    are rationals in [0, 3] with denominators up to 20 (the acceptance
    sweep's distribution) or, with ``integer``, integers in {0, 1, 2}."""
    while True:
        edges = []
        for i in range(size):
            for j in range(i + 1, size):
                roll = rng.random()
                if roll < skip:
                    continue
                edges.append((i, j) if roll < (1 + skip) / 2 else (j, i))
        try:
            graph = df.Digraph(size, tuple(edges))
        except df.ValidationError:
            continue
        if integer:
            costs = [Fraction(rng.randint(0, 2)) for _ in edges]
        else:
            costs = []
            for _ in edges:
                den = rng.randint(1, 20)
                costs.append(Fraction(rng.randint(0, 3 * den), den))
        return graph, tuple(costs)


def relabel(label, graph, costs, points, rng) -> Instance:
    """Shuffle the non-anchor node labels.  Distances and diameters are
    unchanged and the inputs are new.  Edge order is kept: spanning-tree
    enumeration and the builders' choice of target tree follow it, so
    shuffling it would change how much work a query does."""
    order = list(range(1, graph.node_count))
    rng.shuffle(order)
    new = [0] + order
    new_graph = df.Digraph(graph.node_count, tuple((new[t], new[h]) for t, h in graph.edges))
    moved = {}
    for key, point in points.items():
        coords = [Fraction(0)] * graph.node_count
        for v, c in enumerate(point):
            coords[new[v]] = Fraction(c)
        moved[key] = df.Point(tuple(coords))
    return Instance(label, new_graph, tuple(costs), moved)


def random_vertex(graph, costs, rng) -> df.Point:
    """A seeded vertex: start from shortest-path labels from random initial
    labels (a feasible point), then shift one tight component at a time,
    chosen at random, up or down until one more edge is tight, until the
    tight edges connect all nodes.  Runs on costs scaled to integers."""
    n, edges = graph.node_count, graph.edges
    scale = math.lcm(*(c.denominator for c in costs))
    ints = [c.numerator * (scale // c.denominator) for c in costs]
    u = [rng.randint(0, 3 * n) * scale for _ in range(n)]
    for _ in range(n):
        for (t, h), c in zip(edges, ints):
            if u[t] + c < u[h]:
                u[h] = u[t] + c
    while True:
        label = list(range(n))

        def root(v):
            while label[v] != v:
                v = label[v]
            return v

        for (t, h), c in zip(edges, ints):
            if c - u[h] + u[t] == 0:
                a, b = root(t), root(h)
                if a != b:
                    label[a] = b
        parts: dict[int, set] = {}
        for v in range(n):
            parts.setdefault(root(v), set()).add(v)
        if len(parts) == 1:
            return df.Point(tuple(Fraction(x - u[0], scale) for x in u))
        part = rng.choice(sorted(parts.values(), key=min))
        moves = []
        for sign in (1, -1):
            room = [
                c - u[h] + u[t]
                for (t, h), c in zip(edges, ints)
                if (h in part and t not in part and sign > 0)
                or (t in part and h not in part and sign < 0)
            ]
            if room:
                moves.append(sign * min(room))
        delta = rng.choice(moves)
        for v in part:
            u[v] += delta


def vertex_pair(graph, costs, rng, want=lambda s, t: True):
    """Two distinct seeded vertices satisfying ``want``, or None."""
    for _ in range(20):
        source = random_vertex(graph, costs, rng)
        target = random_vertex(graph, costs, rng)
        if source != target and want(source, target):
            return source, target
    return None


EXAMPLE_NEAR = (0, 0, 0, 0)
EXAMPLE_FAR = (0, Fraction(2, 3), Fraction(4, 3), 2)


def triangle():
    return df.Digraph(3, ((0, 1), (1, 2), (2, 0))), df.cost_vector([1, 1, 1])


def nondegenerate_bipartite(m, n, rng):
    while True:
        graph, costs = df.complete_bipartite(
            m, n, df.random_bipartite_costs(m, n, rng.randrange(10**9))
        )
        vertices = brute_vertices(graph.node_count, graph.edges, costs)
        if not degenerate(graph.node_count, graph.edges, costs, vertices):
            return graph, costs


def seeded_walk_instance(label, size, rng, degenerate) -> Instance:
    """A seeded sub-tournament with walk endpoints ``s`` and ``t``.

    Perturbed (``degenerate=False``): rational costs plus ``perturb_costs``,
    both endpoints with exactly ``size - 1`` tight edges, as edge walks need.
    Degenerate: integer costs in {0, 1, 2}, the source with tied tight edges.
    Instances without such a pair (a tree has a single vertex) are redrawn.
    """
    while True:
        graph, costs = sub_tournament(rng, size, integer=degenerate)
        if not degenerate:
            costs = df.perturb_costs(graph, costs, rng.randrange(10**9))

        def tight(p):
            return len(tight_edges(graph.edges, costs, p))

        if degenerate:
            pair = vertex_pair(graph, costs, rng, lambda s, t: tight(s) > size - 1)
        else:
            pair = vertex_pair(graph, costs, rng, lambda s, t: tight(s) == tight(t) == size - 1)
        if pair is not None:
            return Instance(label, graph, costs, dict(zip("st", pair)))


# ---------------------------------------------------------------------------
# shared operations


def enumerate_op(t, inst: Instance, expected=None) -> Op:
    def check(vs):
        count = check_vertex_set([v.coords for v in vs.vertices], inst.brute())
        if expected is not None:
            check_eq(f"{inst.label} vertex count", count, expected)
        return count

    return Op(
        f"{inst.label}.vertices",
        lambda: t.call("oracle.enumerate_vertices", df.enumerate_vertices, inst.graph, inst.costs, tag=inst.tag),
        check,
    )


def diameter_op(t, inst: Instance, mode: str, expected=None) -> Op:
    def check(res):
        brute = inst.brute()
        if res.pair is not None:
            a, b = res.pair
            if a.coords not in brute or b.coords not in brute or a == b:
                raise CheckError(f"{inst.label} {mode} diameter pair is not two vertices")
        if mode == "circuit":
            check_bound(f"{inst.label} circuit diameter", res.value, circuit_bound(inst.n))
        elif not degenerate(inst.n, inst.edges, inst.costs, brute):
            check_bound(f"{inst.label} edge diameter", res.value, edge_bound(inst.n, len(inst.edges)))
        if expected is not None:
            check_eq(f"{inst.label} {mode} diameter", res.value, expected)
        return res.value

    return Op(
        f"{inst.label}.diameter.{mode}",
        lambda: t.call("oracle.diameter", df.diameter, inst.graph, inst.costs, mode, tag=mode),
        check,
    )


def distance_op(t, inst: Instance, mode: str, s: str, d: str, expected=None) -> Op:
    source, target = inst.points[s], inst.points[d]
    if mode == "circuit":
        name, fn = "oracle.circuit_distance", df.circuit_distance
    else:
        name, fn = "oracle.combinatorial_distance", df.combinatorial_distance

    def check(res):
        length = inst.walk_length(res.walk, source, target, mode)
        check_eq(f"{inst.label} {mode} distance vs its witness", res.length, length)
        if expected is not None:
            check_eq(f"{inst.label} {mode} distance {s}->{d}", res.length, expected)
        return res.length

    return Op(
        f"{inst.label}.{mode}_distance.{s}-{d}",
        lambda: t.call(name, fn, inst.graph, inst.costs, source, target, tag=inst.tag),
        check,
    )


def walk_op(t, inst: Instance, mode: str, s: str, d: str, tag=None) -> Op:
    source, target = inst.points[s], inst.points[d]
    builder = df.circuit_walk if mode == "circuit" else df.edge_walk

    def run():
        walk = t.call(f"walks.{mode}_walk", builder, inst.graph, inst.costs, source, target, tag=tag)
        return walk, t.call("walks.validate_walk", df.validate_walk, inst.graph, inst.costs, walk)

    def check(result):
        walk, verdict = result
        if not verdict.valid:
            raise CheckError(f"validate_walk rejected a built walk: {verdict.violation}")
        length = inst.walk_length(walk, source, target, mode)
        if mode == "circuit":
            check_bound(f"{inst.label} circuit walk", length, circuit_bound(inst.n))
        else:
            check_bound(f"{inst.label} edge walk", length, edge_bound(inst.n, len(inst.edges)))
        return length

    return Op(f"{inst.label}.{mode}_walk.{s}-{d}", run, check)


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """Seeded ordered vertex pairs of random sub-tournaments on 3-6 nodes.

    A round is one instance of each size; from each, at most ``PAIRS``
    ordered vertex pairs are drawn, so that no single instance dominates a
    run.  The seed draws ``PASS_ROUNDS`` rounds, and a pass runs them all,
    so every pair is repeated once per pass.  Instances with more than
    ``MAX_EDGES`` edges are left out: their circuit search can take over a
    second and about 500 MiB for one pair, which would make a run's time and
    peak memory depend on whether one was drawn.  The oracle workload
    measures that regime on fixed instances.
    """

    PASS_ROUNDS = 80
    PAIRS = 8
    MAX_EDGES = 9

    def generate(self, seed):
        rng = random.Random(seed)
        rounds = []
        for _ in range(self.PASS_ROUNDS):
            sizes = [3, 4, 5, 6]
            rng.shuffle(sizes)
            batch = []
            for size in sizes:
                graph, costs = sub_tournament(rng, size)
                while graph.edge_count > self.MAX_EDGES:
                    graph, costs = sub_tournament(rng, size)
                batch.append((graph, costs, rng.randrange(2**32)))
            rounds.append(batch)
        return rounds

    def round(self, inputs, index, t):
        for k, (graph, costs, pair_seed) in enumerate(inputs[index % len(inputs)]):
            inst = Instance(f"r{index}i{k}", graph, costs, {})
            yield from self._instance(inst, random.Random(pair_seed), t)

    def _instance(self, inst: Instance, rng, t):
        tag = inst.tag

        def prepare():
            vs = t.call("oracle.enumerate_vertices", df.enumerate_vertices, inst.graph, inst.costs, tag=tag)
            report = t.call("model.degeneracy_report", df.degeneracy_report, inst.graph, inst.costs)
            return vs.vertices, report.nondegenerate

        def check_prepare(result):
            vertices, nondegenerate = result
            count = check_vertex_set([v.coords for v in vertices], inst.brute())
            check_eq("nondegenerate flag", nondegenerate,
                     not degenerate(inst.n, inst.edges, inst.costs, inst.brute()))
            return {"nodes": inst.n, "edges": len(inst.edges), "vertices": count,
                    "nondegenerate": nondegenerate}

        prep = Op("sweep.instance", prepare, check_prepare, counted=False)
        yield prep
        if not prep.ok:
            return
        vertices, nondegenerate = prep.result
        pairs = [(s, d) for s in vertices for d in vertices if s != d]
        pairs = rng.sample(pairs, min(self.PAIRS, len(pairs)))
        edge_oracle = {}
        for source, target in pairs:
            op = pair_op(t, inst, tag, source, target, nondegenerate)
            yield op
            if op.ok and nondegenerate:
                edge_oracle[source, target] = op.result["comb"].length
        for (source, target), length in edge_oracle.items():
            if edge_oracle.get((target, source), length) != length:
                raise CheckError(f"{inst.label}: edge distance is not symmetric")


def pair_op(t, inst: Instance, tag, source, target, nondegenerate) -> Op:
    """Oracles, builders and validation for one ordered vertex pair."""
    g, c = inst.graph, inst.costs

    def run():
        out = {
            "cd": t.call("oracle.circuit_distance", df.circuit_distance, g, c, source, target, tag=tag),
            "cw": t.call("walks.circuit_walk", df.circuit_walk, g, c, source, target,
                         tag=None if nondegenerate else "degenerate"),
        }
        out["cv"] = t.call("walks.validate_walk", df.validate_walk, g, c, out["cw"])
        if nondegenerate:
            out["ew"] = t.call("walks.edge_walk", df.edge_walk, g, c, source, target)
            out["ev"] = t.call("walks.validate_walk", df.validate_walk, g, c, out["ew"])
            out["comb"] = t.call("oracle.combinatorial_distance", df.combinatorial_distance, g, c, source, target, tag=tag)
        return out

    def check(out):
        for key in ("cv", "ev"):
            if key in out and not out[key].valid:
                raise CheckError(f"validate_walk rejected a built walk: {out[key].violation}")
        circuit_oracle = inst.walk_length(out["cd"].walk, source, target, "circuit")
        check_eq("circuit distance vs its witness", out["cd"].length, circuit_oracle)
        circuit_builder = inst.walk_length(out["cw"], source, target, "circuit")
        check_bound("circuit walk", circuit_builder, circuit_bound(inst.n))
        check_le("circuit oracle <= builder", circuit_oracle, circuit_builder)
        answer = [circuit_oracle, circuit_builder]
        if nondegenerate:
            edge_oracle = inst.walk_length(out["comb"].walk, source, target, "edge")
            check_eq("edge distance vs its witness", out["comb"].length, edge_oracle)
            edge_builder = inst.walk_length(out["ew"], source, target, "edge")
            check_bound("edge walk", edge_builder, edge_bound(inst.n, len(inst.edges)))
            check_le("edge oracle <= builder", edge_oracle, edge_builder)
            check_le("circuit distance <= edge distance", circuit_oracle, edge_oracle)
            answer += [edge_oracle, edge_builder]
        return answer

    return Op("sweep.pair", run, check)


# ---------------------------------------------------------------------------
# oracle


class Oracle:
    """Exact queries on the paper's constructions with cut vertices (the
    example glued to a triangle, the example with two leaves, gk(2)) and on
    2-connected instances (the example, bipartite 3x3, 2x5 and 3x4, a dense
    6-node tournament).  The instances and query pairs are fixed; the seed
    relabels the nodes."""

    CONTENT_SEED = 2014
    PASS_ROUNDS = 1

    def generate(self, seed):
        # Seeded costs and pairs were tried and moved the round time and peak
        # memory from seed to seed: one circuit query on bipartite 3x4 costs
        # ~40 ms at distance 3 and ~1.5 s at distance 4.
        fixed, rng = random.Random(self.CONTENT_SEED), random.Random(seed)
        ends = {"near": EXAMPLE_NEAR, "far": EXAMPLE_FAR}
        ex_graph, ex_costs = df.example_graph()
        tri_graph, tri_costs = triangle()
        glued, glued_costs, _ = df.glue([(ex_graph, ex_costs, 0), (tri_graph, tri_costs, 0)])
        leaf_graph, leaf_costs, leaf_ends = ex_graph, ex_costs, dict(ends)
        for attach in (2, 4):
            leaf_graph, leaf_costs = df.add_leaf(leaf_graph, leaf_costs, attach)
            leaf_ends = {k: tuple(p) + (p[attach],) for k, p in leaf_ends.items()}
        gk_graph, gk_costs = df.family_gk(2)
        gk_ends = {k: tuple(p) + tuple(p[1:]) for k, p in ends.items()}
        bip33 = nondegenerate_bipartite(3, 3, fixed)
        bip25 = nondegenerate_bipartite(2, 5, fixed)
        bip34 = df.complete_bipartite(3, 4, df.random_bipartite_costs(3, 4, 1))
        bip34_vertices = sorted(brute_vertices(7, bip34[0].edges, bip34[1]))
        tournament = sub_tournament(fixed, 6, skip=0.0)
        glued_ends = dict(zip("ab", vertex_pair(glued, glued_costs, fixed)))
        tournament_ends = dict(zip("ab", vertex_pair(*tournament, fixed)))
        made = [
            ("example", ex_graph, ex_costs, ends),
            ("triangle", tri_graph, tri_costs, {}),
            ("glued", glued, glued_costs, glued_ends),
            ("leaves", leaf_graph, leaf_costs, leaf_ends),
            ("gk2", gk_graph, gk_costs, gk_ends),
            ("bip3x3", *bip33, {}),
            ("bip2x5", *bip25, {}),
            ("bip3x4", *bip34, {"a": bip34_vertices[0], "b": bip34_vertices[-1]}),
            ("tournament6", *tournament, tournament_ends),
        ]
        return {label: relabel(label, *rest, rng) for label, *rest in made}

    def round(self, inputs, index, t):
        answers = {}
        i = inputs
        ops = [
            enumerate_op(t, i["example"], 14),
            diameter_op(t, i["example"], "edge"),
            diameter_op(t, i["example"], "circuit", 4),
            distance_op(t, i["example"], "circuit", "near", "far", 4),
            distance_op(t, i["example"], "edge", "near", "far"),
            distance_op(t, i["example"], "edge", "far", "near"),
            enumerate_op(t, i["triangle"]),
            diameter_op(t, i["triangle"], "edge"),
            diameter_op(t, i["triangle"], "circuit"),
            enumerate_op(t, i["glued"]),
            diameter_op(t, i["glued"], "edge"),
            diameter_op(t, i["glued"], "circuit"),
            distance_op(t, i["glued"], "circuit", "a", "b"),
            distance_op(t, i["glued"], "edge", "a", "b"),
            distance_op(t, i["glued"], "edge", "b", "a"),
            diameter_op(t, i["leaves"], "edge"),
            diameter_op(t, i["leaves"], "circuit"),
            distance_op(t, i["leaves"], "circuit", "near", "far", 4),
            enumerate_op(t, i["gk2"], 14**2),
            distance_op(t, i["gk2"], "circuit", "near", "far", 4 * 2),
            distance_op(t, i["gk2"], "edge", "near", "far"),
            enumerate_op(t, i["bip3x3"]),
            diameter_op(t, i["bip3x3"], "edge"),
            diameter_op(t, i["bip3x3"], "circuit"),
            diameter_op(t, i["bip2x5"], "edge"),
            diameter_op(t, i["bip2x5"], "circuit"),
            distance_op(t, i["bip3x4"], "circuit", "a", "b"),
            distance_op(t, i["bip3x4"], "edge", "a", "b"),
            distance_op(t, i["bip3x4"], "edge", "b", "a"),
            diameter_op(t, i["bip3x4"], "edge"),
            enumerate_op(t, i["tournament6"]),
            distance_op(t, i["tournament6"], "circuit", "a", "b"),
            distance_op(t, i["tournament6"], "edge", "a", "b"),
            distance_op(t, i["tournament6"], "edge", "b", "a"),
            diameter_op(t, i["tournament6"], "edge"),
        ]
        for op in ops:
            yield op
            if op.ok:
                answers[op.name] = op.answer
        self.cross_check(answers)

    @staticmethod
    def cross_check(a):
        def have(*names):
            return all(name in a for name in names)

        for mode in ("edge", "circuit"):
            parts = [f"example.diameter.{mode}", f"triangle.diameter.{mode}", f"glued.diameter.{mode}"]
            if have(*parts):
                check_eq(f"glued {mode} diameter = sum of the parts", a[parts[2]], a[parts[0]] + a[parts[1]])
            if have(parts[0], f"leaves.diameter.{mode}"):
                check_eq(f"add_leaf keeps the {mode} diameter", a[f"leaves.diameter.{mode}"], a[parts[0]])
        if have("example.vertices", "triangle.vertices", "glued.vertices"):
            check_eq("glued vertices = product", a["glued.vertices"], a["example.vertices"] * a["triangle.vertices"])
        for label, pairs in (("example", [("near", "far")]), ("glued", [("a", "b")]),
                             ("bip3x4", [("a", "b")]), ("tournament6", [("a", "b")])):
            for s, d in pairs:
                there, back = f"{label}.edge_distance.{s}-{d}", f"{label}.edge_distance.{d}-{s}"
                circuit = f"{label}.circuit_distance.{s}-{d}"
                if have(there, back):
                    check_eq(f"{label} edge distance is symmetric", a[there], a[back])
                if have(there, circuit):
                    check_le(f"{label} circuit distance <= edge distance", a[circuit], a[there])
        if have("gk2.circuit_distance.near-far", "gk2.edge_distance.near-far"):
            check_le("gk2 circuit <= edge distance", a["gk2.circuit_distance.near-far"], a["gk2.edge_distance.near-far"])
        for label, m, n in (("bip3x3", 3, 3), ("bip2x5", 2, 5)):
            if have(f"{label}.diameter.circuit"):
                check_le(f"{label} circuit diameter <= m+n-2", a[f"{label}.diameter.circuit"], m + n - 2)
        for label, m, n in (("bip3x3", 3, 3), ("bip2x5", 2, 5), ("bip3x4", 3, 4)):
            if have(f"{label}.diameter.edge"):
                check_le(f"{label} edge diameter <= (m-1)(n-1)", a[f"{label}.diameter.edge"], (m - 1) * (n - 1))


# ---------------------------------------------------------------------------
# builders


class Builders:
    """Walks built and validated on instances too large for the oracles.

    gk(k) for k = 2..6, near to far and back (the paper's extreme pair, fixed
    up to the seeded relabelling), in both modes; ``PER_SIZE`` seeded
    sub-tournaments of each size 7-12 with ``perturb_costs`` applied, edge
    and circuit walks between two seeded vertices; as many degenerate ones
    with integer costs in {0, 1, 2}, circuit walks only, from a vertex with
    tied tight edges.  The instances and endpoints are drawn once from a
    fixed content seed and the seed relabels the nodes, as in the oracle
    workload: with seeded instances the median walk moved 20% from seed to
    seed, four times the run-to-run spread of the fixed gk(k) walks.
    """

    GK = range(2, 7)
    SIZES = range(7, 13)
    PER_SIZE = 5
    CONTENT_SEED = 2014
    PASS_ROUNDS = 1

    def generate(self, seed):
        fixed, rng = random.Random(self.CONTENT_SEED), random.Random(seed)

        def seeded(label, size, degenerate):
            inst = seeded_walk_instance(label, size, fixed, degenerate)
            points = {key: point.coords for key, point in inst.points.items()}
            return relabel(label, inst.graph, inst.costs, points, rng)

        inputs = []
        for k in self.GK:
            graph, costs = df.family_gk(k)
            ends = {key: tuple(p) + tuple(p[1:]) * (k - 1)
                    for key, p in (("s", EXAMPLE_NEAR), ("t", EXAMPLE_FAR))}
            inst = relabel(f"gk{k}", graph, costs, ends, rng)
            inputs += [(inst, mode, a, b, None) for a, b in ("st", "ts") for mode in ("circuit", "edge")]
        for size in self.SIZES:
            for copy in range(self.PER_SIZE):
                inst = seeded(f"perturbed{size}.{copy}", size, degenerate=False)
                inputs += [(inst, mode, "s", "t", None) for mode in ("circuit", "edge")]
        for size in self.SIZES:
            for copy in range(self.PER_SIZE):
                inst = seeded(f"degenerate{size}.{copy}", size, degenerate=True)
                inputs.append((inst, "circuit", "s", "t", "degenerate"))
        return inputs

    def round(self, inputs, index, t):
        for inst, mode, source, target, tag in inputs:
            yield walk_op(t, inst, mode, source, target, tag)


# ---------------------------------------------------------------------------
# cli


class Cli:
    """One ``dualflow`` subprocess per operation, from a fixed command mix on
    instance files written at set-up."""

    PASS_ROUNDS = 1

    def __init__(self, out_dir, src_dir):
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=src_dir)

    def generate(self, seed):
        rng = random.Random(seed)
        ex_graph, ex_costs = df.example_graph()
        ex = relabel("example", ex_graph, ex_costs, {"near": EXAMPLE_NEAR, "far": EXAMPLE_FAR}, rng)
        bip = relabel("bip3x3", *nondegenerate_bipartite(3, 3, rng), {}, rng)
        walk = seeded_walk_instance("perturbed8", 8, rng, degenerate=False)
        folder = os.path.join(self.out_dir, f"cli-seed{seed}")
        os.makedirs(folder, exist_ok=True)
        files = {}
        for inst in (ex, bip, walk):
            files[inst.label] = os.path.join(folder, f"{inst.label}.graph")
            lines = [f"nodes {inst.n}"] + [
                f"edge {t} {h} {c.numerator}/{c.denominator}"
                for (t, h), c in zip(inst.edges, inst.costs)
            ]
            with open(files[inst.label], "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")

        def coords(point):
            return ",".join(f"{c.numerator}/{c.denominator}" for c in point.coords)

        commands = [
            (["verify-example"], None),
            (["vertices", files["example"]], ex),
            (["distance", files["example"], "--mode", "circuit",
              "--source-point", coords(ex.points["near"]),
              "--target-point", coords(ex.points["far"])], ex),
            (["diameter", files["bip3x3"], "--mode", "edge"], bip),
            (["walk", files["perturbed8"], "--mode", "circuit",
              "--source-point", coords(walk.points["s"]),
              "--target-point", coords(walk.points["t"])], walk),
            (["glue", files["example"], files["bip3x3"]], None),
        ]
        return [(argv + ["--json"], inst) for argv, inst in commands]

    def round(self, inputs, index, t):
        for argv, inst in inputs:
            yield Op(f"cli.{argv[0]}", lambda argv=argv: t.call("cli.subprocess", self._spawn, argv),
                     lambda out, argv=argv, inst=inst: self.check(argv, inst, out))

    def _spawn(self, argv):
        done = subprocess.run(
            [sys.executable, "-m", "dualflow.cli", *argv],
            env=self.env, capture_output=True, text=True, timeout=60,
        )
        return done.returncode, done.stdout

    def run_in_process(self, inputs, t):
        """``cli.run`` on the same command mix, inside this process."""
        for argv, _ in inputs:
            clear_caches()
            t.call("cli.run", cli.run, argv, io.StringIO())

    @staticmethod
    def check(argv, inst, out):
        code, stdout = out
        check_eq(f"{argv[0]} exit code", code, 0)
        report = json.loads(stdout)
        check_eq(f"{argv[0]} status", report["status"], "ok")
        result = report["result"]
        points = lambda rows: [tuple(Fraction(c) for c in row) for row in rows]
        command = argv[0]
        if command == "verify-example":
            failed = [c["name"] for c in result["checks"] if not c["passed"]]
            check_eq("verify-example failed checks", failed, [])
            return len(result["checks"])
        if command == "vertices":
            count = check_vertex_set(points(result["vertices"]), inst.brute())
            check_eq("example vertex count", count, 14)
            return count
        if command == "distance":
            walk = result["walk"]
            length = check_walk(inst.n, inst.edges, inst.costs, points(walk["points"]),
                                inst.points["near"].coords, inst.points["far"].coords, "circuit")
            check_eq("example circuit distance", result["distance"], 4)
            check_eq("distance vs its witness", length, 4)
            return result["distance"]
        if command == "diameter":
            if degenerate(inst.n, inst.edges, inst.costs, inst.brute()):
                raise CheckError("bipartite instance is degenerate")
            pair = points(result["pair"])
            if any(p not in inst.brute() for p in pair):
                raise CheckError("diameter pair is not two vertices")
            check_le("bipartite edge diameter <= (m-1)(n-1)", result["diameter"], 4)
            return result["diameter"]
        if command == "walk":
            walk = result["walk"]
            length = check_walk(inst.n, inst.edges, inst.costs, points(walk["points"]),
                                inst.points["s"].coords, inst.points["t"].coords, "circuit")
            check_eq("walk length field", result["length"], length)
            check_bound("circuit walk", length, circuit_bound(inst.n))
            return length
        lines = [line.split() for line in result["graph"].splitlines() if line.strip()]
        check_eq("glued node count", lines[0], ["nodes", str(4 + 6 - 1)])
        check_eq("glued edge count", len(lines) - 1, 9 + 9)
        return len(lines) - 1

