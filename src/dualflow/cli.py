"""Command-line front end.

Subcommands: ``gen`` (example | gk | bipartite), ``glue``, ``vertices``,
``distance``, ``diameter``, ``walk``, ``verify-example``.  Reports go to
stdout as human text, or JSON with ``--json``; ``-o FILE`` redirects the
primary output.  Exit codes: 0 ok, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import IO, Sequence

from . import oracle, walks
from .errors import (
    DualflowError,
    FormatError,
    InfeasibleInstance,
    InternalInvariant,
    NotApplicable,
)
from .circuits import PartitionCircuit, first_circuit_neighbors, max_step
from .instances import (
    complete_bipartite,
    example_graph,
    family_gk,
    glue,
    random_bipartite_costs,
)
from .model import (
    DEFAULT_TREE_CAP,
    CostVector,
    Digraph,
    Point,
    feasibility_status,
    load_graph,
    rational,
    rational_str,
    save_graph,
    serialize_graph,
    vertex_from_tree,
)

_TREE_TOKEN = re.compile(r"^v(\d+)v(\d+)$")


def _point_payload(point: Point) -> list[str]:
    return [rational_str(c) for c in point.coords]


def _step_payload(step) -> dict:
    return {
        "s_set": sorted(step.circuit.s_set),
        "sign": "+" if step.sign > 0 else "-",
        "epsilon": rational_str(step.epsilon),
        "entering_edges": sorted(step.entering_edges),
    }


def _walk_payload(walk: walks.Walk) -> dict:
    return {
        "mode": walk.mode,
        "length": walk.length,
        "points": [_point_payload(p) for p in walk.points],
        "steps": [_step_payload(s) for s in walk.steps],
    }


def _parse_tree_tokens(graph: Digraph, text: str) -> frozenset[int]:
    indices = set()
    for token in text.split(","):
        token = token.strip()
        match = _TREE_TOKEN.match(token)
        if not match:
            raise FormatError(f"bad tree token {token!r} (expected vAvB)")
        indices.add(walks.find_edge(graph, int(match.group(1)), int(match.group(2))))
    return frozenset(indices)


def _load_instance(path: str) -> tuple[Digraph, CostVector]:
    graph, costs = load_graph(path)
    if not feasibility_status(graph, costs).feasible:
        raise InfeasibleInstance(
            "the instance is infeasible (negative-cost directed cycle)"
        )
    return graph, costs


def _resolve_point(
    graph: Digraph, costs: CostVector, tree_arg: str | None, point_arg: str | None
) -> Point:
    if tree_arg is not None:
        return vertex_from_tree(graph, costs, _parse_tree_tokens(graph, tree_arg))
    return Point(tuple(rational(tok) for tok in point_arg.split(",")))


def _emit(report: dict, args, out: IO[str], path: str | None) -> None:
    """Write the report to the file ``path`` when given, else to ``out``;
    opening the file may raise :class:`OSError`."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            _write_report(report, args, handle)
    else:
        _write_report(report, args, out)


def _write_report(report: dict, args, target: IO[str]) -> None:
    if args.json:
        json.dump(report, target, indent=2, default=str)
        target.write("\n")
    else:
        _emit_text(report, target)


def _emit_text(report: dict, out: IO[str]) -> None:
    out.write(f"command: {report['command']}\n")
    instance = report.get("instance")
    if instance:
        out.write(f"instance: {instance['nodes']} nodes, {instance['edges']} edges\n")
    if report["status"] == "error":
        out.write(f"error [{report['error']['code']}]: {report['error']['message']}\n")
        return
    result = report.get("result") or {}
    for key, value in result.items():
        if key == "walk" and isinstance(value, dict):
            out.write(f"walk length: {value['length']}\n")
            for coords in value["points"]:
                out.write("  (" + ", ".join(coords) + ")\n")
        elif key == "vertices" and isinstance(value, list):
            out.write(f"vertices: {len(value)}\n")
            for coords in value:
                out.write("  (" + ", ".join(coords) + ")\n")
        elif key == "checks" and isinstance(value, list):
            for item in value:
                state = "PASS" if item["passed"] else "FAIL"
                out.write(f"{state} {item['name']}\n")
        else:
            out.write(f"{key}: {value}\n")


def _instance_summary(graph: Digraph) -> dict:
    return {"nodes": graph.node_count, "edges": graph.edge_count}


def _write_graph(args, graph: Digraph, costs: CostVector, out: IO[str]) -> dict:
    if args.output:
        save_graph(args.output, graph, costs)
        return {"written": args.output}
    text = serialize_graph(graph, costs)
    if args.json:
        return {"graph": text}
    out.write(text)
    return {}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args, out: IO[str]) -> dict:
    if args.kind == "example":
        graph, costs = example_graph()
    elif args.kind == "gk":
        graph, costs = family_gk(args.k)
    else:
        matrix = random_bipartite_costs(args.m, args.n, args.seed)
        graph, costs = complete_bipartite(args.m, args.n, matrix)
    result = _write_graph(args, graph, costs, out)
    return {"instance": _instance_summary(graph), "result": result}


def _cmd_glue(args, out: IO[str]) -> dict:
    parts = []
    for path in args.files:
        graph, costs = load_graph(path)
        parts.append((graph, costs, 0))
    glued, costs, _ = glue(parts)
    result = _write_graph(args, glued, costs, out)
    return {"instance": _instance_summary(glued), "result": result}


def _cmd_vertices(args, out: IO[str]) -> dict:
    graph, costs = _load_instance(args.file)
    vertex_set = oracle.enumerate_vertices(graph, costs, tree_cap=args.tree_cap)
    return {
        "instance": _instance_summary(graph),
        "result": {
            "count": len(vertex_set.vertices),
            "vertices": [_point_payload(v) for v in vertex_set.vertices],
        },
    }


def _cmd_distance(args, out: IO[str]) -> dict:
    graph, costs = _load_instance(args.file)
    source = _resolve_point(graph, costs, args.source_tree, args.source_point)
    target = _resolve_point(graph, costs, args.target_tree, args.target_point)
    if args.mode == "edge":
        res = oracle.combinatorial_distance(
            graph, costs, source, target, tree_cap=args.tree_cap
        )
    else:
        res = oracle.circuit_distance(
            graph, costs, source, target, depth_cap=args.cap, state_cap=args.states
        )
    return {
        "instance": _instance_summary(graph),
        "result": {"distance": res.length, "walk": _walk_payload(res.walk)},
    }


def _cmd_diameter(args, out: IO[str]) -> dict:
    graph, costs = _load_instance(args.file)
    res = oracle.diameter(
        graph,
        costs,
        args.mode,
        tree_cap=args.tree_cap,
        depth_cap=args.cap,
        state_cap=args.states,
    )
    result = {"diameter": res.value}
    if res.pair is not None:
        result["pair"] = [_point_payload(res.pair[0]), _point_payload(res.pair[1])]
    return {"instance": _instance_summary(graph), "result": result}


def _cmd_walk(args, out: IO[str]) -> dict:
    graph, costs = _load_instance(args.file)
    source = _resolve_point(graph, costs, args.source_tree, args.source_point)
    target = _resolve_point(graph, costs, args.target_tree, args.target_point)
    builder = walks.edge_walk if args.mode == "edge" else walks.circuit_walk
    walk = builder(graph, costs, source, target)
    check = walks.validate_walk(graph, costs, walk)
    if not check.valid:
        raise InternalInvariant(f"built walk failed validation: {check.violation}")
    return {
        "instance": _instance_summary(graph),
        "result": {"length": walk.length, "walk": _walk_payload(walk)},
    }


def verify_example(
    graph: Digraph | None = None, costs: CostVector | None = None
) -> tuple[int, list[dict]]:
    """Run the frozen checks for the canonical 4-node instance.

    An instance override lets callers demonstrate how the suite reacts when
    the data changes.  Returns (exit code, one record per check).
    """
    if graph is None or costs is None:
        graph, costs = example_graph()
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    anchor_tree = frozenset({0, 1, 2})
    far_tree = frozenset({3, 4, 5})
    near = Point.of(0, 0, 0, 0)
    far = Point.of(0, "2/3", "4/3", 2)
    try:
        got_near = vertex_from_tree(graph, costs, anchor_tree)
        got_far = vertex_from_tree(graph, costs, far_tree)
        record(
            "tree-vertices",
            got_near == near and got_far == far,
            f"{_point_payload(got_near)} / {_point_payload(got_far)}",
        )
    except DualflowError as exc:
        record("tree-vertices", False, str(exc))

    walk_points = [
        near,
        Point.of(0, 1, 0, 1),
        Point.of(0, 1, "4/3", 1),
        Point.of(0, 1, "4/3", 2),
        far,
    ]
    try:
        walk = walks.walk_from_points(graph, costs, walk_points, "edge")
        check = walks.validate_walk(graph, costs, walk)
        adjacent = all(
            oracle.are_adjacent(graph, costs, walk_points[i], walk_points[i + 1])
            for i in range(len(walk_points) - 1)
        )
        record("edge-walk", check.valid and adjacent, check.violation or "")
    except DualflowError as exc:
        record("edge-walk", False, str(exc))

    first_steps = {
        Point.of(0, -1, 0, 0): Point.of(0, "5/3", "4/3", 2),
        Point.of(0, 0, 1, 0): Point.of(0, "2/3", "1/3", 2),
        Point.of(0, 0, 0, "10/9"): Point.of(0, "2/3", "4/3", "8/9"),
        Point.of(0, 1, 0, 1): Point.of(0, "-1/3", "4/3", 1),
        Point.of(0, 0, 1, 1): Point.of(0, "2/3", "1/3", 1),
        Point.of(0, 1, 1, 1): Point.of(0, "-1/3", "1/3", 1),
    }
    try:
        neighbors = first_circuit_neighbors(graph, costs, near)
        ok = len(neighbors) == 6 and {n.point for n in neighbors} == set(first_steps)
        if ok:
            for destination, expected_gap in first_steps.items():
                gap = tuple(a - b for a, b in zip(far.coords, destination.coords))
                ok = ok and gap == expected_gap.coords
        record("first-steps", ok, f"{len(neighbors)} destinations")
    except DualflowError as exc:
        record("first-steps", False, str(exc))

    blocked = PartitionCircuit(frozenset({1, 2}))
    blocked_ok = True
    for sign in (1, -1):
        try:
            max_step(graph, costs, near, blocked, sign)
            blocked_ok = False
        except NotApplicable:
            pass
        except DualflowError:
            blocked_ok = False
    record("blocked-partition", blocked_ok)

    try:
        distance = oracle.circuit_distance(graph, costs, near, far)
        record("circuit-distance", distance.length == 4, f"length {distance.length}")
    except DualflowError as exc:
        record("circuit-distance", False, str(exc))

    failed = any(not item["passed"] for item in checks)
    return (1 if failed else 0), checks


def _cmd_verify(args, out: IO[str]) -> dict:
    code, checks = verify_example()
    graph, _ = example_graph()
    return {
        "instance": _instance_summary(graph),
        "result": {"checks": checks},
        "exit_code": code,
    }


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", metavar="FILE", help="write output to FILE")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")


def _cap(text: str) -> int:
    """A cap argument: a nonnegative integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _add_caps(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cap", type=_cap, default=None, help="circuit search depth cap"
    )
    parser.add_argument(
        "--states", type=_cap, default=oracle.DEFAULT_STATE_CAP,
        help="circuit search state cap",
    )
    parser.add_argument(
        "--tree-cap", type=_cap, default=DEFAULT_TREE_CAP,
        help="cap on the vertices and witnesses a query holds",
    )


def _add_endpoints(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--source-tree", help="comma-separated vAvB edge tokens")
    source.add_argument("--source-point", help="comma-separated rational coordinates")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--target-tree", help="comma-separated vAvB edge tokens")
    target.add_argument("--target-point", help="comma-separated rational coordinates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualflow",
        description="Exact vertices, walks, and diameters of dual network flow polyhedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_example = gen_sub.add_parser("example", help="the canonical 4-node instance")
    _add_common(gen_example)
    gen_gk = gen_sub.add_parser("gk", help="k glued copies of the example")
    gen_gk.add_argument("--k", type=int, required=True)
    _add_common(gen_gk)
    gen_bip = gen_sub.add_parser("bipartite", help="random complete bipartite instance")
    gen_bip.add_argument("--m", type=int, required=True)
    gen_bip.add_argument("--n", type=int, required=True)
    gen_bip.add_argument("--seed", type=int, default=0)
    _add_common(gen_bip)

    glue_p = sub.add_parser("glue", help="glue instance files at their anchors")
    glue_p.add_argument("files", nargs="+")
    _add_common(glue_p)

    vertices_p = sub.add_parser("vertices", help="enumerate all vertices")
    vertices_p.add_argument("file")
    _add_common(vertices_p)
    _add_caps(vertices_p)

    distance_p = sub.add_parser("distance", help="exact distance between two vertices")
    distance_p.add_argument("file")
    distance_p.add_argument("--mode", choices=("edge", "circuit"), required=True)
    _add_endpoints(distance_p)
    _add_common(distance_p)
    _add_caps(distance_p)

    diameter_p = sub.add_parser("diameter", help="exact diameter of the instance")
    diameter_p.add_argument("file")
    diameter_p.add_argument("--mode", choices=("edge", "circuit"), required=True)
    _add_common(diameter_p)
    _add_caps(diameter_p)

    walk_p = sub.add_parser("walk", help="build a constructive walk")
    walk_p.add_argument("file")
    walk_p.add_argument("--mode", choices=("edge", "circuit"), required=True)
    _add_endpoints(walk_p)
    _add_common(walk_p)

    verify_p = sub.add_parser("verify-example", help="run the frozen example checks")
    _add_common(verify_p)

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "glue": _cmd_glue,
    "vertices": _cmd_vertices,
    "distance": _cmd_distance,
    "diameter": _cmd_diameter,
    "walk": _cmd_walk,
    "verify-example": _cmd_verify,
}


def run(argv: Sequence[str], out: IO[str] | None = None) -> int:
    """Execute one subcommand; returns the exit code (0 ok, 1 domain, 2 usage)."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command
    report = {
        "command": " ".join(argv),
        "instance": None,
        "result": None,
        "status": "ok",
    }
    try:
        payload = _HANDLERS[command](args, out)
    except OSError as exc:
        return _file_error(exc, report, args, out, args.output)
    except DualflowError as exc:
        report["status"] = "error"
        report["error"] = {"code": exc.code, "message": str(exc)}
        exit_code = 1
    except MemoryError:
        report["status"] = "error"
        report["error"] = {
            "code": "out-of-memory",
            "message": "ran out of memory; a lower --states cap bounds a circuit search",
        }
        exit_code = 1
    else:
        report["instance"] = payload.get("instance")
        report["result"] = payload.get("result")
        exit_code = payload.get("exit_code", 0)
        if exit_code:
            report["status"] = "error"
            report["error"] = {"code": "verification-failed", "message": "checks failed"}
    path = None if command in ("gen", "glue") else args.output  # their -o holds the graph
    try:
        if exit_code or args.json or command not in ("gen", "glue") or args.output:
            _emit(report, args, out, path)
        out.flush()
    except OSError as exc:
        return _file_error(exc, report, args, out, path)
    return exit_code


def _file_error(exc: OSError, report: dict, args, out: IO[str], path: str | None) -> int:
    """Report a file that cannot be read or written: one line on stderr and,
    with ``--json``, an error report on ``out`` (never on ``-o FILE``, which
    may be the file at fault); exit code 2.  An error that names no file is
    a failed write to the file ``path`` or else to ``out``, such as a closed
    pipe: nothing more is written to it."""
    if exc.filename is None:
        target = path or getattr(out, "name", "the output")
        code, message = None, f"cannot write {target} ({exc.strerror})"
    elif isinstance(exc, FileNotFoundError):
        code, message = "missing-file", f"missing file: {exc.filename}"
    else:
        code = "unreadable-file"
        message = f"cannot open file: {exc.filename} ({exc.strerror})"
    sys.stderr.write(f"dualflow: {message}\n")
    if args.json and code:
        report.update(status="error", result=None, error={"code": code, "message": message})
        try:
            _write_report(report, args, out)
        except OSError as closed:
            return _file_error(closed, report, args, out, None)
    return 2


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:  # closed early, as run reported: exit's flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
