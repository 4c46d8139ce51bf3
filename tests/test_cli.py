"""Command-line interface: subcommands, reports, exit codes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualflow as df
from dualflow import cli
from dualflow.cli import run, verify_example


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


@pytest.fixture()
def example_file(tmp_path):
    path = tmp_path / "example.graph"
    code, _ = invoke(["gen", "example", "-o", str(path)])
    assert code == 0
    return str(path)


def test_gen_example_prints_graph():
    code, text = invoke(["gen", "example"])
    assert code == 0
    assert text.startswith("nodes 4\n")
    assert "edge 2 3 10/9" in text


def test_gen_diameter_round_trip(example_file):
    code, text = invoke(["diameter", example_file, "--mode", "circuit", "--json"])
    assert code == 0
    report = json.loads(text)
    assert sorted(report) == ["command", "instance", "result", "status"]
    assert report["status"] == "ok"
    assert report["result"]["diameter"] >= 4
    graph, costs = df.load_graph(example_file)
    assert report["result"]["diameter"] == df.diameter(graph, costs, "circuit").value


def test_distance_by_trees(example_file):
    code, text = invoke(
        [
            "distance",
            example_file,
            "--mode",
            "circuit",
            "--source-tree",
            "v3v0,v2v0,v3v1",
            "--target-tree",
            "v0v3,v0v2,v1v3",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(text)
    assert report["result"]["distance"] == 4


def test_distance_by_points(example_file):
    code, text = invoke(
        [
            "distance",
            example_file,
            "--mode",
            "edge",
            "--source-point",
            "0,0,0,0",
            "--target-point",
            "0,2/3,4/3,2",
            "--json",
        ]
    )
    assert code == 0
    assert json.loads(text)["result"]["distance"] == 4


def test_walk_identical_trees(example_file):
    code, text = invoke(
        [
            "walk",
            example_file,
            "--mode",
            "edge",
            "--source-tree",
            "v3v0,v2v0,v3v1",
            "--target-tree",
            "v3v0,v2v0,v3v1",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(text)
    assert report["result"]["length"] == 0
    assert report["result"]["walk"]["points"] == [["0", "0", "0", "0"]]


def test_walk_report_revalidates(example_file):
    code, text = invoke(
        [
            "walk",
            example_file,
            "--mode",
            "circuit",
            "--source-point",
            "0,0,0,0",
            "--target-point",
            "0,2/3,4/3,2",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(text)
    walk = report["result"]["walk"]
    graph, costs = df.load_graph(example_file)
    points = [df.Point.of(*coords) for coords in walk["points"]]
    rebuilt = df.walk_from_points(graph, costs, points, walk["mode"])
    assert df.validate_walk(graph, costs, rebuilt).valid
    for step in walk["steps"]:
        assert step["sign"] in "+-"
        df.rational(step["epsilon"])  # parses back


def test_vertices_command(example_file):
    code, text = invoke(["vertices", example_file, "--json"])
    assert code == 0
    report = json.loads(text)
    assert report["result"]["count"] == 14
    assert ["0", "2/3", "4/3", "2"] in report["result"]["vertices"]


FAR_WALK = [
    "walk length: 4",
    "  (0, 0, 0, 0)",
    "  (0, 0, 0, 10/9)",
    "  (0, 0, 2/9, 4/3)",
    "  (0, 2/3, 8/9, 2)",
    "  (0, 2/3, 4/3, 2)",
]


def test_walk_text_report(example_file):
    argv = ["walk", example_file, "--mode", "circuit"]
    argv += ["--source-point", "0,0,0,0", "--target-point", "0,2/3,4/3,2"]
    code, text = invoke(argv)
    assert code == 0
    assert text.splitlines() == [
        "command: " + " ".join(argv),
        "instance: 4 nodes, 9 edges",
        "length: 4",
        *FAR_WALK,
    ]


def test_distance_text_report(example_file):
    argv = ["distance", example_file, "--mode", "circuit"]
    argv += ["--source-point", "0,0,0,0", "--target-point", "0,2/3,4/3,2"]
    code, text = invoke(argv)
    assert code == 0
    assert text.splitlines() == [
        "command: " + " ".join(argv),
        "instance: 4 nodes, 9 edges",
        "distance: 4",
        "walk length: 4",
        "  (0, 0, 0, 0)",
        "  (0, -1, 0, 0)",
        "  (0, 1/3, 4/3, 4/3)",
        "  (0, 1, 4/3, 2)",
        "  (0, 2/3, 4/3, 2)",
    ]


def test_vertices_text_report(example_file):
    code, text = invoke(["vertices", example_file])
    assert code == 0
    lines = text.splitlines()
    assert lines[:4] == [
        f"command: vertices {example_file}",
        "instance: 4 nodes, 9 edges",
        "count: 14",
        "vertices: 14",
    ]
    graph, costs = df.load_graph(example_file)
    assert lines[4:] == [
        "  (" + ", ".join(df.rational_str(x) for x in vertex.coords) + ")"
        for vertex in df.enumerate_vertices(graph, costs).vertices
    ]
    assert len(lines[4:]) == 14
    assert lines[4] == "  (0, -1, 0, 0)"
    assert lines[-1] == "  (0, 1, 4/3, 2)"


def test_gen_example_json_carries_the_graph():
    code, text = invoke(["gen", "example", "--json"])
    assert code == 0
    report = json.loads(text)
    assert report["result"] == {"graph": invoke(["gen", "example"])[1]}
    assert report["instance"] == {"nodes": 4, "edges": 9}
    assert df.parse_graph(report["result"]["graph"]) == df.example_graph()


def test_non_integer_cap_is_a_usage_error(example_file, capsys):
    code, text = invoke(["vertices", example_file, "--states", "x"])
    assert code == 2
    assert text == ""
    assert "argument --states: invalid int value: 'x'" in capsys.readouterr().err


def test_glue_command(tmp_path, example_file):
    out_path = tmp_path / "glued.graph"
    code, _ = invoke(["glue", example_file, example_file, "-o", str(out_path)])
    assert code == 0
    graph, costs = df.load_graph(str(out_path))
    assert graph.node_count == 7
    assert graph.edge_count == 18


def test_gen_gk_and_bipartite(tmp_path):
    gk_path = tmp_path / "gk.graph"
    code, _ = invoke(["gen", "gk", "--k", "2", "-o", str(gk_path)])
    assert code == 0
    graph, _ = df.load_graph(str(gk_path))
    assert graph.node_count == 7

    code, text = invoke(["gen", "bipartite", "--m", "2", "--n", "2", "--seed", "3"])
    assert code == 0
    graph, costs = df.parse_graph(text)
    assert graph.node_count == 4
    assert all(c > 0 for c in costs)
    # same seed, same instance
    again_code, again = invoke(
        ["gen", "bipartite", "--m", "2", "--n", "2", "--seed", "3"]
    )
    assert again == text


def test_verify_example_passes():
    code, text = invoke(["verify-example"])
    assert code == 0
    assert text.count("PASS") == 5
    assert "FAIL" not in text


def test_verify_example_json_schema():
    code, text = invoke(["verify-example", "--json"])
    assert code == 0
    report = json.loads(text)
    assert sorted(report) == ["command", "instance", "result", "status"]
    assert len(report["result"]["checks"]) == 5


def test_verify_example_detects_perturbed_costs():
    graph, costs = df.example_graph()
    index = df.find_edge(graph, 2, 3)
    tampered = list(costs)
    tampered[index] = df.rational(2)
    code, checks = verify_example(graph, tuple(tampered))
    assert code == 1
    by_name = {item["name"]: item["passed"] for item in checks}
    assert not by_name["first-steps"]


def test_failing_verify_example_exits_1(monkeypatch):
    """A wrong fact about the example fails ``verify-example`` through
    ``run``: exit code 1, and the report names the checks that failed."""
    graph, costs = df.example_graph()
    tampered = list(costs)
    tampered[8] = df.rational(2)  # edge 8 is (2, 3), cost 10/9
    monkeypatch.setattr(cli, "example_graph", lambda: (graph, tuple(tampered)))
    code, text = invoke(["verify-example", "--json"])
    assert code == 1
    report = json.loads(text)
    assert report["status"] == "error"
    assert report["error"]["code"] == "verification-failed"
    failed = {item["name"] for item in report["result"]["checks"] if not item["passed"]}
    assert {"first-steps", "circuit-distance"} <= failed


def test_domain_error_exit_code(tmp_path):
    # an infeasible instance: negative cycle
    path = tmp_path / "bad.graph"
    path.write_text("nodes 2\nedge 0 1 1\nedge 1 0 -2\n", encoding="utf-8")
    code, text = invoke(
        [
            "distance",
            str(path),
            "--mode",
            "circuit",
            "--source-point",
            "0,0",
            "--target-point",
            "0,1",
            "--json",
        ]
    )
    assert code == 1
    report = json.loads(text)
    assert report["status"] == "error"
    assert report["error"]["code"] == "infeasible-instance"
    code, text = invoke(
        [
            "distance",
            str(path),
            "--mode",
            "edge",
            "--source-point",
            "0,0",
            "--target-point",
            "0,1",
            "--json",
        ]
    )
    assert code == 1
    assert json.loads(text)["error"]["code"] == "infeasible-instance"
    code, text = invoke(["vertices", str(path), "--json"])
    assert code == 1
    assert json.loads(text)["error"]["code"] == "infeasible-instance"


def test_depth_cap_domain_error(example_file):
    code, text = invoke(
        [
            "distance",
            example_file,
            "--mode",
            "circuit",
            "--source-point",
            "0,0,0,0",
            "--target-point",
            "0,2/3,4/3,2",
            "--cap",
            "2",
            "--json",
        ]
    )
    assert code == 1
    assert json.loads(text)["error"]["code"] == "depth-cap-exceeded"


def test_circuit_caps_hold_without_asserts(example_file):
    """Under ``python -O`` the state cap still stops the circuit search and
    the goal-tested search still answers: neither rests on ``assert``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    command = [
        sys.executable, "-O", "-m", "dualflow.cli", "distance", example_file,
        "--mode", "circuit", "--source-point", "0,0,0,0",
        "--target-point", "0,2/3,4/3,2", "--json",
    ]
    capped = subprocess.run(
        command + ["--states", "3"], capture_output=True, text=True, env=env
    )
    assert capped.returncode == 1
    assert json.loads(capped.stdout)["error"]["code"] == "frontier-too-large"
    answered = subprocess.run(command, capture_output=True, text=True, env=env)
    assert answered.returncode == 0
    assert json.loads(answered.stdout)["result"]["distance"] == 4


def test_usage_error_exit_codes(example_file):
    assert invoke(["unknown-command"])[0] == 2
    assert invoke(["distance", example_file, "--mode", "circuit"])[0] == 2
    assert invoke(["vertices", "/does/not/exist.graph"])[0] == 2


@pytest.mark.parametrize(
    "flag, zero_error",
    [
        ("--cap", "depth-cap-exceeded"),
        ("--states", "frontier-too-large"),
        ("--tree-cap", "instance-too-large"),
    ],
)
def test_negative_caps_are_usage_errors(example_file, flag, zero_error, capsys):
    for command in (["vertices"], ["diameter", "--mode", "circuit"]):
        code, text = invoke([command[0], example_file, *command[1:], flag, "-1"])
        assert code == 2
        assert text == ""
        assert f"argument {flag}: must not be negative: -1" in capsys.readouterr().err
    # zero is a cap like any other: the search runs and reports hitting it
    code, text = invoke(
        ["diameter", example_file, "--mode", "circuit", flag, "0", "--json"]
    )
    assert code == 1
    assert json.loads(text)["error"]["code"] == zero_error


def test_not_a_vertex_message_prints_rationals(example_file):
    code, text = invoke(
        [
            "distance",
            example_file,
            "--mode",
            "circuit",
            "--source-point",
            "0,0,0,0",
            "--target-point",
            "0,1/3,1/3,1/3",
        ]
    )
    assert code == 1
    assert "error [not-a-vertex]: (0, 1/3, 1/3, 1/3) is not a vertex\n" in text


@pytest.mark.parametrize("command", ["distance", "walk"])
@pytest.mark.parametrize("mode", ["edge", "circuit"])
@pytest.mark.parametrize(
    "point, message",
    [
        ("0,5,0,0", "(0, 5, 0, 0) is infeasible: edge 2 (3 -> 1) has slack -5"),
        ("0,0,3/2,0", "(0, 0, 3/2, 0) is infeasible: edge 4 (0 -> 2) has slack -1/6"),
    ],
    ids=["integer", "rational"],
)
def test_infeasible_point_names_its_first_violated_edge(
    example_file, command, mode, point, message
):
    argv = [command, example_file, "--mode", mode, "--source-point", "0,0,0,0"]
    code, text = invoke([*argv, "--target-point", point, "--json"])
    assert code == 1
    assert json.loads(text)["error"] == {"code": "infeasible-point", "message": message}
    code, text = invoke([*argv, "--target-point", point])
    assert code == 1
    assert f"error [infeasible-point]: {message}\n" in text


GK2_NEAR, GK2_FAR = "0,0,0,0,0,0,0", "0,2/3,4/3,2,2/3,4/3,2"


@pytest.fixture()
def gk2_file(tmp_path):
    path = tmp_path / "gk2.graph"
    assert invoke(["gen", "gk", "--k", "2", "-o", str(path)])[0] == 0
    return str(path)


def test_tree_caps_set_the_exit_code(gk2_file):
    """The vertex set's cap bounds the product of gk(2)'s blocks' vertex
    counts (14 * 14), an edge distance's cap each block's count: too small
    a cap exits 1 with instance-too-large."""
    vertices = ["vertices", gk2_file, "--json", "--tree-cap"]
    code, text = invoke([*vertices, "195"])
    assert (code, json.loads(text)["error"]["code"]) == (1, "instance-too-large")
    code, text = invoke([*vertices, "196"])
    assert (code, json.loads(text)["result"]["count"]) == (0, 196)
    distance = [
        "distance", gk2_file, "--mode", "edge", "--source-point", GK2_NEAR,
        "--target-point", GK2_FAR, "--json", "--tree-cap",
    ]
    code, text = invoke([*distance, "13"])
    assert (code, json.loads(text)["error"]["code"]) == (1, "instance-too-large")
    code, text = invoke([*distance, "14"])
    assert (code, json.loads(text)["result"]["distance"]) == (0, 8)


@pytest.mark.parametrize("mode", ["edge", "circuit"])
def test_gk2_distances_and_off_grid_endpoints(gk2_file, mode):
    """Both of gk(2)'s distances are 8.  An endpoint off the costs' grid
    (1/9) exits 1 with the error code an on-grid endpoint of its kind gets."""
    distance = ["distance", gk2_file, "--mode", mode, "--target-point", GK2_FAR, "--json"]
    code, text = invoke([*distance, "--source-point", GK2_NEAR])
    assert (code, json.loads(text)["result"]["distance"]) == (0, 8)
    for point, error in (
        ("0,0,3/2,0,0,0,0", "infeasible-point"), ("0,1/2,1/2,1/2,0,0,0", "not-a-vertex")
    ):
        code, text = invoke([*distance, "--source-point", point])
        assert (code, json.loads(text)["error"]["code"]) == (1, error)


def test_directory_input_is_usage_error(tmp_path, capsys):
    code, text = invoke(["vertices", str(tmp_path)])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("dualflow: cannot open file:")
    code, text = invoke(["vertices", str(tmp_path), "--json"])
    assert code == 2
    report = json.loads(text)
    assert report["status"] == "error"
    assert report["error"]["code"] == "unreadable-file"


def test_non_utf8_input_is_format_error(tmp_path):
    path = tmp_path / "latin1.graph"
    path.write_bytes("# café\nnodes 1\n".encode("latin-1"))
    code, text = invoke(["vertices", str(path), "--json"])
    assert code == 1
    assert json.loads(text)["error"]["code"] == "format"


def test_missing_file_json_report(capsys):
    code, text = invoke(["vertices", "/does/not/exist.graph", "--json"])
    assert code == 2
    report = json.loads(text)
    assert sorted(report) == ["command", "error", "instance", "result", "status"]
    assert report["status"] == "error"
    assert report["error"]["code"] == "missing-file"
    assert "missing file" in capsys.readouterr().err


def test_output_directory_is_usage_error(tmp_path, capsys):
    code, text = invoke(["verify-example", "-o", str(tmp_path)])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("dualflow: cannot open file:")
    assert err.count("\n") == 1


def test_output_directory_json_report(tmp_path, example_file, capsys):
    code, text = invoke(["vertices", example_file, "--json", "-o", str(tmp_path)])
    assert code == 2
    report = json.loads(text)
    assert sorted(report) == ["command", "error", "instance", "result", "status"]
    assert report["status"] == "error"
    assert report["error"]["code"] == "unreadable-file"
    assert report["result"] is None
    assert capsys.readouterr().err.count("\n") == 1


def test_report_goes_to_output_file(tmp_path, example_file):
    target = tmp_path / "vertices.json"
    code, text = invoke(["vertices", example_file, "--json", "-o", str(target)])
    assert code == 0
    assert text == ""
    assert json.loads(target.read_text())["result"]["count"] == 14


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["verify-example", "--json"], ["verify-example"], ["gen", "example"]],
    ids=["verify-example-json", "verify-example", "gen-example"],
)
def test_closed_stdout_is_one_error_line(argv, buffered):
    """A report whose stdout is a pipe closed before the run starts: exit
    code 2 and one stderr line naming stdout, with no traceback, also from
    the interpreter's final flush."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "dualflow.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("dualflow: cannot write <stdout>")
    assert "None" not in done.stderr
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


def test_malformed_tree_token_is_a_format_error(example_file):
    code, text = invoke(
        ["walk", example_file, "--mode", "edge", "--source-tree", "v0v1x",
         "--target-point", "0,0,0,0", "--json"]
    )
    assert code == 1
    assert json.loads(text)["error"]["code"] == "format"


def test_walk_failing_validation_is_an_internal_invariant(example_file, monkeypatch):
    """A built walk that fails validation is a bug, reported as such."""
    monkeypatch.setattr(
        df.walks, "validate_walk", lambda *args: df.WalkValidation(False, "planted")
    )
    code, text = invoke(
        ["walk", example_file, "--mode", "circuit", "--source-point", "0,0,0,0",
         "--target-point", "0,2/3,4/3,2", "--json"]
    )
    assert code == 1
    error = json.loads(text)["error"]
    assert error["code"] == "internal-invariant"
    assert "planted" in error["message"]


def test_memory_error_is_a_typed_error(example_file, monkeypatch):
    """Running out of memory is reported as an error code, not a traceback."""

    def exhausted(args, out):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "diameter", exhausted)
    code, text = invoke(["diameter", example_file, "--mode", "circuit", "--json"])
    assert code == 1
    report = json.loads(text)
    assert report["status"] == "error"
    assert report["error"]["code"] == "out-of-memory"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Each CLI call pays for its imports: ``import dualflow.cli`` in a fresh
    interpreter must not pull in ``dataclasses`` or ``inspect``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    probe = (
        "import sys; before = set(sys.modules); import dualflow.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    loaded = set(done.stdout.split())
    assert "dualflow.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
