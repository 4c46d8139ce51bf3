"""Command-line interface: subcommands, reports, exit codes."""

from __future__ import annotations

import io
import json

import pytest

import dualflow as df
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


def test_usage_error_exit_codes(example_file):
    assert invoke(["unknown-command"])[0] == 2
    assert invoke(["distance", example_file, "--mode", "circuit"])[0] == 2
    assert invoke(["vertices", "/does/not/exist.graph"])[0] == 2


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
