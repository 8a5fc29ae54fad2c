import json

import pytest

from helpers import run_cli
from peritrope.cli import main

TRIANGLE = """\
PERIOD 10
ARC v0 v1 3 12 1
ARC v0 v2 2 10 1
ARC v1 v2 4 13 1
"""

SQUARE = """\
PERIOD 10
ARC v1 v0 3 12 1
ARC v1 v2 3 12 1
ARC v3 v2 3 12 1
ARC v3 v0 3 12 1
ARC v0 v1 6 15 1
ARC v2 v3 4 13 1
"""

INFEASIBLE = """\
PERIOD 10
ARC a b 1 2 1
ARC b a 1 2 1
"""

FIXED_ARC = """\
PERIOD 10
ARC v0 v1 3 12 1
ARC v0 v2 2 10 1
ARC v1 v2 4 13 1
ARC v0 v1 5 5 1
"""


@pytest.fixture
def tri(tmp_path):
    path = tmp_path / "tri.pesp"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "square.pesp"
    path.write_text(SQUARE)
    return str(path)


def test_solve_exact_payload(tri, capsys):
    assert main(["solve", tri]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "period",
        "objective",
        "timetable",
        "tension",
        "periodic_offset",
        "cycle_offset",
        "basis",
    ]
    assert payload["objective"] == 14
    assert payload["timetable"] == {"v0": 0, "v1": 3, "v2": 7}
    assert payload["tension"] == {"0": 3, "1": 7, "2": 4}
    assert payload["periodic_offset"] == {"0": 0, "1": 0, "2": 0}
    assert payload["cycle_offset"] == [0]
    assert payload["basis"] == [[1, -1, 1]]


def test_solve_with_explicit_basis_tree(tri, capsys):
    assert main(["solve", tri, "--basis-tree", "0,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 14
    assert payload["basis"] == [[-1, 1, -1]]


def test_solve_tns_with_trace(tri, tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    rc = main(["solve", tri, "--method", "tns", "--seed", "3", "--trace", str(trace_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 14
    entries = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert entries[0]["move"] == "start"
    objectives = [e["objective"] for e in entries]
    assert objectives == sorted(objectives, reverse=True)


def test_analyze_payload(tri, capsys):
    assert main(["analyze", tri, "--root", "v1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "mu",
        "num_spanning_trees",
        "volume",
        "width",
        "lattice_points",
        "box",
        "bound_chain",
        "tiling",
        "validation",
        "duality",
    ]
    assert payload["mu"] == 1
    assert payload["num_spanning_trees"] == 3
    assert payload["volume"] == "13/5"
    assert payload["width"] == 3
    assert payload["lattice_points"] == [[0], [1], [2]]
    assert payload["box"] == [["-3/10", "23/10"]]
    chain = payload["bound_chain"]
    assert chain["epsilon"] == 8
    assert chain["lower_bound"] == "12/5"
    assert chain["slack_product"] == "13/5"
    assert chain["refined_upper"] == "39/10"
    assert chain["coarse_upper"] == "6"
    assert chain["holds"] is True
    assert chain["infeasible"] is False
    tiling = payload["tiling"]
    assert [t["translation"] for t in tiling] == [["-3/10"], ["7/5"], ["7/5"]]
    assert [t["lattice_point"] for t in tiling] == [[0], [1], [2]]
    assert payload["validation"]["ok"] is True
    assert payload["duality"] == {"checked": 3, "ok": True}


def test_analyze_square(square, capsys):
    assert main(["analyze", square]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu"] == 3
    assert payload["num_spanning_trees"] == 12
    assert payload["volume"] == "2187/250"
    assert payload["width"] == 12
    assert len(payload["lattice_points"]) == 11
    assert len(payload["tiling"]) == 12
    assert payload["validation"]["ok"] is True
    assert payload["duality"]["ok"] is True


def test_polytropes_text_output(tri, capsys):
    assert main(["polytropes", tri]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "z=(0,) dim=2 p=(0, 0, 0)",
        "z=(1,) dim=2 p=(0, 0, 1)",
        "z=(2,) dim=2 p=(0, 0, 2)",
    ]


def test_polytropes_json_output(tri, capsys):
    assert main(["polytropes", tri, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["cycle_offset"] for p in payload] == [[0], [1], [2]]
    assert all(p["dimension"] == 2 for p in payload)


def test_tile_command(tri, capsys):
    assert main(["tile", tri, "--root", "v1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["root"] == "v1"
    assert [t["tree"] for t in payload["tiles"]] == [[0, 1], [0, 2], [1, 2]]
    assert payload["validation"]["ok"] is True
    assert payload["duality"]["ok"] is True


@pytest.mark.parametrize("command", ["analyze", "tile"])
def test_one_tiling_per_command(tri, command, monkeypatch, capsys):
    from peritrope import cli, zonotopes

    calls = []
    real = zonotopes.fine_tiling

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fine_tiling", counting)
    monkeypatch.setattr(zonotopes, "fine_tiling", counting)
    assert main([command, tri, "--root", "v1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["duality"] == {"checked": 3, "ok": True}
    assert len(calls) == 1


def test_render_to_file(tri, tmp_path):
    out = tmp_path / "torus.svg"
    assert main(["render", tri, "--out", str(out)]) == 0
    body = out.read_text()
    assert body.startswith("<?xml")
    assert "<polygon" in body
    zono = tmp_path / "zono.svg"
    assert main(["render", tri, "--what", "zonotope", "--out", str(zono)]) == 0
    assert "<circle" in zono.read_text()


def test_render_rejects_large_mu(square, tmp_path):
    out = tmp_path / "zono.svg"
    assert main(["render", square, "--what", "zonotope", "--out", str(out)]) == 1


def test_usage_errors(tmp_path):
    assert main([]) == 1
    assert main(["solve", str(tmp_path / "missing.pesp")]) == 1
    bad = tmp_path / "bad.pesp"
    bad.write_text("PERIOD 10\nARC a b -1 4 1\n")
    assert main(["solve", str(bad)]) == 1


def test_unknown_root_is_a_usage_error(tri):
    assert main(["analyze", tri, "--root", "nope"]) == 1


def test_infeasible_exit_code(tmp_path):
    path = tmp_path / "infeasible.pesp"
    path.write_text(INFEASIBLE)
    assert main(["solve", str(path)]) == 2
    assert main(["solve", str(path), "--method", "tns"]) == 2


def test_cap_exceeded_analyze(tri, capsys):
    assert main(["analyze", tri, "--cap-width", "2"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["cap_exceeded"] is True
    assert payload["width"] == 3
    assert "lattice_points" not in payload


def test_contracted_instance_is_flagged(tmp_path, capsys):
    path = tmp_path / "fixed.pesp"
    path.write_text(FIXED_ARC)
    assert main(["analyze", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contracted"] is True
    assert payload["validation"]["ok"] is True


def test_repeated_runs_are_byte_identical(tri, tmp_path):
    first = run_cli(["solve", tri])
    second = run_cli(["solve", tri])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    out_a = tmp_path / "a.svg"
    out_b = tmp_path / "b.svg"
    assert run_cli(["render", tri, "--out", str(out_a)]).returncode == 0
    assert run_cli(["render", tri, "--out", str(out_b)]).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
