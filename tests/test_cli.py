import contextlib
import io
import json
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import argparse_reference, count_bellman_ford, random_corpus, run_cli
from peritrope import (
    Budget,
    EnumerationCapExceeded,
    SpanningTreeStructure,
    Tile,
    cli,
    contract_fixed_arcs,
    default_basis,
    duality_check,
    enumerate_polytropes,
    fine_tiling,
    lattice_points,
    parse_instance,
    serialize_instance,
    solve_exact,
    spanning_trees,
    tns_restarts,
    trace_to_jsonl,
    validate_tiling,
)
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

FIXED_FIRST = """\
PERIOD 10
ARC a b 3 3 1
ARC b c 1 5 1
ARC c a 2 6 1
ARC a c 1 8 1
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


def test_a_long_path_tiles_within_the_recursion_limit(tmp_path):
    """A path on 1,100 events has one spanning tree, grown 1,099 arcs
    deep, past the default recursion limit of 1,000 frames."""
    n = 1100
    path = tmp_path / "path.pesp"
    path.write_text("PERIOD 10\n" + "".join(f"ARC e{k} e{k + 1} 2 6 1\n" for k in range(n - 1)))
    result = run_cli(["tile", str(path)])
    assert result.returncode == 0, result.stderr
    assert [tile["tree"] for tile in json.loads(result.stdout)["tiles"]] == [list(range(n - 1))]


@pytest.mark.parametrize("command", ["analyze", "tile"])
def test_one_tiling_per_command(tri, command, monkeypatch, capsys):
    """One ``fine_tiling`` call and one ``lattice_points`` enumeration per
    command, shared by the report, the validation and the duality check."""
    from peritrope import cli, zonotopes

    calls = {"fine_tiling": 0, "lattice_points": 0}
    for name in calls:
        real = getattr(zonotopes, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        monkeypatch.setattr(zonotopes, name, counting)
    assert main([command, tri, "--root", "v1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["duality"] == {"checked": 3, "ok": True}
    assert calls == {"fine_tiling": 1, "lattice_points": 1}


@pytest.mark.parametrize("command", ["analyze", "tile"])
def test_one_volume_per_command(command, monkeypatch, tmp_path):
    """``analyze`` takes the width bounds' volume and the validation's from
    its one kernel, so it computes one Gram determinant, as ``tile`` does;
    each goes through ``zonotopes.volume``, where the benchmark's tracer
    counts it, and the output is the golden's."""
    from peritrope import zonotopes

    calls = []
    real = zonotopes.volume
    monkeypatch.setattr(zonotopes, "volume", lambda *args: calls.append(args) or real(*args))
    out = tmp_path / "out.json"
    assert main([command, str(GOLDEN / "mu6.pesp"), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert out.read_bytes() == (GOLDEN / f"mu6.{command}.json").read_bytes()


@pytest.mark.parametrize("flags, golden", [([], "txt"), (["--json"], "json")])
def test_polytropes_out_keeps_the_format_json_chooses(flags, golden, tmp_path, capsys):
    """``--out`` moves the output of ``polytropes`` into the file and leaves
    its format alone: one line per polytrope unless ``--json`` is given."""
    out = tmp_path / "out"
    assert main(["polytropes", str(GOLDEN / "mu6.pesp"), "--out", str(out), *flags]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (GOLDEN / f"mu6.polytropes.{golden}").read_bytes()


@pytest.mark.parametrize("command", ["analyze", "tile"])
def test_tiling_and_validation_share_one_kernel(square, command, monkeypatch, capsys):
    """The tiling and its validation run on one ``TileKernel``: the
    square's 12 trees each get their co-tree built once, not twice."""
    from peritrope import zonotopes

    kernels, cotrees = [], []
    real_init, real_build = zonotopes.TileKernel.__init__, zonotopes._build_cotree

    def init(self, *args):
        kernels.append(self)
        real_init(self, *args)

    def build(*parts_and_tree):
        cotrees.append(parts_and_tree[-1])
        return real_build(*parts_and_tree)

    monkeypatch.setattr(zonotopes.TileKernel, "__init__", init)
    monkeypatch.setattr(zonotopes, "_build_cotree", build)
    assert main([command, square]) == 0
    assert json.loads(capsys.readouterr().out)["validation"]["ok"] is True
    assert len(kernels) == 1
    assert len(cotrees) == len(set(cotrees)) == 12


def test_one_analyze_runs_one_laplacian_elimination_per_graph(monkeypatch, tmp_path):
    """The bound chain and the tiling's up-front charge both read the tree
    count of bench7's contracted graph, and the graph eliminates its
    Laplacian once for the two; the output stays the golden's."""
    from peritrope import graphs, zonotopes

    eliminated, read = [], []
    kirchhoff, count = graphs._kirchhoff, zonotopes.count_spanning_trees_determinant

    def eliminate(pairs):
        eliminated.append(pairs)
        return kirchhoff(pairs)

    def counted(g):
        read.append(g)
        return count(g)

    monkeypatch.setattr(graphs, "_kirchhoff", eliminate)
    monkeypatch.setattr(zonotopes, "count_spanning_trees_determinant", counted)
    out = tmp_path / "analyze.json"
    assert main(["analyze", str(GOLDEN / "bench7.pesp"), "--root", "e4", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "bench7.analyze.json").read_bytes()
    assert len(read) == 2 and read[0] is read[1]
    assert eliminated == [read[0].arc_index_pairs]


def test_render_to_file(tri, tmp_path):
    out = tmp_path / "torus.svg"
    assert main(["render", tri, "--out", str(out)]) == 0
    body = out.read_text()
    assert body.startswith("<?xml")
    assert "<polygon" in body
    zono = tmp_path / "zono.svg"
    assert main(["render", tri, "--what", "zonotope", "--out", str(zono)]) == 0
    assert "<circle" in zono.read_text()


def test_render_contracts_fixed_arcs_before_the_torus(tmp_path, capsys):
    """Four events with one fixed arc contract to a triangle whose classes
    are drawn; three events with one leave two vertices, a usage error
    that names the contraction."""
    four = tmp_path / "four.pesp"
    four.write_text("PERIOD 10\nARC a b 3 3 1\nARC b c 2 6 1\nARC c d 1 5 1\nARC d a 1 9 2\n")
    assert main(["render", str(four)]) == 0
    assert "<polygon" in capsys.readouterr().out
    three = tmp_path / "three.pesp"
    three.write_text("PERIOD 10\nARC a b 3 3 1\nARC b c 2 6 1\nARC c a 1 9 2\n")
    assert main(["render", str(three)]) == 1
    assert "fixed arcs are contracted" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["solve", "polytropes"])
def test_root_is_not_a_flag_of_commands_that_ignore_it(tri, command, capsys):
    assert main([command, tri, "--root", "v1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --root v1" in captured.err


@pytest.mark.parametrize("command", ["solve", "analyze", "tile", "render"])
def test_json_is_a_flag_of_polytropes_alone(tri, command, capsys):
    """The other commands write one format, so ``--json`` would be a
    setting that changes nothing there."""
    assert main([command, tri, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --json" in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--cap-work", "-1"], "argument --cap-work: must be at least 0, got -1"),
        (["--method", "tns", "--restarts", "0"], "argument --restarts: must be at least 1, got 0"),
        (["--method", "tns", "--restarts", "-3"], "argument --restarts: must be at least 1, got -3"),
        (["--method", "exact", "--max-iter", "0"], "argument --max-iter: must be at least 1, got 0"),
    ],
    ids=("cap-work", "restarts-0", "restarts-negative", "max-iter-exact"),
)
def test_out_of_range_counts_are_usage_errors(tri, flags, message, capsys):
    assert main(["solve", tri, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_a_trace_of_an_exact_solve_is_a_usage_error(tri, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["solve", tri, "--method", "exact", "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trace records a tns search; the exact method has none\n"
    assert not trace.exists()


def test_a_self_loop_is_an_input_error_naming_its_line(tmp_path, capsys):
    path = tmp_path / "loop.pesp"
    path.write_text("PERIOD 10\nARC a b 1 2 1\nARC b b 1 2 1\n")
    assert main(["solve", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: line 3: arc 1 is a self-loop at b\n"


def test_infeasible_exit_code(tmp_path):
    path = tmp_path / "infeasible.pesp"
    path.write_text(INFEASIBLE)
    assert main(["solve", str(path)]) == 2
    assert main(["solve", str(path), "--method", "tns"]) == 2


def test_solve_over_the_cap_exits_3_before_any_bellman_ford(tri, monkeypatch, capsys):
    """The root's three children are charged before they are graded, so two
    units stop the search before any solve; the gap is the root's bound."""
    runs = count_bellman_ford(monkeypatch)
    assert main(["solve", tri, "--cap-work", "2"]) == 3
    assert runs == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the work budget of 2 units ran out in offset search: 0 spent, 3 more asked\n"
        "gap: least open lower 14\n"
    )


def _gap(err):
    """(least open lower, incumbent or None) of a stopped solve's stderr."""
    match = re.search(r"^gap: least open lower (-?\d+)(?:, incumbent (-?\d+))?$", err, re.M)
    return int(match[1]), None if match[2] is None else int(match[2])


@pytest.mark.parametrize("instance", ["s8800", "l5", "bench7"])
def test_a_stopped_solve_brackets_the_optimum(instance, capsys):
    """Under budgets from one unit to one short of the whole solve, each
    run exits 3 with nothing on stdout, and its stderr gap holds the
    cap-lifted optimum: least open lower <= optimum <= incumbent."""
    path = str(GOLDEN / f"{instance}.pesp")
    optimum = json.loads((GOLDEN / f"{instance}.solve.json").read_text())["objective"]
    spent = Budget()
    solve_exact(parse_instance(pathlib.Path(path).read_text()), budget=spent)
    budgets = sorted({1, 10, 100, 1000, spent.spent // 2, spent.spent - 1} - {0})
    incumbents = 0
    for units in (units for units in budgets if units < spent.spent):
        assert main(["solve", path, "--cap-work", str(units)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lower, incumbent = _gap(captured.err)
        assert lower <= optimum <= (optimum if incumbent is None else incumbent), units
        incumbents += incumbent is not None
    assert incumbents >= 1 and main(["solve", path, "--cap-work", str(spent.spent)]) == 0


def test_a_zero_weight_solve_stops_in_the_face_vertices(capsys):
    """zero9's first optimal face is its whole polytrope, 56,320 structures,
    charged before the first: a small budget finds the optimum and stops
    there, with the gap closed."""
    assert main(["solve", str(GOLDEN / "zero9.pesp"), "--cap-work", "1000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert " ran out in face vertices: " in captured.err and ", 56320 more asked\n" in captured.err
    assert _gap(captured.err) == (0, 0)


@pytest.mark.parametrize(
    "method, message",
    [
        ("exact", "no feasible cycle offset: the zonotope holds no lattice point"),
        ("tns", "all 1 restarts failed to find a feasible start"),
    ],
    ids=("exact", "tns"),
)
def test_antiparallel_pair_without_an_offset_exits_2_and_writes_nothing(
    tmp_path, capsys, method, message
):
    # a -> b and b -> a take 1..2 each, so their cycle has a tension of
    # 2..4, never a multiple of the period 10.
    path = tmp_path / "infeasible.pesp"
    path.write_text(INFEASIBLE)
    out = tmp_path / "solution.json"
    assert main(["solve", str(path), "--method", method, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["analyze"],
        ["tile"],
        ["polytropes"],
        ["render", "--what", "zonotope"],
        ["render", "--what", "torus"],
    ],
    ids=" ".join,
)
def test_cap_exceeded_analyze(tri, command, capsys):
    """``--cap-work`` bounds every command that enumerates the box (exact
    ``solve``: see above): the triangle's walk charges its root's 3
    children first, so each exits 3 under 2 units and names the layer on
    stderr, analyze too, after its partial report."""
    assert main([command[0], tri, "--cap-work", "2", *command[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: the work budget of 2 units ran out in lattice points: 0 spent, 3 more asked\n"
    )
    if command[0] != "analyze":
        assert captured.out == ""
        return
    payload = json.loads(captured.out)
    assert payload["cap_exceeded"] is True
    assert payload["width"] == 3
    assert "lattice_points" not in payload


def _stops():
    """(layer, run, units): ``run(budget)`` charges ``layer`` past a budget
    of ``units``, on the triangle, the square and zero9."""
    tri = parse_instance(TRIANGLE)
    basis = default_basis(tri.graph)
    points = lattice_points(tri, basis)
    tiles = fine_tiling(tri, basis)
    foreign = [tiles[0]._replace(translation=tuple(v + 1 for v in tiles[0].translation))]
    zero9 = parse_instance((GOLDEN / "zero9.pesp").read_text())
    return (
        ("offset search", lambda budget: solve_exact(tri, basis, budget), 2),
        ("face vertices", lambda budget: solve_exact(zero9, budget=budget), 1000),
        ("lattice points", lambda budget: lattice_points(tri, basis, budget), 2),
        ("lattice points", lambda budget: enumerate_polytropes(tri, basis, budget), 2),
        ("Kleene-star rows", lambda budget: duality_check(tri, basis, tiles=tiles, budget=budget), 0),
        ("tiling", lambda budget: fine_tiling(tri, basis, budget=budget), 0),
        ("tile corners", lambda budget: validate_tiling(tri, basis, foreign, points, budget=budget), 1),
        ("spanning trees", lambda budget: spanning_trees(tri.graph, budget), 2),
    )


def test_the_error_names_each_charged_layer():
    """Every layer that charges the budget names itself, and the units
    spent before it, in the error that stops it."""
    for layer, run, units in _stops():
        with pytest.raises(EnumerationCapExceeded) as stop:
            run(Budget(units))
        assert (stop.value.layer, stop.value.spent <= units) == (layer, True)
        assert f" units ran out in {layer}: {stop.value.spent} spent, " in str(stop.value)


GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_solve_tns_spends_the_work_budget(tmp_path, capsys):
    """``--cap-work`` bounds a tns solve like every other command: on s8800
    a budget of 0 stops the first grading of the offset search with exit 3,
    no output and no trace.  The default budget does not bind: the output
    and trace are those of a walk on a budget that cannot run out."""
    trace = tmp_path / "trace.jsonl"
    path = GOLDEN / "s8800.pesp"
    args = ["solve", str(path), "--method", "tns", "--trace", str(trace)]
    assert main(args + ["--cap-work", "0"]) == 3
    assert capsys.readouterr() == (
        "",
        "error: the work budget of 0 units ran out in offset search: 0 spent, 1 more asked\n",
    )
    assert not trace.exists()
    assert main(args) == 0
    inst = parse_instance(path.read_text())
    basis = default_basis(inst.graph)
    sol, walk = tns_restarts(inst, basis, budget=Budget(10**18))
    payload = cli._json_text(cli._solution_payload(inst, basis, sol)) + "\n"
    assert capsys.readouterr() == (payload, "")
    assert trace.read_text() == trace_to_jsonl(walk)


def test_a_stopped_tns_writes_one_error_line_and_no_gap(tmp_path, capsys):
    """Under every budget short of the whole walk of mu6's tns golden, the
    solve exits 3 with one error line, no gap (some stops are in the face
    vertices, which have none), no output and no trace; the whole spend
    writes the golden."""
    path = GOLDEN / "mu6.pesp"
    inst = parse_instance(path.read_text())
    spent = Budget()
    tns_restarts(inst, default_basis(inst.graph), 3, seed=1, budget=spent)
    trace = tmp_path / "trace.jsonl"
    args = ["solve", str(path), "--method", "tns", "--restarts", "3", "--seed", "1"]
    args += ["--trace", str(trace), "--cap-work"]
    layers = set()
    for units in range(spent.spent):
        assert main(args + [str(units)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and not trace.exists()
        stop = re.fullmatch(r"error: the work budget of \d+ units ran out in (.+?): .*\n", err)
        layers.add(stop[1])
    assert layers == {"offset search", "face vertices"}
    assert main(args + [str(spent.spent)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "mu6.tns.json").read_text()
    assert trace.read_text() == (GOLDEN / "mu6.tns.jsonl").read_text()


@pytest.mark.parametrize("command", ["analyze", "tile"])
@pytest.mark.parametrize(
    "name, instance, options",
    [
        ("triangle", "triangle", []),
        ("square", "square", []),
        ("bench7", "bench7", ["--root", "e4"]),
        ("bench7-tree", "bench7", ["--root", "e6", "--basis-tree", "1,4,6,7,8,9"]),
        ("mu6", "mu6", []),
    ],
    ids=("triangle", "square", "bench7", "bench7-tree", "mu6"),
)
def test_golden_outputs_are_byte_identical(name, instance, options, command):
    """``tests/golden/<name>.<command>.json`` is the stdout of the command
    on ``<instance>.pesp``.  bench7 is the benchmark generator's n = 7,
    m = 10 instance of ``random.Random(7)`` with one vertex split off by a
    fixed arc (e4 -> e7), so it is contracted, e7 into e4, before the
    tiling; the root is the merged vertex.  bench7-tree tiles the same
    instance under the basis of a tree that shares two arcs with the
    greedy one, from another root.  mu6 is the generator's n = 6, m = 11
    instance of ``random.Random(2)`` (mu = 6, 185 tiles, 35 lattice
    points), with no fixed arc."""
    result = run_cli([command, str(GOLDEN / f"{instance}.pesp"), *options])
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{name}.{command}.json").read_bytes()


def test_analyze_stops_at_the_tiling_charge_of_l5():
    """``tests/golden/l5.analyze.json`` is the stdout of ``analyze`` on l5
    at the default budget: the lattice points (1,590 units), the box and
    the bound chain, then the tiling's up-front charge, mu = 10 times its
    385,888 trees, runs the budget out, exit 3 with the layer on stderr.
    The tree count is the one the bound chain read."""
    result = run_cli(["analyze", str(GOLDEN / "l5.pesp")])
    assert result.returncode == 3
    assert result.stdout == (GOLDEN / "l5.analyze.json").read_bytes()
    assert result.stderr == (
        b"error: the work budget of 1000000 units ran out in tiling:"
        b" 1590 spent, 3858880 more asked\n"
    )


MORE_GOLDENS = [
    (name, *case)
    for name in ("bench7", "mu6")
    for case in (
        (["solve"], "solve.json"),
        (["solve", "--method", "tns", "--restarts", "3", "--seed", "1"], "tns.json"),
        (["polytropes", "--json"], "polytropes.json"),
    )
] + [(name, ["render", "--what", "zonotope"], "zonotope.svg") for name in ("triangle", "square5")]
MORE_GOLDENS += [("triangle", ["render", "--what", "torus"], "torus.svg")]
MORE_GOLDENS += [("zero9", ["solve"], "solve.json")]
MORE_GOLDENS += [
    ("mu6", ["solve", "--method", "tns", "--seed", "6", "--max-iter", "2"], "tns-cap2.json")
]
MORE_GOLDENS += [(name, ["polytropes", "--json"], "polytropes.json") for name in ("l5", "s8800")]
MORE_GOLDENS += [("mu6", ["polytropes"], "polytropes.txt")]


@pytest.mark.parametrize(
    "instance, command, golden",
    MORE_GOLDENS,
    ids=[f"{name}.{golden}" for name, _, golden in MORE_GOLDENS],
)
def test_solve_polytropes_and_render_goldens_are_byte_identical(
    instance, command, golden, tmp_path
):
    """``tests/golden/<instance>.<golden>`` is the stdout of the command on
    ``<instance>.pesp``; a tns solve also writes its trace, whose bytes are
    the golden's file with ``.jsonl`` for ``.json``.  mu6.tns-cap2 is a
    walk that ``--max-iter 2`` stops after two of its four moves.  square5
    is the square without its last arc (mu = 2, seven tiles), the largest
    golden a zonotope picture can show.
    zero9 is a ``bench/gen`` instance (n = 9, m = 13, ``random.Random(1)``)
    with every weight 0, so its first optimal face is a whole polytrope,
    56,320 spanning tree structures.  l5.polytropes (112 of 17,496 box
    points) was written by building the polytrope
    of every box point; s8800.polytropes (183 of 12,288 box points) was
    written before the box search, by a depth-first walk of the box.
    mu6.polytropes.txt, the text form, was written while each polytrope
    still built its Kleene star."""
    trace = tmp_path / "trace.jsonl"
    tns = "tns" in command
    argv = [command[0], str(GOLDEN / f"{instance}.pesp"), *command[1:]]
    result = run_cli(argv + (["--trace", str(trace)] if tns else []))
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{instance}.{golden}").read_bytes()
    if tns:
        assert trace.read_bytes() == (GOLDEN / f"{instance}.{golden}l").read_bytes()


@pytest.mark.parametrize("instance", ["s8800", "l5"])
def test_frontier_solves_are_byte_identical(instance, monkeypatch, capsys):
    """``tests/golden/<instance>.solve.json`` is the stdout of ``solve`` at
    the default budget, written when a box count capped the solve instead
    and these boxes were over it.  s8800 is the scaling instance of seed
    8800: ``PERIOD 12`` and
    one ``ARC v<i> v<j> l u w`` line per arc, the arcs from
    ``bench/gen.random_arcs(rng, 18, 27)`` and then the bounds from
    ``random_bounds(rng, 27)``, with ``rng = random.Random(8800)`` (mu =
    10, width 12,288).  l5 is the line-shaped instance of seed 5, whose
    recipe (three lines of five stops with driving, dwell and transfer
    arcs, period 20) is in ROADMAP.md and CHANGES.md (mu = 10, width
    17,496).  On s8800 the search runs at most 30
    Bellman-Fords (15: one per polytrope solve, empty ones included),
    where a scan of the box runs one a point."""
    runs = count_bellman_ford(monkeypatch)
    assert main(["solve", str(GOLDEN / f"{instance}.pesp")]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{instance}.solve.json").read_text()
    assert instance != "s8800" or len(runs) <= 30


def test_ratio_formats_like_a_fraction():
    """Translations and box ends are written as v/T by one gcd, in the form
    ``str(Fraction(v, T))`` gives, negatives and integers included."""
    for T in range(1, 31):
        for v in range(-5 * T, 5 * T + 1):
            assert cli._ratio(v, T) == str(Fraction(v, T)), (v, T)


_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600a') | st.characters())
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | _TEXT,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=100)
@given(_PAYLOADS)
@example([True, 1, None])
@example({"": [], "a": [{}], "b": [[], [[]]], "c": {}})
@example(["\"\\", "\x00\t\n", "\u00e9\U0001f600", -(10**40), 0])
def test_json_writer_matches_json_dumps(payload):
    """The one writer of every command's JSON gives the bytes of
    ``json.dumps(payload, indent=2)``."""
    assert cli._json_text(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "payload", [1.5, [0, 0.5], {"a": {1: 2}}, {None: 1}, (1, 2), {"a": {"b"}}], ids=repr
)
def test_json_writer_refuses_what_it_does_not_write(payload):
    """A float, a non-str key, a tuple or a set raises TypeError, where
    ``json.dumps`` would write a float, turn the key into a string or write
    the tuple as a list."""
    with pytest.raises(TypeError):
        cli._json_text(payload)


def _tile_rows(tiles, T):
    """The tile list as the dicts ``json.dumps`` would be handed."""
    return [
        {
            "tree": list(t.structure.tree),
            "L": sorted(t.structure.at_lower),
            "U": sorted(t.structure.at_upper),
            "translation": [str(Fraction(v, T)) for v in t.translation],
            "lattice_point": list(t.lattice_point) if t.lattice_point is not None else None,
        }
        for t in tiles
    ]


def _assert_tile_list_is_written_like_its_rows(tiles, T):
    """Under analyze's report and tile's payload, and at the top and
    deeper down, the tile list writes the bytes ``json.dumps`` gives its
    dict rows."""
    listed, rows = cli._TileList(tiles, T), _tile_rows(tiles, T)
    for payload in (
        lambda tiling: {"mu": 1, "box": [["0", "1/2"]], "tiling": tiling, "duality": {}},
        lambda tiling: {"root": "v0", "tiles": tiling, "validation": {"ok": True}},
        lambda tiling: tiling,
        lambda tiling: [[tiling], {"a": tiling}],
    ):
        assert cli._json_text(payload(listed)) == json.dumps(payload(rows), indent=2)


@st.composite
def _hand_built_tiles(draw):
    """A tile with any arcs at either bound (none at all included), a
    translation of any sign, integral or not, and a lattice point or None;
    mu = 0 gives an empty translation and point."""
    mu = draw(st.integers(0, 3))
    tree = draw(st.lists(st.integers(0, 12), unique=True, max_size=5))
    upper = draw(st.sets(st.sampled_from(tree))) if tree else set()
    translation = tuple(draw(st.lists(st.integers(-60, 60), min_size=mu, max_size=mu)))
    point = draw(st.none() | st.tuples(*[st.integers(-9, 9)] * mu))
    structure = SpanningTreeStructure(tuple(tree), set(tree) - upper, upper)
    return Tile(structure, (), translation, point)


@settings(max_examples=100)
@given(st.lists(_hand_built_tiles(), max_size=4), st.integers(1, 30))
@example([], 10)
@example([Tile(SpanningTreeStructure((), (), ()), (), (), ())], 1)
@example([Tile(SpanningTreeStructure((2, 0), (0, 2), ()), (), (-24, 7), None)], 12)
def test_tile_list_writes_the_bytes_of_its_dict_rows(tiles, T):
    _assert_tile_list_is_written_like_its_rows(tuple(tiles), T)


def test_corpus_tile_lists_write_the_bytes_of_their_dict_rows():
    for inst, basis, _, _ in random_corpus(100):
        _assert_tile_list_is_written_like_its_rows(fine_tiling(inst, basis), inst.period)


def test_contracted_instance_is_flagged(tmp_path, capsys):
    path = tmp_path / "fixed.pesp"
    path.write_text(FIXED_ARC)
    assert main(["analyze", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contracted"] is True
    assert payload["validation"]["ok"] is True


@pytest.mark.parametrize(
    "command", [["analyze"], ["tile"], ["render", "--what", "zonotope"]], ids=" ".join
)
def test_basis_tree_numbers_the_arcs_of_the_file(tmp_path, capsys, command):
    """Contracting the fixed arc 0 of FIXED_FIRST renumbers file arcs 1, 2,
    3 as 0, 1, 2.  ``--basis-tree`` reads file numbering: the fixed arc
    drops out, and each list gives the output of its image on the
    contracted instance written out."""
    path = tmp_path / "fixed.pesp"
    path.write_text(FIXED_FIRST)
    contracted = tmp_path / "contracted.pesp"
    result = contract_fixed_arcs(parse_instance(FIXED_FIRST))
    contracted.write_text(serialize_instance(result.instance))
    outputs = set()
    for listed, image in (("2", "1"), ("3", "2"), ("0,1", "0"), ("1,0", "0")):
        assert main([command[0], str(path), "--basis-tree", listed, *command[1:]]) == 0
        out = capsys.readouterr().out
        assert main([command[0], str(contracted), "--basis-tree", image, *command[1:]]) == 0
        expected = capsys.readouterr().out
        if command[0] != "render":
            out, expected = json.loads(out), json.loads(expected)
            assert out.pop("contracted") is True
        assert out == expected, listed
        outputs.add(str(out))
    assert len(outputs) == 3


@pytest.mark.parametrize(
    "listed, reason",
    [
        ("1,2", "2 arcs cannot span 2 vertices"),
        ("0", "0 arcs cannot span 2 vertices"),
        ("1,1", "repeated arc indices in tree"),
        ("4", "arc index out of range"),
        ("-1", "arc index out of range"),
    ],
)
def test_a_basis_tree_that_misses_the_contracted_tree_is_a_usage_error(
    tmp_path, capsys, listed, reason
):
    path = tmp_path / "fixed.pesp"
    path.write_text(FIXED_FIRST)
    assert main(["analyze", str(path), "--basis-tree", listed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: file arcs {listed} do not map onto a spanning tree of the graph"
        f" with its fixed arcs contracted: {reason}\n"
    )


@pytest.mark.parametrize("listed, entry", [("x", "x"), ("1,,2", ""), ("1.5", "1.5")])
@pytest.mark.parametrize("command", ["solve", "analyze"])
def test_a_basis_tree_entry_that_is_no_arc_index_is_a_usage_error(
    tmp_path, capsys, command, listed, entry
):
    """An entry that is not an integer is named with the flag, on a plain
    instance (solve) and on one with a fixed arc contracted (analyze)."""
    path = tmp_path / "fixed.pesp"
    path.write_text(FIXED_FIRST)
    instance = str(GOLDEN / "mu6.pesp") if command == "solve" else str(path)
    assert main([command, instance, "--basis-tree", listed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --basis-tree takes comma-separated arc indices or 'auto', not {entry!r}\n"
    )


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


def test_one_parser_serves_every_call(tri, tmp_path, capsys):
    """The flag table keeps no state between calls: calls repeated in one
    process give what each gives in a fresh process."""
    trace = tmp_path / "trace.jsonl"
    calls = [
        ["solve", tri, "--method", "tns", "--restarts", "2", "--trace", str(trace)],
        ["analyze", tri, "--root", "v1"],
        ["solve", tri, "--max-iter", "many"],
        ["solve", tri],
        ["solve", "--help"],
    ]

    def fresh(argv):
        trace.unlink(missing_ok=True)
        result = run_cli(argv)
        text = trace.read_text() if trace.exists() else None
        return result.returncode, result.stdout.decode(), result.stderr.decode(), text

    def run(argv):
        trace.unlink(missing_ok=True)
        rc = main(argv)
        out, err = capsys.readouterr()
        return rc, out, err, trace.read_text() if trace.exists() else None

    expected = [fresh(argv) for argv in calls]
    assert [rc for rc, *_ in expected] == [0, 0, 1, 0, 0]
    for _ in range(2):
        assert [run(argv) for argv in calls] == expected


@pytest.fixture(scope="module")
def reference_parser():
    return argparse_reference()


FLAG_VALUES = ("0", "1", "3", "-1", "-3", "many", "1.5", "", "fast", "v1", "0,2", "-x", "--out")


@st.composite
def command_argv(draw, command):
    """An argv for ``command`` built from its flag table row: known and
    foreign flags in any order, by full name or prefix, with ``=`` or a
    separate value or none, good and bad values, help, stray positionals,
    the instance before or after ``--`` or missing, and sometimes a
    top-level flag or a wrong command word in front."""
    (flags,) = [row[3] for row in cli._COMMANDS if row[0] == command]
    known = [flag[0] for flag in flags]
    foreign = sorted({f[0] for row in cli._COMMANDS for f in row[3]} - set(known))
    tokens = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("flag",) * 12 + ("foreign", "help", "stray")))
        if kind == "help":
            tokens.append([draw(st.sampled_from(("-h", "--help", "--he", "-hh", "-hx", "--help=1")))])
            continue
        if kind == "stray":
            tokens.append([draw(st.sampled_from(("extra", "-5", "-")))])
            continue
        if kind == "foreign":
            option, convert = draw(st.sampled_from(foreign + ["--bogus", "-x"])), str
        else:
            option, convert = draw(st.sampled_from([flag[:2] for flag in flags]))
            option = option[: draw(st.integers(3, len(option)))]
        if type(convert) is tuple:
            good = convert
        elif convert in (str, None):
            good = ("v1", "out.json")
        else:
            good = tuple(str(v) for v in range(-2, 5))
        value = draw(st.sampled_from(good * 4 + FLAG_VALUES))
        form = draw(st.sampled_from(("space",) * 4 + ("equals",) * 4 + ("bare",)))
        if convert is None:
            form = draw(st.sampled_from(("bare", "bare", "equals")))
        tokens.append({"space": [option, value], "equals": [f"{option}={value}"], "bare": [option]}[form])
    place = draw(st.sampled_from(("between",) * 6 + ("after --",) * 3 + ("before --", "missing")))
    # argparse's reading of "--" changed in Python 3.12 and 3.13; a "--"
    # right after a flag that waits for its value is left out, so that the
    # test holds on every version CI runs.
    if place.endswith(" --") and tokens and len(tokens[-1]) == 1 and tokens[-1][0].startswith("--"):
        place = "between"
    tail = []
    if place == "between":
        tokens.insert(draw(st.integers(0, len(tokens))), ["inst.pesp"])
    elif place == "after --":
        tail = ["--", "inst.pesp"] + draw(st.sampled_from(([], ["extra"], ["--out", "f"])))
    elif place == "before --":
        tail = ["inst.pesp", "--"] + draw(st.sampled_from(([], ["extra"])))
    head = draw(st.sampled_from(([],) * 20 + (["-h"], ["--bogus"], ["--he"])))
    word = draw(st.sampled_from((command,) * 20 + ("solv", "Solve", None)))
    body = [word] + [arg for token in tokens for arg in token] + tail if word else []
    return head + body


def parse_outcome(parse, argv):
    """The namespace fields of one parse, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("command", [row[0] for row in cli._COMMANDS])
@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_the_flag_table_reads_argv_as_argparse_did(reference_parser, command, data):
    """Where argparse accepts, the table gives the same fields and handler;
    where argparse exits, the table exits with the same code, and
    ``main`` returns 0 after help on stdout or 1 with nothing there."""
    argv = data.draw(command_argv(command))
    expected = parse_outcome(reference_parser.parse_args, argv)
    assert parse_outcome(cli._parse_argv, argv) == expected
    if type(expected) is int:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        assert rc == (0 if expected == 0 else 1)
        assert out.getvalue().startswith("usage: ") if expected == 0 else out.getvalue() == ""
