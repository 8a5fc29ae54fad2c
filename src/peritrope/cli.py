"""Command line front end: solve, analyze, polytropes, tile, render.

Exit codes: 0 success/feasible, 1 usage or input errors, 2 infeasible or
heuristic failure, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import (
    EmptyPolytrope,
    EnumerationCapExceeded,
    Infeasible,
    InfeasibleFixedCycle,
    PeritropeError,
    RetriesExhausted,
)
from .exact import solve_exact
from .graphs import count_spanning_trees_determinant, default_basis, fundamental_cycle_basis
from .instances import contract_fixed_arcs, parse_instance
from .polytropes import enumerate_polytropes
from .render import render_torus, render_zonotope
from .search import TnsConfig, initial_solution, tns, trace_to_jsonl
from .zonotopes import (
    DEFAULT_WIDTH_CAP,
    fine_tiling,
    duality_check,
    lattice_points,
    odijk_box,
    validate_tiling,
    width,
    width_bound_report,
)


def _common_flags(parser):
    parser.add_argument("instance", help="instance file in the native text format")
    parser.add_argument(
        "--basis-tree",
        default="auto",
        metavar="ARCS",
        help="comma-separated arc indices of the basis tree, or 'auto'",
    )
    parser.add_argument("--root", default=None, help="root vertex id")
    parser.add_argument(
        "--cap-width",
        type=int,
        default=DEFAULT_WIDTH_CAP,
        metavar="N",
        help="refuse lattice enumerations beyond N box points",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--out", default=None, metavar="FILE", help="write output here")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="peritrope",
        description="periodic timetabling through polytropes and offset zonotopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="find an optimal or heuristic timetable")
    _common_flags(p_solve)
    p_solve.add_argument("--method", choices=("tns", "exact"), default="exact")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--max-iter", type=int, default=100)
    p_solve.add_argument("--restarts", type=int, default=1)
    p_solve.add_argument("--trace", default=None, metavar="FILE", help="search trace (JSON lines)")
    p_solve.set_defaults(func=cmd_solve)

    p_analyze = sub.add_parser("analyze", help="zonotope report: volume, width, tiling, bounds")
    _common_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_poly = sub.add_parser("polytropes", help="enumerate nonempty offset classes")
    _common_flags(p_poly)
    p_poly.set_defaults(func=cmd_polytropes)

    p_tile = sub.add_parser("tile", help="spanning tree tiling with validation and duality")
    _common_flags(p_tile)
    p_tile.set_defaults(func=cmd_tile)

    p_render = sub.add_parser("render", help="SVG picture of the torus or the zonotope")
    _common_flags(p_render)
    p_render.add_argument("--what", choices=("torus", "zonotope"), default="torus")
    p_render.set_defaults(func=cmd_render)
    return parser


def _load_instance(args):
    with open(args.instance, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _basis_for(args, g):
    if args.basis_tree == "auto":
        return default_basis(g)
    arcs = tuple(int(part) for part in args.basis_tree.split(","))
    return fundamental_cycle_basis(g, arcs)


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _solution_payload(inst, basis, sol):
    g = inst.graph
    return {
        "period": inst.period,
        "objective": sol.objective,
        "timetable": {v: sol.timetable[i] for i, v in enumerate(g.vertices)},
        "tension": {str(a): sol.tension[a] for a in range(g.m)},
        "periodic_offset": {str(a): sol.periodic_offset[a] for a in range(g.m)},
        "cycle_offset": list(sol.cycle_offset),
        "basis": [list(row) for row in basis.gamma],
    }


def cmd_solve(args):
    inst = _load_instance(args)
    basis = _basis_for(args, inst.graph)
    trace = None
    if args.method == "exact":
        sol = solve_exact(inst, basis, width_cap=args.cap_width)
    else:
        sol = None
        failures = 0
        for attempt in range(max(args.restarts, 1)):
            seed = args.seed + attempt
            try:
                start = initial_solution(inst, seed=seed, basis=basis)
            except RetriesExhausted:
                failures += 1
                continue
            config = TnsConfig(max_iterations=args.max_iter, seed=seed)
            candidate, candidate_trace = tns(inst, basis, start, config)
            if sol is None or candidate.objective < sol.objective:
                sol, trace = candidate, candidate_trace
        if sol is None:
            raise RetriesExhausted(f"all {failures} restarts failed to find a feasible start")
    if args.trace and trace is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(trace_to_jsonl(trace))
    payload = _solution_payload(inst, basis, sol)
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def _contract_if_needed(inst):
    if any(l == u for l, u in zip(inst.lower, inst.upper)):
        result = contract_fixed_arcs(inst)
        return result.instance, result.vertex_map, True
    return inst, {v: v for v in inst.graph.vertices}, False


def _resolve_root(args, vertex_map, g):
    if args.root is None:
        return None
    mapped = vertex_map.get(args.root, args.root)
    if mapped not in g.vertices:
        raise ValueError(f"unknown root vertex {args.root!r}")
    return mapped


def _frac(value):
    return str(Fraction(value))


def cmd_analyze(args):
    raw = _load_instance(args)
    inst, vertex_map, contracted = _contract_if_needed(raw)
    root = _resolve_root(args, vertex_map, inst.graph)
    basis = _basis_for(args, inst.graph)
    T = inst.period
    bounds = width_bound_report(inst, basis)
    report = {
        "mu": basis.mu,
        "num_spanning_trees": count_spanning_trees_determinant(inst.graph),
        "volume": _frac(bounds.volume),
        "width": width(inst, basis),
    }
    capped = False
    try:
        points = lattice_points(inst, basis, cap=args.cap_width)
        report["lattice_points"] = [list(z) for z in points]
    except EnumerationCapExceeded:
        capped = True
    report["box"] = [[_frac(Fraction(lo, T)), _frac(Fraction(hi, T))] for lo, hi in odijk_box(inst, basis)]
    report["bound_chain"] = {
        "width": bounds.width,
        "num_spanning_trees": bounds.num_spanning_trees,
        "epsilon": bounds.epsilon,
        "volume": _frac(bounds.volume),
        "lower_bound": _frac(bounds.lower_bound),
        "slack_product": _frac(bounds.slack_product),
        "refined_upper": _frac(bounds.refined_upper),
        "coarse_upper": _frac(bounds.coarse_upper),
        "holds": bounds.chain_holds,
        "infeasible": bounds.infeasible,
    }
    if not capped:
        try:
            tiles = fine_tiling(inst, basis, root, width_cap=args.cap_width)
            report["tiling"] = [
                {
                    "tree": list(t.structure.tree),
                    "L": sorted(t.structure.at_lower),
                    "U": sorted(t.structure.at_upper),
                    "translation": [_frac(Fraction(v, T)) for v in t.translation],
                    "lattice_point": list(t.lattice_point) if t.lattice_point is not None else None,
                }
                for t in tiles
            ]
            tiling_report = validate_tiling(inst, basis, tiles, width_cap=args.cap_width)
            report["validation"] = {
                "tile_count": tiling_report.tile_count,
                "volume_match": tiling_report.volume_match,
                "tiles_inside": tiling_report.tiles_inside,
                "all_points_covered": tiling_report.all_points_covered,
                "at_most_one_point": tiling_report.at_most_one_point,
                "ok": tiling_report.ok,
            }
            duality = duality_check(inst, basis, root, tiles=tiles)
            report["duality"] = {"checked": duality.checked, "ok": duality.ok}
        except EnumerationCapExceeded:
            capped = True
    if contracted:
        report["contracted"] = True
    if capped:
        report["cap_exceeded"] = True
    _emit(args, json.dumps(report, indent=2) + "\n")
    return 3 if capped else 0


def cmd_polytropes(args):
    inst = _load_instance(args)
    basis = _basis_for(args, inst.graph)
    polys = enumerate_polytropes(inst, basis, cap=args.cap_width)
    if args.json or args.out:
        payload = [
            {
                "cycle_offset": list(p.cycle_offset),
                "offset": list(p.offset),
                "dimension": p.dimension,
            }
            for p in polys
        ]
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        for p in polys:
            sys.stdout.write(
                f"z={tuple(p.cycle_offset)} dim={p.dimension} p={tuple(p.offset)}\n"
            )
    return 0


def cmd_tile(args):
    raw = _load_instance(args)
    inst, vertex_map, contracted = _contract_if_needed(raw)
    root = _resolve_root(args, vertex_map, inst.graph)
    basis = _basis_for(args, inst.graph)
    T = inst.period
    tiles = fine_tiling(inst, basis, root, width_cap=args.cap_width)
    tiling_report = validate_tiling(inst, basis, tiles, width_cap=args.cap_width)
    duality = duality_check(inst, basis, root, tiles=tiles)
    payload = {
        "root": root if root is not None else inst.graph.vertices[0],
        "tiles": [
            {
                "tree": list(t.structure.tree),
                "L": sorted(t.structure.at_lower),
                "U": sorted(t.structure.at_upper),
                "translation": [_frac(Fraction(v, T)) for v in t.translation],
                "lattice_point": list(t.lattice_point) if t.lattice_point is not None else None,
            }
            for t in tiles
        ],
        "validation": {
            "tile_count": tiling_report.tile_count,
            "volume_match": tiling_report.volume_match,
            "tiles_inside": tiling_report.tiles_inside,
            "all_points_covered": tiling_report.all_points_covered,
            "at_most_one_point": tiling_report.at_most_one_point,
            "ok": tiling_report.ok,
        },
        "duality": {"checked": duality.checked, "ok": duality.ok},
    }
    if contracted:
        payload["contracted"] = True
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_render(args):
    raw = _load_instance(args)
    inst, vertex_map, _ = _contract_if_needed(raw)
    root = _resolve_root(args, vertex_map, inst.graph)
    basis = _basis_for(args, inst.graph)
    if args.what == "torus":
        svg = render_torus(inst, basis, width_cap=args.cap_width)
    else:
        svg = render_zonotope(inst, basis, root=root, width_cap=args.cap_width)
    _emit(args, svg)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (Infeasible, RetriesExhausted, InfeasibleFixedCycle, EmptyPolytrope) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PeritropeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
