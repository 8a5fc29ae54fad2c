"""Command line front end: solve, analyze, polytropes, tile, render.

Exit codes: 0 success/feasible, 1 usage or input errors, 2 infeasible or
heuristic failure, 3 work budget (``--cap-work``) spent; a stopped exact
solve writes its proven gap on stderr.  ``_parse_argv`` reads argv
by one flag table as the argparse parser it replaced did, minus its start-up.

Every JSON payload is written by ``_json_text``, whose bytes are those of
``json.dumps(payload, indent=2)``, whose pure-Python encoder was a fifth
of ``analyze``'s time.  A ``_TileList``, about 95 % of the output of
``analyze`` and ``tile``, writes its own text, building no dict per tile.
"""

import math
import re
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .errors import (
    EmptyPolytrope,
    EnumerationCapExceeded,
    Infeasible,
    InfeasibleFixedCycle,
    NotASpanningTree,
    PeritropeError,
    RetriesExhausted,
)
from .exact import solve_exact
from .graphs import DEFAULT_WORK, Budget, default_basis, fundamental_cycle_basis
from .instances import contract_fixed_arcs, parse_instance
from .search import tns_restarts, trace_to_jsonl
from .zonotopes import (
    TileKernel,
    duality_check,
    enumerate_polytropes,
    fine_tiling,
    lattice_points,
    odijk_box,
    validate_tiling,
    width_bound_report,
)


def _load_instance(args):
    with open(args.instance, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _basis_for(args, g, arc_map=None):
    """The basis of ``--basis-tree``, whose arc indices number the arcs of
    the instance file.  On a contracted instance ``arc_map`` (file arc ->
    contracted arc, None for the arcs contracted away) translates them:
    the arcs contracted away drop out, and the rest must map onto a
    spanning tree of the contracted graph."""
    if args.basis_tree == "auto":
        return default_basis(g)
    arcs = []
    for part in args.basis_tree.split(","):
        try:
            arcs.append(int(part))
        except ValueError:
            raise ValueError(
                f"--basis-tree takes comma-separated arc indices or 'auto', not {part!r}"
            ) from None
    if arc_map is None:
        return fundamental_cycle_basis(g, arcs)
    if any(not 0 <= a < len(arc_map) for a in arcs):
        reason = "arc index out of range"
    else:
        image = [arc_map[a] for a in arcs if arc_map[a] is not None]
        try:
            return fundamental_cycle_basis(g, image)
        except NotASpanningTree as exc:
            reason = str(exc)
    raise NotASpanningTree(
        f"file arcs {args.basis_tree} do not map onto a spanning tree of the graph"
        f" with its fixed arcs contracted: {reason}"
    )


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj):
    """``json.dumps(obj, indent=2)`` for a payload of str-keyed dicts,
    lists, str, int, bool and None, a ``_TileList`` standing for its list
    of tile dicts; TypeError on any other value."""
    out = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(obj, newline, out):
    """Append the chunks of ``obj`` at the indentation ``newline`` ends in."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == {int} or kinds == {str}:  # plain leaves, bool never among them
            leaf = str if kinds == {int} else encode_basestring_ascii
            out.append("[" + inner + ("," + inner).join(map(leaf, obj)) + newline + "]")
            return
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, v in obj.items():
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is _TileList:
        obj.write(newline, out)
    else:
        raise TypeError(f"cannot write a {kind.__name__} as JSON")


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
    if args.trace and args.method == "exact":
        raise ValueError("--trace records a tns search; the exact method has none")
    inst = _load_instance(args)
    basis = _basis_for(args, inst.graph)
    if args.method == "exact":
        sol = solve_exact(inst, basis, Budget(args.cap_work))
    else:
        sol, trace = tns_restarts(
            inst, basis, args.restarts, args.max_iter, args.seed, Budget(args.cap_work)
        )
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as handle:
                handle.write(trace_to_jsonl(trace))
    payload = _solution_payload(inst, basis, sol)
    _emit(args, _json_text(payload) + "\n")
    return 0


def _contracted(args):
    """(instance, root, basis, arc map) of the instance file with its fixed
    arcs contracted: ``--root`` and ``--basis-tree`` mapped onto the
    contracted graph, and the arc map of ``ContractionResult``, None when
    there is no fixed arc."""
    inst = _load_instance(args)
    vertex_map, arc_map = {}, None
    if any(l == u for l, u in zip(inst.lower, inst.upper)):
        result = contract_fixed_arcs(inst)
        inst, vertex_map, arc_map = result.instance, result.vertex_map, result.arc_map
    root = None
    if args.root is not None:
        root = vertex_map.get(args.root, args.root)
        if root not in inst.graph.vertices:
            raise ValueError(f"unknown root vertex {args.root!r}")
    return inst, root, _basis_for(args, inst.graph, arc_map), arc_map


def _ratio(v, T):
    """``str(Fraction(v, T))`` for integers v and T > 0, by one gcd."""
    g = math.gcd(v, T)
    return str(v // g) if g == T else f"{v // g}/{T // g}"


class _TileList:
    """The tile list of one tiling, which ``_json_text`` has write itself:
    the bytes of its {"tree", "L", "U", "translation", "lattice_point"}
    dicts, written in one pass over the tiles without building them."""

    __slots__ = ("tiles", "period")

    def __init__(self, tiles, period):
        self.tiles = tiles
        self.period = period

    def write(self, newline, out):
        """Append the list's text at the indentation ``newline`` ends in."""
        tile, key = newline + "  ", newline + "    "
        item = key + "  "
        opened, join, close = "[" + item, ("," + item).join, key + "]"

        def leaves(values, text=str):
            return opened + join(map(text, values)) + close if values else "[]"

        # Tiles share most arcs, pinned arc sets (the frozensets L and U of
        # their structures) and translations; the text of each is built once.
        T = self.period
        structures = [t.structure for t in self.tiles]
        m = max((s.tree[-1] + 1 for s in structures if s.tree), default=0)
        arc = list(map(str, range(m))).__getitem__
        pinned = {pins: leaves(sorted(pins), arc) for pins in {p for s in structures for p in s[1:]}}
        shifts = {t.translation for t in self.tiles}
        values = {v for tr in shifts for v in tr}
        ratio = {v: encode_basestring_ascii(_ratio(v, T)) for v in values}.__getitem__
        shift = {tr: leaves(tr, ratio) for tr in shifts}
        tree, lower, upper = '{%s"tree": ' % key, ',%s"L": ' % key, ',%s"U": ' % key
        translation, point = ',%s"translation": ' % key, ',%s"lattice_point": ' % key
        rows = []
        for t in self.tiles:
            s = t.structure
            z = t.lattice_point
            rows.append("".join((
                tree, leaves(s.tree, arc), lower, pinned[s.at_lower], upper, pinned[s.at_upper],
                translation, shift[t.translation], point, "null" if z is None else leaves(z),
                tile, "}",
            )))
        out.append("[" + tile + ("," + tile).join(rows) + newline + "]" if rows else "[]")


def _tiling_section(kernel, root, points, budget):
    """The tile list (a ``_TileList``), validation and duality payloads of
    the fine tiling of the ``kernel``'s instance and basis, whose lattice
    points are ``points``; tiling and validation share the kernel, and all
    three the ``budget``."""
    inst, basis = kernel.inst, kernel.basis
    tiles = fine_tiling(inst, basis, root, kernel, budget)
    tiling_report = validate_tiling(inst, basis, tiles, points, kernel, budget)
    duality = duality_check(inst, basis, root, tiles, budget)
    validation = {
        "tile_count": tiling_report.tile_count,
        "volume_match": tiling_report.volume_match,
        "tiles_inside": tiling_report.tiles_inside,
        "all_points_covered": tiling_report.all_points_covered,
        "at_most_one_point": tiling_report.at_most_one_point,
        "ok": tiling_report.ok,
    }
    return (
        _TileList(tiles, inst.period),
        validation,
        {"checked": duality.checked, "ok": duality.ok},
    )


def cmd_analyze(args):
    inst, root, basis, arc_map = _contracted(args)
    T = inst.period
    # One kernel, so the bounds and the validation share one volume.
    kernel = TileKernel(inst, basis)
    bounds = width_bound_report(inst, basis, kernel)
    report = {
        "mu": basis.mu,
        "num_spanning_trees": bounds.num_spanning_trees,
        "volume": str(bounds.volume),
        "width": bounds.width,
    }
    stop, budget = None, Budget(args.cap_work)
    try:
        points = lattice_points(inst, basis, budget)
        report["lattice_points"] = [list(z) for z in points]
    except EnumerationCapExceeded as exc:
        stop = exc
    report["box"] = [[_ratio(lo, T), _ratio(hi, T)] for lo, hi in odijk_box(inst, basis)]
    report["bound_chain"] = {
        "width": bounds.width,
        "num_spanning_trees": bounds.num_spanning_trees,
        "epsilon": bounds.epsilon,
        "volume": str(bounds.volume),
        "lower_bound": str(bounds.lower_bound),
        "slack_product": str(bounds.slack_product),
        "refined_upper": str(bounds.refined_upper),
        "coarse_upper": str(bounds.coarse_upper),
        "holds": bounds.chain_holds,
        "infeasible": bounds.infeasible,
    }
    if stop is None:
        try:
            report["tiling"], report["validation"], report["duality"] = _tiling_section(
                kernel, root, points, budget
            )
        except EnumerationCapExceeded as exc:
            stop = exc
    if arc_map is not None:
        report["contracted"] = True
    if stop is not None:
        report["cap_exceeded"] = True
    _emit(args, _json_text(report) + "\n")
    if stop is not None:
        raise stop  # after the partial report: ``main`` names its layer and exits 3
    return 0


def cmd_polytropes(args):
    inst = _load_instance(args)
    basis = _basis_for(args, inst.graph)
    polys = enumerate_polytropes(inst, basis, Budget(args.cap_work))
    if args.json:
        fields = [(list(p.cycle_offset), list(p.offset), p.dimension) for p in polys]
        payload = [dict(zip(("cycle_offset", "offset", "dimension"), f)) for f in fields]
        _emit(args, _json_text(payload) + "\n")
    else:
        _emit(args, "".join(f"z={p.cycle_offset} dim={p.dimension} p={p.offset}\n" for p in polys))
    return 0


def cmd_tile(args):
    inst, root, basis, arc_map = _contracted(args)
    budget = Budget(args.cap_work)
    points = lattice_points(inst, basis, budget)
    tiles, validation, duality = _tiling_section(TileKernel(inst, basis), root, points, budget)
    payload = {
        "root": root if root is not None else inst.graph.vertices[0],
        "tiles": tiles,
        "validation": validation,
        "duality": duality,
    }
    if arc_map is not None:
        payload["contracted"] = True
    _emit(args, _json_text(payload) + "\n")
    return 0


def cmd_render(args):
    from .render import render_torus, render_zonotope  # loaded only when a picture is drawn

    inst, root, basis, arc_map = _contracted(args)
    if args.what == "torus":
        if inst.graph.n != 3 and arc_map is not None:
            raise ValueError(
                "torus rendering needs exactly 3 vertices once the fixed arcs"
                f" are contracted, and this file leaves {inst.graph.n}"
            )
        svg = render_torus(inst, basis, Budget(args.cap_work))
    else:
        svg = render_zonotope(inst, basis, root, Budget(args.cap_work))
    _emit(args, svg)
    return 0


# The flag table: one entry (command, help, handler, flags) per command,
# each flag (option, converter, default, metavar, help).  The converter is
# str, int, an int n for at least n, a tuple of choices, or None (a switch).
_SHARED = (
    ("--basis-tree", str, "auto", "ARCS", "comma-separated basis tree arc indices, or 'auto'"),
    ("--cap-work", 0, DEFAULT_WORK, "N", "stop after N units of enumeration work"),
    ("--out", str, None, "FILE", "write output here"),
)
_ROOT = ("--root", str, None, "VERTEX", "root vertex id")
_COMMANDS = (
    ("solve", "find an optimal or heuristic timetable", cmd_solve, _SHARED + (
        ("--method", ("tns", "exact"), "exact", "{tns,exact}", "exact optimum or tns search"),
        ("--seed", int, 0, "N", "tns seed"),
        ("--max-iter", 1, 100, "N", "tns step cap"),
        ("--restarts", 1, 1, "N", "tns restarts"),
        ("--trace", str, None, "FILE", "tns trace (JSON lines)"),
    )),
    ("analyze", "zonotope report: volume, width, tiling, bounds", cmd_analyze, _SHARED + (_ROOT,)),
    ("polytropes", "enumerate nonempty offset classes", cmd_polytropes,
     _SHARED + (("--json", None, False, "", "machine-readable output"),)),
    ("tile", "spanning tree tiling with validation and duality", cmd_tile, _SHARED + (_ROOT,)),
    ("render", "SVG picture of the torus or the zonotope", cmd_render,
     _SHARED + (_ROOT, ("--what", ("torus", "zonotope"), "torus", "{torus,zonotope}", "picture"))),
)


def _end(entry, message=None):
    """End the parse with help (usage and flags on stdout, code 0), or with
    a refusal (usage and ``message`` on stderr, code 2)."""
    prog = "peritrope " + entry[0] if entry else "peritrope"
    words = "[flags] instance" if entry else "{%s} ..." % ",".join(row[0] for row in _COMMANDS)
    rows = [(f"{f[0]} {f[3]}", f[4]) for f in entry[3]] if entry else [r[:2] for r in _COMMANDS]
    text = f"{prog}: error: {message}\n" if message else "".join(f"  {a:<23}{b}\n" for a, b in rows)
    (sys.stderr if message else sys.stdout).write(f"usage: {prog} [-h] {words}\n{text}")
    raise SystemExit(2 if message else 0)


def _option(arg, names, entry):
    """What argparse made of ``arg`` before ``--``: None (positional) or
    (option, value or None), the option None if no flag or prefix matches."""
    if arg[:1] != "-" or arg == "-":
        return None
    head, eq, value = arg.partition("=")
    if head in names:
        return head, value if eq else None
    if arg[1] == "-":
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            _end(entry, f"ambiguous option: {arg} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif arg[1] == "h":  # -hh is -h twice
        return "-h", arg[2:].lstrip("h") or None
    elif re.match(r"^-\d+$|^-\d*\.\d+$", arg):  # a negative number
        return None
    return None if " " in arg else (None, None)


def _value(entry, option, convert, text):
    if type(convert) is tuple and text not in convert:
        choices = ", ".join(map(repr, convert))
        _end(entry, f"argument {option}: invalid choice: {text!r} (choose from {choices})")
    if convert is str or type(convert) is tuple:
        return text
    try:
        value = int(text)
    except ValueError:
        _end(entry, f"argument {option}: invalid int value: {text!r}")
    if convert is not int and value < convert:
        _end(entry, f"argument {option}: must be at least {convert}, got {value}")
    return value


def _parse_argv(argv, entry=None, extras=()):
    """The namespace of ``argv`` by the flag table, read as argparse read it."""
    table = {flag[0]: flag for flag in entry[3]} if entry else {}
    end = argv.index("--") if "--" in argv else len(argv)
    # All are classified before any is read, as argparse refused ambiguous
    # prefixes first: (option, value), None (positional) or the "--" marker.
    kinds = [_option(arg, ("-h", "--help") + tuple(table), entry) for arg in argv[:end]]
    kinds += ["--"] + [None] * len(argv)
    extras, values = list(extras), {option: flag[2] for option, flag in table.items()}
    instance, i = None, 0
    while i < len(argv):
        kind, i = kinds[i], i + 1
        if entry is None and type(kind) is not tuple:  # the command word; the rest is its own
            name = _value(None, "command", tuple(row[0] for row in _COMMANDS), argv[i - 1])
            return _parse_argv(argv[i:], next(row for row in _COMMANDS if row[0] == name), extras)
        if instance is None and (kind is None or kind == "--" and i < len(argv)):
            i += kind == "--"  # a "--" beside the instance goes with it
            instance, i = argv[i - 1], i + (kinds[i] == "--")
        elif type(kind) is not tuple or kind[0] is None:
            extras.append(argv[i - 1])
        elif table.get(kind[0], (0, None))[1] is None:  # -h, --help or a switch
            if kind[1] is not None:
                _end(entry, f"argument {kind[0]}: ignored explicit argument {kind[1]!r}")
            if kind[0] not in table:  # -h or --help
                _end(entry)
            values[kind[0]] = True
        else:
            option, text = kind
            if text is None:
                if kinds[i] is not None:  # a flag, the marker or the end
                    _end(entry, f"argument {option}: expected one argument")
                text, i = argv[i], i + 1
            values[option] = _value(entry, option, table[option][1], text)
    if instance is None:
        _end(entry, "the following arguments are required: " + ("instance" if entry else "command"))
    if extras:
        _end(None, "unrecognized arguments: " + " ".join(extras))
    fields = {option[2:].replace("-", "_"): value for option, value in values.items()}
    return SimpleNamespace(command=entry[0], instance=instance, func=entry[2], **fields)


def main(argv=None):
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.command == "solve" and args.method == "exact":
            lower, incumbent = exc.gap
            found = "" if incumbent is None else f", incumbent {incumbent}"
            print(f"gap: least open lower {lower}{found}", file=sys.stderr)
        return 3
    except (Infeasible, RetriesExhausted, InfeasibleFixedCycle, EmptyPolytrope) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PeritropeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
