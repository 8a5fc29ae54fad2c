"""Periodic scheduling instances: data model, text format, derived instances.

The native text format is line oriented UTF-8:

    # comment
    PERIOD 10
    EVENT v0            (optional; inferred from arcs otherwise)
    ARC v0 v1 3 12 1    (tail head lower upper weight)

All data is integer.  Bounds must satisfy 0 <= lower < T and
0 <= upper - lower < T; weights are nonnegative.
"""

from collections import namedtuple

from .errors import DisconnectedGraph, InfeasibleFixedCycle, InvalidBounds
from .graphs import Digraph, integers, tree_potentials


class PespInstance(namedtuple("PespInstance", "graph period lower upper weight")):
    __slots__ = ()

    def __new__(cls, graph, period, lower, upper, weight):
        (period,) = integers((period,))
        lower, upper, weight = map(integers, (lower, upper, weight))
        if not (len(lower) == len(upper) == len(weight) == graph.m):
            raise ValueError("bound/weight vectors must match the arc count")
        return tuple.__new__(cls, (graph, period, lower, upper, weight))

    @property
    def span(self):
        return tuple(u - l for l, u in zip(self.lower, self.upper))


class ParseError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_instance(text):
    """Parse the native format.  Accepts str or bytes."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    period = None
    events = []
    seen_events = set()
    arcs = []
    bounds = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0].upper()
        if kind == "PERIOD":
            if period is not None:
                raise ParseError(line_no, "duplicate PERIOD")
            if len(fields) != 2:
                raise ParseError(line_no, "PERIOD takes one integer")
            period = _int_field(fields[1], line_no)
            if period <= 0:
                raise ParseError(line_no, "period must be positive")
        elif kind == "EVENT":
            if len(fields) != 2:
                raise ParseError(line_no, "EVENT takes one id")
            if fields[1] in seen_events:
                raise ParseError(line_no, f"duplicate event {fields[1]}")
            seen_events.add(fields[1])
            events.append(fields[1])
        elif kind == "ARC":
            if len(fields) != 6:
                raise ParseError(line_no, "ARC takes tail head lower upper weight")
            tail, head = fields[1], fields[2]
            if tail == head:
                raise ParseError(line_no, f"arc {len(arcs)} is a self-loop at {tail}")
            lo, hi, w = (_int_field(x, line_no) for x in fields[3:6])
            arcs.append((tail, head))
            bounds.append((lo, hi, w))
            for v in (tail, head):
                if v not in seen_events:
                    seen_events.add(v)
                    events.append(v)
        else:
            raise ParseError(line_no, f"unknown directive {fields[0]}")
    if period is None:
        raise ParseError(0, "missing PERIOD")
    graph = Digraph(events, arcs)
    if not graph.is_connected():
        raise DisconnectedGraph("instance graph is not connected")
    inst = PespInstance(graph, period, *(zip(*bounds) if bounds else ((), (), ())))
    for arc, message in validate(inst).arc_violations:
        raise InvalidBounds(arc, message)
    return inst


def _int_field(s, line_no):
    try:
        return int(s)
    except ValueError:
        raise ParseError(line_no, f"not an integer: {s}") from None


def serialize_instance(inst):
    """Canonical text form; parse(serialize(inst)) reproduces inst exactly."""
    lines = [f"PERIOD {inst.period}"]
    for v in inst.graph.vertices:
        lines.append(f"EVENT {v}")
    for (t, h), lo, hi, w in zip(inst.graph.arcs, inst.lower, inst.upper, inst.weight):
        lines.append(f"ARC {t} {h} {lo} {hi} {w}")
    return "\n".join(lines) + "\n"


class ValidationReport(namedtuple("ValidationReport", "messages arc_violations")):
    __slots__ = ()

    def __new__(cls, messages=None, arc_violations=None):
        """A report with lists of its own, unless it is given some."""
        return tuple.__new__(cls, ([] if v is None else v for v in (messages, arc_violations)))

    @property
    def ok(self):
        return not self.messages and not self.arc_violations

    def all_messages(self):
        return self.messages + [f"arc {a}: {m}" for a, m in self.arc_violations]


def validate(inst):
    """Collect every violated invariant; an empty report means admissible."""
    report = ValidationReport()
    if inst.period <= 0:
        report.messages.append(f"period {inst.period} is not positive")
    if not inst.graph.is_connected():
        report.messages.append("graph is not connected")
    T = inst.period
    for a in range(inst.graph.m):
        lo, hi, w = inst.lower[a], inst.upper[a], inst.weight[a]
        if not 0 <= lo < T:
            report.arc_violations.append((a, f"lower bound {lo} outside [0, {T})"))
        if hi < lo:
            report.arc_violations.append((a, f"upper bound {hi} below lower {lo}"))
        elif hi - lo >= T:
            report.arc_violations.append((a, f"span {hi - lo} not < {T}"))
        if w < 0:
            report.arc_violations.append((a, f"negative weight {w}"))
    return report


class ContractionResult(
    namedtuple("ContractionResult", "instance vertex_map objective_offset arc_map")
):
    """The contracted instance; ``vertex_map`` sends each vertex to its
    representative and ``arc_map[a]`` each arc a of the original to its
    index in the contracted instance, None for the arcs contracted away
    (fixed arcs and arcs whose ends are merged)."""

    __slots__ = ()


def contract_fixed_arcs(inst):
    """Contract every arc with lower == upper.

    Endpoints of fixed arcs are merged; surviving arcs keep their span with
    bounds shifted back into [0, T) and the constant cost they drop is
    accumulated in ``objective_offset``.  A non-fixed arc whose endpoints end
    up merged has a single admissible tension residue; if that residue misses
    its window (or a fixed cycle is inconsistent) the instance is infeasible.
    """
    g = inst.graph
    T = inst.period
    pairs = g.arc_index_pairs
    fixed = [a for a in range(g.m) if inst.lower[a] == inst.upper[a]]

    # The ascending sweep reaches each fixed component first at its smallest
    # vertex, which becomes the representative; delta is the offset of each
    # vertex inside its component, propagated along fixed arcs from there.
    rep = [None] * g.n
    delta = [None] * g.n
    for v in range(g.n):
        if rep[v] is None:
            for w, d in enumerate(tree_potentials(g, fixed, inst.lower, v)):
                if d is not None:
                    rep[w], delta[w] = v, d
    for a in fixed:
        i, j = pairs[a]
        if (delta[j] - delta[i] - inst.lower[a]) % T != 0:
            raise InfeasibleFixedCycle(
                f"fixed arcs force an inconsistent cycle through arc {a}"
            )

    reps = sorted(set(rep))
    rep_name = {r: g.vertices[r] for r in reps}
    vertex_map = {g.vertices[v]: rep_name[rep[v]] for v in range(g.n)}

    offset = sum(inst.weight[a] * inst.lower[a] for a in fixed)
    new_arcs = []
    new_bounds = []
    arc_map = [None] * g.m
    span = inst.span
    for a in range(g.m):
        if inst.lower[a] == inst.upper[a]:
            continue
        i, j = pairs[a]
        ri, rj = rep[i], rep[j]
        shift = delta[i] - delta[j]
        lo_raw = inst.lower[a] + shift
        lo = lo_raw % T
        drop = lo_raw - lo  # multiple of T absorbed into the new bounds
        if ri == rj:
            # Arc collapses to a loop: its tension is forced to the unique
            # residue of -shift inside [lower, lower + T).
            x = inst.lower[a] + ((-shift - inst.lower[a]) % T)
            if x > inst.upper[a]:
                raise InfeasibleFixedCycle(
                    f"arc {a} collapses to a loop with no admissible tension"
                )
            offset += inst.weight[a] * x
            continue
        arc_map[a] = len(new_arcs)
        new_arcs.append((rep_name[ri], rep_name[rj]))
        new_bounds.append((lo, lo + span[a], inst.weight[a]))
        # Old tension = new tension + drop - shift on this arc.
        offset += inst.weight[a] * (drop - shift)

    new_vertices = tuple(rep_name[r] for r in reps)
    new_graph = Digraph(new_vertices, tuple(new_arcs))
    new_inst = PespInstance(new_graph, T, *(zip(*new_bounds) if new_bounds else ((), (), ())))
    return ContractionResult(new_inst, vertex_map, offset, tuple(arc_map))

