"""Output checks for one op, with the benchmark's own code only.

An op passes when its exit code is the expected one, its output bytes
(and trace bytes) match the digest recorded for the same input at the
reference commit, when there is one, and the payload survives an
independent re-verification: for ``solve``, bounds, tension =
pi_head - pi_tail + T p, cycle offset and objective recomputed from the
instance text; for ``analyze``, the counts the generator knows and the
report's own certificates.  ``verify_solution`` is deliberately not used.
"""

from __future__ import annotations

import hashlib
import json
import os


def output_digest(out_bytes, trace_bytes):
    return hashlib.sha256(out_bytes + b"\0" + trace_bytes).hexdigest()[:16]


def read_bytes(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return handle.read()


def _parse_text(text):
    period, events, arcs = None, [], []
    for line in text.splitlines():
        fields = line.split()
        if fields[0] == "PERIOD":
            period = int(fields[1])
        elif fields[0] == "EVENT":
            events.append(fields[1])
        else:
            arcs.append((fields[1], fields[2], *map(int, fields[3:6])))
    return period, events, arcs


def _check_solution(text, payload):
    period, events, arcs = _parse_text(text)
    if payload["period"] != period or sorted(payload["timetable"]) != sorted(events):
        return "period or events differ from the instance"
    pi = payload["timetable"]
    if not all(0 <= pi[v] < period for v in events):
        return "timetable outside [0, T)"
    tension = [payload["tension"][str(a)] for a in range(len(arcs))]
    offset = [payload["periodic_offset"][str(a)] for a in range(len(arcs))]
    for a, (tail, head, lower, upper, _) in enumerate(arcs):
        if not lower <= tension[a] <= upper:
            return f"arc {a}: tension outside its bounds"
        if tension[a] != pi[head] - pi[tail] + period * offset[a]:
            return f"arc {a}: tension is not pi_head - pi_tail + T p"
    cycle_offset = [sum(c * p for c, p in zip(row, offset)) for row in payload["basis"]]
    if cycle_offset != payload["cycle_offset"]:
        return "cycle offset does not match the periodic offsets"
    if payload["objective"] != sum(arc[4] * x for arc, x in zip(arcs, tension)):
        return "objective does not match the tensions"
    return None


def _check_trace(trace_bytes, payload):
    entries = [json.loads(line) for line in trace_bytes.decode().splitlines()]
    if not entries or entries[0]["move"] != "start":
        return "trace does not open with the start entry"
    objectives = [e["objective"] for e in entries]
    if any(b >= a for a, b in zip(objectives, objectives[1:])):
        return "trace objectives do not strictly decrease"
    if objectives[-1] != payload["objective"] or entries[-1]["z"] != payload["cycle_offset"]:
        return "trace does not end at the reported solution"
    return None


def _check_analyze(facts, payload):
    if payload["mu"] != facts["m"] - facts["n"] + 1:
        return "mu differs from the generated graph"
    if payload["num_spanning_trees"] != facts["trees"]:
        return "spanning tree count differs from the matrix-tree count"
    if len(payload.get("lattice_points", ())) != facts["points"]:
        return "lattice point count differs from the benchmark's own count"
    if payload.get("contracted", False) != facts.get("contracted", False):
        return "fixed-arc contraction flag is wrong"
    if payload["validation"]["tile_count"] != facts["trees"]:
        return "tiling does not have one tile per spanning tree"
    if not (payload["validation"]["ok"] and payload["duality"]["ok"] and payload["bound_chain"]["holds"]):
        return "a certificate in the report failed"
    return None


def check_op(op, status, paths, references):
    """None when the op is correct, else a one-line reason."""
    if status != op["expected_exit"]:
        return f"exit status {status!r}, expected {op['expected_exit']}"
    out_bytes = read_bytes(paths["out"])
    trace_bytes = read_bytes(paths["trace"]) or b""
    if op["expected_exit"] != 0:
        return "output written for a failing op" if out_bytes is not None else None
    if out_bytes is None:
        return "no output written"
    expected = references.get(op["input_digest"])
    if expected is not None and expected != output_digest(out_bytes, trace_bytes):
        return "output bytes differ from the reference"
    try:
        payload = json.loads(out_bytes)
        if op["kind"] == "analyze":
            return _check_analyze(op["facts"], payload)
        problem = _check_solution(op["text"], payload)
        if problem is None and "--trace" in op["argv"]:
            problem = _check_trace(trace_bytes, payload)
        return problem
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
