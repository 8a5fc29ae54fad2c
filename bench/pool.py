"""Record the work units of each candidate of a pooled workload.

Usage, from the repository root:

    PYTHONPATH=src python3 bench/pool.py tns-restarts 3000
    PYTHONPATH=src python3 bench/pool.py zonotope-analyze 15000

Some work has no cheap model.  At a fixed number of feasible offsets L,
the number of polytropes a tns search optimizes varies by 25 % from
instance to instance, and the analyze model is off by 15 % per op.  So
these workloads draw from a fixed pool of candidates whose units were
recorded once through the CLI (only eligible candidates are stored): for tns, ``minimize_over_polytrope``
calls (counted with the tracer) x trees x 2^(n-1); for analyze, the
median of three calibrated op times in microseconds.  A pool file is
part of the benchmark definition; re-recording it changes the op lists.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time

import gen
from tracer import Tracer
from worker import CALIBRATION_S, calibration_kernel
from workloads import WORKLOADS, pool_candidate


def _tns_units(cli, tracer, argv, facts):
    tracer.spans.clear()
    tracer.begin_op("pool")
    if cli.main(argv) != 0:
        return None
    calls = sum(span[3] == "fixedlp.minimize_over_polytrope" for span in tracer.spans)
    return calls * facts["trees"] * 2 ** (facts["n"] - 1)


def _timed_units(cli, kernel, argv):
    times = []
    for _ in range(3):
        before = kernel()
        start = time.perf_counter()
        if cli.main(argv) != 0:
            return None
        elapsed = time.perf_counter() - start
        times.append(elapsed * CALIBRATION_S / ((before + kernel()) / 2))
    return round(statistics.median(times) * 1e6)


def record(workload, size):
    tracer = None
    if workload.name == "tns-restarts":
        tracer = Tracer()
        tracer.install()
    from peritrope import cli

    kernel = calibration_kernel()
    units = {}
    with tempfile.TemporaryDirectory(dir=".") as scratch:
        paths = {kind: os.path.join(scratch, kind) for kind in ("inst", "out", "trace")}
        for k in range(size):
            candidate = pool_candidate(workload, k)
            if candidate is None:
                continue
            arcs, bounds, argv, facts = candidate
            with open(paths["inst"], "w", encoding="utf-8") as handle:
                handle.write(gen.instance_text(facts["n"], arcs, bounds))
            argv = [part.format(**paths) for part in argv]
            if tracer is not None:
                value = _tns_units(cli, tracer, argv, facts)
            else:
                value = _timed_units(cli, kernel, argv)
            if value is None:
                raise SystemExit(f"pool candidate {k} failed")
            units[k] = value
    return units


def main(name, size):
    workload = WORKLOADS[name]
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), workload.pool)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "units": record(workload, size)}, handle)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
