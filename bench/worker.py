"""One fresh interpreter per pass: set up, run every op once, report.

Usage: python3 bench/worker.py JOB.json RESULT.json

The job names the run directory, the ops and whether to trace.  The
worker writes the instance files, imports the CLI, then calls
``peritrope.cli.main(argv)`` for each op in turn (a closed loop: one
client, one op at a time).  With ``setup_only`` it stops before the
first op, which is how the set-up time is sampled several times.

Between ops the worker times a fixed calibration kernel: the benchmark's
own Bellman-Ford lattice point count on one fixed instance.  The host's
speed moves in steps of up to 2x within seconds, and an op's time over
the kernel times around it cancels most of that (see run.py).
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import sys
import time

OP_TIMEOUT_S = 60


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


CALIBRATION_S = 0.007  # the kernel's time at the reference host speed


def calibration_kernel():
    """About 7 ms of integer graph work on this host; never changes."""
    import gen

    rng = random.Random("calibration/8/12/2")
    arcs = gen.random_arcs(rng, 8, 12)
    bounds = gen.random_bounds(rng, 12)

    def kernel():
        start = time.perf_counter()
        gen.lattice_point_count(8, arcs, bounds)
        return time.perf_counter() - start

    return kernel


def main(job_path, result_path):
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    run_dir = job["run_dir"]
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from peritrope import cli

    for sub in ("inst", "out"):
        os.makedirs(os.path.join(run_dir, sub), exist_ok=True)
    paths = {}
    for op in job["ops"]:
        paths[op["op_id"]] = {
            "inst": os.path.join(run_dir, "inst", op["op_id"] + ".pesp"),
            "out": os.path.join(run_dir, "out", op["op_id"] + ".json"),
            "trace": os.path.join(run_dir, "out", op["op_id"] + ".trace.jsonl"),
        }
        with open(paths[op["op_id"]]["inst"], "w", encoding="utf-8") as handle:
            handle.write(op["text"])
        for stale in ("out", "trace"):
            if os.path.exists(paths[op["op_id"]][stale]):
                os.remove(paths[op["op_id"]][stale])
    result = {"ready": time.perf_counter(), "ops": []}
    if not job["setup_only"]:
        signal.signal(signal.SIGALRM, _on_alarm)
        kernel = calibration_kernel()
        kernel()  # warm
        calibration = kernel()
        for op in job["ops"]:
            argv = [part.format(**paths[op["op_id"]]) for part in op["argv"]]
            if tracer is not None:
                tracer.begin_op(op["op_id"])
            start = time.perf_counter()
            signal.alarm(OP_TIMEOUT_S)
            try:
                status = cli.main(argv)
            except OpTimeout:
                status = "timeout"
            except Exception as exc:  # an escaped error is a failed op, not a dead run
                status = f"{type(exc).__name__}: {exc}"
            finally:
                signal.alarm(0)
            end = time.perf_counter()
            before, calibration = calibration, kernel()
            result["ops"].append([op["op_id"], status, start, end, before, calibration])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.dump(os.path.join(run_dir, "spans.json"))
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
