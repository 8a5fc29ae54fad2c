"""Benchmark entry point: one workload, one seed, one run.

Usage, from the repository root:

    python3 bench/run.py --workload exact-ladder --seed 0 --seconds 30 --trace 0

The op list comes from the seed alone (see workloads.py).  A pass runs
every op once, in order, in a fresh worker process with a fresh
directory, HOME and TMPDIR, so no state carries from one pass to the
next; ``PERITROPE_THREADS`` is cleared so the package runs sequentially.
``--trace 0`` runs one warm-up worker that only imports (it fills the
bytecode cache), then three untraced passes, each after five set-up
probes that stop before the first op.  ``wall_s`` sums each op's median calibrated time
over the passes.  Calibrated means measured op time scaled by a fixed
kernel's time around the op (worker.py): the host's speed moves in steps
of up to 2x over seconds, the same op repeated in one process varies by
21 % (coefficient of variation) raw and by 10 % calibrated, and per-op
medians drop the passes an op was unlucky in.  ``--trace 1`` adds
one traced pass and reports the per-layer metrics, with the tracing
overhead as traced minus untraced wall time.  Every op's output is
checked (check.py).  Stdout ends with an environment line and the JSON
result.  ``--record`` instead runs one pass and, if every op passes the
other checks, stores its output digests as references for later runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import shutil
import subprocess
import sys
import time

import check
from tracer import layer_metrics, module_shares
from worker import CALIBRATION_S
from workloads import PASSES, WORKLOADS, build_ops

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(BENCH_DIR, "references.json")
SETUP_PROBES = 5  # per pass
RUN_DEADLINE_S = 170
# Counters that depend on the inputs only; they must repeat exactly.
EXACT_SUFFIXES = (".calls", ".patterns", ".trees", ".repeat_ratio", ".hit_ratio",
                  ".minors", ".steps", ".improving_ratio", ".objective_sum")


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _load_json(path, default):
    if not os.path.exists(path):
        return default
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


class Runner:
    def __init__(self, root, run_dir, ops, deadline):
        self.root = root
        self.run_dir = run_dir
        self.ops = ops
        self.deadline = deadline

    def pass_(self, trace=False, setup_only=False):
        """Run one worker; returns its result dict with ``setup_s`` added,
        or None when it crashed or missed the run deadline."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        home = os.path.join(self.run_dir, "home")
        os.makedirs(home)
        env = {k: v for k, v in os.environ.items() if k not in ("PERITROPE_THREADS", "PYTHONPATH")}
        env.update(PYTHONPATH=os.path.join(self.root, "src"), HOME=home, TMPDIR=home, XDG_CACHE_HOME=home)
        job = os.path.join(self.run_dir, "job.json")
        result_path = os.path.join(self.run_dir, "result.json")
        _write_json(job, {"run_dir": self.run_dir, "ops": self.ops, "trace": trace, "setup_only": setup_only})
        with open(os.path.join(self.run_dir, "worker.err"), "w") as err:
            started = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH_DIR, "worker.py"), job, result_path],
                    cwd=self.root, env=env, stdout=err, stderr=err,
                    timeout=max(self.deadline - time.monotonic(), 1),
                )
            except subprocess.TimeoutExpired:
                print("error: worker missed the run deadline", file=sys.stderr)
                return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            print(f"error: worker exited with {proc.returncode}; see {err.name}", file=sys.stderr)
            return None
        result = _load_json(result_path, None)
        result["setup_s"] = result["ready"] - started
        return result

    def check(self, result, references):
        """Failure reasons by op id for one pass."""
        done = {op[0]: op[1] for op in (result or {"ops": []})["ops"]}
        failures = {}
        for op in self.ops:
            paths = {
                kind: os.path.join(self.run_dir, "out", f"{op['op_id']}{suffix}")
                for kind, suffix in (("out", ".json"), ("trace", ".trace.jsonl"))
            }
            status = done.get(op["op_id"], "not run")
            reason = check.check_op(op, status, paths, references)
            if reason is not None:
                failures[op["op_id"]] = reason
        return failures

    def digests(self):
        out = {}
        for op in self.ops:
            base = os.path.join(self.run_dir, "out", op["op_id"])
            parts = [check.read_bytes(base + suffix) or b"" for suffix in (".json", ".trace.jsonl")]
            out[op["input_digest"]] = check.output_digest(*parts)
        return out


def _wall(result):
    """Op time summed over one pass, kernel-calibrated (see _calibrated)."""
    return sum(_calibrated(op) for op in result["ops"])


def _calibrated(op):
    """An op's seconds at the host speed where the calibration kernel takes
    CALIBRATION_S: its measured time over the mean of the kernel times just
    before and just after it."""
    _, _, start, end, before, after = op
    return (end - start) * CALIBRATION_S / ((before + after) / 2)


def _median_wall(results):
    """Sum over ops of each op's median calibrated time across passes."""
    per_op = zip(*([_calibrated(op) for op in r["ops"]] for r in results))
    return sum(statistics.median(times) for times in per_op)


def _objective_sum(runner):
    total = 0
    for op in runner.ops:
        if op["kind"] == "solve" and "--trace" in op["argv"]:
            payload = _load_json(os.path.join(runner.run_dir, "out", op["op_id"] + ".json"), {})
            total += payload.get("objective", 0)
    return total


def _code_digest(root):
    digest = hashlib.sha256()
    for folder in (os.path.join(root, "src", "peritrope"), BENCH_DIR):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def _counters_repeat(root, key, metrics):
    """Compare the input-determined counters with earlier runs of the same
    code and inputs in this checkout; returns the names that changed."""
    ledger_path = os.path.join(root, ".bench_out", "counters.json")
    ledger = _load_json(ledger_path, {})
    counters = {k: v for k, (v, _) in metrics.items() if k.endswith(EXACT_SUFFIXES)}
    earlier = ledger.setdefault(key, counters)
    _write_json(ledger_path, ledger)
    return sorted(k for k in counters if earlier.get(k) != counters[k])


def _record(runner):
    """One pass; store its output digests if every op passed the checks
    that do not need references."""
    failures = runner.check(runner.pass_(), {})
    for op_id, reason in sorted(failures.items()):
        print(f"error: op {op_id}: {reason}", file=sys.stderr)
    if failures:
        return 1
    stored = _load_json(REFERENCES, {"digests": {}})
    stored["digests"].update(runner.digests())
    _write_json(REFERENCES, stored)
    print(f"recorded {len(runner.ops)} ops")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="run one pass and store its output digests")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "peritrope", "cli.py")):
        _fail("run from the repository root: src/peritrope is missing")
    declared = _load_json(os.path.join(root, "BENCHMARK.json"), None)
    if declared is None:
        _fail("BENCHMARK.json is missing")

    workload = WORKLOADS[args.workload]
    ops, units = build_ops(workload, args.seed, args.seconds)
    if not ops:
        _fail(f"no instance fits a {args.seconds} s work target")
    op_dicts = [dict(dataclasses.asdict(op), input_digest=op.input_digest) for op in ops]
    run_dir = os.path.join(root, ".bench_out", f"{args.workload}-{args.seed}")
    runner = Runner(root, run_dir, op_dicts, deadline)
    if args.record:
        return _record(runner)
    references = _load_json(REFERENCES, {}).get("digests", {})

    setups = []
    failures = {}
    passes = []
    if runner.pass_(setup_only=True) is None:  # warms the bytecode cache
        _fail("set-up probe failed")
    for k in range(PASSES):
        # Probes sit between the passes so that they sample the host's
        # speed phases as the passes do.
        for _ in range(SETUP_PROBES):
            result = runner.pass_(setup_only=True)
            if result is None:
                _fail("set-up probe failed")
            setups.append(result["setup_s"])
        result = runner.pass_()
        failures.update({f"{k}/{op}": why for op, why in runner.check(result, references).items()})
        if result is None:
            break
        passes.append(result)
        setups.append(result["setup_s"])
    complete = len(passes) == PASSES
    metrics = {}
    if args.trace == 0:
        if complete:
            metrics = {
                "wall_s": (_median_wall(passes), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
            }
        wanted = declared["end_to_end"]
    else:
        traced = runner.pass_(trace=True) if complete else None
        failures.update({f"trace/{op}": why for op, why in runner.check(traced, references).items()})
        if traced is not None:
            spans = _load_json(os.path.join(run_dir, "spans.json"), {"spans": []})["spans"]
            metrics, self_s = layer_metrics(spans)
            raw_wall = sum(op[3] - op[2] for op in traced["ops"])
            metrics.update(module_shares(self_s, raw_wall))
            metrics["search.tns.objective_sum"] = (_objective_sum(runner), "cost")
            metrics["trace.wall_s"] = (_wall(traced), "s")
            metrics["trace.overhead_s"] = (_wall(traced) - _median_wall(passes), "s")
            key = f"{_code_digest(root)}/{args.workload}/{args.seed}/{args.seconds}"
            changed = _counters_repeat(root, key, metrics)
            if changed:
                print(f"error: counters differ from an earlier run: {changed}", file=sys.stderr)
                failures["counters"] = "input-determined counters changed between runs"
        wanted = declared["per_layer"]
    attempted = len(ops) * (PASSES + args.trace)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "seed": args.seed,
           "workload": args.workload, "ops": len(ops), "passes": PASSES + args.trace,
           "units": units}

    for op_id, reason in sorted(failures.items()):
        print(f"error: op {op_id}: {reason}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if metrics and (missing or len(metrics) != len(wanted)):
        _fail(f"metrics do not match BENCHMARK.json: missing {missing}, got {sorted(metrics)}")
    _write_json(
        os.path.join(root, ".bench_out", f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
        {"env": env, "failures": failures, "metrics": {k: v for k, (v, _) in metrics.items()}},
    )
    print(json.dumps(env))
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
