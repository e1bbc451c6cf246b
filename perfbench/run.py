"""qbpm benchmark: closed-loop workloads timed from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paraxial-1d --seed 1 --seconds 20 --trace 0

One client and one process at a time.  This process only orchestrates: it
starts each measurement in a fresh worker process (this same script with
``--role``) with every BLAS/OpenMP pool set to one thread.

``--trace 0``: four set-up-only workers and then the measuring worker each
report when their first timed op could start; ``setup_s`` is the median of
the five.  The measuring worker runs ops back to back for ``--seconds``
(and at least ``MIN_OPS`` ops) and the end-to-end metrics come from those
ops; ``op_tail_s`` is their nearest-rank p90.

``--trace 1``: one worker runs half the time untraced and half with every
qbpm entry point wrapped in spans (see ``tracing.py``); per-layer metrics
are per-op medians of the traced half, ``trace.overhead_s`` the difference
of the two halves' median op.

The last line of stdout is the JSON result; the lines before it are a
human-readable table and the machine description.  ``--smoke`` shrinks
every workload to n <= 8 and a few hundred shots for the smoke test.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = Path(__file__).resolve()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 5
TAIL_PERCENTILE = 90
MIN_OPS = 10  # the smallest run in which one op lies beyond the p90
MIN_TRACE_OPS = 3
DEADLINE_S = 170.0
OP_SELF_LIMIT = 0.10  # share of an op no layer span may leave unattributed
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- worker ----------------------------------------------------------------


def _import_checkout_qbpm():
    """Import qbpm from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qbpm

    if not Path(qbpm.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"qbpm imported from {qbpm.__file__}, not from {src}")


def _run_op(workload, index: int, tracer):
    if tracer is None:
        return workload.op(index)
    tracer.op_id = index
    try:
        with tracer.span("op"):
            return workload.op(index)
    finally:
        tracer.op_id = None


def _loop(workload, first_index: int, seconds: float, min_ops: int, tracer=None) -> dict:
    """Run ops back to back; the check of each op runs after its timer stops."""
    durations, failed = [], 0
    index = first_index
    start = perf_counter()
    while perf_counter() - start < seconds or len(durations) < min_ops:
        t0 = perf_counter()
        try:
            try:
                result = _run_op(workload, index, tracer)
            finally:
                durations.append(perf_counter() - t0)
            counts = workload.check(index, result)
        except Exception:  # a failed op is counted and reported; the loop goes on
            if failed == 0:
                traceback.print_exc(file=sys.stderr)
            failed += 1
        else:
            if tracer is not None:
                for name, value in counts.items():
                    tracer.count(name, value, op_id=index)
        index += 1
    return {"durations": durations, "failed": failed, "next_index": index}


def worker(args) -> int:
    _import_checkout_qbpm()
    import machine
    import tracing
    import workloads

    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, scratch, smoke=args.smoke)
        workload.check(0, workload.op(0))  # warm-up op, untimed
        print("READY", flush=True)
        if args.role == "setup":
            return 0
        if args.trace:
            half = args.seconds / 2.0
            untraced = _loop(workload, 1, half, MIN_TRACE_OPS)
            tracer = tracing.Tracer()
            workload.span = tracer.span
            with tracing.instrumented(tracer):
                traced = _loop(workload, untraced["next_index"], half, MIN_TRACE_OPS, tracer)
            layers = tracing.layer_metrics(tracer)
            layers["trace.overhead_s"] = layers["op_s"] - statistics.median(untraced["durations"])
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"trace_{args.workload}_seed{args.seed}.json")
            loops = [untraced, traced]
        else:
            layers = None
            loops = [_loop(workload, 1, args.seconds, MIN_OPS)]
        report = {
            "durations": loops[-1]["durations"],
            "attempted": sum(len(loop["durations"]) for loop in loops),
            "failed": sum(loop["failed"] for loop in loops),
            "layers": layers,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "machine": machine.describe(16 << workload.n_qubits),
        }
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# -- orchestrator ------------------------------------------------------------


def _spawn(args, role: str, deadline: float) -> tuple[float, str]:
    """Start a worker; returns (seconds until it was ready, rest of its stdout)."""
    argv = [
        sys.executable, str(SCRIPT), "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        argv.append("--smoke")
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready_line = proc.stdout.readline()
        ready = perf_counter() - start
        rest, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready_line.strip() != "READY":
        raise RuntimeError(f"{role} worker for {args.workload} exited with {proc.returncode}")
    return ready, rest


def _tail(durations: list[float]) -> tuple[float, int]:
    """Nearest-rank ``TAIL_PERCENTILE`` of the op times: (value, ops beyond it)."""
    ordered = sorted(durations)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def orchestrate(args) -> int:
    if not (ROOT / "src" / "qbpm" / "__init__.py").is_file():
        print(f"error: no qbpm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(_spawn(args, "setup", deadline)[0])
    ready, output = _spawn(args, "measure", deadline)
    setup_samples.append(ready)
    report = json.loads(output.strip().splitlines()[-1])

    durations = report["durations"]
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    lines.append("machine " + json.dumps(report["machine"], sort_keys=True))
    if args.trace:
        layers = report["layers"]
        metrics = {m["name"]: _metric(layers[m["name"]], m["unit"]) for m in SPEC["per_layer"]}
        self_frac = layers["trace.op_self_frac"]
        if not self_frac < OP_SELF_LIMIT:
            correct = False
            lines.append(f"FAIL: op self time is {self_frac:.1%} of the op, limit {OP_SELF_LIMIT:.0%}")
    else:
        tail, beyond = _tail(durations)
        completed = len(durations) - failed
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_p50_s": statistics.median(durations),
            "op_tail_s": tail,
            "ops_per_s": completed / sum(durations),
            "peak_rss_mb": report["peak_rss_mb"],
            "pass_frac": completed / attempted,
        }
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}
        lines.append(f"setup samples {[round(s, 4) for s in setup_samples]}")
        lines.append(
            f"op_tail_s is p{TAIL_PERCENTILE} of {len(durations)} ops, {beyond} beyond it"
        )
        lines.append(f"fail_frac {failed / attempted} ({failed} of {attempted} ops)")
    for name, metric in metrics.items():
        lines.append(f"  {name:<28} {metric['value']:<14.6g} {metric['unit']}")
    print("\n".join(lines))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role:
        return worker(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
