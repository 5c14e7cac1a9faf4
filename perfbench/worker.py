"""One pass of one workload in a fresh process: set up, run, report.

Started by ``run.py``; prints one JSON object as its last line.  A fresh
process per pass means ``Ideal._gb_cache`` and the kernel's ``order_key``
cache start cold, as they do for a command-line user.  The worker pins
itself to one CPU and runs the speed probe (``probe.py``) beside the work;
times are reported both as measured (``*_raw_s``) and at reference speed.

    python3 perfbench/worker.py --workload ugb --seed 0 --trace 0 \
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from probe import SpeedProbe

SRC = Path(__file__).resolve().parent.parent / "src"
SPANS = Path(__file__).resolve().parent / "spans"
CALL_MARGIN_S = 0.5


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "multigb" / "__init__.py").is_file():
        print(f"error: no multigb package under {SRC}", file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()
    try:
        result, windows = _pass(args, started)
    finally:
        probe.stop()
    for key, window in windows.items():
        result[f"{key}_s"] = result[f"{key}_raw_s"] / probe.speed_factor(*window)
    if "wall" in windows:
        result["speed"] = probe.speed_factor(*windows["wall"])
    # A call is normalized by the speed around it: spells of co-tenant load
    # last seconds, and a 20 ms call holds one probe loop at most.
    result["call_ms"] = [
        (t1 - t0) * 1000 / probe.speed_factor(t0 - CALL_MARGIN_S,
                                               t1 + CALL_MARGIN_S)
        for t0, t1 in result.pop("calls", [])]
    print(json.dumps(result))
    return 0


def _pass(args, started: float) -> tuple:
    """Set up and run; (report with raw times, time window of each)."""
    sys.path.insert(0, str(SRC))
    import multigb
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])

    inputs = setup(args.seed)
    result = {"kernel": multigb.KERNEL_IMPLEMENTATION,
              "setup_raw_s": time.monotonic() - args.spawned_at}
    windows = {"setup": (started, time.perf_counter())}
    if args.setup_only:
        return result, windows

    timed_from = len(tracer) if tracer else 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        outcome = run(inputs)
    except Exception:  # the pass fails as a whole; report why
        result["crash"] = traceback.format_exc()
        return result, windows
    wall1, cpu1 = time.perf_counter(), time.process_time()
    windows["wall"] = windows["cpu"] = (wall0, wall1)
    result.update(
        wall_raw_s=wall1 - wall0,
        cpu_raw_s=cpu1 - cpu0,
        calls=outcome.calls,
        attempted=outcome.attempted,
        failed=outcome.failed,
        errors=outcome.errors,
        digest=workloads.digest(outcome.output),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.uninstall()
        SPANS.mkdir(exist_ok=True)
        path = SPANS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}.tsv.gz"
        tracer.dump(path)
        result["spans"] = {"count": len(tracer), "file": str(path)}
        result["layers"] = tracing.layer_metrics(tracer, timed_from)
    return result, windows


if __name__ == "__main__":
    sys.exit(main())
