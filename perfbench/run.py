"""multigb benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload ugb --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one by one

Run from the repository root; ``multigb`` is imported from ``src`` (it need
not be installed).  Every pass runs in a fresh worker process
(``worker.py``) pinned to one CPU, one at a time, so at most one core is
busy and the library's caches start cold on every pass.

With ``--trace 0`` passes repeat until ``--seconds`` is spent, and the
end-to-end metrics (BENCHMARK.json ``end_to_end``) are medians over them;
set-up is sampled at least ``SETUP_SAMPLES`` times.  Times are reported at
reference speed: each worker divides what it measured by the slowdown a
speed probe saw over the same interval (``probe.py``), because co-tenant
load on a shared host changes the speed of identical work by up to 2x for
seconds at a time.  The measured times are printed beside them.  With
``--trace 1`` untraced and traced passes alternate; the per-layer metrics
(``per_layer``) come from the traced passes (times again at reference
speed), their counts must repeat exactly, and ``trace.overhead_s`` is the
traced minus the untraced wall time.

Every pass is checked: no exception, every operation passes (an order for
``ugb``, a ``closure_suite`` call for ``closure``, a theorem item for
``main_theorem``), every pass of the run yields the same output digest, and
that digest equals the one in ``reference.json`` when the file has one for
this workload and seed.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when the run is
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
# The metric tables (names, units, order) are BENCHMARK.json's.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# Layer counts and fractions of counts must repeat exactly between passes.
EXACT_UNITS = ("count", "frac")

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0


class WorkerError(Exception):
    pass


def spawn(workload: str, seed: int, trace: int, setup_only: bool = False,
          timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run one worker process to completion and return its report."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise WorkerError(f"worker printed no report: {proc.stdout[-500:]}")
    report["elapsed_s"] = time.perf_counter() - started
    return report


def load_reference(path: Path = REFERENCE) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Run:
    """The passes of one run and the checks on them."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.expected = reference.get(workload, {}).get(str(seed))
        self.passes: list = []
        self.problems: list = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict = {}

    def add(self, report: dict) -> dict:
        """Check one full pass and fold it into the totals."""
        self.passes.append(report)
        if "crash" in report:
            self.problems.append(f"pass crashed:\n{report['crash']}")
            self.attempted += 1
            self.failed += 1
            return report
        attempted, failed = report["attempted"], report["failed"]
        self.problems.extend(report["errors"])
        first = self.passes[0].get("digest")
        if report["digest"] != first:
            self.problems.append("output digest differs between passes")
            failed = attempted
        elif self.expected is not None and report["digest"] != self.expected:
            self.problems.append(
                f"output digest {report['digest'][:16]} does not match the "
                f"reference {self.expected[:16]} for seed {self.seed}")
            failed = attempted
        self.attempted += attempted
        self.failed += failed
        return report

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0


def measure(run: Run, seconds: float, deadline: float) -> dict:
    """Untraced passes until ``seconds`` are spent; end-to-end metrics."""
    started = time.perf_counter()
    setups = []
    while True:
        report = run.add(spawn(run.workload, run.seed, 0,
                               timeout=deadline - time.perf_counter()))
        setups.append(report)
        if "crash" in report:
            break
        typical = statistics.median(p["elapsed_s"] for p in run.passes)
        if time.perf_counter() - started + typical > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(run.workload, run.seed, 0, setup_only=True,
                            timeout=deadline - time.perf_counter()))
    done = [p for p in run.passes if "crash" not in p]
    if not done:
        return {}
    calls = [ms for p in done for ms in p["call_ms"]]
    run.samples = {
        "passes": len(done), "calls": len(calls), "setups": len(setups),
        "speed": statistics.median(p["speed"] for p in done),
        "wall_raw_s": statistics.median(p["wall_raw_s"] for p in done),
        "setup_raw_s": statistics.median(p["setup_raw_s"] for p in setups)}
    return {
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "wall_s": statistics.median(p["wall_s"] for p in done),
        "cpu_s": statistics.median(p["cpu_s"] for p in done),
        "call_p50_ms": statistics.median(calls),
        "call_p90_ms": p90(calls),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
    }


def measure_traced(run: Run, seconds: float, deadline: float) -> dict:
    """Alternate untraced and traced passes; per-layer metrics."""
    started = time.perf_counter()
    plain, traced = [], []
    while True:
        for trace, into in ((0, plain), (1, traced)):
            into.append(run.add(spawn(run.workload, run.seed, trace,
                                      timeout=deadline - time.perf_counter())))
        if any("crash" in p for p in plain + traced):
            return {}
        pair = plain[-1]["elapsed_s"] + traced[-1]["elapsed_s"]
        if time.perf_counter() - started + pair > seconds:
            break
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {}
    for name in traced[0]["layers"]:
        # Layer times, like wall_s, are given at reference speed.
        series = [p["layers"][name] / p["speed"] if units[name] == "s"
                  else p["layers"][name] for p in traced]
        if units[name] in EXACT_UNITS and len(set(series)) != 1:
            run.problems.append(f"{name} differs between traced passes: "
                                f"{series}")
        values[name] = statistics.median(series)
    values["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain))
    run.samples = {"passes": len(traced),
                   "spans": traced[0]["spans"]["count"],
                   "span_files": [p["spans"]["file"] for p in traced]}
    return values


def report_lines(run: Run, metrics: dict, trace: int) -> list:
    lines = [f"workload {run.workload}  seed {run.seed}  trace {trace}  "
             f"samples {run.samples}"]
    width = max((len(n) for n in metrics), default=0)
    for name, m in metrics.items():
        lines.append(f"  {name.ljust(width)}  {m['value']:.6g} {m['unit']}")
    frac = run.failed / run.attempted if run.attempted else 1.0
    lines.append(f"  failed_frac {frac:.6g} ({run.failed}/{run.attempted})")
    digests = {p.get("digest") for p in run.passes}
    ref = ("no reference for this seed" if run.expected is None else
           "matches reference" if digests == {run.expected} else
           "DOES NOT match reference")
    lines.append(f"  digest {','.join(sorted(str(d)[:16] for d in digests))}"
                 f" ({ref})")
    for problem in run.problems:
        lines.append(f"  problem: {problem}")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: int,
            reference: dict) -> dict:
    run = Run(workload, seed, reference)
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    try:
        values = (measure_traced if trace else measure)(run, seconds,
                                                         deadline)
    except WorkerError as e:
        run.problems.append(str(e))
        values = {}
    table = SPEC["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in table if values}
    for line in report_lines(run, metrics, trace):
        print(line)
    kernels = {p.get("kernel") for p in run.passes}
    print(f"  meta kernel={','.join(sorted(map(str, kernels)))} "
          f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"git={git_sha()}")
    return {"correct": run.correct and bool(metrics),
            "attempted": max(run.attempted, 1),
            "failed": run.failed if run.attempted else 1,
            "metrics": metrics}


def main(argv=None, reference_path: Path = REFERENCE) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multigb" / "__init__.py").is_file():
        print(f"error: no multigb sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    reference = load_reference(reference_path)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args.seed, args.seconds, args.trace,
                             reference)
               for name in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
