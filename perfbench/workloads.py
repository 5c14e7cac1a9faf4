"""The benchmark workloads: inputs made from a seed, the timed section, and
the checks on its output.

Each workload has a ``setup(seed)`` that builds every input from the seed
(the program receives only these inputs) and a ``run(inputs)`` that performs
the timed work and returns a ``Pass``.  The library is reached through its
modules (``csideals.ugb_check``, ``cli.main``, ...), never through names
bound here, so a traced pass sees every call.

Why each workload exists:

* ``ugb``: one ideal recomputed under 202 orders.  Normal forms dominate;
  no gin, colon or minimal generators run.
* ``closure``: 60 ``closure_suite`` calls on many small ideals.  The
  Buchberger pair loop, the gin coordinate change and the colon/intersect
  route through extended rings dominate.
* ``main_theorem``: the user-facing CLI path, two batch scripts running
  ``main-theorem``.  The only workload that reaches the script parser, the
  CLI, ``minors``, ``minimal_generators`` and ``degree_bound_check``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field

from multigb import cli, csideals, determinantal, instances
from multigb.groebner import Ideal
from multigb.poly import Polynomial


@dataclass
class Pass:
    """Outcome of one timed section."""
    attempted: int
    failed: int
    output: object
    calls: list = field(default_factory=list)  # (start, end) per call
    errors: list = field(default_factory=list)


def digest(output) -> str:
    """SHA-256 of the canonical JSON form of a workload's output."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# -- ugb -------------------------------------------------------------------------

UGB_ORDERS = 200
UGB_EXPECTED_ORDERS = UGB_ORDERS + 2  # degrevlex and lex come first


def setup_ugb(seed: int) -> dict:
    B = determinantal.build_column_graded(3, (3, 3, 3, 3, 3), seed=7 + seed)
    candidates = determinantal.minors(B, 3)
    return {"candidates": candidates, "ideal": Ideal(B.ring, candidates),
            "order_seed": seed}


def run_ugb(inputs: dict) -> Pass:
    started = time.perf_counter()
    report = csideals.ugb_check(inputs["candidates"], inputs["ideal"],
                                n_orders=UGB_ORDERS, seed=inputs["order_seed"],
                                include_permutations=False)
    call = (started, time.perf_counter())
    failing = {f["order"] for f in report.failures}
    errors = []
    if report.orders_tested != UGB_EXPECTED_ORDERS:
        errors.append(f"ugb_check tested {report.orders_tested} orders, "
                      f"expected {UGB_EXPECTED_ORDERS}")
    if failing:
        errors.append(f"{len(failing)} orders failed the universal-basis check")
    output = {"orders": report.order_names, "records": report.records,
              "degree_profile": report.degree_profile}
    attempted = max(report.orders_tested, UGB_EXPECTED_ORDERS)
    passed = report.orders_tested - len(failing)
    return Pass(attempted=attempted, failed=attempted - passed, output=output,
                calls=[call], errors=errors)


# -- closure -----------------------------------------------------------------------

POOL_SIZE = 15


def setup_closure(seed: int) -> dict:
    # The pool and the block of each random form are fixed: which ideals a
    # pool holds sets most of the cost (per-call times span 100x), so a
    # pool drawn per seed would measure the draw.  The seed moves the
    # coefficients of the random forms and the gin randomness.
    pool = (instances.cs_instance_pool(POOL_SIZE, seed=4)
            + instances.csstar_instance_pool(POOL_SIZE, seed=8))
    blocks = random.Random(77)
    coefficients = random.Random(77 + seed)
    calls = []
    for I in pool:
        R = I.ring
        calls.append((I, Polynomial.variable(R, 1, R.block_sizes[0])))
        calls.append((I, instances.random_linear_form(
            R, coefficients, block=blocks.randint(1, R.v))))
    return {"calls": calls, "seed": seed}


def run_closure(inputs: dict) -> Pass:
    output, calls, errors = [], [], []
    failed = 0
    for k, (I, L) in enumerate(inputs["calls"]):
        started = time.perf_counter()
        try:
            transcript = csideals.closure_suite(I, L, seed=inputs["seed"])
        except Exception as e:  # every exception is a failed operation
            calls.append((started, time.perf_counter()))
            failed += 1
            errors.append(f"call {k}: {type(e).__name__}: {e}")
            output.append({"error": type(e).__name__})
            continue
        calls.append((started, time.perf_counter()))
        if not transcript["passed"]:
            failed += 1
            errors.append(f"call {k}: closure checks failed")
        output.append({"form": transcript["form"],
                       "families": transcript["families"],
                       "checks": transcript["checks"]})
    return Pass(attempted=len(inputs["calls"]), failed=failed, output=output,
                calls=calls, errors=errors)


# -- main_theorem ------------------------------------------------------------------

MAIN_THEOREM_ORDERS = 25


def _script(A, keyword: str) -> str:
    ring = A.ring
    rows = " ;\n  ".join(", ".join(row) for row in A.entry_strings())
    blocks = ",".join(str(n) for n in ring.block_sizes)
    return (f"ring v={ring.v} blocks=[{blocks}] char={ring.characteristic}\n"
            f"matrix A {keyword} {A.nrows} x {A.ncols} {{\n  {rows}\n}}\n"
            f"main-theorem A orders={MAIN_THEOREM_ORDERS}\n")


def setup_main_theorem(seed: int) -> dict:
    col = determinantal.build_column_graded(3, (3, 3, 3, 3), seed=seed)
    row = determinantal.build_row_graded(4, (3, 3, 3), seed=seed)
    # (name, script text, number of theorem items the transcript must hold)
    scripts = [("colgraded", _script(col, "colgraded"), 9),
               ("rowgraded", _script(row, "rowgraded"), 8)]
    return {"scripts": scripts, "seed": seed}


def _run_cli(text: str, seed: int) -> tuple:
    """cli.main on a script fed through stdin: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        stack.enter_context(_stdin(io.StringIO(text)))
        code = cli.main(["-", "--json", "--seed", str(seed)])
    return code, out.getvalue()


@contextlib.contextmanager
def _stdin(stream):
    saved = sys.stdin
    sys.stdin = stream
    try:
        yield
    finally:
        sys.stdin = saved


def run_main_theorem(inputs: dict) -> Pass:
    output, calls, errors = [], [], []
    attempted = failed = 0
    for name, text, n_items in inputs["scripts"]:
        started = time.perf_counter()
        code, stdout = _run_cli(text, inputs["seed"])
        calls.append((started, time.perf_counter()))
        try:
            payload = json.loads(stdout)
            reports = payload["reports"]
            items = reports[-1]["evidence"]["items"]
        except (ValueError, KeyError, IndexError, TypeError):
            attempted += n_items
            failed += n_items
            errors.append(f"{name}: exit {code}, no main-theorem report")
            output.append({"script": name, "exit": code})
            continue
        for report in reports:
            report.pop("timings", None)
        n = max(len(items), n_items)
        ok = sum(item["passed"] for item in items.values()) if code == 0 else 0
        attempted += n
        failed += n - ok
        if ok < n:
            bad = sorted(k for k, item in items.items() if not item["passed"])
            errors.append(f"{name}: exit {code}, {len(items)} of {n_items} "
                          f"items, failed: {', '.join(bad) or 'none'}")
        output.append({"script": name, "exit": code, "payload": payload})
    return Pass(attempted=attempted, failed=failed, output=output,
                calls=calls, errors=errors)


WORKLOADS = {
    "ugb": (setup_ugb, run_ugb),
    "closure": (setup_closure, run_closure),
    "main_theorem": (setup_main_theorem, run_main_theorem),
}
