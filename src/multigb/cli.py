"""Command dispatcher for session scripts.

Commands fall into two classes.  Informational commands (gb, gin, hilbert,
radical, borel, dual, polarize, minors, colon, intersect, member, and cs or
csstar without an expectation) print results and never change the exit code.
Asserting commands (ugb, closure, bounds, main-theorem, and cs/csstar/member
with expect=yes|no) contribute to it: exit 0 only if all of them pass.

Exit codes: 0 all asserted checks pass; 1 a check failed or the engine
detected an internal inconsistency; 2 usage, parse, or semantic error;
3 resource-guard abort (partial JSON still flushed, ending with an
"aborted" report for the command, or the call defining an ideal, that hit
the guard).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from multigb.csideals import (closure_suite, degree_bound_check, is_cs,
                              is_csstar, ugb_check)
from multigb.determinantal import GradedMatrix, minors, verify_main_theorem
from multigb.errors import (HypothesisNotSatisfiedError, InconclusiveError,
                            InternalConsistencyError, NotSquarefreeError,
                            PolarizationCapacityError, ResourceLimitError,
                            RingMismatchError)
from multigb.gin import gin
from multigb.groebner import EngineLimits, Ideal
from multigb.monomials import (alexander_dual, is_borel_fixed,
                               is_radical_monomial, is_strongly_stable,
                               polarize)
from multigb.poly import Polynomial
from multigb.ring import BlockRing, lex, weight_order
from multigb.script import (CallNode, Command, IdealDef, IntNode, MatrixDef,
                            NameNode, OpNode, PolyDef, ScriptError,
                            SessionScript, VarNode, VectorNode, parse)

ASSERTING = {"ugb", "closure", "bounds", "main-theorem"}
OPTION_KEYS = frozenset({"seed", "trials", "orders", "order", "expect",
                         "bound"})


class _Session:
    def __init__(self, ring: BlockRing, flags):
        self.ring = ring
        self.flags = flags
        self.env = {}
        self.limits = EngineLimits(max_basis=flags.max_basis)

    def define(self, name: str, kind: str, value) -> None:
        self.env[name] = (kind, value)

    def lookup(self, name: str, kind: str, line: int):
        if name not in self.env:
            raise ScriptError(f"undefined name {name!r}", line)
        got, value = self.env[name]
        if got != kind:
            raise ScriptError(
                f"{name!r} is a {got}, expected a {kind}", line)
        return value


def _eval_poly(node, sess: _Session, line: int) -> Polynomial:
    ring = sess.ring
    if isinstance(node, IntNode):
        return Polynomial.constant(ring, node.value)
    if isinstance(node, VarNode):
        return Polynomial.variable(ring, node.block, node.pos)
    if isinstance(node, NameNode):
        return sess.lookup(node.name, "poly", line)
    if isinstance(node, OpNode):
        if node.op == "^":
            return _eval_poly(node.args[0], sess, line) ** node.args[1].value
        if node.op == "neg":
            return -_eval_poly(node.args[0], sess, line)
        a = _eval_poly(node.args[0], sess, line)
        b = _eval_poly(node.args[1], sess, line)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
    raise ScriptError(f"cannot evaluate {node!r} as a polynomial", line)


def _eval_call(call: CallNode, sess: _Session) -> Ideal:
    line = call.line
    name = call.func

    def as_ideal(arg) -> Ideal:
        if isinstance(arg, NameNode) and arg.name in sess.env:
            kind, value = sess.env[arg.name]
            if kind == "ideal":
                return value
        if isinstance(arg, CallNode):
            return _eval_call(arg, sess)
        return Ideal(sess.ring, [_eval_poly(arg, sess, line)], sess.limits)

    if name == "minors":
        if len(call.args) != 2 or not isinstance(call.args[0], NameNode) \
                or not isinstance(call.args[1], IntNode):
            raise ScriptError("minors needs (matrix, size)", line)
        A = sess.lookup(call.args[0].name, "matrix", line)
        return Ideal(sess.ring, minors(A, call.args[1].value), sess.limits)
    if name == "colon":
        if len(call.args) != 2:
            raise ScriptError("colon needs (ideal, poly)", line)
        return as_ideal(call.args[0]).colon(_eval_poly(call.args[1], sess, line))
    if name == "intersect":
        if len(call.args) != 2:
            raise ScriptError("intersect needs (ideal, ideal)", line)
        return as_ideal(call.args[0]).intersect(as_ideal(call.args[1]))
    if name == "sum":
        if len(call.args) != 2:
            raise ScriptError("sum needs (ideal, ideal or poly)", line)
        return as_ideal(call.args[0]) + as_ideal(call.args[1])
    if name == "eliminate":
        if len(call.args) != 2 or not isinstance(call.args[1], IntNode):
            raise ScriptError("eliminate needs (ideal, block)", line)
        block = call.args[1].value
        return as_ideal(call.args[0]).eliminate(sess.ring.block_vars(block))
    raise ScriptError(f"unknown function {name!r}", line)


def _arg_text(arg) -> str:
    if isinstance(arg, NameNode):
        return arg.name
    if isinstance(arg, IntNode):
        return str(arg.value)
    if isinstance(arg, VarNode):
        return f"x[{arg.block},{arg.pos}]"
    if isinstance(arg, CallNode):
        return f"{arg.func}({', '.join(_arg_text(a) for a in arg.args)})"
    if isinstance(arg, VectorNode):
        return "[" + ",".join(str(v) for v in arg.values) + "]"
    if isinstance(arg, OpNode):
        return "<polynomial>"
    return str(arg)


def _resolve_order(sess: _Session, value, line: int):
    if value is None:
        return sess.ring.storage_order
    if value == "degrevlex":
        return sess.ring.storage_order
    if value == "lex":
        return lex(sess.ring)
    if isinstance(value, tuple) and value[0] == "weight":
        order = weight_order(sess.ring, value[1])
        if not order.respects_block_convention(sess.ring):
            raise ScriptError(
                f"order {order.name} breaks x[i,j] > x[i,k] for j < k "
                "within a block", line)
        return order
    raise ScriptError(f"unknown order {value!r}", line)


def _ideal_arg(cmd: Command, sess: _Session, index: int = 0) -> Ideal:
    if index >= len(cmd.args):
        raise ScriptError(f"{cmd.name} needs an ideal argument", cmd.line)
    arg = cmd.args[index]
    if isinstance(arg, NameNode):
        return sess.lookup(arg.name, "ideal", cmd.line)
    if isinstance(arg, CallNode):
        return _eval_call(arg, sess)
    raise ScriptError(f"{cmd.name} needs an ideal argument", cmd.line)


def _poly_arg(cmd: Command, sess: _Session, index: int) -> Polynomial:
    if index >= len(cmd.args):
        raise ScriptError(f"{cmd.name} needs a polynomial argument", cmd.line)
    return _eval_poly(cmd.args[index], sess, cmd.line)


def _monomial_arg(cmd: Command, sess: _Session):
    I = _ideal_arg(cmd, sess)
    try:
        return I.monomial_ideal()
    except HypothesisNotSatisfiedError as e:
        raise ScriptError(f"{cmd.name}: {e}", cmd.line)


def _expectation(cmd: Command) -> str | None:
    expect = cmd.options.get("expect")
    if expect is None:
        return None
    if expect not in ("yes", "no"):
        raise ScriptError("expect= takes yes or no", cmd.line)
    return expect


def _int_option(cmd: Command, key: str, default: int) -> int:
    value = cmd.options.get(key, default)
    if not isinstance(value, int):
        raise ScriptError(f"{key}= takes an integer, got {value!r}", cmd.line)
    return value


def _execute_command(cmd: Command, sess: _Session) -> dict:
    flags = sess.flags
    unknown = sorted(set(cmd.options) - OPTION_KEYS)
    if unknown:
        raise ScriptError(f"unknown option {unknown[0]}= (options: "
                          f"{', '.join(sorted(OPTION_KEYS))})", cmd.line)
    seed = _int_option(cmd, "seed", flags.seed)
    trials = _int_option(cmd, "trials", flags.trials)
    n_orders = _int_option(cmd, "orders", 200 if cmd.name == "ugb" else 20)
    report = {
        "command": cmd.name,
        "inputs": [_arg_text(a) for a in cmd.args],
        "verdict": None,
        "evidence": {},
        "seeds": [seed],
        "orders": [],
        "timings": {},
    }
    ok = None

    if cmd.name == "gb":
        I = _ideal_arg(cmd, sess)
        order = _resolve_order(
            sess, cmd.options.get("order", flags.order), cmd.line)
        gb = I.groebner_basis(order)
        report["orders"] = [order.name]
        report["verdict"] = "computed"
        report["evidence"] = {"size": len(gb),
                              "generators": [str(g) for g in gb]}
    elif cmd.name == "gin":
        I = _ideal_arg(cmd, sess)
        order = _resolve_order(
            sess, cmd.options.get("order", flags.order), cmd.line)
        rep = gin(I, order, trials=trials, seed=seed)
        report["orders"] = [order.name]
        report["seeds"] = list(rep.seeds)
        report["verdict"] = "computed" if rep.agreement else "disagreement"
        report["evidence"] = {
            "agreement": rep.agreement,
            "generators": rep.result.generator_strings() if rep.agreement
            else [c.generator_strings() for c in rep.candidates],
        }
    elif cmd.name == "hilbert":
        I = _ideal_arg(cmd, sess)
        series = I.hilbert_series()
        report["verdict"] = "computed"
        report["evidence"] = {
            "numerator": str(series),
            "denominator_blocks": list(sess.ring.block_sizes),
        }
    elif cmd.name == "radical":
        M = _monomial_arg(cmd, sess)
        report["verdict"] = "yes" if is_radical_monomial(M) else "no"
        report["evidence"] = {"generators": M.generator_strings()}
    elif cmd.name == "borel":
        M = _monomial_arg(cmd, sess)
        report["verdict"] = "yes" if is_borel_fixed(M) else "no"
        report["evidence"] = {
            "borel_fixed": is_borel_fixed(M),
            "strongly_stable": is_strongly_stable(M),
        }
    elif cmd.name == "dual":
        M = _monomial_arg(cmd, sess)
        report["verdict"] = "computed"
        report["evidence"] = {
            "generators": alexander_dual(M).generator_strings()}
    elif cmd.name == "polarize":
        M = _monomial_arg(cmd, sess)
        report["verdict"] = "computed"
        report["evidence"] = {"generators": polarize(M).generator_strings()}
    elif cmd.name == "minors":
        if len(cmd.args) != 2 or not isinstance(cmd.args[0], NameNode) \
                or not isinstance(cmd.args[1], IntNode):
            raise ScriptError("minors needs a matrix name and a size",
                              cmd.line)
        A = sess.lookup(cmd.args[0].name, "matrix", cmd.line)
        ms = minors(A, cmd.args[1].value)
        report["verdict"] = "computed"
        report["evidence"] = {"count": len(ms),
                              "minors": [str(f) for f in ms]}
    elif cmd.name in ("cs", "csstar"):
        I = _ideal_arg(cmd, sess)
        rep = (is_cs if cmd.name == "cs" else is_csstar)(
            I, trials=trials, seed=seed)
        report["verdict"] = rep.verdict
        report["orders"] = rep.evidence.get("orders", [])
        report["evidence"] = {"criterion": rep.criterion, **rep.evidence}
        expect = _expectation(cmd)
        if expect is not None:
            ok = rep.verdict == expect
            report["evidence"]["expected"] = expect
    elif cmd.name == "member":
        I = _ideal_arg(cmd, sess)
        f = _poly_arg(cmd, sess, 1)
        verdict = "yes" if I.contains(f) else "no"
        report["verdict"] = verdict
        expect = _expectation(cmd)
        if expect is not None:
            ok = verdict == expect
            report["evidence"]["expected"] = expect
    elif cmd.name == "colon":
        I = _ideal_arg(cmd, sess)
        f = _poly_arg(cmd, sess, 1)
        result = I.colon(f)
        report["verdict"] = "computed"
        report["evidence"] = {
            "generators": [str(g.monic()) for g in result.minimal_generators()]}
    elif cmd.name == "intersect":
        I = _ideal_arg(cmd, sess)
        J = _ideal_arg(cmd, sess, 1)
        result = I.intersect(J)
        report["verdict"] = "computed"
        report["evidence"] = {"generators": [str(g) for g in result.gens]}
    elif cmd.name == "ugb":
        I = _ideal_arg(cmd, sess)
        rep = ugb_check(list(I.gens), I, n_orders=n_orders, seed=seed)
        ok = rep.passed
        report["verdict"] = "pass" if ok else "fail"
        report["orders"] = [f"{rep.orders_tested} sampled"]
        report["evidence"] = {
            "orders_tested": rep.orders_tested,
            "failures": rep.failures,
            "candidate_degrees": [None if d is None else list(d)
                                  for d in rep.degree_profile],
            "note": rep.note,
        }
    elif cmd.name == "closure":
        I = _ideal_arg(cmd, sess)
        if len(cmd.args) > 1:
            L = _poly_arg(cmd, sess, 1)
        else:
            L = Polynomial.variable(sess.ring, 1, sess.ring.block_sizes[0])
        transcript = closure_suite(I, L, trials=trials, seed=seed)
        ok = transcript["passed"]
        report["verdict"] = "pass" if ok else "fail"
        report["evidence"] = transcript
    elif cmd.name == "bounds":
        I = _ideal_arg(cmd, sess)
        mode = "le"
        bounds = [cmd.options["bound"]] if "bound" in cmd.options else []
        for arg in cmd.args[1:]:
            if isinstance(arg, NameNode) and arg.name in ("le", "eq"):
                mode = arg.name
            elif isinstance(arg, VectorNode):
                bounds.append(arg.values)
        if len(bounds) > 1:
            raise ScriptError("bounds takes one bound, [..] or bound=[..]",
                              cmd.line)
        bound = bounds[0] if bounds else (1,) * sess.ring.v
        if not isinstance(bound, tuple) or len(bound) != sess.ring.v:
            raise ScriptError(f"bound needs {sess.ring.v} entries", cmd.line)
        passed, details = degree_bound_check(
            I, bound, n_orders=n_orders, seed=seed, mode=mode)
        ok = passed
        report["verdict"] = "pass" if ok else "fail"
        report["orders"] = details["orders"]
        report["evidence"] = {"mode": mode, "bound": list(bound),
                              "violations": details["violations"]}
    elif cmd.name == "main-theorem":
        if not cmd.args or not isinstance(cmd.args[0], NameNode):
            raise ScriptError("main-theorem needs a matrix name", cmd.line)
        A = sess.lookup(cmd.args[0].name, "matrix", cmd.line)
        transcript = verify_main_theorem(A, n_orders=n_orders, seed=seed,
                                         trials=trials)
        ok = transcript["passed"]
        report["verdict"] = "pass" if ok else "fail"
        report["orders"] = [f"{n_orders} sampled"]
        report["evidence"] = transcript
    else:
        raise ScriptError(f"unknown command {cmd.name!r}", cmd.line)

    report["asserted"] = ok is not None
    report["passed"] = ok
    return report


def _human_lines(report: dict) -> list:
    head = f"[{report['command']}] {' '.join(report['inputs'])}".rstrip()
    verdict = report["verdict"]
    if report["asserted"]:
        verdict = f"{verdict} ({'ok' if report['passed'] else 'FAILED'})"
    lines = [f"{head}: {verdict}"]
    evidence = report["evidence"]
    for key in ("generators", "minors"):
        for item in evidence.get(key, []):
            lines.append(f"  {item}")
    if "numerator" in evidence:
        lines.append(f"  numerator: {evidence['numerator']}")
    if "criterion" in evidence:
        lines.append(f"  criterion: {evidence['criterion']}")
    if "failures" in evidence and evidence["failures"]:
        for failure in evidence["failures"][:5]:
            lines.append(f"  failure: {failure}")
    if report["command"] in ("closure", "main-theorem"):
        items = evidence.get("checks") or \
            list(evidence.get("items", {}).items())
        for item in items:
            lines.append(f"  {item}")
    return lines


def _unfinished_report(name: str, args: list, verdict: str,
                       evidence: dict) -> dict:
    """Report of a command, or of the call defining an ideal, that ended
    without a result: "inconclusive" (contradictory gin trials) or
    "aborted" (a resource limit)."""
    return {"command": name,
            "inputs": [_arg_text(a) for a in args],
            "verdict": verdict, "evidence": evidence,
            "seeds": [], "orders": [], "timings": {},
            "asserted": name in ASSERTING, "passed": False}


def _aborted_report(name: str, args: list, e: ResourceLimitError) -> dict:
    return _unfinished_report(name, args, "aborted", {
        "error": str(e), "basis_size": e.basis_size,
        "pending_pairs": e.pending_pairs, "degree": e.degree})


def run_script(script: SessionScript, flags, out=None, err=None) -> int:
    """Execute a parsed session; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    human = err if flags.json else out
    characteristic = flags.char or script.ring.characteristic
    ring = BlockRing(script.ring.blocks, characteristic)
    sess = _Session(ring, flags)
    reports = []
    failed = False
    exit_code = 0

    def flush_json():
        if flags.json:
            payload = {"schema": 1, "characteristic": ring.characteristic,
                       "blocks": list(ring.block_sizes), "reports": reports}
            json.dump(payload, out, indent=2, default=_json_default)
            out.write("\n")

    try:
        for stmt in script.statements:
            if isinstance(stmt, PolyDef):
                try:
                    value = _eval_poly(stmt.expr, sess, stmt.line)
                except RingMismatchError as e:
                    raise ScriptError(str(e), stmt.line)
                sess.define(stmt.name, "poly", value)
            elif isinstance(stmt, IdealDef):
                try:
                    if isinstance(stmt.expr, CallNode):
                        try:
                            value = _eval_call(stmt.expr, sess)
                        except ResourceLimitError as e:
                            reports.append(_aborted_report(
                                stmt.expr.func, stmt.expr.args, e))
                            raise
                    elif (isinstance(stmt.expr, tuple) and len(stmt.expr) == 1
                            and isinstance(stmt.expr[0], NameNode)
                            and sess.env.get(stmt.expr[0].name, ("",))[0]
                            == "ideal"):
                        value = sess.env[stmt.expr[0].name][1]
                    else:
                        gens = [_eval_poly(node, sess, stmt.line)
                                for node in stmt.expr]
                        value = Ideal(ring, gens, sess.limits)
                except (RingMismatchError, ValueError) as e:
                    raise ScriptError(str(e), stmt.line)
                sess.define(stmt.name, "ideal", value)
            elif isinstance(stmt, MatrixDef):
                try:
                    rows = [[_eval_poly(node, sess, stmt.line)
                             for node in row] for row in stmt.entries]
                    value = GradedMatrix(ring, rows, stmt.grading)
                except (RingMismatchError, ValueError) as e:
                    raise ScriptError(str(e), stmt.line)
                sess.define(stmt.name, "matrix", value)
            elif isinstance(stmt, Command):
                started = time.perf_counter()
                try:
                    report = _execute_command(stmt, sess)
                except InconclusiveError as e:
                    report = _unfinished_report(stmt.name, stmt.args,
                                                "inconclusive",
                                                {"error": str(e)})
                except ResourceLimitError as e:
                    reports.append(_aborted_report(stmt.name, stmt.args, e))
                    raise
                except (RingMismatchError, HypothesisNotSatisfiedError,
                        NotSquarefreeError, PolarizationCapacityError,
                        ValueError) as e:
                    raise ScriptError(f"{stmt.name}: {e}", stmt.line)
                report["timings"]["ms"] = round(
                    (time.perf_counter() - started) * 1000, 3)
                reports.append(report)
                if report["asserted"] and not report["passed"]:
                    failed = True
                for line in _human_lines(report):
                    print(line, file=human)
    except ScriptError as e:
        print(f"error: {e}", file=err)
        flush_json()
        return 2
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=err)
        flush_json()
        return 3
    except InternalConsistencyError as e:
        print(f"internal consistency failure: {e}", file=err)
        flush_json()
        return 1

    if failed:
        exit_code = 1
    flush_json()
    return exit_code


def _json_default(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, Polynomial):
        return str(obj)
    return repr(obj)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multigb",
        description="Run a multigraded Groebner verification script.")
    parser.add_argument("script", help="script file path, or '-' for stdin")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for randomized checks")
    parser.add_argument("--char", type=int, default=0,
                        help="override the script's coefficient characteristic")
    parser.add_argument("--order", default=None,
                        help="default term order: degrevlex, lex, or "
                             "weight:w1,w2,...")
    parser.add_argument("--trials", type=int, default=3,
                        help="gin trials per verdict")
    parser.add_argument("--max-basis", type=int, default=5000,
                        dest="max_basis",
                        help="resource guard on Groebner basis size")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report on stdout "
                             "(human text moves to stderr)")
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    flags = parser.parse_args(argv)
    if flags.trials < 1 or flags.max_basis < 1:
        print("error: --trials and --max-basis must be at least 1",
              file=sys.stderr)
        return 2
    if flags.order is not None and ":" in flags.order:
        name, csv = flags.order.split(":", 1)
        try:
            flags.order = (name, tuple(int(x) for x in csv.split(",")))
        except ValueError:
            print(f"error: bad order spec {flags.order!r}", file=sys.stderr)
            return 2
    try:
        if flags.script == "-":
            text = sys.stdin.read()
        else:
            with open(flags.script, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        script = parse(text)
    except ScriptError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        BlockRing(script.ring.blocks,
                  flags.char or script.ring.characteristic)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return run_script(script, flags)


if __name__ == "__main__":
    sys.exit(main())
