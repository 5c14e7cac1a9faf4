"""Command dispatcher for session scripts.

Commands fall into two classes.  Informational commands (gb, gin, hilbert,
radical, borel, dual, polarize, minors, colon, intersect, member, and cs or
csstar without an expectation) print results and never change the exit code.
Asserting commands (ugb, closure, bounds, main-theorem, and cs/csstar/member
with expect=yes|no) contribute to it: exit 0 only if all of them pass.

Commands, calls and ideal definitions resolve an ideal argument the same
way (``_eval_ideal``): the name of an ideal, a call, or a polynomial, which
stands for its principal ideal.  The minors, colon and intersect commands
evaluate the call of the same name and differ from it only in what they
print.  The parser checks each command's count of positional arguments
and its option keys against ``script.COMMANDS`` (one argument for most
commands; two for minors, colon, intersect and member; one or two for
closure; one to three for bounds), so a stray argument or an option the
command never reads exits 2, as does a ``bounds`` word other than one
``le`` or ``eq``.

Exit codes: 0 all asserted checks pass; 1 a check failed or the engine
detected an internal inconsistency; 2 usage, parse, or semantic error;
3 resource-guard abort (partial JSON still flushed, ending with an
"aborted" report for the command, or the call defining an ideal, that hit
the guard); 141 stdout was closed before the output was written, as a
shell reports a writer killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from multigb.csideals import (closure_suite, degree_bound_check, is_cs,
                              is_csstar, ugb_check)
from multigb.determinantal import (GradedMatrix, minor_ideal,
                                   verify_main_theorem)
from multigb.errors import (HypothesisNotSatisfiedError,
                            InternalConsistencyError, NotSquarefreeError,
                            PolarizationCapacityError, ResourceLimitError,
                            RingMismatchError)
from multigb.gin import gin
from multigb.groebner import EngineLimits, Ideal
from multigb.monomials import (alexander_dual, is_borel_fixed,
                               is_radical_monomial, is_strongly_stable,
                               polarize)
from multigb.poly import Polynomial
from multigb.ring import BlockRing, TermOrder, lex, weight_order
from multigb.script import (CALL_NAMES, CallNode, Command, IntNode,
                            MatrixDef, NameNode, PolyDef, ScriptError,
                            SessionScript, SumNode, VarNode, VectorNode, parse)

ASSERTING = {"ugb", "closure", "bounds", "main-theorem"}
_KIND_TEXT = {"poly": "a polynomial", "ideal": "an ideal",
              "matrix": "a matrix"}


def _asserting(cmd: Command) -> bool:
    """Whether the command counts toward the exit code, finished or aborted:
    an asserting command, or cs, csstar or member given expect=."""
    return cmd.name in ASSERTING or "expect" in cmd.options


class _Session:
    def __init__(self, ring: BlockRing, flags):
        self.ring = ring
        self.flags = flags
        self.env = {}
        self.limits = EngineLimits(max_basis=flags.max_basis)

    def define(self, name: str, kind: str, value) -> None:
        self.env[name] = (kind, value)

    def lookup(self, name: str, line: int, *kinds: str):
        if name not in self.env:
            raise ScriptError(f"undefined name {name!r}", line)
        got, value = self.env[name]
        if got not in kinds:
            expected = " or ".join(_KIND_TEXT[k] for k in kinds)
            raise ScriptError(
                f"{name!r} is {_KIND_TEXT[got]}, expected {expected}", line)
        return value


def _eval_poly(node, sess: _Session, line: int) -> Polynomial:
    ring = sess.ring
    if isinstance(node, IntNode):
        return Polynomial.constant(ring, node.value)
    if isinstance(node, VarNode):
        return Polynomial.variable(ring, node.block, node.pos)
    if isinstance(node, NameNode):
        return sess.lookup(node.name, line, "poly")
    if isinstance(node, SumNode):
        terms = []
        for sign, factors in node.terms:
            terms += math.prod((_eval_poly(atom, sess, line) if e is None else
                                _eval_poly(atom, sess, line) ** e
                                for atom, e in factors), start=sign).terms
        return Polynomial(ring, terms)
    raise ScriptError(f"cannot evaluate {_arg_text(node)} as a polynomial",
                      line)


def _eval_ideal(node, sess: _Session, line: int) -> Ideal:
    """An ideal argument of a command, call or ideal definition: the name of
    an ideal, a call, or a polynomial, which stands for its principal ideal."""
    if isinstance(node, CallNode):
        return _eval_call(node.func, node.args, sess, node.line)
    value = (sess.lookup(node.name, line, "ideal", "poly")
             if isinstance(node, NameNode) else _eval_poly(node, sess, line))
    return value if isinstance(value, Ideal) else \
        Ideal(sess.ring, [value], sess.limits)


def _eval_matrix(node, sess: _Session, line: int) -> GradedMatrix:
    if not isinstance(node, NameNode):
        raise ScriptError(f"expected a matrix name, found {_arg_text(node)}",
                          line)
    return sess.lookup(node.name, line, "matrix")


def _eval_call(name: str, args: tuple | list, sess: _Session,
               line: int) -> Ideal:
    """The ideal of a call, or of the minors, colon or intersect command;
    the parser has checked that there are two arguments."""
    a, b = args
    if name in ("minors", "eliminate") and not isinstance(b, IntNode):
        raise ScriptError(f"{name} needs an integer second argument, found "
                          f"{_arg_text(b)}", line)
    if name == "minors":
        A = _eval_matrix(a, sess, line)
        return minor_ideal(A, b.value, sess.limits)
    I = _eval_ideal(a, sess, line)
    if name == "colon":
        return I.colon(_eval_poly(b, sess, line))
    if name == "eliminate":
        return I.eliminate(sess.ring.block_vars(b.value))
    J = _eval_ideal(b, sess, line)
    return I.intersect(J) if name == "intersect" else I + J


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
    return "<polynomial>"  # a SumNode


def _term_order(value, ring: BlockRing) -> TermOrder:
    """The term order an ``order=`` or ``--order`` value names; ValueError
    for an unknown name, a weight vector of the wrong length or with an
    entry below 1, or weights that break the block convention."""
    if value in (None, "degrevlex"):
        return ring.storage_order
    if value == "lex":
        return lex(ring)
    if isinstance(value, tuple) and value[0] == "weight":
        order = weight_order(ring, value[1])
        if not order.respects_block_convention(ring):
            raise ValueError(f"order {order.name} breaks x[i,j] > x[i,k] "
                             "for j < k within a block")
        return order
    raise ValueError(f"unknown order {value!r}")


def _resolve_order(cmd: Command, sess: _Session) -> TermOrder:
    """The term order of ``order=``, or of ``--order`` without it."""
    return _term_order(cmd.options.get("order", sess.flags.order), sess.ring)


def _int_option(cmd: Command, key: str, default: int) -> int:
    value = cmd.options.get(key, default)
    if not isinstance(value, int):
        raise ScriptError(f"{key}= takes an integer, got {value!r}", cmd.line)
    return value


def _execute_command(cmd: Command, sess: _Session) -> dict:
    flags = sess.flags
    seed = _int_option(cmd, "seed", flags.seed)
    # without orders=, each command samples its function's default count
    orders_kw = ({"n_orders": _int_option(cmd, "orders", 0)}
                 if "orders" in cmd.options else {})
    expect = cmd.options.get("expect")  # only cs, csstar and member take it
    if expect not in (None, "yes", "no"):
        raise ScriptError("expect= takes yes or no", cmd.line)
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
    # The command's ideal: for minors, colon and intersect the call of the
    # same name, for any other command but main-theorem its first argument.
    if cmd.name in CALL_NAMES:
        I = _eval_call(cmd.name, cmd.args, sess, cmd.line)
    elif cmd.name != "main-theorem":
        I = _eval_ideal(cmd.args[0], sess, cmd.line)

    if cmd.name == "gb":
        order = _resolve_order(cmd, sess)
        gb = I.groebner_basis(order)
        report["orders"] = [order.name]
        report["verdict"] = "computed"
        report["evidence"] = {"size": len(gb),
                              "generators": [str(g) for g in gb]}
    elif cmd.name == "gin":
        order = _resolve_order(cmd, sess)
        rep = gin(I, order, trials=_int_option(cmd, "trials", flags.trials),
                  seed=seed)
        report["orders"] = [order.name]
        report["seeds"] = list(rep.seeds)
        report["verdict"] = "computed" if rep.agreement else "disagreement"
        report["evidence"] = {
            "agreement": rep.agreement,
            "generators": rep.result.generator_strings() if rep.agreement
            else [c.generator_strings() for c in rep.candidates],
        }
    elif cmd.name == "hilbert":
        series = I.hilbert_series()
        report["verdict"] = "computed"
        report["evidence"] = {
            "numerator": str(series),
            "denominator_blocks": list(sess.ring.block_sizes),
        }
    elif cmd.name == "radical":
        M = I.monomial_ideal()
        report["verdict"] = "yes" if is_radical_monomial(M) else "no"
        report["evidence"] = {"generators": M.generator_strings()}
    elif cmd.name == "borel":
        M = I.monomial_ideal()
        borel = is_borel_fixed(M)
        report["verdict"] = "yes" if borel else "no"
        report["evidence"] = {
            "borel_fixed": borel,
            "strongly_stable": is_strongly_stable(M),
        }
    elif cmd.name == "dual":
        M = I.monomial_ideal()
        report["verdict"] = "computed"
        report["evidence"] = {
            "generators": alexander_dual(M).generator_strings()}
    elif cmd.name == "polarize":
        M = I.monomial_ideal()
        report["verdict"] = "computed"
        report["evidence"] = {"generators": polarize(M).generator_strings()}
    elif cmd.name == "minors":
        report["verdict"] = "computed"
        report["evidence"] = {"count": len(I.gens),
                              "minors": [str(f) for f in I.gens]}
    elif cmd.name in ("cs", "csstar"):
        rep = (is_cs if cmd.name == "cs" else is_csstar)(I)
        report["verdict"] = rep.verdict
        report["evidence"] = {"criterion": rep.criterion, **rep.evidence}
    elif cmd.name == "member":
        f = _eval_poly(cmd.args[1], sess, cmd.line)
        report["verdict"] = "yes" if I.contains(f) else "no"
    elif cmd.name == "colon":
        report["verdict"] = "computed"
        report["evidence"] = {
            "generators": [str(g.monic()) for g in I.minimal_generators()]}
    elif cmd.name == "intersect":
        report["verdict"] = "computed"
        report["evidence"] = {"generators": [str(g) for g in I.gens]}
    elif cmd.name == "ugb":
        rep = ugb_check(list(I.gens), I, seed=seed, **orders_kw)
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
        if len(cmd.args) > 1:
            L = _eval_poly(cmd.args[1], sess, cmd.line)
        else:
            L = Polynomial.variable(sess.ring, 1, sess.ring.block_sizes[0])
        transcript = closure_suite(I, L)
        ok = transcript["passed"]
        report["verdict"] = "pass" if ok else "fail"
        report["evidence"] = transcript
    elif cmd.name == "bounds":
        mode = None
        bounds = [cmd.options["bound"]] if "bound" in cmd.options else []
        for arg in cmd.args[1:]:
            if isinstance(arg, VectorNode):
                bounds.append(arg.values)
            elif isinstance(arg, NameNode) and arg.name in ("le", "eq") \
                    and mode is None:
                mode = arg.name
            else:
                raise ScriptError("bounds takes one mode, le or eq, and one "
                                  f"bound; found {_arg_text(arg)}", cmd.line)
        mode = mode or "le"
        if len(bounds) > 1:
            raise ScriptError("bounds takes one bound, [..] or bound=[..]",
                              cmd.line)
        bound = bounds[0] if bounds else (1,) * sess.ring.v
        if not isinstance(bound, tuple) or len(bound) != sess.ring.v:
            raise ScriptError(f"bound needs {sess.ring.v} entries", cmd.line)
        passed, details = degree_bound_check(
            I, bound, seed=seed, mode=mode, **orders_kw)
        ok = passed
        report["verdict"] = "pass" if ok else "fail"
        report["orders"] = details["orders"]
        report["evidence"] = {"mode": mode, "bound": list(bound),
                              "violations": details["violations"]}
    elif cmd.name == "main-theorem":
        A = _eval_matrix(cmd.args[0], sess, cmd.line)
        transcript = verify_main_theorem(A, seed=seed, limits=sess.limits,
                                         **orders_kw)
        ok = transcript["passed"]
        report["verdict"] = "pass" if ok else "fail"
        report["orders"] = [f"{transcript['orders']} sampled"]
        report["evidence"] = transcript

    if expect is not None:
        ok = report["verdict"] == expect
        report["evidence"]["expected"] = expect
    report["asserted"] = _asserting(cmd)
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


def _aborted_report(name: str, args: list, e: ResourceLimitError,
                    asserted: bool = False) -> dict:
    """Report of a command, or of the call defining an ideal, that hit a
    resource limit."""
    return {"command": name,
            "inputs": [_arg_text(a) for a in args],
            "verdict": "aborted",
            "evidence": {"error": str(e), "basis_size": e.basis_size,
                         "pending_pairs": e.pending_pairs,
                         "degree": e.degree},
            "seeds": [], "orders": [], "timings": {},
            "asserted": asserted, "passed": False}


def _define(stmt, sess: _Session) -> None:
    """Bind the name of a poly, ideal or matrix definition to its value."""
    line = stmt.line
    try:
        if isinstance(stmt, PolyDef):
            sess.define(stmt.name, "poly", _eval_poly(stmt.expr, sess, line))
        elif isinstance(stmt, MatrixDef):
            rows = [[_eval_poly(node, sess, line) for node in row]
                    for row in stmt.entries]
            sess.define(stmt.name, "matrix",
                        GradedMatrix(sess.ring, rows, stmt.grading))
        elif len(stmt.expr) == 1:
            sess.define(stmt.name, "ideal",
                        _eval_ideal(stmt.expr[0], sess, line))
        else:
            gens = [_eval_poly(node, sess, line) for node in stmt.expr]
            sess.define(stmt.name, "ideal",
                        Ideal(sess.ring, gens, sess.limits))
    except (RingMismatchError, ValueError) as e:
        raise ScriptError(str(e), line)


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
            json.dump(payload, out, indent=2)
            out.write("\n")

    try:
        for stmt in script.statements:
            if not isinstance(stmt, Command):
                try:
                    _define(stmt, sess)
                except ResourceLimitError as e:
                    call = stmt.expr[0]  # only a call computes a basis
                    reports.append(_aborted_report(call.func, call.args, e))
                    raise
                continue
            started = time.perf_counter()
            try:
                report = _execute_command(stmt, sess)
            except ResourceLimitError as e:
                reports.append(_aborted_report(stmt.name, stmt.args, e,
                                               _asserting(stmt)))
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
                        help="trials of the gin command")
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
        ring = BlockRing(script.ring.blocks,
                         flags.char or script.ring.characteristic)
        _term_order(flags.order, ring)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        code = run_script(script, flags)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # the reader left early; send what is left to devnull, so that the
        # interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
