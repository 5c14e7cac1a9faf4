"""Script language: tokenizer, parser, and the command-line driver."""

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from multigb import groebner
from multigb.cli import _eval_poly, _Session, build_arg_parser, main
from multigb.determinantal import build_column_graded, minors
from multigb.errors import InternalConsistencyError
from multigb.groebner import Ideal, exact_divide
from multigb.poly import Polynomial
from multigb.ring import BlockRing
from multigb.script import (COMMANDS, Command, PolyDef, RingDecl, ScriptError,
                            parse, tokenize)

REMARK = """\
# 2-minors of a 3x3 matrix with three zero entries
ring v=3 blocks=[3,3,3] char=32003
matrix X rowgraded 3 x 3 {
  x[1,1], x[1,2], x[1,3] ;
  x[2,1], x[2,2], 0 ;
  0, 0, x[3,3]
}
poly F = x[1,1]*x[2,1]*x[3,2] + x[1,3]*x[2,3]*x[3,3]
ideal I = minors(X, 2)
ideal J = colon(I, F)
gb I
cs I expect=yes
cs J expect=no
"""


def run_cli(tmp_path, text, *flags):
    path = tmp_path / "session.mgb"
    path.write_text(text)
    return main([str(path), *flags])


# -- tokenizer -------------------------------------------------------------------

def test_tokenize_locations_and_comments():
    toks = tokenize("gb I  # trailing comment\ncs J\n")
    kinds = [(t.kind, t.text) for t in toks]
    assert kinds == [("IDENT", "gb"), ("IDENT", "I"), ("END", ";"),
                     ("IDENT", "cs"), ("IDENT", "J"), ("END", ";"),
                     ("EOF", "")]
    assert toks[0].line == 1 and toks[0].col == 1
    assert toks[3].line == 2


def test_tokenize_soft_newlines_inside_brackets():
    toks = tokenize("blocks=[1,\n2]\n")
    assert [t.text for t in toks if t.kind == "END"] == [";"]


def test_tokenize_semicolon_at_depth_zero():
    toks = tokenize("gb I ; cs I")
    ends = [t for t in toks if t.kind == "END"]
    assert len(ends) == 1


def test_tokenize_rejects_unknown_character():
    with pytest.raises(ScriptError) as e:
        tokenize("poly f = @")
    assert "line 1" in str(e.value)


# every symbol, blanks, both kinds of digit and of letter, and words the
# grammar reads; no character whose isdigit() differs from its isdecimal()
TOKEN_PIECES = (list("abxyzXY_é19٣ \t\r\n\f#") + list("=[]{}(),;*+-^:")
                + ["ring", "x[1,2]", "main-theorem"])


def tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ScriptError as e:
        return str(e)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=30).map("".join))
@example("gb I  # trailing comment\ncs J")
@example("f = (x;\n y) ; # last")
def test_tokenize_equals_the_two_pass_tokenizer(text):
    assert tokens_or_error(tokenize, text) == \
        tokens_or_error(oracles.tokenize, text)


def test_tokenize_reads_a_superscript_digit_as_a_name():
    # isdigit() but not isdecimal(): not an integer, so it cannot be an
    # exponent
    assert [(t.kind, t.text) for t in tokenize("x^²")][1:3] == [
        ("SYM", "^"), ("IDENT", "²")]
    with pytest.raises(ScriptError, match="expected an integer, found '²'"):
        parse("ring v=1 blocks=[2] char=101\npoly f = x[1,1]^²\n")


# -- parser ----------------------------------------------------------------------

def commands_of(script) -> list:
    return [s for s in script.statements if isinstance(s, Command)]


def test_parse_full_session():
    script = parse(REMARK)
    assert isinstance(script.ring, RingDecl)
    assert script.ring.v == 3
    assert script.ring.blocks == (3, 3, 3)
    assert script.ring.characteristic == 32003
    kinds = [type(s).__name__ for s in script.statements]
    assert kinds == ["MatrixDef", "PolyDef", "IdealDef", "IdealDef",
                     "Command", "Command", "Command"]
    matrix = script.statements[0]
    assert matrix.grading == "row"
    assert matrix.nrows == matrix.ncols == 3
    commands = commands_of(script)
    assert [c.name for c in commands] == ["gb", "cs", "cs"]
    assert commands[1].options == {"expect": "yes"}


def test_parse_requires_ring_first():
    with pytest.raises(ScriptError):
        parse("poly f = x[1,1]\nring v=1 blocks=[2] char=101\n")


def test_parse_ring_validates_block_count():
    with pytest.raises(ScriptError):
        parse("ring v=2 blocks=[3] char=101\n")


def test_parse_duplicate_name_rejected():
    text = ("ring v=1 blocks=[2] char=101\n"
            "poly f = x[1,1]\n"
            "ideal f = x[1,2]\n")
    with pytest.raises(ScriptError):
        parse(text)


def test_parse_matrix_shape_mismatch():
    text = ("ring v=2 blocks=[2,2] char=101\n"
            "matrix X rowgraded 2 x 2 { x[1,1], x[1,2] }\n")
    with pytest.raises(ScriptError):
        parse(text)


def test_parse_main_theorem_command():
    text = ("ring v=2 blocks=[2,2] char=101\n"
            "matrix A colgraded 2 x 2 { x[1,1], x[2,1] ; x[1,2], x[2,2] }\n"
            "main-theorem A orders=5\n")
    script = parse(text)
    (cmd,) = commands_of(script)
    assert cmd.name == "main-theorem"
    assert cmd.options == {"orders": 5}


def test_parse_vector_option():
    text = ("ring v=2 blocks=[2,2] char=101\n"
            "ideal I = x[1,1]\n"
            "bounds I le [1,1] orders=4\n")
    (cmd,) = commands_of(parse(text))
    assert cmd.name == "bounds"
    assert len(cmd.args) == 3


def test_parse_unknown_command():
    with pytest.raises(ScriptError):
        parse("ring v=1 blocks=[1] char=101\nfrobenius I\n")


def parsed_poly(text, R):
    """The value of ``f`` after a parsed ``poly f = <text>`` statement."""
    blocks = ",".join(str(n) for n in R.block_sizes)
    script = parse(f"ring v={R.v} blocks=[{blocks}] char={R.characteristic}\n"
                   f"poly f = {text}\n")
    (stmt,) = script.statements
    assert isinstance(stmt, PolyDef) and stmt.name == "f"
    sess = _Session(R, build_arg_parser().parse_args(["-"]))
    return _eval_poly(stmt.expr, sess, stmt.line)


def test_parse_polynomial_expressions():
    R = BlockRing((2, 2))
    f = parsed_poly("x[1,2]^2 - 3*x[2,1] + 7", R)
    expect = (Polynomial.variable(R, 1, 2) ** 2
              - 3 * Polynomial.variable(R, 2, 1) + 7)
    assert f == expect


def test_parse_parenthesized_polynomial():
    R = BlockRing((2,))
    a, b = Polynomial.variable(R, 1, 1), Polynomial.variable(R, 1, 2)
    assert parsed_poly("(x[1,1] + x[1,2])^2", R) == (a + b) * (a + b)


def test_parse_polynomial_unary_minus_binds_product():
    R = BlockRing((2,))
    f = parsed_poly("-x[1,1]*x[1,2]", R)
    assert f == -(Polynomial.variable(R, 1, 1) * Polynomial.variable(R, 1, 2))


def test_parse_polynomial_rejects_trailing_garbage():
    with pytest.raises(ScriptError):
        parsed_poly("x[1,1] x[1,2]", BlockRing((2,)))


def test_polynomial_str_round_trips():
    R = BlockRing((3, 2))
    x = lambda i, j: Polynomial.variable(R, i, j)
    cases = [
        x(1, 1) ** 3 - 2 * x(2, 1) * x(1, 2) + 5,
        -x(1, 3),
        Polynomial.constant(R, 7),
        x(1, 1) * x(1, 2) * x(2, 2) - x(1, 3) ** 2 * x(2, 1),
    ]
    for f in cases:
        assert parsed_poly(str(f), R) == f


# an expression is (text, value, precedence); a subexpression below the
# precedence its place needs is parenthesized
SUM, NEG, PROD, POW, ATOM = range(5)


def operand(expr, least):
    text, value, prec = expr
    return text if prec >= least else f"({text})"


def combine(parts):
    left, op, right = parts
    if op == "*":
        return (f"{operand(left, PROD)}*{operand(right, PROD)}",
                left[1] * right[1], PROD)
    value = left[1] + right[1] if op == "+" else left[1] - right[1]
    return f"{operand(left, SUM)} {op} {operand(right, NEG)}", value, SUM


def expressions(R):
    atoms = (st.integers(0, 12).map(
                 lambda c: (str(c), Polynomial.constant(R, c), ATOM))
             | st.sampled_from([(R.var_label(k), Polynomial.variable(
                 R, *R.var_pair(k)), ATOM) for k in range(R.nvars)]))

    def extend(inner):
        return (st.tuples(inner, st.sampled_from("+-*"), inner).map(combine)
                | st.tuples(inner, st.integers(0, 3)).map(
                    lambda a: (f"{operand(a[0], ATOM)}^{a[1]}",
                               a[0][1] ** a[1], POW))
                | inner.map(lambda a: (f"-{operand(a, NEG)}", -a[1], NEG))
                | inner.map(lambda a: (f"({a[0]})", a[1], ATOM)))

    return st.recursive(atoms, extend, max_leaves=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expressions(BlockRing((2, 1), 7)))
@example(("--x[1,1]", Polynomial.variable(BlockRing((2, 1), 7), 1, 1), NEG))
def test_parsed_expressions_evaluate_to_the_polynomial_they_render(expr):
    text, value, _ = expr
    assert parsed_poly(text, BlockRing((2, 1), 7)) == value


# -- CLI end to end ----------------------------------------------------------------

def test_cli_remark_session_passes(tmp_path, capsys):
    assert run_cli(tmp_path, REMARK) == 0
    out = capsys.readouterr().out
    assert "[cs] I: yes (ok)" in out
    assert "[cs] J: no (ok)" in out


def test_cli_expect_mismatch_fails(tmp_path):
    text = ("ring v=1 blocks=[2] char=32003\n"
            "ideal I = x[1,1]\n"
            "cs I expect=no\n")
    assert run_cli(tmp_path, text) == 1


def test_cli_checks_expect_before_the_command_runs(tmp_path, capsys,
                                                   monkeypatch):
    def never(I):
        pytest.fail("is_cs ran before expect= was checked")

    monkeypatch.setattr("multigb.cli.is_cs", never)
    text = ("ring v=1 blocks=[2] char=32003\n"
            "ideal I = x[1,1]\n"
            "cs I expect=maybe\n")
    assert run_cli(tmp_path, text) == 2
    assert "line 3: expect= takes yes or no" in capsys.readouterr().err


def process_env() -> dict:
    """The environment of a new process that imports this checkout's
    ``multigb``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("command, code, verdicts", [
    ("cs I expect=yes", 0, ["yes"]),
    ("cs I expect=no", 1, ["yes"]),
    ("cs I expect=maybe", 2, []),
])
def test_cli_process_reads_stdin_and_exits_with_its_code(command, code,
                                                         verdicts):
    done = subprocess.run(
        [sys.executable, "-m", "multigb.cli", "-", "--json"],
        input=f"ring v=1 blocks=[2] char=32003\nideal I = x[1,1]\n{command}\n",
        capture_output=True, text=True, env=process_env(), timeout=60)
    assert done.returncode == code, done.stderr
    payload = json.loads(done.stdout)
    assert payload["schema"] == 1 and payload["blocks"] == [2]
    assert [r["verdict"] for r in payload["reports"]] == verdicts


@pytest.mark.parametrize("flags", [["--json"], []])
def test_cli_process_exits_141_when_stdout_closes_early(flags):
    # the reader of stdout is gone before the script is even read, so the
    # first write or flush to stdout meets a broken pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "multigb.cli", "-", *flags],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=process_env())
    proc.stdout.close()
    try:
        _, err = proc.communicate(
            "ring v=2 blocks=[2,2] char=7\nideal I = x[1,1]*x[2,1]\n"
            "cs I expect=yes\nclosure I\n", timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 141, err
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_cli_informational_commands_do_not_fail(tmp_path, capsys):
    text = ("ring v=2 blocks=[2,2] char=32003\n"
            "ideal I = x[1,1], x[1,2]\n"
            "csstar I\n"
            "hilbert I\n"
            "radical I\n"
            "borel I\n"
            "gin I seed=2\n")
    assert run_cli(tmp_path, text) == 0
    out = capsys.readouterr().out
    assert "[csstar] I: no" in out


def test_cli_undefined_name(tmp_path, capsys):
    text = "ring v=1 blocks=[2] char=32003\ngb K\n"
    assert run_cli(tmp_path, text) == 2
    assert "undefined name" in capsys.readouterr().err


def test_cli_out_of_range_variable(tmp_path, capsys):
    text = ("ring v=1 blocks=[2] char=32003\n"
            "poly f = x[3,1]\n")
    assert run_cli(tmp_path, text) == 2


@pytest.mark.parametrize("block", [0, 3])
def test_cli_eliminate_block_out_of_range_exit_2(tmp_path, capsys, block):
    text = ("ring v=2 blocks=[2,3] char=32003\n"
            "ideal I = x[1,1]*x[2,1], x[1,2]*x[2,3]\n"
            f"ideal J = eliminate(I, {block})\n")
    assert run_cli(tmp_path, text) == 2
    assert "block" in capsys.readouterr().err


def test_cli_colon_prints_monic_generators(tmp_path, capsys):
    text = ("ring v=1 blocks=[2] char=32003\n"
            "ideal I = x[1,1]^2\n"
            "colon I 3\n")
    assert run_cli(tmp_path, text, "--json") == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["evidence"]["generators"] == ["x[1,1]^2"]


def test_cli_linear_colon_generates_the_elimination_colon(tmp_path, capsys):
    text = ("ring v=2 blocks=[2,2] char=32003\n"
            "ideal I = x[1,1]^2*x[2,2] - x[1,2]^2*x[2,1], "
            "x[1,1]*x[1,2]*x[2,1]\n"
            "colon I 2*x[1,1] + 5*x[1,2]\n")
    assert run_cli(tmp_path, text, "--json") == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    R = BlockRing((2, 2))
    printed = [parsed_poly(g, R) for g in report["evidence"]["generators"]]
    assert all(g == g.monic() for g in printed)
    I = Ideal(R, [parsed_poly("x[1,1]^2*x[2,2] - x[1,2]^2*x[2,1]", R),
                  parsed_poly("x[1,1]*x[1,2]*x[2,1]", R)])
    L = parsed_poly("2*x[1,1] + 5*x[1,2]", R)
    meet = I.intersect(Ideal(R, [L]))
    by_elimination = Ideal(R, [exact_divide(g, L) for g in meet.gens])
    assert Ideal(R, printed).equals(by_elimination)
    assert not by_elimination.equals(I)


def test_cli_resource_limit_exit_code(tmp_path, capsys):
    text = ("ring v=3 blocks=[3,3,3] char=32003\n"
            "matrix X rowgraded 3 x 3 {\n"
            "  x[1,1], x[1,2], x[1,3] ;\n"
            "  x[2,1], x[2,2], x[2,3] ;\n"
            "  x[3,1], x[3,2], x[3,3]\n"
            "}\n"
            "ideal I = minors(X, 2)\n"
            "gb I\n")
    assert run_cli(tmp_path, text, "--max-basis", "2") == 3
    err = capsys.readouterr().err
    assert "basis size" in err and "pending pairs" in err and "degree" in err


def test_cli_parse_error_exit_code(tmp_path, capsys):
    assert run_cli(tmp_path, "ring v=1 blocks=[1]\n") == 2


def test_cli_missing_file(capsys):
    assert main(["/nonexistent/path.mgb"]) == 2


def test_cli_bad_ring(tmp_path, capsys):
    text = "ring v=1 blocks=[2] char=15\n"
    assert run_cli(tmp_path, text) == 2


def test_cli_json_schema(tmp_path, capsys):
    text = ("ring v=2 blocks=[2,2] char=32003\n"
            "ideal I = x[1,1]*x[2,1]\n"
            "cs I expect=yes\n"
            "csstar I\n"
            "member I x[1,1]*x[2,1]*x[2,2] expect=yes\n")
    assert run_cli(tmp_path, text, "--json", "--seed", "5") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["characteristic"] == 32003
    assert payload["blocks"] == [2, 2]
    reports = payload["reports"]
    assert [r["command"] for r in reports] == ["cs", "csstar", "member"]
    cs_rep, star_rep, member_rep = reports
    assert cs_rep["asserted"] and cs_rep["passed"]
    assert not star_rep["asserted"]
    assert member_rep["passed"]
    for r in reports:
        assert set(r) >= {"command", "inputs", "verdict", "evidence",
                          "seeds", "orders", "timings", "asserted", "passed"}
        assert "ms" in r["timings"]


def test_cli_json_deterministic_modulo_timings(tmp_path, capsys):
    text = ("ring v=2 blocks=[2,2] char=32003\n"
            "ideal I = x[1,1]*x[2,2] - x[1,2]*x[2,1]\n"
            "gin I seed=3\n"
            "cs I expect=yes\n")

    def scrubbed():
        assert run_cli(tmp_path, text, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        for r in payload["reports"]:
            r["timings"] = {}
        return payload

    assert scrubbed() == scrubbed()


def test_cli_borel_fixed_monomial_input_runs_no_gin_trials(tmp_path, capsys):
    # a Borel-fixed monomial ideal is its own gin, so the gin command runs
    # no trial and reports no seed; cs and csstar never run trials, and
    # their evidence is the criterion and, on "yes", the gin read off the
    # Hilbert series
    text = ("ring v=2 blocks=[2,2] char=32003\n"
            "ideal I = x[1,1]^2*x[2,1], x[1,1]*x[1,2]*x[2,1]\n"
            "ideal J = x[1,1]*x[2,1]\n"
            "gin I\n"
            "cs I expect=no\n"
            "csstar I expect=no\n"
            "gin J\n"
            "cs J expect=yes\n"
            "csstar J expect=yes\n")
    assert run_cli(tmp_path, text, "--json", "--seed", "7") == 0
    gin_i, cs_i, star_i, gin_j, cs_j, star_j = json.loads(
        capsys.readouterr().out)["reports"]
    assert gin_i["evidence"]["generators"] == ["x[1,1]*x[1,2]*x[2,1]",
                                               "x[1,1]^2*x[2,1]"]
    assert gin_j["evidence"]["generators"] == ["x[1,1]*x[2,1]"]
    for r in (gin_i, gin_j):
        assert r["verdict"] == "computed" and r["seeds"] == []
    for r in (cs_i, cs_j, star_i, star_j):
        assert r["seeds"] == [7] and r["orders"] == []
        assert r["evidence"]["criterion"]
    assert set(cs_i["evidence"]) == {"criterion", "expected"}
    assert cs_j["evidence"]["gin_generators"] == ["x[1,1]*x[2,1]"]
    assert "gin_generators" not in star_i["evidence"]
    assert star_j["evidence"]["gin_generators"] == ["x[1,1]*x[2,1]"]
    # the linear-section criterion is checked on request, not per verdict
    for r in (star_i, star_j):
        assert "regular_sequence_test" not in r["evidence"]


def test_cli_order_flag(tmp_path, capsys):
    text = ("ring v=1 blocks=[2] char=32003\n"
            "ideal I = x[1,1]^2 - x[1,2]^3\n"
            "gb I\n")
    assert run_cli(tmp_path, text, "--order", "lex") == 0
    assert run_cli(tmp_path, text, "--order", "weight:3,1") == 0
    assert run_cli(tmp_path, text, "--order", "weight:bad") == 2
    assert run_cli(tmp_path, text, "--order", "weight:1,3") == 2


@pytest.mark.parametrize("order", ["foo", "weight:0,1,1,1", "weight:3,2,1",
                                   "weight:1,2,1,1"])
def test_cli_bad_order_flag_exits_2_before_any_command(tmp_path, capsys,
                                                       order):
    # an unknown name, a weight that is not positive, too few weights, and
    # weights that break x[1,1] > x[1,2]; hilbert never reads an order
    text = ("ring v=2 blocks=[2,2] char=32003\n"
            "ideal I = x[1,1]*x[2,1]\n"
            "hilbert I\n")
    assert run_cli(tmp_path, text, "--order", order) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_cli_ugb_and_bounds_and_closure(tmp_path, capsys):
    text = ("ring v=3 blocks=[2,2,2] char=32003\n"
            "matrix A colgraded 2 x 3 {\n"
            "  x[1,1], x[2,1], x[3,1] ;\n"
            "  x[1,2], x[2,2], x[3,2]\n"
            "}\n"
            "ideal I = minors(A, 2)\n"
            "ugb I orders=10\n"
            "bounds I le [1,1,1] orders=5\n"
            "closure I x[1,2]\n"
            "main-theorem A orders=5\n")
    assert run_cli(tmp_path, text, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    for r in payload["reports"]:
        assert r["asserted"]
        assert r["passed"], r
    assert [r["command"] for r in payload["reports"]] == \
        ["ugb", "bounds", "closure", "main-theorem"]


def test_cli_ugb_of_inhomogeneous_ideal(tmp_path, capsys):
    # the candidates have no multidegree; the report says so instead of
    # ending in a traceback, and lex with x[1,1] first needs a new lead
    text = ("ring v=2 blocks=[2,2] char=32003\n"
            "ideal I = x[1,1]^2 - x[2,1], x[1,2]*x[2,2] - x[1,1]\n"
            "ugb I orders=3\n")
    assert run_cli(tmp_path, text, "--json") == 1
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["verdict"] == "fail"
    assert report["evidence"]["candidate_degrees"] == [None, None]
    assert report["evidence"]["failures"]


def test_cli_dual_polarize_minors_commands(tmp_path, capsys):
    text = ("ring v=2 blocks=[2,2] char=32003\n"
            "matrix X rowgraded 2 x 2 { x[1,1], x[1,2] ; x[2,1], x[2,2] }\n"
            "minors X 2\n"
            "ideal M = x[1,1]*x[2,1]\n"
            "dual M\n"
            "ideal P = x[1,1]^2\n"
            "polarize P\n"
            "intersect M P\n"
            "colon M x[2,1]\n")
    assert run_cli(tmp_path, text) == 0
    out = capsys.readouterr().out
    assert "[minors] X 2: computed" in out
    assert "[dual] M: computed" in out


def test_cli_stdin(tmp_path, capsys, monkeypatch):
    text = "ring v=1 blocks=[2] char=32003\nideal I = x[1,1]\nmember I x[1,1] expect=yes\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["-"]) == 0


TINY = "ring v=1 blocks=[2] char=32003\nideal I = x[1,1]^2 - x[1,2]^3\n"


@pytest.mark.parametrize("command", [
    "gin I trials=0", "cs I trials=0", "csstar I trials=0",
    "gb I order=weight:1,5",
])
def test_cli_invalid_command_options_exit_2(tmp_path, capsys, command):
    assert run_cli(tmp_path, TINY + command + "\n") == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "gin I seed=abc", "gin I trials=abc", "ugb I orders=abc",
    "bounds I orders=[3]", "ugb I seed=[1,2]", "gin I trials=weight:1,2",
    "bounds I seed=x",
])
def test_cli_non_integer_count_options_exit_2(tmp_path, capsys, command):
    assert run_cli(tmp_path, TINY + command + "\n") == 2
    assert "takes an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cs I", "csstar I", "closure I"])
def test_cli_family_verdicts_of_an_inhomogeneous_ideal_exit_2(tmp_path, capsys,
                                                              command):
    # the verdicts read the multigraded Hilbert series, which TINY lacks
    assert run_cli(tmp_path, TINY + command + "\n") == 2
    assert "multigraded" in capsys.readouterr().err

def test_cli_unknown_option_exit_2(tmp_path, capsys):
    assert run_cli(tmp_path, TINY + "gb I ordr=lex\n") == 2
    assert "unknown option ordr=" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    ("hilbert I expect=no", "expect"), ("gb I bound=[9,9] seed=4", "bound"),
    ("ugb I order=lex orders=3", "order"), ("closure I orders=3", "orders"),
    ("member I x[1,1] seed=1", "seed"), ("cs I seed=1", "seed"),
    ("csstar I trials=2", "trials"), ("closure I seed=x", "seed"),
])
def test_cli_option_the_command_never_reads_exit_2(tmp_path, capsys, command,
                                                   key):
    assert run_cli(tmp_path, TINY + command + "\n") == 2
    name = command.split()[0]
    assert f"line 3, col {command.index(key) + 1}: unknown option {key}= " \
        f"for {name}" in capsys.readouterr().err


def test_cli_main_theorem_reads_orders(tmp_path, capsys):
    text = ("ring v=2 blocks=[2,2] char=32003\n"
            "matrix A colgraded 2 x 2 { x[1,1], x[2,1] ; x[1,2], x[2,2] }\n"
            "main-theorem A orders=2 seed=1\n")
    assert run_cli(tmp_path, text) == 0
    assert run_cli(tmp_path, text.replace("seed=1", "trials=1")) == 2
    capsys.readouterr()
    # without orders=, the command samples verify_main_theorem's default
    assert run_cli(tmp_path, text.replace("orders=2 ", ""), "--json") == 0
    report = json.loads(capsys.readouterr().out)["reports"][-1]
    assert report["orders"] == ["25 sampled"]
    assert report["evidence"]["orders"] == 25


@pytest.mark.parametrize("flags", [
    ("--trials", "0"), ("--max-basis", "0"), ("--max-basis", "-1"),
])
def test_cli_invalid_count_flags_exit_2(tmp_path, capsys, flags):
    assert run_cli(tmp_path, TINY + "gin I\n", *flags) == 2
    assert "error:" in capsys.readouterr().err


BOUNDS = ("ring v=2 blocks=[2,2] char=32003\n"
          "ideal I = x[1,1]^2*x[2,1]^2, x[1,2]*x[2,2]\n")


@pytest.mark.parametrize("command", ["bounds I bound=[2,2] orders=2",
                                     "bounds I [2,2] orders=2"])
def test_cli_bounds_reads_either_bound_form(tmp_path, capsys, command):
    assert run_cli(tmp_path, BOUNDS + command + "\n", "--json") == 0
    report = json.loads(capsys.readouterr().out)["reports"][-1]
    assert report["verdict"] == "pass"
    assert report["evidence"]["bound"] == [2, 2]


@pytest.mark.parametrize("command", [
    "bounds I [2,2] bound=[2,2]", "bounds I [2,2] [1,1]", "bounds I bound=[2]",
    "bounds I bound=2", "bounds I bound=le", "bounds I eqq [2,2]",
    "bounds I le eq", "bounds I eq eq", "bounds I [2,2] x[1,1]",
])
def test_cli_bounds_rejects_bad_bounds(tmp_path, capsys, command):
    assert run_cli(tmp_path, BOUNDS + command + "\n") == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bounds_of_an_inhomogeneous_ideal_exit_2(tmp_path, capsys):
    text = ("ring v=2 blocks=[2,2] char=32003\n"
            "ideal I = x[1,1]*x[2,1] - x[1,2], x[1,2]*x[2,2]\n"
            "bounds I [1,1]\n")
    assert run_cli(tmp_path, text) == 2
    assert "degree bound check needs multigraded" in capsys.readouterr().err


# I an ideal, f a polynomial and A a matrix, on lines 2-4
SESSION = ("ring v=2 blocks=[2,2] char=32003\n"
           "matrix A colgraded 2 x 2 { x[1,1], x[2,1] ; x[1,2], x[2,2] }\n"
           "ideal I = x[1,1]*x[2,1], x[1,2]\n"
           "poly f = x[2,2]\n")
# the most positional arguments each command takes
MOST_ARGS = {
    "gb": "I", "gin": "I", "hilbert": "I", "radical": "I", "borel": "I",
    "dual": "I", "polarize": "I", "minors": "A 2", "cs": "I", "csstar": "I",
    "ugb": "I", "closure": "I x[1,2]", "bounds": "I le [1,1]",
    "main-theorem": "A", "colon": "I f", "intersect": "I I", "member": "I f",
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_extra_argument_exit_2(tmp_path, capsys, command):
    args = MOST_ARGS[command]
    (cmd,) = commands_of(parse(SESSION + f"{command} {args}\n"))
    assert len(cmd.args) == COMMANDS[command][1]
    assert run_cli(tmp_path, SESSION + f"{command} {args} x[1,1]\n") == 2
    assert "line 5" in capsys.readouterr().err
    with pytest.raises(ScriptError, match="line 5"):
        parse(SESSION + f"{command}\n")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_every_command_reports_a_verdict_in_plain_json(tmp_path, capsys,
                                                           monkeypatch,
                                                           command):
    dumped = []
    dump = json.dump
    monkeypatch.setattr(json, "dump", lambda obj, fp, **kwargs: (
        dumped.append(obj), dump(obj, fp, **kwargs)))
    text = SESSION + f"{command} {MOST_ARGS[command]}\n"
    assert run_cli(tmp_path, text, "--json") == 0
    (payload,) = dumped
    (report,) = payload["reports"]
    assert report["command"] == command and report["verdict"] is not None
    # every value is JSON-native: no default= is needed to write it
    assert json.loads(json.dumps(payload)) == \
        json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("statement, message", [
    ("gb I order=foo", "unknown order 'foo'"),
    ("member I minors(I, 2)", "cannot evaluate minors(I, 2) as a polynomial"),
    ("member I [1,2]", "cannot evaluate [1,2] as a polynomial"),
    ("main-theorem x[1,1]", "expected a matrix name, found x[1,1]"),
    ("ideal J = minors(A, x[1,1])",
     "minors needs an integer second argument, found x[1,1]"),
    ("42", "expected a statement, found '42'"),
    ("gb I order=(", "expected an option value, found '('"),
])
def test_cli_misplaced_values_exit_2(tmp_path, capsys, statement, message):
    assert run_cli(tmp_path, SESSION + statement + "\n") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 5") and message in err


def test_cli_report_inputs_name_calls_and_polynomials(tmp_path, capsys):
    text = SESSION + "member sum(I, f) x[1,1]*x[2,1] + f\n"
    assert run_cli(tmp_path, text, "--json") == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["inputs"] == ["sum(I, f)", "<polynomial>"]
    assert report["verdict"] == "yes"


@pytest.mark.parametrize("expr, text", [
    ("x[1,2]", "x[1,2]"), ("(x[1,2])", "x[1,2]"), ("((f))", "f"),
    ("(7)", "7"), ("x[1,2]^1", "<polynomial>"),
    ("(-x[1,2])", "<polynomial>"), ("(--x[1,2])", "<polynomial>"),
    ("x[1,2]*1", "<polynomial>"),
])
def test_cli_report_inputs_name_only_a_lone_unsigned_atom(tmp_path, capsys,
                                                           expr, text):
    assert run_cli(tmp_path, SESSION + f"member I {expr}\n", "--json") == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["inputs"] == ["I", text]


def test_cli_script_without_a_trailing_newline(tmp_path, capsys):
    assert run_cli(tmp_path, SESSION + "member I x[1,2] expect=yes") == 0
    assert capsys.readouterr().out == "[member] I x[1,2]: yes (ok)\n"


def test_cli_internal_consistency_failure_exits_1(tmp_path, capsys,
                                                  monkeypatch):
    def broken(I):
        raise InternalConsistencyError("criteria disagree")

    monkeypatch.setattr("multigb.cli.is_cs", broken)
    assert run_cli(tmp_path, SESSION + "gb I\ncs I\n", "--json") == 1
    out, err = capsys.readouterr()
    assert "internal consistency failure: criteria disagree" in err
    assert [r["command"] for r in json.loads(out)["reports"]] == ["gb"]


@pytest.mark.parametrize("statement", [
    "ideal J = sum(I)", "ideal J = colon(I, f, f)", "gb intersect(I, I, I)",
])
def test_cli_call_needs_two_arguments(tmp_path, capsys, statement):
    assert run_cli(tmp_path, SESSION + statement + "\n") == 2
    assert "takes 2 arguments" in capsys.readouterr().err


@pytest.mark.parametrize("ideal", ["f", "x[2,2]", "sum(f, 0)"])
def test_cli_polynomial_stands_for_its_principal_ideal(tmp_path, capsys,
                                                       ideal):
    text = SESSION + f"ideal J = {ideal}\ngb {ideal}\ngb J\n"
    assert run_cli(tmp_path, text, "--json") == 0
    by_argument, by_definition = json.loads(capsys.readouterr().out)["reports"]
    assert by_argument["evidence"] == by_definition["evidence"]
    assert by_argument["evidence"]["generators"] == ["x[2,2]"]


@pytest.mark.parametrize("statement", [
    "gb A", "colon A f", "intersect I A", "member A f", "bounds A",
    "ideal J = A", "ideal J = sum(I, A)", "ideal J = eliminate(A, 1)",
])
def test_cli_matrix_in_ideal_position_exit_2(tmp_path, capsys, statement):
    assert run_cli(tmp_path, SESSION + statement + "\n") == 2
    assert "'A' is a matrix, expected an ideal or a polynomial" in \
        capsys.readouterr().err


def test_cli_ugb_rejects_more_orders_than_weights(tmp_path, capsys):
    # a one-variable ring has only 1000 weight orders (weights 1..1000)
    text = "ring v=1 blocks=[1] char=32003\nideal I = x[1,1]^2\n"
    assert run_cli(tmp_path, text + "ugb I orders=1001\n") == 2
    assert "n_weight" in capsys.readouterr().err


def test_cli_max_basis_caps_a_monomial_reduced_basis(tmp_path, capsys):
    # four generators, three of them minimal: the cap applies to the
    # reduced basis, which a monomial ideal reads off without a run
    text = ("ring v=2 blocks=[2,2] char=32003\n"
            "ideal I = x[1,1]^3*x[2,2], 4*x[1,1]^2, x[1,1]*x[2,1], x[1,2]\n"
            "gb I\n")
    assert run_cli(tmp_path, text, "--max-basis", "2", "--json") == 3
    aborted = json.loads(capsys.readouterr().out)["reports"][-1]
    assert aborted["verdict"] == "aborted"
    assert aborted["evidence"]["basis_size"] == 3
    assert aborted["evidence"]["pending_pairs"] == 0
    assert run_cli(tmp_path, text, "--max-basis", "3", "--json") == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["evidence"]["generators"] == [
        "x[1,1]^2", "x[1,1]*x[2,1]", "x[1,2]"]


def test_cli_max_basis_caps_the_working_basis(tmp_path, capsys):
    # the cap is on the elements a run enters.  These generators have no
    # multigrading, so the run files by sugar alone and enters
    # x[1,1]*x[2,1]*x[2,2] before x[1,1]*x[2,2], which divides it: a cap of
    # 3 aborts at 4 elements although the reduced basis has 3
    text = ("ring v=2 blocks=[2,2] char=7\n"
            "ideal I = x[1,1]*x[1,2]*x[2,1] + x[1,1], x[2,1]^2*x[2,2]\n"
            "gb I\n")
    assert run_cli(tmp_path, text, "--max-basis", "3", "--json") == 3
    aborted = json.loads(capsys.readouterr().out)["reports"][-1]
    assert aborted["verdict"] == "aborted"
    assert aborted["evidence"]["basis_size"] == 4
    assert run_cli(tmp_path, text, "--max-basis", "4", "--json") == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["evidence"]["size"] == 3
    # a multihomogeneous run enters only leads that no other lead divides,
    # since a divisor's multidegree lies below and is visited first: the
    # first generator reduces to zero modulo x[1,1]^2 and x[1,2], and the
    # cap of 3 holds the reduced basis
    text = ("ring v=2 blocks=[2,2] char=7\n"
            "ideal I = x[1,1]^3*x[2,2] + x[1,2]^3*x[2,2], x[1,1]^2, "
            "x[1,1]*x[2,1], x[1,2]\n"
            "gb I\n")
    assert run_cli(tmp_path, text, "--max-basis", "3", "--json") == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["evidence"]["size"] == 3


def test_cli_resource_limit_json_ends_with_aborted_report(tmp_path, capsys):
    text = ("ring v=2 blocks=[3,3] char=32003\n"
            "matrix X rowgraded 2 x 3 {\n"
            "  x[1,1], x[1,2], x[1,3] ;\n"
            "  x[2,1], x[2,2], x[2,3]\n"
            "}\n"
            "ideal I = minors(X, 2)\n"
            "minors X 2\n"
            "gb I\n"
            "cs I\n")
    assert run_cli(tmp_path, text, "--max-basis", "2", "--json") == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert [r["command"] for r in payload["reports"]] == ["minors", "gb"]
    aborted = payload["reports"][-1]
    assert aborted["verdict"] == "aborted"
    assert aborted["inputs"] == ["I"]
    assert not aborted["passed"]
    evidence = aborted["evidence"]
    assert set(evidence) == {"error", "basis_size", "pending_pairs", "degree"}
    assert evidence["basis_size"] == 3
    assert evidence["pending_pairs"] >= 0 and evidence["degree"] >= 2
    assert "basis size 3" in evidence["error"]


def test_cli_main_theorem_obeys_max_basis(tmp_path, capsys):
    # both ideals verify_main_theorem builds carry the session's limits
    text = ("ring v=3 blocks=[2,2,2] char=32003\n"
            "matrix A colgraded 2 x 3 {\n"
            "  x[1,1], x[2,1], x[3,1] ;\n"
            "  x[1,2], x[2,2], x[3,2]\n"
            "}\n"
            "main-theorem A orders=3\n")
    assert run_cli(tmp_path, text, "--max-basis", "1", "--json") == 3
    aborted = json.loads(capsys.readouterr().out)["reports"][-1]
    assert aborted["command"] == "main-theorem"
    assert aborted["verdict"] == "aborted"
    assert aborted["asserted"] and not aborted["passed"]
    assert {"basis_size", "pending_pairs", "degree"} <= set(
        aborted["evidence"])


def test_cli_bounds_obeys_max_basis(tmp_path, capsys):
    # the minor ideal has the series of the generic matrix, so the first
    # run that grows a basis is a truncated run of the bound check
    text = ("ring v=3 blocks=[2,2,2] char=32003\n"
            "matrix A colgraded 2 x 3 {\n"
            "  x[1,1], x[2,1], x[3,1] ;\n"
            "  x[1,2], x[2,2], x[3,2]\n"
            "}\n"
            "ideal J = minors(A, 2)\n"
            "bounds J [2,2,2]\n")
    assert run_cli(tmp_path, text, "--max-basis", "3", "--json") == 0
    capsys.readouterr()
    assert run_cli(tmp_path, text, "--max-basis", "2", "--json") == 3
    aborted = json.loads(capsys.readouterr().out)["reports"][-1]
    assert aborted["command"] == "bounds"
    assert aborted["verdict"] == "aborted"
    assert aborted["asserted"] and not aborted["passed"]
    evidence = aborted["evidence"]
    assert set(evidence) == {"error", "basis_size", "pending_pairs", "degree"}
    assert (evidence["basis_size"], evidence["degree"]) == (3, 2)


def test_cli_resource_limit_in_definition_ends_with_aborted_report(
        tmp_path, capsys):
    text = ("ring v=3 blocks=[3,3,3] char=32003\n"
            "matrix X rowgraded 3 x 3 {\n"
            "  x[1,1], x[1,2], x[1,3] ;\n"
            "  x[2,1], x[2,2], x[2,3] ;\n"
            "  x[3,1], x[3,2], x[3,3]\n"
            "}\n"
            "ideal I = minors(X, 2)\n"
            "minors X 2\n"
            "ideal J = colon(I, x[1,1])\n"
            "gb J\n")
    assert run_cli(tmp_path, text, "--max-basis", "2", "--json") == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert [r["command"] for r in payload["reports"]] == ["minors", "colon"]
    aborted = payload["reports"][-1]
    assert aborted["verdict"] == "aborted"
    assert aborted["inputs"] == ["I", "x[1,1]"]
    assert not aborted["asserted"] and not aborted["passed"]
    evidence = aborted["evidence"]
    assert set(evidence) == {"error", "basis_size", "pending_pairs", "degree"}
    assert evidence["basis_size"] <= 3
    assert f"basis size {evidence['basis_size']}" in evidence["error"]



@pytest.mark.parametrize("option, asserted", [(" expect=yes", True),
                                              ("", False)])
def test_cli_aborted_command_asserts_as_it_would_have_finished(
        tmp_path, capsys, option, asserted):
    # cs asserts only when given expect=, whether it finishes or aborts;
    # finished, the verdict is no, so expect=yes fails
    text = ("ring v=1 blocks=[3] char=32003\n"
            "ideal I = x[1,1]^2 + x[1,2]*x[1,3], x[1,2]^2 + x[1,1]*x[1,3], "
            "x[1,3]^2 + x[1,1]*x[1,2]\n"
            f"cs I{option}\n")
    assert run_cli(tmp_path, text, "--max-basis", "2", "--json") == 3
    aborted = json.loads(capsys.readouterr().out)["reports"][-1]
    assert aborted["command"] == "cs"
    assert aborted["verdict"] == "aborted"
    assert aborted["asserted"] is asserted and aborted["passed"] is False
    assert run_cli(tmp_path, text, "--json") == (1 if asserted else 0)
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["verdict"] == "no" and report["asserted"] is asserted

# -- robustness: mutated scripts -----------------------------------------------

VALID_SCRIPTS = [
    TINY + "gb I order=lex\ngin I trials=2 seed=1\n",
    "ring v=2 blocks=[2,1] char=101\n"
    "poly f = x[1,2]\n"
    "ideal I = x[1,1]*x[2,1], x[1,2]^2\n"
    "cs I expect=yes\n"
    "gin I trials=2\n"
    "member I x[1,1]*x[2,1] expect=yes\n"
    "colon I f\n",
    "ring v=2 blocks=[2,2] char=101\n"
    "matrix A rowgraded 2 x 2 { x[1,1], x[1,2] ; x[2,1], x[2,2] }\n"
    "ideal I = minors(A, 2)\n"
    "hilbert I\n"
    "csstar I\n"
    "gin I trials=1\n",
]
# Whitespace runs are kept as pieces so that "".join(pieces) is the script.
PIECES = re.compile(r"\s+|\d+|\w+|[^\w\s]")
# "Large" is bounded: nothing guards ring size or trial counts, and a block
# of 40 variables with 40 gin trials already takes a few seconds.
INTEGER_REPLACEMENTS = ["0", "-1", "40"]
OPTION_REPLACEMENTS = ["abc", "[1,2]"]


@st.composite
def mutated_scripts(draw):
    pieces = PIECES.findall(draw(st.sampled_from(VALID_SCRIPTS)))
    for _ in range(draw(st.integers(1, 3))):
        tokens = [k for k, piece in enumerate(pieces) if piece.strip()]
        k = draw(st.sampled_from(tokens))
        mutation = draw(st.sampled_from(["drop", "duplicate", "integer",
                                         "option"]))
        if mutation == "drop":
            pieces[k] = ""
        elif mutation == "duplicate":
            pieces[k] = f"{pieces[k]} {pieces[k]}"
        elif mutation == "integer":
            integers = [j for j, piece in enumerate(pieces)
                        if piece.isdigit()]
            pieces[draw(st.sampled_from(integers))] = draw(
                st.sampled_from(INTEGER_REPLACEMENTS))
        else:
            # an integer option value becomes an identifier or a vector
            values = [j for j, piece in enumerate(pieces)
                      if piece.isdigit() and pieces[j - 1] == "="]
            pieces[draw(st.sampled_from(values))] = draw(
                st.sampled_from(OPTION_REPLACEMENTS))
    return "".join(pieces)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutated_scripts())
@example(TINY + "gin I trials=0\n")
@example(TINY + "gin I seed=abc\n")
def test_cli_mutated_scripts_never_raise(text):
    with mock.patch("sys.stdin", io.StringIO(text)):
        assert main(["-"]) in (0, 1, 2, 3)


def test_cli_gb_of_a_huge_power(tmp_path, capsys):
    text = "ring v=1 blocks=[2] char=32003\nideal I = x[1,1]^40000\ngb I\n"
    assert run_cli(tmp_path, text) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["  x[1,1]^40000"]


# -- the front end on long and deeply nested input -------------------------------

def run_process(text, *flags):
    """Run ``multigb.cli`` in a new process on ``text`` fed through stdin;
    whatever the exit code, nothing may end in a traceback."""
    done = subprocess.run([sys.executable, "-m", "multigb.cli", "-", *flags],
                          input=text, capture_output=True, text=True,
                          env=process_env(), timeout=120)
    assert "Traceback" not in done.stderr, done.stderr
    return done


def test_cli_a_printed_maximal_minor_parses_back():
    # a column-graded 5x5 maximal minor with blocks of 5 has 5^5 terms
    A = build_column_graded(5, (5,) * 5, seed=0)
    (f,) = minors(A, 5)
    assert len(f) == 3125
    assert parsed_poly(str(f), A.ring) == f
    done = run_process("ring v=5 blocks=[5,5,5,5,5] char=32003\n"
                       f"poly f = {f}\nideal I = f\ngb I\n", "--json")
    assert done.returncode == 0, done.stderr
    (report,) = json.loads(done.stdout)["reports"]
    assert report["evidence"]["generators"] == [str(f.monic())]


@pytest.mark.parametrize("expr, printed", [
    ("*".join(["x[1,1]"] * 2000), "x[1,1]^2000"),
    ("-" * 2000 + "x[1,2]", "x[1,2]"),
    ("-" * 2001 + "x[1,2]", "x[1,2]"),
])
def test_cli_long_products_and_sign_runs(expr, printed):
    done = run_process(f"ring v=1 blocks=[2] char=32003\nideal I = {expr}\n"
                       "gb I\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1:] == [f"  {printed}"]


@pytest.mark.parametrize("expr, message", [
    ("x[1,1]^²", "expected an integer, found '²'"),
    ("(" * 3000 + "x[1,1]" + ")" * 3000,
     "line 2: expression nested too deeply"),
])
def test_cli_bad_expressions_exit_2(expr, message):
    done = run_process(f"ring v=1 blocks=[2] char=32003\npoly f = {expr}\n")
    assert done.returncode == 2
    assert message in done.stderr


def test_cli_deeply_nested_calls_exit_2(tmp_path, capsys):
    text = ("ring v=1 blocks=[2] char=32003\nideal I = "
            + "sum(" * 3000 + "x[1,1]" + ", 0)" * 3000 + "\n")
    assert run_cli(tmp_path, text) == 2
    assert "nested too deeply" in capsys.readouterr().err


P18 = 10 ** 18 + 9  # prime, and P18 - 2 is not


@pytest.mark.parametrize("char, flags, code", [
    (P18, (), 0),
    (101, ("--char", str(P18)), 0),
    (P18 - 2, (), 2),
    (101, ("--char", str(P18 - 2)), 2),
    (2 ** 61 - 1, (), 0),
    (3317044064679887385961981, (), 2),
])
def test_cli_large_characteristics_are_decided_at_once(tmp_path, capsys,
                                                       char, flags, code):
    started = time.perf_counter()
    text = (f"ring v=1 blocks=[2] char={char}\n"
            "ideal I = x[1,1]^2 - 3*x[1,2]^2\ngb I\n")
    assert run_cli(tmp_path, text, *flags) == code
    assert time.perf_counter() - started < 1
    if code == 2:
        assert "characteristic" in capsys.readouterr().err


def test_cli_minors_call_reads_the_series_off_the_generic_matrix(
        tmp_path, capsys, monkeypatch):
    # the columns have independent entries in blocks of sizes 2, 3 and 2,
    # so the minors' series is read off the generic 2 x 3 matrix with no
    # Buchberger run; the reports match those of the same ideal written out
    # by its generators, whose series takes a run
    runs = []
    original = groebner._reduced_basis_raw
    monkeypatch.setattr(groebner, "_reduced_basis_raw",
                        lambda gens, *rest, **kw: runs.append(gens)
                        or original(gens, *rest, **kw))
    head = ("ring v=3 blocks=[2,3,2] char=32003\n"
            "matrix A colgraded 2 x 3 {\n"
            "  x[1,1], x[2,1] + x[2,3], x[3,2] ;\n"
            "  x[1,2], x[2,2], x[3,1]\n"
            "}\n")
    assert run_cli(tmp_path, head + "minors A 2\n", "--json") == 0
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    gens = ", ".join(report["evidence"]["minors"])
    reports, counts = {}, {}
    for source in ("minors(A, 2)", gens):
        for tail in ("hilbert I\n", "cs I expect=yes\n"):
            runs.clear()
            assert run_cli(tmp_path, f"{head}ideal I = {source}\n{tail}",
                           "--json") == 0
            (r,) = json.loads(capsys.readouterr().out)["reports"]
            r.pop("timings", None)
            reports[source, tail], counts[source, tail] = r, len(runs)
    assert counts["minors(A, 2)", "hilbert I\n"] == 0
    assert counts[gens, "hilbert I\n"] == 1
    for tail in ("hilbert I\n", "cs I expect=yes\n"):
        assert reports["minors(A, 2)", tail] == reports[gens, tail]
