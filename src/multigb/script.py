"""Batch-script language for the command-line interface.

Grammar (statements end at newline or ';' outside brackets; '#' comments):

    ring v=INT blocks=[INT,...] char=INT
    poly NAME = polyexpr
    ideal NAME = arg ("," arg)*
    matrix NAME (colgraded|rowgraded) INT x INT { row (";" row)* }
    command (arg | [INT,...])* (key=value)*

where arg is a call or a polyexpr, a row is comma-separated polyexprs and
a variable is written x[i,j].  A call is one of minors(M, t), colon(I, f),
intersect(I, J), sum(I, J), eliminate(I, b); each takes two arguments.
The commands and their positional arguments ([..] is optional) are

    gb I, gin I, hilbert I, radical I, borel I, dual I, polarize I,
    cs I, csstar I, ugb I, main-theorem M, minors M t, colon I f,
    intersect I J, member I f, closure I [L], bounds I [le|eq] [[b,...]]

and COMMANDS holds each one's fewest and most, and the option keys it
reads; a count outside that range, like a call with other than two
arguments, or an option the command does not read is a parse error.
Wherever an ideal is expected, commands and calls accept the same
arguments: the name of an ideal, a call, or a polynomial, which stands for
its principal ideal.  An ideal definition accepts the same, or a list of
two or more generator polyexprs.

Parsing builds an AST only; name resolution and ring checks happen at
execution time so every error can cite the statement's line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# command -> (fewest, most) positional arguments, and the options it reads
COMMANDS = {
    "gb": (1, 1, {"order"}), "gin": (1, 1, {"order", "trials", "seed"}),
    "hilbert": (1, 1, set()), "radical": (1, 1, set()),
    "borel": (1, 1, set()), "dual": (1, 1, set()), "polarize": (1, 1, set()),
    "minors": (2, 2, set()), "cs": (1, 1, {"expect"}),
    "csstar": (1, 1, {"expect"}),
    "ugb": (1, 1, {"orders", "seed"}), "closure": (1, 2, set()),
    "bounds": (1, 3, {"bound", "orders", "seed"}),
    "main-theorem": (1, 1, {"orders", "seed"}),
    "colon": (2, 2, set()), "intersect": (2, 2, set()),
    "member": (2, 2, {"expect"}),
}

CALL_NAMES = frozenset({"minors", "colon", "intersect", "sum", "eliminate"})

_SYMBOLS = set("=[]{}(),;*+-^:")


class ScriptError(Exception):
    """Syntax or semantic error with source location."""

    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}: {message}" if not col else
                         f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "IDENT" | "INT" | "SYM" | "END" | "EOF"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    """Token stream with statement separators resolved: newlines inside any
    bracketing are soft, ';' at bracket depth zero ends a statement."""
    raw = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            raw.append(Token("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            raw.append(Token("INT", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            raw.append(Token("IDENT", text[start:i], line, col))
            col += i - start
            continue
        if ch in _SYMBOLS:
            raw.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise ScriptError(f"unexpected character {ch!r}", line, col)

    out = []
    depth = 0
    for tok in raw:
        if tok.kind == "SYM" and tok.text in "([{":
            depth += 1
        elif tok.kind == "SYM" and tok.text in ")]}":
            depth = max(0, depth - 1)
        if tok.kind == "NEWLINE":
            if depth == 0:
                out.append(Token("END", ";", tok.line, tok.col))
            continue
        if tok.kind == "SYM" and tok.text == ";" and depth == 0:
            out.append(Token("END", ";", tok.line, tok.col))
            continue
        out.append(tok)
    last_line = raw[-1].line if raw else 1
    out.append(Token("EOF", "", last_line, 0))
    return out


# -- AST -----------------------------------------------------------------------

@dataclass(frozen=True)
class VarNode:
    block: int
    pos: int


@dataclass(frozen=True)
class IntNode:
    value: int


@dataclass(frozen=True)
class NameNode:
    name: str


@dataclass(frozen=True)
class OpNode:
    op: str  # "+", "-", "*", "^", "neg"
    args: tuple


@dataclass(frozen=True)
class CallNode:
    func: str
    args: tuple
    line: int


@dataclass(frozen=True)
class VectorNode:
    values: tuple


@dataclass
class RingDecl:
    v: int
    blocks: tuple
    characteristic: int
    line: int


@dataclass
class PolyDef:
    name: str
    expr: object
    line: int


@dataclass
class IdealDef:
    name: str
    expr: tuple  # one call-or-polynomial node, or generator poly nodes
    line: int


@dataclass
class MatrixDef:
    name: str
    grading: str  # "column" | "row"
    nrows: int
    ncols: int
    entries: list
    line: int


@dataclass
class Command:
    name: str
    args: list
    options: dict
    line: int


@dataclass
class SessionScript:
    ring: RingDecl
    statements: list = field(default_factory=list)

    @property
    def commands(self) -> list:
        return [s for s in self.statements if isinstance(s, Command)]


# -- parser --------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ScriptError(message, tok.line, tok.col)

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "SYM" or tok.text != sym:
            self.fail(f"expected {sym!r}, found {tok.text!r}")
        return self.advance()

    def expect_ident(self, word: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or (word is not None and tok.text != word):
            expected = word or "a name"
            self.fail(f"expected {expected!r}, found {tok.text!r}")
        return self.advance()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            self.fail(f"expected an integer, found {tok.text!r}")
        self.advance()
        return int(tok.text)

    def at_sym(self, sym: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == "SYM" and tok.text == sym

    def parse_list(self, item, sep: str = ",") -> list:
        """One or more ``item()`` results separated by ``sep``."""
        items = [item()]
        while self.at_sym(sep):
            self.advance()
            items.append(item())
        return items

    def end_statement(self):
        tok = self.peek()
        if tok.kind == "EOF":
            return
        if tok.kind != "END":
            self.fail(f"unexpected {tok.text!r} at end of statement")
        while self.peek().kind == "END":
            self.advance()

    # expression grammar: sum of products of powers of atoms

    def parse_poly(self):
        node = self.parse_term()
        while self.at_sym("+") or self.at_sym("-"):
            op = self.advance().text
            rhs = self.parse_term()
            node = OpNode(op, (node, rhs))
        return node

    def parse_term(self):
        if self.at_sym("-"):
            self.advance()
            return OpNode("neg", (self.parse_term(),))
        node = self.parse_power()
        while self.at_sym("*"):
            self.advance()
            node = OpNode("*", (node, self.parse_power()))
        return node

    def parse_power(self):
        base = self.parse_atom()
        if self.at_sym("^"):
            self.advance()
            exponent = self.expect_int()
            return OpNode("^", (base, IntNode(exponent)))
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return IntNode(int(tok.text))
        if tok.kind == "SYM" and tok.text == "(":
            self.advance()
            node = self.parse_poly()
            self.expect_sym(")")
            return node
        if tok.kind == "IDENT":
            if tok.text == "x" and self.at_sym("[", 1):
                self.advance()
                self.advance()
                block = self.expect_int()
                self.expect_sym(",")
                pos = self.expect_int()
                self.expect_sym("]")
                return VarNode(block, pos)
            self.advance()
            return NameNode(tok.text)
        self.fail(f"expected a polynomial, found {tok.text!r}")

    def parse_call(self) -> CallNode:
        tok = self.expect_ident()
        if tok.text not in CALL_NAMES:
            self.fail(f"unknown function {tok.text!r}", tok)
        self.expect_sym("(")
        args = [] if self.at_sym(")") else self.parse_list(self.parse_call_arg)
        self.expect_sym(")")
        if len(args) != 2:
            self.fail(f"{tok.text}() takes 2 arguments, found {len(args)}",
                      tok)
        return CallNode(tok.text, tuple(args), tok.line)

    def parse_call_arg(self):
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text in CALL_NAMES and self.at_sym("(", 1):
            return self.parse_call()
        return self.parse_poly()

    def parse_vector(self) -> VectorNode:
        self.expect_sym("[")
        values = self.parse_list(self.expect_int)
        self.expect_sym("]")
        return VectorNode(tuple(values))

    # statements

    def parse_ring(self) -> RingDecl:
        tok = self.expect_ident("ring")
        self.expect_ident("v")
        self.expect_sym("=")
        v = self.expect_int()
        self.expect_ident("blocks")
        self.expect_sym("=")
        blocks = self.parse_vector().values
        self.expect_ident("char")
        self.expect_sym("=")
        characteristic = self.expect_int()
        if len(blocks) != v:
            self.fail(f"declared v={v} but {len(blocks)} block sizes", tok)
        self.end_statement()
        return RingDecl(v, blocks, characteristic, tok.line)

    def parse_poly_def(self) -> PolyDef:
        tok = self.expect_ident("poly")
        name = self.expect_ident().text
        self.expect_sym("=")
        expr = self.parse_poly()
        self.end_statement()
        return PolyDef(name, expr, tok.line)

    def parse_ideal_def(self) -> IdealDef:
        tok = self.expect_ident("ideal")
        name = self.expect_ident().text
        self.expect_sym("=")
        expr = self.parse_list(self.parse_call_arg)
        self.end_statement()
        return IdealDef(name, tuple(expr), tok.line)

    def parse_matrix_def(self) -> MatrixDef:
        tok = self.expect_ident("matrix")
        name = self.expect_ident().text
        mode = self.expect_ident()
        if mode.text not in ("colgraded", "rowgraded"):
            self.fail("expected 'colgraded' or 'rowgraded'", mode)
        grading = "column" if mode.text == "colgraded" else "row"
        nrows = self.expect_int()
        self.expect_ident("x")
        ncols = self.expect_int()
        self.expect_sym("{")
        entries = self.parse_list(lambda: self.parse_list(self.parse_poly), ";")
        self.expect_sym("}")
        if len(entries) != nrows or any(len(r) != ncols for r in entries):
            self.fail(f"matrix body does not match declared {nrows}x{ncols}",
                      tok)
        self.end_statement()
        return MatrixDef(name, grading, nrows, ncols, entries, tok.line)

    def parse_command(self) -> Command:
        tok = self.expect_ident()
        name = tok.text
        if name == "main" and self.at_sym("-") and \
                self.peek(1).kind == "IDENT" and self.peek(1).text == "theorem":
            self.advance()
            self.advance()
            name = "main-theorem"
        if name not in COMMANDS:
            self.fail(f"unknown command {name!r}", tok)
        fewest, most, accepted = COMMANDS[name]
        args = []
        options = {}
        while self.peek().kind not in ("END", "EOF"):
            cur = self.peek()
            if cur.kind == "IDENT" and self.at_sym("=", 1):
                if cur.text not in accepted:
                    self.fail(f"unknown option {cur.text}= for {name} "
                              f"(options: {', '.join(sorted(accepted)) or 'none'})",
                              cur)
                key = self.advance().text
                self.advance()
                options[key] = self.parse_option_value()
                continue
            if len(args) == most:
                self.fail(f"{name} takes at most {most} argument(s)", cur)
            args.append(self.parse_vector() if self.at_sym("[")
                        else self.parse_call_arg())
        if len(args) < fewest:
            self.fail(f"{name} needs {fewest} argument(s), found {len(args)}",
                      tok)
        self.end_statement()
        return Command(name, args, options, tok.line)

    def parse_option_value(self):
        tok = self.peek()
        if tok.kind == "SYM" and tok.text == "[":
            return self.parse_vector().values
        if tok.kind == "INT":
            return self.expect_int()
        if tok.kind == "IDENT":
            word = self.advance().text
            if self.at_sym(":"):
                self.advance()
                return (word, tuple(self.parse_list(self.expect_int)))
            return word
        self.fail(f"expected an option value, found {tok.text!r}")

    def parse_script(self) -> SessionScript:
        while self.peek().kind == "END":
            self.advance()
        head = self.peek()
        if head.kind != "IDENT" or head.text != "ring":
            self.fail("script must start with a ring declaration")
        script = SessionScript(self.parse_ring())
        names = set()
        while self.peek().kind != "EOF":
            if self.peek().kind == "END":
                self.advance()
                continue
            tok = self.peek()
            if tok.kind != "IDENT":
                self.fail(f"expected a statement, found {tok.text!r}")
            if tok.text == "ring":
                self.fail("ring already declared", tok)
            if tok.text == "poly" and self.peek(1).kind == "IDENT":
                stmt = self.parse_poly_def()
            elif tok.text == "ideal" and self.peek(1).kind == "IDENT":
                stmt = self.parse_ideal_def()
            elif tok.text == "matrix" and self.peek(1).kind == "IDENT":
                stmt = self.parse_matrix_def()
            else:
                stmt = self.parse_command()
            if isinstance(stmt, (PolyDef, IdealDef, MatrixDef)):
                if stmt.name in names:
                    raise ScriptError(f"name {stmt.name!r} already defined",
                                      stmt.line)
                names.add(stmt.name)
            script.statements.append(stmt)
        return script


def parse(text: str) -> SessionScript:
    return _Parser(tokenize(text)).parse_script()

