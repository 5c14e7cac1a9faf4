"""Batch-script language for the command-line interface.

Grammar (statements end at newline or ';' outside brackets; '#' comments):

    ring v=INT blocks=[INT,...] char=INT
    poly NAME = polyexpr
    ideal NAME = polyexpr ("," polyexpr)* | call
    matrix NAME (colgraded|rowgraded) INT x INT { row (";" row)* }
    command arg* (key=value)*

where a row is comma-separated polyexprs, a variable is written x[i,j],
a call is one of minors(...), colon(...), intersect(...), sum(...),
eliminate(...), and commands are gb, gin, hilbert, radical, borel, dual,
polarize, minors, cs, csstar, ugb, closure, bounds, main-theorem, colon,
intersect, member.

Parsing builds an AST only; name resolution and ring checks happen at
execution time so every error can cite the statement's line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

COMMAND_NAMES = frozenset({
    "gb", "gin", "hilbert", "radical", "borel", "dual", "polarize", "minors",
    "cs", "csstar", "ugb", "closure", "bounds", "main-theorem", "colon",
    "intersect", "member",
})

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
    expr: object  # CallNode | NameNode | tuple of poly nodes
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
        args = []
        if not self.at_sym(")"):
            args.append(self.parse_call_arg())
            while self.at_sym(","):
                self.advance()
                args.append(self.parse_call_arg())
        self.expect_sym(")")
        return CallNode(tok.text, tuple(args), tok.line)

    def parse_call_arg(self):
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text in CALL_NAMES and self.at_sym("(", 1):
            return self.parse_call()
        return self.parse_poly()

    def parse_vector(self) -> VectorNode:
        self.expect_sym("[")
        values = [self.expect_int()]
        while self.at_sym(","):
            self.advance()
            values.append(self.expect_int())
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
        head = self.peek()
        if head.kind == "IDENT" and head.text in CALL_NAMES and self.at_sym("(", 1):
            expr = self.parse_call()
        else:
            polys = [self.parse_poly()]
            while self.at_sym(","):
                self.advance()
                polys.append(self.parse_poly())
            expr = tuple(polys)
        self.end_statement()
        return IdealDef(name, expr, tok.line)

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
        entries = []
        while True:
            row = [self.parse_poly()]
            while self.at_sym(","):
                self.advance()
                row.append(self.parse_poly())
            entries.append(row)
            if self.at_sym(";"):
                self.advance()
                continue
            break
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
        if name not in COMMAND_NAMES:
            self.fail(f"unknown command {name!r}", tok)
        args = []
        options = {}
        while self.peek().kind not in ("END", "EOF"):
            cur = self.peek()
            if cur.kind == "IDENT" and self.at_sym("=", 1):
                key = self.advance().text
                self.advance()
                options[key] = self.parse_option_value()
                continue
            args.append(self.parse_command_arg())
        self.end_statement()
        return Command(name, args, options, tok.line)

    def parse_command_arg(self):
        tok = self.peek()
        if tok.kind == "SYM" and tok.text == "[":
            return self.parse_vector()
        if tok.kind == "IDENT" and tok.text in CALL_NAMES and self.at_sym("(", 1):
            return self.parse_call()
        return self.parse_poly()

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
                weights = [self.expect_int()]
                while self.at_sym(","):
                    self.advance()
                    weights.append(self.expect_int())
                return (word, tuple(weights))
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

