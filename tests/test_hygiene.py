"""Source hygiene: no module imports a name it never reads, every public
name has a reader, every library function and method but a listed few is
read by the library or the benchmark, only the kernel packs exponents
into ints, only
``groebner._packed_run`` packs a run's inputs, only
``csideals._sampled_records`` settles a sampled order, csideals selects
lead terms only in batches, only groebner stores an ideal's series, and
README lists the script commands, calls and options the code accepts."""

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Iterable

import pytest

import multigb
from multigb.script import CALL_NAMES, COMMANDS

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "multigb").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import and never read, except ``__future__``
    imports and names listed in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom a import b, c as d\n"
                     "__all__ = ['d']\n")
    assert unused_imports(tree) == [(2, "os"), (3, "b")]


def names_read(tree: ast.AST, strings: bool = False) -> Counter:
    """How often each name is read under ``tree``: loaded names and
    attribute names, and with ``strings`` string constants too."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out[node.value] += 1
    return out


def reads(tree: ast.Module, strings: bool = False) -> set:
    """Names a module reads (``names_read``), except reads inside the
    top-level definition of the same name."""
    out = set()
    for stmt in tree.body:
        out |= set(names_read(stmt, strings)) - {getattr(stmt, "name", None)}
    return out


def test_reads_skip_the_own_definition():
    tree = ast.parse("def f(n):\n    return f(n - 1) + g.h\n"
                     "def g():\n    return f\nx = 'k'\n")
    assert reads(tree) == {"n", "g", "h", "f"}
    assert reads(ast.parse("def f():\n    return f\n")) == set()
    assert "k" in reads(tree, strings=True)


def test_every_public_name_has_a_reader():
    # read by the library outside __init__.py, named in README, or read by
    # the benchmark; a name only the tests use is not public
    library = set().union(*(reads(ast.parse(p.read_text())) for p in MODULES
                            if p.parent.name == "multigb"
                            and p.name != "__init__.py"))
    bench = set().union(*(reads(ast.parse(p.read_text()), strings=True)
                          for p in (ROOT / "perfbench").glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    assert [name for name in multigb.__all__
            if name not in library | bench
            and not re.search(rf"\b{name}\b", readme)] == []


def definitions(tree: ast.Module) -> list:
    """(name, node) of each top-level function and of each method of a
    top-level class, named ``Class.method``; dunder methods, which Python
    calls by protocol, are left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for stmt in tree.body:
        if isinstance(stmt, functions):
            out.append((stmt.name, stmt))
        elif isinstance(stmt, ast.ClassDef):
            out += [(f"{stmt.name}.{f.name}", f) for f in stmt.body
                    if isinstance(f, functions) and not f.name.startswith("__")]
    return out


def unread_definitions(library: dict, bench: Counter,
                       kept: Iterable = ()) -> list:
    """``module.name`` of each definition in the library modules
    (``{module: tree}``) that the benchmark (``bench``, its reads with
    strings) does not read and that no library code reads outside the
    definition itself, counting only reads from definitions that are read
    themselves or ``kept``."""
    defs = [(f"{module}.{name}", name.rpartition(".")[2], node)
            for module, tree in library.items()
            for name, node in definitions(tree)]
    total = sum((names_read(tree) for tree in library.values()), Counter())
    unread: set = set()
    while True:
        found = [(full, node) for full, short, node in defs
                 if full not in unread and not bench[short]
                 and total[short] == names_read(node)[short]]
        if not found:
            return sorted(unread)
        for full, node in found:
            unread.add(full)
            if full not in kept:
                total -= names_read(node)


# Library definitions that neither the library nor the benchmark reads, each
# kept for the reason given; README names whom each one serves.
UNREAD_ON_PURPOSE = {
    "csideals.verify_dual_theorem":
        "ROADMAP item 8 gives it a command or deletes it",
    "determinantal.variable_matrix":
        "the generic-matrix oracle of ROADMAP items 2 and 11",
    "gin.GinReport.require": "documented API of a gin verdict",
    # perfbench/tracing.py wraps every public function of monomials by
    # enumeration, so these three move in a change to the benchmark
    "monomials.colon_monomial": "traced by enumeration",
    "monomials.sum_monomial": "traced by enumeration",
    "monomials.is_extended_from_first_variables": "traced by enumeration",
}


def test_every_library_definition_has_a_reader():
    # a function or method that only tests call belongs in tests/oracles.py;
    # README mentions are not readers
    library = {p.stem: ast.parse(p.read_text()) for p in MODULES
               if p.parent.name == "multigb" and p.name != "__init__.py"}
    bench = sum((names_read(ast.parse(p.read_text()), strings=True)
                 for p in (ROOT / "perfbench").glob("*.py")), Counter())
    assert unread_definitions(library, bench, UNREAD_ON_PURPOSE) == \
        sorted(UNREAD_ON_PURPOSE)
    readme = (ROOT / "README.md").read_text()
    assert [name for name in UNREAD_ON_PURPOSE
            if f"`{name.partition('.')[2]}`" not in readme] == []


def test_unread_definition_is_found():
    # f reads only itself; k is read only by f, so it goes with f unless f
    # is kept; h and g read each other and C.run is read by g
    library = {"a": ast.parse("def f(n):\n    return f(n - 1) + k()\n"
                              "def k():\n    return 1\n"
                              "def g():\n    return h.run()\n"
                              "class C:\n    def __eq__(self, o): ...\n"
                              "    def run(self): ...\n"
                              "    def size(self): ...\n"),
               "b": ast.parse("def h():\n    return g\n")}
    assert unread_definitions(library, Counter()) == ["a.C.size", "a.f", "a.k"]
    assert unread_definitions(library, Counter(), ["a.f"]) == ["a.C.size",
                                                               "a.f"]
    assert unread_definitions(library, Counter(["f", "size"])) == []


def exponent_packing(tree: ast.Module) -> list:
    """Lines that import ``lshift`` or call ``.bit_length()``, the tools of
    a hand-rolled exponent packing."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "lshift" for alias in node.names)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "bit_length")


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.parent.name == "multigb"
             and p.name != "kernel.py"], ids=lambda p: p.name)
def test_only_the_kernel_packs_exponents(path):
    # kernel.Fields is the one packed-monomial format
    assert exponent_packing(ast.parse(path.read_text())) == []


def test_exponent_packing_is_found():
    tree = ast.parse("from operator import lshift, mul\n"
                     "n = 5\nw = (2 * n).bit_length() + 1\n")
    assert exponent_packing(tree) == [1, 3]


def packing_outside_the_door(tree: ast.Module, module: str) -> list:
    """Lines of ``module`` that pack a run's inputs outside
    ``groebner._packed_run``: calls of ``.pack`` or ``kernel.bits_for``
    anywhere else, and any call of ``kernel.sort_terms`` in groebner."""
    groebner = module == "groebner"
    out = []
    for stmt in tree.body:
        door = groebner and getattr(stmt, "name", None) == "_packed_run"
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            on_kernel = (isinstance(node.func.value, ast.Name)
                         and node.func.value.id == "kernel")
            if (attr == "pack" or on_kernel and attr == "bits_for") and not door \
                    or groebner and on_kernel and attr == "sort_terms":
                out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.parent.name == "multigb"
             and p.name != "kernel.py"], ids=lambda p: p.name)
def test_one_door_packs_every_run(path):
    # groebner._packed_run sizes, packs and sorts the inputs of every
    # packed run, so only it knows their format, width and order
    assert packing_outside_the_door(ast.parse(path.read_text()),
                                    path.stem) == []


def test_packing_outside_the_door_is_found():
    tree = ast.parse("def _packed_run(polys):\n"
                     "    bits = kernel.bits_for(polys)\n"
                     "    return [layout.pack(f) for f in polys]\n"
                     "def run(f):\n"
                     "    g = kernel.sort_terms(f)\n"
                     "    return layout.pack(g), kernel.bits_for([g])\n")
    assert packing_outside_the_door(tree, "groebner") == [5, 6, 6]
    assert packing_outside_the_door(tree, "poly") == [2, 3, 6, 6]


def settling_outside_the_step(tree: ast.Module, module: str) -> list:
    """Lines of ``module`` that settle a sampled order outside
    ``csideals._sampled_records``: in csideals any use of ``kernel.`` or
    ``.groebner_basis``, in determinantal any use of ``.groebner_basis`` or
    ``.minimal_generators``."""
    names = {"csideals": {"groebner_basis"},
             "determinantal": {"groebner_basis", "minimal_generators"}}
    out = []
    for stmt in tree.body:
        if module == "csideals" and \
                getattr(stmt, "name", None) == "_sampled_records":
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and (
                    node.attr in names.get(module, ())
                    or module == "csideals" and isinstance(node.value, ast.Name)
                    and node.value.id == "kernel"):
                out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("module", ["csideals", "determinantal"])
def test_one_step_settles_every_sampled_order(module):
    # ugb_check and degree_bound_check share one certify-or-Buchberger step,
    # and verify_main_theorem runs Buchberger only through the checks it calls
    path = ROOT / "src" / "multigb" / f"{module}.py"
    assert settling_outside_the_step(ast.parse(path.read_text()), module) == []


def test_settling_outside_the_step_is_found():
    tree = ast.parse("def _sampled_records(I, o):\n"
                     "    return kernel.layout(o), I.groebner_basis(o)\n"
                     "def check(I, o):\n"
                     "    key = kernel.layout(o).key\n"
                     "    return I.groebner_basis(o), I.minimal_generators()\n")
    assert settling_outside_the_step(tree, "csideals") == [4, 5]
    assert settling_outside_the_step(tree, "determinantal") == [2, 5, 5]


def per_order_leads(tree: ast.Module) -> list:
    """Lines that call ``.lead_exp`` or ``.lead_term``, which select the
    lead of one polynomial under one order."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("lead_exp", "lead_term"))


def test_csideals_selects_leads_in_batches():
    # poly.lead_exponents scores every candidate under all sampled orders
    # at once; a per-order call is the cost it removed
    path = ROOT / "src" / "multigb" / "csideals.py"
    assert per_order_leads(ast.parse(path.read_text())) == []


def test_per_order_leads_are_found():
    # line 2 is the per-order callback ugb_check once passed
    tree = ast.parse("settled = _sampled_records(\n"
                     "    I, orders, lambda o: [c.lead_exp(o) for c in C])\n"
                     "t = f.lead_term(o)\nc = f.lead_coeff(o)\n"
                     "e = lead_exponents(C, orders)\n")
    assert per_order_leads(tree) == [2, 3]


def series_stores(tree: ast.Module) -> list:
    """Lines that store an attribute named ``_cutoff`` or ``_model``, or
    read one named ``_cutoff``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and (
                      node.attr == "_cutoff" or node.attr == "_model"
                      and isinstance(node.ctx, ast.Store)))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.parent.name == "multigb"
             and p.name != "groebner.py"], ids=lambda p: p.name)
def test_only_groebner_stores_a_series(path):
    # the series cutoff and gin's guard trust a model and the series read
    # off it, so a model comes only from a basis or a construction in
    # groebner, never from a caller, and other modules ask the ideal for
    # its series or its cutoff (``_series_cutoff``)
    assert series_stores(ast.parse(path.read_text())) == []


def test_series_store_is_found():
    tree = ast.parse("I._cutoff = s\nJ._cutoff: int = 0\n"
                     "t = I._cutoff\nK.series = t\n"
                     "I._model = M\nm = I._model\n"
                     "c = I._series_cutoff()\n")
    assert series_stores(tree) == [1, 2, 3, 5]


def readme_paragraph(lead: str) -> str:
    """The README paragraph that starts with ``**lead**``."""
    text = (ROOT / "README.md").read_text()
    return next(p for p in text.split("\n\n") if p.startswith(f"**{lead}**"))


def test_readme_commands_calls_and_options_match_the_parser():
    rows = re.findall(r"^\| `([\w-]+)` \| `([^`]+)` \| ([^|]+) \|",
                      (ROOT / "README.md").read_text(), re.M)
    table = {name: (sum(not a.startswith("[") for a in args.split()),
                    len(args.split()), set(re.findall(r"`(\w+)=`", options)))
             for name, args, options in rows}
    assert len(rows) == len(table) and table == COMMANDS
    assert set(re.findall(r"`(\w+)\(", readme_paragraph("Calls"))) == \
        CALL_NAMES
    assert set(re.findall(r"`(\w+)=", readme_paragraph("Options"))) == \
        set().union(*(options for _, _, options in COMMANDS.values()))
