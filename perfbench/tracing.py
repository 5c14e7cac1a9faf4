"""Outside-in layer tracing: wrap the library's public callables with spans.

``Tracer.install()`` replaces each traced callable at every site where it
is looked up: the attribute of every loaded ``multigb`` module (and of the
benchmark's own modules) bound to the same function object, so a name
brought in with ``from ... import`` is wrapped in the importing module too,
and the class attribute for a method.  Each call records a span: name,
start, end, parent span and one integer observed on the result (the term
count of a reduction, or whether gin trials agreed).  Spans are kept in
flat arrays in memory; at the end they are written out and turned into
per-layer metrics.

A span's self time is its duration minus the durations of its direct
wrapped children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

from multigb import (cli, csideals, determinantal, groebner, instances, kernel,
                     monomials, poly, script)

# ``multigb.gin`` as a package attribute is the function the package
# re-exports, not the module.
gin_module = importlib.import_module("multigb.gin")


def _agreement(result) -> int:
    return int(result.agreement)


def _targets() -> list:
    """(span name, owner, attribute, observer) for every traced callable."""
    out = [
        ("kernel.normal_form", kernel, "normal_form", len),
        ("kernel.spoly", kernel, "spoly", len),
        ("kernel.sort_terms", kernel, "sort_terms", None),
        ("kernel.poly_mul", kernel, "poly_mul", None),
        ("groebner.groebner_basis", groebner.Ideal, "groebner_basis", None),
        ("groebner.intersect", groebner.Ideal, "intersect", None),
        ("groebner.colon", groebner.Ideal, "colon", None),
        ("groebner.eliminate", groebner.Ideal, "eliminate", None),
        ("groebner.minimal_generators", groebner.Ideal, "minimal_generators",
         None),
        ("groebner.regular_sequence_test", groebner, "regular_sequence_test",
         None),
        ("poly.substitute", poly.Polynomial, "substitute", None),
        ("gin.gin", gin_module, "gin", _agreement),
        ("csideals.stable_gin", csideals, "stable_gin", None),
        ("csideals.ugb_check", csideals, "ugb_check", None),
        ("csideals.degree_bound_check", csideals, "degree_bound_check", None),
        ("csideals.is_cs", csideals, "is_cs", None),
        ("csideals.is_csstar", csideals, "is_csstar", None),
        ("determinantal.minors", determinantal, "minors", None),
        ("instances.cs_instance_pool", instances, "cs_instance_pool", None),
        ("instances.csstar_instance_pool", instances, "csstar_instance_pool",
         None),
        ("script.parse", script, "parse", None),
        ("cli.run_script", cli, "run_script", None),
    ]
    for attr, value in sorted(vars(monomials).items()):
        if (callable(value) and not attr.startswith("_")
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == monomials.__name__):
            out.append((f"monomials.{attr}", monomials, attr, None))
    return out


class Tracer:
    """Span recorder for one process; install once, read after the run."""

    def __init__(self):
        self.names: list = []           # span name per name id
        self.name_of = array("H")       # name id per span
        self.parent = array("l")        # parent span index, -1 at the root
        self.start = array("d")
        self.end = array("d")
        self.observed = array("q")
        self._stack: list = []
        self._patches: list = []        # (owner, attribute, original)

    def _wrap(self, name_id: int, fn, observe):
        name_of, parent, start, end, observed = (
            self.name_of, self.parent, self.start, self.end, self.observed)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            observed.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observed[idx] = observe(result)
            return result

        return functools.wraps(fn)(traced)

    def install(self, extra_modules=()) -> None:
        """Wrap every target at every lookup site."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "multigb"
                                         or n.startswith("multigb."))]
        modules.extend(extra_modules)
        for name, owner, attr, observe in _targets():
            original = getattr(owner, attr)
            self.names.append(name)
            wrapped = self._wrap(len(self.names) - 1, original, observe)
            sites = [owner] if isinstance(owner, type) else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, key, original))
                        setattr(site, key, wrapped)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    def __len__(self):
        return len(self.name_of)

    def dump(self, path) -> None:
        """Write every span as a gzipped TSV row: index, name, parent,
        start and end (seconds, ``time.perf_counter``), observed value."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tstart\tend\tobserved\n")
            for i, (a, p, t0, t1, o) in enumerate(zip(
                    self.name_of, self.parent, self.start, self.end,
                    self.observed)):
                fh.write(f"{i}\t{self.names[a]}\t{p}\t{t0:.9f}\t{t1:.9f}"
                         f"\t{o}\n")


def _children(tr: Tracer) -> tuple:
    """Per span: time covered by direct wrapped children, and whether a
    ``kernel.sort_terms`` span lies below it."""
    n = len(tr.name_of)
    child_time = [0.0] * n
    has_sort = bytearray(n)
    sort_id = tr.names.index("kernel.sort_terms")
    name_of, parent, start, end = tr.name_of, tr.parent, tr.start, tr.end
    for i in range(n - 1, -1, -1):  # children follow their parent
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
            if has_sort[i] or name_of[i] == sort_id:
                has_sort[p] = 1
    return child_time, has_sort


def _summaries(tr: Tracer, lo: int, child_time: list,
               has_sort: bytearray) -> dict:
    """Per name, over spans from index ``lo``: calls, self seconds,
    inclusive seconds of the outermost calls, sum of the observed values,
    calls observing zero, and calls with a sort_terms span below."""
    k = len(tr.names)
    calls = [0] * k
    self_s = [0.0] * k
    incl_s = [0.0] * k
    observed = [0] * k
    zeros = [0] * k
    with_sort = [0] * k
    name_of, parent, start, end = tr.name_of, tr.parent, tr.start, tr.end
    for i in range(lo, len(name_of)):
        a = name_of[i]
        d = end[i] - start[i]
        calls[a] += 1
        self_s[a] += d - child_time[i]
        observed[a] += tr.observed[i]
        zeros[a] += tr.observed[i] == 0
        with_sort[a] += has_sort[i]
        p = parent[i]
        while p >= 0 and name_of[p] != a:
            p = parent[p]
        if p < 0:
            incl_s[a] += d
    return {name: {"calls": calls[a], "self_s": self_s[a], "s": incl_s[a],
                   "observed": observed[a], "zeros": zeros[a],
                   "with_sort": with_sort[a]}
            for a, name in enumerate(tr.names)}


def layer_metrics(tr: Tracer, timed_from: int) -> dict:
    """Per-layer metrics from the spans recorded since index ``timed_from``
    (the timed section).  The set-up layers ``instances`` and
    ``determinantal.minors`` count every span, since the workloads call
    them while building inputs."""
    tree = _children(tr)
    timed = _summaries(tr, timed_from, *tree)
    whole = _summaries(tr, 0, *tree)

    def ratio(a, b):
        return a / b if b else 0.0

    nf, sp, g = timed["kernel.normal_form"], timed["kernel.spoly"], timed["gin.gin"]
    gins_in_stable = 0
    gin_id = tr.names.index("gin.gin")
    stable_id = tr.names.index("csideals.stable_gin")
    for i in range(timed_from, len(tr.name_of)):
        if tr.name_of[i] == gin_id and tr.parent[i] >= 0 \
                and tr.name_of[tr.parent[i]] == stable_id:
            gins_in_stable += 1
    return {
        "kernel.normal_form.calls": nf["calls"],
        "kernel.normal_form.self_s": nf["self_s"],
        "kernel.normal_form.zero_frac": ratio(nf["zeros"], nf["calls"]),
        "kernel.spoly.calls": sp["calls"],
        "kernel.spoly.self_s": sp["self_s"],
        "kernel.sort_terms.self_s": timed["kernel.sort_terms"]["self_s"],
        "kernel.poly_mul.calls": timed["kernel.poly_mul"]["calls"],
        "kernel.poly_mul.self_s": timed["kernel.poly_mul"]["self_s"],
        "kernel.terms_out": nf["observed"] + sp["observed"],
        "groebner.groebner_basis.calls":
            timed["groebner.groebner_basis"]["calls"],
        "groebner.groebner_basis.runs":
            timed["groebner.groebner_basis"]["with_sort"],
        "groebner.groebner_basis.self_s":
            timed["groebner.groebner_basis"]["self_s"],
        "groebner.intersect.calls": timed["groebner.intersect"]["calls"],
        "groebner.intersect.s": timed["groebner.intersect"]["s"],
        "groebner.colon.calls": timed["groebner.colon"]["calls"],
        "groebner.eliminate.calls": timed["groebner.eliminate"]["calls"],
        "groebner.minimal_generators.s":
            timed["groebner.minimal_generators"]["s"],
        "groebner.regular_sequence_test.calls":
            timed["groebner.regular_sequence_test"]["calls"],
        "poly.substitute.calls": timed["poly.substitute"]["calls"],
        "poly.substitute.s": timed["poly.substitute"]["s"],
        "gin.gin.calls": g["calls"],
        "gin.gin.s": g["s"],
        "gin.agree_frac": ratio(g["observed"], g["calls"]),
        "csideals.stable_gin.attempts": gins_in_stable,
        "csideals.ugb_check.s": timed["csideals.ugb_check"]["s"],
        "csideals.degree_bound_check.s":
            timed["csideals.degree_bound_check"]["s"],
        "csideals.is_cs.calls": timed["csideals.is_cs"]["calls"],
        "csideals.is_csstar.calls": timed["csideals.is_csstar"]["calls"],
        "monomials.self_s": sum(v["self_s"] for k, v in timed.items()
                                if k.startswith("monomials.")),
        "monomials.hilbert_numerator.calls":
            timed["monomials.hilbert_numerator"]["calls"],
        "determinantal.minors.s": whole["determinantal.minors"]["s"],
        "instances.pool_s": (whole["instances.cs_instance_pool"]["s"]
                             + whole["instances.csstar_instance_pool"]["s"]),
        "script.parse.s": timed["script.parse"]["s"],
        "cli.run_script.self_s": timed["cli.run_script"]["self_s"],
    }
