"""The traced run: ``verify_graph``'s calls made one by one from here, with
a span around each call into a module's public functions.

Spans are recorded only in the benchmark's own files, at the boundary of
each call into the package, so the package runs unchanged.  Each span is
(graph id, name, start, end); the span named ``graph`` is the root of its
graph's spans and every other span of that graph is its child.  A span's
name is ``<module>.<what>``; the per-layer metric ``<name>_s`` sums them.

The replica makes verify_graph's calls in verify_graph's order, and the
traced run compares its verdicts with verify_graph's report for the same
graph, so a change to the sweep that this file does not follow fails the
run instead of moving time between layers unnoticed.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

from mvrcg import chain, closure, factorization, properties, separation, structure, sweep
from mvrcg.errors import GraphError
from mvrcg.graph import MixedGraph


class Tracer:
    """Spans and counts of one traced run, kept in memory until it ends."""

    def __init__(self):
        self.gid = 0
        self.spans: list[tuple[int, str, float, float]] = []
        self.counts: Counter = Counter()

    def span(self, name):
        return _Span(self, name)

    def count(self, name, k=1):
        self.counts[name] += k

    def busy(self) -> dict[str, float]:
        """Total seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for _, name, t0, t1 in self.spans:
            out[name] += t1 - t0
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for gid, name, t0, t1 in self.spans:
                fh.write(json.dumps({"graph": gid, "name": name,
                                     "parent": None if name == "graph" else "graph",
                                     "start": t0, "end": t1}) + "\n")


class _Span:
    __slots__ = ("tr", "name", "t0")

    def __init__(self, tr, name):
        self.tr = tr
        self.name = name

    def __enter__(self):
        self.t0 = perf_counter()

    def __exit__(self, *exc):
        self.tr.spans.append((self.tr.gid, self.name, self.t0, perf_counter()))
        return False


def _close(tr: Tracer, n: int, codes, ax, layer: str) -> list[int]:
    with tr.span(layer):
        out = closure.close_codes(n, codes, ax)
    tr.count("closure.calls")
    tr.count("closure.in_codes", len(codes))
    tr.count("closure.out_codes", len(out))
    return out


def traced_verify(g: MixedGraph, config: sweep.SweepConfig, index: int,
                  tr: Tracer) -> sweep.VerificationReport:
    """verify_graph, one span per call into the package."""
    with tr.span("sweep.report"):
        ghash = sweep.graph_hash(g)
    report = sweep.VerificationReport(index, g.n, ghash, sorted(g.directed),
                                      sorted(g.bidirected))
    with tr.span("chain.validate"):
        dec = chain.validate_chain_graph(g)
    with tr.span("separation.model"):
        global_codes = separation.global_model_codes(g)
    tr.count("separation.model_codes", len(global_codes))

    def run(name, fn):
        if name not in config.checks:
            return
        t0 = perf_counter()
        try:
            ok, witness = fn()
            status = "pass" if ok else "fail"
        except GraphError as exc:
            status, witness = "fail", f"{type(exc).__name__}: {exc}"
        report.checks[name] = sweep.CheckOutcome(status, witness,
                                                 (perf_counter() - t0) * 1e3)

    def check_imstar():
        with tr.span("separation.mstar"):
            mstar = separation.global_model_codes(g, method="mstar")
        return mstar == global_codes, None

    run("im_eq_imstar", check_imstar)

    closed_global: dict[str, list[int]] = {}
    for prop, axioms in sweep.PROPERTY_AXIOMS.items():
        def check_closure(prop=prop, layer=f"closure.{axioms}"):
            ax = config.axioms_for(prop)
            key = repr(ax)
            if key not in closed_global:
                closed_global[key] = _close(tr, g.n, global_codes, ax, layer)
            with tr.span("properties.busy"):
                codes = properties.property_model(g, prop, dec).to_codes()
            tr.count("properties.triples", len(codes))
            return _close(tr, g.n, codes, ax, layer) == closed_global[key], None

        run(f"closure_{prop}", check_closure)

    def check_ancestral():
        with tr.span("structure.ancestral"):
            res = structure.is_ancestral(g)
        return res.ok, None

    def check_maximal():
        with tr.span("structure.maximal"):
            return structure.is_maximal(g, method="both"), None

    def check_marginal():
        with tr.span("structure.marginal"):
            res = structure.marginal_model_equal(g)
        tr.count("structure.queries", canonical_codes(g.n))
        return res.ok, None

    def check_factorization():
        with tr.span("factorization.busy"):
            part = factorization.head_partition(g, range(g.n))
        with tr.span("factorization.busy"):
            mvr = factorization.factorize_mvr(g, dec)
        with tr.span("factorization.busy"):
            cdag = factorization.factorize_component_dag(g, dec)
        if part.blocks() != mvr.blocks():
            return False, None
        if any(part.tail_of(f.head) != f.tail for f in mvr.factors):
            return False, None
        return all(f.tail <= fc.tail for f, fc in zip(mvr.factors, cdag.factors)), None

    run("ancestral", check_ancestral)
    run("maximal", check_maximal)
    if g.n <= config.marginal_oracle_max_n:
        run("marginal_oracle", check_marginal)
    elif "marginal_oracle" in config.checks:
        report.checks["marginal_oracle"] = sweep.CheckOutcome("skipped", "graph too large")
    run("factorization", check_factorization)
    return report


@functools.cache
def canonical_codes(n: int) -> int:
    """Canonical triples over n vertices: the queries of one oracle pass."""
    return sum(1 for _ in separation.iter_canonical_codes(n))


def verdicts(report: sweep.VerificationReport) -> dict[str, str]:
    return {name: c.status for name, c in report.checks.items()}


def parity_mismatches(compiled, fallback, g: MixedGraph, flags: int) -> list[str]:
    """Where the compiled kernels and the Python ones disagree on ``g``."""
    out = []
    py_codes = fallback.global_model_codes(g.n, g.pa, g.ch, g.nb)
    if compiled.global_model_codes(g.n, g.pa, g.ch, g.nb) != py_codes:
        out.append("global_model_codes")
    if compiled.close_codes(g.n, py_codes, flags) != fallback.close_codes(g.n, py_codes, flags):
        out.append("close_codes")
    return out
