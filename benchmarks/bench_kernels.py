"""Benchmark the compiled kernels against the pure-Python fallback.

The workloads, matching how the verification sweeps spend their time:

* ``model``    separation-model enumeration over every labeled chain
               graph on four vertices;
* ``model6``   the same for 60 random six-vertex graphs;
* ``closure``  compositional-graphoid closure of the separation model of
               40 random five-vertex graphs;
* ``closure p3 edgeless n=6..8``  compositional-graphoid closure of the
               pairwise (p3) statements of the edgeless graph, whose
               closure is every triple on the ground set (1,351, 6,069
               and 26,335 codes): the largest models the sweeps close;
* ``satisfies edgeless n=6``  the closedness check of the edgeless
               six-vertex graph's separation model (all 1,351 triples)
               under the same axioms.  It fires the Python kernel's rules
               on either backend, so it has one column.

Run:  python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import random
import time

from mvrcg._kernels import load_compiled, pyfallback
from mvrcg.closure import AxiomSet, satisfies
from mvrcg.enumeration import enumerate_mvr_cgs, random_mvr_cg
from mvrcg.graph import MixedGraph
from mvrcg.properties import property_model
from mvrcg.separation import global_model

FULL_AXIOMS = 0b11111


def workload_model(kernel):
    total = 0
    for g in enumerate_mvr_cgs(4):
        total += len(kernel.global_model_codes(g.n, g.pa, g.ch, g.nb))
    return total


def workload_model6(kernel, graphs):
    total = 0
    for g in graphs:
        total += len(kernel.global_model_codes(g.n, g.pa, g.ch, g.nb))
    return total


def workload_closure(kernel, graphs):
    total = 0
    for g in graphs:
        codes = kernel.global_model_codes(g.n, g.pa, g.ch, g.nb)
        total += len(kernel.close_codes(g.n, codes, FULL_AXIOMS))
    return total


def workload_close(kernel, n, codes):
    return len(kernel.close_codes(n, codes, FULL_AXIOMS))


def timed(fn, *args):
    best = float("inf")
    result = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    compiled = load_compiled()
    rng = random.Random(5150)
    graphs6 = [random_mvr_cg(6, rng) for _ in range(60)]
    graphs5 = [random_mvr_cg(5, rng) for _ in range(40)]

    edgeless_p3 = [(n, property_model(MixedGraph(n), "p3").to_codes()) for n in (6, 7, 8)]

    rows = []
    for name, fn, args in (
        ("model  (all n=4 graphs)", workload_model, ()),
        ("model6 (60 random n=6)", workload_model6, (graphs6,)),
        ("closure (40 random n=5)", workload_closure, (graphs5,)),
        *((f"closure p3 edgeless n={n}", workload_close, (n, codes))
          for n, codes in edgeless_p3),
    ):
        py_t, py_r = timed(fn, pyfallback, *args)
        row = {"name": name, "python": py_t, "check": py_r}
        if compiled is not None:
            c_t, c_r = timed(fn, compiled, *args)
            assert c_r == py_r, f"{name}: backends disagree"
            row["compiled"] = c_t
        rows.append(row)
    sat_t, sat_r = timed(satisfies, global_model(MixedGraph(6)),
                         AxiomSet.compositional_graphoid())
    assert sat_r, "the edgeless separation model is not closed"
    rows.append({"name": "satisfies edgeless n=6", "python": sat_t})

    print(f"{'workload':<26} {'python':>10} {'compiled':>10} {'speedup':>9}")
    for row in rows:
        if "compiled" in row:
            print(f"{row['name']:<26} {row['python']:>9.3f}s "
                  f"{row['compiled']:>9.3f}s {row['python'] / row['compiled']:>8.1f}x")
        else:
            print(f"{row['name']:<26} {row['python']:>9.3f}s {'-':>10} {'-':>9}")
    if compiled is None:
        print("compiled kernels not built; only the fallback was timed")


if __name__ == "__main__":
    main()
