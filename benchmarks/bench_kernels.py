"""Time the two kernels: separation-model enumeration and axiom closure.

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
               under the same axioms;
* ``closure checks edgeless n=7``  the eight ``closure_*`` checks of the
               edgeless seven-vertex graph (6,069 codes) through
               ``verify_graph``: one closedness pass over the model, then
               one worklist per property stopped at the model's dominant
               triples;
* ``model edgeless n=9 m|m*``  the m and m* separation models of the
               edgeless nine-vertex graph (111,645 codes): every vertex
               is its own class, so each split emits the most codes.

Run:  python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import os
import random
import time

from mvrcg._kernels import pyfallback
from mvrcg.closure import AxiomSet, satisfies
from mvrcg.enumeration import enumerate_mvr_cgs, random_mvr_cg
from mvrcg.graph import MixedGraph
from mvrcg.properties import property_model
from mvrcg.separation import global_model, global_model_codes
from mvrcg.sweep import PROPERTY_AXIOMS, SweepConfig, verify_graph

FULL_AXIOMS = 0b11111


def workload_model(graphs):
    total = 0
    for g in graphs:
        total += len(pyfallback.global_model_codes(g.n, g.pa, g.ch, g.nb))
    return total


def workload_closure(graphs):
    total = 0
    for g in graphs:
        codes = pyfallback.global_model_codes(g.n, g.pa, g.ch, g.nb)
        total += len(pyfallback.close_codes(g.n, codes, FULL_AXIOMS))
    return total


def workload_model_method(g, method):
    return len(global_model_codes(g, method))


def workload_close(n, codes):
    return len(pyfallback.close_codes(n, codes, FULL_AXIOMS))


def workload_closure_checks(g):
    config = SweepConfig(checks=tuple(f"closure_{prop}" for prop in PROPERTY_AXIOMS))
    report = verify_graph(g, config)
    assert report.ok, "a closure check failed on the edgeless graph"
    return report


def timed(fn, *args):
    best = float("inf")
    result = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    rng = random.Random(5150)
    graphs6 = [random_mvr_cg(6, rng) for _ in range(60)]
    graphs5 = [random_mvr_cg(5, rng) for _ in range(40)]

    edgeless_p3 = [(n, property_model(MixedGraph(n), "p3").to_codes()) for n in (6, 7, 8)]

    rows = []
    for name, fn, args in (
        ("model  (all n=4 graphs)", workload_model, (list(enumerate_mvr_cgs(4)),)),
        ("model6 (60 random n=6)", workload_model, (graphs6,)),
        ("closure (40 random n=5)", workload_closure, (graphs5,)),
        *((f"closure p3 edgeless n={n}", workload_close, (n, codes))
          for n, codes in edgeless_p3),
    ):
        rows.append((name, timed(fn, *args)[0]))
    sat_t, sat_r = timed(satisfies, global_model(MixedGraph(6)),
                         AxiomSet.compositional_graphoid())
    assert sat_r, "the edgeless separation model is not closed"
    rows.append(("satisfies edgeless n=6", sat_t))
    rows.append(("closure checks edgeless n=7",
                 timed(workload_closure_checks, MixedGraph(7))[0]))
    os.environ["MVRCG_MAX_N"] = "9"  # above the default model cap
    for method, label in (("m", "m"), ("mstar", "m*")):
        rows.append((f"model edgeless n=9 {label}",
                     timed(workload_model_method, MixedGraph(9), method)[0]))

    print(f"{'workload':<29} {'seconds':>9}")
    for name, seconds in rows:
        print(f"{name:<29} {seconds:>8.3f}s")


if __name__ == "__main__":
    main()
