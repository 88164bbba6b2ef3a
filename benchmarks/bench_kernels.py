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
* ``closure checks edgeless n=7..9``  the eight ``closure_*`` checks of
               the edgeless graph through ``verify_graph``, including
               building its separation model (6,069, 26,335 and 111,645
               codes): one proof that the model is closed, from its 672,
               1,792 and 4,608 elementary triples, then one elementary
               worklist per property, which stops once it has seen them
               all;
* ``model m*+latent``  the m* and latent-DAG models of the 60 random
               six-vertex graphs: per graph and model, the 57 sets of
               two or more vertices fall into 12.5 ancestral sets on
               average, so each adjacency serves several sets;
* ``model edgeless n=9 m|m*``  the m and m* separation models of the
               edgeless nine-vertex graph (111,645 codes): every vertex
               is its own class, so each split emits the most codes, and
               every set is its own ancestral set, so none is shared.

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
from mvrcg.structure import latent_model_codes
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


def workload_split_models(graphs):
    return sum(len(global_model_codes(g, "mstar")) + len(latent_model_codes(g))
               for g in graphs)


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
    rows.append(("model m*+latent (60 random n=6)",
                 timed(workload_split_models, graphs6)[0]))
    os.environ["MVRCG_MAX_N"] = "9"  # above the default model cap
    for n in (7, 8, 9):
        rows.append((f"closure checks edgeless n={n}",
                     timed(workload_closure_checks, MixedGraph(n))[0]))
    for method, label in (("m", "m"), ("mstar", "m*")):
        rows.append((f"model edgeless n=9 {label}",
                     timed(workload_model_method, MixedGraph(9), method)[0]))

    print(f"{'workload':<32} {'seconds':>9}")
    for name, seconds in rows:
        print(f"{name:<32} {seconds:>8.3f}s")


if __name__ == "__main__":
    main()
