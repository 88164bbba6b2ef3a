"""The benchmark's workloads: their inputs, their per-graph operation and
the counts pinned for them.

One operation verifies one graph with ``mvrcg.sweep.verify_graph`` and
serialises its report with ``VerificationReport.to_json``; on
``oracle_n6`` it also runs the numeric suite the way ``mvrcg
numeric-check`` does.  The seeded workloads draw a base set of graphs from
a fixed seed and let ``--seed`` relabel the vertices of every graph and
shuffle their order.  Every count the engine produces (model sizes,
closure sizes, CI tests) is invariant under relabeling, so the pinned
counts hold for every seed, and the work per run stays the same while
the inputs the program sees change with the seed.  Fresh random graphs
per seed would not do: closure time is heavy-tailed in the model size, so
100 fresh graphs would move a run's rate by more than the bounds.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from mvrcg import (chain, closure, distributions, enumeration, factorization, separation,
                   structure, sweep)
from mvrcg.errors import PartiallyDirectedCycle
from mvrcg.graph import MixedGraph

# Seed of the seeded workloads' base graph sets; ``--seed`` relabels them.
BASE_SEED = 2018

CLOSURE_CHECKS = tuple(f"closure_{prop}" for prop in sweep.PROPERTY_AXIOMS)
ORACLE_CHECKS = ("im_eq_imstar", "marginal_oracle", "ancestral", "maximal", "factorization")

# Graphs per pass (sweep_n4: its max_n) for the full runs and for the self-test.
SIZES = {
    "sweep_n4": {"full": 4, "tiny": 3},
    "closure_sparse6": {"full": 100, "tiny": 3},
    "oracle_n6": {"full": 100, "tiny": 3},
}

# Exact counts per pass at the commit that defined the benchmark, by the
# name of the per-layer metric that reports them.
PINS = {
    ("sweep_n4", "full"): {"graphs": 1743, "separation.model_codes": 11442,
                           "closure.out_codes": 125862, "distributions.ci_tests": 0},
    ("sweep_n4", "tiny"): {"graphs": 55, "separation.model_codes": 82,
                           "closure.out_codes": 902, "distributions.ci_tests": 0},
    ("closure_sparse6", "full"): {"graphs": 100, "separation.model_codes": 12347,
                                  "closure.out_codes": 135817, "distributions.ci_tests": 0},
    ("closure_sparse6", "tiny"): {"graphs": 3, "separation.model_codes": 235,
                                  "closure.out_codes": 2585, "distributions.ci_tests": 0},
    ("oracle_n6", "full"): {"graphs": 100, "separation.model_codes": 5224,
                            "closure.out_codes": 0, "distributions.ci_tests": 5224},
    ("oracle_n6", "tiny"): {"graphs": 3, "separation.model_codes": 232,
                            "closure.out_codes": 0, "distributions.ci_tests": 232},
}


class NullTracer:
    """Stands in for the tracer when tracing is off."""

    def span(self, name):
        return nullcontext()

    def count(self, name, k=1):
        pass


NULL_TRACER = NullTracer()


@dataclass
class Inputs:
    """What set-up builds: the sweep configuration, the graphs of one pass
    (None when the sweep enumerates them on the timed path) and one
    distribution seed per graph for the numeric suite."""

    config: sweep.SweepConfig
    graphs: Optional[list[MixedGraph]]
    dist_seeds: list[int]
    numeric: bool
    enum_s: float = 0.0       # time spent generating the graphs
    candidates: int = 0       # candidate graphs tried
    accepted: int = 0         # candidate graphs kept


class _CountingRandom(random.Random):
    """Counts ``randrange`` draws, so rejection sampling's candidates can be
    counted without reaching into the generator."""

    draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


def _sparse_graphs(count: int, rng: random.Random, n: int = 6,
                   joined: tuple[int, int] = (6, 8)) -> tuple[list[MixedGraph], int]:
    """Chain graphs with ``joined`` of the n(n-1)/2 pairs carrying an edge of
    a random kind; candidates with a partially directed cycle are redrawn."""
    pairs = list(combinations(range(n), 2))
    graphs: list[MixedGraph] = []
    tried = 0
    while len(graphs) < count:
        tried += 1
        directed, bidirected = [], []
        for u, v in rng.sample(pairs, rng.randint(*joined)):
            kind = rng.randrange(3)
            if kind == 0:
                directed.append((u, v))
            elif kind == 1:
                directed.append((v, u))
            else:
                bidirected.append((u, v))
        g = MixedGraph(n, directed, bidirected)
        try:
            chain.validate_chain_graph(g)
        except PartiallyDirectedCycle:
            continue
        graphs.append(g)
    return graphs, tried


def _relabel(g: MixedGraph, perm: list[int]) -> MixedGraph:
    return MixedGraph(g.n, [(perm[t], perm[h]) for t, h in g.directed],
                      [(perm[u], perm[v]) for u, v in g.bidirected])


def build_inputs(name: str, seed: int, size: str, clock) -> Inputs:
    """Set-up for one run of workload ``name``; ``clock`` times generation."""
    count = SIZES[name][size]
    if name == "sweep_n4":
        # Exhaustive and unseeded: the sweep enumerates on the timed path.
        config = sweep.SweepConfig(max_n=count)
        return Inputs(config, None, [], numeric=False)
    t0 = clock()
    if name == "closure_sparse6":
        config = sweep.SweepConfig(checks=CLOSURE_CHECKS)
        base, tried = _sparse_graphs(count, random.Random(BASE_SEED))
    elif name == "oracle_n6":
        config = sweep.SweepConfig(checks=ORACLE_CHECKS)
        counting = _CountingRandom(BASE_SEED)
        base = [enumeration.random_mvr_cg(6, counting) for _ in range(count)]
        tried = counting.draws // 15
    else:
        raise KeyError(name)
    rng = random.Random(seed)
    graphs = [_relabel(g, rng.sample(range(g.n), g.n)) for g in base]
    rng.shuffle(graphs)
    dist_seeds = [rng.randrange(1 << 31) for _ in graphs]
    return Inputs(config, graphs, dist_seeds, numeric=name == "oracle_n6",
                  enum_s=clock() - t0, candidates=tried, accepted=len(base))


def exhaustive_candidates(max_n: int) -> int:
    """Candidate states the exhaustive enumeration tries: 4**C(n,2) per n."""
    return sum(4 ** (n * (n - 1) // 2) for n in range(1, max_n + 1))


def numeric_suite(g: MixedGraph, seed: int, tr=NULL_TRACER) -> tuple[bool, int]:
    """Criterion 8 on one graph: sample a distribution Markov to the latent
    DAG, test every global separation statement numerically and check both
    product forms.  Returns (all held, CI tests made)."""
    with tr.span("chain.validate"):
        dec = chain.validate_chain_graph(g)
    with tr.span("structure.canonical_dag"):
        cd = structure.canonical_dag(g)
    with tr.span("distributions.sample"):
        table = distributions.sample_latent_dag_distribution(cd, seed)
    with tr.span("separation.model"):
        model = separation.global_model(g)
    bad = 0
    for triple in model:
        with tr.span("distributions.ci"):
            bad += not distributions.ci_holds(table, triple)
    tr.count("distributions.ci_tests", len(model))
    with tr.span("factorization.busy"):
        mvr = factorization.factorize_mvr(g, dec)
    with tr.span("factorization.busy"):
        cdag = factorization.factorize_component_dag(g, dec)
    with tr.span("distributions.factor"):
        ok_mvr = distributions.verify_factorization(table, mvr)
    with tr.span("distributions.factor"):
        ok_cdag = distributions.verify_factorization(table, cdag)
    return bad == 0 and ok_mvr and ok_cdag, len(model)


def model_check(inputs: Inputs) -> tuple[int, int]:
    """Sum of separation-model sizes over one pass's graphs, and how many of
    those models are not closed under the compositional-graphoid axioms
    (every separation model is)."""
    graphs = inputs.graphs
    if graphs is None:
        graphs = sweep.sweep_graphs(inputs.config)
    axioms = closure.AxiomSet.compositional_graphoid()
    total = unclosed = 0
    for g in graphs:
        codes = separation.global_model_codes(g)
        total += len(codes)
        unclosed += closure.close_codes(g.n, codes, axioms) != codes
    return total, unclosed
