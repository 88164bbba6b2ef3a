"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Budgets are wall-clock upper bounds for the Python
kernels.
"""

import random
import time
from itertools import combinations

from mvrcg import (AxiomSet, IndependenceTriple, MixedGraph, canonical_dag,
                   ci_holds, close, d_separated, factorize_component_dag,
                   factorize_mvr, global_model, head_partition, is_ancestral,
                   is_maximal, m_star_separated, marginal_model_equal, mr_triples,
                   sample_latent_dag_distribution, type_iv_triples,
                   validate_chain_graph, verify_factorization)
from mvrcg import fixtures
from mvrcg.enumeration import (enumerate_dags, enumerate_mvr_cgs, random_mvr_cg,
                               random_mvr_cgs)
from mvrcg.intervention import intervene
from mvrcg.properties import alt_local_triples
from mvrcg.separation import global_model_codes, iter_canonical_codes
from mvrcg.sweep import ALL_CHECKS, SweepConfig, run_equivalence_sweep

T = IndependenceTriple.of


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"


def test_criterion_1_nonmaximal_fixture():
    with Budget("1 nonmaximal fixture", 1.0):
        g = fixtures.load("fig1")
        assert not is_maximal(g)
        gam, delt = g.index_of("gamma"), g.index_of("delta")
        ab = [g.index_of("alpha"), g.index_of("beta")]
        for r in range(3):
            for z in combinations(ab, r):
                assert not m_star_separated(g, [gam], [delt], z)
        assert len(global_model(g)) == 0


def test_criterion_2_ladder_components():
    with Budget("2 ladder components", 1.0):
        g = fixtures.load("fig2")
        dec = validate_chain_graph(g)
        named = [frozenset(g.labels[v] for v in comp) for comp in dec.components]
        assert named == [frozenset("ab"), frozenset("cd"),
                         frozenset("ef"), frozenset("gh")]
        assert dec.component_order == (0, 1, 2, 3)


def test_criterion_3_two_level_fixture():
    with Budget("3 two-level fixture", 5.0):
        g = fixtures.load("fig3")
        dec = validate_chain_graph(g)
        ids = lambda *ls: [g.index_of(l) for l in ls]
        mr = mr_triples(g, dec)
        assert T(ids("1", "2"), ids("6", "7"), ids("5")) in mr
        assert T(ids("1"), ids("3", "4"), ids("5", "6", "7")) in mr
        iv = type_iv_triples(g, dec)
        assert T(ids("1", "2"), ids("6"), ids("5")) in iv
        assert T(ids("1"), ids("3", "4"), ids("5", "6")) in iv

        part = head_partition(g, range(g.n))
        blocks = {tuple(sorted(f.head)): tuple(sorted(f.tail)) for f in part.factors}
        assert blocks == {(0, 1, 2, 3): (4,), (4, 5): (6,), (6,): ()}
        assert factorize_mvr(g, dec).format(g.labels) == \
            "p(1,2,3,4 | 5) p(5,6 | 7) p(7)"
        assert factorize_component_dag(g, dec).format(g.labels) == \
            "p(1,2,3,4 | 5,6) p(5,6 | 7) p(7)"


def test_criterion_4_equivalence_sweep():
    with Budget("4 equivalence sweep", 1800.0):
        checks = tuple(c for c in ALL_CHECKS
                       if c.startswith("closure_") or c == "im_eq_imstar")
        config = SweepConfig(max_n=4, random_count=200, random_n=5, seed=2024,
                             checks=checks)
        graphs = 0
        for report in run_equivalence_sweep(config):
            graphs += 1
            assert report.ok, f"graph #{report.index} {report.directed} " \
                f"{report.bidirected}: " \
                f"{ {k: v.witness for k, v in report.checks.items() if v.status == 'fail'} }"
        assert graphs == 1 + 4 + 50 + 1688 + 200


def test_criterion_5_negative_control():
    with Budget("5 negative control", 30.0):
        sg = AxiomSet.semi_graphoid()

        def strict(g):
            alt = close(alt_local_triples(g), sg).triples
            glob = close(global_model(g), sg).triples
            return alt < glob

        # the two-edge graph is a witness ...
        two_pairs = MixedGraph(4, bidirected=[(0, 1), (2, 3)])
        assert strict(two_pairs)
        missing = close(global_model(two_pairs), sg).triples \
            - close(alt_local_triples(two_pairs), sg).triples
        assert T([0, 1], [2, 3]) in missing  # composition is what is missing

        # ... the chordless four-cycle is not (its statements already
        # generate the whole model), so the quantifier "at least one pure
        # bidirected graph" is discharged by the witness above
        cycle = MixedGraph(4, bidirected=[(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not strict(cycle)

        # at least one pure bidirected graph on four vertices is a witness
        witnesses = 0
        for g in enumerate_mvr_cgs(4):
            if g.directed or not g.bidirected:
                continue
            witnesses += strict(g)
        assert witnesses > 0


def test_criterion_6_structural_properties():
    with Budget("6 structural properties", 1800.0):
        for n in range(1, 5):
            for g in enumerate_mvr_cgs(n):
                assert is_ancestral(g)
                assert is_maximal(g)
                assert marginal_model_equal(g)
        for n, seed in ((5, 61), (6, 62)):
            for g in random_mvr_cgs(n, 150, seed):
                res = marginal_model_equal(g)
                assert res, f"{g}: {res.witness}"


def test_criterion_7_no_dag_perfect_map():
    with Budget("7 no DAG perfect map", 300.0):
        latent = fixtures.load("fig4a")
        confounded = fixtures.load("fig4b")
        observed = list(range(4))

        restricted = set()
        for code, a, b, c in iter_canonical_codes(4):
            xs = [v for v in observed if a >> v & 1]
            ys = [v for v in observed if b >> v & 1]
            zs = [v for v in observed if c >> v & 1]
            if d_separated(latent, xs, ys, zs):
                restricted.add(code)

        assert set(global_model_codes(confounded)) == restricted

        matches = 0
        total = 0
        for dag in enumerate_dags(4):
            total += 1
            if set(global_model_codes(dag)) == restricted:
                matches += 1
        assert total == 543
        assert matches == 0


def test_criterion_8_numeric_suite():
    with Budget("8 numeric suite", 600.0):
        rng = random.Random(808)
        for seed in range(20):
            n = 3 + seed % 3
            g = random_mvr_cg(n, rng)
            dec = validate_chain_graph(g)
            table = sample_latent_dag_distribution(canonical_dag(g), seed)
            for triple in global_model(g):
                assert ci_holds(table, triple, 1e-9), (g, str(triple), seed)
            assert verify_factorization(table, factorize_mvr(g, dec), 1e-9)
            assert verify_factorization(table, factorize_component_dag(g, dec), 1e-9)


def test_criterion_9_intervention():
    with Budget("9 intervention", 60.0):
        rng = random.Random(909)
        for _ in range(100):
            n = rng.randrange(2, 7)
            g = random_mvr_cg(n, rng)
            x = [v for v in range(n) if rng.random() < 0.5]
            cut = intervene(g, x)
            for v in x:
                assert cut.parents(v) == frozenset()
                assert cut.neighbors(v) == frozenset()
            validate_chain_graph(cut)
            assert intervene(cut, x) == cut
