import hashlib
import json
import random
import warnings
from itertools import product
from math import prod

import numpy as np
import pytest

from mvrcg import (IndependenceTriple, JointTable, MixedGraph, canonical_dag,
                   ci_holds, factorize_component_dag, factorize_mvr, global_model,
                   head_partition, sample_latent_dag_distribution,
                   validate_chain_graph, verify_factorization)
from mvrcg.enumeration import enumerate_mvr_cgs, random_mvr_cg, random_mvr_cgs
from mvrcg.errors import CapExceeded, DisjointnessViolation, GraphFormatError
from mvrcg.factorization import Factorization, HeadTail

from oracles import oracle_ancestors, oracle_ci, oracle_factorization, powerset

T = IndependenceTriple.of


def table_of(variables, probs):
    arr = np.asarray(probs, dtype=float)
    return JointTable(tuple(variables), arr.shape, arr)


def test_table_validation():
    with pytest.raises(DisjointnessViolation):
        table_of([0], [0.5, 0.6])
    with pytest.raises(DisjointnessViolation):
        table_of([0, 1], [0.5, 0.5])


@pytest.mark.parametrize("probs", [[np.nan, 0.5], [np.inf, 0.5], [-np.inf, 1.0], [0.5, 0.5, 0.0]])
def test_table_rejects_non_finite_or_misshaped_probabilities(probs):
    with pytest.raises(DisjointnessViolation):
        JointTable((0,), (2,), np.array(probs))


@pytest.mark.parametrize("probs", [np.array(["0.5", "0.5"]), np.array([0.5 + 0j, 0.5]),
                                   np.array([0.5, 0.5], dtype=object), np.array([True, False]),
                                   [[0.5], [0.25, 0.25]], None])
def test_table_refuses_probabilities_that_are_not_real_numbers(probs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphFormatError):
            JointTable((0,), (2,), probs)


def test_table_keeps_a_read_only_float_copy_of_any_real_array_like():
    for probs in ([0.25, 0.75], (1, 0), np.array([3, 1], dtype=np.uint8) / 4):
        t = JointTable((0,), (2,), probs)
        assert t.probs.dtype == float and not t.probs.flags.writeable
        assert t.probs.tolist() == list(np.asarray(probs, dtype=float))


def test_writes_to_the_callers_array_change_no_verdict():
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
    before = table_of([0, 1, 2], probs.copy())
    t = JointTable((0, 1, 2), (2, 2, 2), probs)
    triples = [T(a, b, c) for a, b, c in all_triples([0, 1, 2])]
    per_var = Factorization(tuple(HeadTail(frozenset({v}), frozenset()) for v in range(3)),
                            frozenset(range(3)))
    expected = [ci_holds(before, tr) for tr in triples]
    assert not all(expected)  # the uniform table written below would satisfy every triple
    for later in (np.full((2, 2, 2), 1 / 8), rng.dirichlet(np.ones(8)).reshape(2, 2, 2)):
        probs[...] = later  # first before any marginal is memoised, then after
        assert [ci_holds(t, tr) for tr in triples] == expected
        assert not verify_factorization(t, per_var)
    with pytest.raises(ValueError):
        t.probs[0, 0, 0] = 1.0


def test_product_table_independent():
    t = table_of([0, 1], np.outer([0.3, 0.7], [0.6, 0.4]))
    assert ci_holds(t, T([0], [1]))


def test_correlated_pair_dependent():
    t = table_of([0, 1], [[0.5, 0.0], [0.0, 0.5]])
    assert not ci_holds(t, T([0], [1]))


def test_ci_holds_returns_a_plain_bool():
    """Not ``numpy.bool``, which ``json.dumps`` refuses."""
    t = table_of([0, 1, 2], np.full((2, 2, 2), 1 / 8))
    verdicts = [ci_holds(t, T([0], [1])), ci_holds(t, T([0], [1], [2])),
                ci_holds(table_of([0, 1], [[0.5, 0.0], [0.0, 0.5]]), T([0], [1]))]
    assert verdicts == [True, True, False]
    assert all(type(v) is bool for v in verdicts)
    assert json.dumps(verdicts) == "[true, true, false]"


def test_ci_symmetric_and_order_invariant():
    rng = np.random.default_rng(4)
    probs = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
    t = table_of([0, 1, 2], probs)
    swapped = t.reorder((2, 0, 1))
    for triple in (T([0], [1], [2]), T([1], [0], [2]), T([0], [2]), T([1], [2], [0])):
        assert ci_holds(t, triple, 1e-9) == ci_holds(swapped, triple, 1e-9)
        sym = T(triple.b, triple.a, triple.c)
        assert ci_holds(t, triple, 1e-9) == ci_holds(t, sym, 1e-9)


# Variable ids in axis order, and ids that are neither 0..k-1 nor sorted.
SHAPES = [((0, 1, 2, 3), (2, 2, 2, 2)), ((7, 2, 5), (3, 2, 3)), ((4, 9, 1, 6), (2, 3, 2, 3))]


def dyadic_table(rng, variables, cards):
    """A random table whose cells are multiples of 2**-12, often 0, and
    sometimes the product of two independent blocks.  Every marginal then
    sums exactly, so the library and the loop oracles do the same float
    operations on the same numbers and agree even at eps = 0."""
    split = int(rng.integers(len(cards) + 1))
    probs = np.ones(())
    for block in (cards[:split], cards[split:]):
        weights = rng.dirichlet(np.ones(prod(block)))
        weights[rng.random(weights.size) < 0.4] = 0.0
        weights[rng.integers(weights.size)] += 0.1  # some cell keeps mass
        counts = rng.multinomial(1 << 6, weights / weights.sum())
        probs = np.multiply.outer(probs, (counts / (1 << 6)).reshape(block))
    return table_of(variables, probs)


def by_assignment(t):
    return {assign: float(t.probs[assign]) for assign in np.ndindex(t.cards)}


def all_triples(variables):
    """Every <a, b | c> over the variables, as (a, b, c) lists."""
    for roles in product(range(4), repeat=len(variables)):
        a, b, c = ([v for v, r in zip(variables, roles) if r == k] for k in range(3))
        if a and b:
            yield a, b, c


def test_ci_against_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        probs = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
        t = table_of([0, 1, 2, 3], probs)
        by_assign = by_assignment(t)
        for triple in (T([0], [1], [2]), T([0, 1], [3]), T([2], [0, 3], [1])):
            expected = oracle_ci(by_assign, [0, 1, 2, 3],
                                 sorted(triple.a), sorted(triple.b), sorted(triple.c),
                                 1e-7)
            assert ci_holds(t, triple, 1e-7) == expected
    # Tables with zero cells, answering every triple in turn: each verdict
    # must match the oracle and a fresh table's, so no memoised marginal
    # leaks from one triple into the next.
    verdicts, zero_given = set(), False
    for variables, cards in SHAPES:
        for eps in (0.0, 1e-9, 1e-3):
            for _ in range(3):
                t = dyadic_table(rng, variables, cards)
                by_assign = by_assignment(t)
                for a, b, c in all_triples(variables):
                    expected = oracle_ci(by_assign, list(variables), a, b, c, eps)
                    assert ci_holds(t, T(a, b, c), eps) == expected, (t.probs, a, b, c, eps)
                    assert ci_holds(table_of(variables, t.probs), T(a, b, c), eps) == expected
                    verdicts.add(expected)
                    zero_given |= not t.marginal(c).probs.all()
    assert verdicts == {True, False} and zero_given


def random_factorization(rng, variables):
    """Heads partition the variables in a random order; each tail is either
    every earlier head (the chain rule) or a random set of other variables."""
    order = [int(v) for v in rng.permutation(variables)]
    factors, earlier = [], []
    while order:
        size = int(rng.integers(1, len(order) + 1))
        head, order = order[:size], order[size:]
        tail = earlier if rng.random() < 0.5 else [
            v for v in variables if v not in head and rng.random() < 0.5]
        factors.append(HeadTail(frozenset(head), frozenset(tail)))
        earlier = earlier + head
    return Factorization(tuple(factors), frozenset(variables))


def test_verify_factorization_against_loop_oracle():
    rng = np.random.default_rng(12)
    verdicts = set()
    for variables, cards in SHAPES:
        for eps in (0.0, 1e-9, 1e-3):
            for _ in range(3):
                t = dyadic_table(rng, variables, cards)
                by_assign = by_assignment(t)
                for _ in range(8):
                    f = random_factorization(rng, variables)
                    pairs = [(factor.head, factor.tail) for factor in f.factors]
                    expected = oracle_factorization(by_assign, list(variables), pairs, eps)
                    assert verify_factorization(t, f, eps) == expected, (t.probs, pairs, eps)
                    verdicts.add(expected)
    assert verdicts == {True, False}


def test_sampler_deterministic():
    g = MixedGraph(3, bidirected=[(0, 1)], directed=[(1, 2)])
    cd = canonical_dag(g)
    t1 = sample_latent_dag_distribution(cd, seed=5)
    t2 = sample_latent_dag_distribution(cd, seed=5)
    assert np.array_equal(t1.probs, t2.probs)
    t3 = sample_latent_dag_distribution(cd, seed=6)
    assert not np.array_equal(t1.probs, t3.probs)


def test_numeric_oracle_matches_pinned_digest():
    """sha1 of the sampled tables' bytes, ``ci_holds`` at eps 1e-9 and at 0
    on every triple of M, and both ``verify_factorization`` verdicts, over
    every chain graph with n <= 3 and 20 random six-vertex graphs (seed 6),
    with distribution seeds 0 and 1 each.  At eps 0 a verdict turns on the
    last bit of every float, so the digest pins the arithmetic, not only
    the answers."""
    h = hashlib.sha1()
    graphs = [g for n in range(4) for g in enumerate_mvr_cgs(n)]
    graphs += random_mvr_cgs(6, 20, seed=6)
    for g in graphs:
        dec = validate_chain_graph(g)
        cd = canonical_dag(g)
        model = list(global_model(g))
        forms = factorize_mvr(g, dec), factorize_component_dag(g, dec)
        for seed in (0, 1):
            table = sample_latent_dag_distribution(cd, seed)
            h.update(f"{table.variables}{table.cards}".encode() + table.probs.tobytes())
            h.update(bytes(ci_holds(table, t, eps) for t in model for eps in (1e-9, 0)))
            h.update(bytes(verify_factorization(table, f) for f in forms))
    assert len(graphs) == 76
    assert h.hexdigest() == "43bd478ee7dfc1cf54c93def238f559f1ca5f72e"


def test_sampler_single_free_parameter():
    cd = canonical_dag(MixedGraph(1))
    t = sample_latent_dag_distribution(cd, seed=0)
    assert t.probs.shape == (2,)
    assert abs(float(t.probs.sum()) - 1.0) < 1e-12


def test_sampler_cap():
    g = MixedGraph(12, bidirected=[(i, i + 1) for i in range(11)])
    with pytest.raises(CapExceeded):
        sample_latent_dag_distribution(canonical_dag(g), seed=0)


def test_latent_pair_generically_dependent():
    g = MixedGraph(2, bidirected=[(0, 1)])
    cd = canonical_dag(g)
    for seed in range(20):
        t = sample_latent_dag_distribution(cd, seed)
        assert not ci_holds(t, T([0], [1]), 1e-9)


def test_verify_single_factor_always_true():
    rng = np.random.default_rng(2)
    t = table_of([0, 1], rng.dirichlet(np.ones(4)).reshape(2, 2))
    whole = Factorization((HeadTail(frozenset({0, 1}), frozenset()),), frozenset({0, 1}))
    assert verify_factorization(t, whole)


def test_verify_independent_bits():
    t = table_of([0, 1], np.outer([0.2, 0.8], [0.9, 0.1]))
    per_var = Factorization(
        (HeadTail(frozenset({0}), frozenset()), HeadTail(frozenset({1}), frozenset())),
        frozenset({0, 1}))
    assert verify_factorization(t, per_var)
    dependent = table_of([0, 1], [[0.5, 0.0], [0.0, 0.5]])
    assert not verify_factorization(dependent, per_var)


def test_latent_markov_tables_satisfy_model_and_factorizations():
    rng = random.Random(17)
    for trial in range(5):
        n = 3 + trial % 3
        g = random_mvr_cg(n, rng)
        dec = validate_chain_graph(g)
        cd = canonical_dag(g)
        table = sample_latent_dag_distribution(cd, seed=trial)
        for triple in global_model(g):
            assert ci_holds(table, triple, 1e-9)
        assert verify_factorization(table, factorize_mvr(g, dec), 1e-9)
        assert verify_factorization(table, factorize_component_dag(g, dec), 1e-9)


def test_marginal_tables_satisfy_partition_over_closed_sets():
    rng = random.Random(29)
    g = random_mvr_cg(4, rng)
    cd = canonical_dag(g)
    table = sample_latent_dag_distribution(cd, seed=1)
    for members in powerset(range(4)):
        a = set(members)
        if not a or oracle_ancestors(4, g.directed, a) != a:
            continue
        part = head_partition(g, a)
        sub = table.marginal(a)
        assert verify_factorization(sub, part, 1e-9)


@pytest.mark.parametrize("keep", [[5], [0, 5]])
def test_marginal_rejects_ids_not_in_the_table(keep):
    t = table_of([0, 1], np.outer([0.3, 0.7], [0.6, 0.4]))
    with pytest.raises(DisjointnessViolation):
        t.marginal(keep)


def test_marginal_over_nothing_is_the_scalar_table():
    t = table_of([0, 1], np.outer([0.3, 0.7], [0.6, 0.4])).marginal([])
    assert (t.variables, t.cards, float(t.probs)) == ((), (), 1.0)


def test_ci_holds_builds_no_table(monkeypatch):
    rng = np.random.default_rng(3)
    t = table_of([0, 1, 2, 3], rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2))
    built = []
    init = JointTable.__post_init__

    def counting_init(self):
        built.append(self.variables)
        init(self)

    monkeypatch.setattr(JointTable, "__post_init__", counting_init)
    for triple in (T([0], [1]), T([0], [1], [2]), T([3], [0, 1], [2])):
        ci_holds(t, triple)
    assert built == []


def test_empty_graph_gives_the_scalar_table():
    g = MixedGraph(0)
    t = sample_latent_dag_distribution(canonical_dag(g), 0)
    assert (t.variables, t.cards, float(t.probs)) == ((), (), 1.0)
    assert verify_factorization(t, factorize_mvr(g, validate_chain_graph(g)))
