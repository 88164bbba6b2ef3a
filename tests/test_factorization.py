import random
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from mvrcg import (MixedGraph, barren, factorize_component_dag, factorize_mvr,
                   head_partition, heads, validate_chain_graph)
from mvrcg.chain import _chain_order
from mvrcg.enumeration import enumerate_dags, enumerate_mvr_cgs, random_mvr_cg
from mvrcg.errors import CapExceeded, NotAncestrallyClosed
from mvrcg.factorization import is_head, tail_of_head

from oracles import oracle_is_head, oracle_tail, powerset


def test_barren_edgeless():
    g = MixedGraph(3)
    assert barren(g, [0, 1, 2]) == {0, 1, 2}


def test_barren_drops_ancestors():
    g = MixedGraph(2, directed=[(0, 1)])
    assert barren(g, [0, 1]) == {1}


def test_chain_components_are_barren():
    for g in enumerate_mvr_cgs(4):
        for comp in validate_chain_graph(g).components:
            assert barren(g, comp) == comp


def test_heads_of_dag_are_singletons_with_parent_tails():
    for dag in enumerate_dags(3):
        hts = heads(dag)
        assert {tuple(sorted(ht.head)) for ht in hts} == {(v,) for v in range(3)}
        for ht in hts:
            (v,) = ht.head
            assert ht.tail == dag.parents(v)


def test_heads_single_bidirected_edge():
    g = MixedGraph(2, bidirected=[(0, 1)])
    hts = {tuple(sorted(ht.head)): ht.tail for ht in heads(g)}
    assert hts == {(0,): frozenset(), (1,): frozenset(), (0, 1): frozenset()}


def test_heads_against_definition_oracle():
    rng = random.Random(23)
    for _ in range(30):
        g = random_mvr_cg(4, rng)
        expected = {}
        for members in powerset(range(4)):
            if members and oracle_is_head(4, g.directed, g.bidirected, members):
                expected[frozenset(members)] = frozenset(
                    oracle_tail(4, g.directed, g.bidirected, members))
        got = {ht.head: ht.tail for ht in heads(g)}
        assert got == expected
        for h, t in got.items():
            assert is_head(g, h)
            assert tail_of_head(g, h) == t


def test_heads_cap():
    with pytest.raises(CapExceeded):
        heads(MixedGraph(13))


def test_head_partition_requires_ancestral_closure():
    g = MixedGraph(2, directed=[(0, 1)])
    with pytest.raises(NotAncestrallyClosed):
        head_partition(g, [1])


def test_head_partition_empty_scope():
    assert head_partition(MixedGraph(2), []).factors == ()


def test_head_partition_dag_singletons():
    for dag in enumerate_dags(3):
        part = head_partition(dag, range(3))
        assert all(len(f.head) == 1 for f in part.factors)
        assert part.blocks() == {frozenset({v}) for v in range(3)}


def test_head_partition_blocks_partition_every_closed_set():
    rng = random.Random(7)
    for _ in range(40):
        g = random_mvr_cg(4, rng)
        for members in powerset(range(4)):
            a = frozenset(members)
            from oracles import oracle_ancestors
            if oracle_ancestors(4, g.directed, a) != set(a):
                continue
            part = head_partition(g, a)
            covered = [v for f in part.factors for v in f.head]
            assert sorted(covered) == sorted(a)
            for f in part.factors:
                # each block independently passes the head conditions
                assert oracle_is_head(4, g.directed, g.bidirected, f.head)
                assert f.tail == frozenset(oracle_tail(4, g.directed, g.bidirected, f.head))


def test_full_partition_equals_component_factorization():
    for g in enumerate_mvr_cgs(4):
        dec = validate_chain_graph(g)
        part = head_partition(g, range(4))
        mvr = factorize_mvr(g, dec)
        assert part.blocks() == mvr.blocks()
        for f in mvr.factors:
            assert part.tail_of(f.head) == f.tail


def test_factorize_trivia():
    g = MixedGraph(2, directed=[(0, 1)])
    dec = validate_chain_graph(g)
    mvr = factorize_mvr(g, dec)
    cdag = factorize_component_dag(g, dec)
    assert mvr.factors == cdag.factors
    assert {(tuple(sorted(f.head)), tuple(sorted(f.tail))) for f in mvr.factors} == \
        {((1,), (0,)), ((0,), ())}

    edgeless = MixedGraph(3)
    fact = factorize_mvr(edgeless, validate_chain_graph(edgeless))
    assert all(not f.tail for f in fact.factors)
    assert len(fact.factors) == 3


def test_component_tails_inside_parent_components_exhaustive_n5():
    # mask-level sweep over every labeled chain graph on five vertices:
    # the graphical parents of a component stay inside its parent components.
    # The chain test reads only a graph's n, ch and nb, so a namespace of
    # the masks stands in for each of the 4**10 assignments
    n = 5
    pairs = list(combinations(range(n), 2))
    count = 0
    for states in product(range(4), repeat=len(pairs)):
        ch = [0] * n
        nb = [0] * n
        pa = [0] * n
        for (u, v), s in zip(pairs, states):
            if s == 1:
                ch[u] |= 1 << v
                pa[v] |= 1 << u
            elif s == 2:
                ch[v] |= 1 << u
                pa[u] |= 1 << v
            elif s == 3:
                nb[u] |= 1 << v
                nb[v] |= 1 << u
        if _chain_order(SimpleNamespace(n=n, ch=ch, nb=nb)) is None:
            continue
        count += 1
        comp_of = [-1] * n
        comps = []
        for v in range(n):
            if comp_of[v] >= 0:
                continue
            comp = 1 << v
            frontier = comp
            while frontier:
                grown = 0
                m = frontier
                while m:
                    low = m & -m
                    grown |= nb[low.bit_length() - 1]
                    m ^= low
                frontier = grown & ~comp
                comp |= frontier
            for u in range(n):
                if comp >> u & 1:
                    comp_of[u] = len(comps)
            comps.append(comp)
        for comp in comps:
            pa_g = 0
            m = comp
            while m:
                low = m & -m
                pa_g |= pa[low.bit_length() - 1]
                m ^= low
            pa_g &= ~comp
            pa_d = 0
            for other in comps:
                if other != comp and pa_g & other:
                    pa_d |= other
            assert pa_g & ~pa_d == 0
    assert count == 142624  # frozen: labeled chain graphs on five vertices
