import random

import pytest

from mvrcg import (IndependenceModel, IndependenceTriple, MixedGraph, chain, markov_blanket,
                   validate_chain_graph)
from mvrcg.enumeration import enumerate_dags, enumerate_mvr_cgs, random_mvr_cg, random_mvr_cgs
from mvrcg.errors import (CapExceeded, HasChildInA, InconsistentOrder,
                          NotAncestrallyClosed)
from mvrcg.properties import (alt_local_triples, consistent_vertex_order, mr_triples,
                              ordered_local_triples, pairwise_triples, type_iv_triples)
from mvrcg.separation import global_model
from mvrcg.sweep import ALL_CHECKS, SweepConfig, verify_graph

from oracles import oracle_ancestors, oracle_district, powerset

T = IndependenceTriple.of


# --- pairwise ------------------------------------------------------------

def test_pairwise_edgeless_pair_p3():
    g = MixedGraph(2)
    dec = validate_chain_graph(g)
    assert set(pairwise_triples(g, dec, "p3")) == {T([0], [1])}


def test_pairwise_complete_bidirected_empty():
    g = MixedGraph(3, bidirected=[(0, 1), (0, 2), (1, 2)])
    dec = validate_chain_graph(g)
    for variant in ("p1", "p2", "p3", "p4"):
        assert len(pairwise_triples(g, dec, variant)) == 0


def test_pairwise_p4_uses_earlier_node():
    g = MixedGraph(3, directed=[(0, 1)])  # a -> b, c isolated
    dec = validate_chain_graph(g)
    p4 = pairwise_triples(g, dec, "p4")
    assert T([0], [2]) in p4           # both isolated-in-order, a's parents empty
    assert T([1], [2], [0]) in p4      # b conditioned on its parent a


def test_pairwise_p4_both_flag_same_component():
    g = MixedGraph(4, bidirected=[(0, 1), (1, 2)], directed=[(3, 0)])
    dec = validate_chain_graph(g)
    plain = pairwise_triples(g, dec, "p4")
    both = pairwise_triples(g, dec, "p4", p4_both=True)
    assert T([0], [2], [3]) in plain       # earlier node 0, pa(0) = {3}
    assert T([0], [2]) not in plain        # pa(2) version only with the flag
    assert T([0], [2]) in both
    assert plain.triples <= both.triples


def oracle_pairwise(g, dec, variant):
    """Definition-level recomputation with sets."""
    triples = []
    n = g.n
    for i in range(n):
        for j in range(i + 1, n):
            if g.adjacent(i, j):
                continue
            pst_i = set(dec.pst(i)) | set(dec.pst(j))
            if variant == "p1":
                cond = pst_i - {i, j}
            elif variant == "p2":
                cond = (oracle_ancestors(n, g.directed, [i])
                        | oracle_ancestors(n, g.directed, [j])) - {i, j}
            elif variant == "p3":
                cond = (set(g.parents(i)) | set(g.parents(j))) - {i, j}
            else:
                ci, cj = dec.component_of[i], dec.component_of[j]
                d = i if (ci, i) <= (cj, j) else j
                triples.append(T([d], [i + j - d], g.parents(d)))
                continue
            triples.append(T([i], [j], cond))
    return IndependenceModel.of(n, triples)


@pytest.mark.parametrize("variant", ["p1", "p2", "p3", "p4"])
def test_pairwise_against_oracle(variant):
    for g in enumerate_mvr_cgs(3):
        dec = validate_chain_graph(g)
        assert pairwise_triples(g, dec, variant) == oracle_pairwise(g, dec, variant)


# --- multivariate regression and block recursive -------------------------

def test_mr_single_vertex_empty():
    g = MixedGraph(1)
    assert len(mr_triples(g, validate_chain_graph(g))) == 0


def test_iv_complete_component_vacuous():
    g = MixedGraph(3, bidirected=[(0, 1), (0, 2), (1, 2)])
    assert len(type_iv_triples(g, validate_chain_graph(g))) == 0


def test_iv_path_component_emits_in_component_statement():
    # one component, not complete: the in-component rule still speaks
    g = MixedGraph(3, bidirected=[(0, 1), (1, 2)])
    iv = type_iv_triples(g, validate_chain_graph(g))
    assert T([0], [2]) in iv


def test_mr_iv_component_cap():
    g = MixedGraph(13, bidirected=[(v, v + 1) for v in range(12)])  # one 13-vertex component
    dec = validate_chain_graph(g)
    with pytest.raises(CapExceeded):
        mr_triples(g, dec)
    with pytest.raises(CapExceeded):
        type_iv_triples(g, dec)


def oracle_mr(g, dec):
    triples = []
    n = g.n
    for idx, comp in enumerate(dec.components):
        pre = set(dec.pre(idx))
        for sub in powerset(sorted(comp)):
            if not sub:
                continue
            sub = set(sub)
            bi = [(u, v) for (u, v) in g.bidirected if u in sub and v in sub]
            parts = []
            left = set(sub)
            while left:
                d = oracle_district(n, bi, min(left), sub)
                parts.append(d)
                left -= d
            if len(parts) == 1:
                pa = {t for (t, h) in g.directed if h in sub} - sub
                rest = pre - pa
                if rest:
                    triples.append(T(sub, rest, pa))
            else:
                for part in parts:
                    triples.append(T(part, sub - part, pre))
    return IndependenceModel.of(n, triples)


def test_mr_against_oracle():
    for g in enumerate_mvr_cgs(3):
        dec = validate_chain_graph(g)
        assert mr_triples(g, dec) == oracle_mr(g, dec)


def oracle_iv(g, dec):
    triples = []
    n = g.n
    for idx, comp in enumerate(dec.components):
        pad = set()
        for j in dec.parent_components(idx):
            pad |= dec.components[j]
        reachable = {idx}
        grow = True
        while grow:
            grow = False
            for (s, t) in dec.component_dag:
                if s in reachable and t not in reachable:
                    reachable.add(t)
                    grow = True
        nd = set()
        for j in range(len(dec.components)):
            if j not in reachable:
                nd |= dec.components[j]
        if nd - pad:
            triples.append(T(comp, nd - pad, pad))
        for sub in powerset(sorted(comp)):
            if not sub:
                continue
            sub = set(sub)
            pa = {t for (t, h) in g.directed if h in sub} - sub
            if pad - pa:
                triples.append(T(sub, pad - pa, pa))
            bi = [(u, v) for (u, v) in g.bidirected if u in sub and v in sub]
            if oracle_district(n, bi, min(sub), sub) == sub:
                nbs = set(sub)
                for (u, v) in g.bidirected:
                    if u in sub:
                        nbs.add(v)
                    if v in sub:
                        nbs.add(u)
                if comp - nbs:
                    triples.append(T(sub, comp - nbs, pad))
    return IndependenceModel.of(n, triples)


def test_iv_against_oracle():
    for g in enumerate_mvr_cgs(3):
        dec = validate_chain_graph(g)
        assert type_iv_triples(g, dec) == oracle_iv(g, dec)


# --- markov blanket and ordered local ------------------------------------

def test_markov_blanket_trivia():
    g = MixedGraph(1)
    assert markov_blanket(g, 0, [0]) == set()
    g2 = MixedGraph(2, directed=[(0, 1)])
    assert markov_blanket(g2, 1, [0, 1]) == {0}


def test_markov_blanket_district_parents():
    # 0 <-> 1 <- 2
    g = MixedGraph(3, bidirected=[(0, 1)], directed=[(2, 1)])
    assert markov_blanket(g, 0, [0, 1, 2]) == {1, 2}


def test_markov_blanket_validation():
    g = MixedGraph(3, directed=[(0, 1), (1, 2)])
    with pytest.raises(NotAncestrallyClosed):
        markov_blanket(g, 1, [1])
    with pytest.raises(HasChildInA):
        markov_blanket(g, 1, [0, 1, 2])
    with pytest.raises(NotAncestrallyClosed):
        markov_blanket(g, 2, [0, 1])


def test_markov_blanket_against_brute_force():
    rng = random.Random(13)
    for _ in range(25):
        g = random_mvr_cg(4, rng)
        for members in powerset(range(4)):
            a = set(members)
            if not a or oracle_ancestors(4, g.directed, a) != a:
                continue
            for x in a:
                if set(g.children(x)) & a:
                    continue
                bi = [(u, v) for (u, v) in g.bidirected if u in a and v in a]
                dis = oracle_district(4, bi, x, a)
                expected = ({t for (t, h) in g.directed if h in dis} - dis) | (dis - {x})
                assert markov_blanket(g, x, a) == expected


def test_ordered_local_single_vertex():
    g = MixedGraph(1)
    assert len(ordered_local_triples(g)) == 0


def test_ordered_local_vacuous_dropped():
    g = MixedGraph(2, directed=[(0, 1)])
    assert len(ordered_local_triples(g)) == 0


def test_ordered_local_three_vertices():
    g = MixedGraph(3, directed=[(0, 2)])  # a -> c, b isolated
    ol = ordered_local_triples(g)
    assert T([2], [1], [0]) in ol


def test_ordered_local_rejects_bad_order():
    g = MixedGraph(2, directed=[(0, 1)])
    with pytest.raises(InconsistentOrder):
        ordered_local_triples(g, order=[1, 0])
    with pytest.raises(InconsistentOrder):
        ordered_local_triples(g, order=[0, 0])


def test_consistent_vertex_order_property():
    for g in enumerate_mvr_cgs(4):
        order = consistent_vertex_order(g)
        seen = set()
        for v in order:
            assert oracle_ancestors(4, g.directed, [v]) <= seen | {v}
            seen.add(v)


# --- alternative local ----------------------------------------------------

def test_alt_local_dag_reduces_to_directed_local():
    g = MixedGraph(3, directed=[(0, 1), (1, 2)])
    assert set(alt_local_triples(g)) == {T([2], [0], [1])}


def test_alt_local_pure_bidirected_dual():
    g = MixedGraph(4, bidirected=[(0, 1), (1, 2), (2, 3)])
    alt = alt_local_triples(g)
    assert T([0], [2, 3]) in alt
    assert T([3], [0, 1]) in alt
    assert T([1], [3]) in alt


def test_alt_local_complete_bidirected_empty():
    g = MixedGraph(3, bidirected=[(0, 1), (0, 2), (1, 2)])
    assert len(alt_local_triples(g)) == 0


def test_alt_local_sound_for_descendants_of_neighbours():
    # 1 <-> 2 -> 0: no statement may claim 1 independent of 0 marginally
    g = MixedGraph(3, directed=[(2, 0)], bidirected=[(1, 2)])
    alt = alt_local_triples(g)
    assert T([0], [1]) not in alt
    assert alt.triples <= global_model(g).triples


# --- soundness of every property against the separation model ------------

def test_every_property_sound_exhaustive_n4():
    for n in (2, 3, 4):
        _assert_properties_sound(n)


def _assert_properties_sound(n):
    for g in enumerate_mvr_cgs(n):
        dec = validate_chain_graph(g)
        glob = global_model(g).triples
        models = [
            mr_triples(g, dec), type_iv_triples(g, dec),
            ordered_local_triples(g), alt_local_triples(g),
            *(pairwise_triples(g, dec, v) for v in ("p1", "p2", "p3", "p4")),
        ]
        for model in models:
            assert model.triples <= glob


def test_dag_local_properties_equal_global_closures():
    from mvrcg import AxiomSet, close
    sg = AxiomSet.semi_graphoid()
    for dag in enumerate_dags(3):
        glob = close(global_model(dag), sg)
        assert close(alt_local_triples(dag), sg) == glob
        assert close(ordered_local_triples(dag), sg) == glob


@pytest.mark.parametrize("target, name", [(IndependenceTriple, "__post_init__"),
                                          (chain, "set_of")],
                         ids=["IndependenceTriple", "chain_set_of"])
def test_verify_graph_needs_no_frozenset_forms(monkeypatch, target, name):
    """The sweep's path runs on masks and codes: it builds no
    ``IndependenceTriple`` and no frozenset component."""
    def refuse(*args):
        raise AssertionError(f"{name} called on the sweep's path")

    monkeypatch.setattr(target, name, refuse)
    graphs = [g for n in range(1, 4) for g in enumerate_mvr_cgs(n)]
    graphs += random_mvr_cgs(5, 5, seed=5)
    for i, g in enumerate(graphs):
        report = verify_graph(g, SweepConfig(), i)
        assert {check: c.status for check, c in report.checks.items()} == \
            dict.fromkeys(ALL_CHECKS, "pass"), report.to_json()
