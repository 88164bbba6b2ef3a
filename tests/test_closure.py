import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from mvrcg import (AxiomSet, IndependenceModel, IndependenceTriple, MixedGraph, close,
                   equivalent_under, satisfies)
from mvrcg.chain import validate_chain_graph
from mvrcg.closure import close_codes
from mvrcg.enumeration import enumerate_mvr_cgs
from mvrcg.errors import CapExceeded, DisjointnessViolation, UnknownName
from mvrcg.properties import (alt_local_triples, mr_triples, ordered_local_triples,
                              pairwise_triples, property_model, type_iv_triples)
from mvrcg.separation import global_model, global_model_codes, iter_canonical_codes
from mvrcg.structure import is_maximal
from mvrcg.triples import decode_triple, encode_triple

from oracles import AXIOM_NAMES, oracle_closure

T = IndependenceTriple.of


# --- triples -------------------------------------------------------------

def test_triple_canonicalization():
    assert T([2], [1]) == T([1], [2])
    assert T([1, 3], [0, 2]).a == frozenset({0, 2})
    with pytest.raises(DisjointnessViolation):
        T([], [1])
    with pytest.raises(DisjointnessViolation):
        T([0], [0])
    with pytest.raises(DisjointnessViolation):
        T([0], [1], [1])


def test_triple_code_round_trip():
    n = 4
    for a in range(1, 16):
        for b in range(1, 16):
            if a & b:
                continue
            for c in (0, (~(a | b)) & 15):
                t = T([v for v in range(4) if a >> v & 1],
                      [v for v in range(4) if b >> v & 1],
                      [v for v in range(4) if c >> v & 1])
                assert decode_triple(encode_triple(t, n), n) == t


def test_model_json_round_trip():
    m = IndependenceModel.of(3, [T([0], [1], [2]), T([0], [2])])
    again = IndependenceModel.from_json_obj(m.to_json_obj())
    assert again == m


# --- closure -------------------------------------------------------------

def random_model(rng, n=4, size=4):
    triples = []
    while len(triples) < size:
        labels = [rng.randrange(4) for _ in range(n)]
        a = [v for v in range(n) if labels[v] == 1]
        b = [v for v in range(n) if labels[v] == 2]
        c = [v for v in range(n) if labels[v] == 3]
        if a and b:
            triples.append(T(a, b, c))
    return IndependenceModel.of(n, triples)


def test_close_empty():
    for name in ("sg", "g", "csg", "cg"):
        assert len(close(IndependenceModel.of(3, []), AxiomSet.parse(name))) == 0


def test_close_decomposition_weak_union_consequences():
    m = IndependenceModel.of(3, [T([0], [1, 2])])
    closed = close(m, AxiomSet.semi_graphoid())
    assert T([0], [1]) in closed
    assert T([0], [2]) in closed
    assert T([0], [2], [1]) in closed
    assert T([0], [1], [2]) in closed


def test_closure_idempotent_on_random_models():
    rng = random.Random(3)
    ax = AxiomSet.semi_graphoid()
    for _ in range(100):
        m = random_model(rng)
        once = close(m, ax)
        assert close(once, ax) == once


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["sg", "g", "csg", "cg"]))
def test_closure_extensive_and_monotone(seed, axname):
    rng = random.Random(seed)
    ax = AxiomSet.parse(axname)
    small = random_model(rng, size=3)
    extra = random_model(rng, size=2)
    big = small.union(extra)
    c_small = close(small, ax)
    c_big = close(big, ax)
    assert small.triples <= c_small.triples
    assert c_small.triples <= c_big.triples


# The four named axiom sets plus each binary axiom alone, composition
# with intersection, and each unary axiom alone: every join rule of the
# kernel is then checked on its own as well as in combination.
ORACLE_AXIOMS = {
    **AXIOM_NAMES,
    "contraction": {"contraction"},
    "intersection": {"intersection"},
    "composition": {"composition"},
    "composition+intersection": {"composition", "intersection"},
    "decomposition": {"decomposition"},
    "weak_union": {"weak_union"},
}


def axioms_named(names) -> AxiomSet:
    return AxiomSet(**dict.fromkeys(names, True))


def check_satisfies(m, ax):
    """``satisfies`` answers whether ``m`` is closed, and its witness is
    one step of the named axiom from premises in ``m`` to a conclusion
    outside it."""
    res = satisfies(m, ax)
    assert bool(res) == (close(m, ax) == m)
    if not res:
        w = res.witness
        assert all(p in m for p in w.premises)
        assert w.conclusion not in m
        step = oracle_closure([(p.a, p.b, p.c) for p in w.premises], {w.axiom})
        assert (w.conclusion.a, w.conclusion.b, w.conclusion.c) in step


@pytest.mark.parametrize("axname", list(ORACLE_AXIOMS))
def test_closure_matches_naive_oracle(axname):
    """Each random model is closed as drawn and again after the oracle
    closes it under decomposition and weak union: three random triples
    rarely meet the premises of a binary rule, their unary closure
    mostly does.  ``satisfies`` is checked on each model and its closure
    under this axiom set and under none, so every model meets all 11."""
    rng = random.Random(41)
    names = ORACLE_AXIOMS[axname]
    ax = axioms_named(names)
    for n, count in ((4, 25), (5, 10)):
        for _ in range(count):
            drawn = [(t.a, t.b, t.c) for t in random_model(rng, n=n, size=3)]
            unary = oracle_closure(drawn, {"decomposition", "weak_union"})
            for triples in (drawn, unary):
                m = IndependenceModel.of(n, [T(a, b, c) for a, b, c in triples])
                closed = close(m, ax)
                got = {(t.a, t.b, t.c) for t in closed}
                assert got == oracle_closure(triples, names)
                for model in (m, closed):
                    check_satisfies(model, ax)
                check_satisfies(m, AxiomSet())


def test_close_codes_match_pinned_digest():
    """sha1 of ``close_codes`` outputs, computed with the kernel that
    joined each worklist triple against the whole model: every separation
    model with n <= 4 under sg, g, csg and cg; the p3 statements of the
    edgeless six-vertex graph under cg (1,351 codes); and 40 fixed models
    of up to three triples at n = 5 under every axiom set above and none."""
    h = hashlib.sha1()

    def feed(n, axname, codes):
        out = close_codes(n, codes, axioms_named(ORACLE_AXIOMS.get(axname, ())))
        h.update(f"{n}/{axname}:{','.join(map(str, out))}\n".encode())
        return out

    for n in range(1, 5):
        for g in enumerate_mvr_cgs(n):
            codes = global_model_codes(g)
            for axname in AXIOM_NAMES:
                feed(n, axname, codes)
    assert len(feed(6, "cg", property_model(MixedGraph(6), "p3").to_codes())) == 1351
    canon = [code for code, *_ in iter_canonical_codes(5)]
    for i in range(40):
        codes = sorted({canon[(37 * i + 211 * j) % len(canon)] for j in range(3)})
        for axname in [*ORACLE_AXIOMS, "none"]:
            feed(5, axname, codes)
    assert h.hexdigest() == "2806402c10624f347f96443a5b873b14211591dd"


def test_satisfies_reports_violation():
    m = IndependenceModel.of(3, [T([0], [1, 2])])
    res = satisfies(m, AxiomSet.semi_graphoid())
    assert not res
    assert res.witness.axiom in ("decomposition", "weak_union", "contraction")
    assert res.witness.conclusion not in m


def test_satisfies_trivia():
    assert satisfies(IndependenceModel.of(3, []), AxiomSet.compositional_graphoid())
    closed = close(IndependenceModel.of(3, [T([0], [1, 2])]), AxiomSet.semi_graphoid())
    assert satisfies(closed, AxiomSet.semi_graphoid())


def test_separation_models_are_compositional_graphoids():
    cg = AxiomSet.compositional_graphoid()
    for n in (2, 3, 4):
        for g in enumerate_mvr_cgs(n):
            model = global_model(g)
            res = satisfies(model, cg)
            assert res, f"{g}: {res.witness}"
    assert satisfies(global_model(MixedGraph(6)), cg)  # all 1,351 triples


def test_equivalent_under_reflexive():
    m = random_model(random.Random(1))
    assert equivalent_under(m, m, AxiomSet.semi_graphoid())


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        close(IndependenceModel.of(9, [T([0], [1])]), AxiomSet.semi_graphoid(), cap=7)


@pytest.mark.parametrize("call", [
    lambda g: AxiomSet.parse("x"),
    lambda g: property_model(g, "zz"),
    lambda g: pairwise_triples(g, validate_chain_graph(g), "p9"),
    lambda g: global_model_codes(g, method="q"),
    lambda g: is_maximal(g, method="zsets"),
], ids=["axiom_set", "property_kind", "pairwise_variant", "separation_method",
        "maximality_method"])
def test_unknown_names_are_typed_errors(call):
    with pytest.raises(UnknownName) as err:
        call(MixedGraph(3, directed=[(0, 1)]))
    assert isinstance(err.value, ValueError)  # callers catching ValueError still do


# --- the containments used by the equivalence proofs ---------------------

def test_proof_chain_containments_exhaustive_n3():
    sg = AxiomSet.semi_graphoid()
    csg = AxiomSet.compositional_semi_graphoid()
    for g in enumerate_mvr_cgs(3):
        dec = validate_chain_graph(g)
        glob = set(global_model_codes(g))
        mr = set(mr_triples(g, dec).to_codes())
        iv = set(type_iv_triples(g, dec).to_codes())
        ol = set(ordered_local_triples(g).to_codes())
        alt = set(alt_local_triples(g).to_codes())
        assert mr <= set(close_codes(g.n, sorted(iv), sg))
        assert ol <= set(close_codes(g.n, sorted(mr), sg))
        assert iv <= set(close_codes(g.n, sorted(glob), sg))
        assert mr <= set(close_codes(g.n, sorted(alt), csg))
        assert alt <= set(close_codes(g.n, sorted(glob), sg))
