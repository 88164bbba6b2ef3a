import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from mvrcg import (AxiomSet, IndependenceModel, IndependenceTriple, MixedGraph, close,
                   equivalent_under, satisfies)
from mvrcg.chain import validate_chain_graph
from mvrcg._kernels.pyfallback import close_codes as kernel_close_codes
from mvrcg._kernels.pyfallback import elementary_closure, semi_graphoid_codes
from mvrcg.closure import close_codes, closed_target
from mvrcg.enumeration import enumerate_mvr_cgs
from mvrcg.errors import CapExceeded, DisjointnessViolation, ModelFormatError, UnknownName
from mvrcg.properties import (alt_local_triples, mr_triples, ordered_local_triples,
                              pairwise_triples, property_model, type_iv_triples)
from mvrcg.separation import global_model, global_model_codes, iter_canonical_codes
from mvrcg.structure import is_maximal
from mvrcg.triples import decode_triple, encode_triple

from oracles import AXIOM_NAMES, base4_code, elementary_codes, oracle_closure

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


@pytest.mark.parametrize("blocks", [([-1], [1]), ([0], [-1]), ([0], [1], [-2])])
def test_triple_rejects_negative_ids(blocks):
    with pytest.raises(DisjointnessViolation):
        T(*blocks)
    with pytest.raises(DisjointnessViolation):
        encode_triple(T(*blocks), 3)


def test_encode_triple_rejects_ids_outside_the_ground_set():
    with pytest.raises(DisjointnessViolation):
        encode_triple(T([0], [3]), 3)


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


def check_satisfies(m, ax, names):
    """``satisfies`` answers whether ``m`` is closed, and its witness is a
    triple of the closure outside ``m``, by the package's closure and by
    the naive one under the axioms ``names``."""
    res = satisfies(m, ax)
    assert bool(res) == (close(m, ax) == m)
    if not res:
        w = res.witness
        assert w in close(m, ax) and w not in m
        assert (w.a, w.b, w.c) in oracle_closure([(t.a, t.b, t.c) for t in m], names)


@pytest.mark.parametrize("axname", list(AXIOM_NAMES))
def test_closure_matches_naive_oracle(axname):
    """Each random model is closed as drawn and again after the oracle
    closes it under decomposition and weak union: three random triples
    rarely meet the premises of a binary rule, their unary closure
    mostly does.  ``satisfies`` is checked on each model and its
    closure."""
    rng = random.Random(41)
    names = AXIOM_NAMES[axname]
    ax = AxiomSet.parse(axname)
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
                    check_satisfies(model, ax, names)


def test_close_codes_match_pinned_digest():
    """sha1 of ``close_codes`` outputs as sorted base-4 numbers, computed
    with an independent closure over full triples, not elementary ones:
    every separation model with n <= 4 under sg, g, csg and cg; the
    p3 statements of the edgeless six-vertex graph under cg (1,351
    codes); and the 40 models of ``_pinned_digest_models`` under sg, g,
    csg and cg."""
    h = hashlib.sha1()

    def feed(n, axname, codes):
        out = close_codes(n, codes, AxiomSet.parse(axname))
        numbers = sorted(base4_code(n, code) for code in out)
        h.update(f"{n}/{axname}:{','.join(map(str, numbers))}\n".encode())
        return out

    for n in range(1, 5):
        for g in enumerate_mvr_cgs(n):
            codes = global_model_codes(g)
            for axname in AXIOM_NAMES:
                feed(n, axname, codes)
    assert len(feed(6, "cg", property_model(MixedGraph(6), "p3").to_codes())) == 1351
    for codes in _pinned_digest_models():
        for axname in AXIOM_NAMES:
            feed(5, axname, codes)
    assert h.hexdigest() == "aa3ff6a3acf58d89e0a8a6374a2f0ca1df42acc1"


def _pinned_digest_models():
    """40 fixed models of up to three canonical codes at n = 5, picked
    from the canonical triples in the order of their base-4 numbers."""
    canon = sorted((code for code, *_ in iter_canonical_codes(5)),
                   key=lambda code: base4_code(5, code))
    return [sorted({canon[(37 * i + 211 * j) % len(canon)] for j in range(3)})
            for i in range(40)]


def is_closed_under_cg(n, codes):
    """Whether one round of the naive closure under cg adds nothing to
    ``codes``."""
    triples = [(t.a, t.b, t.c) for t in (decode_triple(code, n) for code in codes)]
    return len(oracle_closure(triples, AXIOM_NAMES["cg"], once=True)) == len(codes)


def test_elementary_closedness_proof_matches_the_naive_closure():
    """``closed_target``'s proof that a model is a compositional graphoid,
    from its elementary triples and the pairwise condition, agrees with
    the naive closure under cg on every separation model with n <= 4,
    the same model with one code dropped and with one code added (codes
    drawn at random), and the 40 models of the pinned closure digest and
    their closures under sg, g, csg and cg.  A closed model's target is
    its sorted codes, its code set and its number of elementary triples."""
    rng = random.Random(17)
    models = []
    for n in range(1, 5):
        canonical = [code for code, *_ in iter_canonical_codes(n)]
        for g in enumerate_mvr_cgs(n):
            codes = global_model_codes(g)
            models.append((n, codes))
            if codes:
                k = rng.randrange(len(codes))
                models.append((n, codes[:k] + codes[k + 1:]))
            outside = sorted(set(canonical) - set(codes))
            if outside:
                models.append((n, sorted(codes + [rng.choice(outside)])))
    for codes in _pinned_digest_models():
        models.append((5, codes))
        models += [(5, close_codes(5, codes, AxiomSet.parse(name))) for name in AXIOM_NAMES]
    closed = 0
    for n, codes in models:
        target = closed_target(n, codes)
        assert (target is not None) == is_closed_under_cg(n, codes)
        if target is not None:
            closed += 1
            assert target == (codes, set(codes), len(elementary_codes(n, codes)))
    assert (len(models), closed) == (5133 + 200, 2764)


def test_closedness_proof_rejects_a_swapped_triple():
    """A separation model with one of its non-elementary codes swapped for
    a non-elementary canonical code outside it keeps its elementary
    triples, and so the count of pairwise triples; only the check of the
    new code's pairs rejects it.  Every model with n <= 4 that has such
    a code, with codes drawn at random."""
    rng = random.Random(23)
    swapped = 0
    for n in range(3, 5):
        canonical = [code for code, *_ in iter_canonical_codes(n)]
        elementary = elementary_codes(n, canonical)
        for g in enumerate_mvr_cgs(n):
            codes = global_model_codes(g)
            inside = [code for code in codes if code not in elementary]
            outside = sorted(set(canonical) - set(codes) - elementary)
            if not (inside and outside):
                continue
            model = sorted(set(codes) - {rng.choice(inside)} | {rng.choice(outside)})
            assert closed_target(n, model) is None
            assert not is_closed_under_cg(n, model)
            swapped += 1
    assert swapped == 1018


def test_elementary_closure_is_the_elementary_part_of_the_closure():
    """The elementary worklist run to its fixpoint from random sets of one
    to six codes, 100 at n = 5 and 100 at n = 6, yields exactly the
    elementary triples of their closure under sg, g, csg and cg.  The
    closures are checked against references that share nothing with the
    worklist: the sha1 of all 800, as sorted base-4 numbers, was computed
    with a closure over full triples, and the first 25 sets at n = 5 are
    closed again with the naive ``oracles.oracle_closure``."""
    rng = random.Random(2018)
    h = hashlib.sha1()
    naive = 0
    for n in (5, 6):
        canonical = [code for code, *_ in iter_canonical_codes(n)]
        for i in range(100):
            codes = sorted(rng.sample(canonical, rng.randint(1, 6)))
            for name in AXIOM_NAMES:
                axioms = AxiomSet.parse(name)
                seen = elementary_closure(n, codes, axioms.flags())
                got = [1 << min(x, y) | 1 << max(x, y) << n | k << 2 * n for x, y, k in seen]
                closed = close_codes(n, codes, axioms)
                assert len(got) == len(set(got))
                assert set(got) == elementary_codes(n, closed)
                numbers = sorted(base4_code(n, code) for code in closed)
                h.update(f"{n}/{name}:{','.join(map(str, numbers))}\n".encode())
                if n == 5 and i < 25:
                    triples = [(t.a, t.b, t.c) for t in (decode_triple(c, n) for c in codes)]
                    reference = oracle_closure(triples, AXIOM_NAMES[name])
                    assert sorted(encode_triple(IndependenceTriple.of(*t), n)
                                  for t in reference) == closed
                    naive += 1
    assert naive == 100
    assert h.hexdigest() == "3e2a152a7bf765d39cd80e21432de71a147257ed"


def test_semi_graphoid_codes_lists_a_semi_graphoid_from_its_elementary_triples():
    """The chain-rule listing gives back every separation model with
    n <= 4, and the closures of the 40 pinned models under sg, g, csg and
    cg, from their elementary triples alone.  The separation models come
    from m-separation; the closures are held to a closure over full
    triples by ``test_close_codes_match_pinned_digest``."""
    models = [(n, global_model_codes(g)) for n in range(1, 5) for g in enumerate_mvr_cgs(n)]
    models += [(5, close_codes(5, codes, AxiomSet.parse(name)))
               for codes in _pinned_digest_models() for name in AXIOM_NAMES]
    for n, codes in models:
        full = (1 << n) - 1
        elementary = [((code & full).bit_length() - 1, (code >> n & full).bit_length() - 1,
                       code >> 2 * n) for code in elementary_codes(n, codes)]
        assert semi_graphoid_codes(n, elementary) == codes


def test_kernel_close_codes_is_the_package_closure():
    """The kernel's ``close_codes``, which takes flags, closes as
    ``closure.close_codes`` does under the same axiom set."""
    for codes in _pinned_digest_models():
        for name in AXIOM_NAMES:
            axioms = AxiomSet.parse(name)
            assert kernel_close_codes(5, codes, axioms.flags()) == close_codes(5, codes, axioms)


def test_axiom_sets_are_the_semi_graphoid_with_options():
    """Every axiom set holds the semi-graphoid axioms; ``AxiomSet()`` is sg
    and the four named sets differ only in intersection and composition."""
    assert AxiomSet() == AxiomSet.semi_graphoid() == AxiomSet.parse("sg")
    sets = {name: AxiomSet.parse(name) for name in ("sg", "g", "csg", "cg")}
    assert {name: (ax.intersection, ax.composition) for name, ax in sets.items()} == {
        "sg": (False, False), "g": (True, False), "csg": (False, True), "cg": (True, True)}
    assert len({ax.flags() for ax in sets.values()}) == 4


# Codes a | b << n | c << 2n at n = 2, written as a + (b << 2) + (c << 4).
@pytest.mark.parametrize("n, codes", [(3, [0]), (2, [2 + (1 << 2)]), (2, [1 << 2]), (2, [1]),
                                      (2, [1 << 6]), (2, [-7]), (-1, []),
                                      (2, [1 + (3 << 2)]), (2, [1 + (2 << 2) + (1 << 4)])],
                         ids=["empty_blocks", "second_block_first", "empty_first_block",
                              "empty_second_block", "outside_ground_set", "negative",
                              "negative_ground_set", "overlapping_blocks",
                              "block_meets_conditioning_set"])
def test_models_reject_codes_that_are_not_canonical_triples(n, codes):
    with pytest.raises(ModelFormatError):
        IndependenceModel.from_codes(n, codes)


def test_satisfies_reports_violation():
    m = IndependenceModel.of(3, [T([0], [1, 2])])
    res = satisfies(m, AxiomSet.semi_graphoid())
    assert not res
    assert res.witness == T([0], [1])  # the least triple of the closure outside m
    assert res.witness in close(m, AxiomSet.semi_graphoid()) and res.witness not in m


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
        close(IndependenceModel.of(9, [T([0], [1])]), AxiomSet.semi_graphoid())


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
