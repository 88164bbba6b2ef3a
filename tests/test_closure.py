import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from mvrcg import (AxiomSet, IndependenceModel, IndependenceTriple, MixedGraph, close,
                   equivalent_under, satisfies)
from mvrcg._bitset import bits, submasks
from mvrcg.chain import validate_chain_graph
from mvrcg._kernels.pyfallback import close_codes as kernel_close_codes
from mvrcg._kernels.pyfallback import (chain_seeds, elementary_closure, m_elementary_table,
                                       pairwise_codes, semi_graphoid_codes)
from mvrcg.closure import Generator, close_codes, closed_target, seeds_gap
from mvrcg.enumeration import enumerate_mvr_cgs
from mvrcg.errors import CapExceeded, DisjointnessViolation, ModelFormatError, UnknownName
from mvrcg.properties import (PROPERTY_KINDS, alt_local_triples, mr_triples,
                              ordered_local_triples, pairwise_triples, property_model,
                              property_seeds, type_iv_triples)
from mvrcg.separation import global_model, global_model_codes, iter_canonical_codes
from mvrcg.structure import is_maximal
from mvrcg.triples import decode_triple, encode_triple

from oracles import (AXIOM_NAMES, base4_code, elementary_codes, elementary_table,
                     fire_closedness, one_pair_changes, oracle_closure,
                     semi_graphoid_from_parts)

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
    """``closed_target``'s proof, from a model's elementary table, that the
    pairwise model of the table is a compositional graphoid agrees with
    one round of the naive closure under cg on that model listed: on the
    table of every separation model with n <= 4, each such table at n = 3
    with one pair dropped or added, and the tables of the 40 models of
    the pinned closure digest and of their closures under sg, g, csg and
    cg.  A closed model's target is its table and its number of
    elementary triples, counted by the oracle; the listing of a model
    closed under cg gives the model back."""
    tables = []
    for n in range(1, 5):
        for g in enumerate_mvr_cgs(n):
            codes = global_model_codes(g)
            table = m_elementary_table(n, g.pa, g.ch, g.nb)
            assert table == elementary_table(n, codes)
            assert closed_target(n, table)[:2] == (table, len(elementary_codes(n, codes)))
            if n == 3:
                tables += [(n, t) for change in ("drop", "add")
                           for t in one_pair_changes(n, table, change)]
    for codes in _pinned_digest_models():
        tables.append((5, elementary_table(5, codes)))
        for name in AXIOM_NAMES:
            closed = close_codes(5, codes, AxiomSet.parse(name))
            tables.append((5, elementary_table(5, closed)))
            if name == "cg":
                assert pairwise_codes(5, tables[-1][1]) == closed
    closed = 0
    for n, table in tables:
        model = pairwise_codes(n, table)
        target = closed_target(n, table)
        assert (target is not None) == is_closed_under_cg(n, model)
        if target is not None:
            closed += 1
            assert target[:2] == (table, len(elementary_codes(n, model)))
    assert (len(tables), closed) == (300 + 200, 132 + 169)


def _closedness_tables():
    """The 500 tables of the naive closedness check above, as ``(n,
    table)``: each separation table at n = 3 with one pair dropped or
    added, and the tables of the 40 pinned models and of their closures
    under sg, g, csg and cg."""
    tables = [(3, t) for g in enumerate_mvr_cgs(3) for change in ("drop", "add")
              for t in one_pair_changes(3, m_elementary_table(3, g.pa, g.ch, g.nb), change)]
    for codes in _pinned_digest_models():
        tables.append((5, elementary_table(5, codes)))
        tables += [(5, elementary_table(5, close_codes(5, codes, AxiomSet.parse(name))))
                   for name in AXIOM_NAMES]
    return tables


def _changed_n4_tables():
    """Every one-pair change of every separation table at n = 4: the 224
    distinct tables, each with one pair <i, j | K> dropped or added."""
    distinct = sorted({tuple(m_elementary_table(4, g.pa, g.ch, g.nb))
                       for g in enumerate_mvr_cgs(4)})
    assert len(distinct) == 224
    return [(4, t) for table in distinct for change in ("drop", "add")
            for t in one_pair_changes(4, list(table), change)]


def test_the_row_proof_agrees_with_the_fire_proof():
    """``closed_target`` reads a table's closedness off its rows;
    ``oracles.fire_closedness`` fires every elementary triple through the
    elementary rules instead.  They agree on the 500 tables of the naive
    closedness check and on all 5,376 one-pair changes of the separation
    tables at n = 4, closed and not."""
    tables = _closedness_tables() + _changed_n4_tables()
    closed = 0
    for n, table in tables:
        target = closed_target(n, table)
        assert (target is not None) == fire_closedness(n, table)
        closed += target is not None
    assert (len(tables), closed) == (500 + 5376, 301 + 1428)


def test_the_target_counts_the_models_elementary_triples():
    """For every closed table among those of the test above, the target's
    ``count`` is the number of the model's elementary triples: 8,477 over
    the 1,729 closed tables."""
    triples = 0
    for n, table in _closedness_tables() + _changed_n4_tables():
        target = closed_target(n, table)
        if target is None:
            continue
        full = (1 << n) - 1
        elementary = {(row >> n, j, row & full) for row, ys in enumerate(table)
                      for j in bits(ys) if j > row >> n}
        assert len(elementary) == target.count
        triples += target.count
    assert triples == 8477


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
                seen = elementary_closure(n, chain_seeds(n, codes), axioms.flags())
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


def _all_elementary_parts(n, code):
    """The elementary parts of one code, each <x, y | K> with x in a, y in
    b and c ⊆ K ⊆ c | a | b - {x, y}, by the loop that seeded the worklist
    before it took the chain triples."""
    full = (1 << n) - 1
    a, b, c = code & full, code >> n & full, code >> 2 * n
    parts = set()
    for x in bits(a):
        rest = (a | b) ^ 1 << x
        for extra in (0, *submasks(rest)):
            for y in bits(b & ~extra):
                parts.add((min(x, y), max(x, y), c | extra))
    return parts


def test_chain_seeds_close_to_all_elementary_parts():
    """The worklist seeds a code <a, b | c> with its |a|·|b| chain triples
    only; under sg they generate every one of its |a|·|b|·2^(|a|+|b|-2)
    elementary parts, and nothing else, for every canonical code with
    n <= 5."""
    count = 0
    for n in range(1, 6):
        for code, *_ in iter_canonical_codes(n):
            seen = elementary_closure(n, chain_seeds(n, [code]), 0)
            assert len(seen) == len(set(seen))
            assert {(min(x, y), max(x, y), K) for x, y, K in seen} == \
                _all_elementary_parts(n, code)
            count += 1
    assert count == 350


def test_chain_seeds_are_the_seeds_the_worklist_pushes():
    """``chain_seeds`` lists the triples ``elementary_closure`` seeds its
    worklist with: a worklist stopped before its first fire, by a goal of
    as many elementary triples as those seeds name, holds exactly them."""
    rng = random.Random(25)
    for n in (3, 4, 5):
        canonical = [code for code, *_ in iter_canonical_codes(n)]
        for _ in range(40):
            codes = rng.sample(canonical, rng.randint(1, 5))
            seeds = set()
            for row, bit in chain_seeds(n, codes):
                x, y = row >> n, bit.bit_length() - 1
                seeds.add((min(x, y), max(x, y), row & ((1 << n) - 1)))
            seen = elementary_closure(n, chain_seeds(n, codes), 0, len(seeds))
            assert seen.stop == "goal"
            assert {(min(x, y), max(x, y), K) for x, y, K in seen} == seeds


def test_mask_seeds_decide_and_close_as_the_property_codes_do():
    """The sweep seeds each check from its builder's masks
    (``property_seeds``), without encoding or checking the statements,
    so a statement whose lowest block vertex is in b has other chain
    triples than its code.  On every chain graph with n <= 4 and each
    property, those seeds still give the same P ⊆ M verdict on the
    model's table as ``chain_seeds`` of ``property_model``'s codes, and
    the same elementary closure under sg, g, csg and cg."""
    repeated = 0
    for n in range(1, 5):
        for g in enumerate_mvr_cgs(n):
            dec = validate_chain_graph(g)
            table = m_elementary_table(n, g.pa, g.ch, g.nb)
            for prop in ("mr", "iv", "ordered", "local", "p1", "p2", "p3", "p4"):
                masks = property_seeds(g, prop, dec)
                codes = chain_seeds(n, property_model(g, prop, dec).to_codes())
                repeated += len(masks) > len(set(masks))
                assert all(table[row] & bit for row, bit in masks) == \
                    all(table[row] & bit for row, bit in codes)
                for axioms in _AXIOM_SETS:
                    closed = [{(min(x, y), max(x, y), K) for x, y, K in
                               elementary_closure(n, seeds, axioms.flags())}
                              for seeds in (masks, codes)]
                    assert closed[0] == closed[1]
    assert repeated


def _pairs_in_table(n, code, table):
    """Whether every pair <i, j | c> across the blocks of ``code`` is in
    ``table``: membership in the table's pairwise model, written out."""
    full = (1 << n) - 1
    a, b, c = code & full, code >> n & full, code >> 2 * n
    return all(table[i << n | c] >> j & 1 for i in bits(a) for j in bits(b))


def test_chain_triples_decide_membership_in_the_model_as_pairs_do():
    """``seeds_gap`` decides P ⊆ M by P's chain triples in M's table; M
    is closed, so by the chain rule that agrees with M's own definition,
    all pairs across the blocks in the table.  Checked code by code for
    each property's codes on every chain graph with n <= 4, and for every
    canonical code on those with n <= 3, so that codes outside M occur."""
    outcomes = {True: 0, False: 0}
    for n in range(1, 5):
        canonical = [code for code, *_ in iter_canonical_codes(n)] if n <= 3 else []
        for g in enumerate_mvr_cgs(n):
            table = m_elementary_table(n, g.pa, g.ch, g.nb)
            codes = {code for prop in ("mr", "iv", "ordered", "local", "p1", "p2", "p3", "p4")
                     for code in property_model(g, prop).to_codes()}
            for code in sorted(codes.union(canonical)):
                inside = _pairs_in_table(n, code, table)
                assert all(table[row] & bit for row, bit in chain_seeds(n, [code])) == inside
                outcomes[inside] += 1
    assert outcomes == {True: 7492, False: 372}


_AXIOM_SETS = [AxiomSet.parse(name) for name in ("sg", "g", "csg", "cg")]


def _generator_cases():
    """Every chain graph with n <= 3 and every 40th with n = 4, each with
    its model's target and each (property codes, axioms) pair."""
    graphs = [g for n in range(1, 4) for g in enumerate_mvr_cgs(n)]
    graphs += list(enumerate_mvr_cgs(4))[::40]
    for g in graphs:
        target = closed_target(g.n, m_elementary_table(g.n, g.pa, g.ch, g.nb))
        checks = [(property_model(g, prop).to_codes(), axioms)
                  for prop in ("mr", "iv", "ordered", "local", "p1", "p2", "p3", "p4")
                  for axioms in _AXIOM_SETS]
        yield g, target, checks


def test_a_generator_changes_no_seeds_gap():
    """Given any verified generator of the model whose axioms are among the
    check's, ``seeds_gap`` returns what it returns without one, on every
    chain graph with n <= 3 and a sample at n = 4: each (property,
    axioms) pair whose gap is None is a generator, and is offered to every
    pair.  The generator's stop does fire, and ends worklists early."""
    calls = early = 0
    for g, target, checks in _generator_cases():
        seeds_of = [chain_seeds(g.n, codes) for codes, _ in checks]
        plain = [seeds_gap(g.n, seeds, axioms, target)
                 for seeds, (_, axioms) in zip(seeds_of, checks)]
        known = [Generator(axioms.flags(), seeds)
                 for seeds, (_, axioms), gap in zip(seeds_of, checks, plain) if gap is None]
        for seeds, (_, axioms), gap in zip(seeds_of, checks, plain):
            flags = axioms.flags()
            for gen in known:
                if gen.flags & ~flags:
                    continue
                assert seeds_gap(g.n, seeds, axioms, target, (gen,)) == gap
                calls += 1
                seen = elementary_closure(g.n, seeds, flags, target[1], (gen.seeds,))
                early += seen.stop == "known" and len(seen) < target[1]
    assert calls > 20_000 and early > 1_000


def test_seeds_gap_answers_match_pinned_digest():
    """sha1 of every ``seeds_gap`` answer, None or cl(P) as sorted codes:
    every chain graph with n <= 4, each property's codes under sg, g, csg
    and cg, seeded with the codes' chain triples, with the first passing
    call's seeds offered as a generator to every later call of the graph,
    as the sweep first offered generators.  Generators change no answer,
    so the digest holds whichever are offered."""
    h = hashlib.sha1()
    calls = failing = 0
    for n in range(1, 5):
        for g in enumerate_mvr_cgs(n):
            target = closed_target(n, m_elementary_table(n, g.pa, g.ch, g.nb))
            known = ()
            for prop in ("mr", "iv", "ordered", "local", "p1", "p2", "p3", "p4"):
                seeds = chain_seeds(n, property_model(g, prop).to_codes())
                for axioms in _AXIOM_SETS:
                    gap = seeds_gap(n, seeds, axioms, target, known)
                    if gap is None and not known:
                        known = (Generator(axioms.flags(), seeds),)
                    h.update(f"{n}/{prop}/{axioms.flags()}:{gap}\n".encode())
                    calls += 1
                    failing += gap is not None
    assert (calls, failing) == (55_776, 5_649)
    assert h.hexdigest() == "0b07f34e4f1ee981bef129b493d322abefba4d2b"


def test_every_kept_generator_offered_at_once_changes_no_gap():
    """``seeds_gap`` offered, as the sweep offers them, every generator
    kept so far from the (property, axioms) pairs that passed returns what
    it returns with none, on every chain graph with n <= 3 and a sample
    at n = 4.  Every passing pair's seeds are kept, those equal to an
    earlier pair's included."""
    offered = 0
    for g, target, checks in _generator_cases():
        known = []
        for codes, axioms in checks:
            seeds = chain_seeds(g.n, codes)
            gap = seeds_gap(g.n, seeds, axioms, target)
            assert seeds_gap(g.n, seeds, axioms, target, known) == gap
            offered += len(known)
            if gap is None:
                known.append(Generator(axioms.flags(), seeds))
    assert offered > 5_000


def test_a_generator_under_more_axioms_does_not_serve_a_weaker_check():
    """``p1``'s own chain triples, offered as a cg generator to ``p1``
    under sg, would stop its worklist before the first fire; the check is
    under fewer axioms than the generator, so ``seeds_gap`` ignores it
    and every failing sg check still fails with its closure."""
    sg, cg = AxiomSet.semi_graphoid(), AxiomSet.compositional_graphoid()
    failing = 0
    for g, target, _ in _generator_cases():
        seeds = chain_seeds(g.n, property_model(g, "p1").to_codes())
        gap = seeds_gap(g.n, seeds, sg, target)
        if gap is not None:
            failing += 1
            assert seeds_gap(g.n, seeds, sg, target, (Generator(cg.flags(), seeds),)) == gap
    assert failing


def test_a_generator_does_not_serve_a_p_outside_the_model():
    """A P that holds every seed of a verified generator and one pair
    outside the model's table is not in the model: its closure is larger,
    and ``seeds_gap`` returns it whatever generator it is offered."""
    cg = AxiomSet.compositional_graphoid()
    outside = 0
    for g, target, _ in _generator_cases():
        gen_codes = property_model(g, "mr").to_codes()
        gen_seeds = chain_seeds(g.n, gen_codes)
        gen = Generator(AxiomSet.semi_graphoid().flags(), gen_seeds)
        assert seeds_gap(g.n, gen_seeds, cg, target) is None
        for i, j in g.directed | g.bidirected:  # adjacent: never separated
            codes = sorted({*gen_codes, 1 << min(i, j) | 1 << max(i, j) << g.n})
            seeds = chain_seeds(g.n, codes)
            gap = seeds_gap(g.n, seeds, cg, target)
            assert gap == close_codes(g.n, codes, cg)
            assert seeds_gap(g.n, seeds, cg, target, (gen,)) == gap
            outside += 1
    assert outside


def test_semi_graphoid_codes_lists_a_semi_graphoid_from_its_elementary_triples():
    """The chain-rule listing gives back every separation model with
    n <= 4, the closures of the 40 pinned models under sg, g, csg and cg,
    and the sg and g closures of the eight properties of every graph with
    n <= 3 (semi-graphoids that are not pairwise), from their elementary
    table alone.  It is also held to the definition: the canonical triples
    whose every elementary part is in the table."""
    models = [(n, global_model_codes(g)) for n in range(1, 5) for g in enumerate_mvr_cgs(n)]
    models += [(5, close_codes(5, codes, AxiomSet.parse(name)))
               for codes in _pinned_digest_models() for name in AXIOM_NAMES]
    models += [(n, close_codes(n, property_model(g, kind).to_codes(), AxiomSet.parse(name)))
               for n in range(1, 4) for g in enumerate_mvr_cgs(n)
               for kind in PROPERTY_KINDS if kind != "global" for name in ("sg", "g")]
    for n, codes in models:
        table = elementary_table(n, codes)
        assert semi_graphoid_codes(n, table) == codes
        assert semi_graphoid_from_parts(n, table) == codes


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
