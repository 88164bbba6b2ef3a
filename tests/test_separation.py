import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mvrcg import (MixedGraph, augmented_graph, d_separated, find_primitive_inducing_chain,
                   global_model, m_connecting_walk, m_separated, m_star_separated)
from mvrcg.enumeration import (enumerate_dags, enumerate_mixed_graphs, enumerate_mvr_cgs,
                               random_mvr_cg)
from mvrcg._bitset import submasks
from mvrcg._kernels import pyfallback
from mvrcg.errors import CapExceeded, DisjointnessViolation, NotADag
from mvrcg.graph import reach_mask, topological_order
from mvrcg.separation import (_collider_adjacency, _moral_adjacency, _separated_codes,
                              global_model_codes, iter_canonical_codes)
from mvrcg.structure import _latent_masks, canonical_dag, is_ancestral, latent_model_codes
from mvrcg.sweep import SweepConfig, sweep_graphs, verify_graph
from mvrcg.triples import IndependenceTriple, decode_triple

from oracles import base4_code, oracle_canonical_codes, oracle_m_separated

# sha1 over the witness walks of test_witness_walks_match_pinned_digest
WALK_DIGEST = "ed5ef18fa7f6fe8437b7babcef3454dc9e069a13"
# sha1 over the m, m* and latent-DAG models of
# test_model_codes_match_pinned_digest as sorted base-4 numbers, computed
# with one query per triple
MODEL_DIGEST = "e07450a6dfbe4737d7868415cba88bb38421b3fb"


def bitset(mask):
    return {v for v in range(8) if mask >> v & 1}


def all_queries(n):
    for _, a, b, c in iter_canonical_codes(n):
        yield bitset(a), bitset(b), bitset(c)


# --- model loops ---------------------------------------------------------

@pytest.mark.parametrize("n", range(9))
def test_canonical_codes_match_brute_force(n):
    assert list(iter_canonical_codes(n)) == oracle_canonical_codes(n)


def loop_graphs():
    rng = random.Random(88)
    return ([g for n in (1, 2, 3) for g in enumerate_mvr_cgs(n)]
            + [random_mvr_cg(6, rng) for _ in range(30)])


def accepted_codes(n, separated):
    return [code for code, a, b, c in oracle_canonical_codes(n)
            if separated(bitset(a), bitset(b), bitset(c))]


def test_m_model_loop_matches_public_queries():
    for g in loop_graphs():
        expected = accepted_codes(g.n, lambda x, y, z: m_separated(g, x, y, z))
        assert global_model_codes(g) == expected


def nonchain_graphs():
    """Graphs beyond chain graphs, which ``global_model_codes(g, "mstar")``
    also takes: every mixed graph with n <= 3, directed cycles included;
    20 random non-ancestral n=5 graphs (uniform per-pair states, the rest
    rejected); the complete bidirected n=6 graph, whose vertices are all
    joined to every other one, and the edgeless n=7 graph, where none is."""
    rng = random.Random(55)
    nonancestral = []
    while len(nonancestral) < 20:
        directed, bidirected = [], []
        for u, v in combinations(range(5), 2):
            state = rng.randrange(4)
            if state == 1:
                directed.append((u, v))
            elif state == 2:
                directed.append((v, u))
            elif state == 3:
                bidirected.append((u, v))
        g = MixedGraph(5, directed, bidirected)
        if not is_ancestral(g):
            nonancestral.append(g)
    return ([g for n in (1, 2, 3) for g in enumerate_mixed_graphs(n)] + nonancestral
            + [MixedGraph(6, bidirected=list(combinations(range(6), 2))), MixedGraph(7)])


def test_mstar_model_loop_matches_public_queries(monkeypatch):
    monkeypatch.setenv("MVRCG_MAX_N", "7")
    for g in loop_graphs() + nonchain_graphs():
        expected = accepted_codes(g.n, lambda x, y, z: m_star_separated(g, x, y, z))
        assert global_model_codes(g, "mstar") == expected


def test_latent_model_loop_matches_public_queries(monkeypatch):
    """On every graph whose latent DAG is acyclic: ``canonical_dag`` and
    ``latent_model_codes`` refuse the others."""
    monkeypatch.setenv("MVRCG_MAX_N", "7")
    graphs = loop_graphs() + nonchain_graphs()
    dags = []
    for g in graphs:
        if len(topological_order(g.pa, g.ch)) == g.n:
            dag = canonical_dag(g).dag
            assert len(topological_order(dag.pa, dag.ch)) == dag.n
            dags.append((g, dag))
            continue
        with pytest.raises(NotADag):
            canonical_dag(g)
        with pytest.raises(NotADag):
            latent_model_codes(g)
    assert len(graphs) > len(dags) > len(loop_graphs())
    for g, dag in dags:
        expected = accepted_codes(g.n, lambda x, y, z: d_separated(dag, x, y, z))
        assert latent_model_codes(g) == expected


def test_model_codes_match_pinned_digest(monkeypatch):
    """The three model loops on every chain graph with n <= 4, the n=6
    graphs of ``loop_graphs`` and the edgeless n=7 graph, whose models
    split into the most classes per conditioning set."""
    monkeypatch.setenv("MVRCG_MAX_N", "7")
    graphs = ([g for n in range(1, 5) for g in enumerate_mvr_cgs(n)]
              + [g for g in loop_graphs() if g.n == 6] + [MixedGraph(7)])
    assert len(graphs) == 1743 + 30 + 1
    digest = hashlib.sha1()
    for g in graphs:
        for codes in (global_model_codes(g), global_model_codes(g, "mstar"),
                      latent_model_codes(g)):
            digest.update(repr(sorted(base4_code(g.n, code) for code in codes)).encode())
    assert digest.hexdigest() == MODEL_DIGEST


@pytest.mark.parametrize("route", ["mstar", "latent"])
@pytest.mark.parametrize("g, ancestral_sets", [
    (MixedGraph(4, directed=[(0, 1), (1, 2), (2, 3)]), 3),  # {0,1}, {0,1,2}, {0,1,2,3}
    (MixedGraph(4), 11),  # every set of 2 or more vertices is ancestral
])
def test_model_loops_build_one_adjacency_per_ancestral_set(g, ancestral_sets, route):
    """The sets u with the same an(u) share one adjacency: 3 on the chain
    0 -> 1 -> 2 -> 3, where the 11 sets of 2 or more vertices fall into
    3 ancestral sets, and 11 on the edgeless graph, where none share."""
    if route == "mstar":
        graph, adjacency, expected = g, _collider_adjacency, global_model_codes(g)
    else:
        graph, adjacency, expected = canonical_dag(g).dag, _moral_adjacency, latent_model_codes(g)
    within = []

    def counting(g, anc):
        within.append(anc)
        return adjacency(g, anc)

    assert _separated_codes(graph, g.n, counting) == expected
    assert len(within) == len(set(within)) == ancestral_sets


def test_three_models_agree_on_random_n7(monkeypatch):
    """The m, m* and latent-DAG models on uniform n=7 graphs, where the
    most sets u share an ancestral set."""
    monkeypatch.setenv("MVRCG_MAX_N", "7")
    rng = random.Random(77)
    for _ in range(20):
        g = random_mvr_cg(7, rng)
        model = global_model_codes(g)
        assert global_model_codes(g, "mstar") == model
        assert latent_model_codes(g) == model


@pytest.mark.parametrize("g, sources, steps", [
    (MixedGraph(5), 0b01111, 0),
    (MixedGraph(5, bidirected=list(combinations(range(5), 2))), 0, 0),
    (MixedGraph(5, directed=[(0, 1), (1, 2), (2, 3), (3, 4)]), 0b00111, 9),
], ids=["edgeless", "complete", "chain"])
def test_m_table_walks_only_for_open_pairs(monkeypatch, g, sources, steps):
    """Only a vertex with an open vertex, one above it that is not
    adjacent to it, is a source of the walk over every conditioning set
    at once, and that walk is the table's only one: no ``m_reach`` call.
    On the edgeless graph every vertex but the last is a source and the
    worklist takes no step, since no walk leaves a vertex; on a complete
    graph nothing is a source; on the chain 0 -> 1 -> 2 -> 3 -> 4 the
    sources are 0, 1 and 2 and the worklist takes 9 steps.  One walk
    per vertex and conditioning set would be 75.  The table is symmetric
    and holds exactly the model's elementary triples."""
    n = g.n
    elementary = [0] * (n << n)
    for code in global_model_codes(g):
        a, b, c = code & (1 << n) - 1, code >> n & (1 << n) - 1, code >> 2 * n
        if a & (a - 1) == 0 and b & (b - 1) == 0:
            elementary[(a.bit_length() - 1) << n | c] |= b
            elementary[(b.bit_length() - 1) << n | c] |= a
    calls, walks = [], []
    m_reach, m_world_reach = pyfallback.m_reach, pyfallback.m_world_reach

    def counting(*args):
        calls.append(args)
        return m_reach(*args)

    def spying(n, pa, ch, nb, sources):
        reach, steps = m_world_reach(n, pa, ch, nb, sources)
        walks.append((sources, steps))
        return reach, steps

    monkeypatch.setattr(pyfallback, "m_reach", counting)
    monkeypatch.setattr(pyfallback, "m_world_reach", spying)
    assert pyfallback.m_elementary_table(n, g.pa, g.ch, g.nb) == elementary
    assert calls == [] and walks == [(sources, steps)]


def test_m_table_calls_no_m_reach_over_the_sweep(monkeypatch):
    """Over the default sweep of every chain graph with n <= 4, the m
    model's table is built 1,743 times, once per graph, and calls
    ``m_reach`` in none of them: its one walk is ``m_world_reach``.  The
    spies see only their own process, so the sweep is the in-process loop
    of ``verify_graph`` over ``sweep_graphs``."""
    calls, inside = [], []
    m_reach, table = pyfallback.m_reach, pyfallback.m_elementary_table

    def counting(*args):
        calls.append(args)
        return m_reach(*args)

    def spying(*args):
        before = len(calls)
        out = table(*args)
        inside.append(len(calls) - before)
        return out

    monkeypatch.setattr(pyfallback, "m_reach", counting)
    monkeypatch.setattr(pyfallback, "m_elementary_table", spying)
    config = SweepConfig(max_n=4)
    assert all(verify_graph(g, config, i).ok for i, g in enumerate(sweep_graphs(config)))
    assert len(inside) == 1743 and set(inside) == {0}


def ranked_chain_graph(n, rng):
    """A random chain graph: each vertex gets a random rank, and each pair
    is joined with one probability drawn per graph, by a bidirected edge
    within a rank and a directed one up the ranks across them.  No
    partially directed cycle can form, so nothing is redrawn, unlike
    ``random_mvr_cg``, which rejects most candidates at n = 9."""
    rank = [rng.randrange(n // 2 + 1) for _ in range(n)]
    joined = rng.random()
    directed, bidirected = [], []
    for u, v in combinations(range(n), 2):
        if rng.random() < joined:
            if rank[u] == rank[v]:
                bidirected.append((u, v))
            else:
                directed.append((u, v) if rank[u] < rank[v] else (v, u))
    return MixedGraph(n, directed, bidirected)


def table_graphs():
    """Every chain graph with n <= 4, every mixed graph with n <= 3
    (directed cycles included), random chain graphs with n = 5..9 and the
    edgeless and complete bidirected graphs on 9 vertices."""
    rng = random.Random(35)
    return ([g for n in range(1, 5) for g in enumerate_mvr_cgs(n)]
            + [g for n in range(1, 4) for g in enumerate_mixed_graphs(n)]
            + [ranked_chain_graph(n, rng) for n in range(5, 10) for _ in range(12 - n)]
            + [MixedGraph(9), MixedGraph(9, bidirected=list(combinations(range(9), 2)))])


def test_m_table_matches_m_connected_everywhere():
    """Independently of the model's codes: ``table[i << n | c]`` holds j
    exactly when i and j are distinct vertices outside c and the
    single-query walk ``m_connected`` does not join them given c, for
    every (i, j, c)."""
    for g in table_graphs():
        n = g.n
        table = pyfallback.m_elementary_table(n, g.pa, g.ch, g.nb)
        for c in range(1 << n):
            for i in range(n):
                row = 0
                for j in range(n):
                    if i != j and not (c >> i | c >> j) & 1 and not pyfallback.m_connected(
                            n, g.pa, g.ch, g.nb, 1 << i, 1 << j, c):
                        row |= 1 << j
                assert table[i << n | c] == row, (g, i, c)


def test_m_table_is_symmetric():
    for g in [g for n in range(1, 5) for g in enumerate_mvr_cgs(n)] + loop_graphs():
        n = g.n
        table = pyfallback.m_elementary_table(n, g.pa, g.ch, g.nb)
        for row, js in enumerate(table):
            i, c = row >> n, row & (1 << n) - 1
            assert all(table[j << n | c] >> i & 1 for j in range(n) if js >> j & 1)


def test_m_reach_stop_is_exact_inside_stop():
    """A walk that ends at its stop mask agrees inside that mask with the
    full walk, for every chain graph with n <= 4 and every x, z and stop."""
    for n in range(1, 5):
        full = (1 << n) - 1
        for g in enumerate_mvr_cgs(n):
            for x in submasks(full):
                for z in (0, *submasks(full & ~x)):
                    anz = reach_mask(g.pa, z)
                    reach = pyfallback.m_reach(g.pa, g.ch, g.nb, x, z, anz)
                    for stop in range(1 << n):
                        stopped = pyfallback.m_reach(g.pa, g.ch, g.nb, x, z, anz, stop)
                        assert stopped & stop == reach & stop


# --- augmented graph -----------------------------------------------------

def test_augmented_edgeless():
    assert augmented_graph(MixedGraph(3)).edges == frozenset()


def test_augmented_collider_triangle():
    g = MixedGraph(3, directed=[(0, 2), (1, 2)])  # 0 -> 2 <- 1
    aug = augmented_graph(g)
    assert aug.edges == {(0, 2), (1, 2), (0, 1)}


def test_augmented_noncollider_no_extra_edge():
    g = MixedGraph(3, directed=[(0, 2), (2, 1)])  # 0 -> 2 -> 1
    aug = augmented_graph(g)
    assert aug.edges == {(0, 2), (1, 2)}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_augmented_monotone_under_edge_addition(data):
    n = data.draw(st.integers(2, 5))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    g = random_mvr_cg(n, rng)
    free = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.adjacent(u, v)]
    if not free:
        return
    u, v = data.draw(st.sampled_from(free))
    kind = data.draw(st.sampled_from(["->", "<-", "<->"]))
    directed = set(g.directed)
    bidirected = set(g.bidirected)
    if kind == "->":
        directed.add((u, v))
    elif kind == "<-":
        directed.add((v, u))
    else:
        bidirected.add((u, v))
    bigger = MixedGraph(n, directed, bidirected)
    assert augmented_graph(g).edges <= augmented_graph(bigger).edges


# --- m-separation --------------------------------------------------------

def test_collider_conditioning_opens():
    g = MixedGraph(3, directed=[(0, 2), (1, 2)])
    assert m_separated(g, [0], [1], [])
    assert not m_separated(g, [0], [1], [2])


def test_adjacent_vertices_never_separated():
    for g in enumerate_mvr_cgs(3):
        for (u, v) in list(g.directed) + list(g.bidirected):
            others = set(range(3)) - {u, v}
            for z in ([], list(others)):
                assert not m_separated(g, [u], [v], z)


def test_disjointness_validation():
    g = MixedGraph(3, directed=[(0, 1)])
    with pytest.raises(DisjointnessViolation):
        m_separated(g, [], [1], [])
    with pytest.raises(DisjointnessViolation):
        m_separated(g, [0], [0], [])
    with pytest.raises(DisjointnessViolation):
        m_star_separated(g, [0], [1], [0])


def test_m_separation_against_path_oracle():
    for g in enumerate_mvr_cgs(3):
        for x, y, z in all_queries(3):
            expected = oracle_m_separated(g.n, g.directed, g.bidirected, x, y, z)
            assert m_separated(g, x, y, z) == expected


def test_m_separation_against_path_oracle_random_n4():
    rng = random.Random(77)
    for _ in range(40):
        g = random_mvr_cg(4, rng)
        for x, y, z in all_queries(4):
            expected = oracle_m_separated(g.n, g.directed, g.bidirected, x, y, z)
            assert m_separated(g, x, y, z) == expected


def test_m_equals_mstar_exhaustive_small():
    for n in (2, 3):
        for g in enumerate_mvr_cgs(n):
            assert global_model_codes(g) == global_model_codes(g, method="mstar")


def test_m_equals_mstar_random():
    # 500 random graphs at n = 5 and 6, split evenly
    for n, seed in ((5, 11), (6, 12)):
        rng = random.Random(seed)
        for _ in range(250):
            g = random_mvr_cg(n, rng)
            assert global_model_codes(g) == global_model_codes(g, method="mstar")


def test_connecting_walk_agrees_with_predicate():
    rng = random.Random(5)
    for _ in range(30):
        g = random_mvr_cg(4, rng)
        for x, y, z in all_queries(4):
            walk = m_connecting_walk(g, x, y, z)
            assert (walk is None) == m_separated(g, x, y, z)
            if walk is not None:
                assert walk[0] in x and walk[-1] in y
                for a, b in zip(walk, walk[1:]):
                    assert g.adjacent(a, b)


# --- d-separation --------------------------------------------------------

def test_d_separation_chain_and_collider():
    chain = MixedGraph(3, directed=[(0, 1), (1, 2)])
    assert d_separated(chain, [0], [2], [1])
    assert not d_separated(chain, [0], [2], [])
    collider = MixedGraph(3, directed=[(0, 1), (2, 1)])
    assert d_separated(collider, [0], [2], [])
    assert not d_separated(collider, [0], [2], [1])


def test_the_latent_masks_are_the_canonical_dags():
    """The latent route reads the latent DAG's masks without building it as
    a graph: they are ``canonical_dag``'s, on every mixed graph with
    n <= 3 and every chain graph with n = 4.  Both routes refuse a graph
    with a directed cycle, whose latent masks are never read."""
    graphs = [*enumerate_mixed_graphs(1), *enumerate_mixed_graphs(2),
              *enumerate_mixed_graphs(3), *enumerate_mvr_cgs(4)]
    cyclic = 0
    for g in graphs:
        if len(topological_order(g.pa, g.ch)) != g.n:
            cyclic += 1
            with pytest.raises(NotADag):
                canonical_dag(g)
            continue
        dag = canonical_dag(g).dag
        assert _latent_masks(g) == (dag.n, list(dag.pa), list(dag.ch), dag.full_mask)
    assert cyclic


def test_the_latent_model_refuses_a_directed_cycle_and_not_a_latent_label():
    """The latents are sources, so the latent DAG has a directed cycle
    exactly when the graph has one.  A vertex labelled like a latent of
    ``canonical_dag`` is no obstacle to the latent model."""
    with pytest.raises(NotADag):
        latent_model_codes(MixedGraph(3, directed=[(0, 1), (1, 2), (2, 0)], bidirected=[]))
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)], labels=["a", "h0", "c"])
    assert latent_model_codes(g) == global_model_codes(g)


def test_d_separation_rejects_non_dags():
    with pytest.raises(NotADag):
        d_separated(MixedGraph(2, bidirected=[(0, 1)]), [0], [1], [])
    with pytest.raises(NotADag):
        cyclic = MixedGraph(3, directed=[(0, 1), (1, 2), (2, 0)])
        d_separated(cyclic, [0], [1], [])


def test_d_separation_agrees_with_m_separation_on_dags():
    for n in (2, 3, 4):
        for dag in enumerate_dags(n):
            for x, y, z in all_queries(n):
                assert d_separated(dag, x, y, z) == m_separated(dag, x, y, z)


# --- global model --------------------------------------------------------

def test_global_model_edgeless_pair():
    model = global_model(MixedGraph(2))
    assert set(model) == {IndependenceTriple.of([0], [1])}


def test_global_model_symmetry_scan():
    rng = random.Random(9)
    for _ in range(20):
        g = random_mvr_cg(4, rng)
        model = global_model(g)
        for t in model:
            assert IndependenceTriple(t.b, t.a, t.c) in model


def test_model_iteration_decodes_each_code_once():
    """Iterating a separation model yields the triples of its codes in
    ``sort_key`` order, equal with equal hashes to the checked decode, on
    every model with n <= 4 and 20 random n=6 models.  A second pass gives
    the same sequence, and blocks with equal masks are one frozenset."""
    rng = random.Random(19)
    graphs = ([g for n in range(1, 5) for g in enumerate_mvr_cgs(n)]
              + [random_mvr_cg(6, rng) for _ in range(20)])
    for g in graphs:
        model = global_model(g)
        expected = sorted((decode_triple(code, g.n) for code in model.codes),
                          key=IndependenceTriple.sort_key)
        got = list(model)
        assert got == expected
        assert [hash(t) for t in got] == [hash(t) for t in expected]
        assert model.triples == frozenset(expected)
        assert list(model) == got
        blocks = [s for t in got for s in (t.a, t.b, t.c)]
        assert len({id(s) for s in blocks}) == len(set(blocks))


def test_global_model_cap():
    with pytest.raises(CapExceeded):
        global_model(MixedGraph(8))


def test_env_var_overrides_cap(monkeypatch):
    g = MixedGraph(8)
    with pytest.raises(CapExceeded):
        global_model_codes(g)
    monkeypatch.setenv("MVRCG_MAX_N", "8")
    codes = global_model_codes(g)
    assert len(codes) == len(list(iter_canonical_codes(8)))  # everything separated


def test_mstar_trivia():
    edgeless = MixedGraph(3)
    assert m_star_separated(edgeless, [0], [1], [2])
    assert m_star_separated(edgeless, [0], [1])
    adjacent = MixedGraph(2, directed=[(0, 1)])
    assert not m_star_separated(adjacent, [0], [1])


def _walk_is_m_connecting(g, walk, x, y, z):
    """Literal check of the walk rules, independent of the search."""
    from mvrcg.graph import ancestors_mask
    from mvrcg._bitset import mask_of
    if walk[0] not in x or walk[-1] not in y:
        return False
    anz = ancestors_mask(g, mask_of(z))
    for i in range(1, len(walk) - 1):
        prev_v, v, next_v = walk[i - 1], walk[i], walk[i + 1]
        into = g.edge_between(prev_v, v)
        out = g.edge_between(v, next_v)
        if into is None or out is None:
            return False
        collider = into in ("->", "<->") and out in ("<-", "<->")
        if collider:
            if not (anz >> v) & 1:
                return False
        elif v in z:
            return False
    return True


def test_connecting_walks_satisfy_the_walk_rules():
    rng = random.Random(6)
    for _ in range(25):
        g = random_mvr_cg(4, rng)
        for x, y, z in all_queries(4):
            walk = m_connecting_walk(g, x, y, z)
            if walk is not None:
                assert _walk_is_m_connecting(g, walk, x, y, z), (g, walk, x, y, z)


def _ordered_queries(n):
    """Every (X, Y, Z) with X and Y nonempty, in both orientations."""
    for code in range(4 ** n):
        blocks = [0, 0, 0, 0]
        for v in range(n):
            blocks[code >> 2 * v & 3] |= 1 << v
        _, x, y, z = blocks
        if x and y:
            yield bitset(x), bitset(y), bitset(z)


def test_witness_walks_match_pinned_digest():
    """The m-connecting walks and primitive inducing chains, pinned so a
    change to the walk search cannot change a witness."""
    records = []
    for n in range(1, 4):
        for g in enumerate_mvr_cgs(n):
            for x, y, z in _ordered_queries(n):
                records.append(("m", sorted(g.directed), sorted(g.bidirected), sorted(x),
                                sorted(y), sorted(z), m_connecting_walk(g, x, y, z)))
    for g in enumerate_mvr_cgs(4):
        for x, y in ((x, y) for x in range(4) for y in range(4) if x != y):
            others = [v for v in range(4) if v not in (x, y)]
            for z in ((), others[:1], others[1:], others):
                records.append(("m", sorted(g.directed), sorted(g.bidirected), [x], [y],
                                list(z), m_connecting_walk(g, [x], [y], z)))
    for n in (3, 4):
        for g in enumerate_mixed_graphs(n):
            for r, s in combinations(range(n), 2):
                if not g.adjacent(r, s):
                    records.append(("chain", sorted(g.directed), sorted(g.bidirected), r, s,
                                    find_primitive_inducing_chain(g, r, s)))
    assert len(records) == 88124
    digest = hashlib.sha1()
    for rec in records:
        digest.update(repr(rec).encode())
    assert digest.hexdigest() == WALK_DIGEST
