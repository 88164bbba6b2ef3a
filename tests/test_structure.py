import hashlib
import random

import pytest

from mvrcg import (MixedGraph, canonical_dag, find_primitive_inducing_chain,
                   is_ancestral, is_maximal, marginal_model_equal)
from mvrcg.enumeration import (enumerate_dags, enumerate_mixed_graphs,
                               enumerate_mvr_cgs, random_mvr_cg)
from mvrcg.errors import CapExceeded, NotAncestral, VerticesAdjacent
from mvrcg.separation import global_model_table
from mvrcg.structure import _maximal_by_chains, _maximal_by_zsets
from mvrcg.sweep import SweepConfig, verify_graph
from mvrcg.triples import IndependenceTriple

from oracles import oracle_ancestors

# sha1 over is_ancestral's witness for every mixed graph with n <= 4 that
# is not ancestral, and over find_primitive_inducing_chain's chain for
# every nonadjacent pair r < s of every such graph that has one.  It pins
# both searches' tie-breaks: the fewest-edge directed path and the first
# chain the breadth-first walk meets.
ANCESTRAL_WITNESS_DIGEST = "751dc12793f9537388210e6df0f22e587a0a66b6"
INDUCING_CHAIN_DIGEST = "a61fbc9b1c02a7d89fb25cd199778efd25eb205a"


def oracle_is_ancestral(g):
    """Literal check of the defining condition on anterior sets."""
    def anterior(of):
        return oracle_ancestors(g.n, g.directed, [of])

    for (t, h) in g.directed:
        if h in anterior(t):
            return False
    for (u, v) in g.bidirected:
        if u in anterior(v) or v in anterior(u):
            return False
    return True


def test_single_vertex_ancestral():
    assert is_ancestral(MixedGraph(1))


def test_ancestral_violation_witnessed():
    # 0 <-> 1 with 0 -> 2 -> 1 makes 0 an ancestor of its neighbour
    g = MixedGraph(3, directed=[(0, 2), (2, 1)], bidirected=[(0, 1)])
    res = is_ancestral(g)
    assert not res
    kind, alpha, beta, path = res.witness
    assert kind == "<->"
    assert path[0] == alpha and path[-1] == beta


def test_ancestral_against_definition_exhaustive():
    for g in enumerate_mixed_graphs(3):
        assert bool(is_ancestral(g)) == oracle_is_ancestral(g)


def test_every_chain_graph_is_ancestral_and_maximal():
    for n in (2, 3):
        for g in enumerate_mvr_cgs(n):
            assert is_ancestral(g)
            assert is_maximal(g)


def test_every_dag_is_maximal():
    for dag in enumerate_dags(3):
        assert is_maximal(dag)


def test_inducing_chain_requires_nonadjacent():
    g = MixedGraph(2, directed=[(0, 1)])
    with pytest.raises(VerticesAdjacent):
        find_primitive_inducing_chain(g, 0, 1)


def test_inducing_chain_edgeless_none():
    assert find_primitive_inducing_chain(MixedGraph(2), 0, 1) is None


def test_inducing_chain_interiors_are_colliders_in_anchor():
    g = MixedGraph(4, bidirected=[(2, 0), (0, 1), (1, 3)], directed=[(0, 3), (1, 2)])
    chain = find_primitive_inducing_chain(g, 2, 3)
    assert chain is not None
    assert chain[0] == 2 and chain[-1] == 3
    anchor = oracle_ancestors(4, g.directed, [2, 3])
    for prev, v, nxt in zip(chain, chain[1:], chain[2:]):
        assert v in anchor
        assert g.edge_between(prev, v) in ("->", "<->")   # arrowhead at v
        assert g.edge_between(v, nxt) in ("<-", "<->")    # arrowhead at v


def test_maximality_criteria_agree_on_all_ancestral_graphs():
    """Both routes on every ancestral mixed graph with n <= 4.  The pinned
    counts (graphs, ancestral, not maximal) make both meet a False answer:
    at n=4, 12 of the 2,504 ancestral graphs are not maximal."""
    counts = {}
    for n in (3, 4):
        graphs = ancestral = nonmaximal = 0
        for g in enumerate_mixed_graphs(n):
            graphs += 1
            if not is_ancestral(g):
                continue
            ancestral += 1
            answer = _maximal_by_zsets(g, global_model_table(g))
            assert answer == _maximal_by_chains(g)
            nonmaximal += not answer
        counts[n] = (graphs, ancestral, nonmaximal)
    assert counts == {3: (64, 56, 0), 4: (4096, 2504, 12)}


def sha1_of(records) -> str:
    digest = hashlib.sha1()
    for rec in sorted(records):
        digest.update(repr(rec).encode())
    return digest.hexdigest()


def test_ancestral_witnesses_and_inducing_chains_match_pinned_digest():
    witnesses, chains = [], []
    for n in range(1, 5):
        for g in enumerate_mixed_graphs(n):
            edges = (n, sorted(g.directed), sorted(g.bidirected))
            res = is_ancestral(g)
            if not res:
                witnesses.append((edges, res.witness))
            for r in range(n):
                for s in range(r + 1, n):
                    if not g.adjacent(r, s):
                        chain = find_primitive_inducing_chain(g, r, s)
                        if chain is not None:
                            chains.append((edges, r, s, chain))
    assert (len(witnesses), sha1_of(witnesses)) == (1600, ANCESTRAL_WITNESS_DIGEST)
    assert (len(chains), sha1_of(chains)) == (384, INDUCING_CHAIN_DIGEST)


def test_maximality_requires_ancestral():
    g = MixedGraph(3, directed=[(0, 2), (2, 1)], bidirected=[(0, 1)])
    with pytest.raises(NotAncestral):
        is_maximal(g)


def test_canonical_dag_shape():
    g = MixedGraph(3, bidirected=[(0, 1)], directed=[(1, 2)])
    cd = canonical_dag(g)
    assert cd.dag.n == 4
    assert cd.observed == {0, 1, 2}
    assert cd.latents == {3}
    assert cd.dag.directed == {(1, 2), (3, 0), (3, 1)}
    for lat in cd.latents:
        assert cd.dag.parents(lat) == frozenset()
        assert len(cd.dag.children(lat)) == 2


def test_canonical_dag_names_latents_apart_from_the_graph_labels():
    g = MixedGraph(4, directed=[(0, 1)], bidirected=[(1, 2), (2, 3)],
                   labels=["a", "h0", "c", "h__1"])
    assert canonical_dag(g).dag.labels == ("a", "h0", "c", "h__1", "h_0", "h_1")
    g = MixedGraph(3, bidirected=[(1, 2)], labels=["a", "h1", "h_0"])
    assert canonical_dag(g).dag.labels == ("a", "h1", "h_0", "h0")
    g = MixedGraph(2, bidirected=[(0, 1)], labels=["h0", "h_0"])
    assert canonical_dag(g).dag.labels == ("h0", "h_0", "h__0")


def test_canonical_dag_identity_on_dags():
    dag = MixedGraph(3, directed=[(0, 1), (1, 2)])
    cd = canonical_dag(dag)
    assert cd.dag == dag
    assert not cd.latents


def test_marginal_model_equal_trivia():
    assert marginal_model_equal(MixedGraph(3, directed=[(0, 1), (1, 2)]))
    with pytest.raises(CapExceeded):
        marginal_model_equal(MixedGraph(8))  # over the model cap of 7


def test_marginal_model_equal_refuses_a_graph_too_large_for_the_model_first(monkeypatch):
    """``MVRCG_MAX_N`` above the model's hard cap leaves the cap at
    ``HARD_MODEL_CAP``, which must refuse the graph before the latent
    DAG's class splits start."""
    def no_latent_model(*args):
        raise AssertionError("the latent-DAG model was started")

    monkeypatch.setenv("MVRCG_MAX_N", "20")
    monkeypatch.setattr("mvrcg.structure._separated_codes", no_latent_model)
    with pytest.raises(CapExceeded):
        marginal_model_equal(MixedGraph(14))


def test_marginal_oracle_witness_is_the_smallest_disagreeing_triple(monkeypatch):
    # A moral graph without edges separates everything, so it disagrees
    # with the graph first on the smallest code, 0 _||_ 1, where 0 -> 1
    # connects.
    monkeypatch.setattr("mvrcg.structure._moral_adjacency", lambda dag, within: [0] * dag.n)
    g = MixedGraph(3, directed=[(0, 1), (1, 2)])
    res = marginal_model_equal(g)
    assert not res.ok
    assert res.witness == (IndependenceTriple.of([0], [1]), False, True)
    report = verify_graph(g, SweepConfig(checks=("marginal_oracle",)))
    assert report.checks["marginal_oracle"].status == "fail"
    assert report.checks["marginal_oracle"].witness == "0 _||_ 1 only in first model"


def test_marginal_model_equal_exhaustive_n3():
    for g in enumerate_mvr_cgs(3):
        assert marginal_model_equal(g)


def test_marginal_model_equal_random_n5():
    rng = random.Random(21)
    for _ in range(20):
        assert marginal_model_equal(random_mvr_cg(5, rng))
