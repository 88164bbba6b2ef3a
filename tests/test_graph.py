import random

import numpy as np
import pytest

import mvrcg
from mvrcg import (IndependenceModel, IndependenceTriple, JointTable, MixedGraph, ancestors,
                   anteriors, canonical_dag, ci_holds, districts, fixtures, induced_subgraph,
                   m_separated, relatives, sample_latent_dag_distribution, validate_chain_graph,
                   verify_factorization)
from mvrcg.factorization import Factorization, HeadTail, is_head, tail_of_head
from mvrcg.enumeration import (enumerate_dags, enumerate_mixed_graphs, enumerate_mvr_cgs,
                               random_mvr_cg)
from mvrcg.errors import (DisjointnessViolation, GraphFormatError, HeadTestFailed,
                          InvalidSeed, ModelFormatError, NotAComponent, UnknownName)
from mvrcg.sweep import SweepConfig

from oracles import oracle_ancestors

TEXT = """\
# toy graph
vertex a
vertex b
vertex c
a -> b
b <-> c
"""


def test_parse_round_trip():
    g = MixedGraph.from_text(TEXT)
    assert g.n == 3
    assert g.directed == {(0, 1)}
    assert g.bidirected == {(1, 2)}
    assert MixedGraph.from_text(g.to_text()) == g


def test_parse_labels_and_edges():
    g = MixedGraph.from_text(TEXT)
    assert g.labels == ("a", "b", "c")
    assert g.index_of("c") == 2
    assert g.edge_between(0, 1) == "->"
    assert g.edge_between(1, 0) == "<-"
    assert g.edge_between(1, 2) == "<->"
    assert g.edge_between(0, 2) is None


@pytest.mark.parametrize("bad", [
    "vertex a\na -> a",                       # self loop
    "vertex a\nvertex a",                     # duplicate label
    "vertex a\nvertex b\na -> b\na <-> b",    # two edges on one pair
    "vertex a\nvertex b\na -> b\nb -> a",     # two edges on one pair
    "vertex a\nvertex b\na - b",              # undirected edges unsupported
    "vertex a\na -> b",                       # undeclared vertex
    "vertex a b",                             # malformed declaration
])
def test_parse_rejects(bad):
    with pytest.raises(GraphFormatError):
        MixedGraph.from_text(bad)


def test_dot_export_uses_dir_both():
    g = MixedGraph.from_text(TEXT)
    dot = g.to_dot()
    assert "n0 -> n1;" in dot
    assert "n1 -> n2 [dir=both];" in dot
    assert 'label="a"' in dot


def test_ancestors_reflexive_and_transitive():
    g = MixedGraph(1)
    assert ancestors(g, [0]) == {0}
    chain = MixedGraph(3, directed=[(0, 1), (1, 2)])
    assert ancestors(chain, [2]) == {0, 1, 2}


def test_bidirected_edges_do_not_contribute_ancestors():
    g = MixedGraph(3, bidirected=[(0, 1)], directed=[(1, 2)])
    assert ancestors(g, [2]) == {1, 2}


def test_ancestors_against_oracle_exhaustive():
    for g in enumerate_mixed_graphs(3):
        for seed in range(1, 8):
            xs = {v for v in range(3) if seed >> v & 1}
            assert ancestors(g, xs) == oracle_ancestors(g.n, g.directed, xs)


def test_anteriors_trivial():
    assert anteriors(MixedGraph(1), [0]) == {0}
    g = MixedGraph(2, directed=[(0, 1)])
    assert anteriors(g, [1]) == {0, 1}


def test_relatives_single_vertex():
    g = MixedGraph(1)
    r = relatives(g, 0)
    assert r.pa == r.nb == r.bd == r.nd == set()
    assert r.de == {0}
    assert r.dis == {0}


def test_relatives_mixed():
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    r = relatives(g, 1)
    assert r.bd == {0, 2}
    assert r.dis == {1, 2}
    assert r.nd == {0, 2}
    assert r.de == {1}


def test_relatives_pst_needs_decomposition():
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    assert relatives(g, 1).pst is None
    dec = validate_chain_graph(g)
    assert relatives(g, 1, dec).pst == {0}  # {0} is ordered after {1,2}


def test_induced_subgraph():
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    sub = induced_subgraph(g, [1, 2])
    assert sub.n == 2
    assert sub.directed == frozenset()
    assert sub.bidirected == {(0, 1)}
    assert sub.source_ids == (1, 2)
    assert induced_subgraph(g, range(3)) == g
    assert induced_subgraph(g, []).n == 0


def test_districts_partition_and_match_components():
    for g in enumerate_mvr_cgs(4):
        ds = districts(g)
        union = set().union(*ds) if ds else set()
        assert union == set(range(4))
        assert sum(len(d) for d in ds) == 4
        comps = validate_chain_graph(g).components
        assert set(ds) == set(comps)


# Each public entry point that takes vertex ids, called with one id ``v``
# that is not a vertex of the graph 0 -> 1 -> 2.
OUT_OF_RANGE_CALLS = {
    "m_separated": lambda g, v: mvrcg.m_separated(g, [v], [1]),
    "m_star_separated": lambda g, v: mvrcg.m_star_separated(g, [0], [v]),
    "d_separated": lambda g, v: mvrcg.d_separated(g, [0], [2], [v]),
    "m_connecting_walk": lambda g, v: mvrcg.m_connecting_walk(g, [0], [2], [v]),
    "ancestors": lambda g, v: ancestors(g, [v]),
    "induced_subgraph": lambda g, v: induced_subgraph(g, [0, v]),
    "barren": lambda g, v: mvrcg.barren(g, [v]),
    "is_head": lambda g, v: is_head(g, [v]),
    "tail_of_head": lambda g, v: tail_of_head(g, [v]),
    "head_partition": lambda g, v: mvrcg.head_partition(g, [0, v]),
    "markov_blanket_x": lambda g, v: mvrcg.markov_blanket(g, v, [0, 1, 2]),
    "markov_blanket_A": lambda g, v: mvrcg.markov_blanket(g, 0, [0, v]),
    "find_primitive_inducing_chain_r": lambda g, v: mvrcg.find_primitive_inducing_chain(g, v, 0),
    "find_primitive_inducing_chain_s": lambda g, v: mvrcg.find_primitive_inducing_chain(g, 0, v),
    "relatives": lambda g, v: relatives(g, v),
    "intervene": lambda g, v: mvrcg.intervene(g, [v]),
    "district_of": lambda g, v: mvrcg.district_of(g, v),
    # A mask naming v; for v = -1 that is every id, the graph's and beyond.
    "districts": lambda g, v: districts(g, v if v < 0 else g.full_mask | 1 << v),
    "parents": lambda g, v: g.parents(v),
    "children": lambda g, v: g.children(v),
    "neighbors": lambda g, v: g.neighbors(v),
    "adjacent_u": lambda g, v: g.adjacent(v, 1),
    "adjacent_v": lambda g, v: g.adjacent(0, v),
    "edge_between_u": lambda g, v: g.edge_between(v, 1),
    "edge_between_v": lambda g, v: g.edge_between(0, v),
    "pst": lambda g, v: validate_chain_graph(g).pst(v),
}


@pytest.mark.parametrize("call", sorted(OUT_OF_RANGE_CALLS))
@pytest.mark.parametrize("v", [-1, 3])
def test_vertex_ids_outside_the_graph_raise_graph_format_error(call, v):
    g = MixedGraph(3, directed=[(0, 1), (1, 2)])
    with pytest.raises(GraphFormatError):
        OUT_OF_RANGE_CALLS[call](g, v)


_TABLE = JointTable((0, 1), (2, 2), np.full((2, 2), 0.25))
_COLLIDER = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])  # 0 -> 1 <-> 2

TYPED_ERROR_CALLS = {
    "tail_of_head_empty": (HeadTestFailed, lambda: tail_of_head(MixedGraph(2), [])),
    "enumerate_mvr_cgs": (GraphFormatError, lambda: list(enumerate_mvr_cgs(-1))),
    "enumerate_dags": (GraphFormatError, lambda: list(enumerate_dags(-1))),
    "enumerate_mixed_graphs": (GraphFormatError, lambda: list(enumerate_mixed_graphs(-1))),
    "random_mvr_cg": (GraphFormatError, lambda: random_mvr_cg(-1, random.Random(0))),
    "fixtures_load": (UnknownName, lambda: fixtures.load("nope")),
    "parent_components": (NotAComponent,
                          lambda: validate_chain_graph(MixedGraph(2)).parent_components(-1)),
    "ci_holds": (DisjointnessViolation,
                 lambda: ci_holds(_TABLE, IndependenceTriple.of([0], [2]))),
    "verify_factorization": (DisjointnessViolation, lambda: verify_factorization(
        _TABLE, Factorization((HeadTail(frozenset({0}), frozenset({2})),),
                              frozenset({0, 2})))),
    "head_tail_overlap": (DisjointnessViolation, lambda: verify_factorization(
        _TABLE, Factorization((HeadTail(frozenset({0}), frozenset({0})),),
                              frozenset({0, 1})))),
    "joint_table_repeated_variable": (DisjointnessViolation, lambda: JointTable(
        (0, 0), (2, 2), np.full((2, 2), 0.25))),
    "sweep_config_check": (UnknownName, lambda: SweepConfig(checks=("closure_MR",))),
    "sweep_config_axioms_for": (UnknownName, lambda: SweepConfig().axioms_for("zz")),
    "model_ground_set_not_int": (ModelFormatError, lambda: IndependenceModel("2")),
    "model_code_not_int": (ModelFormatError, lambda: IndependenceModel(2, frozenset({"x"}))),
    "pst_mask_negative": (GraphFormatError,
                          lambda: validate_chain_graph(_COLLIDER).pst_mask(-1)),
    "pst_mask_too_large": (GraphFormatError,
                           lambda: validate_chain_graph(_COLLIDER).pst_mask(3)),
    "sample_negative_seed": (InvalidSeed, lambda: sample_latent_dag_distribution(
        canonical_dag(_COLLIDER), -1)),
    "parents_float_id": (GraphFormatError, lambda: MixedGraph(3).parents(1.5)),
    "m_separated_float_id": (GraphFormatError, lambda: m_separated(_COLLIDER, [0], [1.0])),
    "relatives_float_id": (GraphFormatError, lambda: relatives(_COLLIDER, 1.0)),
    "graph_float_count": (GraphFormatError, lambda: MixedGraph(2.5)),
    "graph_bool_count": (GraphFormatError, lambda: MixedGraph(True)),
    "graph_float_endpoint": (GraphFormatError, lambda: MixedGraph(3, directed=[(0, 1.0)])),
    "triple_str_id": (DisjointnessViolation, lambda: IndependenceTriple.of(["x"], [1])),
    "triple_float_id": (DisjointnessViolation, lambda: IndependenceTriple.of([1.5], [2])),
    "sweep_config_negative_max_n": (GraphFormatError, lambda: SweepConfig(max_n=-1)),
    "sweep_config_negative_random_count": (GraphFormatError,
                                           lambda: SweepConfig(random_count=-1)),
    "sweep_config_negative_random_n": (GraphFormatError, lambda: SweepConfig(random_n=-1)),
}


@pytest.mark.parametrize("call", sorted(TYPED_ERROR_CALLS))
def test_bad_arguments_raise_typed_errors(call):
    exc, fn = TYPED_ERROR_CALLS[call]
    with pytest.raises(exc):
        fn()
