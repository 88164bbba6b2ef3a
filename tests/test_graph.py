import random

import numpy as np
import pytest

import mvrcg
from mvrcg import (AxiomSet, CanonicalDag, IndependenceModel, IndependenceTriple, JointTable, MixedGraph,
                   ancestors, anteriors, barren, canonical_dag, ci_holds, close, districts,
                   equivalent_under, factorize_component_dag, factorize_mvr,
                   find_primitive_inducing_chain, fixtures, induced_subgraph, m_separated,
                   mr_triples, ordered_local_triples, pairwise_triples, pre_of_component,
                   relatives, sample_latent_dag_distribution, satisfies, type_iv_triples,
                   validate_chain_graph, verify_factorization)
from mvrcg.closure import close_codes
from mvrcg.factorization import Factorization, HeadTail, is_head, tail_of_head
from mvrcg.enumeration import (enumerate_dags, enumerate_mixed_graphs, enumerate_mvr_cgs,
                               random_mvr_cg, random_mvr_cgs)
from mvrcg.errors import (DisjointnessViolation, GraphFormatError, HeadTestFailed,
                          InvalidSeed, ModelFormatError, NotAComponent, NotADag, UnknownName)
from mvrcg.properties import property_masks
from mvrcg.sweep import SweepConfig, config_hash, run_equivalence_sweep, verify_graph

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


def test_dot_export_escapes_quotes_and_backslashes():
    assert '  n0 [label="a\\"b"];\n' in MixedGraph.from_text('vertex a"b\n').to_dot()
    assert '  n0 [label="a\\\\"];\n' in MixedGraph(1, labels=["a\\"]).to_dot()


def test_dot_export_default_name_is_unchanged():
    g = MixedGraph.from_text(TEXT)
    assert g.to_dot() == g.to_dot("g") == (
        'digraph g {\n  n0 [label="a"];\n  n1 [label="b"];\n  n2 [label="c"];\n'
        '  n0 -> n1;\n  n1 -> n2 [dir=both];\n}\n')


@pytest.mark.parametrize("name, written", [
    ("g", "g"), ("_x9", "_x9"), ("my graph", '"my graph"'), ("9lives", '"9lives"'),
    ("a-b", '"a-b"'), ("", '""'), ("graph", '"graph"'), ("Digraph", '"Digraph"'),
    ('say "hi"', '"say \\"hi\\""'), ("a\\b", '"a\\\\b"'), ("{}", '"{}"'),
])
def test_dot_export_quotes_a_name_that_is_no_plain_id(name, written):
    assert MixedGraph(1).to_dot(name).startswith(f"digraph {written} {{\n")


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_every_fixture_reads_back_from_its_text(name):
    g = fixtures.load(name)
    back = MixedGraph.from_text(g.to_text())
    assert back == g and back.labels == g.labels


def test_labels_that_look_like_keywords_read_back():
    """An edge line is read before a declaration, so a vertex may be
    labelled ``vertex`` or like an arrow."""
    g = MixedGraph.from_text("vertex vertex\nvertex c\nvertex -> c\n")
    assert g.labels == ("vertex", "c") and g.directed == {(0, 1)}
    for labels in (["vertex", "->", "<->"], ['a"b', "a\\b", "\u00e9"]):
        g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)], labels=labels)
        back = MixedGraph.from_text(g.to_text())
        assert back == g and back.labels == g.labels


def test_a_decomposition_of_an_equal_graph_is_accepted():
    """The check is ``dec.graph is g or dec.graph == g``: an equal graph
    built apart passes and gives the same answers as ``g``'s own."""
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    twin = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    dec = validate_chain_graph(twin)
    assert pairwise_triples(g, dec, "p1") == pairwise_triples(g, validate_chain_graph(g), "p1")
    assert factorize_mvr(g, dec).format() == "p(1,2 | 0) p(0)"
    assert relatives(g, 0, dec).pst == frozenset()


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
_CHAIN_DEC = validate_chain_graph(MixedGraph(3, directed=[(2, 1), (1, 0)]))  # 2 -> 1 -> 0
_CYCLE = MixedGraph(3, directed=[(0, 1), (1, 2), (2, 0)])
_MODEL = IndependenceModel.from_codes(3, [1 | 4 << 3])  # 0 _||_ 2

TYPED_ERROR_CALLS = {
    "tail_of_head_empty": (HeadTestFailed, lambda: tail_of_head(MixedGraph(2), [])),
    "enumerate_mvr_cgs": (GraphFormatError, lambda: list(enumerate_mvr_cgs(-1))),
    "enumerate_dags": (GraphFormatError, lambda: list(enumerate_dags(-1))),
    "enumerate_mixed_graphs": (GraphFormatError, lambda: list(enumerate_mixed_graphs(-1))),
    "random_mvr_cg": (GraphFormatError, lambda: random_mvr_cg(-1, random.Random(0))),
    "random_mvr_cg_float_count": (GraphFormatError, lambda: random_mvr_cg(2.5, random.Random(0))),
    "random_mvr_cg_int_rng": (GraphFormatError, lambda: random_mvr_cg(3, 0)),
    "enumerate_mvr_cgs_float_count": (GraphFormatError, lambda: enumerate_mvr_cgs(2.5)),
    "enumerate_dags_float_count": (GraphFormatError, lambda: enumerate_dags(2.5)),
    "enumerate_mixed_graphs_bool_count": (GraphFormatError,
                                          lambda: enumerate_mixed_graphs(True)),
    "random_mvr_cgs_negative_n": (GraphFormatError, lambda: random_mvr_cgs(-1, 2, 1)),
    "random_mvr_cgs_float_count": (GraphFormatError, lambda: random_mvr_cgs(3, 2.5, 1)),
    "random_mvr_cgs_list_seed": (GraphFormatError, lambda: random_mvr_cgs(3, 2, [1])),
    "random_mvr_cgs_none_seed": (GraphFormatError, lambda: random_mvr_cgs(3, 2, None)),
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
    "sample_bool_seed": (InvalidSeed, lambda: sample_latent_dag_distribution(
        canonical_dag(_COLLIDER), True)),
    "sample_none_seed": (InvalidSeed, lambda: sample_latent_dag_distribution(
        canonical_dag(_COLLIDER), None)),
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
    "inducing_chain_same_vertex": (DisjointnessViolation,
                                   lambda: find_primitive_inducing_chain(MixedGraph(2), 1, 1)),
    "sweep_bool_start_index": (GraphFormatError, lambda: run_equivalence_sweep(
        SweepConfig(max_n=2), start_index=True)),
    "sweep_float_start_index": (GraphFormatError, lambda: run_equivalence_sweep(
        SweepConfig(max_n=2), start_index=1.5)),
    "sweep_config_none_seed": (GraphFormatError, lambda: SweepConfig(seed=None)),
    "sweep_config_list_seed": (GraphFormatError, lambda: SweepConfig(seed=[1])),
    "sweep_config_bool_seed": (GraphFormatError, lambda: SweepConfig(seed=True)),
    "ci_holds_negative_eps": (GraphFormatError, lambda: ci_holds(
        _TABLE, IndependenceTriple.of([0], [1]), -1.0)),
    "verify_factorization_nan_eps": (GraphFormatError, lambda: verify_factorization(
        _TABLE, Factorization((HeadTail(frozenset({0, 1}), frozenset()),), frozenset({0, 1})),
        float("nan"))),
    "ordered_local_none_id": (GraphFormatError,
                              lambda: ordered_local_triples(_COLLIDER, [None, 1, 2])),
    "ordered_local_float_id": (GraphFormatError,
                               lambda: ordered_local_triples(_COLLIDER, [0.0, 1, 2])),
    "ordered_local_int_order": (GraphFormatError, lambda: ordered_local_triples(_COLLIDER, 5)),
    "pre_of_component_none": (GraphFormatError,
                              lambda: pre_of_component(validate_chain_graph(_COLLIDER), None)),
    "pre_of_component_float": (GraphFormatError,
                               lambda: pre_of_component(validate_chain_graph(_COLLIDER), 1.0)),
    "pre_of_component_str": (GraphFormatError,
                             lambda: pre_of_component(validate_chain_graph(_COLLIDER), "0")),
    "pre_of_component_bool": (GraphFormatError,
                              lambda: pre_of_component(validate_chain_graph(_COLLIDER), True)),
    "barren_float_within": (GraphFormatError, lambda: barren(_COLLIDER, [0], within=1.0)),
    "barren_negative_within": (GraphFormatError, lambda: barren(_COLLIDER, [0], within=-1)),
    "districts_str_within": (GraphFormatError, lambda: districts(_COLLIDER, within="0")),
    "districts_bool_within": (GraphFormatError, lambda: districts(_COLLIDER, within=True)),
    "triple_int_block": (DisjointnessViolation, lambda: IndependenceTriple.of([0], [1], 2)),
    "component_pre_str": (GraphFormatError, lambda: validate_chain_graph(_COLLIDER).pre("0")),
    "component_pre_mask_float": (GraphFormatError,
                                 lambda: validate_chain_graph(_COLLIDER).pre_mask(1.5)),
    "component_parents_none": (GraphFormatError,
                               lambda: validate_chain_graph(_COLLIDER).parent_components(None)),
    "component_nd_d_mask_str": (GraphFormatError,
                                lambda: validate_chain_graph(_COLLIDER).nd_d_mask("x")),
    "component_pa_d_mask_bool": (GraphFormatError,
                                 lambda: validate_chain_graph(_COLLIDER).pa_d_mask(True)),
    "sweep_config_none_checks": (GraphFormatError, lambda: SweepConfig(checks=None)),
    "sweep_config_list_checks": (GraphFormatError, lambda: SweepConfig(checks=["maximal"])),
    "sweep_config_str_checks": (GraphFormatError, lambda: SweepConfig(checks="maximal")),
    "joint_table_marginal_bool": (GraphFormatError, lambda: _TABLE.marginal([True])),
    "joint_table_marginal_float": (GraphFormatError, lambda: _TABLE.marginal([1.0])),
    "joint_table_marginal_none": (GraphFormatError, lambda: _TABLE.marginal(None)),
    "joint_table_reorder_bool": (GraphFormatError, lambda: _TABLE.reorder([True, 0])),
    "joint_table_reorder_none": (GraphFormatError, lambda: _TABLE.reorder(None)),
    "ci_holds_tuple_triple": (GraphFormatError, lambda: ci_holds(_TABLE, (0, 1))),
    "verify_factorization_none": (GraphFormatError, lambda: verify_factorization(_TABLE, None)),
    "sample_none_dag": (GraphFormatError, lambda: sample_latent_dag_distribution(None, 1)),
    "graph_edge_triple": (GraphFormatError, lambda: MixedGraph(2, [(0, 1, 2)])),
    "graph_edge_int": (GraphFormatError, lambda: MixedGraph(2, bidirected=[5])),
    "graph_edges_int": (GraphFormatError, lambda: MixedGraph(2, 5)),
    "graph_labels_int": (GraphFormatError, lambda: MixedGraph(2, labels=5)),
    "graph_source_ids_short": (GraphFormatError, lambda: MixedGraph(2, source_ids=[7])),
    "graph_source_ids_int": (GraphFormatError, lambda: MixedGraph(2, source_ids=5)),
    "graph_label_space": (GraphFormatError, lambda: MixedGraph(2, labels=["a b", "c"])),
    "graph_label_hash": (GraphFormatError, lambda: MixedGraph(2, labels=["a#x", "c"])),
    "graph_label_empty": (GraphFormatError, lambda: MixedGraph(2, labels=["", "c"])),
    "graph_label_int": (GraphFormatError, lambda: MixedGraph(2, labels=[0, 1])),
    "pairwise_triples_other_dec": (GraphFormatError,
                                   lambda: pairwise_triples(_COLLIDER, _CHAIN_DEC, "p1")),
    "mr_triples_other_dec": (GraphFormatError, lambda: mr_triples(_COLLIDER, _CHAIN_DEC)),
    "type_iv_triples_other_dec": (GraphFormatError,
                                  lambda: type_iv_triples(_COLLIDER, _CHAIN_DEC)),
    "factorize_mvr_other_dec": (GraphFormatError, lambda: factorize_mvr(_COLLIDER, _CHAIN_DEC)),
    "factorize_mvr_smaller_graph": (GraphFormatError, lambda: factorize_mvr(
        MixedGraph(2), validate_chain_graph(_COLLIDER))),
    "factorize_component_dag_other_dec": (GraphFormatError,
                                          lambda: factorize_component_dag(_COLLIDER, _CHAIN_DEC)),
    "relatives_other_dec": (GraphFormatError, lambda: relatives(_COLLIDER, 0, _CHAIN_DEC)),
    "property_masks_other_dec": (GraphFormatError,
                                 lambda: property_masks(_COLLIDER, "mr", _CHAIN_DEC)),
    "canonical_dag_cycle": (NotADag, lambda: canonical_dag(_CYCLE)),
    "sample_cycle": (NotADag, lambda: sample_latent_dag_distribution(canonical_dag(_CYCLE), 1)),
    "sample_hand_built_cycle": (NotADag, lambda: sample_latent_dag_distribution(
        CanonicalDag(_CYCLE, frozenset(range(3)), frozenset()), 1)),
    "sample_hand_built_bidirected": (NotADag, lambda: sample_latent_dag_distribution(
        CanonicalDag(MixedGraph(2, bidirected=[(0, 1)]), frozenset(range(2)), frozenset()), 1)),
    "sample_vertex_outside_dag": (GraphFormatError, lambda: sample_latent_dag_distribution(
        CanonicalDag(MixedGraph(2), frozenset({0, 5}), frozenset({1})), 1)),
    "sample_vertex_in_neither": (GraphFormatError, lambda: sample_latent_dag_distribution(
        CanonicalDag(MixedGraph(3), frozenset({0}), frozenset({1})), 1)),
    "sample_vertex_in_both": (GraphFormatError, lambda: sample_latent_dag_distribution(
        CanonicalDag(MixedGraph(2), frozenset({0, 1}), frozenset({1})), 1)),
    "sample_observed_list": (GraphFormatError, lambda: sample_latent_dag_distribution(
        CanonicalDag(MixedGraph(2), [0, 1], frozenset()), 1)),
    "sample_dag_none": (GraphFormatError, lambda: sample_latent_dag_distribution(
        CanonicalDag(None, frozenset(), frozenset()), 1)),
    "to_dot_int_name": (GraphFormatError, lambda: MixedGraph(1).to_dot(5)),
    "close_str_axioms": (GraphFormatError, lambda: close(_MODEL, "sg")),
    "satisfies_str_axioms": (GraphFormatError, lambda: satisfies(_MODEL, "sg")),
    "equivalent_under_str_axioms": (GraphFormatError,
                                    lambda: equivalent_under(_MODEL, _MODEL, "sg")),
    "close_codes_str_axioms": (GraphFormatError, lambda: close_codes(3, [], "sg")),
    "close_list_model": (ModelFormatError, lambda: close([1], AxiomSet())),
    "model_le_int": (ModelFormatError, lambda: _MODEL <= 5),
    "model_union_int": (ModelFormatError, lambda: _MODEL.union(5)),
    "axiom_set_parse_list": (UnknownName, lambda: AxiomSet.parse([])),
    "axiom_set_str_flag": (GraphFormatError, lambda: AxiomSet(intersection="yes")),
    "verify_graph_none_graph": (GraphFormatError, lambda: verify_graph(None, SweepConfig())),
    "verify_graph_none_config": (GraphFormatError, lambda: verify_graph(MixedGraph(2), None)),
    "verify_graph_str_index": (GraphFormatError,
                               lambda: verify_graph(MixedGraph(2), SweepConfig(), "x")),
    "verify_graph_negative_index": (GraphFormatError,
                                    lambda: verify_graph(MixedGraph(2), SweepConfig(), -1)),
    "sweep_none_config": (GraphFormatError, lambda: run_equivalence_sweep(None)),
    "config_hash_none": (GraphFormatError, lambda: config_hash(None)),
    "ci_holds_none_table": (GraphFormatError, lambda: ci_holds(
        None, IndependenceTriple.of([0], [1]))),
    "verify_factorization_none_table": (GraphFormatError, lambda: verify_factorization(
        None, Factorization((HeadTail(frozenset({0, 1}), frozenset()),), frozenset({0, 1})))),
    "joint_table_none_variables": (GraphFormatError,
                                   lambda: JointTable(None, (2,), np.full(2, 0.5))),
    "model_of_int_triple": (ModelFormatError, lambda: IndependenceModel.of(3, [1])),
    "from_text_none": (GraphFormatError, lambda: MixedGraph.from_text(None)),
    "head_tail_none_head": (DisjointnessViolation, lambda: HeadTail(None, frozenset())),
}


@pytest.mark.parametrize("call", sorted(TYPED_ERROR_CALLS))
def test_bad_arguments_raise_typed_errors(call):
    exc, fn = TYPED_ERROR_CALLS[call]
    with pytest.raises(exc):
        fn()


# The arguments after the graph of each public function that takes one;
# pre_of_component takes the graph's chain decomposition instead.
GRAPH_ENTRIES = {
    "alt_local_triples": (), "ancestors": ([0],), "anteriors": ([0],),
    "augmented_graph": (), "barren": ([0],), "canonical_dag": (),
    "d_separated": ([0], [1]), "district_of": (0,), "districts": (),
    "find_primitive_inducing_chain": (0, 1), "global_model": (),
    "head_partition": ([0],), "heads": (), "induced_subgraph": ([0],),
    "intervene": ([0],), "is_ancestral": (), "is_chain_graph": (), "is_maximal": (),
    "m_connecting_walk": ([0], [1]), "m_separated": ([0], [1]),
    "m_star_separated": ([0], [1]), "marginal_model_equal": (),
    "markov_blanket": (0, [0]), "mr_triples": (_CHAIN_DEC,),
    "ordered_local_triples": (), "pre_of_component": (0,), "relatives": (0,),
    "type_iv_triples": (_CHAIN_DEC,), "validate_chain_graph": (),
}


@pytest.mark.parametrize("name", sorted(GRAPH_ENTRIES))
def test_a_non_graph_argument_raises_graph_format_error(name):
    """Each public function that takes a graph checks it first, as
    ``verify_graph`` does, instead of failing on a missing attribute."""
    for bad in (None, 5, "x"):
        with pytest.raises(GraphFormatError):
            getattr(mvrcg, name)(bad, *GRAPH_ENTRIES[name])
