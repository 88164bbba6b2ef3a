import hashlib

import pytest

from mvrcg import MixedGraph, is_chain_graph, validate_chain_graph
from mvrcg.enumeration import enumerate_mixed_graphs, enumerate_mvr_cgs
from mvrcg.errors import NotAComponent, PartiallyDirectedCycle
from mvrcg.properties import consistent_vertex_order

from oracles import oracle_is_chain_graph, oracle_partially_directed_cycles

# sha1 over validate_chain_graph's components, component DAG and vertex
# order for every labeled chain graph with n <= 4.  It pins both orders'
# tie-breaks.
ORDERS_DIGEST = "ebe8d3ce4b51078aea6eef5eed323ac8f2e1a506"

# sha1 over the witness walk for every non-chain graph with n = 4: the
# fewest-edge partially directed cycle through the least directed edge
# that lies on one.
WALKS_DIGEST = "6c30429ec924ce56fca746677f99ab81e3154d59"

# sha1 over pre_mask, pst_mask, pa_d_mask, nd_d_mask and parent_components
# for every labeled chain graph with n <= 4, computed when the
# decomposition rebuilt each mask from its frozenset components.
MASK_DIGEST = "155b7e954642efcf6d2746235e2f01f45132f090"


def test_edgeless_graph_decomposes_into_singletons():
    dec = validate_chain_graph(MixedGraph(3))
    assert dec.components == (frozenset({0}), frozenset({1}), frozenset({2}))
    assert dec.component_dag == frozenset()
    assert dec.vertex_order == (0, 1, 2)


def test_definitional_forbidden_pattern():
    g = MixedGraph(3, directed=[(0, 1), (2, 0)], bidirected=[(1, 2)])
    with pytest.raises(PartiallyDirectedCycle) as err:
        validate_chain_graph(g)
    walk = err.value.walk
    assert walk[0] == walk[-1]
    assert len(walk) >= 3


def test_directed_cycle_rejected_with_witness():
    g = MixedGraph(3, directed=[(0, 1), (1, 2), (2, 0)])
    with pytest.raises(PartiallyDirectedCycle):
        validate_chain_graph(g)


def test_cheap_predicate_agrees_with_oracle_exhaustive():
    for g in enumerate_mixed_graphs(3):
        expected = oracle_is_chain_graph(g.n, g.directed, g.bidirected)
        assert is_chain_graph(g) == expected
        if expected:
            validate_chain_graph(g)
        else:
            with pytest.raises(PartiallyDirectedCycle):
                validate_chain_graph(g)


def non_chain_witnesses(max_n):
    """Each non-chain mixed graph with n <= max_n and its witness walk."""
    for n in range(1, max_n + 1):
        for g in enumerate_mixed_graphs(n):
            if is_chain_graph(g):
                continue
            with pytest.raises(PartiallyDirectedCycle) as err:
                validate_chain_graph(g)
            yield g, err.value.walk


def test_witness_walks_are_real_cycles():
    for g, walk in non_chain_witnesses(4):
        assert walk[0] == walk[-1]
        assert len(set(walk)) == len(walk) - 1
        directed_used = 0
        for a, b in zip(walk, walk[1:]):
            kind = g.edge_between(a, b)
            assert kind in ("->", "<->")
            directed_used += kind == "->"
        assert directed_used >= 1


def test_witness_is_the_shortest_cycle_through_the_least_cycle_edge():
    count = 0
    for g, walk in non_chain_witnesses(4):
        cycles = oracle_partially_directed_cycles(g.n, g.directed, g.bidirected)
        least = min(p for cycle in cycles for p in zip(cycle, cycle[1:]) if p in g.directed)
        through = [cycle for cycle in cycles if tuple(cycle[:2]) == least]
        assert tuple(walk[:2]) == least
        assert list(walk) in through and len(walk) == min(map(len, through))
        count += 1
    assert count == 2422


def test_decomposition_structure_exhaustive():
    for g in enumerate_mixed_graphs(4):
        if not is_chain_graph(g):
            continue
        dec = validate_chain_graph(g)
        # components partition the vertex set
        assert sorted(v for c in dec.components for v in c) == list(range(4))
        # bidirected edges stay inside components, directed edges cross
        for u, v in g.bidirected:
            assert dec.component_of[u] == dec.component_of[v]
        for t, h in g.directed:
            assert dec.component_of[t] != dec.component_of[h]
        # component order: a component never precedes one of its parents'
        # children, i.e. edges in the component DAG go backwards
        for i, j in dec.component_dag:
            assert i > j
        # vertex order: every vertex after all of its ancestors
        pos = {v: k for k, v in enumerate(dec.vertex_order)}
        for t, h in g.directed:
            assert pos[t] < pos[h]


def test_pre_and_pst():
    g = MixedGraph(4, directed=[(2, 0)], bidirected=[(0, 1), (2, 3)])
    dec = validate_chain_graph(g)
    assert dec.components == (frozenset({0, 1}), frozenset({2, 3}))
    assert dec.pre(0) == {2, 3}
    assert dec.pre(1) == set()
    assert dec.pst(0) == {2, 3}
    assert dec.pst(3) == set()


def test_single_component_pre_empty():
    g = MixedGraph(2, bidirected=[(0, 1)])
    dec = validate_chain_graph(g)
    assert dec.pre(0) == set()


def test_component_dag_parents():
    g = MixedGraph(5, directed=[(2, 0), (4, 2)], bidirected=[(0, 1), (2, 3)])
    dec = validate_chain_graph(g)
    assert dec.components == (frozenset({0, 1}), frozenset({2, 3}), frozenset({4}))
    assert dec.component_dag == {(1, 0), (2, 1)}
    assert sorted(dec.parent_components(0)) == [1]
    assert dec.pa_d_mask(0) == 0b01100
    assert dec.nd_d_mask(1) == 0b10000  # component {4} is not reachable from {2,3}


@pytest.mark.parametrize("method", ["pre_mask", "pa_d_mask", "nd_d_mask"])
@pytest.mark.parametrize("i", [-1, 3])
def test_component_mask_methods_reject_bad_indices(method, i):
    dec = validate_chain_graph(MixedGraph(5, directed=[(2, 0), (4, 2)],
                                          bidirected=[(0, 1), (2, 3)]))
    assert len(dec.component_masks) == 3
    with pytest.raises(NotAComponent):
        getattr(dec, method)(i)


def test_pre_of_component_by_index_and_set():
    from mvrcg import pre_of_component
    g = MixedGraph(4, directed=[(2, 0)], bidirected=[(0, 1), (2, 3)])
    dec = validate_chain_graph(g)
    assert pre_of_component(dec, 0) == {2, 3}
    assert pre_of_component(dec, frozenset({0, 1})) == {2, 3}
    assert pre_of_component(dec, dec.components[-1]) == set()
    with pytest.raises(KeyError):
        pre_of_component(dec, frozenset({0, 2}))
    for bad in (frozenset({0, 2}), -1, len(dec.components)):
        with pytest.raises(NotAComponent):
            pre_of_component(dec, bad)


def test_component_dag_edges_match_crossing_edges_exhaustive():
    for g in enumerate_mixed_graphs(4):
        if not is_chain_graph(g):
            continue
        dec = validate_chain_graph(g)
        expected = {(dec.component_of[t], dec.component_of[h]) for t, h in g.directed}
        assert dec.component_dag == expected


def test_vertex_order_is_consistent_vertex_order_exhaustive():
    for n in range(1, 5):
        for g in enumerate_mvr_cgs(n):
            assert consistent_vertex_order(g) == validate_chain_graph(g).vertex_order


def sha1_of(records) -> str:
    digest = hashlib.sha1()
    for rec in sorted(records):
        digest.update(repr(rec).encode())
    return digest.hexdigest()


def test_orders_and_witnesses_match_pinned_digest():
    records = []
    for n in range(1, 5):
        for g in enumerate_mvr_cgs(n):
            dec = validate_chain_graph(g)
            records.append((n, sorted(g.directed), sorted(g.bidirected),
                            [sorted(c) for c in dec.components],
                            sorted(dec.component_dag), list(dec.vertex_order)))
    assert (len(records), sha1_of(records)) == (1743, ORDERS_DIGEST)
    walks = [(sorted(g.directed), sorted(g.bidirected), list(walk))
             for g, walk in non_chain_witnesses(4) if g.n == 4]
    assert (len(walks), sha1_of(walks)) == (2408, WALKS_DIGEST)


def test_component_masks_match_pinned_digest():
    digest = hashlib.sha1()
    count = 0
    for n in range(1, 5):
        for g in enumerate_mvr_cgs(n):
            dec = validate_chain_graph(g)
            k = len(dec.components)
            rec = (n, sorted(g.directed), sorted(g.bidirected),
                   [dec.pre_mask(i) for i in range(k)], [dec.pst_mask(v) for v in range(n)],
                   [dec.pa_d_mask(i) for i in range(k)], [dec.nd_d_mask(i) for i in range(k)],
                   [sorted(dec.parent_components(i)) for i in range(k)])
            digest.update(repr(rec).encode())
            count += 1
    assert (count, digest.hexdigest()) == (1743, MASK_DIGEST)
