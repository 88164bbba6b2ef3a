import random

from mvrcg import MixedGraph, induced_subgraph, intervene, is_chain_graph, validate_chain_graph
from mvrcg.enumeration import random_mvr_cg


def test_empty_target_is_identity():
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    assert intervene(g, []) == g


def test_single_edge_removed():
    g = MixedGraph(2, directed=[(0, 1)])
    assert intervene(g, [1]) == MixedGraph(2)


def test_bidirected_touching_target_removed():
    # 0 <-> 1, 1 -> 2; forcing 1 keeps only 1 -> 2
    g = MixedGraph(3, bidirected=[(0, 1)], directed=[(1, 2)])
    assert intervene(g, [1]) == MixedGraph(3, directed=[(1, 2)])


def test_surgery_invariants_on_random_graphs():
    rng = random.Random(123)
    for _ in range(100):
        n = rng.randrange(2, 7)
        g = random_mvr_cg(n, rng)
        x = [v for v in range(n) if rng.random() < 0.4]
        cut = intervene(g, x)
        for v in x:
            assert cut.parents(v) == frozenset()
            assert cut.neighbors(v) == frozenset()
        assert is_chain_graph(cut)
        validate_chain_graph(cut)
        assert intervene(cut, x) == cut
        assert cut.n == g.n
        assert cut.directed <= g.directed
        assert cut.bidirected <= g.bidirected


def test_intervention_keeps_source_ids():
    """The result keeps the graph's map back to the ids it came from."""
    g = induced_subgraph(MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)]), [1, 2])
    cut = intervene(g, [0])
    assert cut == MixedGraph(2) and cut.source_ids == (1, 2) and cut.labels == ("1", "2")
