import hashlib
import random

import pytest

from mvrcg import MixedGraph, is_chain_graph, random_mvr_cg
from mvrcg.enumeration import enumerate_dags, enumerate_mixed_graphs, enumerate_mvr_cgs
from mvrcg.errors import CapExceeded

from oracles import count_labeled_dags, count_labeled_mvr_cgs, oracle_enumerate


def test_counts_tiny():
    assert len(list(enumerate_mvr_cgs(1))) == 1
    assert len(list(enumerate_mvr_cgs(2))) == 4  # none, ->, <-, <->


def test_count_n3_matches_brute_force():
    # independent count: all 4**3 pair-state assignments, rejection by the
    # edge-list cycle oracle
    expected = sum(1 for _ in oracle_enumerate(3, range(4)))
    got = list(enumerate_mvr_cgs(3))
    assert len(got) == expected == 50
    assert len(set(got)) == len(got)  # no duplicates


@pytest.mark.parametrize("enumerate_graphs, count, at_five", [
    (enumerate_mvr_cgs, count_labeled_mvr_cgs, 142624),
    (enumerate_dags, count_labeled_dags, 29281),
], ids=["mvr_cgs", "dags"])
def test_enumeration_counts_match_the_recursions(enumerate_graphs, count, at_five):
    got = [sum(1 for _ in enumerate_graphs(n)) for n in range(6)]
    assert got == [count(n) for n in range(6)]
    assert got[5] == at_five


@pytest.mark.parametrize("enumerate_graphs, states", [
    (enumerate_mvr_cgs, range(4)),
    (enumerate_dags, range(3)),
], ids=["mvr_cgs", "dags"])
def test_enumeration_sequences_match_the_rejection_oracle(enumerate_graphs, states):
    """The pruned search yields the graphs that filtering ``product``
    keeps, in the same order."""
    for n in range(5):
        got = [(sorted(g.directed), sorted(g.bidirected)) for g in enumerate_graphs(n)]
        assert got == [(sorted(d), b) for d, b in oracle_enumerate(n, states)]


@pytest.mark.parametrize("enumerate_graphs", [enumerate_mvr_cgs, enumerate_dags],
                         ids=["mvr_cgs", "dags"])
def test_enumerated_graphs_equal_the_constructed_ones(enumerate_graphs):
    """Graphs built from the search's masks hold what ``MixedGraph``
    builds from their edge lists, field by field."""
    fields = ("n", "labels", "source_ids", "directed", "bidirected", "pa", "ch", "nb", "adj",
              "full_mask")
    for n in range(5):
        for g in enumerate_graphs(n):
            built = MixedGraph(n, g.directed, g.bidirected)
            assert [getattr(g, f) for f in fields] == [getattr(built, f) for f in fields]
            assert (hash(g), g.to_text()) == (hash(built), built.to_text())


def test_enumerated_graphs_are_chain_graphs():
    assert all(is_chain_graph(g) for g in enumerate_mvr_cgs(3))


def test_count_n4_frozen():
    assert sum(1 for _ in enumerate_mvr_cgs(4)) == 1688


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        next(enumerate_mvr_cgs(7))


def test_dag_count_n3():
    # 25 labeled DAGs on three vertices
    dags = list(enumerate_dags(3))
    assert len(dags) == 25
    assert all(not g.bidirected for g in dags)


def test_dag_count_n4():
    assert sum(1 for _ in enumerate_dags(4)) == 543


def test_random_sampler_deterministic_and_valid():
    rng_a = random.Random(99)
    rng_b = random.Random(99)
    a = [random_mvr_cg(5, rng_a) for _ in range(10)]
    b = [random_mvr_cg(5, rng_b) for _ in range(10)]
    assert a == b
    assert all(is_chain_graph(g) for g in a)
    assert len(set(a)) > 1


def test_random_sampler_matches_enumeration_support():
    support = set(enumerate_mvr_cgs(2))
    rng = random.Random(3)
    seen = {random_mvr_cg(2, rng) for _ in range(200)}
    assert seen == support


@pytest.mark.parametrize("enumerate_graphs, top, count, digest", [
    (enumerate_mvr_cgs, 4, 1744, "d134a898c6f2c13466307b546a66698a51219179"),
    (enumerate_dags, 4, 573, "7df0c4976fc94ac70b706517e484a6d1e2291f4d"),
    (enumerate_mixed_graphs, 3, 70, "005ebdd8aeabca0513b77ac23576c57a006f206d"),
], ids=["mvr_cgs", "dags", "mixed_graphs"])
def test_enumeration_sequence_matches_pinned_digest(enumerate_graphs, top, count, digest):
    """sha1 over the edge lists of every graph each enumerator yields for
    n = 0..top, in yield order, computed when each had its own loop."""
    h = hashlib.sha1()
    seen = 0
    for n in range(top + 1):
        for g in enumerate_graphs(n):
            seen += 1
            h.update(f"{g.n}:{sorted(g.directed)}:{sorted(g.bidirected)}\n".encode())
    assert (seen, h.hexdigest()) == (count, digest)
