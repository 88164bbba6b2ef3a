import hashlib
import random
from itertools import combinations, product

import pytest

from mvrcg import is_chain_graph, random_mvr_cg
from mvrcg.enumeration import enumerate_dags, enumerate_mixed_graphs, enumerate_mvr_cgs
from mvrcg.errors import CapExceeded

from oracles import oracle_is_chain_graph


def test_counts_tiny():
    assert len(list(enumerate_mvr_cgs(1))) == 1
    assert len(list(enumerate_mvr_cgs(2))) == 4  # none, ->, <-, <->


def test_count_n3_matches_brute_force():
    # independent count: all 4**3 pair-state assignments, rejection by the
    # edge-list cycle oracle
    pairs = list(combinations(range(3), 2))
    expected = 0
    for states in product(range(4), repeat=3):
        directed = []
        bidirected = []
        for (u, v), s in zip(pairs, states):
            if s == 1:
                directed.append((u, v))
            elif s == 2:
                directed.append((v, u))
            elif s == 3:
                bidirected.append((u, v))
        expected += oracle_is_chain_graph(3, directed, bidirected)
    got = list(enumerate_mvr_cgs(3))
    assert len(got) == expected == 50
    assert len(set(got)) == len(got)  # no duplicates


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
