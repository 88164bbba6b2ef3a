"""Graph generators for exhaustive and randomized verification runs.

Every unordered vertex pair independently carries one of four states
(no edge, ->, <-, <->); candidates with a partially directed cycle are
dropped.  Exhaustive mode is practical up to five vertices (4**10
candidates) and allowed up to six; random mode rejection-samples the
same distribution at any size.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterator

from .chain import _chain_order_from_masks
from .config import ENUMERATION_CAP
from .errors import CapExceeded, GraphFormatError
from .graph import MixedGraph

NO_EDGE, FORWARD, BACKWARD, BOTH = range(4)


def _edges_from_states(pairs, states):
    directed = []
    bidirected = []
    for (u, v), s in zip(pairs, states):
        if s == FORWARD:
            directed.append((u, v))
        elif s == BACKWARD:
            directed.append((v, u))
        elif s == BOTH:
            bidirected.append((u, v))
    return directed, bidirected


def _is_chain_graph(n, pairs, states) -> bool:
    ch = [0] * n
    nb = [0] * n
    for (u, v), s in zip(pairs, states):
        if s == FORWARD:
            ch[u] |= 1 << v
        elif s == BACKWARD:
            ch[v] |= 1 << u
        elif s == BOTH:
            nb[u] |= 1 << v
            nb[v] |= 1 << u
    return _chain_order_from_masks(n, ch, nb) is not None


def check_count(name: str, value) -> None:
    """Raise ``GraphFormatError`` unless ``value`` is a nonnegative int."""
    if type(value) is not int or value < 0:  # bool is a subclass of int
        raise GraphFormatError(f"{name} must be a nonnegative int, got {value!r}")


def check_seed(seed) -> None:
    """Raise ``GraphFormatError`` unless ``seed`` is an int.  None would
    draw from OS entropy, so the same arguments would give other graphs."""
    if type(seed) is not int:
        raise GraphFormatError(f"seed must be an int, got {seed!r}")


def _enumerate(n: int, states, chain_only: bool = True) -> Iterator[MixedGraph]:
    """Every labeled graph on ``n`` vertices whose pair states come from
    ``states``, in ``product`` order; with ``chain_only``, only those
    without a partially directed cycle.  The arguments are checked before
    the first graph is asked for."""
    check_count("vertex count", n)
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"exhaustive enumeration capped at n={ENUMERATION_CAP}")
    pairs = tuple(combinations(range(n), 2))
    return (MixedGraph(n, *_edges_from_states(pairs, pair_states))
            for pair_states in product(states, repeat=len(pairs))
            if not chain_only or _is_chain_graph(n, pairs, pair_states))


def enumerate_mvr_cgs(n: int) -> Iterator[MixedGraph]:
    """Every labeled mixed graph on ``n`` vertices without a partially
    directed cycle and with at most one edge per pair."""
    return _enumerate(n, range(4))


def random_mvr_cg(n: int, rng: random.Random) -> MixedGraph:
    """Uniform sample over per-pair states, rejecting non-chain-graphs."""
    check_count("vertex count", n)
    if not isinstance(rng, random.Random):
        raise GraphFormatError(f"rng must be a random.Random, got {rng!r}")
    pairs = tuple(combinations(range(n), 2))
    while True:
        states = tuple(rng.randrange(4) for _ in pairs)
        if _is_chain_graph(n, pairs, states):
            return MixedGraph(n, *_edges_from_states(pairs, states))


def random_mvr_cgs(n: int, count: int, seed: int) -> Iterator[MixedGraph]:
    """``count`` graphs from ``random_mvr_cg``, drawn from ``seed``; the
    arguments are checked before the first graph is asked for."""
    check_count("vertex count", n)
    check_count("count", count)
    check_seed(seed)
    rng = random.Random(seed)
    return (random_mvr_cg(n, rng) for _ in range(count))


def enumerate_dags(n: int) -> Iterator[MixedGraph]:
    """Every labeled DAG on ``n`` vertices (pair states: none, ->, <-)."""
    return _enumerate(n, (NO_EDGE, FORWARD, BACKWARD))


def enumerate_mixed_graphs(n: int) -> Iterator[MixedGraph]:
    """Every labeled mixed graph, including ones with partially directed
    cycles; used to exercise checks that must reject or flag them."""
    return _enumerate(n, range(4), chain_only=False)
