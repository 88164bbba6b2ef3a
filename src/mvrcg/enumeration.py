"""Graph generators for exhaustive and randomized verification runs.

Every unordered vertex pair independently carries one of four states
(no edge, ->, <-, <->); a chain graph is an assignment without a
partially directed cycle.  The exhaustive enumerators yield graphs in
the order of ``product`` over the pairs in ``combinations`` order, the
last pair varying fastest.

Rather than test all 4**C(n,2) assignments, ``_chain_graphs`` fixes the
pairs' states one at a time in that pair order, depth-first, trying each
pair's states in order: it meets the assignments in lexicographic order,
which is ``product``'s, so it yields the same graphs in the same order
as filtering ``product`` would.  A prefix that closes a partially
directed cycle is not extended, since no later edge removes one; every
leaf is then a chain graph, and each is built from the masks and edge
lists the search holds.  At n=5 this reaches the 142,624 chain graphs of
1,048,576 assignments, listed in 1.2-1.7 s on a shared 2-core machine
with Python 3.11; the 28,903,216 of n=6 (4**15 assignments) are counted
in 122 s.
``enumerate_mixed_graphs`` still runs through ``product``, and random
mode rejection-samples the same per-pair distribution up to
``RANDOM_CAP`` vertices.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterator

from .config import ENUMERATION_CAP, RANDOM_CAP
from .errors import CapExceeded, GraphFormatError, InvalidSeed
from .graph import MixedGraph

NO_EDGE, FORWARD, BACKWARD, BOTH = range(4)
# The states of pair (u, v) that close no partially directed cycle, by
# (u in reach[v]) | (v in reach[u]) << 1; see ``_chain_graphs``.
_OPEN_STATES = (frozenset(range(4)), frozenset({NO_EDGE, BACKWARD}),
                frozenset({NO_EDGE, FORWARD}), frozenset({NO_EDGE, BOTH}))


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


def check_count(name: str, value) -> None:
    """Raise ``GraphFormatError`` unless ``value`` is a nonnegative int."""
    if type(value) is not int or value < 0:  # bool is a subclass of int
        raise GraphFormatError(f"{name} must be a nonnegative int, got {value!r}")


def check_seed(seed) -> None:
    """Raise ``InvalidSeed`` unless ``seed`` is an int, not a bool.  None
    would draw from OS entropy, so the same arguments would give other
    graphs."""
    if type(seed) is not int:
        raise InvalidSeed(f"seed must be an int, got {seed!r}")


def _grown(reach: list[int], s: int, u: int, v: int) -> list[int]:
    """``reach`` once pair ``(u, v)`` takes state ``s``: every vertex that
    reached the new edge's tail also reaches what its head reached."""
    if s == NO_EDGE:
        return reach
    if s == BOTH:
        add, via = reach[u] | reach[v], 1 << u | 1 << v
    elif s == FORWARD:
        add, via = reach[v], 1 << u
    else:
        add, via = reach[u], 1 << v
    return [r | add if r & via else r for r in reach]


def _chain_graphs(n: int, states) -> Iterator[MixedGraph]:
    """Every chain graph on ``n`` vertices whose pair states come from
    ``states``, in ``product`` order, by depth-first extension.

    ``reach[x]`` holds the vertices reached from ``x`` along ``ch | nb``,
    ``x`` included, in the prefix fixed so far, which is a chain graph.
    Pair ``(u, v)`` then closes a partially directed cycle exactly so:
    u -> v when u is in ``reach[v]``, v -> u when v is in ``reach[u]``,
    and u <-> v when just one of the two holds (both means u and v are
    already in one bidirected component).  No later edge removes a
    cycle, so a prefix that closes one is not extended."""
    pairs = tuple(combinations(range(n), 2))
    last = len(pairs) - 1
    open_states = tuple(tuple(s for s in states if s in allowed) for allowed in _OPEN_STATES)
    labels, ids = tuple(str(v) for v in range(n)), tuple(range(n))
    pa, ch, nb, adj = [0] * n, [0] * n, [0] * n, [0] * n
    directed: list[tuple[int, int]] = []
    bidirected: list[tuple[int, int]] = []
    new = MixedGraph._unchecked

    def graph() -> MixedGraph:
        return new(labels, ids, frozenset(directed), frozenset(bidirected),
                   tuple(pa), tuple(ch), tuple(nb), tuple(adj))

    def flip(s: int, u: int, v: int) -> list[tuple[int, int]]:
        """Toggle the edge of state ``s`` on pair ``(u, v)`` in the masks;
        return the edge list it belongs to."""
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        if s == BOTH:
            nb[u] ^= 1 << v
            nb[v] ^= 1 << u
            return bidirected
        t, h = (u, v) if s == FORWARD else (v, u)
        ch[t] ^= 1 << h
        pa[h] ^= 1 << t
        return directed

    def extend(k: int, reach: list[int]) -> Iterator[MixedGraph]:
        u, v = pairs[k]
        for s in open_states[(reach[v] >> u & 1) | (reach[u] >> v & 1) << 1]:
            if s != NO_EDGE:
                flip(s, u, v).append((v, u) if s == BACKWARD else (u, v))
            if k == last:
                yield graph()
            else:
                yield from extend(k + 1, _grown(reach, s, u, v))
            if s != NO_EDGE:
                flip(s, u, v).pop()

    if pairs:
        yield from extend(0, [1 << x for x in range(n)])
    else:
        yield graph()


def _enumerate(n: int, states, chain_only: bool = True) -> Iterator[MixedGraph]:
    """Every labeled graph on ``n`` vertices whose pair states come from
    ``states``, in ``product`` order; with ``chain_only``, only those
    without a partially directed cycle.  The arguments are checked before
    the first graph is asked for."""
    check_count("vertex count", n)
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"exhaustive enumeration capped at n={ENUMERATION_CAP}")
    if chain_only:
        return _chain_graphs(n, states)
    pairs = tuple(combinations(range(n), 2))
    return (MixedGraph(n, *_edges_from_states(pairs, pair_states))
            for pair_states in product(states, repeat=len(pairs)))


def enumerate_mvr_cgs(n: int) -> Iterator[MixedGraph]:
    """Every labeled mixed graph on ``n`` vertices without a partially
    directed cycle and with at most one edge per pair."""
    return _enumerate(n, range(4))


def check_random_n(n: int) -> None:
    """Raise unless ``n`` is a vertex count that random draws take: a
    nonnegative int up to ``RANDOM_CAP``.  Few candidates are chain
    graphs at larger n, so one draw takes seconds at n = 9 and did not end
    in minutes at n = 10."""
    check_count("vertex count", n)
    if n > RANDOM_CAP:
        raise CapExceeded(f"random draws capped at n={RANDOM_CAP}")


def random_mvr_cg(n: int, rng: random.Random) -> MixedGraph:
    """Uniform sample over per-pair states, rejecting non-chain-graphs.
    Each candidate is drawn in full, then its pairs are fixed in order
    under ``_chain_graphs``' rule until one closes a cycle."""
    check_random_n(n)
    if not isinstance(rng, random.Random):
        raise GraphFormatError(f"rng must be a random.Random, got {rng!r}")
    pairs = tuple(combinations(range(n), 2))
    while True:
        states = tuple(rng.randrange(4) for _ in pairs)
        reach = [1 << x for x in range(n)]
        for (u, v), s in zip(pairs, states):
            if s not in _OPEN_STATES[(reach[v] >> u & 1) | (reach[u] >> v & 1) << 1]:
                break
            reach = _grown(reach, s, u, v)
        else:
            return MixedGraph(n, *_edges_from_states(pairs, states))


def random_mvr_cgs(n: int, count: int, seed: int) -> Iterator[MixedGraph]:
    """``count`` graphs from ``random_mvr_cg``, drawn from ``seed``; the
    arguments are checked before the first graph is asked for."""
    check_random_n(n)
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
