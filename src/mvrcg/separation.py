"""Separation criteria for mixed graphs.

Three routes are implemented independently and cross-checked:

* :func:`m_separated` — walk-state reachability.  A walk connects X to Y
  given Z when every interior noncollider avoids Z and every interior
  collider has a descendant in Z (equivalently, lies in the ancestor
  closure of Z).  Walks and simple paths define the same relation, and
  the walk search needs only 2n states.
* :func:`m_star_separated` — the augmentation criterion: restrict to the
  ancestor closure of X|Y|Z, join every collider-connected vertex pair
  by an undirected edge, then test plain separation.
* :func:`d_separated` — the classical DAG criterion via moralization of
  the ancestral subgraph; rejects graphs that are not DAGs.

The first two must agree on every input and the third must agree with
:func:`m_separated` on DAGs; those agreements are part of the test
surface, not assumed.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import _kernels
from ._bitset import bits, mask_of, set_of
from ._kernels.pyfallback import iter_canonical_codes
from .config import model_cap
from .errors import CapExceeded, DisjointnessViolation, NotADag, UnknownName
from .graph import (MixedGraph, UndirectedGraph, ancestors_mask, reach_mask,
                    topological_order)
from .triples import IndependenceModel


def _query_masks(g: MixedGraph, X, Y, Z) -> tuple[int, int, int]:
    x, y, z = mask_of(X), mask_of(Y), mask_of(Z)
    if (x | y | z) & ~g.full_mask:
        raise DisjointnessViolation("vertex id out of range")
    if not x or not y:
        raise DisjointnessViolation("X and Y must be nonempty")
    if x & y or x & z or y & z:
        raise DisjointnessViolation("X, Y, Z must be pairwise disjoint")
    return x, y, z


def m_separated(g: MixedGraph, X: Iterable[int], Y: Iterable[int],
                Z: Iterable[int] = ()) -> bool:
    """True when no m-connecting walk joins X and Y given Z."""
    x, y, z = _query_masks(g, X, Y, Z)
    return not _kernels.m_connected(g.n, g.pa, g.ch, g.nb, x, y, z)


def m_connecting_walk(g: MixedGraph, X, Y, Z=()) -> Optional[list[int]]:
    """One m-connecting walk as a vertex list, or None when separated.

    Pure-Python rediscovery with predecessor tracking; used for witness
    output rather than for bulk queries.
    """
    x, y, z = _query_masks(g, X, Y, Z)
    anz = ancestors_mask(g, z)
    prev: dict[tuple[int, bool], tuple] = {}
    queue: list[tuple[int, bool]] = []

    def arrive(v, head, frm):
        if (v, head) not in prev:
            prev[(v, head)] = frm
            queue.append((v, head))

    for s in bits(x):
        for w in bits(g.ch[s] | g.nb[s]):
            arrive(w, True, ("src", s))
        for w in bits(g.pa[s]):
            arrive(w, False, ("src", s))
    i = 0
    goal = None
    while i < len(queue):
        v, head = queue[i]
        i += 1
        if y >> v & 1:
            goal = (v, head)
            break
        through_tail = not (z >> v & 1)
        through_head = bool(anz >> v & 1)
        if not head and through_tail:
            for w in bits(g.ch[v] | g.nb[v]):
                arrive(w, True, (v, head))
            for w in bits(g.pa[v]):
                arrive(w, False, (v, head))
        elif head:
            if through_tail:
                for w in bits(g.ch[v]):
                    arrive(w, True, (v, head))
            if through_head:
                for w in bits(g.nb[v]):
                    arrive(w, True, (v, head))
                for w in bits(g.pa[v]):
                    arrive(w, False, (v, head))
    if goal is None:
        return None
    walk = [goal[0]]
    cur = prev[goal]
    while cur[0] != "src":
        walk.append(cur[0])
        cur = prev[cur]
    walk.append(cur[1])
    return walk[::-1]


def _collider_adjacency(g: MixedGraph, within: int) -> list[int]:
    """Augmented adjacency masks on the induced subgraph ``within``.

    Vertex pairs are joined when a path with all-collider interiors links
    them; a single edge counts.  Per-source reachability over
    (vertex, arrived-with-arrowhead) states, interiors restricted to
    states that can still act as colliders.
    """
    adj = [0] * g.n
    for s in bits(within):
        head = (g.ch[s] | g.nb[s]) & within
        tail = g.pa[s] & within
        reached = head | tail
        frontier = head  # only arrowhead arrivals can continue as colliders
        while frontier:
            grown_head = 0
            grown_tail = 0
            for v in bits(frontier):
                grown_head |= g.nb[v]
                grown_tail |= g.pa[v]
            grown_head &= within
            grown_tail &= within
            frontier = grown_head & ~head
            head |= grown_head
            tail |= grown_tail
            reached |= grown_head | grown_tail
        adj[s] = reached & ~(1 << s)
    return adj


def augmented_graph(g: MixedGraph) -> UndirectedGraph:
    """Undirected graph joining the collider-connected vertex pairs."""
    adj = _collider_adjacency(g, g.full_mask)
    edges = set()
    for u in range(g.n):
        for v in bits(adj[u]):
            edges.add((min(u, v), max(u, v)))
    return UndirectedGraph(g.n, frozenset(edges))


def m_star_separated(g: MixedGraph, X, Y, Z=()) -> bool:
    """Augmentation criterion: separation in the augmented ancestral
    subgraph.  Anterior and ancestor closures coincide here because the
    graph has no undirected edges."""
    x, y, z = _query_masks(g, X, Y, Z)
    w = ancestors_mask(g, x | y | z)
    return not reach_mask(_collider_adjacency(g, w), x, ~z) & y


def _require_dag(g: MixedGraph) -> None:
    if g.bidirected:
        raise NotADag("graph has bidirected edges")
    if len(topological_order(g.pa, g.ch)) != g.n:
        raise NotADag("graph has a directed cycle")


def _moral_adjacency(g: MixedGraph, within: int) -> list[int]:
    """Moral adjacency masks on the induced subgraph ``within``: every
    edge undirected, and parents sharing a child married."""
    adj = [0] * g.n
    for v in bits(within):
        adj[v] |= (g.pa[v] | g.ch[v]) & within
        parents = g.pa[v] & within
        for p in bits(parents):
            adj[p] |= parents & ~(1 << p)
    return adj


def d_separated(dag: MixedGraph, X, Y, Z=()) -> bool:
    """Classical DAG separation: moralize the ancestral subgraph of
    X|Y|Z, then test plain separation."""
    _require_dag(dag)
    x, y, z = _query_masks(dag, X, Y, Z)
    w = ancestors_mask(dag, x | y | z)
    return not reach_mask(_moral_adjacency(dag, w), x, ~z) & y


def global_model_codes(g: MixedGraph, cap: Optional[int] = None,
                       method: str = "m") -> list[int]:
    """Code set of the full separation model of ``g``."""
    limit = model_cap(cap)
    if g.n > limit:
        raise CapExceeded(f"{g.n} vertices exceeds cap {limit}")
    if method == "m":
        return _kernels.global_model_codes(g.n, g.pa, g.ch, g.nb)
    if method == "mstar":
        out = []
        for code, a, b, c in iter_canonical_codes(g.n):
            if m_star_separated(g, set_of(a), set_of(b), set_of(c)):
                out.append(code)
        return out
    raise UnknownName(f"unknown method {method!r}; expected m|mstar")


def global_model(g: MixedGraph, cap: Optional[int] = None,
                 method: str = "m") -> IndependenceModel:
    """Every separated triple <X, Y | Z> of the graph."""
    return IndependenceModel.from_codes(g.n, global_model_codes(g, cap, method))
