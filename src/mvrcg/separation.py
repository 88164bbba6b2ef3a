"""Separation criteria for mixed graphs.

Three routes are implemented independently and cross-checked.  Each has
one core on vertex bitmasks; the public function checks its arguments
and calls it, and model-level loops call the cores directly.

* :func:`m_separated` — walk-state reachability, the kernel's
  ``m_connected``.  A walk connects X to Y given Z when every interior
  noncollider avoids Z and every interior collider has a descendant in Z
  (equivalently, lies in the ancestor closure of Z).  Walks and simple
  paths define the same relation, and the walk search needs only 2n
  states.
* :func:`m_star_separated` — the augmentation criterion: restrict to the
  ancestor closure of X|Y|Z, join every collider-connected vertex pair
  by an undirected edge, then test plain separation.
* :func:`d_separated` — the classical DAG criterion via moralization of
  the ancestral subgraph; rejects graphs that are not DAGs.

The first two must agree on every input and the third must agree with
:func:`m_separated` on DAGs; those agreements are part of the test
surface, not assumed.

The model loops cost the reach sets they compute plus a few steps per
code they emit, instead of one query per canonical triple (about
4^n/2).  The m model takes one walk per vertex and conditioning set,
n * 2^(n-1) walks, in the kernel's ``global_model_codes``.  The m* and
latent-DAG models share :func:`_separated_codes`: one adjacency per set
a|b|c, and per conditioning set c one split of the rest of the set into
classes, 3^n splits in all.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ._bitset import bits, submasks
from ._kernels import pyfallback
from ._kernels.pyfallback import iter_canonical_codes, m_connected, subset_sums
from .config import check_cap, model_cap
from .errors import DisjointnessViolation, NotADag, UnknownName
from .graph import (MixedGraph, UndirectedGraph, _as_mask, ancestors_mask,
                    parents_of_set, reach_mask, state_walk, topological_order)
from .triples import IndependenceModel


def _query_masks(g: MixedGraph, X, Y, Z) -> tuple[int, int, int]:
    x, y, z = _as_mask(g, X), _as_mask(g, Y), _as_mask(g, Z)
    if not x or not y:
        raise DisjointnessViolation("X and Y must be nonempty")
    if x & y or x & z or y & z:
        raise DisjointnessViolation("X, Y, Z must be pairwise disjoint")
    return x, y, z


def m_separated(g: MixedGraph, X: Iterable[int], Y: Iterable[int],
                Z: Iterable[int] = ()) -> bool:
    """True when no m-connecting walk joins X and Y given Z."""
    x, y, z = _query_masks(g, X, Y, Z)
    return not m_connected(g.n, g.pa, g.ch, g.nb, x, y, z)


def m_connecting_walk(g: MixedGraph, X, Y, Z=()) -> Optional[list[int]]:
    """One m-connecting walk as a vertex list, or None when separated.

    The same walk rules as :func:`m_separated`, run as a state walk that
    keeps predecessors; used for witness output rather than for bulk
    queries."""
    x, y, z = _query_masks(g, X, Y, Z)
    anz = ancestors_mask(g, z)

    def step(v, head):
        if not z >> v & 1:  # crossed as a noncollider: leave through a tail
            if head:
                yield g.ch[v], True
            else:
                yield g.ch[v] | g.nb[v], True
                yield g.pa[v], False
        if head and anz >> v & 1:  # crossed as a collider
            yield g.nb[v], True
            yield g.pa[v], False

    return state_walk(g, x, y, step)


def _collider_adjacency(g: MixedGraph, within: int) -> list[int]:
    """Augmented adjacency masks on the induced subgraph ``within``.

    Vertex pairs are joined when a path with all-collider interiors links
    them; a single edge counts.  Only a vertex entered with an arrowhead
    can be a collider.  From ``s`` those are the vertices reached along
    bidirected edges after a first edge with its head away from ``s``, and
    a path ends at one of them, at a parent of one, or at a parent of ``s``.
    """
    adj = [0] * g.n
    for s in bits(within):
        head = reach_mask(g.nb, g.ch[s] | g.nb[s], within)
        tail = (g.pa[s] | parents_of_set(g, head)) & within
        adj[s] = (head | tail) & ~(1 << s)
    return adj


def augmented_graph(g: MixedGraph) -> UndirectedGraph:
    """Undirected graph joining the collider-connected vertex pairs."""
    adj = _collider_adjacency(g, g.full_mask)
    edges = set()
    for u in range(g.n):
        for v in bits(adj[u]):
            edges.add((min(u, v), max(u, v)))
    return UndirectedGraph(g.n, frozenset(edges))


def _separated(adj: list[int], x: int, y: int, z: int) -> bool:
    """Plain separation: no path along ``adj`` from x to y avoiding z."""
    return not reach_mask(adj, x, ~z) & y


def _m_star_separated(g: MixedGraph, x: int, y: int, z: int) -> bool:
    return _separated(_collider_adjacency(g, ancestors_mask(g, x | y | z)), x, y, z)


def _separated_codes(g: MixedGraph, n: int, adjacency) -> list[int]:
    """Canonical codes over vertices ``0..n-1`` whose triple <a, b | c> is
    separated in ``adjacency(g, an(a|b|c))``.

    One adjacency per set u = a|b|c.  For each c inside u, the rest of u
    falls into classes joined by paths that avoid c, and a split of the
    rest into a and b is separated exactly when no class meets both.  With
    k classes, the 2^(k-1) - 1 splits that keep the lowest vertex's class
    in a are the canonical ones.
    """
    out: list[int] = []
    for u in range(1, 1 << n):
        if u & (u - 1) == 0:  # a and b need a vertex each
            continue
        adj = adjacency(g, ancestors_mask(g, u))
        for rest in submasks(u):
            if rest & (rest - 1) == 0:
                continue
            c = u ^ rest
            classes = []
            m = rest
            while m:
                cls = reach_mask(adj, m & -m, ~c) & rest
                classes.append(cls)
                m ^= cls
            if len(classes) > 1:
                # The lowest class starts in a and the others in b; moving
                # a class from b to a adds cls - (cls << n).  The last sum
                # moves every class, leaving b empty.
                first = classes[0]
                base = c << 2 * n | (rest ^ first) << n | first
                out += subset_sums(base, [cls - (cls << n) for cls in classes[1:]])[:-1]
    out.sort()
    return out


def m_star_separated(g: MixedGraph, X, Y, Z=()) -> bool:
    """Augmentation criterion: separation in the augmented ancestral
    subgraph.  Anterior and ancestor closures coincide here because the
    graph has no undirected edges."""
    return _m_star_separated(g, *_query_masks(g, X, Y, Z))


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


def _d_separated(dag: MixedGraph, x: int, y: int, z: int) -> bool:
    return _separated(_moral_adjacency(dag, ancestors_mask(dag, x | y | z)), x, y, z)


def d_separated(dag: MixedGraph, X, Y, Z=()) -> bool:
    """Classical DAG separation: moralize the ancestral subgraph of
    X|Y|Z, then test plain separation."""
    _require_dag(dag)
    return _d_separated(dag, *_query_masks(dag, X, Y, Z))


def global_model_codes(g: MixedGraph, method: str = "m") -> list[int]:
    """Code set of the full separation model of ``g``."""
    check_cap(g.n, model_cap())
    if method == "m":
        return pyfallback.global_model_codes(g.n, g.pa, g.ch, g.nb)
    if method == "mstar":
        return _separated_codes(g, g.n, _collider_adjacency)
    raise UnknownName(f"unknown method {method!r}; expected m|mstar")


def global_model(g: MixedGraph, method: str = "m") -> IndependenceModel:
    """Every separated triple <X, Y | Z> of the graph."""
    return IndependenceModel.from_codes(g.n, global_model_codes(g, method))
