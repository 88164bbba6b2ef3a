"""Separation criteria for mixed graphs.

Three routes are implemented independently and cross-checked.  Each
public function checks its arguments and answers on vertex bitmasks.
The model-level loops below call none of them: the m model applies the
walk form of :func:`_m_walk`'s rules to every conditioning set at once,
and the m* model shares :func:`_collider_adjacency`.

* :func:`m_separated` — walk-state reachability, :func:`_m_walk`, which
  also gives :func:`m_connecting_walk` its witness.  A walk connects X
  to Y given Z when every interior noncollider avoids Z and every
  interior collider has a descendant in Z (equivalently, lies in the
  ancestor closure of Z).  Walks and simple paths define the same
  relation, and the walk search needs only 2n states.
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
4^n/2).  The m model is its elementary table, built in the kernel's
``m_elementary_table`` by one walk over every conditioning set at once
(``m_world_reach``): a vertex's state is a mask over the 2^n sets, and
the walks from all sources sit side by side in one integer, so sweeps
over the n vertices, repeated until no state grows, replace a walk per
vertex and set.  That walk lets a collider lie only in the conditioning
set, the walk form of m-separation, while :func:`_m_walk` lets it lie in
the set's ancestors, the path form; the two connect the same pairs, and
a test compares them on every (i, j, c).  The walk form needs no
descendant sets, at the price of more sweeps: per benchmark pass (seed
1) they take 4,254 steps on ``oracle_n6``, 2,215 on ``closure_sparse6``
and 15,615 on ``sweep_n4``.  Only a vertex with a vertex above it that
is not adjacent to it is a source, since adjacent vertices are never
separated and m-connection is symmetric; :func:`global_model_table`
returns the table, and ``global_model_codes`` lists M from it.  The
table is n·2^n masks, which maximality reads (``structure``) up to
``DEFAULT_SUBSET_CAP`` (12) vertices; ``model_cap()`` guards listing M
and closing against it.  The m* and latent-DAG models share
:func:`_separated_codes`, which builds one adjacency per ancestral set A
rather than per set a|b|c: the sets u with an(u) = A are those with
sinks(A) ⊆ u ⊆ A, where sinks(A) are the vertices of A with no child in
A.  On the latent route the latents are
projected out first: observed vertices that a path through latents
alone connects are joined, since no latent is ever conditioned on.  A
vertex joined to every other vertex of A leaves A - c one class unless
c holds it, so only the c that hold all such vertices are visited: one
per subset w of the other vertices, the loose ones, with c holding the
loose vertices outside w.  The classes of A - c, its components along
the adjacency, are built for every w in one increasing pass
(:func:`_loose_classes`): those of w are those of w minus its lowest
vertex v, with the ones that v is joined to merged into v's class.  An
(A, c) with fewer than two classes emits nothing and is skipped;
``graph.district_masks`` only lists the latent components projected
out.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ._bitset import bits, submasks
from ._kernels import pyfallback
from ._kernels.pyfallback import iter_canonical_codes, subset_sums
from .config import DEFAULT_SUBSET_CAP, check_cap, model_cap
from .errors import NotADag, UnknownName
from .graph import (MixedGraph, UndirectedGraph, _as_mask, _graph, ancestors_mask,
                    district_masks, reach_mask, state_walk, topological_order)
from .triples import IndependenceModel, _check_blocks


def _query_masks(g: MixedGraph, X, Y, Z) -> tuple[int, int, int]:
    x, y, z = _as_mask(_graph(g), X), _as_mask(g, Y), _as_mask(g, Z)
    _check_blocks(x, y, z)
    return x, y, z


def m_separated(g: MixedGraph, X: Iterable[int], Y: Iterable[int],
                Z: Iterable[int] = ()) -> bool:
    """True when no m-connecting walk joins X and Y given Z."""
    return _m_walk(g, *_query_masks(g, X, Y, Z)) is None


def m_connecting_walk(g: MixedGraph, X, Y, Z=()) -> Optional[list[int]]:
    """One m-connecting walk as a vertex list, or None when separated."""
    return _m_walk(g, *_query_masks(g, X, Y, Z))


def _m_walk(g: MixedGraph, x: int, y: int, z: int) -> Optional[list[int]]:
    """The m-connecting walk of ``m_connecting_walk`` on checked masks: a
    state walk over (vertex, arrived-with-arrowhead) pairs, which crosses
    a vertex as a noncollider only outside z and as a collider only
    inside an(z).  It is the single-query reference for each (i, j, c)
    of the m model's table, whose walk lets a collider lie only in z:
    both rules connect the same pairs, and this one's witnesses need no
    detour down to z."""
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

    return state_walk(x, y, step)


def _collider_adjacency(g: MixedGraph, within: int) -> list[int]:
    """Augmented adjacency masks on the induced subgraph ``within``.

    Vertex pairs are joined when a path with all-collider interiors links
    them; a single edge counts.  Only a vertex entered with an arrowhead
    can be a collider.  From ``s`` those are the vertices reached along
    bidirected edges after a first edge with its head away from ``s``, and
    a path ends at one of them, at a parent of one, or at a parent of ``s``.
    """
    adj = [0] * g.n
    pa = g.pa
    for s in bits(within):
        head = reach_mask(g.nb, g.ch[s] | g.nb[s], within)
        near = head | pa[s]  # head, its parents and those of s
        for h in bits(head):
            near |= pa[h]
        adj[s] = near & within & ~(1 << s)
    return adj


def augmented_graph(g: MixedGraph) -> UndirectedGraph:
    """Undirected graph joining the collider-connected vertex pairs."""
    adj = _collider_adjacency(_graph(g), g.full_mask)
    edges = set()
    for u in range(g.n):
        for v in bits(adj[u]):
            edges.add((min(u, v), max(u, v)))
    return UndirectedGraph(g.n, frozenset(edges))


def _separated(adj: list[int], x: int, y: int, z: int) -> bool:
    """Plain separation: no path along ``adj`` from x to y avoiding z."""
    return not reach_mask(adj, x, ~z) & y


def _loose_classes(adj: list[int], loose: int) -> dict[int, list[int]]:
    """The classes along ``adj`` of every subset w of ``loose``, keyed by
    w in increasing order and listed as ``district_masks(adj, w)`` lists
    them, built in one pass.  The classes of w are those of w minus its
    lowest vertex v, with the ones that v is joined to merged into v's
    class, which comes first since it holds w's lowest vertex."""
    parts = {0: []}
    w = 0
    while w != loose:
        w = (w - loose) & loose  # the next subset of loose
        v = w & -w
        near = adj[v.bit_length() - 1]
        merged, others = v, []
        for t in parts[w ^ v]:
            if t & near:
                merged |= t
            else:
                others.append(t)
        parts[w] = [merged, *others]
    return parts


def _separated_codes(g: MixedGraph, n: int, adjacency) -> list[int]:
    """Canonical codes over vertices ``0..n-1`` whose triple <a, b | c> is
    separated in ``adjacency(g, an(a|b|c))``.

    Vertices from ``n`` on are latent: they may lie on paths but never in
    a triple.  One adjacency per ancestral set A = an(u) of a set u of at
    least 2 observed vertices.  The sets u with an(u) = A are exactly
    those with sinks(A) ⊆ u ⊆ A, where sinks(A) are the vertices of A
    with no child in A: every vertex of A is an ancestor of a sink, and a
    sink is an ancestor of no other vertex of A.  A latent in A has a
    child in A, so the sinks are observed.

    No latent is ever conditioned on, so a path through latents alone is
    always open: the observed vertices that one latent component touches
    are joined pairwise, and the latents dropped; an A without latents
    skips this.  Then A - c falls into classes joined by paths that avoid
    c, its components along the adjacency, the lowest vertex's first.  A
    vertex joined to every other vertex of A puts all of A - c into one
    class unless it lies in c, so only the c that hold every such vertex
    are visited, one per subset w of the other vertices, the loose ones:
    c holds the joined vertices and the loose ones outside w, and A - c
    is w.  ``_loose_classes`` lists the classes of every w in one pass,
    and each visit reads them.  The rest u - c of each u above splits
    into the classes' traces, and a split of it into a and b is
    separated exactly when no class meets both.  With k traces, the
    2^(k-1) - 1 splits that keep the lowest vertex's trace in a are the
    canonical ones.  An (A, c) with fewer than two classes splits
    nothing and is skipped.
    """
    an_of = [0] * (1 << n)
    for u in range(1, 1 << n):
        low = u & -u
        an_of[u] = an_of[u ^ low] | an_of[low] if u != low else ancestors_mask(g, u)
    observed = (1 << n) - 1
    ch = g.ch
    out: list[int] = []
    for anc in {an_of[u] for u in range(1, 1 << n) if u & (u - 1)}:
        adj = adjacency(g, anc)
        obs = anc & observed
        if anc != obs:  # project the latents out
            for cls in district_masks(adj, anc ^ obs):
                ends = 0
                for h in bits(cls):
                    ends |= adj[h]
                ends &= obs
                for v in bits(ends):
                    adj[v] |= ends
        joined = sinks = 0
        for v in bits(obs):
            if not obs & ~adj[v] & ~(1 << v):
                joined |= 1 << v
            if not ch[v] & anc:
                sinks |= 1 << v
        loose = obs ^ joined
        if not loose & (loose - 1):  # one loose vertex at most: one class
            continue
        for w, classes in _loose_classes(adj, loose).items():
            if len(classes) < 2:
                continue
            c = joined | loose ^ w
            tail, free, high = sinks & ~c, obs & ~(sinks | c), c << 2 * n
            for extra in (*submasks(free), 0):
                rest = tail | extra
                # Without free vertices, rest is all of A - c.
                split = [t & rest for t in classes if t & rest] if free else classes
                if len(split) < 2:
                    continue
                low = rest & -rest
                if len(split) == 2:  # one split: the lowest vertex's trace is a
                    a, b = split
                    if not a & low:
                        a, b = b, a
                    out.append(high | b << n | a)
                    continue
                if not split[0] & low:
                    split = sorted(split, key=lambda t: t & -t)
                # The lowest vertex's trace starts in a and the others in
                # b; moving a trace t from b to a adds t - (t << n).  The
                # last sum moves every trace, leaving b empty.
                first = split[0]
                base = high | (rest ^ first) << n | first
                out += subset_sums(base, [t - (t << n) for t in split[1:]])[:-1]
    out.sort()
    return out


def m_star_separated(g: MixedGraph, X, Y, Z=()) -> bool:
    """Augmentation criterion: separation in the augmented ancestral
    subgraph.  Anterior and ancestor closures coincide here because the
    graph has no undirected edges."""
    x, y, z = _query_masks(g, X, Y, Z)
    return _separated(_collider_adjacency(g, ancestors_mask(g, x | y | z)), x, y, z)


def _require_acyclic(g: MixedGraph) -> None:
    """Raise ``NotADag`` when ``g`` has a directed cycle."""
    if len(topological_order(g.pa, g.ch)) != g.n:
        raise NotADag("graph has a directed cycle")


def _require_dag(g: MixedGraph) -> None:
    if g.bidirected:
        raise NotADag("graph has bidirected edges")
    _require_acyclic(g)


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
    _require_dag(_graph(dag))
    x, y, z = _query_masks(dag, X, Y, Z)
    return _separated(_moral_adjacency(dag, ancestors_mask(dag, x | y | z)), x, y, z)


def global_model_table(g: MixedGraph) -> list[int]:
    """The m model's elementary triples as the kernel's table of neighbour
    masks, ``table[i << n | c]`` holding each j with <i, j | c>
    m-separated; ``pyfallback.pairwise_codes`` lists the model from it.
    The table is n·2^n masks, so its cap is ``DEFAULT_SUBSET_CAP``, as
    for the other 2^n enumerations, not the model's: at n = 25 it would
    hold 839 million masks."""
    check_cap(_graph(g).n, DEFAULT_SUBSET_CAP)
    return pyfallback.m_elementary_table(g.n, g.pa, g.ch, g.nb)


def global_model_codes(g: MixedGraph, method: str = "m") -> list[int]:
    """Code set of the full separation model of ``g``."""
    check_cap(_graph(g).n, model_cap())
    if method == "m":
        return pyfallback.global_model_codes(g.n, g.pa, g.ch, g.nb)
    if method == "mstar":
        return _separated_codes(g, g.n, _collider_adjacency)
    raise UnknownName(f"unknown method {method!r}; expected m|mstar")


def global_model(g: MixedGraph, method: str = "m") -> IndependenceModel:
    """Every separated triple <X, Y | Z> of the graph.  The codes come
    canonical from the model loops, so the model skips their checks."""
    return IndependenceModel._unchecked(_graph(g).n, frozenset(global_model_codes(g, method)))
