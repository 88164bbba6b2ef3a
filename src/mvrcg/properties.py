"""Generators for the defining triple sets of each Markov property.

Each generator returns the raw statements a property asserts for a
graph; comparisons between properties happen after closing both sides
under an axiom set, so joint statements are normalised to two-block
triples (mutual independence becomes all pairwise blocks).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ._bitset import bits, set_of, submasks
from .chain import ChainDecomposition, validate_chain_graph
from .config import DEFAULT_SUBSET_CAP, check_cap
from .errors import HasChildInA, InconsistentOrder, NotAncestrallyClosed, UnknownName
from .graph import (MixedGraph, _as_mask, _vertex, ancestors_mask, descendants_mask,
                    district_mask, district_masks, parents_of_set, topological_order)
from .triples import IndependenceModel

PAIRWISE_VARIANTS = ("p1", "p2", "p3", "p4")


def pairwise_triples(g: MixedGraph, dec: ChainDecomposition, variant: str,
                     p4_both: bool = False) -> IndependenceModel:
    """One triple per uncoupled vertex pair.

    Variants condition on the pair's past (p1), anteriors (p2), parents
    (p3), or the parents of the earlier node alone (p4).  For p4 the
    designated node is the one whose component comes first; inside one
    component the smaller id is designated and ``p4_both`` additionally
    emits the statement conditioned on the other node's parents.
    """
    if variant not in PAIRWISE_VARIANTS:
        raise UnknownName(f"unknown pairwise variant {variant!r}")
    triples = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.adjacent(i, j):
                continue
            pair = (1 << i) | (1 << j)
            if variant == "p1":
                cond = (dec.pst_mask(i) | dec.pst_mask(j)) & ~pair
            elif variant == "p2":
                cond = (ancestors_mask(g, 1 << i) | ancestors_mask(g, 1 << j)) & ~pair
            elif variant == "p3":
                cond = (g.pa[i] | g.pa[j]) & ~pair
            else:
                ci, cj = dec.component_of[i], dec.component_of[j]
                earlier = i if (ci, i) <= (cj, j) else j
                other = i + j - earlier
                triples.append((1 << earlier, 1 << other, g.pa[earlier]))
                if p4_both and ci == cj:
                    triples.append((1 << other, 1 << earlier, g.pa[other]))
                continue
            triples.append((1 << i, 1 << j, cond))
    return IndependenceModel.from_masks(g.n, triples)


def mr_triples(g: MixedGraph, dec: ChainDecomposition) -> IndependenceModel:
    """Multivariate-regression statements.

    For every component T and nonempty A inside it: a connected A is
    independent of the rest of its past given its parents; a
    disconnected A has its connected components mutually independent
    given the whole past.  Mutual independence is normalised to
    two-block triples leave-one-out (each part against the union of the
    others), which regenerates the joint statement under the
    semi-graphoid axioms; merely pairwise parts would need composition.
    """
    triples = []
    for t, tmask in enumerate(dec.component_masks):
        check_cap(tmask.bit_count(), DEFAULT_SUBSET_CAP, "component vertices")
        pre = dec.pre_mask(t)
        for sub in submasks(tmask):
            comps = district_masks(g.nb, sub)
            if len(comps) == 1:
                pa = parents_of_set(g, sub)
                rest = pre & ~pa
                if rest:
                    triples.append((sub, rest, pa))
            else:
                for part in comps:
                    triples.append((part, sub & ~part, pre))
    return IndependenceModel.from_masks(g.n, triples)


def type_iv_triples(g: MixedGraph, dec: ChainDecomposition) -> IndependenceModel:
    """Block-recursive statements.

    Per component T: T is independent of its non-descendant components
    given its parent components; every A in T is independent of the
    parent components it does not use given its own parents; every
    connected A in T is independent of the non-neighbours inside T given
    the parent components.  Statements with an empty second block are
    dropped.
    """
    triples = []
    for t, tmask in enumerate(dec.component_masks):
        check_cap(tmask.bit_count(), DEFAULT_SUBSET_CAP, "component vertices")
        pad = dec.pa_d_mask(t)
        nd = dec.nd_d_mask(t)
        rest = nd & ~pad
        if rest:
            triples.append((tmask, rest, pad))
        for sub in submasks(tmask):
            pa = parents_of_set(g, sub)
            iv1_rest = pad & ~pa
            if iv1_rest:
                triples.append((sub, iv1_rest, pa))
            if len(district_masks(g.nb, sub)) == 1:
                nbs = sub
                for v in bits(sub):
                    nbs |= g.nb[v]
                iv2_rest = tmask & ~nbs
                if iv2_rest:
                    triples.append((sub, iv2_rest, pad))
    return IndependenceModel.from_masks(g.n, triples)


def _markov_blanket_mask(g: MixedGraph, x: int, a_mask: int) -> int:
    dis = district_mask(g, x, a_mask)
    return (parents_of_set(g, dis) | dis) & ~(1 << x)


def markov_blanket(g: MixedGraph, x: int, A: Iterable[int]) -> frozenset[int]:
    """District of ``x`` inside the induced subgraph on ``A`` (minus
    ``x``), together with that district's parents.

    ``A`` must be ancestrally closed and ``x`` must have no children in
    it.
    """
    x, a_mask = _vertex(g, x), _as_mask(g, A)
    if ancestors_mask(g, a_mask) != a_mask:
        raise NotAncestrallyClosed(f"an(A) != A for A={sorted(set_of(a_mask))}")
    if not (a_mask >> x) & 1:
        raise NotAncestrallyClosed(f"{x} not in A")
    if g.ch[x] & a_mask:
        raise HasChildInA(f"{x} has children inside A")
    return set_of(_markov_blanket_mask(g, x, a_mask))


def consistent_vertex_order(g: MixedGraph) -> tuple[int, ...]:
    """Ancestors-first total order with smallest-id tie-breaks."""
    order = topological_order(g.pa, g.ch)
    if len(order) != g.n:
        raise InconsistentOrder("graph has a directed cycle")
    return tuple(order)


def ordered_local_triples(g: MixedGraph,
                          order: Optional[Iterable[int]] = None) -> IndependenceModel:
    """Ordered local statements.

    For each vertex x and each ancestrally closed A with x in A inside
    x's order prefix: x is independent of the rest of A given its Markov
    blanket in A.  The A sets are enumerated exhaustively over subsets
    of the prefix; vacuous statements are dropped.  Because the order is
    consistent, x never has children inside its prefix.
    """
    if order is None:
        order = consistent_vertex_order(g)
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise InconsistentOrder("order must list every vertex exactly once")
    seen = 0
    for v in order:
        if ancestors_mask(g, 1 << v) & ~(seen | (1 << v)):
            raise InconsistentOrder(f"vertex {v} appears before one of its ancestors")
        seen |= 1 << v
    triples = []
    prefix = 0
    for x in order:
        prefix |= 1 << x
        rest = prefix & ~(1 << x)
        check_cap(prefix.bit_count(), DEFAULT_SUBSET_CAP, f"vertices in the prefix of {x}")
        sub = rest
        while True:  # all subsets of the prefix that contain x, including empty rest
            a_mask = sub | (1 << x)
            if ancestors_mask(g, a_mask) == a_mask:
                mb = _markov_blanket_mask(g, x, a_mask)
                other = a_mask & ~(mb | (1 << x))
                if other:
                    triples.append((1 << x, other, mb))
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return IndependenceModel.from_masks(g.n, triples)


def alt_local_triples(g: MixedGraph) -> IndependenceModel:
    """One statement per vertex: v is independent, given its parents, of
    every non-descendant outside its boundary and outside the descendant
    set of its bidirected neighbours.

    Descendants of neighbours must be excluded: a walk may leave v
    through a neighbour and keep descending without ever meeting a
    collider, so those vertices are not separated from v by its parents
    (e.g. 1 <-> 2 -> 0 connects 1 to 0).  With the exclusion, every
    emitted statement holds in the separation model, and the statements
    still generate the whole model under composition.  On DAGs this is
    the directed local property; on pure bidirected graphs, the dual
    local property.

    Without composition the statements are strictly weaker than the
    global property, also for distributions.  On 0 -> 3, 3 -> 1, 3 -> 2,
    1 <-> 2 they are 0 _||_ 1 | 3 and 0 _||_ 2 | 3.  With X3 = 0, X0 and
    X1 independent fair bits and X2 = X0 xor X1, both hold, but the
    separated 0 _||_ {1, 2} | 3 does not.
    """
    triples = []
    for v in range(g.n):
        nd = g.full_mask & ~descendants_mask(g, 1 << v)
        rest = nd & ~(g.pa[v] | descendants_mask(g, g.nb[v]))
        if rest:
            triples.append((1 << v, rest, g.pa[v]))
    return IndependenceModel.from_masks(g.n, triples)


PROPERTY_KINDS = ("p1", "p2", "p3", "p4", "mr", "iv", "ordered", "local", "global")


def property_model(g: MixedGraph, kind: str,
                   dec: Optional[ChainDecomposition] = None) -> IndependenceModel:
    """Dispatch by property name; used by the CLI and the sweep."""
    if kind == "global":
        from .separation import global_model
        return global_model(g)
    if kind == "local":
        return alt_local_triples(g)
    if kind == "ordered":
        return ordered_local_triples(g)
    if dec is None:
        dec = validate_chain_graph(g)
    if kind in PAIRWISE_VARIANTS:
        return pairwise_triples(g, dec, kind)
    if kind == "mr":
        return mr_triples(g, dec)
    if kind == "iv":
        return type_iv_triples(g, dec)
    raise UnknownName(f"unknown property kind {kind!r}")
