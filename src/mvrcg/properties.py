"""Generators for the defining triple sets of each Markov property.

Each generator returns the raw statements a property asserts for a
graph; comparisons between properties happen after closing both sides
under an axiom set, so joint statements are normalised to two-block
triples (mutual independence becomes all pairwise blocks).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ._bitset import bits, set_of, submasks
from ._kernels.pyfallback import mask_seeds
from .chain import ChainDecomposition, _decomposition_of, validate_chain_graph
from .config import DEFAULT_SUBSET_CAP, check_cap
from .errors import HasChildInA, InconsistentOrder, NotAncestrallyClosed, UnknownName
from .graph import (MixedGraph, _as_mask, _graph, _vertex, _vertices, ancestors_mask,
                    descendants_mask, district_mask, district_masks, parents_of_set,
                    reach_mask, topological_order)
from .separation import global_model
from .triples import IndependenceModel

PAIRWISE_VARIANTS = ("p1", "p2", "p3", "p4")


def pairwise_triples(g: MixedGraph, dec: ChainDecomposition, variant: str,
                     p4_both: bool = False) -> IndependenceModel:
    """One triple per uncoupled vertex pair; see ``_pairwise_masks``."""
    masks = _pairwise_masks(g, _decomposition_of(g, dec), variant, p4_both)
    return IndependenceModel.from_masks(g.n, masks)


def _pairwise_masks(g: MixedGraph, dec: ChainDecomposition, variant: str,
                    p4_both: bool = False) -> list[tuple[int, int, int]]:
    """One triple per uncoupled vertex pair, as ``(a, b, c)`` masks.

    Variants condition on the pair's past (p1), anteriors (p2), parents
    (p3), or the parents of the earlier node alone (p4).  For p4 the
    designated node is the one whose component comes first; inside one
    component the smaller id is designated and ``p4_both`` additionally
    emits the statement conditioned on the other node's parents.
    """
    if variant not in PAIRWISE_VARIANTS:
        raise UnknownName(f"unknown pairwise variant {variant!r}")
    # Each vertex's own part of the pair's conditioning set (p1-p3).
    if variant == "p1":
        own = [dec.pre_masks[t] for t in dec.component_of]
    elif variant == "p2":
        own = [ancestors_mask(g, 1 << v) for v in range(g.n)]
    else:
        own = g.pa
    triples = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.adj[i] >> j & 1:
                continue
            if variant != "p4":
                triples.append((1 << i, 1 << j, (own[i] | own[j]) & ~(1 << i | 1 << j)))
                continue
            ci, cj = dec.component_of[i], dec.component_of[j]
            earlier = i if (ci, i) <= (cj, j) else j
            other = i + j - earlier
            triples.append((1 << earlier, 1 << other, g.pa[earlier]))
            if p4_both and ci == cj:
                triples.append((1 << other, 1 << earlier, g.pa[other]))
    return triples


def mr_triples(g: MixedGraph, dec: ChainDecomposition) -> IndependenceModel:
    """Multivariate-regression statements; see ``_mr_masks``."""
    masks = _mr_masks(g, _decomposition_of(g, dec))
    return IndependenceModel.from_masks(g.n, masks)


def _mr_masks(g: MixedGraph, dec: ChainDecomposition) -> list[tuple[int, int, int]]:
    """Multivariate-regression statements, as ``(a, b, c)`` masks.

    For every component T and nonempty A inside it: a connected A is
    independent of the rest of its past given its parents; a
    disconnected A has its connected components mutually independent
    given the whole past.  Mutual independence is normalised to
    two-block triples leave-one-out (each part against the union of the
    others), which regenerates the joint statement under the
    semi-graphoid axioms; merely pairwise parts would need composition.
    """
    triples = []
    for tmask, pre in zip(dec.component_masks, dec.pre_masks):
        check_cap(tmask.bit_count(), DEFAULT_SUBSET_CAP, "component vertices")
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
    return triples


def type_iv_triples(g: MixedGraph, dec: ChainDecomposition) -> IndependenceModel:
    """Block-recursive statements; see ``_iv_masks``."""
    masks = _iv_masks(g, _decomposition_of(g, dec))
    return IndependenceModel.from_masks(g.n, masks)


def _iv_masks(g: MixedGraph, dec: ChainDecomposition) -> list[tuple[int, int, int]]:
    """Block-recursive statements, as ``(a, b, c)`` masks.

    Per component T: T is independent of its non-descendant components
    given its parent components; every A in T is independent of the
    parent components it does not use given its own parents; every
    connected A in T is independent of the non-neighbours inside T given
    the parent components.  Statements with an empty second block are
    dropped.
    """
    triples = []
    for tmask, pad, nd in zip(dec.component_masks, dec.pa_d_masks, dec.nd_d_masks):
        check_cap(tmask.bit_count(), DEFAULT_SUBSET_CAP, "component vertices")
        rest = nd & ~pad
        if rest:
            triples.append((tmask, rest, pad))
        for sub in submasks(tmask):
            pa = parents_of_set(g, sub)
            iv1_rest = pad & ~pa
            if iv1_rest:
                triples.append((sub, iv1_rest, pa))
            if reach_mask(g.nb, sub & -sub, sub) == sub:  # sub is connected
                nbs = sub
                for v in bits(sub):
                    nbs |= g.nb[v]
                iv2_rest = tmask & ~nbs
                if iv2_rest:
                    triples.append((sub, iv2_rest, pad))
    return triples


def _markov_blanket_mask(g: MixedGraph, x: int, a_mask: int) -> int:
    dis = district_mask(g, x, a_mask)
    return (parents_of_set(g, dis) | dis) & ~(1 << x)


def markov_blanket(g: MixedGraph, x: int, A: Iterable[int]) -> frozenset[int]:
    """District of ``x`` inside the induced subgraph on ``A`` (minus
    ``x``), together with that district's parents.

    ``A`` must be ancestrally closed and ``x`` must have no children in
    it.
    """
    x, a_mask = _vertex(_graph(g), x), _as_mask(g, A)
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
    _graph(g)
    if order is None:
        order = consistent_vertex_order(g)
    else:
        order = _vertices(g, order)
        if sorted(order) != list(range(g.n)):
            raise InconsistentOrder("order must list every vertex exactly once")
        seen = 0
        for v in order:
            if ancestors_mask(g, 1 << v) & ~(seen | (1 << v)):
                raise InconsistentOrder(f"vertex {v} appears before one of its ancestors")
            seen |= 1 << v
    return IndependenceModel.from_masks(g.n, _ordered_local_masks(g, order))


def _ordered_local_masks(g: MixedGraph, order: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """``ordered_local_triples``, as ``(a, b, c)`` masks, along a
    consistent ``order`` that the caller has checked, such as a
    decomposition's ``vertex_order``.

    The ancestrally closed sets A inside x's prefix that hold x are those
    that hold an(x).  They are listed without trying other subsets: an(x)
    grows along the prefix, each vertex joining every set listed so far
    that holds its parents, which the order puts before it."""
    triples = []
    an = [0] * g.n  # an(v) of each vertex v the order has passed
    for k, x in enumerate(order):
        if k >= DEFAULT_SUBSET_CAP:  # the message is formatted only to raise
            check_cap(k + 1, DEFAULT_SUBSET_CAP, f"vertices in the prefix of {x}")
        bx = 1 << x
        anx = bx
        for p in bits(g.pa[x]):  # the order puts x's parents before x
            anx |= an[p]
        an[x] = anx
        sets = [anx]
        for v in order[:k]:
            bv = 1 << v
            if not anx & bv:
                pa = g.pa[v]
                sets += [a | bv for a in sets if not pa & ~a]
        for a_mask in sets:
            mb = _markov_blanket_mask(g, x, a_mask)
            other = a_mask & ~(mb | bx)
            if other:
                triples.append((bx, other, mb))
    return triples


def alt_local_triples(g: MixedGraph) -> IndependenceModel:
    """The alternative local statements; see ``_alt_local_masks``."""
    return IndependenceModel.from_masks(_graph(g).n, _alt_local_masks(g))


def _alt_local_masks(g: MixedGraph) -> list[tuple[int, int, int]]:
    """One statement per vertex, as ``(a, b, c)`` masks: v is independent,
    given its parents, of
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
    return triples


PROPERTY_KINDS = ("p1", "p2", "p3", "p4", "mr", "iv", "ordered", "local", "global")


def property_masks(g: MixedGraph, kind: str,
                   dec: Optional[ChainDecomposition] = None) -> list[tuple[int, int, int]]:
    """The statements property ``kind`` asserts for ``g``, as the
    unchecked ``(a, b, c)`` mask triples its builder emits; ``kind`` is
    any of ``PROPERTY_KINDS`` but ``global``, and ``dec``, if given, is
    ``g``'s."""
    if dec is not None:
        _decomposition_of(g, dec)
    if kind == "local":
        return _alt_local_masks(g)
    if kind == "ordered":
        return _ordered_local_masks(g, consistent_vertex_order(g) if dec is None
                                    else dec.vertex_order)
    if dec is None:
        dec = validate_chain_graph(g)
    if kind in PAIRWISE_VARIANTS:
        return _pairwise_masks(g, dec, kind)
    if kind == "mr":
        return _mr_masks(g, dec)
    if kind == "iv":
        return _iv_masks(g, dec)
    raise UnknownName(f"unknown property kind {kind!r}")


def property_seeds(g: MixedGraph, kind: str,
                   dec: Optional[ChainDecomposition] = None) -> list[tuple[int, int]]:
    """The chain seeds of ``property_masks``, straight from the masks: the
    sweep's path, which neither checks nor encodes the statements."""
    return mask_seeds(g.n, property_masks(g, kind, dec))


def property_model(g: MixedGraph, kind: str,
                   dec: Optional[ChainDecomposition] = None) -> IndependenceModel:
    """Dispatch by property name, for the CLI and the tests: the
    separation model for ``global``, else ``property_masks`` as a model,
    each statement checked as a triple is."""
    if kind == "global":
        return global_model(g)
    return IndependenceModel.from_masks(g.n, property_masks(g, kind, dec))
