"""Heads, tails and factorizations.

A head H is a set that is its own barren subset, lies inside a single
district of the subgraph induced on its ancestor closure, and carries
the tail ``(dis(H) \\ H) | pa(dis(H))`` computed in that subgraph.  Heads
partition every ancestrally closed set; the partition drives the product
form ``p(x_A) = prod p(x_H | x_tail(H))``.

For a chain graph the blocks of the full-graph partition are exactly the
chain components and each tail is the component's set of graphical
parents, which yields the per-component product; conditioning each
component on its full parent components instead gives the coarser
component-DAG product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ._bitset import bits, format_vertices, set_of
from .chain import ChainDecomposition, _decomposition_of
from .config import DEFAULT_SUBSET_CAP, check_cap
from .errors import DisjointnessViolation, GraphFormatError, HeadTestFailed, NotAncestrallyClosed
from .graph import (MixedGraph, _as_mask, _graph, _within_mask, ancestors_mask, descendants_mask,
                    district_mask, district_masks, parents_of_set)


@dataclass(frozen=True)
class HeadTail:
    head: frozenset[int]
    tail: frozenset[int]

    def __post_init__(self):
        if not isinstance(self.head, frozenset) or not isinstance(self.tail, frozenset):
            raise DisjointnessViolation("head and tail must be frozensets of vertex ids")
        # bool is a subclass of int
        if not all(type(v) is int and v >= 0 for v in self.head | self.tail):
            raise DisjointnessViolation("vertex ids must be nonnegative ints")
        if self.head & self.tail:
            raise DisjointnessViolation(
                f"head and tail share {format_vertices(self.head & self.tail)}")

    def format(self, labels=None) -> str:
        head = format_vertices(self.head, labels)
        return f"p({head} | {format_vertices(self.tail, labels)})" if self.tail else f"p({head})"


@dataclass(frozen=True)
class Factorization:
    """An ordered list of head/tail factors covering ``scope``."""

    factors: tuple[HeadTail, ...]
    scope: frozenset[int]

    def __post_init__(self):
        if not (isinstance(self.factors, tuple)
                and all(isinstance(f, HeadTail) for f in self.factors)):
            raise GraphFormatError(f"factors must be a tuple of HeadTail, got {self.factors!r}")
        if not isinstance(self.scope, frozenset):
            raise GraphFormatError(f"scope must be a frozenset of vertex ids, got {self.scope!r}")

    def blocks(self) -> frozenset[frozenset[int]]:
        return frozenset(f.head for f in self.factors)

    def tail_of(self, head: frozenset[int]) -> frozenset[int]:
        for f in self.factors:
            if f.head == head:
                return f.tail
        raise KeyError(head)

    def format(self, labels=None) -> str:
        return " ".join(f.format(labels) for f in self.factors)


def barren(g: MixedGraph, H: Iterable[int], within: Optional[int] = None) -> frozenset[int]:
    """Members of H with no proper descendant inside H."""
    return set_of(_barren_mask(g, _as_mask(_graph(g), H), _within_mask(g, within)))


def _barren_mask(g: MixedGraph, h: int, within: Optional[int] = None) -> int:
    out = 0
    for v in bits(h):
        if descendants_mask(g, 1 << v, within) & h == 1 << v:
            out |= 1 << v
    return out


def _head_tail_mask(g: MixedGraph, h: int) -> Optional[int]:
    """Tail mask when ``h`` satisfies the head conditions, else None."""
    if not h:
        return None  # the empty set is no head
    anh = ancestors_mask(g, h)
    if _barren_mask(g, h, anh) != h:
        return None
    dis = district_mask(g, (h & -h).bit_length() - 1, anh)
    if h & ~dis:
        return None  # spread over more than one district
    return (dis & ~h) | parents_of_set(g, dis)


def is_head(g: MixedGraph, H: Iterable[int]) -> bool:
    return _head_tail_mask(g, _as_mask(_graph(g), H)) is not None


def tail_of_head(g: MixedGraph, H: Iterable[int]) -> frozenset[int]:
    h = _as_mask(_graph(g), H)
    t = _head_tail_mask(g, h)
    if t is None:
        raise HeadTestFailed(f"{sorted(set_of(h))} is not a head")
    return set_of(t)


def heads(g: MixedGraph) -> tuple[HeadTail, ...]:
    """Every head of the graph with its tail, by subset enumeration."""
    check_cap(_graph(g).n, DEFAULT_SUBSET_CAP)
    out = []
    for h in range(1, 1 << g.n):
        t = _head_tail_mask(g, h)
        if t is not None:
            out.append(HeadTail(set_of(h), set_of(t)))
    out.sort(key=lambda ht: (len(ht.head), sorted(ht.head)))
    return tuple(out)


def head_partition(g: MixedGraph, A: Iterable[int]) -> Factorization:
    """Partition an ancestrally closed set into heads.

    Recursive peeling: split what remains by district of the induced
    ancestral subgraph, take the barren part of each district as a
    block, remove, repeat.  Every emitted block is re-checked against
    the head conditions; a failure means the construction is wrong, not
    the input.
    """
    a_mask = _as_mask(_graph(g), A)
    if ancestors_mask(g, a_mask) != a_mask:
        raise NotAncestrallyClosed(f"an(A) != A for A={sorted(set_of(a_mask))}")
    factors = tuple(HeadTail(set_of(block), set_of(t)) for block, t in _head_blocks(g, a_mask))
    return Factorization(factors, set_of(a_mask))


def _head_blocks(g: MixedGraph, a_mask: int) -> list[tuple[int, int]]:
    """:func:`head_partition` of the ancestrally closed mask ``a_mask``,
    unchecked, as ``(head, tail)`` mask pairs in the same order."""
    blocks = []
    w = a_mask
    while w:
        anw = ancestors_mask(g, w)
        emitted = 0
        for d in district_masks(g.nb, anw):
            # Barrenness is judged inside the district part: a vertex is
            # kept only while it still has a descendant there, so jointly
            # dependent siblings leave as one block.
            block = _barren_mask(g, d & w, anw)
            if not block:
                continue
            t = _head_tail_mask(g, block)
            if t is None:
                raise HeadTestFailed(
                    f"partition block {sorted(set_of(block))} failed the head test")
            blocks.append((block, t))
            emitted |= block
        w &= ~emitted
    return blocks


def factorize_mvr(g: MixedGraph, dec: ChainDecomposition) -> Factorization:
    """One factor per chain component, conditioned on its graphical
    parents.  Coincides with :func:`head_partition` of the full vertex
    set; the test suite asserts that identity."""
    factors = tuple(HeadTail(set_of(tmask), set_of(parents_of_set(g, tmask)))
                    for tmask in _decomposition_of(g, dec).component_masks)
    return Factorization(factors, set_of(g.full_mask))


def factorize_component_dag(g: MixedGraph, dec: ChainDecomposition) -> Factorization:
    """One factor per chain component, conditioned on the union of its
    full parent components."""
    dec = _decomposition_of(g, dec)
    factors = tuple(HeadTail(set_of(tmask), set_of(pa_d))
                    for tmask, pa_d in zip(dec.component_masks, dec.pa_d_masks))
    return Factorization(factors, set_of(g.full_mask))
