"""Chain-graph validation and the component/vertex orderings.

A mixed graph is a chain graph when it has no partially directed cycle.
Its vertex set then splits into chain components (the connected
components of the bidirected-only subgraph); every bidirected edge stays
inside a component and every directed edge crosses two components, all
crossings between the same pair pointing the same way.

Two distinct orders are kept, deliberately, because they run in opposite
directions:

* the *component order*: components are listed responses-first, so a
  component never appears before one of its children (if ``T`` precedes
  ``T'`` then ``T`` is not a parent component of ``T'``);
* the *vertex order*: ancestors-first, so a vertex never appears before
  one of its ancestors.

Neither is converted into the other implicitly.  Ties are broken by
smallest vertex id, which makes both orders deterministic.

A decomposition keeps the components and the component DAG as masks,
which the property generators read; the frozenset forms are views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ._bitset import bits, mask_of, set_of
from .errors import GraphFormatError, NotAComponent, PartiallyDirectedCycle
from .graph import (MixedGraph, _as_mask, _graph, _vertex, descendants_mask, district_masks,
                    district_of, reach_mask, shortest_path, topological_order)


@dataclass(frozen=True)
class ChainDecomposition:
    """Chain components of a validated chain graph.

    ``component_masks`` is listed in component order (see module
    docstring), so the first is a pure response block and the last is
    purely contextual.  Bit ``j`` of ``component_children[i]`` is set when
    some vertex of component ``i`` points into component ``j``.  The
    frozenset forms (``components``, ``component_dag``, ...) are views.
    Components are disjoint, so a sum of their masks is their union.
    ``pre_masks``, ``pa_d_masks`` and ``nd_d_masks`` hold every
    component's masks, built on first use; the engine's loops read them,
    and the public ``pre_mask``, ``pa_d_mask`` and ``nd_d_mask`` index
    them once ``_index`` has checked the index.
    """

    graph: MixedGraph
    component_masks: tuple[int, ...]
    component_of: tuple[int, ...]
    component_children: tuple[int, ...]
    vertex_order: tuple[int, ...]

    @property
    def components(self) -> tuple[frozenset[int], ...]:
        return tuple(set_of(m) for m in self.component_masks)

    @property
    def component_dag(self) -> frozenset[tuple[int, int]]:
        """``(i, j)`` for every component ``i`` pointing into component ``j``."""
        return frozenset((i, j) for i, ch in enumerate(self.component_children)
                         for j in bits(ch))

    @property
    def component_order(self) -> tuple[int, ...]:
        return tuple(range(len(self.component_masks)))

    def _index(self, i: int) -> int:
        """``i``, once checked to be a component index: an int, not a
        bool, else ``GraphFormatError``, and in range, else
        ``NotAComponent``."""
        if type(i) is not int:
            raise GraphFormatError(f"component index must be an int, got {i!r}")
        if not 0 <= i < len(self.component_masks):
            raise NotAComponent(f"component index {i} out of range "
                                f"0..{len(self.component_masks) - 1}")
        return i

    def parent_components(self, i: int) -> frozenset[int]:
        i = self._index(i)
        return frozenset(j for j, ch in enumerate(self.component_children) if ch >> i & 1)

    def pre(self, i: int) -> frozenset[int]:
        return set_of(self.pre_mask(i))

    def pst(self, v: int) -> frozenset[int]:
        """All vertices in components ordered after the one holding ``v``."""
        return set_of(self.pst_mask(v))

    def pre_mask(self, i: int) -> int:
        """Union of all components strictly after ``i`` in the order."""
        return self.pre_masks[self._index(i)]

    def pst_mask(self, v: int) -> int:
        return self.pre_masks[self.component_of[_vertex(self.graph, v)]]

    def pa_d_mask(self, i: int) -> int:
        """Union of the full parent components of component ``i``."""
        return self.pa_d_masks[self._index(i)]

    def nd_d_mask(self, i: int) -> int:
        """Union of components that are not reachable from ``i`` in the
        component DAG, excluding ``i`` itself."""
        return self.nd_d_masks[self._index(i)]

    @cached_property
    def pre_masks(self) -> tuple[int, ...]:
        masks = self.component_masks
        return tuple(sum(masks[i + 1:]) for i in range(len(masks)))

    @cached_property
    def pa_d_masks(self) -> tuple[int, ...]:
        pairs = tuple(zip(self.component_masks, self.component_children))
        return tuple(sum(m for m, ch in pairs if ch >> i & 1) for i in range(len(pairs)))

    @cached_property
    def nd_d_masks(self) -> tuple[int, ...]:
        masks = self.component_masks
        reaches = (reach_mask(self.component_children, 1 << i) for i in range(len(masks)))
        return tuple(sum(m for j, m in enumerate(masks) if not reach >> j & 1)
                     for reach in reaches)


def _decomposition_of(g: MixedGraph, dec: ChainDecomposition) -> ChainDecomposition:
    """``dec``, once checked to be a chain decomposition of ``g``, else
    ``GraphFormatError``.  The sweep passes the one it has just built from
    ``g``, so there the check is one ``is``."""
    if not isinstance(dec, ChainDecomposition) or not (dec.graph is g or dec.graph == g):
        raise GraphFormatError("the chain decomposition is not the graph's")
    return dec


def pre_of_component(dec: ChainDecomposition, component) -> frozenset[int]:
    """Union of all components strictly after the given one (the
    potential explanatory variables of its members).  ``component`` may
    be an index into ``dec.components`` (an int, not a bool) or the
    vertex set itself.  An index out of range or a vertex set that is no
    component raises :class:`NotAComponent`; anything that is neither an
    index nor a collection of vertex ids raises ``GraphFormatError``, as
    does a ``dec`` that is no ``ChainDecomposition``."""
    if not isinstance(dec, ChainDecomposition):
        raise GraphFormatError(f"decomposition must be a ChainDecomposition, got {dec!r}")
    if type(component) is int:
        return dec.pre(component)
    wanted = _as_mask(dec.graph, component)
    for i, comp in enumerate(dec.component_masks):
        if comp == wanted:
            return dec.pre(i)
    raise NotAComponent(f"{sorted(set_of(wanted))} is not a chain component")


def validate_chain_graph(g: MixedGraph) -> ChainDecomposition:
    """Decompose ``g`` into chain components, or raise.

    Raises :class:`PartiallyDirectedCycle` when the graph has a
    semi-directed cycle containing at least one directed edge; a
    directed edge inside a bidirected component and a cycle among
    components are the two ways this can happen.  Its witness walk
    starts with the least directed edge ``t -> h`` (in sorted order)
    that lies on such a cycle, and closes it along a fewest-edge
    semi-directed path from ``h`` back to ``t``.
    """
    found = _chain_order_from_masks(_graph(g).n, g.ch, g.nb)
    if found is None:
        raise PartiallyDirectedCycle(_cycle_witness(g))
    comps, comp_of, children, order = found
    new_index = [0] * len(comps)
    for new, old in enumerate(order):
        new_index[old] = new
    return ChainDecomposition(
        graph=g,
        component_masks=tuple(comps[i] for i in order),
        component_of=tuple(new_index[c] for c in comp_of),
        component_children=tuple(mask_of(new_index[j] for j in bits(children[i]))
                                 for i in order),
        vertex_order=tuple(topological_order(g.pa, g.ch)),
    )


def is_chain_graph(g: MixedGraph) -> bool:
    """Cheap predicate form of :func:`validate_chain_graph`."""
    return _chain_order_from_masks(_graph(g).n, g.ch, g.nb) is not None


def _chain_order_from_masks(n: int, ch, nb):
    """Chain decomposition of child and bidirected-neighbour masks.

    Returns ``(components, component_of, children, order)``: component
    masks by smallest member, each vertex's component index, each
    component's child components as a mask, and the component order as
    indices.  Returns None when the masks have a partially directed
    cycle.
    """
    comps = district_masks(nb, (1 << n) - 1)
    comp_of = [0] * n
    for i, comp in enumerate(comps):
        for v in bits(comp):
            comp_of[v] = i
    k = len(comps)
    children = [0] * k
    parents = [0] * k
    for v in range(n):
        cv = comp_of[v]
        for w in bits(ch[v]):
            cw = comp_of[w]
            if cw == cv:
                return None
            children[cv] |= 1 << cw
            parents[cw] |= 1 << cv
    # Responses first: a component is placed once all its children are.
    order = topological_order(children, parents)
    if len(order) != k:
        return None
    return comps, comp_of, children, order


def _cycle_witness(g: MixedGraph) -> list[int]:
    """A partially directed cycle of a graph that is not a chain graph,
    as a vertex walk whose first and last entries coincide: the
    fewest-edge one through the least directed edge that lies on one."""
    semi = [c | b for c, b in zip(g.ch, g.nb)]
    for t, h in sorted(g.directed):
        path = shortest_path(semi, h, t)
        if path is not None:
            return [t] + path


@dataclass(frozen=True)
class Relatives:
    """The standard vertex neighbourhood sets of one vertex."""

    pa: frozenset[int]
    nb: frozenset[int]
    bd: frozenset[int]
    de: frozenset[int]
    nd: frozenset[int]
    pst: Optional[frozenset[int]]
    dis: frozenset[int]


def relatives(g: MixedGraph, v: int, dec: Optional[ChainDecomposition] = None) -> Relatives:
    """Parents, bidirected neighbours, boundary, descendants (reflexive),
    non-descendants, past and district of ``v``.

    ``pst`` needs a chain decomposition (everything in components ordered
    after the one containing ``v``) and is None when ``dec`` is omitted;
    ``dec`` must be ``g``'s.
    """
    de = descendants_mask(g, 1 << _vertex(_graph(g), v))
    return Relatives(
        pa=set_of(g.pa[v]),
        nb=set_of(g.nb[v]),
        bd=set_of(g.pa[v] | g.nb[v]),
        de=set_of(de),
        nd=set_of(g.full_mask & ~de & ~(1 << v)),
        pst=None if dec is None else _decomposition_of(g, dec).pst(v),
        dis=district_of(g, v),
    )
