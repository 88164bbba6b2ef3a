"""Mixed graphs with directed (->) and bidirected (<->) edges.

A :class:`MixedGraph` is immutable after construction and safe to share
between threads.  Vertices are dense integer ids ``0..n-1`` with optional
display labels.  At most one edge may join any vertex pair and self loops
are forbidden; undirected edges are not supported at all and are rejected
by the text parser.

Text format, one item per line (``#`` starts a comment)::

    vertex <label>
    <a> -> <b>
    <a> <-> <b>

Vertices must be declared before use; declaration order fixes the ids.
A label is a nonempty string free of whitespace and ``#``, so that
``to_text`` always reads back; ``vertex`` and the arrows are labels too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ._bitset import bits, mask_of, set_of
from .errors import GraphFormatError

DIRECTED = "->"
BIDIRECTED = "<->"


class MixedGraph:
    """Immutable mixed graph over vertices ``0..n-1``.

    Parameters
    ----------
    n : vertex count
    directed : iterable of (tail, head) pairs, meaning ``tail -> head``
    bidirected : iterable of unordered pairs, stored with the smaller id first
    labels : optional display strings, one per vertex
    """

    __slots__ = ("n", "labels", "directed", "bidirected", "pa", "ch", "nb",
                 "adj", "full_mask", "source_ids", "_hash")

    def __init__(self, n, directed=(), bidirected=(), labels=None, source_ids=None):
        if type(n) is not int or n < 0:  # bool is a subclass of int
            raise GraphFormatError(f"vertex count {n!r} is not a nonnegative int")
        self.n = n
        if labels is None:
            labels = tuple(str(v) for v in range(n))
        else:
            labels = _items(labels, n, "labels")
            for label in labels:  # each reads back from to_text as one token
                if not isinstance(label, str) or label.split() != [label] or "#" in label:
                    raise GraphFormatError(f"vertex label {label!r} is not a nonempty string "
                                           f"free of whitespace and '#'")
            if len(set(labels)) != n:
                raise GraphFormatError("duplicate vertex labels")
        self.labels = labels
        self.source_ids = _items(range(n) if source_ids is None else source_ids, n, "source ids")

        pa = [0] * n
        ch = [0] * n
        nb = [0] * n
        seen_pairs = set()

        def claim(u, v):
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge endpoint not a vertex id: ({u!r}, {v!r})")
            if u == v:
                raise GraphFormatError(f"self loop at {labels[u]}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen_pairs:
                raise GraphFormatError(
                    f"more than one edge between {labels[pair[0]]} and {labels[pair[1]]}")
            seen_pairs.add(pair)
            return pair

        try:
            directed = [(t, h) for t, h in directed]
            bidirected = [(u, v) for u, v in bidirected]
        except (TypeError, ValueError):
            raise GraphFormatError("edges must be given as pairs of vertex ids") from None
        dir_edges = set()
        for t, h in directed:
            claim(t, h)
            dir_edges.add((t, h))
            pa[h] |= 1 << t
            ch[t] |= 1 << h
        bi_edges = set()
        for u, v in bidirected:
            bi_edges.add(claim(u, v))
            nb[u] |= 1 << v
            nb[v] |= 1 << u

        self.directed = frozenset(dir_edges)
        self.bidirected = frozenset(bi_edges)
        self.pa = tuple(pa)
        self.ch = tuple(ch)
        self.nb = tuple(nb)
        self.adj = tuple(pa[v] | ch[v] | nb[v] for v in range(n))
        self.full_mask = (1 << n) - 1
        self._hash = hash((n, self.directed, self.bidirected))

    @classmethod
    def _unchecked(cls, labels, source_ids, directed, bidirected, pa, ch, nb,
                   adj) -> "MixedGraph":
        """The graph of edge sets and masks already known to agree and to
        join each pair at most once, built without ``__init__``'s checks;
        ``labels`` and ``source_ids`` are tuples, one entry per vertex."""
        g = object.__new__(cls)
        n = g.n = len(labels)
        g.labels, g.source_ids = labels, source_ids
        g.directed, g.bidirected = directed, bidirected
        g.pa, g.ch, g.nb, g.adj = pa, ch, nb, adj
        g.full_mask = (1 << n) - 1
        g._hash = hash((n, directed, bidirected))
        return g

    # --- basic queries -------------------------------------------------

    def vertices(self) -> range:
        return range(self.n)

    def parents(self, v: int) -> frozenset[int]:
        return set_of(self.pa[_vertex(self, v)])

    def children(self, v: int) -> frozenset[int]:
        return set_of(self.ch[_vertex(self, v)])

    def neighbors(self, v: int) -> frozenset[int]:
        """Vertices joined to ``v`` by a bidirected edge."""
        return set_of(self.nb[_vertex(self, v)])

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[_vertex(self, u)] >> _vertex(self, v) & 1)

    def edge_between(self, u: int, v: int) -> Optional[str]:
        """Return '->', '<-' or '<->' as seen from ``u``, or None."""
        u, v = _vertex(self, u), _vertex(self, v)
        if self.ch[u] >> v & 1:
            return "->"
        if self.pa[u] >> v & 1:
            return "<-"
        if self.nb[u] >> v & 1:
            return "<->"
        return None

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise GraphFormatError(f"unknown vertex label: {label!r}") from None

    def __eq__(self, other):
        return (isinstance(other, MixedGraph) and self.n == other.n
                and self.directed == other.directed and self.bidirected == other.bidirected)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"MixedGraph(n={self.n}, directed={sorted(self.directed)}, "
                f"bidirected={sorted(self.bidirected)})")

    # --- text round trip -----------------------------------------------

    def to_text(self) -> str:
        lines = [f"vertex {self.labels[v]}" for v in self.vertices()]
        for t, h in sorted(self.directed):
            lines.append(f"{self.labels[t]} -> {self.labels[h]}")
        for u, v in sorted(self.bidirected):
            lines.append(f"{self.labels[u]} <-> {self.labels[v]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MixedGraph":
        if not isinstance(text, str):
            raise GraphFormatError(f"graph text must be a str, got {text!r}")
        labels: list[str] = []
        index: dict[str, int] = {}
        directed = []
        bidirected = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            # An edge line first: a vertex may be labelled "vertex".
            if len(tokens) == 3 and tokens[1] in (DIRECTED, BIDIRECTED):
                for name in (tokens[0], tokens[2]):
                    if name not in index:
                        raise GraphFormatError(f"line {lineno}: undeclared vertex {name!r}")
                a, b = index[tokens[0]], index[tokens[2]]
                if tokens[1] == DIRECTED:
                    directed.append((a, b))
                else:
                    bidirected.append((a, b))
            elif tokens[0] == "vertex":
                if len(tokens) != 2:
                    raise GraphFormatError(f"line {lineno}: expected 'vertex <label>'")
                label = tokens[1]
                if label in index:
                    raise GraphFormatError(f"line {lineno}: duplicate vertex {label!r}")
                index[label] = len(labels)
                labels.append(label)
            else:
                raise GraphFormatError(f"line {lineno}: cannot parse {line!r}")
        try:
            return cls(len(labels), directed, bidirected, labels)
        except GraphFormatError as exc:
            raise GraphFormatError(str(exc)) from None

    @classmethod
    def from_file(cls, path) -> "MixedGraph":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def to_dot(self, name: str = "g") -> str:
        """Render as Graphviz DOT; bidirected edges use ``dir=both``.  A
        ``name`` that is not a plain DOT ID (a letter or ``_``, then
        letters, digits or ``_``, and no DOT keyword) is written quoted."""
        if not isinstance(name, str):
            raise GraphFormatError(f"DOT graph name must be a str, got {name!r}")
        if not _DOT_ID.fullmatch(name) or name.lower() in _DOT_KEYWORDS:
            name = _dot_quoted(name)
        lines = [f"digraph {name} {{"]
        for v in self.vertices():
            lines.append(f"  n{v} [label={_dot_quoted(self.labels[v])}];")
        for t, h in sorted(self.directed):
            lines.append(f"  n{t} -> n{h};")
        for u, v in sorted(self.bidirected):
            lines.append(f"  n{u} -> n{v} [dir=both];")
        lines.append("}")
        return "\n".join(lines) + "\n"


_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_quoted(text: str) -> str:
    """``text`` as a DOT quoted string, ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _items(xs, n: int, what: str) -> tuple:
    """``xs`` as a tuple, once checked to hold ``n`` items."""
    try:
        xs = tuple(xs)
    except TypeError:
        raise GraphFormatError(f"{what} {xs!r} are not a collection") from None
    if len(xs) != n:
        raise GraphFormatError(f"expected {n} {what}, got {len(xs)}")
    return xs


@dataclass(frozen=True)
class UndirectedGraph:
    """Plain undirected graph, used for augmented graphs."""

    n: int
    edges: frozenset[tuple[int, int]]


# --- mask-level graph algorithms ---------------------------------------
#
# Each takes per-vertex adjacency masks (``g.pa``, ``g.ch``, ``g.nb``, or
# masks built by the caller), so the same code serves graphs, component
# DAGs and candidate masks that never become a MixedGraph.


def reach_mask(adj: Sequence[int], seed: int, allowed: int = -1) -> int:
    """Vertices of ``allowed`` reachable from ``seed & allowed`` along
    ``adj``, walking only through ``allowed``; ``seed & allowed`` included."""
    out = seed & allowed
    frontier = out
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & allowed & ~out
        out |= frontier
    return out


def topological_order(before: Sequence[int], after: Sequence[int]) -> list[int]:
    """Kahn's algorithm over items ``0..k-1``.

    Item ``i`` is listed after every item in the mask ``before[i]``;
    ``after`` is the transposed relation.  Among the ready items the
    smallest id comes first.  Items on or behind a cycle are left out, so
    a short list means the relation is cyclic.
    """
    waiting = [m.bit_count() for m in before]
    ready = 0
    for i, w in enumerate(waiting):
        if not w:
            ready |= 1 << i
    order = []
    while ready:
        low = ready & -ready
        i = low.bit_length() - 1
        ready ^= low
        order.append(i)
        for j in bits(after[i]):
            waiting[j] -= 1
            if not waiting[j]:
                ready |= 1 << j
    return order


def district_masks(nb: Sequence[int], within: int) -> list[int]:
    """Connected components of the bidirected subgraph induced on
    ``within``, in ascending order of their smallest vertex."""
    out = []
    left = within
    while left:
        comp = reach_mask(nb, left & -left, within)
        out.append(comp)
        left &= ~comp
    return out


def shortest_path(adj: Sequence[int], start: int, goal: int) -> Optional[list[int]]:
    """A fewest-edge path ``start .. goal`` along ``adj``, or None.
    Breadth-first with smaller ids first, so the path returned is
    deterministic."""
    prev = {start: None}
    queue = [start]
    for v in queue:  # the queue grows while it is read
        if v == goal:
            path = []
            while v is not None:
                path.append(v)
                v = prev[v]
            return path[::-1]
        for u in bits(adj[v]):
            if u not in prev:
                prev[u] = v
                queue.append(u)
    return None


def state_walk(g: MixedGraph, sources: int, goal: int, step) -> Optional[list[int]]:
    """A walk from a vertex of ``sources`` to one of ``goal``, or None.

    Breadth-first over (vertex, arrived-with-arrowhead) states.  The walk
    leaves its source along any edge; ``step(v, head)`` yields the moves
    out of state ``(v, head)`` as ``(mask, head)`` pairs: on to each vertex
    of ``mask``, arriving with an arrowhead when ``head``.  Moves and mask
    bits are taken in order and a state is entered once, so the walk
    returned is deterministic."""
    prev: dict[tuple[int, bool], object] = {}
    queue: list[tuple[int, bool]] = []

    def arrive(moves, frm) -> None:
        for mask, head in moves:
            for w in bits(mask):
                if (w, head) not in prev:
                    prev[(w, head)] = frm
                    queue.append((w, head))

    for s in bits(sources):
        arrive(((g.ch[s] | g.nb[s], True), (g.pa[s], False)), s)
    for state in queue:  # the queue grows while it is read
        if goal >> state[0] & 1:
            walk = []
            while isinstance(state, tuple):  # back to the source vertex
                walk.append(state[0])
                state = prev[state]
            walk.append(state)
            return walk[::-1]
        arrive(step(*state), state)
    return None


# --- set-valued graph functions ----------------------------------------


def _graph(g: MixedGraph) -> MixedGraph:
    """``g``, once checked to be a ``MixedGraph``: the public entries call
    it first, so another argument raises ``GraphFormatError``."""
    if not isinstance(g, MixedGraph):
        raise GraphFormatError(f"graph must be a MixedGraph, got {g!r}")
    return g


def _vertex(g: MixedGraph, v: int) -> int:
    """``v``, once checked to be a vertex id of ``g``: an int in range."""
    if type(v) is not int or not 0 <= v < g.n:
        raise GraphFormatError(f"vertex id {v!r} is not an int in 0..{g.n - 1}")
    return v


def _vertices(g: MixedGraph, xs: Iterable[int]) -> tuple[int, ...]:
    """The vertex ids ``xs`` in their order, each checked by ``_vertex``."""
    try:
        ids = tuple(xs)
    except TypeError:
        raise GraphFormatError(f"{xs!r} is not a collection of vertex ids") from None
    return tuple(_vertex(g, v) for v in ids)


def _as_mask(g: MixedGraph, xs: Iterable[int]) -> int:
    """Bitmask of the vertex ids ``xs``, each checked before it is shifted."""
    return mask_of(_vertices(g, xs))


def _within_mask(g: MixedGraph, within: Optional[int]) -> int:
    """``within`` once checked to be a vertex mask of ``g``: an int with
    no bit outside the graph; None stands for every vertex."""
    if within is None:
        return g.full_mask
    if type(within) is not int or within & ~g.full_mask:
        raise GraphFormatError(f"vertex mask {within!r} is not an int mask over 0..{g.n - 1}")
    return within


def ancestors_mask(g: MixedGraph, seed: int) -> int:
    """Reflexive ancestor closure of the bitmask ``seed`` under -> edges."""
    return reach_mask(g.pa, seed, g.full_mask)


def descendants_mask(g: MixedGraph, seed: int, within: Optional[int] = None) -> int:
    return reach_mask(g.ch, seed, g.full_mask if within is None else within)


def ancestors(g: MixedGraph, xs: Iterable[int]) -> frozenset[int]:
    """All vertices with a directed path into ``xs``, including ``xs``."""
    return set_of(ancestors_mask(g, _as_mask(_graph(g), xs)))


# An anterior walk into a set may use undirected edges or directed edges
# pointing toward it.  This graph class carries no undirected edges, so
# the reflexive anterior set of ``xs`` is its ancestor set.
anteriors = ancestors


def districts(g: MixedGraph, within: Optional[int] = None) -> list[frozenset[int]]:
    """Connected components of the bidirected-only (sub)graph, by min id."""
    within = _within_mask(_graph(g), within)
    return [set_of(d) for d in district_masks(g.nb, within)]


def district_mask(g: MixedGraph, v: int, within: Optional[int] = None) -> int:
    return reach_mask(g.nb, 1 << v, g.full_mask if within is None else within)


def district_of(g: MixedGraph, v: int) -> frozenset[int]:
    """Bidirected connected component of ``v`` in the full graph."""
    return set_of(district_mask(g, _vertex(_graph(g), v)))


def parents_of_set(g: MixedGraph, member_mask: int) -> int:
    """Vertices outside the set with a directed edge into it."""
    out = 0
    for v in bits(member_mask):
        out |= g.pa[v]
    return out & ~member_mask


def induced_subgraph(g: MixedGraph, A: Iterable[int]) -> MixedGraph:
    """Subgraph on ``A`` keeping edges with both endpoints inside.

    Vertex ids are re-indexed densely; ``source_ids`` on the result maps
    each new id back to the original one.
    """
    keep = sorted(set_of(_as_mask(_graph(g), A)))
    remap = {old: new for new, old in enumerate(keep)}
    directed = [(remap[t], remap[h]) for t, h in g.directed if t in remap and h in remap]
    bidirected = [(remap[u], remap[v]) for u, v in g.bidirected if u in remap and v in remap]
    return MixedGraph(len(keep), directed, bidirected,
                      labels=[g.labels[v] for v in keep], source_ids=keep)
