"""Structural checks: ancestrality, maximality, and the latent-DAG oracle.

A mixed graph is ancestral when no vertex with an arrowhead pointing at
it is an ancestor of the edge's other endpoint.  An ancestral graph is
maximal when every nonadjacent vertex pair admits some separating set;
equivalently, when no primitive inducing chain (all interiors colliders
lying in the ancestor closure of the endpoints) joins a nonadjacent
pair.  Both characterisations are implemented and must agree: the first
reads M's elementary table, where a pair is separated given some set
exactly when one of its vertex's rows holds the other, the second a
state walk with its own collider-only rule.  The table is n·2^n masks,
capped at ``DEFAULT_SUBSET_CAP`` (12) vertices, so maximality is decided
above ``model_cap()``, which guards only the model's codes.

Replacing each bidirected edge u <-> v by a fresh common parent
u <- h -> v yields a DAG whose separation statements over the original
vertices coincide with the mixed graph's; :func:`marginal_model_equal`
compares the two models as code lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from ._bitset import bits
from .closure import CheckResult
from .config import check_cap, model_cap
from .errors import DisjointnessViolation, NotAncestral, UnknownName, VerticesAdjacent
from .graph import MixedGraph, _graph, ancestors_mask, shortest_path, state_walk
from .separation import (_moral_adjacency, _require_acyclic, _separated_codes, global_model_codes,
                         global_model_table)
from .triples import first_difference


def is_ancestral(g: MixedGraph) -> CheckResult:
    """Check the ancestrality condition; the witness is the offending
    edge plus the directed path that closes the forbidden pattern."""
    _graph(g)
    an = [ancestors_mask(g, 1 << v) for v in range(g.n)]
    for t, h in sorted(g.directed):
        if an[t] >> h & 1:  # head of t->h is an ancestor of its tail
            return CheckResult(False, ("->", t, h, shortest_path(g.ch, h, t)))
    for u, v in sorted(g.bidirected):
        if an[v] >> u & 1:
            return CheckResult(False, ("<->", u, v, shortest_path(g.ch, u, v)))
        if an[u] >> v & 1:
            return CheckResult(False, ("<->", v, u, shortest_path(g.ch, v, u)))
    return CheckResult(True)


def find_primitive_inducing_chain(g: MixedGraph, r: int, s: int) -> Optional[list[int]]:
    """A chain r .. s whose interiors are all colliders inside
    an({r, s}), or None.  Interior vertices may repeat (walk search over
    (vertex, arrowhead) states), which does not change existence.  A
    chain joins two distinct vertices, so ``r == s`` is refused."""
    if _graph(g).adjacent(r, s):
        raise VerticesAdjacent(f"{g.labels[r]} and {g.labels[s]} are adjacent")
    if r == s:
        raise DisjointnessViolation(f"a chain joins two distinct vertices, not "
                                    f"{g.labels[r]} and itself")
    return _primitive_inducing_chain(g, r, s)


def _primitive_inducing_chain(g: MixedGraph, r: int, s: int) -> Optional[list[int]]:
    """``find_primitive_inducing_chain`` for two distinct nonadjacent
    vertices, which the caller has checked."""
    anchor = ancestors_mask(g, (1 << r) | (1 << s))

    def step(v, head):
        if head is None:  # r leaves along any edge
            yield g.ch[v] | g.nb[v], True
            yield g.pa[v], False
        # Interiors must be colliders: they need an arrowhead on both
        # sides, so only head-arrivals continue and only through edges
        # with an arrowhead at v; and they must lie in an({r, s}).
        if head and anchor >> v & 1:
            yield g.nb[v], True
            yield g.pa[v], False

    return state_walk(1 << r, 1 << s, step)


def is_maximal(g: MixedGraph, method: str = "both") -> bool:
    """Whether every nonadjacent pair has some separating set.

    Runs both criteria, the separating sets read off M's table and the
    primitive-inducing-chain criterion, and checks that they agree.
    ``method`` accepts only "both"; the benchmark's traced sweep still
    passes it by name."""
    if method != "both":
        raise UnknownName(f"unknown maximality method {method!r}; only 'both' remains")
    res = is_ancestral(g)
    if not res:
        raise NotAncestral(f"not an ancestral graph: {res.witness}")
    return _is_maximal(g, global_model_table(g))


def _is_maximal(g: MixedGraph, table: list[int]) -> bool:
    """``is_maximal`` for an ancestral graph and its M ``table``.  A chain
    graph is ancestral: a head that is an ancestor of its edge's other end
    closes a partially directed cycle, so the sweep does not check it
    again, and passes the table its other checks share."""
    answer = _maximal_by_zsets(g, table)
    if answer != _maximal_by_chains(g):
        raise AssertionError("maximality criteria disagree; this is a bug")
    return answer


def _maximal_by_zsets(g: MixedGraph, table: list[int]) -> bool:
    """The direct criterion on M's elementary ``table``: ``g`` is maximal
    when each vertex r is separated from each vertex not adjacent to it
    given some set, that is when the OR of r's rows ``table[r << n | c]``
    holds every such vertex."""
    n = g.n
    for r in range(n):
        apart = 0
        for row in table[r << n:(r + 1) << n]:
            apart |= row
        if g.full_mask & ~(g.adj[r] | 1 << r | apart):
            return False
    return True


def _maximal_by_chains(g: MixedGraph) -> bool:
    """No primitive inducing chain joins r to a vertex s above it that is
    not adjacent to it."""
    return all(_primitive_inducing_chain(g, r, s) is None
               for r in range(g.n) for s in bits(g.full_mask & ~g.adj[r] & -(2 << r)))


@dataclass(frozen=True)
class CanonicalDag:
    """DAG obtained by giving each bidirected edge a fresh latent parent.

    Latent ids are appended after the observed ids, so restricting to
    the observed vertices is a prefix mask."""

    dag: MixedGraph
    observed: frozenset[int]
    latents: frozenset[int]


def canonical_dag(g: MixedGraph) -> CanonicalDag:
    """The DAG of ``_latent_masks(g)``; its latents are named ``h0``, ``h1``,
    ..., with ``_`` added to the ``h`` until none is a label of g.  The
    latents are sources, so the latent DAG has a directed cycle exactly
    when ``g`` has one, and then ``NotADag`` is raised."""
    _require_acyclic(_graph(g))
    n, pa, _, _ = _latent_masks(g)
    prefix = "h"
    while any(f"{prefix}{i}" in g.labels for i in range(n - g.n)):
        prefix += "_"
    labels = (*g.labels, *(f"{prefix}{i}" for i in range(n - g.n)))
    dag = MixedGraph(n, [(t, v) for v in range(n) for t in bits(pa[v])], (), labels)
    return CanonicalDag(dag, frozenset(range(g.n)), frozenset(range(g.n, n)))


class _LatentMasks(NamedTuple):
    """The latent DAG as the masks that ``_separated_codes`` and
    ``_moral_adjacency`` read; ``canonical_dag`` adds labels and edge sets."""

    n: int
    pa: list[int]
    ch: list[int]
    full_mask: int


def _latent_masks(g: MixedGraph) -> _LatentMasks:
    """The latent DAG's masks: a fresh parent ``h`` of ``u`` and ``v`` for
    each bidirected edge u <-> v, numbered from ``g.n`` on in the order of
    the sorted edges."""
    pa, ch = list(g.pa), list(g.ch)
    for u, v in sorted(g.bidirected):
        h = 1 << len(pa)
        pa[u] |= h
        pa[v] |= h
        pa.append(0)
        ch.append(1 << u | 1 << v)
    return _LatentMasks(len(pa), pa, ch, (1 << len(pa)) - 1)


def latent_model_codes(g: MixedGraph) -> list[int]:
    """The latent DAG's separation model over the observed vertices; a
    graph with a directed cycle raises ``NotADag``, as in ``canonical_dag``."""
    check_cap(_graph(g).n, model_cap())
    _require_acyclic(g)
    return _latent_model_codes(g)


def _latent_model_codes(g: MixedGraph) -> list[int]:
    """``latent_model_codes`` for a chain graph, which has no directed
    cycle, once M has checked the cap: the sweep checks neither again."""
    return _separated_codes(_latent_masks(g), g.n, _moral_adjacency)


def marginal_model_equal(g: MixedGraph) -> CheckResult:
    """Whether the graph's separation model equals the latent DAG's; the
    witness is ``(triple, m_separated, d_separated)`` for the smallest
    disagreeing code.  Both models have the one cap ``model_cap()``, and M
    is built first, so a graph too large for it is refused before the
    latent DAG's class splits start: one adjacency per ancestral set of
    the latent DAG, its latents projected out, and one class split per
    conditioning set inside it that holds every vertex joined to all the
    others."""
    model = global_model_codes(_graph(g))
    latent = latent_model_codes(g)
    if latent == model:
        return CheckResult(True)
    triple, in_latent = first_difference(g.n, latent, model)
    return CheckResult(False, (triple, not in_latent, in_latent))
