"""Structural checks: ancestrality, maximality, and the latent-DAG oracle.

A mixed graph is ancestral when no vertex with an arrowhead pointing at
it is an ancestor of the edge's other endpoint.  An ancestral graph is
maximal when every nonadjacent vertex pair admits some separating set;
equivalently, when no primitive inducing chain (all interiors colliders
lying in the ancestor closure of the endpoints) joins a nonadjacent
pair.  Both characterisations are implemented and must agree: the first
runs the m-separation kernel on every candidate set, the second a state
walk with its own collider-only rule.

Replacing each bidirected edge u <-> v by a fresh common parent
u <- h -> v yields a DAG whose separation statements over the original
vertices coincide with the mixed graph's; :func:`marginal_model_equal`
compares the two models as code lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._bitset import submasks
from ._kernels.pyfallback import m_connected
from .closure import CheckResult
from .config import check_cap, marginal_cap
from .errors import NotAncestral, UnknownName, VerticesAdjacent
from .graph import MixedGraph, ancestors_mask, shortest_path, state_walk
from .separation import (_moral_adjacency, _require_dag, _separated_codes,
                         global_model_codes)
from .triples import first_difference


def is_ancestral(g: MixedGraph) -> CheckResult:
    """Check the ancestrality condition; the witness is the offending
    edge plus the directed path that closes the forbidden pattern."""
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
    (vertex, arrowhead) states), which does not change existence."""
    if g.adjacent(r, s):
        raise VerticesAdjacent(f"{g.labels[r]} and {g.labels[s]} are adjacent")
    anchor = ancestors_mask(g, (1 << r) | (1 << s))

    def step(v, head):
        # Interiors must be colliders: they need an arrowhead on both
        # sides, so only head-arrivals continue and only through edges
        # with an arrowhead at v; and they must lie in an({r, s}).
        if head and anchor >> v & 1:
            yield g.nb[v], True
            yield g.pa[v], False

    return state_walk(g, 1 << r, 1 << s, step)


def is_maximal(g: MixedGraph, method: str = "both") -> bool:
    """Whether every nonadjacent pair has some separating set.

    Runs both criteria, the direct search over candidate sets and the
    primitive-inducing-chain criterion, and checks that they agree.
    ``method`` accepts only "both"; the benchmark's traced sweep still
    passes it by name."""
    if method != "both":
        raise UnknownName(f"unknown maximality method {method!r}; only 'both' remains")
    res = is_ancestral(g)
    if not res:
        raise NotAncestral(f"not an ancestral graph: {res.witness}")
    answer = _maximal_by_zsets(g)
    if answer != _maximal_by_chains(g):
        raise AssertionError("maximality criteria disagree; this is a bug")
    return answer


def _nonadjacent_pairs(g: MixedGraph):
    for r in range(g.n):
        for s in range(r + 1, g.n):
            if not g.adjacent(r, s):
                yield r, s


def _maximal_by_zsets(g: MixedGraph) -> bool:
    for r, s in _nonadjacent_pairs(g):
        x, y = 1 << r, 1 << s
        others = g.full_mask & ~(x | y)
        if all(m_connected(g.n, g.pa, g.ch, g.nb, x, y, z)
               for z in (0, *submasks(others))):
            return False
    return True


def _maximal_by_chains(g: MixedGraph) -> bool:
    return all(find_primitive_inducing_chain(g, r, s) is None
               for r, s in _nonadjacent_pairs(g))


@dataclass(frozen=True)
class CanonicalDag:
    """DAG obtained by giving each bidirected edge a fresh latent parent.

    Latent ids are appended after the observed ids, so restricting to
    the observed vertices is a prefix mask."""

    dag: MixedGraph
    observed: frozenset[int]
    latents: frozenset[int]


def canonical_dag(g: MixedGraph) -> CanonicalDag:
    directed = list(g.directed)
    labels = list(g.labels)
    nxt = g.n
    for u, v in sorted(g.bidirected):
        directed.append((nxt, u))
        directed.append((nxt, v))
        labels.append(f"h{nxt - g.n}")
        nxt += 1
    dag = MixedGraph(nxt, directed, (), labels)
    return CanonicalDag(dag, frozenset(range(g.n)), frozenset(range(g.n, nxt)))


def latent_model_codes(g: MixedGraph) -> list[int]:
    """The latent DAG's separation model over the observed vertices."""
    check_cap(g.n, marginal_cap(), "observed vertices")
    dag = canonical_dag(g).dag
    _require_dag(dag)
    return _separated_codes(dag, g.n, _moral_adjacency)


def marginal_model_equal(g: MixedGraph) -> CheckResult:
    """Whether the graph's separation model equals the latent DAG's; the
    witness is ``(triple, m_separated, d_separated)`` for the smallest
    disagreeing code."""
    latent = latent_model_codes(g)
    model = global_model_codes(g)
    if latent == model:
        return CheckResult(True)
    triple, in_latent = first_difference(g.n, latent, model)
    return CheckResult(False, (triple, not in_latent, in_latent))
