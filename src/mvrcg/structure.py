"""Structural checks: ancestrality, maximality, and the latent-DAG oracle.

A mixed graph is ancestral when no vertex with an arrowhead pointing at
it is an ancestor of the edge's other endpoint.  An ancestral graph is
maximal when every nonadjacent vertex pair admits some separating set;
equivalently, when no primitive inducing chain (all interiors colliders
lying in the ancestor closure of the endpoints) joins a nonadjacent
pair.  Both characterisations are implemented and must agree.

Replacing each bidirected edge u <-> v by a fresh common parent
u <- h -> v yields a DAG whose separation statements over the original
vertices coincide with the mixed graph's; that DAG is the oracle used by
:func:`marginal_model_equal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._bitset import bits, set_of, submasks
from .closure import CheckResult
from .config import marginal_cap
from .errors import CapExceeded, NotAncestral, VerticesAdjacent
from .graph import MixedGraph, ancestors_mask, shortest_path
from .separation import d_separated, iter_canonical_codes, m_separated
from .triples import triple_from_masks


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
    prev: dict[tuple[int, bool], tuple] = {}
    queue: list[tuple[int, bool]] = []

    def arrive(v, head, frm):
        if (v, head) not in prev:
            prev[(v, head)] = frm
            queue.append((v, head))

    for w in bits(g.ch[r] | g.nb[r]):
        arrive(w, True, ("src",))
    for w in bits(g.pa[r]):
        arrive(w, False, ("src",))
    i = 0
    goal = None
    while i < len(queue):
        v, head = queue[i]
        i += 1
        if v == s:
            goal = (v, head)
            break
        # Interiors must be colliders: they need an arrowhead on both
        # sides, so only head-arrivals continue and only through edges
        # with an arrowhead at v; and they must lie in an({r, s}).
        if head and anchor >> v & 1:
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
    walk.append(r)
    return walk[::-1]


def is_maximal(g: MixedGraph, method: str = "both") -> bool:
    """Whether every nonadjacent pair has some separating set.

    ``method`` selects the direct search over candidate sets ("zsets"),
    the primitive-inducing-chain criterion ("chains"), or both with an
    agreement check ("both", the default)."""
    res = is_ancestral(g)
    if not res:
        raise NotAncestral(f"not an ancestral graph: {res.witness}")
    if method not in ("zsets", "chains", "both"):
        raise ValueError(f"unknown method {method!r}")
    answers = []
    if method in ("zsets", "both"):
        answers.append(_maximal_by_zsets(g))
    if method in ("chains", "both"):
        answers.append(_maximal_by_chains(g))
    if len(answers) == 2 and answers[0] != answers[1]:
        raise AssertionError("maximality criteria disagree; this is a bug")
    return answers[0]


def _nonadjacent_pairs(g: MixedGraph):
    for r in range(g.n):
        for s in range(r + 1, g.n):
            if not g.adjacent(r, s):
                yield r, s


def _maximal_by_zsets(g: MixedGraph) -> bool:
    for r, s in _nonadjacent_pairs(g):
        others = g.full_mask & ~((1 << r) | (1 << s))
        found = not _pair_connected(g, r, s, 0)
        if not found:
            for z in submasks(others):
                if not _pair_connected(g, r, s, z):
                    found = True
                    break
        if not found:
            return False
    return True


def _pair_connected(g: MixedGraph, r: int, s: int, z: int) -> bool:
    return not m_separated(g, (r,), (s,), set_of(z))


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
    latent_for: tuple[tuple[tuple[int, int], int], ...]


def canonical_dag(g: MixedGraph) -> CanonicalDag:
    directed = list(g.directed)
    labels = list(g.labels)
    latent_for = []
    nxt = g.n
    for u, v in sorted(g.bidirected):
        directed.append((nxt, u))
        directed.append((nxt, v))
        latent_for.append(((u, v), nxt))
        labels.append(f"h{nxt - g.n}")
        nxt += 1
    dag = MixedGraph(nxt, directed, (), labels)
    return CanonicalDag(dag, frozenset(range(g.n)), frozenset(range(g.n, nxt)),
                        tuple(latent_for))


def marginal_model_equal(g: MixedGraph, cap: Optional[int] = None) -> CheckResult:
    """Whether the graph's separation statements coincide with the
    latent DAG's over the observed vertices; the witness is the first
    disagreeing triple."""
    limit = marginal_cap(cap)
    if g.n > limit:
        raise CapExceeded(f"{g.n} observed vertices exceeds cap {limit}")
    cd = canonical_dag(g)
    for _, a, b, c in iter_canonical_codes(g.n):
        sa, sb, sc = set_of(a), set_of(b), set_of(c)
        mg = m_separated(g, sa, sb, sc)
        dd = d_separated(cd.dag, sa, sb, sc)
        if mg != dd:
            return CheckResult(False, (triple_from_masks(a, b, c), mg, dd))
    return CheckResult(True)
