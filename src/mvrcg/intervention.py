"""Graph surgery for interventions.

Forcing the variables in X severs them from their usual causes: every
directed edge into X and every bidirected edge touching X is deleted
(bidirected edges are symmetric, so either endpoint in X removes them).
Vertices are kept; edge deletion cannot create a partially directed
cycle, so the result of intervening on a chain graph is a chain graph.
"""

from __future__ import annotations

from typing import Iterable

from .graph import MixedGraph, _as_mask, _graph


def intervene(g: MixedGraph, X: Iterable[int]) -> MixedGraph:
    x = _as_mask(_graph(g), X)
    directed = [(t, h) for t, h in g.directed if not (x >> h) & 1]
    bidirected = [(u, v) for u, v in g.bidirected
                  if not (x >> u) & 1 and not (x >> v) & 1]
    return MixedGraph(g.n, directed, bidirected, g.labels, g.source_ids)
