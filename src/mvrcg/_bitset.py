"""Bitset helpers over the dense vertex-id space.

Vertex sets are plain Python ints used as bitmasks; all set algebra is
O(words).  Public APIs convert to/from frozensets at the boundary.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


def format_vertices(vertices, labels=None) -> str:
    """Sorted vertex ids, or their labels, joined by commas."""
    return ",".join(str(v) if labels is None else labels[v] for v in sorted(vertices))


def submasks(mask: int) -> Iterator[int]:
    """Yield every nonempty submask of ``mask`` (descending)."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
