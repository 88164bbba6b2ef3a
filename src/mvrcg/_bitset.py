"""Bitset helpers over the dense vertex-id space.

Vertex sets are plain Python ints used as bitmasks; all set algebra is
O(words).  Public APIs convert to/from frozensets at the boundary.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@lru_cache(maxsize=1 << 12)
def bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of the nonnegative ``mask``, ascending, as a
    tuple.

    The tuples are memoised by the mask alone, so equal masks share one
    immutable tuple.  The memo keeps the 4,096 masks used last: at most
    4,096 tuples, each as long as its mask's bit count, whatever graphs
    the process sees.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


def format_vertices(vertices, labels=None) -> str:
    """Sorted vertex ids, or their labels, joined by commas."""
    return ",".join(str(v) if labels is None else labels[v] for v in sorted(vertices))


def submasks(mask: int) -> Iterator[int]:
    """Yield every nonempty submask of ``mask`` (descending).  Not memoised:
    a mask with k bits has 2^k - 1 of them."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
