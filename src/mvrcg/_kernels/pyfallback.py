"""Pure-Python kernels; the reference semantics for the compiled twin.

Graphs arrive as parent/child/neighbour adjacency bitmasks.  Independence
triples travel as base-4 codes: vertex ``v`` contributes digit 0 (not
mentioned), 1 (first block), 2 (second block) or 3 (conditioning set) at
position ``v``.  A code is canonical when the lowest-numbered vertex of
the two blocks sits in the first block, which bakes symmetry into the
encoding.
"""

from __future__ import annotations

BACKEND = "python"

_DECOMPOSITION = 1
_WEAK_UNION = 2
_CONTRACTION = 4
_INTERSECTION = 8
_COMPOSITION = 16


def encode_masks(n: int, a: int, b: int, c: int) -> int:
    low = (a | b) & -(a | b)
    if low & b:
        a, b = b, a
    code = 0
    for v in range(n):
        if a >> v & 1:
            code += 1 << (2 * v)
        elif b >> v & 1:
            code += 2 << (2 * v)
        elif c >> v & 1:
            code += 3 << (2 * v)
    return code


def decode_code(n: int, code: int) -> tuple[int, int, int]:
    a = b = c = 0
    for v in range(n):
        d = (code >> (2 * v)) & 3
        if d == 1:
            a |= 1 << v
        elif d == 2:
            b |= 1 << v
        elif d == 3:
            c |= 1 << v
    return a, b, c


def _ancestors(n: int, pa, seed: int) -> int:
    out = seed
    frontier = seed
    while frontier:
        grown = 0
        m = frontier
        while m:
            low = m & -m
            grown |= pa[low.bit_length() - 1]
            m ^= low
        frontier = grown & ~out
        out |= frontier
    return out


def m_connected(n: int, pa, ch, nb, x: int, y: int, z: int) -> bool:
    """Walk-state reachability for the mixed-graph separation criterion.

    States are (vertex, arrived-with-arrowhead).  An interior vertex is
    crossed as a noncollider only outside ``z`` and as a collider only
    inside the ancestor closure of ``z``.
    """
    anz = _ancestors(n, pa, z)
    head = 0  # vertices reached with an arrowhead pointing at them
    tail = 0
    m = x
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        head |= ch[v] | nb[v]
        tail |= pa[v]
    if (head | tail) & y:
        return True
    fh, ft = head, tail
    while fh or ft:
        nh = nt = 0
        m = ft
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if not (z >> v & 1):      # arrived tail-first: always a noncollider
                nh |= ch[v] | nb[v]
                nt |= pa[v]
        m = fh
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if not (z >> v & 1):      # leave through a tail: noncollider
                nh |= ch[v]
            if anz >> v & 1:          # leave through a head: collider
                nh |= nb[v]
                nt |= pa[v]
        if (nh | nt) & y:
            return True
        fh = nh & ~head
        ft = nt & ~tail
        head |= nh
        tail |= nt
    return False


def iter_canonical_codes(n: int):
    """All canonical (X, Y | Z) labellings: yields (code, x, y, z)."""
    for code in range(1 << (2 * n)):
        a = b = c = 0
        for v in range(n):
            d = (code >> (2 * v)) & 3
            if d == 1:
                a |= 1 << v
            elif d == 2:
                if not a:  # lowest block vertex must lie in the first block
                    break
                b |= 1 << v
            elif d == 3:
                c |= 1 << v
        else:
            if a and b:
                yield code, a, b, c


def global_model_codes(n: int, pa, ch, nb) -> list[int]:
    """All separated canonical (X, Y | Z) codes over ``n`` vertices."""
    return [code for code, a, b, c in iter_canonical_codes(n)
            if not m_connected(n, pa, ch, nb, a, b, c)]


def close_codes(n: int, codes, flags: int) -> list[int]:
    """Least superset of ``codes`` closed under the enabled axioms.

    Symmetry is implicit in the canonical encoding.  The biconditional
    contraction axiom contributes its reverse direction (splitting the
    second block back apart) as the same single-vertex drop/move steps
    that decomposition and weak union use.

    Every binary rule joins two triples that share one block, the anchor.
    Each triple is filed under both of its blocks as anchor in two
    buckets, keyed by ``(anchor, c)`` and by ``(anchor, c | blk)``, where
    ``blk`` is its other block.  Composition pairs triples with equal
    ``c``; contraction pairs one triple's ``c`` with its partner's
    ``c | blk``; intersection pairs equal ``c | blk``.  A worklist triple
    therefore visits only the buckets its partners can sit in.  Triples
    are deduplicated on the packed key ``a | b << n | c << 2n`` and
    encoded as base-4 codes once, at the end.
    """
    drops = bool(flags & (_DECOMPOSITION | _CONTRACTION))
    moves = bool(flags & (_WEAK_UNION | _CONTRACTION))
    con = bool(flags & _CONTRACTION)
    inter = bool(flags & _INTERSECTION)
    comp = bool(flags & _COMPOSITION)
    by_c_used = con or comp
    by_cb_used = con or inter

    seen: set[int] = set()
    work: list[tuple[int, int, int]] = []
    by_c: dict[int, list[tuple[int, int]]] = {}   # anchor | c << n
    by_cb: dict[int, list[tuple[int, int]]] = {}  # anchor | (c | blk) << n

    def push(a: int, b: int, c: int) -> None:
        if (b & -b) < (a & -a):  # the lowest block vertex goes first
            a, b = b, a
        key = a | b << n | c << 2 * n
        if key in seen:
            return
        seen.add(key)
        work.append((a, b, c))
        if by_c_used:
            by_c.setdefault(a | c << n, []).append((b, c))
            by_c.setdefault(b | c << n, []).append((a, c))
        if by_cb_used:
            by_cb.setdefault(a | (c | b) << n, []).append((b, c))
            by_cb.setdefault(b | (c | a) << n, []).append((a, c))

    for code in codes:
        push(*decode_code(n, code))

    while work:
        a, b, c = work.pop()
        if drops or moves:
            for blk_is_a in (True, False):
                blk = a if blk_is_a else b
                if blk.bit_count() < 2:
                    continue
                m = blk
                while m:
                    low = m & -m
                    m ^= low
                    rest = blk ^ low
                    if blk_is_a:
                        if drops:
                            push(rest, b, c)
                        if moves:
                            push(rest, b, c | low)
                    else:
                        if drops:
                            push(a, rest, c)
                        if moves:
                            push(a, rest, c | low)
        # Partners were filed when pushed, so each pair is joined once its
        # later member is popped.  Composition and intersection conclude
        # the same triple with the premises swapped, so they need only
        # the first-premise role; contraction needs both.
        for anchor, blk in ((a, b), (b, a)):
            if con:
                # <anchor, blk | c> with <anchor, blk2 | c2>, c == c2 | blk2
                for blk2, c2 in by_cb.get(anchor | c << n, ()):
                    push(anchor, blk | blk2, c2)
                # <anchor, blk1 | c1> with <anchor, blk | c>, c1 == c | blk
                for blk1, _ in by_c.get(anchor | (c | blk) << n, ()):
                    push(anchor, blk1 | blk, c)
            if comp:
                for blk2, _ in by_c.get(anchor | c << n, ()):
                    if not blk & blk2:
                        push(anchor, blk | blk2, c)
            if inter:
                for blk2, c2 in by_cb.get(anchor | (c | blk) << n, ()):
                    if blk2 & c == blk2 and c2 == (c & ~blk2) | blk:
                        push(anchor, blk | blk2, c & ~blk2)

    full = (1 << n) - 1
    return sorted(encode_masks(n, key & full, key >> n & full, key >> 2 * n)
                  for key in seen)
