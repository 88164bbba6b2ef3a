"""The kernels: separation-model enumeration and axiom closure, in Python.

Graphs arrive as parent/child/neighbour adjacency bitmasks.  Independence
triples travel as base-4 codes: vertex ``v`` contributes digit 0 (not
mentioned), 1 (first block), 2 (second block) or 3 (conditioning set) at
position ``v``.  A code is canonical when the lowest-numbered vertex of
the two blocks sits in the first block, which bakes symmetry into the
encoding.
"""

from __future__ import annotations

BACKEND = "python"  # part of sweep.config_hash, so it keeps this value

# Axiom rule bits; ``AxiomSet.flags()`` ORs them into the closure's flags.
DECOMPOSITION = 1
WEAK_UNION = 2
CONTRACTION = 4
INTERSECTION = 8
COMPOSITION = 16


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


def axiom_rules(n: int, flags: int, emit):
    """One rule step of the enabled axioms, joined against earlier triples.

    Returns ``fire(a, b, c)``, which files <a, b | c> and then calls
    ``emit`` with each conclusion, in either orientation, of one step that
    takes it as a premise and, for a binary rule, a fired triple as the
    other: ``emit(a, b, c)`` for a unary step, ``emit(anchor, blk, c,
    rule, entry)`` for rule bit ``rule`` and partner ``(anchor, *entry)``.
    So each pair of fired triples is joined when the later one fires.

    Symmetry is implicit in the canonical encoding.  The biconditional
    contraction axiom contributes its reverse direction (splitting the
    second block back apart) as the single-vertex drop/move steps that
    decomposition and weak union use.

    Every binary rule joins two triples that share one block, the anchor.
    Each triple is filed under both of its blocks as anchor, keyed by
    ``(anchor, c)`` and by ``(anchor, c | blk)`` with entry ``(blk, c)``,
    where ``blk`` is its other block.  Composition pairs equal ``c``;
    contraction pairs one triple's ``c`` with its partner's ``c | blk``,
    in both premise roles; intersection pairs equal ``c | blk``.  It and
    composition conclude the same triple with the premises swapped, so
    they need only one role.
    """
    drops = bool(flags & (DECOMPOSITION | CONTRACTION))
    moves = bool(flags & (WEAK_UNION | CONTRACTION))
    con = bool(flags & CONTRACTION)
    inter = bool(flags & INTERSECTION)
    comp = bool(flags & COMPOSITION)
    by_c_used = con or comp
    by_cb_used = con or inter
    by_c: dict[int, list[tuple[int, int]]] = {}   # anchor | c << n
    by_cb: dict[int, list[tuple[int, int]]] = {}  # anchor | (c | blk) << n

    def fire(a: int, b: int, c: int) -> None:
        if by_c_used:
            by_c.setdefault(a | c << n, []).append((b, c))
            by_c.setdefault(b | c << n, []).append((a, c))
        if by_cb_used:
            by_cb.setdefault(a | (c | b) << n, []).append((b, c))
            by_cb.setdefault(b | (c | a) << n, []).append((a, c))
        roles = ((a, b), (b, a))
        if drops or moves:
            for blk, other in roles:
                if blk.bit_count() < 2:
                    continue
                m = blk
                while m:
                    low = m & -m
                    m ^= low
                    if drops:
                        emit(blk ^ low, other, c)
                    if moves:
                        emit(blk ^ low, other, c | low)
        for anchor, blk in roles:
            if con:
                # <anchor, blk | c> with <anchor, blk2 | c2>, c == c2 | blk2
                for entry in by_cb.get(anchor | c << n, ()):
                    blk2, c2 = entry
                    emit(anchor, blk | blk2, c2, CONTRACTION, entry)
                # <anchor, blk1 | c1> with <anchor, blk | c>, c1 == c | blk
                for entry in by_c.get(anchor | (c | blk) << n, ()):
                    emit(anchor, entry[0] | blk, c, CONTRACTION, entry)
            if comp:
                for entry in by_c.get(anchor | c << n, ()):
                    blk2 = entry[0]
                    if not blk & blk2:
                        emit(anchor, blk | blk2, c, COMPOSITION, entry)
            if inter:
                for entry in by_cb.get(anchor | (c | blk) << n, ()):
                    blk2, c2 = entry
                    if blk2 & c == blk2 and c2 == (c & ~blk2) | blk:
                        emit(anchor, blk | blk2, c & ~blk2, INTERSECTION, entry)

    return fire


def close_codes(n: int, codes, flags: int) -> list[int]:
    """Least superset of ``codes`` closed under the enabled axioms: a
    worklist fires each new triple through ``axiom_rules`` once."""
    seen: set[int] = set()
    work: list[tuple[int, int, int]] = []

    def push(a: int, b: int, c: int, rule: int = 0, entry=None) -> None:
        if (b & -b) < (a & -a):  # the lowest block vertex goes first
            a, b = b, a
        key = a | b << n | c << 2 * n
        if key in seen:
            return
        seen.add(key)
        work.append((a, b, c))

    fire = axiom_rules(n, flags, push)
    for code in codes:
        push(*decode_code(n, code))
    while work:
        fire(*work.pop())

    full = (1 << n) - 1
    return sorted(encode_masks(n, key & full, key >> n & full, key >> 2 * n)
                  for key in seen)
