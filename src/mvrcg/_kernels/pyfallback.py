"""The kernels: separation-model enumeration and axiom closure, in Python.

Graphs arrive as parent/child/neighbour adjacency bitmasks.  An
independence triple <a, b | c> over ``n`` vertices travels as one
integer, its code ``a | b << n | c << 2n``: the three vertex masks side
by side.  A code is canonical when the lowest-numbered vertex of the two
blocks sits in ``a``, which bakes symmetry into the encoding.  Codes
sort by ``c``, then ``b``, then ``a``.  An elementary triple <x, y | K>,
one vertex in each block, travels as ``(x, y, K)``; a set of them is a
table of neighbour masks, ``table[x << n | K]`` holding each y.
"""

from __future__ import annotations

from .._bitset import bits, submasks
from ..graph import reach_mask

BACKEND = "python"  # part of sweep.config_hash, so it keeps this value

# Axiom rule bits; ``AxiomSet.flags()`` ORs them into the closure's flags.
DECOMPOSITION = 1
WEAK_UNION = 2
CONTRACTION = 4
INTERSECTION = 8
COMPOSITION = 16
# The flags under which ``axiom_rules`` drops a vertex from a block, and
# under which it moves one into the conditioning set.
DROPS = DECOMPOSITION | CONTRACTION
MOVES = WEAK_UNION | CONTRACTION


def encode_masks(n: int, a: int, b: int, c: int) -> int:
    if (a | b) & -(a | b) & b:  # the lowest block vertex goes first
        a, b = b, a
    return a | b << n | c << 2 * n


def decode_code(n: int, code: int) -> tuple[int, int, int]:
    full = (1 << n) - 1
    return code & full, code >> n & full, code >> 2 * n & full


def m_reach(pa, ch, nb, x: int, z: int, anz: int) -> int:
    """Vertices at which an m-connecting walk from ``x`` given ``z`` can end.

    States are (vertex, arrived-with-arrowhead).  An interior vertex is
    crossed as a noncollider only outside ``z`` and as a collider only
    inside ``anz``, the ancestor closure of ``z``.  Every step is a union
    over the frontier, so the reach of a set is the union of the reaches
    of its vertices.
    """
    head = 0  # vertices reached with an arrowhead pointing at them
    tail = 0
    m = x
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        head |= ch[v] | nb[v]
        tail |= pa[v]
    fh, ft = head, tail
    while fh or ft:
        nh = nt = 0
        m = ft & ~z                   # arrived tail-first: always a noncollider
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            nh |= ch[v] | nb[v]
            nt |= pa[v]
        m = fh & ~z                   # leave through a tail: noncollider
        while m:
            low = m & -m
            m ^= low
            nh |= ch[low.bit_length() - 1]
        m = fh & anz                  # leave through a head: collider
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            nh |= nb[v]
            nt |= pa[v]
        fh = nh & ~head
        ft = nt & ~tail
        head |= nh
        tail |= nt
    return head | tail


def m_connected(n: int, pa, ch, nb, x: int, y: int, z: int) -> bool:
    """Whether an m-connecting walk joins ``x`` and ``y`` given ``z``: one
    ``m_reach`` from ``x``, intersected with ``y``."""
    return bool(m_reach(pa, ch, nb, x, z, reach_mask(pa, z)) & y)


def subset_sums(base: int, steps) -> list[int]:
    """``base`` plus the sum of each subset of ``steps``: the empty subset
    first and the full one last."""
    out = [base]
    for step in steps:
        out += [x + step for x in out]
    return out


def iter_canonical_codes(n: int) -> list[tuple[int, int, int, int]]:
    """All canonical <a, b | c> over ``n`` vertices as ``(code, a, b, c)``,
    in ascending code order."""
    full = (1 << n) - 1
    out = []
    for c in range(1 << n):
        for b in submasks(full & ~c):
            low = b & -b
            out += [(a | b << n | c << 2 * n, a, b, c)
                    for a in submasks(full & ~c & ~b) if a & (low - 1)]
    out.sort()
    return out


def biclique_codes(n: int, c: int, apart) -> list[int]:
    """The canonical <a, b | c> with ``b`` inside ``apart[v]`` for every
    vertex ``v`` of ``a``, for a symmetric relation ``apart`` on the
    vertices outside ``c``: the pairwise triples given ``c``.

    A search grows ``a`` in ascending vertex order from its lowest vertex,
    carries the intersection of ``apart`` over ``a`` above the lowest
    vertex, and stops where it is empty, so it costs a few steps per code
    it returns.
    """
    base = c << 2 * n
    out: list[int] = []
    m = ((1 << n) - 1) & ~c
    while m:  # low becomes a's lowest vertex; m keeps the vertices above it
        low = m & -m
        m ^= low
        common = apart[low.bit_length() - 1] & m
        stack = [(low, common, m)] if common else []
        while stack:
            a, common, grow = stack.pop()
            # b is each nonempty subset of common
            out += subset_sums(base | a, [1 << v + n for v in bits(common)])[1:]
            while grow:
                w = grow & -grow
                grow ^= w
                common_w = common & apart[w.bit_length() - 1] & ~w
                if common_w:
                    stack.append((a | w, common_w, grow))
    return out


def global_model_codes(n: int, pa, ch, nb) -> list[int]:
    """All separated canonical (X, Y | Z) codes over ``n`` vertices.

    For each conditioning set ``c``, one ``m_reach`` from each vertex ``v``
    outside it gives ``apart[v]``, the vertices outside ``c`` that no walk
    from ``v`` reaches.  The reach of a set is the union of its vertices'
    reaches, so <a, b | c> is separated exactly when ``b`` lies in the
    intersection of ``apart`` over ``a``, and ``biclique_codes`` lists
    those triples.  The cost is n * 2^(n-1) walks plus a few steps per
    separated code, instead of one walk per canonical code.
    """
    full = (1 << n) - 1
    out: list[int] = []
    for c in range(1 << n):
        outside = full & ~c
        if outside.bit_count() < 2:
            continue
        anz = reach_mask(pa, c)
        apart = [0] * n
        m = outside
        while m:
            low = m & -m
            m ^= low
            apart[low.bit_length() - 1] = outside & ~m_reach(pa, ch, nb, low, c, anz)
        out += biclique_codes(n, c, apart)
    out.sort()
    return out


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
    drops = bool(flags & DROPS)
    moves = bool(flags & MOVES)
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


def closure_keys(n: int, codes, flags: int) -> set[int]:
    """Canonical codes of the least superset of ``codes`` closed under the
    enabled axioms: a FIFO worklist fires each new triple through
    ``axiom_rules`` once, up to the fixpoint."""
    full = (1 << n) - 1
    seen: set[int] = set()
    work: list[tuple[int, int, int]] = []

    def push(a: int, b: int, c: int, rule: int = 0, entry=None) -> None:
        if (a | b) & -(a | b) & b:  # the lowest block vertex goes first
            a, b = b, a
        code = a | b << n | c << 2 * n
        if code not in seen:
            seen.add(code)
            work.append((a, b, c))

    fire = axiom_rules(n, flags, push)
    for code in codes:
        push(code & full, code >> n & full, code >> 2 * n)
    for triple in work:  # the loop also reaches the triples pushed as it runs
        fire(*triple)
    return seen


def close_codes(n: int, codes, flags: int) -> list[int]:
    """Least superset of ``codes`` closed under the enabled axioms: the
    worklist of ``closure_keys`` run to its fixpoint, as sorted codes."""
    return sorted(closure_keys(n, codes, flags))


def first_violation(n: int, codes, flags: int):
    """The first rule step, firing the triples of ``codes`` in their order
    through ``axiom_rules``, that concludes a triple outside them.

    None when no step does, that is when the model is closed.  Otherwise
    ``(premise, step)``, with premise the masks of the triple being fired
    and step as ``axiom_rules`` passed it to ``emit``: ``(a, b, c, 0,
    None)`` for a unary step, ``(a, b, c, rule, entry)`` for a binary one.
    Each pair of the model's triples is joined once, so this costs about
    as much as closing the model.
    """
    full = (1 << n) - 1
    have = set(codes)
    found: list[tuple] = []

    def emit(a: int, b: int, c: int, rule: int = 0, entry=None) -> None:
        lo, hi = (b, a) if (a | b) & -(a | b) & b else (a, b)
        if not found and lo | hi << n | c << 2 * n not in have:
            found.append((a, b, c, rule, entry))

    fire = axiom_rules(n, flags, emit)
    for code in codes:
        premise = (code & full, code >> n & full, code >> 2 * n)
        fire(*premise)
        if found:
            return premise, found[0]
    return None


def elementary_rules(n: int, flags: int, table, emit):
    """One step of the elementary rules from an elementary triple <x, y | K>.

    An elementary triple has one vertex in each block.  ``table[i << n |
    K]`` is the mask of the vertices j with <i, j | K> in the set at hand,
    kept symmetric by the caller.  Returns ``fire(x, y, K)``, which takes
    each rule instance that has <x, y | K> as one premise and the other in
    ``table``, with either of x and y as the shared vertex i, and calls
    ``emit(i, js, L)`` with the mask ``js`` of the vertices j whose
    conclusion <i, j | L> is not in ``table`` at that moment.  The rules:

    * semi-graphoid: <i, j | kL> and <i, k | L> hold together exactly when
      <i, k | jL> and <i, j | L> do (Matúš 1992).  Decomposition, weak
      union and contraction act on elementary triples as this one rule, so
      it is always on.  Its premises differ in shape, so the fired triple
      takes both roles;
    * intersection, under ``INTERSECTION``: <i, j | kL> and <i, k | jL>
      give <i, j | L> and <i, k | L>;
    * composition, under ``COMPOSITION``: <i, j | L> and <i, k | L> give
      <i, j | kL> and <i, k | jL>.

    Intersection and composition are symmetric in their premises, so the
    later of the two to fire finds the other.
    """
    inter = bool(flags & INTERSECTION)
    comp = bool(flags & COMPOSITION)

    def fire(x: int, y: int, K: int) -> None:
        for i, j in ((x, y), (y, x)):
            row = i << n | K
            bj = 1 << j
            m = K
            while m:  # the fired triple as <i, j | kL>, k in K
                low = m & -m
                m ^= low
                L = row ^ low
                if table[L] & low:  # <i, k | L>
                    if not table[L | bj] & low:
                        emit(i, low, K ^ low | bj)
                    if not table[L] & bj:
                        emit(i, bj, K ^ low)
                if inter and table[L | bj] & low:  # <i, k | jL>
                    if not table[L] & bj:
                        emit(i, bj, K ^ low)
                    if not table[L] & low:
                        emit(i, low, K ^ low)
            m = table[row | bj]  # the fired triple as <i, k | L>, partners <i, m | jK>
            if m & ~table[row]:
                emit(i, m & ~table[row], K)
            if comp:
                partners = table[row] & ~bj  # <i, k | K>
                if partners & ~table[row | bj]:
                    emit(i, partners & ~table[row | bj], K | bj)
                m |= partners
            while m:  # both rules conclude <i, j | kK> from each partner k
                low = m & -m
                m ^= low
                if not table[row | low] & bj:
                    emit(i, bj, K | low)

    return fire


def elementary_closure(n: int, codes, flags: int, goal=None) -> list[tuple[int, int, int]]:
    """The elementary triples <x, y | K> of the closure of ``codes`` under
    the semi-graphoid axioms and, by ``flags``, intersection and
    composition, each once as ``(x, y, K)``.

    The worklist starts from the elementary parts of ``codes``: each
    <x, y | K> with x in a, y in b and c ⊆ K ⊆ c | a | b - {x, y}.  It
    fires each triple it has not seen through ``elementary_rules`` once,
    in FIFO order, and stops at its fixpoint or as soon as it has seen
    ``goal`` triples.
    """
    full = (1 << n) - 1
    table = [0] * (n << n)
    work: list[tuple[int, int, int]] = []

    def push(x: int, ys: int, K: int) -> None:
        table[x << n | K] |= ys
        bx = 1 << x
        while ys:
            low = ys & -ys
            ys ^= low
            y = low.bit_length() - 1
            table[y << n | K] |= bx
            work.append((x, y, K))

    for code in codes:
        a, b, c = code & full, code >> n & full, code >> 2 * n
        for x in bits(a):
            rest = (a | b) ^ 1 << x
            for extra in (0, *submasks(rest)):
                ys = b & ~extra & ~table[x << n | c | extra]
                if ys:
                    push(x, ys, c | extra)
    fire = elementary_rules(n, flags, table, push)
    for triple in work:  # the loop also reaches the triples pushed as it runs
        if len(work) == goal:
            break
        fire(*triple)
    return work
