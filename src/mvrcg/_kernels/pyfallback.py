"""The kernels, in Python: separation-model enumeration and the closure,
one worklist over elementary triples and the listing of a closure from
them.

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

# The closure's flags: the axioms besides the semi-graphoid ones, which
# are always on.  ``AxiomSet.flags()`` ORs them.
INTERSECTION = 1
COMPOSITION = 2


def encode_masks(n: int, a: int, b: int, c: int) -> int:
    if (a | b) & -(a | b) & b:  # the lowest block vertex goes first
        a, b = b, a
    return a | b << n | c << 2 * n


def decode_code(n: int, code: int) -> tuple[int, int, int]:
    full = (1 << n) - 1
    return code & full, code >> n & full, code >> 2 * n & full


def m_reach(pa, ch, nb, x: int, z: int, anz: int, stop: int = -1) -> int:
    """Vertices at which an m-connecting walk from ``x`` given ``z`` can end.

    States are (vertex, arrived-with-arrowhead).  An interior vertex is
    crossed as a noncollider only outside ``z`` and as a collider only
    inside ``anz``, the ancestor closure of ``z``.  Every step is a union
    over the frontier, so the reach of a set is the union of the reaches
    of its vertices.  The walk ends early once it has reached every vertex
    of ``stop``, so only the result's part inside ``stop`` is exact; the
    default stop, -1, is never reached.
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
    while (fh or ft) and stop & ~(head | tail):
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
    ``m_reach`` from ``x`` with ``y`` as its stop, intersected with ``y``."""
    return bool(m_reach(pa, ch, nb, x, z, reach_mask(pa, z), y) & y)


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


def biclique_nodes(n: int, c: int, apart):
    """The search behind ``biclique_codes``: yields ``(a, common)`` for
    each block ``a`` that some canonical <a, b | c> of the listing has,
    with ``common`` the mask of the vertices ``b`` may hold, so the node
    stands for the triples with ``b`` a nonempty subset of ``common``.

    The search grows ``a`` in ascending vertex order from its lowest
    vertex, carries the intersection of ``apart`` over ``a`` above the
    lowest vertex, and stops where it is empty, so it costs a few steps
    per node it yields.
    """
    m = ((1 << n) - 1) & ~c
    while m:  # low becomes a's lowest vertex; m keeps the vertices above it
        low = m & -m
        m ^= low
        common = apart[low.bit_length() - 1] & m
        stack = [(low, common, m)] if common else []
        while stack:
            a, common, grow = stack.pop()
            yield a, common
            while grow:
                w = grow & -grow
                grow ^= w
                common_w = common & apart[w.bit_length() - 1] & ~w
                if common_w:
                    stack.append((a | w, common_w, grow))


def biclique_codes(n: int, c: int, apart) -> list[int]:
    """The canonical <a, b | c> with ``b`` inside ``apart[v]`` for every
    vertex ``v`` of ``a``, for a symmetric relation ``apart`` on the
    vertices outside ``c``: the pairwise triples given ``c``, listed from
    ``biclique_nodes``."""
    base = c << 2 * n
    out: list[int] = []
    for a, common in biclique_nodes(n, c, apart):
        # b is each nonempty subset of common: the subset sums of its bits
        part = [base | a]
        m = common << n
        while m:
            low = m & -m
            m ^= low
            part += [x + low for x in part]
        out += part[1:]
    return out


def biclique_count(n: int, c: int, apart) -> int:
    """``len(biclique_codes(n, c, apart))``, counted from
    ``biclique_nodes`` without listing the codes."""
    return sum((1 << common.bit_count()) - 1 for _, common in biclique_nodes(n, c, apart))


def m_elementary_table(n: int, pa, ch, nb) -> list[int]:
    """The m model's elementary triples as a table of neighbour masks:
    ``table[i << n | c]`` holds each j with <i, j | c> m-separated.

    Per conditioning set ``c``, vertex ``v`` outside it walks only for its
    open vertices: those above it, outside ``c`` and not adjacent to it.
    Adjacent vertices are never separated, and m-connection is symmetric,
    so the bits below ``v`` are ``v``'s bits in the earlier rows.  A vertex
    with no open vertex does not walk, and a walk (``m_reach`` with the
    open vertices as its stop) ends once it has reached them all.  The
    edgeless graph on 5 vertices takes 49 walks and a complete one none,
    where one walk per vertex and conditioning set would take 75.
    """
    full = (1 << n) - 1
    table = [0] * (n << n)
    adj = [pa[v] | ch[v] | nb[v] for v in range(n)]
    for c in range(1 << n):
        m = full & ~c
        anz = None  # an(c), found at the first walk given c
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            stop = m & ~adj[v]
            if not stop:
                continue
            if anz is None:
                anz = reach_mask(pa, c)
            apart = stop & ~m_reach(pa, ch, nb, low, c, anz, stop)
            table[v << n | c] |= apart
            while apart:
                w = apart & -apart
                apart ^= w
                table[(w.bit_length() - 1) << n | c] |= low
    return table


def global_model_codes(n: int, pa, ch, nb) -> list[int]:
    """All separated canonical (X, Y | Z) codes over ``n`` vertices.

    The reach of a set is the union of its vertices' reaches, so <a, b | c>
    is separated exactly when every <i, j | c> with i in ``a`` and j in
    ``b`` is: ``biclique_codes`` lists those triples from the rows of
    ``m_elementary_table`` given ``c``, for each ``c`` whose rows are not
    all empty.  The cost is the table's walks plus a few steps per
    separated code, instead of one walk per canonical code.
    """
    size = 1 << n
    table = m_elementary_table(n, pa, ch, nb)
    out: list[int] = []
    for c in range(size):
        apart = table[c::size]
        if any(apart):
            out += biclique_codes(n, c, apart)
    out.sort()
    return out


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


def semi_graphoid_codes(n: int, elementary) -> list[int]:
    """The sorted canonical codes of the semi-graphoid whose elementary
    triples are ``elementary``, each as ``(x, y, K)``.

    It lists them level by level in the size of the two blocks by the
    chain rule: <A, Bv | C> holds exactly when <A, B | C> and <A, v | CB>
    do (decomposition and weak union one way, contraction the other), for
    any vertex v of either block.  So each triple of a level grows from
    one of the level below by a vertex v outside it, in either block,
    when the triple of v with the other block, given C and the grown
    block's rest, was listed at a lower level.
    """
    full = (1 << n) - 1
    have = {1 << min(x, y) | 1 << max(x, y) << n | K << 2 * n for x, y, K in elementary}
    level = list(have)
    while level:
        grown = []
        for code in level:
            a, b, c = code & full, code >> n & full, code >> 2 * n
            free = full & ~(a | b | c)
            while free:
                v = free & -free
                free ^= v
                for blk, other in ((a, b), (b, a)):
                    new = encode_masks(n, other, blk | v, c)
                    if new not in have and encode_masks(n, other, v, c | blk) in have:
                        have.add(new)
                        grown.append(new)
        level = grown
    return sorted(have)


def close_codes(n: int, codes, flags: int) -> list[int]:
    """cl(``codes``) under the semi-graphoid axioms and ``flags``, as
    sorted codes: ``elementary_closure`` to its fixpoint, listed by
    ``semi_graphoid_codes``.  The package closes through
    ``closure.close_codes``; ``perfbench``'s parity gate calls this."""
    return semi_graphoid_codes(n, elementary_closure(n, codes, flags))
