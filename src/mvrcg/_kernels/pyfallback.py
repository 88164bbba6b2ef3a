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

from functools import lru_cache

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

    The search grows ``a`` in ascending vertex order from its lowest
    vertex and carries ``common``, the intersection of ``apart`` over
    ``a`` above the lowest vertex, so each node stands for the triples
    with ``b`` a nonempty subset of ``common``.  It stops where
    ``common`` is empty, so it costs a few steps per code it lists.
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
            # b is each nonempty subset of common: the subset sums of its bits
            part = [base | a]
            bs = common << n
            while bs:
                w = bs & -bs
                bs ^= w
                part += [x + w for x in part]
            out += part[1:]
            while grow:
                w = grow & -grow
                grow ^= w
                common_w = common & apart[w.bit_length() - 1] & ~w
                if common_w:
                    stack.append((a | w, common_w, grow))
    return out


@lru_cache(maxsize=16)
def world_patterns(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The conditioning sets over ``n`` vertices as worlds, one bit each:
    ``notin[w]`` has bit c set when c does not hold vertex w, and
    ``blocks[w]`` is that pattern repeated in each of n blocks of 2^n
    bits, one block per source of ``m_world_reach``.  The patterns depend
    on ``n`` alone, so they are memoised by it."""
    size = 1 << n
    notin = tuple(sum(1 << c for c in range(size) if not c >> w & 1) for w in range(n))
    repeat = sum(1 << v * size for v in range(n))
    return notin, tuple(m * repeat for m in notin)


def m_world_reach(n: int, pa, ch, nb, sources: int) -> tuple[list[int], int]:
    """The vertices that an m-connecting walk from each vertex of
    ``sources`` reaches, given every conditioning set at once, as one
    fixpoint over the vertices.

    A walk's states are (vertex, arrived-with-arrowhead) pairs, and it
    crosses an interior vertex as a noncollider only outside the
    conditioning set c and as a collider only inside an(c): the rules of
    ``separation._m_walk``, the single-query walk.  Each c is a world, and
    a vertex's state is a mask over worlds: bit c of ``head[w]``
    (``tail[w]``) says that w is reached with an arrowhead (a tail) at it
    given c.  The sources sit side by side, source v in block v of n·2^n
    bits, and start in the worlds that do not hold v.  The rules act on
    whole masks: w is crossed as a noncollider in the worlds that do not
    hold it and as a collider in those that meet its descendants, the
    worlds where it is in an(c).  A tail-arrival goes on to w's children
    and neighbours with a head and to its parents with a tail; a
    head-arrival goes on to its children with a head as a noncollider,
    and to its neighbours with a head and its parents with a tail as a
    collider.

    The vertices are swept in order, each passing its whole state on,
    until a sweep grows no mask.  Returns ``reach``, bit v·2^n + c of
    ``reach[w]`` set when the walk from v given c reaches w, and the
    number of steps, the visits to a vertex already reached.
    """
    size = 1 << n
    notin, blocks = world_patterns(n)
    every = (1 << n * size) - 1
    collider = []  # the worlds c, in every block, with the vertex in an(c)
    for w in range(n):
        out = every
        for d in bits(reach_mask(ch, 1 << w)):
            out &= blocks[d]
        collider.append(every ^ out)
    head = [0] * n
    tail = [0] * n
    for v in bits(sources):
        start = notin[v] << v * size
        for u in bits(ch[v] | nb[v]):
            head[u] |= start
        for u in bits(pa[v]):
            tail[u] |= start
    steps = 0
    before = None
    while before != head + tail:
        before = head + tail
        for w in range(n):
            h, t = head[w], tail[w]
            if h | t:
                steps += 1
                through = (h | t) & blocks[w]          # noncollider, on to children
                turn = t & blocks[w] | h & collider[w]  # on to neighbours and parents
                for u in bits(ch[w]):
                    head[u] |= through
                for u in bits(nb[w]):
                    head[u] |= turn
                for u in bits(pa[w]):
                    tail[u] |= turn
    return [h | t for h, t in zip(head, tail)], steps


def m_elementary_table(n: int, pa, ch, nb) -> list[int]:
    """The m model's elementary triples as a table of neighbour masks:
    ``table[i << n | c]`` holds each j with <i, j | c> m-separated.

    Adjacent vertices are never separated, and m-connection is symmetric,
    so vertex v walks only for its open vertices, those above it and not
    adjacent to it, and writes both rows of each pair.  The walks from
    every such v given every c are one ``m_world_reach``, sweeps over the
    n vertices, whose states are masks over the 2^n conditioning sets,
    until no state grows: w joins row (v, c) exactly when c holds neither
    v nor w and the walk from v given c does not reach w.  On 5 vertices
    the sweeps take no step on the edgeless graph (no walk leaves a
    vertex) nor on a complete one (no vertex has an open vertex), where
    one walk per vertex and conditioning set would take 75 walks.
    """
    size = 1 << n
    full = size - 1
    notin = world_patterns(n)[0]
    adj = [pa[v] | ch[v] | nb[v] for v in range(n)]
    opens = [full & ~adj[v] & -(2 << v) for v in range(n)]
    sources = 0
    for v in range(n):
        if opens[v]:
            sources |= 1 << v
    reach = m_world_reach(n, pa, ch, nb, sources)[0]
    table = [0] * (n << n)
    for v in range(n):
        bv = 1 << v
        rv = v << n
        m = opens[v]
        while m:
            bw = m & -m
            m ^= bw
            w = bw.bit_length() - 1
            rw = w << n
            apart = notin[v] & notin[w] & ~(reach[w] >> v * size)
            while apart:
                low = apart & -apart
                apart ^= low
                c = low.bit_length() - 1
                table[rv | c] |= bw
                table[rw | c] |= bv
    return table


def pairwise_codes(n: int, table) -> list[int]:
    """The sorted canonical codes of the pairwise model whose elementary
    triples are ``table`` (``table[i << n | c]`` holding each j with
    <i, j | c>, kept symmetric): each <a, b | c> whose pairs <i, j | c>,
    i in ``a`` and j in ``b``, are all in ``table``, listed by
    ``biclique_codes`` for each ``c`` whose rows are not all empty."""
    size = 1 << n
    out: list[int] = []
    for c in range(size):
        apart = table[c::size]
        if any(apart):
            out += biclique_codes(n, c, apart)
    out.sort()
    return out


def global_model_codes(n: int, pa, ch, nb) -> list[int]:
    """All separated canonical (X, Y | Z) codes over ``n`` vertices.

    The reach of a set is the union of its vertices' reaches, so <a, b | c>
    is separated exactly when every <i, j | c> with i in ``a`` and j in
    ``b`` is: the m model is pairwise, and ``pairwise_codes`` lists it
    from ``m_elementary_table``.  The cost is the table's one walk plus a
    few steps per separated code, instead of one walk per canonical code.
    """
    return pairwise_codes(n, m_elementary_table(n, pa, ch, nb))


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
      give <i, j | L>;
    * composition, under ``COMPOSITION``: <i, j | L> and <i, k | L> give
      <i, k | jL>.

    Intersection and composition are symmetric in their premises, so the
    later of the two to fire finds the other, and each states one of its
    two conclusions: the other follows by one semi-graphoid step from a
    pair the worklist fires anyway.  Intersection's <i, k | L> follows
    from <i, j | L> and <i, k | jL>, composition's <i, j | kL> from
    <i, k | jL> and <i, j | L>; the semi-graphoid rule fires on
    whichever of the two comes later.  The fixpoint is the same.
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
                if inter and table[L | bj] & low and not table[L] & bj:  # <i, k | jL>
                    emit(i, bj, K ^ low)
            m = table[row | bj]  # the fired triple as <i, k | L>, partners <i, m | jK>
            if m & ~table[row]:
                emit(i, m & ~table[row], K)
            if comp:
                partners = table[row] & ~bj  # <i, k | K>
                if partners & ~table[row | bj]:
                    emit(i, partners & ~table[row | bj], K | bj)
            while m:  # <i, j | mK> from each partner m
                low = m & -m
                m ^= low
                if not table[row | low] & bj:
                    emit(i, bj, K | low)

    return fire


class Seen(list):
    """What ``elementary_closure`` returns: the elementary triples its
    worklist has seen, in the order it saw them, each once as ``(x, y,
    K)``, and ``stop``, the stop it had reached: ``"goal"`` once it had
    seen ``goal`` triples, ``"known"`` once it had seen every seed of one
    of the ``known`` seed lists, None at its fixpoint short of both."""

    stop = None


def chain_seeds(n: int, codes) -> list[tuple[int, int]]:
    """``mask_seeds`` of canonical ``codes``."""
    full = (1 << n) - 1
    return mask_seeds(n, [(code & full, code >> n & full, code >> 2 * n) for code in codes])


def mask_seeds(n: int, triples) -> list[tuple[int, int]]:
    """The chain triples of ``(a, b, c)`` mask triples, the seeds
    ``elementary_closure`` takes for them, each as ``(x << n | K, 1 << y)``:
    its row of the worklist's table and its bit there.  Each triple is
    first put in its canonical order, the lowest block vertex in ``a``, as
    its code has it.  For <a, b | c> with a = {a_1 < a_2 < ...} and
    b = {b_1 < b_2 < ...} they are the <a_i, b_j | c a_<i b_<j>, and in a
    semi-graphoid <a, b | c> holds exactly when they do (the chain rule).
    A repeated triple repeats its seeds."""
    out = []
    for a, b, c in triples:
        if (a | b) & -(a | b) & b:
            a, b = b, a
        for x in bits(a):
            bx = 1 << x
            row = x << n | c | a & (bx - 1)
            for y in bits(b):
                by = 1 << y
                out.append((row | b & (by - 1), by))
    return out


def elementary_closure(n: int, seeds, flags: int, goal=None, known=()) -> Seen:
    """The elementary triples <x, y | K> of the closure of ``seeds`` under
    the semi-graphoid axioms and, by ``flags``, intersection and
    composition, each once as ``(x, y, K)``.

    ``seeds`` are elementary triples as ``mask_seeds`` and ``chain_seeds``
    give them, each ``(x << n | K, 1 << y)``.  For the chain triples of
    some statements they close to the closure of the statements
    themselves: by the chain rule the |a|·|b| chain triples of <a, b | c>
    generate it under the semi-graphoid axioms, and so all of its
    |a|·|b|·2^(|a|+|b|-2) elementary parts.  The worklist fires each
    triple it has not seen through ``elementary_rules`` once, in FIFO
    order, and stops at its fixpoint, as soon as it has seen ``goal``
    triples, or as soon as it has seen every ``(row, bit)`` of any one
    list in ``known`` (the seeds of a generator, say).  Each list waits on
    its first seed not seen yet, and the lists are looked at again only
    after a fire that pushed something.  ``stop`` on the result names the
    stop it reached; deciding what a stop shows is the caller's part.
    """
    full = (1 << n) - 1
    table = [0] * (n << n)
    work = Seen()

    def push(x: int, ys: int, K: int) -> None:
        table[x << n | K] |= ys
        bx = 1 << x
        while ys:
            low = ys & -ys
            ys ^= low
            y = low.bit_length() - 1
            table[y << n | K] |= bx
            work.append((x, y, K))

    for row, bit in seeds:
        if not table[row] & bit:
            push(row >> n, bit, row & full)
    # Each list of ``known`` waits on its first seed not seen yet, kept as
    # [the rest of the list, row, bit]; bit 0 means not looked at yet.  They
    # are set up at the first look, so a worklist that never looks sets up
    # none.
    waits = []

    def reached() -> bool:
        """Whether every seed of some list of ``known`` has been seen; moves
        each list past the seeds seen since it last looked."""
        if not waits:
            waits.extend([iter(stops), 0, 0] for stops in known)
        for wait in waits:
            rest, row, bit = wait
            if table[row] & bit == bit:  # seen, or not looked at yet
                for row, bit in rest:
                    if not table[row] & bit:
                        wait[1] = row
                        wait[2] = bit
                        break
                else:
                    return True
        return False

    size = len(work)
    done = size != goal and bool(known) and reached()
    if size and size != goal and not done:  # the rules are built only to fire
        fire = elementary_rules(n, flags, table, push)
        for triple in work:  # the loop also reaches the triples pushed as it runs
            fire(*triple)
            if len(work) != size:
                size = len(work)
                done = size != goal and bool(known) and reached()
                if size == goal or done:
                    break
    if done:
        work.stop = "known"
    if size == goal:
        work.stop = "goal"
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
    block's rest, was listed at a lower level.  A canonical code's first
    block a holds the lowest block vertex, below b's lowest, so the codes
    of a step need no general encoding: a ∪ v stays first, b ∪ v goes
    first only when v is below a's lowest vertex, and a block of one
    vertex v goes first when v is the lower of the two lowest vertices.
    """
    full = (1 << n) - 1
    have = {(1 << x | 1 << y << n if x < y else 1 << y | 1 << x << n) | K << 2 * n
            for x, y, K in elementary}
    level = list(have)
    while level:
        grown = []
        for code in level:
            a, b, c = code & full, code >> n & full, code >> 2 * n
            la, lb = a & -a, b & -b
            free = full & ~(a | b | c)
            while free:
                v = free & -free
                free ^= v
                # <Av, B | C> from <B, v | CA>
                new = code | v
                premise = (b | v << n if lb < v else v | b << n) | (c | a) << 2 * n
                if new not in have and premise in have:
                    have.add(new)
                    grown.append(new)
                # <A, Bv | C> from <A, v | CB>
                if la < v:
                    new = code | v << n
                    premise = a | v << n | (c | b) << 2 * n
                else:
                    new = b | v | a << n | c << 2 * n
                    premise = v | a << n | (c | b) << 2 * n
                if new not in have and premise in have:
                    have.add(new)
                    grown.append(new)
        level = grown
    return sorted(have)


def close_codes(n: int, codes, flags: int) -> list[int]:
    """cl(``codes``) under the semi-graphoid axioms and ``flags``, as
    sorted codes: ``elementary_closure`` from their ``chain_seeds`` to its
    fixpoint, listed by ``semi_graphoid_codes``."""
    return semi_graphoid_codes(n, elementary_closure(n, chain_seeds(n, codes), flags))
