"""Independent brute-force oracles used to cross-check the library.

Everything here works on explicit edge lists and frozensets, enumerates
simple paths or whole subset lattices, and shares no code with the
package internals, except ``fire_closedness``, which fires the package's
elementary rules.  Slow on purpose; only run at desk scale.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations, product
from math import comb


def powerset(iterable):
    items = list(iterable)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def oracle_ancestors(n, directed, xs):
    """Reflexive ancestor set via repeated scans of the edge list."""
    out = set(xs)
    changed = True
    while changed:
        changed = False
        for (t, h) in directed:
            if h in out and t not in out:
                out.add(t)
                changed = True
    return out


def oracle_descendants(n, directed, xs):
    out = set(xs)
    changed = True
    while changed:
        changed = False
        for (t, h) in directed:
            if t in out and h not in out:
                out.add(h)
                changed = True
    return out


def oracle_is_chain_graph(n, directed, bidirected):
    """No semi-directed cycle: from the head of any directed edge, following
    directed edges forward and bidirected edges both ways must not reach
    the tail."""
    step = {v: set() for v in range(n)}
    for (t, h) in directed:
        step[t].add(h)
    for (u, v) in bidirected:
        step[u].add(v)
        step[v].add(u)
    for (t, h) in directed:
        seen = {h}
        stack = [h]
        while stack:
            cur = stack.pop()
            for nxt in step[cur]:
                if nxt == t:
                    return False
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return True


def oracle_enumerate(n, states):
    """``(directed, bidirected)`` edge lists of every chain graph on ``n``
    vertices whose pair states, 0 (none), 1 (->), 2 (<-) or 3 (<->), come
    from ``states``: every assignment in ``product`` order, each kept when
    ``oracle_is_chain_graph`` accepts it."""
    pairs = list(combinations(range(n), 2))
    for assignment in product(states, repeat=len(pairs)):
        directed = [(u, v) if s == 1 else (v, u)
                    for (u, v), s in zip(pairs, assignment) if s in (1, 2)]
        bidirected = [p for p, s in zip(pairs, assignment) if s == 3]
        if oracle_is_chain_graph(n, directed, bidirected):
            yield directed, bidirected


def _signed_bidirected_graphs(t):
    """s(t): the sum of (-1)**(c(H) + 1) over the bidirected graphs H on
    ``t`` labeled vertices, c(H) their component counts, by listing them."""
    pairs = list(combinations(range(t), 2))
    total = 0
    for edges in powerset(pairs):
        comp = list(range(t))
        for u, v in edges:
            cu, cv = comp[u], comp[v]
            comp = [cu if c == cv else c for c in comp]
        total += (-1) ** (len(set(comp)) + 1)
    return total


def count_labeled_mvr_cgs(n):
    """Labeled chain graphs on ``n`` vertices by the recursion
    f(n) = sum over t of C(n, t) s(t) 2**(t(n - t)) f(n - t), f(0) = 1:
    inclusion-exclusion over the t vertices of a union of chain components
    without children, their bidirected graph H signed by c(H) as in s(t);
    each of the t(n - t) pairs between them and the rest is empty or
    points into them.  This extends Robinson's DAG recursion below."""
    signs = [None] + [_signed_bidirected_graphs(t) for t in range(1, n + 1)]
    f = [1]
    for m in range(1, n + 1):
        f.append(sum(comb(m, t) * signs[t] * 2 ** (t * (m - t)) * f[m - t]
                     for t in range(1, m + 1)))
    return f[n]


def count_labeled_dags(n):
    """Labeled DAGs on ``n`` vertices by Robinson's recursion (1973),
    a(n) = sum over k of (-1)**(k + 1) C(n, k) 2**(k(n - k)) a(n - k)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum((-1) ** (k + 1) * comb(m, k) * 2 ** (k * (m - k)) * a[m - k]
                     for k in range(1, m + 1)))
    return a[n]


def oracle_partially_directed_cycles(n, directed, bidirected):
    """Every simple cycle that follows edges forward or bidirected edges
    either way and uses at least one directed edge, as a vertex list
    whose first and last entries coincide, in every rotation."""
    def step(a, b):
        return (a, b) in directed or (a, b) in bidirected or (b, a) in bidirected

    cycles = []
    for k in range(2, n + 1):
        for seq in permutations(range(n), k):
            walk = list(seq) + [seq[0]]
            pairs = list(zip(walk, walk[1:]))
            if all(step(a, b) for a, b in pairs) and any(p in directed for p in pairs):
                cycles.append(walk)
    return cycles


def _edge(directed, bidirected, a, b):
    """Edge marks as (arrow_at_a, arrow_at_b), or None."""
    if (a, b) in directed:
        return (False, True)
    if (b, a) in directed:
        return (True, False)
    if (a, b) in bidirected or (b, a) in bidirected:
        return (True, True)
    return None


def oracle_m_separated(n, directed, bidirected, X, Y, Z):
    """Simple-path enumeration of the separation criterion."""
    X, Y, Z = set(X), set(Y), set(Z)
    anz = oracle_ancestors(n, directed, Z)
    others = [v for v in range(n)]
    for x in X:
        for y in Y:
            for k in range(0, n - 1):
                for interior in permutations([v for v in others if v not in (x, y)], k):
                    path = [x, *interior, y]
                    marks = [_edge(directed, bidirected, a, b)
                             for a, b in zip(path, path[1:])]
                    if any(m is None for m in marks):
                        continue
                    ok = True
                    for i, v in enumerate(interior, start=1):
                        collider = marks[i - 1][1] and marks[i][0]
                        if collider:
                            if v not in anz:
                                ok = False
                                break
                        elif v in Z:
                            ok = False
                            break
                    if ok:
                        return False  # m-connecting path found
    return True


def oracle_canonical_codes(n):
    """Every (code, a, b, c) with nonempty blocks a and b and the lowest
    block vertex in a, found by labelling each vertex 0 (absent), 1 (a),
    2 (b) or 3 (c); sorted by the code ``a | b << n | c << 2n``."""
    out = []
    for labels in product(range(4), repeat=n):
        blocks = [0, 0, 0, 0]
        for v, label in enumerate(labels):
            blocks[label] |= 1 << v
        _, a, b, c = blocks
        if a and b and (a & -a) < (b & -b):
            out.append((a | b << n | c << 2 * n, a, b, c))
    return sorted(out)


def base4_code(n, code):
    """The base-4 number of the triple with code ``a | b << n | c << 2n``:
    digit 1, 2 or 3 at position v when vertex v is in a, b or c.  Digests
    pinned over base-4 numbers stay comparable across encodings."""
    blocks = (code & (1 << n) - 1, code >> n & (1 << n) - 1, code >> 2 * n)
    return sum(digit << 2 * v for digit, block in enumerate(blocks, start=1)
               for v in range(n) if block >> v & 1)


def _canon(t):
    a, b, c = t
    a, b = sorted((frozenset(a), frozenset(b)), key=sorted)
    return (a, b, frozenset(c))


def oracle_closure(triples, axioms, once=False):
    """Naive fixpoint over frozenset triples; axioms by name.

    Subset-level decomposition and weak union (not single-vertex steps),
    scanning all pairs each round until nothing changes, or, with
    ``once``, for one round, which adds nothing exactly when the triples
    are closed.
    """
    model = {_canon(t) for t in triples}
    changed = True
    while changed:
        changed = False
        new = set()

        def add(a, b, c):
            if a and b:
                t = _canon((a, b, c))
                if t not in model and t not in new:
                    new.add(t)

        for (a, b, c) in model:
            for (blk, other) in ((a, b), (b, a)):
                for keep in powerset(blk):
                    keep = frozenset(keep)
                    if not keep or keep == blk:
                        continue
                    dropped = blk - keep
                    if "decomposition" in axioms or "contraction" in axioms:
                        add(keep, other, c)
                    if "weak_union" in axioms or "contraction" in axioms:
                        add(keep, other, c | dropped)
        for t1 in list(model):
            for t2 in list(model):
                for (a1, b1) in ((t1[0], t1[1]), (t1[1], t1[0])):
                    for (a2, b2) in ((t2[0], t2[1]), (t2[1], t2[0])):
                        if a1 != a2:
                            continue
                        c1, c2 = t1[2], t2[2]
                        if "contraction" in axioms and c1 == (c2 | b2) and not (c2 & b2):
                            add(a1, b1 | b2, c2)
                        if "composition" in axioms and c1 == c2 and not (b1 & b2):
                            add(a1, b1 | b2, c1)
                        if "intersection" in axioms and b2 <= c1 and c2 == (c1 - b2) | b1:
                            add(a1, b1 | b2, c1 - b2)
        if new:
            model |= new
            changed = not once
    return model


def elementary_codes(n, codes):
    """The codes of ``codes`` whose two blocks hold one vertex each."""
    full = (1 << n) - 1
    return {code for code in codes
            if bin(code & full).count("1") == bin(code >> n & full).count("1") == 1}


def elementary_table(n, codes):
    """The elementary codes of ``codes`` as a table of neighbour masks:
    entry ``i << n | K`` holds bit j for each <i, j | K>, both ways."""
    full = (1 << n) - 1
    table = [0] * (n << n)
    for code in elementary_codes(n, codes):
        i, j, K = (code & full).bit_length() - 1, (code >> n & full).bit_length() - 1, code >> 2 * n
        table[i << n | K] |= 1 << j
        table[j << n | K] |= 1 << i
    return table


def semi_graphoid_from_parts(n, table):
    """The sorted codes of the semi-graphoid whose elementary triples are
    the neighbour-mask ``table``, by its definition: each canonical
    <A, B | C> of ``oracle_canonical_codes`` whose every elementary part
    <i, j | K>, i in A, j in B and C ⊆ K ⊆ C ∪ A ∪ B − {i, j}, is in
    ``table``."""
    out = []
    for code, a, b, c in oracle_canonical_codes(n):
        free = [v for v in range(n) if (a | b) >> v & 1]
        parts = [(i, j, c | sum(1 << v for v in rest))
                 for i in free if a >> i & 1 for j in free if b >> j & 1
                 for r in range(len(free) + 1) for rest in combinations(free, r)
                 if i not in rest and j not in rest]
        if all(table[i << n | K] >> j & 1 for i, j, K in parts):
            out.append(code)
    return out


def one_pair_changes(n, table, change):
    """Copies of the neighbour-mask ``table`` with one pair <i, j | K>
    dropped (``change == "drop"``) or added (``"add"``), both ways: one
    copy per pair that the table holds or lacks."""
    out = []
    for i, j in combinations(range(n), 2):
        for K in range(1 << n):
            if K >> i & 1 or K >> j & 1 or (table[i << n | K] >> j & 1) != (change == "drop"):
                continue
            changed = list(table)
            changed[i << n | K] ^= 1 << j
            changed[j << n | K] ^= 1 << i
            out.append(changed)
    return out


def fire_closedness(n, table):
    """Whether the pairwise model of the neighbour-mask ``table`` (entry
    ``i << n | K`` holding bit j for each <i, j | K>, both ways) is closed
    under the compositional-graphoid axioms, proved by firing: each of its
    elementary triples goes once through the package's
    ``elementary_rules`` with intersection and composition, and no rule
    may conclude a triple outside the table.  A pairwise model is closed
    exactly when its elementary triples obey those rules.  This was
    ``closed_target``'s proof before it read the rows; it holds that
    row proof to the rules the worklist fires."""
    from mvrcg._kernels.pyfallback import COMPOSITION, INTERSECTION, elementary_rules

    missing = []
    fire = elementary_rules(n, INTERSECTION | COMPOSITION, table,
                            lambda i, js, K: missing.append((i, js, K)))
    full = (1 << n) - 1
    for row, ys in enumerate(table):
        i = row >> n
        for j in range(i + 1, n):  # each pair once: j above i
            if ys >> j & 1:
                fire(i, j, row & full)
                if missing:
                    return False
    return True


AXIOM_NAMES = {
    "sg": {"decomposition", "weak_union", "contraction"},
    "g": {"decomposition", "weak_union", "contraction", "intersection"},
    "csg": {"decomposition", "weak_union", "contraction", "composition"},
    "cg": {"decomposition", "weak_union", "contraction", "intersection", "composition"},
}


def oracle_district(n, bidirected, v, allowed=None):
    allowed = set(range(n)) if allowed is None else set(allowed)
    if v not in allowed:
        return set()
    out = {v}
    changed = True
    while changed:
        changed = False
        for (a, b) in bidirected:
            if a in out and b in allowed and b not in out:
                out.add(b)
                changed = True
            if b in out and a in allowed and a not in out:
                out.add(a)
                changed = True
    return out


def oracle_is_head(n, directed, bidirected, H):
    H = set(H)
    if not H:
        return False
    for v in H:
        if (oracle_descendants(n, directed, [v]) & H) != {v}:
            return False
    anh = oracle_ancestors(n, directed, H)
    first = min(H)
    allowed_bi = [(a, b) for (a, b) in bidirected if a in anh and b in anh]
    if not H <= oracle_district(n, allowed_bi, first, anh):
        return False
    return True


def oracle_tail(n, directed, bidirected, H):
    H = set(H)
    anh = oracle_ancestors(n, directed, H)
    allowed_bi = [(a, b) for (a, b) in bidirected if a in anh and b in anh]
    dis = set()
    for v in H:
        dis |= oracle_district(n, allowed_bi, v, anh)
    pa = {t for (t, h) in directed if h in dis} - dis
    return (dis - H) | pa


def _oracle_marginal(probs_by_assignment, variables, keep):
    out = {}
    for assign, p in probs_by_assignment.items():
        key = tuple(assign[variables.index(v)] for v in keep)
        out[key] = out.get(key, 0.0) + p
    return out


def oracle_ci(probs_by_assignment, variables, A, B, C, eps):
    """Loop-based conditional independence check on a dict table."""
    A, B, C = list(A), list(B), list(C)

    pabc, pc, pac, pbc = (_oracle_marginal(probs_by_assignment, variables, keep)
                          for keep in (A + B + C, C, A + C, B + C))
    for key, p in pabc.items():
        ka, kb, kc = key[:len(A)], key[len(A):len(A) + len(B)], key[len(A) + len(B):]
        if pc[kc] <= 0:
            continue
        lhs = p / pc[kc]
        rhs = (pac[ka + kc] / pc[kc]) * (pbc[kb + kc] / pc[kc])
        if abs(lhs - rhs) > eps:
            return False
    return True


def oracle_factorization(probs_by_assignment, variables, factors, eps):
    """Loop-based check that the dict table equals, at every assignment,
    the product of p(head | tail) over the (head, tail) factors, a factor
    counting 1 where p(tail) = 0."""
    conditionals = []
    for head, tail in factors:
        both, tail = list(head) + list(tail), list(tail)
        conditionals.append((both, _oracle_marginal(probs_by_assignment, variables, both),
                             tail, _oracle_marginal(probs_by_assignment, variables, tail)))
    for assign, p in probs_by_assignment.items():
        value = dict(zip(variables, assign))
        product = 1.0
        for both, p_both, tail, p_tail in conditionals:
            pt = p_tail[tuple(value[v] for v in tail)]
            if pt > 0:
                product *= p_both[tuple(value[v] for v in both)] / pt
        if abs(p - product) > eps:
            return False
    return True
