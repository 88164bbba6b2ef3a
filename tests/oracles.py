"""Independent brute-force oracles used to cross-check the library.

Everything here works on explicit edge lists and frozensets, enumerates
simple paths or whole subset lattices, and shares no code with the
package internals.  Slow on purpose; only run at desk scale.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations, product


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
