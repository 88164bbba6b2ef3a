"""Closure of independence models under the semi-graphoid axioms and,
optionally, intersection and composition.

A semi-graphoid closes under symmetry, decomposition, weak union and
contraction; a graphoid adds intersection, a compositional
semi-graphoid adds composition instead, and a compositional graphoid
has all six.  Symmetry never fires explicitly: canonical triples
identify <A,B|C> with <B,A|C>.  Intersection is applied without any
positivity bookkeeping; whether it is a legitimate axiom for a given
model is the caller's call.

A semi-graphoid is fixed by its elementary triples <i, j | K>, one
vertex in each block: <A, B | C> is in it exactly when every <a, b | K>
with a in A, b in B and C ⊆ K ⊆ C ∪ A ∪ B − {a, b} is, and the
elementary triples of cl(P) are the closure of P's elementary parts
under the elementary rules (Matúš 1992; Studený 2005; Lněnička & Matúš
2007).  So there is one closure engine, the kernel's
``elementary_closure``: a FIFO worklist over a table of neighbour masks
that fires each elementary triple once through ``elementary_rules``.
``close_codes`` runs it once.  Given a model M that ``closed_target``
has shown to be a compositional graphoid and P ⊆ M, the worklist stops
as soon as it has seen all of M's elementary triples, and the call
returns M.  Otherwise the worklist reaches its fixpoint, and
``semi_graphoid_codes`` lists cl(P) from it by the chain rule.  M is a
compositional graphoid exactly when it is pairwise, so that each code's
pairs are elementary triples of M and the m model's biclique search
counts as many triples from them as M holds, and those triples obey the
elementary rules with intersection and composition; ``closed_target``
checks both.

Triples are encoded as the kernel's codes ``a | b << n | c << 2n``, the
three vertex masks side by side.  The ground set is capped
(``config.model_cap``) because a model over n vertices holds up to
about 4**n / 2 triples, and listing a closure costs at least one step
per triple it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._kernels.pyfallback import (COMPOSITION, INTERSECTION, biclique_count, elementary_closure,
                                  elementary_rules, semi_graphoid_codes)
from .config import check_cap, model_cap
from .errors import UnknownName
from .triples import IndependenceModel, _ground_set, first_difference


@dataclass(frozen=True)
class AxiomSet:
    """The axioms a closure applies: the semi-graphoid ones, always, and
    optionally intersection and composition.  ``AxiomSet()`` is sg."""

    intersection: bool = False
    composition: bool = False

    def flags(self) -> int:
        return INTERSECTION * self.intersection | COMPOSITION * self.composition

    @classmethod
    def semi_graphoid(cls) -> "AxiomSet":
        return cls()

    @classmethod
    def graphoid(cls) -> "AxiomSet":
        return cls(intersection=True)

    @classmethod
    def compositional_semi_graphoid(cls) -> "AxiomSet":
        return cls(composition=True)

    @classmethod
    def compositional_graphoid(cls) -> "AxiomSet":
        return cls(intersection=True, composition=True)

    @classmethod
    def parse(cls, name: str) -> "AxiomSet":
        table = {
            "sg": cls.semi_graphoid,
            "g": cls.graphoid,
            "csg": cls.compositional_semi_graphoid,
            "cg": cls.compositional_graphoid,
        }
        if name not in table:
            raise UnknownName(f"unknown axiom set {name!r}; expected sg|g|csg|cg")
        return table[name]()


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


def close_codes(n: int, codes, axioms: AxiomSet, target=None) -> list[int]:
    """cl(P) of P = ``codes`` under ``axioms``, as sorted codes.

    One elementary worklist decides it.  ``target`` is what
    ``closed_target`` returns for a model M closed under the
    compositional-graphoid axioms.  When P lies in M, cl(P) lies in M,
    so its elementary triples are among M's, and the worklist stops as
    soon as it has seen all of them: cl(P) is then M.  Otherwise the
    worklist reaches its fixpoint, and cl(P) is listed from its
    elementary triples.  M was built under the cap, so only a call
    without a target checks it.
    """
    goal = None
    if target is None:
        check_cap(n, model_cap())
    elif target[1].issuperset(codes):
        goal = target[2]
    elementary = elementary_closure(n, codes, axioms.flags(), goal)
    if len(elementary) == goal:
        return target[0]
    return semi_graphoid_codes(n, elementary)


def close(model: IndependenceModel, axioms: AxiomSet) -> IndependenceModel:
    """Least superset of ``model`` closed under the enabled axioms."""
    out = close_codes(model.n, model.to_codes(), axioms)
    return IndependenceModel.from_codes(model.n, out)


def equivalent_under(m1: IndependenceModel, m2: IndependenceModel, axioms: AxiomSet) -> bool:
    """Whether the two models generate the same closure."""
    n = _ground_set(m1, m2)
    return close_codes(n, m1.to_codes(), axioms) == close_codes(n, m2.to_codes(), axioms)


def satisfies(model: IndependenceModel, axioms: AxiomSet) -> CheckResult:
    """Whether the model is already closed, that is cl(M) == M; if not,
    the witness is the first triple of cl(M) outside M, in the order
    ``first_difference`` reports."""
    codes = model.to_codes()
    closed = close_codes(model.n, codes, axioms)
    if closed == codes:
        return CheckResult(True)
    return CheckResult(False, first_difference(model.n, closed, codes)[0])


def closed_target(n: int, codes) -> Optional[tuple[list[int], frozenset[int], int]]:
    """The model M = ``codes`` (canonical codes, as a model holds them) as
    ``close_codes`` takes it for a target: its sorted codes, its code set
    and the number of its elementary triples; None when M is not closed
    under the compositional-graphoid axioms.

    M is closed under them exactly when it is pairwise, that is <a, b | c>
    is in M exactly when every <i, j | c> with i in a and j in b is, and
    its elementary triples obey ``elementary_rules`` with intersection and
    composition.  The first holds when every code of M has its pairs in
    M's elementary triples and ``biclique_count`` finds as many pairwise
    triples as M holds; the second when no rule fired from an elementary
    triple of M concludes one outside it.
    """
    full = (1 << n) - 1
    size = 1 << n
    model = frozenset(codes)
    table = [0] * (n << n)
    elementary = []
    for code in model:
        a, b, c = code & full, code >> n & full, code >> 2 * n
        if not (a & (a - 1) or b & (b - 1)):
            x, y = a.bit_length() - 1, b.bit_length() - 1
            table[x << n | c] |= b
            table[y << n | c] |= a
            elementary.append((x, y, c))
    for code in model:
        a, b, c = code & full, code >> n & full, code >> 2 * n
        while a:
            low = a & -a
            a ^= low
            if b & ~table[(low.bit_length() - 1) << n | c]:
                return None
    given = {c for _, _, c in elementary}
    if sum(biclique_count(n, c, table[c::size]) for c in given) != len(model):
        return None

    missing = []
    fire = elementary_rules(n, INTERSECTION | COMPOSITION, table,
                            lambda i, js, K: missing.append((i, js, K)))
    for triple in elementary:
        fire(*triple)
        if missing:
            return None
    return sorted(model), model, len(elementary)
