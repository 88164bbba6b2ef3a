"""Fixpoint closure of independence models under selectable axioms.

The six axioms: symmetry, decomposition, weak union, contraction (a
biconditional, so its reverse direction is also applied), intersection
and composition.  A semi-graphoid closes under the first four, a
graphoid adds intersection, a compositional semi-graphoid adds
composition instead, and a compositional graphoid satisfies all six.

Symmetry never fires explicitly: canonical triples identify <A,B|C>
with <B,A|C>, so ``AxiomSet`` has no field for it.  Intersection is
applied without any positivity bookkeeping; whether it is a legitimate
axiom for a given model is the caller's call.

The rules are stated once, in the kernel's ``axiom_rules``, whose
``(anchor, c)`` / ``(anchor, c | blk)`` index finds partner triples.
Two loops fire them: ``closure_keys``, a FIFO worklist that fires each
triple it derives once up to the fixpoint, and ``first_violation``,
which fires each triple of a model once and stops at the first
conclusion outside it.  Closing a model and checking that it is closed
cost about the same: one fire per triple, each joined with the triples
filed under its blocks.

``close_codes`` is the one closure call.  Given a model M that
``closed_target`` has shown to be a compositional graphoid, P ⊆ M and
axioms that include the semi-graphoid ones, it decides cl(P) = M on
elementary triples <i, j | K>, one vertex in each block.  The
elementary triples of cl(P) are the closure of P's elementary parts
under the elementary rules (Matúš 1992; Studený 2005; Lněnička & Matúš
2007), and semi-graphoids with the same elementary triples are equal.
So the kernel's ``elementary_closure``, a FIFO worklist over a table of
neighbour masks that fires each elementary triple once through
``elementary_rules``, stops as soon as it has seen all of M's
elementary triples, and the call returns M.  Any other call, a failing
check included, runs ``closure_keys`` to its fixpoint.  M is a
compositional graphoid exactly when it is pairwise, so that each code's
pairs are elementary triples of M and the m model's biclique search
counts as many triples from them as M holds, and those triples obey the
elementary rules with intersection and composition; ``closed_target``
checks both.

Triples are encoded as the kernel's codes ``a | b << n | c << 2n``, the
three vertex masks side by side, which the rules fire on directly.
The ground set is capped (``config.model_cap``) because a model over n
vertices holds up to about 4**n / 2 triples, and a separation model's
enumeration costs at least one step per triple it holds.  The closure
joins through indexes and keeps no 4**n table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._kernels.pyfallback import (COMPOSITION, CONTRACTION, DECOMPOSITION, INTERSECTION,
                                  WEAK_UNION, biclique_count, closure_keys,
                                  elementary_closure, elementary_rules, first_violation)
from .config import check_cap, model_cap
from .errors import UnknownName
from .triples import IndependenceModel, IndependenceTriple, _ground_set, triple_from_masks


# Each axiom field of ``AxiomSet`` and the kernel rule bit it enables.
_RULE_BITS = {"decomposition": DECOMPOSITION, "weak_union": WEAK_UNION,
              "contraction": CONTRACTION, "intersection": INTERSECTION,
              "composition": COMPOSITION}
_RULE_NAMES = {bit: name for name, bit in _RULE_BITS.items()}


@dataclass(frozen=True)
class AxiomSet:
    """The axioms a closure applies besides symmetry, which the canonical
    triple encoding always provides."""

    decomposition: bool = False
    weak_union: bool = False
    contraction: bool = False
    intersection: bool = False
    composition: bool = False

    def flags(self) -> int:
        return sum(bit for name, bit in _RULE_BITS.items() if getattr(self, name))

    @classmethod
    def semi_graphoid(cls) -> "AxiomSet":
        return cls(decomposition=True, weak_union=True, contraction=True)

    @classmethod
    def graphoid(cls) -> "AxiomSet":
        return cls(decomposition=True, weak_union=True, contraction=True, intersection=True)

    @classmethod
    def compositional_semi_graphoid(cls) -> "AxiomSet":
        return cls(decomposition=True, weak_union=True, contraction=True, composition=True)

    @classmethod
    def compositional_graphoid(cls) -> "AxiomSet":
        return cls(**dict.fromkeys(_RULE_BITS, True))

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
class Violation:
    """One failed axiom instance: premises that hold, a conclusion that
    does not."""

    axiom: str
    premises: tuple[IndependenceTriple, ...]
    conclusion: IndependenceTriple

    def __str__(self):
        prem = " and ".join(f"<{p}>" for p in self.premises)
        return f"{self.axiom}: {prem} requires <{self.conclusion}>"


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


def close_codes(n: int, codes, axioms: AxiomSet, target=None) -> list[int]:
    """cl(P) of P = ``codes`` under ``axioms``, as sorted codes.

    ``target`` is what ``closed_target`` returns for a model M closed
    under the compositional-graphoid axioms.  When ``axioms`` hold the
    semi-graphoid ones (contraction implies them) and P lies in M, cl(P)
    lies in M, and its elementary triples are the elementary closure of
    P's elementary parts.  Semi-graphoids with the same elementary triples
    are equal, so cl(P) is M as soon as that worklist has seen all of M's
    elementary triples, and it stops there.  Otherwise, and on any other
    call, ``closure_keys`` closes P to its fixpoint.  M was built under
    the cap, so only a call without a target checks it.
    """
    flags = axioms.flags()
    if target is None:
        check_cap(n, model_cap())
    elif flags & CONTRACTION and target[1].issuperset(codes):
        model, _, goal = target
        if len(elementary_closure(n, codes, flags, goal)) == goal:
            return model
    return sorted(closure_keys(n, codes, flags))


def close(model: IndependenceModel, axioms: AxiomSet) -> IndependenceModel:
    """Least superset of ``model`` closed under the enabled axioms."""
    out = close_codes(model.n, model.to_codes(), axioms)
    return IndependenceModel.from_codes(model.n, out)


def equivalent_under(m1: IndependenceModel, m2: IndependenceModel, axioms: AxiomSet) -> bool:
    """Whether the two models generate the same closure."""
    n = _ground_set(m1, m2)
    return close_codes(n, m1.to_codes(), axioms) == close_codes(n, m2.to_codes(), axioms)


def satisfies(model: IndependenceModel, axioms: AxiomSet) -> CheckResult:
    """Whether the model is already closed; if not, one violating axiom
    instance is returned as a witness.

    A model is closed exactly when no single rule step from its own
    triples concludes a triple outside it: the kernel's
    ``first_violation`` fires each triple of the model once, joined
    against the ones fired before it, until a conclusion is missing.
    """
    check_cap(model.n, model_cap())
    n = model.n
    flags = axioms.flags()
    found = first_violation(n, model.to_codes(), flags)
    if found is None:
        return CheckResult(True)

    premise, (a, b, c, rule, entry) = found
    premises = (premise,)
    if entry is None:  # a unary step: weak union if it moved a vertex into c
        rule = WEAK_UNION if c != premise[2] else DECOMPOSITION
        if not rule & flags:
            rule = CONTRACTION
    else:
        premises += ((a, *entry),)
    return CheckResult(False, Violation(
        _RULE_NAMES[rule], tuple(triple_from_masks(*p) for p in premises),
        triple_from_masks(a, b, c)))


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
    fire = elementary_rules(n, CONTRACTION | INTERSECTION | COMPOSITION, table,
                            lambda i, js, K: missing.append((i, js, K)))
    for triple in elementary:
        fire(*triple)
        if missing:
            return None
    return sorted(model), model, len(elementary)
