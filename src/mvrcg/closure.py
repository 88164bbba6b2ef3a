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
triple it derives once, and ``first_violation``, which fires each triple
of a model once and stops at the first conclusion outside it.  Closing a
model and checking that it is closed cost about the same: one fire per
triple, each joined with the triples filed under its blocks.

``close_codes`` is the one closure call.  Given a closed model M as
``closed_target`` returns it, it stops the worklist from P once it has
derived M's dominant triples, from which single-vertex drops and moves
derive the rest of M, and returns M itself; a worklist that misses them
has run to its fixpoint, and its triples are cl(P).

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
                                  WEAK_UNION, closure_keys, dominant_keys, encode_masks,
                                  first_violation)
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
    under ``axioms``.  cl(P) lies in M when P does, because M is closed.
    It holds M when it holds M's dominant triples, because every triple
    of M comes from a dominant one by single-vertex drops and moves, which
    the axioms apply when they enable decomposition and weak union
    (contraction enables both).  So when those hold, the worklist from P
    stops as soon as it has seen every dominant code, and M is cl(P).  A
    worklist that never sees them all runs to its fixpoint, and what it
    has seen is cl(P).  M was built under the cap, so only a call without
    a target checks it.
    """
    flags = axioms.flags()
    stop = None
    if target is None:
        check_cap(n, model_cap())
    elif (flags & (DECOMPOSITION | CONTRACTION) and flags & (WEAK_UNION | CONTRACTION)
          and target[1].issuperset(codes)):
        stop = target[2]
    seen = closure_keys(n, codes, flags, stop)
    if stop is not None and stop <= seen:
        return target[0]
    return sorted(seen)


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
    found = first_violation(n, [encode_masks(n, *t.masks()) for t in model], flags)
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


def closed_target(n: int, codes,
                  axiom_sets) -> Optional[tuple[list[int], frozenset[int], set[int]]]:
    """The model M = ``codes`` as ``close_codes`` takes it for a target:
    its sorted codes, its code set and the codes of its dominant triples.
    None if one pass of ``first_violation`` finds M not closed under the
    union of ``axiom_sets``.  A model closed under a union of rules is
    closed under each part of it."""
    flags = 0
    for axioms in axiom_sets:
        flags |= axioms.flags()
    if first_violation(n, codes, flags) is not None:
        return None
    model = frozenset(codes)
    return sorted(model), model, dominant_keys(n, model)
