"""Fixpoint closure of independence models under selectable axioms.

The six axioms: symmetry, decomposition, weak union, contraction (a
biconditional, so its reverse direction is also applied), intersection
and composition.  A semi-graphoid closes under the first four, a
graphoid adds intersection, a compositional semi-graphoid adds
composition instead, and a compositional graphoid satisfies all six.

Symmetry never fires explicitly: canonical triples identify <A,B|C>
with <B,A|C>.  Intersection is applied without any positivity bookkeeping;
whether it is a legitimate axiom for a given model is the caller's call.

Triples are encoded as base-4 vertex labellings (one digit per vertex).
The ground set is capped (``config.model_cap``) because a model over n
vertices holds up to about 4**n / 2 triples: enumerating a separation
model visits all 4**n codes, and the compiled closure kernel keeps a
4**n-slot membership bitmap.  The pure-Python kernel joins through
indexes and needs no such table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import _kernels
from ._bitset import bits
from ._kernels.pyfallback import encode_masks
from .config import model_cap
from .errors import CapExceeded
from .triples import IndependenceModel, IndependenceTriple, triple_from_masks


@dataclass(frozen=True)
class AxiomSet:
    symmetry: bool = True
    decomposition: bool = False
    weak_union: bool = False
    contraction: bool = False
    intersection: bool = False
    composition: bool = False

    def flags(self) -> int:
        f = 0
        if self.decomposition:
            f |= _kernels.DECOMPOSITION
        if self.weak_union:
            f |= _kernels.WEAK_UNION
        if self.contraction:
            f |= _kernels.CONTRACTION
        if self.intersection:
            f |= _kernels.INTERSECTION
        if self.composition:
            f |= _kernels.COMPOSITION
        return f

    @classmethod
    def semi_graphoid(cls) -> "AxiomSet":
        return cls(True, True, True, True, False, False)

    @classmethod
    def graphoid(cls) -> "AxiomSet":
        return cls(True, True, True, True, True, False)

    @classmethod
    def compositional_semi_graphoid(cls) -> "AxiomSet":
        return cls(True, True, True, True, False, True)

    @classmethod
    def compositional_graphoid(cls) -> "AxiomSet":
        return cls(True, True, True, True, True, True)

    @classmethod
    def parse(cls, name: str) -> "AxiomSet":
        table = {
            "sg": cls.semi_graphoid,
            "g": cls.graphoid,
            "csg": cls.compositional_semi_graphoid,
            "cg": cls.compositional_graphoid,
        }
        if name not in table:
            raise ValueError(f"unknown axiom set {name!r}; expected sg|g|csg|cg")
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


def _check_cap(n: int, cap: Optional[int]) -> None:
    limit = model_cap(cap)
    if n > limit:
        raise CapExceeded(f"ground set {n} exceeds cap {limit}")


def close_codes(n: int, codes, axioms: AxiomSet, cap: Optional[int] = None) -> list[int]:
    """Code-level closure; the fast path used by the sweep."""
    _check_cap(n, cap)
    return _kernels.close_codes(n, list(codes), axioms.flags())


def close(model: IndependenceModel, axioms: AxiomSet, cap: Optional[int] = None) -> IndependenceModel:
    """Least superset of ``model`` closed under the enabled axioms."""
    out = close_codes(model.n, model.to_codes(), axioms, cap)
    return IndependenceModel.from_codes(model.n, out)


def equivalent_under(m1: IndependenceModel, m2: IndependenceModel,
                     axioms: AxiomSet, cap: Optional[int] = None) -> bool:
    """Whether the two models generate the same closure."""
    if m1.n != m2.n:
        raise CapExceeded("models over different ground sets")
    return close_codes(m1.n, m1.to_codes(), axioms, cap) == \
        close_codes(m2.n, m2.to_codes(), axioms, cap)


def satisfies(model: IndependenceModel, axioms: AxiomSet,
              cap: Optional[int] = None) -> CheckResult:
    """Whether the model is already closed; if not, one violating axiom
    instance is returned as a witness.

    A model is closed exactly when no single axiom application produces
    a new triple, so one scan suffices.
    """
    _check_cap(model.n, cap)
    have = set(model.to_codes())
    n = model.n
    entries = [t.masks() for t in model]
    triples = list(model)

    def missing(a, b, c):
        return encode_masks(n, a, b, c) not in have

    for idx, (a, b, c) in enumerate(entries):
        t = triples[idx]
        for blk_is_a in (True, False):
            blk = a if blk_is_a else b
            if blk.bit_count() < 2:
                continue
            for v in bits(blk):
                low = 1 << v
                rest = blk ^ low
                na, nb = (rest, b) if blk_is_a else (a, rest)
                if axioms.decomposition and missing(na, nb, c):
                    return CheckResult(False, Violation(
                        "decomposition", (t,), triple_from_masks(na, nb, c)))
                if axioms.weak_union and missing(na, nb, c | low):
                    return CheckResult(False, Violation(
                        "weak_union", (t,), triple_from_masks(na, nb, c | low)))
                if axioms.contraction:
                    # reverse direction of the biconditional
                    if missing(na, nb, c | low):
                        return CheckResult(False, Violation(
                            "contraction", (t,), triple_from_masks(na, nb, c | low)))
                    if missing(na, nb, c):
                        return CheckResult(False, Violation(
                            "contraction", (t,), triple_from_masks(na, nb, c)))
    binary = axioms.contraction or axioms.intersection or axioms.composition
    if binary:
        for i, (a1, b1, c1) in enumerate(entries):
            for j, (a2, b2, c2) in enumerate(entries):
                for anchor1, blk1 in ((a1, b1), (b1, a1)):
                    for anchor2, blk2 in ((a2, b2), (b2, a2)):
                        if anchor1 != anchor2:
                            continue
                        if axioms.contraction and c1 == (c2 | blk2) and \
                                missing(anchor1, blk1 | blk2, c2):
                            return CheckResult(False, Violation(
                                "contraction", (triples[i], triples[j]),
                                triple_from_masks(anchor1, blk1 | blk2, c2)))
                        if axioms.composition and c1 == c2 and not blk1 & blk2 and \
                                missing(anchor1, blk1 | blk2, c1):
                            return CheckResult(False, Violation(
                                "composition", (triples[i], triples[j]),
                                triple_from_masks(anchor1, blk1 | blk2, c1)))
                        if axioms.intersection and blk2 & c1 == blk2 and \
                                c2 == ((c1 & ~blk2) | blk1) and \
                                missing(anchor1, blk1 | blk2, c1 & ~blk2):
                            return CheckResult(False, Violation(
                                "intersection", (triples[i], triples[j]),
                                triple_from_masks(anchor1, blk1 | blk2, c1 & ~blk2)))
    return CheckResult(True)
