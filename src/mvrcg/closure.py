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
``(anchor, c)`` / ``(anchor, c | blk)`` index finds partner triples: its
closure fires them on a worklist and ``satisfies`` fires them once on
each triple of the model.

Triples are encoded as base-4 vertex labellings (one digit per vertex).
The ground set is capped (``config.model_cap``) because a model over n
vertices holds up to about 4**n / 2 triples and enumerating a separation
model visits all 4**n codes.  The closure joins through indexes and
keeps no 4**n table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import _kernels
from ._kernels.pyfallback import axiom_rules
from .config import model_cap
from .errors import CapExceeded, UnknownName
from .triples import IndependenceModel, IndependenceTriple, triple_from_masks


# Each axiom field of ``AxiomSet`` and the kernel rule bit it enables.
_RULE_BITS = {"decomposition": _kernels.DECOMPOSITION, "weak_union": _kernels.WEAK_UNION,
              "contraction": _kernels.CONTRACTION, "intersection": _kernels.INTERSECTION,
              "composition": _kernels.COMPOSITION}
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

    A model is closed exactly when no single rule step from its own
    triples concludes a triple outside it.  So each triple of the model
    is fired through the closure kernel's rules, joined against the ones
    fired before it, until a conclusion is missing.
    """
    _check_cap(model.n, cap)
    n = model.n
    flags = axioms.flags()
    entries = [t.masks() for t in model]
    have = {a | b << n | c << 2 * n for a, b, c in entries}
    found: list[tuple] = []

    def emit(a, b, c, rule=0, entry=None):
        lo, hi = (b, a) if (b & -b) < (a & -a) else (a, b)
        if not found and (lo | hi << n | c << 2 * n) not in have:
            found.append((a, b, c, rule, entry))

    fire = axiom_rules(n, flags, emit)
    for premise in entries:
        fire(*premise)
        if found:
            break
    else:
        return CheckResult(True)

    a, b, c, rule, entry = found[0]
    premises = (premise,)
    if entry is None:  # a unary step: weak union if it moved a vertex into c
        rule = _kernels.WEAK_UNION if c != premise[2] else _kernels.DECOMPOSITION
        if not rule & flags:
            rule = _kernels.CONTRACTION
    else:
        premises += ((a, *entry),)
    return CheckResult(False, Violation(
        _RULE_NAMES[rule], tuple(triple_from_masks(*p) for p in premises),
        triple_from_masks(a, b, c)))
