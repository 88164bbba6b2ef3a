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
It is seeded with each code's chain triples, ``chain_seeds``, not all
its elementary parts: <A, B | C> with A = {a_1 < a_2 < ...} and
B = {b_1 < b_2 < ...} holds in a semi-graphoid exactly when every
<a_i, b_j | C a_<i b_<j> does (the chain rule), so its |A|·|B| chain
triples close to the same set as its |A|·|B|·2^(|A|+|B|-2) elementary
parts.  ``close_codes`` runs it to its fixpoint, and
``semi_graphoid_codes`` lists cl(P) from it by the chain rule.

``closure_gap`` decides cl(P) == M for a pairwise model M given by its
elementary table alone, without listing M.  ``closed_target`` shows M a
compositional graphoid: a pairwise model is one exactly when its
elementary triples obey the elementary rules with intersection and
composition.  Then, by the chain rule again, P lies in M exactly when
P's chain triples are in the table, and cl(P) lies in M whenever P
does, so the worklist stops as soon as it has seen all of M's
elementary triples: cl(P) is M.  A ``Generator`` G of M, codes that an
earlier ``closure_gap`` showed to close to M under its axioms, gives
the worklist a second stop, often much earlier: once it has seen G's
chain triples, cl(P) holds the closure of G, which is M.  G serves only
behind the first stop's condition, P in the closed M, since a cl(P)
larger than M may hold G's triples too; and only a closure under at
least G's axioms, since under fewer, G's triples need not close to M.
Otherwise the worklist reaches its fixpoint, and cl(P) is listed from
it.

Triples are encoded as the kernel's codes ``a | b << n | c << 2n``, the
three vertex masks side by side.  The ground set is capped
(``config.model_cap``) because a model over n vertices holds up to
about 4**n / 2 triples, and listing a closure costs at least one step
per triple it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from ._kernels import pyfallback
from ._kernels.pyfallback import (COMPOSITION, INTERSECTION, chain_seeds, elementary_closure,
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


def close_codes(n: int, codes, axioms: AxiomSet) -> list[int]:
    """cl(P) of P = ``codes`` under ``axioms``, as sorted codes: the
    elementary worklist to its fixpoint, listed by the chain rule."""
    check_cap(n, model_cap())
    return pyfallback.close_codes(n, codes, axioms.flags())


class Generator(NamedTuple):
    """Codes G shown to generate the model M under the axioms ``flags``:
    a ``closure_gap`` of G against M's target returned None.  ``seeds``
    are G's chain triples, as ``chain_seeds`` gives them."""

    flags: int
    seeds: list[tuple[int, int]]


def generator(n: int, codes, axioms: AxiomSet) -> Generator:
    """``codes`` as a generator of M under ``axioms``, for the caller that
    has just seen ``closure_gap`` return None for them."""
    return Generator(axioms.flags(), chain_seeds(n, codes))


def closure_gap(n: int, codes, axioms: AxiomSet, target,
                known: Optional[Generator] = None) -> Optional[list[int]]:
    """None when cl(P) of P = ``codes`` under ``axioms`` is shown to be
    the model M; otherwise cl(P) as sorted codes, for the caller to
    compare with M.

    ``target`` is what ``closed_target`` returns for M's elementary
    table: the table and the number of M's elementary triples, or None
    when M is not closed.  P's chain triples are computed once: they seed
    the one worklist, and for a closed M they decide P ⊆ M, since by the
    chain rule a code lies in the semi-graphoid M exactly when its chain
    triples are in the table.  Then cl(P) lies in M, so the worklist
    stops as soon as it has seen all of M's elementary triples: cl(P) is
    M.  ``known``, a generator G of the same M, gives it a second stop:
    once it has seen G's seeds, cl(P) holds cl_G(G) = M.  That stop is
    used only behind the first, when P lies in the closed M, and only
    when G's axioms are among ``axioms``: a closure under fewer axioms
    than G's need not reach M from G's seeds.  Otherwise the worklist
    reaches its fixpoint, and cl(P) is listed from it.  M's table was
    built under the cap, so this does not check it.
    """
    flags = axioms.flags()
    seeds = chain_seeds(n, codes)
    goal = stop_seeds = None
    if target is not None and all(target[0][row] & bit for row, bit in seeds):
        goal = target[1]
        if known is not None and not known.flags & ~flags:
            stop_seeds = known.seeds
    elementary = elementary_closure(n, seeds, flags, goal, stop_seeds)
    if elementary.stop:
        return None
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


def closed_target(n: int, table) -> Optional[tuple[list[int], int]]:
    """The pairwise model M whose elementary table is ``table``
    (``table[i << n | K]`` holding each j with <i, j | K> in M, kept
    symmetric) as ``closure_gap`` takes it for a target: the table and
    the number of M's elementary triples; None when M is not closed
    under the compositional-graphoid axioms.

    A pairwise model is closed under them exactly when its elementary
    triples obey ``elementary_rules`` with intersection and composition,
    that is when no rule fired from an elementary triple of M concludes
    one outside it.
    """
    missing = []
    fire = elementary_rules(n, INTERSECTION | COMPOSITION, table,
                            lambda i, js, K: missing.append((i, js, K)))
    full = (1 << n) - 1
    count = 0
    for row, ys in enumerate(table):
        i = row >> n
        ys &= -2 << i  # each pair once: j above i
        count += ys.bit_count()
        while ys:
            low = ys & -ys
            ys ^= low
            fire(i, low.bit_length() - 1, row & full)
            if missing:
                return None
    return table, count
