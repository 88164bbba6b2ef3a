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
It is seeded with each statement's chain triples, not all its
elementary parts: <A, B | C> with A = {a_1 < a_2 < ...} and
B = {b_1 < b_2 < ...} holds in a semi-graphoid exactly when every
<a_i, b_j | C a_<i b_<j> does (the chain rule), so its |A|·|B| chain
triples close to the same set as its |A|·|B|·2^(|A|+|B|-2) elementary
parts.  ``mask_seeds`` takes them straight from ``(a, b, c)`` masks, as
the sweep's property builders emit them, and ``chain_seeds`` from
codes.  ``close_codes`` runs the worklist to its fixpoint, and
``semi_graphoid_codes`` lists cl(P) from it by the chain rule.

``seeds_gap`` decides cl(P) == M for a pairwise model M given by its
elementary table alone, without listing M, from P's chain triples.
``closed_target`` shows M a compositional graphoid by reading its rows,
T[i, K] for the j with <i, j | K> in M, without firing a rule: M is
closed under sg and composition exactly when every <i, j | K> in it has
T[i, K ∪ j] == T[i, K] − {j}, and then under intersection too exactly
when no row T[i, L] misses two vertices j and k that T[i, L ∪ k] and
T[i, L ∪ j] hold in turn.  Then, by the chain rule again, P lies in M
exactly when P's chain triples are in the table, and cl(P) lies in M
whenever P does, so the worklist stops as soon as it has seen all of M's
elementary triples: cl(P) is M.  A ``Generator`` G of M gives the
worklist an earlier stop: once it has seen G's triples, cl(P) holds the
closure of G, which is M.  G is the chain triples of statements that an
earlier call showed to close to M under its axioms, and any number of
them may be offered.  G serves only behind the first stop's condition,
P in the closed M, since a cl(P) larger than M may hold G's triples
too; and only a closure under at least G's axioms, since under fewer,
G's triples need not close to M.
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
from ._kernels.pyfallback import COMPOSITION, INTERSECTION, elementary_closure, semi_graphoid_codes
from .config import check_cap, model_cap
from .errors import GraphFormatError, UnknownName
from .triples import IndependenceModel, _check_model, _ground_set, first_difference


@dataclass(frozen=True)
class AxiomSet:
    """The axioms a closure applies: the semi-graphoid ones, always, and
    optionally intersection and composition.  ``AxiomSet()`` is sg."""

    intersection: bool = False
    composition: bool = False

    def __post_init__(self):
        if type(self.intersection) is not bool or type(self.composition) is not bool:
            raise GraphFormatError(f"axiom flags must be bools, got {self!r}")

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
        """The axiom set ``AXIOM_SETS`` names ``name``."""
        axioms = AXIOM_SETS.get(name) if isinstance(name, str) else None
        if axioms is None:
            raise UnknownName(f"unknown axiom set {name!r}; expected {'|'.join(AXIOM_SETS)}")
        return axioms


AXIOM_SETS = {
    "sg": AxiomSet.semi_graphoid(),
    "g": AxiomSet.graphoid(),
    "csg": AxiomSet.compositional_semi_graphoid(),
    "cg": AxiomSet.compositional_graphoid(),
}


def _flags(axioms: AxiomSet) -> int:
    """The flags of ``axioms``, once checked to be an ``AxiomSet``."""
    if not isinstance(axioms, AxiomSet):
        raise GraphFormatError(f"{axioms!r} is not an AxiomSet")
    return axioms.flags()


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
    return pyfallback.close_codes(n, codes, _flags(axioms))


class Generator(NamedTuple):
    """Elementary triples G shown to generate the model M under the axioms
    ``flags``, as ``seeds``: ``(x << n | K, 1 << y)`` each, as
    ``mask_seeds`` and ``chain_seeds`` give them.  They are the chain
    triples of statements for which a ``seeds_gap`` against M's target
    returned None."""

    flags: int
    seeds: list[tuple[int, int]]


class Target(NamedTuple):
    """A closed model M as ``seeds_gap`` takes it: its elementary
    ``table`` and the ``count`` of its elementary triples."""

    table: list[int]
    count: int


def seeds_gap(n: int, seeds, axioms: AxiomSet, target: Optional[Target],
              known=()) -> Optional[list[int]]:
    """None when cl(P) under ``axioms`` of the statements P whose chain
    seeds are ``seeds`` is shown to be the model M; otherwise cl(P) as
    sorted codes.

    ``target`` is what ``closed_target`` returns for M's elementary
    table, or None when M is not closed.  The seeds are P's chain triples,
    as ``mask_seeds`` or ``chain_seeds`` give them: they seed the one
    worklist, and for a closed M they decide P ⊆ M, since by the chain
    rule a statement lies in the semi-graphoid M exactly when its chain
    triples are in the table.  Then cl(P) lies in M, so the worklist
    stops as soon as it has seen all of M's elementary triples: cl(P) is
    M.  Generators of the same M, each of ``known``, a sequence of
    ``Generator``, give it earlier stops.  Once it has seen every seed of
    a generator G, cl(P) holds cl_G(G) = M.  A generator is used only
    behind the first stop, when P lies in the closed M, since a larger
    cl(P) may hold G's seeds too; and only when its axioms are among
    ``axioms``, since under fewer G's seeds need not close to M.  So an
    sg generator serves every check, a cg generator only the cg checks.
    Otherwise the worklist reaches its fixpoint, and cl(P) is listed from
    it.  This is the sweep's path, whose M was built under the cap and
    whose axioms are ``AxiomSet``s, so it checks neither.
    """
    flags = axioms.flags()
    goal, stops = None, ()
    if target is not None and all(target.table[row] & bit for row, bit in seeds):
        goal = target.count
        stops = [gen.seeds for gen in known if not gen.flags & ~flags]
    elementary = elementary_closure(n, seeds, flags, goal, stops)
    if elementary.stop:
        return None
    return semi_graphoid_codes(n, elementary)


def close(model: IndependenceModel, axioms: AxiomSet) -> IndependenceModel:
    """Least superset of ``model`` closed under the enabled axioms."""
    out = close_codes(_check_model(model).n, model.to_codes(), axioms)
    return IndependenceModel.from_codes(model.n, out)


def equivalent_under(m1: IndependenceModel, m2: IndependenceModel, axioms: AxiomSet) -> bool:
    """Whether the two models generate the same closure."""
    n = _ground_set(m1, m2)
    return close_codes(n, m1.to_codes(), axioms) == close_codes(n, m2.to_codes(), axioms)


def satisfies(model: IndependenceModel, axioms: AxiomSet) -> CheckResult:
    """Whether the model is already closed, that is cl(M) == M; if not,
    the witness is the first triple of cl(M) outside M, in the order
    ``first_difference`` reports."""
    codes = _check_model(model).to_codes()
    closed = close_codes(model.n, codes, axioms)
    if closed == codes:
        return CheckResult(True)
    return CheckResult(False, first_difference(model.n, closed, codes)[0])


def closed_target(n: int, table) -> Optional[Target]:
    """The pairwise model M whose elementary table is ``table``
    (``table[i << n | K]`` holding each j with <i, j | K> in M, kept
    symmetric) as ``seeds_gap`` takes it for a target; None when M is
    not closed under the compositional-graphoid axioms.

    The proof reads rows, T[i, K] for ``table[i << n | K]``, and fires no
    rule.  M is closed under sg and composition exactly when every
    <i, j | K> in it has T[i, K ∪ j] == T[i, K] − {j}: composition and
    the semi-graphoid rule, read from the shared vertex i, say that each
    side holds the other.  Given that, M is closed under intersection
    exactly when no i, L, j, k with j, k ∉ T[i, L] have j ∈ T[i, L ∪ k]
    and k ∈ T[i, L ∪ j]: a <i, k | L> in M would put j in T[i, L] by the
    identity.  One pass over the nonempty rows checks both, each row
    T[i, K] against T[i, K ∪ j] for its j and T[i, K − k] for k in K,
    and counts M's elementary triples on the way."""
    full = (1 << n) - 1
    count = 0
    for row, ys in enumerate(table):
        if not ys:
            continue
        m = ys
        while m:  # the identity, T[i, K ∪ j] == T[i, K] − {j}
            bj = m & -m
            m ^= bj
            if table[row | bj] != ys ^ bj:
                return None
        m = row & full
        while m:  # intersection, with L = K − k
            bk = m & -m
            m ^= bk
            below = table[row ^ bk]
            if below & bk:
                continue
            js = ys & ~below
            while js:
                bj = js & -js
                js ^= bj
                if table[row ^ bk | bj] & bk:
                    return None
        # each pair <i, j | K> once, at its larger vertex i, whose row comes last
        count += (ys & ((1 << (row >> n)) - 1)).bit_count()
    return Target(table, count)
