"""Exact discrete joint tables for numeric verification.

Tables are dense numpy arrays over small variable sets (state space
capped at 2**20).  They exist to check separation statements and
factorizations numerically: sample a strictly positive distribution that
is Markov to the latent DAG of a graph, marginalise out the latents, and
every separation statement and both product forms must hold exactly (up
to float rounding).

One projection, :func:`_project`, lays every table out: one ``einsum``
that sums out the other variables and orders the kept ones.  The sampler
and :func:`verify_factorization` each form their product in one more
``einsum``.  Labels are table axes or DAG vertices; the cap bounds a table
at 20 variables, so a call has at most 21 operands and labels below 20,
within numpy's limits (32 operands, 52 labels, since numpy 1.24).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, prod
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, DisjointnessViolation, GraphFormatError, InvalidSeed
from .factorization import Factorization
from .structure import CanonicalDag
from .triples import IndependenceTriple

STATE_SPACE_CAP = 1 << 20
CARDINALITY = 2  # states per variable of a sampled distribution
_DIRICHLET_ALPHA = 4.0
_ROW_FLOOR = 0.01  # keeps conditionals well away from 0/0


@dataclass(frozen=True, eq=False)
class JointTable:
    """Joint probability table; axis order follows ``variables``."""

    variables: tuple[int, ...]
    cards: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        if self.probs.shape != self.cards:
            raise DisjointnessViolation(
                f"table shape {self.probs.shape} does not match cards {self.cards}")
        if len(self.variables) != len(self.cards):
            raise DisjointnessViolation("one cardinality per variable required")
        if len(set(self.variables)) != len(self.variables):
            raise DisjointnessViolation(f"repeated variable in {self.variables}")
        if np.any(self.probs < 0):
            raise DisjointnessViolation("negative probability")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise DisjointnessViolation(f"probabilities sum to {total!r}, not 1")

    def axis_of(self, v: int) -> int:
        """Axis of variable ``v``: the module's one check that a variable
        belongs to the table."""
        if v not in self.variables:
            raise DisjointnessViolation(f"{v} is not a variable of the table")
        return self.variables.index(v)

    def _over(self, variables: Sequence[int]) -> "JointTable":
        probs, _ = _project(self, variables)
        return JointTable(tuple(variables), probs.shape, probs)

    def marginal(self, keep: Iterable[int]) -> "JointTable":
        """Marginal over ``keep``, its variables in table order."""
        return self._over(sorted(set(keep), key=self.axis_of))

    def reorder(self, variables: Sequence[int]) -> "JointTable":
        if sorted(variables) != sorted(self.variables):
            raise DisjointnessViolation("reorder must permute the variables")
        return self._over(variables)


def _project(table: JointTable, variables: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """Marginal of ``table`` over ``variables``, one axis per variable in
    that order, and those variables' table axes as einsum labels."""
    axes = [table.axis_of(v) for v in variables]
    return np.einsum(table.probs, list(range(len(table.variables))), axes), axes


def sample_latent_dag_distribution(cd: CanonicalDag, seed: int) -> JointTable:
    """Strictly positive random distribution Markov to the DAG,
    marginalised down to the observed variables.

    Every conditional row is a symmetric Dirichlet draw, floored and
    renormalised so no entry sinks below about 1%.  The same seed gives
    a bit-identical table.
    """
    g = cd.dag
    if CARDINALITY ** g.n > STATE_SPACE_CAP:
        raise CapExceeded(f"state space {CARDINALITY}**{g.n} exceeds {STATE_SPACE_CAP}")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidSeed(f"seed {seed!r}: {exc}") from None
    operands = [np.ones(()), []]  # the product of no tables is 1, also at n = 0
    for v in range(g.n):
        parents = sorted(g.parents(v))
        rows = rng.dirichlet([_DIRICHLET_ALPHA] * CARDINALITY,
                             size=CARDINALITY ** len(parents))
        rows = np.maximum(rows, _ROW_FLOOR)
        rows /= rows.sum(axis=-1, keepdims=True)
        operands += [rows.reshape((CARDINALITY,) * (len(parents) + 1)), parents + [v]]
    observed = sorted(cd.observed)
    marginal = np.einsum(*operands, observed)  # the latents are summed out
    return JointTable(tuple(observed), marginal.shape, marginal / marginal.sum())


def _check_tolerance(eps) -> None:
    """Refuse a tolerance that is not a finite nonnegative number."""
    if isinstance(eps, bool) or not isinstance(eps, (int, float)) or not 0 <= eps < inf:
        raise GraphFormatError(f"eps must be a finite nonnegative number, got {eps!r}")


def ci_holds(table: JointTable, triple: IndependenceTriple, eps: float = 1e-9) -> bool:
    """Numeric conditional independence: for every assignment with
    p(c) > 0, |p(a,b|c) - p(a|c) p(b|c)| <= eps."""
    _check_tolerance(eps)
    k, m = len(triple.a), len(triple.a) + len(triple.b)
    p, _ = _project(table, [*triple.a, *triple.b, *triple.c])
    pabc = p.reshape(prod(p.shape[:k]), prod(p.shape[k:m]), prod(p.shape[m:]))
    pc = pabc.sum(axis=(0, 1))
    pac = pabc.sum(axis=1)
    pbc = pabc.sum(axis=0)
    mask = pc > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        joint = np.where(mask, pabc / pc, 0.0)
        left = np.where(mask, pac / pc, 0.0)[:, None, :]
        right = np.where(mask, pbc / pc, 0.0)[None, :, :]
    return bool(np.all(np.abs(joint - left * right) <= eps))


def verify_factorization(table: JointTable, f: Factorization, eps: float = 1e-9) -> bool:
    """Whether the table equals the product of the factorization's
    conditionals at every full assignment.  Rows with zero tail mass
    contribute factor 1; positive sampling keeps that branch idle."""
    _check_tolerance(eps)
    every_axis = list(range(len(table.variables)))
    operands = [np.ones(table.cards), every_axis]  # covers axes no factor names
    for factor in f.factors:
        pht, axes = _project(table, [*factor.head, *factor.tail])
        tail_mass = pht.sum(axis=tuple(range(len(factor.head))), keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            operands += [np.where(tail_mass > 0, pht / tail_mass, 1.0), axes]
    product = np.einsum(*operands, every_axis)
    return bool(np.all(np.abs(table.probs - product) <= eps))
