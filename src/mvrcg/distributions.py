"""Exact discrete joint tables for numeric verification.

Tables are dense numpy arrays over small variable sets (state space
capped at 2**20).  They exist to check separation statements and
factorizations numerically: sample a strictly positive distribution that
is Markov to the latent DAG of a graph, marginalise out the latents, and
every separation statement and both product forms must hold exactly (up
to float rounding).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, DisjointnessViolation
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
        if np.any(self.probs < 0):
            raise DisjointnessViolation("negative probability")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise DisjointnessViolation(f"probabilities sum to {total!r}, not 1")

    def axis_of(self, v: int) -> int:
        return self.variables.index(v)

    def marginal(self, keep: Iterable[int]) -> "JointTable":
        keep = set(keep)
        axes = tuple(i for i, v in enumerate(self.variables) if v not in keep)
        new_vars = tuple(v for v in self.variables if v in keep)
        new_cards = tuple(c for v, c in zip(self.variables, self.cards) if v in keep)
        return JointTable(new_vars, new_cards, self.probs.sum(axis=axes))

    def reorder(self, variables: Sequence[int]) -> "JointTable":
        variables = tuple(variables)
        if sorted(variables) != sorted(self.variables):
            raise DisjointnessViolation("reorder must permute the variables")
        perm = tuple(self.variables.index(v) for v in variables)
        return JointTable(variables, tuple(self.cards[i] for i in perm),
                          np.transpose(self.probs, perm))


def sample_latent_dag_distribution(cd: CanonicalDag, seed: int) -> JointTable:
    """Strictly positive random distribution Markov to the DAG,
    marginalised down to the observed variables.

    Every conditional row is a symmetric Dirichlet draw, floored and
    renormalised so no entry sinks below about 1%.  The same seed gives
    a bit-identical table.
    """
    g = cd.dag
    n = g.n
    if CARDINALITY ** n > STATE_SPACE_CAP:
        raise CapExceeded(f"state space {CARDINALITY}**{n} exceeds {STATE_SPACE_CAP}")
    rng = np.random.default_rng(seed)
    cards = (CARDINALITY,) * n
    joint = np.ones(cards)
    for v in range(n):
        parents = sorted(g.parents(v))
        rows = rng.dirichlet([_DIRICHLET_ALPHA] * CARDINALITY,
                             size=CARDINALITY ** len(parents))
        rows = np.maximum(rows, _ROW_FLOOR)
        rows /= rows.sum(axis=-1, keepdims=True)
        cpt = rows.reshape((CARDINALITY,) * len(parents) + (CARDINALITY,))
        # Broadcast the conditional table into the full joint shape.
        axes = parents + [v]
        order = sorted(range(len(axes)), key=lambda i: axes[i])
        shape = [1] * n
        for a in axes:
            shape[a] = CARDINALITY
        joint = joint * np.transpose(cpt, order).reshape(shape)
    observed = sorted(cd.observed)
    latent_axes = tuple(sorted(cd.latents))
    marginal = joint.sum(axis=latent_axes) if latent_axes else joint
    marginal = marginal / marginal.sum()
    return JointTable(tuple(observed), (CARDINALITY,) * len(observed), marginal)


def _grouped(table: JointTable, groups: Sequence[Iterable[int]]) -> np.ndarray:
    """Marginal over the union of the groups, reshaped to one axis per
    group (flattening each group's variables in table order)."""
    union = set().union(*map(set, groups))
    if not union.issubset(table.variables):
        raise DisjointnessViolation(f"{sorted(union)} are not all variables of the table")
    m = table.marginal(union)
    arr = m.probs
    dims = []
    perm = []
    for group in groups:
        axes = [m.variables.index(v) for v in sorted(group, key=m.variables.index)]
        perm.extend(axes)
        dims.append(prod(m.cards[a] for a in axes) if axes else 1)
    arr = np.transpose(arr, perm).reshape(dims)
    return arr


def ci_holds(table: JointTable, triple: IndependenceTriple, eps: float = 1e-9) -> bool:
    """Numeric conditional independence: for every assignment with
    p(c) > 0, |p(a,b|c) - p(a|c) p(b|c)| <= eps."""
    pabc = _grouped(table, [triple.a, triple.b, triple.c])
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
    n_axes = len(table.variables)
    product = np.ones(table.cards)
    for factor in f.factors:
        ht = _grouped(table, [factor.head, factor.tail])
        tail_mass = ht.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(tail_mass > 0, ht / tail_mass, 1.0)
        members = sorted(factor.head | factor.tail, key=table.variables.index)
        head_sorted = [v for v in members if v in factor.head]
        tail_sorted = [v for v in members if v in factor.tail]
        cond = cond.reshape(tuple(table.cards[table.axis_of(v)] for v in head_sorted)
                            + tuple(table.cards[table.axis_of(v)] for v in tail_sorted))
        # Expand to the full table shape.
        order = head_sorted + tail_sorted
        perm = sorted(range(len(order)), key=lambda i: table.axis_of(order[i]))
        cond = np.transpose(cond, perm)
        shape = [1] * n_axes
        for v in order:
            shape[table.axis_of(v)] = table.cards[table.axis_of(v)]
        product = product * cond.reshape(shape)
    return bool(np.all(np.abs(table.probs - product) <= eps))
