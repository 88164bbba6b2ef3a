"""Exact discrete joint tables for numeric verification.

Tables are dense numpy arrays over small variable sets (state space
capped at 2**20).  They exist to check separation statements and
factorizations numerically: sample a strictly positive distribution that
is Markov to the latent DAG of a graph, marginalise out the latents, and
every separation statement and both product forms must hold exactly (up
to float rounding).

A table is read-only once built, so it memoises its marginals: one sum
over the other axes per subset of axes, repeated back over them as one
value per table cell.  :func:`ci_holds` and :func:`verify_factorization`
compare such cell vectors cell by cell, and ``marginal`` and ``reorder``
take their layout from them.  Two more facts are fixed when a table is
built: each variable's axis bit, which turns a block of variables into
the mask of a marginal, and whether any cell is zero.  A sum of positive
cells is positive, so on a table without a zero cell every p(c) is
positive and :func:`ci_holds` skips its search for p(c) = 0.

The sampler draws every conditional row of the DAG in one Dirichlet
call, vertex by vertex, and slices it per vertex; the generator fills
rows in order, so the table is the one a draw per vertex would give.
It forms the product in one ``einsum`` whose labels are DAG vertices;
the cap bounds the DAG at 20 vertices, so the call has at most 21
operands and labels below 20, within numpy's limits (32 operands, 52
labels, since numpy 1.24).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Iterable, Sequence

import numpy as np

from ._bitset import bits
from .enumeration import check_seed
from .errors import CapExceeded, DisjointnessViolation, GraphFormatError, InvalidSeed
from .factorization import Factorization
from .graph import MixedGraph
from .separation import _require_dag
from .structure import CanonicalDag
from .triples import IndependenceTriple

STATE_SPACE_CAP = 1 << 20
CARDINALITY = 2  # states per variable of a sampled distribution
_DIRICHLET_ALPHA = 4.0
_ROW_FLOOR = 0.01  # keeps conditionals well away from 0/0


@dataclass(frozen=True, eq=False)
class JointTable:
    """Joint probability table; axis order follows ``variables``.

    ``probs`` may be any real numeric array-like; the table keeps a
    read-only float copy, so later writes to the caller's array change
    nothing.  The table memoises its marginals: at most one cell vector
    per axis subset that is actually asked for, held until the table is
    discarded with its graph.
    """

    variables: tuple[int, ...]
    cards: tuple[int, ...]
    probs: np.ndarray
    _marginals: dict[int, np.ndarray] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    _bit_of: dict[int, int] = field(init=False, repr=False, compare=False)
    _has_zero: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", self._variables(self.variables))
        try:
            probs = np.asarray(self.probs)
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"probabilities do not form an array: {exc}") from None
        if probs.dtype.kind not in "iuf":
            raise GraphFormatError(f"probabilities must be real numbers, not {probs.dtype}")
        probs = probs.astype(float)  # a copy, whatever the input dtype
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        if probs.shape != self.cards:
            raise DisjointnessViolation(
                f"table shape {probs.shape} does not match cards {self.cards}")
        if len(self.variables) != len(self.cards):
            raise DisjointnessViolation("one cardinality per variable required")
        bit_of = {v: 1 << i for i, v in enumerate(self.variables)}
        if len(bit_of) != len(self.variables):
            raise DisjointnessViolation(f"repeated variable in {self.variables}")
        object.__setattr__(self, "_bit_of", bit_of)
        if not np.isfinite(probs).all():
            raise DisjointnessViolation("probabilities must be finite")
        if np.any(probs < 0):
            raise DisjointnessViolation("negative probability")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise DisjointnessViolation(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "_has_zero", np.count_nonzero(probs) < probs.size)

    def axis_of(self, v: int) -> int:
        """Axis of variable ``v``: the module's one check that a variable
        belongs to the table."""
        try:
            return self.variables.index(v)
        except ValueError:
            raise DisjointnessViolation(f"{v} is not a variable of the table") from None

    def _mask_of(self, vs: Iterable[int]) -> int:
        """Axis bits of the variables ``vs``, read from the table's map;
        a variable missing from it goes to ``axis_of``, which raises."""
        bit_of = self._bit_of
        mask = 0
        for v in vs:
            mask |= bit_of.get(v) or 1 << self.axis_of(v)
        return mask

    def _cells(self, keep: int) -> np.ndarray:
        """The marginal over the axes in mask ``keep``, repeated over the
        other axes: one value per table cell, in C order, read-only."""
        cells = self._marginals.get(keep)
        if cells is None:
            summed = bits(~keep & ((1 << len(self.cards)) - 1))  # the other axes
            cells = np.empty(self.probs.size)
            cells.reshape(self.cards)[...] = np.add.reduce(self.probs, summed, keepdims=True)
            cells.flags.writeable = False
            self._marginals[keep] = cells
        return cells

    def _over(self, variables: Sequence[int]) -> "JointTable":
        """Marginal over ``variables``, one axis per variable in that order."""
        axes = [self.axis_of(v) for v in variables]
        cells = self._cells(sum(1 << i for i in axes)).reshape(self.cards)
        kept = cells[tuple(slice(None) if i in axes else 0 for i in range(len(self.cards)))]
        order = sorted(axes)
        probs = kept.transpose([order.index(i) for i in axes])
        return JointTable(tuple(variables), probs.shape, probs)

    @staticmethod
    def _variables(vs: Iterable[int]) -> tuple[int, ...]:
        """``vs`` as a tuple, each an int: a bool or a float equal to a
        variable is refused, not read as that variable."""
        try:
            vs = tuple(vs)
        except TypeError:
            raise GraphFormatError(f"{vs!r} is not a collection of variables") from None
        for v in vs:
            if type(v) is not int:
                raise GraphFormatError(f"variable {v!r} is not an int")
        return vs

    def marginal(self, keep: Iterable[int]) -> "JointTable":
        """Marginal over ``keep``, its variables in table order."""
        return self._over(sorted(set(self._variables(keep)), key=self.axis_of))

    def reorder(self, variables: Sequence[int]) -> "JointTable":
        variables = self._variables(variables)
        if sorted(variables) != sorted(self.variables):
            raise DisjointnessViolation("reorder must permute the variables")
        return self._over(variables)


def sample_latent_dag_distribution(cd: CanonicalDag, seed: int) -> JointTable:
    """Strictly positive random distribution Markov to the DAG,
    marginalised down to the observed variables.  ``cd.dag`` must be a
    DAG (``NotADag`` otherwise) and ``cd.observed`` and ``cd.latents``
    must split its vertices (``GraphFormatError`` otherwise).

    Every conditional row is a symmetric Dirichlet draw, floored and
    renormalised so no entry sinks below about 1%.  The same seed gives
    a bit-identical table, so a seed that is not a nonnegative int, such
    as None, which would draw from OS entropy, raises ``InvalidSeed``.
    """
    if not isinstance(cd, CanonicalDag) or not isinstance(cd.dag, MixedGraph):
        raise GraphFormatError(f"{cd!r} is not a CanonicalDag over a MixedGraph")
    g = cd.dag
    _require_dag(g)
    parts = (cd.observed, cd.latents)
    if (not all(isinstance(part, (set, frozenset)) for part in parts)
            or cd.observed & cd.latents or cd.observed | cd.latents != set(range(g.n))):
        raise GraphFormatError(f"observed {cd.observed!r} and latents {cd.latents!r} "
                               f"do not split the DAG's {g.n} vertices")
    if CARDINALITY ** g.n > STATE_SPACE_CAP:
        raise CapExceeded(f"state space {CARDINALITY}**{g.n} exceeds {STATE_SPACE_CAP}")
    check_seed(seed)  # default_rng would read True as seed 1 and draw None from OS entropy
    if seed < 0:  # which default_rng refuses
        raise InvalidSeed(f"seed must be nonnegative, got {seed!r}")
    rng = np.random.default_rng(seed)
    parents = [bits(g.pa[v]) for v in range(g.n)]
    # one draw in vertex order gives each vertex the rows its own draw would
    rows = rng.dirichlet([_DIRICHLET_ALPHA] * CARDINALITY,
                         size=sum(CARDINALITY ** len(pa) for pa in parents))
    rows = np.maximum(rows, _ROW_FLOOR)
    rows /= rows.sum(axis=-1, keepdims=True)
    operands = [np.ones(()), []]  # the product of no tables is 1, also at n = 0
    start = 0
    for v, pa in enumerate(parents):
        stop = start + CARDINALITY ** len(pa)
        operands += [rows[start:stop].reshape((CARDINALITY,) * (len(pa) + 1)), [*pa, v]]
        start = stop
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
    if not isinstance(table, JointTable):
        raise GraphFormatError(f"{table!r} is not a JointTable")
    if not isinstance(triple, IndependenceTriple):
        raise GraphFormatError(f"{triple!r} is not an IndependenceTriple")
    _check_tolerance(eps)
    a, b, c = table._mask_of(triple.a), table._mask_of(triple.b), table._mask_of(triple.c)
    cells = table._cells
    pabc, pac, pbc, pc = cells(a | b | c), cells(a | c), cells(b | c), cells(c)
    # only a table with a zero cell has a p(c) = 0; count_nonzero is numpy's
    # cheapest test of a whole short vector
    if table._has_zero and np.count_nonzero(pc) < pc.size:
        given = pc > 0
        pabc, pac, pbc, pc = pabc[given], pac[given], pbc[given], pc[given]
    within = np.abs(pabc / pc - pac / pc * (pbc / pc)) <= eps
    return bool(np.count_nonzero(within) == within.size)


def verify_factorization(table: JointTable, f: Factorization, eps: float = 1e-9) -> bool:
    """Whether the table equals the product of the factorization's
    conditionals at every full assignment.  Rows with zero tail mass
    contribute factor 1; positive sampling keeps that branch idle."""
    if not isinstance(table, JointTable):
        raise GraphFormatError(f"{table!r} is not a JointTable")
    if not isinstance(f, Factorization):
        raise GraphFormatError(f"{f!r} is not a Factorization")
    _check_tolerance(eps)
    product = 1.0  # also for the cells of axes no factor names
    for factor in f.factors:
        tail = table._mask_of(factor.tail)
        pht, pt = table._cells(table._mask_of(factor.head) | tail), table._cells(tail)
        product = product * np.divide(pht, pt, out=np.ones_like(pht), where=pt > 0)
    return bool((np.abs(table.probs.ravel() - product) <= eps).all())
