"""Batch verification sweeps over enumerated and random graphs.

For each graph the sweep builds the separation model M once.  Ten checks
compare a code list with M: the m* model, the latent-DAG model and each
property's triples P closed under its axiom set (sg for the mr, iv and
ordered local properties, csg for the alternative local property, cg for
the four pairwise ones).  The other checks are ancestrality, maximality
and the factorization identities.  Failures are recorded per graph and
never abort the sweep.

Each closure check is one call, ``close_codes(n, P, axioms, target)``,
which returns cl(P).  Per graph, ``closed_target`` proves M a
compositional graphoid from its elementary triples <i, j | K>: M is
pairwise, and those triples obey the elementary rules.  Per check, one
elementary worklist from P's elementary parts decides ``cl(P) == M``:
P lies in M and the worklist reaches all of M's elementary triples,
where it stops, because semi-graphoids with the same elementary triples
are equal.  A check that falls short has run the worklist to its
fixpoint, and cl(P) is listed from its elementary triples, so every
status and witness is the one the closure gives.  M is built by the
first check that needs it, so that check's time includes building M,
and the first closure check's time includes the proof that M is closed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from functools import cache
from typing import Iterator, Optional

from ._kernels.pyfallback import BACKEND
from .chain import validate_chain_graph
from .closure import AxiomSet, close_codes, closed_target
from .config import ENUMERATION_CAP, model_cap
from .enumeration import check_count, check_seed, enumerate_mvr_cgs, random_mvr_cgs
from .errors import CapExceeded, GraphError, UnknownName
from .factorization import factorize_component_dag, factorize_mvr, head_partition
from .graph import MixedGraph
from .properties import property_model
from .separation import global_model_codes
from .structure import is_ancestral, is_maximal, latent_model_codes
from .triples import first_difference

PROPERTY_AXIOMS = {
    "mr": "sg",
    "iv": "sg",
    "ordered": "sg",
    "local": "csg",
    "p1": "cg",
    "p2": "cg",
    "p3": "cg",
    "p4": "cg",
}

ALL_CHECKS = (
    "im_eq_imstar",
    "closure_mr", "closure_iv", "closure_ordered", "closure_local",
    "closure_p1", "closure_p2", "closure_p3", "closure_p4",
    "ancestral", "maximal", "marginal_oracle", "factorization",
)


@dataclass(frozen=True)
class SweepConfig:
    max_n: int = 4
    random_count: int = 0
    random_n: int = 5
    seed: int = 1
    checks: tuple[str, ...] = ALL_CHECKS
    marginal_oracle_max_n: int = 6

    def __post_init__(self):
        for field_name in ("max_n", "random_count", "random_n", "marginal_oracle_max_n"):
            check_count(field_name, getattr(self, field_name))
        check_seed(self.seed)
        for name in self.checks:
            if name not in ALL_CHECKS:
                raise UnknownName(f"unknown check {name!r}; expected one of "
                                  f"{', '.join(ALL_CHECKS)}")

    def axioms_for(self, prop: str) -> AxiomSet:
        if prop not in PROPERTY_AXIOMS:
            raise UnknownName(f"unknown property {prop!r}; expected one of "
                              f"{', '.join(PROPERTY_AXIOMS)}")
        return AxiomSet.parse(PROPERTY_AXIOMS[prop])


@dataclass
class CheckOutcome:
    status: str  # pass | fail | error | skipped, see _raised
    witness: Optional[str] = None
    ms: float = 0.0


@dataclass
class VerificationReport:
    index: int
    n: int
    graph_hash: str
    directed: list
    bidirected: list
    checks: dict[str, CheckOutcome] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.status not in ("fail", "error") for c in self.checks.values())

    def to_json(self) -> str:
        return json.dumps({
            "index": self.index,
            "n": self.n,
            "hash": self.graph_hash,
            "directed": self.directed,
            "bidirected": self.bidirected,
            "ok": self.ok,
            "checks": {
                name: {"status": c.status,
                       **({"witness": c.witness} if c.witness else {}),
                       "ms": round(c.ms, 3)}
                for name, c in self.checks.items()
            },
        }, sort_keys=True)


def config_hash(config: SweepConfig) -> str:
    """Stable sha1 of the configuration fields and the kernel backend.

    A sweep cursor stores it, so a resume under another configuration is
    refused instead of skipping the wrong graphs.  ``hash()`` would not
    do: string hashing is salted per process.
    """
    state = {**asdict(config), "backend": BACKEND}
    return hashlib.sha1(json.dumps(state, sort_keys=True).encode()).hexdigest()


def graph_hash(g: MixedGraph) -> str:
    return hashlib.sha1(g.to_text().encode()).hexdigest()[:12]


def sweep_graphs(config: SweepConfig) -> Iterator[MixedGraph]:
    for n in range(1, config.max_n + 1):
        yield from enumerate_mvr_cgs(n)
    if config.random_count:
        yield from random_mvr_cgs(config.random_n, config.random_count, config.seed)


def _raised(exc: Exception) -> tuple[str, str]:
    """Status and witness of a check that raised: a ``GraphError`` is a
    failure of the graph, except a ``CapExceeded``, which is no
    counterexample; any other exception is an error of the engine."""
    failed = isinstance(exc, GraphError) and not isinstance(exc, CapExceeded)
    return "fail" if failed else "error", f"{type(exc).__name__}: {exc}"


def verify_graph(g: MixedGraph, config: SweepConfig, index: int = 0) -> VerificationReport:
    report = VerificationReport(index, g.n, graph_hash(g),
                                sorted(g.directed), sorted(g.bidirected))
    try:
        dec = validate_chain_graph(g)
    except Exception as exc:
        status, witness = _raised(exc)
        for name in config.checks:
            report.checks[name] = CheckOutcome(status, witness)
        return report

    def run(name, fn):
        if name not in config.checks:
            return
        t0 = time.perf_counter()
        try:
            ok, witness = fn()
            status = "pass" if ok else "fail"
        except Exception as exc:
            status, witness = _raised(exc)
        report.checks[name] = CheckOutcome(status, witness,
                                           (time.perf_counter() - t0) * 1e3)

    @cache
    def model():
        """The separation model M, built by the first check that needs it."""
        return global_model_codes(g)

    def run_model(name, codes_of):
        """``run`` for a check that compares ``codes_of()`` with M."""
        def compare():
            global_codes = model()
            codes = codes_of()
            if codes == global_codes:
                return True, None
            triple, in_first = first_difference(g.n, codes, global_codes)
            return False, f"{triple} only in {'first' if in_first else 'second'} model"

        run(name, compare)

    run_model("im_eq_imstar", lambda: global_model_codes(g, method="mstar"))

    @cache
    def target():
        """``closed_target`` of M, once per graph."""
        return closed_target(g.n, model())

    for prop in PROPERTY_AXIOMS:
        run_model(f"closure_{prop}", lambda prop=prop: close_codes(
            g.n, property_model(g, prop, dec).to_codes(), config.axioms_for(prop), target()))

    def check_ancestral():
        res = is_ancestral(g)
        return res.ok, None if res.ok else str(res.witness)

    def check_maximal():
        return is_maximal(g), None

    def check_factorization():
        part = head_partition(g, range(g.n))
        mvr = factorize_mvr(g, dec)
        if part.blocks() != mvr.blocks():
            return False, "head partition blocks differ from chain components"
        for f in mvr.factors:
            if part.tail_of(f.head) != f.tail:
                return False, f"tail of {sorted(f.head)} differs"
        cdag = factorize_component_dag(g, dec)
        for f, fc in zip(mvr.factors, cdag.factors):
            if not f.tail <= fc.tail:
                return False, f"graphical parents of {sorted(f.head)} exceed parent components"
        return True, None

    run("ancestral", check_ancestral)
    run("maximal", check_maximal)
    if g.n <= config.marginal_oracle_max_n:
        run_model("marginal_oracle", lambda: latent_model_codes(g))
    elif "marginal_oracle" in config.checks:
        report.checks["marginal_oracle"] = CheckOutcome("skipped", "graph too large")
    run("factorization", check_factorization)
    return report


def run_equivalence_sweep(config: SweepConfig,
                          start_index: int = 0) -> Iterator[VerificationReport]:
    """Reports in deterministic graph order, optionally resuming after
    ``start_index - 1``."""
    # A malformed MVRCG_MAX_N or a max_n beyond exhaustive enumeration is
    # not a property of any graph: raise it on the call, before any work,
    # instead of failing every graph with it or after hours of output.
    model_cap()
    if config.max_n > ENUMERATION_CAP:
        raise CapExceeded(f"exhaustive enumeration capped at n={ENUMERATION_CAP}")
    return (verify_graph(g, config, i) for i, g in enumerate(sweep_graphs(config))
            if i >= start_index)
