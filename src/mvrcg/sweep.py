"""Batch verification sweeps over enumerated and random graphs.

For each graph the sweep generates every property's triple set, closes
each under its axiom set (semi-graphoid for the multivariate-regression,
block-recursive and ordered-local properties; compositional
semi-graphoid for the alternative local property; compositional graphoid
for the four pairwise properties), and checks closure equality with the
separation model.  It also cross-validates the two separation criteria,
ancestrality, maximality, the latent-DAG oracle and the factorization
identities.  Failures are recorded per graph and never abort the sweep.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional

from . import _kernels
from .chain import validate_chain_graph
from .closure import AxiomSet, close_codes
from .config import model_cap
from .enumeration import enumerate_mvr_cgs, random_mvr_cgs
from .errors import GraphError
from .factorization import factorize_component_dag, factorize_mvr, head_partition
from .graph import MixedGraph
from .properties import property_model
from .separation import global_model_codes
from .structure import is_ancestral, is_maximal, marginal_model_equal
from .triples import decode_triple

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

    def axioms_for(self, prop: str) -> AxiomSet:
        return AxiomSet.parse(PROPERTY_AXIOMS[prop])


@dataclass
class CheckOutcome:
    status: str  # pass | fail | skipped
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
        return all(c.status != "fail" for c in self.checks.values())

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
    state = {**asdict(config), "backend": _kernels.BACKEND}
    return hashlib.sha1(json.dumps(state, sort_keys=True).encode()).hexdigest()


def graph_hash(g: MixedGraph) -> str:
    return hashlib.sha1(g.to_text().encode()).hexdigest()[:12]


def sweep_graphs(config: SweepConfig) -> Iterator[MixedGraph]:
    for n in range(1, config.max_n + 1):
        yield from enumerate_mvr_cgs(n)
    if config.random_count:
        yield from random_mvr_cgs(config.random_n, config.random_count, config.seed)


def _first_difference(n: int, codes_a, codes_b) -> str:
    sa, sb = set(codes_a), set(codes_b)
    diff = sorted(sa.symmetric_difference(sb))
    code = diff[0]
    side = "first" if code in sa else "second"
    return f"{decode_triple(code, n)} only in {side} model"


def verify_graph(g: MixedGraph, config: SweepConfig, index: int = 0) -> VerificationReport:
    report = VerificationReport(index, g.n, graph_hash(g),
                                sorted(g.directed), sorted(g.bidirected))
    try:
        dec = validate_chain_graph(g)
        global_codes = global_model_codes(g)
    except GraphError as exc:
        witness = f"{type(exc).__name__}: {exc}"
        for name in config.checks:
            report.checks[name] = CheckOutcome("fail", witness)
        return report

    def run(name, fn):
        if name not in config.checks:
            return
        t0 = time.perf_counter()
        try:
            ok, witness = fn()
            status = "pass" if ok else "fail"
        except GraphError as exc:
            status, witness = "fail", f"{type(exc).__name__}: {exc}"
        report.checks[name] = CheckOutcome(status, witness,
                                           (time.perf_counter() - t0) * 1e3)

    def check_imstar():
        mstar = global_model_codes(g, method="mstar")
        if mstar == global_codes:
            return True, None
        return False, _first_difference(g.n, global_codes, mstar)

    run("im_eq_imstar", check_imstar)

    closed_global: dict[str, list[int]] = {}
    for prop in PROPERTY_AXIOMS:
        name = f"closure_{prop}"
        if name not in config.checks:
            continue

        def check_closure(prop=prop):
            ax = config.axioms_for(prop)
            key = repr(ax)
            if key not in closed_global:
                closed_global[key] = close_codes(g.n, global_codes, ax)
            lhs = close_codes(g.n, property_model(g, prop, dec).to_codes(), ax)
            if lhs == closed_global[key]:
                return True, None
            return False, _first_difference(g.n, lhs, closed_global[key])

        run(name, check_closure)

    def check_ancestral():
        res = is_ancestral(g)
        return res.ok, None if res.ok else str(res.witness)

    def check_maximal():
        return is_maximal(g), None

    def check_marginal():
        res = marginal_model_equal(g)
        return res.ok, None if res.ok else str(res.witness)

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
        run("marginal_oracle", check_marginal)
    elif "marginal_oracle" in config.checks:
        report.checks["marginal_oracle"] = CheckOutcome("skipped", "graph too large")
    run("factorization", check_factorization)
    return report


def run_equivalence_sweep(config: SweepConfig,
                          start_index: int = 0) -> Iterator[VerificationReport]:
    """Reports in deterministic graph order, optionally resuming after
    ``start_index - 1``."""
    # A malformed MVRCG_MAX_N is not a property of any graph: raise it
    # before the first report instead of failing every graph with it.
    model_cap()
    for i, g in enumerate(sweep_graphs(config)):
        if i >= start_index:
            yield verify_graph(g, config, i)
