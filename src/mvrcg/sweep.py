"""Batch verification sweeps over enumerated and random graphs.

For each graph the sweep builds the separation model M once, as its
elementary table.  Ten checks compare a code list with M: the m* model,
the latent-DAG model and each property's triples P closed under its
axiom set (sg for the mr, iv and ordered local properties, csg for the
alternative local property, cg for the four pairwise ones).  The other
checks are ancestrality, maximality and the factorization identities.
Failures are recorded per graph and never abort the sweep; a graph over
``model_cap()`` is an ``error`` on the ten, each of which builds M first.

Each closure check is decided on M's elementary table <i, j | K>, not
on M's codes.  Per graph, ``closed_target`` proves M a compositional
graphoid from its table: M is pairwise by construction, and its rows
obey one identity and one intersection condition.  The same rows give
M's composition and intersection bases, generators of M under csg and
g.  Per check, the property's builder emits its statements P as
vertex masks, and ``property_seeds`` turns them straight into their
chain triples, with no codes, sort or checks.  One call,
``seeds_gap(n, seeds, axioms, target, known)``, decides ``cl(P) == M``:
P's chain triples lie in the table, so P lies in M, and one elementary
worklist seeded with them reaches all of M's elementary triples, where
it stops, because semi-graphoids with the same elementary triples are
equal.  It stops earlier once it has seen a generator of M whose axioms
are among the check's: a base of M, or the seeds of any earlier check
that passed, which it has shown to generate M under its axioms.  Every
passing check is kept as a ``Generator`` for the later ones, unless an
earlier one had the same seeds under axioms among its own
(``add_generator``).  ``seeds_gap`` uses a generator only for a P inside
M and only under at least its axioms (an sg generator serves csg and cg
checks, a cg one no sg check).  The generators are kept for the rest of
one ``verify_graph`` call, never across graphs.  A passing check lists
neither M nor cl(P).  A check that falls short has run the worklist to
its fixpoint, and cl(P) is listed from its elementary triples and
compared with M, listed from the table, so every status and witness is
the one the closure gives.  Each property's axiom set is built once, at
import.  M's table is built by the first check that needs it, so that
check's time includes building it, and the first closure check's time
includes the proof that M is closed.

The maximal and marginal_oracle checks call ``structure``'s unchecked
paths: a chain graph, validated first, is ancestral and has no directed
cycle, and M's cap is the oracle's, so none of that is checked again.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional

from ._bitset import bits
from ._kernels.pyfallback import BACKEND, pairwise_codes
from .chain import validate_chain_graph
from .closure import AxiomSet, Generator, add_generator, closed_target, seeds_gap
from .config import ENUMERATION_CAP, model_cap
from .enumeration import check_count, check_seed, enumerate_mvr_cgs, random_mvr_cgs
from .errors import CapExceeded, GraphError, GraphFormatError, UnknownName
from .factorization import _head_blocks
from .graph import MixedGraph, parents_of_set
from .properties import property_seeds
from .separation import global_model_codes, global_model_table
from .structure import _is_maximal, _latent_model_codes, is_ancestral
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

# Each property's axiom set, built once.
PROPERTY_AXIOM_SETS = {prop: AxiomSet.parse(name) for prop, name in PROPERTY_AXIOMS.items()}

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

    def __post_init__(self):
        for field_name in ("max_n", "random_count", "random_n"):
            check_count(field_name, getattr(self, field_name))
        check_seed(self.seed)
        if not isinstance(self.checks, tuple):  # a frozen config must hash
            raise GraphFormatError(f"checks must be a tuple of check names, "
                                   f"got {self.checks!r}")
        for name in self.checks:
            if name not in ALL_CHECKS:
                raise UnknownName(f"unknown check {name!r}; expected one of "
                                  f"{', '.join(ALL_CHECKS)}")

    def axioms_for(self, prop: str) -> AxiomSet:
        if prop not in PROPERTY_AXIOMS:
            raise UnknownName(f"unknown property {prop!r}; expected one of "
                              f"{', '.join(PROPERTY_AXIOMS)}")
        return PROPERTY_AXIOM_SETS[prop]

    @property
    def marginal_oracle_max_n(self) -> int:
        """``model_cap()``; read only by perfbench's traced sweep (ROADMAP item 5)."""
        return model_cap()


@dataclass
class CheckOutcome:
    status: str  # pass | fail | error, see _raised
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
    """Status and witness of a check that raised: ``fail`` for a
    ``GraphError`` other than ``CapExceeded``, which is no counterexample,
    and ``error`` for any other exception, a fault of the engine."""
    failed = isinstance(exc, GraphError) and not isinstance(exc, CapExceeded)
    return "fail" if failed else "error", f"{type(exc).__name__}: {exc}"


def _once(fn):
    """``fn()``, computed at the first call that returns and kept for the
    later ones: ``functools.cache`` without its wrapper's set-up cost,
    which would be paid three times per graph."""
    kept = []

    def get():
        if not kept:
            kept.append(fn())
        return kept[0]

    return get


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

    @_once
    def table():
        """M's elementary table, built by the first check that needs M."""
        return global_model_table(g)

    @_once
    def model():
        """The separation model M, listed from its table."""
        return pairwise_codes(g.n, table())

    def compare(codes_of):
        """Whether ``codes_of()`` is M, with the first difference if not."""
        global_codes = model()
        codes = codes_of()
        if codes == global_codes:
            return True, None
        triple, in_first = first_difference(g.n, codes, global_codes)
        return False, f"{triple} only in {'first' if in_first else 'second'} model"

    def run_model(name, codes_of):
        """``run`` for a check that compares ``codes_of()`` with M."""
        run(name, lambda: compare(codes_of))

    run_model("im_eq_imstar", lambda: global_model_codes(g, method="mstar"))

    @_once
    def target():
        """``closed_target`` of M's table, once per graph."""
        return closed_target(g.n, table())

    known = []  # the passing checks' chain seeds, generators of M

    def check_closure(prop, axioms):
        m_target = target()  # M first: a graph over the model cap stops here
        seeds = property_seeds(g, prop, dec)
        closed = seeds_gap(g.n, seeds, axioms, m_target, known)
        if closed is not None:
            return compare(lambda: closed)
        add_generator(known, Generator(axioms.flags(), seeds))
        return True, None

    for prop, axioms in PROPERTY_AXIOM_SETS.items():
        run(f"closure_{prop}", lambda prop=prop, axioms=axioms: check_closure(prop, axioms))

    def check_ancestral():
        res = is_ancestral(g)
        return res.ok, None if res.ok else str(res.witness)

    def check_maximal():
        return _is_maximal(g), None

    def check_factorization():
        """``head_partition`` of all vertices is ``factorize_mvr``: the
        chain components, each with its graphical parents as tail, and
        ``factorize_component_dag``'s parent components hold those
        parents.  Compared on the masks the three build their factors
        from, with the same witnesses."""
        tails = dict(_head_blocks(g, g.full_mask))
        comps = dec.component_masks
        if set(tails) != set(comps):
            return False, "head partition blocks differ from chain components"
        parents = [parents_of_set(g, t) for t in comps]
        for t, pa in zip(comps, parents):
            if tails[t] != pa:
                return False, f"tail of {list(bits(t))} differs"
        for i, (t, pa) in enumerate(zip(comps, parents)):
            if pa & ~dec.pa_d_mask(i):
                return False, f"graphical parents of {list(bits(t))} exceed parent components"
        return True, None

    run("ancestral", check_ancestral)
    run("maximal", check_maximal)
    run_model("marginal_oracle", lambda: _latent_model_codes(g))
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
