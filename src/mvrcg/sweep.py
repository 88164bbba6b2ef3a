"""Batch verification sweeps over enumerated and random graphs.

``CHECKS`` is the one list of checks: it maps each check's name to a
function of a ``GraphContext`` that returns ``(ok, witness)``.
``ALL_CHECKS`` is its names, and every report lists its checks in that
order.  ``verify_graph`` validates the graph, builds one context and
runs the configured checks over it.

The context keeps, for one graph and never across graphs, M's
elementary table, M's codes and ``closed_target``'s proof that M is
closed, each built by the first check that reads it, whose time then
includes building it; and ``known``, the seeds of every closure check
that passed, generators of M that the later checks' worklists may stop
at (``add_generator``).  Ten checks compare a code list with M: the m*
and latent-DAG models, and each property's statements closed under its
``PROPERTY_AXIOMS`` set, decided by ``seeds_gap`` on M's table.
``closure.py``'s docstring proves why a passing closure check lists
neither M nor the closure.  The other checks are ancestrality,
maximality and the factorization identities; maximal and
marginal_oracle call ``structure``'s unchecked paths, since a validated
chain graph is ancestral and acyclic, and M's cap is the oracle's.

A check reports ``pass``, ``fail`` with a witness, or ``error``
(``_raised``): a graph over ``model_cap()`` is an error on the ten
checks that build M.  A graph that is not a chain graph reports its
validation error on every configured check.  No failure stops a sweep.
``run_equivalence_sweep`` shares a sweep's graphs between the caller and
forked workers, one per further CPU, and yields their reports in graph
order.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import signal
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from itertools import islice
from json.encoder import encode_basestring_ascii as _encode
from typing import Callable, Iterator, Optional

from ._bitset import bits
from ._kernels.pyfallback import BACKEND, pairwise_codes
from .chain import ChainDecomposition, validate_chain_graph
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


@dataclass
class GraphContext:
    """What one graph's checks share: the graph, its chain
    decomposition, M on first use, and ``known``, the generators of M
    that the passing closure checks have shown."""

    g: MixedGraph
    dec: ChainDecomposition
    known: list[Generator] = field(default_factory=list)

    @cached_property
    def table(self) -> list[int]:
        """M's elementary table."""
        return global_model_table(self.g)

    @cached_property
    def model(self) -> list[int]:
        """M's codes, listed from its table."""
        return pairwise_codes(self.g.n, self.table)

    @cached_property
    def target(self):
        """``closed_target`` of M's table."""
        return closed_target(self.g.n, self.table)

    def compare(self, codes_of) -> tuple[bool, Optional[str]]:
        """Whether ``codes_of()``, called once M is built, is M, with the
        first difference if not."""
        model = self.model
        codes = codes_of()
        if codes == model:
            return True, None
        triple, in_first = first_difference(self.g.n, codes, model)
        return False, f"{triple} only in {'first' if in_first else 'second'} model"


def _check_closure(prop: str, axioms: AxiomSet, ctx: GraphContext):
    """Whether ``prop``'s statements close to M under ``axioms``; if so,
    their seeds are kept as a generator of M for the later checks."""
    target = ctx.target  # M first: a graph over the model cap stops here
    seeds = property_seeds(ctx.g, prop, ctx.dec)
    closed = seeds_gap(ctx.g.n, seeds, axioms, target, ctx.known)
    if closed is not None:
        return ctx.compare(lambda: closed)
    add_generator(ctx.known, Generator(axioms.flags(), seeds))
    return True, None


def _check_ancestral(ctx: GraphContext):
    res = is_ancestral(ctx.g)
    return res.ok, None if res.ok else str(res.witness)


def _check_factorization(ctx: GraphContext):
    """``head_partition`` of all vertices is ``factorize_mvr``: the chain
    components, each with its graphical parents as tail, and
    ``factorize_component_dag``'s parent components hold those parents.
    Compared on the masks the three build their factors from, with the
    same witnesses."""
    g, dec = ctx.g, ctx.dec
    tails = dict(_head_blocks(g, g.full_mask))
    comps = dec.component_masks
    if set(tails) != set(comps):
        return False, "head partition blocks differ from chain components"
    parents = [parents_of_set(g, t) for t in comps]
    for t, pa in zip(comps, parents):
        if tails[t] != pa:
            return False, f"tail of {list(bits(t))} differs"
    for t, pa, pa_d in zip(comps, parents, dec.pa_d_masks):
        if pa & ~pa_d:
            return False, f"graphical parents of {list(bits(t))} exceed parent components"
    return True, None


CHECKS: dict[str, Callable[[GraphContext], tuple[bool, Optional[str]]]] = {
    "im_eq_imstar": lambda ctx: ctx.compare(lambda: global_model_codes(ctx.g, method="mstar")),
    **{f"closure_{prop}": partial(_check_closure, prop, AxiomSet.parse(axioms))
       for prop, axioms in PROPERTY_AXIOMS.items()},
    "ancestral": _check_ancestral,
    "maximal": lambda ctx: (_is_maximal(ctx.g), None),
    "marginal_oracle": lambda ctx: ctx.compare(lambda: _latent_model_codes(ctx.g)),
    "factorization": _check_factorization,
}

ALL_CHECKS = tuple(CHECKS)


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
        return AxiomSet.parse(PROPERTY_AXIOMS[prop])

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
        """``json.dumps`` of the report's dict with ``sort_keys=True``,
        written from its parts: keys are emitted in sorted order, strings
        go through json's own ASCII escaper and ``ms`` through
        ``repr(round(ms, 3))``, as json's encoder writes them."""
        checks = ", ".join([
            f'{_encode(name)}: {{"ms": {round(c.ms, 3)!r}, "status": {_encode(c.status)}'
            + (f', "witness": {_encode(c.witness)}}}' if c.witness else "}")
            for name, c in sorted(self.checks.items())])
        return (f'{{"bidirected": {_edges_json(self.bidirected)}, "checks": {{{checks}}}, '
                f'"directed": {_edges_json(self.directed)}, "hash": {_encode(self.graph_hash)}, '
                f'"index": {self.index}, "n": {self.n}, '
                f'"ok": {"true" if self.ok else "false"}}}')


def _edges_json(edges) -> str:
    """An edge list as json writes a list of vertex-id pairs."""
    return "[" + ", ".join([f"[{a}, {b}]" for a, b in edges]) + "]"


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


def verify_graph(g: MixedGraph, config: SweepConfig, index: int = 0) -> VerificationReport:
    report = VerificationReport(index, g.n, graph_hash(g),
                                sorted(g.directed), sorted(g.bidirected))
    names = [name for name in CHECKS if name in config.checks]
    try:
        ctx = GraphContext(g, validate_chain_graph(g))
    except Exception as exc:
        status, witness = _raised(exc)
        for name in names:
            report.checks[name] = CheckOutcome(status, witness)
        return report
    for name in names:
        t0 = time.perf_counter()
        try:
            ok, witness = CHECKS[name](ctx)
            status = "pass" if ok else "fail"
        except Exception as exc:
            status, witness = _raised(exc)
        report.checks[name] = CheckOutcome(status, witness,
                                           (time.perf_counter() - t0) * 1e3)
    return report


def _shard_count() -> int:
    """K, the number of CPUs this process may run on, or 1 where it
    cannot fork or cannot tell.  A daemonic process, such as a pool's
    worker, may not start processes."""
    affinity = getattr(os, "sched_getaffinity", None)
    if (affinity is None or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return len(affinity(0))


def _portable(exc: Exception) -> Exception:
    """``exc``, or a ``RuntimeError`` naming its type and message if it
    does not survive a pickle round trip."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _verify_shard(config: SweepConfig, start: int, shard: int, count: int,
                  conn, readers) -> None:
    """A worker's body: send the report of each graph i >= ``start`` with
    ``(i - start) % count == shard``, in order, over ``conn``; an
    exception is sent in place of the report it stopped, and ends the
    shard.  The worker closes every pipe end it inherited but its own
    write end, so it is the only writer and never a reader."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops its workers
    for reader in readers:
        reader.close()
    try:
        for i, g in islice(enumerate(sweep_graphs(config)), start, None):
            if (i - start) % count == shard:
                conn.send(verify_graph(g, config, i))
    except Exception as exc:
        conn.send(_portable(exc))


def _sharded_sweep(config: SweepConfig, start: int) -> Iterator[VerificationReport]:
    count = _shard_count()
    readers, workers = [], []
    try:
        for shard in range(1, count):
            ctx = multiprocessing.get_context("fork")
            reader, writer = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_verify_shard, daemon=True,
                                 args=(config, start, shard, count, writer, [*readers, reader]))
            worker.start()
            writer.close()  # so a worker that dies ends its pipe
            readers.append(reader)
            workers.append(worker)
        for i, g in islice(enumerate(sweep_graphs(config)), start, None):
            shard = (i - start) % count
            if shard == 0:
                yield verify_graph(g, config, i)
                continue
            report = readers[shard - 1].recv()
            if isinstance(report, Exception):
                raise report
            yield report
    finally:
        for worker in workers:
            worker.kill()
        for worker in workers:
            worker.join()
        for reader in readers:
            reader.close()


def run_equivalence_sweep(config: SweepConfig,
                          start_index: int = 0) -> Iterator[VerificationReport]:
    """Reports in deterministic graph order, optionally resuming after
    ``start_index - 1``, a nonnegative int.

    The sweep runs on K = ``len(os.sched_getaffinity(0))`` shards:
    counting from ``start_index``, graph i goes to shard
    ``(i - start_index) % K``.  The caller verifies shard 0 itself; at the
    first ``next()`` it forks K - 1 workers, each of which walks
    ``sweep_graphs`` too and sends its shard's reports over a one-way
    pipe, read back for that worker's graphs.  So the reports, but for
    their times, do not depend on K, which is 1, with no worker, where
    the process cannot fork.  An exception a worker meets is raised here
    at its graph, after the reports before it, as a ``RuntimeError``
    with its type and message if it cannot be pickled; a worker that
    dies raises ``EOFError``.  When the generator is exhausted, closed,
    raises or is collected, every worker is killed and joined."""
    # A malformed MVRCG_MAX_N or start_index, or a max_n beyond exhaustive
    # enumeration, is not a property of any graph: raise it on the call,
    # before any work, instead of failing every graph with it or after
    # hours of output.
    check_count("start_index", start_index)
    model_cap()
    if config.max_n > ENUMERATION_CAP:
        raise CapExceeded(f"exhaustive enumeration capped at n={ENUMERATION_CAP}")
    return _sharded_sweep(config, start_index)
