"""The mvrcg benchmark: how many graphs a verification sweep checks per
second, on three workloads, with a traced run that splits the time by
module.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_n4 --seed 1 --seconds 20 --trace 0

It builds the package in place (``setup.py build_ext --inplace``, so a
compiled kernel is used when the source tree can build one), sets up the
workload several times, then verifies the workload's graphs in whole
passes until ``--seconds`` have passed.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
the two lines before it state what produced it and how many passes and
latency samples it holds.

With ``--trace 0`` the metrics are the end-to-end ones: graphs_per_s,
graph_ms_p50 and graph_ms_p90 per pass (median over passes), setup_s (the
median of SETUP_REPS imports plus input builds), pass_share (graphs with
no failed check and no exception, over graphs attempted) and peak_rss_mb.
Times are scaled to a reference machine speed (speed.py); the raw
wall-clock rate is in the summary line.  With ``--trace 1`` the metrics
are the per-layer ones, per pass (tracing.py).

One process, no worker threads.  The backend is whatever
``mvrcg._kernels`` picks; the benchmark never sets ``MVRCG_PURE_PYTHON``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".bench_build")

WORKLOADS = ("sweep_n4", "closure_sparse6", "oracle_n6")
SETUP_REPS = 9
MAX_LOGGED_FAILURES = 5
BUILT = object()  # measure(): check the compiled kernels the build produced

END_TO_END_UNITS = {
    "graphs_per_s": "1/s",
    "graph_ms_p50": "ms",
    "graph_ms_p90": "ms",
    "setup_s": "s",
    "pass_share": "ratio",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = (
    "enumeration.busy", "chain.validate", "separation.model", "separation.mstar",
    "properties.busy", "closure.sg", "closure.csg", "closure.cg",
    "structure.marginal", "structure.maximal", "structure.ancestral",
    "factorization.busy", "distributions.sample", "distributions.ci",
    "distributions.factor", "sweep.report",
)
LAYER_COUNTS = (
    "separation.model_codes", "properties.triples", "closure.calls",
    "closure.in_codes", "closure.out_codes", "structure.queries",
    "distributions.ci_tests",
)


def build() -> None:
    """Build the package in place, as a user of the source tree would."""
    if not os.path.isfile(os.path.join(SRC, "mvrcg", "__init__.py")):
        raise RuntimeError(f"no mvrcg package under {SRC}")
    subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT,
                   stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=850)


def _purge_modules() -> None:
    """Forget the package's Python modules (and ours that bind them), so the
    next import runs them again.  Compiled extensions stay loaded."""
    for name in list(sys.modules):
        if name in ("workloads", "tracing") or name == "mvrcg" or name.startswith("mvrcg."):
            if (getattr(sys.modules[name], "__file__", None) or "").endswith(".py"):
                del sys.modules[name]


def setup(name: str, seed: int, size: str):
    """Import the package and build the inputs, SETUP_REPS times.

    The first repetition also pays for numpy's import and for writing
    bytecode; set-up time is the median over the repetitions, each scaled
    to reference speed."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    times, enum_times = [], []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPS):
            _purge_modules()
            token = probe.start()
            wl = importlib.import_module("workloads")
            inputs = wl.build_inputs(name, seed, size, perf_counter)
            times.append(probe.scaled(*probe.stop(token)))
            enum_times.append(inputs.enum_s)
    mvrcg = sys.modules["mvrcg"]
    if os.path.commonpath([os.path.abspath(mvrcg.__file__), SRC]) != SRC:
        raise RuntimeError(f"mvrcg was imported from {mvrcg.__file__}, not from {SRC}")
    return wl, importlib.import_module("tracing"), inputs, times, enum_times


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Latencies and failures of one timed pass."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.ops: list[tuple[float, float, float]] = []  # SpeedProbe.stop()s
        self.failed = 0

    def record(self, token, ok: bool, error: str | None = None) -> None:
        self.ops.append(self.probe.stop(token))
        if not ok:
            self.failed += 1
            if error and self.failed <= MAX_LOGGED_FAILURES:
                print(f"graph {len(self.ops) - 1} raised:\n{error}", file=sys.stderr)

    def scaled_ms(self) -> list[float]:
        return sorted(self.probe.scaled(*op) * 1e3 for op in self.ops)


def _one_graph(wl, inputs, i, g):
    """The end-to-end operation on one seeded graph: (ok, CI tests)."""
    report = wl.sweep.verify_graph(g, inputs.config, i)
    report.to_json()
    ok, tests = report.ok, 0
    if inputs.numeric:
        num_ok, tests = wl.numeric_suite(g, inputs.dist_seeds[i])
        ok = ok and num_ok
    return ok, tests


def untraced_pass(wl, inputs, expected_graphs: int, probe: SpeedProbe) -> tuple[Tally, dict]:
    """One pass over the workload: its latencies and its counts."""
    tally = Tally(probe)
    ci_tests = 0
    if inputs.graphs is None:
        # The exhaustive sweep: enumeration is on the timed path.  A graph
        # that raises ends the generator, so resume after it.
        index = 0
        while index < expected_graphs:
            token = probe.start()
            try:
                for report in wl.sweep.run_equivalence_sweep(inputs.config, start_index=index):
                    report.to_json()
                    tally.record(token, report.ok)
                    index = report.index + 1
                    token = probe.start()
                break
            except Exception:  # a failed graph is counted; the run goes on
                tally.record(token, False, traceback.format_exc())
                index += 1
    else:
        for i, g in enumerate(inputs.graphs):
            token = probe.start()
            try:
                ok, tests = _one_graph(wl, inputs, i, g)
                ci_tests += tests
                tally.record(token, ok)
            except Exception:  # a failed graph is counted; the run goes on
                tally.record(token, False, traceback.format_exc())
    return tally, {"graphs": len(tally.ops), "distributions.ci_tests": ci_tests}


def _percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _check_pins(pins: dict, counts: dict, passes: int, notes: list[str]) -> bool:
    ok = True
    for key, pinned in pins.items():
        if key in counts and counts[key] != pinned * passes:
            notes.append(f"pin {key}: expected {pinned} per pass x {passes}, got {counts[key]}")
            ok = False
    return ok


def run_untraced(wl, inputs, pins: dict, seconds: float, setup_times, notes):
    """Whole passes until ``seconds`` have passed; each metric is the median
    over passes.  Times are scaled to reference speed (speed.py)."""
    totals = {"graphs": 0, "distributions.ci_tests": 0}
    per_pass: list[dict] = []
    failed = 0
    t0 = perf_counter()
    with SpeedProbe() as probe:
        while not per_pass or perf_counter() - t0 < seconds:
            tally, counts = untraced_pass(wl, inputs, pins["graphs"], probe)
            for key, value in counts.items():
                totals[key] += value
            failed += tally.failed
            ms = tally.scaled_ms()
            per_pass.append({"graphs_per_s": len(ms) / sum(ms) * 1e3,
                             "graph_ms_p50": _percentile(ms, 0.5),
                             "graph_ms_p90": _percentile(ms, 0.9)})
    wall = perf_counter() - t0
    passes = len(per_pass)
    # Outside the timed region: the separation models of one pass.
    model_codes, unclosed = wl.model_check(inputs)
    totals["separation.model_codes"] = model_codes * passes
    correct = _check_pins(pins, totals, passes, notes)
    if unclosed:
        notes.append(f"{unclosed} separation models not closed under the graphoid axioms")
        correct = False
    attempted = totals["graphs"]
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics.update({
        "setup_s": statistics.median(setup_times),
        "pass_share": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    summary = {"passes": passes, "latency_samples_per_pass": attempted // passes,
               "wall_s": wall, "wall_graphs_per_s": attempted / wall}
    return correct, attempted, failed, metrics, summary


def _graph_stream(wl, inputs, tr):
    """(index, graph) pairs; the exhaustive sweep's enumeration is traced."""
    if inputs.graphs is not None:
        yield from enumerate(inputs.graphs)
        return
    it = iter(wl.sweep.sweep_graphs(inputs.config))
    i = 0
    while True:
        tr.gid = i
        with tr.span("enumeration.busy"):
            g = next(it, None)
        if g is None:
            return
        yield i, g
        i += 1


def traced_pass(wl, tracing, inputs, tr, compiled, fallback, state: dict) -> None:
    """One pass: each graph goes through verify_graph untimed by spans, then
    through the traced replica; the two verdicts must agree."""
    for i, g in _graph_stream(wl, inputs, tr):
        tr.gid = i
        t0 = perf_counter()
        try:
            report = wl.sweep.verify_graph(g, inputs.config, i)
            report.to_json()
            expected = tracing.verdicts(report)
            if inputs.numeric:
                expected["numeric"] = wl.numeric_suite(g, inputs.dist_seeds[i])[0]
        except Exception:  # a failed graph is counted; the run goes on
            expected = None
            state["errors"].append(traceback.format_exc())
        t1 = perf_counter()
        try:
            with tr.span("graph"):
                replica = tracing.traced_verify(g, inputs.config, i, tr)
                with tr.span("sweep.report"):
                    replica.to_json()
                got = tracing.verdicts(replica)
                if inputs.numeric:
                    got["numeric"] = wl.numeric_suite(g, inputs.dist_seeds[i], tr)[0]
        except Exception:  # a failed graph is counted; the run goes on
            got = None
            state["errors"].append(traceback.format_exc())
        t2 = perf_counter()
        state["untraced_s"] += t1 - t0
        state["traced_s"] += t2 - t1
        state["attempted"] += 1
        ok = expected is not None and all(v in ("pass", "skipped", True)
                                          for v in expected.values())
        if not ok:
            state["failed"] += 1
        if got != expected:
            state["disagreements"].append(i)
        if compiled is not None:
            for kernel in tracing.parity_mismatches(compiled, fallback, g, state["flags"]):
                state["parity"].append(f"graph {i}: {kernel}")


def run_traced(wl, tracing, inputs, name, pins, seconds, enum_times, compiled, notes):
    kernels = importlib.import_module("mvrcg._kernels")
    closure = importlib.import_module("mvrcg.closure")
    tr = tracing.Tracer()
    state = {"untraced_s": 0.0, "traced_s": 0.0, "attempted": 0, "failed": 0,
             "disagreements": [], "errors": [], "parity": [],
             "flags": closure.AxiomSet.compositional_graphoid().flags()}
    passes = 0
    t0 = perf_counter()
    while passes == 0 or perf_counter() - t0 < seconds:
        traced_pass(wl, tracing, inputs, tr, compiled, kernels.pyfallback, state)
        passes += 1
    os.makedirs(SPAN_DIR, exist_ok=True)
    tr.write(os.path.join(SPAN_DIR, f"spans-{name}-trace.jsonl"))

    for err in state["errors"][:MAX_LOGGED_FAILURES]:
        print(err, file=sys.stderr)
    counts = {key: tr.counts.get(key, 0) for key in pins}
    counts["graphs"] = state["attempted"]
    correct = _check_pins(pins, counts, passes, notes)
    if state["disagreements"]:
        notes.append(f"traced verdicts differ from verify_graph on graphs "
                     f"{state['disagreements'][:10]}")
        correct = False
    if state["parity"]:
        notes.append(f"compiled and Python kernels differ: {state['parity'][:10]}")
        correct = False

    busy = tr.busy()
    metrics = {f"{layer}_s": busy.get(layer, 0.0) / passes for layer in LAYER_TIMES}
    metrics.update({name_: tr.counts.get(name_, 0) / passes for name_ in LAYER_COUNTS})
    if inputs.graphs is None:
        graphs = state["attempted"] / passes
        metrics["enumeration.graphs"] = graphs
        metrics["enumeration.accept_ratio"] = graphs / wl.exhaustive_candidates(
            inputs.config.max_n)
    else:
        metrics["enumeration.busy_s"] = statistics.median(enum_times)
        metrics["enumeration.graphs"] = inputs.accepted
        metrics["enumeration.accept_ratio"] = inputs.accepted / inputs.candidates
    metrics["trace.overhead_ratio"] = state["traced_s"] / state["untraced_s"]
    parity = ("skipped: compiled kernels not built" if compiled is None
              else "mismatch" if state["parity"] else f"equal on {state['attempted']} graphs")
    summary = {"passes": passes, "spans": len(tr.spans), "parity": parity}
    return correct, state["attempted"], state["failed"], metrics, summary


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            compiled=BUILT):
    """One benchmark run; returns (provenance, summary, result).

    ``compiled`` is the kernel module the traced run checks against the
    Python kernels; by default the one the build produced, if any."""
    wl, tracing, inputs, setup_times, enum_times = setup(name, seed, size)
    kernels = importlib.import_module("mvrcg._kernels")
    if compiled is BUILT:
        compiled = kernels.load_compiled()
    numpy = importlib.import_module("numpy")
    provenance = {
        "workload": name, "seed": seed, "base_seed": wl.BASE_SEED, "size": size,
        "seconds": seconds, "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "mvrcg": sys.modules["mvrcg"].__version__,
        "backend": kernels.BACKEND, "compiled_loaded": kernels.load_compiled() is not None,
        "commit": git_commit(ROOT),
    }
    pins = wl.PINS[(name, size)]
    notes: list[str] = []
    if trace:
        correct, attempted, failed, values, summary = run_traced(
            wl, tracing, inputs, name, pins, seconds, enum_times, compiled, notes)
        units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith("_ratio")
                     else "count") for k in values}
    else:
        correct, attempted, failed, values, summary = run_untraced(
            wl, inputs, pins, seconds, setup_times, notes)
        units = END_TO_END_UNITS
    summary["notes"] = notes
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return provenance, summary, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        build()
        provenance, summary, result = measure(args.workload, args.seed, args.seconds,
                                              bool(args.trace))
    except (OSError, RuntimeError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({"summary": summary}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
