"""Summarise or compare result sets of perfbench/run.py.

A result set is a directory of files, each holding the standard output of
one run (``run.py ... > DIR/<workload>.<seed>.txt``).

    python3 perfbench/compare.py DIR              # spread of one set
    python3 perfbench/compare.py PARENT CHANGE    # change against parent

The spread of a metric is the distance between the first and third
quartiles of its runs (statistics.quantiles, n=4) as a share of their
median.  One set: each end-to-end metric's spread against its bound from
BENCHMARK.json ("steady" below a third of it).  Two sets: per workload and
metric, each side's median and quartiles, the ratio with its base, pairs
won (runs paired by seed), and a verdict:

* ``regression``  the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``  the parent's own spread is wider than the bound, and not
  every change run beats every parent run;
* ``gain``        at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither) and the medians differ by more than the
  parent's quartile distance;
* ``no regression`` otherwise.

Per-layer metrics of traced runs are listed with medians and ratios; they
have no bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_set(path: str) -> dict:
    """{(workload, trace): [run]} where a run is {"seed", "result"}."""
    runs = defaultdict(list)
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        if not lines:
            continue
        try:
            prov = next(json.loads(line)["provenance"] for line in lines
                        if line.startswith('{"provenance"'))
            result = json.loads(lines[-1])
        except (StopIteration, ValueError, KeyError):
            print(f"skipping {name}: not a run's output", file=sys.stderr)
            continue
        runs[(prov["workload"], prov["trace"])].append({"seed": prov["seed"], "result": result})
    return runs


def values(runs: list, metric: str) -> dict:
    """{seed: value} of one metric."""
    return {r["seed"]: r["result"]["metrics"][metric]["value"]
            for r in runs if metric in r["result"]["metrics"]}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def spread(xs: list[float]) -> float:
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0


def verdict(base: dict, change: dict, better: str, bound: float) -> tuple[str, str]:
    """(verdict, pairs won) for one metric, by the rules in the docstring."""
    sign = 1 if better == "higher" else -1
    q1, bmed, q3 = quartiles(list(base.values()))
    _, cmed, _ = quartiles(list(change.values()))
    seeds = sorted(set(base) & set(change))
    wins = sum(sign * (change[s] - base[s]) > 0 for s in seeds)
    won = f"{wins}/{len(seeds)}"
    worse_by = sign * (bmed - cmed) / bmed if bmed else 0.0
    all_better = min(sign * v for v in change.values()) > max(sign * v for v in base.values())
    if spread(list(base.values())) > bound and not all_better:
        return "unresolved", won
    if worse_by > bound:
        return "regression", won
    if (len(seeds) >= MIN_PAIRS and wins >= 0.9 * len(seeds)
            and abs(cmed - bmed) > q3 - q1):
        return "gain", won
    return "no regression", won


def fmt(x: float) -> str:
    return f"{x:.6g}"


def summarise(runs: dict, spec: dict) -> bool:
    """Print each metric's spread; True when every bounded spread is steady."""
    steady = True
    for (workload, trace), rs in sorted(runs.items()):
        bad = sum(r["result"]["failed"] for r in rs)
        wrong = sum(not r["result"]["correct"] for r in rs)
        print(f"\n{workload} trace={trace}: {len(rs)} runs, {bad} failed graphs, "
              f"{wrong} incorrect runs")
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for m in metrics:
            xs = list(values(rs, m["name"]).values())
            if not xs:
                print(f"  {m['name']:<26} missing")
                steady = False
                continue
            q1, med, q3 = quartiles(xs)
            line = (f"  {m['name']:<26} median {fmt(med)} {m['unit']}"
                    f"  q1 {fmt(q1)}  q3 {fmt(q3)}  spread {spread(xs):.4f}")
            if "bound" in m:
                ok = spread(xs) < m["bound"] / 3
                line += f"  bound {m['bound']}  {'steady' if ok else 'NOT steady'}"
                steady &= ok or m["name"] == "setup_s"
            print(line)
    return steady


def compare(base: dict, change: dict, spec: dict) -> bool:
    """Print the comparison; True when nothing regressed."""
    clean = True
    for key in sorted(set(base) | set(change)):
        workload, trace = key
        if key not in base or key not in change:
            print(f"\n{workload} trace={trace}: only in one set")
            continue
        print(f"\n{workload} trace={trace}: {len(base[key])} parent runs, "
              f"{len(change[key])} change runs")
        for m in spec["per_layer"] if trace else spec["end_to_end"]:
            b, c = values(base[key], m["name"]), values(change[key], m["name"])
            if not b or not c:
                print(f"  {m['name']:<26} missing")
                continue
            bq1, bmed, bq3 = quartiles(list(b.values()))
            cq1, cmed, cq3 = quartiles(list(c.values()))
            ratio = f"{cmed / bmed:.4f}x" if bmed else "n/a"
            line = (f"  {m['name']:<26} parent {fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}]"
                    f"  change {fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}] {m['unit']}"
                    f"  ratio {ratio} of base {fmt(bmed)} {m['unit']}")
            if "bound" in m:
                v, won = verdict(b, c, m["better"], m["bound"])
                line += f"  won {won}  {v} (bound {m['bound']})"
                clean &= v != "regression"
            print(line)
    return clean


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = [load_set(path) for path in argv]
    ok = summarise(sets[0], spec) if len(sets) == 1 else compare(sets[0], sets[1], spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
