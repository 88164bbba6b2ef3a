"""Fast self-test of the benchmark: every workload at a tiny size, untraced
and traced, through the code path of a real run.

    python3 perfbench/selftest.py

It checks that each run is correct with no failed graph, that the pinned
counts hold, that exactly the metrics BENCHMARK.json names are emitted with
its units, that the traced verdicts agree with verify_graph's, and that the
backend parity check runs (the Python kernels stand in for compiled ones).
It also summarises the results with compare.py.  Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import compare
import run


def check(cond: bool, what: str, failures: list[str]) -> None:
    if not cond:
        failures.append(what)


def main() -> int:
    spec = compare.load_spec()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures: list[str] = []
    os.makedirs(run.SPAN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SPAN_DIR) as out:
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                prov, summary, result = run.measure(workload, 7, 0, bool(trace), size="tiny")
                tag = f"{workload} trace={trace}"
                check(result["correct"], f"{tag}: not correct: {summary['notes']}", failures)
                check(result["failed"] == 0 and result["attempted"] >= 1,
                      f"{tag}: {result['failed']} of {result['attempted']} failed", failures)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == expected[trace], f"{tag}: metrics {got} != {expected[trace]}",
                      failures)
                if trace:
                    check(summary["parity"].startswith("skipped") != prov["compiled_loaded"],
                          f"{tag}: parity {summary['parity']!r}", failures)
                with open(os.path.join(out, f"{workload}.{trace}.txt"), "w",
                          encoding="utf-8") as fh:
                    for line in ({"provenance": prov}, {"summary": summary}, result):
                        fh.write(json.dumps(line) + "\n")
            kernels = sys.modules["mvrcg._kernels"]
            _, summary, result = run.measure(workload, 7, 0, True, size="tiny",
                                             compiled=kernels.pyfallback)
            check(result["correct"] and summary["parity"].startswith("equal"),
                  f"{workload}: parity path {summary['parity']!r}", failures)
        compare.summarise(compare.load_set(out), spec)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
