"""The planted-defect table: for each source edit in ``mutants.MUTANTS``,
the checks of the default sweep that flag it and the number of the 1,743
chain graphs with n <= 4 on which some check does, as pinned in
``tests/mutants.json``.  A change that moves a count re-pins the table
with ``python tests/mutants.py > tests/mutants.json``."""

import os
import time

import mutants

BUDGET_S = 30.0  # on two CPUs; one CPU gets twice as long


def test_each_defect_edits_one_place_and_is_pinned():
    for name in mutants.MUTANTS:
        mutants.planted(name)
    assert list(mutants.pinned()) == list(mutants.MUTANTS)


def test_planted_defects_are_flagged_as_pinned():
    """One sweep per defect, in a subprocess on a patched copy of the
    package, up to one subprocess per usable CPU."""
    cpus = len(os.sched_getaffinity(0))
    budget = BUDGET_S * 2 / min(cpus, 2)
    start = time.perf_counter()
    measured = mutants.measure_all()
    elapsed = time.perf_counter() - start
    print(f"[mutants] {len(measured)} defects on {cpus} CPUs: {elapsed:.1f}s "
          f"(budget {budget:.0f}s)")
    assert measured == mutants.pinned()
    assert elapsed < budget, f"the defect table took {elapsed:.1f}s, over {budget:.0f}s"
