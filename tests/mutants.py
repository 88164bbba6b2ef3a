"""Planted defects, and which of the sweep's checks flag each one.

``MUTANTS`` maps a defect's name to the source edit that plants it,
``(file, old, new)``, with ``file`` relative to ``src/mvrcg``.  ``old``
must occur exactly once in its file, so a change that rewrites a mutated
line has to update its entry here in the same change.  ``measure_all()``
applies each edit to its own copy of ``src/mvrcg`` in a temporary
directory and runs all 13 checks of the default sweep on the 1,743 chain
graphs with n <= 4 in a subprocess that imports the copy.  For each
defect it gives the number of graphs that some check does not pass, and
for each check the number of graphs it does not pass (``fail`` or
``error``).

``tests/mutants.json`` pins that table, and ``test_mutants.py`` measures
it again.  Run as a script, this file measures every defect, one
subprocess per usable CPU, and prints the table as that JSON, so a
change that moves a count re-pins it with

    python tests/mutants.py > tests/mutants.json

A defect that no check flags is either a gap in the checks or code that
is equivalent to the edited form; CHANGES.md and ROADMAP.md say which.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "mvrcg")
PINNED = os.path.join(ROOT, "tests", "mutants.json")

MUTANTS = {
    # Shared graph primitives.
    "reach_mask stops after one step": (
        "graph.py",
        "        out |= frontier\n    return out\n",
        "        out |= frontier\n        break\n    return out\n"),
    "ancestors_mask stops after one step": (
        "graph.py",
        "    return reach_mask(g.pa, seed, g.full_mask)\n",
        "    return seed | parents_of_set(g, seed)\n"),
    # The separation routes.
    "_m_walk: a collider only in z": (
        "separation.py",
        "        if head and anz >> v & 1:  # crossed as a collider\n",
        "        if head and z >> v & 1:  # crossed as a collider\n"),
    "_collider_adjacency: collider paths stop after one edge": (
        "separation.py",
        "        head = reach_mask(g.nb, g.ch[s] | g.nb[s], within)\n",
        "        head = (g.ch[s] | g.nb[s]) & within\n"),
    "_moral_adjacency marries no parents": (
        "separation.py",
        "        for p in bits(parents):\n",
        "        for p in ():\n"),
    "_loose_classes merges no class": (
        "separation.py",
        "            if t & near:\n",
        "            if False:\n"),
    "the latent DAG skips the last bidirected edge": (
        "structure.py",
        "    for u, v in sorted(g.bidirected):\n        h = 1 << len(pa)\n",
        "    for u, v in sorted(g.bidirected)[:-1]:\n        h = 1 << len(pa)\n"),
    "pairwise_codes skips the empty conditioning set": (
        "_kernels/pyfallback.py",
        "    for c in range(size):\n        apart = table[c::size]\n",
        "    for c in range(1, size):\n        apart = table[c::size]\n"),
    # The property builders, one defect each.
    "p1 conditions on the pair's components too": (
        "properties.py",
        "        own = [dec.pre_masks[t] for t in dec.component_of]\n",
        "        own = [dec.pre_masks[t] | dec.component_masks[t] for t in dec.component_of]\n"),
    "p2 conditions on descendants, not ancestors": (
        "properties.py",
        "        own = [ancestors_mask(g, 1 << v) for v in range(g.n)]\n",
        "        own = [descendants_mask(g, 1 << v) for v in range(g.n)]\n"),
    "p3 conditions on the boundary, not the parents": (
        "properties.py",
        "        own = g.pa\n",
        "        own = [p | b for p, b in zip(g.pa, g.nb)]\n"),
    "p4 designates the smaller id, not the earlier component": (
        "properties.py",
        "            earlier = i if (ci, i) <= (cj, j) else j\n",
        "            earlier = i\n"),
    "mr takes the parents of A's last vertex only": (
        "properties.py",
        "                pa = parents_of_set(g, sub)\n                rest = pre & ~pa\n",
        "                pa = g.pa[sub.bit_length() - 1]\n                rest = pre & ~pa\n"),
    "iv keeps A's neighbours in its second statement": (
        "properties.py",
        "                iv2_rest = tmask & ~nbs\n",
        "                iv2_rest = tmask & ~sub\n"),
    "ordered lists sets that are not ancestral": (
        "properties.py",
        "                sets += [a | bv for a in sets if not pa & ~a]\n",
        "                sets += [a | bv for a in sets]\n"),
    "local keeps the descendants of v's neighbours": (
        "properties.py",
        "        rest = nd & ~(g.pa[v] | descendants_mask(g, g.nb[v]))\n",
        "        rest = nd & ~(g.pa[v] | g.nb[v])\n"),
    # The closure engine and its stops.
    "mask_seeds drops b_<j from the conditioning set": (
        "_kernels/pyfallback.py",
        "                out.append((row | b & (by - 1), by))\n",
        "                out.append((row, by))\n"),
    "an unsound sg step (drops the premise <i, k | L>)": (
        "_kernels/pyfallback.py",
        "                    if not table[L] & bj:\n                        emit(i, bj, K ^ low)\n"
        "                if inter",
        "                if not table[L] & bj:\n                    emit(i, bj, K ^ low)\n"
        "                if inter"),
    "intersection always on": (
        "_kernels/pyfallback.py",
        "    inter = bool(flags & INTERSECTION)\n",
        "    inter = True\n"),
    "composition always on": (
        "_kernels/pyfallback.py",
        "    comp = bool(flags & COMPOSITION)\n",
        "    comp = True\n"),
    "closed_target skips its intersection test": (
        "closure.py",
        "                if table[row ^ bk | bj] & bk:\n",
        "                if False:\n"),
    "seeds_gap serves every generator, whatever its flags": (
        "closure.py",
        "        stops = [gen.seeds for gen in known if not gen.flags & ~flags]\n",
        "        stops = [gen.seeds for gen in known]\n"),
    "the goal stop at |E(M)| - 1": (
        "closure.py",
        "        goal = target.count\n",
        "        goal = target.count - 1\n"),
    # The structural checks.
    "_maximal_by_chains: a chain's colliders may leave an({r, s})": (
        "structure.py",
        "        if head and anchor >> v & 1:\n",
        "        if head:\n"),
}

# A worker subprocess: for each package copy named on its command line, it
# imports that copy afresh and runs every graph of the default n <= 4 sweep
# through the in-process loop, so no sweep worker forks, and prints one line
# of JSON.
WORKER = """
import json, os, sys
from collections import Counter
for root in sys.argv[1:]:
    for module in [m for m in sys.modules if m.partition(".")[0] == "mvrcg"]:
        del sys.modules[module]
    sys.path.insert(0, root)
    import mvrcg
    from mvrcg.sweep import SweepConfig, _verify_graph, sweep_graphs
    assert mvrcg.__file__.startswith(root + os.sep), mvrcg.__file__
    config = SweepConfig(max_n=4)
    graphs, flagged = 0, Counter()
    for i, g in enumerate(sweep_graphs(config)):
        bad = [name for name, c in _verify_graph(g, config, i).checks.items()
               if c.status != "pass"]
        graphs += bool(bad)
        flagged.update(bad)
    sys.path.remove(root)
    print(json.dumps({"graphs": graphs, "checks": dict(sorted(flagged.items()))}))
"""


def planted(name: str, package: str = PACKAGE) -> tuple[str, str]:
    """The path of the file that defect ``name`` edits and its source
    with the edit made; ``ValueError`` unless ``old`` occurs exactly once."""
    file, old, new = MUTANTS[name]
    path = os.path.join(package, file)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    if source.count(old) != 1:
        raise ValueError(f"{name!r}: the edited text occurs {source.count(old)} times "
                         f"in {file}, not once")
    return path, source.replace(old, new)


def measure_all() -> dict[str, dict]:
    """``{"graphs": ..., "checks": {...}}`` for each defect, in ``MUTANTS``
    order: the sweep with that defect planted in its own copy of the
    package.  The defects are dealt round robin to one worker subprocess
    per CPU this process may run on, which imports each copy in turn."""
    names = list(MUTANTS)
    count = min(len(os.sched_getaffinity(0)), len(names))
    with tempfile.TemporaryDirectory() as tmp:
        roots = []
        for k, name in enumerate(names):
            roots.append(os.path.join(tmp, str(k)))
            copy = os.path.join(roots[-1], "mvrcg")
            shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
            path, source = planted(name, copy)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"

        def run(shard: int) -> list[str]:
            proc = subprocess.run([sys.executable, "-c", WORKER, *roots[shard::count]],
                                  cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode:
                raise RuntimeError(f"the sweeps of {names[shard::count]} exited with "
                                   f"{proc.returncode}\n{proc.stderr[-2000:]}")
            return proc.stdout.splitlines()

        with ThreadPoolExecutor(count) as pool:
            lines = list(pool.map(run, range(count)))
    table = {}
    for shard, out in enumerate(lines):
        table.update(zip(names[shard::count], map(json.loads, out)))
    return {name: table[name] for name in names}


def pinned() -> dict[str, dict]:
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    print(json.dumps(measure_all(), indent=2))
