"""Fuzz the public entry points: every call answers or raises a typed error.

The API test draws a chain graph with at most four vertices and calls
each public function of ``mvrcg`` that takes vertices with ids from
{-1, ..., n} and ids that are not ints (None, floats, strings, bools),
empty and overlapping sets, single ids where sets belong, and masks that
are negative, beyond the full mask or not ints.
The generator test draws sizes and seeds of several types for the graph
generators.  The CLI test runs ``cli.main`` on drawn argument lists over
a drawn graph file, model files and output paths, and expects exit
status 0, 1 or 2.
Sizes are drawn up to 3, and a sweep starts from ``--max-n 1``, so that
every drawn run stays small.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import random
from functools import cache
from math import inf, nan, prod

import numpy as np

from hypothesis import HealthCheck, given, settings, strategies as st

import mvrcg
from mvrcg import (IndependenceTriple, JointTable, MixedGraph, ancestors, anteriors, barren,
                   canonical_dag, ci_holds, d_separated, district_of, districts,
                   enumerate_dags, enumerate_mvr_cgs, find_primitive_inducing_chain,
                   head_partition, induced_subgraph, intervene, m_connecting_walk,
                   m_separated, m_star_separated, markov_blanket, ordered_local_triples,
                   pre_of_component, random_mvr_cg, random_mvr_cgs, relatives,
                   sample_latent_dag_distribution, validate_chain_graph,
                   verify_factorization)
from mvrcg.cli import main
from mvrcg.enumeration import enumerate_mixed_graphs
from mvrcg.errors import GraphError
from mvrcg.properties import PROPERTY_KINDS, property_model

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@cache
def _graphs():
    return [g for n in range(5) for g in enumerate_mvr_cgs(n)]


def _typed(fn, *args):
    """``fn(*args)``, or None when it raises a ``GraphError``; any other
    exception fails the test."""
    try:
        return fn(*args)
    except GraphError:
        return None


def _calls(g, x, y, z, a, v, w, within):
    """Each public function that takes vertices, with its arguments."""
    dec = validate_chain_graph(g)
    calls = [(ancestors, (g, x)), (anteriors, (g, x)), (barren, (g, x, within)),
             (d_separated, (g, x, y, z)), (district_of, (g, v)), (districts, (g, within)),
             (find_primitive_inducing_chain, (g, v, w)), (head_partition, (g, a)),
             (induced_subgraph, (g, a)), (intervene, (g, x)),
             (m_connecting_walk, (g, x, y, z)), (m_separated, (g, x, y, z)),
             (m_star_separated, (g, x, y, z)), (markov_blanket, (g, v, a)),
             (ordered_local_triples, (g, a)), (pre_of_component, (dec, v)),
             (pre_of_component, (dec, a)), (relatives, (g, v)), (relatives, (g, v, dec)),
             (IndependenceTriple.of, (x, y, z))]
    table = sample_latent_dag_distribution(canonical_dag(g), 0)
    triple = _typed(IndependenceTriple.of, x, y, z)
    if triple is not None:
        calls.append((ci_holds, (table, triple)))
    fact = _typed(head_partition, g, a)
    if fact is not None:
        calls.append((verify_factorization, (table, fact)))
    return calls


def test_the_fuzz_calls_every_public_function_that_takes_vertices():
    vertex_params = {"xs", "X", "Y", "Z", "H", "A", "v", "x", "r", "s", "within", "order",
                     "component"}
    public = [getattr(mvrcg, name) for name in mvrcg.__all__]
    takes_vertices = {fn for fn in public if inspect.isfunction(fn)
                      and vertex_params & set(inspect.signature(fn).parameters)}
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    called = {fn for fn, _ in _calls(g, [0], [2], [1], [0, 1, 2], 0, 2, 7)}
    assert takes_vertices and takes_vertices <= called


@FUZZ
@given(st.data())
def test_public_functions_answer_or_raise_typed_errors(data):
    g = data.draw(st.sampled_from(_graphs()))
    ids = st.integers(-1, g.n) | st.sampled_from([None, 0.0, 1.5, "0", True, False])
    lists = st.lists(ids, max_size=3) | ids
    x, y, z, a = (data.draw(lists) for _ in range(4))
    v, w = data.draw(ids), data.draw(ids)
    within = data.draw(st.none() | st.integers(-1, 1 << g.n + 1) | st.sampled_from([1.0, "0", True]))
    for fn, args in _calls(g, x, y, z, a, v, w, within):
        _typed(fn, *args)


@FUZZ
@given(st.data())
def test_joint_table_builds_or_raises_typed_errors(data):
    k = data.draw(st.integers(0, 3))
    variables = tuple(data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)))
    cards = tuple(data.draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)))
    shape = data.draw(st.just(cards) | st.lists(st.integers(0, 3), max_size=3).map(tuple))
    cells = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.25, nan, inf, -inf]),
                               min_size=prod(shape), max_size=prod(shape)))
    values = np.array(cells).reshape(shape)
    probs = data.draw(st.sampled_from([
        values, values.tolist(), values.astype(complex), values.astype(str),
        values.astype(object), (values == 1.0).astype(int), [cells, [0.5]], None]))
    table = _typed(JointTable, variables, cards, probs)
    if table is not None:
        assert table.probs.dtype == float and not table.probs.flags.writeable
        if k >= 2:
            _typed(ci_holds, table, IndependenceTriple.of([variables[0]], [variables[1]]))


_SIZE_ARGS = st.integers(-2, 3) | st.sampled_from([2.5, True, None, "3", [1]])


@FUZZ
@given(n=_SIZE_ARGS, count=_SIZE_ARGS, seed=_SIZE_ARGS | st.integers(-2**40, 2**40))
def test_graph_generators_answer_or_raise_typed_errors(n, count, seed):
    """The exhaustive and random generators refuse a size that is not a
    nonnegative int, and a seed that is not an int, with a typed error;
    a seeded random run is reproducible."""
    for gen in (enumerate_mvr_cgs, enumerate_dags, enumerate_mixed_graphs):
        graphs = _typed(lambda: list(gen(n)))
        assert (graphs is not None) == (type(n) is int and n >= 0)
    graphs = _typed(lambda: [g.to_text() for g in random_mvr_cgs(n, count, seed)])
    valid = type(n) is int and n >= 0 and type(count) is int and count >= 0
    assert (graphs is not None) == (valid and type(seed) is int)
    if graphs is not None:
        assert len(graphs) == count
        assert graphs == [g.to_text() for g in random_mvr_cgs(n, count, seed)]
    assert (_typed(random_mvr_cg, n, random.Random(0)) is not None) == (
        type(n) is int and n >= 0)


# Each subcommand's flags, the flags it cannot run without, and for each
# flag the values drawn for it: a path kind, a list, or None for a switch.
_CLI_FLAGS = {
    "validate": ("--graph", "--json"),
    "components": ("--graph", "--json"),
    "separate": ("--graph", "--x", "--y", "--z", "--method"),
    "properties": ("--graph", "--kind", "--p4-both", "--emit", "--json"),
    "closure": ("--in", "--axioms", "--out"),
    "equiv": ("--a", "--b", "--axioms"),
    "factorize": ("--graph", "--style", "--set"),
    "check": ("--graph", "--ancestral", "--maximal", "--marginal-oracle"),
    "numeric-check": ("--graph", "--seeds", "--eps"),
    "intervene": ("--graph", "--on", "--out"),
    "sweep": ("--max-n", "--random", "--random-n", "--seed", "--out", "--cursor"),
    "export-dot": ("--graph", "--set", "--out"),
}
_NEEDED = {"--graph", "--x", "--y", "--kind", "--in", "--a", "--b", "--on", "--out"}
_VERTICES = ["0", "1", "0,1", "0,0", "1,2,3", "-1", "9", "x", "", ","]
_SIZES = ["-1", "0", "1", "2", "3", "x"]
_VALUES = {
    "--graph": "graph", "--in": "model", "--a": "model", "--b": "model",
    "--out": "output", "--emit": "output", "--cursor": "output",
    "--x": _VERTICES, "--y": _VERTICES, "--z": _VERTICES, "--set": _VERTICES,
    "--on": _VERTICES,
    "--max-n": _SIZES, "--random": _SIZES, "--random-n": _SIZES, "--seeds": _SIZES,
    "--seed": ["-1", "0", "7", "x"], "--eps": ["1e-9", "0.5", "-1", "nan", "x"],
    "--method": ["m", "mstar", "d", "z"], "--kind": [*PROPERTY_KINDS, "z"],
    "--axioms": ["sg", "g", "csg", "cg", "z"], "--style": ["mvr", "component-dag", "admg", "z"],
}


def test_cli_exits_0_1_or_2_without_a_traceback(tmp_path):
    files = {name: tmp_path / name for name in
             ("g.cg", "bad.cg", "model.json", "bad.json", "list.json", "out.txt")}
    missing = tmp_path / "missing" / "x"
    paths = {"graph": ["g.cg", "bad.cg", "model.json"],
             "model": ["model.json", "bad.json", "list.json", "g.cg"],
             "output": ["out.txt", "bad.json", "list.json"]}
    paths = {kind: [str(files[name]) for name in names] + [str(missing), str(tmp_path)]
             for kind, names in paths.items()}

    @st.composite
    def argv(draw):
        """A subcommand and each of its flags with a drawn value: a flag
        that the subcommand needs is left out one time in ten, any other
        flag six times in ten, and ``--help`` is added one time in twenty."""
        command = draw(st.sampled_from(sorted(_CLI_FLAGS)))
        out = [command, "--max-n", "1"] if command == "sweep" else [command]
        for flag in _CLI_FLAGS[command]:
            if draw(st.integers(0, 9)) >= (9 if flag in _NEEDED else 4):
                continue
            out.append(flag)
            values = _VALUES.get(flag)
            if isinstance(values, str):
                values = paths[values]
            if values is not None:
                out.append(draw(st.sampled_from(values)))
        if draw(st.integers(0, 19)) == 0:
            out.append("--help")
        return out

    @FUZZ
    @given(st.sampled_from(_graphs()), argv())
    def run(g, args):
        files["g.cg"].write_text(g.to_text())
        files["bad.cg"].write_text("vertex 0\n0 -> 1\n")
        files["model.json"].write_text(json.dumps(property_model(g, "p1").to_json_obj()))
        files["bad.json"].write_text("{not json")
        files["list.json"].write_text("[1, 2]")
        files["out.txt"].unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse: bad arguments or --help
                code = exc.code
        assert code in (0, 1, 2), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    run()
