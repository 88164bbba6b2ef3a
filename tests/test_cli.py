import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from itertools import islice

import pytest

from mvrcg import MixedGraph
from mvrcg import fixtures
from mvrcg.cli import main
from mvrcg import closure, structure
from mvrcg._kernels import pyfallback
from mvrcg._kernels.pyfallback import chain_seeds, elementary_closure, pairwise_codes
from mvrcg.chain import ChainDecomposition, validate_chain_graph
from mvrcg.closure import AxiomSet, close_codes, closed_target, equivalent_under, seeds_gap
from mvrcg.enumeration import enumerate_mvr_cgs, random_mvr_cgs
from mvrcg.errors import CapExceeded, ModelFormatError
from mvrcg.properties import property_model, property_seeds
from mvrcg.separation import global_model, global_model_codes, global_model_table
from mvrcg.sweep import (ALL_CHECKS, CHECKS, PROPERTY_AXIOMS, CheckOutcome, SweepConfig,
                         VerificationReport, config_hash, run_equivalence_sweep, sweep_graphs,
                         verify_graph)
from mvrcg.triples import IndependenceModel, IndependenceTriple, decode_triple, first_difference

from oracles import elementary_codes, one_pair_changes, oracle_enumerate


@pytest.fixture()
def fig_path(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.cg"
        p.write_text(fixtures.load(name).to_text(), encoding="utf-8")
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, fig_path):
    code, out, _ = run(capsys, "validate", "--graph", fig_path("fig2"))
    assert code == 0
    assert "VALID" in out


def test_validate_rejects_cycle(capsys, tmp_path):
    p = tmp_path / "bad.cg"
    p.write_text("vertex a\nvertex b\nvertex c\na -> b\nb <-> c\nc -> a\n")
    code, out, _ = run(capsys, "validate", "--graph", str(p))
    assert code == 1
    assert "INVALID" in out


def test_validate_labels_the_cycle_witness(capsys, fig_path):
    code, out, _ = run(capsys, "validate", "--graph", fig_path("fig1"))
    assert (code, out) == (1, "INVALID: partially directed cycle: alpha-delta-beta-alpha\n")


def test_validate_json_reports_an_invalid_graph_as_json(capsys, fig_path):
    code, out, _ = run(capsys, "validate", "--graph", fig_path("fig1"), "--json")
    assert code == 1
    assert json.loads(out) == {"valid": False,
                               "error": "partially directed cycle: alpha-delta-beta-alpha",
                               "witness": ["alpha", "delta", "beta", "alpha"]}


def test_validate_keeps_the_plain_line_for_a_graph_that_does_not_load(capsys, tmp_path):
    p = tmp_path / "bad.cg"
    p.write_text("vertex a\na -> b\n")
    for extra in ((), ("--json",)):
        code, out, _ = run(capsys, "validate", "--graph", str(p), *extra)
        assert (code, out) == (1, "INVALID: line 2: undeclared vertex 'b'\n")


def test_components_json(capsys, fig_path):
    code, out, _ = run(capsys, "components", "--graph", fig_path("fig2"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["components"][0] == [0, 1]
    assert len(data["components"]) == 4


def test_separate_reports_witness(capsys, tmp_path):
    p = tmp_path / "collider.cg"
    p.write_text("vertex a\nvertex b\nvertex c\na -> c\nb -> c\n")
    code, out, _ = run(capsys, "separate", "--graph", str(p), "--x", "a", "--y", "b")
    assert code == 0 and "SEPARATED" in out
    code, out, _ = run(capsys, "separate", "--graph", str(p),
                       "--x", "a", "--y", "b", "--z", "c")
    assert code == 0 and out.startswith("CONNECTED")
    assert "a ~ c ~ b" in out


def test_separate_methods_agree(capsys, fig_path):
    path = fig_path("fig3")
    for method in ("m", "mstar"):
        code, out, _ = run(capsys, "separate", "--graph", path,
                           "--x", "1", "--y", "7", "--z", "5", "--method", method)
        assert code == 0
        assert "SEPARATED" in out


def test_properties_emit_and_closure_round_trip(capsys, fig_path, tmp_path):
    path = fig_path("fig3")
    triples = tmp_path / "mr.json"
    code, _, _ = run(capsys, "properties", "--graph", path, "--kind", "mr",
                     "--emit", str(triples))
    assert code == 0
    data = json.loads(triples.read_text())
    assert data["ground_set"] == 7
    assert data["triples"]

    closed = tmp_path / "closed.json"
    code, _, _ = run(capsys, "closure", "--in", str(triples), "--axioms", "sg",
                     "--out", str(closed))
    assert code == 0
    closed_data = json.loads(closed.read_text())
    assert len(closed_data["triples"]) >= len(data["triples"])

    # the sg closure of the mr triples equals that of the iv triples
    iv = tmp_path / "iv.json"
    run(capsys, "properties", "--graph", path, "--kind", "iv", "--emit", str(iv))
    code, out, _ = run(capsys, "equiv", "--a", str(triples), "--b", str(iv),
                       "--axioms", "sg")
    assert code == 0 and "EQUIVALENT" in out
    code, out, _ = run(capsys, "equiv", "--a", str(triples), "--b", str(iv),
                       "--axioms", "cg")  # still equivalent under more axioms
    assert code == 0


def write_model(path, triples, n=3):
    path.write_text(json.dumps({"ground_set": n, "triples": triples}))
    return str(path)


def test_equiv_reports_a_triple_in_one_closure_only(capsys, tmp_path):
    wide = write_model(tmp_path / "wide.json", [{"a": [0], "b": [1, 2]}])
    narrow = write_model(tmp_path / "narrow.json", [{"a": [0], "b": [1]}])
    code, out, _ = run(capsys, "equiv", "--a", wide, "--b", narrow, "--axioms", "sg")
    assert (code, out) == (1, "DIFFER: 0 _||_ 1 | 2 only in closure of first model\n")
    code, out, _ = run(capsys, "equiv", "--a", narrow, "--b", wide, "--axioms", "sg")
    assert (code, out) == (1, "DIFFER: 0 _||_ 1 | 2 only in closure of second model\n")


@pytest.mark.parametrize("argv, exc", [
    (["closure", "--in", "{missing}/m.json"], "FileNotFoundError"),
    (["validate", "--graph", "{missing}/g.cg"], "FileNotFoundError"),
    (["equiv", "--a", "{missing}/m.json", "--b", "{model}"], "FileNotFoundError"),
    (["closure", "--in", "{model}", "--out", "{missing}/closed.json"], "FileNotFoundError"),
    (["closure", "--in", "{model}", "--out", "{dir}"], "IsADirectoryError"),
    (["properties", "--graph", "{graph}", "--kind", "p3", "--emit", "{missing}/p3.json"],
     "FileNotFoundError"),
    (["intervene", "--graph", "{graph}", "--on", "a", "--out", "{missing}/cut.cg"],
     "FileNotFoundError"),
    (["export-dot", "--graph", "{graph}", "--out", "{missing}/g.dot"], "FileNotFoundError"),
    (["sweep", "--max-n", "1", "--out", "{missing}/report.jsonl"], "FileNotFoundError"),
], ids=["closure_in", "validate", "equiv", "closure_out", "closure_out_dir",
        "properties_emit", "intervene_out", "export_dot_out", "sweep_out"])
def test_unreadable_or_unwritable_path_is_an_error_line(capsys, tmp_path, argv, exc):
    graph = tmp_path / "g.cg"
    graph.write_text("vertex a\nvertex b\na -> b\n")
    paths = {"missing": str(tmp_path / "missing"), "dir": str(tmp_path), "graph": str(graph),
             "model": write_model(tmp_path / "m.json", [{"a": [0], "b": [1]}])}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {exc}: ")


@pytest.mark.parametrize("text", [
    '{"ground_set": 3, "triples": [{"a": [-1], "b": [1]}]}',
    '{"ground_set": 3, "triples": [{"a": [0]}]}',
    '{"ground_set": 3, "triples": [{"a": [0.0], "b": [1]}]}',
    '[{"a": [0], "b": [1]}]',
    '{"ground_set": 3, "triples": [{"a": [0], "b": [1]',
    '{"ground_set": 3, "triples": [{"a": [0], "b": [0]}]}',
    '{"ground_set": 3, "triples": [{"a": [0], "b": []}]}',
    '{"ground_set": 3, "triples": [{"a": [0], "b": [3]}]}',
], ids=["negative_id", "no_b", "float_id", "top_level_array", "not_json",
        "overlapping_blocks", "empty_block", "id_outside_ground_set"])
def test_malformed_model_json_is_a_typed_error(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = write_model(tmp_path / "good.json", [{"a": [0], "b": [1]}])
    for argv in (["closure", "--in", str(bad)], ["equiv", "--a", good, "--b", str(bad)]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ModelFormatError: ")


def test_factorize_styles(capsys, fig_path):
    path = fig_path("fig3")
    code, out, _ = run(capsys, "factorize", "--graph", path, "--style", "mvr")
    assert code == 0
    assert "p(1,2,3,4 | 5)" in out
    code, out, _ = run(capsys, "factorize", "--graph", path, "--style", "component-dag")
    assert "p(1,2,3,4 | 5,6)" in out
    code, out, _ = run(capsys, "factorize", "--graph", path, "--style", "admg")
    assert "p(1,2,3,4 | 5)" in out
    assert '"style": "admg"' in out


def test_check_fig1(capsys, fig_path):
    code, out, _ = run(capsys, "check", "--graph", fig_path("fig1"),
                       "--ancestral", "--maximal")
    assert code == 1
    assert "ancestral: PASS" in out
    assert "maximal: FAIL" in out


def test_check_fig4b_all_pass(capsys, fig_path):
    code, out, _ = run(capsys, "check", "--graph", fig_path("fig4b"),
                       "--ancestral", "--maximal", "--marginal-oracle")
    assert code == 0
    assert out.count("PASS") == 3


def test_check_marginal_oracle_respects_cap(capsys, fig_path, monkeypatch):
    monkeypatch.setenv("MVRCG_MAX_N", "6")
    code, _, err = run(capsys, "check", "--graph", fig_path("fig3"),
                       "--marginal-oracle")
    assert code == 2
    assert "CapExceeded: 7 vertices exceeds cap 6" in err


def test_check_marginal_oracle_answers_on_seven_vertices(capsys, fig_path):
    """fig3 has seven vertices, within the one model cap of 7."""
    code, out, _ = run(capsys, "check", "--graph", fig_path("fig3"),
                       "--marginal-oracle")
    assert (code, out) == (0, "marginal-oracle: PASS\n")


def test_check_without_a_check_flag_is_an_error(capsys, fig_path):
    """A ``check`` that names no check has checked nothing: it exits 2 and
    names the three flags, instead of printing nothing and exiting 0."""
    code, out, err = run(capsys, "check", "--graph", fig_path("fig1"))
    assert (code, out) == (2, "")
    assert err == ("error: GraphFormatError: check needs at least one of --ancestral, "
                   "--maximal and --marginal-oracle\n")


def test_numeric_check_small(capsys, fig_path):
    code, out, _ = run(capsys, "numeric-check", "--graph", fig_path("fig4b"),
                       "--seeds", "3")
    assert code == 0
    assert out.count("pass") >= 6


def test_numeric_check_names_latents_apart_from_the_graph_labels(capsys, tmp_path):
    p = tmp_path / "h0.cg"
    p.write_text("vertex a\nvertex h0\nvertex c\na -> h0\nh0 <-> c\n")
    code, out, err = run(capsys, "numeric-check", "--graph", str(p), "--seeds", "2")
    assert (code, err) == (0, "")
    assert out == ("seed  ci(1 triples)  factor-mvr  factor-component-dag\n"
                   "   0  1/1  pass  pass\n"
                   "   1  1/1  pass  pass\n")


@pytest.mark.parametrize("argv", [("--eps", "-1"), ("--eps", "nan"), ("--seeds", "-1"),
                                  ("--seeds", "2", "--eps", "-1"),
                                  ("--seeds", "0", "--eps", "nan"),
                                  ("--seeds", "2", "--eps", "inf")])
def test_numeric_check_refuses_a_bad_tolerance_or_seed_count(capsys, fig_path, monkeypatch, argv):
    def unreachable(g):
        raise AssertionError("the model was built")

    monkeypatch.setattr("mvrcg.cli.global_model", unreachable)
    code, out, err = run(capsys, "numeric-check", "--graph", fig_path("fig4b"), *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: GraphFormatError: ") and err.count("\n") == 1


def test_intervene_writes_graph(capsys, fig_path, tmp_path):
    out_path = tmp_path / "cut.cg"
    code, out, _ = run(capsys, "intervene", "--graph", fig_path("fig3"),
                       "--on", "5,6", "--out", str(out_path))
    assert code == 0
    cut = MixedGraph.from_file(out_path)
    five, six = cut.index_of("5"), cut.index_of("6")
    assert cut.parents(five) == frozenset()
    assert cut.neighbors(five) == frozenset()
    assert cut.parents(six) == frozenset()


def test_export_dot(capsys, fig_path):
    code, out, _ = run(capsys, "export-dot", "--graph", fig_path("fig3"))
    assert code == 0
    assert "dir=both" in out
    assert "digraph" in out


def test_sweep_tiny_all_pass(capsys, tmp_path):
    out_file = tmp_path / "report.jsonl"
    code, _, err = run(capsys, "sweep", "--max-n", "2", "--out", str(out_file))
    assert code == 0
    lines = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(lines) == 5  # 1 graph at n=1, 4 at n=2
    for line in lines:
        assert line["ok"] is True
        named = set(line["checks"])
        assert named == {
            "im_eq_imstar", "closure_mr", "closure_iv", "closure_ordered",
            "closure_local", "closure_p1", "closure_p2", "closure_p3",
            "closure_p4", "ancestral", "maximal", "marginal_oracle",
            "factorization"}
    assert "0 failure(s)" in err


def test_sweep_cursor_resume(capsys, tmp_path):
    out_file = tmp_path / "report.jsonl"
    cursor = tmp_path / "cursor.json"
    run(capsys, "sweep", "--max-n", "2", "--out", str(out_file),
        "--cursor", str(cursor))
    assert json.loads(cursor.read_text())["next"] == 5
    # resuming produces nothing new
    code, _, err = run(capsys, "sweep", "--max-n", "2", "--out", str(out_file),
                       "--cursor", str(cursor))
    assert code == 0
    assert "swept 0 graph(s)" in err
    assert len(out_file.read_text().splitlines()) == 5


def test_sweep_cursor_resumes_matching_config(capsys, tmp_path):
    out_file = tmp_path / "report.jsonl"
    cursor = tmp_path / "cursor.json"
    run(capsys, "sweep", "--max-n", "2", "--cursor", str(cursor))
    state = json.loads(cursor.read_text())
    assert state == {"config": config_hash(SweepConfig(max_n=2)), "next": 5}
    assert [p.name for p in tmp_path.iterdir()] == ["cursor.json"]
    cursor.write_text(json.dumps({**state, "next": 2}))
    code, _, err = run(capsys, "sweep", "--max-n", "2", "--out", str(out_file),
                       "--cursor", str(cursor))
    assert code == 0
    assert "swept 3 graph(s)" in err
    assert [json.loads(line)["index"] for line in out_file.read_text().splitlines()] == [2, 3, 4]
    assert json.loads(cursor.read_text())["next"] == 5


def test_sweep_resume_after_a_crash_prints_no_report_twice(capsys, tmp_path):
    def untimed(line):
        report = json.loads(line)
        for check in report["checks"].values():
            del check["ms"]
        return report

    fresh = tmp_path / "fresh.jsonl"
    run(capsys, "sweep", "--max-n", "2", "--out", str(fresh))
    lines = fresh.read_text().splitlines()
    # A crash after printing the report of graph k, before the cursor moved on.
    k = 2
    out_file = tmp_path / "report.jsonl"
    out_file.write_text("".join(line + "\n" for line in lines[:k + 1]))
    cursor = tmp_path / "cursor.json"
    cursor.write_text(json.dumps({"config": config_hash(SweepConfig(max_n=2)), "next": k}))
    code, _, err = run(capsys, "sweep", "--max-n", "2", "--out", str(out_file),
                       "--cursor", str(cursor))
    assert code == 0
    assert "swept 2 graph(s)" in err
    resumed = out_file.read_text().splitlines()
    assert resumed[:k + 1] == lines[:k + 1]
    assert [untimed(line) for line in resumed] == [untimed(line) for line in lines]
    assert json.loads(cursor.read_text())["next"] == 5


def _untimed(line):
    report = json.loads(line)
    for check in report["checks"].values():
        del check["ms"]
    return report


def test_sweep_resume_cuts_a_torn_last_line(capsys, tmp_path):
    fresh = tmp_path / "fresh.jsonl"
    run(capsys, "sweep", "--max-n", "2", "--out", str(fresh))
    lines = fresh.read_text().splitlines()
    # A crash in the middle of writing the report of graph k, the cursor at k.
    k = 2
    out_file = tmp_path / "report.jsonl"
    out_file.write_text("".join(line + "\n" for line in lines[:k]) + lines[k][:30])
    cursor = tmp_path / "cursor.json"
    cursor.write_text(json.dumps({"config": config_hash(SweepConfig(max_n=2)), "next": k}))
    code, _, err = run(capsys, "sweep", "--max-n", "2", "--out", str(out_file),
                       "--cursor", str(cursor))
    assert code == 0
    assert "swept 3 graph(s)" in err
    assert out_file.read_text().endswith("\n")
    assert ([_untimed(line) for line in out_file.read_text().splitlines()]
            == [_untimed(line) for line in lines])


@pytest.mark.parametrize("start", [True, -1])
def test_sweep_refuses_a_cursor_next_that_is_no_graph_index(capsys, tmp_path, start):
    """A ``next`` of true would skip graph 0 and -1 would be read as 0:
    the cursor is refused before any graph, though its config matches."""
    cursor = tmp_path / "cursor.json"
    text = json.dumps({"config": config_hash(SweepConfig(max_n=2)), "next": start})
    cursor.write_text(text)
    code, out, err = run(capsys, "sweep", "--max-n", "2", "--cursor", str(cursor))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: GraphError: cursor {cursor} has no nonnegative integer")
    assert cursor.read_text() == text


def test_sweep_refuses_cursor_of_another_config(capsys, tmp_path):
    cursor = tmp_path / "cursor.json"
    run(capsys, "sweep", "--max-n", "3", "--cursor", str(cursor))
    saved = cursor.read_text()
    assert json.loads(saved)["next"] == 55
    code, out, err = run(capsys, "sweep", "--max-n", "2", "--cursor", str(cursor))
    assert code == 2
    assert out == ""
    assert "error: GraphError: cursor" in err
    assert "another sweep configuration" in err
    assert cursor.read_text() == saved


@pytest.mark.parametrize("text", ['{"seed": 1, "ne', '[]', '{"next": "5"}'])
def test_sweep_rejects_malformed_cursor(capsys, tmp_path, text):
    cursor = tmp_path / "cursor.json"
    cursor.write_text(text)
    code, out, err = run(capsys, "sweep", "--max-n", "2", "--cursor", str(cursor))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: GraphError: cursor {cursor} ")
    assert cursor.read_text() == text


def test_sweep_config_hash_is_stable():
    script = "from mvrcg.sweep import SweepConfig, config_hash; print(config_hash(SweepConfig()))"
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == config_hash(SweepConfig())
    assert config_hash(SweepConfig(max_n=3)) != config_hash(SweepConfig(max_n=2))
    assert config_hash(SweepConfig(seed=2)) != config_hash(SweepConfig(seed=1))


def test_python_dash_m_runs_the_command_line():
    """``python -m mvrcg`` is the ``mvrcg`` command, no install needed."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-m", "mvrcg", "sweep", "--max-n", "2"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    reports = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(reports) == 5 and all(r["ok"] for r in reports)
    assert "swept 5 graph(s), 0 failure(s)" in proc.stderr


def test_unknown_vertex_label_is_reported(capsys, fig_path):
    code, _, err = run(capsys, "separate", "--graph", fig_path("fig3"),
                       "--x", "nope", "--y", "7")
    assert code == 2
    assert "GraphFormatError" in err


def test_properties_p4_both_flag(capsys, tmp_path):
    p = tmp_path / "pair.cg"
    p.write_text("vertex a\nvertex b\nvertex c\nvertex d\n"
                 "a <-> b\nb <-> c\nd -> a\n")
    code, plain, _ = run(capsys, "properties", "--graph", str(p), "--kind", "p4")
    assert code == 0
    code, both, _ = run(capsys, "properties", "--graph", str(p), "--kind", "p4",
                        "--p4-both")
    assert code == 0
    assert set(plain.splitlines()) < set(both.splitlines())


def test_separate_method_d_on_dag(capsys, fig_path):
    code, out, _ = run(capsys, "separate", "--graph", fig_path("fig4a"),
                       "--x", "X", "--y", "Y", "--method", "d")
    assert code == 0 and "SEPARATED" in out
    code, out, _ = run(capsys, "separate", "--graph", fig_path("fig4a"),
                       "--x", "X", "--y", "Y", "--z", "U,V", "--method", "d")
    assert code == 0 and "CONNECTED" in out


@pytest.mark.parametrize("value, message", [
    ("abc", "must be an integer, got 'abc'"),
    ("-1", "must be non-negative, got '-1'"),
], ids=["abc", "-1"])
def test_sweep_rejects_malformed_max_n(capsys, monkeypatch, value, message):
    monkeypatch.setenv("MVRCG_MAX_N", value)
    code, out, err = run(capsys, "sweep", "--max-n", "2")
    assert code == 2
    assert out == ""
    assert f"error: GraphError: MVRCG_MAX_N {message}" in err


def test_sweep_config_is_hashable():
    assert hash(SweepConfig()) == hash(SweepConfig())
    assert SweepConfig(max_n=3, seed=7) == SweepConfig(max_n=3, seed=7)
    assert hash(SweepConfig(max_n=3, seed=7)) == hash(SweepConfig(max_n=3, seed=7))


def test_sweep_records_graph_errors_and_continues():
    config = SweepConfig(max_n=1, random_count=2, random_n=8)
    reports = list(run_equivalence_sweep(config))
    assert [r.index for r in reports] == [0, 1, 2]
    assert reports[0].ok and reports[0].n == 1
    model_checks = {"im_eq_imstar", "marginal_oracle",
                    *(f"closure_{p}" for p in PROPERTY_AXIOMS)}
    assert len(model_checks) == 10
    for report in reports[1:]:  # 8 vertices exceed the model cap of 7
        assert report.n == 8 and not report.ok
        assert set(report.checks) == set(config.checks)
        for name, outcome in report.checks.items():
            if name in model_checks:  # a cap is an error, not a counterexample
                assert outcome.status == "error"
                assert outcome.witness == "CapExceeded: 8 vertices exceeds cap 7"
            else:
                assert outcome.status == "pass"


def test_sweep_closure_checks_compare_with_the_model_itself(monkeypatch):
    def mr_empty(g, kind, dec=None):
        return [] if kind == "mr" else property_seeds(g, kind, dec)

    monkeypatch.setattr("mvrcg.sweep.property_seeds", mr_empty)
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    checks = verify_graph(g, SweepConfig()).checks
    smallest = min((decode_triple(code, g.n) for code in global_model_codes(g)),
                   key=IndependenceTriple.sort_key)
    assert checks["closure_mr"].status == "fail"
    assert checks["closure_mr"].witness == f"{smallest} only in second model"
    assert all(checks[f"closure_{p}"].status == "pass" for p in PROPERTY_AXIOMS if p != "mr")


def _spy_on_closure_kernels(monkeypatch):
    """Spies on the closure kernels that ``mvrcg.closure`` calls: ``calls``
    gets ``("elementary", goal, seen, stop)`` per worklist, ``seen`` being
    how many elementary triples it returned and ``stop`` the stop it
    reached, with the stop lists it was given (``known``) in ``seeded``
    and the seeds it was given in ``pushed``; ``fires`` gets one counter
    per rule set built from ``elementary_rules``, the one statement of the
    rules, counting the triples fired through it.  A worklist builds its
    rule set at its first fire, so one that stops before firing builds
    none."""
    calls, fires, seeded, pushed = [], [], [], []
    rules = pyfallback.elementary_rules

    def counting_rules(n, flags, table, emit):
        fire = rules(n, flags, table, emit)
        fires.append(0)
        k = len(fires) - 1

        def counted(*triple):
            fires[k] += 1
            fire(*triple)

        return counted

    def spy_worklist(n, seeds, flags, goal=None, known=()):
        seen = elementary_closure(n, seeds, flags, goal, known)
        calls.append(("elementary", goal, len(seen), seen.stop))
        seeded.append(known)
        pushed.append(seeds)
        return seen

    monkeypatch.setattr("mvrcg._kernels.pyfallback.elementary_rules", counting_rules)
    monkeypatch.setattr("mvrcg.closure.elementary_closure", spy_worklist)
    return calls, fires, seeded, pushed


def test_verify_graph_closes_each_property_once_and_never_the_model(monkeypatch):
    """Each closure check runs one elementary worklist, seeded with the
    chain triples of its property's statements, built from their masks.
    The first stops once it has seen the model's elementary triples, and
    its triples are then a generator of the model, as are those of every
    later check that passes: each later worklist is given the seeds of
    every earlier passing check, and stops once it has seen one of them,
    or the model's elementary triples, or, under csg and cg, the model's
    composition base, or, under cg, its intersection base.  Seeds equal to
    an earlier passing check's under axioms among its own are not offered
    again: here iv, ordered and p1-p4 repeat mr's one seed, and local
    lists it twice.  One proof over the model's rows shows it closed, and
    builds no rule set; every worklist has seen its stop among its seeds,
    so none fires and no rule set is built at all.  No worklist runs to
    its fixpoint, so nothing is closed there, the model least of all."""
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    model = global_model_codes(g)
    goal = len(elementary_codes(g.n, model))
    calls, fires, seeded, pushed = _spy_on_closure_kernels(monkeypatch)
    report = verify_graph(g, SweepConfig())
    assert report.ok and set(report.checks) == set(ALL_CHECKS)
    assert goal and fires == []
    assert len(calls) == 8 and calls[0] == ("elementary", goal, goal, "goal")
    for _, call_goal, seen, stop in calls[1:]:
        assert call_goal == goal and seen <= goal and stop in ("goal", "known")
    mr, local = (property_seeds(g, prop) for prop in ("mr", "local"))
    assert mr == chain_seeds(g.n, property_model(g, "mr").to_codes()) and local == mr * 2
    composition, intersection = (gen.seeds for gen in
                                 closed_target(g.n, global_model_table(g)).generators)
    assert seeded == ([[], [mr], [mr], [mr, composition]]
                      + [[mr, local, composition, intersection]] * 4)
    assert pushed == [property_seeds(g, prop) for prop in PROPERTY_AXIOMS]


def test_the_sweep_worklists_fire_and_stop_as_pinned(monkeypatch):
    """Over every chain graph with n <= 4 in sweep order, the closure
    checks' worklists fire 5,872 triples in all: 7,289 checks end at the
    model's elementary triples, 6,655 at a generator's seeds (a passing
    check's, or a base of the model) and none at a fixpoint.  Only the
    2,702 worklists that fire build a rule set; the other 11,242 stop
    among their seeds.  A change
    that loses a stop, or offers fewer generators, fires more: 7,490 with
    only the first passing check's generator and the model's bases,
    12,348 with only the first passing check's, 25,187 with none."""
    calls, fires, _, _ = _spy_on_closure_kernels(monkeypatch)
    config = SweepConfig(max_n=4, checks=tuple(f"closure_{prop}" for prop in PROPERTY_AXIOMS))
    statuses = [c.status for i, g in enumerate(sweep_graphs(config))
                for c in verify_graph(g, config, i).checks.values()]
    assert statuses == ["pass"] * 13_944
    assert len(calls) == 13_944 and len(fires) == 2_702 and 0 not in fires
    assert sum(fires) == 5_872
    stops = [stop for *_, stop in calls]
    assert {stop: stops.count(stop) for stop in ("goal", "known", None)} == {
        "goal": 7_289, "known": 6_655, None: 0}


def test_a_later_check_stops_at_the_second_passing_checks_seeds(monkeypatch):
    """Every passing check is offered to the later ones, not only the
    first.  With mr's statements patched to none, mr fails, iv is the
    first check to pass and ordered the second.  On 2 -> 1 with 0 apart,
    p2's worklist then stops once it has seen every seed of ordered's and
    of no other generator it was offered, neither iv's, p1's nor a base
    of the model: offered only the first passing check, it would not stop
    there."""
    def mr_empty(g, kind, dec=None):
        return [] if kind == "mr" else property_seeds(g, kind, dec)

    monkeypatch.setattr("mvrcg.sweep.property_seeds", mr_empty)
    results = []

    def spy_worklist(n, seeds, flags, goal=None, known=()):
        seen = elementary_closure(n, seeds, flags, goal, known)
        results.append((known, seen))
        return seen

    monkeypatch.setattr("mvrcg.closure.elementary_closure", spy_worklist)
    g = MixedGraph(3, directed=[(2, 1)])
    config = SweepConfig(checks=tuple(f"closure_{prop}" for prop in PROPERTY_AXIOMS))
    checks = verify_graph(g, config).checks
    assert [c.status for c in checks.values()] == ["fail"] + ["pass"] * 7
    iv, ordered = (property_seeds(g, prop) for prop in ("iv", "ordered"))
    known, seen = results[list(PROPERTY_AXIOMS).index("p2")]
    assert seen.stop == "known" and known[:2] == [iv, ordered] and iv != ordered
    pairs = {(min(x, y), max(x, y), K) for x, y, K in seen}

    def all_seen(seeds):
        return all((min(row >> g.n, bit.bit_length() - 1), max(row >> g.n, bit.bit_length() - 1),
                    row & (1 << g.n) - 1) in pairs for row, bit in seeds)

    assert [all_seen(seeds) for seeds in known] == [seeds == ordered for seeds in known]
    assert len(known) == 5 and known.count(ordered) == 1


def test_verify_graph_calls_no_validating_entry_point_in_its_loops(monkeypatch):
    """The checks read adjacency masks and the decomposition's component
    masks, and build models from codes they have just checked:
    ``MixedGraph.adjacent``, a model's ``__post_init__``, the public
    ``find_primitive_inducing_chain`` and ``ChainDecomposition._index``,
    behind the decomposition's ``pre_mask``, ``pa_d_mask`` and
    ``nd_d_mask``, each check their arguments again, and none is called
    while every chain graph with n <= 3 is verified, nor while its model
    is built by ``global_model`` and read triple by triple, in the order
    a checked model of the same codes gives."""
    graphs = [g for n in range(1, 4) for g in enumerate_mvr_cgs(n)]
    assert len(graphs) == 55
    checked = [list(IndependenceModel.from_codes(g.n, global_model_codes(g))) for g in graphs]
    calls = {"adjacent": 0, "__post_init__": 0, "find_primitive_inducing_chain": 0, "_index": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    counting(MixedGraph, "adjacent")
    counting(IndependenceModel, "__post_init__")
    counting(structure, "find_primitive_inducing_chain")
    counting(ChainDecomposition, "_index")
    assert all(verify_graph(g, SweepConfig()).ok for g in graphs)
    assert [list(global_model(g)) for g in graphs] == checked
    assert calls == {"adjacent": 0, "__post_init__": 0, "find_primitive_inducing_chain": 0,
                     "_index": 0}
    # the spies do count: the public entry points still check
    assert MixedGraph(2).adjacent(0, 1) is False
    assert IndependenceModel.from_codes(2, [1 | 2 << 2]).n == 2
    assert structure.find_primitive_inducing_chain(MixedGraph(2), 0, 1) is None
    assert validate_chain_graph(MixedGraph(2)).pre_mask(0) == 0b10
    assert calls == {"adjacent": 2, "__post_init__": 1, "find_primitive_inducing_chain": 1,
                     "_index": 1}


def test_a_failing_closure_check_builds_one_worklist(monkeypatch):
    """A closure check whose elementary worklist falls short of the model's
    elementary triples has run that worklist to its fixpoint, and the
    closure listed from it is the check's answer: no second closure
    runs.  With no seeds the worklist has nothing to fire, so it builds
    no rule set."""
    def mr_empty(g, kind, dec=None):
        return [] if kind == "mr" else property_seeds(g, kind, dec)

    monkeypatch.setattr("mvrcg.sweep.property_seeds", mr_empty)
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    goal = len(elementary_codes(g.n, global_model_codes(g)))
    calls, fires, seeded, _ = _spy_on_closure_kernels(monkeypatch)
    outcome = verify_graph(g, SweepConfig(checks=("closure_mr",))).checks["closure_mr"]
    assert (outcome.status, outcome.witness) == ("fail", "0 _||_ 2 only in second model")
    assert fires == []
    assert calls == [("elementary", goal, 0, None)] and seeded == [[]]


def test_seeds_gap_is_none_at_the_model_and_the_closure_elsewhere():
    """``seeds_gap`` of P's chain triples returns None exactly when cl(P)
    is the model, and cl(P) otherwise, given the model's closedness proof
    or none: for every graph with at most three vertices, every
    property's triples P and the axiom sets sg, g, csg and cg."""
    axiom_sets = [AxiomSet.parse(name) for name in ("sg", "g", "csg", "cg")]
    stopped = 0
    for n in range(1, 4):
        for g in enumerate_mvr_cgs(n):
            model = global_model_codes(g)
            target = closed_target(g.n, global_model_table(g))
            assert target is not None  # separation models are compositional graphoids
            for axioms in axiom_sets:
                for prop in PROPERTY_AXIOMS:
                    codes = property_model(g, prop).to_codes()
                    seeds = chain_seeds(g.n, codes)
                    closed = close_codes(g.n, codes, axioms)
                    gap = seeds_gap(g.n, seeds, axioms, target)
                    assert gap == (None if closed == model else closed)
                    assert seeds_gap(g.n, seeds, axioms, None) == closed
                    stopped += gap is None
    assert stopped


def test_a_closure_check_lists_the_model_and_the_closure_only_to_fail(monkeypatch):
    """A passing closure check lists neither the model nor its closure: it
    reads only the model's elementary table.  A failing one lists each
    once, for its witness."""
    listed = []

    def spy(name, fn):
        def counted(*args):
            listed.append(name)
            return fn(*args)

        return counted

    monkeypatch.setattr("mvrcg.sweep.pairwise_codes", spy("model", pairwise_codes))
    monkeypatch.setattr("mvrcg.closure.semi_graphoid_codes",
                        spy("closure", closure.semi_graphoid_codes))
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    config = SweepConfig(checks=tuple(f"closure_{prop}" for prop in PROPERTY_AXIOMS))
    checks = verify_graph(g, config).checks
    assert {c.status for c in checks.values()} == {"pass"} and listed == []

    def mr_empty(g, kind, dec=None):
        return [] if kind == "mr" else property_seeds(g, kind, dec)

    monkeypatch.setattr("mvrcg.sweep.property_seeds", mr_empty)
    outcome = verify_graph(g, SweepConfig(checks=("closure_mr",))).checks["closure_mr"]
    assert (outcome.status, outcome.witness) == ("fail", "0 _||_ 2 only in second model")
    assert sorted(listed) == ["closure", "model"]


def test_a_graph_over_the_model_cap_errs_on_the_ten_checks_that_compare_with_m(monkeypatch):
    monkeypatch.setenv("MVRCG_MAX_N", "3")
    checks = verify_graph(MixedGraph(4), SweepConfig()).checks
    assert {name: c.status for name, c in checks.items()} == {
        "im_eq_imstar": "error",
        "closure_mr": "error", "closure_iv": "error", "closure_ordered": "error",
        "closure_local": "error", "closure_p1": "error", "closure_p2": "error",
        "closure_p3": "error", "closure_p4": "error",
        "ancestral": "pass", "maximal": "pass", "marginal_oracle": "error",
        "factorization": "pass",
    }
    assert {c.witness for c in checks.values() if c.status == "error"} == {
        "CapExceeded: 4 vertices exceeds cap 3"}


def test_edgeless_eight_vertex_graph_passes_every_check(monkeypatch):
    """The edgeless graph on eight vertices, above the default model cap:
    its separation model holds all 26,335 canonical triples, and all 13
    checks pass, the latent-DAG oracle under the same cap as the rest."""
    monkeypatch.setenv("MVRCG_MAX_N", "8")
    checks = verify_graph(MixedGraph(8), SweepConfig()).checks
    assert set(checks) == set(ALL_CHECKS) and len(checks) == 13
    assert {c.status for c in checks.values()} == {"pass"}


def test_a_cap_inside_a_check_is_an_error_not_a_failure(monkeypatch):
    monkeypatch.setenv("MVRCG_MAX_N", "6")
    config = SweepConfig(checks=("marginal_oracle",))
    outcome = verify_graph(MixedGraph(7), config).checks["marginal_oracle"]
    assert outcome.status == "error"
    assert outcome.witness == "CapExceeded: 7 vertices exceeds cap 6"


def test_sweep_config_fields_and_statuses_are_pinned():
    """A new sweep setting or check status is a deliberate change: the
    fields are pinned, and every chain graph with n <= 3 and the edgeless
    graph over the model cap report only pass, fail or error."""
    assert [f.name for f in dataclasses.fields(SweepConfig)] == [
        "max_n", "random_count", "random_n", "seed", "checks"]
    assert ALL_CHECKS == tuple(CHECKS) and len(CHECKS) == 13
    assert [name for name in CHECKS if name.startswith("closure_")] == [
        f"closure_{prop}" for prop in PROPERTY_AXIOMS]
    config = SweepConfig(max_n=3)
    reports = [*run_equivalence_sweep(config), verify_graph(MixedGraph(8), config)]
    assert len(reports) == 1 + 4 + 50 + 1
    assert {c.status for r in reports for c in r.checks.values()} <= {"pass", "fail", "error"}
    assert reports[-1].checks["marginal_oracle"].status == "error"


@pytest.mark.parametrize("argv", [("--random", "2", "--random-n", "-1"),
                                  ("--random", "-1"), ("--max-n", "-1")])
def test_sweep_refuses_negative_sizes_before_the_first_graph(capsys, argv):
    code, out, err = run(capsys, "sweep", "--max-n", "2", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: GraphFormatError: ")
    assert "must be a nonnegative int" in err


def _closure_outcome(g, prop, model):
    """What a closure check reports when it closes the property's triples
    and compares the closure with ``model``."""
    closed = close_codes(g.n, property_model(g, prop).to_codes(), SweepConfig().axioms_for(prop))
    if closed == model:
        return "pass", None
    triple, in_first = first_difference(g.n, closed, model)
    return "fail", f"{triple} only in {'first' if in_first else 'second'} model"


@pytest.mark.parametrize("change", ["drop", "add"])
def test_closure_checks_match_the_closure_on_perturbed_models(monkeypatch, change):
    """With one pair <i, j | K> dropped from the separation model's
    elementary table, or one added to it, each closure check reports what
    closing the property's triples and comparing the closure with the
    listing of the changed table reports, on every graph with three
    vertices and every such change.  Some changed models are still
    closed, so the elementary route is tried and must refuse."""
    config = SweepConfig(checks=tuple(f"closure_{prop}" for prop in PROPERTY_AXIOMS))
    targets = []

    def spy(*args):
        targets.append(closed_target(*args))
        return targets[-1]

    monkeypatch.setattr("mvrcg.sweep.closed_target", spy)
    for g in enumerate_mvr_cgs(3):
        for changed in one_pair_changes(3, global_model_table(g), change):
            monkeypatch.setattr("mvrcg.sweep.global_model_table",
                                lambda g, changed=changed: changed)
            model = pairwise_codes(3, changed)
            checks = verify_graph(g, config).checks
            for prop in PROPERTY_AXIOMS:
                outcome = checks[f"closure_{prop}"]
                assert (outcome.status, outcome.witness) == _closure_outcome(g, prop, model)
    assert any(t is None for t in targets) and any(t is not None for t in targets)


def _verdicts_alone_and_reversed(g, config):
    """Each check's status and witness among ``config.checks``, in
    ``ALL_CHECKS`` order, asserted to be what the check reports run
    alone and what the checks report in reverse order."""
    def verdicts(checks):
        report = verify_graph(g, SweepConfig(checks=checks))
        return [(name, c.status, c.witness) for name, c in report.checks.items()]

    together = verdicts(config.checks)
    assert [name for name, *_ in together] == [n for n in ALL_CHECKS if n in config.checks]
    assert verdicts(config.checks[::-1]) == together
    assert [verdicts((name,))[0] for name, *_ in together] == together
    return together


def test_sharing_between_checks_never_changes_a_verdict(monkeypatch):
    """M, its closedness proof and the passing checks' generators are
    shared by one graph's checks only to shorten their work: each check
    run alone reports the status and witness it reports among the
    others, and so do the checks run in reverse order, listed in table
    order.  On every chain graph with n <= 3, five random ones with five
    vertices and one that is no chain graph; and the closure checks on
    every graph with three vertices under each one-pair change of its
    model's table, where they all fail."""
    graphs = [g for n in range(1, 4) for g in enumerate_mvr_cgs(n)]
    cycle = MixedGraph(3, directed=[(0, 1), (1, 2), (2, 0)])
    graphs += [*random_mvr_cgs(5, 5, seed=5), cycle]
    statuses = [status for g in graphs
                for _, status, _ in _verdicts_alone_and_reversed(g, SweepConfig())]
    assert len(statuses) == 13 * 61 and statuses.count("fail") == 13
    config = SweepConfig(checks=tuple(f"closure_{prop}" for prop in PROPERTY_AXIOMS))
    statuses = []
    for g in enumerate_mvr_cgs(3):
        table = global_model_table(g)
        for changed in one_pair_changes(3, table, "drop") + one_pair_changes(3, table, "add"):
            monkeypatch.setattr("mvrcg.sweep.global_model_table",
                                lambda g, changed=changed: changed)
            statuses += [status for _, status, _ in _verdicts_alone_and_reversed(g, config)]
    assert statuses == ["fail"] * 8 * 300


def test_sweep_verdicts_match_pinned_digest():
    """sha1 of every check's status and witness over all 1,743 chain
    graphs with n <= 4 and 60 random five-vertex graphs (seed 12),
    computed when each closure check still closed its property's triples
    to the fixpoint."""
    h = hashlib.sha1()
    config = SweepConfig(max_n=4, random_count=60, random_n=5, seed=12)
    count = 0
    for report in run_equivalence_sweep(config):
        count += 1
        for name, c in sorted(report.checks.items()):
            line = f"{report.index}/{report.graph_hash}/{name}:{c.status}:{c.witness}\n"
            h.update(line.encode())
    assert count == 1803
    assert h.hexdigest() == "c2f95e1207a7571e66813b13ec68e75d715aa59a"


def _dumped(report):
    """The report as ``json.dumps`` writes its dict with sorted keys."""
    return json.dumps({
        "index": report.index,
        "n": report.n,
        "hash": report.graph_hash,
        "directed": report.directed,
        "bidirected": report.bidirected,
        "ok": report.ok,
        "checks": {name: {"status": c.status, **({"witness": c.witness} if c.witness else {}),
                          "ms": round(c.ms, 3)}
                   for name, c in report.checks.items()},
    }, sort_keys=True)


def test_report_json_is_the_dumped_dict_byte_for_byte():
    reports = list(run_equivalence_sweep(SweepConfig(max_n=4)))
    assert len(reports) == 1743
    witnesses = ['a "quoted" \\ path', "two\nlines", "naïve ∅ → ☃", "", None]
    for i, witness in enumerate(witnesses):
        reports.append(VerificationReport(i, 3, "0123abcd", [(0, 2), (1, 2)], [(0, 1)], {
            "maximal": CheckOutcome("fail", witness, 12345.67891),
            "ancestral": CheckOutcome("error", "CapExceeded: n", 1e-05),
            "closure_p1": CheckOutcome("pass"),
        }))
    reports.append(VerificationReport(9, 0, "e", [], []))
    for report in reports:
        assert report.to_json() == _dumped(report)


@pytest.fixture(scope="module")
def oracle_sweep_graphs():
    """The n <= 4 sweep's graphs as the rejection oracle lists them."""
    return [MixedGraph(n, d, b) for n in range(1, 5) for d, b in oracle_enumerate(n, range(4))]


@pytest.mark.parametrize("k", [0, 1, 4, 5, 54, 55, 1742, 1743])
def test_sweep_resumes_on_either_side_of_a_size_boundary(k, oracle_sweep_graphs):
    """n = 1..4 has 1, 4, 50 and 1,688 graphs: resumed at k, the sweep's
    first reports are those of the oracle's graphs k and k + 1."""
    config = SweepConfig(max_n=4)
    got = list(islice(run_equivalence_sweep(config, start_index=k), 2))
    expected = [verify_graph(g, config, i)
                for i, g in islice(enumerate(oracle_sweep_graphs), k, k + 2)]
    assert len(got) == {1742: 1, 1743: 0}.get(k, 2)
    assert ([_untimed(r.to_json()) for r in got]
            == [_untimed(r.to_json()) for r in expected])


def _fields(report):
    """Every field of a report but its times."""
    return (report.index, report.n, report.graph_hash, report.directed, report.bidirected,
            [(name, c.status, c.witness) for name, c in report.checks.items()])


def _cpus(monkeypatch, count):
    """Make the sweep see ``count`` CPUs, so it runs on ``count`` shards."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@contextmanager
def _deadline(seconds):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_sweep_reports_do_not_depend_on_the_shard_count(monkeypatch, shards):
    """On K = 1, 2 or 3 shards, the sweep reports, but for their times,
    what an in-process ``verify_graph`` loop reports, from the first graph
    and resumed on either side of the boundaries between sizes (n = 1..4
    has 1, 4, 50 and 1,688 graphs; the 20 random ones follow)."""
    config = SweepConfig(max_n=4, random_count=20, random_n=5)
    expected = [_fields(verify_graph(g, config, i)) for i, g in enumerate(sweep_graphs(config))]
    assert len(expected) == 1763
    _cpus(monkeypatch, shards)
    for start in (0, 4, 5, 1742, 1743, 1762, 1763):
        with _deadline(60):
            got = [_fields(r) for r in run_equivalence_sweep(config, start_index=start)]
        assert got == expected[start:]


def test_the_sweep_leaves_no_worker_behind(monkeypatch):
    """Its K - 1 workers start at the first ``next()`` and are gone once
    the sweep is exhausted, closed or dropped."""
    _cpus(monkeypatch, 3)
    config = SweepConfig(max_n=3)
    reports = run_equivalence_sweep(config)
    assert multiprocessing.active_children() == []
    with _deadline(60):
        assert len(list(reports)) == 55
    assert multiprocessing.active_children() == []
    for stop in ("close", "drop"):
        reports = run_equivalence_sweep(config)
        with _deadline(60):
            assert next(reports).index == 0
        assert len(multiprocessing.active_children()) == 2
        if stop == "close":
            reports.close()
        else:
            del reports
            gc.collect()
        assert multiprocessing.active_children() == []


def _sweep_length(max_n):
    return len(list(run_equivalence_sweep(SweepConfig(max_n=max_n))))


def test_a_sweep_in_a_daemonic_process_runs_on_one_shard(monkeypatch):
    """A pool's worker is daemonic and may not start processes, so a
    sweep there verifies every graph itself."""
    _cpus(monkeypatch, 3)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_sweep_length, (3,)).get(timeout=60) == 55


class _NeedsTwoArguments(Exception):
    """An exception that pickles but cannot be unpickled."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


def _die():
    os._exit(3)


def _raise(exc):
    raise exc


@pytest.mark.parametrize("fault, raised, message", [
    (lambda: _raise(ValueError("bad graph")), ValueError, "bad graph"),
    (lambda: _raise(_NeedsTwoArguments("a", "b")), RuntimeError, "_NeedsTwoArguments: a and b"),
    (_die, EOFError, ""),
], ids=["picklable", "unpicklable", "dead"])
def test_a_workers_fault_is_raised_at_its_graph(monkeypatch, fault, raised, message):
    """A worker's exception at graph 5 is raised where the serial sweep
    raises it, after the reports of graphs 0-4; one that does not survive
    pickling arrives as a ``RuntimeError`` with its type and message, a
    worker that dies raises ``EOFError``, and no worker is left behind."""
    caller, verify = os.getpid(), verify_graph

    def faulty(g, config, index=0):
        if index == 5 and os.getpid() != caller:
            fault()
        return verify(g, config, index)

    monkeypatch.setattr("mvrcg.sweep.verify_graph", faulty)
    _cpus(monkeypatch, 3)
    seen = []
    with _deadline(60), pytest.raises(raised) as info:
        for report in run_equivalence_sweep(SweepConfig(max_n=3)):
            seen.append(report.index)
    assert seen == [0, 1, 2, 3, 4] and str(info.value) == message
    assert multiprocessing.active_children() == []


def test_sweep_records_exceptions_as_errors_and_continues(monkeypatch):
    def broken(g):
        raise AssertionError("maximality criteria disagree; this is a bug")

    monkeypatch.setattr("mvrcg.sweep._is_maximal", broken)
    reports = list(run_equivalence_sweep(SweepConfig(max_n=2)))
    assert [r.index for r in reports] == [0, 1, 2, 3, 4]
    for report in reports:
        assert not report.ok
        assert report.checks["maximal"].status == "error"
        assert report.checks["maximal"].witness == \
            "AssertionError: maximality criteria disagree; this is a bug"
        assert report.checks["ancestral"].status == "pass"


@pytest.mark.parametrize("blocks, witness", [
    ([(0b001, 0), (0b110, 0b001)], "head partition blocks differ from chain components"),
    ([(0b001, 0), (0b010, 0), (0b100, 0b001)], "tail of [2] differs"),
])
def test_factorization_check_names_the_first_difference(monkeypatch, blocks, witness):
    """On 0 -> 2 <- 1 the head partition is {0}, {1} and {2} with tail
    {0, 1}; a partition that differs in its blocks, or in one tail, fails
    the check with the witness the factors' comparison gives."""
    g = MixedGraph(3, directed=[(0, 2), (1, 2)])
    config = SweepConfig(checks=("factorization",))
    assert verify_graph(g, config).checks["factorization"].status == "pass"
    monkeypatch.setattr("mvrcg.sweep._head_blocks", lambda g, a_mask: blocks)
    outcome = verify_graph(g, config).checks["factorization"]
    assert (outcome.status, outcome.witness) == ("fail", witness)


def test_sweep_checks_unwritable_cursor_before_the_first_graph(capsys, tmp_path):
    cursor = tmp_path / "missing" / "c.json"
    code, out, err = run(capsys, "sweep", "--max-n", "1", "--cursor", str(cursor))
    assert (code, out) == (2, "")
    assert err.startswith("error: FileNotFoundError: ")


def test_sweep_refuses_max_n_beyond_enumeration_before_the_first_graph(capsys, tmp_path):
    with pytest.raises(CapExceeded):
        next(run_equivalence_sweep(SweepConfig(max_n=7)))
    cursor = tmp_path / "c.json"
    code, out, err = run(capsys, "sweep", "--max-n", "7", "--cursor", str(cursor))
    assert (code, out) == (2, "")
    assert err.startswith("error: CapExceeded: exhaustive enumeration capped at n=6")
    assert not cursor.exists()  # a refused sweep leaves no cursor behind


def test_export_dot_with_induced_set(capsys, fig_path):
    code, out, _ = run(capsys, "export-dot", "--graph", fig_path("fig3"),
                       "--set", "5,6,7")
    assert code == 0
    assert out.count("label=") == 3
    assert "dir=both" in out  # 5 <-> 6 survives the restriction


def test_models_over_different_ground_sets_are_a_format_error(capsys, tmp_path):
    small, large = IndependenceModel(2), IndependenceModel(3)
    calls = [lambda: equivalent_under(small, large, AxiomSet.semi_graphoid()),
             lambda: small.union(large), lambda: small <= large]
    for call in calls:
        with pytest.raises(ModelFormatError):
            call()
    a = write_model(tmp_path / "a.json", [], n=2)
    b = write_model(tmp_path / "b.json", [], n=3)
    code, _, err = run(capsys, "equiv", "--a", a, "--b", b, "--axioms", "sg")
    assert code == 2 and err.startswith("error: ModelFormatError: ")
