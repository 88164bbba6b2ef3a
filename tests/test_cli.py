import hashlib
import json
import os
import subprocess
import sys

import pytest

from mvrcg import MixedGraph
from mvrcg import fixtures
from mvrcg.cli import main
from mvrcg import closure
from mvrcg._kernels.pyfallback import elementary_closure
from mvrcg.closure import AxiomSet, close_codes, closed_target, equivalent_under
from mvrcg.enumeration import enumerate_mvr_cgs
from mvrcg.errors import CapExceeded, ModelFormatError
from mvrcg.properties import property_model
from mvrcg.separation import global_model_codes, iter_canonical_codes
from mvrcg.sweep import (ALL_CHECKS, PROPERTY_AXIOMS, SweepConfig, config_hash,
                         run_equivalence_sweep, verify_graph)
from mvrcg.triples import IndependenceModel, IndependenceTriple, decode_triple, first_difference

from oracles import elementary_codes


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


def test_check_marginal_oracle_respects_cap(capsys, fig_path):
    code, _, err = run(capsys, "check", "--graph", fig_path("fig3"),
                       "--marginal-oracle")
    assert code == 2
    assert "CapExceeded" in err


def test_numeric_check_small(capsys, fig_path):
    code, out, _ = run(capsys, "numeric-check", "--graph", fig_path("fig4b"),
                       "--seeds", "3")
    assert code == 0
    assert out.count("pass") >= 6


@pytest.mark.parametrize("argv", [("--eps", "-1"), ("--eps", "nan"), ("--seeds", "-1")])
def test_numeric_check_refuses_a_bad_tolerance_or_seed_count(capsys, fig_path, argv):
    code, out, err = run(capsys, "numeric-check", "--graph", fig_path("fig4b"), *argv)
    assert code == 2 and "pass" not in out and "FAIL" not in out
    assert err.startswith("error: GraphFormatError: ")


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
    model_checks = {"im_eq_imstar", *(f"closure_{p}" for p in PROPERTY_AXIOMS)}
    for report in reports[1:]:  # 8 vertices exceed the model cap of 7
        assert report.n == 8 and not report.ok
        assert set(report.checks) == set(config.checks)
        for name, outcome in report.checks.items():
            if name in model_checks:  # a cap is an error, not a counterexample
                assert outcome.status == "error"
                assert outcome.witness == "CapExceeded: 8 vertices exceeds cap 7"
            elif name == "marginal_oracle":
                assert outcome.status == "skipped"
            else:
                assert outcome.status == "pass"


def test_sweep_closure_checks_compare_with_the_model_itself(monkeypatch):
    def mr_empty(g, kind, dec=None):
        return IndependenceModel.of(g.n, ()) if kind == "mr" else property_model(g, kind, dec)

    monkeypatch.setattr("mvrcg.sweep.property_model", mr_empty)
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    checks = verify_graph(g, SweepConfig()).checks
    smallest = min((decode_triple(code, g.n) for code in global_model_codes(g)),
                   key=IndependenceTriple.sort_key)
    assert checks["closure_mr"].status == "fail"
    assert checks["closure_mr"].witness == f"{smallest} only in second model"
    assert all(checks[f"closure_{p}"].status == "pass" for p in PROPERTY_AXIOMS if p != "mr")


def _spy_on_closure_kernels(monkeypatch):
    """Spies on the closure kernels that ``mvrcg.closure`` calls: ``calls``
    gets ``("elementary", goal, seen)`` per worklist, ``seen`` being how
    many elementary triples it returned; ``fires`` gets one counter
    per rule set that ``closed_target`` builds, counting the triples fired
    through it."""
    calls, fires = [], []
    rules = closure.elementary_rules

    def counting_rules(n, flags, table, emit):
        fire = rules(n, flags, table, emit)
        fires.append(0)
        k = len(fires) - 1

        def counted(*triple):
            fires[k] += 1
            fire(*triple)

        return counted

    def spy_worklist(n, codes, flags, goal=None):
        seen = elementary_closure(n, codes, flags, goal)
        calls.append(("elementary", goal, len(seen)))
        return seen

    monkeypatch.setattr("mvrcg.closure.elementary_rules", counting_rules)
    monkeypatch.setattr("mvrcg.closure.elementary_closure", spy_worklist)
    return calls, fires


def test_verify_graph_closes_each_property_once_and_never_the_model(monkeypatch):
    """Each closure check runs one elementary worklist from its property's
    triples, which stops once it has seen the model's elementary triples;
    one proof over the model's elementary triples shows it closed; no
    worklist runs to its fixpoint, so nothing is closed there, the model
    least of all."""
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    model = global_model_codes(g)
    goal = len(elementary_codes(g.n, model))
    calls, fires = _spy_on_closure_kernels(monkeypatch)
    report = verify_graph(g, SweepConfig())
    assert report.ok and set(report.checks) == set(ALL_CHECKS)
    assert goal and fires == [goal]
    assert calls == [("elementary", goal, goal)] * 8


def test_a_failing_closure_check_builds_one_worklist(monkeypatch):
    """A closure check whose elementary worklist falls short of the model's
    elementary triples has run that worklist to its fixpoint, and the
    closure listed from it is the check's answer: no second closure
    runs."""
    def mr_empty(g, kind, dec=None):
        return IndependenceModel.of(g.n, ()) if kind == "mr" else property_model(g, kind, dec)

    monkeypatch.setattr("mvrcg.sweep.property_model", mr_empty)
    g = MixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    goal = len(elementary_codes(g.n, global_model_codes(g)))
    calls, fires = _spy_on_closure_kernels(monkeypatch)
    outcome = verify_graph(g, SweepConfig(checks=("closure_mr",))).checks["closure_mr"]
    assert (outcome.status, outcome.witness) == ("fail", "0 _||_ 2 only in second model")
    assert fires == [goal]
    assert calls == [("elementary", goal, 0)]


def test_close_codes_with_a_target_is_the_closure():
    """``close_codes`` returns cl(P) whether or not it is given the model
    as a target: for every graph with at most three vertices, every
    property's triples P and the axiom sets sg, g, csg and cg."""
    axiom_sets = [AxiomSet.parse(name) for name in ("sg", "g", "csg", "cg")]
    stopped = 0
    for n in range(1, 4):
        for g in enumerate_mvr_cgs(n):
            model = global_model_codes(g)
            target = closed_target(g.n, model)
            assert target is not None  # separation models are compositional graphoids
            for axioms in axiom_sets:
                for prop in PROPERTY_AXIOMS:
                    codes = property_model(g, prop).to_codes()
                    closed = close_codes(g.n, codes, axioms, target)
                    assert closed == close_codes(g.n, codes, axioms)
                    stopped += closed is target[0]  # the worklist stopped at M
    assert stopped


def test_edgeless_eight_vertex_graph_passes_every_check(monkeypatch):
    """The edgeless graph on eight vertices, above the default model cap:
    its separation model holds all 26,335 canonical triples, and every
    check passes except the latent-DAG oracle, which is skipped above its
    size."""
    monkeypatch.setenv("MVRCG_MAX_N", "8")
    checks = verify_graph(MixedGraph(8), SweepConfig()).checks
    assert set(checks) == set(ALL_CHECKS)
    assert checks.pop("marginal_oracle").status == "skipped"
    assert {c.status for c in checks.values()} == {"pass"}


def test_a_cap_inside_a_check_is_an_error_not_a_failure():
    config = SweepConfig(checks=("marginal_oracle",), marginal_oracle_max_n=7)
    outcome = verify_graph(MixedGraph(7), config).checks["marginal_oracle"]
    assert outcome.status == "error"
    assert outcome.witness == "CapExceeded: 7 observed vertices exceeds cap 6"


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
    """With one code dropped from the separation model, or one triple that
    is not separated added to it, each closure check reports what closing
    the property's triples and comparing reports, on every graph with
    three vertices and every such change.  Some perturbed models are still
    closed, so the elementary route is tried and must refuse."""
    config = SweepConfig(checks=tuple(f"closure_{prop}" for prop in PROPERTY_AXIOMS))
    targets = []

    def spy(*args):
        targets.append(closed_target(*args))
        return targets[-1]

    monkeypatch.setattr("mvrcg.sweep.closed_target", spy)
    canonical = [code for code, *_ in iter_canonical_codes(3)]
    for g in enumerate_mvr_cgs(3):
        model = global_model_codes(g)
        if change == "drop":
            variants = [model[:k] + model[k + 1:] for k in range(len(model))]
        else:
            variants = [sorted(model + [code]) for code in canonical if code not in model]
        for perturbed in variants:
            monkeypatch.setattr("mvrcg.sweep.global_model_codes",
                                lambda g, perturbed=perturbed: perturbed)
            checks = verify_graph(g, config).checks
            for prop in PROPERTY_AXIOMS:
                outcome = checks[f"closure_{prop}"]
                assert (outcome.status, outcome.witness) == _closure_outcome(g, prop, perturbed)
    assert any(t is None for t in targets) and any(t is not None for t in targets)


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


def test_sweep_records_exceptions_as_errors_and_continues(monkeypatch):
    def broken(g):
        raise AssertionError("maximality criteria disagree; this is a bug")

    monkeypatch.setattr("mvrcg.sweep.is_maximal", broken)
    reports = list(run_equivalence_sweep(SweepConfig(max_n=2)))
    assert [r.index for r in reports] == [0, 1, 2, 3, 4]
    for report in reports:
        assert not report.ok
        assert report.checks["maximal"].status == "error"
        assert report.checks["maximal"].witness == \
            "AssertionError: maximality criteria disagree; this is a bug"
        assert report.checks["ancestral"].status == "pass"


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
