import json
import os
import subprocess
import sys

import pytest

from mvrcg import MixedGraph
from mvrcg import fixtures
from mvrcg.cli import main
from mvrcg.sweep import SweepConfig, config_hash, run_equivalence_sweep


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
], ids=["negative_id", "no_b", "float_id", "top_level_array", "not_json"])
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
    for report in reports[1:]:  # 8 vertices exceed the model cap of 7
        assert report.n == 8 and not report.ok
        assert set(report.checks) == set(config.checks)
        for outcome in report.checks.values():
            assert outcome.status == "fail"
            assert outcome.witness == "CapExceeded: 8 vertices exceeds cap 7"


def test_export_dot_with_induced_set(capsys, fig_path):
    code, out, _ = run(capsys, "export-dot", "--graph", fig_path("fig3"),
                       "--set", "5,6,7")
    assert code == 0
    assert out.count("label=") == 3
    assert "dir=both" in out  # 5 <-> 6 survives the restriction
