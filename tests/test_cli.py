import json

import pytest

from relwl.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json_out(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    return code, json.loads(out), err


def test_run_on_fixture(capsys):
    code, doc, _ = _json_out(
        capsys, "run", "--test", "rawl2+", "--graph", "fixture:ga", "--stabilize"
    )
    assert code == 0
    assert doc["schema"] == 1
    trace = doc["trace"]
    assert trace["test"] == "rawl2+"
    step1 = [set(map(tuple, cls)) for cls in trace["partitions"][1]]
    uv = next(cls for cls in step1 if ("u", "v") in cls)
    assert ("u", "v'") not in uv  # the split the fixture exists for


def test_run_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    code, doc, _ = _json_out(
        capsys, "run", "--test", "rwl1", "--graph", str(path), "--stabilize"
    )
    assert code == 0
    assert doc["trace"]["stabilized_at"] in (0, 1)


def test_run_warns_and_defaults_pair_coloring(capsys, tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("a\tr\tb\n", encoding="utf-8")
    code, out, err = _run(
        capsys, "run", "--test", "rawl2", "--graph", str(path), "--iters", "1"
    )
    assert code == 0
    assert "diagonal default" in err


def test_run_history_zero_matches_identity(capsys, tmp_path):
    from relwl.corpus import random_kg

    g = random_kg(11, 6, 2, 0.4)
    path = tmp_path / "g.tsv"
    path.write_text("\n".join(g.to_triple_lines()) + "\n", encoding="utf-8")
    docs = {}
    for hist in ("id", "zero"):
        code, doc, _ = _json_out(
            capsys,
            "run",
            "--test",
            "rawl2",
            "--graph",
            str(path),
            "--history",
            hist,
            "--iters",
            "4",
        )
        assert code == 0
        docs[hist] = doc["trace"]["partitions"]
    assert docs["id"] == docs["zero"]


def test_run_history_table_file(capsys, tmp_path):
    table = tmp_path / "hist.json"
    table.write_text("[0, 0, 1, 1]", encoding="utf-8")
    code, doc, _ = _json_out(
        capsys,
        "run",
        "--test",
        "rwl1",
        "--graph",
        "fixture:gb",
        "--history",
        str(table),
        "--iters",
        "3",
    )
    assert code == 0
    assert doc["trace"]["iterations"] == 3


def test_run_invalid_history_table_exits_2(capsys, tmp_path):
    table = tmp_path / "hist.json"
    table.write_text("[0, 2]", encoding="utf-8")  # f(1) = 2 > 1
    code, out, err = _run(
        capsys, "run", "--test", "rwl1", "--graph", "fixture:gb",
        "--history", str(table), "--iters", "1",
    )
    assert code == 2


def test_run_text_output(capsys):
    code, out, _ = _run(
        capsys, "run", "--test", "rwl1", "--graph", "fixture:gb",
        "--iters", "1", "--out", "text",
    )
    assert code == 0
    assert "test: rwl1" in out
    assert "stabilized_at" in out


def test_run_missing_file_exits_2(capsys):
    code, out, err = _run(capsys, "run", "--test", "rwl1", "--graph", "missing.tsv")
    assert code == 2
    assert "error" in err


def test_verify_fixtures(capsys):
    code, doc, _ = _json_out(
        capsys, "verify", "--suite", "fixtures", "--seed", "0", "--trials", "1"
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["summary"]["checks"] == 9


def test_verify_reduction_single_trial(capsys):
    code, doc, _ = _json_out(
        capsys, "verify", "--suite", "reduction", "--seed", "0", "--trials", "1"
    )
    assert code == 0
    assert doc["summary"]["failed"] == 0


def test_verify_reports_byte_identical_without_timings(capsys):
    snapshots = []
    for _ in range(2):
        code, out, _ = _run(
            capsys, "verify", "--suite", "history", "--seed", "3", "--trials", "2"
        )
        assert code == 0
        doc = json.loads(out)
        doc.pop("timings")
        snapshots.append(json.dumps(doc, sort_keys=True))
    assert snapshots[0] == snapshots[1]


def test_logic_eval_diagonal(capsys):
    code, doc, _ = _json_out(
        capsys,
        "logic",
        "eval",
        "--formula",
        "A:eq",
        "--graph",
        "fixture:ga",
        "--pairs",
        "all",
    )
    assert code == 0
    truths = {tuple(e["key"]): e["value"] for e in doc["truth"]}
    assert sum(truths.values()) == 3
    assert all(value == (a == b) for (a, b), value in truths.items())


def test_logic_eval_single_pair(capsys):
    code, doc, _ = _json_out(
        capsys,
        "logic",
        "eval",
        "--formula",
        "DIA[r1,1](A:neq)",
        "--graph",
        "fixture:ga",
        "--pairs",
        "u,u",
        "--check-compiled",
    )
    assert code == 0
    assert doc["truth"] == [{"key": ["u", "u"], "value": True}]
    assert doc["compiled_agrees"] is True


def test_logic_compile_bias(capsys):
    code, doc, _ = _json_out(
        capsys, "logic", "compile", "--formula", "DIA[r,2](A:c)", "--arity", "unary"
    )
    assert code == 0
    network = doc["network"]
    assert network["kind"] == "rmpnn"
    assert -1.0 in network["biases"][0]  # the counting row: -N + 1 with N = 2
    assert "r" in network["relation_params"][0]


def test_logic_translate_round_trip(capsys, tmp_path):
    source = "(A:eq & DIA[r,2](!A:neq))"
    path = tmp_path / "formula.txt"
    path.write_text(source, encoding="utf-8")
    code, doc, _ = _json_out(
        capsys, "logic", "translate", "--formula", str(path), "--arity", "unary"
    )
    assert code == 0
    assert doc["translated_arity"] == "binary"
    code, doc2, _ = _json_out(
        capsys,
        "logic",
        "translate",
        "--formula",
        doc["translated"],
        "--arity",
        "binary",
    )
    assert code == 0
    assert doc2["translated"] == doc["formula"] == source.replace(" ", " ")


def test_logic_parse_error_exits_2(capsys):
    code, out, err = _run(
        capsys, "logic", "eval", "--formula", "DIA[r,0](A:eq)", "--graph", "fixture:ga"
    )
    assert code == 2
    assert "error" in err


def test_fixture_export_round_trips(capsys, tmp_path):
    code, doc, _ = _json_out(
        capsys, "fixture", "gb", "--dest", str(tmp_path)
    )
    assert code == 0
    triples, pairs, colors, nodes = doc["files"]
    from relwl.graphs import load_graph
    from relwl.corpus import fixture

    loaded = load_graph(triples, colors, pairs, nodes)
    original = fixture("gb").graph
    assert loaded.node_names == original.node_names  # isolated nodes survive
    assert set(loaded.fact_names()) == set(original.fact_names())
    assert loaded.pair_coloring.tnd_flag
    # claims still verify on the re-loaded graph
    from relwl.wl import distinguishes, run_test

    trace = run_test("rwl2", loaded, horizon="stabilize")
    assert distinguishes(trace, ("u", "v"), ("u'", "v")) == 1


def test_cli_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run"])  # missing required flags
    assert info.value.code == 2


def test_verify_exit_1_on_violation(capsys, monkeypatch):
    import relwl.cli as cli
    from relwl.suites import CheckResult, SuiteReport

    def broken_suite(name, seed, trials):
        report = SuiteReport(name, seed, trials)
        report.checks = [
            CheckResult("fabricated", False, {"graph": {"nodes": []}, "iteration": 0})
        ]
        return report

    monkeypatch.setattr(cli, "run_suite", broken_suite)
    code, out, _ = _run(capsys, "verify", "--suite", "fixtures")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    witness = doc["reports"][0]["checks"][0]["witness"]
    assert "graph" in witness and "iteration" in witness


def test_failing_claims_carry_witnesses(monkeypatch):
    import relwl.suites as suites

    monkeypatch.setattr(suites, "check_claim", lambda fx, claim: (False, "bogus"))
    results = suites.suite_fixtures(0, 1)
    assert results and all(not r.passed for r in results)
    witness = results[0].witness
    assert set(witness) >= {"graph", "pair_a", "pair_b", "expected", "observed"}
    assert witness["graph"]["facts"]


def _one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err
    return lines[0]


def test_malformed_history_json_exits_2(capsys, tmp_path):
    table = tmp_path / "hist.json"
    table.write_text("[0,\n 0,,]", encoding="utf-8")
    code, out, err = _run(
        capsys, "run", "--test", "rwl1", "--graph", "fixture:gb",
        "--history", str(table), "--iters", "1",
    )
    assert code == 2 and out == ""
    assert f"{table}:2:" in _one_error_line(err)


def test_non_utf8_tsv_exits_2(capsys, tmp_path):
    path = tmp_path / "g.tsv"
    path.write_bytes(b"a\tr\tb\nb\tr\tc\xff\n")
    code, out, err = _run(capsys, "run", "--test", "rwl1", "--graph", str(path))
    assert code == 2 and out == ""
    assert f"{path}:2:" in _one_error_line(err)


def test_directory_as_graph_exits_2(capsys, tmp_path):
    code, out, err = _run(capsys, "run", "--test", "rwl1", "--graph", str(tmp_path))
    assert code == 2 and out == ""
    assert str(tmp_path) in _one_error_line(err)


def test_logic_eval_malformed_pairs_exits_2(capsys):
    code, out, err = _run(
        capsys, "logic", "eval", "--formula", "DIA[r1,1](A:neq)",
        "--graph", "fixture:ga", "--pairs", "u",
    )
    assert code == 2 and out == ""
    assert "--pairs" in _one_error_line(err)


@pytest.mark.parametrize(
    "text", ['{"a": 1}', '[0, "x"]', "5", "null", "[0, 0.5]", "[0, true]"]
)
def test_history_that_is_not_a_list_of_integers_exits_2(capsys, tmp_path, text):
    table = tmp_path / "hist.json"
    table.write_text(text, encoding="utf-8")
    code, out, err = _run(
        capsys, "run", "--test", "rwl1", "--graph", "fixture:gb",
        "--history", str(table), "--iters", "2",
    )
    assert code == 2 and out == ""
    line = _one_error_line(err)
    if not text.startswith("["):
        assert line.startswith(f"error: {table}: ")


def test_verify_rejects_negative_trials(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "fixtures", "--trials", "-3"])
    assert info.value.code == 2
    assert "--trials" in capsys.readouterr().err
