import hashlib
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


# -- the run report contract ----------------------------------------------------

RUN_MODES = {"stabilize": ("--stabilize",), "iters2-zero": ("--iters", "2", "--history", "zero")}

# sha256 of each `relwl run` JSON report on a fixture, without `timings`
RUN_REPORT_SHA256 = {
    ("rwl1", "ga", "stabilize"): "f081e546b0c91839ba4d1db445c2f7884fa99fae8d2ecdbb2e3d8b8b1c2afad1",
    ("rwl1", "ga", "iters2-zero"): "d0efbd41fc3f2e799b13b0ce1e32b1cfb90f5beb673abfa5b00a2e2699a59711",
    ("rwl1", "gb", "stabilize"): "22a2a4bfa5ebbc559566e241f8aaf2bdb8dadd443e74fec3332172a07d3523e9",
    ("rwl1", "gb", "iters2-zero"): "7d88da5bb2966fde589f8716d806452226d73a4dd317ad93ff3a50da777efe37",
    ("rwl1", "gc", "stabilize"): "ecefcceb450fd274fd3eaffcc99bf98af663916f3bcc553e7aa74136c7a93447",
    ("rwl1", "gc", "iters2-zero"): "84678ce778a6acb92d6e7b3138d5af9165f7902065010f3596e32a2b99760def",
    ("rwl1", "gd", "stabilize"): "7778d9bd90159e27a186cb08705a1b63b4bc707ce1a23eb0bbe251d2ba589ec2",
    ("rwl1", "gd", "iters2-zero"): "55d4a24562f5f71d1f5b3ab45506db8399a17717cd6eadc05e458f4d044468aa",
    ("rawl2", "ga", "stabilize"): "d5d8e6d29e06025aaadbe9edc06b0c6aefcd1246cb564ba037452e315efef8de",
    ("rawl2", "ga", "iters2-zero"): "22471a01a1b5a7ebecc5c9cccc76a655e906ac339541c8bb852997cd9bb11563",
    ("rawl2", "gb", "stabilize"): "9728914190951547e4f20df38679c2333ee02c0fd9e4b73bc10a0f1be27fb910",
    ("rawl2", "gb", "iters2-zero"): "afcc30d232c7ab89682cf6ae1b4005be0f166d09d40de5a4e38b62e20107320e",
    ("rawl2", "gc", "stabilize"): "01cea5e838bdd8ccfc5324cf2ee5ff708a0e3c1d35e2f277dc55f79b01c9efc8",
    ("rawl2", "gc", "iters2-zero"): "7050836529cf486c3c20d82667a9b2155a88fd1a8419ca7899d61983d4abd4ed",
    ("rawl2", "gd", "stabilize"): "9ca50f49642b163a5028c22f8e621508d9d5b5bee14a7b952b4fea874c1dca43",
    ("rawl2", "gd", "iters2-zero"): "49932d3d45e12b7bbf493526748639953564040bd057a1a65d14a2f51af837a7",
    ("rwl2", "ga", "stabilize"): "6237e31e5a6e9a9fc95de1242c9d029b528eb9c4db8289f3ea5657bea9333eb6",
    ("rwl2", "ga", "iters2-zero"): "20b98bd48f65747ba8d921df5fa947cd9aa044933494e95385426880b38b0821",
    ("rwl2", "gb", "stabilize"): "62bf0b974578888bf420ace9fbc8dbeabb003699a0b61dcf3dc3a8c1d33a5422",
    ("rwl2", "gb", "iters2-zero"): "3f702fce57e073e681aef8bab41fdeee4395840dcfa6bd56ff21328d9bf0da4b",
    ("rwl2", "gc", "stabilize"): "3449fa84bc636c5fe6a0dac963ebd546f620cb4fb557a5d403346a8c471bb3e1",
    ("rwl2", "gc", "iters2-zero"): "f27d76f828e1d7a78b3fc31b9c23892fe71e8fb0f59abfdab159379967eb6c7a",
    ("rwl2", "gd", "stabilize"): "0a3bc9be4e4b2bcb06090dd63680bd72d531bae8f20cbab62938a0c3811f13d7",
    ("rwl2", "gd", "iters2-zero"): "087ce4a2ce92e532de7e935bee41fc52daf24cf40c715e4098eb3cca3925cdb1",
    ("rawl2+", "ga", "stabilize"): "6ba817175300981be5d46bfab4f0826177ddb4304596b8e059a8e13cacba63a6",
    ("rawl2+", "ga", "iters2-zero"): "7404f7f96a414e59a8c668aa41c92cf6484b10f183bf24358243f124c894e505",
    ("rawl2+", "gb", "stabilize"): "a7e441bbff30ca6c1b7bb05603d2ab88140f54b2b1fefaa539fe9976e9e8ae5f",
    ("rawl2+", "gb", "iters2-zero"): "d736665326104a206ea79d02aacaad92739e525d92ca140b0ca4ea1ba3254a4a",
    ("rawl2+", "gc", "stabilize"): "9a444704d4db94ffcce4a0e5c69f81edd083e3627703f737b99a38897af6666f",
    ("rawl2+", "gc", "iters2-zero"): "ad11c74f4f7dfb9911944712b2ebee3f5b10045a935146bd10938e0282c3344d",
    ("rawl2+", "gd", "stabilize"): "9c24d2f08e83061195b4454f9136ae74d4d7346534f196076cc671cc1f318a02",
    ("rawl2+", "gd", "iters2-zero"): "376aba60161b50bab5cd008094a18f3f0e3ed69b11415c48a59d996724c4adde",
    ("rwl2+", "ga", "stabilize"): "8ea4d0add8509febb01a68b82a98e5933b3a310b85d7d2f1dbff7cc4e44250d7",
    ("rwl2+", "ga", "iters2-zero"): "e86efcee0f7428962a4e3a24c90bae9f01732c0672e73d1f49632bdfec9fcdf1",
    ("rwl2+", "gb", "stabilize"): "94146c69f20afbb376f7228a3f18706010c1e847e5691c7491cd600c4f439500",
    ("rwl2+", "gb", "iters2-zero"): "b3f8e888bbd90d7033471f7b4805dea134496adbf92b5a1161efba55c6578b04",
    ("rwl2+", "gc", "stabilize"): "a1f68f7bbb091a208bf57d03f6c0296029c1703447e80802f115c2c517695729",
    ("rwl2+", "gc", "iters2-zero"): "9d2b981044b856a395e165af2fb6aa93a902b4c5f0e9734a37652efc2e8a047d",
    ("rwl2+", "gd", "stabilize"): "2b4e5da5e727cbaf6a7ff20b712796081579f07b763878f81ba281d40d4e2236",
    ("rwl2+", "gd", "iters2-zero"): "c7897d0a0cea28fc57add383294b5b7ba939fb8f13cfe95eb8d2fc9dabf51325",
}


@pytest.mark.parametrize(
    "test_id, name, mode", RUN_REPORT_SHA256, ids=["-".join(k) for k in RUN_REPORT_SHA256]
)
def test_run_reports_are_pinned(capsys, test_id, name, mode):
    code, doc, _ = _json_out(
        capsys, "run", "--test", test_id, "--graph", f"fixture:{name}", *RUN_MODES[mode]
    )
    assert code == 0
    del doc["timings"]
    text = json.dumps(doc, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_REPORT_SHA256[test_id, name, mode]
