"""Tests of the benchmark itself (slow: several minutes in all).

Run from the repository root::

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bench(root: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    manifest = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(manifest["workloads"])


def test_gates_are_untimed_and_untraced():
    R = workloads.relwl
    tracer = spans.Tracer()
    rec = workloads.Recorder(tracer)
    graph = R.random_kg(1, n_max=5, r_max=2, density=0.3)
    tracer.install()
    try:
        trace = rec.op("refine", R.run_test, "rwl1", graph)
        timed, calls = rec.wall_s, dict(tracer.calls)
        rec.gate("rwl1 refines itself",
                 lambda t: R.refines(t.colorings[-1], t.colorings[-1]), trace)
        failed = rec.op("step", lambda: 1 / 0)
        rec.gate("needs a failed op", lambda v: True, failed)
    finally:
        tracer.uninstall()
    assert rec.steps["refine"] == timed
    assert [ok for _, ok, _ in rec.gates] == [True, False]
    assert (rec.attempted, rec.failed) == (2, 1)
    assert dict(tracer.calls) == calls and calls["wl.run_test"] == 1


@pytest.mark.parametrize("workload", ["kg-node", "pair", "verify-all"])
def test_counts_repeat_for_a_fixed_seed(workload):
    first = _result(_bench(ROOT, workload, 3, 1))
    second = _result(_bench(ROOT, workload, 3, 1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {name for name, _ in spans.PER_LAYER}
    for name in spans.DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["wl.rounds"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "pair", 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_wrong_output_fails_the_run(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("*.egg-info"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    logic = tmp_path / "src" / "relwl" / "logic.py"
    text = logic.read_text(encoding="utf-8")
    broken = text.replace(
        "    return {(u, v): verdicts[u * n + v] for u in range(n) for v in range(n)}",
        "    return {(u, v): not verdicts[u * n + v] for u in range(n) for v in range(n)}",
    )
    assert broken != text
    logic.write_text(broken, encoding="utf-8")
    proc = _bench(tmp_path, "pair", 1, 0)
    assert proc.returncode == 1
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert "direct and compiled binary logic agree" in proc.stdout
