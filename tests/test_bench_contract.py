"""What the benchmark in ``perfbench/`` needs of the program.

The benchmark drives relwl through ``perfbench/workloads.py`` and traces
it with ``perfbench/spans.py``; a run stops without numbers when a pass
fails an operation or a gate, when the tracer cannot find a module or a
name, or when ``relwl verify`` runs another number of checks than the
manifest pins.  These tests run each workload's small warm-up pass,
untraced and traced, and the pinned verify command, so that such a
change fails here first.  They import the benchmark's modules and change
nothing in them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from relwl.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warmup_pass_holds_every_gate(name, traced, tmp_path):
    w = workloads.WORKLOADS[name]
    tracer = spans.Tracer() if traced else None
    rec = workloads.Recorder(tracer)
    inputs = w.warmup(1, tmp_path)
    if tracer is not None:
        tracer.install()
    try:
        w.run_pass(inputs, rec)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert rec.attempted > 0
    assert rec.failed == 0, dict(rec.errors)
    assert [(gate, detail) for gate, ok, detail in rec.gates if not ok] == []
    if tracer is not None:
        assert sum(tracer.calls.values()) > 0


def test_verify_all_runs_the_pinned_check_count(capsys):
    pinned = workloads.MANIFEST["workloads"]["verify-all"]["cli"]
    argv = ["verify", "--suite", "all", "--seed", str(pinned["seed"]),
            "--trials", str(pinned["trials"])]
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"] is True
    assert doc["summary"]["checks"] == pinned["checks"]
