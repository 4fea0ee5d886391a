"""The witnesses that ``relwl verify`` reports when a check fails.

On working code every check passes, so the witness code paths only run
when something is broken.  These tests break the suites' collaborators on
purpose, in five ways, and pin a digest of the resulting reports: which
checks fail, in which order, and every witness value.  A refactor of the
suites must leave these digests unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from relwl import suites
from relwl.cli import main
from relwl.networks import FeatureTable


def _every(k: int, original):
    """``original``, except that every k-th call returns False."""
    calls = itertools.count(1)
    return lambda a, b: False if next(calls) % k == 0 else original(a, b)


def _flip_first_entry(original):
    def flipped(*args):
        out = original(*args)
        key = next(iter(out))
        out[key] = not out[key]
        return out

    return flipped


def _corrupt_last_key(original):
    def corrupted(self, t):
        out = original(self, t)
        out[next(reversed(out))] = "corrupt"
        return out

    return corrupted


def _break(mode: int, monkeypatch) -> None:
    if mode == 1:
        monkeypatch.setattr(suites, "refines", lambda a, b: False)
    elif mode == 2:
        monkeypatch.setattr(suites, "equivalent", lambda a, b: False)
    elif mode == 3:
        monkeypatch.setattr(suites, "equivalent", _every(3, suites.equivalent))
        monkeypatch.setattr(suites, "refines", _every(7, suites.refines))
    elif mode == 4:
        for name in ("eval_gml_all", "classify_pairs_via_compile"):
            monkeypatch.setattr(suites, name, _flip_first_entry(getattr(suites, name)))
        monkeypatch.setattr(suites, "canonical_tree_code", lambda tree: "constant")
    else:
        monkeypatch.setattr(
            FeatureTable, "assignment", _corrupt_last_key(FeatureTable.assignment)
        )


# mode -> (failed checks, sha256 of the reports) of run_all(5, 12)
BROKEN = {
    1: (80, "e912297cc6bc8008deae93b6deab4fd936bc1c5706acc7e0febb1f9237339cbd"),
    2: (40, "5ed53a1c5a4338eb0d8fa72b77a7d36fa0e2c90dca1a4dd4e0995753f8d76427"),
    3: (57, "d97a8f5e4552d240ac50809fcf06df0ea023d4e1670588554b7f0c8a30f387ec"),
    4: (52, "1e7efbed389005d0755661cb1794e622742715d76d7320cacb5e1b06d469459b"),
    5: (30, "97820b0ea062f7ce97e2447f6ee1a6c7463abba6fa859e455f5a009cbb03ef0c"),
}


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "mode",
    sorted(BROKEN),
    ids=["refines", "equivalent", "every-kth", "logic", "assignment"],
)
def test_failure_reports_are_pinned(mode, monkeypatch):
    _break(mode, monkeypatch)
    reports = suites.run_all(5, 12)
    failed = sum(not c.passed for r in reports for c in r.checks)
    assert all(c.witness is not None for r in reports for c in r.checks if not c.passed)
    assert (failed, _digest([r.to_json_dict() for r in reports])) == BROKEN[mode]


def test_verify_report_is_pinned(capsys):
    assert main(["verify", "--suite", "all", "--seed", "42", "--trials", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["timings"]
    assert _digest(doc) == "db159501358f20c63c79043594bc6deda7b049e3a6b8cfabf00f199c6265eab7"
