"""relwl benchmark: one seeded workload per process, timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kg-node --seed 1 --seconds 36 --trace 0

Workloads (see ``workloads.py`` and ``manifest.json``): ``kg-node``,
``pair`` and ``verify-all``.  The run imports ``relwl`` from ``src/`` of
the checkout and sets the workload up several times (a fresh interpreter
importing relwl, input generation, a warm-up pass on small inputs).  It
then runs whole passes for about ``--seconds``: a pass starts only if at
least half of it fits.  A pass's time is the sum of its timed calls into
relwl; its outputs are checked between those calls, outside that time and
untraced.  The process exits 1 if any check failed, and 2 if the checkout
has no ``relwl`` sources.

On a small VM that shares its cores, speed drifts by a quarter or more
over minutes.  So a fixed pure-Python loop (the reference, in
``workloads.py``) is timed before and after every set-up and pass and after
each timed call in a pass, and each end-to-end time is scaled by ``REF_S``
over the median reference time around and within it: a time is reported
as seconds on a machine where the reference takes ``REF_S``.  Raw times are
printed beside them.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones, plus the tracing overhead (traced minus
untraced pass time).  Readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
# Reference calls timed before and after each set-up and pass.  REF_S is a
# typical reference time on a 2-vCPU VM with Python 3.11, where it read
# 0.010 to 0.016 s as the VM's speed drifted.
REF_CALLS = 9
REF_S = 0.0125
# Share of the traced pass that may go unattributed to any layer when the
# tracing overhead is smaller than the noise between passes.
TRACE_SLACK = 0.01
# d=16 products gain nothing from BLAS threads on a small machine; pin them
# so that timings do not depend on the core count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cli_s", "s"), ("peak_rss_mb", "MB"))


def _median(values):
    return statistics.median(values) if values else 0.0


def _describe(label: str, values, unit: str) -> str:
    if not values:
        return f"  {label:<22} n/a"
    return (
        f"  {label:<22} {_median(values):12.6f} {unit:<5} median of {len(values)}"
        f" (min {min(values):.6f}, max {max(values):.6f})"
    )


def _reference_block(workloads) -> list:
    return [workloads.reference_s() for _ in range(REF_CALLS)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "relwl" / "__init__.py").is_file():
        print(f"error: no relwl sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("RELWL_")]:
        del os.environ[var]  # measure the library defaults
    sys.path.insert(0, str(src))

    import relwl  # noqa: E402  (needs the path and thread pins above)

    import spans
    import workloads

    if Path(relwl.__file__).resolve().parent != (src / "relwl").resolve():
        print(f"error: imported relwl from {relwl.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    manifest = workloads.MANIFEST

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workload, workloads, spans, manifest, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, workload, workloads, spans, manifest, workdir: Path) -> int:
    gates = []
    setup_times = []
    inputs = None
    (workdir / "warm").mkdir()
    # A set-up is what a fresh process pays before its first pass: starting
    # an interpreter that imports relwl, generating the inputs and warming up.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    blocks = [_reference_block(workloads)]
    setup_scales = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import relwl.cli"], env=env, cwd=ROOT, check=True)
        inputs = workload.setup(args.seed, workdir)
        warm_rec = workloads.Recorder()
        workload.run_pass(workload.warmup(args.seed, workdir / "warm"), warm_rec)
        setup_times.append(perf_counter() - start)
        blocks.append(_reference_block(workloads))
        setup_scales.append(REF_S / _median(blocks[-2] + blocks[-1]))
        gates += [(f"warm-up: {name}", ok, detail) for name, ok, detail in warm_rec.gates]
    setup_scaled = [t * k for t, k in zip(setup_times, setup_scales)]

    expected = manifest["workloads"][args.workload].get("sha256", {}).get(str(args.seed))
    if expected is not None:
        gates.append(("inputs match the manifest sha256", inputs["sha256"] == expected,
                      inputs["sha256"]))

    plain, traced = [], []  # (recorder, scale) and (recorder, tracer) pairs
    pass_times = []  # whole passes, checks included, to plan the run's length
    start = perf_counter()
    while True:
        tracer = spans.Tracer() if args.trace and len(plain) > len(traced) else None
        rec = workloads.Recorder(tracer, speed=[] if tracer is None else None)
        t = perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            workload.run_pass(inputs, rec)
        finally:
            if tracer is not None:
                tracer.uninstall()
        gates += rec.gates
        blocks.append(_reference_block(workloads))
        pass_times.append(perf_counter() - t)
        if tracer is not None:
            tracer.counts["cli.out_bytes"] = rec.counts["cli.out_bytes"]
            traced.append((rec, tracer))
        else:
            plain.append((rec, REF_S / _median(blocks[-2] + rec.speed + blocks[-1])))
        # Stop once another pass would end more than half a pass past the
        # deadline, so that a run measures about --seconds however long a pass is.
        elapsed = perf_counter() - start
        if (not args.trace or traced) and elapsed + _median(pass_times) / 2 >= args.seconds:
            break

    records = [r for r, _ in plain] + [r for r, _ in traced]
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    errors = Counter()
    for r in records:
        errors.update(r.errors)

    walls = [r.wall_s for r, _ in plain]
    walls_scaled = [r.wall_s * k for r, k in plain]

    def steps(key, scaled=False):
        return [r.steps[key] * (k if scaled else 1) for r, k in plain if key in r.steps]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    if "sha256" in inputs:
        print(f"  inputs sha256 {inputs['sha256']}")
    refs = [t for block in blocks for t in block] + [t for r, _ in plain for t in r.speed]
    print(_describe("reference", refs, "s") + f" calls; scaled to {REF_S} s")
    print(_describe("setup_s", setup_scaled, "s") + " set-ups, scaled")
    print(_describe("wall_s", walls_scaled, "s") + " passes, scaled")
    cli_name = "cli_verify_s" if args.workload == "verify-all" else "cli_run_s"
    print(_describe(cli_name, steps("cli", True), "s") + " passes, scaled")
    print(_describe("raw setup_s", setup_times, "s") + " set-ups")
    print(_describe("raw wall_s", walls, "s") + " passes")
    print(_describe(f"raw {cli_name}", steps("cli"), "s") + " passes")
    link = [r.counts["link_queries"] / r.steps["link"] for r, _ in plain if r.steps.get("link")]
    print(_describe("link_queries_per_s", link, "1/s") + " passes")
    print(_describe("pair_refine_s", steps("refine"), "s"))
    print(_describe("pair_table_s", steps("pair_table"), "s"))
    for key in sorted({k for r, _ in plain for k in r.steps}):
        print(_describe(f"step {key}", steps(key), "s"))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"  {'peak_rss_mb':<22} {rss_mb:12.6f} MB")
    print(f"  {'fail_ratio':<22} {failed / attempted:12.6f}       "
          f"{failed} failed of {attempted} attempted operations")
    for message, count in errors.most_common(5):
        print(f"    {count} x {message}")

    metrics = {}
    if args.trace:
        per_pass = [tracer.metrics() for _, tracer in traced]
        for name in spans.DETERMINISTIC:
            values = {m[name] for m in per_pass}
            gates.append((f"count {name} repeats across traced passes", len(values) == 1, values))
        traced_wall = _median([r.wall_s for r, _ in traced])
        overhead = traced_wall - _median(walls)
        for name, unit in spans.PER_LAYER:
            value = overhead if name == "trace.overhead_s" else _median([m[name] for m in per_pass])
            metrics[name] = {"value": value, "unit": unit}
        print("  per-layer self time (traced pass):")
        for layer in spans.LAYERS:
            print(f"    {layer:<10} {metrics[f'{layer}.self.s']['value']:10.4f} s")
        # The layers must account for the traced pass: what they leave out
        # (the tracer's hooks and the glue between calls) must be within the
        # tracing overhead, or within 1% of the pass where the overhead is
        # lost in the noise between passes.
        self_sum = _median([tracer.self_sum_s for _, tracer in traced])
        left = _median([r.wall_s - tracer.self_sum_s for r, tracer in traced])
        allowed = max(overhead, TRACE_SLACK * traced_wall)
        gates.append(("the layers' self times add up to the traced wall_s", left <= allowed,
                      f"{left:.4f} s left, {allowed:.4f} s allowed"))
        print(f"    the layers sum to {self_sum:.4f} s of the traced wall_s {traced_wall:.4f} s; "
              f"{left:.4f} s left (hooks {_median([t.hook_s for _, t in traced]):.4f} s), "
              f"tracing overhead {overhead:.4f} s (untraced wall_s {_median(walls):.4f} s)")
        for name in spans.DETERMINISTIC:
            print(f"    count {name} = {metrics[name]['value']}")
    else:
        values = {"setup_s": _median(setup_scaled), "wall_s": _median(walls_scaled),
                  "cli_s": _median(steps("cli", True)), "peak_rss_mb": rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    bad = [(name, detail) for name, ok, detail in gates if not ok]
    print(f"  gates: {len(gates) - len(bad)} of {len(gates)} hold")
    for name, detail in bad[:20]:
        print(f"    FAILED {name} {detail}")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
