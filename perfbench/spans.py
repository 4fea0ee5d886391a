"""Span tracer for relwl, installed from outside the package.

``Tracer.install`` wraps every public module-level function of the eight
relwl modules (plus the public methods listed in ``METHODS``) in its
defining module and in every ``relwl`` module that imported it by name,
such as ``relwl.suites.build_cmpnn_simulator`` or the package namespace
``relwl.run_test``.  Each call opens a span whose parent is the span that
was open when it started.  When a span closes, its duration minus the
time covered by its child spans and by the tracer's count extraction
(hooks) is added to its layer's self time.  The layers' self times thus
add up to the traced pass time less the hook time and the benchmark's glue
between calls, which ``run.py`` checks against the tracing overhead.

Spans are aggregated as they close (per layer and per function group)
instead of being stored one by one: the exact-mode suites open about a
million spans per pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

LAYERS = ("graphs", "wl", "networks", "rational", "logic", "corpus", "suites", "cli")

# Public methods that are layer entry points but not module-level functions.
METHODS = (("logic", "CompiledClassifier", "classify"), ("logic", "CompiledClassifier", "run"))

SUITE_NAMES = ("fixtures", "reduction", "history", "hierarchy", "simulation", "logic")

# Per-layer time metrics: summed duration of the outermost spans of the
# listed functions (a member called inside another member is not counted
# twice), less the hook time inside them; time spent in other layers below
# them is included.
GROUPS = {
    "graphs.load_graph.s": ("graphs.load_graph",),
    "graphs.from_triples.s": ("graphs.from_triples",),
    "graphs.derived.s": ("graphs.augment", "graphs.product_square", "graphs.permute_nodes"),
    "graphs.unravel.s": ("graphs.unravel", "graphs.canonical_tree_code"),
    "wl.run_test.s": ("wl.run_test",),
    "wl.compare.s": ("wl.equivalent", "wl.refines"),
    "networks.build.s": (
        "networks.build_rwl1_simulator",
        "networks.build_cmpnn_simulator",
        "networks.build_sign_matrix",
        "networks.sign_basis",
    ),
    "networks.rmpnn_forward.s": ("networks.rmpnn_forward",),
    "networks.cmpnn_forward.s": ("networks.cmpnn_forward",),
    "networks.cmpnn_pair_table.s": ("networks.cmpnn_pair_table",),
    "networks.score_link.s": ("networks.score_link",),
    "rational.mat_mul.s": ("rational.mat_mul",),
    "rational.mat_vec.s": ("rational.mat_vec",),
    "rational.mat_inverse.s": ("rational.mat_inverse",),
    "logic.eval.s": (
        "logic.eval_gml_all",
        "logic.eval_rgfo3_all",
        "logic.eval_gml",
        "logic.eval_rgfo3",
    ),
    "logic.compile_path.s": (
        "logic.compile_gml_to_rmpnn",
        "logic.CompiledClassifier.classify",
        "logic.CompiledClassifier.run",
        "logic.classify_pairs_via_compile",
    ),
    "corpus.random.s": (
        "corpus.random_kg",
        "corpus.random_dag_kg",
        "corpus.random_formula",
        "corpus.random_history",
        "corpus.random_rational_features",
    ),
}

# Network entry points that compute feature rows; only the outermost one
# of a nest is counted, so a pair table is not counted again per source.
FORWARD = "networks.forward"
FORWARD_ROWS = {
    "networks.rmpnn_forward": "single",
    "networks.cmpnn_forward": "single",
    "networks.score_link": "single",
    "networks.cmpnn_pair_table": "pairs",
}

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    [(f"{layer}.self.s", "s") for layer in LAYERS]
    + [(name, "s") for name in GROUPS]
    + [(f"suites.{name}.s", "s") for name in SUITE_NAMES]
    + [
        ("graphs.load_graph.facts_per_s", "1/s"),
        ("wl.run_test.calls", "count"),
        ("wl.rounds", "count"),
        ("wl.cells", "count"),
        ("wl.classes", "count"),
        ("wl.ns_per_cell", "ns"),
        ("networks.feature_rows", "count"),
        ("networks.exact_max_bits", "bits"),
        ("rational.mat_mul.calls", "count"),
        ("suites.checks", "count"),
        ("suites.failed", "count"),
        ("cli.out_bytes", "bytes"),
        ("trace.overhead_s", "s"),
    ]
)

# Counts that must repeat exactly for a fixed seed.
DETERMINISTIC = (
    "wl.run_test.calls",
    "wl.rounds",
    "wl.cells",
    "wl.classes",
    "networks.feature_rows",
    "networks.exact_max_bits",
    "rational.mat_mul.calls",
    "suites.checks",
    "suites.failed",
)


def _max_bits(values) -> int:
    best = 0
    for x in values:
        if isinstance(x, Fraction):
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.hook_s = 0.0
        self.suspend_depth = 0
        self._depth: Counter = Counter()
        self._stack: list[list] = []  # frames: [span name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"relwl.{layer}"]
            for attr, obj in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"relwl.{layer}"], cls_name, None)
            method = getattr(cls, attr, None) if cls is not None else None
            if inspect.isfunction(method):
                self._patch(cls, attr, self._wrap(method, f"{layer}.{cls_name}.{attr}", layer))
        for name, module in list(sys.modules.items()):
            if name != "relwl" and not name.startswith("relwl."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def suspended(self):
        """Calls made inside this block open no spans."""
        self.suspend_depth += 1
        try:
            yield
        finally:
            self.suspend_depth -= 1

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        groups = tuple(g for g, members in GROUPS.items() if name in members)
        if name in FORWARD_ROWS:
            groups += (FORWARD,)
        hook = self._hook_for(name, fn)
        suite_span = name == "suites.run_suite"
        stack, depth, self_s, group_s = self._stack, self._depth, self.self_s, self.group_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.suspend_depth:
                return fn(*args, **kwargs)
            span_groups = groups
            if suite_span:
                suite = args[0] if args else kwargs.get("name")
                span_groups = groups + (f"suites.{suite}.s",)
            for g in span_groups:
                depth[g] += 1
            frame = [name, 0.0]
            stack.append(frame)
            hooks_before = self.hook_s
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                self_s[layer] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                calls[name] += 1
                for g in span_groups:
                    depth[g] -= 1
                    if not depth[g]:
                        group_s[g] += elapsed - (self.hook_s - hooks_before)
            if hook is not None:
                started = perf_counter()
                hook(args, kwargs, result)
                spent = perf_counter() - started
                self.hook_s += spent
                if parent is not None:
                    parent[1] += spent
            return result

        return wrapper

    # -- counts read from arguments and results -----------------------------

    def _hook_for(self, name: str, fn):
        signature = inspect.signature(fn)
        counts = self.counts

        def bound(args, kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            return call.arguments

        if name == "wl.run_test":

            def hook(args, kwargs, trace):
                counts["wl.rounds"] += trace.iterations
                counts["wl.cells"] += trace.iterations * len(trace.colorings[0])
                if trace.stabilized_at is not None:
                    counts["wl.classes"] += len(set(trace.colorings[-1]))

            return hook
        if name == "graphs.load_graph":

            def hook(args, kwargs, graph):
                counts["graphs.load_graph.facts"] += len(graph.facts)

            return hook
        if name == "suites.run_suite":

            def hook(args, kwargs, report):
                counts["suites.checks"] += len(report.checks)
                counts["suites.failed"] += sum(1 for c in report.checks if not c.passed)

            return hook
        if name in FORWARD_ROWS:
            pairs = FORWARD_ROWS[name] == "pairs"

            def hook(args, kwargs, result):
                if self._depth[FORWARD]:
                    return  # nested in another forward, which counts the rows
                arguments = bound(args, kwargs)
                G, spec = arguments["G"], arguments["spec"]
                n, layers = G.n, spec.num_layers + 1
                counts["networks.feature_rows"] += (n * n if pairs else n) * layers
                if not spec.exact or name == "networks.score_link":
                    return
                if pairs:
                    keys = [(u, v) for u in range(n) for v in range(n)]
                elif name == "networks.cmpnn_forward":
                    source = arguments["source"]
                    u = G.node_id(source) if isinstance(source, str) else source
                    keys = [(u, v) for v in range(n)]
                else:
                    keys = list(range(n))
                bits = max(
                    (_max_bits(result.vector(t, k)) for t in range(layers) for k in keys),
                    default=0,
                )
                counts["networks.exact_max_bits"] = max(counts["networks.exact_max_bits"], bits)

            return hook
        return None

    # -- report ------------------------------------------------------------

    @property
    def self_sum_s(self) -> float:
        """Self time of all layers together."""
        return sum(self.self_s[layer] for layer in LAYERS)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced pass (all but the overhead)."""
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self.s"] = self.self_s[layer]
        for name in GROUPS:
            m[name] = self.group_s[name]
        for suite in SUITE_NAMES:
            m[f"suites.{suite}.s"] = self.group_s[f"suites.{suite}.s"]
        load_s = self.group_s["graphs.load_graph.s"]
        facts = self.counts["graphs.load_graph.facts"]
        m["graphs.load_graph.facts_per_s"] = facts / load_s if load_s else 0.0
        m["wl.run_test.calls"] = self.calls["wl.run_test"]
        for key in ("wl.rounds", "wl.cells", "wl.classes", "networks.feature_rows",
                    "networks.exact_max_bits", "suites.checks", "suites.failed",
                    "cli.out_bytes"):
            m[key] = self.counts[key]
        cells = self.counts["wl.cells"]
        m["wl.ns_per_cell"] = self.group_s["wl.run_test.s"] / cells * 1e9 if cells else 0.0
        m["rational.mat_mul.calls"] = self.calls["rational.mat_mul"]
        return m
