"""Seeded property suites behind ``relwl verify``.

Each suite runs ``trials`` independent random instances (plus the fixed
fixture claims) and returns one result per check.  A check works out one
failure dict for its instance, or None when the claim holds: the indices
involved and the iteration at which the property broke.  A failing check
reports that dict, with the generating graph added, as its witness.
Every trace any suite records is also checked for monotone refinement.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .corpus import (
    FIXTURE_NAMES,
    check_claim,
    fixture,
    random_dag_kg,
    random_formula,
    random_history,
    random_kg,
    random_rational_features,
)
from .graphs import (
    KnowledgeGraph,
    canonical_tree_code,
    default_pair_coloring,
    product_square,
    unravel,
)
from .logic import (
    Formula,
    classify_pairs_via_compile,
    compile_gml_to_rmpnn,
    eval_gml_all,
    eval_rgfo3_all,
    translate_gml_to_rgfo3,
    translate_rgfo3_to_gml,
)
from .networks import (
    build_cmpnn_simulator,
    build_rwl1_simulator,
    cmpnn_pair_table,
    random_cmpnn_spec,
    random_rmpnn_spec,
    rmpnn_forward,
)
from .wl import HistoryFunction, WLTrace, equivalent, refines, run_test

SUITE_NAMES = ("fixtures", "reduction", "history", "hierarchy", "simulation", "logic")


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: dict | None = None


@dataclass
class SuiteReport:
    suite: str
    seed: int
    trials: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
        }


def _graph_witness(G: KnowledgeGraph) -> dict:
    return {
        "nodes": list(G.node_names),
        "relations": list(G.relation_names),
        "facts": [list(f) for f in G.fact_names()],
    }


def _check(name: str, G: KnowledgeGraph, failure: dict | None) -> CheckResult:
    """The result of one check; a failure is reported with G as witness."""
    if failure is None:
        return CheckResult(name, True)
    return CheckResult(name, False, {"graph": _graph_witness(G), **failure})


def _first(items, broken) -> dict | None:
    """The first failure ``broken`` reports for ``items``, in order, else None."""
    return next(filter(None, map(broken, items)), None)


def _monotone_violation(trace: WLTrace) -> int | None:
    for t in range(len(trace.colorings) - 1):
        if not refines(trace.colorings[t + 1], trace.colorings[t]):
            return t
    return None


def _run_checked(test_id, G, history=None, horizon="stabilize") -> tuple[WLTrace, int | None]:
    trace = run_test(test_id, G, history, horizon)
    return trace, _monotone_violation(trace)


def _traces(G, runs: dict, horizon, label: str) -> tuple[dict, dict | None]:
    """Run ``runs`` (a key -> (test, history) map) on G, every one of them.

    Returns the traces by key and, if some trace does not refine
    monotonically, the failure of the last such run, named by ``label``.
    """
    traces, failure = {}, None
    for key, (test_id, history) in runs.items():
        traces[key], bad = _run_checked(test_id, G, history, horizon)
        if bad is not None:
            failure = {label: key, "monotone_violation": bad}
    return traces, failure


def _coloring_at(trace: WLTrace, t: int):
    # Past stabilization the partition repeats, so clamping is sound.
    return trace.colorings[min(t, len(trace.colorings) - 1)]


def suite_fixtures(seed: int, trials: int) -> list[CheckResult]:
    """The nine counterexample claims, verified by running to stabilization."""
    results = []
    for name in FIXTURE_NAMES:
        fx = fixture(name)
        for claim in fx.claims:
            ok, observed = check_claim(fx, claim)
            failure = None if ok else {
                "pair_a": list(claim.pair_a),
                "pair_b": list(claim.pair_b),
                "expected": claim.separated_at,
                "observed": repr(observed),
            }
            results.append(
                _check(
                    f"fixtures/{name}/{claim.test_id}"
                    f"({','.join(claim.pair_a)})vs({','.join(claim.pair_b)})",
                    fx.graph,
                    failure,
                )
            )
    return results


def suite_reduction(seed: int, trials: int) -> list[CheckResult]:
    """Pair refinement on G coincides with node refinement on the pair graph."""
    results = []
    t_max = 4
    for i in range(trials):
        G = random_kg(seed + i, n_max=10, r_max=3, density=0.3)
        G = G.with_pair_coloring(default_pair_coloring(G))
        square = product_square(G)
        pair, bad_a = _run_checked("rawl2", G, horizon=t_max)
        node, bad_b = _run_checked("rwl1", square, horizon=t_max)
        if bad_a is not None or bad_b is not None:
            failure = {"monotone_violation": (bad_a, bad_b)}
        else:

            def differs(t):
                same = equivalent(pair.colorings[t], node.colorings[t])
                return None if same else {"iteration": t}

            failure = _first(range(t_max + 1), differs)
        results.append(_check(f"reduction[{i}]", G, failure))
    return results


def suite_history(seed: int, trials: int) -> list[CheckResult]:
    """Node refinement partitions do not depend on the history function."""
    results = []
    t_max = 5
    for i in range(trials):
        G = random_kg(seed + i, n_max=10, r_max=3, density=0.3)
        rng = random.Random(seed * 7919 + i)
        histories = (
            HistoryFunction.identity(),
            HistoryFunction.zero(),
            random_history(rng, t_max),
        )
        runs = {h.kind: ("rwl1", h) for h in histories}
        traces, failure = _traces(G, runs, t_max, "history")
        if failure is None:
            base = traces.pop("identity").colorings

            def differs(item):
                kind, t = item
                same = equivalent(base[t], traces[kind].colorings[t])
                return None if same else {"history": kind, "iteration": t}

            failure = _first(itertools.product(traces, range(t_max + 1)), differs)
        results.append(_check(f"history[{i}]", G, failure))
    return results


_HIERARCHY_EDGES = (
    ("rwl2+", "rwl2"),
    ("rwl2", "rawl2"),
    ("rwl2+", "rawl2+"),
    ("rawl2+", "rawl2"),
)


def suite_hierarchy(seed: int, trials: int) -> list[CheckResult]:
    """Per-iteration refinement arrows between the four pair tests."""
    results = []
    for i in range(trials):
        G = random_kg(seed + i, n_max=10, r_max=3, density=0.3)
        G = G.with_pair_coloring(default_pair_coloring(G))
        runs = {test_id: (test_id, None) for test_id in ("rawl2", "rwl2", "rawl2+", "rwl2+")}
        traces, failure = _traces(G, runs, "stabilize", "test")
        if failure is None:
            horizon = max(len(tr.colorings) for tr in traces.values())

            def breaks(item):
                (finer, coarser), t = item
                ok = refines(_coloring_at(traces[finer], t), _coloring_at(traces[coarser], t))
                return None if ok else {"edge": [finer, coarser], "iteration": t}

            failure = _first(itertools.product(_HIERARCHY_EDGES, range(horizon)), breaks)
        results.append(_check(f"hierarchy[{i}]", G, failure))
    return results


def _feature_partition_matches(table, trace, t_max) -> int | None:
    """First iteration where partitions diverge, else None."""
    for t in range(t_max + 1):
        assignment = table.assignment(t)
        reference = {k: trace.colorings[t][trace.index_of(k)] for k in assignment}
        if not equivalent(assignment, reference):
            return t
    return None


def _upper_bound_violation(table, trace, t_max) -> tuple[int, object, object] | None:
    """Pairs equal under refinement but with unequal features, if any."""
    for t in range(t_max + 1):
        assignment = table.assignment(t)
        classes: dict[int, list] = {}
        for key in assignment:
            classes.setdefault(trace.colorings[t][trace.index_of(key)], []).append(key)
        for members in classes.values():
            baseline = assignment[members[0]]
            for other in members[1:]:
                if assignment[other] != baseline:
                    return (t, members[0], other)
    return None


def _alternating_history(i: int) -> HistoryFunction:
    return HistoryFunction.identity() if i % 2 == 0 else HistoryFunction.zero()


def _simulates(G, table, test_id, history, layers) -> dict | None:
    """How a constructive simulator's features miss the refinement partitions."""
    trace, bad = _run_checked(test_id, G, history, horizon=layers)
    divergence = bad if bad is not None else _feature_partition_matches(table, trace, layers)
    if divergence is None:
        return None
    return {"history": history.kind, "layers": layers, "iteration": divergence}


def _bounded(G, table, test_id, history, layers) -> dict | None:
    """How a network's features split what refinement cannot split."""
    trace, bad = _run_checked(test_id, G, history, horizon=layers)
    violation = ("monotone", bad) if bad is not None else _upper_bound_violation(
        table, trace, layers
    )
    return None if violation is None else {"violation": repr(violation)}


def suite_simulation(seed: int, trials: int) -> list[CheckResult]:
    """Constructive simulators hit the refinement partitions exactly, and
    random exact networks never refine past them."""
    results = []
    # constructive node-level simulators
    for i in range(trials):
        history, layers = _alternating_history(i), (i % 4) + 1
        G = random_kg(seed + i, n_max=7, r_max=3, density=0.3, n_colors=1 + i % 2)
        spec, init = build_rwl1_simulator(G, layers, history)
        table = rmpnn_forward(G, spec, init)
        failure = _simulates(G, table, "rwl1", history, layers)
        results.append(_check(f"simulation/node[{i}]", G, failure))
    # constructive conditional simulators
    for i in range(max(1, trials // 3)):
        history, layers = _alternating_history(i), (i % 3) + 1
        G = random_kg(seed + 31 * (i + 1), n_max=5, r_max=2, density=0.3)
        G = G.with_pair_coloring(default_pair_coloring(G))
        spec, _ = build_cmpnn_simulator(G, layers, history)
        table = cmpnn_pair_table(G, spec, G.relation_names[0])
        failure = _simulates(G, table, "rawl2", history, layers)
        results.append(_check(f"simulation/conditional[{i}]", G, failure))
    # refinement upper bounds for random exact networks
    for i in range(trials):
        rng = random.Random(seed * 104729 + i)
        history, layers = _alternating_history(i), 2 + i % 2
        G = random_kg(seed + 61 * (i + 1), n_max=6, r_max=2, density=0.3)
        G = G.with_pair_coloring(default_pair_coloring(G))
        spec = random_cmpnn_spec(
            G,
            rng,
            num_layers=layers,
            dim=2,
            delta_kind=("delta1", "delta2")[i % 2],
            theta_kind=("theta1", "theta2", "theta3")[i % 3],
            history=history,
        )
        table = cmpnn_pair_table(G, spec, G.relation_names[0])
        failure = _bounded(G, table, "rawl2", history, layers)
        results.append(_check(f"simulation/upper-pair[{i}]", G, failure))
        # node-level counterpart: color-respecting features, random network
        rmpnn = random_rmpnn_spec(
            G,
            rng,
            num_layers=layers,
            dim=2,
            theta_kind=("theta2", "theta3", "scaling")[i % 3],
            history=history,
        )
        by_color = {}
        for c in set(G.node_colors):
            while True:
                vec = tuple(random_rational_features(rng, 1, 2)[0])
                if vec not in by_color.values():
                    by_color[c] = vec
                    break
        feats = [by_color[G.node_colors[v]] for v in range(G.n)]
        node_table = rmpnn_forward(G, rmpnn, feats)
        failure = _bounded(G, node_table, "rwl1", history, layers)
        results.append(_check(f"simulation/upper-node[{i}]", G, failure))
    return results


def _pair_mismatch(on_pairs: dict, on_square: dict, n: int) -> dict | None:
    """The first pair (u, v) whose value differs from pair-graph node u * n + v's."""
    for (u, v), value in on_pairs.items():
        if on_square[u * n + v] != value:
            return {"pair": [u, v]}
    return None


def suite_logic(seed: int, trials: int) -> list[CheckResult]:
    """Translations, compilation, pair classification, and tree codes."""
    results = []
    n_graphs = max(1, trials // 5)
    graphs = []
    for g in range(n_graphs):
        G = random_kg(seed + 17 * (g + 1), n_max=8, r_max=2, density=0.3, n_colors=3)
        G = G.with_pair_coloring(default_pair_coloring(G))
        graphs.append((G, product_square(G)))
    for i in range(trials):
        rng = random.Random(seed * 15485863 + i)
        G, square = graphs[i % n_graphs]
        pair_labels = G.pair_coloring.labels
        relations = G.relation_names
        # binary -> unary through the pair graph
        phi = random_formula(rng, pair_labels, relations, arity="binary")
        direct = eval_rgfo3_all(G, phi)
        lifted = eval_gml_all(square, translate_rgfo3_to_gml(phi))
        failure = _pair_mismatch(direct, lifted, G.n)
        results.append(_check(f"logic/translate-binary[{i}]", G, failure))
        # unary -> binary through the pair graph
        psi = random_formula(rng, pair_labels, relations, arity="unary")
        on_square = eval_gml_all(square, psi)
        on_pairs = eval_rgfo3_all(G, translate_gml_to_rgfo3(psi))
        failure = _pair_mismatch(on_pairs, on_square, G.n)
        results.append(_check(f"logic/translate-unary[{i}]", G, failure))
        # compilation: every component is its subformula's 0/1 truth value
        node_phi = random_formula(rng, G.color_labels, relations, arity="unary")
        compiled = compile_gml_to_rmpnn(node_phi, G.color_labels)
        table = compiled.run(G)
        subformulas = compiled.subformulas
        truth = [eval_gml_all(G, Formula(sub, "unary")) for sub in subformulas]

        def wrong(item):
            comp, t, v = item
            value = float(table.vector(t, v)[comp])
            ok = value in (0.0, 1.0) and (value == 1.0) == truth[comp][v]
            return None if ok else {"component": comp, "iteration": t, "node": v}

        entries = (
            (comp, t, v)
            for comp in range(len(subformulas))
            for t in range(comp + 1, compiled.width + 1)
            for v in range(G.n)
        )
        results.append(_check(f"logic/compile[{i}]", G, _first(entries, wrong)))
        # end-to-end pair classification through the compiled network
        verdict = classify_pairs_via_compile(phi, G)

        def disagrees(pair):
            return None if verdict[pair] == direct[pair] else {"pair": list(pair)}

        failure = _first(direct, disagrees)
        results.append(_check(f"logic/classify[{i}]", G, failure))
    # unravelling tree codes against node refinement
    for i in range(max(1, trials // 2)):
        depth = i % 4
        G = random_dag_kg(seed + 13 * (i + 1), n_max=8, r_max=2, density=0.4, n_colors=2)
        trace, bad = _run_checked("rwl1", G, horizon=depth)
        codes = [canonical_tree_code(unravel(G, v, depth)) for v in range(G.n)]
        if bad is not None:
            failure = {"monotone_violation": bad}
        else:
            colors = trace.colorings[depth]

            def splits(pair):
                u, v = pair
                same = (codes[u] == codes[v]) == (colors[u] == colors[v])
                return None if same else {"nodes": [u, v], "depth": depth}

            failure = _first(itertools.combinations(range(G.n), 2), splits)
        results.append(_check(f"logic/unravel[{i}]", G, failure))
    return results


_SUITES = {
    "fixtures": suite_fixtures,
    "reduction": suite_reduction,
    "history": suite_history,
    "hierarchy": suite_hierarchy,
    "simulation": suite_simulation,
    "logic": suite_logic,
}


def run_suite(name: str, seed: int, trials: int) -> SuiteReport:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    report = SuiteReport(name, seed, trials)
    report.checks = _SUITES[name](seed, trials)
    return report


def run_all(seed: int, trials: int) -> list[SuiteReport]:
    return [run_suite(name, seed, trials) for name in SUITE_NAMES]
