"""Command line front-end.

Subcommands: ``run`` executes one refinement test over a graph file and
exports the trace; ``verify`` runs the seeded property suites and fails on
any violation; ``logic`` evaluates, compiles, or translates formulas;
``fixture`` exports a built-in counterexample graph as TSV files.

Exit codes: 0 success, 1 property violation (verify), 2 usage or input
error.  JSON reports carry ``schema: 1`` and are byte-identical for
identical commands and seeds once the ``timings`` key is dropped.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .corpus import FIXTURE_NAMES, fixture
from .errors import RelwlError
from .graphs import KnowledgeGraph, default_pair_coloring, load_graph
from .logic import (
    atoms_of,
    classify_pairs_via_compile,
    compile_gml_to_rmpnn,
    eval_gml_all,
    eval_rgfo3_all,
    parse_formula,
    pretty,
    translate_gml_to_rgfo3,
    translate_rgfo3_to_gml,
)
from .networks import spec_to_json_dict
from .suites import SUITE_NAMES, run_all, run_suite
from .wl import TEST_IDS, HistoryFunction, run_test

SCHEMA_VERSION = 1


def _emit(doc: dict, out: str) -> None:
    if out == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
        return
    # text mode: shallow, human-oriented rendering
    def render(value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            for k, v in value.items():
                if isinstance(v, (dict, list)):
                    print(f"{pad}{k}:")
                    render(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}")
        elif isinstance(value, list):
            for v in value:
                if isinstance(v, (dict, list)):
                    render(v, indent)
                else:
                    print(f"{pad}- {v}")
        else:
            print(f"{pad}{value}")

    render(doc)


def _load_graph_arg(args) -> KnowledgeGraph:
    target = args.graph
    if target.startswith("fixture:"):
        return fixture(target.split(":", 1)[1]).graph
    return load_graph(
        target,
        getattr(args, "colors", None),
        getattr(args, "pair_colors", None),
        getattr(args, "nodes", None),
    )


def _history_arg(value: str) -> HistoryFunction:
    if value == "id":
        return HistoryFunction.identity()
    if value == "zero":
        return HistoryFunction.zero()
    with open(value, encoding="utf-8") as handle:
        try:
            table = json.load(handle)
        except json.JSONDecodeError as exc:
            raise RelwlError(
                f"{value}:{exc.lineno}: history is not valid JSON: {exc.msg}"
            ) from None
    if not isinstance(table, list):
        raise RelwlError(
            f"{value}: history must be a JSON list of integers, "
            f"got {type(table).__name__}"
        )
    return HistoryFunction.from_table(table)


def _cmd_run(args) -> int:
    graph = _load_graph_arg(args)
    test_id = args.test
    if test_id != "rwl1" and graph.pair_coloring is None:
        print(
            "note: no pair coloring given; using the diagonal default",
            file=sys.stderr,
        )
        graph = graph.with_pair_coloring(default_pair_coloring(graph))
    horizon = "stabilize" if args.iters is None else args.iters
    started = time.monotonic()
    trace = run_test(test_id, graph, _history_arg(args.history), horizon)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "run",
        "test": test_id,
        "graph": args.graph,
        "history": args.history,
        "horizon": "stabilize" if args.iters is None else args.iters,
        "trace": trace.to_json_dict(),
        "timings": {"total_s": round(time.monotonic() - started, 6)},
    }
    _emit(doc, args.out)
    return 0


def _cmd_verify(args) -> int:
    started = time.monotonic()
    if args.suite == "all":
        reports = run_all(args.seed, args.trials)
    else:
        reports = [run_suite(args.suite, args.seed, args.trials)]
    failed = sum(1 for r in reports for c in r.checks if not c.passed)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "suite": args.suite,
        "seed": args.seed,
        "trials": args.trials,
        "passed": failed == 0,
        "summary": {
            "suites": len(reports),
            "checks": sum(len(r.checks) for r in reports),
            "failed": failed,
        },
        "reports": [r.to_json_dict() for r in reports],
        "timings": {"total_s": round(time.monotonic() - started, 6)},
    }
    _emit(doc, args.out)
    return 0 if failed == 0 else 1


def _format_truth_table(entries) -> list:
    return [
        {"key": key, "value": bool(value)}
        for key, value in entries
    ]


def _cmd_logic(args) -> int:
    try:
        is_file = Path(args.formula).exists()
    except OSError:  # e.g. literal formula longer than a valid file name
        is_file = False
    text = (
        Path(args.formula).read_text(encoding="utf-8").strip()
        if is_file
        else args.formula
    )
    formula = parse_formula(text, args.arity)
    doc: dict = {
        "schema": SCHEMA_VERSION,
        "command": f"logic {args.action}",
        "formula": pretty(formula),
        "arity": formula.arity,
    }
    if args.action == "translate":
        translated = (
            translate_gml_to_rgfo3(formula)
            if formula.arity == "unary"
            else translate_rgfo3_to_gml(formula)
        )
        doc["translated"] = pretty(translated)
        doc["translated_arity"] = translated.arity
        _emit(doc, args.out)
        return 0
    if args.action == "compile":
        if formula.arity != "unary":
            raise RelwlError("compile expects a unary formula (translate first)")
        vocabulary = (
            tuple(args.vocab.split(","))
            if args.vocab
            else tuple(sorted(atoms_of(formula)))
        )
        compiled = compile_gml_to_rmpnn(formula, vocabulary)
        doc["vocabulary"] = list(vocabulary)
        doc["network"] = spec_to_json_dict(compiled.spec)
        _emit(doc, args.out)
        return 0
    # eval
    if args.graph is None:
        raise RelwlError("logic eval needs --graph")
    graph = _load_graph_arg(args)
    if formula.arity == "unary":
        table = eval_gml_all(graph, formula)
        doc["truth"] = _format_truth_table(
            (graph.node_names[v], value) for v, value in sorted(table.items())
        )
        _emit(doc, args.out)
        return 0
    if graph.pair_coloring is None:
        print(
            "note: no pair coloring given; using the diagonal default",
            file=sys.stderr,
        )
        graph = graph.with_pair_coloring(default_pair_coloring(graph))
    table = eval_rgfo3_all(graph, formula)
    if args.pairs != "all":
        names = args.pairs.split(",")
        if len(names) != 2:
            raise RelwlError(f"--pairs expects 'all' or 'u,v', got {args.pairs!r}")
        u_name, v_name = names
        key = (graph.node_id(u_name), graph.node_id(v_name))
        table = {key: table[key]}
    doc["truth"] = _format_truth_table(
        ([graph.node_names[u], graph.node_names[v]], value)
        for (u, v), value in sorted(table.items())
    )
    if args.check_compiled:
        compiled = classify_pairs_via_compile(formula, graph)
        doc["compiled_agrees"] = all(
            compiled[key] == value for key, value in table.items()
        )
    _emit(doc, args.out)
    return 0


def _cmd_fixture(args) -> int:
    fx = fixture(args.name)
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)
    nodes = dest / f"{fx.name}.nodes.tsv"
    nodes.write_text("\n".join(fx.graph.node_names) + "\n", encoding="utf-8")
    triples = dest / f"{fx.name}.triples.tsv"
    triples.write_text("\n".join(fx.graph.to_triple_lines()) + "\n", encoding="utf-8")
    pairs = dest / f"{fx.name}.pairs.tsv"
    pc = fx.graph.pair_coloring
    lines = []
    for u, a in enumerate(fx.graph.node_names):
        for v, b in enumerate(fx.graph.node_names):
            lines.append(f"{a}\t{b}\t{pc.label_of(u, v)}")
    pairs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    colors = dest / f"{fx.name}.colors.tsv"
    colors.write_text(
        "\n".join(
            f"{name}\t{fx.graph.color_label_of(v)}"
            for v, name in enumerate(fx.graph.node_names)
        )
        + "\n",
        encoding="utf-8",
    )
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "command": "fixture",
            "name": fx.name,
            "files": [str(triples), str(pairs), str(colors), str(nodes)],
            "claims": [
                {
                    "test": c.test_id,
                    "pair_a": list(c.pair_a),
                    "pair_b": list(c.pair_b),
                    "separated_at": c.separated_at,
                }
                for c in fx.claims
            ],
        },
        args.out,
    )
    return 0


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relwl",
        description=(
            "Relational color refinement tests, conditional message passing "
            "networks, and guarded counting logic over knowledge graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one refinement test over a graph")
    run_p.add_argument("--test", required=True, choices=TEST_IDS)
    run_p.add_argument(
        "--graph", required=True, help="triples TSV path or fixture:NAME"
    )
    run_p.add_argument("--colors", help="node colors TSV")
    run_p.add_argument("--pair-colors", dest="pair_colors", help="pair colors TSV")
    run_p.add_argument("--nodes", help="node list file (declares isolated nodes)")
    run_p.add_argument(
        "--history",
        default="id",
        help="id, zero, or a path to a JSON list giving f(0..K)",
    )
    horizon = run_p.add_mutually_exclusive_group()
    horizon.add_argument("--iters", type=int, default=None)
    horizon.add_argument(
        "--stabilize", action="store_const", const=None, dest="iters"
    )
    run_p.add_argument("--out", default="json", choices=("json", "text"))
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the seeded property suites")
    verify_p.add_argument(
        "--suite", default="all", choices=SUITE_NAMES + ("all",)
    )
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--trials", type=_count, default=100)
    verify_p.add_argument("--out", default="json", choices=("json", "text"))
    verify_p.set_defaults(func=_cmd_verify)

    logic_p = sub.add_parser("logic", help="evaluate, compile, or translate formulas")
    logic_p.add_argument("action", choices=("eval", "compile", "translate"))
    logic_p.add_argument(
        "--formula", required=True, help="formula file (or literal formula text)"
    )
    logic_p.add_argument("--graph", help="triples TSV path or fixture:NAME")
    logic_p.add_argument("--colors", help="node colors TSV")
    logic_p.add_argument("--pair-colors", dest="pair_colors", help="pair colors TSV")
    logic_p.add_argument("--nodes", help="node list file (declares isolated nodes)")
    logic_p.add_argument("--pairs", default="all", help="'all' or 'u,v' node names")
    logic_p.add_argument("--arity", default="binary", choices=("unary", "binary"))
    logic_p.add_argument("--vocab", help="comma-separated color vocabulary (compile)")
    logic_p.add_argument(
        "--check-compiled",
        action="store_true",
        help="also classify via the compiled network and report agreement",
    )
    logic_p.add_argument("--out", default="json", choices=("json", "text"))
    logic_p.set_defaults(func=_cmd_logic)

    fixture_p = sub.add_parser("fixture", help="export a built-in fixture as TSV")
    fixture_p.add_argument("name", choices=FIXTURE_NAMES)
    fixture_p.add_argument("--dest", default=".")
    fixture_p.add_argument("--out", default="json", choices=("json", "text"))
    fixture_p.set_defaults(func=_cmd_fixture)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RelwlError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
