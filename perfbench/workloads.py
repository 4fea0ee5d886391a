"""The three relwl benchmark workloads: inputs, one timed pass, and gates.

Each workload has ``setup(seed, workdir) -> inputs``, which generates its
inputs from the seed and writes any TSV files, and ``run_pass(inputs,
rec)``, which runs one pass of timed operations through ``rec`` and checks
their outputs.  Passes call only ``relwl.cli.main`` and names exported from
``relwl``, always looked up at call time so that the tracer's wrappers
apply.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import relwl
import relwl.cli

FAILED = object()  # result of an operation that raised
# The reference: a fixed integer loop that no relwl code runs and that
# allocates nothing the garbage collector tracks.  Its time tracks the
# machine's speed (see run.py).
REF_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(4096)}


def reference_s() -> float:
    """Time of one call of the reference loop."""
    start = perf_counter()
    table, acc = REF_TABLE, 0
    for i in range(60000):
        acc = (acc * 31 + table[(i * 7 + acc) & 4095]) & 0xFFFFFF
    return perf_counter() - start
MANIFEST = json.loads((Path(__file__).resolve().parent / "manifest.json").read_text(encoding="utf-8"))


@dataclass
class Recorder:
    """Operations, step times and gate verdicts of one pass.

    Only ``op`` calls are timed.  Gates are checked at once, outside that
    time and with ``tracer`` (if set) suspended, so that checking neither
    counts as the program's time nor shows in its layers.  If ``speed`` is
    a list, the reference is timed after each op and appended to it.
    """

    tracer: object = None
    speed: list = None
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    steps: dict = field(default_factory=lambda: defaultdict(float))
    counts: Counter = field(default_factory=Counter)
    gates: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Measured time of the pass: the sum of its operation times."""
        return sum(self.steps.values())

    def op(self, step: str, fn, *args, **kwargs):
        """Time one call under ``step``; an exception is a failed operation."""
        self.attempted += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is counted, never fatal
            self.failed += 1
            self.errors[f"{step}: {type(exc).__name__}: {exc}"] += 1
            return FAILED
        finally:
            self.steps[step] += perf_counter() - start
            if self.speed is not None:
                self.speed.append(reference_s())

    def cli(self, step: str, argv: list[str]):
        """Run ``relwl`` in process; returns (exit code, standard output)."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.op(step, relwl.cli.main, argv)
        text = out.getvalue()
        self.counts["cli.out_bytes"] += len(text.encode("utf-8"))
        return code, text

    def gate(self, name: str, check, *needed) -> None:
        """Record whether ``check(*needed)`` holds; fails if an input op failed."""
        if any(x is FAILED for x in needed):
            self.gates.append((name, False, "an operation it needs failed"))
            return
        with self.tracer.suspended() if self.tracer is not None else nullcontext():
            try:
                ok, detail = bool(check(*needed)), ""
            except Exception as exc:  # a check that cannot be evaluated has failed
                ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.gates.append((name, ok, detail))


def _sha256(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def _triples(rng: random.Random, nodes: int, facts: int, relations: int, prefix: str):
    """Exactly ``facts`` distinct random facts in which every node occurs."""
    names = [f"{prefix}{i}" for i in range(nodes)]
    rels = [f"r{i}" for i in range(relations)]
    seen: set = set()
    out = []

    def add(h, r, t):
        if (h, r, t) not in seen:
            seen.add((h, r, t))
            out.append((names[h], rels[r], names[t]))

    for h in range(nodes):
        add(h, rng.randrange(relations), rng.randrange(nodes))
    while len(out) < facts:
        add(rng.randrange(nodes), rng.randrange(relations), rng.randrange(nodes))
    rng.shuffle(out)
    return names, rels, out


def _tsv(triples) -> str:
    return "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples)


def _matrix(rng: np.random.Generator, rows: int, cols: int):
    # Glorot-scaled normal weights, as a freshly initialised network has.
    m = rng.standard_normal((rows, cols)) * math.sqrt(2.0 / (rows + cols))
    return tuple(map(tuple, m.tolist()))


def _float_spec(kind: str, rels, rng: np.random.Generator, layers: int, dim: int):
    """Float network: R-MPNN with relation matrices, or C-MPNN with
    ``theta1`` messages and ``delta2`` initialisation."""
    conditional = kind == "cmpnn"
    return relwl.NetworkSpec(
        kind=kind,
        num_layers=layers,
        dims=(dim,) * (layers + 1),
        weights=tuple(_matrix(rng, dim, dim) for _ in range(layers)),
        biases=(None,) * layers,
        relation_params=tuple({r: _matrix(rng, dim, dim) for r in rels} for _ in range(layers)),
        theta_kind="theta1" if conditional else "theta3",
        sigma_kind="relu",
        numeric_mode="float64",
        delta_kind="delta2" if conditional else None,
        query_vectors=(
            {r: tuple(rng.standard_normal(dim).tolist()) for r in rels} if conditional else None
        ),
    )


def _final(trace):
    return trace.colorings[-1]


def _classes(coloring) -> int:
    return len(set(coloring))


def _finite_rows(table, layer: int, keys) -> bool:
    return all(np.all(np.isfinite(np.asarray(table.vector(layer, k), dtype=float))) for k in keys)


def _cli_final_partition(text: str) -> dict:
    """Node name -> class id in the last partition of a ``relwl run`` report."""
    return {
        name: cls
        for cls, members in enumerate(json.loads(text)["trace"]["partitions"][-1])
        for name in members
    }


# ---------------------------------------------------------------------------
# kg-node: one large sparse graph at node level
# ---------------------------------------------------------------------------

KG_SIZES = MANIFEST["workloads"]["kg-node"]["sizes"]
KG_WARMUP = {"nodes": 60, "facts": 150, "relations": 8, "queries": 2, "layers": 3, "dim": 16}


def kg_setup(seed: int, workdir: Path, sizes: dict = KG_SIZES) -> dict:
    rng = random.Random(seed)
    names, rels, triples = _triples(rng, sizes["nodes"], sizes["facts"], sizes["relations"], "e")
    text = _tsv(triples)
    path = workdir / "kg.tsv"
    path.write_text(text, encoding="utf-8")
    nrng = np.random.default_rng(seed)
    layers, dim = sizes["layers"], sizes["dim"]
    a, b, c, d = (rng.choice(rels) for _ in range(4))
    formula = f"(DIA[{a},1](DIA[{b},2](A:default)) & !DIA[{c},1](DIA[{d},1](A:default)))"
    return {
        "path": path,
        "sizes": sizes,
        "sha256": _sha256([text]),
        "features": {n: tuple(nrng.standard_normal(dim).tolist()) for n in names},
        "rspec": _float_spec("rmpnn", rels, nrng, layers, dim),
        "cspec": _float_spec("cmpnn", rels, nrng, layers, dim),
        "decoder": relwl.MLPDecoder.random(nrng, dim),
        "queries": [
            (rng.choice(names), rng.choice(rels), rng.choice(names))
            for _ in range(sizes["queries"])
        ],
        "formula": relwl.parse_formula(formula, "unary"),
    }


def kg_warmup(seed: int, workdir: Path) -> dict:
    return kg_setup(seed, workdir, KG_WARMUP)


def kg_pass(inp: dict, rec: Recorder) -> None:
    R, sizes = relwl, inp["sizes"]
    code, text = rec.cli("cli", ["run", "--test", "rwl1", "--graph", str(inp["path"]), "--stabilize"])
    rec.gate("cli run exits 0", lambda code: code == 0, code)

    G = rec.op("load_graph", R.load_graph, inp["path"])
    rec.gate(
        "loaded graph has the generated sizes",
        lambda G: (G.n, len(G.facts), len(G.relation_names))
        == (sizes["nodes"], sizes["facts"], sizes["relations"]),
        G,
    )
    if G is FAILED:
        return

    aug = rec.op("node_refine", lambda: R.run_test("rwl1", R.augment(G)))

    def augment_refines(G, aug, text):
        mine = {name: c for name, c in zip(G.node_names, _final(aug))}
        return R.refines(mine, _cli_final_partition(text))

    rec.gate("rwl1(augment(G)) refines rwl1(G) from the cli", augment_refines, G, aug, text)

    table = rec.op("rmpnn", R.rmpnn_forward, G, inp["rspec"], inp["features"])
    rec.gate(
        "float r-mpnn features are finite",
        lambda G, table: _finite_rows(table, inp["rspec"].num_layers, range(G.n)),
        G,
        table,
    )

    scores = [
        rec.op("link", R.score_link, inp["cspec"], inp["decoder"], G, q, h, t)
        for h, q, t in inp["queries"]
    ]
    rec.counts["link_queries"] += len(scores)
    rec.gate(
        "link scores are probabilities",
        lambda scores: all(0.0 <= p <= 1.0 for p in scores if p is not FAILED),
        scores,
    )

    direct = rec.op("logic", R.eval_gml_all, G, inp["formula"])
    compiled = rec.op(
        "logic", lambda: R.compile_gml_to_rmpnn(inp["formula"], G.color_labels).classify(G)
    )
    rec.gate("direct and compiled unary logic agree", lambda a, b: a == b, direct, compiled)


# ---------------------------------------------------------------------------
# pair: pair refinement, reduction, pair tables and binary logic at |V|=64
# ---------------------------------------------------------------------------

PAIR_SIZES = MANIFEST["workloads"]["pair"]["sizes"]
PAIR_WARMUP = {"graphs": 1, "nodes": 8, "facts": 24, "relations": 4, "layers": 3, "dim": 16}
PAIR_TESTS = ("rawl2", "rawl2+", "rwl2", "rwl2+")


def pair_setup(seed: int, workdir: Path, sizes: dict = PAIR_SIZES) -> dict:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    graphs, texts = [], []
    for g in range(sizes["graphs"]):
        names, rels, triples = _triples(rng, sizes["nodes"], sizes["facts"], sizes["relations"], "p")
        perm = list(range(sizes["nodes"]))
        rng.shuffle(perm)
        a, b, c = (rng.choice(rels) for _ in range(3))
        formula = f"(DIA[{a},1](A:eq) & !DIA[{b},2](DIA[{c},1](A:neq)))"
        graphs.append(
            {
                "names": names,
                "rels": rels,
                "triples": triples,
                "perm": tuple(perm),
                "formula": relwl.parse_formula(formula, "binary"),
            }
        )
        texts.append(_tsv(triples))
        graphs[-1]["tsv"] = workdir / f"pair{g}.tsv"
        graphs[-1]["nodes"] = workdir / f"pair{g}.nodes"
        graphs[-1]["tsv"].write_text(texts[-1], encoding="utf-8")
        graphs[-1]["nodes"].write_text("".join(n + "\n" for n in names), encoding="utf-8")
    return {
        "sizes": sizes,
        "graphs": graphs,
        "sha256": _sha256(texts),
        "cspec": _float_spec("cmpnn", graphs[0]["rels"], nrng, sizes["layers"], sizes["dim"]),
    }


def pair_warmup(seed: int, workdir: Path) -> dict:
    return pair_setup(seed, workdir, PAIR_WARMUP)


def _pair_graph(R, g):
    G = R.from_triples(g["triples"], node_order=g["names"], relation_order=g["rels"])
    return G.with_pair_coloring(R.default_pair_coloring(G))


def _reduction_holds(base, square) -> bool:
    return base.stabilized_at == square.stabilized_at and all(
        relwl.equivalent(a, b) for a, b in zip(base.colorings, square.colorings)
    )


def _pair_rows_finite(table, layers: int, n: int) -> bool:
    return _finite_rows(table, layers, [(u, v) for u in range(n) for v in range(n)])


def pair_pass(inp: dict, rec: Recorder) -> None:
    R = relwl
    layers = inp["cspec"].num_layers
    for i, g in enumerate(inp["graphs"]):
        G = rec.op("build", _pair_graph, R, g)
        rec.gate(f"graph {i} builds", lambda G: True, G)
        if G is FAILED:
            continue
        traces = {t: rec.op("refine", R.run_test, t, G) for t in PAIR_TESTS}
        square = rec.op("reduction", lambda: R.run_test("rwl1", R.product_square(G)))
        base = traces["rawl2"]
        rec.gate(f"graph {i}: rawl2(G) equals rwl1(product_square(G))", _reduction_holds,
                 base, square)
        for finer in ("rwl2", "rawl2+", "rwl2+"):
            rec.gate(
                f"graph {i}: {finer} refines rawl2 at stabilisation",
                lambda fine, coarse: R.refines(_final(fine), _final(coarse)),
                traces[finer],
                base,
            )
        permuted = rec.op("permute", lambda: R.run_test("rawl2", R.permute_nodes(G, g["perm"])))
        rec.gate(
            f"graph {i}: rawl2 class count survives permute_nodes",
            lambda a, b: _classes(_final(a)) == _classes(_final(b)),
            permuted,
            base,
        )

        table = rec.op("pair_table", R.cmpnn_pair_table, G, inp["cspec"], G.relation_names[0])
        rec.gate(f"graph {i}: float pair table is total and finite", _pair_rows_finite,
                 table, layers, G.n)

        direct = rec.op("logic", R.eval_rgfo3_all, G, g["formula"])
        compiled = rec.op("logic", R.classify_pairs_via_compile, g["formula"], G)
        rec.gate(f"graph {i}: direct and compiled binary logic agree", lambda a, b: a == b,
                 direct, compiled)

        code, text = rec.cli(
            "cli",
            ["run", "--test", "rawl2+", "--graph", str(g["tsv"]), "--nodes", str(g["nodes"]),
             "--stabilize"],
        )
        rec.gate(f"graph {i}: cli run exits 0", lambda code: code == 0, code)
        rec.gate(
            f"graph {i}: cli rawl2+ class count equals the api's",
            lambda text, trace: len(json.loads(text)["trace"]["partitions"][-1])
            == _classes(_final(trace)),
            text,
            traces["rawl2+"],
        )


# ---------------------------------------------------------------------------
# verify-all: the whole exact-arithmetic property battery through the cli
# ---------------------------------------------------------------------------

VERIFY = MANIFEST["workloads"]["verify-all"]["cli"]
VERIFY_WARMUP_TRIALS = 2


def verify_setup(seed: int, workdir: Path) -> dict:
    return {"argv": ["verify", "--suite", "all", "--seed", str(VERIFY["seed"]),
                     "--trials", str(VERIFY["trials"])], "checks": VERIFY["checks"]}


def verify_warmup(seed: int, workdir: Path) -> dict:
    return {"argv": ["verify", "--suite", "all", "--seed", str(VERIFY["seed"]),
                     "--trials", str(VERIFY_WARMUP_TRIALS)], "checks": None}


def verify_pass(inp: dict, rec: Recorder) -> None:
    code, text = rec.cli("cli", inp["argv"])
    rec.gate("cli verify exits 0", lambda code: code == 0, code)
    rec.gate("verify reports passed", lambda text: json.loads(text)["passed"] is True, text)
    if inp["checks"] is not None:
        rec.gate(
            f"verify ran {inp['checks']} checks",
            lambda text: json.loads(text)["summary"]["checks"] == inp["checks"],
            text,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    warmup: object
    run_pass: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kg-node", kg_setup, kg_warmup, kg_pass),
        Workload("pair", pair_setup, pair_warmup, pair_pass),
        Workload("verify-all", verify_setup, verify_warmup, verify_pass),
    )
}
