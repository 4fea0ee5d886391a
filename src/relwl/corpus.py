"""Built-in counterexample fixtures and seeded random instance generators.

The four fixtures are the small graphs that witness every strictness and
incomparability arrow between the pair refinement tests; each carries the
machine-checkable claims it was built for.  Verdicts are ``None`` for
"never separated" (decided by running to stabilization) or the first
separating iteration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnknownEntityError
from .graphs import KnowledgeGraph, default_pair_coloring, from_triples
from .logic import And, Atom, Formula, GuardedExists, Node, Not
from .wl import HistoryFunction, distinguishes, run_test

FIXTURE_NAMES = ("ga", "gb", "gc", "gd")


@dataclass(frozen=True)
class Claim:
    test_id: str
    pair_a: tuple[str, str]
    pair_b: tuple[str, str]
    separated_at: int | None  # None: never, provable by stabilization


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: KnowledgeGraph  # diagonal pair coloring attached
    claims: tuple[Claim, ...]


_FIXTURE_TABLE = {
    # name: (nodes, facts, claims)
    "ga": (
        ("u", "v", "v'"),
        [("v", "r1", "u"), ("v'", "r2", "u")],
        (
            Claim("rawl2", ("u", "v"), ("u", "v'"), None),
            Claim("rawl2+", ("u", "v"), ("u", "v'"), 1),
        ),
    ),
    "gb": (
        ("u", "u'", "v", "x"),
        [("x", "r", "u'")],
        (
            Claim("rawl2", ("u", "v"), ("u'", "v"), None),
            Claim("rwl2", ("u", "v"), ("u'", "v"), 1),
            Claim("rawl2+", ("u", "v"), ("u'", "v"), None),
        ),
    ),
    "gc": (
        ("u", "u'", "v", "v'", "x", "x'"),
        [("u", "r1", "x"), ("u'", "r2", "x'")],
        (
            Claim("rwl2", ("u", "v"), ("u'", "v'"), None),
            Claim("rwl2+", ("u", "v"), ("u'", "v'"), 1),
        ),
    ),
    "gd": (
        ("u", "u'", "v", "v'", "x", "x'"),
        [("v", "r1", "x"), ("v'", "r2", "x'")],
        (
            Claim("rwl2", ("u", "v"), ("u'", "v'"), None),
            Claim("rawl2+", ("u", "v"), ("u'", "v'"), 1),
        ),
    ),
}


def fixture(name: str) -> Fixture:
    """One of the built-in counterexample graphs with its claims."""
    try:
        nodes, facts, claims = _FIXTURE_TABLE[name]
    except KeyError:
        raise UnknownEntityError(
            f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}"
        ) from None
    graph = from_triples(facts, node_order=nodes)
    graph = graph.with_pair_coloring(default_pair_coloring(graph))
    return Fixture(name, graph, claims)


def check_claim(fx: Fixture, claim: Claim) -> tuple[bool, object]:
    """Run the claimed test to stabilization and compare the verdict."""
    trace = run_test(claim.test_id, fx.graph, horizon="stabilize")
    observed = distinguishes(trace, claim.pair_a, claim.pair_b)
    return observed == claim.separated_at, observed


def _random_graph(seed, n_max, r_max, density, n_colors, targets) -> KnowledgeGraph:
    """Seeded random graph whose source ``s`` of ``n`` nodes may reach the
    targets ``targets(s, n)``; see :func:`random_kg`."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    m = rng.randint(1, r_max)
    nodes = tuple(f"n{i}" for i in range(n))
    relations = tuple(f"r{i}" for i in range(m))
    triples = [
        (nodes[s], r, nodes[t])
        for r in relations
        for s in range(n)
        for t in targets(s, n)
        if rng.random() < density
    ]
    graph = from_triples(triples, node_order=nodes, relation_order=relations)
    if n_colors > 1:
        assignment = {name: f"c{rng.randrange(n_colors)}" for name in nodes}
        graph = graph.with_node_coloring(assignment)
    return graph


def random_kg(
    seed: int,
    n_max: int,
    r_max: int,
    density: float,
    n_colors: int = 1,
) -> KnowledgeGraph:
    """Seeded random graph: sizes drawn up to the bounds, each possible fact
    kept independently with probability ``density``.

    With ``n_colors > 1`` every node draws a color uniformly from that many
    labels (only labels in use are interned); otherwise the coloring is
    uniform.  Identical arguments give identical graphs.
    """
    return _random_graph(seed, n_max, r_max, density, n_colors, lambda s, n: range(n))


def random_dag_kg(
    seed: int,
    n_max: int,
    r_max: int,
    density: float,
    n_colors: int = 1,
) -> KnowledgeGraph:
    """Like :func:`random_kg` but facts only run from higher to lower node
    index, so every directed walk terminates (unravellings stay finite)."""
    return _random_graph(seed, n_max, r_max, density, n_colors, lambda s, n: range(s))


def random_history(rng: random.Random, horizon: int) -> HistoryFunction:
    """A valid random history table covering iterations 0..horizon."""
    values = [0]
    for t in range(1, horizon + 1):
        values.append(rng.randint(values[-1], t))
    return HistoryFunction.from_table(values)


def random_formula(
    rng: random.Random,
    labels: tuple[str, ...],
    relations: tuple[str, ...],
    depth: int = 3,
    max_count: int = 3,
    arity: str = "unary",
) -> Formula:
    """Random formula over the given vocabularies with bounded nesting."""

    def build(budget: int) -> Node:
        if budget == 0 or rng.random() < 0.3:
            return Atom(rng.choice(labels))
        kind = rng.randrange(3)
        if kind == 0:
            return Not(build(budget - 1))
        if kind == 1:
            return And(build(budget - 1), build(budget - 1))
        return GuardedExists(
            rng.randint(1, max_count), rng.choice(relations), build(budget - 1)
        )

    return Formula(build(depth), arity)


def random_rational_features(
    rng: random.Random, n: int, dim: int
) -> list[tuple[Fraction, ...]]:
    """Uniform small-rational feature vectors, one per node."""
    return [
        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
        for _ in range(n)
    ]
