import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwl.corpus import random_history, random_kg
from relwl.errors import (
    NodeBudgetError,
    PreconditionError,
    UnknownEntityError,
    ValidationError,
)
from relwl.graphs import (
    PairColoring,
    default_pair_coloring,
    from_triples,
    permute_nodes,
    product_square,
)
from relwl.wl import (
    TEST_IDS,
    UNKNOWN,
    HistoryFunction,
    distinguishes,
    equivalent,
    refines,
    run_test,
)

from conftest import names_partition, random_permutation


def _diag(g):
    return g.with_pair_coloring(default_pair_coloring(g))


# -- run_test examples --------------------------------------------------------


def test_rawl2_never_separates_on_graph_a(graph_a):
    trace = run_test("rawl2", graph_a, horizon="stabilize")
    uv = trace.index_of(("u", "v"))
    uv2 = trace.index_of(("u", "v'"))
    for cols in trace.colorings:
        assert cols[uv] == cols[uv2]
    assert distinguishes(trace, ("u", "v"), ("u", "v'")) is None


def test_rawl2_plus_separates_at_one(graph_a):
    trace = run_test("rawl2+", graph_a, horizon=1)
    assert distinguishes(trace, ("u", "v"), ("u", "v'")) == 1


def test_rwl1_edgeless_uniform_stabilizes_immediately():
    g = from_triples([], node_order=("a", "b", "c"), relation_order=("r",))
    trace = run_test("rwl1", g, horizon="stabilize")
    assert trace.stabilized_at == 1
    assert len(set(trace.colorings[-1])) == 1


def test_rwl1_one_step_partition_on_graph_b(graph_b):
    trace = run_test("rwl1", graph_b, horizon=1)
    # hand-derived: only u' has an incoming fact
    assert names_partition(trace, 1) == {
        frozenset({"u", "v", "x"}),
        frozenset({"u'"}),
    }


def test_rwl1_empty_graph():
    g = from_triples([])
    trace = run_test("rwl1", g, horizon="stabilize")
    assert trace.stabilized_at in (0, 1)


# -- refines / equivalent ------------------------------------------------------


def test_refines_reflexive():
    a = {0: 5, 1: 5, 2: 7}
    assert refines(a, a)


def test_discrete_refines_everything():
    a = {k: k for k in range(4)}
    b = {0: 9, 1: 9, 2: 9, 3: 1}
    assert refines(a, b)
    assert not refines(b, a)


def test_refines_rejects_class_straddling_two_targets(graph_b):
    # A = {{u,v,x},{u'}} vs B = {{u,v},{x,u'}}: the big A-class meets two B-colors
    a = {"u": 0, "v": 0, "x": 0, "u'": 1}
    b = {"u": 0, "v": 0, "x": 1, "u'": 1}
    assert not refines(a, b)


def test_refines_rejects_mismatched_index_sets():
    with pytest.raises(ValidationError):
        refines({0: 1}, {1: 1})


def test_equivalent_examples():
    a = {0: 1, 1: 1, 2: 2}
    renamed = {0: 9, 1: 9, 2: 4}
    assert equivalent(a, a)
    assert equivalent(a, renamed)  # partitions ignore color names
    discrete = {0: 0, 1: 1, 2: 2}
    single = {0: 0, 1: 0, 2: 0}
    assert not equivalent(discrete, single)


def _pairwise_refines(a, b):
    """The definition: a_i = a_j implies b_i = b_j, for every i and j."""
    return all(b[i] == b[j] for i in range(len(a)) for j in range(len(a)) if a[i] == a[j])


def _trace_row(colors):
    """A row of a read-only int64 table, as a trace holds its colorings."""
    table = np.array(colors, dtype=np.int64).reshape(1, -1)
    table.flags.writeable = False
    return table[0]


# the values FeatureTable.assignment returns: numerator tuples (exact) and
# row bytes (float); distinct colors get distinct values
MAPPED = {
    "tuple": lambda c: (c // 2, c % 2),
    "bytes": lambda c: np.array([c / 3]).tobytes(),
}
FORMS = ("tuple", "list", "row", "map-tuple", "map-bytes")


def _form(kind, colors, keys, rng):
    if kind == "tuple":
        return tuple(colors)
    if kind == "list":
        return list(colors)
    if kind == "row":
        return _trace_row(colors)
    order = list(range(len(colors)))
    rng.shuffle(order)  # a mapping is aligned by key, not by insertion order
    return {keys[i]: MAPPED[kind[4:]](colors[i]) for i in order}


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
    st.sampled_from(FORMS),
    st.sampled_from(FORMS),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_counting_rule_is_pairwise_refinement(pairs, kind_a, kind_b, pair_keys, rng):
    a, b = [p[0] for p in pairs], [p[1] for p in pairs]
    keys = list(range(len(pairs)))
    if pair_keys and kind_a.startswith("map") and kind_b.startswith("map"):
        keys = [(i // 4, i % 4) for i in keys]  # pair keys, as a pair table has
    x, y = _form(kind_a, a, keys, rng), _form(kind_b, b, keys, rng)
    a_b, b_a = _pairwise_refines(a, b), _pairwise_refines(b, a)
    assert refines(x, y) == a_b
    assert refines(y, x) == b_a
    assert equivalent(x, y) == (a_b and b_a)
    assert equivalent(y, x) == (a_b and b_a)


# -- distinguishes --------------------------------------------------------------


def test_distinguishes_identical_index(graph_a):
    trace = run_test("rawl2", graph_a, horizon="stabilize")
    assert distinguishes(trace, ("u", "v"), ("u", "v")) is None


def test_distinguishes_rwl2_on_graph_b(graph_b):
    trace = run_test("rwl2", graph_b, horizon="stabilize")
    assert distinguishes(trace, ("u", "v"), ("u'", "v")) == 1


def test_distinguishes_unknown_beyond_horizon(graph_b):
    trace = run_test("rwl2", graph_b, horizon=0)
    assert trace.stabilized_at is None
    assert distinguishes(trace, ("u", "v"), ("u'", "v")) is UNKNOWN


def test_distinguishes_unknown_entity(graph_a):
    trace = run_test("rwl1", graph_a, horizon=1)
    with pytest.raises(UnknownEntityError):
        distinguishes(trace, "zzz", "u")


# -- preconditions ---------------------------------------------------------------


def test_arity2_requires_pair_coloring():
    g = from_triples([("a", "r", "b")])
    with pytest.raises(PreconditionError):
        run_test("rawl2", g)


def test_arity2_tnd_waiver():
    from relwl.graphs import PairColoring

    g = from_triples([("a", "r", "b")], node_order=("a", "b"))
    flat = PairColoring(2, (0, 0, 0, 0), ("same",))
    g = g.with_pair_coloring(flat)
    with pytest.raises(PreconditionError):
        run_test("rawl2", g)
    trace = run_test("rawl2", g, allow_non_tnd=True)
    assert trace.iterations >= 1


def test_arity2_node_cap():
    g = _diag(random_kg(0, 5, 1, 0.2))
    size = g.n * g.n + g.n * len(g.facts)  # pair-graph nodes plus edges
    with pytest.raises(NodeBudgetError):
        run_test("rawl2", g, node_budget=size - 1)
    assert run_test("rawl2", g, node_budget=size).stabilized_at is not None


def test_arity2_budget_counts_both_moving_coordinates():
    g = _diag(random_kg(0, 5, 1, 0.2))
    size = g.n * g.n + 2 * g.n * len(g.facts)
    with pytest.raises(NodeBudgetError):
        run_test("rwl2", g, node_budget=size - 1)
    assert run_test("rwl2", g, node_budget=size).stabilized_at is not None


def test_arity2_budget_from_environment(monkeypatch):
    g = _diag(random_kg(0, 5, 1, 0.2))
    monkeypatch.setenv("RELWL_NODE_BUDGET", "3")
    with pytest.raises(NodeBudgetError):
        run_test("rawl2", g)


def test_rawl2_runs_on_100_nodes_by_default():
    names = [f"x{i}" for i in range(100)]
    g = _diag(
        from_triples(
            [(names[i], "r", names[(i * 7 + 3) % 100]) for i in range(100)],
            node_order=names,
        )
    )
    trace = run_test("rawl2", g, horizon="stabilize")
    assert len(trace.colorings[0]) == 100 * 100
    assert trace.stabilized_at is not None


def test_unknown_test_id(graph_a):
    with pytest.raises(ValidationError):
        run_test("wl9", graph_a)


# -- history functions ------------------------------------------------------------


def test_history_validation():
    with pytest.raises(ValidationError):
        HistoryFunction.from_table([0, 2])  # f(1) = 2 > 1
    with pytest.raises(ValidationError):
        HistoryFunction.from_table([0, 1, 0])  # decreasing
    h = HistoryFunction.from_table([0, 0, 1])
    assert h(2) == 1
    with pytest.raises(ValidationError):
        h(3)  # beyond the table


def test_history_independence_seeded():
    rng = random.Random(5)
    for seed in range(15):
        g = random_kg(seed, 7, 2, 0.3, n_colors=2)
        traces = [
            run_test("rwl1", g, h, horizon=5)
            for h in (
                HistoryFunction.identity(),
                HistoryFunction.zero(),
                random_history(rng, 5),
            )
        ]
        for t in range(6):
            base = traces[0].colorings[t]
            for other in traces[1:]:
                assert equivalent(base, other.colorings[t])


# -- monotone refinement ------------------------------------------------------------


@given(st.integers(0, 10_000), st.sampled_from(["rwl1", "rawl2", "rwl2", "rawl2+", "rwl2+"]))
@settings(max_examples=40, deadline=None)
def test_monotone_refinement(seed, test_id):
    g = _diag(random_kg(seed, 5, 2, 0.4, n_colors=2))
    history = HistoryFunction.zero() if seed % 2 else HistoryFunction.identity()
    trace = run_test(test_id, g, history, horizon="stabilize")
    for t in range(len(trace.colorings) - 1):
        assert refines(trace.colorings[t + 1], trace.colorings[t])


# -- reduction oracle ------------------------------------------------------------------


def test_reduction_oracle_seeded():
    for seed in range(20):
        g = _diag(random_kg(seed, 6, 2, 0.35))
        square = product_square(g)
        pair = run_test("rawl2", g, horizon=4)
        node = run_test("rwl1", square, horizon=4)
        for t in range(5):
            assert equivalent(pair.colorings[t], node.colorings[t])


# -- hierarchy ---------------------------------------------------------------------------


def test_hierarchy_seeded():
    edges = (("rwl2+", "rwl2"), ("rwl2", "rawl2"), ("rwl2+", "rawl2+"), ("rawl2+", "rawl2"))
    for seed in range(15):
        g = _diag(random_kg(seed, 6, 2, 0.35))
        traces = {
            tid: run_test(tid, g, horizon=4)
            for tid in ("rawl2", "rwl2", "rawl2+", "rwl2+")
        }
        for finer, coarser in edges:
            for t in range(5):
                assert refines(
                    traces[finer].colorings[t], traces[coarser].colorings[t]
                )


# -- isomorphism invariance ------------------------------------------------------------------


@given(st.integers(0, 10_000), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_trace_permutation_equivariance(seed, rng):
    g = _diag(random_kg(seed, 5, 2, 0.4, n_colors=2))
    perm = random_permutation(rng, g.n)
    h = permute_nodes(g, perm)
    for test_id in ("rwl1", "rawl2"):
        tg = run_test(test_id, g, horizon=3)
        th = run_test(test_id, h, horizon=3)
        n = g.n
        for t in range(4):
            if test_id == "rwl1":
                for v in range(n):
                    assert tg.colorings[t][v] == th.colorings[t][perm[v]]
            else:
                for u in range(n):
                    for v in range(n):
                        assert (
                            tg.colorings[t][u * n + v]
                            == th.colorings[t][perm[u] * n + perm[v]]
                        )


def test_partitions_repeat_after_stabilization():
    g = _diag(random_kg(2, 5, 2, 0.4, n_colors=2))
    trace = run_test("rawl2", g, horizon=8)
    s = trace.stabilized_at
    assert s is not None
    for t in range(s, 9):
        assert equivalent(trace.colorings[s], trace.colorings[t])


# -- trace export -----------------------------------------------------------------------------


@pytest.mark.parametrize("test_id", TEST_IDS)
def test_colorings_are_one_read_only_int_table(test_id, graph_b):
    trace = run_test(test_id, graph_b, horizon="stabilize")
    n = graph_b.n ** (1 if test_id == "rwl1" else 2)
    assert trace.colorings.shape == (trace.iterations + 1, n)
    assert trace.colorings.dtype == np.int64
    with pytest.raises(ValueError):
        trace.colorings[0, 0] = 1
    assert all(type(c) is int for row in trace.colorings for c in row.tolist())


@pytest.mark.parametrize("test_id", ["rawl2+", "rwl2"])
def test_trace_reports_are_plain_json(test_id, graph_b):
    trace = run_test(test_id, graph_b, horizon="stabilize")
    doc = json.loads(json.dumps(trace.to_json_dict()))
    assert doc["stabilized_at"] == trace.stabilized_at
    split = distinguishes(trace, ("u", "u"), ("u", "v"))  # the diagonal
    assert split == 0 and type(split) is int


def test_trace_export_shape(graph_a):
    trace = run_test("rawl2+", graph_a, horizon="stabilize")
    doc = trace.to_json_dict()
    assert set(doc) == {"test", "iterations", "partitions", "stabilized_at"}
    assert doc["test"] == "rawl2+"
    assert len(doc["partitions"]) == doc["iterations"] + 1
    flattened = [
        tuple(member) for cls in doc["partitions"][0] for member in cls
    ]
    assert len(flattened) == graph_a.n**2


# -- every error of relwl.wl --------------------------------------------------------------------


def _ab():
    """Two nodes, one relation, one fact, the diagonal pair coloring."""
    return _diag(from_triples([("a", "r", "b")], node_order=("a", "b")))


# (id, thunk, exception type, exact message).  Not listed: the
# AssertionError run_test raises if a refinement fails to stabilize.  It
# cannot be reached: each round refines the last (the own colors come from
# a non-decreasing history), so the partition of N indices stops changing
# within N + 1 rounds.
ERROR_CASES = [
    ("history-kind", lambda: HistoryFunction("one"), ValidationError,
     "unknown history kind 'one'"),
    ("history-table-missing", lambda: HistoryFunction("table"), ValidationError,
     "table must be given exactly for kind='table'"),
    ("history-table-given", lambda: HistoryFunction("zero", (0,)), ValidationError,
     "table must be given exactly for kind='table'"),
    ("history-entry-float", lambda: HistoryFunction.from_table([0, 0.5]), ValidationError,
     "history table entries must be integers, got 0.5"),
    ("history-entry-bool", lambda: HistoryFunction.from_table([False]), ValidationError,
     "history table entries must be integers, got False"),
    ("history-ahead", lambda: HistoryFunction.from_table([0, 2]), ValidationError,
     "history table has f(1)=2 > 1"),
    ("history-decreasing", lambda: HistoryFunction.from_table([0, 1, 0]), ValidationError,
     "history table must be non-decreasing"),
    ("history-short", lambda: HistoryFunction.from_table([0, 0])(2), ValidationError,
     "history table covers iterations 0..1, asked for 2"),
    ("run-test-id", lambda: run_test("wl9", _ab()), ValidationError,
     "unknown test 'wl9'; expected one of ('rwl1', 'rawl2', 'rwl2', 'rawl2+', 'rwl2+')"),
    ("run-no-pair-coloring", lambda: run_test("rwl2", from_triples([("a", "r", "b")])),
     PreconditionError, "rwl2 needs a pair coloring on the graph"),
    ("run-not-tnd",
     lambda: run_test("rawl2", _ab().with_pair_coloring(PairColoring(2, (0,) * 4, ("s",)))),
     PreconditionError,
     "pair coloring lacks target node distinguishability; pass allow_non_tnd=True to waive"),
    ("run-budget", lambda: run_test("rawl2+", _ab(), node_budget=7), NodeBudgetError,
     "rawl2+ refines 4 pairs with 4 codes per round: 8 in all, over the budget of 7"),
    ("run-horizon", lambda: run_test("rwl1", _ab(), horizon=-1), ValidationError,
     "horizon must be 'stabilize' or an iteration count"),
    ("index-node-id", lambda: run_test("rwl1", _ab()).index_of(2), UnknownEntityError,
     "node id 2 out of range"),
    ("index-pair", lambda: run_test("rawl2", _ab()).index_of(("a", 2)), UnknownEntityError,
     "pair (0,2) out of range"),
    ("index-name", lambda: run_test("rawl2", _ab()).index_of(("a", "zz")), UnknownEntityError,
     "unknown node 'zz'"),
    ("refines-index-sets", lambda: refines([0, 1], {0: 0, 2: 1}), ValidationError,
     "colorings are over different index sets"),
    ("refines-unreadable", lambda: refines("01", [0, 1]), ValidationError,
     "cannot interpret str as a coloring"),
    ("refines-lengths", lambda: refines([0, 1], [0, 1, 2]), ValidationError,
     "colorings are over different index sets"),
    ("equivalent-row-length", lambda: equivalent((0, 1), _trace_row([0])), ValidationError,
     "colorings are over different index sets"),
    ("equivalent-sequence-keys", lambda: equivalent({0: 0, 2: 1}, [0, 1]), ValidationError,
     "colorings are over different index sets"),
    ("equivalent-pair-keys", lambda: equivalent(_trace_row([0]), {(0, 0): 0}), ValidationError,
     "colorings are over different index sets"),
    ("refines-table", lambda: refines(np.zeros((2, 2), dtype=np.int64), [0, 1]),
     ValidationError, "cannot interpret ndarray as a coloring"),
    ("equivalent-0d-array", lambda: equivalent([0], np.array(3)), ValidationError,
     "cannot interpret ndarray as a coloring"),
    ("equivalent-scalar", lambda: equivalent(np.int64(3), [0]), ValidationError,
     "cannot interpret int64 as a coloring"),
    ("refines-set", lambda: refines([0, 1], {0, 1}), ValidationError,
     "cannot interpret set as a coloring"),
]


@pytest.mark.parametrize(
    "thunk, exc, message",
    [case[1:] for case in ERROR_CASES],
    ids=[case[0] for case in ERROR_CASES],
)
def test_every_wl_error_is_reached(thunk, exc, message):
    with pytest.raises(exc) as caught:
        thunk()
    assert type(caught.value) is exc
    assert str(caught.value) == message
