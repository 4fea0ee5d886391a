"""Differential and property tests of the refinement kernel.

The oracle is ``wl_reference``, the three hand-written signature rules the
kernel replaced.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relwl.corpus import random_history, random_kg
from relwl.graphs import default_pair_coloring, from_triples, permute_nodes
from relwl.wl import (
    TEST_IDS,
    HistoryFunction,
    _Refiner,
    _RowLayout,
    _same_partition,
    equivalent,
    run_test,
)

from conftest import random_permutation
from wl_reference import reference_run

# tests whose color ids (not only partitions) match the reference
SAME_IDS = ("rwl1", "rawl2", "rawl2+")


def _graph(seed, colored):
    g = random_kg(seed, 5, 2, 0.4, n_colors=2)
    mode = "colored-diagonal" if colored else "diagonal"
    return g.with_pair_coloring(default_pair_coloring(g, mode))


def _history(kind, seed, steps):
    if kind == "identity":
        return HistoryFunction.identity()
    if kind == "zero":
        return HistoryFunction.zero()
    return random_history(random.Random(seed), steps)


def _steps(test_id, g, horizon):
    """Iterations a run may visit: the table history must cover them."""
    if horizon != "stabilize":
        return horizon
    return (g.n if test_id == "rwl1" else g.n * g.n) + 1


def _check_against_reference(g, test_id, history, horizon):
    trace = run_test(test_id, g, history, horizon)
    colorings, stabilized_at = reference_run(test_id, g, history, horizon)
    assert trace.stabilized_at == stabilized_at
    assert len(trace.colorings) == len(colorings)
    for mine, theirs in zip(trace.colorings, colorings):
        assert equivalent(mine, theirs)
    if test_id in SAME_IDS:
        assert trace.colorings.tolist() == [list(c) for c in colorings]
    return trace


@given(
    st.integers(0, 10_000),
    st.sampled_from(TEST_IDS),
    st.sampled_from(["identity", "zero", "table"]),
    st.sampled_from([3, "stabilize"]),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference(seed, test_id, kind, horizon, colored):
    g = _graph(seed, colored)
    history = _history(kind, seed, _steps(test_id, g, horizon))
    _check_against_reference(g, test_id, history, horizon)


@given(
    st.integers(0, 10_000),
    st.sampled_from(TEST_IDS),
    st.sampled_from(["identity", "zero", "table"]),
    st.sampled_from([3, "stabilize"]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_class_counts_invariant_under_permutation(seed, test_id, kind, horizon, rng):
    g = _graph(seed, colored=True)
    history = _history(kind, seed, _steps(test_id, g, horizon))
    h = permute_nodes(g, random_permutation(rng, g.n))
    a = run_test(test_id, g, history, horizon)
    b = run_test(test_id, h, history, horizon)
    assert a.stabilized_at == b.stabilized_at
    assert [len(set(c)) for c in a.colorings] == [len(set(c)) for c in b.colorings]


@given(
    st.integers(0, 10_000),
    st.sampled_from(TEST_IDS),
    st.sampled_from(["identity", "zero", "table"]),
    st.integers(0, 8),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_fixed_horizon_is_a_prefix_of_stabilize(seed, test_id, kind, k, colored):
    g = _graph(seed, colored)
    history = _history(kind, seed, max(k, _steps(test_id, g, "stabilize")))
    fixed = run_test(test_id, g, history, k)
    full = run_test(test_id, g, history, "stabilize")
    common = min(len(fixed.colorings), len(full.colorings))
    assert len(fixed.colorings) == k + 1
    assert np.array_equal(fixed.colorings[:common], full.colorings[:common])
    # the fixed run stabilises too exactly when its horizon reaches that point
    reached = full.stabilized_at <= k
    assert fixed.stabilized_at == (full.stabilized_at if reached else None)


@given(st.integers(0, 10_000), st.sampled_from(TEST_IDS))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference_with_hubs(seed, test_id):
    # a few nodes with many incoming facts make the rows' lengths skewed,
    # so the kernel ranks the long rows' tails separately
    rng = random.Random(seed)
    n = rng.randint(2, 6 if test_id != "rwl1" else 30)
    names = [f"n{i}" for i in range(n)]
    triples = {
        (rng.choice(names), rng.choice("ab"), names[0]) for _ in range(rng.randint(0, 4 * n))
    }
    triples |= {(rng.choice(names), "a", rng.choice(names)) for _ in range(rng.randint(0, n))}
    g = from_triples(sorted(triples), node_order=names)
    g = g.with_pair_coloring(default_pair_coloring(g))
    _check_against_reference(g, test_id, None, "stabilize")


@given(
    st.lists(
        st.lists(st.integers(0, 3), min_size=1, max_size=12).map(tuple)
        | st.lists(st.integers(0, 1), min_size=20, max_size=60).map(tuple),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_row_ranks_follow_tuple_order(rows):
    values = np.array([x for row in rows for x in row] + [-1], dtype=np.int64)
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    ranks = _RowLayout(starts, lengths, len(values) - 1).rank(values)
    order = {row: i for i, row in enumerate(sorted(set(rows)))}
    assert ranks.tolist() == [order[r] for r in rows]


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12))
@settings(max_examples=100, deadline=None)
def test_stabilization_check_is_partition_equality(pairs):
    # equal class counts are not enough: [0, 0, 1] and [0, 1, 1] differ
    def dense(xs):
        ids = {x: i for i, x in enumerate(sorted(set(xs)))}
        return np.array([ids[x] for x in xs], dtype=np.int64)

    a, b = dense([p[0] for p in pairs]), dense([p[1] for p in pairs])
    assert _same_partition(a, b) == equivalent(a.tolist(), b.tolist())
    assert not _same_partition(np.array([0, 0, 1]), np.array([0, 1, 1]))


def test_huge_codes_stay_exact():
    # codes near 2**62 take the paths that avoid int64 overflow: the
    # (target, code) lexsort and the renumbering of row digits, for one row
    # and for a table of two rows ranked together
    m = 2**61
    src, dst, rel = np.array([0, 1, 2, 0]), np.array([1, 2, 0, 2]), np.array([0, 1, 0, 1])
    for cols in (np.array([2, 0, 1]), np.array([[2, 0, 1], [1, 2, 2]])):
        own = np.zeros_like(cols)
        got = _Refiner(3, src, dst, rel, m)(cols, own)
        sigs = [
            tuple(sorted(int(row[s]) * m + int(r) for s, d, r in zip(src, dst, rel) if d == v))
            for row in cols.reshape(-1, 3)
            for v in range(3)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        assert got.ravel().tolist() == [order[sig] for sig in sigs]
