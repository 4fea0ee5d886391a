"""Differential and property tests of the array forward.

The oracle is ``forward_reference``, the per-node recurrence the array
forward replaced: at every layer, float features must equal it bit for bit
and exact features must equal it (``==``).
"""

import random
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relwl.corpus import random_history, random_kg
from relwl.graphs import permute_nodes
from relwl.networks import (
    PNA_WIDTH,
    NetworkSpec,
    cmpnn_forward,
    cmpnn_pair_table,
    rmpnn_forward,
)
from relwl.wl import HistoryFunction

from conftest import random_permutation
from forward_reference import reference_cmpnn_row, reference_rmpnn

THETAS = ("theta1", "theta2", "theta3", "scaling")
SIGMAS = ("sign", "relu", "truncated-relu", "identity")
INITS = ("rmpnn", "delta0", "delta1", "delta2", "delta3", "delta4", "pair-table")


def _number(rng, exact):
    if exact:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return rng.gauss(0.0, 1.0)


def _random_spec(g, rng, *, exact, init, theta, update, sigma, history, psi, layers, dim):
    def vec(k):
        return tuple(_number(rng, exact) for _ in range(k))

    def mat(rows, cols):
        return tuple(vec(cols) for _ in range(rows))

    # the output width may differ from the rest unless separate sums
    # elementwise messages into it
    last = dim if update == "separate" and theta != "theta3" else rng.randint(1, 3)
    dims = (dim,) * layers + (last,)
    weights, biases, rel_params = [], [], []
    for t in range(layers):
        d_in, d_out = dims[t], dims[t + 1]
        width = d_in if update == "combine" else d_out
        weights.append(mat(d_out, d_in * (1 + PNA_WIDTH) if psi == "pna" else d_in))
        biases.append(vec(d_out) if rng.random() < 0.5 else None)
        params = {}
        for name in g.relation_names + ("absent",):
            if rng.random() < 0.25:
                continue  # a relation that sends no messages in this layer
            if theta == "theta1":
                params[name] = mat(d_in, dim)
            elif theta == "theta2":
                params[name] = vec(d_in)
            elif theta == "theta3":
                params[name] = mat(width, d_in)
            else:
                params[name] = _number(rng, exact)
        rel_params.append(params)
    if history == "identity":
        hist = HistoryFunction.identity()
    elif history == "zero":
        hist = HistoryFunction.zero()
    else:
        hist = random_history(rng, layers)
    extra = {}
    if init != "rmpnn":
        extra["delta_kind"] = init
        extra["query_vectors"] = {name: vec(dim) for name in g.relation_names}
        extra["rng_seed"] = rng.randint(0, 99)
        if init == "pair-table":
            extra["pair_table"] = {(a, b): vec(dim) for a in g.node_names for b in g.node_names}
        if init == "delta3" and rng.random() < 0.5:
            extra["node_noise"] = {name: vec(dim) for name in g.node_names}
        if init == "delta4" and rng.random() < 0.5:
            extra["query_noise"] = {name: vec(dim) for name in g.relation_names}
    return NetworkSpec(
        kind="rmpnn" if init == "rmpnn" else "cmpnn",
        num_layers=layers,
        dims=dims,
        weights=tuple(weights),
        biases=tuple(biases),
        relation_params=tuple(rel_params),
        theta_kind=theta,
        psi_kind=psi,
        sigma_kind=sigma,
        update_kind=update,
        history=hist,
        numeric_mode="exact" if exact else "float64",
        **extra,
    )


def _assert_layers_equal(table, reference, key, exact):
    assert table.num_layers == len(reference) - 1
    for t, layer in enumerate(reference):
        for v, expected in enumerate(layer):
            got = table.vector(t, key(v))
            if exact:
                assert got == expected
                assert all(type(x) is Fraction for x in got)
            else:
                expected = np.asarray(expected, dtype=float)
                assert np.array_equal(got, expected)
                assert got.tobytes() == expected.tobytes()  # signed zeros too


@given(
    st.integers(0, 10_000),
    st.booleans(),
    st.sampled_from(INITS),
    st.sampled_from(THETAS),
    st.sampled_from(("combine", "separate")),
    st.sampled_from(SIGMAS),
    st.sampled_from(("identity", "zero", "table")),
    st.sampled_from(("sum", "pna")),
    st.sampled_from((0.15, 0.5, 0.9)),
)
@settings(max_examples=300, deadline=None)
def test_forward_matches_reference(
    seed, exact, init, theta, update, sigma, history, psi, density
):
    assume(not (init == "rmpnn" and theta == "theta1"))
    assume(not (exact and (psi == "pna" or init in ("delta3", "delta4"))))
    assume(not (psi == "pna" and update == "separate"))
    rng = random.Random(seed)
    g = random_kg(seed, 10 if psi == "pna" else 7, 3, density)
    spec = _random_spec(
        g, rng, exact=exact, init=init, theta=theta, update=update, sigma=sigma,
        history=history, psi=psi, layers=rng.randint(1, 3), dim=rng.randint(1, 3),
    )
    if init == "rmpnn":
        x = [tuple(_number(rng, exact) for _ in range(spec.dims[0])) for _ in range(g.n)]
        table = rmpnn_forward(g, spec, x)
        _assert_layers_equal(table, reference_rmpnn(g, spec, x), lambda v: v, exact)
        return
    query = rng.choice(g.relation_names)
    pairs = cmpnn_pair_table(g, spec, query)
    assert pairs.sources == tuple(range(g.n))
    for u in range(g.n):
        reference = reference_cmpnn_row(g, spec, query, u)
        row = cmpnn_forward(g, spec, query, u)
        _assert_layers_equal(row, reference, lambda v: (u, v), exact)
        _assert_layers_equal(pairs, reference, lambda v: (u, v), exact)


@given(
    st.integers(0, 10_000),
    st.sampled_from(("rmpnn", "delta0", "delta1", "delta2", "pair-table")),
    st.sampled_from(THETAS),
    st.sampled_from(("combine", "separate")),
    st.sampled_from(SIGMAS),
)
@settings(max_examples=60, deadline=None)
def test_exact_features_invariant_under_permute_nodes(seed, init, theta, update, sigma):
    assume(not (init == "rmpnn" and theta == "theta1"))
    rng = random.Random(seed)
    g = random_kg(seed, 6, 2, 0.4)
    spec = _random_spec(
        g, rng, exact=True, init=init, theta=theta, update=update, sigma=sigma,
        history="identity", psi="sum", layers=2, dim=2,
    )
    perm = random_permutation(rng, g.n)
    permuted = permute_nodes(g, perm)
    if init == "rmpnn":
        x = {name: tuple(_number(rng, True) for _ in range(2)) for name in g.node_names}
        table, table_p = rmpnn_forward(g, spec, x), rmpnn_forward(permuted, spec, x)
        keys = [(v, perm[v]) for v in range(g.n)]
    else:
        query = rng.choice(g.relation_names)
        table = cmpnn_pair_table(g, spec, query)
        table_p = cmpnn_pair_table(permuted, spec, query)
        keys = [((u, v), (perm[u], perm[v])) for u in range(g.n) for v in range(g.n)]
    for t in range(spec.num_layers + 1):
        for key, key_p in keys:
            assert table.vector(t, key) == table_p.vector(t, key_p)
