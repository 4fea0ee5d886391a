import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwl.corpus import random_kg
from relwl.errors import PreconditionError, UnknownEntityError, ValidationError
from relwl.graphs import default_pair_coloring, from_triples, permute_nodes
from relwl.networks import (
    DELTA_KINDS,
    PNA_WIDTH,
    PSI_KINDS,
    SIGMA_KINDS,
    THETA_KINDS,
    UPDATE_KINDS,
    MLPDecoder,
    NetworkSpec,
    build_cmpnn_simulator,
    build_rwl1_simulator,
    build_sign_matrix,
    cmpnn_forward,
    cmpnn_pair_table,
    random_cmpnn_spec,
    random_rmpnn_spec,
    rmpnn_forward,
    score_link,
    score_tails,
    sign_basis,
    spec_from_json_dict,
    spec_to_json_dict,
)
from relwl.wl import HistoryFunction, equivalent, run_test

from builder_reference import mat_inverse, mat_mul
from conftest import random_permutation
from forward_reference import reference_score_link


def _diag(g):
    return g.with_pair_coloring(default_pair_coloring(g))


def _signed(X, B):
    """sign(X B - J) over exact rationals; asserts no entry hits the bias."""
    prod = mat_mul(X, tuple(tuple(Fraction(v) for v in row) for row in B))
    out = []
    for row in prod:
        for val in row:
            assert val != 1
        out.append(tuple(1 if val > 1 else -1 for val in row))
    return tuple(out)


# -- sign basis and sign matrix ----------------------------------------------


def test_sign_basis_shape_and_inverse():
    for n in (1, 2, 5):
        basis = sign_basis(n)
        assert basis[0][0] == -1
        assert len({tuple(col) for col in zip(*basis)}) == n
        mat_inverse(basis)  # must not be singular


def test_sign_matrix_identity_example():
    X = build_sign_matrix([[1, 0], [0, 1]], 2)
    # digit values in base 2: column (1,0) -> 1, column (0,1) -> 2;
    # descending order puts column 2 first
    sorted_B = [[0, 1], [1, 0]]
    assert _signed(X, sorted_B) == ((-1, -1), (1, -1))


def test_sign_matrix_single_column():
    for n in (1, 3, 5):
        X = build_sign_matrix([[2]] + [[0]] * (n - 1), n)
        col = [row[0] for row in _signed(X, [[2]] + [[0]] * (n - 1))]
        assert col == [-1] + [1] * (n - 1)


def test_sign_matrix_rejects_bad_input():
    with pytest.raises(ValidationError):
        build_sign_matrix([[1, 1], [0, 0]], 2)  # duplicate columns
    with pytest.raises(ValidationError):
        build_sign_matrix([[1, 0], [0, 0]], 2)  # zero column
    with pytest.raises(ValidationError):
        build_sign_matrix([[1, 0, 2], [0, 1, 1]], 2)  # p > n
    with pytest.raises(ValidationError):
        build_sign_matrix([[1, -1], [0, 1]], 2)  # negative entry


def test_sign_matrix_random_property():
    rng = random.Random(3)
    basis_cache = {}
    for _ in range(40):
        n = rng.randint(1, 6)
        p = rng.randint(1, n)
        while True:
            cols = {
                tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(p)
            }
            cols = [c for c in cols if any(c)]
            if len(cols) == p:
                break
        B = [[col[i] for col in cols] for i in range(n)]
        X = build_sign_matrix(B, n)
        signed = _signed(X, B)
        basis = basis_cache.setdefault(n, sign_basis(n))
        basis_cols = list(zip(*basis))
        got_cols = list(zip(*signed))
        # order-free core property: result columns are exactly the first p
        # basis columns, one per input column
        assert sorted(got_cols) == sorted(basis_cols[:p])
        # and the assignment follows the descending digit-value order
        base = max(max(row) for row in B) + 1
        values = [
            sum(base**i * B[i][j] for i in range(n)) for j in range(p)
        ]
        ranks = {
            j: sorted(values, reverse=True).index(values[j]) for j in range(p)
        }
        for j in range(p):
            assert got_cols[j] == basis_cols[ranks[j]]


# -- node-level forward -------------------------------------------------------


def test_rmpnn_edgeless_is_plain_layer():
    g = from_triples([], node_order=("a", "b"), relation_order=("r",))
    W = ((0.5, -1.0), (2.0, 0.25))
    spec = NetworkSpec(
        kind="rmpnn",
        num_layers=1,
        dims=(2, 2),
        weights=(W,),
        biases=(None,),
        relation_params=({"r": ((1.0, 0.0), (0.0, 1.0))},),
        theta_kind="theta3",
        sigma_kind="relu",
    )
    x = {"a": (1.0, 2.0), "b": (-3.0, 0.5)}
    table = rmpnn_forward(g, spec, x)
    for v, vec in x.items():
        expected = np.maximum(np.array(W) @ np.array(vec), 0.0)
        assert np.array_equal(table.vector(1, g.node_id(v)), expected)


def test_rmpnn_generic_weights_match_one_refinement_step(graph_b):
    rng = random.Random(5)  # frozen: this draw separates u' from the rest
    spec = random_rmpnn_spec(
        graph_b, rng, num_layers=1, dim=2, theta_kind="scaling", sigma_kind="sign"
    )
    spec = replace(spec, biases=((Fraction(-1), Fraction(-1)),))
    x = [(Fraction(1), Fraction(1))] * graph_b.n
    table = rmpnn_forward(graph_b, spec, x)
    trace = run_test("rwl1", graph_b, horizon=1)
    assert equivalent(
        table.assignment(1), {v: trace.colorings[1][v] for v in range(graph_b.n)}
    )


def test_rmpnn_dimension_mismatch(graph_b):
    rng = random.Random(0)
    spec = random_rmpnn_spec(graph_b, rng, num_layers=1, dim=2)
    with pytest.raises(ValidationError):
        rmpnn_forward(graph_b, spec, [(Fraction(1),)] * graph_b.n)


# -- constructive node simulator ----------------------------------------------


def test_simulator_uniform_edgeless_stays_single_class():
    g = from_triples([], node_order=("a", "b", "c"), relation_order=("r",))
    spec, init = build_rwl1_simulator(g, 3)
    table = rmpnn_forward(g, spec, init)
    for t in range(4):
        assert len(set(table.assignment(t).values())) == 1


def test_simulator_graph_b_one_layer(graph_b):
    spec, init = build_rwl1_simulator(graph_b, 1)
    table = rmpnn_forward(graph_b, spec, init)
    classes = {}
    for v, value in table.assignment(1).items():
        classes.setdefault(value, set()).add(graph_b.node_names[v])
    assert set(map(frozenset, classes.values())) == {
        frozenset({"u", "v", "x"}),
        frozenset({"u'"}),
    }


@pytest.mark.parametrize("history_kind", ["identity", "zero"])
def test_simulator_matches_refinement(history_kind):
    history = HistoryFunction(history_kind)
    for seed in range(10):
        g = random_kg(seed, 7, 3, 0.3, n_colors=2)
        layers = seed % 4 + 1
        spec, init = build_rwl1_simulator(g, layers, history)
        table = rmpnn_forward(g, spec, init)
        trace = run_test("rwl1", g, history, horizon=layers)
        for t in range(layers + 1):
            assert equivalent(
                table.assignment(t),
                {v: trace.colorings[t][v] for v in range(g.n)},
            )


def test_simulator_history_choice_is_irrelevant():
    for seed in range(6):
        g = random_kg(seed, 6, 2, 0.35, n_colors=2)
        tables = {}
        for kind in ("identity", "zero"):
            spec, init = build_rwl1_simulator(g, 3, HistoryFunction(kind))
            tables[kind] = rmpnn_forward(g, spec, init)
        for t in range(4):
            assert equivalent(
                tables["identity"].assignment(t), tables["zero"].assignment(t)
            )


# -- conditional forward --------------------------------------------------------


def test_delta2_initialization(graph_a):
    rng = random.Random(1)
    spec = random_cmpnn_spec(graph_a, rng, num_layers=1, dim=2, delta_kind="delta2")
    u = graph_a.node_id("u")
    table = cmpnn_forward(graph_a, spec, "r1", u)
    z = spec.query_vectors["r1"]
    for v in range(graph_a.n):
        expected = z if v == u else (Fraction(0), Fraction(0))
        assert table.vector(0, (u, v)) == expected


def test_delta0_flat_initialization(graph_a):
    rng = random.Random(1)
    spec = random_cmpnn_spec(graph_a, rng, num_layers=1, dim=2, delta_kind="delta0")
    assert spec.target_node_distinguishable is False
    table = cmpnn_forward(graph_a, spec, "r1", "u")
    values = set(table.assignment(0).values())
    assert len(values) == 1


def test_tnd_flags():
    g = _diag(from_triples([("a", "r", "b")], node_order=("a", "b")))
    rng = random.Random(2)
    assert random_cmpnn_spec(g, rng, delta_kind="delta1").target_node_distinguishable
    spec2 = random_cmpnn_spec(g, rng, delta_kind="delta2")
    assert spec2.target_node_distinguishable
    zeroed = replace(
        spec2, query_vectors={k: (Fraction(0), Fraction(0)) for k in spec2.query_vectors}
    )
    assert zeroed.target_node_distinguishable is False


# pair tables on the nodes a, b, keyed (source, target), and their flags:
# TND asks that each source's diagonal row differs from its other rows
PAIR_TABLE_TND = {
    "distinct diagonal rows": (((1, 0), (0, 0), (0, 0), (0, 1)), True),
    "equal diagonal rows": (((1, 1), (0, 0), (0, 0), (1, 1)), True),
    "diagonal row equal to an off-diagonal one": (((1, 0), (1, 0), (0, 0), (0, 1)), False),
    "diagonal row equal to another source's row": (((1, 0), (0, 0), (1, 0), (0, 1)), True),
    "Fraction against an equal float": (
        ((Fraction(1, 2), 0), (0.5, 0.0), (0, 0), (0, 1)),
        False,
    ),
    "Fraction against a near float": (((Fraction(1, 3), 0), (0.3333, 0), (0, 0), (0, 1)), True),
}


@pytest.mark.parametrize("rows, flag", PAIR_TABLE_TND.values(), ids=PAIR_TABLE_TND.keys())
@pytest.mark.parametrize("mode", ["exact", "float64"])
def test_tnd_flag_of_pair_table_specs(rows, flag, mode):
    g = from_triples([("a", "r", "b")], node_order=("a", "b"))
    keys = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    spec = NetworkSpec(
        kind="cmpnn",
        num_layers=1,
        dims=(2, 2),
        weights=(((1, 0), (0, 1)),),
        biases=(None,),
        relation_params=({},),
        theta_kind="scaling",
        numeric_mode=mode,
        delta_kind="pair-table",
        pair_table=dict(zip(keys, rows)),
    )
    assert spec.target_node_distinguishable is flag
    # the flag says whether the initial features separate (u, u) from (u, v)
    layer0 = cmpnn_pair_table(g, spec, "r").assignment(0)
    assert all(layer0[u, u] != layer0[u, 1 - u] for u in range(2)) is flag


def test_basic_model_cannot_split_what_refinement_cannot(graph_a):
    # exact evaluation: the two pairs stay equal through two layers
    rng = random.Random(11)
    spec = random_cmpnn_spec(
        graph_a, rng, num_layers=2, dim=2, delta_kind="delta2", theta_kind="theta1"
    )
    u = graph_a.node_id("u")
    v, v2 = graph_a.node_id("v"), graph_a.node_id("v'")
    table = cmpnn_forward(graph_a, spec, "r1", u)
    for t in range(3):
        assert table.vector(t, (u, v)) == table.vector(t, (u, v2))


def test_exact_mode_rejects_stochastic_pieces(graph_a):
    rng = random.Random(0)
    with pytest.raises(ValidationError):
        random_cmpnn_spec(graph_a, rng, delta_kind="delta3")
    spec = random_cmpnn_spec(graph_a, rng, delta_kind="delta2")
    with pytest.raises(ValidationError):
        replace(spec, psi_kind="pna")


# -- conditional simulator ---------------------------------------------------------


def test_cmpnn_simulator_graph_a(graph_a):
    spec, _ = build_cmpnn_simulator(graph_a, 2)
    table = cmpnn_pair_table(graph_a, spec, "r1")
    u = graph_a.node_id("u")
    v, v2 = graph_a.node_id("v"), graph_a.node_id("v'")
    for t in range(3):
        assert table.vector(t, (u, v)) == table.vector(t, (u, v2))


def test_cmpnn_simulator_single_node():
    g = _diag(from_triples([("a", "r", "a")], node_order=("a",)))
    spec, _ = build_cmpnn_simulator(g, 2)
    table = cmpnn_pair_table(g, spec, "r")
    for t in range(3):
        assert len(set(table.assignment(t).values())) == 1


def test_cmpnn_simulator_matches_pair_refinement():
    for seed in range(6):
        history = HistoryFunction.zero() if seed % 2 else HistoryFunction.identity()
        g = _diag(random_kg(seed, 4, 2, 0.35))
        layers = seed % 3 + 1
        spec, _ = build_cmpnn_simulator(g, layers, history)
        table = cmpnn_pair_table(g, spec, g.relation_names[0])
        trace = run_test("rawl2", g, history, horizon=layers)
        for t in range(layers + 1):
            ref = {
                key: trace.colorings[t][trace.index_of(key)]
                for key in table.assignment(t)
            }
            assert equivalent(table.assignment(t), ref)


def test_cmpnn_simulator_needs_tnd_pair_coloring():
    g = from_triples([("a", "r", "b")])
    with pytest.raises(PreconditionError):
        build_cmpnn_simulator(g, 1)


# -- refinement upper bound for random exact networks ------------------------------


@pytest.mark.parametrize("theta", ["theta1", "theta2", "theta3"])
def test_upper_bound_pairs(theta):
    for seed in range(6):
        rng = random.Random(seed)
        history = HistoryFunction.zero() if seed % 2 else HistoryFunction.identity()
        g = _diag(random_kg(seed + 40, 5, 2, 0.35))
        spec = random_cmpnn_spec(
            g,
            rng,
            num_layers=2,
            dim=2,
            delta_kind="delta1" if seed % 2 else "delta2",
            theta_kind=theta,
            history=history,
        )
        table = cmpnn_pair_table(g, spec, g.relation_names[0])
        trace = run_test("rawl2", g, history, horizon=2)
        for t in range(3):
            assignment = table.assignment(t)
            by_class = {}
            for key, value in assignment.items():
                color = trace.colorings[t][trace.index_of(key)]
                by_class.setdefault(color, set()).add(value)
            assert all(len(values) == 1 for values in by_class.values())


def test_upper_bound_nodes():
    for seed in range(6):
        rng = random.Random(seed)
        g = random_kg(seed + 80, 6, 2, 0.35, n_colors=2)
        spec = random_rmpnn_spec(g, rng, num_layers=2, dim=2, theta_kind="theta3")
        by_color = {}
        for c in set(g.node_colors):
            while True:
                vec = (
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                )
                if vec not in by_color.values():
                    by_color[c] = vec
                    break
        x = [by_color[g.node_colors[v]] for v in range(g.n)]
        table = rmpnn_forward(g, spec, x)
        trace = run_test("rwl1", g, horizon=2)
        for t in range(3):
            assignment = table.assignment(t)
            by_class = {}
            for key, value in assignment.items():
                by_class.setdefault(trace.colorings[t][key], set()).add(value)
            assert all(len(values) == 1 for values in by_class.values())


# -- link scoring ---------------------------------------------------------------


def _float_cmpnn(g, seed=0, layers=2, dim=2, delta_kind="delta2"):
    rng = np.random.default_rng(seed)
    weights = tuple(
        tuple(map(tuple, rng.standard_normal((dim, dim)).tolist()))
        for _ in range(layers)
    )
    rel_params = tuple(
        {
            name: tuple(map(tuple, rng.standard_normal((dim, dim)).tolist()))
            for name in g.relation_names
        }
        for _ in range(layers)
    )
    query_vectors = {
        name: tuple(rng.standard_normal(dim).tolist()) for name in g.relation_names
    }
    return NetworkSpec(
        kind="cmpnn",
        num_layers=layers,
        dims=(dim,) * (layers + 1),
        weights=weights,
        biases=(None,) * layers,
        relation_params=rel_params,
        theta_kind="theta1",
        sigma_kind="relu",
        numeric_mode="float64",
        delta_kind=delta_kind,
        query_vectors=query_vectors,
        rng_seed=seed,
    )


def test_score_link_zero_decoder(graph_a):
    spec = _float_cmpnn(graph_a)
    decoder = MLPDecoder.zeros(d_in=2, hidden=8)
    for u in graph_a.node_names:
        for v in graph_a.node_names:
            assert score_link(spec, decoder, graph_a, "r1", u, v) == 0.5


def test_score_link_very_negative_logit(graph_a):
    spec = _float_cmpnn(graph_a)
    for bias, expected in ((-800.0, 0.0), (-700.0, 1.0 / (1.0 + math.exp(700.0)))):
        decoder = replace(MLPDecoder.zeros(d_in=2, hidden=8), output_bias=bias)
        assert score_link(spec, decoder, graph_a, "r1", "u", "v") == expected


def test_score_link_rejects_exact_mode(graph_a):
    rng = random.Random(0)
    spec = random_cmpnn_spec(graph_a, rng)
    with pytest.raises(ValidationError):
        score_link(spec, MLPDecoder.zeros(2), graph_a, "r1", "u", "v")


def test_score_link_rejects_mismatched_decoder(graph_a):
    spec = _float_cmpnn(graph_a)  # final width 2
    decoder = MLPDecoder.random(np.random.default_rng(0), d_in=3, hidden=4)
    with pytest.raises(ValidationError, match="width 2"):
        score_link(spec, decoder, graph_a, "r1", "u", "v")
    with pytest.raises(ValidationError, match="width 2"):
        score_tails(spec, decoder, graph_a, "r1", "u")
    short = replace(MLPDecoder.zeros(d_in=2, hidden=4), hidden_bias=(0.0,) * 3)
    with pytest.raises(ValidationError, match="length 4"):
        score_tails(spec, short, graph_a, "r1", "u")


def test_score_tails_is_score_link_for_every_tail():
    g = random_kg(3, 9, 3, 0.4)
    spec = _float_cmpnn(g, seed=4, layers=3, dim=4)
    decoder = MLPDecoder.random(np.random.default_rng(2), d_in=4, hidden=8)
    query = g.relation_names[-1]
    for u in g.node_names:
        tails = score_tails(spec, decoder, g, query, u)
        assert tails.shape == (g.n,)
        for v in range(g.n):
            link = score_link(spec, decoder, g, query, u, v)
            assert link == tails[v]
            assert link == reference_score_link(spec, decoder, g, query, g.node_id(u), v)
    low = replace(MLPDecoder.zeros(d_in=4, hidden=8), output_bias=-800.0)
    assert score_tails(spec, low, g, query, 0).tolist() == [0.0] * g.n


def test_score_link_equal_for_indistinguishable_pairs(graph_a):
    spec = _float_cmpnn(graph_a, seed=7)
    decoder = MLPDecoder.random(np.random.default_rng(3), d_in=2, hidden=8)
    s1 = score_link(spec, decoder, graph_a, "r1", "u", "v")
    s2 = score_link(spec, decoder, graph_a, "r1", "u", "v'")
    assert s1 == s2
    assert 0.0 < s1 < 1.0


def test_score_link_permutation_invariance(graph_a):
    rng = random.Random(9)
    perm = random_permutation(rng, graph_a.n)
    permuted = permute_nodes(graph_a, perm)
    spec = _float_cmpnn(graph_a, seed=5)
    decoder = MLPDecoder.random(np.random.default_rng(1), d_in=2, hidden=8)
    for u in graph_a.node_names:
        for v in graph_a.node_names:
            a = score_link(spec, decoder, graph_a, "r1", u, v)
            b = score_link(spec, decoder, permuted, "r1", u, v)
            assert a == pytest.approx(b, abs=1e-12)


# -- equivariance with explicit noise ------------------------------------------


def test_delta3_equivariance_with_pinned_noise(graph_b):
    rng = np.random.default_rng(4)
    noise = {name: tuple(rng.standard_normal(2).tolist()) for name in graph_b.node_names}
    spec = replace(
        _float_cmpnn(graph_b, seed=2, delta_kind="delta2"),
        delta_kind="delta3",
        node_noise=noise,
    )
    perm = random_permutation(random.Random(6), graph_b.n)
    permuted = permute_nodes(graph_b, perm)
    table = cmpnn_pair_table(graph_b, spec, "r")
    table_p = cmpnn_pair_table(permuted, spec, "r")
    for u, v in table.keys():
        vec = table.vector(spec.num_layers, (u, v))
        other = table_p.vector(spec.num_layers, (perm[u], perm[v]))
        assert np.allclose(vec, other, atol=1e-12)


def _pna_cmpnn(g, seed=0, layers=1, dim=2):
    rng = np.random.default_rng(seed)
    width = dim * 13  # self plus 4 aggregators x 3 scalers
    weights = tuple(
        tuple(map(tuple, rng.standard_normal((dim, width)).tolist()))
        for _ in range(layers)
    )
    rel_params = tuple(
        {
            name: tuple(map(tuple, rng.standard_normal((dim, dim)).tolist()))
            for name in g.relation_names
        }
        for _ in range(layers)
    )
    return NetworkSpec(
        kind="cmpnn",
        num_layers=layers,
        dims=(dim,) * (layers + 1),
        weights=weights,
        biases=(None,) * layers,
        relation_params=rel_params,
        theta_kind="theta3",
        psi_kind="pna",
        sigma_kind="relu",
        numeric_mode="float64",
        delta_kind="delta1",
    )


def test_pna_aggregation_runs_and_is_equivariant(graph_b):
    spec = _pna_cmpnn(graph_b, seed=3)
    table = cmpnn_pair_table(graph_b, spec, "r")
    perm = random_permutation(random.Random(2), graph_b.n)
    permuted = permute_nodes(graph_b, perm)
    table_p = cmpnn_pair_table(permuted, spec, "r")
    for u, v in table.keys():
        vec = table.vector(1, (u, v))
        assert np.allclose(vec, table_p.vector(1, (perm[u], perm[v])), atol=1e-12)


def test_pna_empty_neighborhood_contributes_zero():
    g = from_triples([], node_order=("a", "b"), relation_order=("r",))
    g = g.with_pair_coloring(default_pair_coloring(g))
    spec = _pna_cmpnn(g, seed=1)
    table = cmpnn_forward(g, spec, "r", "a")
    W = np.asarray(spec.weights[0], dtype=float)
    for v in range(g.n):
        own = np.asarray(table.vector(0, (0, v)), dtype=float)
        expected = np.maximum(W @ np.concatenate([own, np.zeros(24)]), 0.0)
        assert np.array_equal(table.vector(1, (0, v)), expected)


def test_feature_table_json_export(graph_b):
    spec, init = build_rwl1_simulator(graph_b, 1)
    table = rmpnn_forward(graph_b, spec, init)
    doc = json.loads(json.dumps(table.to_json_dict(graph_b.node_names)))
    assert doc["arity"] == 1
    assert len(doc["layers"]) == 2
    entry = doc["layers"][0][0]
    assert entry["key"] in graph_b.node_names
    assert {"num", "den"} == set(entry["value"][0])


@pytest.mark.parametrize("key", [-1, -4, 4], ids=["last-by-wrap", "first-by-wrap", "past-end"])
def test_feature_table_vector_rejects_unknown_nodes(graph_b, key):
    spec, init = build_rwl1_simulator(graph_b, 1)
    table = rmpnn_forward(graph_b, spec, init)
    assert table.vector(1, 3) == table.assignment(1)[3]
    with pytest.raises(UnknownEntityError, match="no features for key"):
        table.vector(1, key)


@pytest.mark.parametrize(
    "key",
    [(0, -1), (0, 4), (-1, 0), (1, 0)],
    ids=["target-by-wrap", "target-past-end", "source-by-wrap", "source-not-run"],
)
def test_feature_table_vector_rejects_unknown_pairs(graph_b, key):
    spec = _float_cmpnn(graph_b, seed=3)
    table = cmpnn_forward(graph_b, spec, "r", 0)  # the pairs (0, v) only
    full = cmpnn_pair_table(graph_b, spec, "r")
    assert np.array_equal(table.vector(1, (0, 3)), full.vector(1, (0, 3)))
    with pytest.raises(UnknownEntityError, match="no features for key"):
        table.vector(1, key)


# -- nonzero pre-activation guard ------------------------------------------------


def test_sign_zero_guard():
    g = from_triples([], node_order=("a",), relation_order=("r",))
    spec = NetworkSpec(
        kind="rmpnn",
        num_layers=1,
        dims=(1, 1),
        weights=(((Fraction(0),),),),
        biases=(None,),
        relation_params=({},),
        theta_kind="scaling",
        sigma_kind="sign",
        numeric_mode="exact",
        assert_nonzero_preactivation=True,
    )
    with pytest.raises(ValidationError):
        rmpnn_forward(g, spec, [(Fraction(1),)])
    relaxed = replace(spec, assert_nonzero_preactivation=False)
    table = rmpnn_forward(g, relaxed, [(Fraction(1),)])
    assert table.vector(1, 0) == (Fraction(-1),)  # sign(0) := -1


# -- serialization ----------------------------------------------------------------


def test_spec_json_round_trip_exact(graph_b):
    spec, _ = build_rwl1_simulator(graph_b, 2, HistoryFunction.zero())
    doc = json.loads(json.dumps(spec_to_json_dict(spec)))
    assert spec_from_json_dict(doc) == spec


def test_spec_json_round_trip_float(graph_a):
    spec = _float_cmpnn(graph_a, seed=12)
    doc = json.loads(json.dumps(spec_to_json_dict(spec)))
    assert spec_from_json_dict(doc) == spec


def _spec_4x4(theta, param, kind="rmpnn", dims=(4, 4), **extra):
    return NetworkSpec(
        kind=kind,
        num_layers=1,
        dims=dims,
        weights=(((0.5,) * dims[0],) * dims[1],),
        biases=(None,),
        relation_params=({"r": param},),
        theta_kind=theta,
        **extra,
    )


@pytest.mark.parametrize(
    "theta, param, extra",
    [
        ("theta2", (1.0, 2.0), {}),
        ("theta3", ((1.0,) * 4,) * 3, {}),
        ("scaling", (1.0,) * 4, {}),
        ("theta2", (1.0,) * 4, {"dims": (4, 2), "update_kind": "separate"}),
        ("theta1", ((1.0,) * 3,) * 4,
         {"kind": "cmpnn", "delta_kind": "delta1", "query_vectors": {"r": (1.0,) * 4}}),
        ("theta3", ((1.0,) * 4,) * 4,
         {"kind": "cmpnn", "delta_kind": "delta2", "query_vectors": {"r": (1.0,) * 3}}),
        ("theta3", ((1.0,) * 4,) * 4,
         {"kind": "cmpnn", "delta_kind": "delta3", "query_vectors": {"r": (1.0,) * 4},
          "node_noise": {"a": (0.5,) * 3}}),
    ],
    ids=["theta2-short", "theta3-3x4", "scaling-vector", "theta2-separate-width",
         "theta1-columns", "delta2-query-length", "delta3-noise-length"],
)
def test_spec_rejects_malformed_message_shapes(theta, param, extra):
    with pytest.raises(ValidationError):
        _spec_4x4(theta, param, **extra)


def test_spec_accepts_matching_message_shapes():
    g = from_triples([("a", "r", "b")], node_order=("a", "b"))
    spec = _spec_4x4("theta3", ((1.0,) * 4,) * 4)
    table = rmpnn_forward(g, spec, [(1.0,) * 4] * 2)
    assert table.vector(1, 1).shape == (4,)
    separate = _spec_4x4("theta3", ((1.0,) * 4,) * 2, dims=(4, 2), update_kind="separate")
    assert separate.relation_params[0]["r"][1] == (1.0,) * 4


def test_non_identity_history_needs_uniform_dims():
    with pytest.raises(ValidationError, match="history"):
        NetworkSpec(
            kind="rmpnn",
            num_layers=2,
            dims=(2, 3, 3),
            weights=(((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
                     ((0.0,) * 3,) * 3),
            biases=(None, None),
            relation_params=({}, {}),
            theta_kind="theta3",
            history=HistoryFunction.zero(),
        )


def test_simulator_accepts_sparse_color_ids():
    from relwl.graphs import KnowledgeGraph

    g = KnowledgeGraph(
        ("a", "b"), ("r",), ((0, 0, 1),), (0, 2), ("x", "y", "z")
    )
    spec, init = build_rwl1_simulator(g, 1)
    table = rmpnn_forward(g, spec, init)
    trace = run_test("rwl1", g, horizon=1)
    for t in range(2):
        assert equivalent(
            table.assignment(t), {v: trace.colorings[t][v] for v in range(2)}
        )


@st.composite
def _specs(draw):
    """Valid specs over every theta, delta, psi and update kind, both
    numeric modes, all history kinds, and optional noise and pair tables."""
    exact = draw(st.booleans())
    kind = draw(st.sampled_from(["rmpnn", "cmpnn"]))
    theta = draw(st.sampled_from([k for k in THETA_KINDS if kind == "cmpnn" or k != "theta1"]))
    delta = None
    if kind == "cmpnn":
        stochastic = ("delta3", "delta4") if exact else ()
        delta = draw(st.sampled_from([k for k in DELTA_KINDS if k not in stochastic]))
    update = draw(st.sampled_from(UPDATE_KINDS))
    psi = draw(st.sampled_from(PSI_KINDS)) if not exact and update == "combine" else "sum"
    layers, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    num = st.fractions(max_denominator=1000) if exact else floats

    def vec(size, elements=num):
        return st.lists(elements, min_size=size, max_size=size).map(tuple)

    def mat(rows, cols):
        return st.lists(vec(cols), min_size=rows, max_size=rows).map(tuple)

    def named(keys, values, required=False):
        tables = st.dictionaries(st.sampled_from(keys), values, min_size=int(required))
        return draw(tables if required else st.none() | tables)

    cols = d * (1 + PNA_WIDTH) if psi == "pna" else d
    param = {"theta1": mat(d, d), "theta2": vec(d), "theta3": mat(d, d), "scaling": num}[theta]
    relations, nodes = ("r0", "r1"), ("a", "b")
    history = draw(st.sampled_from(["identity", "zero", "table"]))
    if history == "table":
        values = [0]
        for step in draw(st.lists(st.integers(0, 2), max_size=6)):
            values.append(min(len(values), values[-1] + step))
        history = HistoryFunction.from_table(values[: draw(st.integers(0, len(values)))])
    else:
        history = HistoryFunction(history)
    return NetworkSpec(
        kind=kind,
        num_layers=layers,
        dims=(d,) * (layers + 1),
        weights=tuple(draw(mat(d, cols)) for _ in range(layers)),
        biases=tuple(draw(st.none() | vec(d)) for _ in range(layers)),
        relation_params=tuple(
            draw(st.dictionaries(st.sampled_from(relations), param)) for _ in range(layers)
        ),
        theta_kind=theta,
        psi_kind=psi,
        sigma_kind=draw(st.sampled_from(SIGMA_KINDS)),
        update_kind=update,
        history=history,
        numeric_mode="exact" if exact else "float64",
        delta_kind=delta,
        query_vectors=named(
            relations, vec(d), required=theta == "theta1" or delta in ("delta2", "delta3")
        ),
        pair_table=named(
            [(a, b) for a in nodes for b in nodes], vec(d), required=delta == "pair-table"
        ),
        rng_seed=draw(st.integers(0, 2**32)),
        node_noise=named(nodes, vec(d, floats)),
        query_noise=named(relations, vec(d, floats)),
        assert_nonzero_preactivation=draw(st.booleans()),
    )


@given(_specs())
@settings(max_examples=120, deadline=None)
def test_spec_json_round_trip_property(spec):
    doc = spec_to_json_dict(spec)
    restored = spec_from_json_dict(json.loads(json.dumps(doc)))
    assert restored == spec
    assert spec_to_json_dict(restored) == doc


def test_pair_rows_deterministic(graph_b):
    spec = _float_cmpnn(graph_b, seed=6)
    first = cmpnn_pair_table(graph_b, spec, "r")
    second = cmpnn_pair_table(graph_b, spec, "r")
    for t in range(spec.num_layers + 1):
        assert first.assignment(t) == second.assignment(t)  # bit-identical


def test_cmpnn_pair_table_spec_round_trip(graph_a):
    spec, _ = build_cmpnn_simulator(graph_a, 1)
    doc = json.loads(json.dumps(spec_to_json_dict(spec)))
    restored = spec_from_json_dict(doc)
    assert restored == spec
    left = cmpnn_pair_table(graph_a, spec, "r1")
    right = cmpnn_pair_table(graph_a, restored, "r1")
    for t in range(2):
        assert left.assignment(t) == right.assignment(t)
