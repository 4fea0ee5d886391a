"""Exact mode on integers, checked against the ``Fraction`` oracle.

The exact forward holds each layer as integer numerators over one
denominator.  The differential test draws rationals with numerators and
denominators up to 2^70, so the denominators of weights, biases, messages
and features all differ.  Every layer must equal ``forward_reference``
(``==``, with ``Fraction`` entries), and the partitions of ``assignment``
must be those of the reference rows.  The other tests pin the zero
pre-activation guard and run the conditional simulators at |V| = 8.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwl.corpus import random_history, random_kg
from relwl.errors import ValidationError
from relwl.graphs import default_pair_coloring, from_triples
from relwl.networks import (
    SIGMA_KINDS,
    THETA_KINDS,
    NetworkSpec,
    build_cmpnn_simulator,
    cmpnn_forward,
    cmpnn_pair_table,
    rmpnn_forward,
)
from relwl.wl import HistoryFunction, equivalent, run_test

from forward_reference import reference_cmpnn_row, reference_rmpnn

WIDE = 2**70
# "quiet" has facts but never a message parameter; "absent" has a
# parameter but is not a relation of the graph
RELATIONS = ("r0", "r1", "quiet")


def _rationals():
    wide = st.builds(Fraction, st.integers(-WIDE, WIDE), st.integers(1, WIDE))
    small = st.sampled_from((Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)))
    return st.one_of(wide, small)


@st.composite
def _cases(draw):
    """A graph, an exact network on it, and its inputs: initial features
    for an R-MPNN, or a query and a source for a C-MPNN."""
    init = draw(st.sampled_from(("rmpnn", "delta1", "delta2", "pair-table")))
    theta = draw(st.sampled_from(THETA_KINDS[1:] if init == "rmpnn" else THETA_KINDS))
    update = draw(st.sampled_from(("combine", "separate")))
    layers, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 4)))]
    node = st.sampled_from(nodes)
    facts = draw(st.lists(st.tuples(node, st.sampled_from(RELATIONS), node), max_size=8))
    g = from_triples(
        facts + [(nodes[0], "quiet", nodes[-1])], node_order=nodes, relation_order=RELATIONS
    )

    def vec(k):
        return tuple(draw(_rationals()) for _ in range(k))

    def mat(rows, cols):
        return tuple(vec(cols) for _ in range(rows))

    # separate sums elementwise messages into the output width
    last = dim if update == "separate" and theta != "theta3" else draw(st.integers(1, 3))
    dims = (dim,) * layers + (last,)
    weights, biases, rel_params = [], [], []
    for t in range(layers):
        d_in, d_out = dims[t], dims[t + 1]
        weights.append(mat(d_out, d_in))
        biases.append(vec(d_out) if draw(st.booleans()) else None)
        params = {}
        for name in ("r0", "r1", "absent"):
            if draw(st.booleans()):
                params[name] = {
                    "theta1": lambda: mat(d_in, dim),
                    "theta2": lambda: vec(d_in),
                    "theta3": lambda: mat(d_in if update == "combine" else d_out, d_in),
                    "scaling": lambda: draw(_rationals()),
                }[theta]()
        rel_params.append(params)
    history = draw(st.sampled_from(("identity", "zero", "table")))
    if history == "table":
        hist = random_history(random.Random(draw(st.integers(0, 999))), layers)
    else:
        hist = HistoryFunction(history)
    extra = {}
    if init != "rmpnn":
        extra["delta_kind"] = init
        extra["query_vectors"] = {name: vec(dim) for name in RELATIONS}
        if init == "pair-table":
            extra["pair_table"] = {(a, b): vec(dim) for a in nodes for b in nodes}
    spec = NetworkSpec(
        kind="rmpnn" if init == "rmpnn" else "cmpnn",
        num_layers=layers,
        dims=dims,
        weights=tuple(weights),
        biases=tuple(biases),
        relation_params=tuple(rel_params),
        theta_kind=theta,
        sigma_kind=draw(st.sampled_from(SIGMA_KINDS)),
        update_kind=update,
        history=hist,
        numeric_mode="exact",
        **extra,
    )
    if init == "rmpnn":
        return g, spec, [vec(dim) for _ in nodes]
    return g, spec, (draw(st.sampled_from(RELATIONS)), draw(st.integers(0, len(nodes) - 1)))


def _assert_matches(table, reference):
    """``reference[t]`` maps every key of ``table`` to its reference row."""
    assert table.num_layers == len(reference) - 1
    for t, rows in enumerate(reference):
        assert sorted(table.keys()) == sorted(rows)
        for key, expected in rows.items():
            got = table.vector(t, key)
            assert got == expected
            assert all(type(x) is Fraction for x in got)
        assert equivalent(table.assignment(t), rows)


@given(_cases())
@settings(max_examples=150, deadline=None)
def test_wide_rationals_match_the_reference(case):
    g, spec, inputs = case
    if spec.kind == "rmpnn":
        reference = reference_rmpnn(g, spec, inputs)
        _assert_matches(rmpnn_forward(g, spec, inputs), [dict(enumerate(r)) for r in reference])
        return
    query, source = inputs
    rows = {u: reference_cmpnn_row(g, spec, query, u) for u in range(g.n)}
    layers = range(spec.num_layers + 1)
    pairs = [{(u, v): row[t][v] for u, row in rows.items() for v in range(g.n)} for t in layers]
    single = [{(source, v): rows[source][t][v] for v in range(g.n)} for t in layers]
    _assert_matches(cmpnn_pair_table(g, spec, query), pairs)
    _assert_matches(cmpnn_forward(g, spec, query, source), single)


# -- the zero pre-activation guard ---------------------------------------------

F = Fraction
LINE = from_triples([("a", "r", "b")], node_order=("a", "b"))  # a -r-> b


def _sign_spec(weights, biases, params, theta="scaling", update="combine", **extra):
    layers = len(weights)
    return NetworkSpec(
        kind="cmpnn" if "delta_kind" in extra else "rmpnn",
        num_layers=layers,
        dims=(1,) * (layers + 1),
        weights=weights,
        biases=biases,
        relation_params=params,
        theta_kind=theta,
        sigma_kind="sign",
        update_kind=update,
        numeric_mode="exact",
        assert_nonzero_preactivation=True,
        **extra,
    )


DELTA1 = _sign_spec(
    (((F(1),),),), ((F(-1),),), ({"r": (F(1),)},), theta="theta2", delta_kind="delta1"
)

# each row: a spec whose pre-activation is exactly 0 somewhere, and its
# inputs: initial features, or a query and a source (None: the pair table)
ZERO_CASES = {
    # node a: 1 * 1/3 - 1/3
    "rmpnn, bias cancels": (
        _sign_spec((((F(1),),),), ((F(-1, 3),),), ({"r": F(1, 2)},)),
        [(F(1, 3),), (F(1, 5),)],
    ),
    # node b only: 2 * 1/6 + 3/4 * 1/3 - 7/12; node a: 2/3 - 7/12 != 0
    "rmpnn, separate update": (
        _sign_spec((((F(2),),),), ((F(-7, 12),),), ({"r": F(3, 4)},), update="separate"),
        [(F(1, 3),), (F(1, 6),)],
    ),
    # layer 1 is nonzero everywhere, layer 2 has a zero weight
    "rmpnn, second layer": (
        _sign_spec((((F(1),),), ((F(0),),)), (None, None), ({"r": F(1)}, {"r": F(1)})),
        [(F(1),), (F(2),)],
    ),
    # pair (a, a): 1 * (1 + 0) - 1
    "cmpnn, delta1, pair table": (DELTA1, ("r", None)),
    "cmpnn, delta1, one source": (DELTA1, ("r", 0)),
    # pairs (u, a), which receive no message: 2 * 1/2 - 1
    "cmpnn, pair-table, theta3": (
        _sign_spec(
            (((F(2),),),),
            ((F(-1),),),
            ({"r": ((F(5, 7),),)},),
            theta="theta3",
            delta_kind="pair-table",
            pair_table={(u, v): (F(1, 2),) for u in "ab" for v in "ab"},
        ),
        ("r", None),
    ),
}


@pytest.mark.parametrize("spec, inputs", ZERO_CASES.values(), ids=ZERO_CASES.keys())
def test_zero_preactivation_raises(spec, inputs):
    if spec.kind == "rmpnn":
        runs = (rmpnn_forward, reference_rmpnn)
    else:
        query, source = inputs
        if source is None:
            forward = lambda g, spec, _: cmpnn_pair_table(g, spec, query)  # noqa: E731
        else:
            forward = lambda g, spec, _: cmpnn_forward(g, spec, query, source)  # noqa: E731
        runs = (forward, lambda g, spec, _: reference_cmpnn_row(g, spec, query, source or 0))
    for run in runs:
        with pytest.raises(ValidationError, match="^constructive network hit a zero pre-activation$"):
            run(LINE, spec, inputs)


# -- conditional simulators at |V| = 8 --------------------------------------------


@pytest.mark.parametrize("seed", [9, 11])
def test_conditional_simulators_at_eight_nodes(seed):
    g = random_kg(seed, n_max=8, r_max=2, density=0.3)
    assert g.n == 8
    g = g.with_pair_coloring(default_pair_coloring(g))
    for history in (HistoryFunction.identity(), HistoryFunction.zero()):
        spec, _ = build_cmpnn_simulator(g, 3, history)
        table = cmpnn_pair_table(g, spec, g.relation_names[0])
        trace = run_test("rawl2", g, history, horizon=3)
        for t in range(4):
            assignment = table.assignment(t)
            reference = {key: trace.colorings[t][trace.index_of(key)] for key in assignment}
            assert equivalent(assignment, reference), (history.kind, t)
