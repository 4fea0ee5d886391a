"""The counting builders against the dense rational reference.

``build_rwl1_simulator`` and ``build_cmpnn_simulator`` count colours and use
a closed-form basis inverse; ``builder_reference`` multiplies dense Fraction
matrices.  Specs and initial features must be equal, not just equivalent.
"""

import random

from relwl.corpus import random_history, random_kg
from relwl.graphs import default_pair_coloring
from relwl.networks import (
    _times_basis_inverse,
    build_cmpnn_simulator,
    build_rwl1_simulator,
    sign_basis,
)
from relwl.wl import HistoryFunction

from builder_reference import (
    identity,
    mat_mul,
    reference_cmpnn_simulator,
    reference_rwl1_simulator,
)


def test_closed_form_basis_inverse():
    for n in range(1, 9):
        M = tuple(
            _times_basis_inverse([int(i == j) for j in range(n)]) for i in range(n)
        )
        assert mat_mul(M, sign_basis(n)) == identity(n)
        assert mat_mul(sign_basis(n), M) == identity(n)


def test_rwl1_simulator_equals_reference():
    rng = random.Random(0)
    sizes = set()
    for seed in range(48):
        g = random_kg(
            seed, n_max=7, r_max=3, density=0.15 + 0.1 * (seed % 5), n_colors=1 + seed % 3
        )
        layers = 1 + seed % 4
        histories = (
            HistoryFunction.identity(),
            HistoryFunction.zero(),
            random_history(rng, layers),
        )
        for history in histories:
            got = build_rwl1_simulator(g, layers, history)
            assert got == reference_rwl1_simulator(g, layers, history), (seed, history)
        sizes.add(g.n)
    assert 7 in sizes


def test_cmpnn_simulator_equals_reference():
    sizes = set()
    for seed in range(10):
        g = random_kg(seed, n_max=5, r_max=2, density=0.3, n_colors=1 + seed % 2)
        mode = "colored-diagonal" if seed % 2 else "diagonal"
        g = g.with_pair_coloring(default_pair_coloring(g, mode))
        layers = seed % 3 + 1
        history = HistoryFunction.zero() if seed % 4 == 1 else HistoryFunction.identity()
        got = build_cmpnn_simulator(g, layers, history)
        assert got == reference_cmpnn_simulator(g, layers, history), seed
        sizes.add(g.n)
    assert 5 in sizes and 4 in sizes
