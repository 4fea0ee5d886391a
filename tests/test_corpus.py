import pytest

from relwl.corpus import (
    FIXTURE_NAMES,
    check_claim,
    fixture,
    random_dag_kg,
    random_kg,
)
from relwl.errors import UnknownEntityError
from relwl.graphs import unravel


def test_all_fixture_claims_hold():
    observed = 0
    for name in FIXTURE_NAMES:
        fx = fixture(name)
        for claim in fx.claims:
            ok, got = check_claim(fx, claim)
            assert ok, (name, claim, got)
            observed += 1
    assert observed == 9


def test_claim_verdicts_are_python_ints():
    # suite_fixtures writes repr(observed) into its witnesses and the cli
    # dumps them as JSON, so a numpy int would show as np.int64(1) or fail
    for name in FIXTURE_NAMES:
        fx = fixture(name)
        for claim in fx.claims:
            _, observed = check_claim(fx, claim)
            assert observed is None or type(observed) is int, (name, claim)


def test_fixture_graphs_match_their_tables():
    ga = fixture("ga")
    assert set(ga.graph.node_names) == {"u", "v", "v'"}
    assert set(ga.graph.fact_names()) == {("v", "r1", "u"), ("v'", "r2", "u")}
    gd = fixture("gd")
    assert set(gd.graph.fact_names()) == {("v", "r1", "x"), ("v'", "r2", "x'")}
    for name in FIXTURE_NAMES:
        assert fixture(name).graph.pair_coloring.tnd_flag


def test_fixture_unknown_name():
    with pytest.raises(UnknownEntityError):
        fixture("gz")


def test_random_kg_deterministic():
    a = random_kg(7, 6, 3, 0.4, n_colors=2)
    b = random_kg(7, 6, 3, 0.4, n_colors=2)
    assert a == b


def test_random_kg_density_extremes():
    assert random_kg(3, 5, 2, 0.0).facts == ()
    g = random_kg(0, 2, 1, 1.0)  # seed 0 draws n=2, one relation
    assert g.n == 2 and len(g.relation_names) == 1
    assert len(g.facts) == 4


def test_random_dag_kg_is_acyclic():
    for seed in range(10):
        g = random_dag_kg(seed, 8, 2, 0.5)
        for r, s, t in g.facts:
            assert s > t
        # every unravelling terminates without a budget scare
        for v in range(g.n):
            unravel(g, v, 4, node_budget=100_000)
