"""Layer-0 rows of the noise initialisations ``delta3`` / ``delta4``."""

import json
from dataclasses import replace

import numpy as np
import pytest

from relwl.errors import UnknownEntityError
from relwl.graphs import from_triples
from relwl.networks import (
    NetworkSpec,
    cmpnn_forward,
    spec_from_json_dict,
    spec_to_json_dict,
)

DIM = 3


def _graph():
    return from_triples([("a", "r", "b"), ("b", "s", "c")], node_order=("a", "b", "c"))


def _spec(g, delta_kind, **extra):
    rng = np.random.default_rng(0)
    return NetworkSpec(
        kind="cmpnn",
        num_layers=1,
        dims=(DIM, DIM),
        weights=(tuple(map(tuple, rng.standard_normal((DIM, DIM)).tolist())),),
        biases=(None,),
        relation_params=({name: 0.5 for name in g.relation_names},),
        theta_kind="scaling",
        delta_kind=delta_kind,
        **extra,
    )


def _row(g, spec, query, source):
    u = g.node_id(source)
    table = cmpnn_forward(g, spec, query, source)
    return [np.asarray(table.vector(0, (u, v))).tolist() for v in range(g.n)]


def test_delta4_row_is_the_explicit_query_noise():
    g = _graph()
    noise = {"r": (0.25, -1.5, 2.0), "s": (1.0, 0.0, -0.5)}
    row = _row(g, _spec(g, "delta4", query_noise=noise), "s", "b")
    assert row == [[0.0] * DIM, list(noise["s"]), [0.0] * DIM]


def test_delta4_seeded_default_is_reproducible():
    g = _graph()
    spec = _spec(g, "delta4", rng_seed=7)
    expected = np.random.default_rng([7, g.relation_id("r")]).standard_normal(DIM)
    first = _row(g, spec, "r", "a")
    assert first == _row(g, spec, "r", "a")
    assert first == [expected.tolist(), [0.0] * DIM, [0.0] * DIM]
    # one vector per query, whatever the source
    assert _row(g, spec, "r", "c")[2] == expected.tolist()
    assert _row(g, replace(spec, rng_seed=8), "r", "a")[0] != first[0]
    assert _row(g, spec, "s", "a")[0] != first[0]


def test_delta4_needs_no_query_vector():
    g = _graph()
    spec = _spec(g, "delta4", rng_seed=1, query_vectors={"r": (1.0, 1.0, 1.0)})
    expected = np.random.default_rng([1, g.relation_id("s")]).standard_normal(DIM)
    assert _row(g, spec, "s", "a")[0] == expected.tolist()


def test_missing_noise_entries_raise_unknown_entity():
    g = _graph()
    spec4 = _spec(g, "delta4", query_noise={"r": (0.0, 0.0, 1.0)})
    with pytest.raises(UnknownEntityError, match="no query noise for 's'"):
        cmpnn_forward(g, spec4, "s", "a")
    spec3 = _spec(
        g, "delta3", query_vectors={"r": (1.0,) * DIM}, node_noise={"a": (0.0,) * DIM}
    )
    assert _row(g, spec3, "r", "a")[0] == [1.0] * DIM
    with pytest.raises(UnknownEntityError, match="no node noise for 'b'"):
        cmpnn_forward(g, spec3, "r", "b")


def test_delta4_spec_json_round_trip():
    g = _graph()
    noise = {"r": (0.5, -0.25, 1.0), "s": (2.0, 0.0, -1.0)}
    spec = _spec(g, "delta4", rng_seed=3, query_noise=noise)
    restored = spec_from_json_dict(json.loads(json.dumps(spec_to_json_dict(spec))))
    assert restored == spec
    assert _row(g, restored, "s", "c") == _row(g, spec, "s", "c")
