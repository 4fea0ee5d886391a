import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwl.errors import (
    NodeBudgetError,
    PreconditionError,
    TripleFileError,
    UnknownEntityError,
    ValidationError,
)
from relwl.graphs import (
    augment,
    canonical_tree_code,
    default_pair_coloring,
    from_triples,
    load_graph,
    permute_nodes,
    product_square,
    unravel,
)

from conftest import random_permutation

# -- strategies -------------------------------------------------------------


@st.composite
def small_graphs(draw, n_max=5, r_max=2, with_colors=False):
    n = draw(st.integers(1, n_max))
    m = draw(st.integers(1, r_max))
    nodes = tuple(f"n{i}" for i in range(n))
    relations = tuple(f"r{i}" for i in range(m))
    triples = []
    for r in relations:
        for s in nodes:
            for t in nodes:
                if draw(st.booleans()):
                    triples.append((s, r, t))
    g = from_triples(triples, node_order=nodes, relation_order=relations)
    if with_colors:
        labels = {name: f"c{draw(st.integers(0, 1))}" for name in nodes}
        g = g.with_node_coloring(labels)
    return g


# -- loading ----------------------------------------------------------------


def test_load_graph_basic(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("v\tr1\tu\n# a comment\nv'\tr2\tu\n", encoding="utf-8")
    g = load_graph(path)
    assert len(g.node_names) == 3
    assert len(g.relation_names) == 2
    assert len(g.facts) == 2
    assert g.node_names == ("v", "u", "v'")  # first-appearance order


def test_load_graph_empty(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    g = load_graph(path)
    assert g.n == 0 and g.facts == ()


def test_load_graph_duplicate_line_is_one_fact(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("a\tr\tb\na\tr\tb\n", encoding="utf-8")
    g = load_graph(path)
    assert len(g.facts) == 1


def test_load_graph_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tr\tb\nbroken line\n", encoding="utf-8")
    with pytest.raises(TripleFileError, match=":2:"):
        load_graph(path)


def test_load_colors_unknown_node(tmp_path):
    triples = tmp_path / "g.tsv"
    triples.write_text("a\tr\tb\n", encoding="utf-8")
    colors = tmp_path / "c.tsv"
    colors.write_text("zzz\tred\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="unknown node"):
        load_graph(triples, colors)


def test_load_partial_colors_defaults(tmp_path):
    triples = tmp_path / "g.tsv"
    triples.write_text("a\tr\tb\n", encoding="utf-8")
    colors = tmp_path / "c.tsv"
    colors.write_text("a\tred\n", encoding="utf-8")
    g = load_graph(triples, colors)
    assert g.color_label_of("a") == "red"
    assert g.color_label_of("b") == "default"


def test_load_pair_colors_must_be_total(tmp_path):
    triples = tmp_path / "g.tsv"
    triples.write_text("a\tr\tb\n", encoding="utf-8")
    pairs = tmp_path / "p.tsv"
    pairs.write_text("a\ta\teq\na\tb\tneq\nb\ta\tneq\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="cover all"):
        load_graph(triples, pair_colors_file=pairs)
    pairs.write_text(
        "a\ta\teq\na\tb\tneq\nb\ta\tneq\nb\tb\teq\n", encoding="utf-8"
    )
    g = load_graph(triples, pair_colors_file=pairs)
    assert g.pair_coloring.tnd_flag


# -- neighborhoods ----------------------------------------------------------


def test_neighborhood_examples(graph_a, graph_b):
    assert graph_a.neighborhood("u", "r1") == {graph_a.node_id("v")}
    assert graph_a.neighborhood("v", "r1") == set()
    assert graph_b.neighborhood("u'", "r") == {graph_b.node_id("x")}


def test_neighborhood_unknown_entities(graph_a):
    with pytest.raises(UnknownEntityError):
        graph_a.neighborhood("nope", "r1")
    with pytest.raises(UnknownEntityError):
        graph_a.neighborhood("u", "nope")


# -- augment ----------------------------------------------------------------


def test_augment_example(graph_a):
    aug = augment(graph_a)
    assert set(aug.fact_names()) == {
        ("v", "r1", "u"),
        ("v'", "r2", "u"),
        ("u", "r1^-", "v"),
        ("u", "r2^-", "v'"),
    }


def test_augment_self_loop_not_mirrored():
    g = from_triples([("v", "r", "v")])
    aug = augment(g)
    assert set(aug.fact_names()) == {("v", "r", "v")}
    assert aug.relation_names == ("r", "r^-")


def test_augment_graph_b(graph_b):
    aug = augment(graph_b)
    assert set(aug.fact_names()) == {("x", "r", "u'"), ("u'", "r^-", "x")}


def test_augment_inverse_name_collision():
    g = from_triples([("a", "r", "b"), ("a", "r^-", "b")])
    aug = augment(g)
    assert len(set(aug.relation_names)) == 4


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_augment_vocabulary_fresh_and_sized(g):
    aug = augment(g)
    base = set(g.relation_names)
    fresh = set(aug.relation_names) - base
    assert len(fresh) == len(base)
    assert fresh.isdisjoint(base)


# -- product graph ----------------------------------------------------------


def _enumerate_product_facts(g):
    # independent oracle: walk the defining set comprehension literally
    out = set()
    for r, w, v in g.facts:
        for a in range(g.n):
            out.add((r, (a, w), (a, v)))
    return out


def test_product_square_graph_b(graph_b):
    sq = product_square(graph_b)
    assert sq.n == 16
    expected = _enumerate_product_facts(graph_b)
    actual = {
        (r, divmod(s, graph_b.n), divmod(t, graph_b.n)) for r, s, t in sq.facts
    }
    assert actual == expected
    assert len(sq.facts) == 4
    x, up = graph_b.node_id("x"), graph_b.node_id("u'")
    assert all(s[1] == x and t[1] == up for _, s, t in actual)


def test_product_square_no_facts():
    g = from_triples([], node_order=("a", "b", "c")).with_pair_coloring(
        default_pair_coloring(from_triples([], node_order=("a", "b", "c")))
    )
    sq = product_square(g)
    assert sq.n == 9 and sq.facts == ()


def test_product_square_graph_a(graph_a):
    sq = product_square(graph_a)
    assert sq.n == 9
    assert len(sq.facts) == graph_a.n * len(graph_a.facts) == 6


def test_product_square_needs_pair_coloring():
    g = from_triples([("a", "r", "b")])
    with pytest.raises(PreconditionError):
        product_square(g)


def test_product_square_colors_follow_pairs(graph_a):
    sq = product_square(graph_a)
    n = graph_a.n
    for u in range(n):
        for v in range(n):
            assert (
                sq.color_label_of(u * n + v)
                == graph_a.pair_coloring.label_of(u, v)
            )


@given(small_graphs())
@settings(max_examples=30, deadline=None)
def test_product_square_fact_count(g):
    g = g.with_pair_coloring(default_pair_coloring(g))
    assert len(product_square(g).facts) == g.n * len(g.facts)


# -- unravelling ------------------------------------------------------------


def _enumerate_paths(g, start, depth):
    # independent oracle: breadth-first path enumeration by definition
    paths = {(start,)}
    frontier = [(start,)]
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for rel, src in g.incoming(p[-1]):
                q = p + (src,)
                if q not in paths:
                    paths.add(q)
                    nxt.append(q)
        frontier = nxt
    return paths


def test_unravel_graph_b_examples(graph_b):
    up, x, v = (graph_b.node_id(k) for k in ("u'", "x", "v"))
    tree = unravel(graph_b, "u'", 1)
    assert set(tree.nodes) == {(up,), (up, x)}
    assert len(tree.facts) == 1
    assert tree.facts[0][0] == "r"

    lonely = unravel(graph_b, "v", 3)
    assert lonely.nodes == ((v,),)


def test_unravel_two_cycle():
    g = from_triples([("a", "r", "b"), ("b", "r", "a")], node_order=("a", "b"))
    tree = unravel(g, "a", 2)
    a, b = 0, 1
    assert set(tree.nodes) == _enumerate_paths(g, a, 2) == {(a,), (a, b), (a, b, a)}


def test_unravel_budget(monkeypatch):
    g = from_triples([("a", "r", "b"), ("b", "r", "a")])
    with pytest.raises(NodeBudgetError):
        unravel(g, "a", 50, node_budget=10)
    monkeypatch.setenv("RELWL_NODE_BUDGET", "10")
    with pytest.raises(NodeBudgetError):
        unravel(g, "a", 50)


def test_unravel_facts_mirror_source(graph_b):
    tree = unravel(graph_b, "u'", 3)
    for rel, child, parent in tree.facts:
        assert child[:-1] == parent
        assert graph_b.has_fact(rel, child[-1], parent[-1])


@given(small_graphs(), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_unravel_prefix_property(g, depth):
    tree_l = unravel(g, 0, depth, node_budget=20000)
    tree_l1 = unravel(g, 0, depth + 1, node_budget=200000)
    restricted = {p for p in tree_l1.nodes if len(p) <= depth + 1}
    assert restricted == set(tree_l.nodes)
    restricted_facts = {
        f for f in tree_l1.facts if len(f[1]) <= depth + 1
    }
    assert restricted_facts == set(tree_l.facts)


def test_tree_code_single_nodes():
    g1 = from_triples([], node_order=("a",)).with_node_coloring({"a": "red"})
    g2 = from_triples([], node_order=("zz",)).with_node_coloring({"zz": "red"})
    assert canonical_tree_code(unravel(g1, "a", 2)) == canonical_tree_code(
        unravel(g2, "zz", 2)
    )
    g3 = from_triples([], node_order=("a",)).with_node_coloring({"a": "blue"})
    assert canonical_tree_code(unravel(g1, "a", 0)) != canonical_tree_code(
        unravel(g3, "a", 0)
    )


def test_tree_code_different_shapes(graph_b):
    assert canonical_tree_code(unravel(graph_b, "u'", 1)) != canonical_tree_code(
        unravel(graph_b, "v", 1)
    )


def test_tree_code_tracks_node_refinement_on_cyclic_graphs():
    # codes at depth L split nodes exactly like L refinement rounds,
    # cycles included (paths stay finite for bounded L)
    from relwl.corpus import random_kg
    from relwl.wl import run_test

    for seed in range(15):
        g = random_kg(seed + 300, 6, 2, 0.4, n_colors=2)
        for depth in range(4):
            trace = run_test("rwl1", g, horizon=depth)
            codes = [
                canonical_tree_code(unravel(g, v, depth, node_budget=100_000))
                for v in range(g.n)
            ]
            colors = trace.colorings[depth]
            for u in range(g.n):
                for v in range(g.n):
                    assert (codes[u] == codes[v]) == (colors[u] == colors[v])


@given(small_graphs(with_colors=True), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_tree_code_invariant_under_relabeling(g, rng):
    perm = random_permutation(rng, g.n)
    h = permute_nodes(g, perm)
    for v in range(g.n):
        code_g = canonical_tree_code(unravel(g, v, 2, node_budget=100000))
        code_h = canonical_tree_code(unravel(h, perm[v], 2, node_budget=100000))
        assert code_g == code_h


# -- pair colorings ---------------------------------------------------------


def test_default_pair_coloring_diagonal(graph_a):
    pc = graph_a.pair_coloring
    labels = [pc.label_of(u, v) for u in range(3) for v in range(3)]
    assert labels.count("eq") == 3
    assert labels.count("neq") == 6
    assert pc.tnd_flag


def test_default_pair_coloring_single_node():
    g = from_triples([], node_order=("a",))
    pc = default_pair_coloring(g)
    assert pc.label_of(0, 0) == "eq"
    assert pc.tnd_flag  # vacuously: no off-diagonal pair exists


def test_colored_diagonal_mode():
    g = from_triples([("a", "r", "b")], node_order=("a", "b"))
    g = g.with_node_coloring({"a": "red", "b": "blue"})
    pc = default_pair_coloring(g, "colored-diagonal")
    assert pc.tnd_flag
    assert pc.label_of(0, 0) != pc.label_of(1, 1)  # node colors split diagonal


def test_pair_coloring_tnd_flag_detects_violation():
    from relwl.graphs import PairColoring

    pc = PairColoring(2, (0, 0, 1, 0), ("a", "b"))
    assert not pc.tnd_flag


# -- permutation invariance -------------------------------------------------


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_product_square_commutes_with_permutation(g, rng):
    g = g.with_pair_coloring(default_pair_coloring(g))
    perm = random_permutation(rng, g.n)
    h = permute_nodes(g, perm)
    n = g.n
    sq_g, sq_h = product_square(g), product_square(h)
    remapped = {
        (r, (perm[s // n], perm[s % n]), (perm[t // n], perm[t % n]))
        for r, s, t in sq_g.facts
    }
    actual = {
        (r, divmod(s, n), divmod(t, n)) for r, s, t in sq_h.facts
    }
    assert remapped == actual
    for u in range(n):
        for v in range(n):
            assert (
                sq_g.color_label_of(u * n + v)
                == sq_h.color_label_of(perm[u] * n + perm[v])
            )


@given(small_graphs(with_colors=True), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_operations_commute_with_permutation(g, rng):
    perm = random_permutation(rng, g.n)
    h = permute_nodes(g, perm)
    # neighborhoods map through the permutation
    for v in range(g.n):
        for r in range(len(g.relation_names)):
            assert {perm[w] for w in g.neighborhood(v, r)} == h.neighborhood(
                perm[v], r
            )
    # augment commutes with relabeling
    assert set(permute_nodes(augment(g), perm).fact_names()) == set(
        augment(h).fact_names()
    )
    # colors follow nodes
    for v in range(g.n):
        assert g.color_label_of(v) == h.color_label_of(perm[v])


# -- the edge arrays ------------------------------------------------------------


@given(small_graphs(n_max=7, r_max=3))
@settings(max_examples=40, deadline=None)
def test_incoming_and_neighborhood_read_the_edge_arrays(g):
    for v in range(g.n):
        # the facts into v, in the order of G.facts
        assert g.incoming(v) == tuple((r, s) for r, s, t in g.facts if t == v)
        assert g.incoming(g.node_names[v]) == g.incoming(v)
        for r in range(len(g.relation_names)):
            expected = {s for rel, s, t in g.facts if rel == r and t == v}
            assert g.neighborhood(v, r) == expected
            assert g.neighborhood(g.node_names[v], g.relation_names[r]) == expected
    rel, src, dst = g.edges
    assert sorted(zip(rel.tolist(), src.tolist(), dst.tolist())) == list(g.facts)
    assert list(dst) == sorted(dst)
    for column in g.edges:
        assert column.dtype == np.int64 and not column.flags.writeable
        with pytest.raises(ValueError):
            column[:1] = 0
        with pytest.raises(ValueError):
            column.flags.writeable = True
    assert g.edges is g.edges  # built once
