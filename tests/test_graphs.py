import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relwl.errors import (
    NodeBudgetError,
    PreconditionError,
    TripleFileError,
    UnknownEntityError,
    ValidationError,
)
from relwl.graphs import (
    KnowledgeGraph,
    PairColoring,
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
from graph_reference import (
    reference_augment,
    reference_default_pair_coloring,
    reference_edges,
    reference_from_triples,
    reference_permute_nodes,
    reference_product_square,
    reference_tnd,
    reference_with_node_coloring,
    reference_with_pair_coloring,
)

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


# -- every error path, with its exact message -----------------------------------


def _tsv(directory, name, text):
    path = directory / name
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return path


def _ab():
    """Two nodes, one relation, one fact, the diagonal pair coloring."""
    g = from_triples([("a", "r", "b")], node_order=("a", "b"))
    return g.with_pair_coloring(default_pair_coloring(g))


def _load_with(kind, text):
    """Load the one-fact graph ``a r b`` plus a ``kind`` file holding ``text``."""

    def run(directory):
        triples = _tsv(directory, "g.tsv", "a\tr\tb\n")
        side = _tsv(directory, f"{kind}.tsv", text)
        load_graph(triples, **{f"{kind}_file": side})

    return run


def _undecodable_then_valid(directory, monkeypatch):
    # the file changes between the streaming read and the re-read
    path = _tsv(directory, "g.tsv", b"\xff\tr\tb\n")
    monkeypatch.setattr(Path, "read_bytes", lambda self: b"a\tr\tb\n")
    load_graph(path)


def _kg(nodes, relations, facts, colors, labels=("default",), pc=None):
    return lambda: KnowledgeGraph(nodes, relations, facts, colors, labels, pc)


# (id, thunk, exception type, exact message); a thunk that takes arguments
# gets a scratch directory and, if it asks, the monkeypatch fixture.  {dir}
# in a message stands for that directory.
ERROR_CASES = [
    ("pc-not-total", lambda: PairColoring(2, (0, 1, 1), ("a", "b")), ValidationError,
     "pair coloring must be total: expected 4 entries, got 3"),
    ("pc-id-high", lambda: PairColoring(2, (0, 1, 1, 2), ("a", "b")), ValidationError,
     "pair color id 2 out of range"),
    ("pc-id-negative", lambda: PairColoring(2, (0, -1, 1, 0), ("a", "b")), ValidationError,
     "pair color id -1 out of range"),
    ("kg-duplicate-nodes", _kg(("a", "a"), (), (), (0, 0)), ValidationError,
     "duplicate node names"),
    ("kg-duplicate-relations", _kg(("a",), ("r", "r"), (), (0,)), ValidationError,
     "duplicate relation names"),
    ("kg-colors-partial", _kg(("a", "b"), ("r",), (), (0,)), ValidationError,
     "node coloring must cover every node"),
    ("kg-color-high", _kg(("a", "b"), (), (), (0, 1)), ValidationError,
     "node color id 1 out of range"),
    ("kg-color-negative", _kg(("a", "b"), (), (), (-1, 0)), ValidationError,
     "node color id -1 out of range"),
    ("kg-unsorted", _kg(("a", "b"), ("r",), ((0, 1, 0), (0, 0, 1)), (0, 0)),
     ValidationError, "facts must be sorted and deduplicated"),
    ("kg-duplicate-fact", _kg(("a", "b"), ("r",), ((0, 0, 1), (0, 0, 1)), (0, 0)),
     ValidationError, "facts must be sorted and deduplicated"),
    ("kg-unsorted-before-range", _kg(("a", "b"), ("r",), ((0, 0, 9), (0, 0, 1)), (0, 0)),
     ValidationError, "facts must be sorted and deduplicated"),
    ("kg-target-high", _kg(("a", "b"), ("r",), ((0, 0, 1), (0, 0, 2)), (0, 0)),
     ValidationError, "fact (0,0,2) references unknown ids"),
    ("kg-first-bad-fact", _kg(("a", "b"), ("r",), ((0, 0, 5), (0, 1, 7)), (0, 0)),
     ValidationError, "fact (0,0,5) references unknown ids"),
    ("kg-relation-high", _kg(("a", "b"), ("r",), ((0, 0, 1), (1, 0, 0)), (0, 0)),
     ValidationError, "fact (1,0,0) references unknown ids"),
    ("kg-source-negative", _kg(("a", "b"), ("r",), ((0, -1, 0),), (0, 0)),
     ValidationError, "fact (0,-1,0) references unknown ids"),
    ("kg-id-past-int64", _kg(("a", "b"), ("r",), ((0, 0, 1), (0, 0, 2**63)), (0, 0)),
     ValidationError, f"fact (0,0,{2**63}) references unknown ids"),
    ("kg-float-id", _kg(("a", "b"), ("r",), ((0, 0, 0.5),), (0, 0)), ValidationError,
     "facts must be (relation, source, target) triples of integer ids"),
    ("kg-integral-float-id", _kg(("a", "b"), ("r",), ((0, 0, 1.0),), (0, 0)),
     ValidationError, "facts must be (relation, source, target) triples of integer ids"),
    ("kg-string-ids", _kg(("a", "b"), ("r",), (("r", "a", "b"),), (0, 0)),
     ValidationError, "facts must be (relation, source, target) triples of integer ids"),
    ("kg-pair-fact", _kg(("a", "b"), ("r",), ((0, 1),), (0, 0)), ValidationError,
     "facts must be (relation, source, target) triples of integer ids"),
    ("kg-ragged-facts", _kg(("a", "b"), ("r",), ((0, 0, 1), (0, 1)), (0, 0)),
     ValidationError, "facts must be (relation, source, target) triples of integer ids"),
    ("kg-empty-fact", _kg(("a", "b"), ("r",), ((),), (0, 0)), ValidationError,
     "facts must be (relation, source, target) triples of integer ids"),
    ("kg-float-color", _kg(("a", "b"), (), (), (0, 1.0), ("x", "y")), ValidationError,
     "node color ids must be integers"),
    ("kg-nested-color", _kg(("a", "b"), (), (), (0, (1,)), ("x", "y")), ValidationError,
     "node color ids must be integers"),
    ("pc-float-id", lambda: PairColoring(2, (0, 1, 1, 0.5), ("x", "y")), ValidationError,
     "pair color ids must be integers"),
    ("perm-floats", lambda: permute_nodes(_ab(), (1.0, 0.0)), ValidationError,
     "perm must be a permutation of node ids"),
    ("kg-pc-size",
     _kg(("a",), (), (), (0,), pc=PairColoring(2, (0, 1, 1, 0), ("eq", "neq"))),
     ValidationError, "pair coloring sized for a different graph"),
    ("node-id", lambda: _ab().node_id("zz"), UnknownEntityError, "unknown node 'zz'"),
    ("relation-id", lambda: _ab().relation_id("zz"), UnknownEntityError,
     "unknown relation 'zz'"),
    ("node-id-high", lambda: _ab().incoming(2), UnknownEntityError,
     "node id 2 out of range"),
    ("node-id-negative", lambda: _ab().color_label_of(-1), UnknownEntityError,
     "node id -1 out of range"),
    ("relation-id-high", lambda: _ab().neighborhood(0, 1), UnknownEntityError,
     "relation id 1 out of range"),
    ("recolor-unknown", lambda: _ab().with_node_coloring({"zz": "red"}), ValidationError,
     "color assignment for unknown node 'zz'"),
    ("tsv-fields", lambda d: load_graph(_tsv(d, "g.tsv", "a\tr\tb\nbroken line\n")),
     TripleFileError,
     "{dir}/g.tsv:2: expected 3 non-empty tab-separated fields, got ['broken line']"),
    ("tsv-utf8", lambda d: load_graph(_tsv(d, "g.tsv", b"a\tr\tb\n\xff\tr\tb\n")),
     TripleFileError, "{dir}/g.tsv:2: not valid UTF-8 (invalid start byte)"),
    ("tsv-utf8-changed", _undecodable_then_valid, UnicodeDecodeError,
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("colors-unknown-node", _load_with("colors", "zz\tred\n"), ValidationError,
     "{dir}/colors.tsv:1: color for unknown node 'zz'"),
    ("colors-conflict", _load_with("colors", "a\tred\na\tblue\n"), ValidationError,
     "{dir}/colors.tsv:2: conflicting colors for node 'a'"),
    ("pairs-unknown-node", _load_with("pair_colors", "a\tzz\teq\n"), ValidationError,
     "{dir}/pair_colors.tsv:1: unknown node 'zz'"),
    ("pairs-conflict", _load_with("pair_colors", "a\tb\tx\na\tb\ty\n"), ValidationError,
     "{dir}/pair_colors.tsv:2: conflicting colors for pair ('a', 'b')"),
    ("pairs-partial", _load_with("pair_colors", "a\ta\teq\na\tb\tneq\nb\ta\tneq\n"),
     ValidationError, "{dir}/pair_colors.tsv: pair coloring must cover all 4 ordered "
     "pairs, got 3"),
    ("pc-mode", lambda: default_pair_coloring(_ab(), "nope"), ValidationError,
     "unknown pair coloring mode 'nope'"),
    ("square-without-pc", lambda: product_square(from_triples([("a", "r", "b")])),
     PreconditionError, "product_square needs a pair coloring; attach one first "
     "(see default_pair_coloring)"),
    ("unravel-depth", lambda: unravel(_ab(), "b", -1), ValidationError,
     "depth must be >= 0"),
    ("unravel-budget",
     lambda: unravel(from_triples([("a", "r", "b"), ("b", "r", "a")]), "a", 50, 10),
     NodeBudgetError, "unravelling exceeded the node budget of 10"),
    ("perm-repeat", lambda: permute_nodes(_ab(), (0, 0)), ValidationError,
     "perm must be a permutation of node ids"),
    ("perm-short", lambda: permute_nodes(_ab(), (0,)), ValidationError,
     "perm must be a permutation of node ids"),
]


@pytest.mark.parametrize(
    "thunk, exc, message",
    [case[1:] for case in ERROR_CASES],
    ids=[case[0] for case in ERROR_CASES],
)
def test_every_graph_error_is_reached(thunk, exc, message, tmp_path, monkeypatch):
    args = (tmp_path, monkeypatch)[: thunk.__code__.co_argcount]
    with pytest.raises(exc) as caught:
        thunk(*args)
    assert type(caught.value) is exc
    assert str(caught.value) == message.format(dir=tmp_path)


# -- derived graphs against the Python reference -------------------------------

NAME = st.text(alphabet="ab,()", min_size=1, max_size=3)


@st.composite
def named_graphs(draw):
    """A graph of 0-8 nodes whose names may hold ``,()``, with self-loops,
    isolated nodes, colors and a pair coloring, plus a permutation."""
    nodes = draw(st.lists(NAME, unique=True, max_size=8))
    relations = draw(st.lists(NAME, unique=True, min_size=1, max_size=3))
    triples = draw(
        st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(relations),
                           st.sampled_from(nodes)), max_size=20)
        if nodes else st.just([])
    )
    node_order = nodes[: draw(st.integers(0, len(nodes)))]
    # a node missing from both the triples and node_order is not in the graph
    node_order += [v for v in nodes if v not in node_order and draw(st.booleans())]
    relation_order = relations[: draw(st.integers(0, len(relations)))]
    labels = {v: draw(st.sampled_from(["x", "y", "default"]))
              for v in nodes if draw(st.booleans())}
    perm = draw(st.permutations(range(len(nodes))))
    colors = draw(st.lists(st.integers(0, 2), min_size=len(nodes) ** 2,
                           max_size=len(nodes) ** 2))
    return triples, node_order, relation_order, labels, perm, colors


def _assert_same_graph(actual, expected):
    assert actual == expected and hash(actual) == hash(expected)
    assert all(type(x) is int for fact in actual.facts for x in fact)
    assert all(type(c) is int for c in actual.node_colors)
    for column, reference in zip(actual.edges, reference_edges(expected)):
        assert column.dtype == np.int64 and not column.flags.writeable
        assert np.array_equal(column, reference)
    pc = actual.pair_coloring
    if pc is not None:
        assert all(type(c) is int for c in pc.colors)
        assert pc.tnd_flag == reference_tnd(pc.n, pc.colors)


COLLIDING = (
    [("a", "r", "a,a"), ("a,a", "r", "a,a")], ["a", "a,a", "(a"], ["r"],
    {"a": "x"}, [2, 0, 1], [0, 1, 2, 1, 0, 2, 2, 1, 0],
)


@given(named_graphs())
@example(COLLIDING)
@settings(max_examples=150, deadline=None)
def test_derived_graphs_equal_the_reference(case):
    triples, node_order, relation_order, labels, perm, colors = case
    g = from_triples(triples, node_order, relation_order)
    _assert_same_graph(g, reference_from_triples(triples, node_order, relation_order))
    labels = {v: c for v, c in labels.items() if v in g._node_index}
    perm = tuple(p for p in perm if p < g.n)  # g may have fewer nodes
    colored = g.with_node_coloring(labels)
    _assert_same_graph(colored, reference_with_node_coloring(g, labels))
    for mode in ("diagonal", "colored-diagonal"):
        pc = default_pair_coloring(colored, mode)
        assert pc == reference_default_pair_coloring(colored, mode) and pc.tnd_flag
        square = product_square(colored.with_pair_coloring(pc))
        _assert_same_graph(square, reference_product_square(colored.with_pair_coloring(pc)))
    pc = PairColoring(g.n, tuple(colors[: g.n * g.n]), ("p", "q", "s"))
    full = colored.with_pair_coloring(pc)
    _assert_same_graph(full, reference_with_pair_coloring(colored, pc))
    _assert_same_graph(augment(full), reference_augment(full))
    _assert_same_graph(product_square(full), reference_product_square(full))
    _assert_same_graph(permute_nodes(full, perm), reference_permute_nodes(full, perm))
    _assert_same_graph(permute_nodes(colored, perm), reference_permute_nodes(colored, perm))
    square_names = product_square(full).node_names
    if len({f"({a},{b})" for a in g.node_names for b in g.node_names}) < g.n * g.n:
        assert square_names[0] == repr((g.node_names[0], g.node_names[0]))


@given(small_graphs(n_max=6, r_max=3))
@settings(max_examples=30, deadline=None)
def test_has_fact_reads_the_edge_arrays(g):
    facts = set(g.facts)
    for r in range(len(g.relation_names)):
        for s in range(g.n):
            for t in range(g.n):
                assert g.has_fact(r, s, t) == ((r, s, t) in facts)
                assert g.has_fact(
                    g.relation_names[r], g.node_names[s], g.node_names[t]
                ) == ((r, s, t) in facts)
