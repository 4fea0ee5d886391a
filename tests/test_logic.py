import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwl.corpus import random_formula, random_kg
from relwl.errors import FormulaSyntaxError, PreconditionError, ValidationError
from relwl.graphs import default_pair_coloring, from_triples, product_square
from relwl.logic import (
    And,
    Atom,
    Formula,
    GuardedExists,
    Not,
    classify_pairs_via_compile,
    compile_gml_to_rmpnn,
    eval_gml,
    eval_gml_all,
    eval_rgfo3,
    eval_rgfo3_all,
    parse_formula,
    pretty,
    subformula_index,
    translate_gml_to_rgfo3,
    translate_rgfo3_to_gml,
)


def _diag(g):
    return g.with_pair_coloring(default_pair_coloring(g))


# -- independent oracle: direct recursive semantics ---------------------------


def _brute_binary(G, node, u, v):
    if isinstance(node, Atom):
        return G.pair_coloring.label_of(u, v) == node.label
    if isinstance(node, Not):
        return not _brute_binary(G, node.child, u, v)
    if isinstance(node, And):
        return _brute_binary(G, node.left, u, v) and _brute_binary(
            G, node.right, u, v
        )
    if node.relation not in G.relation_names:
        return False
    witnesses = sum(
        1
        for w in range(G.n)
        if G.has_fact(node.relation, w, v) and _brute_binary(G, node.child, u, w)
    )
    return witnesses >= node.count


def _brute_unary(G, node, v):
    if isinstance(node, Atom):
        return G.color_label_of(v) == node.label
    if isinstance(node, Not):
        return not _brute_unary(G, node.child, v)
    if isinstance(node, And):
        return _brute_unary(G, node.left, v) and _brute_unary(G, node.right, v)
    if node.relation not in G.relation_names:
        return False
    witnesses = sum(
        1
        for w in range(G.n)
        if G.has_fact(node.relation, w, v) and _brute_unary(G, node.child, w)
    )
    return witnesses >= node.count


# -- parsing ------------------------------------------------------------------


def test_parse_atom():
    assert parse_formula("A:eq", "binary").root == Atom("eq")


def test_parse_counting():
    f = parse_formula("DIA[r,2](A:eq)", "binary")
    assert f.root == GuardedExists(2, "r", Atom("eq"))


def test_parse_conjunction_negation():
    f = parse_formula("(A:eq & !A:eq)", "binary")
    assert f.root == And(Atom("eq"), Not(Atom("eq")))


def test_parse_rejects_zero_count():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("DIA[r,0](A:eq)", "binary")


def test_parse_error_positions():
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula("(A:eq & ", "binary")
    assert info.value.position == 8
    with pytest.raises(FormulaSyntaxError):
        parse_formula("A:eq junk", "binary")


def test_parse_whitespace_insensitive():
    a = parse_formula("( A:eq &  ! DIA[ r , 2 ] ( A:neq ) )", "binary")
    b = parse_formula("(A:eq&!DIA[r,2](A:neq))", "binary")
    assert a == b


@st.composite
def formulas(draw, depth=3):
    labels = st.sampled_from(["eq", "neq", "c0"])
    relations = st.sampled_from(["r", "r1"])
    if depth == 0:
        return Atom(draw(labels))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Atom(draw(labels))
    if kind == 1:
        return Not(draw(formulas(depth=depth - 1)))
    if kind == 2:
        return And(
            draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1))
        )
    return GuardedExists(
        draw(st.integers(1, 3)), draw(relations), draw(formulas(depth=depth - 1))
    )


@given(formulas())
@settings(max_examples=80, deadline=None)
def test_pretty_parse_round_trip(node):
    f = Formula(node, "binary")
    assert parse_formula(pretty(f), "binary") == f


# -- evaluation ----------------------------------------------------------------


def test_eval_rgfo3_examples(graph_a):
    phi = parse_formula("DIA[r1,1](A:neq)", "binary")
    assert eval_rgfo3(graph_a, phi, "u", "u") is True  # witness w = v
    assert eval_rgfo3(graph_a, phi, "u", "v") is False  # v has no incoming facts
    assert eval_rgfo3(graph_a, parse_formula("A:eq", "binary"), "u", "u") is True


def test_eval_rgfo3_matches_brute_force(graph_a):
    rng = random.Random(0)
    for _ in range(25):
        phi = random_formula(
            rng, graph_a.pair_coloring.labels, graph_a.relation_names, arity="binary"
        )
        table = eval_rgfo3_all(graph_a, phi)
        for (u, v), value in table.items():
            assert value == _brute_binary(graph_a, phi.root, u, v)


def test_eval_gml_examples(graph_b):
    g = graph_b.with_node_coloring({"x": "c"})
    assert eval_gml(g, parse_formula("A:c", "unary"), "x") is True
    assert eval_gml(g, parse_formula("DIA[r,1](A:c)", "unary"), "u'") is True
    assert eval_gml(g, parse_formula("DIA[r,2](A:c)", "unary"), "u'") is False


def test_eval_gml_matches_brute_force():
    rng = random.Random(1)
    for seed in range(12):
        g = random_kg(seed, 6, 2, 0.35, n_colors=3)
        phi = random_formula(rng, g.color_labels, g.relation_names, arity="unary")
        table = eval_gml_all(g, phi)
        for v, value in table.items():
            assert value == _brute_unary(g, phi.root, v)


def test_eval_unknown_atom_errors(graph_a):
    with pytest.raises(ValidationError, match="unknown pair color"):
        eval_rgfo3(graph_a, parse_formula("A:purple", "binary"), "u", "v")
    with pytest.raises(ValidationError, match="unknown node color"):
        eval_gml(graph_a, parse_formula("A:purple", "unary"), "u")


def test_eval_wrong_arity(graph_a):
    with pytest.raises(ValidationError):
        eval_gml(graph_a, parse_formula("A:eq", "binary"), "u")
    with pytest.raises(ValidationError):
        eval_rgfo3(graph_a, parse_formula("A:eq", "unary"), "u", "v")


# -- translations -----------------------------------------------------------------


def test_translation_preserves_structure():
    phi = parse_formula("DIA[r,3](!(A:eq & A:neq))", "unary")
    binary = translate_gml_to_rgfo3(phi)
    assert binary.arity == "binary"
    assert binary.root == phi.root  # atoms map to atoms, counts and relations kept
    assert translate_rgfo3_to_gml(binary) == phi


def test_translation_round_trip_is_identity():
    phi = parse_formula("(A:eq & DIA[r,2](A:neq))", "binary")
    assert translate_gml_to_rgfo3(translate_rgfo3_to_gml(phi)) == phi
    assert pretty(translate_rgfo3_to_gml(phi)) == pretty(phi)


def test_translation_soundness_seeded():
    rng = random.Random(3)
    for seed in range(10):
        g = _diag(random_kg(seed, 6, 2, 0.35))
        square = product_square(g)
        n = g.n
        phi = random_formula(
            rng, g.pair_coloring.labels, g.relation_names, arity="binary"
        )
        on_pairs = eval_rgfo3_all(g, phi)
        on_square = eval_gml_all(square, translate_rgfo3_to_gml(phi))
        assert all(
            on_square[u * n + v] == value for (u, v), value in on_pairs.items()
        )
        psi = random_formula(
            rng, g.pair_coloring.labels, g.relation_names, arity="unary"
        )
        lifted = eval_rgfo3_all(g, translate_gml_to_rgfo3(psi))
        direct = eval_gml_all(square, psi)
        assert all(
            direct[u * n + v] == value for (u, v), value in lifted.items()
        )


# -- compilation -------------------------------------------------------------------


def test_compile_single_atom():
    g = from_triples([("a", "r", "b")], node_order=("a", "b"))
    g = g.with_node_coloring({"a": "red", "b": "blue"})
    compiled = compile_gml_to_rmpnn(parse_formula("A:red", "unary"), g.color_labels)
    assert compiled.width == 1
    verdict = compiled.classify(g)
    assert verdict == {0: True, 1: False}
    table = compiled.run(g)
    assert float(table.vector(1, 0)[0]) == 1.0
    assert float(table.vector(1, 1)[0]) == 0.0


def test_compile_counting_on_graph_b(graph_b):
    g = graph_b.with_node_coloring({"x": "a"})
    phi = parse_formula("DIA[r,2](A:a)", "unary")
    compiled = compile_gml_to_rmpnn(phi, g.color_labels)
    verdict = compiled.classify(g)
    assert verdict[g.node_id("u'")] is False  # one witness < 2
    single = compile_gml_to_rmpnn(parse_formula("DIA[r,1](A:a)", "unary"), g.color_labels)
    assert single.classify(g)[g.node_id("u'")] is True


def test_compile_counting_row_bias():
    phi = parse_formula("DIA[r,2](A:c)", "unary")
    compiled = compile_gml_to_rmpnn(phi, ("c",))
    subs = subformula_index(phi)
    row = subs.index(phi.root)
    bias = compiled.spec.biases[0]
    assert bias[row] == -1.0  # -N + 1 with N = 2
    rel = compiled.spec.relation_params[0]["r"]
    assert rel[row][subs.index(Atom("c"))] == 1.0


def test_compile_degenerate_conjunction():
    # (F & F) deduplicates to one child component read twice
    g = from_triples([("a", "r", "b")], node_order=("a", "b"))
    g = g.with_node_coloring({"a": "c", "b": "d"})
    phi = parse_formula("(A:c & A:c)", "unary")
    compiled = compile_gml_to_rmpnn(phi, g.color_labels)
    assert compiled.width == 2
    assert compiled.classify(g) == {0: True, 1: False}


def test_compile_rejects_undeclared_atom():
    with pytest.raises(ValidationError):
        compile_gml_to_rmpnn(parse_formula("A:mystery", "unary"), ("red", "blue"))


def test_compile_matches_direct_evaluation():
    rng = random.Random(7)
    for seed in range(12):
        g = random_kg(seed, 7, 2, 0.4, n_colors=3)
        phi = random_formula(rng, g.color_labels, g.relation_names, arity="unary")
        compiled = compile_gml_to_rmpnn(phi, g.color_labels)
        verdict = compiled.classify(g)
        expected = eval_gml_all(g, phi)
        assert verdict == expected


def test_compiled_components_are_integral_truth_values():
    rng = random.Random(9)
    g = random_kg(3, 6, 2, 0.4, n_colors=2)
    phi = random_formula(rng, g.color_labels, g.relation_names, arity="unary")
    compiled = compile_gml_to_rmpnn(phi, g.color_labels)
    table = compiled.run(g)
    for comp, sub in enumerate(compiled.subformulas):
        expected = eval_gml_all(g, Formula(sub, "unary"))
        for t in range(comp + 1, compiled.width + 1):
            for v in range(g.n):
                value = float(table.vector(t, v)[comp])
                assert value in (0.0, 1.0)
                assert (value == 1.0) == expected[v]


# -- pair classification through the pair graph --------------------------------------


def test_classify_diagonal(graph_a):
    table = classify_pairs_via_compile(parse_formula("A:eq", "binary"), graph_a)
    for (u, v), value in table.items():
        assert value == (u == v)


def test_classify_examples(graph_a):
    phi = parse_formula("DIA[r1,1](A:neq)", "binary")
    table = classify_pairs_via_compile(phi, graph_a)
    u, v = graph_a.node_id("u"), graph_a.node_id("v")
    assert table[(u, u)] is True
    assert table[(u, v)] is False


def test_classify_agrees_with_direct_eval():
    rng = random.Random(17)
    for seed in range(8):
        g = _diag(random_kg(seed, 5, 2, 0.4))
        phi = random_formula(
            rng, g.pair_coloring.labels, g.relation_names, arity="binary"
        )
        assert classify_pairs_via_compile(phi, g) == eval_rgfo3_all(g, phi)


def test_logical_classifiers_are_binary_invariants():
    import random as _random

    from relwl.graphs import permute_nodes

    rng = _random.Random(31)
    for seed in range(8):
        g = _diag(random_kg(seed, 5, 2, 0.4))
        phi = random_formula(
            rng, g.pair_coloring.labels, g.relation_names, arity="binary"
        )
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = permute_nodes(g, tuple(perm))
        before = eval_rgfo3_all(g, phi)
        after = eval_rgfo3_all(h, phi)
        for (u, v), value in before.items():
            assert after[(perm[u], perm[v])] == value


# -- monotone fragment ------------------------------------------------------------------


def test_negation_free_formulas_never_lose_truth():
    rng = random.Random(23)
    for seed in range(10):
        g = _diag(random_kg(seed, 5, 2, 0.3))

        def positive(depth):
            if depth == 0 or rng.random() < 0.4:
                return Atom(rng.choice(g.pair_coloring.labels))
            if rng.random() < 0.5:
                return And(positive(depth - 1), positive(depth - 1))
            return GuardedExists(
                rng.randint(1, 2), rng.choice(g.relation_names), positive(depth - 1)
            )

        phi = Formula(positive(3), "binary")
        before = eval_rgfo3_all(g, phi)
        extra = list(g.fact_names())
        s = rng.choice(g.node_names)
        t = rng.choice(g.node_names)
        r = rng.choice(g.relation_names)
        extra.append((s, r, t))
        bigger = from_triples(
            extra, node_order=g.node_names, relation_order=g.relation_names
        ).with_pair_coloring(g.pair_coloring)
        after = eval_rgfo3_all(bigger, phi)
        for key, value in before.items():
            if value:
                assert after[key]


# -- both evaluators against the oracles --------------------------------------------


@st.composite
def colored_graphs(draw):
    """Up to 8 nodes, 1-3 relations with self-loops allowed, 1-3 node
    colors, and a diagonal or colored-diagonal pair coloring."""
    n = draw(st.integers(1, 8))
    nodes = [f"n{i}" for i in range(n)]
    relations = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    triples = draw(
        st.lists(
            st.tuples(
                st.sampled_from(nodes), st.sampled_from(relations), st.sampled_from(nodes)
            ),
            max_size=2 * n,
        )
    )
    g = from_triples(triples, node_order=nodes, relation_order=relations)
    k = draw(st.integers(1, 3))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    g = g.with_node_coloring({name: f"c{c}" for name, c in zip(nodes, colors)})
    mode = draw(st.sampled_from(["diagonal", "colored-diagonal"]))
    return g.with_pair_coloring(default_pair_coloring(g, mode))


@st.composite
def formulas_over(draw, labels, relations, depth=4):
    kind = draw(st.integers(0, 3)) if depth else 0
    if kind == 0:
        return Atom(draw(st.sampled_from(labels)))
    if kind == 1:
        return Not(draw(formulas_over(labels, relations, depth - 1)))
    if kind == 2:
        return And(
            draw(formulas_over(labels, relations, depth - 1)),
            draw(formulas_over(labels, relations, depth - 1)),
        )
    return GuardedExists(
        draw(st.integers(1, 3)),
        draw(st.sampled_from(relations)),
        draw(formulas_over(labels, relations, depth - 1)),
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_both_evaluators_match_the_oracles(data):
    g = data.draw(colored_graphs())
    relations = g.relation_names + ("absent",)  # one relation the graph lacks
    unary = Formula(data.draw(formulas_over(g.color_labels, relations)), "unary")
    binary = Formula(
        data.draw(formulas_over(g.pair_coloring.labels, relations)), "binary"
    )
    nodes = eval_gml_all(g, unary)
    assert list(nodes.items()) == [
        (v, _brute_unary(g, unary.root, v)) for v in range(g.n)
    ]
    assert all(type(value) is bool for value in nodes.values())
    pairs = eval_rgfo3_all(g, binary)
    assert list(pairs.items()) == [
        ((u, v), _brute_binary(g, binary.root, u, v))
        for u in range(g.n)
        for v in range(g.n)
    ]
    assert all(type(value) is bool for value in pairs.values())


# -- every error of relwl.logic ---------------------------------------------------------------


def _ab():
    """Two nodes colored c, one fact, the diagonal pair coloring."""
    g = from_triples([("a", "r", "b")], node_order=("a", "b"))
    return _diag(g.with_node_coloring({"a": "c", "b": "c"}))


def _off_lattice():
    """The classifier of A:c with its extraction weight halved: compile never
    emits it, but CompiledClassifier takes any spec."""
    compiled = compile_gml_to_rmpnn(parse_formula("A:c", "unary"), ["c"])
    spec = dataclasses.replace(compiled.spec, weights=compiled.spec.weights[:-1] + (((0.5,),),))
    return dataclasses.replace(compiled, spec=spec)


BINARY = parse_formula("A:eq", "binary")
UNARY = parse_formula("A:c", "unary")

# (id, thunk, exception type, exact message), one per raise statement
ERROR_CASES = [
    ("guard-count", lambda: GuardedExists(0, "r", Atom("c")), ValidationError,
     "counting quantifier needs N >= 1"),
    ("formula-arity", lambda: Formula(Atom("c"), "ternary"), ValidationError,
     "arity must be one of ('unary', 'binary')"),
    ("parse-expect", lambda: parse_formula("(A:a A:b)"), FormulaSyntaxError,
     "expected '&' (at position 5)"),
    ("parse-label", lambda: parse_formula("A:"), FormulaSyntaxError,
     "expected a label (at position 2)"),
    ("parse-number", lambda: parse_formula("DIA[r,x](A:a)"), FormulaSyntaxError,
     "expected a number (at position 6)"),
    ("parse-count", lambda: parse_formula("DIA[r,0](A:a)"), FormulaSyntaxError,
     "counting quantifier needs N >= 1 (at position 6)"),
    ("parse-end", lambda: parse_formula("!"), FormulaSyntaxError,
     "unexpected end of input (at position 1)"),
    ("parse-character", lambda: parse_formula("?"), FormulaSyntaxError,
     "unexpected character '?' (at position 0)"),
    ("parse-trailing", lambda: parse_formula("A:a A:b"), FormulaSyntaxError,
     "trailing input after formula (at position 4)"),
    ("atoms-unknown", lambda: eval_gml_all(_ab(), parse_formula("A:zz", "unary")),
     ValidationError, "formula references unknown node color(s): ['zz']"),
    ("eval-gml-arity", lambda: eval_gml_all(_ab(), BINARY), ValidationError,
     "node evaluation needs a unary formula"),
    ("eval-rgfo3-arity", lambda: eval_rgfo3_all(_ab(), UNARY), ValidationError,
     "pair evaluation needs a binary formula"),
    ("eval-rgfo3-no-pairs", lambda: eval_rgfo3_all(from_triples([("a", "r", "b")]), BINARY),
     PreconditionError, "pair evaluation needs a pair coloring"),
    ("translate-to-gml", lambda: translate_rgfo3_to_gml(UNARY), ValidationError,
     "expected a binary formula"),
    ("translate-to-rgfo3", lambda: translate_gml_to_rgfo3(BINARY), ValidationError,
     "expected a unary formula"),
    ("classify-lattice", lambda: _off_lattice().classify(_ab()), AssertionError,
     "compiled network left the 0/1 lattice"),
    ("compile-arity", lambda: compile_gml_to_rmpnn(BINARY, ["eq"]), ValidationError,
     "only unary formulas compile to node networks"),
    ("classify-pairs-arity", lambda: classify_pairs_via_compile(UNARY, _ab()), ValidationError,
     "expected a binary formula"),
    ("classify-pairs-no-pairs",
     lambda: classify_pairs_via_compile(BINARY, from_triples([("a", "r", "b")])),
     PreconditionError, "pair classification needs a pair coloring"),
]


@pytest.mark.parametrize(
    "thunk, exc, message",
    [case[1:] for case in ERROR_CASES],
    ids=[case[0] for case in ERROR_CASES],
)
def test_every_logic_error_is_reached(thunk, exc, message):
    with pytest.raises(exc) as caught:
        thunk()
    assert type(caught.value) is exc
    assert str(caught.value) == message
