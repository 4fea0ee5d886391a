"""Guarded counting formulas: parsing, evaluation, translation, compilation.

One grammar serves two readings.  In binary mode a formula classifies
ordered node pairs against a pair coloring; in unary mode (graded modal
logic) it classifies nodes against a node coloring.  ASCII grammar,
whitespace insignificant::

    F     :=  'A:' LABEL                  atom: the (pair) color equals LABEL
           |  '!' F                       negation
           |  '(' F '&' F ')'             conjunction
           |  'DIA' '[' LABEL ',' N ']' '(' F ')'
                                          at least N incoming LABEL-edges
                                          from witnesses of F  (N >= 1)
    LABEL :=  [A-Za-z0-9_-]+

``DIA[r,N](F)`` holds at ``v`` (unary) when at least N sources of
``r``-facts into ``v`` satisfy F; in binary mode it holds at ``(u, v)``
when at least N sources ``w`` of ``r``-facts into ``v`` make ``(u, w)``
satisfy F.  The two readings are exchanged by re-tagging the same tree,
and the unary reading compiles into an exact 0/1-valued message passing
network with truncated-ReLU activations.

One array evaluator serves both readings.  Each subformula gets a bool
table of shape (n, B) whose rows are target nodes: B = 1 in unary mode,
and B = n in binary mode, where column u holds the pairs ``(u, .)``.  A
guarded subformula gathers its child's rows at the sources of its
relation's facts (``G.edges``), adds them into the targets with one
``np.add.at`` and compares the counts with N, the gather and scatter of
the network forward.  So binary evaluation needs no pair graph.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FormulaSyntaxError, PreconditionError, ValidationError
from .graphs import KnowledgeGraph, product_square
from .networks import FeatureTable, NetworkSpec, rmpnn_forward
from .wl import HistoryFunction


@dataclass(frozen=True)
class Atom:
    label: str


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class GuardedExists:
    count: int
    relation: str
    child: "Node"

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError("counting quantifier needs N >= 1")


Node = Atom | Not | And | GuardedExists

ARITIES = ("unary", "binary")


@dataclass(frozen=True)
class Formula:
    """An AST plus the arity it is read at (node vs pair classifier)."""

    root: Node
    arity: str

    def __post_init__(self):
        if self.arity not in ARITIES:
            raise ValidationError(f"arity must be one of {ARITIES}")


_LABEL = re.compile(r"[A-Za-z0-9_-]+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def label(self) -> str:
        self.skip_ws()
        match = _LABEL.match(self.text, self.pos)
        if not match:
            raise self.error("expected a label")
        self.pos = match.end()
        return match.group()

    def number(self) -> int:
        self.skip_ws()
        match = re.compile(r"\d+").match(self.text, self.pos)
        if not match:
            raise self.error("expected a number")
        value = int(match.group())
        if value < 1:
            raise self.error("counting quantifier needs N >= 1")
        self.pos = match.end()
        return value

    def formula(self) -> Node:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("unexpected end of input")
        ch = self.text[self.pos]
        if self.text.startswith("A:", self.pos):
            self.pos += 2
            return Atom(self.label())
        if ch == "!":
            self.pos += 1
            return Not(self.formula())
        if ch == "(":
            self.pos += 1
            left = self.formula()
            self.expect("&")
            right = self.formula()
            self.expect(")")
            return And(left, right)
        if self.text.startswith("DIA", self.pos):
            self.pos += 3
            self.expect("[")
            rel = self.label()
            self.expect(",")
            count = self.number()
            self.expect("]")
            self.expect("(")
            child = self.formula()
            self.expect(")")
            return GuardedExists(count, rel, child)
        raise self.error(f"unexpected character {ch!r}")


def parse_formula(text: str, arity: str = "binary") -> Formula:
    """Parse grammar text into a formula; errors carry the offending position."""
    parser = _Parser(text)
    root = parser.formula()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after formula")
    return Formula(root, arity)


def pretty(formula: Formula | Node) -> str:
    """Grammar text whose re-parse gives back the identical tree."""
    node = formula.root if isinstance(formula, Formula) else formula
    if isinstance(node, Atom):
        return f"A:{node.label}"
    if isinstance(node, Not):
        return f"!{pretty(node.child)}"
    if isinstance(node, And):
        return f"({pretty(node.left)} & {pretty(node.right)})"
    return f"DIA[{node.relation},{node.count}]({pretty(node.child)})"


def subformula_index(formula: Formula | Node) -> list[Node]:
    """Deduplicated subformulas, children before parents, root last."""
    root = formula.root if isinstance(formula, Formula) else formula
    order: list[Node] = []
    seen: set[Node] = set()

    def visit(node: Node):
        if node in seen:
            return
        if isinstance(node, Not):
            visit(node.child)
        elif isinstance(node, And):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, GuardedExists):
            visit(node.child)
        seen.add(node)
        order.append(node)

    visit(root)
    return order


def atoms_of(formula: Formula | Node) -> set[str]:
    return {
        node.label for node in subformula_index(formula) if isinstance(node, Atom)
    }


# ---------------------------------------------------------------------------
# direct evaluation
# ---------------------------------------------------------------------------


def _check_atoms(formula: Formula | Node, vocabulary: Iterable[str], role: str):
    unknown = atoms_of(formula) - set(vocabulary)
    if unknown:
        raise ValidationError(
            f"formula references unknown {role} color(s): {sorted(unknown)}"
        )


def _truth(G: KnowledgeGraph, formula: Formula, atom) -> np.ndarray:
    """Truth of ``formula`` as a bool array (n, B) with one row per node,
    computed bottom-up from the atom tables ``atom(label)``."""
    rel, src, dst = G.edges
    tables: dict[Node, np.ndarray] = {}
    for sub in subformula_index(formula):
        if isinstance(sub, Atom):
            tables[sub] = atom(sub.label)
        elif isinstance(sub, Not):
            tables[sub] = ~tables[sub.child]
        elif isinstance(sub, And):
            tables[sub] = tables[sub.left] & tables[sub.right]
        else:
            child = tables[sub.child]
            # an absent relation matches no edge: no witnesses anywhere
            on = rel == G._relation_index.get(sub.relation, -1)
            counts = np.zeros(child.shape, dtype=np.int64)
            np.add.at(counts, dst[on], child[src[on]])
            tables[sub] = counts >= sub.count
    return tables[formula.root]


def _label_is(labels: Sequence[str], label: str) -> np.ndarray:
    """Which color ids carry ``label``."""
    return np.array([x == label for x in labels], dtype=bool)


def eval_gml_all(G: KnowledgeGraph, formula: Formula) -> dict[int, bool]:
    """Truth of a unary formula at every node, computed bottom-up."""
    if formula.arity != "unary":
        raise ValidationError("node evaluation needs a unary formula")
    _check_atoms(formula, G.color_labels, "node")
    colors = np.asarray(G.node_colors, dtype=np.int64)[:, None]  # one column
    truth = _truth(G, formula, lambda label: _label_is(G.color_labels, label)[colors])
    return dict(enumerate(truth[:, 0].tolist()))


def eval_gml(G: KnowledgeGraph, formula: Formula, v: int | str) -> bool:
    return eval_gml_all(G, formula)[G._resolve_node(v)]


def eval_rgfo3_all(G: KnowledgeGraph, formula: Formula) -> dict[tuple[int, int], bool]:
    """Truth of a binary formula at every ordered pair, computed bottom-up."""
    if formula.arity != "binary":
        raise ValidationError("pair evaluation needs a binary formula")
    if G.pair_coloring is None:
        raise PreconditionError("pair evaluation needs a pair coloring")
    _check_atoms(formula, G.pair_coloring.labels, "pair")
    n, pc = G.n, G.pair_coloring
    # row v, column u: the color of the pair (u, v)
    colors = np.asarray(pc.colors, dtype=np.int64).reshape(n, n).T
    truth = _truth(G, formula, lambda label: _label_is(pc.labels, label)[colors])
    return dict(zip(itertools.product(range(n), repeat=2), truth.T.ravel().tolist()))


def eval_rgfo3(G: KnowledgeGraph, formula: Formula, u: int | str, v: int | str) -> bool:
    return eval_rgfo3_all(G, formula)[(G._resolve_node(u), G._resolve_node(v))]


# ---------------------------------------------------------------------------
# translations through the pair graph
# ---------------------------------------------------------------------------


def translate_rgfo3_to_gml(formula: Formula) -> Formula:
    """Binary -> unary re-tagging: the pair classifier over G becomes the
    node classifier over the pair graph (same tree, same counts)."""
    if formula.arity != "binary":
        raise ValidationError("expected a binary formula")
    return Formula(formula.root, "unary")


def translate_gml_to_rgfo3(formula: Formula) -> Formula:
    """Unary -> binary re-tagging, inverse of :func:`translate_rgfo3_to_gml`."""
    if formula.arity != "unary":
        raise ValidationError("expected a unary formula")
    return Formula(formula.root, "binary")


# ---------------------------------------------------------------------------
# compilation to a message passing network
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledClassifier:
    """A unary formula compiled to an exact 0/1 message passing network.

    Component ``i`` of the layer-t features equals the truth value of
    ``subformulas[i]`` for every t >= i + 1 (atoms already at t = 0); the
    final extraction layer exposes the root's component alone.
    """

    spec: NetworkSpec
    subformulas: tuple[Node, ...]
    color_labels: tuple[str, ...]

    @property
    def width(self) -> int:
        return len(self.subformulas)

    def initial_features(self, G: KnowledgeGraph) -> np.ndarray:
        """One-hot of each node's color over the atom components, (n, width)."""
        atom_index = {
            sub.label: i
            for i, sub in enumerate(self.subformulas)
            if isinstance(sub, Atom)
        }
        # component of each color label, -1 for a label no atom names
        component = np.array([atom_index.get(label, -1) for label in G.color_labels])
        nodes = np.arange(G.n)
        comps = component[np.asarray(G.node_colors, dtype=np.int64)]
        feats = np.zeros((G.n, self.width))
        feats[nodes[comps >= 0], comps[comps >= 0]] = 1.0
        return feats

    def run(self, G: KnowledgeGraph) -> FeatureTable:
        return rmpnn_forward(G, self.spec, self.initial_features(G))

    def classify(self, G: KnowledgeGraph) -> dict[int, bool]:
        values = self.run(G).layers[self.spec.num_layers][:, 0]
        if not np.all((values == 0.0) | (values == 1.0)):
            raise AssertionError("compiled network left the 0/1 lattice")
        return dict(enumerate((values == 1.0).tolist()))


def compile_gml_to_rmpnn(
    formula: Formula, color_vocabulary: Sequence[str]
) -> CompiledClassifier:
    """Compile a unary formula into a truncated-ReLU network.

    One component per deduplicated subformula; each layer applies the same
    weights: an atom row copies itself, a negation row is 1 - child, a
    conjunction row is left + right - 1, and a counting row sums the
    child's truth over incoming edges of its relation and subtracts N - 1.
    A final 1-dimensional extraction layer exposes the root component.
    """
    if formula.arity != "unary":
        raise ValidationError("only unary formulas compile to node networks")
    _check_atoms(formula, color_vocabulary, "declared")
    subs = subformula_index(formula)
    L = len(subs)
    index = {sub: i for i, sub in enumerate(subs)}
    W = np.zeros((L, L))
    bias = np.zeros(L)
    rel_mats: dict[str, np.ndarray] = {}
    for i, sub in enumerate(subs):
        if isinstance(sub, Atom):
            W[i, i] = 1.0
        elif isinstance(sub, Not):
            W[i, index[sub.child]] = -1.0
            bias[i] = 1.0
        elif isinstance(sub, And):
            W[i, index[sub.left]] += 1.0
            W[i, index[sub.right]] += 1.0
            bias[i] = -1.0
        else:
            mat = rel_mats.setdefault(sub.relation, np.zeros((L, L)))
            mat[i, index[sub.child]] = 1.0
            bias[i] = -sub.count + 1.0

    def as_tuple_matrix(m: np.ndarray) -> tuple:
        return tuple(tuple(float(x) for x in row) for row in m)

    body_weights = as_tuple_matrix(W)
    body_bias = tuple(float(x) for x in bias)
    body_rel = {name: as_tuple_matrix(mat) for name, mat in rel_mats.items()}
    extraction = (tuple(1.0 if j == L - 1 else 0.0 for j in range(L)),)
    spec = NetworkSpec(
        kind="rmpnn",
        num_layers=L + 1,
        dims=(L,) * (L + 1) + (1,),
        weights=(body_weights,) * L + (extraction,),
        biases=(body_bias,) * L + (None,),
        relation_params=(body_rel,) * L + ({},),
        theta_kind="theta3",
        psi_kind="sum",
        sigma_kind="truncated-relu",
        update_kind="separate",
        history=HistoryFunction.identity(),
        numeric_mode="float64",
    )
    return CompiledClassifier(spec, tuple(subs), tuple(color_vocabulary))


def classify_pairs_via_compile(
    formula: Formula, G: KnowledgeGraph
) -> dict[tuple[int, int], bool]:
    """Pair truth table computed the long way round: translate the binary
    formula to its unary reading, compile, run on the pair graph, re-key.

    Agrees with :func:`eval_rgfo3_all` on every pair.
    """
    if formula.arity != "binary":
        raise ValidationError("expected a binary formula")
    if G.pair_coloring is None:
        raise PreconditionError("pair classification needs a pair coloring")
    _check_atoms(formula, G.pair_coloring.labels, "pair")
    unary = translate_rgfo3_to_gml(formula)
    compiled = compile_gml_to_rmpnn(unary, G.pair_coloring.labels)
    square = product_square(G)
    verdicts = compiled.classify(square)
    n = G.n
    return {(u, v): verdicts[u * n + v] for u in range(n) for v in range(n)}
