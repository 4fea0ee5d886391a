"""Knowledge-graph data model, flat-file ingestion, and graph constructions.

A knowledge graph is a set of typed directed facts ``r(source, target)``
over an interned node vocabulary, together with a node coloring and an
optional coloring of ordered node pairs.  Everything in this module is an
immutable value; operations return new graphs.

``KnowledgeGraph.edges`` is the one array view of the facts, read by the
refinement kernel, the network forward, the logic evaluator and the
per-node queries ``incoming`` / ``neighborhood``.

File formats (all TSV, UTF-8, ``#``-prefixed lines ignored):

* triples:      ``head <TAB> relation <TAB> tail`` -- one fact per line,
  duplicates collapse to one fact;
* node colors:  ``node <TAB> color-label`` -- unlisted nodes get the label
  ``default``;
* pair colors:  ``node <TAB> node <TAB> color-label`` -- must cover every
  ordered pair;
* nodes (optional): one node name per line, declaring nodes up front --
  the only way to give a graph isolated nodes, which triples alone cannot
  express.

Entity names are opaque strings.  Nodes, relations, and color labels are
interned to dense integers in first-appearance order, so results are
deterministic relative to input order.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    NodeBudgetError,
    PreconditionError,
    TripleFileError,
    UnknownEntityError,
    ValidationError,
)

DEFAULT_COLOR_LABEL = "default"
DEFAULT_NODE_BUDGET = 1_000_000
NODE_BUDGET_ENV = "RELWL_NODE_BUDGET"


@dataclass(frozen=True)
class PairColoring:
    """A total coloring of ordered node pairs, stored row-major.

    ``colors[u * n + v]`` is the color id of the pair ``(u, v)``; ``labels``
    maps color ids back to their labels.  ``tnd_flag`` records whether the
    coloring separates every ``(u, u)`` from every ``(u, v)`` with ``v != u``
    (target node distinguishability).
    """

    n: int
    colors: tuple[int, ...]
    labels: tuple[str, ...]
    tnd_flag: bool = field(init=False)

    def __post_init__(self):
        if len(self.colors) != self.n * self.n:
            raise ValidationError(
                f"pair coloring must be total: expected {self.n * self.n} "
                f"entries, got {len(self.colors)}"
            )
        for c in self.colors:
            if not 0 <= c < len(self.labels):
                raise ValidationError(f"pair color id {c} out of range")
        tnd = all(
            self.colors[u * self.n + u] != self.colors[u * self.n + v]
            for u in range(self.n)
            for v in range(self.n)
            if v != u
        )
        object.__setattr__(self, "tnd_flag", tnd)

    def color_of(self, u: int, v: int) -> int:
        return self.colors[u * self.n + v]

    def label_of(self, u: int, v: int) -> str:
        return self.labels[self.color_of(u, v)]


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable multi-relational graph with node and optional pair colors.

    ``facts`` holds deduplicated ``(relation, source, target)`` id triples in
    sorted order.  ``node_colors[v]`` is a dense color id into
    ``color_labels``.
    """

    node_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    facts: tuple[tuple[int, int, int], ...]
    node_colors: tuple[int, ...]
    color_labels: tuple[str, ...] = (DEFAULT_COLOR_LABEL,)
    pair_coloring: PairColoring | None = None
    _node_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _relation_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, m = len(self.node_names), len(self.relation_names)
        node_index = {name: i for i, name in enumerate(self.node_names)}
        relation_index = {name: i for i, name in enumerate(self.relation_names)}
        if len(node_index) != n:
            raise ValidationError("duplicate node names")
        if len(relation_index) != m:
            raise ValidationError("duplicate relation names")
        object.__setattr__(self, "_node_index", node_index)
        object.__setattr__(self, "_relation_index", relation_index)
        if len(self.node_colors) != n:
            raise ValidationError("node coloring must cover every node")
        for c in self.node_colors:
            if not 0 <= c < len(self.color_labels):
                raise ValidationError(f"node color id {c} out of range")
        if sorted(set(self.facts)) != list(self.facts):
            raise ValidationError("facts must be sorted and deduplicated")
        for r, s, t in self.facts:
            if not (0 <= r < m and 0 <= s < n and 0 <= t < n):
                raise ValidationError(f"fact ({r},{s},{t}) references unknown ids")
        if self.pair_coloring is not None and self.pair_coloring.n != n:
            raise ValidationError("pair coloring sized for a different graph")

    # -- vocabulary ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.node_names)

    def node_id(self, name: str) -> int:
        try:
            return self._node_index[name]
        except KeyError:
            raise UnknownEntityError(f"unknown node {name!r}") from None

    def relation_id(self, name: str) -> int:
        try:
            return self._relation_index[name]
        except KeyError:
            raise UnknownEntityError(f"unknown relation {name!r}") from None

    def _resolve_node(self, v: int | str) -> int:
        if isinstance(v, str):
            return self.node_id(v)
        if not 0 <= v < self.n:
            raise UnknownEntityError(f"node id {v} out of range")
        return v

    def _resolve_relation(self, r: int | str) -> int:
        if isinstance(r, str):
            return self.relation_id(r)
        if not 0 <= r < len(self.relation_names):
            raise UnknownEntityError(f"relation id {r} out of range")
        return r

    # -- queries -------------------------------------------------------

    @functools.cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rel, src, dst)`` of every fact as read-only int64 arrays,
        stably sorted by target, so the edges into each node keep the order
        of ``facts``.  Built on first use."""
        facts = np.fromiter(
            itertools.chain.from_iterable(self.facts),
            dtype=np.int64,
            count=3 * len(self.facts),
        ).reshape(-1, 3)
        columns = facts[np.argsort(facts[:, 2], kind="stable")].T.copy()
        columns.flags.writeable = False
        rel, src, dst = columns
        return rel, src, dst

    def _into(self, v: int | str) -> slice:
        """Where the edges into ``v`` lie in :attr:`edges`."""
        vi = self._resolve_node(v)
        return slice(*np.searchsorted(self.edges[2], (vi, vi + 1)).tolist())

    def incoming(self, v: int | str) -> tuple[tuple[int, int], ...]:
        """All ``(relation, source)`` pairs of facts whose target is ``v``."""
        rel, src, _ = self.edges
        at = self._into(v)
        return tuple(zip(rel[at].tolist(), src[at].tolist()))

    def neighborhood(self, v: int | str, r: int | str) -> set[int]:
        """Sources of ``r``-facts pointing into ``v``."""
        at = self._into(v)
        rel, src, _ = self.edges
        return set(src[at][rel[at] == self._resolve_relation(r)].tolist())

    def has_fact(self, r: int | str, s: int | str, t: int | str) -> bool:
        triple = (
            self._resolve_relation(r),
            self._resolve_node(s),
            self._resolve_node(t),
        )
        return triple in set(self.facts)

    def color_label_of(self, v: int | str) -> str:
        return self.color_labels[self.node_colors[self._resolve_node(v)]]

    def fact_names(self) -> list[tuple[str, str, str]]:
        """Facts as (head, relation, tail) name triples, source first."""
        return [
            (self.node_names[s], self.relation_names[r], self.node_names[t])
            for r, s, t in self.facts
        ]

    # -- derived graphs ------------------------------------------------

    def with_pair_coloring(self, pc: PairColoring) -> "KnowledgeGraph":
        return KnowledgeGraph(
            self.node_names,
            self.relation_names,
            self.facts,
            self.node_colors,
            self.color_labels,
            pc,
        )

    def with_node_coloring(self, labels: Mapping[str, str]) -> "KnowledgeGraph":
        """Recolor nodes from a name -> label mapping; unlisted nodes keep
        the default label."""
        for name in labels:
            if name not in self._node_index:
                raise ValidationError(f"color assignment for unknown node {name!r}")
        vocab: dict[str, int] = {}
        colors = [
            vocab.setdefault(labels.get(name, DEFAULT_COLOR_LABEL), len(vocab))
            for name in self.node_names
        ]
        return KnowledgeGraph(
            self.node_names,
            self.relation_names,
            self.facts,
            tuple(colors),
            tuple(vocab),
            self.pair_coloring,
        )

    def to_triple_lines(self) -> list[str]:
        return ["\t".join(t) for t in self.fact_names()]


def from_triples(
    triples: Iterable[tuple[str, str, str]],
    node_order: Iterable[str] = (),
    relation_order: Iterable[str] = (),
) -> KnowledgeGraph:
    """Build a graph from (head, relation, tail) name triples.

    Head is the fact's source.  Vocabularies are interned in first-appearance
    order; ``node_order`` / ``relation_order`` seed the interning so callers
    can pin the ordering of entities that appear only late (or never).
    """
    nodes: dict[str, int] = {}
    relations: dict[str, int] = {}

    def intern(pool: dict[str, int], name: str) -> int:
        return pool.setdefault(name, len(pool))

    for name in node_order:
        intern(nodes, name)
    for name in relation_order:
        intern(relations, name)
    facts = set()
    for head, rel, tail in triples:
        facts.add((intern(relations, rel), intern(nodes, head), intern(nodes, tail)))
    return KnowledgeGraph(
        tuple(nodes),
        tuple(relations),
        tuple(sorted(facts)),
        (0,) * len(nodes),
    )


def _read_tsv(path: Path, n_fields: int) -> list[tuple[int, list[str]]]:
    rows = []
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.rstrip("\r\n")
                if not line.strip() or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != n_fields or any(f == "" for f in fields):
                    raise TripleFileError(
                        f"{path}:{lineno}: expected {n_fields} non-empty "
                        f"tab-separated fields, got {fields!r}"
                    )
                rows.append((lineno, fields))
    except UnicodeDecodeError:
        # the decoder reads ahead in chunks, so locate the bad byte's line
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise TripleFileError(
                f"{path}:{lineno}: not valid UTF-8 ({exc.reason})"
            ) from None
        raise
    return rows


def load_graph(
    triples_file: str | Path,
    colors_file: str | Path | None = None,
    pair_colors_file: str | Path | None = None,
    nodes_file: str | Path | None = None,
) -> KnowledgeGraph:
    """Load a graph (and optional colorings) from the flat TSV formats."""
    triples_file = Path(triples_file)
    node_order: tuple[str, ...] = ()
    if nodes_file is not None:
        node_order = tuple(
            fields[0] for _, fields in _read_tsv(Path(nodes_file), 1)
        )
    graph = from_triples(
        (fields for _, fields in _read_tsv(triples_file, 3)),
        node_order=node_order,
    )

    if colors_file is not None:
        assignments: dict[str, str] = {}
        for lineno, (node, label) in _read_tsv(Path(colors_file), 2):
            if node not in graph._node_index:
                raise ValidationError(
                    f"{colors_file}:{lineno}: color for unknown node {node!r}"
                )
            if assignments.get(node, label) != label:
                raise ValidationError(
                    f"{colors_file}:{lineno}: conflicting colors for node {node!r}"
                )
            assignments[node] = label
        graph = graph.with_node_coloring(assignments)

    if pair_colors_file is not None:
        n = graph.n
        flat: dict[int, str] = {}
        for lineno, (a, b, label) in _read_tsv(Path(pair_colors_file), 3):
            for name in (a, b):
                if name not in graph._node_index:
                    raise ValidationError(
                        f"{pair_colors_file}:{lineno}: unknown node {name!r}"
                    )
            key = graph.node_id(a) * n + graph.node_id(b)
            if flat.get(key, label) != label:
                raise ValidationError(
                    f"{pair_colors_file}:{lineno}: conflicting colors for "
                    f"pair ({a!r}, {b!r})"
                )
            flat[key] = label
        if len(flat) != n * n:
            raise ValidationError(
                f"{pair_colors_file}: pair coloring must cover all {n * n} "
                f"ordered pairs, got {len(flat)}"
            )
        vocab: dict[str, int] = {}
        colors = [vocab.setdefault(flat[idx], len(vocab)) for idx in range(n * n)]
        graph = graph.with_pair_coloring(PairColoring(n, tuple(colors), tuple(vocab)))

    return graph


def default_pair_coloring(G: KnowledgeGraph, mode: str = "diagonal") -> PairColoring:
    """The stock pair colorings that separate the diagonal.

    ``diagonal`` colors ``(u, u)`` pairs ``eq`` and everything else ``neq``;
    ``colored-diagonal`` additionally splits by the endpoint node colors.
    Both satisfy target node distinguishability by construction.
    """
    n = G.n
    if mode == "diagonal":
        labels = ("eq", "neq")
        colors = tuple(0 if u == v else 1 for u in range(n) for v in range(n))
        return PairColoring(n, colors, labels)
    if mode == "colored-diagonal":
        vocab: dict[str, int] = {}
        colors_list = []
        for u in range(n):
            for v in range(n):
                label = "|".join(
                    (
                        G.color_labels[G.node_colors[u]],
                        G.color_labels[G.node_colors[v]],
                        "eq" if u == v else "neq",
                    )
                )
                colors_list.append(vocab.setdefault(label, len(vocab)))
        return PairColoring(n, tuple(colors_list), tuple(vocab))
    raise ValidationError(f"unknown pair coloring mode {mode!r}")


def augment(G: KnowledgeGraph) -> KnowledgeGraph:
    """Add a fresh inverse relation per relation and mirror non-loop facts.

    For every fact ``r(u, v)`` with ``u != v`` the result gains
    ``r_inv(v, u)``; self-loops are not mirrored.  Colorings carry over
    unchanged.
    """
    names = list(G.relation_names)
    taken = set(names)
    for base in G.relation_names:
        candidate = base + "^-"
        while candidate in taken:
            candidate += "-"
        names.append(candidate)
        taken.add(candidate)
    m = len(G.relation_names)
    facts = set(G.facts)
    facts.update((m + r, t, s) for r, s, t in G.facts if s != t)
    return KnowledgeGraph(
        G.node_names,
        tuple(names),
        tuple(sorted(facts)),
        G.node_colors,
        G.color_labels,
        G.pair_coloring,
    )


def product_square(G: KnowledgeGraph) -> KnowledgeGraph:
    """The pair graph on V x V whose adjacency moves the second coordinate.

    Node ``(a, w)`` points to ``(a, v)`` via ``r`` exactly when ``w`` points
    to ``v`` via ``r`` in ``G``; node ``(u, v)`` inherits the pair color of
    ``(u, v)``.  Requires a pair coloring on ``G``.
    """
    if G.pair_coloring is None:
        raise PreconditionError(
            "product_square needs a pair coloring; attach one first "
            "(see default_pair_coloring)"
        )
    n = G.n
    names = tuple(
        f"({a},{b})" for a in G.node_names for b in G.node_names
    )
    if len(set(names)) != n * n:  # names with separators inside: fall back
        names = tuple(repr((a, b)) for a in G.node_names for b in G.node_names)
    facts = sorted(
        (r, a * n + w, a * n + v) for r, w, v in G.facts for a in range(n)
    )
    return KnowledgeGraph(
        names,
        G.relation_names,
        tuple(facts),
        G.pair_coloring.colors,
        G.pair_coloring.labels,
    )


@dataclass(frozen=True, eq=True)
class UnravellingTree:
    """Tree of directed paths running backwards along incoming facts.

    Nodes are paths ``(v, u1, ..., ui)``; each tree fact
    ``r(child, parent)`` mirrors a fact ``r(u_i, u_{i-1})`` of the source
    graph.  Colors and relations are stored as labels so the tree is
    independent of node ids.
    """

    root: tuple[int, ...]
    nodes: tuple[tuple[int, ...], ...]
    facts: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]
    node_labels: tuple[str, ...]  # color label per node, parallel to nodes


def _node_budget(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get(NODE_BUDGET_ENV)
    return int(raw) if raw else DEFAULT_NODE_BUDGET


def unravel(
    G: KnowledgeGraph,
    v: int | str,
    depth: int,
    node_budget: int | None = None,
) -> UnravellingTree:
    """Unfold all directed paths of length <= ``depth`` ending at ``v``.

    Paths follow incoming facts backward, one tree node per path; parallel
    relations between the same endpoints yield parallel tree facts.  Cyclic
    graphs blow up exponentially, so construction aborts with
    :class:`NodeBudgetError` beyond ``node_budget`` nodes (default 10**6,
    overridable via the ``RELWL_NODE_BUDGET`` environment variable).
    """
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    budget = _node_budget(node_budget)
    start = G._resolve_node(v)
    root = (start,)
    nodes: list[tuple[int, ...]] = [root]
    labels: list[str] = [G.color_labels[G.node_colors[start]]]
    facts: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    frontier = [root]
    for _ in range(depth):
        next_frontier = []
        for path in frontier:
            tail = path[-1]
            by_source: dict[int, list[int]] = {}
            for rel, src in G.incoming(tail):
                by_source.setdefault(src, []).append(rel)
            for src in sorted(by_source):
                child = path + (src,)
                nodes.append(child)
                if len(nodes) > budget:
                    raise NodeBudgetError(
                        f"unravelling exceeded the node budget of {budget}"
                    )
                labels.append(G.color_labels[G.node_colors[src]])
                next_frontier.append(child)
                for rel in sorted(by_source[src]):
                    facts.append((G.relation_names[rel], child, path))
        frontier = next_frontier
        if not frontier:
            break
    return UnravellingTree(root, tuple(nodes), tuple(facts), tuple(labels))


def canonical_tree_code(tree: UnravellingTree) -> str:
    """Digest equal for exactly the root-, color-, and relation-preserving
    isomorphic trees.

    Built bottom-up: a node's code hashes its color label together with the
    sorted multiset of ``(relation, child code)`` entries, one entry per
    tree fact.
    """
    children: dict[tuple[int, ...], list[tuple[str, tuple[int, ...]]]] = {}
    for rel, child, parent in tree.facts:
        children.setdefault(parent, []).append((rel, child))
    label_of = dict(zip(tree.nodes, tree.node_labels))
    codes: dict[tuple[int, ...], str] = {}
    for path in sorted(tree.nodes, key=len, reverse=True):
        entries = sorted(
            (rel, codes[child]) for rel, child in children.get(path, ())
        )
        payload = repr((label_of[path], tuple(entries)))
        codes[path] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return codes[tree.root]


def permute_nodes(G: KnowledgeGraph, perm: tuple[int, ...]) -> KnowledgeGraph:
    """Relabel nodes by ``perm`` (old id -> new id); everything follows."""
    n = G.n
    if sorted(perm) != list(range(n)):
        raise ValidationError("perm must be a permutation of node ids")
    names = [""] * n
    colors = [0] * n
    for old, new in enumerate(perm):
        names[new] = G.node_names[old]
        colors[new] = G.node_colors[old]
    facts = tuple(sorted((r, perm[s], perm[t]) for r, s, t in G.facts))
    pc = None
    if G.pair_coloring is not None:
        flat = [0] * (n * n)
        for u in range(n):
            for v in range(n):
                flat[perm[u] * n + perm[v]] = G.pair_coloring.color_of(u, v)
        pc = PairColoring(n, tuple(flat), G.pair_coloring.labels)
    return KnowledgeGraph(
        tuple(names), G.relation_names, facts, tuple(colors), G.color_labels, pc
    )
