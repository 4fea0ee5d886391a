"""Knowledge-graph data model, flat-file ingestion, and graph constructions.

A knowledge graph is a set of typed directed facts ``r(source, target)``
over an interned node vocabulary, together with a node coloring and an
optional coloring of ordered node pairs.  Everything in this module is an
immutable value; operations return new graphs.

``KnowledgeGraph.facts`` is sorted by ``(relation, source, target)``, and
``KnowledgeGraph.edges``, the same facts as arrays read by the refinement
kernel, the network forward, the logic evaluator and the per-node queries,
is stably sorted by target.  One constructor validates every graph.

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

import hashlib
import os
from dataclasses import dataclass, field, replace
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
        colors = _color_ids(self.colors, len(self.labels), "pair color").reshape(self.n, self.n)
        # each row's diagonal entry equals only itself
        tnd = np.count_nonzero(colors == np.diagonal(colors)[:, None]) == self.n
        object.__setattr__(self, "tnd_flag", bool(tnd))

    def color_of(self, u: int, v: int) -> int:
        return self.colors[u * self.n + v]

    def label_of(self, u: int, v: int) -> str:
        return self.labels[self.color_of(u, v)]


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable multi-relational graph with node and optional pair colors.

    ``facts`` holds deduplicated ``(relation, source, target)`` id triples in
    sorted order; ``edges`` holds them as read-only int64 arrays ``(rel, src,
    dst)``, stably sorted by target.  ``node_colors[v]`` is a dense color id
    into ``color_labels``.
    """

    node_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    facts: tuple[tuple[int, int, int], ...]
    node_colors: tuple[int, ...]
    color_labels: tuple[str, ...] = (DEFAULT_COLOR_LABEL,)
    pair_coloring: PairColoring | None = None
    _node_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _relation_index: dict[str, int] = field(init=False, repr=False, compare=False)
    edges: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

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
        _color_ids(self.node_colors, len(self.color_labels), "node color")
        malformed = "facts must be (relation, source, target) triples of integer ids"
        facts = _ids(self.facts, (len(self.facts), 3), malformed)
        # each row rises over the one before: weighted 4, 2, 1, the sign of
        # the first nonzero column of the difference decides the total
        rise = np.sign(facts[1:] - facts[:-1]) @ (4, 2, 1)
        if np.count_nonzero(rise <= 0):
            raise ValidationError("facts must be sorted and deduplicated")
        unknown, _ = ((facts < 0) | (facts >= (m, n, n))).nonzero()
        if len(unknown):
            r, s, t = self.facts[unknown[0]]
            raise ValidationError(f"fact ({r},{s},{t}) references unknown ids")
        if self.pair_coloring is not None and self.pair_coloring.n != n:
            raise ValidationError("pair coloring sized for a different graph")
        columns = facts[np.argsort(facts[:, 2], kind="stable")].T.astype(np.int64, order="C")
        columns.flags.writeable = False
        object.__setattr__(self, "edges", tuple(columns))

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
        ri, si = self._resolve_relation(r), self._resolve_node(s)
        at = self._into(t)
        rel, src, _ = self.edges
        return bool(((rel[at] == ri) & (src[at] == si)).any())

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
        return replace(self, pair_coloring=pc)

    def with_node_coloring(self, labels: Mapping[str, str]) -> "KnowledgeGraph":
        """Recolor nodes from a name -> label mapping; unlisted nodes keep
        the default label."""
        for name in labels:
            if name not in self._node_index:
                raise ValidationError(f"color assignment for unknown node {name!r}")
        colors, vocab = _dense_labels(
            labels.get(name, DEFAULT_COLOR_LABEL) for name in self.node_names
        )
        return replace(self, node_colors=colors, color_labels=vocab)

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
    ids = [
        (intern(relations, rel), intern(nodes, head), intern(nodes, tail))
        for head, rel, tail in triples
    ]
    facts = _canonical_facts(*np.array(ids, dtype=np.int64).reshape(-1, 3).T)
    return KnowledgeGraph(tuple(nodes), tuple(relations), facts, (0,) * len(nodes))


def _ids(values, shape: tuple[int, ...], message: str) -> np.ndarray:
    """``values`` as integer ids of ``shape``, else ValidationError(message)."""
    try:
        ids = np.asarray(values)
    except ValueError:  # ragged rows
        raise ValidationError(message) from None
    if ids.dtype.kind != "i" and ids.size:
        # integers beyond int64 come back as uint64, floats or objects: keep
        # them as Python ints, so the checks compare them as they were given
        ids = np.array(values, dtype=object)
        if not all(isinstance(x, (int, np.integer)) for x in ids.flat):
            raise ValidationError(message)
    if ids.shape != shape and (ids.size or shape[0]):  # () stands for no rows
        raise ValidationError(message)
    return ids.reshape(shape)


def _dense_labels(labels: Iterable[str]) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Ids of ``labels`` by order of first appearance, and the distinct labels."""
    vocab: dict[str, int] = {}
    ids = tuple(vocab.setdefault(label, len(vocab)) for label in labels)
    return ids, tuple(vocab)


def _color_ids(values, count: int, what: str) -> np.ndarray:
    """Check ``values`` as color ids into ``count`` labels; return them."""
    colors = _ids(values, (len(values),), f"{what} ids must be integers")
    (outside,) = ((colors < 0) | (colors >= count)).nonzero()
    if len(outside):
        raise ValidationError(f"{what} id {values[outside[0]]} out of range")
    return colors


def _canonical_facts(rel, src, dst) -> tuple[tuple[int, int, int], ...]:
    """The fact arrays as a ``facts`` tuple: sorted, deduplicated, Python ints."""
    order = np.lexsort((dst, src, rel))
    facts = np.stack((rel, src, dst), axis=1)[order]
    keep = np.ones(len(facts), dtype=bool)
    keep[1:] = (facts[1:] != facts[:-1]).any(axis=1)
    return tuple(zip(*facts[keep].T.tolist()))


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
        colors, vocab = _dense_labels(flat[idx] for idx in range(n * n))
        graph = graph.with_pair_coloring(PairColoring(n, colors, vocab))

    return graph


def default_pair_coloring(G: KnowledgeGraph, mode: str = "diagonal") -> PairColoring:
    """The stock pair colorings that separate the diagonal.

    ``diagonal`` colors ``(u, u)`` pairs ``eq`` and everything else ``neq``;
    ``colored-diagonal`` additionally splits by the endpoint node colors.
    Both satisfy target node distinguishability by construction.
    """
    n = G.n
    if mode == "diagonal":
        colors = 1 - np.eye(n, dtype=np.int64)
        return PairColoring(n, tuple(colors.ravel().tolist()), ("eq", "neq"))
    if mode == "colored-diagonal":
        node_labels = [G.color_labels[c] for c in G.node_colors]
        colors, vocab = _dense_labels(
            f"{a}|{b}|{'eq' if u == v else 'neq'}"
            for u, a in enumerate(node_labels)
            for v, b in enumerate(node_labels)
        )
        return PairColoring(n, colors, vocab)
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
    rel, src, dst = G.edges
    mirror = src != dst
    facts = _canonical_facts(
        np.concatenate((rel, rel[mirror] + len(G.relation_names))),
        np.concatenate((src, dst[mirror])),
        np.concatenate((dst, src[mirror])),
    )
    return replace(G, relation_names=tuple(names), facts=facts)


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
    rel, src, dst = G.edges
    rows = np.arange(n, dtype=np.int64)[:, None] * n
    facts = _canonical_facts(
        np.broadcast_to(rel, (n, len(rel))).ravel(),
        (rows + src).ravel(),
        (rows + dst).ravel(),
    )
    pc = G.pair_coloring
    return KnowledgeGraph(names, G.relation_names, facts, pc.colors, pc.labels)


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
    invalid = "perm must be a permutation of node ids"
    new_id = _ids(perm, (n,), invalid)
    if not np.array_equal(np.sort(new_id), np.arange(n)):
        raise ValidationError(invalid)
    old_id = np.argsort(new_id)  # the old id of each new id
    names = tuple(np.array(G.node_names, dtype=object)[old_id].tolist())
    colors = tuple(np.array(G.node_colors, dtype=np.int64)[old_id].tolist())
    rel, src, dst = G.edges
    facts = _canonical_facts(rel, new_id[src], new_id[dst])
    pc = None
    if G.pair_coloring is not None:
        flat = np.array(G.pair_coloring.colors, dtype=np.int64).reshape(n, n)
        flat = flat[np.ix_(old_id, old_id)].ravel()
        pc = PairColoring(n, tuple(flat.tolist()), G.pair_coloring.labels)
    return KnowledgeGraph(names, G.relation_names, facts, colors, G.color_labels, pc)
