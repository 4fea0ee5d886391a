"""Reference graph constructions: the derived graphs built in plain Python.

This is how ``relwl.graphs`` built its graphs before its data path moved
to numpy arrays: sets and ``sorted`` over fact tuples, and per-pair loops.
It is kept as the oracle of the equality tests: every construction must
return a graph ``==`` to the one built here, with the same ``edges``.
"""

import itertools

import numpy as np

from relwl.graphs import DEFAULT_COLOR_LABEL, KnowledgeGraph, PairColoring


def reference_edges(G):
    """``(rel, src, dst)`` of ``G.facts``, stably sorted by target."""
    facts = np.fromiter(
        itertools.chain.from_iterable(G.facts),
        dtype=np.int64,
        count=3 * len(G.facts),
    ).reshape(-1, 3)
    rel, src, dst = facts[np.argsort(facts[:, 2], kind="stable")].T.copy()
    return rel, src, dst


def reference_tnd(n, colors):
    """Whether every (u, u) differs in color from every (u, v), v != u."""
    return all(
        colors[u * n + u] != colors[u * n + v]
        for u in range(n)
        for v in range(n)
        if v != u
    )


def reference_from_triples(triples, node_order=(), relation_order=()):
    nodes: dict[str, int] = {}
    relations: dict[str, int] = {}

    def intern(pool, name):
        return pool.setdefault(name, len(pool))

    for name in node_order:
        intern(nodes, name)
    for name in relation_order:
        intern(relations, name)
    facts = set()
    for head, rel, tail in triples:
        facts.add((intern(relations, rel), intern(nodes, head), intern(nodes, tail)))
    return KnowledgeGraph(
        tuple(nodes), tuple(relations), tuple(sorted(facts)), (0,) * len(nodes)
    )


def reference_with_pair_coloring(G, pc):
    return KnowledgeGraph(
        G.node_names, G.relation_names, G.facts, G.node_colors, G.color_labels, pc
    )


def reference_with_node_coloring(G, labels):
    vocab: dict[str, int] = {}
    colors = [
        vocab.setdefault(labels.get(name, DEFAULT_COLOR_LABEL), len(vocab))
        for name in G.node_names
    ]
    return KnowledgeGraph(
        G.node_names,
        G.relation_names,
        G.facts,
        tuple(colors),
        tuple(vocab),
        G.pair_coloring,
    )


def reference_default_pair_coloring(G, mode="diagonal"):
    n = G.n
    if mode == "diagonal":
        colors = tuple(0 if u == v else 1 for u in range(n) for v in range(n))
        return PairColoring(n, colors, ("eq", "neq"))
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


def reference_augment(G):
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


def reference_product_square(G):
    n = G.n
    names = tuple(f"({a},{b})" for a in G.node_names for b in G.node_names)
    if len(set(names)) != n * n:
        names = tuple(repr((a, b)) for a in G.node_names for b in G.node_names)
    facts = sorted((r, a * n + w, a * n + v) for r, w, v in G.facts for a in range(n))
    return KnowledgeGraph(
        names,
        G.relation_names,
        tuple(facts),
        G.pair_coloring.colors,
        G.pair_coloring.labels,
    )


def reference_permute_nodes(G, perm):
    n = G.n
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
