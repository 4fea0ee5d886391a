"""Reference refinement: the three hand-written signature rules, in Python.

This is the engine ``relwl.wl`` ran before its rounds became one numpy
kernel over rows of colors on a graph's edges.  It is kept as the oracle
of the differential tests: same partitions at every iteration and the
same ``stabilized_at`` for all five tests, and the same color ids for
``rwl1``, ``rawl2`` and ``rawl2+``.
"""

from relwl.graphs import augment
from relwl.wl import HistoryFunction


def _classes(colors) -> list:
    """The partition of a coloring: its classes of indices, in order."""
    classes: dict = {}
    for i, color in enumerate(colors):
        classes.setdefault(color, []).append(i)
    return sorted(classes.values())


def _dense_renumber(signatures: list) -> tuple[int, ...]:
    order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return tuple(order[sig] for sig in signatures)


def reference_run(test_id, G, history=None, horizon="stabilize"):
    """``(colorings, stabilized_at)`` as ``run_test`` records them."""
    history = history or HistoryFunction.identity()
    H = augment(G) if test_id.endswith("+") else G
    n = G.n
    base = test_id.rstrip("+")
    initial = G.node_colors if base == "rwl1" else G.pair_coloring.colors
    incoming = [H.incoming(v) for v in range(n)]

    def next_colors(cols, own):
        sigs = []
        if base == "rwl1":
            for v in range(n):
                ms = sorted((cols[w], rel) for rel, w in incoming[v])
                sigs.append((own[v], tuple(ms)))
        elif base == "rawl2":
            for u in range(n):
                for v in range(n):
                    ms = sorted((cols[u * n + w], rel) for rel, w in incoming[v])
                    sigs.append((own[u * n + v], tuple(ms)))
        else:
            for u in range(n):
                for v in range(n):
                    first = sorted((cols[w * n + v], rel) for rel, w in incoming[u])
                    second = sorted((cols[u * n + w], rel) for rel, w in incoming[v])
                    sigs.append((own[u * n + v], tuple(first), tuple(second)))
        return _dense_renumber(sigs)

    colorings = [_dense_renumber(list(initial))]
    stabilized_at = None
    steps = len(initial) + 1 if horizon == "stabilize" else horizon
    for t in range(steps):
        colorings.append(next_colors(colorings[t], colorings[history(t)]))
        if stabilized_at is None and _classes(colorings[-1]) == _classes(colorings[t]):
            stabilized_at = t + 1
            if horizon == "stabilize":
                break
    return tuple(colorings), stabilized_at
