"""Color refinement over knowledge graphs, for nodes and for node pairs.

All five tests run one numpy kernel over the int arrays ``src`` / ``dst``
/ ``rel`` of a graph's edges.  It refines a table of B rows of n colors;
index ``v`` of row ``u`` is refined from the row's colors at ``w`` over
the facts ``r(w, v)``:

* ``rwl1`` refines the nodes of G by the multiset of (incoming neighbor
  color, relation) pairs: one row;
* ``rawl2`` refines ordered pairs ``(u, v)`` by moving the second
  coordinate along incoming facts: row ``u`` holds the pairs ``(u, .)``,
  and pair ``(u, v)`` has index ``u * n + v``;
* ``rwl2`` also moves the first coordinate: a second pass over the
  transposed table reads the first pass's ids as its own colors.  Its ids
  are injective in (own color, both multisets), so its partitions are
  those of refining by all three at once;
* the ``+`` variants run over ``augment(G)``, the graph with inverse
  relations.

Each pass sorts each row's codes ``color[src] * m + rel`` by (target,
code), lays each index out as ``(own color, sorted codes...)`` padded with
``-1``, and ranks the distinct rows of the whole table lexicographically
into dense ids.  No hashing is involved, so partitions are exact.  The
``-1`` padding orders a row before every row it is a proper prefix of, so
for ``rwl1`` and ``rawl2(+)`` the ids are those of sorting the signatures
``(own, sorted((color, rel)))`` as Python tuples.  Colorings are
nevertheless meaningful only as partitions and only within one trace, which
keeps them as the kernel's int64 rows (``.tolist()`` gives Python ints).

The node's own contribution to its signature is taken at iteration
``f(t)`` for a history function ``f`` (identity by default); neighbor
colors are always taken at iteration ``t``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NodeBudgetError,
    PreconditionError,
    UnknownEntityError,
    ValidationError,
)
from .graphs import KnowledgeGraph, _node_budget, augment

TEST_IDS = ("rwl1", "rawl2", "rwl2", "rawl2+", "rwl2+")


class _UnknownVerdict:
    """Distinguishability could not be decided within the recorded horizon."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = _UnknownVerdict()


@dataclass(frozen=True)
class HistoryFunction:
    """Non-decreasing map f with f(t) <= t selecting the self-color iteration.

    ``identity`` reads the previous iteration (standard refinement), ``zero``
    always reads the initial coloring, and ``table`` interpolates an explicit
    finite table covering iterations 0..len-1.
    """

    kind: str
    table: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "zero", "table"):
            raise ValidationError(f"unknown history kind {self.kind!r}")
        if (self.table is not None) != (self.kind == "table"):
            raise ValidationError("table must be given exactly for kind='table'")
        if self.table is not None:
            prev = 0
            for t, ft in enumerate(self.table):
                if not isinstance(ft, int) or isinstance(ft, bool):
                    raise ValidationError(
                        f"history table entries must be integers, got {ft!r}"
                    )
                if ft > t:
                    raise ValidationError(f"history table has f({t})={ft} > {t}")
                if ft < prev:
                    raise ValidationError("history table must be non-decreasing")
                prev = ft

    def __call__(self, t: int) -> int:
        if self.kind == "identity":
            return t
        if self.kind == "zero":
            return 0
        assert self.table is not None
        if t >= len(self.table):
            raise ValidationError(
                f"history table covers iterations 0..{len(self.table) - 1}, "
                f"asked for {t}"
            )
        return self.table[t]

    @classmethod
    def identity(cls) -> "HistoryFunction":
        return cls("identity")

    @classmethod
    def zero(cls) -> "HistoryFunction":
        return cls("zero")

    @classmethod
    def from_table(cls, values: Sequence[int]) -> "HistoryFunction":
        return cls("table", tuple(values))


@dataclass(frozen=True, eq=False)
class WLTrace:
    """Recorded colorings of one refinement run, indexed by iteration.

    ``colorings`` is a read-only int64 array of shape (iterations + 1, N):
    row ``t`` assigns a dense color id to every index (nodes for arity 1,
    pairs ``u * n + v`` for arity 2); ``.tolist()`` gives Python ints.
    ``stabilized_at`` is the first iteration whose partition equals its
    predecessor's, when that point was reached within the recorded horizon.
    """

    test_id: str
    arity: int
    n: int
    node_names: tuple[str, ...]
    colorings: np.ndarray
    stabilized_at: int | None

    @property
    def iterations(self) -> int:
        return len(self.colorings) - 1

    def index_of(self, x) -> int:
        if self.arity == 1:
            if isinstance(x, str):
                return self._node_id(x)
            if not 0 <= x < self.n:
                raise UnknownEntityError(f"node id {x} out of range")
            return int(x)
        u, v = x
        u = self._node_id(u) if isinstance(u, str) else int(u)
        v = self._node_id(v) if isinstance(v, str) else int(v)
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise UnknownEntityError(f"pair ({u},{v}) out of range")
        return u * self.n + v

    @cached_property
    def _node_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.node_names)}

    def _node_id(self, name: str) -> int:
        try:
            return self._node_index[name]
        except KeyError:
            raise UnknownEntityError(f"unknown node {name!r}") from None

    def keys(self) -> list:
        if self.arity == 1:
            return list(range(self.n))
        return [(u, v) for u in range(self.n) for v in range(self.n)]

    def to_json_dict(self) -> dict:
        names = self.node_names
        members = list(names) if self.arity == 1 else [[u, v] for u in names for v in names]
        partitions = []
        for cols in self.colorings:
            classes: dict[int, list] = {}
            for member, color in zip(members, cols.tolist()):
                classes.setdefault(color, []).append(member)
            partitions.append(sorted(classes.values()))
        return {
            "test": self.test_id,
            "iterations": self.iterations,
            "partitions": partitions,
            "stabilized_at": self.stabilized_at,
        }


def _colors(coloring):
    """A coloring as a mapping or a sequence; a 1-D array is read once."""
    if isinstance(coloring, np.ndarray) and coloring.ndim == 1:
        return coloring.tolist()
    if isinstance(coloring, (Mapping, Sequence)) and not isinstance(coloring, (str, bytes)):
        return coloring
    raise ValidationError(f"cannot interpret {type(coloring).__name__} as a coloring")


def _aligned(a, b) -> tuple:
    """Two colorings' colors aligned by index (a sequence maps index -> color)."""
    a, b = _colors(a), _colors(b)
    if isinstance(a, Mapping) or isinstance(b, Mapping):
        a, b = (x if isinstance(x, Mapping) else dict(enumerate(x)) for x in (a, b))
        if a.keys() == b.keys():
            return a.values(), [b[key] for key in a]
    elif len(a) == len(b):
        return a, b
    raise ValidationError("colorings are over different index sets")


def refines(finer, coarser) -> bool:
    """True iff equal colors in ``finer`` imply equal colors in ``coarser``,
    that is iff ``finer`` has as many classes as the pairs of aligned colors.
    Both are mappings, sequences or 1-D arrays (index -> hashable color)."""
    a, b = _aligned(finer, coarser)
    return len(set(zip(a, b))) == len(set(a))


def equivalent(a, b) -> bool:
    """Mutual refinement: the two colorings induce the same partition."""
    a, b = _aligned(a, b)
    return len(set(a)) == len(set(zip(a, b))) == len(set(b))


def _dense(keys: np.ndarray) -> np.ndarray:
    """Dense ids of ``keys`` in ascending order of value."""
    order = np.argsort(keys)
    ordered = keys[order]
    ids = np.empty(len(keys), dtype=np.int64)
    ids[order] = np.cumsum(np.concatenate(([0], ordered[1:] != ordered[:-1])))
    return ids


class _RowLayout:
    """Where each row of a ranking lives along the last axis of the values.

    Row ``i`` is ``values[..., starts[i]:starts[i] + lengths[i]]``.  The rows
    are laid out as a matrix of indices into the values, padded with the
    index of a trailing ``-1`` sentinel.  When a few rows are much longer
    than the rest, the width is cut to twice the mean length and the longer
    rows' tails get a layout of their own, ranked into one more column, so
    the matrix stays within about twice the input size.
    """

    def __init__(self, starts: np.ndarray, lengths: np.ndarray, sentinel: int):
        count = len(starts)
        total = int(lengths.sum())
        width = int(lengths.max(initial=0))
        if count * width > 2 * total + count:
            width = 2 * (total // count) + 1
        self.long = np.flatnonzero(lengths > width)
        self.tails = None
        if self.long.size:
            self.tails = _RowLayout(
                starts[self.long] + width, lengths[self.long] - width, sentinel
            )
        offsets = np.arange(width + (self.tails is not None))
        self.gather = np.where(
            offsets < np.minimum(lengths, width)[:, None], starts[:, None] + offsets, sentinel
        )

    def rank(self, values: np.ndarray) -> np.ndarray:
        """Dense ids of the rows, over all leading indices of ``values``, in
        lexicographic order, a proper prefix first (as Python orders tuples);
        ``values`` are non-negative but for the sentinel.

        Each row is read as a number in base ``radix`` whose digits are its
        entries plus one (0 for padding).  Blocks of digits are folded into
        int64 keys, and the keys are renumbered densely before each further
        block, so no key overflows.
        """
        digits = values.take(self.gather, axis=-1)
        digits += 1
        if self.tails is not None:
            digits[..., self.long, -1] = self.tails.rank(values) + 1
        shape = digits.shape[:-1]
        if digits.size == 0:
            return np.zeros(shape, dtype=np.int64)
        digits = digits.reshape(-1, digits.shape[-1])
        count = len(digits)
        radix = int(digits.max()) + 1
        if count * radix >= 2**62:  # renumbering the digits keeps their order
            digits = _dense(digits.ravel()).reshape(digits.shape)
            radix = int(digits.max()) + 1
        per = max(1, (62 - count.bit_length()) // radix.bit_length())
        keys = None
        for c in range(0, digits.shape[1], per):
            block = digits[:, c : c + per]
            word = block @ radix ** np.arange(block.shape[1] - 1, -1, -1)
            keys = word if keys is None else _dense(keys) * radix ** block.shape[1] + word
        return _dense(keys).reshape(shape)


class _Refiner:
    """One refinement pass over a graph's edges, for a (B, n) table of
    colors or one row of n; the ids are dense over the whole table."""

    def __init__(self, num_nodes: int, src, dst, rel, m: int):
        order = np.argsort(dst, kind="stable")
        self.src, self.dst, self.rel, self.m = src[order], dst[order], rel[order], m
        degree = np.bincount(self.dst, minlength=num_nodes)
        first_edge = np.cumsum(degree) - degree
        # v's row (own color, codes...) occupies flat[..., start[v]:][:1 + degree[v]]
        self.own_at = starts = first_edge + np.arange(num_nodes)
        rank_in_row = np.arange(len(self.dst)) - first_edge[self.dst]
        self.code_at = starts[self.dst] + 1 + rank_in_row
        self.flat = np.full(num_nodes + len(self.dst) + 1, -1, dtype=np.int64)
        self.layout = _RowLayout(starts, degree + 1, len(self.flat) - 1)

    def __call__(self, cols: np.ndarray, own: np.ndarray) -> np.ndarray:
        codes = cols.take(self.src, axis=-1)
        codes *= self.m
        span = (int(cols.max(initial=0)) + 1) * self.m
        if cols.shape[-1] * span < 2**63:  # sort (target, code) as one int64 key
            shift = self.dst * span
            codes += shift + self.rel
            codes.sort()
            codes -= shift
        else:
            codes += self.rel
            order = np.lexsort((codes, np.broadcast_to(self.dst, codes.shape)))
            codes = np.take_along_axis(codes, order, axis=-1)
        if self.flat.shape[:-1] != cols.shape[:-1]:  # one buffer per table shape
            self.flat = np.full(cols.shape[:-1] + self.flat.shape[-1:], -1, dtype=np.int64)
        self.flat[..., self.own_at] = own
        self.flat[..., self.code_at] = codes
        return self.layout.rank(self.flat)


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two dense colorings induce the same partition: as many
    classes, and each class of ``a`` inside one class of ``b``."""
    if a.size == 0:
        return True
    k = int(a.max()) + 1
    if k != int(b.max()) + 1:
        return False
    image = np.empty(k, dtype=np.int64)
    image[a] = b
    return bool(np.array_equal(image[a], b))


def run_test(
    test_id: str,
    G: KnowledgeGraph,
    history: HistoryFunction | None = None,
    horizon: int | str = "stabilize",
    *,
    allow_non_tnd: bool = False,
    node_budget: int | None = None,
) -> WLTrace:
    """Run one refinement test and record every iteration's coloring.

    ``horizon`` is either a fixed iteration count or ``"stabilize"``, which
    stops at the first iteration whose partition matches its predecessor's
    (guaranteed within |V| iterations for arity 1 and |V|^2 for arity 2).
    Arity-2 tests require a pair coloring satisfying target node
    distinguishability unless ``allow_non_tnd`` waives the check.  They
    refine all |V|^2 pairs as |V| rows over the facts, each round taking
    one code per row and fact (two for ``rwl2``, one per pass), and raise
    :class:`NodeBudgetError` when the pairs plus a round's codes exceed
    ``node_budget`` (default 10**6, overridable via the
    ``RELWL_NODE_BUDGET`` environment variable).
    """
    if test_id not in TEST_IDS:
        raise ValidationError(f"unknown test {test_id!r}; expected one of {TEST_IDS}")
    history = history or HistoryFunction.identity()
    base = test_id.rstrip("+")
    arity = 1 if base == "rwl1" else 2
    n = G.n
    H = augment(G) if test_id.endswith("+") else G
    if arity == 2:
        if G.pair_coloring is None:
            raise PreconditionError(f"{test_id} needs a pair coloring on the graph")
        if not G.pair_coloring.tnd_flag and not allow_non_tnd:
            raise PreconditionError(
                "pair coloring lacks target node distinguishability; "
                "pass allow_non_tnd=True to waive"
            )
        size = n * n + n * len(H.facts) * (2 if base == "rwl2" else 1)
        budget = _node_budget(node_budget)
        if size > budget:
            raise NodeBudgetError(
                f"{test_id} refines {n * n} pairs with {size - n * n} codes per "
                f"round: {size} in all, over the budget of {budget}"
            )
        initial = G.pair_coloring.colors
    else:
        initial = G.node_colors
    if horizon != "stabilize" and (not isinstance(horizon, int) or horizon < 0):
        raise ValidationError("horizon must be 'stabilize' or an iteration count")

    rel, src, dst = H.edges
    refine = _Refiner(n, src, dst, rel, len(H.relation_names))
    # one row of nodes, or row u holding the pairs (u, .)
    colorings = [_dense(np.array(initial, dtype=np.int64)).reshape((n,) * arity)]
    stabilized_at: int | None = None
    steps = len(initial) + 1 if horizon == "stabilize" else horizon
    for t in range(steps):
        cols = refine(colorings[t], colorings[history(t)])
        if base == "rwl2":  # then move the first coordinate: the transposed pass
            cols = refine(colorings[t].T, cols.T).T
        colorings.append(cols)
        if stabilized_at is None and _same_partition(colorings[-1], colorings[t]):
            stabilized_at = t + 1
            if horizon == "stabilize":
                break
    if horizon == "stabilize" and stabilized_at is None:  # pragma: no cover
        raise AssertionError("refinement failed to stabilize")
    table = np.stack(colorings).reshape(len(colorings), n**arity)
    table.flags.writeable = False
    return WLTrace(test_id, arity, n, G.node_names, table, stabilized_at)


def distinguishes(trace: WLTrace, x, y):
    """Earliest recorded iteration separating ``x`` from ``y``.

    Returns the iteration index, or ``None`` when the trace proves the two
    are never separated (requires a stabilized trace), or the ``UNKNOWN``
    sentinel when the horizon was too short to decide.
    """
    i, j = trace.index_of(x), trace.index_of(y)
    if i == j:
        return None
    split = np.flatnonzero(trace.colorings[:, i] != trace.colorings[:, j])
    if split.size:
        return int(split[0])
    return None if trace.stabilized_at is not None else UNKNOWN
