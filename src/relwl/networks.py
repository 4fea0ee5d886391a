"""Forward evaluation of relational and conditional message passing networks.

Two numeric modes share one recurrence: ``float64`` runs on numpy, and
``exact`` runs on integers so that equality claims can be checked without
tolerances.  A :class:`NetworkSpec` pins every choice in the design space:
initialization of the conditional pair features (``delta0`` .. ``delta4``
or an explicit pair table), per-relation message functions (``theta1``:
gate by a relation-transformed query vector, ``theta2``: gate by a
relation vector, ``theta3``: relation matrix, ``scaling``: relation
scalar), aggregation (``sum`` or ``pna``), activation, update shape, and
the history function selecting which past layer the update reads.

Two update shapes occur in practice and both are supported:

* ``combine``:  h <- sigma(W (h_self + aggregate) + bias)
* ``separate``: h <- sigma(W h_self + aggregate + bias)

A layer is array algebra over the graph's edge arrays ``G.edges`` =
``(rel, src, dst)``, stably sorted by target.  Features are one array of
shape (n, B, d) per layer, where B is a batch of sources: 1 for a
node-level run or a single conditional run, and all n sources for
:func:`cmpnn_pair_table`.  Each layer gathers the source rows ``H[src]``,
applies one message op per relation (a stacked matrix-vector product or
an elementwise product), sums the messages into their targets with one
in-order ``np.add.at`` and applies one stacked ``W @ x``, the bias and the
activation.  Stacked matrix-vector products and the in-order sum round
exactly as one ``W @ x`` per node and a running sum per target do, so float
features do not depend on the batch.

Exact mode holds a layer as integer numerators (``dtype=object`` arrays of
Python ints) over one positive denominator, in lowest terms: the
denominator is the lcm of the entries' reduced denominators.  So equal
rationals of one layer have equal numerators.  Parameters are scaled to
integers once per layer: every relation message over one common
denominator, so that ``np.add.at`` sums numerators, and each row of ``W``
over its own.  Sums of terms are brought to the lcm of their denominators.
The activations read numerators only: sign and relu compare them with 0,
truncated relu with the denominator.  No ``Fraction`` arithmetic runs in
the forward; :meth:`FeatureTable.vector` builds ``Fraction`` entries on
request.

The constructive builders return exact-rational networks whose per-layer
feature partitions provably coincide with the corresponding color
refinement partitions.  Every feature is a column of an invertible +/-1
basis (:func:`sign_basis`), so the basis inverse M turns features into
one-hot colours and a layer reduces to integer colour counting: a column
of self colour plus (|V|+1)^(i+1) times the in-neighbour colour counts via
relation i, read as one integer per node.  The sign matrix of
:func:`build_sign_matrix` has rank one, X = xs (x) z, so each weight matrix
is xs (x) (z^T M), with M in closed form; no matrix is ever inverted or
multiplied.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import rational as rat
from .errors import PreconditionError, UnknownEntityError, ValidationError
from .graphs import KnowledgeGraph, product_square
from .wl import HistoryFunction

DELTA_KINDS = ("delta0", "delta1", "delta2", "delta3", "delta4", "pair-table")
THETA_KINDS = ("theta1", "theta2", "theta3", "scaling")
PSI_KINDS = ("sum", "pna")
SIGMA_KINDS = ("sign", "relu", "truncated-relu", "identity")
UPDATE_KINDS = ("combine", "separate")

PNA_WIDTH = 12  # mean/min/max/std, each under identity/amplify/attenuate scalers


# ---------------------------------------------------------------------------
# sign-basis machinery for the constructive builders
# ---------------------------------------------------------------------------


def sign_basis(n: int) -> rat.Mat:
    """Invertible n x n matrix over {-1, +1} with pairwise distinct columns.

    Entry (i, j) is -1 when j >= i and +1 otherwise (0-based); column j
    flips sign after row j, which makes the columns linearly independent
    and usable as a feature alphabet for up to n color classes.
    """
    if n < 1:
        raise ValidationError("sign basis needs n >= 1")
    return tuple(
        tuple(Fraction(-1 if j >= i else 1) for j in range(n)) for i in range(n)
    )


def build_sign_matrix(B: Sequence[Sequence[int]], n: int | None = None) -> rat.Mat:
    """Rational X with sign(X B - 1) landing in the sign-basis columns.

    ``B`` must be an n-row non-negative integer matrix with p <= n pairwise
    distinct, nonzero columns.  Writing b for the digit values of the
    columns in base m+1 (m the largest entry) sorted descending, row j of
    the result uses the multiplier 1/(b_1 + 1) for j = 1, the midpoint
    reciprocal 2/(b_j + b_{j-1}) for 2 <= j <= p, and 2/b_p beyond; then
    column c of sign(X B - 1) equals the sign-basis column at the position
    of b_c in the descending order.  No product X B ever hits 1 exactly.
    """
    rows = [tuple(row) for row in B]
    if n is None:
        n = len(rows)
    if n != len(rows):
        raise ValidationError(f"B has {len(rows)} rows, expected n={n}")
    if not rows or not rows[0]:
        raise ValidationError("B must be non-empty")
    p = len(rows[0])
    if any(len(r) != p for r in rows):
        raise ValidationError("ragged matrix")
    if p > n:
        raise ValidationError(f"B has {p} columns > {n} rows")
    cols = list(zip(*rows))
    ints = []
    for col in cols:
        converted = []
        for x in col:
            frac = Fraction(x)
            if frac.denominator != 1 or frac < 0:
                raise ValidationError("B entries must be non-negative integers")
            converted.append(frac.numerator)
        ints.append(tuple(converted))
    if len(set(ints)) != p:
        raise ValidationError("columns of B must be pairwise distinct")
    if any(all(x == 0 for x in col) for col in ints):
        raise ValidationError("columns of B must be nonzero")
    m = max(max(col) for col in ints)
    base = m + 1  # strictly above every digit, so column values stay distinct
    z = [base**i for i in range(n)]
    b = [sum(zi * col[i] for i, zi in enumerate(z)) for col in ints]
    xs = _sign_multipliers(sorted(b, reverse=True), n)
    return tuple(tuple(x * zi for zi in z) for x in xs)


def _sign_multipliers(values: Sequence[int], n: int) -> list[Fraction]:
    """Row multipliers of the sign matrix for distinct positive ``values``
    sorted descending: 1/(b_1 + 1), the midpoint reciprocals
    2/(b_j + b_{j-1}), then 2/b_p for the rows beyond the p values."""
    xs = [Fraction(1, values[0] + 1)]
    xs.extend(Fraction(2, lo + hi) for hi, lo in zip(values, values[1:]))
    xs.extend([Fraction(2, values[-1])] * (n - len(values)))
    return xs


def _times_basis_inverse(v: Sequence[int]) -> tuple[Fraction, ...]:
    """The row vector ``v`` times M, the inverse of ``sign_basis(len(v))``.

    Closed form: (vM)_0 = -(v_0 + v_{n-1})/2 and (vM)_j = (v_{j-1} - v_j)/2
    for j >= 1.
    """
    first = Fraction(-(v[0] + v[-1]), 2)
    return (first,) + tuple(Fraction(a - b, 2) for a, b in zip(v, v[1:]))


# ---------------------------------------------------------------------------
# network specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkSpec:
    """Complete parameterization of one message passing network.

    All numeric payloads are stored as nested tuples (of ``Fraction`` in
    exact mode, of ``float`` otherwise) so specs compare by value and
    serialize losslessly.  ``relation_params[t]`` maps relation names to the
    per-layer message parameter whose shape is dictated by ``theta_kind``;
    relations without an entry contribute no messages.
    """

    kind: str
    num_layers: int
    dims: tuple[int, ...]
    weights: tuple[tuple[tuple, ...], ...]
    biases: tuple[tuple | None, ...]
    relation_params: tuple[Mapping[str, object], ...]
    theta_kind: str
    psi_kind: str = "sum"
    sigma_kind: str = "relu"
    update_kind: str = "combine"
    history: HistoryFunction = field(default_factory=HistoryFunction.identity)
    numeric_mode: str = "float64"
    delta_kind: str | None = None
    query_vectors: Mapping[str, tuple] | None = None
    pair_table: Mapping[tuple[str, str], tuple] | None = None
    rng_seed: int = 0
    node_noise: Mapping[str, tuple] | None = None
    query_noise: Mapping[str, tuple] | None = None
    assert_nonzero_preactivation: bool = False

    def __post_init__(self):
        if self.kind not in ("rmpnn", "cmpnn"):
            raise ValidationError(f"unknown network kind {self.kind!r}")
        if self.theta_kind not in THETA_KINDS:
            raise ValidationError(f"unknown message kind {self.theta_kind!r}")
        if self.psi_kind not in PSI_KINDS:
            raise ValidationError(f"unknown aggregation {self.psi_kind!r}")
        if self.sigma_kind not in SIGMA_KINDS:
            raise ValidationError(f"unknown activation {self.sigma_kind!r}")
        if self.update_kind not in UPDATE_KINDS:
            raise ValidationError(f"unknown update kind {self.update_kind!r}")
        if self.numeric_mode not in ("float64", "exact"):
            raise ValidationError(f"unknown numeric mode {self.numeric_mode!r}")
        if len(self.dims) != self.num_layers + 1:
            raise ValidationError("dims must list d(0)..d(T)")
        if any(d < 1 for d in self.dims):
            raise ValidationError(f"dims must be positive widths, got {self.dims}")
        for name, seq in (
            ("weights", self.weights),
            ("biases", self.biases),
            ("relation_params", self.relation_params),
        ):
            if len(seq) != self.num_layers:
                raise ValidationError(f"{name} must have one entry per layer")
        if self.kind == "rmpnn":
            if self.delta_kind is not None:
                raise ValidationError("initialization kinds apply to cmpnn only")
            if self.theta_kind == "theta1":
                raise ValidationError("theta1 gates on a query; rmpnn has none")
        else:
            if self.delta_kind not in DELTA_KINDS:
                raise ValidationError(
                    f"cmpnn needs delta_kind in {DELTA_KINDS}, got {self.delta_kind!r}"
                )
            if self.delta_kind in ("delta2", "delta3") and not self.query_vectors:
                raise ValidationError(f"{self.delta_kind} needs query vectors")
            if self.delta_kind == "pair-table" and not self.pair_table:
                raise ValidationError("pair-table initialization needs a table")
        if self.theta_kind == "theta1" and not self.query_vectors:
            raise ValidationError("theta1 needs query vectors")
        if self.numeric_mode == "exact":
            if self.psi_kind == "pna":
                raise ValidationError(
                    "pna uses irrational statistics; unavailable in exact mode"
                )
            if self.delta_kind in ("delta3", "delta4"):
                raise ValidationError(
                    f"{self.delta_kind} is stochastic; unavailable in exact mode"
                )
        if self.psi_kind == "pna" and self.update_kind != "combine":
            raise ValidationError("pna aggregation requires the combine update")
        if self.history.kind != "identity" and len(set(self.dims[:-1])) > 1:
            raise ValidationError(
                "a non-identity history reads earlier layers, so all input "
                "dimensions d(0..T-1) must agree"
            )
        for t, W in enumerate(self.weights):
            d_in, d_out = self.dims[t], self.dims[t + 1]
            expect_cols = d_in * (1 + PNA_WIDTH) if self.psi_kind == "pna" else d_in
            if len(W) != d_out or (W and len(W[0]) != expect_cols):
                raise ValidationError(
                    f"layer {t}: weight shape {len(W)}x{len(W[0]) if W else 0} "
                    f"does not match {d_out}x{expect_cols}"
                )
            bias = self.biases[t]
            if bias is not None and len(bias) != d_out:
                raise ValidationError(f"layer {t}: bias length != {d_out}")
        self._check_message_shapes()

    def _check_message_shapes(self) -> None:
        """Relation parameters, query vectors and noise vectors must fit
        the widths they meet in the forward pass."""
        d0 = self.dims[0]
        vectors = [("query vector", self.query_vectors)] if self.delta_kind in (
            "delta2", "delta3"
        ) else []
        vectors += [("node noise", self.node_noise), ("query noise", self.query_noise)]
        for what, table in vectors:
            for name, value in (table or {}).items():
                if not _has_shape(value, (d0,)):
                    raise ValidationError(f"{what} of {name!r} must be {_shape_text((d0,))}")
        q = None
        if self.theta_kind == "theta1":  # relation matrices act on the query vector
            first = next(iter(self.query_vectors.values()))
            q = len(first) if hasattr(first, "__len__") else 0
            for name, value in self.query_vectors.items():
                if not _has_shape(value, (q,)):
                    raise ValidationError(
                        f"query vector of {name!r} must be {_shape_text((q,))} like the others"
                    )
        for t, params in enumerate(self.relation_params):
            d_in = self.dims[t]
            width = d_in if self.update_kind == "combine" else self.dims[t + 1]
            shape = {
                "theta1": (d_in, q),
                "theta2": (d_in,),
                "theta3": (width, d_in),
                "scaling": (),
            }[self.theta_kind]
            if params and self.theta_kind != "theta3" and width != d_in:
                raise ValidationError(
                    f"layer {t}: {self.theta_kind} messages have width d({t})={d_in}, "
                    f"but the separate update adds them to width {width}"
                )
            for name, value in params.items():
                if not _has_shape(value, shape):
                    raise ValidationError(
                        f"layer {t}: {self.theta_kind} parameter of {name!r} must be "
                        f"{_shape_text(shape)}"
                    )

    @property
    def exact(self) -> bool:
        return self.numeric_mode == "exact"

    @property
    def target_node_distinguishable(self) -> bool:
        """Whether the initialization separates (u, u) from (u, v), v != u."""
        if self.kind != "cmpnn":
            raise ValidationError("flag applies to cmpnn initializations")
        if self.delta_kind == "delta0":
            return False
        if self.delta_kind == "delta2":
            return all(any(x != 0 for x in z) for z in self.query_vectors.values())
        if self.delta_kind == "pair-table":
            firsts: dict[str, tuple] = {}
            for (a, b), vec in self.pair_table.items():
                if a == b:
                    firsts[a] = tuple(vec)
            return all(
                tuple(vec) != firsts[a]
                for (a, b), vec in self.pair_table.items()
                if a != b and a in firsts
            )
        return True  # delta1 by construction; delta3/delta4 noise is a.s. nonzero


def _has_shape(value, shape: tuple[int, ...]) -> bool:
    """Whether ``value`` is a number (``shape == ()``), or a vector or a
    rectangular matrix of this shape."""
    try:
        found = np.shape(value)
    except ValueError:  # ragged nesting
        return False
    return found == shape and (shape != () or isinstance(value, numbers.Real))


def _shape_text(shape: tuple[int, ...]) -> str:
    if not shape:
        return "a number"
    if len(shape) == 1:
        return f"a vector of length {shape[0]}"
    return f"a {shape[0]}x{shape[1]} matrix"


# ---------------------------------------------------------------------------
# feature tables
# ---------------------------------------------------------------------------


@dataclass
class FeatureTable:
    """Per-layer features of every node, or of the pairs (source, target).

    ``layers[t]`` is an array of shape (n, d_t) for arity 1.  For arity 2
    it has shape (len(sources), n, d_t), and row ``[i, v]`` is the feature
    of the pair ``(sources[i], v)``.  Float tables hold ``float64``.  Exact
    tables hold integer numerators (``dtype=object``) over one positive
    denominator per layer, ``denominators[t]``, in lowest terms, so equal
    features of one layer have equal numerators; :meth:`vector` returns
    them as ``Fraction`` entries.
    """

    arity: int
    dims: tuple[int, ...]
    layers: tuple[np.ndarray, ...]
    exact: bool
    sources: tuple[int, ...] = ()
    denominators: tuple[int, ...] = ()
    _row: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.layers) != len(self.dims):
            raise ValidationError("one layer array per recorded dimension")
        if self.exact and len(self.denominators) != len(self.layers):
            raise ValidationError("one denominator per exact layer")
        for t, layer in enumerate(self.layers):
            if layer.shape[-1] != self.dims[t]:
                raise ValidationError(
                    f"layer {t} vector has dimension {layer.shape[-1]} != {self.dims[t]}"
                )
        self._row = {u: i for i, u in enumerate(self.sources)}

    @property
    def num_layers(self) -> int:
        return len(self.layers) - 1

    def keys(self) -> list:
        """Node ids, or (source, target) pairs ordered by source first."""
        n = self.layers[0].shape[-2]
        if self.arity == 1:
            return list(range(n))
        return [(u, v) for u in self.sources for v in range(n)]

    def vector(self, t: int, key):
        """Feature of one key: a tuple of ``Fraction`` in exact mode, else
        a float64 row.  A key outside :meth:`keys` raises
        :class:`UnknownEntityError`."""
        layer = self.layers[t]
        try:  # numpy rejects indices past the end; a negative one would wrap
            if self.arity == 1:
                if key < 0:
                    raise IndexError
                row = layer[key]
            else:
                u, v = key
                if v < 0:
                    raise IndexError
                row = layer[self._row[u], v]
        except (IndexError, KeyError):
            raise UnknownEntityError(f"no features for key {key!r}") from None
        return self._value(t, row)

    def _value(self, t: int, row: np.ndarray):
        """A feature row of layer t: itself, or its ``Fraction`` entries."""
        if not self.exact:
            return row
        den = self.denominators[t]
        return tuple(Fraction(x, den) for x in row.tolist())

    def _rows(self, t: int) -> np.ndarray:
        """Layer t as one row per key, in :meth:`keys` order."""
        layer = self.layers[t]
        return layer.reshape(-1, layer.shape[-1])

    def assignment(self, t: int) -> dict:
        """Hashable per-key view of layer t, suitable for partition checks:
        the bytes of a float row, the numerators of an exact one."""
        rows = self._rows(t)
        if self.exact:
            values = map(tuple, rows.tolist())
        else:
            values = (row.tobytes() for row in rows)
        return dict(zip(self.keys(), values))

    def to_json_dict(self, node_names: Sequence[str]) -> dict:
        def name(key):
            if self.arity == 1:
                return node_names[key]
            return [node_names[key[0]], node_names[key[1]]]

        keys = self.keys()
        order = sorted(range(len(keys)), key=keys.__getitem__)
        layers = []
        for t in range(len(self.layers)):
            rows = self._rows(t)
            layers.append(
                [
                    {
                        "key": name(keys[i]),
                        "value": _to_json(self._value(t, rows[i]), self.exact),
                    }
                    for i in order
                ]
            )
        return {"arity": self.arity, "dims": list(self.dims), "layers": layers}


# ---------------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------------


def _vector(value, exact: bool) -> np.ndarray:
    """A vector of numbers as float64, or as ``Fraction`` objects."""
    return np.array(rat.vec(value), dtype=object) if exact else np.asarray(value, dtype=float)


def _matrix(value, exact: bool) -> np.ndarray:
    """A matrix of numbers as float64, or as ``Fraction`` objects."""
    return np.array(rat.mat(value), dtype=object) if exact else np.asarray(value, dtype=float)


def _zeros(shape: tuple[int, ...], exact: bool) -> np.ndarray:
    """Float zeros, or Python int zeros (exact numerators)."""
    return np.zeros(shape, dtype=object if exact else float)


def _feature_array(rows, dim: int, exact: bool) -> np.ndarray:
    """Initial feature rows as one array of shape (len(rows), dim)."""
    if not len(rows):
        return _zeros((0, dim), exact)
    if exact:
        if any(len(row) != dim for row in rows):
            raise ValidationError(f"expected a vector of dimension {dim}")
        out = np.array([[Fraction(x) for x in row] for row in rows], dtype=object)
        return out.reshape(len(rows), dim)
    try:
        out = np.asarray(rows, dtype=float)
    except ValueError:  # ragged rows
        out = None
    if out is None or out.ndim != 2 or out.shape[1] != dim:
        raise ValidationError(f"expected a vector of dimension {dim}")
    return out


def _sigma(kind: str, pre: np.ndarray, assert_nonzero: bool) -> np.ndarray:
    """The activation, elementwise on float64 arrays."""
    if kind == "sign":
        if assert_nonzero and np.any(pre == 0):
            raise ValidationError("constructive network hit a zero pre-activation")
        return np.where(pre > 0, 1.0, -1.0)  # sign(0) := -1 keeps the function total
    if kind == "relu":
        return np.maximum(pre, 0.0)
    if kind == "truncated-relu":
        return np.minimum(np.maximum(pre, 0.0), 1.0)
    return pre


# -- exact mode: integer numerators over positive denominators ------------------


def _numerators(values: np.ndarray, den: int) -> np.ndarray:
    """An array of rationals (``Fraction`` or int) times ``den``, a common
    multiple of their denominators, as an array of Python ints."""
    out = [x.numerator * (den // x.denominator) for x in values.flat]
    return np.array(out, dtype=object).reshape(values.shape)


def _exact(values: np.ndarray) -> tuple[np.ndarray, int]:
    """An array of rationals as numerators over one denominator, the lcm of
    theirs; for reduced ``Fraction`` entries that is lowest terms."""
    den = math.lcm(*(x.denominator for x in values.flat))
    return _numerators(values, den), den


def _exact_sum(*terms):
    """Sum of (numerators, denominators) terms over the lcm of their
    denominators; a denominator is one positive int, or one per column
    (the last axis)."""
    den = functools.reduce(np.lcm, [np.asarray(d, dtype=object) for _, d in terms])
    scaled = [num * (den // d) for num, d in terms]
    return sum(scaled[1:], scaled[0]), den


def _lowest_terms(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, int]:
    """``num`` over the column denominators ``den`` as numerators over one
    denominator in lowest terms: each column is divided by its gcd, then
    all are brought to the lcm of the reduced column denominators."""
    g = np.gcd(np.gcd.reduce(num.reshape(-1, num.shape[-1]), axis=0), den)
    reduced = den // g
    common = math.lcm(*reduced.tolist())
    return num // g * (common // reduced), common


def _exact_sigma(kind: str, pre: np.ndarray, den: np.ndarray, assert_nonzero: bool):
    """The activation of the integer pre-activations ``pre`` over the
    positive column denominators ``den``, as (numerators, denominator) in
    lowest terms.  Sign and relu read only the signs of the numerators,
    truncated relu compares them with the denominators."""
    if kind == "sign":
        if assert_nonzero and np.any(pre == 0):
            raise ValidationError("constructive network hit a zero pre-activation")
        return np.where(pre > 0, 1, -1).astype(object), 1  # sign(0) := -1
    if kind == "relu":
        pre = np.maximum(pre, 0)
    elif kind == "truncated-relu":
        pre = np.minimum(np.maximum(pre, 0), den)
    return _lowest_terms(pre, den)


class _Layer:
    """One layer's parameters as arrays, resolved against a concrete graph.

    In exact mode the parameters are integers, scaled once here: ``W`` over
    one denominator per row (``W_den``), the bias over one per entry, and
    every relation's message parameter over one common ``message_den``.
    """

    def __init__(self, spec: NetworkSpec, G: KnowledgeGraph, t: int, query: str | None):
        exact = spec.exact
        self.W = _matrix(spec.weights[t], exact)
        self.bias = _vector(spec.biases[t], exact) if spec.biases[t] is not None else None
        # combine sums messages before W, separate after it
        self.width = spec.dims[t] if spec.update_kind == "combine" else spec.dims[t + 1]
        z_q = None
        if spec.theta_kind == "theta1":
            if query is None:
                raise ValidationError("theta1 messages need a query relation")
            z_q = _vector(_lookup(spec.query_vectors, query, "query vector"), exact)
        # (relation id, whether the message is a matrix product, parameter)
        self.messages: list[tuple[int, bool, object]] = []
        for name, value in spec.relation_params[t].items():
            try:
                rel = G.relation_id(name)
            except UnknownEntityError:
                continue  # relation absent from this graph: nothing to message
            if spec.theta_kind == "theta1":
                self.messages.append((rel, False, _matrix(value, exact) @ z_q))
            elif spec.theta_kind == "theta2":
                self.messages.append((rel, False, _vector(value, exact)))
            elif spec.theta_kind == "theta3":
                self.messages.append((rel, True, _matrix(value, exact)))
            else:
                self.messages.append((rel, False, Fraction(value) if exact else float(value)))
        if exact:
            rows = [_exact(row) for row in self.W]
            self.W = np.array([num for num, _ in rows], dtype=object).reshape(self.W.shape)
            self.W_den = np.array([den for _, den in rows], dtype=object)
            if self.bias is not None:
                self.bias = (
                    np.array([x.numerator for x in self.bias], dtype=object),
                    np.array([x.denominator for x in self.bias], dtype=object),
                )
            params = [np.asarray(param, dtype=object) for _, _, param in self.messages]
            self.message_den = math.lcm(*(x.denominator for p in params for x in p.flat))
            self.messages = [
                (rel, matmul, _numerators(param, self.message_den))
                for (rel, matmul, _), param in zip(self.messages, params)
            ]

    def message_array(self, H: np.ndarray, rel: np.ndarray, src: np.ndarray) -> np.ndarray:
        """Messages of the edges ``(rel, src)``, in edge order: one gather
        and one stacked op per relation."""
        out = np.empty((len(src), H.shape[1], self.width), dtype=H.dtype)
        for r, matmul, param in self.messages:
            pos = np.flatnonzero(rel == r)
            if not len(pos):
                continue
            h = H[src[pos]]
            out[pos] = (param @ h[..., None])[..., 0] if matmul else h * param
        return out

    def exact_update(self, spec: NetworkSpec, own: tuple, agg: tuple) -> tuple[np.ndarray, int]:
        """sigma(W (own + agg) + bias) or sigma(W own + agg + bias) on
        (numerators, denominator) pairs.  ``W x`` has one denominator per
        row of ``W``, so the pre-activation has one per column until the
        activation."""
        if spec.update_kind == "combine":
            x, den = _exact_sum(own, agg)
        else:
            x, den = own
        terms = [(x @ self.W.T, self.W_den * den)]
        if spec.update_kind == "separate":
            terms.append(agg)
        if self.bias is not None:
            terms.append(self.bias)
        pre, den = _exact_sum(*terms)
        return _exact_sigma(spec.sigma_kind, pre, den, spec.assert_nonzero_preactivation)

    def float_update(self, spec: NetworkSpec, own: np.ndarray, agg: np.ndarray) -> np.ndarray:
        """sigma(W (own + agg) + bias), sigma(W [own, agg] + bias) for pna,
        or sigma(W own + agg + bias), on float64 arrays."""
        if spec.psi_kind == "pna":
            x = np.concatenate([own, agg], axis=-1)
        else:
            x = own + agg if spec.update_kind == "combine" else own
        pre = (self.W @ x[..., None])[..., 0]
        if spec.update_kind == "separate":
            pre = pre + agg
        if self.bias is not None:
            pre = pre + self.bias
        return _sigma(spec.sigma_kind, pre, spec.assert_nonzero_preactivation)


def _pna_aggregate(
    M: np.ndarray, dst: np.ndarray, n: int, log_mean_degree: float
) -> np.ndarray:
    """PNA aggregate (n, B, 12 * dim): mean/min/max/std of each target's
    messages under the identity/amplify/attenuate degree scalers; a target
    without messages gets zeros.

    ``dst`` must be sorted.  Targets are grouped by their message count k,
    and each group is reduced by numpy's own reductions over a
    (targets, B, k, dim) block, which round as those reductions do over one
    target's stacked (k, dim) messages (pairwise sums for dim 1).
    """
    B, dim = M.shape[1:]
    stats = np.zeros((n, B, 4 * dim))
    count = np.bincount(dst, minlength=n)
    start = np.cumsum(count) - count
    amplify, attenuate = np.ones(n), np.ones(n)
    for k in np.unique(count[count > 0]).tolist():
        targets = np.flatnonzero(count == k)
        block = M[start[targets, None] + np.arange(k)].transpose(0, 2, 1, 3).copy()
        stats[targets] = np.concatenate(
            [block.mean(axis=2), block.min(axis=2), block.max(axis=2), block.std(axis=2)],
            axis=-1,
        )
        log_deg = math.log(1 + k)
        if log_mean_degree > 0:
            amplify[targets] = log_deg / log_mean_degree
            attenuate[targets] = log_mean_degree / log_deg
    return np.concatenate(
        [stats, amplify[:, None, None] * stats, attenuate[:, None, None] * stats], axis=-1
    )


def _log_mean_degree(dst: np.ndarray, n: int) -> float:
    """Mean of log(1 + in-degree) over all nodes, summed in node order."""
    if not n:
        return 0.0
    degree = np.bincount(dst, minlength=n)
    logs = np.zeros(n)
    for d in np.unique(degree).tolist():
        logs[degree == d] = math.log(1 + d)
    return float(np.cumsum(logs)[-1]) / n


def _run_layers(
    G: KnowledgeGraph,
    spec: NetworkSpec,
    init: np.ndarray,
    query: str | None,
) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """Features of layers 0..T, each of shape (n, B, d_t) for B sources
    run side by side (B = 1 for a single run), and in exact mode the
    layers' denominators (else none).

    A layer gathers the sources of the facts, applies one message op per
    relation, sums the messages into their targets in edge order (as a
    running sum per target would), and applies one stacked ``W @ x``, the
    bias and the activation.  Exact mode runs the gather, the messages and
    the sum on integer numerators: ``init`` is brought to one denominator,
    and a layer's messages share ``message_den`` times the denominator of
    the layer they read.
    """
    n = G.n
    rel, src, dst = G.edges
    pna = spec.psi_kind == "pna"
    log_mean_degree = _log_mean_degree(dst, n) if pna else 0.0
    features, dens = [init], []
    if spec.exact:
        features[0], den = _exact(init)
        dens.append(den)
    for t in range(spec.num_layers):
        layer = _Layer(spec, G, t, query)
        h = spec.history(t)
        keep = np.isin(rel, [r for r, _, _ in layer.messages])
        M = layer.message_array(features[t], rel[keep], src[keep])
        if pna:
            agg = _pna_aggregate(M, dst[keep], n, log_mean_degree)
        else:
            agg = _zeros((n, init.shape[1], layer.width), spec.exact)
            np.add.at(agg, dst[keep], M)
        del M  # free the per-edge messages before the next allocations
        if spec.exact:
            own, messages = (features[h], dens[h]), (agg, layer.message_den * dens[t])
            H, den = layer.exact_update(spec, own, messages)
            dens.append(den)
        else:
            H = layer.float_update(spec, features[h], agg)
        features.append(H)
    return features, tuple(dens)


def _lookup(table: Mapping, key: str, what: str):
    try:
        return table[key]
    except KeyError:
        raise UnknownEntityError(f"no {what} for {key!r}") from None


def rmpnn_forward(G: KnowledgeGraph, spec: NetworkSpec, x) -> FeatureTable:
    """Evaluate a node-level network from initial features ``x``.

    ``x`` maps node names or indices to vectors of dimension d(0) (a
    sequence indexed by node id, or an (n, d(0)) array, also works).
    Returns the features of every layer 0..T.
    """
    if spec.kind != "rmpnn":
        raise ValidationError("spec is not a node-level network")
    if isinstance(x, Mapping):
        init_map = {G._resolve_node(k): v for k, v in x.items()}
        if set(init_map) != set(range(G.n)):
            raise ValidationError("initial features must cover every node")
        x = [init_map[v] for v in range(G.n)]
    elif len(x) != G.n:
        raise ValidationError("initial features must cover every node")
    init = _feature_array(x, spec.dims[0], spec.exact)[:, None, :]
    features, dens = _run_layers(G, spec, init, query=None)
    layers = tuple(f[:, 0, :] for f in features)
    return FeatureTable(1, spec.dims, layers, spec.exact, denominators=dens)


def _delta_init(
    G: KnowledgeGraph, spec: NetworkSpec, query: str, sources: np.ndarray
) -> np.ndarray:
    """Layer-0 features (n, B, d0) of the pairs (sources[b], v)."""
    d0, n, B = spec.dims[0], G.n, len(sources)
    exact = spec.exact
    kind = spec.delta_kind
    if kind == "pair-table":
        names = G.node_names
        try:
            rows = [spec.pair_table[names[u], names[v]] for v in range(n) for u in sources]
        except KeyError as missing:
            raise ValidationError(f"pair table misses {missing.args[0]!r}") from None
        return _feature_array(rows, d0, exact).reshape(n, B, d0)
    init = _zeros((n, B, d0), exact)
    diagonal = (sources, np.arange(B))
    if kind == "delta1":
        init[diagonal] = Fraction(1) if exact else 1.0
    elif kind == "delta2":
        init[diagonal] = _vector(_lookup(spec.query_vectors, query, "query vector"), exact)
    elif kind == "delta3":
        z_q = np.asarray(_lookup(spec.query_vectors, query, "query vector"), dtype=float)
        if spec.node_noise is not None:
            eps = [_lookup(spec.node_noise, G.node_names[u], "node noise") for u in sources]
        else:
            eps = [np.random.default_rng([spec.rng_seed, u]).standard_normal(d0) for u in sources]
        init[diagonal] = z_q + np.asarray(eps, dtype=float).reshape(B, d0)
    elif kind == "delta4":  # a per-query noise vector replaces the learned one
        if spec.query_noise is not None:
            eps = np.asarray(_lookup(spec.query_noise, query, "query noise"), dtype=float)
        else:
            eps = np.random.default_rng([spec.rng_seed, G.relation_id(query)]).standard_normal(d0)
        init[diagonal] = eps
    return init


def _cmpnn(
    G: KnowledgeGraph, spec: NetworkSpec, query: str, source: int | str | None
) -> FeatureTable:
    """One conditional run from ``source``, or from every node at once
    (``source=None``), the sources side by side on the batch axis."""
    if spec.kind != "cmpnn":
        raise ValidationError("spec is not a conditional network")
    G.relation_id(query)  # validate early
    if source is None:
        sources = np.arange(G.n)
    else:
        sources = np.array([G._resolve_node(source)])
    features, dens = _run_layers(G, spec, _delta_init(G, spec, query, sources), query)
    layers = tuple(f.transpose(1, 0, 2) for f in features)
    return FeatureTable(2, spec.dims, layers, spec.exact, tuple(sources.tolist()), dens)


def cmpnn_forward(
    G: KnowledgeGraph, spec: NetworkSpec, query: str, source: int | str
) -> FeatureTable:
    """Features of all targets ``v`` conditioned on one source and query.

    The returned table is keyed by ``(source, v)`` pairs; call
    :func:`cmpnn_pair_table` for the full pair table.
    """
    return _cmpnn(G, spec, query, source)


def cmpnn_pair_table(G: KnowledgeGraph, spec: NetworkSpec, query: str) -> FeatureTable:
    """Full pair table: one conditional run with every node as a source."""
    return _cmpnn(G, spec, query, None)


# ---------------------------------------------------------------------------
# constructive builders
# ---------------------------------------------------------------------------


def build_rwl1_simulator(
    G: KnowledgeGraph,
    num_layers: int,
    history: HistoryFunction | None = None,
) -> tuple[NetworkSpec, tuple[tuple[Fraction, ...], ...]]:
    """Exact node-level network matching color refinement layer by layer.

    Returns a spec with sign activation, relation scalings (|V|+1)^(i+1), an
    all-minus-one bias, and per-layer weights derived from the sign basis,
    together with initial features assigning each node the basis column of
    its color.  For every t <= num_layers the partition of the layer-t
    features equals the partition of the t-th refinement coloring under the
    requested history function.

    Each layer is built by counting, in O(|V| + |E|): node v gets the
    integer column E_v = onehot(c_{f(t)}(v)) + sum_i (|V|+1)^(i+1) * (colour
    counts of v's in-neighbours via relation i), read as the number
    b(v) = sum_k base^k E_v[k] with base above every entry.  The next colour
    of v is the rank of b(v) among the distinct values in descending order,
    whose basis column is sign(xs * b(v) - 1).  The weights are
    xs (x) (z^T M) with z = (base^k)_k and M the closed-form basis inverse.
    """
    history = history or HistoryFunction.identity()
    n = G.n
    if n == 0:
        raise ValidationError("simulator needs a non-empty graph")
    # densify color ids so each indexes a basis column (at most n classes)
    seen: dict[int, int] = {}
    colors = [tuple(seen.setdefault(c, len(seen)) for c in G.node_colors)]
    basis = sign_basis(n)
    scales = [(n + 1) ** (i + 1) for i in range(len(G.relation_names))]
    scalings = {name: Fraction(s) for name, s in zip(G.relation_names, scales)}
    init = tuple(
        tuple(basis[i][colors[0][v]] for i in range(n)) for v in range(n)
    )
    weights = []
    for t in range(num_layers):
        current = colors[t]
        E = [{c: 1} for c in colors[history(t)]]
        for r, s, v in G.facts:
            k = current[s]
            E[v][k] = E[v].get(k, 0) + scales[r]
        base = 1 + max(x for col in E for x in col.values())
        z = [base**k for k in range(n)]
        b = [sum(z[k] * x for k, x in col.items()) for col in E]
        ranked = sorted(set(b), reverse=True)
        xs = _sign_multipliers(ranked, n)
        for x in set(xs):  # x * value == 1, compared as integers
            if any(x.numerator * value == x.denominator for value in ranked):
                raise AssertionError("pre-activation exactly at the bias")
        zM = _times_basis_inverse(z)
        weights.append(tuple(tuple(x * w for w in zM) for x in xs))
        rank = {value: i for i, value in enumerate(ranked)}
        colors.append(tuple(rank[value] for value in b))
    bias = (Fraction(-1),) * n
    spec = NetworkSpec(
        kind="rmpnn",
        num_layers=num_layers,
        dims=(n,) * (num_layers + 1),
        weights=tuple(weights),
        biases=(bias,) * num_layers,
        relation_params=tuple(dict(scalings) for _ in range(num_layers)),
        theta_kind="scaling",
        psi_kind="sum",
        sigma_kind="sign",
        update_kind="combine",
        history=history,
        numeric_mode="exact",
        assert_nonzero_preactivation=True,
    )
    return spec, init


def build_cmpnn_simulator(
    G: KnowledgeGraph,
    num_layers: int,
    history: HistoryFunction | None = None,
) -> tuple[NetworkSpec, dict[tuple[int, int], tuple[Fraction, ...]]]:
    """Exact conditional network matching the pair refinement layer by layer.

    Builds the node-level simulator on the pair graph of ``G`` and re-keys
    it as a conditional network whose initialization is the resulting pair
    table.  Returns the spec and the initial pair features keyed by node
    index pairs.  Requires a pair coloring with target node
    distinguishability.
    """
    if G.pair_coloring is None:
        raise PreconditionError("conditional simulator needs a pair coloring")
    if not G.pair_coloring.tnd_flag:
        raise PreconditionError(
            "pair coloring must satisfy target node distinguishability"
        )
    square = product_square(G)
    node_spec, node_init = build_rwl1_simulator(square, num_layers, history)
    n = G.n
    pair_table = {
        (G.node_names[u], G.node_names[v]): node_init[u * n + v]
        for u in range(n)
        for v in range(n)
    }
    spec = replace(
        node_spec,
        kind="cmpnn",
        delta_kind="pair-table",
        pair_table=pair_table,
    )
    by_index = {
        (u, v): node_init[u * n + v] for u in range(n) for v in range(n)
    }
    return spec, by_index


# ---------------------------------------------------------------------------
# link scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MLPDecoder:
    """Two-layer perceptron turning a pair feature into a logit."""

    hidden_weights: tuple[tuple[float, ...], ...]
    hidden_bias: tuple[float, ...]
    output_weights: tuple[float, ...]
    output_bias: float

    @classmethod
    def zeros(cls, d_in: int, hidden: int = 64) -> "MLPDecoder":
        return cls(
            tuple((0.0,) * d_in for _ in range(hidden)),
            (0.0,) * hidden,
            (0.0,) * hidden,
            0.0,
        )

    @classmethod
    def random(cls, rng: np.random.Generator, d_in: int, hidden: int = 64) -> "MLPDecoder":
        W1 = rng.standard_normal((hidden, d_in))
        b1 = rng.standard_normal(hidden)
        w2 = rng.standard_normal(hidden)
        b2 = float(rng.standard_normal())
        return cls(
            tuple(map(tuple, W1.tolist())),
            tuple(b1.tolist()),
            tuple(w2.tolist()),
            b2,
        )


def _check_decoder(spec: NetworkSpec, decoder: MLPDecoder) -> None:
    if spec.exact:
        raise ValidationError("link scores use a sigmoid; run in float mode")
    hidden = len(decoder.hidden_weights)
    width = spec.dims[-1]
    if any(len(row) != width for row in decoder.hidden_weights):
        raise ValidationError(
            f"decoder rows must read features of width {width}, the network's last layer"
        )
    if len(decoder.hidden_bias) != hidden or len(decoder.output_weights) != hidden:
        raise ValidationError(f"decoder hidden bias and output weights need length {hidden}")


def _sigmoid(logit: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-logit))
    except OverflowError:  # logit below about -709: exp(logit) underflows instead
        e = math.exp(logit)
        return e / (1.0 + e)


def _decode(decoder: MLPDecoder, rows: np.ndarray) -> np.ndarray:
    """Decoder probability of each feature row of ``rows`` (k, d); every
    row is decoded on its own, so a row's value does not depend on k."""
    hidden = np.maximum(
        (np.asarray(decoder.hidden_weights, dtype=float) @ rows[..., None])[..., 0]
        + np.asarray(decoder.hidden_bias, dtype=float),
        0.0,
    )
    output = np.asarray(decoder.output_weights, dtype=float)
    logits = (hidden[:, None, :] @ output[:, None])[:, 0, 0] + decoder.output_bias
    return np.array([_sigmoid(logit) for logit in logits.tolist()])


def score_tails(
    spec: NetworkSpec,
    decoder: MLPDecoder,
    G: KnowledgeGraph,
    query: str,
    source: int | str,
) -> np.ndarray:
    """Probability in (0, 1) of the queried fact for every tail node.

    One conditional forward from ``source``; the decoder reads the (n, d)
    final layer, one row per tail.  Float mode only: the final squashing
    is transcendental, so exact mode is rejected.
    """
    _check_decoder(spec, decoder)
    return _decode(decoder, cmpnn_forward(G, spec, query, source).layers[-1][0])


def score_link(
    spec: NetworkSpec,
    decoder: MLPDecoder,
    G: KnowledgeGraph,
    query: str,
    source: int | str,
    target: int | str,
) -> float:
    """Probability in (0, 1) that the queried fact holds: the ``target``
    entry of :func:`score_tails`, decoding that tail alone."""
    _check_decoder(spec, decoder)
    v = G._resolve_node(target)
    final = cmpnn_forward(G, spec, query, source).layers[-1][0]
    return float(_decode(decoder, final[v : v + 1])[0])


# ---------------------------------------------------------------------------
# random instances (exact mode, for equality-based checks)
# ---------------------------------------------------------------------------


def random_rational(rng, lo: int = -3, hi: int = 3, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, 4))
        if value != 0 or not nonzero:
            return value


def _random_exact_matrix(rng, rows: int, cols: int) -> tuple:
    return tuple(
        tuple(random_rational(rng) for _ in range(cols)) for _ in range(rows)
    )


def _random_exact_vector(rng, dim: int, nonzero: bool = False) -> tuple:
    while True:
        v = tuple(random_rational(rng) for _ in range(dim))
        if not nonzero or any(x != 0 for x in v):
            return v


def _random_param(rng, theta_kind: str, dim: int):
    """One relation's message parameter, shaped as ``theta_kind`` needs."""
    if theta_kind == "theta2":
        return _random_exact_vector(rng, dim)
    if theta_kind == "scaling":
        return random_rational(rng)
    return _random_exact_matrix(rng, dim, dim)


def _random_spec(G, rng, kind, num_layers, dim, theta_kind, history, **fields) -> NetworkSpec:
    """Random exact weights, then relation parameters, then (for cmpnn)
    nonzero query vectors, in that draw order."""
    weights = tuple(_random_exact_matrix(rng, dim, dim) for _ in range(num_layers))
    rel_params = tuple(
        {name: _random_param(rng, theta_kind, dim) for name in G.relation_names}
        for _ in range(num_layers)
    )
    if kind == "cmpnn":
        fields["query_vectors"] = {
            name: _random_exact_vector(rng, dim, nonzero=True) for name in G.relation_names
        }
    return NetworkSpec(
        kind=kind,
        num_layers=num_layers,
        dims=(dim,) * (num_layers + 1),
        weights=weights,
        biases=(None,) * num_layers,
        relation_params=rel_params,
        theta_kind=theta_kind,
        history=history or HistoryFunction.identity(),
        numeric_mode="exact",
        **fields,
    )


def random_cmpnn_spec(
    G: KnowledgeGraph,
    rng,
    num_layers: int = 2,
    dim: int = 2,
    delta_kind: str = "delta2",
    theta_kind: str = "theta1",
    history: HistoryFunction | None = None,
) -> NetworkSpec:
    """Exact-rational conditional network with small random weights."""
    return _random_spec(
        G, rng, "cmpnn", num_layers, dim, theta_kind, history, delta_kind=delta_kind
    )


def random_rmpnn_spec(
    G: KnowledgeGraph,
    rng,
    num_layers: int = 2,
    dim: int = 2,
    theta_kind: str = "theta3",
    history: HistoryFunction | None = None,
    sigma_kind: str = "relu",
) -> NetworkSpec:
    """Exact-rational node-level network with small random weights."""
    return _random_spec(
        G, rng, "rmpnn", num_layers, dim, theta_kind, history, sigma_kind=sigma_kind
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _to_json(value, exact: bool):
    """JSON form of a number, or of nested tuples, lists or arrays of
    numbers (as lists); exact numbers become num/den pairs."""
    if value is None:
        return None
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_to_json(x, exact) for x in value]
    if exact:
        f = Fraction(value)
        return {"num": f.numerator, "den": f.denominator}
    return float(value)


def _from_json(value, exact: bool):
    """Inverse of :func:`_to_json`; lists come back as tuples."""
    if value is None:
        return None
    if isinstance(value, list):
        return tuple(_from_json(x, exact) for x in value)
    if exact:
        return Fraction(value["num"], value["den"])
    return float(value)


def spec_to_json_dict(spec: NetworkSpec) -> dict:
    """Lossless JSON form; exact rationals serialize as num/den pairs."""
    exact = spec.exact

    def named(table, exact):
        return None if table is None else {k: _to_json(v, exact) for k, v in sorted(table.items())}

    return {
        "kind": spec.kind,
        "num_layers": spec.num_layers,
        "dims": list(spec.dims),
        "numeric_mode": spec.numeric_mode,
        "theta_kind": spec.theta_kind,
        "psi_kind": spec.psi_kind,
        "sigma_kind": spec.sigma_kind,
        "update_kind": spec.update_kind,
        "history": {
            "kind": spec.history.kind,
            "table": None if spec.history.table is None else list(spec.history.table),
        },
        "weights": _to_json(spec.weights, exact),
        "biases": _to_json(spec.biases, exact),
        "relation_params": [
            {name: _to_json(value, exact) for name, value in sorted(layer.items())}
            for layer in spec.relation_params
        ],
        "delta_kind": spec.delta_kind,
        "rng_seed": spec.rng_seed,
        "assert_nonzero_preactivation": spec.assert_nonzero_preactivation,
        "query_vectors": named(spec.query_vectors, exact),
        "pair_table": (
            [[a, b, _to_json(v, exact)] for (a, b), v in sorted(spec.pair_table.items())]
            if spec.pair_table is not None
            else None
        ),
        "node_noise": named(spec.node_noise, False),
        "query_noise": named(spec.query_noise, False),
    }


def spec_from_json_dict(doc: dict) -> NetworkSpec:
    exact = doc["numeric_mode"] == "exact"

    def named(table, exact):
        return None if table is None else {k: _from_json(v, exact) for k, v in table.items()}

    history = doc["history"]
    return NetworkSpec(
        kind=doc["kind"],
        num_layers=doc["num_layers"],
        dims=tuple(doc["dims"]),
        weights=_from_json(doc["weights"], exact),
        biases=_from_json(doc["biases"], exact),
        relation_params=tuple(
            {name: _from_json(value, exact) for name, value in layer.items()}
            for layer in doc["relation_params"]
        ),
        theta_kind=doc["theta_kind"],
        psi_kind=doc["psi_kind"],
        sigma_kind=doc["sigma_kind"],
        update_kind=doc["update_kind"],
        history=HistoryFunction(
            history["kind"],
            tuple(history["table"]) if history["table"] is not None else None,
        ),
        numeric_mode=doc["numeric_mode"],
        delta_kind=doc["delta_kind"],
        query_vectors=named(doc.get("query_vectors"), exact),
        pair_table=(
            {(a, b): _from_json(v, exact) for a, b, v in doc["pair_table"]}
            if doc.get("pair_table") is not None
            else None
        ),
        rng_seed=doc.get("rng_seed", 0),
        node_noise=named(doc.get("node_noise"), False),
        query_noise=named(doc.get("query_noise"), False),
        assert_nonzero_preactivation=doc.get("assert_nonzero_preactivation", False),
    )
