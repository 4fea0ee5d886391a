"""Forward evaluation of relational and conditional message passing networks.

Two numeric modes share one recurrence: ``float64`` runs on numpy, and
``exact`` runs on :mod:`fractions` rationals so that equality claims can be
checked without tolerances.  A :class:`NetworkSpec` pins every choice in
the design space: initialization of the conditional pair features
(``delta0`` .. ``delta4`` or an explicit pair table), per-relation message
functions (``theta1``: gate by a relation-transformed query vector,
``theta2``: gate by a relation vector, ``theta3``: relation matrix,
``scaling``: relation scalar), aggregation (``sum`` or ``pna``), activation,
update shape, and the history function selecting which past layer the
update reads.

Two update shapes occur in practice and both are supported:

* ``combine``:  h <- sigma(W (h_self + aggregate) + bias)
* ``separate``: h <- sigma(W h_self + aggregate + bias)

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

import math
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


# ---------------------------------------------------------------------------
# feature tables
# ---------------------------------------------------------------------------


@dataclass
class FeatureTable:
    """Per-layer feature vectors keyed by node index or (source, target)."""

    arity: int
    dims: tuple[int, ...]
    layers: tuple[dict, ...]
    exact: bool

    def __post_init__(self):
        if len(self.layers) != len(self.dims):
            raise ValidationError("one layer mapping per recorded dimension")
        for t, layer in enumerate(self.layers):
            for vec in layer.values():
                if len(vec) != self.dims[t]:
                    raise ValidationError(
                        f"layer {t} vector has dimension {len(vec)} != {self.dims[t]}"
                    )

    @property
    def num_layers(self) -> int:
        return len(self.layers) - 1

    def vector(self, t: int, key):
        return self.layers[t][key]

    def assignment(self, t: int) -> dict:
        """Hashable per-key view of layer t, suitable for partition checks."""
        if self.exact:
            return {k: tuple(v) for k, v in self.layers[t].items()}
        return {k: np.asarray(v, dtype=float).tobytes() for k, v in self.layers[t].items()}

    def partition(self, t: int) -> frozenset[frozenset]:
        classes: dict = {}
        for key, value in self.assignment(t).items():
            classes.setdefault(value, []).append(key)
        return frozenset(frozenset(c) for c in classes.values())

    def to_json_dict(self, node_names: Sequence[str]) -> dict:
        def name(key):
            if self.arity == 1:
                return node_names[key]
            return [node_names[key[0]], node_names[key[1]]]

        layers = []
        for t, layer in enumerate(self.layers):
            entries = [
                {"key": name(k), "value": _vec_to_json(v, self.exact)}
                for k, v in sorted(layer.items())
            ]
            layers.append(entries)
        return {"arity": self.arity, "dims": list(self.dims), "layers": layers}


# ---------------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------------


def _sigma_exact(kind: str, values: tuple, assert_nonzero: bool) -> tuple:
    out = []
    for x in values:
        if kind == "sign":
            if x == 0:
                if assert_nonzero:
                    raise ValidationError(
                        "constructive network hit a zero pre-activation"
                    )
                out.append(Fraction(-1))  # sign(0) := -1 keeps the function total
            else:
                out.append(Fraction(1) if x > 0 else Fraction(-1))
        elif kind == "relu":
            out.append(x if x > 0 else Fraction(0))
        elif kind == "truncated-relu":
            out.append(min(max(Fraction(0), x), Fraction(1)))
        else:
            out.append(x)
    return tuple(out)


def _sigma_float(kind: str, values: np.ndarray, assert_nonzero: bool) -> np.ndarray:
    if kind == "sign":
        if assert_nonzero and np.any(values == 0.0):
            raise ValidationError("constructive network hit a zero pre-activation")
        return np.where(values > 0.0, 1.0, -1.0)
    if kind == "relu":
        return np.maximum(values, 0.0)
    if kind == "truncated-relu":
        return np.minimum(np.maximum(values, 0.0), 1.0)
    return values


class _Layer:
    """One layer's parameters, resolved against a concrete graph."""

    def __init__(self, spec: NetworkSpec, G: KnowledgeGraph, t: int, query: str | None):
        self.exact = spec.exact
        self.d_in = spec.dims[t]
        self.d_out = spec.dims[t + 1]
        self.sigma = spec.sigma_kind
        self.update = spec.update_kind
        self.psi = spec.psi_kind
        self.assert_nonzero = spec.assert_nonzero_preactivation
        if self.exact:
            self.W = rat.mat(spec.weights[t])
            self.bias = rat.vec(spec.biases[t]) if spec.biases[t] is not None else None
        else:
            self.W = np.asarray(spec.weights[t], dtype=float)
            self.bias = (
                np.asarray(spec.biases[t], dtype=float)
                if spec.biases[t] is not None
                else None
            )
        z_q = None
        if spec.theta_kind == "theta1":
            if query is None:
                raise ValidationError("theta1 messages need a query relation")
            z_q = _lookup(spec.query_vectors, query, "query vector")
        self.messages: dict[int, tuple[str, object]] = {}
        for name, value in spec.relation_params[t].items():
            try:
                rel = G.relation_id(name)
            except UnknownEntityError:
                continue  # relation absent from this graph: nothing to message
            if spec.theta_kind == "theta1":
                if self.exact:
                    gate = rat.mat_vec(rat.mat(value), rat.vec(z_q))
                else:
                    gate = np.asarray(value, dtype=float) @ np.asarray(z_q, dtype=float)
                self.messages[rel] = ("hadamard", gate)
            elif spec.theta_kind == "theta2":
                gate = rat.vec(value) if self.exact else np.asarray(value, dtype=float)
                self.messages[rel] = ("hadamard", gate)
            elif spec.theta_kind == "theta3":
                mat = rat.mat(value) if self.exact else np.asarray(value, dtype=float)
                self.messages[rel] = ("matmul", mat)
            else:
                scale = Fraction(value) if self.exact else float(value)
                self.messages[rel] = ("scale", scale)

    def message(self, rel: int, h):
        entry = self.messages.get(rel)
        if entry is None:
            return None
        op, param = entry
        if self.exact:
            if op == "hadamard":
                return tuple(a * b for a, b in zip(h, param))
            if op == "matmul":
                return rat.mat_vec(param, h)
            return tuple(param * a for a in h)
        if op == "hadamard":
            return h * param
        if op == "matmul":
            return param @ h
        return param * h

    def aggregate_sum(self, msgs: list):
        dim = self.d_in if self.update == "combine" else self.d_out
        if self.exact:
            total = list(rat.zeros_vec(dim))
            for m in msgs:
                if len(m) != dim:
                    raise ValidationError("message dimension mismatch")
                for i, x in enumerate(m):
                    total[i] += x
            return tuple(total)
        total = np.zeros(dim)
        for m in msgs:
            if m.shape != (dim,):
                raise ValidationError("message dimension mismatch")
            total = total + m
        return total

    def aggregate_pna(self, msgs: list, log_mean_degree: float) -> np.ndarray:
        dim = self.d_in
        if not msgs:
            stats = np.zeros(4 * dim)
            scalers = (1.0, 1.0, 1.0)
        else:
            stacked = np.stack(msgs)
            stats = np.concatenate(
                [
                    stacked.mean(axis=0),
                    stacked.min(axis=0),
                    stacked.max(axis=0),
                    stacked.std(axis=0),
                ]
            )
            log_deg = math.log(1 + len(msgs))
            if log_mean_degree > 0 and log_deg > 0:
                scalers = (1.0, log_deg / log_mean_degree, log_mean_degree / log_deg)
            else:
                scalers = (1.0, 1.0, 1.0)
        return np.concatenate([s * stats for s in scalers])

    def apply(self, own, agg):
        if self.exact:
            if self.update == "combine":
                pre = rat.mat_vec(self.W, tuple(a + b for a, b in zip(own, agg)))
            else:
                pre = tuple(
                    a + b for a, b in zip(rat.mat_vec(self.W, own), agg)
                )
            if self.bias is not None:
                pre = tuple(a + b for a, b in zip(pre, self.bias))
            return _sigma_exact(self.sigma, pre, self.assert_nonzero)
        if self.psi == "pna":
            pre = self.W @ np.concatenate([own, agg])
        elif self.update == "combine":
            pre = self.W @ (own + agg)
        else:
            pre = self.W @ own + agg
        if self.bias is not None:
            pre = pre + self.bias
        return _sigma_float(self.sigma, pre, self.assert_nonzero)


def _run_layers(
    G: KnowledgeGraph,
    spec: NetworkSpec,
    init: list,
    query: str | None,
) -> list[list]:
    n = G.n
    log_mean_degree = 0.0
    if spec.psi_kind == "pna" and n:
        log_mean_degree = sum(
            math.log(1 + len(G.incoming(v))) for v in range(n)
        ) / n
    features = [list(init)]
    for t in range(spec.num_layers):
        layer = _Layer(spec, G, t, query)
        current = features[t]
        own = features[spec.history(t)]
        nxt = []
        for v in range(n):
            msgs = []
            for rel, w in G.incoming(v):
                m = layer.message(rel, current[w])
                if m is not None:
                    msgs.append(m)
            if spec.psi_kind == "pna":
                agg = layer.aggregate_pna(msgs, log_mean_degree)
            else:
                agg = layer.aggregate_sum(msgs)
            nxt.append(layer.apply(own[v], agg))
        features.append(nxt)
    return features


def _lookup(table: Mapping, key: str, what: str):
    try:
        return table[key]
    except KeyError:
        raise UnknownEntityError(f"no {what} for {key!r}") from None


def _coerce_vec(value, dim: int, exact: bool):
    if len(value) != dim:
        raise ValidationError(f"expected a vector of dimension {dim}")
    if exact:
        return tuple(Fraction(x) for x in value)
    return np.asarray(value, dtype=float)


def rmpnn_forward(G: KnowledgeGraph, spec: NetworkSpec, x) -> FeatureTable:
    """Evaluate a node-level network from initial features ``x``.

    ``x`` maps node names or indices to vectors of dimension d(0) (a
    sequence indexed by node id also works).  Returns the features of every
    layer 0..T.
    """
    if spec.kind != "rmpnn":
        raise ValidationError("spec is not a node-level network")
    if isinstance(x, Mapping):
        init_map = {G._resolve_node(k): v for k, v in x.items()}
        if set(init_map) != set(range(G.n)):
            raise ValidationError("initial features must cover every node")
        raw = [init_map[v] for v in range(G.n)]
    else:
        if len(x) != G.n:
            raise ValidationError("initial features must cover every node")
        raw = list(x)
    init = [_coerce_vec(v, spec.dims[0], spec.exact) for v in raw]
    features = _run_layers(G, spec, init, query=None)
    layers = tuple(
        {v: feats[v] for v in range(G.n)} for feats in features
    )
    return FeatureTable(1, spec.dims, layers, spec.exact)


def _delta_row(G: KnowledgeGraph, spec: NetworkSpec, query: str, u: int) -> list:
    d0 = spec.dims[0]
    n = G.n
    kind = spec.delta_kind

    def zero():
        return rat.zeros_vec(d0) if spec.exact else np.zeros(d0)

    if kind == "delta0":
        return [zero() for _ in range(n)]
    if kind == "pair-table":
        row = []
        for v in range(n):
            key = (G.node_names[u], G.node_names[v])
            try:
                row.append(_coerce_vec(spec.pair_table[key], d0, spec.exact))
            except KeyError:
                raise ValidationError(f"pair table misses {key!r}") from None
        return row
    if kind == "delta1":
        ones = (
            (Fraction(1),) * d0 if spec.exact else np.ones(d0)
        )
        return [ones if v == u else zero() for v in range(n)]
    if kind == "delta4":  # a per-query noise vector replaces the learned one
        if spec.query_noise is not None:
            eps = np.asarray(
                _lookup(spec.query_noise, query, "query noise"), dtype=float
            )
        else:
            eps = np.random.default_rng(
                [spec.rng_seed, G.relation_id(query)]
            ).standard_normal(d0)
        return [eps if v == u else zero() for v in range(n)]
    z_q = _lookup(spec.query_vectors, query, "query vector")
    if kind == "delta2":
        mark = _coerce_vec(z_q, d0, spec.exact)
        return [mark if v == u else zero() for v in range(n)]
    # delta3
    if spec.node_noise is not None:
        eps = np.asarray(
            _lookup(spec.node_noise, G.node_names[u], "node noise"), dtype=float
        )
    else:
        eps = np.random.default_rng([spec.rng_seed, u]).standard_normal(d0)
    mark = np.asarray(z_q, dtype=float) + eps
    return [mark if v == u else zero() for v in range(n)]


def cmpnn_forward(
    G: KnowledgeGraph, spec: NetworkSpec, query: str, source: int | str
) -> FeatureTable:
    """Features of all targets ``v`` conditioned on one source and query.

    The returned table is keyed by ``(source, v)`` pairs; iterate sources
    (or call :func:`cmpnn_pair_table`) for the full pair table.
    """
    if spec.kind != "cmpnn":
        raise ValidationError("spec is not a conditional network")
    G.relation_id(query)  # validate early
    u = G._resolve_node(source)
    init = _delta_row(G, spec, query, u)
    features = _run_layers(G, spec, init, query)
    layers = tuple(
        {(u, v): feats[v] for v in range(G.n)} for feats in features
    )
    return FeatureTable(2, spec.dims, layers, spec.exact)


def cmpnn_pair_table(G: KnowledgeGraph, spec: NetworkSpec, query: str) -> FeatureTable:
    """Full pair table, one conditional run per source node."""
    layers: tuple[dict, ...] = tuple({} for _ in spec.dims)
    for u in range(G.n):
        row = cmpnn_forward(G, spec, query, u)
        for layer, part in zip(layers, row.layers):
            layer.update(part)
    return FeatureTable(2, spec.dims, layers, spec.exact)


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


def score_link(
    spec: NetworkSpec,
    decoder: MLPDecoder,
    G: KnowledgeGraph,
    query: str,
    source: int | str,
    target: int | str,
) -> float:
    """Probability in (0, 1) that the queried fact holds, via the decoder.

    Float mode only: the final squashing is transcendental, so exact mode
    is rejected.
    """
    if spec.exact:
        raise ValidationError("link scores use a sigmoid; run in float mode")
    u = G._resolve_node(source)
    v = G._resolve_node(target)
    table = cmpnn_forward(G, spec, query, u)
    h = np.asarray(table.vector(spec.num_layers, (u, v)), dtype=float)
    hidden = np.maximum(
        np.asarray(decoder.hidden_weights, dtype=float) @ h
        + np.asarray(decoder.hidden_bias, dtype=float),
        0.0,
    )
    logit = float(np.asarray(decoder.output_weights, dtype=float) @ hidden) + (
        decoder.output_bias
    )
    try:
        return 1.0 / (1.0 + math.exp(-logit))
    except OverflowError:  # logit below about -709: exp(logit) underflows instead
        e = math.exp(logit)
        return e / (1.0 + e)


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
    weights = tuple(_random_exact_matrix(rng, dim, dim) for _ in range(num_layers))
    rel_params = []
    for _ in range(num_layers):
        layer: dict[str, object] = {}
        for name in G.relation_names:
            if theta_kind == "theta1":
                layer[name] = _random_exact_matrix(rng, dim, dim)
            elif theta_kind == "theta2":
                layer[name] = _random_exact_vector(rng, dim)
            elif theta_kind == "theta3":
                layer[name] = _random_exact_matrix(rng, dim, dim)
            else:
                layer[name] = random_rational(rng)
        rel_params.append(layer)
    query_vectors = {
        name: _random_exact_vector(rng, dim, nonzero=True)
        for name in G.relation_names
    }
    return NetworkSpec(
        kind="cmpnn",
        num_layers=num_layers,
        dims=(dim,) * (num_layers + 1),
        weights=weights,
        biases=(None,) * num_layers,
        relation_params=tuple(rel_params),
        theta_kind=theta_kind,
        psi_kind="sum",
        sigma_kind="relu",
        update_kind="combine",
        history=history or HistoryFunction.identity(),
        numeric_mode="exact",
        delta_kind=delta_kind,
        query_vectors=query_vectors,
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
    weights = tuple(_random_exact_matrix(rng, dim, dim) for _ in range(num_layers))
    rel_params = []
    for _ in range(num_layers):
        layer: dict[str, object] = {}
        for name in G.relation_names:
            if theta_kind == "theta2":
                layer[name] = _random_exact_vector(rng, dim)
            elif theta_kind == "theta3":
                layer[name] = _random_exact_matrix(rng, dim, dim)
            else:
                layer[name] = random_rational(rng)
        rel_params.append(layer)
    return NetworkSpec(
        kind="rmpnn",
        num_layers=num_layers,
        dims=(dim,) * (num_layers + 1),
        weights=weights,
        biases=(None,) * num_layers,
        relation_params=tuple(rel_params),
        theta_kind=theta_kind,
        psi_kind="sum",
        sigma_kind=sigma_kind,
        update_kind="combine",
        history=history or HistoryFunction.identity(),
        numeric_mode="exact",
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _num_to_json(x, exact: bool):
    if exact:
        f = Fraction(x)
        return {"num": f.numerator, "den": f.denominator}
    return float(x)


def _num_from_json(x, exact: bool):
    if exact:
        return Fraction(x["num"], x["den"])
    return float(x)


def _vec_to_json(v, exact: bool):
    return [_num_to_json(x, exact) for x in v]


def _vec_from_json(v, exact: bool):
    return tuple(_num_from_json(x, exact) for x in v)


def _mat_to_json(m, exact: bool):
    return [_vec_to_json(row, exact) for row in m]


def _mat_from_json(m, exact: bool):
    return tuple(_vec_from_json(row, exact) for row in m)


def spec_to_json_dict(spec: NetworkSpec) -> dict:
    """Lossless JSON form; exact rationals serialize as num/den pairs."""
    exact = spec.exact
    param_kind = "scale" if spec.theta_kind == "scaling" else (
        "vector" if spec.theta_kind == "theta2" else "matrix"
    )

    def param_to_json(value):
        if param_kind == "scale":
            return _num_to_json(value, exact)
        if param_kind == "vector":
            return _vec_to_json(value, exact)
        return _mat_to_json(value, exact)

    doc = {
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
            "table": list(spec.history.table) if spec.history.table else None,
        },
        "weights": [_mat_to_json(W, exact) for W in spec.weights],
        "biases": [
            _vec_to_json(b, exact) if b is not None else None for b in spec.biases
        ],
        "relation_params": [
            {name: param_to_json(value) for name, value in sorted(layer.items())}
            for layer in spec.relation_params
        ],
        "delta_kind": spec.delta_kind,
        "rng_seed": spec.rng_seed,
        "assert_nonzero_preactivation": spec.assert_nonzero_preactivation,
        "query_vectors": (
            {k: _vec_to_json(v, exact) for k, v in sorted(spec.query_vectors.items())}
            if spec.query_vectors
            else None
        ),
        "pair_table": (
            [
                [a, b, _vec_to_json(v, exact)]
                for (a, b), v in sorted(spec.pair_table.items())
            ]
            if spec.pair_table
            else None
        ),
        "node_noise": (
            {k: list(map(float, v)) for k, v in sorted(spec.node_noise.items())}
            if spec.node_noise
            else None
        ),
        "query_noise": (
            {k: list(map(float, v)) for k, v in sorted(spec.query_noise.items())}
            if spec.query_noise
            else None
        ),
    }
    return doc


def spec_from_json_dict(doc: dict) -> NetworkSpec:
    exact = doc["numeric_mode"] == "exact"
    theta = doc["theta_kind"]
    param_kind = "scale" if theta == "scaling" else (
        "vector" if theta == "theta2" else "matrix"
    )

    def param_from_json(value):
        if param_kind == "scale":
            return _num_from_json(value, exact)
        if param_kind == "vector":
            return _vec_from_json(value, exact)
        return _mat_from_json(value, exact)

    history = doc["history"]
    return NetworkSpec(
        kind=doc["kind"],
        num_layers=doc["num_layers"],
        dims=tuple(doc["dims"]),
        weights=tuple(_mat_from_json(W, exact) for W in doc["weights"]),
        biases=tuple(
            _vec_from_json(b, exact) if b is not None else None
            for b in doc["biases"]
        ),
        relation_params=tuple(
            {name: param_from_json(value) for name, value in layer.items()}
            for layer in doc["relation_params"]
        ),
        theta_kind=theta,
        psi_kind=doc["psi_kind"],
        sigma_kind=doc["sigma_kind"],
        update_kind=doc["update_kind"],
        history=HistoryFunction(
            history["kind"],
            tuple(history["table"]) if history["table"] is not None else None,
        ),
        numeric_mode=doc["numeric_mode"],
        delta_kind=doc["delta_kind"],
        query_vectors=(
            {k: _vec_from_json(v, exact) for k, v in doc["query_vectors"].items()}
            if doc.get("query_vectors")
            else None
        ),
        pair_table=(
            {(a, b): _vec_from_json(v, exact) for a, b, v in doc["pair_table"]}
            if doc.get("pair_table")
            else None
        ),
        rng_seed=doc.get("rng_seed", 0),
        node_noise=(
            {k: tuple(v) for k, v in doc["node_noise"].items()}
            if doc.get("node_noise")
            else None
        ),
        query_noise=(
            {k: tuple(v) for k, v in doc["query_noise"].items()}
            if doc.get("query_noise")
            else None
        ),
        assert_nonzero_preactivation=doc.get("assert_nonzero_preactivation", False),
    )
