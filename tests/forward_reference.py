"""Reference forward: the per-node, per-vector message passing recurrence.

This is how ``relwl.networks`` evaluated networks before a layer became
array algebra over the edge arrays: one Python loop over target nodes,
one message per incoming fact, a running sum started from zero, and one
``W @ x`` per node; exact mode on tuples of ``Fraction``.  It is kept as
the oracle of the differential tests, which require float features equal
bit for bit (``np.array_equal``) and exact features equal (``==``) to
these, together with the rational helpers it needs.
"""

import math
from fractions import Fraction

import numpy as np

from relwl.errors import UnknownEntityError, ValidationError


def vec(values):
    return tuple(Fraction(x) for x in values)


def mat(rows):
    out = tuple(vec(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValidationError("ragged matrix")
    return out


def zeros_vec(n):
    return (Fraction(0),) * n


def mat_vec(A, x):
    if A and len(A[0]) != len(x):
        raise ValidationError(f"shape mismatch: {len(A[0])} columns vs {len(x)}")
    return tuple(sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in A)


def _sigma_exact(kind, values, assert_nonzero):
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


def _sigma_float(kind, values, assert_nonzero):
    if kind == "sign":
        if assert_nonzero and np.any(values == 0.0):
            raise ValidationError("constructive network hit a zero pre-activation")
        return np.where(values > 0.0, 1.0, -1.0)
    if kind == "relu":
        return np.maximum(values, 0.0)
    if kind == "truncated-relu":
        return np.minimum(np.maximum(values, 0.0), 1.0)
    return values


def _lookup(table, key, what):
    try:
        return table[key]
    except KeyError:
        raise UnknownEntityError(f"no {what} for {key!r}") from None


def _coerce_vec(value, dim, exact):
    if len(value) != dim:
        raise ValidationError(f"expected a vector of dimension {dim}")
    if exact:
        return tuple(Fraction(x) for x in value)
    return np.asarray(value, dtype=float)


class _Layer:
    """One layer's parameters, resolved against a concrete graph."""

    def __init__(self, spec, G, t, query):
        self.exact = spec.exact
        self.d_in = spec.dims[t]
        self.d_out = spec.dims[t + 1]
        self.sigma = spec.sigma_kind
        self.update = spec.update_kind
        self.psi = spec.psi_kind
        self.assert_nonzero = spec.assert_nonzero_preactivation
        if self.exact:
            self.W = mat(spec.weights[t])
            self.bias = vec(spec.biases[t]) if spec.biases[t] is not None else None
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
        self.messages = {}
        for name, value in spec.relation_params[t].items():
            try:
                rel = G.relation_id(name)
            except UnknownEntityError:
                continue  # relation absent from this graph: nothing to message
            if spec.theta_kind == "theta1":
                if self.exact:
                    gate = mat_vec(mat(value), vec(z_q))
                else:
                    gate = np.asarray(value, dtype=float) @ np.asarray(z_q, dtype=float)
                self.messages[rel] = ("hadamard", gate)
            elif spec.theta_kind == "theta2":
                gate = vec(value) if self.exact else np.asarray(value, dtype=float)
                self.messages[rel] = ("hadamard", gate)
            elif spec.theta_kind == "theta3":
                m = mat(value) if self.exact else np.asarray(value, dtype=float)
                self.messages[rel] = ("matmul", m)
            else:
                scale = Fraction(value) if self.exact else float(value)
                self.messages[rel] = ("scale", scale)

    def message(self, rel, h):
        entry = self.messages.get(rel)
        if entry is None:
            return None
        op, param = entry
        if self.exact:
            if op == "hadamard":
                return tuple(a * b for a, b in zip(h, param))
            if op == "matmul":
                return mat_vec(param, h)
            return tuple(param * a for a in h)
        if op == "hadamard":
            return h * param
        if op == "matmul":
            return param @ h
        return param * h

    def aggregate_sum(self, msgs):
        dim = self.d_in if self.update == "combine" else self.d_out
        if self.exact:
            total = list(zeros_vec(dim))
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

    def aggregate_pna(self, msgs, log_mean_degree):
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
                pre = mat_vec(self.W, tuple(a + b for a, b in zip(own, agg)))
            else:
                pre = tuple(a + b for a, b in zip(mat_vec(self.W, own), agg))
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


def _run_layers(G, spec, init, query):
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


def _delta_row(G, spec, query, u):
    d0 = spec.dims[0]
    n = G.n
    kind = spec.delta_kind

    def zero():
        return zeros_vec(d0) if spec.exact else np.zeros(d0)

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
        ones = (Fraction(1),) * d0 if spec.exact else np.ones(d0)
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


def reference_rmpnn(G, spec, x):
    """Per-layer lists of node features from initial features ``x``, a
    sequence indexed by node id."""
    init = [_coerce_vec(v, spec.dims[0], spec.exact) for v in x]
    return _run_layers(G, spec, init, query=None)


def reference_cmpnn_row(G, spec, query, u):
    """Per-layer lists of the features of (u, v), v = 0..n-1."""
    return _run_layers(G, spec, _delta_row(G, spec, query, u), query)


def reference_score_link(spec, decoder, G, query, u, v):
    """Link probability of (u, query, v) as ``score_link`` computed it."""
    h = np.asarray(reference_cmpnn_row(G, spec, query, u)[-1][v], dtype=float)
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
    except OverflowError:
        e = math.exp(logit)
        return e / (1.0 + e)
