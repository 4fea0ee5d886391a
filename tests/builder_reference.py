"""Reference constructive builders: dense rational matrix products.

This is how ``relwl.networks`` built its simulators before the builders
became integer colour counting: every layer multiplies |V| x |V| Fraction
matrices (the basis inverse, one adjacency matrix per relation, the sign
matrix).  It is kept as the oracle of the differential tests, which
require specs and initial features equal (``==``) to these, together with
the dense helpers it needs.
"""

from dataclasses import replace
from fractions import Fraction

from relwl import rational as rat
from relwl.errors import PreconditionError, ValidationError
from relwl.graphs import product_square
from relwl.networks import NetworkSpec, build_sign_matrix, sign_basis
from relwl.wl import HistoryFunction


def identity(n):
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_mul(A, B):
    if A and B and len(A[0]) != len(B):
        raise ValidationError("shape mismatch in matrix product")
    cols = list(zip(*B)) if B else []
    return tuple(
        tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols)
        for row in A
    )


def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(c, A):
    return tuple(tuple(c * a for a in row) for row in A)


def mat_inverse(A):
    """Gauss-Jordan inverse; raises :class:`ValidationError` if singular."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValidationError("inverse needs a square matrix")
    work = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValidationError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = Fraction(1) / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def _as_int(x):
    if x.denominator != 1:
        raise ValidationError("expected an integer-valued rational")
    return x.numerator


def reference_rwl1_simulator(G, num_layers, history=None):
    history = history or HistoryFunction.identity()
    n = G.n
    if n == 0:
        raise ValidationError("simulator needs a non-empty graph")
    # densify color ids so each indexes a basis column (at most n classes)
    seen: dict[int, int] = {}
    colors = tuple(seen.setdefault(c, len(seen)) for c in G.node_colors)
    basis = sign_basis(n)
    M = mat_inverse(basis)
    adjacency = []
    for r in range(len(G.relation_names)):
        A = [[Fraction(0)] * n for _ in range(n)]
        for rel, s, t in G.facts:
            if rel == r:
                A[s][t] = Fraction(1)
        adjacency.append(rat.mat(A))
    scalings = {
        name: Fraction((n + 1) ** (i + 1))
        for i, name in enumerate(G.relation_names)
    }
    init = tuple(
        tuple(basis[i][colors[v]] for i in range(n)) for v in range(n)
    )
    H = [tuple(zip(*init))]  # columns are node features
    weights = []
    for t in range(num_layers):
        E = mat_mul(M, H[history(t)])
        MHt = mat_mul(M, H[t])
        for i, A in enumerate(adjacency):
            term = mat_scale(
                Fraction((n + 1) ** (i + 1)), mat_mul(MHt, A)
            )
            E = mat_add(E, term)
        columns = list(zip(*E))
        distinct: list[tuple] = []
        for col in columns:
            if col not in distinct:
                distinct.append(col)
        B = [[_as_int(col[i]) for col in distinct] for i in range(n)]
        X = build_sign_matrix(B, n)
        weights.append(mat_mul(X, M))
        XE = mat_mul(X, E)
        nxt = []
        for row in XE:
            out_row = []
            for val in row:
                if val == 1:
                    raise AssertionError("pre-activation exactly at the bias")
                out_row.append(Fraction(1) if val > 1 else Fraction(-1))
            nxt.append(tuple(out_row))
        H.append(tuple(nxt))
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


def reference_cmpnn_simulator(G, num_layers, history=None):
    if G.pair_coloring is None:
        raise PreconditionError("conditional simulator needs a pair coloring")
    if not G.pair_coloring.tnd_flag:
        raise PreconditionError(
            "pair coloring must satisfy target node distinguishability"
        )
    square = product_square(G)
    node_spec, node_init = reference_rwl1_simulator(square, num_layers, history)
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
