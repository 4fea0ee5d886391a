"""Exact rational vectors and matrices for the exact network forward.

Vectors are tuples of :class:`fractions.Fraction`, matrices are tuples of
row tuples.  The exact forward pass of :mod:`relwl.networks` coerces
weights and biases with :func:`mat` / :func:`vec`, starts sums from
:func:`zeros_vec` and applies layers with :func:`mat_vec`; the
constructive builders need no matrix algebra (their weights have closed
forms).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ValidationError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(values: Iterable) -> Vec:
    return tuple(Fraction(x) for x in values)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValidationError("ragged matrix")
    return out


def zeros_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def mat_vec(A: Mat, x: Sequence[Fraction]) -> Vec:
    if A and len(A[0]) != len(x):
        raise ValidationError(f"shape mismatch: {len(A[0])} columns vs {len(x)}")
    return tuple(sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in A)
