"""Exact rational vectors and matrices for the exact network forward.

Vectors are tuples of :class:`fractions.Fraction`, matrices are tuples of
row tuples.  The exact forward of :mod:`relwl.networks` coerces weights,
biases and relation parameters with :func:`mat` / :func:`vec`, then scales
them to integers once per layer and runs on integer numerators; the
constructive builders need no matrix algebra (their weights have closed
forms).  :func:`vec` and :func:`mat` could move into :mod:`relwl.networks`;
the module stays because the benchmark's tracer (``perfbench/spans.py``)
looks it up by name.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

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
