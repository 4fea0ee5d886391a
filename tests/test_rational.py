import random
from fractions import Fraction

import pytest

from relwl.errors import ValidationError
from relwl.rational import mat

from builder_reference import identity, mat_inverse, mat_mul
from forward_reference import mat_vec


def test_inverse_times_matrix_is_identity():
    rng = random.Random(0)
    for n in (1, 2, 4, 6):
        while True:
            A = mat(
                [
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            try:
                inv = mat_inverse(A)
                break
            except ValidationError:
                continue  # singular draw, try again
        assert mat_mul(inv, A) == identity(n)
        assert mat_mul(A, inv) == identity(n)


def test_singular_matrix_rejected():
    with pytest.raises(ValidationError):
        mat_inverse(mat([[1, 2], [2, 4]]))


def test_matvec_shape_check():
    with pytest.raises(ValidationError):
        mat_vec(mat([[1, 2]]), (Fraction(1),))

