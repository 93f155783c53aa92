import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.grassmannian import companion_residual, eta_invariance_checks, random_units
from heckelab.pseries import (
    NonUnit,
    PolyMat2,
    SeriesMat2,
    bruhat_companion,
)


def scalar(coeffs):
    """The scalar series matrix s(z) I with the given coefficients of s."""
    return SeriesMat2(np.eye(2)[..., None] * np.asarray(coeffs, dtype=complex))


def close(x, y, tol=1e-12):
    """Entrywise agreement up to the common order, relative to each entry's
    largest coefficient (and at least 1)."""
    n = min(x.c.shape[-1], y.c.shape[-1])
    a, b = x.c[..., :n], y.c[..., :n]
    scale = np.maximum(np.maximum(np.abs(a).max(axis=-1), np.abs(b).max(axis=-1)), 1.0)
    return bool((np.abs(a - b).max(axis=-1) <= tol * scale).all())


def brute_product(a, b, size):
    """Coefficients z^0 .. z^{size-1} of the matrix product, by a loop over
    every pair of coefficients."""
    want = np.zeros((2, 2, size), dtype=complex)
    for i, j, l in itertools.product(range(2), repeat=3):
        for p, x in enumerate(a[i][l]):
            for q, y in enumerate(b[l][j]):
                if p + q < size:
                    want[i, j, p + q] += x * y
    return want


def ragged(rng):
    """Nested entry lists of degree 0..4; about one entry in five is zero."""
    def entry():
        if rng.random() < 0.2:
            return [0.0]
        size = int(rng.integers(1, 6))
        return list(rng.normal(size=size) + 1j * rng.normal(size=size))
    return [[entry() for _ in range(2)] for _ in range(2)]


coeff = st.complex_numbers(min_magnitude=0, max_magnitude=4, allow_nan=False,
                           allow_infinity=False)
series_strategy = st.lists(coeff, min_size=4, max_size=9).map(scalar)


def test_polynomial_identity():
    prod = scalar([1, 1, 0, 0]) * scalar([1, -1, 0, 0])
    assert np.allclose(prod.c[0, 0], [1, 0, -1, 0])
    assert np.allclose(prod.c[1, 1], [1, 0, -1, 0])
    assert not prod.c[0, 1].any() and not prod.c[1, 0].any()


def test_identity_matrix_multiplication():
    rng = np.random.default_rng(0)
    m = SeriesMat2(rng.normal(size=(2, 2, 5)) + 1j * rng.normal(size=(2, 2, 5)))
    assert close(SeriesMat2.constant(np.eye(2), 4) * m, m)
    assert close(m * SeriesMat2.constant(np.eye(2), 4), m)


def test_convolution_against_double_loop():
    rng = np.random.default_rng(1)
    n = 8
    a = rng.normal(size=(2, 2, n + 1)) + 1j * rng.normal(size=(2, 2, n + 1))
    b = rng.normal(size=(2, 2, n + 1)) + 1j * rng.normal(size=(2, 2, n + 1))
    prod = SeriesMat2(a) * SeriesMat2(b)
    assert prod.order == n
    assert np.allclose(prod.c, brute_product(a, b, n + 1), atol=1e-14)


def test_series_product_keeps_the_smaller_order():
    rng = np.random.default_rng(10)
    for n1, n2 in ((3, 7), (7, 3), (5, 5), (1, 8)):
        a = rng.normal(size=(2, 2, n1 + 1)) + 1j * rng.normal(size=(2, 2, n1 + 1))
        b = rng.normal(size=(2, 2, n2 + 1)) + 1j * rng.normal(size=(2, 2, n2 + 1))
        prod = SeriesMat2(a) * SeriesMat2(b)
        assert prod.order == min(n1, n2)
        exact = (PolyMat2(a) * PolyMat2(b)).c
        assert exact.shape[-1] == n1 + n2 + 1
        assert np.allclose(prod.c, exact[..., : min(n1, n2) + 1], rtol=0, atol=1e-13)


def test_polymat_product_of_ragged_entries():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a, b = ragged(rng), ragged(rng)
        want = brute_product(a, b, 9)
        top = max(k for k in range(9) if want[..., k].any())
        prod = PolyMat2(a) * PolyMat2(b)
        assert prod.max_degree() == top
        assert np.allclose(prod.c, want[..., : top + 1], rtol=0, atol=1e-13)
        for i, j in itertools.product(range(2), repeat=2):
            e = np.asarray(a[i][j])
            padded = PolyMat2(a).c[i, j]
            assert np.array_equal(padded[: e.size], e) and not padded[e.size:].any()


def test_polymat_drops_trailing_zero_coefficients():
    p = PolyMat2([[[1.0, 2.0, 0.0], [0.0]], [[3.0, 0.0], [0.0]]])
    assert p.max_degree() == 1
    assert PolyMat2([[[0.0], [0.0]], [[0.0], [0.0]]]).c.shape == (2, 2, 1)
    # Exact products keep every coefficient: (z)(z) = z^2.
    z = PolyMat2.z_shift()
    assert np.array_equal((z * z).c[1, 1], [0, 0, 1])
    assert (z * z).det().size == 3


def test_z_shift_is_diag_1_z_truncated_at_its_order():
    assert np.array_equal(SeriesMat2.z_shift(0).c, np.diag([1, 0])[..., None])
    full = SeriesMat2.z_shift(8).c
    assert np.array_equal(full[:, :, :2], [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]) and not full[..., 2:].any()
    for order in range(9):
        assert np.array_equal(SeriesMat2.z_shift(order).c, full[..., : order + 1])


def test_nonunit_raises():
    z = SeriesMat2.z_shift(4)
    with pytest.raises(NonUnit):
        bruhat_companion(z)
    with pytest.raises(NonUnit):
        eta_invariance_checks(z.c, SeriesMat2.constant(np.eye(2), 4).c)


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_ring_laws(a, b, c):
    def add(x, y):
        """The sum of two series, to the smaller order, on their coefficient arrays."""
        n = min(x.c.shape[-1], y.c.shape[-1])
        return SeriesMat2(x.c[..., :n] + y.c[..., :n])

    assert close((a * b) * c, a * (b * c), tol=1e-9)
    assert close(a * add(b, c), add(a * b, a * c), tol=1e-9)
    assert close(a * b, b * a, tol=1e-9)
    assert (a * b).order == min(a.order, b.order)


def test_bruhat_companion_trivial_cases():
    ident = SeriesMat2.identity()
    assert close(bruhat_companion(ident), ident)
    rng = np.random.default_rng(3)
    const = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert close(bruhat_companion(SeriesMat2.constant(const, 8)), ident)


def test_bruhat_companion_identity_random():
    rng = np.random.default_rng(4)
    for c in random_units(rng, 25, 8).c:
        a = SeriesMat2(c)
        assert companion_residual(a) < 1e-12
        b = bruhat_companion(a)
        assert abs(np.linalg.det(b.constant_term()) - 1) < 1e-12
