"""The Bruhat cell of diag(1, z) and its direction map to CP^1.

A composite of Hecke morphism matrices, evaluated at the modification
point, is a rank-1 matrix whose column space is the direction of the
modification.  ``eta_at`` extracts that direction,
``chain_direction_vecs`` reads it off every step of stacked chains of
morphisms, and ``in_bruhat_cell`` decides membership for local series data.
"""

from __future__ import annotations

import numpy as np

from .projective import (ProjPoint, chordal_vecs, complex_abs, mat2_det, mat2_mul, rank_one_column_space,
                         rank_one_column_spaces)
from .pseries import UNIT_TOL, NonUnit, SeriesMat2, bruhat_companion


class NotInCell(ValueError):
    """Evaluation point is not a simple-degeneracy point of the matrix."""


def eta_at(m, mu: complex) -> ProjPoint:
    """Direction in CP^1 of an analytic 2x2 matrix ``m`` (a function of z,
    or its value) at the point ``mu``.

    ``m(mu)`` must have numerical rank exactly 1; the result is its column
    space.  For m = A(z - mu) diag(1, z - mu) with A a unit this is the
    class of the first column of A(0).
    """
    point, s1, s2 = rank_one_column_space(np.asarray(m(mu) if callable(m) else m, dtype=complex))
    if point is None:
        raise NotInCell(
            f"matrix at {mu} has singular values ({s1:.3e}, {s2:.3e}); not rank 1"
        )
    return point


def eta_vecs(vals: np.ndarray) -> np.ndarray:
    """``eta_at`` over stacked matrix values (..., 2, 2): homogeneous
    direction vectors (..., 2).  Raises NotInCell if any value is not rank 1."""
    vecs, s1, s2, ok = rank_one_column_spaces(vals)
    if not ok.all():
        i = tuple(np.argwhere(~ok)[0].tolist())
        raise NotInCell(
            f"matrix {i} has singular values ({s1[i]:.3e}, {s2[i]:.3e}); not rank 1"
        )
    return vecs


def chain_direction_vecs(factors: np.ndarray) -> np.ndarray:
    """Direction of each step of stacked chains of evaluated factors, in
    the frame of the chain's start: eta of the composite of the first
    i + 1 factors at point i.

    ``factors[..., k, i, :, :]`` is factor k at point i (..., n, n, 2, 2);
    only k <= i is read.  Returns the direction vectors (..., n, 2).  The
    composite is taken in factored form: the rank-1 column space is
    extracted from the final factor, where the degeneracy is structural
    and well conditioned, and the invertible prefix transports the
    direction vector, which avoids amplifying the extraction through
    ill-conditioned products.  Step 0 is its own eta; the prefix starts as
    factor 0 and is carried only at the points a later step reads.
    """
    n = factors.shape[-3]
    diag = np.arange(n)
    eta = eta_vecs(factors[..., diag, diag, :, :])
    out = eta.copy()
    for k in range(1, n):
        # factors 0 .. k - 1 multiplied out at points k and later
        prefix = (factors[..., 0, 1:, :, :] if k == 1
                  else mat2_mul(prefix[..., 1:, :, :], factors[..., k - 1, k:, :, :]))
        out[..., k, :] = mat2_mul(prefix[..., 0, :, :], eta[..., k, :])
    return out


def in_bruhat_cell(m: SeriesMat2) -> bool:
    """True iff det m vanishes to exactly first order at the series center
    and the center value has rank 1.

    The series is understood as centered at the modification point (local
    variable u = z - center).  Degenerate input returns False.
    """
    if m.order < 2:
        return False
    d = m.det()
    scale = max(np.abs(d).max(), 1.0)
    if abs(d[0]) > UNIT_TOL * scale or abs(d[1]) <= UNIT_TOL * scale:
        return False
    point, _, _ = rank_one_column_space(m.constant_term())
    return point is not None


def eta_invariance_checks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Projective distances between eta(A Z) and eta(A Z B) at the center,
    for stacked series coefficients A, B (..., 2, 2, K).

    Every A and B must be a unit; the contract is a residual below 1e-9,
    witnessing that eta only depends on the right-coset of A Z.  eta reads
    only the constant terms, so only those are formed: A(0) diag(1, 0) as
    a column mask, then its product with B(0).
    """
    for unit in (a, b):
        if (np.abs(mat2_det(unit[..., 0])) <= UNIT_TOL).any():
            raise NonUnit("operand constant term is singular")
    left = a[..., 0] * [1, 0]
    return chordal_vecs(eta_vecs(left), eta_vecs(mat2_mul(left, b[..., 0])))


def constant_representatives(vecs: np.ndarray) -> np.ndarray:
    """Unit constant matrices A (..., 2, 2) with eta([A Z]) the directions
    ``vecs`` (..., 2).

    Completes (a, c) with the orthogonal column (-conj(c), conj(a)), so the
    determinant is |a|^2 + |c|^2 > 0.
    """
    a, c = vecs[..., 0], vecs[..., 1]
    return np.stack([np.stack([a, -c.conj()], axis=-1), np.stack([c, a.conj()], axis=-1)], axis=-2)


def random_units(rng: np.random.Generator, count: int, order: int) -> SeriesMat2:
    """``count`` random series matrices with well-conditioned constant terms:
    the units, and generator state, of drawing and testing one at a time.

    Marginal units amplify coefficient growth through the inverse series;
    rejecting them keeps self-consistency residuals near roundoff.
    """
    decay = 0.4 ** np.arange(order + 1)
    draws = rng.normal(size=(count, 2, 2, 2, order + 1))
    coeffs = (draws[:, 0] + 1j * draws[:, 1]) * decay
    units = coeffs[complex_abs(mat2_det(coeffs[..., 0])) > 0.3]
    if len(units) < count:  # redraw the rejected ones after the block
        units = np.concatenate([units, random_units(rng, count - len(units), order).c])
    return SeriesMat2(units)


def companion_residual(a: SeriesMat2) -> float:
    """Coefficientwise residual of A(0) Z B = A Z for B = bruhat_companion(A),
    the largest over a stack of A."""
    b = bruhat_companion(a)
    z = SeriesMat2.z_shift(a.order)
    lhs = SeriesMat2.constant(a.constant_term(), a.order) * z * b
    rhs = a * z
    n = min(lhs.order, rhs.order)
    x, y = lhs.c[..., : n + 1], rhs.c[..., : n + 1]
    scale = np.maximum(np.abs(y).max(axis=-1), 1.0)
    return float((np.abs(x - y).max(axis=-1) / scale).max())
