"""Block-companion slices, the eigenvalue map, and the two embeddings.

A point of the slice is a 2m x 2m matrix with 2x2 identity blocks on the
superdiagonal and free 2x2 blocks down the left column.  Sequences of 2m
modifications of the trivial bundle with semistable terminal map onto the
fiber of the eigenvalue map via the z-action on the cokernel of the
composite matrix; reading the last block of left eigenvectors embeds that
fiber into (CP^1)^{2m}, and the commutative-diagram check compares the
two routes through [x:y] -> [-y:x].
"""

from __future__ import annotations

import numpy as np

from .projective import (chordal_vecs, complex_abs, complex_div, mat2_adj, mat2_det, mat2_mul,
                         rank_one_column_spaces)
from .rational import (
    RANK_DROP_TOL,
    RationalSequence,
    composites,
    h_vecs,
    minimal_direction_vecs,
    upper_pairs,
)

#: Eigenvalues closer than this are treated as a degenerate spectrum.
SPECTRUM_GAP = 1e-8

#: Sequences per stacked pass of ``conjecture_check``.  It fixes the draw
#: stream, so changing it changes every ``check-conjecture`` report.
CONJECTURE_CHUNK = 100


class DegenerateSpectrum(ValueError):
    """Left-eigenvector extraction needs pairwise distinct eigenvalues."""


class ReductionFailure(ValueError):
    """Cokernel reduction is singular: the sequence is not in the space."""


def kamnitzer(seq: RationalSequence) -> np.ndarray:
    """``slice_matrices`` of one sequence."""
    return slice_matrices(seq.coeffs()[None], seq.hecke_lengths()[None, -1])[0]


def slice_matrices(coeffs: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    """Matrices (B, n, n) of multiplication by z on C[z]^2 / P C[z]^2.

    P is the composite of a sequence of n = 2m modifications with
    semistable terminal, given by the step coefficients (B, n, 2, 2, 2) and
    terminal Hecke lengths (B,) of stacked sequences; the basis is
    {z^{m-1} e1, z^{m-1} e2, ..., e1, e2} and the result lies in the slice
    with eigenvalues at the modification points.

    The step tables keep the column degrees of P at the splitting degrees
    of the bundle reached, so for a semistable terminal P has no nonzero
    coefficient above degree m and its columns generate the image
    N = P C[z]^2.  Its z^m coefficient L is invertible (det P has degree
    n), so P L^{-1} = z^m + sum_t C_t z^t is the monic generator and
    z^m e_j reduces to -sum_t C_t e_j z^t: the left block column is
    -C_{m-1}, ..., -C_0.  An unstable terminal, a nonzero coefficient of P
    above degree m or a singular L raises ReductionFailure.
    """
    batch, n = coeffs.shape[:2]
    if n == 0 or n % 2:
        raise ValueError("need an even, positive number of modifications")
    if terminal.any():
        raise ReductionFailure(
            f"sequence {int(np.argmax(terminal != 0))} has an unstable terminal bundle")
    m = n // 2
    p = composites(coeffs)
    p /= np.abs(p).max(axis=(-3, -2, -1), keepdims=True)
    if (p[..., m + 1 :] != 0).any():
        raise ReductionFailure(f"a composite has a nonzero coefficient above degree {m}")
    # Coefficients P_t (B, m + 1, 2, 2) of the generators.
    q = np.moveaxis(p[..., : m + 1], -1, 1)
    lead = q[:, m]
    _, s1, s2, _ = rank_one_column_spaces(lead)
    if ((s2 < RANK_DROP_TOL * s1) | (s1 == 0)).any():
        raise ReductionFailure("leading coefficient of the degree-m generators is singular")
    # C_t = P_t L^{-1} = P_t adj L / det L.
    c = complex_div(mat2_mul(q[:, :m], mat2_adj(lead)[:, None]), mat2_det(lead)[:, None, None, None])
    if np.abs(mat2_mul(c, lead[:, None]) - q[:, :m]).max(initial=0) > 1e-8 * np.abs(q).max(initial=0):
        raise ReductionFailure("monic generator residual too large")
    a = np.zeros((batch, n, n), dtype=complex)
    a[:, : n - 2, 2:] = np.eye(n - 2)
    a[:, :, :2] = -c[:, ::-1].reshape(batch, n, 2)
    return a


def woodward_vecs(a: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Last 2-block of the left eigenvectors of stacked slices (..., 2m, 2m),
    one homogeneous vector (..., k, 2) per eigenvalue (..., k).

    For left blocks A_1..A_m, the left eigenvector v of mu has blocks
    v_j = mu^{m-j} v_m, and v_m spans the left kernel of the 2x2
    M(mu) = mu^m - sum_k mu^{m-k} A_k: it is (y, -x) for the column space
    [x:y] of M(mu), by ``rank_one_column_spaces``.  Only the left block
    column is read, so any other 2m x 2m input with m > 1 raises
    ValueError.  The eigenvalue order is the caller's; it is never sorted
    here because the diagram comparison is order-sensitive.
    """
    i, j = upper_pairs(eigenvalues.shape[-1])
    gaps = np.abs(eigenvalues[..., i] - eigenvalues[..., j])
    if (gaps < SPECTRUM_GAP).any():
        raise DegenerateSpectrum(f"two eigenvalues collide (gap {gaps.min():.3e})")
    n = a.shape[-1]
    if n % 2 or (a[..., 2:] != np.eye(n, n - 2)).any():
        raise ValueError("not a block-companion slice: identity superdiagonal blocks, "
                         "zeros elsewhere right of the left block column")
    blocks = a[..., :2].reshape(a.shape[:-2] + (1, n // 2, 2, 2))
    mu = eigenvalues[..., None, None]
    # Horner: M_0 = 1, M_k = mu M_{k-1} - A_k.
    mat = np.broadcast_to(np.eye(2, dtype=complex), mu.shape[:-2] + (2, 2))
    for k in range(n // 2):
        mat = mu * mat - blocks[..., k, :, :]
    x, y = np.moveaxis(rank_one_column_spaces(mat)[0], -1, 0)
    return np.stack([y, -x], axis=-1)


def conjecture_residuals(seq: RationalSequence) -> np.ndarray:
    """Max chordal mismatch of the two routes around the diagram, per sequence
    of a stack ``seq`` (B, n).

    Route one: the direction tuple of the sequence followed by
    [x:y] -> [-y:x].  Route two: the slice matrix of the sequence followed
    by the left-eigenvector embedding, eigenvalues ordered as the
    modification points.
    """
    coeffs = seq.coeffs()
    w = woodward_vecs(slice_matrices(coeffs, seq.hecke_lengths()[:, -1]), seq.points)
    h = h_vecs(seq.points, coeffs)
    return chordal_vecs(np.stack([-h[..., 1], h[..., 0]], axis=-1), w).max(axis=-1)


def separated_points(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws (count, n) of n random complex points each, pairwise
    at least 0.3 apart within a draw.

    Candidates are standard complex normals, drawn in rounds.  A round
    draws one block ``normal((open, k, 2))`` of (real, imaginary) parts for
    the ``open`` draws still short of n points, in draw order, with k the
    number of points that the emptiest of them lacks.  Within a draw the
    candidates are read in order, and one is kept when it is at least
    0.3 from every point of its draw kept so far (moduli as Python's
    ``abs`` rounds them), until the draw holds n points.
    """
    # Empty slots hold infinity, which is farther than 0.3 from any candidate.
    pts = np.full((count, n), np.inf, dtype=complex)
    filled = np.zeros(count, dtype=int)
    open_ = np.arange(count)
    while open_.size:
        k = n - int(filled[open_].min())
        z = rng.normal(size=(open_.size, k, 2))
        cands = z[..., 0] + 1j * z[..., 1]
        kept, have = pts[open_], filled[open_]
        for j in range(k):
            far = (complex_abs(cands[:, j, None] - kept) >= 0.3).all(axis=1)
            rows = np.flatnonzero(far & (have < n))
            kept[rows, have[rows]] = cands[rows, j]
            have[rows] += 1
        pts[open_], filled[open_] = kept, have
        open_ = open_[have < n]
    return pts


def conjecture_draws(m: int, count: int, rng: np.random.Generator) -> RationalSequence:
    """``count`` random minimal sequences of length 2m, stacked: the points
    of every draw by ``separated_points``, then the directions of every
    draw by ``minimal_direction_vecs``, both from ``rng`` in that order."""
    return RationalSequence(separated_points(count, 2 * m, rng),
                            minimal_direction_vecs(count, 2 * m, rng))


def conjecture_check(m: int, samples: int, rng: np.random.Generator) -> float:
    """Max residual over ``samples`` random sequences of length 2m.

    Sequences are drawn CONJECTURE_CHUNK at a time by ``conjecture_draws``
    and decided in one pass.  The chunk bounds the arrays alive at once and
    also fixes the draw stream: each chunk draws its points, then its
    directions, so another chunk draws other sequences.
    """
    worst = []
    for start in range(0, samples, CONJECTURE_CHUNK):
        seq = conjecture_draws(m, min(CONJECTURE_CHUNK, samples - start), rng)
        worst.append(conjecture_residuals(seq).max())
    return float(np.max(worst))  # np.max, not max(): a NaN residual propagates
