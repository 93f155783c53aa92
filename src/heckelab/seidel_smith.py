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

from .projective import chordal_vecs
from .rational import (
    RationalSequence,
    above_degree_matrix,
    composites,
    h_vecs,
    product_matrix,
    random_minimal_sequence,
)

#: Eigenvalues closer than this are treated as a degenerate spectrum.
SPECTRUM_GAP = 1e-8

#: Sequences per stacked pass of ``conjecture_check``.
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
    with eigenvalues at the modification points.  Any sequence with an
    unstable terminal or a singular reduction raises ReductionFailure.
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
    # P g for g of degree <= 2m suffices (adjugate bound); the coefficients
    # above degree 2m must vanish.
    _, s, vh = np.linalg.svd(above_degree_matrix(p, n))
    rank = np.sum(s > 1e-9 * np.maximum(s[:, :1], 1.0), axis=1)
    if (rank != n).any():
        dim = 2 * n + 2 - rank[np.argmax(rank != n)]
        raise ReductionFailure(f"degree-bounded submodule has dimension {dim}, not {n + 2}")
    # Basis of the degree-bounded part of the image submodule, dimension 2m + 2.
    basis = product_matrix(p, n, np.arange(n + 1)) @ np.swapaxes(vh[:, n:].conj(), 1, 2)
    # Reduce z * (z^{m-1} e_j), i.e. z^m e_j, against the quotient basis
    # {z^k e_j : k < m} in the decreasing-power block order plus the basis.
    quotient = np.array([j * (n + 1) + m - 1 - blk for blk in range(m) for j in range(2)])
    system = np.concatenate([np.broadcast_to(np.eye(2 * n + 2)[:, quotient], (batch, 2 * n + 2, n)),
                             basis], axis=2)
    targets = np.eye(2 * n + 2)[:, [m, n + 1 + m]]
    u, s, vh = np.linalg.svd(system)
    # lstsq's rank rule (rcond = eps * max(M, N)) and residual bound.
    if (s[:, -1] <= np.finfo(float).eps * (2 * n + 2) * s[:, 0]).any():
        raise ReductionFailure("module reduction system is singular")
    sol = np.swapaxes(vh.conj(), 1, 2) @ ((np.swapaxes(u.conj(), 1, 2) @ targets) / s[..., None])
    if np.linalg.norm(system @ sol - targets, axis=1).max() > 1e-8:
        raise ReductionFailure("module reduction system is singular")
    a = np.zeros((batch, n, n), dtype=complex)
    a[:, : n - 2, 2:] = np.eye(n - 2)
    a[:, :, :2] = sol[:, :n]
    return a


def woodward_vecs(a: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Last 2-block of the left eigenvectors of stacked matrices (..., N, N),
    one homogeneous vector (..., k, 2) per eigenvalue (..., k).

    Each is the least-norm kernel vector v of v A = mu v, from the SVD of
    A^T - mu.  The eigenvalue order is the caller's; it is never sorted
    here because the diagram comparison is order-sensitive.
    """
    i, j = np.triu_indices(eigenvalues.shape[-1], 1)
    gaps = np.abs(eigenvalues[..., i] - eigenvalues[..., j])
    if (gaps < SPECTRUM_GAP).any():
        raise DegenerateSpectrum(f"two eigenvalues collide (gap {gaps.min():.3e})")
    mat = np.swapaxes(a, -1, -2)[..., None, :, :] - eigenvalues[..., None, None] * np.eye(a.shape[-1])
    return np.linalg.svd(mat)[2][..., -1, -2:].conj()


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


def separated_points(count: int, rng: np.random.Generator, gap: float = 0.3) -> list[complex]:
    """Random complex points with pairwise separation at least ``gap``."""
    pts: list[complex] = []
    while len(pts) < count:
        z = rng.normal() + 1j * rng.normal()
        if all(abs(z - w) >= gap for w in pts):
            pts.append(z)
    return pts


def conjecture_check(m: int, samples: int, rng: np.random.Generator) -> float:
    """Max residual over ``samples`` random sequences of length 2m.

    Sequences are drawn CONJECTURE_CHUNK at a time in draw order, stacked
    into one sequence array and decided in one pass; the chunk bounds the
    arrays alive at once, and past 100 a larger one saves no time.
    """
    worst = 0.0
    for start in range(0, samples, CONJECTURE_CHUNK):
        draws = [random_minimal_sequence(2 * m, rng, points=separated_points(2 * m, rng))
                 for _ in range(min(CONJECTURE_CHUNK, samples - start))]
        seq = RationalSequence([d.points for d in draws], [d.vecs for d in draws])
        worst = max(worst, float(conjecture_residuals(seq).max()))
    return worst
