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

from dataclasses import dataclass

import numpy as np

from .projective import ProjPoint, chordal
from .pseries import PolyMat2
from .rational import RationalSequence, above_degree_matrix, random_minimal_sequence

#: Eigenvalues closer than this are treated as a degenerate spectrum.
SPECTRUM_GAP = 1e-8


class DegenerateSpectrum(ValueError):
    """Left-eigenvector extraction needs pairwise distinct eigenvalues."""


class ReductionFailure(ValueError):
    """Cokernel reduction is singular: the sequence is not in the space."""


@dataclass(frozen=True)
class SlodowyMatrix:
    """Slice element: left-column blocks Y_1..Y_m; identities implied."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        bs = tuple(np.asarray(b, dtype=complex).reshape(2, 2) for b in self.blocks)
        object.__setattr__(self, "blocks", bs)

    @property
    def m(self) -> int:
        return len(self.blocks)

    def dense(self) -> np.ndarray:
        m = self.m
        a = np.zeros((2 * m, 2 * m), dtype=complex)
        for i, y in enumerate(self.blocks):
            a[2 * i : 2 * i + 2, 0:2] = y
        for i in range(m - 1):
            a[2 * i : 2 * i + 2, 2 * i + 2 : 2 * i + 4] = np.eye(2)
        return a

    def char_poly(self) -> np.ndarray:
        """det(z^m - z^{m-1} Y_1 - ... - Y_m), ascending coefficients.

        Independent of the dense eigensolve; used as a cross-check oracle.
        """
        m = self.m
        c = np.zeros((2, 2, m + 1), dtype=complex)
        c[..., m] = np.eye(2)
        for k, y in enumerate(self.blocks, start=1):
            c[..., m - k] -= y
        return PolyMat2(c).det()


def chi(a: SlodowyMatrix | np.ndarray) -> np.ndarray:
    """Multiset of eigenvalues of the dense form."""
    dense = a.dense() if isinstance(a, SlodowyMatrix) else np.asarray(a, dtype=complex)
    return np.linalg.eigvals(dense)


def kamnitzer(seq: RationalSequence) -> np.ndarray:
    """Matrix of multiplication by z on C[z]^2 / P C[z]^2.

    P is the composite morphism matrix of a sequence of n = 2m
    modifications with semistable terminal; the basis is
    {z^{m-1} e1, z^{m-1} e2, ..., e1, e2} and the result lies in the
    slice with eigenvalues at the modification points.
    """
    n = len(seq)
    if n == 0 or n % 2:
        raise ValueError("need an even, positive number of modifications")
    m = n // 2
    t = seq.terminal()
    if not t.is_semistable():
        raise ReductionFailure(f"terminal bundle {t} is unstable")
    p = seq.composite()
    basis = _submodule_basis(p, m)
    # Reduce z * (z^{m-1} e_j): coordinates of z^m e_j in the quotient basis.
    targets = np.zeros((2 * (2 * m + 1), 2), dtype=complex)
    targets[[_coeff_index(m, j, 2 * m) for j in range(2)], [0, 1]] = 1.0
    # Assemble the full 2m x 2m matrix in the decreasing-power block basis.
    a = np.zeros((2 * m, 2 * m), dtype=complex)
    for blk in range(1, m):
        a[2 * (blk - 1) : 2 * blk, 2 * blk : 2 * blk + 2] = np.eye(2)
    a[:, :2] = _reduce_against(basis, m, targets)
    return a


def _coeff_index(k: int, j: int, maxdeg: int) -> int:
    """Index of the z^k e_j coefficient in the stacked coefficient vector."""
    return j * (maxdeg + 1) + k


def _submodule_basis(p: PolyMat2, m: int) -> np.ndarray:
    """Basis of {P g : deg(P g) <= 2m} as stacked coefficient vectors.

    Unknown g of degree <= 2m suffices (adjugate bound); the result spans
    the degree-bounded part of the image submodule, dimension 2m + 2 for
    sequences with semistable terminal.
    """
    deg = 2 * m
    a = above_degree_matrix(p.coeffs() / p.coeff_scale(), deg)
    _, s, vh = np.linalg.svd(a)
    tol = 1e-9 * max(s[0] if s.size else 1.0, 1.0)
    null = vh.conj().T[:, np.sum(s > tol) :]
    if null.shape[1] < 2 * m + 2:
        raise ReductionFailure("degree-bounded submodule has deficient rank")
    # Map each nullspace g to the coefficients of P g (degree <= 2m).
    cols = []
    for v in null.T:
        g = [v[: deg + 1], v[deg + 1 :]]
        cols.append(np.concatenate([
            np.convolve(p.c[i, 0], g[0])[: deg + 1] + np.convolve(p.c[i, 1], g[1])[: deg + 1]
            for i in range(2)
        ]))
    return np.array(cols).T


def _reduce_against(basis: np.ndarray, m: int, targets: np.ndarray) -> np.ndarray:
    """Coordinates of each column of ``targets`` in the quotient basis
    {z^k e_j : k < m}.

    Solves target = sum c_{k,j} z^k e_j + (submodule element) for all
    columns in one least-squares call; the returned rows are ordered to
    match the decreasing-power block basis {z^{m-1} e1, z^{m-1} e2, ...,
    e1, e2}.
    """
    maxdeg = 2 * m
    cols = []
    for blk in range(m):
        k = m - 1 - blk
        for j in range(2):
            e = np.zeros(2 * (maxdeg + 1), dtype=complex)
            e[_coeff_index(k, j, maxdeg)] = 1.0
            cols.append(e)
    a = np.concatenate([np.array(cols).T, basis], axis=1)
    sol, residual, rank, sv = np.linalg.lstsq(a, targets, rcond=None)
    if rank < a.shape[1] or np.linalg.norm(a @ sol - targets, axis=0).max() > 1e-8:
        raise ReductionFailure("module reduction system is singular")
    return sol[: 2 * m]


def left_eigenvector(a: np.ndarray, mu: complex) -> np.ndarray:
    """Least-norm kernel vector v with v A = mu v, via SVD of (A^T - mu)."""
    a = np.asarray(a, dtype=complex)
    m = a.T - mu * np.eye(a.shape[0])
    _, s, vh = np.linalg.svd(m)
    return vh[-1].conj()


def woodward(a: np.ndarray, eigenvalues) -> list[ProjPoint]:
    """Last 2-block of left eigenvectors, one CP^1 point per eigenvalue.

    The eigenvalue order is the caller's; it is never sorted here because
    the diagram comparison is order-sensitive.
    """
    eigenvalues = list(eigenvalues)
    for i in range(len(eigenvalues)):
        for j in range(i + 1, len(eigenvalues)):
            if abs(eigenvalues[i] - eigenvalues[j]) < SPECTRUM_GAP:
                raise DegenerateSpectrum(
                    f"eigenvalues {eigenvalues[i]} and {eigenvalues[j]} collide"
                )
    out = []
    for mu in eigenvalues:
        v = left_eigenvector(a, mu)
        out.append(ProjPoint(v[-2], v[-1]))
    return out


def conjecture_residual(seq: RationalSequence) -> float:
    """Max chordal mismatch of the two routes around the diagram.

    Route one: the direction tuple of the sequence followed by
    [x:y] -> [-y:x].  Route two: the slice matrix of the sequence followed
    by the left-eigenvector embedding, eigenvalues ordered as the
    modification points.
    """
    h = seq.h_map()
    a = kamnitzer(seq)
    w = woodward(a, seq.points)
    return max(chordal(p.involution(), q) for p, q in zip(h, w))


def separated_points(count: int, rng: np.random.Generator, gap: float = 0.3) -> list[complex]:
    """Random complex points with pairwise separation at least ``gap``."""
    pts: list[complex] = []
    while len(pts) < count:
        z = rng.normal() + 1j * rng.normal()
        if all(abs(z - w) >= gap for w in pts):
            pts.append(z)
    return pts


def conjecture_check(m: int, samples: int, rng: np.random.Generator) -> float:
    """Max residual over ``samples`` random sequences of length 2m."""
    worst = 0.0
    for _ in range(samples):
        pts = separated_points(2 * m, rng)
        seq = random_minimal_sequence(2 * m, rng, points=pts)
        worst = max(worst, conjecture_residual(seq))
    return worst
