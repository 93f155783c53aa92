"""Hecke modifications of rank-2 bundles on the projective line.

Bundles are split types O(n) + O(m); a modification at a point mu in a
direction of CP^1 moves between them.  A sequence of modifications of
O + O is its points and direction vectors, held as arrays for one
sequence or a stack (``RationalSequence``); its Hecke lengths are one walk
of the transition rule, and its morphism representatives are 2x2
polynomial matrices in the coordinate z of the affine chart around 0, one
table of coefficients per step.  The direction map reads their composites
back into CP^1 coordinates, the second chart certifies global regularity,
and the terminal type of a direction tuple decides membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .projective import PROJ_TOL, ProjPoint, chordal_vecs, complex_abs, complex_div, normalized_vecs
from .grassmannian import chain_direction_vecs
from .pseries import PolyMat2

#: Minimum separation of modification points within one sequence.
MIN_POINT_SEP = 1e-8

#: Relative smallest singular value at which a rank test finds a kernel.
RANK_DROP_TOL = 1e-9


class NotGlobal(ValueError):
    """Chart conversion produced a negative power: not a bundle morphism."""


# ---------------------------------------------------------------------------
# Bundles and transitions.


@dataclass(frozen=True)
class RationalBundle:
    """The split bundle O(n) + O(m), stored with n >= m."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < self.m:
            object.__setattr__(self, "n", self.m)
            object.__setattr__(self, "m", self.n)

    @property
    def hecke_length(self) -> int:
        return self.n - self.m

    def is_semistable(self) -> bool:
        return self.n == self.m

    def __str__(self) -> str:
        return f"O({self.n})+O({self.m})"


def single_hecke(b: RationalBundle, direction: ProjPoint) -> RationalBundle:
    """Class of the modified bundle, per the transition table.

    Normalized to (k, 0): semistable bundles always drop to (0, -1); for
    unstable ones the subbundle direction [1:0] raises the Hecke length
    and every other direction lowers it.
    """
    if b.is_semistable() or direction.is_zero_dir():
        return RationalBundle(b.n, b.m - 1)
    return RationalBundle(b.n - 1, b.m)


def default_points(n: int) -> list[complex]:
    return [(k + 1) / (n + 1) + 0.1j * (k + 1) for k in range(n)]


@dataclass(frozen=True)
class RationalSequence:
    """Sequences of Hecke modifications of the trivial bundle O + O, one or a
    stack of one length n: the chart coordinates ``points`` (..., n) of the
    modifications and their directions ``vecs`` (..., n, 2), homogeneous
    vectors in the standard trivialization of the bundle being modified,
    normalized as ``ProjPoint`` normalizes them (the larger coordinate 1).
    """

    points: np.ndarray
    vecs: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=complex)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "vecs", np.asarray(self.vecs, dtype=complex).reshape(points.shape + (2,)))
        gaps = np.abs(points[..., :, None] - points[..., None, :])
        # Every point is within MIN_POINT_SEP of itself; any other pair fails.
        if np.count_nonzero(gaps < MIN_POINT_SEP) > points.size:
            raise ValueError("two modification points of a sequence coincide")

    def __len__(self) -> int:
        return self.points.shape[-1]

    def _zero_dirs(self) -> np.ndarray:
        """Steps toward [1:0] (..., n), as ``ProjPoint.is_zero_dir`` decides."""
        return complex_abs(self.vecs[..., 1]) < PROJ_TOL * complex_abs(self.vecs[..., 0])

    def hecke_lengths(self) -> np.ndarray:
        """Hecke lengths (..., n + 1) of E_0 = O + O, E_1, ..., E_n: from
        length 0, or toward [1:0], a step adds one; otherwise it subtracts one."""
        zero = self._zero_dirs()
        out = np.zeros(zero.shape[:-1] + (len(self) + 1,), dtype=int)
        for i in range(len(self)):
            out[..., i + 1] = out[..., i] + np.where((out[..., i] == 0) | zero[..., i], 1, -1)
        return out

    def coeffs(self) -> np.ndarray:
        """Table-matrix coefficients (..., n, 2, 2, 2) of the steps."""
        zero = self._zero_dirs()
        # Outside ``zero`` the divisor c is nonzero; inside, 1.0 stands in for it.
        lam = np.where(zero, 0j, complex_div(self.vecs[..., 0], np.where(zero, 1.0, self.vecs[..., 1])))
        return table_coeffs(self.points, lam, zero, self.hecke_lengths()[..., :-1] == 0)

    def h_map(self) -> np.ndarray:
        """Direction tuples (..., n, 2) in the trivialization of O + O."""
        return h_vecs(self.points, self.coeffs())


def morphism_matrix(b: RationalBundle, mu: complex, direction: ProjPoint) -> PolyMat2:
    """Table representative of the modification of ``b`` at ``mu`` in
    ``direction``.

    Matrices are invariant under twisting, so only the normalized type
    (k, 0) matters.  The determinant is a nonzero multiple of z - mu and
    the direction map returns ``direction`` at mu.
    """
    zero = direction.is_zero_dir()
    return PolyMat2(table_coeffs(mu, 0j if zero else direction.a / direction.c, zero,
                                 b.is_semistable()))


def table_coeffs(mu, lam, zero, semistable) -> np.ndarray:
    """Coefficients (..., 2, 2, 2), ascending in z, of the table matrices at
    the points ``mu``, for the directions [lam:1] or, where ``zero``, [1:0]:
    diag(1, z - mu) for [1:0], else [[lam, z - mu], [1, 0]] from a
    ``semistable`` class and [[z - mu, lam], [0, 1]] from an unstable one.
    """
    mu, lam = np.asarray(mu, dtype=complex), np.asarray(lam, dtype=complex)
    zero, semistable = np.asarray(zero, dtype=bool), np.asarray(semistable, dtype=bool)
    lower, upper = ~zero & semistable, ~zero & ~semistable
    lin = np.stack([-mu, np.ones_like(mu)], axis=-1)
    c = np.zeros(mu.shape + (2, 2, 2), dtype=complex)
    c[zero, 0, 0, 0] = c[lower, 1, 0, 0] = c[upper, 1, 1, 0] = 1.0
    c[zero, 1, 1], c[lower, 0, 1], c[upper, 0, 0] = lin[zero], lin[lower], lin[upper]
    c[lower, 0, 0, 0], c[upper, 0, 1, 0] = lam[lower], lam[upper]
    return c


def composites(coeffs: np.ndarray) -> np.ndarray:
    """Composite coefficients (B, 2, 2, n + 1), ascending in z, of the step
    coefficients (B, n, 2, 2, 2), multiplied left to right."""
    batch, n = coeffs.shape[:2]
    p = np.zeros((batch, 2, 2, n + 1), dtype=complex)
    p[:, 0, 0, 0] = p[:, 1, 1, 0] = 1.0
    for i in range(n):
        # Entry (a, j) of P c, per power of z of c: sum over k of P_ak c_kj,
        # axes (B, a, k, j, power of c, power of P).
        s = (p[:, :, :, None, None, : i + 1] * coeffs[:, i, None, ..., None]).sum(axis=2)
        p[..., : i + 1] = s[..., 0, :]
        p[..., 1 : i + 2] += s[..., 1, :]
    return p


def h_vecs(points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Direction tuples (..., n, 2) of stacked sequences, from the points
    (..., n) and step coefficients (..., n, 2, 2, 2): h_i is eta of the
    composite of the first i table matrices at the i-th point."""
    # Step k evaluated at point i, for the direction chain of the sequence.
    factors = (coeffs[..., :, None, :, :, 0]
               + coeffs[..., :, None, :, :, 1] * points[..., None, :, None, None])
    return chain_direction_vecs(factors)


def chart_convert(alpha: PolyMat2, source: RationalBundle, target: RationalBundle) -> PolyMat2:
    """The matrix of the morphism in the chart at infinity.

    Entry (i, j) of the result is w^{dE_i} alpha_ij(1/w) w^{-dF_j} for the
    splitting degrees dE of ``target`` and dF of ``source``.  A coefficient
    on a negative power above 1e-12 (relative) means the polynomial data
    does not glue to a global morphism.
    """
    de = (target.n, target.m)
    df = (source.n, source.m)
    scale = max(alpha.coeff_scale(), 1.0)
    c = alpha.c
    out = np.zeros((2, 2, max(max(de) - min(df), 0) + 1), dtype=complex)
    for i in range(2):
        for j in range(2):
            # Exponent of c[i, j, k] is shift - k; k > shift are negative powers.
            shift = de[i] - df[j]
            low = max(shift + 1, 0)
            bad = np.flatnonzero(np.abs(c[i, j, low:]) > 1e-12 * scale)
            if bad.size:
                k = low + bad[0]
                raise NotGlobal(f"entry ({i},{j}) has w^{shift - k} coefficient {c[i, j, k]:.3e}")
            ks = np.arange(min(c.shape[-1], low))
            out[i, j, shift - ks] = c[i, j, ks]
    return PolyMat2(out)


# ---------------------------------------------------------------------------
# Terminal type of an abstract direction tuple, and space membership.


def direction_vecs(tuples) -> np.ndarray:
    """Homogeneous vectors of a nonempty list of direction tuples, shape (B, n, 2)."""
    flat = np.array([(d.a, d.c) for dirs in tuples for d in dirs], dtype=complex)
    return flat.reshape(len(tuples), len(tuples[0]), 2)


def above_degree_matrix(coeffs: np.ndarray, d: int) -> np.ndarray:
    """Linear map from g (degree <= d) to the coefficients of P g above
    degree d.

    ``coeffs`` (..., 2, 2, D + 1) are ascending coefficients of P.  Row
    (i, t) reads the z^t coefficient of (P g)_i, t = d + 1 .. D + d; column
    (j, k) is the z^k coefficient of g_j.  Shape (..., 2D, 2(d + 1)).
    """
    # Indices t - k above D read the zero padding.
    idx = np.arange(d + 1, coeffs.shape[-1] + d)[:, None] - np.arange(d + 1)
    padded = np.concatenate([coeffs, np.zeros(coeffs.shape[:-1] + (d,), complex)], axis=-1)
    a = np.swapaxes(padded[..., idx], -3, -2)
    return a.reshape(coeffs.shape[:-3] + (2 * len(idx), 2 * (d + 1)))


def terminal_hecke_lengths(points, vecs) -> np.ndarray:
    """Terminal Hecke length per tuple of ``vecs`` (B, n, 2) at the distinct
    ``points``; memory grows with B.

    The image of every sequence realizing a tuple is the module
    N = {s in C[z]^2 : s(mu_i) lies on the line a_i}: both have colength n
    and one contains the other.  The terminal type is (-d1, -(n - d1)) with
    d1 the least degree of a nonzero s in N, the least d at which the
    n x 2(d + 1) matrix of the conditions on the coefficients of s drops
    rank (row i: the unit perpendicular of a_i times mu_i^k in column
    (j, k)), at each d >= 1 by one stacked SVD of the tuples still open;
    beyond d = n // 2 - 1 there are more unknowns than conditions.

    Coincidence is decided first, by the rule of ``ProjPoint`` equality: a
    direction within PROJ_TOL (chordal) of its predecessor counts as that
    predecessor, and a run as its first, so the rank test only tells exact
    repeats from offsets of PROJ_TOL or more.  At d = 0 the 2 x 2 minors
    have the moduli of the chordal distances of the run starts, so by
    Cauchy-Binet s_min s_max = sqrt(D), D their sum of squares, and
    s_min^2 + s_max^2 = n: s_min / s_max = r gives D = r^2 n^2 / (1 + r^2)^2,
    increasing in r, and in floats (RANK_DROP_TOL n)^2 at RANK_DROP_TOL.
    """
    n = vecs.shape[1]
    i, j = upper_pairs(n)
    pair = np.zeros((n, n), dtype=int)  # pair[a, b]: the column of chordal(a_a, a_b), a < b
    pair[i, j] = np.arange(len(i))
    norm = np.hypot(abs(vecs[..., 0]), abs(vecs[..., 1]))  # as ``chordal_vecs``, once per direction
    chord = abs(vecs[:, i, 0] * vecs[:, j, 1] - vecs[:, i, 1] * vecs[:, j, 0]) / (norm[:, i] * norm[:, j])
    start = np.zeros(vecs.shape[:2], dtype=int)
    for k in range(1, n):  # in order, so runs take their first
        start[:, k] = np.where(chord[:, pair[k - 1, k]] < PROJ_TOL, start[:, k - 1], k)
    si, sj = start[:, i], start[:, j]
    minors = (np.where(si < sj, chord[np.arange(len(vecs))[:, None], pair[si, sj]], 0) ** 2).sum(axis=1)
    out = np.where(minors < (RANK_DROP_TOL * n) ** 2, n, n % 2)
    open_ = np.flatnonzero(out != n)
    if n >= 4:
        v = vecs[open_[:, None], start[open_]]
        perp = np.stack([v[..., 1], -v[..., 0]], axis=-1) / np.linalg.norm(v, axis=-1, keepdims=True)
        powers = np.asarray(points, dtype=complex)[:n, None] ** np.arange(n // 2)
    for d in range(1, n // 2):
        a = perp[:, :, :, None] * powers[:, None, : d + 1]
        s = np.linalg.svd(a.reshape(len(open_), n, 2 * (d + 1)), compute_uv=False)
        done = s[:, -1] < RANK_DROP_TOL * s[:, 0]
        out[open_[done]] = n - 2 * d
        open_, perp = open_[~done], perp[~done]
    return out


def two_column_ratio(a: np.ndarray) -> np.ndarray:
    """s_min / s_max of (..., n, 2) matrices (0 for zero ones) by Cauchy-Binet,
    s_min s_max = sqrt(D) for D the sum of |2 x 2 minors|^2, and
    s_max^2 = (F + sqrt(F^2 - 4D)) / 2 for F the squared Frobenius norm."""
    i, j = upper_pairs(a.shape[-2])
    d = (np.abs(a[..., i, 0] * a[..., j, 1] - a[..., i, 1] * a[..., j, 0]) ** 2).sum(axis=-1)
    f = (np.abs(a) ** 2).sum(axis=(-2, -1))
    return 2 * np.sqrt(d) / np.maximum(f + np.sqrt(np.maximum(f * f - 4 * d, 0)), np.finfo(float).tiny)


@cache
def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, the index pairs i < j, made once per n and
    read-only."""
    pairs = np.triu_indices(n, 1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


def min_column_degree(p: PolyMat2) -> int:
    """Smallest d with a nonzero polynomial g, deg(P g) <= d, for a composite
    P of n modification matrices, whose splitting type is (-d1, -(n - d1))
    with d1 this minimum.  g of degree <= d suffices (adjugate bound)."""
    n = p.det().size - 1
    coeffs = p.c / np.abs(p.c).max()
    for d in range((n + 1) // 2 + 1):
        a = above_degree_matrix(coeffs, d)
        if a.shape[-2] < a.shape[-1]:
            return d
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] < RANK_DROP_TOL * max(s[0], 1.0):
            return d
    return (n + 1) // 2


def membership_H(n: int, dirs: list[ProjPoint]) -> bool:
    """True iff the tuple's terminal bundle has the minimum Hecke length
    (0 for n even, 1 for n odd) at the ``default_points``: iff the module
    N = {s in C[z]^2 : s(mu_i) lies on the line a_i} of
    ``terminal_hecke_lengths`` has no nonzero element of degree below n // 2.

    Directions within PROJ_TOL (chordal) of their predecessor count as that
    predecessor, the rule of ``ProjPoint`` equality and of
    ``membership_H_closed_forms``."""
    if len(dirs) != n:
        raise ValueError("need exactly n directions")
    return int(terminal_hecke_lengths(default_points(n), direction_vecs([dirs]))[0]) == n % 2


def membership_H_closed_forms(vecs: np.ndarray) -> np.ndarray:
    """``membership_H`` of stacked direction tuples (B, n, 2), n <= 3, by the
    closed-form complements: for n = 2 and 3 a tuple is outside H exactly
    when all its directions coincide."""
    n = vecs.shape[1]
    if n > 3:
        raise ValueError("closed forms cover n <= 3 only")
    near = chordal_vecs(vecs[:, :-1], vecs[:, 1:]) < PROJ_TOL
    return ~near.all(axis=1) | (n < 2)


def minimal_direction_vecs(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Directions (count, n, 2) of ``count`` random sequences of n steps with
    minimal terminal Hecke length, as ``ProjPoint`` normalizes them (the
    larger coordinate 1).

    From a semistable class every direction raises the length (draw any
    direction, the distinguished [1:0] at rate 1/4); from an unstable
    class only non-[1:0] directions lower it, so those are forced.  Draw
    order: one block ``random((count, n))``, then one block
    ``normal((count, n, 2))`` of (real, imaginary) parts.  Step i of draw k
    reads uniform (k, i) when its class is semistable, and the normal pair
    (k, i) as the direction [lam:1] unless it drew [1:0].
    """
    u = rng.random((count, n))
    z = rng.normal(size=(count, n, 2))
    lam = z[..., 0] + 1j * z[..., 1]
    vecs = normalized_vecs(np.stack([lam, np.ones_like(lam)], axis=-1))
    length = np.zeros(count, dtype=int)
    for i in range(n):
        vecs[(length == 0) & (u[:, i] < 0.25), i] = (1.0, 0.0)
        # ProjPoint.is_zero_dir: the first coordinate is 1 whenever the second is below 1.
        length += np.where((length == 0) | (complex_abs(vecs[:, i, 1]) < PROJ_TOL), 1, -1)
    return vecs
