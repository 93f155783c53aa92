"""Points of the complex projective line and the chordal metric.

Directions of Hecke modifications, branch points of the elliptic double
cover, and moduli coordinates are all points of CP^1; this module is the
shared carrier for them.
"""

from __future__ import annotations

import numpy as np

#: Tolerance for projective equality and for the [1:0] / [lambda:1] dispatch.
PROJ_TOL = 1e-8

#: Homogeneous coordinates below this magnitude are considered degenerate.
NORM_TOL = 1e-13


class DegeneratePoint(ValueError):
    """Both homogeneous coordinates are numerically zero."""


class ProjPoint:
    """A point [a:c] of CP^1, normalized so the larger coordinate is 1."""

    __slots__ = ("a", "c")

    def __init__(self, a: complex, c: complex):
        a = complex(a)
        c = complex(c)
        if max(abs(a), abs(c)) < NORM_TOL:
            raise DegeneratePoint(f"[{a}:{c}] is not a projective point")
        if abs(a) >= abs(c):
            self.a, self.c = 1.0 + 0.0j, c / a
        else:
            self.a, self.c = a / c, 1.0 + 0.0j

    def __repr__(self) -> str:
        return f"ProjPoint({self.a:.6g}, {self.c:.6g})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjPoint) and chordal(self, other) < PROJ_TOL

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.a, self.c], dtype=complex)

    def is_zero_dir(self) -> bool:
        """True for points within ``PROJ_TOL`` of [1:0]."""
        return abs(self.a) >= abs(self.c) and abs(self.c) < PROJ_TOL

    def is_infinity_dir(self) -> bool:
        """True for points within ``PROJ_TOL`` of [0:1]."""
        return abs(self.c) > abs(self.a) and abs(self.a) < PROJ_TOL


def complex_abs(z: np.ndarray) -> np.ndarray:
    """Moduli of a complex array, as Python's ``abs(complex)`` rounds them
    (``hypot``); numpy's complex ``np.abs`` may round otherwise."""
    return np.hypot(z.real, z.imag)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array re + i im, with the parts set separately so that
    signed zeros survive."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def complex_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, rounded as Python's complex product:
    (ar br - ai bi) + i (ar bi + ai br), no fused multiply-add.  numpy's
    complex multiply may round otherwise."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def mat2_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b for stacked 2x2 matrices a (..., 2, 2) and matrices b (..., 2, k), or vectors b
    (..., 2) with fewer axes than a: one einsum, with no BLAS kernel to vary by CPU."""
    return np.einsum("...ij,...j->...i" if np.ndim(b) < np.ndim(a) else "...ij,...jk->...ik", a, b)


def mat2_det(m: np.ndarray) -> np.ndarray:
    """Determinants (...) of stacked 2x2 matrices (..., 2, 2), in ``complex_mul``'s rounding."""
    return complex_mul(m[..., 0, 0], m[..., 1, 1]) - complex_mul(m[..., 0, 1], m[..., 1, 0])


def mat2_adj(m: np.ndarray) -> np.ndarray:
    """Adjugates [[d, -b], [-c, a]] = det(M) M^{-1} of stacked 2x2 matrices M = [[a, b], [c, d]]."""
    return np.stack([m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]], axis=-1).reshape(m.shape)


def complex_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b elementwise for finite operands, rounded as Python's complex
    division: Smith's method, scaled by whichever part of b is larger in
    magnitude (the real part on a tie).  numpy's complex division may
    round otherwise.  Raises ZeroDivisionError where b is 0, as Python does.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if ((b.real == 0) & (b.imag == 0)).any():
        raise ZeroDivisionError("complex division by zero")
    by_real = np.abs(b.real) >= np.abs(b.imag)
    # Name the parts so that both branches read as the real-part one:
    # p is the larger part of b and s the part of a on the same axis.
    p, q = np.where(by_real, b.real, b.imag), np.where(by_real, b.imag, b.real)
    s, t = np.where(by_real, a.real, a.imag), np.where(by_real, a.imag, a.real)
    ratio = q / p
    denom = p + q * ratio
    cross = s * ratio
    # Python's branches read t - cross and cross - t, which differ in the
    # sign of a zero, so neither is written as the other's negation.
    return _complex((s + t * ratio) / denom, np.where(by_real, t - cross, cross - t) / denom)


def normalized_vecs(vecs: np.ndarray) -> np.ndarray:
    """Homogeneous vectors (..., 2) normalized as ``ProjPoint`` normalizes
    them, bit for bit: [1 : c/a] where |a| >= |c|, else [a/c : 1].  Raises
    DegeneratePoint if both coordinates of any vector are below NORM_TOL."""
    vecs = np.asarray(vecs, dtype=complex)
    a, c = vecs[..., 0], vecs[..., 1]
    mod_a, mod_c = complex_abs(a), complex_abs(c)
    small = np.maximum(mod_a, mod_c) < NORM_TOL
    if small.any():
        i = tuple(np.argwhere(small)[0])
        raise DegeneratePoint(f"[{a[i]}:{c[i]}] is not a projective point")
    first = mod_a >= mod_c
    ratio = complex_div(np.where(first, c, a), np.where(first, a, c))
    out = np.empty(vecs.shape, dtype=complex)
    out[..., 0] = np.where(first, 1.0 + 0.0j, ratio)
    out[..., 1] = np.where(first, ratio, 1.0 + 0.0j)
    return out


def chordal(p: ProjPoint, q: ProjPoint) -> float:
    """Chordal distance |a_p c_q - c_p a_q| / (|p| |q|), bounded by 1."""
    return _chordal(p.a, p.c, q.a, q.c)


def chordal_vecs(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``chordal`` between stacked homogeneous vectors (..., 2)."""
    return _chordal(u[..., 0], u[..., 1], v[..., 0], v[..., 1])


def _chordal(pa, pc, qa, qc):
    num = abs(pa * qc - pc * qa)
    return num / (np.hypot(abs(pa), abs(pc)) * np.hypot(abs(qa), abs(qc)))


def sphere_grid(count: int) -> list[ProjPoint]:
    """A deterministic spread of ``count`` points covering CP^1.

    Includes both poles; the rest are spiral points of the Riemann sphere.
    """
    pts = [ProjPoint(1.0, 0.0), ProjPoint(0.0, 1.0)]
    k = count - 2
    for i in range(k):
        # Fibonacci-style spiral on the sphere, mapped to C by stereographic
        # projection from the north pole.
        cos_t = -1.0 + 2.0 * (i + 0.5) / k
        sin_t = np.sqrt(max(0.0, 1.0 - cos_t * cos_t))
        phi = i * 2.399963229728653
        # 1 - cos_t >= 1/k, so the projection is finite.
        z = (sin_t / (1.0 - cos_t)) * np.exp(1j * phi)
        pts.append(ProjPoint(1.0, z))
    return pts[:count]


def random_point(rng: np.random.Generator) -> ProjPoint:
    """A projective point from a rotation-invariant-ish Gaussian draw."""
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return ProjPoint(v[0], v[1])


#: Relative second-singular-value threshold for rank-1 detection.
RANK_TOL = 1e-8


def rank_one_column_spaces(m: np.ndarray):
    """Column spaces of numerically rank-1 2x2 matrices ``m`` (..., 2, 2).

    Returns ``(vecs, sigma1, sigma2, ok)``: homogeneous vectors (..., 2)
    spanning the column spaces, the two singular values, and the mask of
    matrices that are rank 1.  One closed-form test runs on the
    top-normalized matrix: a pass (s2 <= RANK_TOL * s1) means the
    returned direction is projectively accurate within the tolerance.
    Equilibrating rows and columns first would not help: for a rank-1
    matrix plus noise, the normalized ratio s2/s1 is at most the
    equilibrated one, so it accepts whenever that one would.  The zero
    matrix fails with singular values 0.
    """
    m = np.asarray(m, dtype=complex)
    top = np.abs(m).max(axis=(-2, -1))
    nonzero = top >= NORM_TOL
    m = m / np.where(nonzero, top, 1.0)[..., None, None]
    (a, b), (c, d) = np.moveaxis(m, (-2, -1), (0, 1))
    p = (a * a.conjugate() + b * b.conjugate()).real
    q = (c * c.conjugate() + d * d.conjugate()).real
    r = a * c.conjugate() + b * d.conjugate()
    # Dominant eigenvalue of the Gram matrix (cancellation-free branch);
    # the small singular value via s1 s2 = |det| avoids squaring
    # conditioning.
    lam1 = 0.5 * (p + q) + (0.25 * (p - q) ** 2 + abs(r) ** 2) ** 0.5
    s1 = lam1 ** 0.5
    s2 = abs(mat2_det(m)) / np.where(s1 > 0, s1, 1.0)
    first = abs(lam1 - p) >= abs(lam1 - q)
    x = np.where(first, r, lam1 - q)
    y = np.where(first, lam1 - p, r.conjugate())
    small = (abs(x) ** 2 + abs(y) ** 2) ** 0.5 < NORM_TOL * np.maximum(s1, 1.0)
    x = np.where(small, np.where(p >= q, 1.0, 0.0), x)
    y = np.where(small, np.where(p >= q, 0.0, 1.0), y)
    ok = nonzero & (s1 >= NORM_TOL) & (s2 <= RANK_TOL * s1)
    return np.stack([x, y], axis=-1), np.where(nonzero, s1, 0.0), np.where(nonzero, s2, 0.0), ok


def rank_one_column_space(m: np.ndarray):
    """A batch of one of ``rank_one_column_spaces``: ``(point, sigma1,
    sigma2)`` with ``point`` a ProjPoint, or None when the matrix is not
    rank 1."""
    vecs, s1, s2, ok = rank_one_column_spaces(np.asarray(m)[None])
    return (ProjPoint(*vecs[0].tolist()) if ok[0] else None), float(s1[0]), float(s2[0])


def transport_directions(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Preimages (..., 2) of directions ``vecs`` (..., 2) under invertible 2x2 matrices
    ``mats`` (..., 2, 2): adj(M) w, scaled by a power of two to a largest part in [1/2, 1).
    Forward stable (Cramer's rule) and exact under row and column scaling, so no
    equilibration.  Raises ZeroDivisionError if a matrix is exactly singular."""
    m = np.asarray(mats, dtype=complex)
    if (mat2_det(m) == 0).any():
        raise ZeroDivisionError("singular matrix")
    u = mat2_mul(mat2_adj(m), vecs)
    k = -np.frexp(np.maximum(abs(u.real), abs(u.imag)).max(axis=-1, keepdims=True))[1]
    return _complex(np.ldexp(u.real, k), np.ldexp(u.imag, k))


def transport_direction(mat: np.ndarray, point: ProjPoint) -> ProjPoint:
    """A batch of one of ``transport_directions``, as a ProjPoint."""
    return ProjPoint(*transport_directions(mat, point.vec).tolist())
