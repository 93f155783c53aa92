"""Numerical theta functions, quasi-periodic factors, and the double cover.

Theta functions play the role on C/Lambda that polynomials play on the
projective line: the translated function ``theta_w`` has simple zeros
exactly on w + Lambda.  Everything here evaluates on numpy arrays of
points and is accurate to ~1e-14 relative via range reduction plus a
truncation bound from the Gaussian decay of the series.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .projective import ProjPoint, _chordal, chordal_vecs
from .torus import CurvePoint, Lattice

TWO_PI_I = 2j * np.pi

#: Keep this far from zeros of denominators when forming log-derivatives.
POLE_GUARD = 1e-6


class NearPole(ArithmeticError):
    """Evaluation point is within POLE_GUARD of a pole."""


class NoConvergence(RuntimeError):
    """An inverted cover point maps 1e-8 (chordal) or farther from its target."""


@functools.lru_cache(maxsize=64)
def _series_ratios(tau: complex) -> tuple[np.ndarray, np.ndarray]:
    """Ratios e^{i pi tau (2k - 1)} of consecutive series terms over x^{+-1}
    and derivative weights +-2 pi i k, k = 1..N, cached per tau.  Term N + 1,
    exp(-pi (N+1)^2 Im tau + 2 pi (N+1) |Im z0|) with |Im z0| <= Im tau / 2,
    is < 1e-15 relative."""
    k = np.arange(1, math.ceil(math.sqrt(36.0 / (math.pi * tau.imag))) + 5)
    return np.exp(1j * np.pi * tau * (2 * k - 1)), TWO_PI_I * k * np.array([[1], [-1]])


def _theta_series(z, tau: complex):
    """The range-reduced series of theta at z = z0 + k + m tau, z0 in a
    centered strip: ``(terms, weights, m, factor, value)``.  ``terms[..., j,
    k-1]`` is t_k = e^{i pi k^2 tau} x^{+-k}, x = e^{2 pi i z0} (one
    exponential per point), each term the one before times x^{+-1}
    e^{i pi tau (2k-1)}, so no intermediate exceeds the largest term.
    ``factor`` carries ``value`` back to z.  A lone point is a batch of one."""
    z = np.asarray(z, dtype=complex).reshape(np.shape(z) or (1,))
    m = np.rint(z.imag / tau.imag)
    z1 = z - m * tau
    z0 = z1 - np.rint(z1.real)
    ratios, weights = _series_ratios(tau)
    x = np.exp(TWO_PI_I * z0)[..., None]
    terms = np.empty(z0.shape + (2, ratios.size), dtype=complex)
    np.multiply(x, ratios, out=terms[..., 0, :])
    np.divide(ratios, x, out=terms[..., 1, :])
    np.multiply.accumulate(terms, axis=-1, out=terms)
    factor = np.exp(-1j * np.pi * m * (m * tau + 2 * z0))
    return terms, weights, m, factor, terms.sum(axis=(-2, -1)) + 1


def theta_raw(z, tau: complex):
    """Jacobi theta  sum_n exp(pi i (n^2 tau + 2 n z))  for Im tau > 0."""
    *_, factor, val = _theta_series(z, tau)
    # A named operand: numpy would turn factor * <temporary> into an
    # in-place <temporary> *= factor from 16,384 points up, and its SIMD
    # complex multiply is not bitwise commutative.
    return (factor * val).reshape(np.shape(z))[()]


def theta_raw_deriv(z, tau: complex):
    """d/dz of theta_raw, via termwise differentiation and range reduction."""
    terms, weights, m, factor, val = _theta_series(z, tau)  # one term array for both sums
    dval = (terms * weights).sum(axis=(-2, -1)) - TWO_PI_I * m * val
    return (factor * dval).reshape(np.shape(z))[()]  # a named operand, as in theta_raw


def theta_w(z, w: complex, lattice: Lattice):
    """Translated theta with simple zeros exactly at w + Lambda."""
    tau = lattice.tau
    return theta_raw(np.asarray(z, dtype=complex) - 0.5 * (1 + tau) - w, tau)


def theta_w_deriv(z, w: complex, lattice: Lattice):
    tau = lattice.tau
    return theta_raw_deriv(np.asarray(z, dtype=complex) - 0.5 * (1 + tau) - w, tau)


def g_w(z, w: complex, lattice: Lattice):
    """The log-derivative (i / 2 pi) theta_w' / theta_w; simple poles on w + Lambda."""
    zs = np.asarray(z, dtype=complex).ravel()
    d = lattice.reduce(zs - w)[:, None] + np.array([0, -1, -lattice.tau, -1 - lattice.tau])
    near = np.abs(d).min(axis=1) < POLE_GUARD
    if near.any():
        raise NearPole(f"{zs[near.argmax()]} is within {POLE_GUARD} of a pole at {w} + lattice")
    return (1j / (2 * np.pi)) * theta_w_deriv(z, w, lattice) / theta_w(z, w, lattice)


def automorphy_factor(z, t, d):
    """The standard factor exp(-2 pi i (d z - t - d/2)) of the degree-d line
    bundle with lift t, elementwise over broadcast arrays."""
    return np.exp(-TWO_PI_I * (d * np.asarray(z, dtype=complex) - t - d / 2))


# ---------------------------------------------------------------------------
# The branched double cover X -> CP^1.


def _cover_homogeneous(z, lattice: Lattice):
    """Homogeneous pair (den, num) with pi([z]) = [den : num] = [1 : h(z)];
    both theta~ factors at 2z, theta_w on Lattice(2 tau), are one kernel call."""
    z = np.asarray(z, dtype=complex)
    shifts = np.array([0.5, 0.5 - lattice.tau]).reshape((2,) + (1,) * z.ndim)
    den, t = theta_w(2 * z, shifts, Lattice(2 * lattice.tau))
    return den, np.exp(TWO_PI_I * z) * t


def h_map(z, lattice: Lattice):
    """The even elliptic function h with pi([z]) = [1 : h(z)].

    Meromorphic: returns inf at the four poles; use ``pi_cover`` for the
    projectively safe version.
    """
    den, num = _cover_homogeneous(z, lattice)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den


def _cover_points(z, lattice: Lattice) -> list[ProjPoint]:
    """Cover images of every lift in ``z`` (flattened), from one
    ``_cover_homogeneous`` call."""
    den, num = _cover_homogeneous(z, lattice)
    return [ProjPoint(d, n) for d, n in zip(np.ravel(den).tolist(), np.ravel(num).tolist())]


def pi_cover(p: CurvePoint) -> ProjPoint:
    """The 2:1 cover X -> CP^1, [z] -> [1 : h(z)], evaluated homogeneously;
    a batch of one over ``_cover_points``."""
    return _cover_points([p.lift], p.lattice)[0]


def _cover_chordal(z, a, c, lattice: Lattice):
    """Chordal distance of pi([z]) from [a : c], elementwise, straight from
    the homogeneous pair; ``z``, ``a`` and ``c`` broadcast against each other."""
    return _chordal(*_cover_homogeneous(z, lattice), a, c)


@functools.lru_cache(maxsize=64)
def branch_points(lattice: Lattice) -> tuple[ProjPoint, ...]:
    """Images of the four 2-torsion points, from one cover call on their
    canonical lifts; cached per tau."""
    return tuple(_cover_points([lattice.reduce(t) for t in lattice.torsion_lifts()], lattice))


@functools.lru_cache(maxsize=64)
def _cover_moebius(lattice: Lattice):
    """Constants (k, e) of w = M^-1(t) = e1 + k [t, b2] / [t, b1]; cached per tau.

    h is even of order 2 and branched at the 2-torsion points, so h = M(wp)
    for a Moebius map M.  ``e`` holds e1, e3, e2 = wp(1/2), wp(tau/2),
    wp((1+tau)/2), in the order of branch points b2..b4, from theta
    constants (DLMF 23.6.2-4, omega1 = 1/2).  [s, t] is the determinant of
    two homogeneous pairs; M^-1 sends b1, b2, b4 to infinity, e1, e2, and
    b3 is left as a check."""
    tau = lattice.tau
    th4, th2 = theta_raw(np.array([0.5, tau / 2]), tau)
    t2, t4 = (np.exp(0.25j * np.pi * tau) * th2) ** 4, th4**4
    e = (np.pi**2 / 3) * np.array([t2 + 2 * t4, -(2 * t2 + t4), t2 - t4])
    b1, b2, _, b4 = branch_points(lattice)
    return (e[2] - e[0]) * (b4.a * b1.c - b4.c * b1.a) / (b4.a * b2.c - b4.c * b2.a), e


def _carlson_rf(x, y, z):
    """Carlson's R_F(x, y, z) by duplication, elementwise (B. C. Carlson,
    Numer. Algorithms 10, 1995), for complex arguments with at most one
    zero; on the cut (-inf, 0) the sign of the imaginary zero picks the
    side.  Each element stops on its own once 4^-n Q < |A_n|, so its value
    does not depend on the rest of the array.
    """
    v = np.array([x, y, z, (x + y + z) / 3], dtype=complex)
    a0, d = v[3].copy(), v[3] - v[:3]
    q = (3 * 2.0**-53) ** (-1 / 6) * np.abs(d).max(axis=0)  # Carlson's Q for r = 2^-53
    scale = np.ones(a0.shape)
    for _ in range(40):  # two zero arguments (R_F infinite) never stop
        active = scale * q > np.abs(v[3])
        if not active.any():
            break
        s = np.sqrt(v[:3])
        lam = s[0] * (s[1] + s[2]) + s[1] * s[2]
        np.multiply(v + lam, 0.25, out=v, where=active)
        np.multiply(scale, 0.25, out=scale, where=active)
    dx, dy = d[:2] * (scale / v[3])
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / np.sqrt(v[3])


def _invert_lifts(a, c, lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Fibers of the cover over the targets [a : c], elementwise over 1-D
    arrays: ``(lifts, idx)``.

    ``idx`` is the branch test, 1..4 for the first branch point within
    1e-8 chordal of the target (one ``chordal_vecs`` against the four
    cached branch points), else 0.  A branch target's fiber is its
    2-torsion point; any other is z = R_F(w - e1, w - e2, w - e3) for
    w = M^-1([a : c]) (DLMF 19.25.35), finite off b1.  ``lifts`` holds the
    lexicographically smaller canonical lift of each fiber {z, -z}, the
    first point of ``invert_cover``.  One batched image check raises
    ``NoConvergence`` on a miss."""
    a, c = np.asarray(a, dtype=complex), np.asarray(c, dtype=complex)
    bp = branch_points(lattice)
    near = chordal_vecs(np.stack([a, c], axis=-1)[:, None],
                        np.array([b.vec for b in bp])) < 1e-8
    idx = np.where(near.any(axis=1), near.argmax(axis=1) + 1, 0)
    out = np.array(lattice.torsion_lifts())[idx - 1]  # entries with idx 0 are set below
    free = idx == 0
    if free.any():
        k, e = _cover_moebius(lattice)
        b1, b2 = bp[:2]
        a, c = a[free], c[free]
        w = e[0] + k * (a * b2.c - c * b2.a) / (a * b1.c - c * b1.a)
        z = _carlson_rf(w - e[0], w - e[1], w - e[2])
        miss = ~(_cover_chordal(z, a, c, lattice) < 1e-8)
        if miss.any():
            raise NoConvergence(f"no preimage found for [{a[miss][0]} : {c[miss][0]}]")
        out[free] = lattice.reduce(z)
    p = lattice.reduce(out)
    m = lattice.reduce(-p)
    first = (p.real < m.real) | ((p.real == m.real) & (p.imag <= m.imag))
    return np.where(first, p, m), idx


def invert_cover(a: ProjPoint, lattice: Lattice) -> tuple[CurvePoint, CurvePoint]:
    """The unordered fiber {p, -p} of the double cover over ``a``.

    A batch of one over ``_invert_lifts``: h = M(wp) for a Moebius map M
    fixed by the branch values, and wp is inverted in closed form by
    Carlson's R_F, with no starts and no iteration that can fail.  The
    first point has the lexicographically smaller canonical lift; at a
    branch point (within 1e-8) both are the 2-torsion point."""
    p = CurvePoint(complex(_invert_lifts([a.a], [a.c], lattice)[0][0]), lattice)
    return p, -p
