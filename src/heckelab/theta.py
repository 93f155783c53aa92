"""Numerical theta functions, quasi-periodic factors, and the double cover.

Theta functions play the role on C/Lambda that polynomials play on the
projective line: the translated function ``theta_w`` has simple zeros
exactly on w + Lambda.  Everything here evaluates on numpy arrays of
points and is accurate to ~1e-14 relative via range reduction plus a
truncation bound from the Gaussian decay of the series.
"""

from __future__ import annotations

import numpy as np

from .projective import ProjPoint, chordal
from .torus import CurvePoint, Lattice

TWO_PI_I = 2j * np.pi

#: Keep this far from zeros of denominators when forming log-derivatives.
POLE_GUARD = 1e-6


class NearPole(ArithmeticError):
    """Evaluation point is within POLE_GUARD of a pole."""


class NoConvergence(RuntimeError):
    """Root finding failed to locate a preimage on the curve."""


def _terms_needed(tau_eff: complex, max_abs_im: float) -> int:
    # Last retained term < 1e-15 relative for arguments within two
    # fundamental domains, from exp(-pi n^2 Im tau + 2 pi n |Im z|).
    base = np.ceil(np.sqrt(36.0 / (np.pi * tau_eff.imag)))
    return int(base + max_abs_im / tau_eff.imag + 4)


def _reduce(z: np.ndarray, tau: complex):
    """Split z = z0 + k + m*tau with z0 in a centered fundamental strip."""
    y = z.imag / tau.imag
    m = np.rint(y)
    z1 = z - m * tau
    k = np.rint(z1.real)
    z0 = z1 - k
    return z0, m


def _theta_reduced(z0: np.ndarray, tau: complex, n_terms: int, weight: int):
    """sum_n (2 pi i n)^weight exp(pi i (n^2 tau + 2 n z0)) for weight 0 or 1."""
    n = np.arange(-n_terms, n_terms + 1)
    expo = np.exp(1j * np.pi * (n * n * tau) + TWO_PI_I * np.multiply.outer(z0, n))
    if weight:
        expo = expo * (TWO_PI_I * n)
    return expo.sum(axis=-1)


def theta_raw(z, tau: complex):
    """Jacobi theta  sum_n exp(pi i (n^2 tau + 2 n z))  for Im tau > 0."""
    z = np.asarray(z, dtype=complex)
    z0, m = _reduce(z, tau)
    n_terms = _terms_needed(tau, float(np.abs(z0.imag).max(initial=0.0)))
    factor = np.exp(-1j * np.pi * m * m * tau - TWO_PI_I * m * z0)
    return factor * _theta_reduced(z0, tau, n_terms, 0)


def theta_raw_deriv(z, tau: complex):
    """d/dz of theta_raw, via termwise differentiation and range reduction."""
    z = np.asarray(z, dtype=complex)
    z0, m = _reduce(z, tau)
    n_terms = _terms_needed(tau, float(np.abs(z0.imag).max(initial=0.0)))
    factor = np.exp(-1j * np.pi * m * m * tau - TWO_PI_I * m * z0)
    val = _theta_reduced(z0, tau, n_terms, 0)
    dval = _theta_reduced(z0, tau, n_terms, 1)
    return factor * (dval - TWO_PI_I * m * val)


def theta(z, lattice: Lattice):
    """theta(z, tau) for the lattice Z + Z tau."""
    return theta_raw(z, lattice.tau)


def theta_w(z, w: complex, lattice: Lattice):
    """Translated theta with simple zeros exactly at w + Lambda."""
    tau = lattice.tau
    return theta_raw(np.asarray(z, dtype=complex) - 0.5 * (1 + tau) - w, tau)


def theta_w_deriv(z, w: complex, lattice: Lattice):
    tau = lattice.tau
    return theta_raw_deriv(np.asarray(z, dtype=complex) - 0.5 * (1 + tau) - w, tau)


def theta_tilde_w(z, w: complex, lattice: Lattice):
    """Translated theta for the doubled lattice Z + Z(2 tau)."""
    tau = lattice.tau
    return theta_raw(np.asarray(z, dtype=complex) - 0.5 * (1 + 2 * tau) - w, 2 * tau)


def theta_tilde_w_deriv(z, w: complex, lattice: Lattice):
    tau = lattice.tau
    return theta_raw_deriv(np.asarray(z, dtype=complex) - 0.5 * (1 + 2 * tau) - w, 2 * tau)


def g_theta_w(z, w: complex, lattice: Lattice):
    """The entire product g_w * theta_w = (i / 2 pi) * theta_w'."""
    return (1j / (2 * np.pi)) * theta_w_deriv(z, w, lattice)


def g_tilde_theta_w(z, w: complex, lattice: Lattice):
    """The entire product g~_w * theta~_w = (i / 2 pi) * theta~_w'."""
    return (1j / (2 * np.pi)) * theta_tilde_w_deriv(z, w, lattice)


def _guard_pole(z, w: complex, lattice: Lattice, doubled: bool):
    zs = np.asarray(z, dtype=complex).ravel()
    lat = Lattice(2 * lattice.tau) if doubled else lattice
    d = lat.reduce(zs - w)[:, None] + np.array([0, -1, -lat.tau, -1 - lat.tau])
    near = np.abs(d).min(axis=1) < POLE_GUARD
    if near.any():
        raise NearPole(f"{zs[near.argmax()]} is within {POLE_GUARD} of a pole at {w} + lattice")


def g_w(z, w: complex, lattice: Lattice):
    """The log-derivative (i / 2 pi) theta_w' / theta_w; simple poles on w + Lambda."""
    _guard_pole(z, w, lattice, doubled=False)
    return g_theta_w(z, w, lattice) / theta_w(z, w, lattice)


def g_tilde_w(z, w: complex, lattice: Lattice):
    """Doubled-lattice analogue of g_w; poles on w + Z + Z(2 tau)."""
    _guard_pole(z, w, lattice, doubled=True)
    return g_tilde_theta_w(z, w, lattice) / theta_tilde_w(z, w, lattice)


def automorphy_factor(w: complex):
    """The standard scalar factor f_w(z) = exp(-2 pi i (z - w - 1/2))."""

    def f(z):
        return np.exp(-TWO_PI_I * (np.asarray(z, dtype=complex) - w - 0.5))

    return f


# ---------------------------------------------------------------------------
# The branched double cover X -> CP^1.


def _cover_args(z, tau: complex):
    """Kernel arguments, stacked on a new first axis, of the two theta~
    factors of the cover: theta~_{1/2}(2z) and theta~_{1/2 - tau}(2z)."""
    shifts = np.array([0.5, 0.5 - tau]).reshape((2,) + (1,) * np.ndim(z))
    return 2 * z - 0.5 * (1 + 2 * tau) - shifts


def _cover_homogeneous(z, lattice: Lattice):
    """Homogeneous pair (den, num) with pi([z]) = [den : num] = [1 : h(z)]."""
    z = np.asarray(z, dtype=complex)
    den, t = theta_raw(_cover_args(z, lattice.tau), 2 * lattice.tau)
    return den, np.exp(TWO_PI_I * z) * t


def h_map(z, lattice: Lattice):
    """The even elliptic function h with pi([z]) = [1 : h(z)].

    Meromorphic: returns inf at the four poles; use ``pi_cover`` for the
    projectively safe version.
    """
    den, num = _cover_homogeneous(z, lattice)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den


def pi_cover(p: CurvePoint) -> ProjPoint:
    """The 2:1 cover X -> CP^1, [z] -> [1 : h(z)], evaluated homogeneously."""
    den, num = _cover_homogeneous(p.lift, p.lattice)
    return ProjPoint(complex(den), complex(num))


def _cover_cross(z, a, c, lattice: Lattice):
    """Signed chordal cross product of pi([z]) with [a : c], elementwise.

    The pair (den, num) is first divided by its larger-modulus coordinate,
    as ``ProjPoint`` does, so the value matches the scalar
    ``(p.a * c - p.c * a) / (|p| |[a : c]|)`` with ``p = pi_cover(z)`` in
    phase as well as in modulus; the modulus is the chordal distance.
    ``z``, ``a`` and ``c`` broadcast against each other.
    """
    den, num = _cover_homogeneous(z, lattice)
    first = np.abs(den) >= np.abs(num)
    with np.errstate(divide="ignore", invalid="ignore"):
        pa = np.where(first, 1.0, den / num)
        pc = np.where(first, num / den, 1.0)
    norms = np.hypot(np.abs(pa), np.abs(pc)) * np.hypot(np.abs(a), np.abs(c))
    return (pa * c - pc * a) / norms


def branch_points(lattice: Lattice) -> tuple[ProjPoint, ...]:
    """Images of the four 2-torsion points; cached per lattice."""
    cached = lattice._cache.get("branch_points")
    if cached is None:
        cached = tuple(
            pi_cover(CurvePoint(t, lattice)) for t in lattice.torsion_lifts()
        )
        lattice._cache["branch_points"] = cached
    return cached


def branch_index(a: ProjPoint, lattice: Lattice, tol: float = 1e-8) -> int | None:
    """Index 1..4 of the branch point matching ``a``, or None."""
    for i, b in enumerate(branch_points(lattice), start=1):
        if chordal(a, b) < tol:
            return i
    return None


def invert_cover(a: ProjPoint, lattice: Lattice) -> tuple[CurvePoint, CurvePoint]:
    """The unordered fiber {p, -p} of the double cover over ``a``.

    Newton iteration on the homogeneous equation
    y * den(z) - x * num(z) = 0 from 16 deterministic starting lifts,
    advanced together: each iteration evaluates theta~ and its derivative
    at both shifts for every active start in one kernel call each.  A
    start has converged once its Newton step is below 1e-12.  The
    iteration stops as soon as a converged iterate maps within 1e-8
    (chordal) of ``a``, and the root is chosen among the converged
    iterates that do.  Only if none does (Newton converges linearly next
    to a branch point) are all final iterates put to the same image check.
    The first returned point has the lexicographically smaller canonical
    lift of the pair; at a branch point the two points coincide.
    """
    idx = branch_index(a, lattice)
    if idx is not None:
        t = CurvePoint(lattice.torsion_lifts()[idx - 1], lattice)
        return t, t

    tau = lattice.tau
    x, y = a.a, a.c

    def image_ok(zs):
        return np.abs(_cover_cross(zs, x, y, lattice)) < 1e-8

    grid = np.array(
        [(i + 0.37) / 4 + (j + 0.41) / 4 * tau for i in range(4) for j in range(4)]
    )
    z = grid.copy()
    active = np.ones(z.shape, dtype=bool)
    passed = np.zeros(z.shape, dtype=bool)
    for _ in range(60):
        za = z[active]
        args = _cover_args(za, tau)
        val = theta_raw(args, 2 * tau)
        dval = theta_raw_deriv(args, 2 * tau)
        e = np.exp(TWO_PI_I * za)
        f = y * val[0] - x * (e * val[1])
        df = y * (2 * dval[0]) - x * (e * (TWO_PI_I * val[1] + 2 * dval[1]))
        step = np.where(np.abs(df) > 1e-300, f / df, 0.0)
        step = np.where(np.isfinite(step), step, 0.0)
        # The zero set is lattice-translation stable; keeping iterates
        # reduced avoids overflow of the reduction factor.
        z[active] = lattice.reduce(za - step)
        done = np.flatnonzero(active)[np.abs(step) < 1e-12]
        if done.size:
            active[done] = False
            passed[done] = image_ok(z[done])
            if passed.any() or not active.any():
                break
    if passed.any():
        roots_z = z[passed]
    else:
        roots_z = z[np.isfinite(z)]
        roots_z = roots_z[image_ok(roots_z)]
    if not roots_z.size:
        raise NoConvergence(f"no preimage found for {a}")
    # Collapse to a single representative modulo z -> -z.
    roots = [CurvePoint(v, lattice) for v in roots_z]
    rep = roots[0]
    for r in roots[1:]:
        if not (r == rep or r == -rep):
            rep = _lex_smaller(rep, r)
    p = _lex_smaller(rep, -rep)
    return p, -p


def _lex_smaller(p: CurvePoint, q: CurvePoint) -> CurvePoint:
    a, b = p.lift, q.lift
    if (a.real, a.imag) <= (b.real, b.imag):
        return p
    return q
