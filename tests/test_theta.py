import re

import numpy as np
import pytest

from heckelab import theta as th
from heckelab.projective import ProjPoint, chordal
from heckelab.torus import CurvePoint, Lattice, halve_sum, torsion_point

from theta_refs import g_tilde_w, theta_tilde_w, theta_tilde_w_deriv

LAT = Lattice()
TAU = LAT.tau
LAT2 = Lattice(2 * TAU)  # the doubled lattice Z + 2 tau Z of theta~
RNG = np.random.default_rng(11)
Z = RNG.normal(size=100) * 0.8 + 1j * RNG.normal(size=100) * 0.8
W = 0.31 + 0.22j


def rel(diff, scale):
    s = np.abs(scale)
    return np.max(np.abs(diff) / np.maximum(s, 1e-2 * s.max()))


def test_theta_periodicity():
    t0 = th.theta_w(Z, W, LAT)
    assert rel(th.theta_w(Z + 1, W, LAT) - t0, t0) < 1e-10


def test_theta_quasi_periodicity():
    t0 = th.theta_w(Z, W, LAT)
    f = th.automorphy_factor(Z, W, 1)
    assert rel(th.theta_w(Z + TAU, W, LAT) - f * t0, t0) < 1e-10


def test_theta_evenness():
    base = th.theta_raw(Z, TAU)
    assert rel(th.theta_raw(-Z, TAU) - base, base) < 1e-12


def test_theta_base_zero():
    scale = abs(th.theta_raw(0.11, TAU))
    assert abs(th.theta_raw((1 + TAU) / 2, TAU)) < 1e-10 * scale


def test_theta_w_zero_at_w():
    scale = np.abs(th.theta_w(Z, W, LAT)).max()
    assert abs(th.theta_w(W, W, LAT)) < 1e-10 * scale
    assert abs(th.theta_w(W + 3 + 2 * TAU, W, LAT)) / scale < 1e-8


def test_theta_tilde_laws():
    tt = th.theta_w(Z, W, LAT2)
    f = th.automorphy_factor(Z, W, 1)
    assert rel(th.theta_w(Z + 2 * TAU, W, LAT2) - f * tt, tt) < 1e-10
    ttn = th.theta_w(-Z, W, LAT2)
    assert rel(ttn - th.theta_w(Z, -W - 2 * TAU, LAT2), ttn) < 1e-10


@pytest.mark.parametrize("tau", [0.21 + 1.3j, 0.3 + 0.45j, 0.21 + 60j])
def test_doubled_lattice_is_the_removed_theta_tilde_family(tau):
    # theta~ is theta_w on Lattice(2 tau): the library's calls give the
    # bits of the separate theta~ functions they replaced.
    lat = Lattice(tau)
    rng = np.random.default_rng(43)
    z = (2 * rng.random(2000) - 0.5) + (2 * rng.random(2000) - 0.5) * tau
    w = complex(rng.random() + rng.random() * tau)
    doubled = Lattice(2 * lat.tau)
    for got, want in ((th.theta_w, theta_tilde_w), (th.theta_w_deriv, theta_tilde_w_deriv),
                      (th.g_w, g_tilde_w)):
        assert got(z, w, doubled).tobytes() == want(z, w, lat).tobytes(), want.__name__


def test_g_transformation():
    zg = Z[np.array([LAT.distance(v, W) > 1e-2 for v in Z])]
    g0 = th.g_w(zg, W, LAT)
    assert np.abs(th.g_w(zg + 1, W, LAT) - g0).max() < 1e-10
    assert np.abs(th.g_w(zg + TAU, W, LAT) - g0 - 1).max() < 1e-10


def test_g_pole_guard():
    with pytest.raises(th.NearPole):
        th.g_w(W + 1e-8, W, LAT)


def test_pole_guard_names_the_one_near_point_of_an_array():
    far = Z[np.array([LAT.distance(v, W) > 1e-2 for v in Z])].reshape(2, -1)
    # A translate of W by tau is a pole of g_w but not of g_w on the doubled lattice.
    mid = far.copy()
    mid[1, 3] = W + TAU
    th.g_w(mid, W, LAT2)
    for lat, pole in ((LAT, W + TAU - 1), (LAT2, W + 2 * TAU + 1)):
        bad = far.copy()
        bad[1, 3] = pole + 0.9 * th.POLE_GUARD * np.exp(0.7j)
        th.g_w(far, W, lat)
        with pytest.raises(th.NearPole, match=re.escape(str(bad[1, 3]))):
            th.g_w(bad, W, lat)


def test_derivative_matches_finite_difference():
    eps = 1e-5
    fd = (th.theta_w(Z + eps, W, LAT) - th.theta_w(Z - eps, W, LAT)) / (2 * eps)
    assert rel(th.theta_w_deriv(Z, W, LAT) - fd, fd) < 1e-6


def test_h_symmetries():
    hz = th.h_map(Z, LAT)
    assert rel(th.h_map(-Z, LAT) - hz, hz) < 1e-10
    assert rel(th.h_map(Z + 1, LAT) - hz, hz) < 1e-10
    assert rel(th.h_map(Z + TAU, LAT) - hz, hz) < 1e-10


def test_cover_even_and_periodic():
    p = CurvePoint(0.37 + 0.18 * TAU, LAT)
    assert th.pi_cover(p) == th.pi_cover(-p)


@pytest.mark.parametrize("tau", [-0.4 + 2j, 0.4 + 2j, 0.21 + 1.3j, 0.3 + 0.45j])
def test_pi_cover_is_bitwise_a_point_of_the_batch(tau):
    # numpy computes on 0-d and 1-d complex arrays with loops that round
    # differently; pi_cover must evaluate as one element of a batch.
    lat = Lattice(tau)
    rng = np.random.default_rng(47)
    zs = list(lat.torsion_lifts()) + (rng.random(2000) + rng.random(2000) * tau).tolist()
    points = [CurvePoint(z, lat) for z in zs]
    got = [th.pi_cover(p) for p in points]
    want = th._cover_points([p.lift for p in points], lat)
    assert (np.array([[p.a, p.c] for p in got]).tobytes()
            == np.array([[p.a, p.c] for p in want]).tobytes())


def test_branch_points_distinct():
    bp = th.branch_points(LAT)
    for i in range(4):
        for j in range(i + 1, 4):
            assert chordal(bp[i], bp[j]) > 1e-3


@pytest.mark.parametrize("tau", [0.21 + 1.3j, 0.3 + 0.45j])
def test_branch_points_are_one_cover_call(tau, monkeypatch):
    lat = Lattice(tau)
    want = [th.pi_cover(CurvePoint(t, lat)) for t in lat.torsion_lifts()]
    sizes = []
    original = th._cover_homogeneous

    def spy(z, lattice):
        sizes.append(np.size(z))
        return original(z, lattice)

    th.branch_points.cache_clear()
    monkeypatch.setattr(th, "_cover_homogeneous", spy)
    got = th.branch_points(lat)
    assert sizes == [4]
    assert [(b.a, b.c) for b in got] == [(b.a, b.c) for b in want]


def test_invert_cover_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(30):
        p = CurvePoint(rng.random() + rng.random() * TAU, LAT)
        a = th.pi_cover(p)
        r1, r2 = th.invert_cover(a, LAT)
        assert min(LAT.distance(r1.lift, p.lift), LAT.distance(r2.lift, p.lift)) < 1e-7
        assert r1 + r2 == CurvePoint(0, LAT)
        assert chordal(th.pi_cover(r1), a) < 1e-8


def test_invert_cover_branch_point():
    a1 = th.branch_points(LAT)[0]
    r1, r2 = th.invert_cover(a1, LAT)
    assert r1 == r2
    assert r1 == CurvePoint(0, LAT)


def test_invert_cover_pole():
    r1, _ = th.invert_cover(ProjPoint(0, 1), LAT)
    assert th.pi_cover(r1).is_infinity_dir()


def test_group_law():
    rng = np.random.default_rng(13)
    p = CurvePoint(rng.random() + rng.random() * TAU, LAT)
    q = CurvePoint(rng.random() + rng.random() * TAU, LAT)
    assert p + (-p) == CurvePoint(0, LAT)
    e = halve_sum(p, q)
    assert e + e == p + q
    # The other halvings differ by the 2-torsion points.
    seen = {1: False, 2: False, 3: False, 4: False}
    for i in range(1, 5):
        cand = e + torsion_point(LAT, i)
        if cand + cand == p + q:
            seen[i] = True
    assert all(seen.values())


def test_torsion_indices():
    for i in range(1, 5):
        t = torsion_point(LAT, i)
        assert t + t == CurvePoint(0, LAT)
        assert t.torsion_index() == i


def test_automorphy_factor_periodicity():
    z = 0.4 + 0.3j
    assert abs(th.automorphy_factor(z + 1, W, 1) - th.automorphy_factor(z, W, 1)) < 1e-12


def test_g2_determinant_factor():
    # det of the G2 automorphy matrix is minus the shifted scalar factor,
    # which equals the unshifted one.
    p = 0.41 + 0.2j
    z = 0.13 - 0.7j
    f_shift = th.automorphy_factor(z, p + 0.5, 1)
    f_plain = th.automorphy_factor(z, p, 1)
    assert abs(-f_shift - f_plain) < 1e-12


# ---------------------------------------------------------------------------
# The closed-form invert_cover against a reference copy of an earlier Newton loop.

REF_TAUS = (0.21 + 1.3j, 0.3 + 0.45j)


def branch_index_reference(a, lattice, tol=1e-8):
    """The scalar branch test that ``_invert_lifts`` runs on a whole stack:
    index 1..4 of the first branch point within ``tol`` chordal of ``a``,
    else None."""
    for i, b in enumerate(th.branch_points(lattice), start=1):
        if chordal(a, b) < tol:
            return i
    return None


def lex_smaller(p, q):
    a, b = p.lift, q.lift
    return p if (a.real, a.imag) <= (b.real, b.imag) else q


def invert_cover_reference(a, lattice):
    """Scalar-reduce Newton with separate value and derivative closures:
    every start runs to convergence or 60 iterations, and the root is
    chosen among all iterates that pass the image check."""
    idx = branch_index_reference(a, lattice)
    if idx is not None:
        t = CurvePoint(lattice.torsion_lifts()[idx - 1], lattice)
        return t, t
    tau = lattice.tau
    x, y = a.a, a.c

    def func(z):
        den = theta_tilde_w(2 * z, 0.5, lattice)
        num = np.exp(2j * np.pi * z) * theta_tilde_w(2 * z, 0.5 - tau, lattice)
        return y * den - x * num

    def dfunc(z):
        ddet = 2 * theta_tilde_w_deriv(2 * z, 0.5, lattice)
        e = np.exp(2j * np.pi * z)
        dnum = e * (
            2j * np.pi * theta_tilde_w(2 * z, 0.5 - tau, lattice)
            + 2 * theta_tilde_w_deriv(2 * z, 0.5 - tau, lattice)
        )
        return y * ddet - x * dnum

    grid = np.array(
        [(i + 0.37) / 4 + (j + 0.41) / 4 * tau for i in range(4) for j in range(4)]
    )
    z = grid.copy()
    active = np.ones(z.shape, dtype=bool)
    for _ in range(60):
        f = func(z[active])
        df = dfunc(z[active])
        step = np.where(np.abs(df) > 1e-300, f / df, 0.0)
        step = np.where(np.isfinite(step), step, 0.0)
        zn = z[active] - step
        z[active] = np.array([lattice.reduce(complex(v)) for v in np.atleast_1d(zn)])
        done = np.abs(step) < 1e-12
        idx = np.flatnonzero(active)
        active[idx[done]] = False
        if not active.any():
            break
    roots = []
    for v in z:
        if not np.isfinite(v):
            continue
        p = CurvePoint(v, lattice)
        if chordal(th.pi_cover(p), a) < 1e-8:
            roots.append(p)
    if not roots:
        raise th.NoConvergence(f"no preimage found for {a}")
    rep = roots[0]
    for r in roots[1:]:
        if not (r == rep or r == -rep):
            rep = lex_smaller(rep, r)
    p = lex_smaller(rep, -rep)
    return p, -p


def at_chordal_offset(b, d, phase):
    """A point of CP^1 at chordal distance ``d`` from ``b``."""
    u = b.vec / np.linalg.norm(b.vec)
    v = np.array([-np.conj(u[1]), np.conj(u[0])]) * np.exp(1j * phase)
    w = u * np.sqrt(1 - d * d) + v * d
    return ProjPoint(w[0], w[1])


def reference_fibers(lattice, count, seed):
    rng = np.random.default_rng(seed)
    pts = [th.pi_cover(CurvePoint(rng.random() + rng.random() * lattice.tau, lattice))
           for _ in range(count)]
    for b in th.branch_points(lattice):
        for d in (1e-9, 1e-8, 3e-8, 1e-7, 1e-6, 1e-5):
            pts += [at_chordal_offset(b, d, phase) for phase in (0.3, 2.1)]
    return pts + [ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(1, 1)]


@pytest.mark.parametrize("tau", REF_TAUS)
def test_invert_cover_matches_reference(tau):
    # Compared as torus points modulo +-: the two loops may return
    # different lifts of one point, e.g. over [0:1] a lift with lattice
    # coordinate y just below 1 against one at y = 0.
    lat = Lattice(tau)
    worst = 0.0
    for a in reference_fibers(lat, 150, seed=31):
        p, _ = th.invert_cover(a, lat)
        r, _ = invert_cover_reference(a, lat)
        worst = max(worst, min(lat.distance(p.lift, r.lift), lat.distance(p.lift, -r.lift)))
    assert worst <= 1e-12


def test_at_chordal_offset():
    b = th.branch_points(LAT)[1]
    for d in (1e-9, 1e-7, 1e-5):
        assert abs(chordal(at_chordal_offset(b, d, 0.7), b) - d) < 1e-3 * d


# ---------------------------------------------------------------------------
# Array-capable canonical lift.


@pytest.mark.parametrize("tau", REF_TAUS)
def test_reduce_array_is_bitwise_scalar(tau):
    lat = Lattice(tau)
    rng = np.random.default_rng(41)
    seeded = rng.random(50) + rng.random(50) * tau
    far = seeded + rng.integers(-5, 6, 50) + rng.integers(-5, 6, 50) * tau
    negative = -(rng.random(20) + rng.random(20) * tau)
    exact = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j,
             -1.0, 1.0 + tau, -tau, 3 - 2 * tau, 0.5 - tau / 2]
    zs = np.concatenate([seeded, far, negative, np.array(exact)])
    out = lat.reduce(zs)
    ref = np.array([lat.reduce(complex(v)) for v in zs])
    assert out.shape == zs.shape
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    assert isinstance(lat.reduce(zs[0]), complex)


@pytest.mark.parametrize("tau", REF_TAUS)
def test_kernel_bits_do_not_depend_on_the_batch(tau):
    # From 16,384 points (256 KiB) numpy elides temporaries; the kernel's
    # last multiply must keep its operand order there too.
    rng = np.random.default_rng(43)
    z = (2 * rng.random(16384) - 0.5) + (2 * rng.random(16384) - 0.5) * tau
    for kernel in (th.theta_raw, th.theta_raw_deriv):
        whole = kernel(z, tau)
        chunks = np.concatenate([kernel(z[i:i + 100], tau) for i in range(0, z.size, 100)])
        ones = np.concatenate([kernel(z[i:i + 1], tau) for i in range(0, z.size, 97)])
        assert whole.tobytes() == chunks.tobytes(), kernel.__name__
        assert whole[::97].tobytes() == ones.tobytes(), kernel.__name__


# ---------------------------------------------------------------------------
# The kernel against an independent high-precision oracle.


@pytest.mark.parametrize("im", (0.25, 0.5, 1.3, 2.5))
def test_kernel_matches_mpmath_jtheta(im):
    # theta_raw(z, t) = jtheta(3, pi z, e^{i pi t}); d/dz brings a factor pi.
    # Checked at t = tau and t = 2 tau, with z up to three periods out.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(int(im * 100))
    tau = complex(3.21, im)
    worst = 0.0
    for t in (tau, 2 * tau):
        xy = rng.uniform(-3, 3, (8, 2))
        zs = xy[:, 0] + xy[:, 1] * t
        val, dval = th.theta_raw(zs, t), th.theta_raw_deriv(zs, t)
        nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(t.real, t.imag))
        for z, v, dv in zip(zs, val, dval):
            w = mpmath.pi * mpmath.mpc(z.real, z.imag)
            ref = complex(mpmath.jtheta(3, w, nome))
            dref = complex(mpmath.pi * mpmath.jtheta(3, w, nome, 1))
            worst = max(worst, abs(v - ref) / abs(ref), abs(dv - dref) / abs(dref))
    assert worst <= 1e-12


@pytest.mark.parametrize("im", (30, 60, 120))
def test_kernel_is_finite_at_large_im_tau(im):
    # In the doubled box |x| = |e^{2 pi i z0}| reaches e^{pi Im t}, so a
    # series that formed x^k before weighting it would overflow to
    # inf * 0 = nan at Im t = 120.  Points whose value itself leaves the
    # double range (|theta| ~ e^{pi y^2 Im t} for lattice coordinate y)
    # are not compared.  jtheta drops terms below its working precision
    # relative to the constant term 1, and the derivative can lie e^{-pi Im t}
    # (1e-164) below it, so the reference needs 200 digits.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(im)
    t = complex(0.21, im)
    uv = rng.uniform(-0.5, 1.5, (40, 2))
    zs = uv[:, 0] + uv[:, 1] * t
    with np.errstate(over="ignore", invalid="ignore"):
        val, dval = th.theta_raw(zs, t), th.theta_raw_deriv(zs, t)
    checked = 0
    with mpmath.workdps(200):
        nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(t.real, t.imag))
        for z, v, dv in zip(zs, val, dval):
            w = mpmath.pi * mpmath.mpc(z.real, z.imag)
            ref = complex(mpmath.jtheta(3, w, nome))
            dref = complex(mpmath.pi * mpmath.jtheta(3, w, nome, 1))
            if not np.isfinite([ref, dref]).all() or max(abs(ref), abs(dref)) > 1e300:
                continue
            checked += 1
            assert abs(v - ref) <= 1e-12 * abs(ref), z
            assert abs(dv - dref) <= 1e-12 * abs(dref), z
    assert checked >= 30


# ---------------------------------------------------------------------------
# The closed-form inversion: Carlson's R_F, the Moebius chart, batching.


def test_carlson_rf_matches_mpmath_elliprf():
    # Magnitudes 1e-8..1e8 in every direction; then arguments on the negative
    # real axis (+0 imaginary part, so on the upper side of the cut), just off
    # it on either side, where R_F jumps, and one zero argument.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(5)
    spread = 10.0 ** rng.uniform(-8, 8, (3, 60)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (3, 60)))
    cut = [(-2, 1 + 1j, 3 - 0.5j), (-2 + 1e-12j, 1 + 1j, 3 - 0.5j),
           (-2 - 1e-12j, 1 + 1j, 3 - 0.5j), (-1e-6, 2j, -2j), (-5 + 1e-9j, -1j, 0.5),
           (-0.5 - 1e-15j, 1e4, 1e-4j), (-3, 1e-8j, 7), (1, 2, 0)]
    args = np.concatenate([spread, np.array(cut, dtype=complex).T], axis=1)
    worst = 0.0
    for val, xyz in zip(th._carlson_rf(*args), args.T):
        ref = complex(mpmath.elliprf(*(mpmath.mpc(v.real, v.imag) for v in xyz)))
        worst = max(worst, abs(val - ref) / abs(ref))
    assert worst <= 1e-14


SQUARE, HEXAGONAL = 1j, complex(np.exp(1j * np.pi / 3))


@pytest.mark.parametrize("tau", (3.21 + 0.25j, 3.21 + 0.5j, 3.21 + 1.3j, 3.21 + 2.5j,
                                 *REF_TAUS, SQUARE, HEXAGONAL))
def test_moebius_chart_self_check(tau):
    # The chart is fixed by branch points 1, 2 and 4, so branch point 3 must land on
    # e3 = wp(tau/2).  Relative to the largest root: e2 = 0 on the square
    # lattice.  The self-check does not see a common scale of the roots, so
    # random fibers also go through the cover and back.
    lat = Lattice(tau)
    k, e = th._cover_moebius(lat)
    b1, b2, b3, _ = th.branch_points(lat)
    w3 = e[0] + k * (b3.a * b2.c - b3.c * b2.a) / (b3.a * b1.c - b3.c * b1.a)
    assert abs(w3 - e[1]) <= 1e-13 * np.abs(e).max()
    rng = np.random.default_rng(9)
    den, num = th._cover_homogeneous(rng.random(64) + rng.random(64) * tau, lat)
    lifts, _ = th._invert_lifts(den, num, lat)
    assert th._cover_chordal(lifts, den, num, lat).max() <= 1e-12


@pytest.mark.parametrize("tau", REF_TAUS)
def test_cover_chordal_is_the_chordal_distance(tau):
    # Near the poles (1/4, 3/4) and zeros (1/4 + tau/2, 3/4 + tau/2) of h,
    # where one homogeneous coordinate vanishes, and at the 2-torsion points,
    # against the poles, the branch points and random targets.
    lat = Lattice(tau)
    centres = [0.25, 0.75, 0.25 + tau / 2, 0.75 + tau / 2, *lat.torsion_lifts()]
    offsets = [0] + [r * np.exp(1j * t) for r in (1e-9, 1e-6, 1e-3) for t in (0.3, 2.1, 4.4)]
    z = np.add.outer(centres, offsets).ravel()
    rng = np.random.default_rng(3)
    targets = [ProjPoint(1, 0), ProjPoint(0, 1), *th.branch_points(lat),
               *(ProjPoint(*(rng.normal(size=2) + 1j * rng.normal(size=2))) for _ in range(4))]
    got = th._cover_chordal(z[:, None], np.array([t.a for t in targets]),
                            np.array([t.c for t in targets]), lat)
    want = [[chordal(th.pi_cover(CurvePoint(v, lat)), t) for t in targets] for v in z]
    assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("tau", REF_TAUS)
def test_inverting_an_array_matches_each_element(tau):
    lat = Lattice(tau)
    targets = reference_fibers(lat, 40, seed=17)
    a = np.array([t.a for t in targets])
    c = np.array([t.c for t in targets])
    together, idx = th._invert_lifts(a, c, lat)
    alone = [th._invert_lifts(a[i:i + 1], c[i:i + 1], lat) for i in range(a.size)]
    assert np.array_equal(together.view(np.uint64),
                          np.array([z[0] for z, _ in alone]).view(np.uint64))
    assert idx.tolist() == [int(i[0]) for _, i in alone]


@pytest.mark.parametrize("tau", REF_TAUS)
def test_stacked_branch_test_matches_scalar(tau):
    # Targets at 0 and within 1e-9 of each branch point take its 2-torsion
    # lift, those at 1e-7 the R_F path, all in one stack with [0:1], [1:0]
    # and random targets, exactly as the scalar test decides one at a time.
    lat = Lattice(tau)
    near = [at_chordal_offset(b, d, phase) for b in th.branch_points(lat)
            for d in (0.0, 1e-9, 1e-7) for phase in (0.3, 2.1)]
    targets = near + [ProjPoint(0, 1), ProjPoint(1, 0)] + reference_fibers(lat, 8, seed=3)[:8]
    lifts, idx = th._invert_lifts([t.a for t in targets], [t.c for t in targets], lat)
    want = [branch_index_reference(t, lat) or 0 for t in targets]
    assert idx.tolist() == want
    assert want[:len(near)] == sum(([i] * 4 + [0] * 2 for i in (1, 2, 3, 4)), [])
    for t, z, i in zip(targets, lifts.tolist(), want):
        p = CurvePoint(z, lat)
        if i:
            torsion = CurvePoint(lat.torsion_lifts()[i - 1], lat)
            assert z == lex_smaller(torsion, -torsion).lift
        else:
            assert chordal(th.pi_cover(p), t) < 1e-8
        # The fiber's lexicographically smaller canonical lift, as invert_cover picks.
        assert lex_smaller(p, -p) is p and th.invert_cover(t, lat)[0] == p


@pytest.mark.parametrize("tau", REF_TAUS)
def test_inversion_at_the_branch_tolerance(tau):
    # The branch test matches within 1e-8 chordal.  Just inside, the fiber is the
    # 2-torsion point itself; just outside, R_F must still return a fiber
    # that maps within 1e-8 of the target.  [0:1] and [1:0] are not branch
    # points and take the R_F path at both offsets.
    lat = Lattice(tau)
    for i, b in enumerate(th.branch_points(lat), start=1):
        for phase in (0.3, 2.1, 4.4):
            r1, r2 = th.invert_cover(at_chordal_offset(b, 0.5e-8, phase), lat)
            assert r1 == r2 and r1.torsion_index() == i
            a = at_chordal_offset(b, 2e-8, phase)
            assert branch_index_reference(a, lat) is None
            assert chordal(th.pi_cover(th.invert_cover(a, lat)[0]), a) < 1e-8
    for b in (ProjPoint(0, 1), ProjPoint(1, 0)):
        for d in (0.5e-8, 2e-8):
            for phase in (0.3, 2.1, 4.4):
                a = at_chordal_offset(b, d, phase)
                assert chordal(th.pi_cover(th.invert_cover(a, lat)[0]), a) < 1e-8
