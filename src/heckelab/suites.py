"""Verification suites behind the command-line front-end.

Every suite draws from the generator it is handed (one stream per suite);
the elliptic suites draw torus points and moduli coordinates through
``_torus_points`` and ``_coordinate_draws``.  Suites append records to the
report; record order is fixed so reruns with one seed are byte-identical.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cli_errors import ConfigError
from . import theta as th
from .projective import (ProjPoint, chordal, chordal_vecs, complex_div, complex_mul, mat2_mul,
                         normalized_vecs, random_point, sphere_grid)
from .pseries import SeriesMat2, DEFAULT_ORDER
from .grassmannian import (
    companion_residual,
    constant_representatives,
    eta_at,
    eta_invariance_checks,
    eta_vecs,
    in_bruhat_cell,
    random_units,
)
from .torus import CurvePoint, Lattice, halve_sum, torsion_point
from . import rational as rat
from . import elliptic as ell
from . import parabolic as par
from . import seidel_smith as ss


def _n(config, default: int) -> int:
    return config.samples if config.samples is not None else default


def _int_arg(text: str, usage: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{usage}: {text!r} is not an integer") from None


def _box(rng: np.random.Generator, lat: Lattice, count: int) -> np.ndarray:
    """Random points in a doubled fundamental box around the domain."""
    return (2 * rng.random(count) - 0.5) + (2 * rng.random(count) - 0.5) * lat.tau


def _curve_points(rng, lat, count) -> list[CurvePoint]:
    """Points of the torus, each from two uniform draws, real part first."""
    return [CurvePoint(x + y * lat.tau, lat) for x, y in rng.random((count, 2)).tolist()]


def _curve_point(rng, lat) -> CurvePoint:
    return _curve_points(rng, lat, 1)[0]


#: Least torus distance between the points of one draw.
POINT_GAP = 0.05


def _torus_points(rng, lat, count, *avoid) -> list[CurvePoint]:
    """``count`` points: each ``_curve_point`` draw is kept when it is at
    least POINT_GAP from every point of ``avoid`` and every point kept."""
    pts: list[CurvePoint] = []
    while len(pts) < count:
        z = _curve_point(rng, lat)
        if all(lat.distance(z.lift, w.lift) >= POINT_GAP for w in (*avoid, *pts)):
            pts.append(z)
    return pts


def _coordinate_draws(rng, lat, shapes) -> tuple[list[list[CurvePoint]], list[list[ProjPoint]]]:
    """Per draw (k, m) of ``shapes``, in draw order: k ``_torus_points``,
    then m ``_curve_points``.  Returns each draw's k points and the cover
    coordinates of its m curve points, all from one ``th._cover_points`` call."""
    points, lifts = [], []
    for k, m in shapes:
        points.append(_torus_points(rng, lat, k))
        lifts += [p.lift for p in _curve_points(rng, lat, m)]
    covers = iter(th._cover_points(lifts, lat))
    return points, [[next(covers) for _ in range(m)] for _, m in shapes]


def _rel(diff, scale) -> float:
    """Max relative deviation, floored away from isolated zeros of the
    comparison scale (pointwise relative error is meaningless there)."""
    s = np.abs(scale)
    floor = 1e-2 * float(np.max(s)) + 1e-300
    return float(np.max(np.abs(diff) / np.maximum(s, floor)))


# ---------------------------------------------------------------------------


def verify_theta(report, config, rng):
    lat = Lattice(config.tau)
    tau = lat.tau
    n = _n(config, 100)
    tol = 1e-9
    z = _box(rng, lat, n)
    w = complex(_box(rng, lat, 1)[0])

    t0 = th.theta_w(z, w, lat)
    report.add("theta-period-1", "quasi-periodicity in 1",
               _rel(th.theta_w(z + 1, w, lat) - t0, t0), tol)
    f = th.automorphy_factor(z, w, 1)
    t_tau = th.theta_w(z + tau, w, lat)
    report.add("theta-quasi-tau", "translation by tau against the standard factor",
               _rel(t_tau - f * t0, t_tau), tol)
    raw = th.theta_raw(z, tau)
    report.add("theta-even", "evenness of the base series", _rel(th.theta_raw(-z, tau) - raw, raw), tol)
    scale = float(np.abs(t0).max())
    report.add("theta-zero-at-w", "simple zero on the translated lattice",
               abs(complex(th.theta_w(w, w, lat))) / scale, 1e-10)
    lat2 = Lattice(2 * tau)
    tt0 = th.theta_w(z, w, lat2)
    tt_tau = th.theta_w(z + 2 * tau, w, lat2)
    report.add("theta-tilde-quasi-2tau", "doubled-lattice translation law",
               _rel(tt_tau - f * tt0, tt_tau), tol)
    ttn = th.theta_w(-z, w, lat2)
    report.add("theta-tilde-negation", "negation symmetry of the doubled series",
               _rel(ttn - th.theta_w(z, -w - 2 * tau, lat2), ttn), tol)
    zg = z[np.array([lat.distance(v, w) > 1e-2 for v in z])]
    if not zg.size:  # every sample lies near w: use points half a period away
        zg = z + 0.5
    g0 = th.g_w(zg, w, lat)
    report.add("g-period-1", "log-derivative periodicity",
               float(np.abs(th.g_w(zg + 1, w, lat) - g0).max()), tol)
    report.add("g-shift-tau", "log-derivative increments by one across tau",
               float(np.abs(th.g_w(zg + tau, w, lat) - g0 - 1).max()), tol)
    gt0 = th.g_w(zg, w, lat2)
    report.add("g-tilde-shift-2tau", "doubled-lattice log-derivative increment",
               float(np.abs(th.g_w(zg + 2 * tau, w, lat2) - gt0 - 1).max()), tol)
    eps = 1e-5
    fd = (th.theta_w(z + eps, w, lat) - th.theta_w(z - eps, w, lat)) / (2 * eps)
    report.add("theta-derivative-vs-fd", "termwise derivative against central differences",
               _rel(th.theta_w_deriv(z, w, lat) - fd, fd), 1e-6)
    hz = th.h_map(z, lat)
    report.add("h-even", "evenness of the cover function",
               _rel(th.h_map(-z, lat) - hz, hz), tol)
    report.add("h-period-tau", "full periodicity of the cover function",
               _rel(th.h_map(z + tau, lat) - hz, hz), tol)
    bp = th.branch_points(lat)
    mind = np.min([chordal(bp[i], bp[j]) for i in range(4) for j in range(i + 1, 4)])
    report.add_flag("branch-points-distinct", "four distinct branch images", mind > 1e-3)
    lifts = np.array([p.lift for p in _curve_points(rng, lat, 20)])
    roots = th._invert_lifts(*th._cover_homogeneous(lifts, lat), lat)[0]
    worst = np.max([min(lat.distance(r, p), lat.distance(-r, p)) for r, p in zip(roots, lifts)])
    report.add("cover-roundtrip", "preimage pairs {p, -p} of the double cover", worst, 1e-7)


#: Unit pairs drawn and checked per stacked pass; bounds the arrays alive at once.
UNIT_CHUNK = 100


def verify_eta(report, config, rng):
    n_pairs = _n(config, 500)
    worst = []
    for start in range(0, n_pairs, UNIT_CHUNK):
        units = random_units(rng, 2 * min(UNIT_CHUNK, n_pairs - start), DEFAULT_ORDER).c
        worst.append(eta_invariance_checks(units[0::2], units[1::2]).max())
    report.add("right-multiplication-invariance",
               f"{n_pairs} random unit pairs at order {DEFAULT_ORDER}", np.max(worst), 1e-9)

    report.add("companion-factorization", "A(0) Z B = A Z coefficientwise",
               companion_residual(random_units(rng, 100, DEFAULT_ORDER)), 1e-12)

    grid = rat.direction_vecs([sphere_grid(32)])[0]
    eta = eta_vecs(constant_representatives(grid) * [1, 0])  # A(0) diag(1, 0)
    report.add("surjectivity-grid", "constructive preimages on a 32-point grid",
               float(chordal_vecs(eta, grid).max()), 1e-12)

    ok = in_bruhat_cell(SeriesMat2.z_shift())
    ok &= not in_bruhat_cell(SeriesMat2.identity())
    zz = SeriesMat2.z_shift().c[1, 1]
    ok &= not in_bruhat_cell(SeriesMat2(np.eye(2)[..., None] * zz))
    report.add_flag("cell-membership", "pivot in, identity and diag(z, z) out", ok)

    # Closed forms for the two-modification sequences: directions of the two
    # standard shapes as functions of the step parameters.  Each row draws
    # l1, l2, mu1 and the step to mu2, real part first, as scalar draws did.
    g = rng.normal(size=(100, 4, 2))
    l1, l2, mu1, step = np.moveaxis(g[..., 0] + 1j * g[..., 1], 1, 0)
    mu2 = mu1 + step * 0.5 + 1.0
    lb2, one = l2 / (mu2 - mu1), np.ones_like(l1)
    generic, special = _two_step_directions(l1, l2, mu1, mu2)
    want = np.stack([l1, one, l1 * lb2 + 1, lb2], -1).reshape(-1, 2, 2)
    report.add("two-step-directions-generic", "closed form with the unit lower row",
               float(chordal_vecs(generic, want).max()), 1e-10)
    want = np.stack([one, 0 * one, lb2, one], -1).reshape(-1, 2, 2)
    report.add("two-step-directions-special", "closed form with the pivot first step",
               float(chordal_vecs(special, want).max()), 1e-10)

    g = rng.normal(size=(100, 2, 4))
    moved, conj = _left_equivariance(g[:, 0] + 1j * g[:, 1])
    report.add("left-equivariance", "constant frame changes act projectively",
               float(chordal_vecs(conj, moved).max()), 1e-9)


def _two_step_directions(l1, l2, mu1, mu2):
    """Direction tuples (B, 2, 2) of the sequences of O + O with directions
    [l1:1], [l2:1] (generic) and [1:0], [l2:1] (special) at mu1, mu2."""
    points, lam = np.stack([mu1, mu2], -1), np.stack([l1, l2], -1)
    first = np.broadcast_to([True, False], points.shape)  # the step from semistable O + O
    return [rat.h_vecs(points, rat.table_coeffs(points, lam, first & pivot, first))
            for pivot in (False, True)]


def _left_equivariance(c):
    """C eta(A Z) and eta(C A Z), each (B, 2), for A the constant representative
    of [c0:c1] and C = [[c2, 1], [1, 0]], per row of c (B, 4)."""
    az = constant_representatives(c[:, :2]) * [1, 0]  # A(0) diag(1, 0)
    cm = np.stack([c[:, 2], np.ones(len(c)), np.ones(len(c)), np.zeros(len(c))], -1).reshape(-1, 2, 2)
    return mat2_mul(cm, eta_vecs(az)), eta_vecs(mat2_mul(cm, az))


def verify_rational_tables(report, config, rng):
    mu = 0.37 - 0.21j
    rows = [  # unstable pivot and generic, semistable generic and pivot
        (rat.RationalBundle(3, 0), ProjPoint(1, 0)),
        (rat.RationalBundle(3, 0), ProjPoint(0.8 - 0.3j, 1)),
        (rat.RationalBundle(0, 0), ProjPoint(0.8 - 0.3j, 1)),
        (rat.RationalBundle(0, 0), ProjPoint(1, 0)),
    ]
    mats = [rat.morphism_matrix(b, mu, d) for b, d in rows]
    worst_det, worst_dir = [], []
    for (_, d), m in zip(rows, mats):
        det = m.det()
        c = det[-1]
        expect = np.array([-mu * c, c])
        worst_det.append(np.abs(det - expect).max())
        worst_dir.append(chordal(eta_at(m, mu), d))
    report.add("det-divisor", "determinant is c (z - mu) for all four rows",
               np.max(worst_det), 1e-14)
    report.add("direction-roundtrip", "eta of each row equals its direction",
               np.max(worst_dir), 1e-10)

    m = rat.morphism_matrix(rat.RationalBundle(3, 0), 0.0, ProjPoint(1, 0))
    w = rat.chart_convert(m, rat.RationalBundle(3, -1), rat.RationalBundle(3, 0))
    worst = [np.abs(np.diagonal(w(1.3 + 0.2j)) - 1).max()]
    m = rat.morphism_matrix(rat.RationalBundle(3, 0), 0.0, ProjPoint(0.5, 1))
    w = rat.chart_convert(m, rat.RationalBundle(2, 0), rat.RationalBundle(3, 0))
    expect = np.array([[1.0, 0.5 * (1.3 + 0.2j) ** 3], [0.0, 1.0]])
    worst.append(np.abs(w(1.3 + 0.2j) - expect).max())
    report.add("chart-closed-forms", "second-chart matrices of the unstable rows",
               np.max(worst), 1e-12)

    globality = 0.0
    for (b, d), m in zip(rows, mats):
        try:
            rat.chart_convert(m, rat.single_hecke(b, d), b)
        except rat.NotGlobal:
            globality = 1.0
    report.add("chart-globality", "all four rows glue to global morphisms",
               globality, 1e-12)

    caught = False
    bad = rat.PolyMat2([[[0.0, 1.0, 1.0], [0.5]], [[0.0], [1.0]]])
    try:
        rat.chart_convert(bad, rat.RationalBundle(2, 0), rat.RationalBundle(3, 0))
    except rat.NotGlobal:
        caught = True
    report.add_flag("chart-rejects-corruption", "corrupted entry raises the globality error",
                    caught)

    ok = True
    grid = sphere_grid(64)
    for k in range(6):
        b = rat.RationalBundle(k, 0)
        for d in grid:
            if abs(rat.single_hecke(b, d).hecke_length - b.hecke_length) != 1:
                ok = False
    report.add_flag("hecke-length-pm1", "64-direction grid, lengths up to 5", ok)


def verify_elliptic_tables(report, config, rng):
    lat = Lattice(config.tau)
    draws = _n(config, 20)
    # Every row's draws first, in per-draw order, then the certificate points,
    # 20 in a doubled box per draw; then one stacked pass per row.
    rows = [list(zip(*[make(rng) for _ in range(draws)])) for _, make in _elliptic_row_fixtures(lat)]
    boxes = _box(rng, lat, 20 * draws).reshape(draws, 20)
    certs, roundtrip = [], []
    length_ok = True
    for bundles, points, dirs in rows:
        reps = ell.morphism_rep(bundles, points, dirs)
        certs.append(ell.certify_rows(reps, boxes))
        at_p = np.array(ell.evaluate_stack([r.terms for r in reps], [p.lift for p in points], lat))
        roundtrip.append(chordal_vecs(eta_vecs(at_p), np.array([a.vec for a in dirs])))
        length_ok &= all(abs(r.result.hecke_length - b.hecke_length) == 1
                         for r, b in zip(reps, bundles))
    # np.max, not a running max(): a NaN residual propagates and fails its record.
    worst_eq, worst_zero = np.max(certs, axis=(0, 2))
    report.add("equivariance", f"both intertwining laws, {draws} draws per row",
               worst_eq, 1e-8)
    report.add("direction-roundtrip", "eta of each constructed morphism", np.max(roundtrip), 1e-8)
    report.add("det-zero-at-point",
               f"det alpha = c theta_w(., t) with t = p mod the lattice, {draws} draws per row",
               worst_zero, 1e-6)
    report.add_flag("hecke-length-pm1", "every row changes the length by one", length_ok)


def _elliptic_row_fixtures(lat):
    """(name, make) for each row of the elliptic tables: ``make(rng)``
    draws a point p, then the rest of the row's bundle, then its
    direction, and returns (bundle, p, direction)."""
    O = ell.trivial_line(lat)

    def far_line(rng, p):
        return ell.point_line(_torus_points(rng, lat, 1, p)[0])

    def moved_g2(rng, p):
        q = _curve_point(rng, lat)
        return ell.G2Twist(q.lift, ell.point_line(q).inverse())

    def lam(rng):
        return rng.normal() + 1j * rng.normal()

    bundles = {  # kind -> (rng, p) -> bundle
        "Oq": lambda r, p: ell.Decomposable(far_line(r, p), O),
        "OD": lambda r, p: ell.Decomposable(
            ell.point_line(_curve_point(r, lat)).tensor(ell.point_line(_curve_point(r, lat))), O),
        "Op": lambda r, p: ell.Decomposable(ell.point_line(p), O),
        "OO": lambda r, p: ell.Decomposable(O, O),
        "ss": lambda r, p: ell.Decomposable(ell.point_line(p).tensor(far_line(r, p).inverse()), O),
        "F2": lambda r, p: ell.F2Twist(O),
        "G2": lambda r, p: ell.G2Twist(p.lift, O),
        "G2-moved": moved_g2,
    }
    directions = {  # kind -> rng -> direction
        "[1:0]": lambda r: ProjPoint(1, 0),
        "[0:1]": lambda r: ProjPoint(0, 1),
        "[lam:1]": lambda r: ProjPoint(lam(r), 1),
        "[x:y]": lambda r: ProjPoint(lam(r), lam(r)),
        "branch": lambda r: th.branch_points(lat)[int(r.integers(4))],
    }

    def row(bundle, direction):
        def make(rng):
            p = _curve_point(rng, lat)
            return bundle(rng, p), p, direction(rng)
        return make

    table = [
        ("Oq-pivot", "Oq", "[1:0]"), ("Oq-generic", "Oq", "[lam:1]"),
        ("OD-pivot", "OD", "[1:0]"), ("OD-generic", "OD", "[lam:1]"),
        ("Op-pivot", "Op", "[1:0]"), ("Op-counter", "Op", "[0:1]"), ("Op-generic", "Op", "[x:y]"),
        ("OO-pivot", "OO", "[1:0]"), ("OO-generic", "OO", "[lam:1]"),
        ("ss-pivot", "ss", "[1:0]"), ("ss-counter", "ss", "[0:1]"), ("ss-generic", "ss", "[x:y]"),
        ("F2-pivot", "F2", "[1:0]"), ("F2-generic", "F2", "[lam:1]"),
        ("G2-generic", "G2", "[x:y]"), ("G2-branch", "G2", "branch"),
        ("G2-moved", "G2-moved", "[x:y]"),
    ]
    return [(name, row(bundles[b], directions[d])) for name, b, d in table]


def verify_double_table(report, config, rng):
    lat = Lattice(config.tau)
    samples = _n(config, 200)
    # Every draw first, in the order of a per-draw loop; then stacked passes.
    draws = [_double_sample(lat, rng, k) for k in range(samples)]
    agree = sum(_two_route_agreement(draws, lat))
    report.add_flag("two-route-agreement",
                    f"composed-evaluator keys vs chained classes, {samples} samples",
                    agree == samples, inputs=f"agree={agree}")

    # Spot checks of three printed rows, classified in one call.
    O = ell.trivial_line(lat)
    p1, p2 = _torus_points(rng, lat, 2)
    ept = halve_sum(p1, p2)
    a, b = random_point(rng), random_point(rng)
    want = ell.Decomposable(
        ell.LineBundleClass(1, ept.lift, lat).tensor(ell.point_line(p1).inverse()),
        ell.LineBundleClass(1, ept.lift, lat).tensor(ell.point_line(p2).inverse()),
    )
    delta = _curve_point(rng, lat)
    # The two-step sequence through the mark of the dual pair of delta at p1
    # whose second coordinate is a branch point of the intrinsic coordinate.
    [seq] = ell.sequence_from_coordinates(
        [p1], [[p2]], [th._cover_points([delta.lift], lat) + [th.branch_points(lat)[1]]])
    [b2] = seq.lines
    split, diagonal, torsion = ell.double_hecke([ell.Decomposable(O, O)] * 2 + [seq.base.bundle],
                                                [p1] * 3, [p2] * 3, [a, a, seq.base.line], [b, a, b2])
    ok = split is not None and ell.s_equivalent(split, want)
    ok &= diagonal is None and isinstance(torsion, ell.F2Twist)
    report.add_flag("printed-rows", "split-trivial, diagonal, and torsion outcomes", ok)


def _double_sample(lat, rng, k):
    """Draw k of the double table: two points, then a bundle and two
    directions by kind k % 8 (O + O, F2 twists, dual pairs, and the
    2-torsion subcases at the first and at the second point).  Kind 3
    starts at [0:1] and at [1:0] in turn, so that both bad lines of a dual
    pair come first."""
    p1, p2 = _torus_points(rng, lat, 2)
    kind = k % 8
    if kind in (1, 2, 7):
        bundle = ell.F2Twist(ell.torsion_line(lat, int(rng.integers(1, 5))))
        d1 = ProjPoint(rng.normal() + 1j * rng.normal(), 1) if kind == 2 else ProjPoint(1, 0)
        d2 = ProjPoint(1, 0) if kind == 7 else random_point(rng)
    elif kind in (3, 4):
        bundle = ell.dual_pair(_curve_point(rng, lat).lift, lat)
        d1 = (ProjPoint(0, 1), ProjPoint(1, 0))[k // 8 % 2] if kind == 3 else random_point(rng)
        d2 = random_point(rng)
    elif kind in (5, 6):
        p = (p1 if kind == 5 else p2) + torsion_point(lat, int(rng.integers(2, 5)))
        bundle = ell.dual_pair((p - halve_sum(p1, p2)).lift, lat)
        d1 = ProjPoint(0, 1) if kind == 5 else ProjPoint(1, 0)
        d2 = (ProjPoint(1, 0), ProjPoint(0, 1))[k % 3 - 1] if k % 3 else random_point(rng)
    else:
        bundle = ell.Decomposable(ell.trivial_line(lat), ell.trivial_line(lat))
        d1, d2 = random_point(rng), random_point(rng)
    return bundle, p1, p2, d1, d2


def _two_route_agreement(draws, lat) -> list[bool]:
    """Per ``_double_sample`` draw: does ``double_hecke`` on the composite
    direction pair give the class the chained modifications reach?  Each
    step of the stack is one ``morphism_rep`` call, the pairs one
    ``chain_factors`` and ``factor_lines`` pass, their classes one
    ``double_hecke`` call."""
    bundles, p1s, p2s, d1s, d2s = zip(*draws)
    reps1 = ell.morphism_rep(bundles, p1s, d1s)
    reps2 = ell.morphism_rep([r.result for r in reps1], p2s, d2s)
    lines = ell.factor_lines(ell.chain_factors(list(zip(reps1, reps2))))
    tables = ell.double_hecke(bundles, p1s, p2s, *zip(*lines))
    out = []
    for p1, p2, rep2, table in zip(p1s, p2s, reps2, tables):
        chained = rep2.result.tensor(ell.LineBundleClass(1, halve_sum(p1, p2).lift, lat))
        if table is None:
            out.append(not ell.is_even_semistable(chained))
        else:
            out.append(ell.is_even_semistable(chained) and ell.s_equivalent(table, chained))
    return out


def compute_space(report, config, rng):
    usage = "usage: compute-space {S2|T2} n"
    if len(config.extra) != 2:
        raise ConfigError(usage)
    curve, n_str = config.extra
    n = _int_arg(n_str, usage)
    if n < 0:
        raise ConfigError(f"{usage}: n must be >= 0, got {n}")
    if curve == "S2":
        _compute_space_s2(report, config, rng, n)
    elif curve == "T2":
        _compute_space_t2(report, config, rng, n)
    else:
        raise ConfigError(f"unknown curve {curve!r}")


#: Tuples per batched membership call; bounds the tuples and arrays alive at once.
S2_CHUNK = 2000


def _random_tuples(rng, n, count):
    """``count`` tuples of n ``random_point`` draws, in draw order, as
    (k, n, 2) arrays of at most S2_CHUNK tuples."""
    for start in range(0, count, S2_CHUNK):
        v = rng.normal(size=(min(S2_CHUNK, count - start), n, 2, 2))  # real pair, imaginary pair
        yield normalized_vecs(v[..., 0, :] + 1j * v[..., 1, :])


def _compute_space_s2(report, config, rng, n):
    if n == 0:
        report.add_flag("empty-sequence", "zero modifications stay minimal",
                        rat.membership_H(0, []))
        return
    pts = rat.default_points(n)
    if n <= 3:
        grid = rat.direction_vecs([sphere_grid(20)])[0]
        idx = np.indices((20,) * n).reshape(n, -1).T  # itertools.product order
        chunks = itertools.chain((grid[idx[s : s + S2_CHUNK]] for s in range(0, len(idx), S2_CHUNK)),
                                 _random_tuples(rng, n, 200))
        disagree = sum(int(((rat.terminal_hecke_lengths(pts, vecs) == n % 2)
                            != rat.membership_H_closed_forms(vecs)).sum()) for vecs in chunks)
        report.add_flag("closed-form-agreement",
                        f"grid of 20 per axis plus 200 random tuples ({20 ** n + 200} total)",
                        disagree == 0, inputs=f"disagreements={disagree}")
    else:
        draws = _n(config, 200)
        members = sum(int((rat.terminal_hecke_lengths(pts, vecs) == n % 2).sum())
                      for vecs in _random_tuples(rng, n, draws))
        report.add(f"member-fraction-n{n}", "no closed form; random sampling only",
                   members / draws, None)


def _compute_space_t2(report, config, rng, n):
    lat = Lattice(config.tau)
    if n == 0:
        grid = sphere_grid(16)
        q = CurvePoint(0.31 + 0.43 * lat.tau, lat)
        h = ell.mss_coordinate([b.bundle for b in ell.base_from_coordinate(grid, [q] * len(grid))])
        worst = np.max([chordal(c, a) for c, a in zip(h, grid)])
        report.add("coordinate-span", "16-point grid of base classes", worst, 1e-8)
        return
    if n == 1:
        # Every draw (q, p1 and two coordinates) first; then stacked passes.
        draws = _n(config, 100)
        pts, coords = _coordinate_draws(rng, lat, [(2, 2)] * draws)
        seqs = ell.sequence_from_coordinates([p[0] for p in pts], [p[1:] for p in pts], coords)
        worst = np.max([(chordal(h[0], a), chordal(h[1], b))
                        for h, (a, b) in zip(ell.h_total(seqs), coords)])
        if not all(ell.membership_Hp(seqs)):
            worst = 1.0
        report.add("bijectivity-roundtrip", f"{draws} coordinate pairs", worst, 1e-7)
        return
    if n == 2:
        # Every draw first, in per-draw order; then one f_embedding call for the
        # grid and on-curve points, one membership pass for on-curve and far tuples.
        q, p1, p2 = _torus_points(rng, lat, 3)
        grid = [CurvePoint((i + 0.5) / 46 + ((i * 13) % 46 + 0.5) / 46 * lat.tau, lat)
                for i in range(46)]
        trials = max(2, _n(config, 20) // 4)
        curve = ell.f_embedding(grid + _curve_points(rng, lat, trials), q, p1, p2)
        vecs = np.array([[(t.a, t.c) for t in tri] for tri in curve[:46]])
        i, j = (k[:1000] for k in rat.upper_pairs(46))
        mind = float(chordal_vecs(vecs[i], vecs[j]).max(axis=1).min())
        report.add("embedding-injectivity", "1000 sampled pairs, min separation",
                   -mind, -1e-6, inputs=f"min-distance={mind:.6f}")
        # Rejection in blocks of candidates, accepted in draw order: the
        # accepted tuples are those of a one-candidate-at-a-time loop, and
        # this is the suite's last draw, so the rest of a block is unused.
        trials_far = max(4, _n(config, 100) // 2)
        far: list = []
        while len(far) < trials_far:
            # The drawn lifts are the fibers of their own cover images, one cover call.
            lifts = np.reshape([p.lift for p in _curve_points(rng, lat, 6 * (trials_far - len(far)))], (-1, 3))
            ta, tc = th._cover_homogeneous(lifts, lat)
            dist = ell._fiber_distance(lifts, [q] * len(lifts), [p1] * len(lifts), [p2] * len(lifts),
                                       (ta, tc))
            keep = dist > 0.1
            taus = [ProjPoint(a, c) for a, c in zip(ta[keep].ravel().tolist(), tc[keep].ravel().tolist())]
            far += [taus[k:k + 3] for k in range(0, len(taus), 3)]
        tris = curve[46:] + far[:trials_far]
        seqs = ell.sequence_from_coordinates([q] * len(tris), [[p1, p2]] * len(tris), tris)
        member = ell.membership_Hp(seqs)
        report.add_flag("curve-excluded", f"{trials} unstable-terminal tuples", not any(member[:trials]))
        report.add_flag("far-tuples-included", f"{trials_far} tuples beyond 0.1", all(member[trials:]))
        return
    raise ConfigError("T2 spaces are computed exactly for n <= 2")


def check_conjecture(report, config, rng):
    usage = "usage: check-conjecture m"
    if len(config.extra) != 1:
        raise ConfigError(usage)
    m = _int_arg(config.extra[0], usage)
    if m < 1:
        raise ConfigError(f"{usage}: m must be >= 1, got {m}")
    if m == 1:
        # Per draw: l1, l2, mu1 and mu2's offset, real part first.
        r = rng.normal(size=(100, 4, 2))
        l1, l2, mu1, w = np.moveaxis(r[..., 0] + 1j * r[..., 1], -1, 0)
        mus = np.stack([mu1, mu1 + 1.0 + 0.5 * w], axis=-1)
        # lambda as ProjPoint normalizes it, and the closed forms of the
        # shapes [l1:1],[l2:1], [1:0],[l2:1] and [1:0],[0:1], in Python's
        # complex rounding.
        vecs = normalized_vecs(np.stack([np.stack([l1, l2], axis=-1), np.ones((100, 2))], axis=-1))
        lam = complex_div(vecs[..., 0], vecs[..., 1])
        m1, m2 = mu1, mus[:, 1]
        xy, zero = complex_mul(l1, l2), np.zeros(100)
        expect = np.array([[[m1 - xy, complex_mul(l1, m2 - m1 + xy)], [-l2, m2 + xy]],
                           [[m2, -l2], [zero, m1]], [[m2, zero], [zero, m1]]])
        expect = np.moveaxis(expect, -1, 0)

        def slices(lam, first_zero):
            # [lam_1:1] or, if first_zero, [1:0] (lam_1 unused), then [lam_2:1].
            flags = np.broadcast_to([first_zero, False], mus.shape)
            semistable = np.broadcast_to([True, False], mus.shape)
            return ss.slice_matrices(rat.table_coeffs(mus, lam, flags, semistable), np.zeros(100))

        got = np.stack([slices(lam, False), slices(lam, True), slices(0 * lam, True)], axis=1)
        worst_mat = float(np.abs(got - np.array(expect)).max())
        # The eigenvalues (a + d)/2 +- root of each [[a, b], [c, d]], in closed form.
        (a, b), (c, d) = np.moveaxis(got[:, 0], (-2, -1), (0, 1))
        root = np.sqrt(complex_mul(0.5 * (a - d), 0.5 * (a - d)) + complex_mul(b, c))
        ev = np.sort_complex(np.stack([0.5 * (a + d) + root, 0.5 * (a + d) - root], axis=-1))
        worst_chi = float(np.abs(ev - np.sort_complex(mus)).max())
        report.add("slice-matrix-closed-forms", "both two-step shapes, 100 draws",
                   worst_mat, 1e-10)
        report.add("eigenvalue-recovery", "chi of the slice matrix", worst_chi, 1e-9)
    samples = _n(config, 200 if m <= 2 else 50)
    worst = ss.conjecture_check(m, samples, rng)
    report.add(f"diagram-residual-m{m}",
               f"involution of directions vs left-eigenvector embedding, {samples} draws",
               worst, 1e-8 if m <= 2 else None)


def _rational_embedding_draws(rng) -> dict[int, rat.RationalSequence]:
    """Five minimal sequences of length 2, then five of length 4, by length."""
    return {n: rat.RationalSequence([rat.default_points(n)] * 5, rat.minimal_direction_vecs(5, n, rng))
            for n in (2, 4)}


def embed_check(report, config, rng):
    lat = Lattice(config.tau)
    # Split-bundle verdict table.
    A, B, C = ProjPoint(1, 0), ProjPoint(0, 1), ProjPoint(1, 1)
    O00 = rat.RationalBundle(0, 0)
    V = par.Verdict
    fixtures = [
        ((par.Mark(0.1, A), par.Mark(0.2, B), par.Mark(0.3, C)), V.STABLE),
        ((par.Mark(0.1, A),), V.UNSTABLE),
        ((par.Mark(0.1, A), par.Mark(0.2, A)), V.UNSTABLE),
        ((par.Mark(0.1, A), par.Mark(0.2, B)), V.STRICTLY_SEMISTABLE),
    ]
    verdicts = par.stabilities([par.ParabolicBundle(O00, marks) for marks, _ in fixtures])
    ok = all(v.verdict is want for v, (_, want) in zip(verdicts, fixtures))
    report.add_flag("split-verdicts", "distinct/equal line fixtures, small-weight rule", ok)

    n_seq = _n(config, 200)
    by_length = {2: [], 3: [], 4: []}
    for k in range(n_seq):
        n = int(rng.integers(2, 5))
        r = n // 2 + 1 if k % 2 else 1  # odd draws repeat their first line r times
        a = random_point(rng)
        by_length[n].append([a] * r + [random_point(rng) for _ in range(n - r)])
    pbs, lengths = [], []
    for n, tuples in by_length.items():
        pts = rat.default_points(n)
        lengths += rat.terminal_hecke_lengths(pts, rat.direction_vecs(tuples)).tolist() if tuples else []
        pbs += [par.ParabolicBundle(O00, tuple(map(par.Mark, pts, dirs))) for dirs in tuples]
    # The terminal class is semistable exactly at Hecke length 0.
    ok = not any(v.verdict is V.UNSTABLE and length == 0
                 for v, length in zip(par.stabilities(pbs), lengths))
    report.add_flag("unstable-marks-unstable-terminal-rational",
                    f"{n_seq} seeded sequences, lengths 2..4", ok)

    # Every draw first, in per-draw order: (q, p1, p2) and a base coordinate,
    # two coordinates more on even draws; the rational embedding draws; ten
    # draws of (q, p1, p2) and three coordinates.  Then one builder pass.
    pts, coords = _coordinate_draws(rng, lat, [(3, 1 if k % 2 else 3) for k in range(n_seq)])
    rational = _rational_embedding_draws(rng)
    embed_pts, embed_coords = _coordinate_draws(rng, lat, [(3, 3)] * 10)
    # Odd draws force both marks bad in the same direction.
    bad = ProjPoint(1, 0)
    bases = iter(ell.base_from_coordinate([c[0] for c in coords[1::2]], [p[0] for p in pts[1::2]]))
    heads = [next(bases) if k % 2 else p[0] for k, p in enumerate(pts)] + [p[0] for p in embed_pts]
    given = [[bad, bad] if k % 2 else c for k, c in enumerate(coords)] + embed_coords
    seqs = ell._sequences(heads, [p[1:] for p in pts + embed_pts], given)
    terminal, drawn = seqs[:n_seq], seqs[n_seq:]
    verdicts = par.stabilities([par.ParabolicBundle(s.base.bundle, tuple(map(par.Mark, s.points, s.lines)))
                                for s in terminal])
    ok = not any(v.verdict is V.UNSTABLE and ell.is_semistable(s.terminal)
                 for v, s in zip(verdicts, terminal))
    report.add_flag("unstable-marks-unstable-terminal-elliptic",
                    f"{n_seq} seeded two-step sequences", ok)

    aux = [par.Mark(10.0 + 1j, A), par.Mark(11.0 + 1j, B), par.Mark(12.0 + 1j, C)]
    pbs = [pb for seq in rational.values() for pb in par.hecke_embeddings_rational(seq, aux)]
    ok = all(v.verdict is V.STABLE for v in par.stabilities(pbs))
    report.add_flag("rational-embedding-stable", "even-length fixtures, three marks added", ok)

    # One membership pass decides the ten drawn sequences, and the members
    # are embedded.  A non-member is a measure-zero event; with no member
    # the record fails.
    members = [s for s, member in zip(drawn, ell.membership_Hp(drawn)) if member]
    ok = bool(members) and all(v.verdict is V.STABLE
                               for v in par.stabilities(par.hecke_embeddings_elliptic(members)))
    report.add_flag("elliptic-embedding-stable", "members of the length-two space", ok)
