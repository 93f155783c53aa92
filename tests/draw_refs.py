"""Scalar reference loops of the block draws, one generator call at a time.

The library draws random points and directions in blocks
(``seidel_smith.separated_points``, ``rational.minimal_direction_vecs``).
These loops make the same generator calls in the order those docstrings
state, with ``ProjPoint``, ``single_hecke`` and Python's complex
arithmetic, so the tests can require equal bits and equal generator state.
``reference_row_fixtures`` is the elliptic table's fixtures as they were
written before one drawer per bundle kind and per direction kind, and
``reference_double_sample`` the double table's draw with one branch per
kind of draw, and ``reference_far_point`` the one-point rejection loop the
row fixtures drew with before ``_torus_points`` took points to avoid.
"""

from heckelab import elliptic as ell
from heckelab import theta as th
from heckelab.projective import ProjPoint, random_point
from heckelab.rational import RationalBundle, single_hecke
from heckelab.suites import POINT_GAP, _curve_point, _torus_points
from heckelab.torus import halve_sum, torsion_point


def reference_minimal_directions(count, n, rng, zero_dir_rate=0.25) -> list[list[ProjPoint]]:
    """Directions of ``count`` random minimal sequences of n steps: every
    draw's uniforms first, then every draw's normal pairs; then, per draw
    and step from O + O, [1:0] when the class is semistable and the
    uniform is below the rate, else [lam:1]."""
    uniforms = [[rng.random() for _ in range(n)] for _ in range(count)]
    lams = [[rng.normal() + 1j * rng.normal() for _ in range(n)] for _ in range(count)]
    out = []
    for us, ls in zip(uniforms, lams):
        dirs, current = [], RationalBundle(0, 0)
        for u, lam in zip(us, ls):
            zero = current.is_semistable() and u < zero_dir_rate
            dirs.append(ProjPoint(1.0, 0.0) if zero else ProjPoint(lam, 1.0))
            current = single_hecke(current, dirs[-1])
        out.append(dirs)
    return out


def reference_separated_points(count, n, rng, gap=0.3) -> list[list[complex]]:
    """Points of ``count`` draws of n points: rounds over the draws still
    short of n points, each drawing, draw by draw, as many candidates as
    the emptiest of them lacks; a candidate is kept when it is at least
    ``gap`` from every point its draw has kept."""
    pts = [[] for _ in range(count)]
    while any(len(p) < n for p in pts):
        open_ = [p for p in pts if len(p) < n]
        k = n - min(len(p) for p in open_)
        for p in open_:
            for z in [rng.normal() + 1j * rng.normal() for _ in range(k)]:
                if len(p) < n and all(abs(z - w) >= gap for w in p):
                    p.append(z)
    return pts


def reference_far_point(rng, lat, *others):
    """The first ``_curve_point`` draw more than POINT_GAP from every point of ``others``."""
    while True:
        q = _curve_point(rng, lat)
        if all(lat.distance(q.lift, o.lift) > POINT_GAP for o in others):
            return q


def reference_row_fixtures(lat):
    """The elliptic table rows as (name, make) with one helper per bundle
    family, each drawing its point, then the rest of its bundle, then its
    direction (a direction given as None is drawn, [lam:1] or [x:y])."""
    O = ell.trivial_line(lat)

    def lam(rng):
        return rng.normal() + 1j * rng.normal()

    def dec_q(rng):
        p = _curve_point(rng, lat)
        return ell.Decomposable(ell.point_line(reference_far_point(rng, lat, p)), O), p

    return [
        ("Oq-pivot", lambda r: (*dec_q(r), ProjPoint(1, 0))),
        ("Oq-generic", lambda r: (*dec_q(r), ProjPoint(lam(r), 1))),
        ("OD-pivot", lambda r: _od(r, lat, ProjPoint(1, 0))),
        ("OD-generic", lambda r: _od(r, lat, None)),
        ("Op-pivot", lambda r: _op(r, lat, ProjPoint(1, 0))),
        ("Op-counter", lambda r: _op(r, lat, ProjPoint(0, 1))),
        ("Op-generic", lambda r: _op(r, lat, None)),
        ("OO-pivot", lambda r: (ell.Decomposable(O, O), _curve_point(r, lat), ProjPoint(1, 0))),
        ("OO-generic", lambda r: (ell.Decomposable(O, O), _curve_point(r, lat), ProjPoint(lam(r), 1))),
        ("ss-pivot", lambda r: _ss(r, lat, ProjPoint(1, 0))),
        ("ss-counter", lambda r: _ss(r, lat, ProjPoint(0, 1))),
        ("ss-generic", lambda r: _ss(r, lat, None)),
        ("F2-pivot", lambda r: (ell.F2Twist(O), _curve_point(r, lat), ProjPoint(1, 0))),
        ("F2-generic", lambda r: (ell.F2Twist(O), _curve_point(r, lat), ProjPoint(lam(r), 1))),
        ("G2-generic", lambda r: _g2(r, lat, None)),
        ("G2-branch", lambda r: _g2(r, lat, "branch")),
        ("G2-moved", lambda r: _g2(r, lat, "moved")),
    ]


def _od(rng, lat, a):
    O = ell.trivial_line(lat)
    p = _curve_point(rng, lat)
    q1 = _curve_point(rng, lat)
    q2 = _curve_point(rng, lat)
    bundle = ell.Decomposable(ell.point_line(q1).tensor(ell.point_line(q2)), O)
    if a is None:
        a = ProjPoint(rng.normal() + 1j * rng.normal(), 1)
    return bundle, p, a


def _op(rng, lat, a):
    O = ell.trivial_line(lat)
    p = _curve_point(rng, lat)
    bundle = ell.Decomposable(ell.point_line(p), O)
    if a is None:
        a = ProjPoint(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
    return bundle, p, a


def _ss(rng, lat, a):
    O = ell.trivial_line(lat)
    p = _curve_point(rng, lat)
    q = reference_far_point(rng, lat, p)
    bundle = ell.Decomposable(ell.point_line(p).tensor(ell.point_line(q).inverse()), O)
    if a is None:
        a = ProjPoint(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
    return bundle, p, a


def _g2(rng, lat, mode):
    O = ell.trivial_line(lat)
    p = _curve_point(rng, lat)
    if mode == "moved":
        other = _curve_point(rng, lat)
        bundle = ell.G2Twist(other.lift, ell.point_line(other).inverse())
    else:
        bundle = ell.G2Twist(p.lift, O)
    if mode == "branch":
        a = th.branch_points(lat)[int(rng.integers(4))]
    else:
        a = ProjPoint(rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
    return bundle, p, a


def reference_double_sample(lat, rng, k):
    O = ell.trivial_line(lat)
    p1, p2 = _torus_points(rng, lat, 2)
    kind = k % 8
    if kind == 0:
        bundle = ell.Decomposable(O, O)
        d1, d2 = random_point(rng), random_point(rng)
    elif kind == 1:
        bundle = ell.F2Twist(ell.torsion_line(lat, int(rng.integers(1, 5))))
        d1, d2 = ProjPoint(1, 0), random_point(rng)
    elif kind == 2:
        bundle = ell.F2Twist(ell.torsion_line(lat, int(rng.integers(1, 5))))
        d1, d2 = ProjPoint(rng.normal() + 1j * rng.normal(), 1), random_point(rng)
    elif kind == 3:
        delta = _curve_point(rng, lat)
        bundle = ell.dual_pair(delta.lift, lat)
        # Both bad lines first in turn: [0:1] at k = 3, [1:0] at k = 11.
        d1 = (ProjPoint(0, 1), ProjPoint(1, 0))[k // 8 % 2]
        d2 = random_point(rng)
    elif kind == 4:
        delta = _curve_point(rng, lat)
        bundle = ell.dual_pair(delta.lift, lat)
        d1, d2 = random_point(rng), random_point(rng)
    elif kind == 5:
        # 2-torsion subcase at the first point.
        j = int(rng.integers(2, 5))
        p = p1 + torsion_point(lat, j)
        delta = p - halve_sum(p1, p2)
        bundle = ell.dual_pair(delta.lift, lat)
        d1 = ProjPoint(0, 1)
        d2 = (None, ProjPoint(1, 0), ProjPoint(0, 1))[k % 3] or random_point(rng)
    elif kind == 6:
        # 2-torsion subcase at the second point.
        j = int(rng.integers(2, 5))
        p = p2 + torsion_point(lat, j)
        delta = p - halve_sum(p1, p2)
        bundle = ell.dual_pair(delta.lift, lat)
        d1 = ProjPoint(1, 0)
        d2 = (None, ProjPoint(1, 0), ProjPoint(0, 1))[k % 3] or random_point(rng)
    else:
        bundle = ell.F2Twist(ell.torsion_line(lat, int(rng.integers(1, 5))))
        d1, d2 = ProjPoint(1, 0), ProjPoint(1, 0)
    return bundle, p1, p2, d1, d2
