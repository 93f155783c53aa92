import dataclasses
import inspect
import itertools
from collections import Counter

import numpy as np
import pytest

from heckelab import cli
from heckelab import elliptic as ell
from heckelab import parabolic as par
from heckelab import suites
from heckelab import theta as th
from heckelab.elliptic import (
    Decomposable,
    F2Twist,
    G2Twist,
    LineBundleClass,
    MarkedBundle,
    NotSemistable,
    Unsupported,
    point_line,
    torsion_line,
    trivial_line,
)
from heckelab.grassmannian import eta_at
from heckelab.projective import ProjPoint, chordal, random_point, transport_direction
from heckelab.torus import CurvePoint, Lattice, halve_sum, torsion_point

from chain_refs import chain_directions, evaluator, raw_directions, scalar_mat2_mul
from double_refs import exact, reference_double_hecke
from draw_refs import (reference_double_sample, reference_far_point, reference_minimal_directions,
                       reference_row_fixtures)
from theta_refs import g_theta_w, g_tilde_w, theta_tilde_w, theta_tilde_w_deriv

LAT = Lattice()
REF_TAUS = (0.21 + 1.3j, 0.3 + 0.45j)
RNG = np.random.default_rng(77)


def det_line(b) -> LineBundleClass:
    return LineBundleClass(*ell.det_lift(b), b.lattice)


def boxes(lat, seeds) -> np.ndarray:
    """20 points in a doubled fundamental box per seed, real parts drawn
    first, (B, 20): certificate points as verify-elliptic-tables draws them."""
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        out.append((2 * rng.random(20) - 0.5) + (2 * rng.random(20) - 0.5) * lat.tau)
    return np.array(out)


def rpt(rng=RNG):
    return CurvePoint(rng.random() + rng.random() * LAT.tau, LAT)


def rpt_away(*others):
    while True:
        p = rpt()
        if all(LAT.distance(p.lift, o.lift) > 0.05 for o in others):
            return p


O = trivial_line(LAT)


def factor(bundle, z) -> np.ndarray:
    """The automorphy factor (2, 2) of ``bundle`` at the one point ``z``."""
    return ell.automorphy_factors([bundle], [[z]])[0, 0]


def reference_factor(bundle, z) -> np.ndarray:
    """The automorphy factors (k, 2, 2) of ``bundle`` at the points ``z``,
    built per bundle and per line bundle, as ``automorphy_factors`` replaced."""
    def line(l):
        d, t = l.degree, l.lift
        return np.exp(-ell.TWO_PI_I * (d * np.asarray(z, dtype=complex) - t - d / 2))

    def mat2(a, b, c, d):
        out = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
        out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
        return out

    if isinstance(bundle, Decomposable):
        return mat2(line(bundle.l1), 0, 0, line(bundle.l2))
    fl = line(bundle.l)
    if isinstance(bundle, F2Twist):
        return mat2(fl, fl, 0, fl)
    return mat2(0, fl, fl * th.automorphy_factor(z, bundle.point_lift + 0.5, 1), 0)


class TestLineBundles:
    def test_tensor_adds(self):
        p, q = rpt(), rpt()
        l = point_line(p).tensor(point_line(q).inverse())
        assert l.degree == 0
        assert LAT.distance(l.lift, p.lift - q.lift) < 1e-12

    def test_torsion_squares_trivial(self):
        for i in range(1, 5):
            li = torsion_line(LAT, i)
            assert li.tensor(li).same_class(trivial_line(LAT))

    def test_factor_matches_shifted_exponential(self):
        # The line factor of O(p) is the first diagonal entry of O(p) + O's.
        p = rpt()
        z = 0.3 - 0.8j
        g = th.automorphy_factor(z, p.lift, 1)
        assert abs(factor(Decomposable(point_line(p), O), z)[0, 0] - g) < 1e-12


class TestAutomorphy:
    def test_trivial_bundle_identity_factor(self):
        assert np.allclose(factor(Decomposable(O, O), 0.3 + 0.1j), np.eye(2))

    def test_f2_det_trivial(self):
        val = factor(F2Twist(O), 0.2 - 0.4j)
        assert abs(np.linalg.det(val) - 1) < 1e-12

    def test_g2_det_is_point_factor(self):
        p = rpt()
        z = 0.7 + 0.2j
        want = th.automorphy_factor(z, p.lift, 1)
        assert abs(np.linalg.det(factor(G2Twist(p.lift, O), z)) - want) < 1e-12

    def test_cocycle_consistency(self):
        # f(z + 1) must be the identity-factor branch: full 1-periodicity.
        p = rpt()
        for bundle in (Decomposable(point_line(p), O), F2Twist(O), G2Twist(p.lift, O)):
            z = 0.1 + 0.5j
            assert np.allclose(factor(bundle, z + 1), factor(bundle, z))


def all_row_fixtures(lat=LAT):
    O = trivial_line(lat)
    tau = lat.tau
    p = CurvePoint(0.393 + 0.544 * tau, lat)
    q = CurvePoint(0.811 + 0.156 * tau, lat)
    q2 = CurvePoint(0.175 + 0.822 * tau, lat)
    gen = ProjPoint(0.62 - 0.35j, 1.0 + 0.21j)
    lam = ProjPoint(0.9 + 0.4j, 1)
    bp = th.branch_points(lat)
    # Stored presentations that differ from the table form by a frame: the
    # summands swapped, and lifts shifted by lattice multiples n*tau.
    ss = point_line(p).tensor(point_line(q).inverse())
    frames = [
        ("swap-Oq", Decomposable(O, point_line(q))),
        ("reversed-ss", Decomposable(O, ss)),
        ("shift-Op+tau", Decomposable(LineBundleClass(1, p.lift + tau, lat), O)),
        ("shift-Op-2tau", Decomposable(LineBundleClass(1, p.lift - 2 * tau, lat), O)),
        ("shift-OO+tau", Decomposable(LineBundleClass(0, tau, lat), O)),
        ("swap-shift-Op+tau", Decomposable(O, LineBundleClass(1, p.lift + tau, lat))),
        ("swap-shift-Op-2tau", Decomposable(O, LineBundleClass(1, p.lift - 2 * tau, lat))),
        ("reversed-shift-OO+tau", Decomposable(O, LineBundleClass(0, tau, lat))),
    ]
    framed = [(f"{name}:{d}", bundle, p, a) for name, bundle in frames
              for d, a in (("[1:0]", ProjPoint(1, 0)), ("[0:1]", ProjPoint(0, 1)), ("gen", gen))]
    return framed + [
        ("Oq:[1:0]", Decomposable(point_line(q), O), p, ProjPoint(1, 0)),
        ("Oq:[lam:1]", Decomposable(point_line(q), O), p, lam),
        ("OD:[1:0]", Decomposable(point_line(q).tensor(point_line(q2)), O), p, ProjPoint(1, 0)),
        ("OD:[lam:1]", Decomposable(point_line(q).tensor(point_line(q2)), O), p, lam),
        ("Op:[1:0]", Decomposable(point_line(p), O), p, ProjPoint(1, 0)),
        ("Op:[0:1]", Decomposable(point_line(p), O), p, ProjPoint(0, 1)),
        ("Op:[x:y]", Decomposable(point_line(p), O), p, gen),
        ("OO:[1:0]", Decomposable(O, O), p, ProjPoint(1, 0)),
        ("OO:[lam:1]", Decomposable(O, O), p, lam),
        ("ss:[1:0]", Decomposable(point_line(p).tensor(point_line(q).inverse()), O), p,
         ProjPoint(1, 0)),
        ("ss:[0:1]", Decomposable(point_line(p).tensor(point_line(q).inverse()), O), p,
         ProjPoint(0, 1)),
        ("ss:[x:y]", Decomposable(point_line(p).tensor(point_line(q).inverse()), O), p, gen),
        ("F2:[1:0]", F2Twist(O), p, ProjPoint(1, 0)),
        ("F2:[lam:1]", F2Twist(O), p, lam),
        ("G2:good", G2Twist(p.lift, O), p, gen),
        ("G2:a2", G2Twist(p.lift, O), p, bp[1]),
        ("G2:moved", G2Twist(q.lift, point_line(q).inverse()), p, gen),
    ]


def test_frame_fixtures_reach_swap_and_shift():
    reps = {name: ell.morphism_rep([b], [p], [a])[0] for name, b, p, a in all_row_fixtures()}
    shifts = {param for rep in reps.values() for _, _, factors in rep.terms
              for kind, param in factors if kind == ell.EXP}
    assert shifts == {1, -1, -2}
    # The swapped pivot row: the constant moves from entry 0 to entry 2.
    assert reps["swap-Oq:[0:1]"].row == "Oq:[1:0]"
    assert (2, 1.0, ()) in reps["swap-Oq:[0:1]"].terms


class TestMorphismRows:
    @pytest.mark.parametrize("name,bundle,p,a", all_row_fixtures(),
                             ids=[r[0] for r in all_row_fixtures()])
    def test_equivariance_direction_length(self, name, bundle, p, a):
        rep = ell.morphism_rep([bundle], [p], [a])[0]
        equivariance, det = ell.certify_rows([rep], boxes(LAT, [5]))
        assert equivariance[0] < 1e-10 and det[0] < 1e-10
        assert chordal(eta_at(evaluator(rep)(np.asarray(p.lift)), p.lift), a) < 1e-9
        assert abs(rep.result.hecke_length - bundle.hecke_length) == 1

    def test_corrupted_row_fails_equivariance(self):
        p = rpt()
        rep = ell.morphism_rep([Decomposable(point_line(p), O)], [p], [ProjPoint(1, 0)])[0]
        # The rows exchanged: entry e moves to e ^ 2, each matrix's rows reversed.
        swapped = dataclasses.replace(rep, terms=tuple((e ^ 2, c, f) for e, c, f in rep.terms))
        z = np.array([0.2 + 0.3j, -0.4 + 0.9j])
        assert np.array_equal(evaluator(swapped)(z), evaluator(rep)(z)[..., ::-1, :])
        assert ell.certify_rows([swapped], boxes(LAT, [5]))[0][0] > 1e-2

    def test_specific_targets(self):
        p, q = rpt(), rpt()
        rep = ell.morphism_rep([Decomposable(point_line(q), O)], [p], [ProjPoint(1, 0)])[0]
        assert isinstance(rep.result, Decomposable)
        assert rep.result.l1.same_class(point_line(q))
        assert rep.result.l2.same_class(point_line(p).inverse())
        rep = ell.morphism_rep([Decomposable(O, O)], [p], [ProjPoint(0.5, 1)])[0]
        assert rep.result.l1.same_class(O)
        assert rep.result.l2.same_class(point_line(p).inverse())
        rep = ell.morphism_rep([F2Twist(O)], [p], [ProjPoint(0.5, 1)])[0]
        assert isinstance(rep.result, G2Twist)

    def test_row_not_found_never_fires_on_cp1(self):
        # The table is total over directions; sweep a grid on each bundle.
        from heckelab.projective import sphere_grid

        p = rpt()
        for bundle in (Decomposable(O, O), F2Twist(O), G2Twist(p.lift, O)):
            for d in sphere_grid(16):
                ell.morphism_rep([bundle], [p], [d])[0]


class TestSingleHecke:
    def test_op_counter_direction_trivializes(self):
        p = rpt()
        out = ell.morphism_rep([Decomposable(point_line(p), O)], [p], [ProjPoint(0, 1)])[0].result
        assert ell.s_equivalent(out, Decomposable(O, O))

    def test_f2_good_gives_g2(self):
        p = rpt()
        out = ell.morphism_rep([F2Twist(O)], [p], [ProjPoint(0.3 - 0.2j, 1)])[0].result
        assert isinstance(out, G2Twist)
        assert det_line(out).same_class(point_line(p).inverse())

    def test_g2_good_pair_consistent_with_cover(self):
        p = rpt()
        a = th.pi_cover(rpt())
        out = ell.morphism_rep([G2Twist(p.lift, O)], [p], [a])[0].result
        assert isinstance(out, Decomposable)
        assert chordal(th.pi_cover(CurvePoint(out.l1.lift, LAT)), a) < 1e-7
        # The pair is inverse-symmetric: independent of the root choice.
        assert out.l1.tensor(out.l2).same_class(trivial_line(LAT))

    def test_length_pm_one_sampled(self):
        rng = np.random.default_rng(8)
        p = rpt(rng)
        bundles = [Decomposable(O, O), F2Twist(O), G2Twist(p.lift, O),
                   Decomposable(point_line(rpt(rng)), O)]
        for b in bundles:
            for _ in range(5):
                d = random_point(rng)
                assert abs(ell.morphism_rep([b], [p], [d])[0].result.hecke_length - b.hecke_length) == 1


class TestMss:
    def test_trivial_is_first_branch_point(self):
        assert chordal(ell.mss_coordinate([Decomposable(O, O)])[0], th.branch_points(LAT)[0]) < 1e-10

    def test_order_independent(self):
        d = rpt()
        l = LineBundleClass(0, d.lift, LAT)
        a1 = ell.mss_coordinate([Decomposable(l, l.inverse())])[0]
        a2 = ell.mss_coordinate([Decomposable(l.inverse(), l)])[0]
        assert chordal(a1, a2) < 1e-10

    def test_f2_twist_matches_split_class(self):
        for i in range(1, 5):
            li = torsion_line(LAT, i)
            a1 = ell.mss_coordinate([F2Twist(li)])[0]
            a2 = ell.mss_coordinate([Decomposable(li, li)])[0]
            assert chordal(a1, a2) < 1e-10

    def test_rejects_unstable_and_g2(self):
        p = rpt()
        with pytest.raises(NotSemistable):
            ell.mss_coordinate([Decomposable(point_line(p), O)])[0]
        with pytest.raises(NotSemistable):
            ell.mss_coordinate([G2Twist(p.lift, O)])[0]


class TestDoubleHecke:
    def test_trivial_bundle_rows(self):
        p1, p2 = rpt(), rpt_away(rpt())
        e = halve_sum(p1, p2)
        a, b = random_point(RNG), random_point(RNG)
        out, diagonal = ell.double_hecke([Decomposable(O, O)] * 2, [p1] * 2, [p2] * 2, [a] * 2, [b, a])
        want = Decomposable(
            LineBundleClass(1, e.lift, LAT).tensor(point_line(p1).inverse()),
            LineBundleClass(1, e.lift, LAT).tensor(point_line(p2).inverse()),
        )
        assert out is not None and ell.s_equivalent(out, want)
        assert diagonal is None

    def test_two_route_consistency(self):
        rng = np.random.default_rng(10)
        draws = [suites._double_sample(LAT, rng, k) for k in range(40)]
        assert all(suites._two_route_agreement(draws, LAT))

    def test_rejects_coincident_points(self):
        # A lattice translate of p1 is p1: in a good and in a bad first
        # direction of F2, and in the middle of a stack.
        p1 = rpt()
        p2 = rpt_away(p1)
        for same in (p1, CurvePoint(p1.lift + LAT.tau, LAT)):
            for a in (random_point(RNG), ProjPoint(1, 0)):
                with pytest.raises(ValueError, match="distinct"):
                    ell.double_hecke([F2Twist(O)] * 3, [p1] * 3, [p2, same, p2], [a] * 3,
                                     [random_point(RNG)] * 3)

    def test_rejects_nontrivial_det(self):
        p1, p2 = rpt(), rpt()
        with pytest.raises(NotSemistable):
            ell.double_hecke([Decomposable(point_line(p1), O)], [p1], [p2],
                             [random_point(RNG)], [random_point(RNG)])


class TestHTotal:
    def test_empty_sequence_single_coordinate(self):
        q = rpt()
        tau0 = th.pi_cover(rpt())
        base = ell.base_from_coordinate([tau0], [q])[0]
        h = ell.h_total(ell._sequences([base], [[]], [[]]))[0]
        assert len(h) == 1 and chordal(h[0], tau0) < 1e-9

    def test_roundtrip_n1_n2(self):
        rng = np.random.default_rng(14)
        for n in (1, 2):
            for _ in range(5):
                q = rpt(rng)
                pts = [rpt(rng) for _ in range(n)]
                taus = [th.pi_cover(rpt(rng)) for _ in range(n)]
                tau0 = th.pi_cover(rpt(rng))
                h = ell.h_total([ell.sequence_from_coordinates([q], [pts], [[tau0, *taus]])[0]])[0]
                assert chordal(h[0], tau0) < 1e-9
                assert max(chordal(x, y) for x, y in zip(h[1:], taus)) < 1e-8

    def test_first_coordinate_constant(self):
        rng = np.random.default_rng(15)
        q = rpt(rng)
        tau0 = th.pi_cover(rpt(rng))
        for _ in range(3):
            seq = ell.sequence_from_coordinates([q], [[rpt(rng)]], [[tau0, th.pi_cover(rpt(rng))]])[0]
            assert chordal(ell.h_total([seq])[0][0], tau0) < 1e-9

    def test_bad_mark_rejected(self):
        q = rpt()
        d = rpt()
        bundle = Decomposable(LineBundleClass(0, d.lift, LAT),
                              LineBundleClass(0, -d.lift, LAT))
        with pytest.raises(ValueError):
            MarkedBundle(bundle, q, ProjPoint(1, 0))


class TestMembership:
    def test_low_n_always_member(self):
        q, tau0 = rpt(), th.pi_cover(rpt())
        base = ell.base_from_coordinate([tau0], [q])[0]
        assert ell.membership_Hp(ell._sequences([base], [[]], [[]]))[0]
        seq = ell.sequence_from_coordinates([q], [[rpt()]], [[tau0, th.pi_cover(rpt())]])[0]
        assert ell.membership_Hp([seq])[0]

    def test_unsupported_above_two(self):
        q = rpt()
        tau0 = th.pi_cover(rpt())
        pts = [rpt(), rpt(), rpt()]
        taus = [th.pi_cover(rpt()) for _ in range(3)]
        seq = ell.sequence_from_coordinates([q], [pts], [[tau0, *taus]])[0]
        with pytest.raises(Unsupported):
            ell.membership_Hp([seq])[0]

    def test_curve_excluded_far_included(self):
        rng = np.random.default_rng(16)
        q, p1, p2 = rpt(rng), rpt(rng), rpt(rng)
        p = rpt(rng)
        tri = ell.f_embedding([p], q, p1, p2)[0]
        seq = ell.sequence_from_coordinates([q], [[p1, p2]], [tri])[0]
        assert not ell.membership_Hp([seq])[0]
        while True:
            taus = [th.pi_cover(rpt(rng)) for _ in range(3)]
            if ell.distance_to_curve([taus], [q], [p1], [p2])[0] > 0.1:
                break
        seq = ell.sequence_from_coordinates([q], [[p1, p2]], [taus])[0]
        assert ell.membership_Hp([seq])[0]


class TestFEmbedding:
    def test_preimage_symmetry(self):
        q, p1, p2 = rpt(), rpt(), rpt()
        e1 = halve_sum(q, p1)
        p = rpt()
        f1 = ell.f_embedding([p], q, p1, p2)[0]
        f2 = ell.f_embedding([e1 + e1 - p], q, p1, p2)[0]
        assert chordal(f1[0], f2[0]) < 1e-9

    def test_shift_identity(self):
        q, p1, p2 = rpt(), rpt(), rpt()
        e1 = halve_sum(q, p1)
        for _ in range(20):
            p = rpt()
            f1 = ell.f_embedding([p], q, p1, p2)[0]
            f3 = ell.f_embedding([p + e1 - p1], q, p1, p2)[0]
            assert chordal(f1[1], f3[0]) < 1e-9

    def test_sampled_injectivity(self):
        import itertools

        q, p1, p2 = rpt(), rpt(), rpt()
        pts = [CurvePoint((i + 0.5) / 20 + ((i * 7) % 20 + 0.5) / 20 * LAT.tau, LAT)
               for i in range(20)]
        vals = ell.f_embedding(pts, q, p1, p2)
        mind = min(max(chordal(a, b) for a, b in zip(x, y))
                   for x, y in itertools.combinations(vals, 2))
        assert mind > 0


def test_s_equivalence_f2_vs_split():
    for i in range(1, 5):
        li = torsion_line(LAT, i)
        assert ell.s_equivalent(F2Twist(li), Decomposable(li, li))
    assert not ell.s_equivalent(F2Twist(torsion_line(LAT, 1)),
                                Decomposable(torsion_line(LAT, 2), torsion_line(LAT, 2)))


def test_g2_twist_identification():
    # Stable bundles of odd degree are classified by their determinant, so
    # twisting by L fixes the class exactly when L is its own inverse.
    p = rpt()
    g = G2Twist(p.lift, O)
    for i in range(1, 5):
        assert det_line(g).same_class(det_line(g.tensor(torsion_line(LAT, i))))
    d = rpt()
    generic = LineBundleClass(0, d.lift, LAT)
    if d.torsion_index() is None:
        assert not det_line(g).same_class(det_line(g.tensor(generic)))


def reference_det(b) -> LineBundleClass:
    """det b by line-bundle record algebra: L1 L2, L^2 or O(p) L^2."""
    if isinstance(b, Decomposable):
        return b.l1.tensor(b.l2)
    if isinstance(b, F2Twist):
        return b.l.tensor(b.l)
    return LineBundleClass(1, b.point_lift, b.lattice).tensor(b.l).tensor(b.l)


def bits(z) -> tuple[str, str]:
    return float(z.real).hex(), float(z.imag).hex()


def seeded_bundles(rng, lat) -> list:
    """Bundles of all three kinds with unreduced lifts, and some with a
    trivial determinant: dual pairs moved by lattice vectors, torsion F2s."""
    def lift():
        return complex(*rng.normal(0, 3, 2))

    def line():
        return LineBundleClass(int(rng.integers(-3, 4)), lift(), lat)

    out = []
    for _ in range(10):
        d, (j, k) = lift(), rng.integers(-2, 3, 2)
        out += [Decomposable(line(), line()), F2Twist(line()), G2Twist(lift(), line()),
                Decomposable(LineBundleClass(0, d, lat), LineBundleClass(0, -d + j + k * lat.tau, lat)),
                F2Twist(torsion_line(lat, int(rng.integers(1, 5))))]
    return out


@pytest.mark.parametrize("tau", REF_TAUS)
def test_det_lift_is_the_record_algebra_bit_for_bit(tau, monkeypatch):
    lat, rng = Lattice(tau), np.random.default_rng(46)
    for b in seeded_bundles(rng, lat):
        (degree, lift), want = ell.det_lift(b), reference_det(b)
        assert degree == want.degree and bits(lift) == bits(want.lift), b
        assert ell.has_trivial_det(b) == want.same_class(trivial_line(lat)), b
    # certify_rows reads det E tensor (det F)^-1: its theta zero at the lift,
    # its distance to the point only at degree 1.
    reps = [rep for _, make in suites._elliptic_row_fixtures(lat)
            for rep in ell.morphism_rep(*zip(*[make(rng) for _ in range(2)]))]
    seen, theta_w = [], th.theta_w
    monkeypatch.setattr(th, "theta_w", lambda z, w, lattice: seen.append(w) or theta_w(z, w, lattice))
    _, det = ell.certify_rows(reps, boxes(lat, range(1, len(reps) + 1)))
    (w,) = seen
    for rep, t, d in zip(reps, w[:, 0], det):
        want = reference_det(rep.upstream).tensor(reference_det(rep.result).inverse())
        assert bits(t) == bits(want.lift) and np.isfinite(d) == (want.degree == 1), rep.row


def test_has_trivial_det_builds_no_line_bundle(monkeypatch):
    bundles = seeded_bundles(np.random.default_rng(46), LAT)
    built, init = [], LineBundleClass.__init__
    monkeypatch.setattr(LineBundleClass, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    trivial = [ell.has_trivial_det(b) for b in bundles]
    assert not built and 10 <= sum(trivial) < len(bundles)


class TestSequenceFromLines:
    """Sequences given by lines in the base trivialization, through the one
    builder ``_sequences``: each step's morphism representative is built
    once."""

    def sample(self, rng):
        q = rpt(rng)
        base = ell.base_from_coordinate([th.pi_cover(rpt(rng))], [q])[0]
        return base, [rpt_away(q) for _ in range(3)]

    def test_lines_roundtrip(self):
        rng = np.random.default_rng(41)
        for trial in range(6):
            base, pts = self.sample(rng)
            for n in (1, 2, 3):
                lines = [random_point(rng) for _ in range(n)]
                # Bad lines of the split base, at the first and the last step.
                lines[0] = (ProjPoint(1, 0), ProjPoint(0, 1))[trial % 2]
                if n > 1:
                    lines[-1] = (ProjPoint(0, 1), ProjPoint(1, 0))[trial % 2]
                seq = ell._sequences([base], [pts[:n]], [lines])[0]
                assert len(seq.reps) == n and seq.points == pts[:n]
                assert max(chordal(x, y) for x, y in zip(ell.factor_lines(ell.chain_factors([seq.reps]))[0], lines)) < 1e-10
                assert seq.terminal == seq.reps[-1].result

    def test_empty_sequence_terminal_is_base(self):
        base, _ = self.sample(np.random.default_rng(42))
        seq = ell._sequences([base], [[]], [[]])[0]
        assert seq.reps == () and ell.factor_lines(ell.chain_factors([seq.reps])) == [[]] and seq.terminal == base.bundle

    def test_rejects_coincident_points(self):
        q = rpt()
        base = ell.base_from_coordinate([th.pi_cover(rpt())], [q])[0]
        p = rpt_away(q)
        with pytest.raises(ValueError, match="distinct"):
            ell._sequences([base], [[p, CurvePoint(p.lift + 1 + LAT.tau, LAT)]],
                           [[random_point(RNG), random_point(RNG)]])[0]

    def test_rejects_point_at_mark(self):
        q = rpt()
        base = ell.base_from_coordinate([th.pi_cover(rpt())], [q])[0]
        for pts in ([q], [rpt_away(q), CurvePoint(q.lift - LAT.tau, LAT)]):
            with pytest.raises(ValueError, match="marked point"):
                ell._sequences([base], [pts], [[random_point(RNG) for _ in pts]])[0]

    def test_consumers_never_rebuild_the_chain(self, monkeypatch):
        rng = np.random.default_rng(43)
        q, p1, p2 = rpt(rng), rpt(rng), rpt(rng)
        tau0 = th.pi_cover(rpt(rng))
        while True:
            seq = ell.sequence_from_coordinates([q], [[p1, p2]],
                                                [[tau0, *(th.pi_cover(rpt(rng)) for _ in range(2))]])[0]
            if ell.membership_Hp([seq])[0]:
                break
        calls, tables = [], []
        original_rep, original_eval = ell.morphism_rep, ell.evaluate_stack

        def counting(es, ps, dirs):
            calls.extend(zip(es, ps))
            return original_rep(es, ps, dirs)

        def evaluating(tbls, zs, lattice):
            tables.extend(tbls)
            return original_eval(tbls, zs, lattice)

        monkeypatch.setattr(ell, "morphism_rep", counting)
        monkeypatch.setattr(ell, "evaluate_stack", evaluating)
        par.hecke_embeddings_elliptic([seq])
        assert calls == [] and tables == []
        ell.h_total([seq])[0]
        ell.membership_Hp([seq])[0]
        # What h_total builds is only the second step of double_hecke's
        # two-step sequence through the mark, at each point; the mark step
        # and the chain's steps are neither built nor evaluated again.
        assert calls == [(seq.mark.result, p) for p in (p1, p2)] * 2
        built = (seq.mark, *seq.reps)
        assert not any(e == r.upstream and p == r.point for e, p in calls for r in built)
        assert not any(t == r.terms for t in tables for r in built)


class TestUnstableBranchImage:
    """Printed closed forms of the length-one coordinates along the
    unstable branch: a bad first direction lands on the curve points
    cover(p - p1) / cover(p - q) for the split base at p = e + delta."""

    def test_bad_directions_hit_image_points(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            q = rpt(rng)
            p1 = rpt(rng)
            if LAT.distance(q.lift, p1.lift) < 0.1:
                continue
            e = halve_sum(p1, q)
            delta = rpt(rng)
            if any(t.torsion_index() is not None for t in (delta, delta + e - p1)):
                continue
            p = e + delta
            bundle = Decomposable(
                LineBundleClass(0, LAT.reduce_centered(delta.lift), LAT),
                LineBundleClass(0, -LAT.reduce_centered(delta.lift), LAT),
            )
            base = MarkedBundle(bundle, q, ProjPoint(1.0, 1.0))
            # First modification toward [0:1] (bad): coordinate
            # cover(p - p1); toward [1:0] (bad): coordinate cover(p - q).
            for d1, shift in ((ProjPoint(0, 1), p - p1), (ProjPoint(1, 0), p - q)):
                seq = ell._sequences([base], [[p1]], [[d1]])[0]
                assert seq.reps[0].row == ell.morphism_rep([bundle], [p1], [d1])[0].row
                h = ell.h_total([seq])[0]
                assert chordal(h[0], th.pi_cover(p - e)) < 1e-8
                assert chordal(h[1], th.pi_cover(shift)) < 1e-7


class TestOrderIndependence:
    """The terminal class of a two-step sequence depends only on the
    line data, not the order the points are visited."""

    def test_reversed_sequences_share_terminal_class(self):
        rng = np.random.default_rng(37)
        for trial in range(12):
            q = rpt(rng)
            p1, p2 = rpt(rng), rpt(rng)
            if LAT.distance(p1.lift, p2.lift) < 0.1:
                continue
            base = ell.base_from_coordinate([th.pi_cover(rpt(rng))], [q])[0]
            if trial % 3 == 0:
                lines = [ProjPoint(1, 0), random_point(rng)]  # a bad start
            else:
                lines = [random_point(rng), random_point(rng)]

            def terminal(points, dirs):
                evs = []
                current = base.bundle
                for pnt, d in zip(points, dirs):
                    val = np.eye(2, dtype=complex)
                    for ev in evs:
                        val = val @ ev(np.asarray(pnt.lift))
                    rep = ell.morphism_rep([current], [pnt], [transport_direction(val, d)])[0]
                    evs.append(evaluator(rep))
                    current = rep.result
                return current

            ta = terminal([p1, p2], lines)
            tb = terminal([p2, p1], lines[::-1])
            e = halve_sum(p1, p2)
            oe = LineBundleClass(1, e.lift, LAT)
            ta, tb = ta.tensor(oe), tb.tensor(oe)
            if ell.is_even_semistable(ta) or ell.is_even_semistable(tb):
                assert ell.is_even_semistable(ta) and ell.is_even_semistable(tb)
                assert ell.s_equivalent(ta, tb)
            else:
                assert ta.hecke_length == tb.hecke_length


# ---------------------------------------------------------------------------
# The exact distance_to_curve against scalar references.


def residual_reference(u, v, triple, q, p1, p2):
    """Cross products of f(u + v tau) with the triple, one scalar
    ``f_embedding`` evaluation per parameter pair."""
    lat = q.lattice
    out = []
    for x, y in zip(ell.f_embedding([CurvePoint(u + v * lat.tau, lat)], q, p1, p2)[0], triple):
        out.append((x.a * y.c - x.c * y.a)
                   / (np.hypot(abs(x.a), abs(x.c)) * np.hypot(abs(y.a), abs(y.c))))
    return np.array(out)


def distance_reference(triple, q, p1, p2):
    """The Gauss-Newton distance the exact one replaced: seeds from a
    16 x 16 grid, then one scalar residual per stencil point and per
    backtracking step.  A local minimum, so an upper bound on the true
    distance."""
    lat = q.lattice
    grid = 16

    def residual(u, v):
        return residual_reference(u, v, triple, q, p1, p2).view(float)

    def dist(u, v):
        return float(np.abs(residual_reference(u, v, triple, q, p1, p2)).max())

    uu, vv = np.meshgrid((np.arange(grid) + 0.5) / grid, (np.arange(grid) + 0.5) / grid)
    zs = (uu + vv * lat.tau).ravel()
    e1 = halve_sum(q, p1)
    e2 = halve_sum(q, p2)
    shifts = (e1.lift, p1.lift, p2.lift - e2.lift + e1.lift)
    worst = np.zeros(zs.shape)
    for shift, target in zip(shifts, triple):
        den, num = th._cover_homogeneous(zs - shift, lat)
        cross = np.abs(den * target.c - num * target.a)
        cross /= np.hypot(np.abs(den), np.abs(num)) * np.hypot(abs(target.a), abs(target.c))
        worst = np.maximum(worst, cross)
    order = np.argsort(worst)
    seeds = []
    for idx in order:
        z0 = zs[int(idx)]
        if all(lat.distance(z0, s) > 0.2 for s in seeds):
            seeds.append(z0)
        if len(seeds) == 3:
            break
    best = float(worst[order[0]])
    for z0 in seeds:
        x = np.array(lat.coords(z0))
        r = residual(*x)
        for _ in range(40):
            eps = 1e-6
            j0 = (residual(x[0] + eps, x[1]) - residual(x[0] - eps, x[1])) / (2 * eps)
            j1 = (residual(x[0], x[1] + eps) - residual(x[0], x[1] - eps)) / (2 * eps)
            step, *_ = np.linalg.lstsq(np.stack([j0, j1], axis=1), -r, rcond=None)
            if not np.all(np.isfinite(step)):
                break
            scale = 1.0
            for _ in range(8):
                xn = x + scale * step
                rn = residual(*xn)
                if np.linalg.norm(rn) <= np.linalg.norm(r):
                    break
                scale *= 0.5
            else:
                break
            x, r = xn, rn
            if np.linalg.norm(scale * step) < 1e-12:
                break
        best = min(best, dist(*x))
    return best


def six_fiber_reference(triple, q, p1, p2):
    """Least max-chordal residual over the six curve points where one
    component meets its target: invert the cover, map each fiber point
    back with ``f_embedding``, compare with ``chordal``."""
    e1, e2 = halve_sum(q, p1), halve_sum(q, p2)
    best = np.inf
    for shift, target in zip((e1, p1, p2 - e2 + e1), triple):
        for r in th.invert_cover(target, q.lattice):
            f = ell.f_embedding([shift + r], q, p1, p2)[0]
            best = min(best, max(chordal(x, y) for x, y in zip(f, triple)))
    return best


def curve_setup(tau, seed):
    lat = Lattice(tau)
    rng = np.random.default_rng(seed)
    q, p1, p2 = (CurvePoint(rng.random() + rng.random() * tau, lat) for _ in range(3))
    e1, e2 = halve_sum(q, p1), halve_sum(q, p2)
    shifts = np.array([e1.lift, p1.lift, p2.lift - e2.lift + e1.lift])
    return lat, rng, q, p1, p2, shifts


def at_chordal_offset(a, d, phase):
    """A point of CP^1 at chordal distance ``d`` from ``a``."""
    u = a.vec / np.linalg.norm(a.vec)
    v = np.array([-np.conj(u[1]), np.conj(u[0])]) * np.exp(1j * phase)
    w = u * np.sqrt(1 - d * d) + v * d
    return ProjPoint(w[0], w[1])


def offset_triple(tri, d, rng):
    return [at_chordal_offset(a, d, rng.uniform(0, 2 * np.pi)) for a in tri]


@pytest.mark.parametrize("tau", REF_TAUS)
def test_distance_matches_six_fiber_reference(tau):
    lat, rng, q, p1, p2, _ = curve_setup(tau, seed=52)
    on_curve = [ell.f_embedding([CurvePoint(rng.random() + rng.random() * tau, lat)], q, p1, p2)[0]
                for _ in range(10)]
    near = [offset_triple(tri, 1e-6, rng) for tri in on_curve]
    loose = [[random_point(rng) for _ in range(3)] for _ in range(10)]
    for kind, triples in (("on", on_curve), ("near", near), ("random", loose)):
        for tri in triples:
            d = ell.distance_to_curve([tri], [q], [p1], [p2])[0]
            assert abs(d - six_fiber_reference(tri, q, p1, p2)) <= 1e-13, kind
            if kind == "on":
                assert d < 1e-12


def near_branch_curve_points(tau, seed):
    """Curve points at 0, 1e-9 and 1e-5 from a 2-torsion translate of each
    component's shift: that component's target sits at or next to a
    branch point, where its cover fiber collapses to one point."""
    lat, rng, q, p1, p2, shifts = curve_setup(tau, seed)
    pts = []
    for j, s in enumerate(shifts):
        t = lat.torsion_lifts()[j + 1]
        for delta in (0.0, 1e-9, 1e-5):
            pts.append(CurvePoint(s + t + delta * np.exp(2j * np.pi * rng.random()), lat))
    return lat, rng, q, p1, p2, pts


@pytest.mark.parametrize("tau", REF_TAUS)
def test_curve_offsets_near_branch_fibers(tau):
    lat, rng, q, p1, p2, pts = near_branch_curve_points(tau, seed=53)
    for p in pts:
        tri = ell.f_embedding([p], q, p1, p2)[0]
        assert ell.distance_to_curve([tri], [q], [p1], [p2])[0] < 1e-12
        for d, excluded in ((1e-8, True), (1e-7, True), (1e-5, False), (1e-4, False)):
            off = offset_triple(tri, d, rng)
            dist = ell.distance_to_curve([off], [q], [p1], [p2])[0]
            assert (dist < ell.CURVE_TOL) == excluded, (p, d)
            assert dist <= 2.5 * distance_reference(off, q, p1, p2), (p, d)


@pytest.mark.parametrize("tau", REF_TAUS)
def test_membership_decides_curve_offsets(tau):
    # The full path: coordinates -> sequence -> h_total -> distance, at
    # one curve point per component, with torsion offsets 0, 1e-9, 1e-5.
    lat, rng, q, p1, p2, pts = near_branch_curve_points(tau, seed=54)
    for p in pts[::4]:
        tri = ell.f_embedding([p], q, p1, p2)[0]
        for d, member in ((1e-8, False), (1e-7, False), (1e-5, True), (1e-4, True)):
            off = offset_triple(tri, d, rng)
            seq = ell.sequence_from_coordinates([q], [[p1, p2]], [off])[0]
            assert ell.membership_Hp([seq])[0] == member, (p, d)


@pytest.mark.parametrize("tau", REF_TAUS)
def test_stacked_membership_near_curve(tau):
    # One stack of on-curve triples, the same triples with one coordinate
    # moved by 1e-4 chordal, and far triples, decided by one membership_Hp
    # call, as the on-curve and far tuples of compute-space T2 2 are.
    lat, rng, q, p1, p2, _ = curve_setup(tau, seed=55)
    on_curve = ell.f_embedding([CurvePoint(rng.random() + rng.random() * tau, lat)
                                for _ in range(6)], q, p1, p2)
    moved = [list(t) for t in on_curve]
    for k, tri in enumerate(moved):
        tri[k % 3] = at_chordal_offset(tri[k % 3], 1e-4, rng.uniform(0, 2 * np.pi))
    dist = ell.distance_to_curve(moved, [q] * 6, [p1] * 6, [p2] * 6)
    assert np.all((dist > 1e-5) & (dist < 1e-3)), dist
    far = []
    while len(far) < 6:
        taus = [th.pi_cover(CurvePoint(rng.random() + rng.random() * tau, lat)) for _ in range(3)]
        if ell.distance_to_curve([taus], [q], [p1], [p2])[0] > 0.1:
            far.append(taus)
    tris = on_curve + moved + far

    def sequences(tris):
        return ell.sequence_from_coordinates([q] * len(tris), [[p1, p2]] * len(tris), tris)

    member = ell.membership_Hp(sequences(tris))
    assert member == [ell.membership_Hp(sequences([t]))[0] for t in tris]
    assert member == [False] * 6 + [True] * 12


@pytest.mark.parametrize("tau", REF_TAUS)
def test_membership_decides_as_the_distance_of_h_total(tau):
    # membership_Hp reads the class lifts without inverting h_total's
    # coordinates; it decides as the inverting route does, on curve and
    # 1e-4 chordal off it.
    lat, rng, q, p1, p2, _ = curve_setup(tau, seed=56)
    on_curve = ell.f_embedding([CurvePoint(rng.random() + rng.random() * tau, lat)
                                for _ in range(6)], q, p1, p2)
    moved = [list(t) for t in on_curve]
    for k, tri in enumerate(moved):
        tri[k % 3] = at_chordal_offset(tri[k % 3], 1e-4, rng.uniform(0, 2 * np.pi))
    tris = on_curve + moved
    seqs = ell.sequence_from_coordinates([q] * 12, [[p1, p2]] * 12, tris)
    dist = ell.distance_to_curve(ell.h_total(seqs), [q] * 12, [p1] * 12, [p2] * 12)
    assert ell.membership_Hp(seqs) == (dist >= ell.CURVE_TOL).tolist() == [False] * 6 + [True] * 6


def test_curve_membership_inverts_no_coordinate_it_made(monkeypatch):
    # compute-space T2 2 inverts the coordinates of its sequences and the
    # directions of its G2 rows, but neither its far-tuple rejection nor
    # membership_Hp inverts the cover images of lifts it holds.
    callers, original = [], th._invert_lifts

    def spy(a, c, lattice):
        callers.append({f.function for f in inspect.stack(0)[1:]})
        return original(a, c, lattice)

    monkeypatch.setattr(th, "_invert_lifts", spy)
    assert cli.run("compute-space", cli.RunConfig(seed=7, samples=8, extra=("T2", "2"))).ok
    assert len(callers) == 3
    assert not any("distance_to_curve" in names for names in callers)


@pytest.mark.parametrize("tau", REF_TAUS)
def test_f_embedding_matches_curve_point_arithmetic(monkeypatch, tau):
    # The array shifts reduce at each step as CurvePoint arithmetic does,
    # so the cover inputs and images are bit-identical to the per-point
    # form, also where a lattice coordinate wraps around 0 or 1.
    lat, rng, q, p1, p2, _ = curve_setup(tau, seed=56)
    e1, e2 = halve_sum(q, p1), halve_sum(q, p2)
    offsets = [0.0] + [s * d for s in (1e-12, 1e-13, -1e-13, -1e-12) for d in (1, tau, 1 + tau)]
    anchors = [0.0, e1.lift, p1.lift, p2.lift, p2.lift - e2.lift, p2.lift - e2.lift + e1.lift]
    ps = [CurvePoint(a + d, lat) for a in anchors for d in offsets]
    ps += [CurvePoint(rng.random() + rng.random() * tau, lat) for _ in range(20)]
    coords = np.array([lat.coords(x.lift) for p in ps for x in (p, p - e1, p - p1)])
    assert (coords < 1e-12).any() and (coords > 1 - 1e-12).any()

    lifts = [x.lift for p in ps for x in (p - e1, p - p1, p - p2 + e2 - e1)]
    want = th._cover_points(lifts, lat)
    seen = []

    def spy(z, lattice, original=th._cover_points):
        seen.append(np.array(z, dtype=complex))
        return original(z, lattice)

    monkeypatch.setattr(th, "_cover_points", spy)
    got = ell.f_embedding(ps, q, p1, p2)
    [z] = seen
    assert z.ravel().tobytes() == np.array(lifts, dtype=complex).tobytes()
    assert [(x.a, x.c) for tri in got for x in tri] == [(x.a, x.c) for x in want]


# ---------------------------------------------------------------------------
# The det-zero record of verify-elliptic-tables: det alpha = c theta_w(., t)
# with t = p, so det alpha has exactly one zero per period cell, at the
# modification point.  The argument principle is an independent oracle.

#: Samples per edge of the cell on which the ring oracle counts zeros.
CELL_EDGE_SAMPLES = 256


def ring_zero_count(alpha, centre, lat, size=1.0) -> tuple[float, float]:
    """Zeros of det alpha in the period cell centred at ``centre``, scaled
    by ``size``, by the argument principle (Delves and Lyness, Math. Comp.
    21, 1967): the winding number along the cell boundary,
    centre + size (+-1 +- tau)/2, and the largest phase step between
    samples (well below pi when resolved)."""
    corners = centre + size * np.array([-1 - lat.tau, 1 - lat.tau, 1 + lat.tau, -1 + lat.tau]) / 2
    t = np.arange(CELL_EDGE_SAMPLES) / CELL_EDGE_SAMPLES
    ring = (corners[:, None] + (np.roll(corners, -1) - corners)[:, None] * t).ravel()
    det = np.linalg.det(alpha(ring))
    steps = np.angle(np.roll(det, -1) / det)
    return float(steps.sum() / (2 * np.pi)), float(np.abs(steps).max())


def det_identity(reps, draws) -> np.ndarray:
    """The suite's det-zero residual of each representative, at 20 box
    points from each of the seeds 1..draws."""
    return ell.certify_rows(reps, boxes(reps[0].upstream.lattice, range(1, draws + 1)))[1]


def composed(terms1, terms2) -> tuple:
    """The term table of the matrix product of two term tables."""
    return tuple((e1 & 2 | e2 & 1, c1 * c2, f1 + f2)
                 for e1, c1, f1 in terms1 for e2, c2, f2 in terms2 if e1 & 1 == e2 >> 1)


@pytest.mark.parametrize("tau", REF_TAUS)
def test_every_row_counts_one_resolved_zero(tau):
    # Wherever the identity holds, the ring counts one resolved zero in the
    # cell centred at the point, and one in a cell a tenth that size.
    lat = Lattice(tau)
    rng = np.random.default_rng(7)
    for name, make in suites._elliptic_row_fixtures(lat):
        reps = ell.morphism_rep(*zip(*[make(rng) for _ in range(3)]))
        assert (det_identity(reps, 3) < 1e-12).all(), name
        for rep, size in itertools.product(reps, (1.0, 0.1)):
            count, max_step = ring_zero_count(evaluator(rep), rep.point.lift, lat, size)
            assert abs(count - 1) < 1e-9, name
            assert max_step < 0.5, name


@pytest.mark.parametrize("tau", REF_TAUS)
def test_det_record_is_the_identity_over_every_draw(tau):
    # The suite reads both certificates off one certify_rows call per row:
    # each record is the largest residual over every draw of every row,
    # bit for bit.  The certificate points come from the suite's generator
    # after every row's draws: 20 per draw, real parts drawn first.
    config = cli.RunConfig(tau=tau, seed=7, samples=4)
    rng = cli.suite_rng(config, "verify-elliptic-tables")
    lat = Lattice(tau)
    reps = [ell.morphism_rep(*zip(*[make(rng) for _ in range(4)]))
            for _, make in suites._elliptic_row_fixtures(lat)]
    zs = ((2 * rng.random(80) - 0.5) + (2 * rng.random(80) - 0.5) * lat.tau).reshape(4, 20)
    certs = [ell.certify_rows(r, zs) for r in reps]
    want = {"equivariance": max(eq.max() for eq, _ in certs),
            "det-zero-at-point": max(det.max() for _, det in certs)}
    records = cli.run("verify-elliptic-tables", config).records
    assert {r.name: r.observed for r in records if r.name in want} == want


def test_certificate_points_change_with_the_seed(monkeypatch):
    # One set of points per run, shared by every row's certify_rows call,
    # and drawn from the suite's own generator: seeds 7 and 8 differ.
    seen, certify = [], ell.certify_rows
    monkeypatch.setattr(ell, "certify_rows", lambda reps, zs: seen.append(zs) or certify(reps, zs))
    for seed in (7, 8):
        cli.run("verify-elliptic-tables", cli.RunConfig(seed=seed, samples=2))
    assert len(seen) == 2 * 17 and seen[0].shape == (2, 20)
    assert all(np.array_equal(zs, seen[0]) for zs in seen[:17])
    assert all(np.array_equal(zs, seen[17]) for zs in seen[17:])
    assert not np.isin(seen[0], seen[17]).any()


@pytest.mark.parametrize("tau", REF_TAUS)
def test_two_modifications_count_two_zeros(tau):
    # The composite of two modifications degenerates at both points, so the
    # cell centred at the first holds two zeros, its det class has degree 2
    # and the record must fail.
    lat = Lattice(tau)
    p1 = CurvePoint(0.37 + 0.61 * lat.tau, lat)
    p2 = CurvePoint(p1.lift + 0.3 + 0.2 * lat.tau, lat)
    rep1 = ell.morphism_rep([Decomposable(trivial_line(lat), trivial_line(lat))],
                            [p1], [ProjPoint(0.4 - 0.2j, 1)])[0]
    rep2 = ell.morphism_rep([rep1.result], [p2], [ProjPoint(1, 0.7j)])[0]
    both = dataclasses.replace(rep1, terms=composed(rep1.terms, rep2.terms), result=rep2.result)
    z = np.array([0.2 + 0.3j, -0.4 + 0.9j])
    assert np.allclose(evaluator(both)(z), evaluator(rep1)(z) @ evaluator(rep2)(z), rtol=1e-13)
    count, max_step = ring_zero_count(evaluator(both), both.point.lift, lat)
    assert abs(count - 2) < 1e-9 and max_step < 0.5
    assert det_identity([both], 1)[0] > 1e-6
    # A frame change alone has no zero: the count is 0, its det class has
    # degree 0, and the record fails too.
    frame = dataclasses.replace(rep1, terms=((0, 2.0, ()), (1, 1.0, ()), (2, 1.0, ()), (3, 1.0, ())),
                                result=rep1.upstream)
    assert abs(ring_zero_count(evaluator(frame), frame.point.lift, lat)[0]) < 1e-9
    assert det_identity([frame], 1)[0] > 1e-6


@pytest.mark.parametrize("tau", REF_TAUS)
def test_torsion_shifted_det_class_fails_every_row(tau):
    # E twisted by a square root of the 2-torsion class 1/2 moves the det
    # class to t + 1/2.  Then t is not p, and theta_w(., t + 1/2) fits no
    # multiple of det alpha, so each draw fails even with the point moved
    # along to keep t = p.
    lat = Lattice(tau)
    rng = np.random.default_rng(7)
    half = LineBundleClass(0, 0.25, lat)
    for name, make in suites._elliptic_row_fixtures(lat):
        reps = ell.morphism_rep(*zip(*[make(rng) for _ in range(20)]))
        shifted = [dataclasses.replace(r, upstream=r.upstream.tensor(half)) for r in reps]
        moved = [dataclasses.replace(r, point=CurvePoint(r.point.lift + 0.5, lat)) for r in shifted]
        assert (det_identity(shifted, 20) > 1e-6).all(), name
        assert (det_identity(moved, 20) > 1e-6).all(), name


# ---------------------------------------------------------------------------
# verify-elliptic-tables decides each row in one stacked pass: its fixtures
# drawn as the per-draw helpers drew them, and its equivariance residuals as
# the one-representative check computed them.


def bits(*zs) -> bytes:
    return np.array(zs, dtype=complex).tobytes()


@pytest.mark.parametrize("tau", REF_TAUS)
def test_row_fixtures_draw_as_the_reference(tau):
    # Per row, then per draw, as the suite draws: equal bundles, equal bits
    # of points and directions, and equal generator state at the end.
    lat = Lattice(tau)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    table, ref = suites._elliptic_row_fixtures(lat), reference_row_fixtures(lat)
    assert [name for name, _ in table] == [name for name, _ in ref]
    for (name, make), (_, ref_make) in zip(table, ref):
        for _ in range(20):
            (bundle, p, a), (ref_bundle, ref_p, ref_a) = make(rng), ref_make(ref_rng)
            assert bundle == ref_bundle, name
            assert bits(p.lift, a.a, a.c) == bits(ref_p.lift, ref_a.a, ref_a.c), name
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("tau", REF_TAUS)
@pytest.mark.parametrize("avoid", [1, 40])
def test_one_point_to_avoid_draws_as_the_reference(tau, avoid):
    # _torus_points(rng, lat, 1, *others) is the old one-point rejection
    # loop: equal bits and equal generator state.  Forty points to avoid
    # reject the first draw at 33 (default tau) and 95 of the 200 seeds.
    lat = Lattice(tau)
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        others = suites._curve_points(rng, lat, avoid)
        ref_others = suites._curve_points(ref, lat, avoid)
        [got] = suites._torus_points(rng, lat, 1, *others)
        assert bits(got.lift) == bits(reference_far_point(ref, lat, *ref_others).lift), seed
        assert rng.bit_generator.state == ref.bit_generator.state, seed


def reference_equivariance(rep, samples=20, seed=5):
    """The one-representative equivariance check the stacked one replaced,
    its products in Python's complex arithmetic."""
    lat = rep.upstream.lattice
    rng = np.random.default_rng(seed)
    z = (2 * rng.random(samples) - 0.5) + (2 * rng.random(samples) - 0.5) * lat.tau
    a_z, a_tau, a_one = (evaluator(rep)(w) for w in (z, z + lat.tau, z + 1.0))
    lhs = scalar_mat2_mul(a_tau, reference_factor(rep.result, z))
    rhs = scalar_mat2_mul(reference_factor(rep.upstream, z), a_z)
    scale = max(float(np.abs(rhs).max()), float(np.abs(a_z).max()), 1e-30)
    r1 = float(np.abs(lhs - rhs).max()) / scale
    r2 = float(np.abs(a_one - a_z).max()) / max(float(np.abs(a_z).max()), 1e-30)
    return max(r1, r2)


@pytest.mark.parametrize("tau", REF_TAUS)
def test_stacked_equivariance_matches_batches_of_one(tau):
    # Every suite row (two draws each), every row and frame fixture, and the
    # corrupted row: element i of both certificates of the stack is its
    # batch of one, bit for bit, and its equivariance residual is the
    # one-representative check's.
    lat = Lattice(tau)
    rng = np.random.default_rng(29)
    cases = [make(rng) for _, make in suites._elliptic_row_fixtures(lat) for _ in range(2)]
    cases += [(b, p, a) for _, b, p, a in all_row_fixtures(lat)]
    reps = ell.morphism_rep(*zip(*cases))
    reps.append(dataclasses.replace(reps[0], terms=tuple((e ^ 2, c, f) for e, c, f in reps[0].terms)))
    seeds = [k % 7 + 1 for k in range(len(reps))]
    zs = boxes(lat, seeds)
    stacked = ell.certify_rows(reps, zs)
    assert [x.shape for x in stacked] == [(len(reps),)] * 2 and stacked[0][-1] > 1e-2
    for i, (rep, seed) in enumerate(zip(reps, seeds)):
        alone = ell.certify_rows([rep], zs[i:i + 1])
        assert [x[i] for x in stacked] == [x[0] for x in alone]
        assert stacked[0][i] == reference_equivariance(rep, seed=seed)
    assert [x.shape for x in ell.certify_rows([], np.empty((0, 20)))] == [(0,)] * 2


@pytest.mark.parametrize("tau", REF_TAUS)
def test_automorphy_factors_match_the_per_bundle_reference(tau):
    # Both bundles of every suite row (two draws each) and of every row and
    # frame fixture, each at its own certificate points: the stacked
    # factors are the per-bundle ones, and a batch of one, bit for bit.
    lat = Lattice(tau)
    rng = np.random.default_rng(41)
    cases = [make(rng) for _, make in suites._elliptic_row_fixtures(lat) for _ in range(2)]
    cases += [(b, p, a) for _, b, p, a in all_row_fixtures(lat)]
    reps = ell.morphism_rep(*zip(*cases))
    bundles = [r.upstream for r in reps] + [r.result for r in reps]
    assert {type(b) for b in bundles} == {Decomposable, F2Twist, G2Twist}
    zs = boxes(lat, [k % 7 + 1 for k in range(len(bundles))])
    got = ell.automorphy_factors(bundles, zs)
    assert got.shape == (len(bundles), 20, 2, 2)
    for b, z, g in zip(bundles, zs, got):
        assert g.tobytes() == reference_factor(b, z).tobytes(), str(b)
        assert ell.automorphy_factors([b], z[None])[0].tobytes() == g.tobytes(), str(b)
    assert ell.automorphy_factors([], np.empty((0, 20))).shape == (0, 20, 2, 2)


@pytest.mark.parametrize("tau", REF_TAUS)
def test_evaluate_stack_is_batch_independent_at_kernel_scale(tau, monkeypatch):
    # One table per suite row at 1,024 points each: the theta kernel calls of
    # the stack pass 16,384 points or more, where numpy's temporary elision
    # used to reorder the kernel's last complex multiply.
    lat = Lattice(tau)
    rng = np.random.default_rng(37)
    reps = ell.morphism_rep(*zip(*[make(rng) for _, make in suites._elliptic_row_fixtures(lat)]))
    zs = [(2 * rng.random(1024) - 0.5) + (2 * rng.random(1024) - 0.5) * lat.tau for _ in reps]
    sizes = []

    def counted(kernel):
        def call(z, t):
            sizes.append(np.size(z))
            return kernel(z, t)
        return call

    for name in ("theta_raw", "theta_raw_deriv"):
        monkeypatch.setattr(th, name, counted(getattr(th, name)))
    stacked = ell.evaluate_stack([r.terms for r in reps], zs, lat)
    assert max(sizes) >= 16384
    monkeypatch.undo()
    for rep, z, got in zip(reps, zs, stacked):
        assert np.array_equal(got.view(np.uint64), evaluator(rep)(z).view(np.uint64)), rep.row


@pytest.mark.parametrize("tau", REF_TAUS)
@pytest.mark.parametrize("draws", [1, 5])
def test_morphism_rep_kernel_calls_do_not_grow_with_the_stack(tau, draws, monkeypatch):
    # Three kernel calls for a stack of any size: theta~ of the ss forms (3
    # rows, at q - p and p - q), theta of the Oq and OD forms (4 rows, theta_t
    # and theta_0), and the image check of _invert_lifts (the 2 G2 rows off
    # the branch points, two values each).  A call per row would keep every bit.
    lat = Lattice(tau)
    rng = np.random.default_rng(3)
    cases = [make(rng) for _, make in suites._elliptic_row_fixtures(lat) for _ in range(draws)]
    ell.morphism_rep(*zip(*cases))  # warm-up: the per-lattice constants
    sizes = []
    for name in ("theta_raw", "theta_raw_deriv"):
        def spy(z, t, original=getattr(th, name)):
            sizes.append(np.size(z))
            return original(z, t)
        monkeypatch.setattr(th, name, spy)
    ell.morphism_rep(*zip(*cases))
    assert sizes == [6 * draws, 8 * draws, 4 * draws]


# ---------------------------------------------------------------------------
# Reference: the closure evaluators that the term tables replaced, one
# lambda per matrix entry and the frame multiplied in pointwise.


def _ref_matfn(e00, e01, e10, e11):
    def f(z):
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = e00(z)
        out[..., 0, 1] = e01(z)
        out[..., 1, 0] = e10(z)
        out[..., 1, 1] = e11(z)
        return out

    return f


def _ref_const(v):
    return lambda z: np.full(np.asarray(z).shape, v, dtype=complex)


_REF_ZERO, _REF_ONE = _ref_const(0.0), _ref_const(1.0)


def _ref_theta_w(z, w, lat):
    """theta_w, exactly 0 at z = w: its value on w + Lambda, as the term
    tables define it."""
    return np.where(z == w, 0, th.theta_w(z, w, lat))


def _ref_compose(left, right):
    if left is None or right is None:
        return right if left is None else left
    return lambda z: left(z) @ right(z)


def reference_evaluator(e, p, a):
    """(row, evaluator) of the modification of ``e`` at ``p`` toward ``a``,
    built as closures the way ``morphism_rep`` built them before, with
    theta_w exactly 0 at its own point."""
    lat, pt = e.lattice, p.lift
    i_pi = 1j / np.pi
    if isinstance(e, F2Twist):
        if a.is_zero_dir():
            return "F2:[1:0]", _ref_matfn(_REF_ONE, lambda z: g_theta_w(z, pt, lat), _REF_ZERO,
                                          lambda z: _ref_theta_w(z, pt, lat))
        lam_p = a.a / a.c - 2 * complex(g_tilde_w(0.0, 0.5, lat))
        c = pt - 0.5
        ct = c - lat.tau
        return "F2:[lam:1]", _ref_matfn(
            lambda z: (1 - lam_p) * theta_tilde_w(z, ct, lat)
            - i_pi * theta_tilde_w_deriv(z, ct, lat),
            lambda z: lam_p * theta_tilde_w(z, c, lat) + i_pi * theta_tilde_w_deriv(z, c, lat),
            lambda z: -theta_tilde_w(z, ct, lat),
            lambda z: theta_tilde_w(z, c, lat),
        )
    if isinstance(e, G2Twist):
        phi = None
        if abs(e.point_lift - pt) > 1e-14:
            phi = _ref_matfn(_REF_ONE, _REF_ZERO, _REF_ZERO,
                             _ref_const(np.exp(1j * np.pi * (e.point_lift - pt))))
        a_t = a if phi is None else transport_direction(phi(np.asarray(pt)), a)
        idx = next((i for i, b in enumerate(th.branch_points(lat), start=1)
                    if chordal(a_t, b) < 1e-8), None)
        if idx is not None:
            zi = lat.torsion_lifts()[idx - 1]
            c = pt - 2 * zi + 0.5
            ct = c - lat.tau
            ei = np.exp(2j * np.pi * zi)
            return f"G2:a{idx}", _ref_compose(phi, _ref_matfn(
                lambda z: theta_tilde_w(z, c, lat),
                lambda z: -i_pi * theta_tilde_w_deriv(z, c, lat),
                lambda z: ei * theta_tilde_w(z, ct, lat),
                lambda z: ei * (theta_tilde_w(z, ct, lat) - i_pi * theta_tilde_w_deriv(z, ct, lat)),
            ))
        w = lat.reduce_centered(th.invert_cover(a_t, lat)[0].lift)
        e2w = np.exp(2j * np.pi * w)
        return "G2:good", _ref_compose(phi, _ref_matfn(
            lambda z: theta_tilde_w(z, pt - 2 * w + 0.5, lat),
            lambda z: theta_tilde_w(z, pt + 2 * w + 0.5, lat),
            lambda z: e2w * theta_tilde_w(z, pt - 2 * w + 0.5 - lat.tau, lat),
            lambda z: theta_tilde_w(z, pt + 2 * w + 0.5 - lat.tau, lat) / e2w,
        ))
    swap = e.l1.degree < e.l2.degree
    u1, m = (e.l2, e.l1) if swap else (e.l1, e.l2)
    lp = u1.tensor(m.inverse())
    k, t = lp.degree, lp.lift
    trivial = k == 0 and lat.distance(t, 0.0) < ell.CLASS_TOL
    own = k == 1 and lat.distance(t, pt) < ell.CLASS_TOL
    phi = None
    if trivial or own:
        n = round((t - pt if own else t).imag / lat.tau.imag)
        if n:
            phi = _ref_matfn(lambda z: np.exp(2j * np.pi * n * z), _REF_ZERO, _REF_ZERO, _REF_ONE)
    if swap:
        phi = _ref_compose(_ref_matfn(_REF_ZERO, _REF_ONE, _REF_ONE, _REF_ZERO), phi)
    a_t = a if phi is None else transport_direction(phi(np.asarray(pt)), a)

    def theta_p(z):
        return _ref_theta_w(z, pt, lat)

    pivot = _ref_matfn(_REF_ONE, _REF_ZERO, _REF_ZERO, theta_p)
    counter = _ref_matfn(theta_p, _REF_ZERO, _REF_ZERO, _REF_ONE)

    def finish(row, mat):
        return row, _ref_compose(phi, mat)

    if trivial:
        if a_t.is_zero_dir():
            return finish("OO:[1:0]", pivot)
        return finish("OO:[lam:1]", _ref_matfn(_ref_const(a_t.a / a_t.c), theta_p, _REF_ONE, _REF_ZERO))
    if k == 0:
        q_lift = pt - t
        if a_t.is_zero_dir():
            return finish("ss:[1:0]", pivot)
        if a_t.is_infinity_dir():
            return finish("ss:[0:1]", counter)
        sa = a_t.a / complex(theta_tilde_w(q_lift - pt, 0.5 - lat.tau, lat))
        sb = a_t.c / complex(theta_tilde_w(pt - q_lift, 0.5 - lat.tau, lat))
        e2t = np.exp(2j * np.pi * t)
        return finish("ss:[x:y]", _ref_matfn(
            lambda z: sa * theta_tilde_w(z, pt + t + 0.5 - lat.tau, lat),
            lambda z: -sa * e2t * theta_tilde_w(z, pt + t + 0.5, lat),
            lambda z: sb * theta_tilde_w(z, pt - t + 0.5 - lat.tau, lat),
            lambda z: -sb * theta_tilde_w(z, pt - t + 0.5, lat),
        ))
    if own:
        if a_t.is_zero_dir():
            return finish("Op:[1:0]", pivot)
        if a_t.is_infinity_dir():
            return finish("Op:[0:1]", counter)
        scale = a_t.c * complex(-g_theta_w(0.0, 0.0, lat)) / a_t.a
        return finish("Op:[x:y]", _ref_matfn(theta_p, lambda z: -g_theta_w(z, pt, lat),
                                             _REF_ZERO, _ref_const(scale)))
    name = "OD" if k > 1 else "Oq"
    if a_t.is_zero_dir():
        return finish(f"{name}:[1:0]", pivot)
    denom = complex(th.theta_w(pt, t, lat))
    if k > 1:
        denom *= complex(th.theta_w(pt, 0.0, lat)) ** (k - 1)
    lam = (a_t.a / a_t.c) / denom

    def theta_product(z):
        acc = _ref_theta_w(z, t, lat)
        if k > 1:
            acc = acc * _ref_theta_w(z, 0.0, lat) ** (k - 1)
        return lam * acc

    return finish(f"{name}:[lam:1]", _ref_matfn(theta_p, theta_product, _REF_ZERO, _REF_ONE))


@pytest.mark.parametrize("tau", REF_TAUS)
def test_term_tables_match_closure_reference(tau):
    # Every row of the suite's fixtures (ten draws each) and every frame
    # fixture, at 64 points of a doubled fundamental box and at the
    # modification point itself, within 1e-14 of each matrix's largest entry.
    lat = Lattice(tau)
    rng = np.random.default_rng(19)
    cases = [(name, *make(rng)) for name, make in suites._elliptic_row_fixtures(lat)
             for _ in range(10)]
    cases += all_row_fixtures(lat)
    box = (2 * rng.random(64) - 0.5) + (2 * rng.random(64) - 0.5) * tau
    for name, bundle, p, a in cases:
        rep = ell.morphism_rep([bundle], [p], [a])[0]
        row, ref = reference_evaluator(bundle, p, a)
        assert rep.row == row, name
        for z in (np.append(box, p.lift), np.asarray(p.lift)):
            want = ref(z)
            err = np.abs(evaluator(rep)(z) - want).max(axis=(-2, -1))
            assert (err / np.abs(want).max(axis=(-2, -1))).max() <= 1e-14, name


@pytest.mark.parametrize("tau", REF_TAUS + (0.21 + 2.5j,))
def test_counter_row_in_a_shifted_frame_vanishes_exactly_at_its_point(tau):
    # theta_p is 0 at z = p by definition, so the counter row's theta_p
    # entry there is exactly 0, not its rounding times the frame's
    # exp(2 pi i shift p), whose modulus grows like exp(2 pi |shift| Im p).
    lat = Lattice(tau)
    seen = []
    for name, bundle, p, a in all_row_fixtures(lat):
        rep = ell.morphism_rep([bundle], [p], [a])[0]
        if rep.row == "Op:[0:1]" and "shift" in name:
            [entry] = [e for e, _, factors in rep.terms if (ell.TH, p.lift) in factors]
            value = ell.evaluate_stack([rep.terms], [p.lift], lat)[0]
            assert value.flat[entry] == 0 and np.abs(value).max() == 1, name
            seen.append(name)
    assert seen == ["shift-Op+tau:[0:1]", "shift-Op-2tau:[0:1]",
                    "swap-shift-Op+tau:[1:0]", "swap-shift-Op-2tau:[1:0]"]


@pytest.mark.parametrize("tau", REF_TAUS)
def test_evaluate_stack_matches_batches_of_one(tau):
    # Every row of the closure-reference fixtures in one stack, each table
    # at its own points: ragged 1-D arrays (some empty), a scalar and a 2-D
    # array, within 1e-13 of each matrix's largest entry.
    lat = Lattice(tau)
    rng = np.random.default_rng(23)
    cases = [(name, *make(rng)) for name, make in suites._elliptic_row_fixtures(lat)
             for _ in range(3)]
    cases += all_row_fixtures(lat)
    reps = ell.morphism_rep(*zip(*[(b, p, a) for _, b, p, a in cases]))
    box = (2 * rng.random(40) - 0.5) + (2 * rng.random(40) - 0.5) * tau
    zs = [box[i % 5:i % 5 + i % 7] for i in range(len(reps))]
    zs[1], zs[2] = np.asarray(reps[1].point.lift), box[:12].reshape(3, 4)
    assert {z.size for z in zs} >= {0, 1, 6}
    stacked = ell.evaluate_stack([r.terms for r in reps], zs, lat)
    for (name, *_), rep, z, got in zip(cases, reps, zs, stacked):
        want = evaluator(rep)(z)
        assert got.shape == want.shape == z.shape + (2, 2), name
        if z.size:
            err = np.abs(got - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))
            assert err.max() <= 1e-13, name
    assert ell.evaluate_stack([], [], lat) == []


def per_table_stack(tables, zs, lattice):
    """``evaluate_stack`` as it was before grouping by shape: the kernel
    arguments and the term sums are formed one table at a time."""
    if not tables:
        return []
    zs = [np.asarray(z, dtype=complex) for z in zs]
    taus = {ell.TH: lattice.tau, ell.DTH: lattice.tau, ell.TT: 2 * lattice.tau,
            ell.DTT: 2 * lattice.tau}
    cols, args = [], {}
    for terms, z in zip(tables, zs):
        col = {}
        for kind, param in (f for _, _, factors in terms for f in factors):
            col.setdefault(kind, {}).setdefault(param, len(col[kind]))
        cols.append(col)
        for kind, c in col.items():
            w, zc = np.array(list(c)), z[..., None]
            arg = ell.TWO_PI_I * w * zc if kind == ell.EXP else zc - 0.5 * (1 + taus[kind]) - w
            args.setdefault(kind, []).append(arg)
    vals = {}
    for kind, parts in args.items():
        flat = np.concatenate([x.ravel() for x in parts])
        kernel = th.theta_raw_deriv if kind in (ell.DTH, ell.DTT) else th.theta_raw
        flat = np.exp(flat) if kind == ell.EXP else kernel(flat, taus[kind]) if flat.size else flat
        ends = itertools.accumulate(x.size for x in parts)
        vals[kind] = iter([flat[e - x.size:e].reshape(x.shape) for x, e in zip(parts, ends)])
    out = []
    for terms, z, col in zip(tables, zs, cols):
        v_t = {kind: next(vals[kind]) for kind in col}
        m = np.zeros(z.shape + (4,), dtype=complex)
        for entry, coef, factors in terms:
            v = coef
            for kind, param in factors:
                v = v * v_t[kind][..., col[kind][param]]
            m[..., entry] += v
        out.append(m.reshape(z.shape + (2, 2)))
    return out


#: The term table of the identity matrix.
IDENTITY = ((0, 1.0, ()), (3, 1.0, ()))


def shuffled_row_stack(lat, seed):
    """The term tables of every suite row fixture (three draws each), every
    row and frame fixture, and the frames of swaps, shifts and a G2 scale,
    shuffled; with points that are ragged 1-D arrays (some empty), a
    scalar and a 2-D array."""
    rng = np.random.default_rng(seed)
    cases = [(name, *make(rng)) for name, make in suites._elliptic_row_fixtures(lat)
             for _ in range(3)]
    cases += all_row_fixtures(lat)
    tables = [r.terms for r in ell.morphism_rep(*zip(*[(b, p, a) for _, b, p, a in cases]))]
    frames = ((1, 1.0, False), (-2, 1.0, True), (0, 1.0, True), (0, 0.3 - 0.8j, False))
    tables += [ell._framed(IDENTITY, *frame) for frame in frames]
    tables = [tables[i] for i in rng.permutation(len(tables))]
    box = (2 * rng.random(40) - 0.5) + (2 * rng.random(40) - 0.5) * lat.tau
    zs = [box[i % 5:i % 5 + i % 7] for i in range(len(tables))]
    zs[1], zs[2] = np.asarray(box[7]), box[:12].reshape(3, 4)
    return tables, zs


@pytest.mark.parametrize("tau", REF_TAUS)
def test_grouped_evaluation_is_bit_exact(tau):
    # Grouping by shape keeps every kernel argument, product and sum as the
    # per-table loop forms them, so the matrices agree bit for bit.
    lat = Lattice(tau)
    tables, zs = shuffled_row_stack(lat, seed=31)
    assert {z.size for z in zs} >= {0, 1, 6, 12} and {z.ndim for z in zs} == {0, 1, 2}
    got = ell.evaluate_stack(tables, zs, lat)
    want = per_table_stack(tables, zs, lat)
    assert len(got) == len(want) == len(tables)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    back = ell.evaluate_stack(tables[::-1], zs[::-1], lat)
    assert all(np.array_equal(g, w) for g, w in zip(back, got[::-1]))


def test_evaluate_stack_evaluates_each_distinct_column_once(monkeypatch):
    # One kernel call per kind, at each table's distinct (kind, param)
    # columns only: a factor repeated within a table is evaluated once.
    lat = Lattice(REF_TAUS[1])
    tables, zs = shuffled_row_stack(lat, seed=37)
    kernels = {ell.TH: ("theta_raw", lat.tau), ell.DTH: ("theta_raw_deriv", lat.tau),
               ell.TT: ("theta_raw", 2 * lat.tau), ell.DTT: ("theta_raw_deriv", 2 * lat.tau)}
    want, slots = Counter(), 0
    for terms, z in zip(tables, zs):
        factors = [f for _, _, fs in terms for f in fs if f[0] != ell.EXP]
        slots += len(factors) * np.size(z)
        for kind, _ in set(factors):
            want[kernels[kind]] += np.size(z)
    assert sum(want.values()) < slots
    points, calls = Counter(), Counter()
    for name in ("theta_raw", "theta_raw_deriv"):
        def spy(z, tau, name=name, original=getattr(th, name)):
            points[name, tau] += np.size(z)
            calls[name, tau] += 1
            return original(z, tau)
        monkeypatch.setattr(th, name, spy)
    ell.evaluate_stack(tables, zs, lat)
    assert points == want
    assert calls == Counter(dict.fromkeys(want, 1))


EMPTY_STACKS = {
    "evaluate_stack": lambda q: ell.evaluate_stack([], [], None),
    "morphism_rep": lambda q: ell.morphism_rep([], [], []),
    "mss_coordinate": lambda q: ell.mss_coordinate([]),
    "chain_lines": lambda q: ell.factor_lines(ell.chain_factors([])),
    "h_total": lambda q: ell.h_total([]),
    "membership_Hp": lambda q: ell.membership_Hp([]),
    "f_embedding": lambda q: ell.f_embedding([], q, q + q, q + q + q),
    "distance_to_curve": lambda q: ell.distance_to_curve([], [], [], []),
    "base_from_coordinate": lambda q: ell.base_from_coordinate([], []),
    "sequence_from_coordinates": lambda q: ell.sequence_from_coordinates([], [], []),
}


@pytest.mark.parametrize("name", sorted(EMPTY_STACKS))
def test_stacked_builders_accept_an_empty_stack(name):
    got = EMPTY_STACKS[name](CurvePoint(0.13 + 0.71 * LAT.tau, LAT))
    if name == "distance_to_curve":
        assert isinstance(got, np.ndarray) and got.shape == (0,)
    else:
        assert got == []


LATTICE_CONSTANTS = (th.branch_points, th._cover_moebius, ell._row_constants, Lattice._reduced_basis)


def constant_bits(value) -> bytes:
    """The exact bits of a per-lattice constant: its complex numbers in order."""
    def flat(v):
        if isinstance(v, ProjPoint):
            return [v.a, v.c]
        if isinstance(v, tuple):
            return [x for u in v for x in flat(u)]
        return np.ravel(v).tolist()
    return np.array(flat(value), dtype=complex).tobytes()


def test_per_lattice_constants_are_one_cache_entry_per_tau():
    # Equal lattices, built apart, share one entry of each cache.
    for constant in LATTICE_CONSTANTS:
        assert constant(Lattice(REF_TAUS[0])) is constant(Lattice(REF_TAUS[0]))
    # An entry of one tau does not leak into another: tau1, tau2 and tau1
    # again read what a cleared cache computes afresh.
    order = (REF_TAUS[0], REF_TAUS[1], REF_TAUS[0])
    cached = [[constant_bits(c(Lattice(t))) for c in LATTICE_CONSTANTS] for t in order]
    for constant in LATTICE_CONSTANTS:
        constant.cache_clear()
    fresh = {t: [constant_bits(c(Lattice(t))) for c in LATTICE_CONSTANTS] for t in REF_TAUS}
    assert cached == [fresh[t] for t in order]
    assert fresh[REF_TAUS[0]] != fresh[REF_TAUS[1]]


# ---------------------------------------------------------------------------
# Stacked passes: element i of a stack is a batch of one of draw i, and the
# suites draw every input first in the order of a per-draw loop.


def close(x, y, tol=1e-12):
    """Bundles, marked bundles and points equal up to ``tol`` in every lift."""
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and all(close(getattr(x, f.name), getattr(y, f.name), tol)
                                          for f in dataclasses.fields(x))
    if isinstance(x, (complex, float)):
        return abs(x - y) <= tol
    return x == y


def same_sequence(s, t):
    return (close(s.base, t.base) and [r.row for r in s.reps] == [r.row for r in t.reps]
            and all(close(r.result, u.result) for r, u in zip(s.reps, t.reps))
            and all(chordal(x, y) < 1e-12 for x, y in zip(*ell.factor_lines(ell.chain_factors([s.reps, t.reps])))))


def stacked_inputs(lat, seed):
    """Bases, points and lines of a stack of two-step draws: random and
    branch-value coordinates (F2 bases), the forced bad lines [1:0] and
    [0:1], and a second line whose G2 step meets a branch value."""
    rng = np.random.default_rng(seed)
    tau = lat.tau
    bp = th.branch_points(lat)
    q, p1, p2 = (CurvePoint(x + y * tau, lat) for x, y in ((0.13, 0.71), (0.52, 0.24), (0.86, 0.58)))
    coords = [th.pi_cover(CurvePoint(rng.random() + rng.random() * tau, lat)) for _ in range(4)]
    coords += [bp[0], bp[2], at_chordal_offset(bp[1], 1e-9, 0.7), ProjPoint(0, 1)]
    bases = ell.base_from_coordinate(coords, [q] * len(coords))
    lines = [[random_point(rng), random_point(rng)] for _ in bases]
    lines[1] = [ProjPoint(1, 0), ProjPoint(1, 0)]
    lines[2] = [ProjPoint(0, 1), ProjPoint(1, 0)]
    # Second line of draw 3 chosen so its step on G2 is toward bp[3] (row G2:a4).
    rep1 = ell.morphism_rep([bases[3].bundle], [p1], lines[3][:1])[0]
    scale = np.exp(1j * np.pi * (rep1.result.point_lift - p2.lift))  # the G2 frame's diagonal
    lines[3][1] = ProjPoint(*(evaluator(rep1)(np.asarray(p2.lift)) @ [bp[3].a, scale * bp[3].c]))
    return rng, q, p1, p2, coords, bases, lines


@pytest.mark.parametrize("tau", REF_TAUS)
def test_stacked_stages_match_batches_of_one(tau):
    lat = Lattice(tau)
    rng, q, p1, p2, coords, bases, lines = stacked_inputs(lat, seed=61)
    assert [type(b.bundle) for b in bases[4:7]] == [F2Twist] * 3
    for tau0, base in zip(coords, bases):
        assert close(base, ell.base_from_coordinate([tau0], [q])[0])

    n = len(bases)
    by_lines = ell._sequences(bases, [[p1, p2]] * n, lines)
    assert by_lines[3].reps[1].row == "G2:a4"
    assert {s.reps[0].row for s in by_lines[1:3]} == {"ss:[1:0]", "ss:[0:1]"}
    taus = [[th.pi_cover(CurvePoint(rng.random() + rng.random() * lat.tau, lat))
             for _ in range(2)] for _ in bases]
    taus[0] = [th.branch_points(lat)[1], ProjPoint(1, 0)]
    by_coords = ell.sequence_from_coordinates([q] * n, [[p1, p2]] * n,
                                              [[c, *t] for c, t in zip(coords, taus)])
    for i in range(n):
        alone = ell._sequences([bases[i]], [[p1, p2]], [lines[i]])[0]
        assert same_sequence(by_lines[i], alone)
        alone = ell.sequence_from_coordinates([q], [[p1, p2]], [[coords[i], *taus[i]]])[0]
        assert same_sequence(by_coords[i], alone)

    # Ragged lengths 0, 1 and 2 in one stack, with an on-curve tuple.
    on = ell.f_embedding([CurvePoint(0.37 + 0.61 * lat.tau, lat)], q, p1, p2)[0]
    on_seq = ell.sequence_from_coordinates([q], [[p1, p2]], [on])[0]
    seqs = [*ell._sequences(bases[:1], [[]], [[]]), *by_coords[:4], on_seq,
            ell._sequences(bases[5:6], [[p2]], [lines[5][:1]])[0], *by_lines]
    stacked_h = ell.h_total(seqs)
    member = ell.membership_Hp(seqs)
    assert not member[5] and member[0] and member[6]
    for seq, h, m in zip(seqs, stacked_h, member):
        assert max(chordal(x, y) for x, y in zip(h, ell.h_total([seq])[0])) < 1e-12
        assert m == ell.membership_Hp([seq])[0]

    two = [s for s in seqs if len(s.reps) == 2]
    triples = [h for h in stacked_h if len(h) == 3] + [on, offset_triple(on, 1e-7, rng)]
    qs, firsts, seconds = ([q] * len(triples), [p1] * len(triples), [p2] * len(triples))
    dist = ell.distance_to_curve(triples, qs, firsts, seconds)
    assert dist.shape == (len(two) + 2,) and dist[-2] < 1e-12
    for tri, d in zip(triples, dist):
        assert abs(d - ell.distance_to_curve([tri], [q], [p1], [p2])[0]) <= 1e-13


def leaf_bits(x):
    """``x`` with the numbers of its dataclass fields and tuples as bytes,
    so that equality is bit for bit, signed zeros included."""
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(leaf_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple(leaf_bits(y) for y in x)
    return bits(x) if isinstance(x, (complex, float)) else x


@pytest.mark.parametrize("tau", REF_TAUS)
def test_stacked_morphism_rows_match_batches_of_one(tau):
    # Every suite row (two draws each) shuffled in with every row and frame
    # fixture: element i of the stack, and of the reversed stack, is its
    # batch of one, bit for bit in its row, result and terms.
    lat = Lattice(tau)
    rng = np.random.default_rng(43)
    cases = [(name, *make(rng)) for name, make in suites._elliptic_row_fixtures(lat)
             for _ in range(2)]
    cases += all_row_fixtures(lat)
    cases = [cases[i] for i in rng.permutation(len(cases))]
    stacked = ell.morphism_rep(*zip(*[(b, p, a) for _, b, p, a in cases]))
    back = ell.morphism_rep(*zip(*[(b, p, a) for _, b, p, a in cases[::-1]]))[::-1]
    z = np.array([0.31 + 0.17j, -0.42 + 0.63j])
    for (name, b, p, a), rep, rev in zip(cases, stacked, back):
        alone = ell.morphism_rep([b], [p], [a])[0]
        assert rep.row == alone.row and close(rep.result, alone.result), name
        assert np.array_equal(evaluator(rep)(z), evaluator(alone)(z)), name
        for other in (alone, rev):
            assert other.row == rep.row, name
            assert leaf_bits(other.result) == leaf_bits(rep.result), name
            assert leaf_bits(other.terms) == leaf_bits(rep.terms), name
    assert ell.morphism_rep([], [], []) == []


def test_morphism_rep_changes_frames_in_closed_form(monkeypatch):
    # Each frame is monomial, so no frame is evaluated and no direction is
    # solved for: every row and frame fixture, and every suite row, at both
    # lattices, without evaluate_stack or transport_directions.
    def forbidden(*args):
        raise AssertionError("morphism_rep evaluated or inverted a frame")

    monkeypatch.setattr(ell, "evaluate_stack", forbidden)
    monkeypatch.setattr(ell, "transport_directions", forbidden)
    rng = np.random.default_rng(47)
    for lat in map(Lattice, REF_TAUS):
        cases = [make(rng) for _, make in suites._elliptic_row_fixtures(lat)]
        cases += [(b, p, a) for _, b, p, a in all_row_fixtures(lat)]
        reps = ell.morphism_rep(*zip(*cases))
        assert all(isinstance(r, ell.MorphismRep) for r in reps)


def test_g2_row_at_its_own_point_keeps_its_direction_bits(monkeypatch):
    # The frame of G2(p) modified at p is the identity, so the direction
    # reaches the fiber inversion as given: a -0.0 component stays -0.0,
    # which a solve through the identity would make +0.0.
    p = CurvePoint(0.393 + 0.544 * LAT.tau, LAT)
    a = ProjPoint(1, complex(0.25, -0.0))
    assert bits(a.c) == bits(complex(0.25, -0.0))
    seen = []

    def spy(xs, ys, lattice, original=th._invert_lifts):
        seen.append(bits(*xs, *ys))
        return original(xs, ys, lattice)

    monkeypatch.setattr(th, "_invert_lifts", spy)
    assert ell.morphism_rep([G2Twist(p.lift, O)], [p], [a])[0].row == "G2:good"
    assert seen == [bits(a.a, a.c)]


@pytest.mark.parametrize("tau", REF_TAUS)
def test_chain_lines_match_the_scalar_readers(tau):
    lat = Lattice(tau)
    rng, q, p1, p2, _, bases, lines = stacked_inputs(lat, seed=62)
    p3 = CurvePoint(0.27 + 0.09 * lat.tau, lat)
    n = len(bases)
    two = ell._sequences(bases, [[p1, p2]] * n, lines)
    three = ell._sequences(bases, [[p1, p2, p3]] * n, [ls + [random_point(rng)] for ls in lines])
    one = ell._sequences(bases, [[p2]] * n, [ls[:1] for ls in lines])
    # Lengths 0-3 interleaved in one stack.
    chains = [()] + [s.reps for trio in zip(three, one, two) for s in trio] + [()]
    rows = {r.row.split(":")[0] for reps in chains for r in reps}
    assert {"F2", "G2", "ss"} <= rows
    stacked = ell.factor_lines(ell.chain_factors(chains))
    assert [len(x) for x in stacked] == [len(c) for c in chains]
    for reps, got in zip(chains, stacked):
        evaluators = [evaluator(r) for r in reps]
        for want in (raw_directions(reps), chain_directions(evaluators, [r.point.lift for r in reps])):
            assert all(chordal(x, y) <= 1e-12 for x, y in zip(got, want))
        # A stack reads each member as a batch of one does.
        assert all(chordal(x, y) <= 1e-14 for x, y in zip(got, ell.factor_lines(ell.chain_factors([reps]))[0]))


def ragged_sequences(lat, seed):
    """Sequences of lengths 0-3 from both builders on the bases of
    ``stacked_inputs``, each builder's in one ragged stack."""
    rng, q, p1, p2, coords, bases, lines = stacked_inputs(lat, seed)
    pts = [p1, p2, CurvePoint(0.27 + 0.09 * lat.tau, lat)]
    n = [k % 4 for k in range(len(bases))]
    lines = [(ls + [random_point(rng)])[:k] for ls, k in zip(lines, n)]
    taus = [[th.pi_cover(CurvePoint(rng.random() + rng.random() * lat.tau, lat)) for _ in range(k)]
            for k in n]
    taus[1][0] = th.branch_points(lat)[2]
    return (ell._sequences(bases, [pts[:k] for k in n], lines)
            + ell.sequence_from_coordinates([q] * len(bases), [pts[:k] for k in n],
                                            [[c, *t] for c, t in zip(coords, taus)]))


@pytest.mark.parametrize("tau", REF_TAUS)
def test_sequences_keep_what_their_builders_evaluated(tau):
    lat = Lattice(tau)
    seqs = ragged_sequences(lat, seed=63)
    assert sorted({len(s.reps) for s in seqs}) == [0, 1, 2, 3]
    for seq, factors in zip(seqs, ell.chain_factors([s.reps for s in seqs])):
        assert seq.factors.shape == (len(seq.reps),) * 2 + (2, 2)
        assert np.array_equal(seq.factors, factors)
        b = seq.base
        assert seq.mark.terms == ell.morphism_rep([b.bundle], [b.q], [b.line])[0].terms
        at_points = ell.evaluate_stack([seq.mark.terms], [[p.lift for p in seq.points]], lat)[0]
        assert seq.mark_values.shape == (len(seq.reps), 2, 2)
        assert np.array_equal(seq.mark_values, at_points)


@pytest.mark.parametrize("tau", REF_TAUS)
def test_sequence_from_coordinates_inverts_h_total(tau):
    # One ragged stack, n = 0..3, on the coordinates of ``stacked_inputs``
    # (branch values among them give F2 bases), with a branch value as a
    # line coordinate: h_total returns the coordinates, and each element
    # is its batch of one bit for bit.
    lat = Lattice(tau)
    rng, q, p1, p2, base_coords, _, _ = stacked_inputs(lat, seed=65)
    pts = [p1, p2, CurvePoint(0.27 + 0.09 * lat.tau, lat)]
    n = [k % 4 for k in range(len(base_coords))]
    coords = [[c] + [th.pi_cover(CurvePoint(rng.random() + rng.random() * lat.tau, lat)) for _ in range(k)]
              for c, k in zip(base_coords, n)]
    coords[1][1] = th.branch_points(lat)[3]
    seqs = ell.sequence_from_coordinates([q] * len(n), [pts[:k] for k in n], coords)
    assert [type(s.base.bundle) for s in seqs[4:7]] == [F2Twist] * 3
    stacked = ell.h_total(seqs)
    for seq, h, c, k in zip(seqs, stacked, coords, n):
        assert len(h) == k + 1 and max(chordal(x, y) for x, y in zip(h, c)) < 1e-7
        [alone] = ell.sequence_from_coordinates([q], [pts[:k]], [c])
        assert seq.factors.tobytes() == alone.factors.tobytes()
        assert seq.mark_values.tobytes() == alone.mark_values.tobytes()
        assert [(x.a, x.c) for x in h] == [(x.a, x.c) for x in ell.h_total([alone])[0]]


@pytest.mark.parametrize("tau", REF_TAUS)
def test_sequence_from_coordinates_inverts_the_stack_once(monkeypatch, tau):
    # n = 1: every step starts on a base, never a G2 twist, so morphism_rep
    # inverts nothing and the one call is the stack's coordinates.
    lat = Lattice(tau)
    rng, q, p1, _, coords, _, _ = stacked_inputs(lat, seed=66)
    sizes, original = [], th._invert_lifts

    def spy(a, c, lattice):
        sizes.append(len(a))
        return original(a, c, lattice)

    monkeypatch.setattr(th, "_invert_lifts", spy)
    ell.sequence_from_coordinates([q] * len(coords), [[p1]] * len(coords),
                                  [[c, random_point(rng)] for c in coords])
    assert sizes == [2 * len(coords)]

def reference_h_total(seqs):
    """h_total that rebuilds each mark step: one ``morphism_rep`` call for
    the marks and one ``evaluate_stack`` call at the points, the chains
    evaluated again by ``chain_factors`` and read by ``factor_lines``, and
    one cover call per kind."""
    out = [[c] for c in ell.mss_coordinate([s.base.bundle for s in seqs])]
    live = [i for i, s in enumerate(seqs) if s.reps]
    if live:
        bases = [seqs[i].base for i in live]
        rep_q = ell.morphism_rep([b.bundle for b in bases], [b.q for b in bases],
                                 [b.line for b in bases])
        points = [seqs[i].points for i in live]
        avals = ell.evaluate_stack([r.terms for r in rep_q], [[p.lift for p in pts] for pts in points],
                                   bases[0].q.lattice)
        classes = ell._stable_first_class(rep_q, points, avals,
                                          ell.factor_lines(ell.chain_factors([seqs[i].reps for i in live])))
        coords = iter(ell.mss_coordinate([c for row in classes for c in row]))
        for i, row in zip(live, classes):
            out[i] += [next(coords) for _ in row]
    return out


@pytest.mark.parametrize("tau", REF_TAUS)
def test_h_total_matches_the_rebuilding_reference(tau):
    seqs = ragged_sequences(Lattice(tau), seed=64)
    got, want = ell.h_total(seqs), reference_h_total(seqs)
    assert [[(x.a, x.c) for x in h] for h in got] == [[(x.a, x.c) for x in h] for h in want]


@pytest.mark.parametrize("seed", [7, 11])
def test_double_table_counts_match_a_per_draw_loop(seed):
    config = cli.RunConfig(seed=seed)
    (record, *_) = cli.run("verify-double-table", config).records
    rng = cli.suite_rng(config, "verify-double-table")
    agree = 0
    for k in range(200):
        bundle, p1, p2, d1, d2 = suites._double_sample(LAT, rng, k)
        rep1 = ell.morphism_rep([bundle], [p1], [d1])[0]
        rep2 = ell.morphism_rep([rep1.result], [p2], [d2])[0]
        a, b = raw_directions([rep1, rep2])
        table = ell.double_hecke([bundle], [p1], [p2], [a], [b])[0]
        chained = rep2.result.tensor(LineBundleClass(1, halve_sum(p1, p2).lift, LAT))
        if table is None:
            agree += not ell.is_even_semistable(chained)
        else:
            agree += ell.is_even_semistable(chained) and ell.s_equivalent(table, chained)
    assert record.inputs == f"agree={agree}"
    assert record.passed == (agree == 200)


def double_table_inputs(lat, rng, count):
    """The first ``count`` draws of verify-double-table's two-route record
    as a ``double_hecke`` stack (bundles, p1s, p2s, as_, bs): each draw's
    composite direction pair, read off its chained steps."""
    bundles, p1s, p2s, d1s, d2s = zip(*(suites._double_sample(lat, rng, k) for k in range(count)))
    reps1 = ell.morphism_rep(bundles, p1s, d1s)
    reps2 = ell.morphism_rep([r.result for r in reps1], p2s, d2s)
    return (bundles, p1s, p2s, *zip(*ell.factor_lines(ell.chain_factors(list(zip(reps1, reps2))))))


def forced_dual_pairs(lat, rng):
    """A ``double_hecke`` stack of dual pairs in a bad first direction:
    generic, and with 2-torsion at p1 and at p2 (each torsion point once),
    with a in {[1:0], [0:1]} and b in {[1:0], [0:1], random}."""
    draws = []
    for j in range(1, 5):
        p1, p2 = suites._torus_points(rng, lat, 2)
        e = halve_sum(p1, p2)
        t = torsion_point(lat, j)
        for delta in (suites._curve_point(rng, lat), p1 + t - e, p2 + t - e):
            for a in (ProjPoint(1, 0), ProjPoint(0, 1)):
                for b in (ProjPoint(1, 0), ProjPoint(0, 1), random_point(rng)):
                    draws.append((ell.dual_pair(delta.lift, lat), p1, p2, a, b))
    return tuple(zip(*draws))


@pytest.mark.parametrize("tau", REF_TAUS)
def test_double_hecke_matches_the_per_draw_reference(tau):
    # Every _double_sample kind at three seeds, then forced dual pairs: the
    # same S-equivalence class (or None), bit for bit on a good first direction.
    lat = Lattice(tau)
    stacks = [double_table_inputs(lat, np.random.default_rng(seed), 48) for seed in (7, 11, 12345)]
    stacks.append(forced_dual_pairs(lat, np.random.default_rng(33)))
    for stack in stacks:
        for draw, got in zip(zip(*stack), ell.double_hecke(*stack), strict=True):
            want = reference_double_hecke(*draw)
            assert (got is None) == (want is None), draw
            if want is not None:
                assert type(got) is type(want) and ell.s_equivalent(got, want), draw
            if ell.bad_group_key(draw[0], draw[3]) is None:
                assert exact(got) == exact(want), draw


def rule_branch(e, a, table) -> str:
    """The branch of ``double_hecke``'s rule that gives ``table`` for a draw
    of bundle ``e`` with first composite direction ``a``."""
    key = ell.bad_group_key(e, a)
    if key is None:
        return "good"
    if table is None:
        return "same witness"
    if isinstance(table, F2Twist):
        return "2-torsion F2"
    if table.l1.same_class(table.l2):
        return "2-torsion L + L"
    if isinstance(e, F2Twist):
        return "dual pair, F2 witness"
    if e.l1.same_class(e.l2):
        return "dual pair, (O + O) x L witness"
    return f"dual pair, {'[1:0]' if key.is_zero_dir() else '[0:1]'} witness"


@pytest.mark.parametrize("tau", REF_TAUS)
def test_default_double_table_reaches_every_branch(tau):
    # The 200 draws of a default run at seed 7: a draw stream that drops a
    # branch would leave a table row unchecked.
    config = cli.RunConfig(tau=tau, seed=7)
    stack = double_table_inputs(Lattice(tau), cli.suite_rng(config, "verify-double-table"), 200)
    tables = ell.double_hecke(*stack)
    assert {rule_branch(e, a, t) for e, a, t in zip(stack[0], stack[3], tables)} == {
        "good", "same witness", "2-torsion F2", "2-torsion L + L",
        "dual pair, F2 witness", "dual pair, (O + O) x L witness",
        "dual pair, [1:0] witness", "dual pair, [0:1] witness",
    }


@pytest.mark.parametrize("tau", REF_TAUS)
@pytest.mark.parametrize("seed", [7, 11, 12345])
def test_double_sample_draws_as_the_reference(tau, seed):
    # Every kind six times: bundles, point lifts and directions bit for bit,
    # and the generator state after each draw.
    lat = Lattice(tau)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(48):
        assert exact(suites._double_sample(lat, rng, k)) == exact(reference_double_sample(lat, ref, k)), k
        assert rng.bit_generator.state == ref.bit_generator.state, k


def test_stacked_builders_reject_coincident_points():
    q = rpt()
    p = rpt_away(q)
    coords = [th.pi_cover(rpt()), th.pi_cover(rpt())]
    bases = ell.base_from_coordinate(coords, [q, q])
    lines = [[random_point(RNG), random_point(RNG)]] * 2
    good = [p, rpt_away(q, p)]
    for bad, match in (([p, CurvePoint(p.lift + LAT.tau, LAT)], "distinct"),
                       ([p, CurvePoint(q.lift - 1, LAT)], "marked point")):
        with pytest.raises(ValueError, match=match):
            ell._sequences(bases, [good, bad], lines)
        with pytest.raises(ValueError, match=match):
            tau = th.pi_cover(rpt())
            ell.sequence_from_coordinates([q, q], [good, bad], [[c, tau, tau] for c in coords])


# Reference copies of the suites' per-draw loops, from before the draws
# were stacked: one scalar cover call per draw.

def ref_curve_point(rng, lat):
    return CurvePoint(rng.random() + rng.random() * lat.tau, lat)


def ref_cover_draw(rng, lat):
    return th.pi_cover(ref_curve_point(rng, lat))


def ref_torus_points(rng, lat, count, min_gap=0.05):
    pts = []
    while len(pts) < count:
        z = ref_curve_point(rng, lat)
        if all(lat.distance(z.lift, w.lift) >= min_gap for w in pts):
            pts.append(z)
    return pts


class _Stop(Exception):
    pass


def spy_suite(monkeypatch, rng, stop, command, samples, *extra):
    """Run a suite on ``rng`` at the default tau, recording each call of the
    stacked builders as (args, generator state); the run ends at the first
    call of ``stop``."""
    calls = {}
    for name in ("base_from_coordinate", "sequence_from_coordinates", "_sequences", "f_embedding"):
        def spy(*args, name=name, original=getattr(ell, name)):
            calls.setdefault(name, []).append((args, rng.bit_generator.state))
            if name == stop:
                raise _Stop
            return original(*args)

        monkeypatch.setattr(ell, name, spy)
    config = cli.RunConfig(samples=samples, extra=extra)
    try:
        cli.COMMANDS[command](cli.Report(command, config), config, rng)
    except _Stop:
        pass
    return calls


def same_points(got, want):
    return [p.lift for p in got] == [p.lift for p in want]


def same_targets(got, want):
    return len(got) == len(want) and all(chordal(x, y) < 1e-15 for x, y in zip(got, want))


@pytest.mark.parametrize("seed", [7, 11, 12345])
def test_t2_1_draws_in_per_draw_order(monkeypatch, seed):
    lat = Lattice()
    calls = spy_suite(monkeypatch, np.random.default_rng(seed), "sequence_from_coordinates",
                      "compute-space", 30, "T2", "1")
    ref = np.random.default_rng(seed)
    draws = [(*ref_torus_points(ref, lat, 2), ref_cover_draw(ref, lat), ref_cover_draw(ref, lat))
             for _ in range(30)]
    (qs, p1s, coords), state = calls["sequence_from_coordinates"][0]
    assert state == ref.bit_generator.state
    assert same_points(qs, [d[0] for d in draws])
    assert same_points([p for (p,) in p1s], [d[1] for d in draws])
    assert same_targets([t for t, _ in coords], [d[2] for d in draws])
    assert same_targets([t for _, t in coords], [d[3] for d in draws])


@pytest.mark.parametrize("seed", [7, 11, 12345])
def test_t2_2_draws_in_per_draw_order(monkeypatch, seed):
    lat = Lattice()
    calls = spy_suite(monkeypatch, np.random.default_rng(seed), None, "compute-space", 8,
                      "T2", "2")
    ref = np.random.default_rng(seed)
    q, p1, p2 = ref_torus_points(ref, lat, 3)
    on_curve = [ref_curve_point(ref, lat) for _ in range(2)]
    # One f_embedding call: the 46-point grid, then the on-curve draws.
    [((ps, *qp), state)] = calls["f_embedding"]
    assert len(ps) == 46 + 2 and same_points(ps[46:], on_curve)
    assert same_points(qp, [q, p1, p2]) and state == ref.bit_generator.state
    # The far tuples: a per-candidate rejection loop accepts the same ones.
    far = []
    for _ in range(4):
        while True:
            taus = [ref_cover_draw(ref, lat) for _ in range(3)]
            if ell.distance_to_curve([taus], [q], [p1], [p2])[0] > 0.1:
                break
        far.append(taus)
    # One membership pass: the on-curve triples, then the far tuples.
    tris = ell.f_embedding(on_curve, q, p1, p2) + far
    assert "base_from_coordinate" not in calls
    [((qs, points, coords), _)] = calls["sequence_from_coordinates"]
    assert same_targets([c[0] for c in coords], [t[0] for t in tris]) and same_points(qs, [q] * 6)
    assert same_targets([t for c in coords for t in c[1:]], [t for f in tris for t in f[1:]])
    assert len(points) == 6 and all(same_points(pts, [p1, p2]) for pts in points)


@pytest.mark.parametrize("seed", [7, 11, 12345])
def test_embed_check_elliptic_draws_in_per_draw_order(monkeypatch, seed):
    lat, n_seq = Lattice(), 12
    calls = spy_suite(monkeypatch, np.random.default_rng(seed), "_sequences", "embed-check", n_seq)
    ref = np.random.default_rng(seed)
    for k in range(n_seq):  # the rational section's draws
        n = int(ref.integers(2, 5))
        count = n - (n // 2 + 1) + 1 if k % 2 else n
        [random_point(ref) for _ in range(count)]
    draws = []
    for k in range(n_seq):
        pts = ref_torus_points(ref, lat, 3)
        tau0 = ref_cover_draw(ref, lat)
        draws.append((pts, tau0, [] if k % 2 else [ref_cover_draw(ref, lat) for _ in range(2)]))
    for n in (2, 4):  # the rational embedding section
        reference_minimal_directions(5, n, ref)
    embedding = [(ref_torus_points(ref, lat, 3), ref_cover_draw(ref, lat),
                  [ref_cover_draw(ref, lat) for _ in range(2)]) for _ in range(10)]
    # Every draw first; then odd draws' bases from their coordinates, and
    # one builder call: the terminal draws in draw order, odd ones by their
    # forced lines and even ones by all three coordinates, then the ten
    # embedding draws.
    (tau0, bad_qs), state = calls["base_from_coordinate"][0]
    [((heads, points, given), build_state)] = calls["_sequences"]
    assert state == build_state == ref.bit_generator.state
    assert len(heads) == len(points) == len(given) == n_seq + 10
    assert same_points(bad_qs, [d[0][0] for d in draws[1::2]])
    assert heads[1:n_seq:2] == ell.base_from_coordinate(tau0, bad_qs)
    assert same_points(heads[0:n_seq:2], [d[0][0] for d in draws[0::2]])
    assert same_targets(tau0, [d[1] for d in draws[1::2]])
    assert same_targets([c[0] for c in given[0:n_seq:2]], [d[1] for d in draws[0::2]])
    assert [same_points(p, d[0][1:]) for p, d in zip(points[1:n_seq:2], draws[1::2])] == [True] * 6
    assert all(line == [ProjPoint(1, 0)] * 2 for line in given[1:n_seq:2])
    assert [same_points(p, d[0][1:]) for p, d in zip(points[0:n_seq:2], draws[0::2])] == [True] * 6
    assert same_targets([t for c in given[0:n_seq:2] for t in c[1:]], [t for d in draws for t in d[2]])
    for q, pts, c, (want_pts, t0, want) in zip(heads[n_seq:], points[n_seq:], given[n_seq:], embedding):
        assert same_points([q, *pts], want_pts) and same_targets(c, [t0, *want])


def test_embed_check_builds_its_sequences_in_one_pass(monkeypatch):
    # One builder call for all twenty sequences, and four morphism_rep
    # calls: the marks, the two steps, and the membership pass's second
    # steps.  Each extra builder pass would add three.
    calls = Counter()
    for name in ("_sequences", "sequence_from_coordinates", "morphism_rep"):
        def counted(*args, name=name, original=getattr(ell, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(ell, name, counted)
    report = cli.run("embed-check", cli.RunConfig(tau=0.3 + 0.45j, samples=10))
    assert report.ok and calls == {"_sequences": 1, "morphism_rep": 4}


def ref_embedding_draws(ref, lat, n_seq):
    """The draws of embed-check's ``elliptic-embedding-stable`` section from
    a per-draw loop, after replaying the earlier sections' draws: (points,
    base coordinate, pair) per draw."""
    for k in range(n_seq):  # the rational terminal section
        n = int(ref.integers(2, 5))
        [random_point(ref) for _ in range(n - (n // 2 + 1) + 1 if k % 2 else n)]
    for k in range(n_seq):  # the elliptic terminal section
        ref_torus_points(ref, lat, 3)
        [ref_curve_point(ref, lat) for _ in range(1 if k % 2 else 3)]
    for n in (2, 4):  # the rational embedding section
        reference_minimal_directions(5, n, ref)
    return [(ref_torus_points(ref, lat, 3), ref_cover_draw(ref, lat),
             [ref_cover_draw(ref, lat) for _ in range(2)]) for _ in range(10)]


@pytest.mark.parametrize("seed, reject", [(7, None), (11, None), (12345, None), (11, 3)])
def test_embedding_stable_draws_in_per_draw_order(monkeypatch, seed, reject):
    lat, n_seq = Lattice(), 4
    ref = np.random.default_rng(seed)
    draws = ref_embedding_draws(ref, lat, n_seq)
    member, embed = ell.membership_Hp, par.hecke_embeddings_elliptic
    decided, embedded = [], []

    def rejecting(seqs):
        out = member(seqs)
        if not decided:  # the section's one membership pass
            decided.append(seqs)
            if reject is not None:
                out[reject] = False
        return out

    def embedding(seqs):
        embedded.append(seqs)
        return embed(seqs)

    monkeypatch.setattr(ell, "membership_Hp", rejecting)
    monkeypatch.setattr(par, "hecke_embeddings_elliptic", embedding)
    rng = np.random.default_rng(seed)
    calls = spy_suite(monkeypatch, rng, None, "embed-check", n_seq)
    assert rng.bit_generator.state == ref.bit_generator.state
    # One builder pass holds every draw, the section's ten last; one
    # membership pass decides those ten, and only its members are embedded.
    [((heads, points, given), _)] = calls["_sequences"]
    assert len(calls["base_from_coordinate"]) == 1 and "sequence_from_coordinates" not in calls
    assert len(decided) == 1 and len(decided[0]) == 10
    assert same_points([s.base.q for s in decided[0]], [d[0][0] for d in draws])
    assert embedded == [[s for k, s in enumerate(decided[0]) if k != reject]]
    for q, pts, c, (want_pts, t0, want) in zip(heads[n_seq:], points[n_seq:], given[n_seq:], draws,
                                               strict=True):
        assert same_points([q, *pts], want_pts) and same_targets(c, [t0, *want])


def test_embedding_stable_fails_without_members(monkeypatch):
    # With no member among the ten draws there is nothing to embed: the
    # record fails rather than passing over an empty stack.
    monkeypatch.setattr(ell, "membership_Hp", lambda seqs: [False] * len(seqs))
    report = cli.run("embed-check", cli.RunConfig(samples=4))
    assert [(r.name, r.passed) for r in report.records[-1:]] == [("elliptic-embedding-stable", False)]
    assert all(r.passed for r in report.records[:-1]) and not report.ok
