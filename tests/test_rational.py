import numpy as np
import pytest

from heckelab import rational as rat
from heckelab import suites
from heckelab.grassmannian import eta_at
from heckelab.projective import PROJ_TOL, ProjPoint, chordal, chordal_vecs, random_point, sphere_grid
from heckelab.rational import (
    NotGlobal,
    PolyMat2,
    RationalBundle,
    RationalSequence,
)

from chain_refs import chain_directions
from draw_refs import reference_minimal_directions
from rank_refs import (
    near_repeat_tuples,
    perpendiculars,
    reference_terminal_hecke_lengths,
    replaced_vecs,
    two_column_ratio,
)


def sequence(points, dirs):
    """The sequence of modifications of O + O at ``points`` toward ``dirs``."""
    return RationalSequence(points, rat.direction_vecs([dirs])[0])


def branch_transition(b, direction):
    """Name of the transition-table row that ``single_hecke`` fires."""
    if b.is_semistable():
        return "semistable:any-direction"
    return "unstable:[1:0]" if direction.is_zero_dir() else "unstable:[lambda:1]"


def test_bundle_stores_the_larger_degree_first():
    assert RationalBundle(1, 3) == RationalBundle(3, 1)
    assert str(RationalBundle(-1, 0)) == "O(0)+O(-1)"


class TestSingleHecke:
    def test_unstable_pivot(self):
        assert rat.single_hecke(RationalBundle(3, 0), ProjPoint(1, 0)) == RationalBundle(3, -1)

    def test_trivial_any_direction(self):
        for d in (ProjPoint(1, 0), ProjPoint(0, 1), ProjPoint(2, 1)):
            assert rat.single_hecke(RationalBundle(0, 0), d) == RationalBundle(0, -1)

    def test_twisted_semistable(self):
        assert rat.single_hecke(RationalBundle(3, 3), ProjPoint(2, 1)) == RationalBundle(3, 2)

    def test_length_changes_by_one_on_grid(self):
        for k in range(6):
            b = RationalBundle(k, 0)
            for d in sphere_grid(64):
                assert abs(rat.single_hecke(b, d).hecke_length - b.hecke_length) == 1

    def test_branch_transition_rows(self):
        assert branch_transition(RationalBundle(2, 0), ProjPoint(1, 0)) == "unstable:[1:0]"
        assert branch_transition(RationalBundle(2, 0), ProjPoint(1, 1)) == "unstable:[lambda:1]"
        assert branch_transition(RationalBundle(0, 0), ProjPoint(1, 0)).startswith("semistable")
        for b in (RationalBundle(2, 0), RationalBundle(0, 0)):
            for d in (ProjPoint(1, 0), ProjPoint(1, 1)):
                up = branch_transition(b, d) != "unstable:[lambda:1]"
                assert rat.single_hecke(b, d).hecke_length == b.hecke_length + (1 if up else -1)


class TestMorphismMatrix:
    MU = 0.42 - 0.13j

    def rows(self):
        return [
            (RationalBundle(2, 0), ProjPoint(1, 0)),
            (RationalBundle(2, 0), ProjPoint(0.7 + 0.2j, 1)),
            (RationalBundle(0, 0), ProjPoint(0.7 + 0.2j, 1)),
            (RationalBundle(0, 0), ProjPoint(1, 0)),
        ]

    def test_table_shapes(self):
        m = rat.morphism_matrix(RationalBundle(2, 0), self.MU, ProjPoint(1, 0))
        assert np.allclose(m(1.0), [[1, 0], [0, 1 - self.MU]])
        m = rat.morphism_matrix(RationalBundle(2, 0), self.MU, ProjPoint(0.5, 1))
        assert np.allclose(m(1.0), [[1 - self.MU, 0.5], [0, 1]])
        m = rat.morphism_matrix(RationalBundle(0, 0), self.MU, ProjPoint(0.5, 1))
        assert np.allclose(m(1.0), [[0.5, 1 - self.MU], [1, 0]])

    def test_det_is_linear_with_root_at_point(self):
        for b, d in self.rows():
            m = rat.morphism_matrix(b, self.MU, d)
            det = m.det()
            assert det.size == 2
            assert abs(det[0] / det[1] + self.MU) < 1e-14

    def test_direction_roundtrip(self):
        for b, d in self.rows():
            m = rat.morphism_matrix(b, self.MU, d)
            assert chordal(eta_at(m, self.MU), d) < 1e-10

    def test_composite_det_has_degree_n(self):
        # Table factors with mu = 0 and lambda = 0 among them: det P is
        # c prod (z - mu_i) with no spurious higher coefficient.
        rng = np.random.default_rng(12)
        choices = [ProjPoint(1, 0), ProjPoint(0, 1)]
        for n in range(1, 7):
            pts = [0.0] + [k + 0.3j * k for k in range(1, n)]
            for _ in range(10):
                dirs = [choices[int(rng.integers(2))] if rng.random() < 0.6
                        else random_point(rng) for _ in range(n)]
                seq = sequence(pts, dirs)
                det = PolyMat2(rat.composites(seq.coeffs()[None])[0]).det()
                assert det.size - 1 == n
                want = det[-1] * np.poly(pts)[::-1]
                assert np.abs(det - want).max() < 1e-12 * np.abs(want).max()


class TestChartConvert:
    def test_pivot_row_is_identity_at_origin(self):
        m = rat.morphism_matrix(RationalBundle(3, 0), 0.0, ProjPoint(1, 0))
        w = rat.chart_convert(m, RationalBundle(3, -1), RationalBundle(3, 0))
        assert np.allclose(w(0.77), np.eye(2))

    def test_generic_row_by_closed_form(self):
        lam = 0.5 - 1.1j
        m = rat.morphism_matrix(RationalBundle(3, 0), 0.0, ProjPoint(lam, 1))
        w = rat.chart_convert(m, RationalBundle(2, 0), RationalBundle(3, 0))
        z = 0.9 + 0.4j
        assert np.allclose(w(z), [[1, lam * z ** 3], [0, 1]])

    def test_all_rows_glue(self):
        mu = 0.3 + 0.6j
        for b, d in TestMorphismMatrix().rows():
            m = rat.morphism_matrix(b, mu, d)
            rat.chart_convert(m, rat.single_hecke(b, d), b)

    def test_corrupted_matrix_rejected(self):
        bad = PolyMat2([[[0.0, 1.0, 1.0], [0.5]], [[0.0], [1.0]]])
        with pytest.raises(NotGlobal):
            rat.chart_convert(bad, RationalBundle(2, 0), RationalBundle(3, 0))


class TestHMap:
    def test_two_step_closed_forms(self):
        l1, l2 = 0.7 - 0.3j, 1.1 + 0.2j
        mu1, mu2 = 0.2 + 0.1j, 0.9 - 0.4j
        lb2 = l2 / (mu2 - mu1)
        h = [ProjPoint(*v) for v in sequence([mu1, mu2], [ProjPoint(l1, 1), ProjPoint(l2, 1)]).h_map()]
        assert chordal(h[0], ProjPoint(l1, 1)) < 1e-12
        assert chordal(h[1], ProjPoint(l1 * lb2 + 1, lb2)) < 1e-12
        hb = [ProjPoint(*v) for v in sequence([mu1, mu2], [ProjPoint(1, 0), ProjPoint(l2, 1)]).h_map()]
        assert hb[0] == ProjPoint(1, 0)
        assert chordal(hb[1], ProjPoint(lb2, 1)) < 1e-12

    def test_empty_sequence(self):
        seq = RationalSequence([], np.zeros((0, 2)))
        assert seq.h_map().shape == (0, 2)
        assert seq.hecke_lengths().tolist() == [0]

    def test_tuple_roundtrip(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4, 5):
            pts = rat.default_points(n)
            dirs = [random_point(rng) for _ in range(n)]
            back = chain_directions(tuple_matrices(pts, dirs), pts)
            assert max(chordal(x, y) for x, y in zip(back, dirs)) < 1e-10

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            sequence([0.5, 0.5], [ProjPoint(1, 0), ProjPoint(0, 1)])
        with pytest.raises(ValueError):
            RationalSequence([[0.1, 0.2], [0.5, 0.5]], np.ones((2, 2, 2)))


class TestMembership:
    A = ProjPoint(0.3, 1)
    B = ProjPoint(-1.2 + 0.5j, 1)

    def test_small_spaces(self):
        assert rat.membership_H(0, [])
        assert rat.membership_H(1, [self.A])
        assert not rat.membership_H(2, [self.A, self.A])
        assert rat.membership_H(2, [self.A, self.B])
        assert not rat.membership_H(3, [self.A, self.A, self.A])
        assert rat.membership_H(3, [self.A, self.A, self.B])
        assert rat.membership_H(3, [self.A, self.B, self.A])

    def test_closed_form_matches_transition(self):
        rng = np.random.default_rng(7)
        for n in (2, 3):
            for _ in range(60):
                if rng.random() < 0.3:
                    a = random_point(rng)
                    dirs = [a] * n
                elif rng.random() < 0.5:
                    a = random_point(rng)
                    dirs = [a] * (n - 1) + [random_point(rng)]
                else:
                    dirs = [random_point(rng) for _ in range(n)]
                assert rat.membership_H(n, dirs) == closed_form(dirs)

    def test_subbundle_chain_terminal_type(self):
        # Equal first r directions leave the terminal at split type (0, -r).
        a = self.A
        pts = rat.default_points(3)
        assert batched_lengths(pts, [[a, a, a]]) == [3]
        assert rat.min_column_degree(reference_composite(pts, [a, a, a])) == 0

    def test_n4_lengths(self):
        pts = rat.default_points(4)
        a, b, c = self.A, self.B, ProjPoint(2.0, 1)
        tuples = [[a, a, b, b], [a, a, b, c], [a, a, a, b], [a, a, a, a]]
        assert batched_lengths(pts, tuples) == [0, 0, 2, 4]


# ---------------------------------------------------------------------------
# The array sequence against the per-step objects it replaced.


def mixed_tuples(rng, n, count):
    """Direction tuples mixing [1:0], directions just inside and outside its
    PROJ_TOL ball, [0:1] and random points."""
    choices = [ProjPoint(1, 0), ProjPoint(1, 3e-9), ProjPoint(1, 3e-8), ProjPoint(0, 1)]
    return [[choices[int(rng.integers(4))] if rng.random() < 0.6 else random_point(rng)
             for _ in range(n)] for _ in range(count)]


class TestArraySequence:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_length_walk_and_tables_match_the_step_objects(self, n):
        rng = np.random.default_rng(50 + n)
        tuples = mixed_tuples(rng, n, 60)
        pts = rat.default_points(n)
        seq = RationalSequence(np.broadcast_to(pts, (60, n)), rat.direction_vecs(tuples))
        lengths, coeffs = seq.hecke_lengths(), seq.coeffs()
        assert lengths.shape == (60, n + 1) and coeffs.shape == (60, n, 2, 2, 2)
        for k, dirs in enumerate(tuples):
            b = RationalBundle(0, 0)
            walk = [b.hecke_length]
            for i, (mu, d) in enumerate(zip(pts, dirs)):
                assert np.array_equal(coeffs[k, i], rat.morphism_matrix(b, mu, d).c)
                b = rat.single_hecke(b, d)
                walk.append(b.hecke_length)
            assert lengths[k].tolist() == walk
            # One sequence of the stack alone reads the same arrays.
            alone = sequence(pts, dirs)
            assert alone.hecke_lengths().tolist() == walk
            assert np.array_equal(alone.coeffs(), coeffs[k])

    def test_zero_directions_at_the_tolerance_decide_as_projpoint(self):
        # |c| within a few ulps of PROJ_TOL, where numpy's complex abs and
        # Python's round apart in a few percent of directions.
        rng = np.random.default_rng(5)
        c = PROJ_TOL * np.exp(2j * np.pi * rng.random(4000)) * (1 + rng.integers(-3, 4, 4000) * 2.0 ** -52)
        dirs = [[ProjPoint(0.3, 1), ProjPoint(1, x)] for x in c.tolist()]
        seq = RationalSequence(np.broadcast_to([0.2, 0.7], (4000, 2)), rat.direction_vecs(dirs))
        want = [[0, 1, 2 if d[1].is_zero_dir() else 0] for d in dirs]
        assert seq.hecke_lengths().tolist() == want
        assert 0 < sum(w[2] for w in want) < 2 * 4000

    @pytest.mark.parametrize("seed", [7, 11, 12345])
    def test_minimal_direction_vecs_draw_as_the_step_loop(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (1, 2, 3, 4, 6):
            for count in (1, 7):
                vecs = rat.minimal_direction_vecs(count, n, rng)
                dirs = reference_minimal_directions(count, n, ref)
                assert rng.bit_generator.state == ref.bit_generator.state
                assert vecs.tobytes() == rat.direction_vecs(dirs).tobytes()
                seq = RationalSequence(np.broadcast_to(rat.default_points(n), (count, n)), vecs)
                assert (seq.hecke_lengths()[:, -1] == n % 2).all()


def test_minimal_direction_vecs_are_minimal():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4, 6):
        for vecs in rat.minimal_direction_vecs(10, n, rng):
            seq = RationalSequence(rat.default_points(n), vecs)
            assert seq.hecke_lengths()[-1] == n % 2
            assert rat.membership_H(n, [ProjPoint(*v) for v in seq.h_map()])


def reference_composites(coeffs):
    """The stacked-matmul loop that ``composites`` replaced: 2x2 products on
    (B, i + 1, 2, 2) slices, degree on axis 1."""
    batch, n = coeffs.shape[:2]
    p = np.zeros((batch, n + 1, 2, 2), dtype=complex)
    p[:, 0] = np.eye(2)
    for i in range(n):
        q = p[:, : i + 1]
        hi = q @ coeffs[:, i, None, ..., 1]
        p[:, : i + 1] = q @ coeffs[:, i, None, ..., 0]
        p[:, 1 : i + 2] += hi
    return np.moveaxis(p, 1, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_composites_bit_equal_to_the_matmul_loop(n):
    rng = np.random.default_rng(60 + n)
    seq = RationalSequence(np.broadcast_to(rat.default_points(n), (80, n)),
                           rat.direction_vecs(mixed_tuples(rng, n, 80)))
    coeffs = seq.coeffs()
    assert np.array_equal(rat.composites(coeffs), reference_composites(coeffs))


# ---------------------------------------------------------------------------
# The batched membership core against the per-tuple loops it replaced.


def closed_form(dirs):
    """``membership_H_closed_forms`` of one tuple."""
    return bool(rat.membership_H_closed_forms(rat.direction_vecs([dirs]))[0])


def reference_step(mats, mu, a):
    """One step of the loop-based tuple realization: the factor
    C diag(1, z - mu), C the unit completion of v = P(mu)^{-1} a for the
    product P of ``mats``, so that eta of P C diag(1, z - mu) at mu is a."""
    val = np.eye(2, dtype=complex)
    for mat in mats:
        val = val @ mat(mu)
    v = np.linalg.solve(val, a.vec)
    v = v / np.linalg.norm(v)
    c = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])
    return PolyMat2.constant(c) * PolyMat2([[1, 0], [0, [-mu, 1]]])


def tuple_matrices(points, dirs):
    """The factors of the loop-based realization of a direction tuple."""
    mats = []
    for mu, a in zip(points, dirs):
        mats.append(reference_step(mats, mu, a))
    return mats


def reference_composite(points, dirs):
    p = PolyMat2.identity()
    for m in tuple_matrices(points, dirs):
        p = p * m
    return p


def reference_min_column_degree(p, tol=1e-9):
    """The loop-based min_column_degree: one row at a time, one SVD per d."""
    n = p.det().size - 1
    scale = p.coeff_scale()
    entries = p.c / scale
    for d in range((n + 1) // 2 + 1):
        unknowns = 2 * (d + 1)
        maxdeg = p.max_degree() + d
        rows = []
        for i in range(2):
            for t in range(d + 1, maxdeg + 1):
                row = np.zeros(unknowns, dtype=complex)
                for j in range(2):
                    c = entries[i][j]
                    for k in range(d + 1):
                        if 0 <= t - k < c.size:
                            row[j * (d + 1) + k] = c[t - k]
                rows.append(row)
        if not rows:
            return d
        s = np.linalg.svd(np.array(rows), compute_uv=False)
        if s.size < unknowns or s[unknowns - 1] < tol * max(s[0], 1.0):
            return d
    return (n + 1) // 2


def reference_length(points, dirs):
    n = len(dirs)
    return n - 2 * reference_min_column_degree(reference_composite(points, dirs)) if n else 0


def reference_product_lengths(points, grid, n):
    """reference_length over itertools.product(grid, repeat=n), in order.

    Step i of the loop depends only on the first i directions, and the
    composite is a left fold, so shared prefixes are computed once; the
    results are those of reference_length bit for bit.
    """
    out = []

    def walk(mats, comp):
        if len(mats) == n:
            out.append(n - 2 * reference_min_column_degree(comp))
            return
        for a in grid:
            m = reference_step(mats, points[len(mats)], a)
            walk(mats + [m], comp * m)

    walk([], PolyMat2.identity())
    return out


def chordal_offset(b, d, phase=0.7):
    """A point of CP^1 at chordal distance ``d`` from ``b``."""
    u = b.vec / np.linalg.norm(b.vec)
    v = np.array([-np.conj(u[1]), np.conj(u[0])]) * np.exp(1j * phase)
    w = u * np.sqrt(1 - d * d) + v * d
    return ProjPoint(w[0], w[1])


def batched_lengths(points, tuples):
    return rat.terminal_hecke_lengths(points, rat.direction_vecs(tuples)).tolist()


class TestBatchedCore:
    def test_full_sphere_grid_product(self):
        import itertools

        grid = sphere_grid(20)
        pts = rat.default_points(3)
        tuples = [list(c) for c in itertools.product(grid, repeat=3)]
        got = batched_lengths(pts, tuples)
        assert got == reference_product_lengths(pts, grid, 3)
        # Members are exactly the tuples without three equal directions.
        assert got.count(3) == 20 and got.count(1) == 7980

    def test_random_tuples_with_coincident_blocks(self):
        rng = np.random.default_rng(21)
        for n in range(1, 7):
            pts = rat.default_points(n)
            tuples = []
            for k in range(40):
                dirs = [random_point(rng) for _ in range(n)]
                if k % 2:
                    r = int(rng.integers(1, n + 1))
                    dirs[:r] = [dirs[0]] * r
                tuples.append(dirs)
            assert batched_lengths(pts, tuples) == [reference_length(pts, d) for d in tuples]

    def test_offsets_on_either_side_of_the_svd_threshold(self):
        a = ProjPoint(0.3 - 0.8j, 1)
        for n in (2, 3, 4):
            pts = rat.default_points(n)
            for offset, coincident in ((1e-13, True), (1e-6, False)):
                tuples = []
                for last in range(n):
                    dirs = [a] * n
                    dirs[last] = chordal_offset(a, offset)
                    tuples.append(dirs)
                got = batched_lengths(pts, tuples)
                assert got == [reference_length(pts, d) for d in tuples]
                if n <= 3:
                    assert [g == n % 2 for g in got] == [
                        closed_form(d) for d in tuples]
                assert all((g == n) is coincident for g in got)

    def test_batch_of_one_matches_the_batch(self):
        rng = np.random.default_rng(22)
        a = random_point(rng)
        pts = rat.default_points(4)
        tuples = [[random_point(rng) for _ in range(4)] for _ in range(6)]
        tuples += [[a, a, a, random_point(rng)], [a] * 4]
        batch = batched_lengths(pts, tuples)
        for dirs, length in zip(tuples, batch):
            assert batched_lengths(pts, [dirs]) == [length]
            ref = reference_composite(pts, dirs)
            assert rat.min_column_degree(ref) == reference_min_column_degree(ref)
            assert rat.membership_H(4, dirs) == (length == 0)


# ---------------------------------------------------------------------------
# The closed forms on arrays, and the rank test at points close together.


class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3])
    def test_agree_with_the_numerical_membership(self, n):
        import itertools

        grid = sphere_grid(20)
        tuples = [list(c) for c in itertools.product(grid, repeat=n)]
        # Repeated directions with one moved off at a chordal offset on
        # either side of both tolerances.
        for offset in (1e-12, 1e-6):
            for b in grid:
                for last in range(n):
                    dirs = [b] * n
                    dirs[last] = chordal_offset(b, offset)
                    tuples.append(dirs)
        vecs = rat.direction_vecs(tuples)
        closed = rat.membership_H_closed_forms(vecs)
        numerical = rat.terminal_hecke_lengths(rat.default_points(n), vecs) == n % 2
        assert closed.tolist() == numerical.tolist()
        assert closed.tolist() == [closed_form(d) for d in tuples]
        assert closed.sum() == len(tuples) - 20 - 20 * n  # coincident grid and 1e-12 tuples

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_coincidence_rule_across_the_tolerance_band(self, n):
        # Repeated directions with one moved off, at every position, two
        # phases and offsets from 1e-12 to 1e-5: both deciders call the
        # tuple coincident exactly when the offset is below PROJ_TOL.
        tuples, offsets = [], np.geomspace(1e-12, 1e-5, 29)
        for offset in offsets:
            for b in sphere_grid(20):
                for moved in range(n):
                    for phase in (0.7, 2.1):
                        dirs = [b] * n
                        dirs[moved] = chordal_offset(b, offset, phase)
                        tuples.append(dirs)
        vecs = rat.direction_vecs(tuples)
        closed = rat.membership_H_closed_forms(vecs)
        numerical = rat.terminal_hecke_lengths(rat.default_points(n), vecs) == n % 2
        assert closed.tolist() == numerical.tolist()
        # The band between the rank test's roundoff and PROJ_TOL is decided
        # by the chordal rule alone.
        per_offset = closed.reshape(len(offsets), -1)
        assert not per_offset[offsets < 9e-9].any() and per_offset[offsets > 1.1e-8].all()

    def test_small_n(self):
        vecs = rat.direction_vecs([[d] for d in sphere_grid(5)])
        assert rat.membership_H_closed_forms(vecs).all()
        assert rat.membership_H_closed_forms(np.zeros((3, 0, 2), complex)).all()
        with pytest.raises(ValueError):
            rat.membership_H_closed_forms(np.ones((1, 4, 2), complex))


def mp_tuple_composites(points, vecs, dps=50):
    """Composite coefficients (B, 2, 2, n + 1) of ``reference_composite`` for
    each tuple of ``vecs``, in mpmath at ``dps`` digits, rounded."""
    import mpmath as mp

    out = []
    with mp.workdps(dps):
        for tup in vecs:
            p = [mp.eye(2)]
            for mu, a in zip(map(mp.mpc, points), tup):
                val = mp.zeros(2, 2)
                for k, pk in enumerate(p):
                    val += pk * mu ** k
                v = mp.lu_solve(val, mp.matrix([[mp.mpc(a[0])], [mp.mpc(a[1])]]))
                v /= mp.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)
                c = mp.matrix([[v[0], -mp.conj(v[1])], [v[1], mp.conj(v[0])]])
                q = [pk * c for pk in p]
                p = [mp.zeros(2, 2) for _ in range(len(p) + 1)]
                for k, qk in enumerate(q):
                    for r in range(2):
                        p[k][r, 0] += qk[r, 0]
                        p[k + 1][r, 1] += qk[r, 1]
                        p[k][r, 1] -= mu * qk[r, 1]
            out.append([[[complex(pk[r, j]) for pk in p] for j in range(2)] for r in range(2)])
    return np.array(out)


def random_tuples_with_blocks(rng, n, count):
    tuples = []
    for k in range(count):
        dirs = [random_point(rng) for _ in range(n)]
        if k % 2:
            r = int(rng.integers(1, n + 1))
            dirs[:r] = [dirs[0]] * r
        tuples.append(dirs)
    return rat.direction_vecs(tuples)


class TestAdjugateSolve:
    def test_points_1e6_apart(self):
        # With one pair of points close together the realizing composite is
        # ill-conditioned; the rank test on the tuple itself decides every
        # tuple as the splitting type of a 50-digit composite does.
        rng = np.random.default_rng(32)
        for gap in (1e-6, 1e-8):
            for n in (2, 3, 4, 5):
                pts = rat.default_points(n)
                pts[-1] = pts[0] + gap * np.exp(0.4j)
                vecs = random_tuples_with_blocks(rng, n, 40)
                want = [n - 2 * rat.min_column_degree(PolyMat2(c))
                        for c in mp_tuple_composites(pts, vecs)]
                assert rat.terminal_hecke_lengths(pts, vecs).tolist() == want
                assert len(set(want)) > 1


# ---------------------------------------------------------------------------
# The d = 0 rank test without an SVD, and the stacked S2 draws.


def near_repeats(n, offsets, phases=(0.7,)):
    """Repeated grid directions with one moved off by each chordal offset."""
    tuples = []
    for offset in offsets:
        for b in sphere_grid(20):
            for moved in range(n):
                for phase in phases:
                    dirs = [b] * n
                    dirs[moved] = chordal_offset(b, offset, phase)
                    tuples.append(dirs)
    return tuples


@pytest.mark.parametrize("n", range(1, 9))
def test_upper_pairs_are_the_triu_indices(n):
    i, j = rat.upper_pairs(n)
    want_i, want_j = np.triu_indices(n, 1)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    assert rat.upper_pairs(n)[0] is i and not i.flags.writeable


class TestTwoColumnRatio:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_decides_as_the_svd(self, n):
        import itertools

        grid = sphere_grid({2: 20, 3: 20, 4: 6, 5: 5, 6: 4}[n])
        tuples = [list(c) for c in itertools.product(grid, repeat=n)]
        tuples += near_repeats(n, np.geomspace(1e-12, 1e-5, 29), (0.7, 2.1))
        vecs = np.concatenate([rat.direction_vecs(tuples),
                               random_tuples_with_blocks(np.random.default_rng(40 + n), n, 400)])
        a = perpendiculars(vecs)
        ratio = two_column_ratio(a)
        s = np.linalg.svd(a, compute_uv=False)
        assert ((ratio < rat.RANK_DROP_TOL) == (s[:, -1] < rat.RANK_DROP_TOL * s[:, 0])).all()
        # The SVD's s_min carries an absolute roundoff of about 1e-16 s_max
        # (up to 2e-4 relative at a ratio of 1.6e-12 against 60 digits), so
        # below a ratio of 1e-9 the bound is that absolute floor.
        svd = s[:, -1] / s[:, 0]
        assert (np.abs(ratio - svd) <= 1e-6 * svd + 1e-15).all()
        repeats = (a == a[:, :1]).all(axis=(-2, -1))
        assert repeats.any() and (ratio[repeats] <= 1e-15).all()

    @pytest.mark.parametrize("n", [2, 5])
    def test_near_repeats_against_high_precision(self, n):
        import mpmath as mp

        a = perpendiculars(rat.direction_vecs(near_repeats(n, np.geomspace(1e-12, 1e-8, 5))[::7]))
        with mp.workdps(40):
            exact = np.array([float(min(s) / max(s)) for s in
                              (mp.svd_c(mp.matrix(m.tolist()), compute_uv=False) for m in a)])
        assert (np.abs(two_column_ratio(a) - exact) <= 1e-6 * exact + 1e-16).all()


def rank_inputs(n):
    """Near-repeat tuples of n directions, and for n = 3 the full grid of
    ``compute-space S2 3``."""
    vecs = near_repeat_tuples(np.random.default_rng(50 + n), n, 400)
    if n == 3:
        grid = rat.direction_vecs([sphere_grid(20)])[0]
        vecs = np.concatenate([grid[np.indices((20,) * 3).reshape(3, -1).T], vecs])
    return vecs


class TestChordalRankTest:
    """The d = 0 step of ``terminal_hecke_lengths`` reads pairwise chordal
    distances; ``rank_refs`` keeps the form on unit perpendicular rows."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_decides_as_the_perpendicular_rows(self, n):
        vecs, pts = rank_inputs(n), rat.default_points(n)
        got = rat.terminal_hecke_lengths(pts, vecs)
        assert np.array_equal(got, reference_terminal_hecke_lengths(pts, vecs))
        assert (got == n).any() and (got == n % 2).any()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_closed_form_ratio_is_the_two_column_ratio(self, n):
        # s_min / s_max of the unit rows of the run starts, from their
        # pairwise chordal distances: 2 sqrt(D) / (n + sqrt(n^2 - 4D)).
        starts = replaced_vecs(rank_inputs(n))
        i, j = rat.upper_pairs(n)
        d = (chordal_vecs(starts[:, i], starts[:, j]) ** 2).sum(axis=1)
        closed = 2 * np.sqrt(d) / (n + np.sqrt(np.maximum(n * n - 4 * d, 0)))
        ratio = two_column_ratio(perpendiculars(starts))
        wide = ratio > 1e-6
        assert wide.any() and not wide.all()
        assert (np.abs(closed - ratio)[wide] <= 1e-12 * ratio[wide]).all()
        # The library's threshold on D is the ratio's threshold.
        assert ((d < (rat.RANK_DROP_TOL * n) ** 2) == (closed < rat.RANK_DROP_TOL)).all()


@pytest.mark.parametrize("seed", [7, 11, 12345])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_s2_tuples_draw_in_per_draw_order(seed, n):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = list(suites._random_tuples(rng, n, suites.S2_CHUNK + 50))
    want = [rat.direction_vecs([[random_point(ref) for _ in range(n)] for _ in range(k)])
            for k in (suites.S2_CHUNK, 50)]
    assert [g.shape for g in got] == [w.shape for w in want]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert rng.bit_generator.state == ref.bit_generator.state
