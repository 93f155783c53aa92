from dataclasses import dataclass

import numpy as np
import pytest

from heckelab.projective import ProjPoint, chordal
from heckelab.pseries import PolyMat2
from heckelab.rational import (
    RationalBundle,
    RationalSequence,
    above_degree_matrix,
    direction_vecs,
    minimal_direction_vecs,
    morphism_matrix,
    single_hecke,
)
from heckelab.seidel_smith import (
    CONJECTURE_CHUNK,
    SPECTRUM_GAP,
    DegenerateSpectrum,
    ReductionFailure,
    conjecture_check,
    conjecture_draws,
    conjecture_residuals,
    kamnitzer,
    separated_points,
    slice_matrices,
    woodward_vecs,
)

from chain_refs import chain_directions
from draw_refs import reference_minimal_directions, reference_separated_points

L1, L2 = 0.7 - 0.3j, 1.1 + 0.2j
MU1, MU2 = 0.2 + 0.1j, 0.9 - 0.4j
LB2 = L2 / (MU2 - MU1)


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


def chi(a) -> np.ndarray:
    """Multiset of eigenvalues of the dense form."""
    dense = a.dense() if isinstance(a, SlodowyMatrix) else np.asarray(a, dtype=complex)
    return np.linalg.eigvals(dense)


def sequence(points, dirs):
    """The sequence of modifications of O + O at ``points`` toward ``dirs``."""
    return RationalSequence(points, direction_vecs([dirs])[0])


def stack(seqs):
    """One stacked sequence of a list of sequences of one length."""
    return RationalSequence([s.points for s in seqs], [s.vecs for s in seqs])


def char_poly(s: SlodowyMatrix) -> np.ndarray:
    """det(z^m - z^{m-1} Y_1 - ... - Y_m), ascending coefficients.

    Independent of the dense eigensolve; the cross-check oracle for chi.
    """
    c = np.zeros((2, 2, s.m + 1), dtype=complex)
    c[..., s.m] = np.eye(2)
    for k, y in enumerate(s.blocks, start=1):
        c[..., s.m - k] -= y
    return PolyMat2(c).det()


# Reference copy of the per-draw diagram check that the stacked pass
# replaced: per-step classes and table matrices, PolyMat2 products, one
# SVD, one lstsq and one SVD per eigenvalue per sequence, and the scalar
# direction chain.


def _ref_steps(seq):
    """Table matrices of one sequence and its terminal class, one
    ``morphism_matrix`` and one ``single_hecke`` per step from O + O."""
    b, mats = RationalBundle(0, 0), []
    for mu, (a, c) in zip(seq.points.tolist(), seq.vecs.tolist()):
        mats.append(morphism_matrix(b, mu, ProjPoint(a, c)))
        b = single_hecke(b, ProjPoint(a, c))
    return mats, b


def _ref_kamnitzer(seq):
    n = len(seq)
    m = n // 2
    mats, terminal = _ref_steps(seq)
    if not terminal.is_semistable():
        raise ReductionFailure("unstable terminal")
    p = PolyMat2.identity()
    for mat in mats:
        p = p * mat
    deg = 2 * m
    _, s, vh = np.linalg.svd(above_degree_matrix(p.c / p.coeff_scale(), deg))
    null = vh.conj().T[:, np.sum(s > 1e-9 * max(s[0], 1.0)):]
    if null.shape[1] < 2 * m + 2:
        raise ReductionFailure("deficient rank")
    basis = np.array([np.concatenate([
        np.convolve(p.c[i, 0], v[: deg + 1])[: deg + 1]
        + np.convolve(p.c[i, 1], v[deg + 1:])[: deg + 1] for i in range(2)])
        for v in null.T]).T
    index = lambda k, j: j * (deg + 1) + k  # noqa: E731
    cols = np.eye(2 * (deg + 1))[:, [index(m - 1 - blk, j) for blk in range(m) for j in range(2)]]
    system = np.concatenate([cols, basis], axis=1)
    targets = np.eye(2 * (deg + 1))[:, [index(m, 0), index(m, 1)]]
    sol, _, rank, _ = np.linalg.lstsq(system, targets, rcond=None)
    if rank < system.shape[1] or np.linalg.norm(system @ sol - targets, axis=0).max() > 1e-8:
        raise ReductionFailure("singular")
    a = np.zeros((n, n), dtype=complex)
    a[: n - 2, 2:] = np.eye(n - 2)
    a[:, :2] = sol[:n]
    return a


def _ref_woodward(a, eigenvalues):
    for i in range(len(eigenvalues)):
        for j in range(i + 1, len(eigenvalues)):
            if abs(eigenvalues[i] - eigenvalues[j]) < SPECTRUM_GAP:
                raise DegenerateSpectrum("collide")
    out = []
    for mu in eigenvalues:
        v = np.linalg.svd(a.T - mu * np.eye(a.shape[0]))[2][-1].conj()
        out.append(ProjPoint(v[-2], v[-1]))
    return out


def _ref_residual(seq):
    w = _ref_woodward(_ref_kamnitzer(seq), seq.points)
    h = chain_directions(_ref_steps(seq)[0], seq.points.tolist())
    # Compare each h direction, mapped by [x:y] -> [-y:x], with w.
    return max(chordal(ProjPoint(-p.c, p.a), q) for p, q in zip(h, w))


def _draws(m, samples, seed):
    """The sequences ``conjecture_check`` draws, in its rng order: per chunk
    of CONJECTURE_CHUNK, the points of every draw, then their directions."""
    rng = np.random.default_rng(seed)
    seqs = []
    for start in range(0, samples, CONJECTURE_CHUNK):
        count = min(CONJECTURE_CHUNK, samples - start)
        points = reference_separated_points(count, 2 * m, rng)
        seqs += map(sequence, points, reference_minimal_directions(count, 2 * m, rng))
    return seqs


def _excursions(m):
    """Sequences of length 2m whose Hecke lengths climb past 1 before
    returning to 0, which ``conjecture_draws`` never makes: up to length 2
    for m >= 2, and up to length 3 for m >= 3."""
    walks = [[0, 1, 2, 1, 0] + [1, 0] * (m - 2), [0, 1, 2, 3, 2, 1, 0] + [1, 0] * (m - 3)]
    rng = np.random.default_rng(m)
    seqs = []
    for lengths in walks[: max(m - 1, 0)]:
        dirs = [ProjPoint(1, 0) if b > a > 0 else ProjPoint(rng.normal() + 1j * rng.normal(), 1)
                for a, b in zip(lengths, lengths[1:])]
        seqs.append(sequence(separated_points(1, 2 * m, rng)[0], dirs))
        assert seqs[-1].hecke_lengths().tolist() == lengths
    return seqs


def alpha_form(l1=L1, l2=L2, mu1=MU1, mu2=MU2):
    return sequence([mu1, mu2], [ProjPoint(l1, 1), ProjPoint(l2, 1)])


def beta_form(l2=L2, mu1=MU1, mu2=MU2):
    return sequence([mu1, mu2], [ProjPoint(1, 0), ProjPoint(l2, 1)])


class TestChi:
    def test_diagonal(self):
        s = SlodowyMatrix((np.diag([MU1, MU2]),))
        assert sorted(chi(s), key=abs) == sorted([MU1, MU2], key=abs)

    def test_upper_triangular(self):
        a = np.array([[MU2, -L2], [0, MU1]])
        ev = sorted(chi(a), key=lambda v: (v.real, v.imag))
        want = sorted([MU1, MU2], key=lambda v: (v.real, v.imag))
        assert max(abs(x - y) for x, y in zip(ev, want)) < 1e-12

    def test_prescribed_roots_recovered(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            blocks = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                           for _ in range(2))
            s = SlodowyMatrix(blocks)
            roots = sorted(np.roots(char_poly(s)[::-1]), key=lambda v: (v.real, v.imag))
            ev = sorted(chi(s), key=lambda v: (v.real, v.imag))
            assert max(abs(x - y) for x, y in zip(roots, ev)) < 1e-8

    def test_char_poly_oracle_m3(self):
        rng = np.random.default_rng(2)
        blocks = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                       for _ in range(3))
        s = SlodowyMatrix(blocks)
        roots = sorted(np.roots(char_poly(s)[::-1]), key=lambda v: (v.real, v.imag))
        ev = sorted(chi(s), key=lambda v: (v.real, v.imag))
        assert max(abs(x - y) for x, y in zip(roots, ev)) < 1e-8


class TestKamnitzer:
    def test_alpha_closed_form(self):
        a = kamnitzer(alpha_form())
        want = np.array([
            [MU1 - L1 * L2, L1 * (MU2 - MU1 + L1 * L2)],
            [-L2, MU2 + L1 * L2],
        ])
        assert np.abs(a - want).max() < 1e-12

    def test_beta_closed_form(self):
        a = kamnitzer(beta_form())
        assert np.abs(a - np.array([[MU2, -L2], [0, MU1]])).max() < 1e-12

    def test_beta_specialization_diagonal(self):
        a = kamnitzer(beta_form(l2=0.0))
        assert np.abs(a - np.diag([MU2, MU1])).max() < 1e-12

    def test_output_in_fiber(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 3):
            pts = separated_points(1, 2 * m, rng)[0]
            seq = RationalSequence(pts, minimal_direction_vecs(1, 2 * m, rng)[0])
            a = kamnitzer(seq)
            ev = sorted(chi(a), key=lambda v: (v.real, v.imag))
            want = sorted(pts, key=lambda v: (v.real, v.imag))
            assert max(abs(x - y) for x, y in zip(ev, want)) < 1e-8
            # Slice shape: identity superdiagonal blocks, zeros elsewhere.
            m2 = 2 * m
            for i in range(m2):
                for j in range(2, m2):
                    want_val = 1.0 if j == i + 2 else 0.0
                    assert abs(a[i, j] - want_val) < 1e-9

    def test_rejects_unstable_terminal(self):
        seq = sequence([MU1, MU2], [ProjPoint(0.4, 1), ProjPoint(1, 0)])
        with pytest.raises(ReductionFailure):
            kamnitzer(seq)


def woodward_points(a, eigenvalues):
    """The left-eigenvector directions of one matrix, as CP^1 points."""
    vecs = woodward_vecs(np.asarray(a, dtype=complex), np.asarray(eigenvalues, dtype=complex))
    return [ProjPoint(x, y) for x, y in vecs]


class TestWoodward:
    def test_beta_form_points(self):
        w = woodward_points(np.array([[MU2, -L2], [0, MU1]]), [MU1, MU2])
        assert chordal(w[0], ProjPoint(0, 1)) < 1e-12
        assert chordal(w[1], ProjPoint(1, -LB2)) < 1e-12

    def test_alpha_form_points(self):
        w = woodward_points(kamnitzer(alpha_form()), [MU1, MU2])
        assert chordal(w[0], ProjPoint(1, -L1)) < 1e-12
        assert chordal(w[1], ProjPoint(-LB2, 1 + L1 * LB2)) < 1e-12

    def test_diagonal_standard_basis(self):
        w = woodward_points(np.diag([MU1, MU2]), [MU1, MU2])
        assert w[0] == ProjPoint(1, 0)
        assert w[1] == ProjPoint(0, 1)

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            woodward_vecs(np.eye(2), np.array([1.0, 1.0]))

    def test_left_eigenvector_chain_shape(self):
        rng = np.random.default_rng(4)
        blocks = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                       for _ in range(2))
        s = SlodowyMatrix(blocks)
        dense = s.dense()
        ev = chi(s)
        for mu, w in zip(ev, woodward_vecs(dense, ev)):
            # v_{j-1} = mu v_j blockwise, so the last block determines v.
            v = np.concatenate([mu * w, w])
            assert np.abs(v @ dense - mu * v).max() < 1e-9 * np.abs(v).max()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_closed_form_matches_full_svd(self, m):
        rng = np.random.default_rng(40 + m)
        for _ in range(20):
            s = SlodowyMatrix(tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                                    for _ in range(m)))
            ev = chi(s)
            ref = _ref_woodward(s.dense(), ev)
            for p, q in zip(woodward_points(s.dense(), ev), ref):
                assert chordal(p, q) <= 1e-12

    def test_rejects_a_matrix_outside_the_slice(self):
        dense = np.random.default_rng(8).normal(size=(4, 4)).astype(complex)
        with pytest.raises(ValueError, match="slice"):
            woodward_vecs(dense, chi(dense))
        almost = SlodowyMatrix((np.eye(2), np.eye(2))).dense()
        almost[0, 3] = 1e-20
        with pytest.raises(ValueError, match="slice"):
            woodward_vecs(almost, np.array([1.0, 2.0, 3.0, 4.0]))

    def test_at_most_m_coincidences(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            blocks = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                           for _ in range(2))
            s = SlodowyMatrix(blocks)
            ev = chi(s)
            if min(abs(ev[i] - ev[j]) for i in range(4) for j in range(i + 1, 4)) < 1e-3:
                continue
            pts = woodward_points(s.dense(), ev)
            for i in range(4):
                near = sum(1 for j in range(4) if chordal(pts[i], pts[j]) < 1e-8)
                assert near <= 2


class TestConjecture:
    def test_closed_forms_commute(self):
        assert conjecture_residuals(stack([alpha_form(), beta_form()])).max() < 1e-12

    def test_m1_m2_sweeps(self):
        rng = np.random.default_rng(6)
        assert conjecture_check(1, 60, rng) < 1e-8
        assert conjecture_check(2, 60, rng) < 1e-8

    @pytest.mark.parametrize("seed", [7, 11])
    def test_m4_residual_at_roundoff(self, seed):
        assert conjecture_check(4, 50, np.random.default_rng(seed)) < 1e-12

    def test_m3_sweep_reports(self):
        residual = conjecture_check(3, 10, np.random.default_rng(7))
        reference = max(_ref_residual(seq) for seq in _draws(3, 10, 7))
        assert abs(residual - reference) < REFERENCE_BOUND[3]
        assert residual < 1e-10


#: Agreement of the stacked and per-draw residuals, both roundoff.  At m = 3
#: the per-draw loop alone reads up to 2.2e-12 (seed 7), and at m = 4 up
#: to 2.2e-11 (seed 12345), so their bounds leave room for the reference's own
#: error.
REFERENCE_BOUND = {1: 1e-12, 2: 1e-12, 3: 5e-12, 4: 5e-11}


class TestStackedPass:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [7, 11, 12345])
    def test_matches_per_draw_reference(self, m, seed):
        samples = 200 if m <= 2 else 50
        seqs = _draws(m, samples, seed)
        batched = conjecture_residuals(stack(seqs))
        reference = np.array([_ref_residual(seq) for seq in seqs])
        assert np.abs(batched - reference).max() < REFERENCE_BOUND[m]
        assert conjecture_check(m, samples, np.random.default_rng(seed)) == batched.max()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_element_matches_batch_of_one(self, m):
        seqs = _draws(m, 12, 5) + _excursions(m)
        seq = stack(seqs)
        stacked = slice_matrices(seq.coeffs(), seq.hecke_lengths()[:, -1])
        residuals = conjecture_residuals(seq)
        for i, seq in enumerate(seqs):
            alone = kamnitzer(seq)
            assert np.abs(stacked[i] - alone).max() <= 1e-14 * np.abs(alone).max()
            ref = _ref_kamnitzer(seq)
            assert np.abs(stacked[i] - ref).max() <= 1e-10 * np.abs(ref).max()
            assert abs(residuals[i] - conjecture_residuals(stack([seq]))[0]) < 1e-14

    def test_unstable_terminal_in_batch_raises_like_scalar(self):
        bad = sequence([MU1, MU2], [ProjPoint(0.4, 1), ProjPoint(1, 0)])
        with pytest.raises(ReductionFailure):
            _ref_residual(bad)
        seqs = _draws(1, 5, 3)
        with pytest.raises(ReductionFailure):
            conjecture_residuals(stack(seqs[:2] + [bad] + seqs[2:]))

    def test_singular_composite_raises(self):
        seq = stack(_draws(1, 3, 2))
        coeffs, terminal = seq.coeffs(), seq.hecke_lengths()[:, -1]
        coeffs[1] = 0.0
        coeffs[1, :, 0, 0, 0] = 1.0  # every step diag(1, 0): P = diag(1, 0), its z^1 coefficient 0
        with pytest.raises(ReductionFailure, match="singular"):
            slice_matrices(coeffs, terminal)

    @pytest.mark.parametrize("dirs", [
        [ProjPoint(0.4, 1), ProjPoint(1, 0)],
        [ProjPoint(0.4, 1), ProjPoint(1, 0), ProjPoint(1, 0), ProjPoint(0.3, 1)],
        [ProjPoint(0.5, 1), ProjPoint(0.2, 1), ProjPoint(1, 0), ProjPoint(1, 0)],
        [ProjPoint(1, 0)] * 4,
    ])
    def test_unstable_terminal_passed_as_semistable_raises(self, dirs):
        bad = sequence([MU1, MU2, 0.1 - 0.5j, -0.6 + 0.3j][: len(dirs)], dirs)
        assert bad.hecke_lengths()[-1] > 0
        with pytest.raises(ReductionFailure):
            slice_matrices(bad.coeffs()[None], np.zeros(1))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("seed", [7, 11, 12345])
    def test_stacked_draws_match_per_draw_sequences(self, m, seed):
        rng = np.random.default_rng(seed)
        seq = conjecture_draws(m, 40, rng)
        ref_rng = np.random.default_rng(seed)
        points = reference_separated_points(40, 2 * m, ref_rng)
        dirs = reference_minimal_directions(40, 2 * m, ref_rng)
        assert seq.points.tobytes() == np.array(points).tobytes()
        assert seq.vecs.tobytes() == direction_vecs(dirs).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_close_eigenvalues_in_batch_raise_like_scalar(self):
        a = np.diag([MU1, MU2]).astype(complex)
        close = [MU1, MU1 + 0.5 * SPECTRUM_GAP]
        with pytest.raises(DegenerateSpectrum):
            _ref_woodward(a, close)
        eigenvalues = np.array([[MU1, MU2], close, [MU2, MU1]])
        with pytest.raises(DegenerateSpectrum):
            woodward_vecs(np.stack([a] * 3), eigenvalues)


class ScriptedNormals:
    """A generator stand-in whose ``normal`` blocks read the (real,
    imaginary) parts of the given candidates in order."""

    def __init__(self, candidates):
        self.parts = [x for z in candidates for x in (z.real, z.imag)]

    def normal(self, size):
        k = int(np.prod(size))
        block, self.parts = self.parts[:k], self.parts[k:]
        return np.reshape(block, size)


class TestSeparatedPoints:
    def test_a_candidate_exactly_gap_away_is_kept(self):
        for pair in ([0j, 0.3], [0j, -0.3j]):
            assert abs(pair[1] - pair[0]) == 0.3
            assert separated_points(1, 2, ScriptedNormals(pair)).tolist() == [pair]

    def test_a_candidate_just_below_gap_is_skipped(self):
        below = np.nextafter(0.3, 0.0)
        # Round one draws two candidates for each draw and keeps one in the
        # first; round two draws one more for the first draw only.
        script = ScriptedNormals([0j, below, 1j, 1j + 0.3, 0.6])
        pts = separated_points(2, 2, script)
        assert pts.tolist() == [[0j, 0.6], [1j, 1j + 0.3]]
        assert script.parts == []

    @pytest.mark.parametrize("seed", [7, 11])
    def test_a_crowded_draw_finishes_as_the_loop(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        pts = separated_points(5, 40, rng)
        want = reference_separated_points(5, 40, ref)
        assert pts.tobytes() == np.array(want).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        i, j = np.triu_indices(40, 1)
        assert np.isfinite(pts).all() and (np.abs(pts[:, i] - pts[:, j]) >= 0.3).all()


def _exact_slice(points, dirs, lengths):
    """The slice of one sequence over Q(i), for Gaussian-rational points and
    directions (None for [1:0]) along the Hecke ``lengths``: the composite of
    the table matrices, its exact zeros above degree m, and the monic
    generator's C_t = P_t P_m^{-1}, with no floating-point step."""
    from sympy import QQ_I
    from sympy.polys.matrices import DomainMatrix

    def mat(rows):
        return DomainMatrix([[QQ_I.convert(x) for x in row] for row in rows], (2, 2), QQ_I)

    zero, p = mat([[0, 0], [0, 0]]), [mat([[1, 0], [0, 1]])]
    for mu, lam, length in zip(points, dirs, lengths):
        if lam is None:  # diag(1, z - mu)
            t0, t1 = mat([[1, 0], [0, -mu]]), mat([[0, 0], [0, 1]])
        elif length == 0:  # [[lam, z - mu], [1, 0]]
            t0, t1 = mat([[lam, -mu], [1, 0]]), mat([[0, 1], [0, 0]])
        else:  # [[z - mu, lam], [0, 1]]
            t0, t1 = mat([[-mu, lam], [0, 1]]), mat([[1, 0], [0, 0]])
        p = [a * t0 + b * t1 for a, b in zip(p + [zero], [zero] + p)]
    n = len(points)
    m = n // 2
    assert all(c.is_zero_matrix for c in p[m + 1:])
    inv = p[m].inv()
    a = np.zeros((n, n), dtype=complex)
    a[: n - 2, 2:] = np.eye(n - 2)
    for k in range(m):
        c = (p[m - 1 - k] * inv).to_list()
        a[2 * k : 2 * k + 2, :2] = [[-complex(float(g.x), float(g.y)) for g in row] for row in c]
    return a


def _gaussian(rng, count, scale, bound):
    """``count`` distinct Gaussian rationals (a + b i) / scale, |a|, |b| <= bound."""
    from sympy import I, Rational

    pairs = []
    while len(pairs) < count:
        pair = tuple(int(v) for v in rng.integers(-bound, bound + 1, size=2))
        if pair not in pairs:
            pairs.append(pair)
    return [Rational(a, scale) + I * Rational(b, scale) for a, b in pairs]


class TestExactOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_slices_match_exact_gaussian_rational_slices(self, m):
        pytest.importorskip("sympy")
        rng = np.random.default_rng(70 + m)
        # Five minimal walks, and one excursion to length 2.
        walks = [[0, 1] * m + [0] for _ in range(5)]
        if m >= 2:
            walks.append([0, 1, 2, 1, 0] + [1, 0] * (m - 2))
        n = 2 * m
        seqs, exact = [], []
        for lengths in walks:
            # Dyadic, so the floats the program reads are the same rationals.
            points, lams = _gaussian(rng, n, 4, 6), _gaussian(rng, n, 8, 5)
            dirs = [None if (b > a > 0 or (a == 0 and rng.random() < 0.3)) else lam
                    for a, b, lam in zip(lengths, lengths[1:], lams)]
            vecs = [(1, 0) if d is None else (complex(d), 1) for d in dirs]
            seqs.append(RationalSequence([complex(p) for p in points], vecs))
            assert seqs[-1].hecke_lengths().tolist() == lengths
            exact.append(_exact_slice(points, dirs, lengths[:-1]))
        seq = stack(seqs)
        got = slice_matrices(seq.coeffs(), seq.hecke_lengths()[:, -1])
        for a, want in zip(got, exact):
            assert np.abs(a - want).max() <= 1e-12 * np.abs(want).max()
