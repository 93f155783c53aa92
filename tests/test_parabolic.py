import itertools

import numpy as np
import pytest

from heckelab import cli
from heckelab import elliptic as ell
from heckelab import parabolic as par
from heckelab import rational as rat
from heckelab import suites
from heckelab import theta as th
from heckelab.elliptic import (
    Decomposable,
    F2Twist,
    G2Twist,
    LineBundleClass,
    torsion_line,
    trivial_line,
)
from heckelab.parabolic import (
    Mark,
    ParabolicBundle,
    TerminalNotMinimal,
    Verdict,
    hecke_embeddings_elliptic,
    hecke_embeddings_rational,
    stabilities,
    stability,
)
from heckelab.projective import PROJ_TOL, ProjPoint, chordal, random_point
from heckelab.pseries import PolyMat2
from heckelab.rational import RationalBundle
from heckelab.torus import CurvePoint, Lattice

from chain_refs import chain_directions, evaluator
from draw_refs import reference_minimal_directions

LAT = Lattice()
RNG = np.random.default_rng(20)
A, B, C = ProjPoint(1, 0), ProjPoint(0, 1), ProjPoint(1, 1)
O00 = RationalBundle(0, 0)


def tuple_matrices(points, dirs):
    """Factors C_i diag(1, z - mu_i) realizing a direction tuple: C_i is the
    unit completion of v = P(mu_i)^{-1} a_i for the product P of the
    factors before it, so that eta of the prefix at mu_i is a_i."""
    mats = []
    for mu, a in zip(points, dirs):
        val = np.eye(2, dtype=complex)
        for mat in mats:
            val = val @ mat(mu)
        v = np.linalg.solve(val, a.vec)
        v = v / np.linalg.norm(v)
        c = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])
        mats.append(PolyMat2.constant(c) * PolyMat2([[1, 0], [0, [-mu, 1]]]))
    return mats


def rpt(rng=RNG):
    return CurvePoint(rng.random() + rng.random() * LAT.tau, LAT)


def bad_flags(pb):
    return [ell.bad_group_key(pb.underlying, m.line) is not None for m in pb.marks]


def witness(pb):
    """The most marks whose lines one maximal-slope subbundle witnesses as bad."""
    return stabilities([pb])[0].witness


def terminal_length(marks):
    """Terminal Hecke length of the sequence whose direction tuple is the marks."""
    vecs = rat.direction_vecs([[m.line for m in marks]])
    return int(rat.terminal_hecke_lengths([m.point for m in marks], vecs)[0])


class TestClassifyLines:
    def test_rational_all_bad_grouped_by_equality(self):
        marks = (Mark(0.1, A), Mark(0.2, A), Mark(0.3, B))
        pb = ParabolicBundle(O00, marks)
        # Every line of O + O is bad, witnessed by the constant subbundle
        # with that fiber: each mark's group is the marks with its line.
        for m, size in zip(marks, [2, 2, 1]):
            group = tuple(n for n in marks if n.line == m.line)
            assert len(group) == size
            assert witness(ParabolicBundle(O00, group)) == size
        assert witness(pb) == 2
        assert stability(pb).witness == 2

    def test_elliptic_semistable_pair(self):
        d = rpt()
        e = Decomposable(LineBundleClass(0, d.lift, LAT), LineBundleClass(0, -d.lift, LAT))
        marks = (Mark(rpt(), ProjPoint(1, 0)), Mark(rpt(), ProjPoint(0, 1)),
                 Mark(rpt(), ProjPoint(0.4, 1)))
        pb = ParabolicBundle(e, marks)
        assert bad_flags(pb) == [True, True, False]
        assert [ell.bad_group_key(e, m.line) for m in marks[:2]] == [A, B]
        assert witness(pb) == 1
        near = ParabolicBundle(e, marks[:1] + (Mark(rpt(), ProjPoint(1, 1e-10)),))
        assert witness(near) == 2

    def test_f2_single_bad_direction(self):
        e = F2Twist(trivial_line(LAT))
        pb = ParabolicBundle(e, (Mark(rpt(), ProjPoint(1, 0)), Mark(rpt(), ProjPoint(0, 1))))
        assert bad_flags(pb) == [True, False]
        assert ell.bad_group_key(e, ProjPoint(1, 1e-10)) == A
        assert stability(pb).witness == 1

    def test_g2_no_bad_directions(self):
        e = G2Twist(rpt().lift, trivial_line(LAT))
        pb = ParabolicBundle(e, (Mark(rpt(), random_point(RNG)),))
        assert bad_flags(pb) == [False]
        assert witness(pb) == 0

    def test_torsion_split_all_bad(self):
        e = Decomposable(torsion_line(LAT, 2), torsion_line(LAT, 2))
        pb = ParabolicBundle(e, (Mark(rpt(), random_point(RNG)), Mark(rpt(), random_point(RNG))))
        assert bad_flags(pb) == [True, True]
        assert [ell.bad_group_key(e, m.line) for m in pb.marks] == [m.line for m in pb.marks]
        assert witness(pb) == 1

    def test_unstable_underlying_rejected(self):
        # An unstable underlying bundle is unstable outright, with witness n.
        d = rpt()
        unstable = Decomposable(LineBundleClass(1, d.lift, LAT), LineBundleClass(-1, -d.lift, LAT))
        got = stabilities([ParabolicBundle(RationalBundle(1, 0), (Mark(0.1, A), Mark(0.2, B))),
                           ParabolicBundle(unstable, (Mark(rpt(), A),))])
        assert got == [par.StabilityVerdict(Verdict.UNSTABLE, 2), par.StabilityVerdict(Verdict.UNSTABLE, 1)]


def _semistable(u):
    return u.is_semistable() if isinstance(u, RationalBundle) else ell.is_semistable(u)


def reference_stability(pb):
    """The per-bundle verdict of ``stability`` before ``stabilities``:
    witnesses compared pairwise with ``ProjPoint ==``."""
    u, n = pb.underlying, len(pb.marks)
    if not _semistable(u):
        return par.StabilityVerdict(Verdict.UNSTABLE, n)
    keys = [m.line if isinstance(u, RationalBundle) else ell.bad_group_key(u, m.line)
            for m in pb.marks]
    m = max((sum(k == j for j in keys) for k in keys if k is not None), default=0)
    if 2 * m < n:
        return par.StabilityVerdict(Verdict.STABLE, m)
    if 2 * m == n:
        return par.StabilityVerdict(Verdict.STRICTLY_SEMISTABLE, m)
    return par.StabilityVerdict(Verdict.UNSTABLE, m)


def near_line(x, gap):
    """A line [x + delta : 1] at chordal distance ``gap`` from [x : 1], to
    first order (the test checks the true distance)."""
    return ProjPoint(x + gap * (1 + abs(x) ** 2), 1)


def mixed_bundles():
    """Rational and elliptic bundles of 0 to 7 marks: unstable underlying
    bundles, F2 and G2 twists, O + O, and lines half and twice ``PROJ_TOL``
    apart, including a chain whose ends differ while each neighbor pair is
    equal."""
    rng = np.random.default_rng(21)
    x = 0.3 - 0.2j
    close, far = near_line(x, 0.5 * PROJ_TOL), near_line(x, 2 * PROJ_TOL)
    chain = [near_line(x, 0.6 * PROJ_TOL * k) for k in range(3)]
    base = ProjPoint(x, 1)
    d = rpt(rng)
    pair = Decomposable(LineBundleClass(0, d.lift, LAT), LineBundleClass(0, -d.lift, LAT))
    unstable = Decomposable(LineBundleClass(1, d.lift, LAT), LineBundleClass(-1, -d.lift, LAT))
    oo = Decomposable(trivial_line(LAT), trivial_line(LAT))
    f2 = F2Twist(trivial_line(LAT))
    g2 = G2Twist(rpt(rng).lift, trivial_line(LAT))
    split = Decomposable(torsion_line(LAT, 2), torsion_line(LAT, 2))
    zero, inf, near_zero = ProjPoint(1, 0), ProjPoint(0, 1), ProjPoint(1, 0.5 * PROJ_TOL)

    def marks(lines):
        return tuple(Mark(0.1 * (k + 1), line) for k, line in enumerate(lines))

    def emarks(lines):
        return tuple(Mark(rpt(rng), line) for line in lines)

    return [
        ParabolicBundle(O00, ()),
        ParabolicBundle(O00, marks([base, close, far])),
        ParabolicBundle(O00, marks([base, close, B, C])),
        ParabolicBundle(O00, marks([base, far, B, C])),
        ParabolicBundle(O00, marks(chain)),
        ParabolicBundle(O00, marks(chain + [A, B, C, C])),
        ParabolicBundle(RationalBundle(1, 0), ()),
        ParabolicBundle(RationalBundle(1, 0), marks([A, B])),
        ParabolicBundle(RationalBundle(2, 0), marks([A, A, A])),
        ParabolicBundle(pair, ()),
        ParabolicBundle(pair, emarks([zero, near_zero, inf, base])),
        ParabolicBundle(pair, emarks([zero, inf, base, close])),
        ParabolicBundle(unstable, emarks([zero])),
        ParabolicBundle(unstable, ()),
        ParabolicBundle(oo, emarks([base, close, far, far, random_point(rng)])),
        ParabolicBundle(oo, emarks(chain)),
        ParabolicBundle(f2, emarks([zero, near_zero, inf])),
        ParabolicBundle(f2, emarks([inf, base])),
        ParabolicBundle(g2, emarks([zero, zero, inf, base, base, base, close])),
        ParabolicBundle(g2, ()),
        ParabolicBundle(split, emarks([random_point(rng) for _ in range(4)])),
        ParabolicBundle(O00, marks([random_point(rng) for _ in range(5)] + [A, A])),
    ]


class TestStabilities:
    def test_fixture_lines_straddle_the_tolerance(self):
        x = 0.3 - 0.2j
        base = ProjPoint(x, 1)
        assert 0.4 * PROJ_TOL < chordal(base, near_line(x, 0.5 * PROJ_TOL)) < 0.6 * PROJ_TOL
        assert 1.9 * PROJ_TOL < chordal(base, near_line(x, 2 * PROJ_TOL)) < 2.1 * PROJ_TOL
        ends = [near_line(x, 0), near_line(x, 1.2 * PROJ_TOL)]
        mid = near_line(x, 0.6 * PROJ_TOL)
        assert ends[0] != ends[1] and mid == ends[0] and mid == ends[1]

    def test_matches_the_per_bundle_rule(self):
        pbs = mixed_bundles()
        got = stabilities(pbs)
        assert got == [reference_stability(pb) for pb in pbs]
        assert got == [stability(pb) for pb in pbs]
        # Every verdict occurs, and the witnesses cover the padded widths.
        assert {v.verdict for v in got} == set(Verdict)
        assert [v.witness for v in got[:6]] == [0, 2, 2, 1, 3, 3]

    def test_order_and_subsets_do_not_matter(self):
        pbs = mixed_bundles()
        want = [reference_stability(pb) for pb in pbs]
        assert stabilities(pbs[::-1]) == want[::-1]
        assert stabilities(pbs[1::3]) == want[1::3]
        assert stabilities([]) == []

    def test_each_bundle_alone_matches_the_rule(self):
        for pb in mixed_bundles():
            assert stabilities([pb]) == [reference_stability(pb)]

    @pytest.mark.parametrize("seed", [7, 11])
    def test_embed_check_bundles(self, monkeypatch, seed):
        seen = []
        batched = par.stabilities

        def record(pbs):
            seen.extend(pbs)
            return batched(pbs)

        monkeypatch.setattr(par, "stabilities", record)
        assert cli.run("embed-check", cli.RunConfig(seed=seed)).ok
        # 4 split fixtures, 2 x 200 seeded sequences, 10 + 10 embeddings.
        assert len(seen) == 424
        assert batched(seen) == [reference_stability(pb) for pb in seen]


class TestStability:
    @pytest.mark.parametrize("marks,want", [
        ((Mark(0.1, A), Mark(0.2, B), Mark(0.3, C)), Verdict.STABLE),
        ((Mark(0.1, A),), Verdict.UNSTABLE),
        ((Mark(0.1, A), Mark(0.2, A)), Verdict.UNSTABLE),
        ((Mark(0.1, A), Mark(0.2, B)), Verdict.STRICTLY_SEMISTABLE),
    ])
    def test_split_fixtures(self, marks, want):
        assert stability(ParabolicBundle(O00, marks)).verdict is want

    def test_unstable_underlying(self):
        v = stability(ParabolicBundle(RationalBundle(2, 0), (Mark(0.1, A),)))
        assert v.verdict is Verdict.UNSTABLE

    def test_g2_always_stable(self):
        e = G2Twist(rpt().lift, trivial_line(LAT))
        marks = tuple(Mark(rpt(), random_point(RNG)) for _ in range(3))
        assert stability(ParabolicBundle(e, marks)).verdict is Verdict.STABLE


class TestCorrespondence:
    def test_roundtrip_identity(self):
        vecs = rat.minimal_direction_vecs(1, 3, np.random.default_rng(1))[0]
        seq = rat.RationalSequence(rat.default_points(3), vecs)
        marks = [Mark(mu, ProjPoint(*v)) for mu, v in zip(seq.points.tolist(), seq.h_map())]
        points, dirs = [m.point for m in marks], [m.line for m in marks]
        back = chain_directions(tuple_matrices(points, dirs), points)
        assert max(chordal(x, y) for x, y in zip(back, dirs)) < 1e-9

    def test_permutation_invariance_of_terminal(self):
        rng = np.random.default_rng(2)
        pts = rat.default_points(3)
        for _ in range(10):
            if rng.random() < 0.5:
                a = random_point(rng)
                dirs = [a, a, random_point(rng)]
            else:
                dirs = [random_point(rng) for _ in range(3)]
            # The length fixes the terminal class (-d1, -(3 - d1)), d1 = (3 - length) / 2.
            lengths = {terminal_length([Mark(pts[i], dirs[i]) for i in perm])
                       for perm in itertools.permutations(range(3))}
            assert len(lengths) == 1

    def test_equal_first_lines_terminal_type(self):
        a = random_point(np.random.default_rng(3))
        for r in (1, 2, 3):
            marks = [Mark(p, a) for p in rat.default_points(r)]
            assert terminal_length(marks) == r  # the terminal class O + O(-r)


class TestLemmaDirection:
    def test_rational(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            pts = rat.default_points(n)
            a = random_point(rng)
            r = n // 2 + 1
            dirs = [a] * r + [random_point(rng) for _ in range(n - r)]
            marks = [Mark(p, d) for p, d in zip(pts, dirs)]
            assert stability(ParabolicBundle(O00, tuple(marks))).verdict is Verdict.UNSTABLE
            # Length 0 is the one semistable terminal class, O(-n/2) + O(-n/2).
            assert terminal_length(marks) != 0

    def test_elliptic_two_step(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            q, p1, p2 = (rpt(rng) for _ in range(3))
            base = ell.base_from_coordinate([th.pi_cover(rpt(rng))], [q])[0]
            bad = ProjPoint(1, 0)
            reps = []
            current = base.bundle
            for pnt in (p1, p2):
                val = np.eye(2, dtype=complex)
                for rep in reps:
                    val = val @ evaluator(rep)(np.asarray(pnt.lift))
                v = np.linalg.solve(val, bad.vec)
                reps.append(ell.morphism_rep([current], [pnt], [ProjPoint(v[0], v[1])])[0])
                current = reps[-1].result
            marks = [Mark(p, d) for p, d in zip((p1, p2), ell.factor_lines(ell.chain_factors([reps]))[0])]
            pb = ParabolicBundle(base.bundle, tuple(marks))
            assert stability(pb).verdict is Verdict.UNSTABLE
            assert not ell.is_semistable(current)


class TestEmbedding:
    AUX = [Mark(10.0 + 1j, A), Mark(11.0 + 1j, B), Mark(12.0 + 1j, C)]

    def test_rational_zero_steps(self):
        seq = rat.RationalSequence([], np.zeros((0, 2)))
        pb = hecke_embeddings_rational(seq, self.AUX)[0]
        assert stability(pb).verdict is Verdict.STABLE
        assert len(pb.marks) == 3

    def test_rational_two_distinct(self):
        seq = rat.RationalSequence([0.1, 0.9], [ProjPoint(0.5, 1).vec, ProjPoint(-0.8 + 0.3j, 1).vec])
        pb = hecke_embeddings_rational(seq, self.AUX)[0]
        assert stability(pb).verdict is Verdict.STABLE
        assert len(pb.marks) == 5

    def test_rational_rejects_nonminimal(self):
        a = ProjPoint(0.5, 1)
        # Directions are read from the composite; realize an equal pair.
        pts = rat.default_points(2)
        dirs = chain_directions(tuple_matrices(pts, [a, a]), pts)
        prefix = np.eye(2, dtype=complex)
        current = RationalBundle(0, 0)
        built = []
        for mu, d in zip(pts, dirs):
            v = np.linalg.solve(prefix, d.vec)
            step = ProjPoint(v[0], v[1])
            built.append(step.vec)
            prefix = prefix @ rat.morphism_matrix(current, mu, step)(pts[1])
            current = rat.single_hecke(current, step)
        seq = rat.RationalSequence(pts, built)
        with pytest.raises(TerminalNotMinimal):
            hecke_embeddings_rational(seq, self.AUX)

    def test_length_walk_agrees_with_rank_test(self):
        # The embedding reads minimality off the sequence's length walk; the
        # rank test on its direction tuple decides the same on every draw.
        for n in (2, 4, 6):
            for seed in range(40):
                vecs = rat.minimal_direction_vecs(1, n, np.random.default_rng(seed))[0]
                seq = rat.RationalSequence(rat.default_points(n), vecs)
                walk = seq.hecke_lengths()[-1]
                assert walk == rat.terminal_hecke_lengths(seq.points, seq.h_map()[None])[0] == 0
                hecke_embeddings_rational(seq, self.AUX)

    def test_rational_rejects_walk_to_length_two(self):
        # Two steps toward [1:0]: the walk goes 0 -> 1 -> 2.
        seq = rat.RationalSequence([0.2, 0.7], [ProjPoint(1, 0).vec, ProjPoint(1, 1e-12).vec])
        assert seq.hecke_lengths().tolist() == [0, 1, 2]
        with pytest.raises(TerminalNotMinimal, match="length 2"):
            hecke_embeddings_rational(seq, self.AUX)

    def test_stack_marks_equal_batches_of_one(self):
        rng = np.random.default_rng(22)
        for n in (0, 2, 4, 6):
            pts = rat.default_points(n)
            vecs = rat.minimal_direction_vecs(7, n, rng)
            stack = hecke_embeddings_rational(rat.RationalSequence([pts] * 7, vecs), self.AUX)
            assert len(stack) == 7
            for pb, v in zip(stack, vecs):
                one = hecke_embeddings_rational(rat.RationalSequence(pts, v), self.AUX)[0]
                assert ([(m.point, m.line.a, m.line.c) for m in pb.marks]
                        == [(m.point, m.line.a, m.line.c) for m in one.marks])
                assert pb.underlying == one.underlying
            assert all(v.verdict is Verdict.STABLE for v in stabilities(stack))

    def test_stack_rejections(self):
        rng = np.random.default_rng(23)
        pts3 = rat.default_points(3)
        odd = rat.RationalSequence([pts3] * 2, rat.minimal_direction_vecs(2, 3, rng))
        with pytest.raises(ValueError, match="even-length"):
            hecke_embeddings_rational(odd, self.AUX)
        pts = rat.default_points(2)
        pair = rat.minimal_direction_vecs(2, 2, rng)
        good = pair[0]
        stack = rat.RationalSequence([pts] * 2, pair)
        with pytest.raises(ValueError, match="distinct"):
            hecke_embeddings_rational(stack, [self.AUX[0], self.AUX[1], Mark(13.0 + 1j, A)])
        walk = [ProjPoint(1, 0).vec, ProjPoint(1, 1e-12).vec]
        bad = rat.RationalSequence([pts] * 3, [good, walk, good])
        assert bad.hecke_lengths()[:, -1].tolist() == [0, 2, 0]
        with pytest.raises(TerminalNotMinimal, match="length 2"):
            hecke_embeddings_rational(bad, self.AUX)

    @pytest.mark.parametrize("seed", [7, 11, 12345])
    def test_section_draws_match_the_per_draw_loop(self, seed):
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stacks = suites._rational_embedding_draws(rng)
        loop = {n: reference_minimal_directions(5, n, loop_rng) for n in (2, 4)}
        for n, stack in stacks.items():
            assert stack.points.shape == (5, n)
            assert np.array_equal(stack.points, np.array([rat.default_points(n)] * 5))
            assert stack.vecs.tobytes() == rat.direction_vecs(loop[n]).tobytes()
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    def test_elliptic_members_embed_stably(self):
        rng = np.random.default_rng(6)
        q, p1, p2 = (rpt(rng) for _ in range(3))
        tau0 = th.pi_cover(rpt(rng))
        while True:
            taus = [th.pi_cover(rpt(rng)) for _ in range(2)]
            seq = ell.sequence_from_coordinates([q], [[p1, p2]], [[tau0, *taus]])[0]
            if ell.membership_Hp([seq])[0]:
                break
        pb = hecke_embeddings_elliptic([seq])[0]
        assert stability(pb).verdict is Verdict.STABLE
        assert len(pb.marks) == 3
