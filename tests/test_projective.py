import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.grassmannian import NotInCell, eta_vecs
from heckelab.projective import (
    NORM_TOL,
    RANK_TOL,
    DegeneratePoint,
    ProjPoint,
    chordal,
    chordal_vecs,
    complex_abs,
    complex_div,
    complex_mul,
    normalized_vecs,
    rank_one_column_space,
    rank_one_column_spaces,
    transport_direction,
    transport_directions,
)


def _ref_rank_one(m, rank_tol=RANK_TOL, norm_tol=NORM_TOL):
    """Reference copy of the one-matrix closed form the array form replaced."""
    m = np.asarray(m, dtype=complex)
    top = np.abs(m).max()
    if top < norm_tol:
        return None, 0.0, 0.0

    def closed_form(mm):
        g = mm @ mm.conj().T
        p, q = g[0, 0].real, g[1, 1].real
        r = g[0, 1]
        disc = np.sqrt(max(0.25 * (p - q) ** 2 + abs(r) ** 2, 0.0))
        lam1 = 0.5 * (p + q) + disc
        s1 = np.sqrt(max(lam1, 0.0))
        s2 = abs(np.linalg.det(mm)) / s1 if s1 > 0 else 0.0
        v1 = np.array([r, lam1 - p])
        v2 = np.array([lam1 - q, np.conj(r)])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        if np.linalg.norm(v) < norm_tol * max(s1, 1.0):
            v = np.array([1.0, 0.0]) if p >= q else np.array([0.0, 1.0])
        return s1, s2, v

    s1, s2, v = closed_form(m / top)
    if s1 >= norm_tol and s2 <= rank_tol * s1:
        return ProjPoint(v[0], v[1]), s1, s2
    rs = np.abs(m).max(axis=1)
    rs = np.where(rs > norm_tol * top, rs, top)
    mb = m / rs[:, None]
    cs = np.abs(mb).max(axis=0)
    cs = np.where(cs > norm_tol, cs, 1.0)
    s1b, s2b, vb = closed_form(mb / cs[None, :])
    if s1b >= norm_tol and s2b <= rank_tol * s1b:
        return ProjPoint(rs[0] * vb[0], rs[1] * vb[1]), s1b, s2b
    return None, s1, s2


def _unitary(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q


def _with_singular_values(rng, count, s2):
    return np.array([_unitary(rng) @ np.diag([1.0, s2]) @ _unitary(rng) for _ in range(count)])


def _cases():
    rng = np.random.default_rng(21)
    u = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    v = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    rank1 = u[:, :, None] * v[:, None, :] * 10.0 ** rng.uniform(-6, 6, size=(50, 1, 1))
    # Rows 1e+-12 apart: exactly rank 1 (both tests pass), and with the small
    # row off the line at noise level (only the top-normalized test passes).
    rows = np.where(rng.random((50, 1, 1)) < 0.5, [[1e12], [1e-12]], [[1e-12], [1e12]])
    aniso = rows * rank1
    noisy = aniso.copy()
    small = np.argmin(np.abs(noisy).max(axis=2), axis=1)
    noisy[np.arange(50), small] *= 1 + 1e-3 * (rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2)))
    return {
        "rank1": rank1,
        "below-tol": _with_singular_values(rng, 20, 0.5 * RANK_TOL),
        "above-tol": _with_singular_values(rng, 20, 2.0 * RANK_TOL),
        "rows-1e12-apart": aniso,
        "noise-level-row": noisy,
        "zero-and-identity": np.array([np.zeros((2, 2)), np.eye(2)]),
    }


@pytest.mark.parametrize("name", sorted(_cases()))
def test_array_form_matches_reference(name):
    mats = _cases()[name]
    vecs, s1, s2, ok = rank_one_column_spaces(mats)
    for i, m in enumerate(mats):
        point, r1, r2 = _ref_rank_one(m)
        assert bool(ok[i]) == (point is not None)
        assert abs(s1[i] - r1) <= 1e-14 * max(r1, 1e-300)
        assert abs(s2[i] - r2) <= 1e-14 * max(r1, 1e-300)
        one, o1, o2 = rank_one_column_space(m)
        assert (one is None) == (point is None)
        assert (o1, o2) == pytest.approx((s1[i], s2[i]), rel=1e-14, abs=1e-14 * o1)
        if point is not None:
            assert chordal(ProjPoint(*vecs[i]), point) < 1e-14
            assert chordal(one, point) < 1e-14


def test_expected_decisions():
    cases = _cases()
    assert rank_one_column_spaces(cases["rank1"])[3].all()
    assert rank_one_column_spaces(cases["below-tol"])[3].all()
    assert not rank_one_column_spaces(cases["above-tol"])[3].any()
    assert rank_one_column_spaces(cases["rows-1e12-apart"])[3].all()
    assert rank_one_column_spaces(cases["noise-level-row"])[3].all()
    assert not rank_one_column_spaces(cases["zero-and-identity"])[3].any()


def test_one_full_rank_element_fails_the_batch():
    mats = _cases()["rank1"].copy()
    assert eta_vecs(mats).shape == (50, 2)
    mats[17] = np.eye(2)
    with pytest.raises(NotInCell, match=r"\(17,\)"):
        eta_vecs(mats)


def test_one_matrix_is_its_batch_of_one():
    # The zero matrix, a rank-2 one, rank-1 ones whose largest entry sits
    # just above and just below NORM_TOL, and rank-1 ones at [1:0] and [0:1].
    rng = np.random.default_rng(12)
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    rank1 = np.outer(u, v) / np.abs(np.outer(u, v)).max()
    mats = np.array([np.zeros((2, 2)), rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                     rank1 * NORM_TOL * (1 + 1e-3), rank1 * NORM_TOL * (1 - 1e-3),
                     [[0.3 - 2j, 1.7], [0, 0]], [[0, 0], [1j, -0.4 + 0.2j]]], dtype=complex)
    vecs, s1, s2, ok = rank_one_column_spaces(mats)
    assert ok.tolist() == [False, False, True, False, True, True]
    for i, m in enumerate(mats):
        point, o1, o2 = rank_one_column_space(m)
        assert (o1, o2) == (s1[i], s2[i]) and type(o1) is float
        if ok[i]:
            want = ProjPoint(*vecs[i])
            assert np.array([point.a, point.c]).tobytes() == np.array([want.a, want.c]).tobytes()
        else:
            assert point is None
    assert (rank_one_column_space(mats[4])[0].a, rank_one_column_space(mats[5])[0].c) == (1, 1)


def test_chordal_vecs_matches_points():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
    v = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
    want = [chordal(ProjPoint(*a), ProjPoint(*b)) for a, b in zip(u, v)]
    assert np.allclose(chordal_vecs(u, v), want, rtol=1e-14, atol=0)


def _ref_transport(m, vec):
    """The preimage's homogeneous vector adj(M) w of one matrix, in Python's
    complex arithmetic, rescaled by the exact power of two that brings its
    largest part into [1/2, 1)."""
    (a, b), (c, d) = m.tolist()
    x, y = complex(vec[0]), complex(vec[1])
    u = (d * x + -b * y, -c * x + a * y)
    k = -math.frexp(max(max(abs(v.real), abs(v.imag)) for v in u))[1]
    return np.array([complex(math.ldexp(v.real, k), math.ldexp(v.imag, k)) for v in u])


def test_stacked_transport_is_bit_identical_per_element():
    rng = np.random.default_rng(8)
    mats = rng.normal(size=(60, 2, 2)) + 1j * rng.normal(size=(60, 2, 2))
    mats[:20, 0] *= np.exp(rng.uniform(-30, 30, size=(20, 1)))  # exponential frame anisotropy
    mats[20:30, 0, 1] = mats[20:30, 1, 0] = 0  # constant diagonal frames
    mats[30] = np.eye(2)
    vecs = rng.normal(size=(60, 2)) + 1j * rng.normal(size=(60, 2))
    vecs[40] = [1, 0]
    vecs[41] = [0, 1]
    want = np.array([_ref_transport(m, v) for m, v in zip(mats, vecs)])
    assert np.array_equal(transport_directions(mats, vecs), want)
    assert np.array_equal(transport_directions(mats[:, None], vecs[:, None])[:, 0], want)
    assert transport_directions(mats[:0], vecs[:0]).shape == (0, 2)
    for m, v in zip(mats, vecs):
        p = ProjPoint(*v)
        got, ref = transport_direction(m, p), ProjPoint(*_ref_transport(m, p.vec))
        assert (got.a, got.c) == (ref.a, ref.c)


# ---------------------------------------------------------------------------
# Array arithmetic that rounds as Python's complex does.

#: Parts of the complex operands: signed zeros, moduli from 1e-300 to 1e300,
#: values on either side of NORM_TOL, and any float in between.
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300, 5e-14, -2e-14, 3e-13]),
    st.floats(min_value=-1e300, max_value=1e300),
)
NUMBERS = st.builds(complex, PARTS, PARTS)
#: Pairs (a, c): independent, or tied in modulus |a| = |c|, exactly.
PAIRS = st.one_of(
    st.tuples(NUMBERS, NUMBERS),
    NUMBERS.map(lambda z: (z, complex(z.imag, z.real))),
    NUMBERS.map(lambda z: (z, -z.conjugate())),
    st.sampled_from([(3 + 4j, 5 + 0j), (-0.0 + 5j, 4 - 3j), (1e-14 + 0j, -0.0 + 1e-14j)]),
)
EXACT = settings(derandomize=True, max_examples=200, deadline=None)


@EXACT
@given(st.lists(PAIRS, min_size=1, max_size=6))
def test_complex_mul_and_abs_round_as_python(pairs):
    a, c = (np.array(x, dtype=complex) for x in zip(*pairs))
    with np.errstate(over="ignore", invalid="ignore"):
        assert complex_mul(a, c).tobytes() == np.array([x * y for x, y in pairs]).tobytes()
    assert complex_abs(a).tobytes() == np.array([abs(x) for x, _ in pairs]).tobytes()


@EXACT
@given(st.lists(PAIRS, min_size=1, max_size=6))
def test_complex_div_rounds_as_python(pairs):
    a, c = (np.array(x, dtype=complex) for x in zip(*pairs))
    if (c == 0).any():
        with pytest.raises(ZeroDivisionError):
            complex_div(a, c)
        keep = c != 0
        a, c = a[keep], c[keep]
    with np.errstate(over="ignore", invalid="ignore"):
        got = complex_div(a, c)
    assert got.tobytes() == np.array([x / y for x, y in zip(a.tolist(), c.tolist())]).tobytes()


@EXACT
@given(st.lists(PAIRS, min_size=1, max_size=6))
def test_normalized_vecs_are_projpoint_bits(pairs):
    vecs = np.array(pairs, dtype=complex)
    try:
        want = np.array([[p.a, p.c] for p in (ProjPoint(a, c) for a, c in pairs)], dtype=complex)
    except DegeneratePoint:
        with pytest.raises(DegeneratePoint):
            normalized_vecs(vecs)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            assert normalized_vecs(vecs).tobytes() == want.tobytes()


def test_helpers_round_as_python_on_a_random_block():
    """Moduli from 1e-4 to 1e4, where numpy's own complex product, quotient
    and modulus round a large share of elements otherwise on SIMD builds."""
    rng = np.random.default_rng(3)
    a, c = (rng.normal(size=(2, 4000)) * 10.0 ** rng.integers(-4, 4, size=(2, 4000))).view(complex)
    for helper, op in ((complex_mul, complex.__mul__), (complex_div, complex.__truediv__)):
        want = np.array(list(map(op, a.tolist(), c.tolist())))
        assert helper(a, c).tobytes() == want.tobytes()
    assert complex_abs(a).tobytes() == np.array([abs(x) for x in a.tolist()]).tobytes()
