"""Stacking invariants of the stacked cores, as properties.

A stacked core must give each element of a stack the bits it gives that
element alone: otherwise a report depends on which other draws share a
call, and no accuracy test sees it.  For every core here, on hypothesis
stacks of 0 to 5 elements:

- element i equals its batch of one, bit for bit;
- reversing the stack reverses the output;
- an empty stack gives an empty result.

Cores: the 2x2 helpers ``mat2_mul``, ``mat2_det`` and ``mat2_adj`` and
``transport_directions`` of ``projective``,
``grassmannian.chain_direction_vecs``,
``grassmannian.eta_invariance_checks``, ``rational.terminal_hecke_lengths``,
``elliptic.certify_rows``, ``seidel_smith.slice_matrices`` and
``elliptic.double_hecke``, ``elliptic.morphism_rep`` and
``theta._cover_points``, whose bundles, representatives and points
compare by the bits of ``double_refs.exact``, ``elliptic._fiber_distance``,
and ``elliptic._sequences``, the one builder of elliptic sequences, on
stacks that mix sequences given by lines and by moduli coordinates.  The
chain reader is also held to the identity-prefixed loop of ``chain_refs``,
which an element-consistent slip (a prefix read one point off) would not
break otherwise.  The helpers are held to Python's scalar complex arithmetic,
and ``transport_directions`` to the equilibrated solve it replaced.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckelab import elliptic as ell
from heckelab import rational as rat
from heckelab import seidel_smith as ss
from heckelab import theta as th
from heckelab.grassmannian import chain_direction_vecs, eta_invariance_checks, random_units
from heckelab.projective import (ProjPoint, chordal_vecs, mat2_adj, mat2_det, mat2_mul, random_point,
                                 transport_directions)
from heckelab.suites import _double_sample, _elliptic_row_fixtures
from heckelab.torus import CurvePoint, Lattice

from chain_refs import identity_prefixed_vecs, random_factors, scalar_mat2_mul
from double_refs import exact
from rank_refs import near_repeat_tuples

STACKS = settings(derandomize=True, max_examples=150, deadline=None)

SIZES = st.integers(0, 5)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def chain_stacks(draw):
    """Evaluated factors (size, n, n, 2, 2) of a stack of chains of length n."""
    size, n = draw(SIZES), draw(st.integers(0, 6))
    return random_factors(np.random.default_rng(draw(SEEDS)), (size,), n)


@st.composite
def unit_pairs(draw):
    """Series coefficients A, B (size, 2, 2, order + 1) of stacked unit pairs."""
    size, order = draw(SIZES), draw(st.sampled_from([0, 1, 2, 8]))
    units = random_units(np.random.default_rng(draw(SEEDS)), 2 * size, order).c
    return units[0::2], units[1::2]


@st.composite
def direction_tuples(draw):
    """Direction tuples (size, n, 2) with exact repeats, runs and offsets of
    0.5 and 2 PROJ_TOL, for ``terminal_hecke_lengths``."""
    size, n = draw(SIZES), draw(st.integers(0, 8))
    return near_repeat_tuples(np.random.default_rng(draw(SEEDS)), n, size)


@st.composite
def double_draws(draw):
    """A ``double_hecke`` stack (bundles, p1s, p2s, as_, bs) of
    ``_double_sample`` draws of any kinds, on one of both default lattices."""
    size, tau = draw(SIZES), draw(st.sampled_from([0.21 + 1.3j, 0.3 + 0.45j]))
    kinds = draw(st.lists(st.integers(0, 23), min_size=size, max_size=size))
    rng, lat = np.random.default_rng(draw(SEEDS)), Lattice(tau)
    return [list(x) for x in zip(*(_double_sample(lat, rng, k) for k in kinds))] or [[]] * 5


@st.composite
def mat2_stacks(draw):
    """Complex 2x2 matrices A, B (size, 2, 2) and vectors v (size, 2), with
    about a fifth of their entries exactly zero and the rows and columns of
    A scaled by e^s, s uniform in [-30, 30]."""
    size, rng = draw(SIZES), np.random.default_rng(draw(SEEDS))
    g = rng.normal(size=(size, 10, 2))
    z = np.where(rng.random((size, 10)) < 0.2, 0, g[..., 0] + 1j * g[..., 1])
    scale = np.exp(rng.uniform(-30, 30, (size, 2, 1)) + rng.uniform(-30, 30, (size, 1, 2)))
    a = z[:, :4].reshape(size, 2, 2) * scale
    return a, z[:, 4:8].reshape(size, 2, 2), z[:, 8:]


@st.composite
def certify_stacks(draw):
    """``certify_rows`` arguments: representatives of elliptic table rows
    of any kinds, on one of both default lattices, each with 4 points in a
    doubled fundamental box."""
    size, tau = draw(SIZES), draw(st.sampled_from([0.21 + 1.3j, 0.3 + 0.45j]))
    rows = draw(st.lists(st.integers(0, 16), min_size=size, max_size=size))
    rng, lat = np.random.default_rng(draw(SEEDS)), Lattice(tau)
    makes = [make for _, make in _elliptic_row_fixtures(lat)]
    cases = [makes[r](rng) for r in rows]
    reps = ell.morphism_rep(*([list(x) for x in zip(*cases)] or [[]] * 3))
    return reps, (2 * rng.random((size, 4)) - 0.5) + (2 * rng.random((size, 4)) - 0.5) * lat.tau


@st.composite
def row_draws(draw):
    """``morphism_rep`` arguments (bundles, points, directions): draws of
    elliptic table rows of any kinds, on one of both default lattices."""
    size, tau = draw(SIZES), draw(st.sampled_from([0.21 + 1.3j, 0.3 + 0.45j]))
    rows = draw(st.lists(st.integers(0, 16), min_size=size, max_size=size))
    rng, lat = np.random.default_rng(draw(SEEDS)), Lattice(tau)
    makes = [make for _, make in _elliptic_row_fixtures(lat)]
    return [list(x) for x in zip(*(makes[r](rng) for r in rows))] or [[]] * 3


def torsion_near(rng, lat, shape) -> np.ndarray:
    """2-torsion lifts plus offsets of modulus 1e-9 to 1e-5, in random directions."""
    t = np.array(lat.torsion_lifts())[rng.integers(4, size=shape)]
    return t + 10 ** rng.uniform(-9, -5, shape) * np.exp(2j * np.pi * rng.random(shape))


@st.composite
def cover_stacks(draw):
    """``_cover_points`` arguments: lifts in a doubled fundamental box,
    about a third of them near the 2-torsion points, and the lattice."""
    size, tau = draw(SIZES), draw(st.sampled_from([0.21 + 1.3j, 0.3 + 0.45j]))
    rng, lat = np.random.default_rng(draw(SEEDS)), Lattice(tau)
    z = (2 * rng.random(size) - 0.5) + (2 * rng.random(size) - 0.5) * tau
    return np.where(rng.random(size) < 1 / 3, torsion_near(rng, lat, size), z), lat


@st.composite
def fiber_stacks(draw):
    """``_fiber_distance`` arguments (roots, qs, p1s, p2s) with every root
    within 1e-9 to 1e-5 of a 2-torsion point."""
    size, tau = draw(SIZES), draw(st.sampled_from([0.21 + 1.3j, 0.3 + 0.45j]))
    rng, lat = np.random.default_rng(draw(SEEDS)), Lattice(tau)
    pts = [[CurvePoint(complex(x + y * tau), lat) for x, y in rng.random((size, 2))] for _ in range(3)]
    return torsion_near(rng, lat, (size, 3)), *pts


@st.composite
def sequence_stacks(draw):
    """``elliptic._sequences`` arguments (heads, points, given): a stack of
    sequences of lengths 0 to 3 on one of both default lattices, each given
    by lines on a base from a coordinate or by its n + 1 coordinates.  About
    a third of the modification points, and of the points whose cover
    images are the coordinates, lie within 1e-9 to 1e-6 of a 2-torsion
    point (so some bases are F2 twists), one sequence's at distinct ones;
    the others lie anywhere.  About a fifth of the lines are the bad lines
    [1:0] and [0:1] of a split base."""
    size, tau = draw(SIZES), draw(st.sampled_from([0.21 + 1.3j, 0.3 + 0.45j]))
    shapes = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 3)), min_size=size, max_size=size))
    rng, lat = np.random.default_rng(draw(SEEDS)), Lattice(tau)
    q = CurvePoint(0.13 + 0.71 * tau, lat)

    def lifts(corners):
        count = len(corners)
        near = np.array(lat.torsion_lifts())[corners] + 10 ** rng.uniform(-9, -6, count) * np.exp(
            2j * np.pi * rng.random(count))
        return np.where(rng.random(count) < 1 / 3, near, rng.random(count) + rng.random(count) * tau)

    heads, points, given = [], [], []
    for by_lines, n in shapes:
        points.append([CurvePoint(complex(z), lat) for z in lifts(rng.permutation(4)[:n])])
        coords = th._cover_points(lifts(rng.integers(4, size=1 if by_lines else n + 1)), lat)
        if by_lines:
            heads += ell.base_from_coordinate(coords, [q])
            given.append([(ProjPoint(1, 0), ProjPoint(0, 1))[rng.integers(2)] if rng.random() < 0.2
                          else random_point(rng) for _ in range(n)])
        else:
            heads.append(q)
            given.append(coords)
    return heads, points, given


def sequence_bits(seqs):
    """Per sequence: the rows and terms of its representatives, its factors,
    mark values, lines and terminal bundle, compared by their bits."""
    return [(exact([(r.row, r.terms) for r in s.reps]), s.factors.tobytes(), s.mark_values.tobytes(),
             exact(s.lines), exact(s.terminal)) for s in seqs]


@st.composite
def slice_stacks(draw):
    """``slice_matrices`` arguments (coefficients, terminal lengths) of
    ``conjecture_draws`` stacks of length 2m, m from 1 to 3."""
    seq = ss.conjecture_draws(draw(st.integers(1, 3)), draw(SIZES), np.random.default_rng(draw(SEEDS)))
    return seq.coeffs(), seq.hecke_lengths()[:, -1]


def equilibrated_transport(mats, vecs):
    """The row- and column-equilibrated batched solve M^{-1} w that
    ``transport_directions`` replaced."""
    r = np.abs(mats).max(axis=-1)
    m1 = mats / r[..., :, None]
    c = np.abs(m1).max(axis=-2)
    return np.linalg.solve(m1 / c[..., None, :], (vecs / r)[..., None])[..., 0] / c


def assert_stacks_elementwise(core, args, out):
    """``out = core(*args)`` over a stack of ``len(out)`` elements."""
    for i in range(len(out)):
        one = core(*(x[i : i + 1] for x in args))
        assert one.tobytes() == out[i : i + 1].tobytes()
    assert core(*(x[::-1] for x in args)).tobytes() == out[::-1].tobytes()
    empty = core(*(x[:0] for x in args))
    assert empty.shape == (0,) + out.shape[1:]


@STACKS
@given(chain_stacks())
def test_chain_direction_vecs_stack_elementwise(factors):
    out = chain_direction_vecs(factors)
    assert out.shape == factors.shape[:2] + (2,)
    assert_stacks_elementwise(chain_direction_vecs, (factors,), out)
    assert np.array_equal(out, identity_prefixed_vecs(factors))


@STACKS
@given(mat2_stacks())
def test_mat2_helpers_stack_elementwise(stack):
    a, b, v = stack
    for core, args in ((mat2_mul, (a, b)), (mat2_mul, (a, v)), (mat2_det, (a,)), (mat2_adj, (a,))):
        assert_stacks_elementwise(core, args, core(*args))
    assert np.array_equal(mat2_mul(a, b), scalar_mat2_mul(a, b))
    assert np.array_equal(mat2_mul(a, v), scalar_mat2_mul(a, v))
    entries = [m[0] + m[1] for m in a.tolist()]
    assert np.array_equal(mat2_det(a), np.array([p * s - q * r for p, q, r, s in entries], complex))
    adj = np.array([(s, -q, -r, p) for p, q, r, s in entries], complex).reshape(a.shape)
    assert np.array_equal(mat2_adj(a), adj)


@STACKS
@given(mat2_stacks())
def test_transport_directions_stack_elementwise(stack):
    mats, _, vecs = stack
    vecs = np.where((vecs == 0).all(axis=-1, keepdims=True), 1, vecs)  # a zero w has no direction
    keep = mat2_det(mats) != 0
    mats, vecs = mats[keep], vecs[keep]
    out = transport_directions(mats, vecs)
    assert_stacks_elementwise(transport_directions, (mats, vecs), out)
    assert (chordal_vecs(out, equilibrated_transport(mats, vecs)) <= 1e-14).all()


def test_transport_directions_raise_on_a_singular_matrix():
    mats = np.array([np.eye(2), [[1, 2], [2, 4]]], dtype=complex)
    with pytest.raises(ZeroDivisionError):
        transport_directions(mats, np.ones((2, 2)))


@STACKS
@given(certify_stacks())
def test_certify_rows_stack_elementwise(stack):
    reps, zs = stack
    core = lambda reps, zs: np.stack(ell.certify_rows(reps, zs), axis=-1)
    out = core(reps, zs)
    assert out.shape == (len(reps), 2)
    assert_stacks_elementwise(core, (reps, zs), out)


@STACKS
@given(row_draws())
def test_morphism_rep_stack_elementwise(stack):
    out = exact(ell.morphism_rep(*stack))
    assert len(out) == len(stack[0])
    for i in range(len(out)):
        assert exact(ell.morphism_rep(*(x[i : i + 1] for x in stack))) == out[i : i + 1]
    assert exact(ell.morphism_rep(*(x[::-1] for x in stack))) == out[::-1]
    assert ell.morphism_rep([], [], []) == []


@STACKS
@given(cover_stacks())
def test_cover_points_stack_elementwise(stack):
    z, lat = stack
    out = exact(th._cover_points(z, lat))
    assert len(out) == len(z)
    for i in range(len(z)):
        assert exact(th._cover_points(z[i : i + 1], lat)) == out[i : i + 1]
    assert exact(th._cover_points(z[::-1], lat)) == out[::-1]
    assert th._cover_points(z[:0], lat) == []


@STACKS
@given(fiber_stacks())
def test_fiber_distance_stack_elementwise(stack):
    out = ell._fiber_distance(*stack)
    assert out.shape == (len(stack[0]),)
    assert_stacks_elementwise(ell._fiber_distance, stack, out)


@STACKS
@given(sequence_stacks())
def test_sequences_stack_elementwise(stack):
    out = sequence_bits(ell._sequences(*stack))
    assert len(out) == len(stack[0])
    for i in range(len(out)):
        assert sequence_bits(ell._sequences(*(x[i : i + 1] for x in stack))) == out[i : i + 1]
    assert sequence_bits(ell._sequences(*(x[::-1] for x in stack))) == out[::-1]
    assert ell._sequences([], [], []) == []


@STACKS
@given(slice_stacks())
def test_slice_matrices_stack_elementwise(stack):
    coeffs, terminal = stack
    out = ss.slice_matrices(coeffs, terminal)
    n = coeffs.shape[1]
    assert out.shape == (len(coeffs), n, n)
    assert_stacks_elementwise(ss.slice_matrices, stack, out)


@STACKS
@given(unit_pairs())
def test_eta_invariance_checks_stack_elementwise(pair):
    out = eta_invariance_checks(*pair)
    assert out.shape == (len(pair[0]),)
    assert_stacks_elementwise(eta_invariance_checks, pair, out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@STACKS
@given(direction_tuples())
@example(np.zeros((3, 0, 2), complex))
@example(np.ones((2, 1, 2), complex))
def test_terminal_hecke_lengths_stack_elementwise(vecs):
    n = vecs.shape[1]
    pts = rat.default_points(n)
    out = rat.terminal_hecke_lengths(pts, vecs)
    assert out.shape == (len(vecs),)
    assert_stacks_elementwise(lambda v: rat.terminal_hecke_lengths(pts, v), (vecs,), out)
    if n < 2:
        assert (out == n).all()


@STACKS
@given(double_draws())
def test_double_hecke_stack_elementwise(stack):
    out = exact(ell.double_hecke(*stack))
    assert len(out) == len(stack[0])
    for i in range(len(out)):
        assert exact(ell.double_hecke(*(x[i : i + 1] for x in stack))) == out[i : i + 1]
    assert exact(ell.double_hecke(*(x[::-1] for x in stack))) == out[::-1]
    assert ell.double_hecke([], [], [], [], []) == []


def test_double_hecke_makes_one_call_per_stack(monkeypatch):
    # Direct calls only: _stable_first_class's own morphism_rep call for
    # the second steps is not counted.
    calls, depth = Counter(), []

    def counted(name, f):
        def wrapper(*args):
            calls[name] += not depth
            depth.append(name)
            try:
                return f(*args)
            finally:
                depth.pop()
        return wrapper

    for name in ("morphism_rep", "evaluate_stack", "_stable_first_class"):
        monkeypatch.setattr(ell, name, counted(name, getattr(ell, name)))
    lat = Lattice()
    rng = np.random.default_rng(7)
    stack = list(zip(*(_double_sample(lat, rng, k) for k in range(24))))
    ell.double_hecke(*stack)
    assert calls == {"morphism_rep": 1, "evaluate_stack": 1, "_stable_first_class": 1}
    calls.clear()
    bad = [k for k in range(24) if ell.bad_group_key(stack[0][k], stack[3][k]) is not None]
    ell.double_hecke(*([x[k] for k in bad] for x in stack))
    assert not calls
