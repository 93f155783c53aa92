import numpy as np
import pytest

from heckelab import rational as rat
from heckelab import suites
from heckelab.grassmannian import (
    NotInCell,
    chain_direction_vecs,
    companion_residual,
    constant_representatives,
    eta_at,
    eta_invariance_checks,
    eta_vecs,
    in_bruhat_cell,
    random_units,
)
from heckelab.projective import ProjPoint, chordal, chordal_vecs, sphere_grid
from heckelab.pseries import PolyMat2, SeriesMat2, bruhat_companion, series_product

from chain_refs import chain_directions, identity_prefixed_vecs, prefix_product, random_factors


def test_eta_of_pivot_matrix():
    mu = 0.7 - 0.2j
    m = lambda z: np.array([[1, 0], [0, z - mu]])
    assert eta_at(m, mu) == ProjPoint(1, 0)


def test_eta_lower_unipotent_shape():
    lam, mu = 1.3 + 0.4j, -0.2 + 0.9j
    m = lambda z: np.array([[lam, z - mu], [1, 0]])
    assert eta_at(m, mu) == ProjPoint(lam, 1)


def test_eta_two_step_composite():
    l1, l2 = 0.9 - 0.1j, -0.4 + 0.7j
    mu1, mu2 = 0.1, 1.2 + 0.5j
    a1 = lambda z: np.array([[l1, z - mu1], [1, 0]])
    a2 = lambda z: np.array([[z - mu2, l2], [0, 1]])
    comp = lambda z: a1(z) @ a2(z)
    lb2 = l2 / (mu2 - mu1)
    assert chordal(eta_at(comp, mu2), ProjPoint(l1 * lb2 + 1, lb2)) < 1e-12


def test_eta_rejects_full_rank_and_zero():
    with pytest.raises(NotInCell):
        eta_at(lambda z: np.eye(2), 0.0)
    with pytest.raises(NotInCell):
        eta_at(lambda z: np.zeros((2, 2)), 0.0)


def test_in_bruhat_cell():
    assert in_bruhat_cell(SeriesMat2.z_shift())
    assert not in_bruhat_cell(SeriesMat2.identity())
    z = np.zeros(9)
    z[1] = 1.0
    assert not in_bruhat_cell(SeriesMat2(np.eye(2)[..., None] * z))


def test_invariance_trivial_and_random():
    ident = SeriesMat2.identity()
    assert eta_invariance_checks(ident.c, ident.c) == 0.0
    units = random_units(np.random.default_rng(5), 201, 8).c
    assert eta_invariance_checks(units[0], ident.c) < 1e-12
    assert eta_invariance_checks(units[1::2], units[2::2]).max() < 1e-9


def full_order_invariance(a, b):
    """``eta_invariance_checks`` with every coefficient of A Z and A Z B
    formed, although eta reads only the constant terms."""
    left = series_product(a, SeriesMat2.z_shift(a.shape[-1] - 1).c)
    right = series_product(left, b)
    return chordal_vecs(eta_vecs(left[..., 0]), eta_vecs(right[..., 0]))


@pytest.mark.parametrize("order", [1, 2, 8])
@pytest.mark.parametrize("pairs", [0, 1, 100])
def test_invariance_checks_match_the_full_order_products(order, pairs):
    units = random_units(np.random.default_rng(100 * order + pairs), 2 * pairs, order).c
    a, b = units[0::2], units[1::2]
    got = eta_invariance_checks(a, b)
    assert got.shape == (pairs,)
    assert np.array_equal(got, full_order_invariance(a, b))
    ident = SeriesMat2.identity().c[..., : order + 1]
    assert np.array_equal(eta_invariance_checks(ident, ident), full_order_invariance(ident, ident))


def test_invariance_checks_at_order_zero():
    units = random_units(np.random.default_rng(12), 40, 8).c
    a, b = units[0::2], units[1::2]
    assert np.array_equal(eta_invariance_checks(a[..., :1], b[..., :1]), eta_invariance_checks(a, b))
    units = random_units(np.random.default_rng(13), 40, 0).c
    assert eta_invariance_checks(units[0::2], units[1::2]).max() < 1e-15


@pytest.mark.parametrize("lead", [(), (0,), (5,), (2, 3)])
@pytest.mark.parametrize("n", range(6))
def test_chain_direction_vecs_match_the_identity_prefixed_loop(lead, n):
    factors = random_factors(np.random.default_rng(20 + n), lead, n)
    got = chain_direction_vecs(factors)
    assert got.shape == lead + (n, 2)
    assert np.array_equal(got, identity_prefixed_vecs(factors))


def test_surjectivity_witness():
    for point in sphere_grid(32):
        rep = SeriesMat2.constant(constant_representatives(point.vec))
        back = eta_at(rep * SeriesMat2.z_shift(), 0.0)
        assert chordal(back, point) < 1e-12


def test_left_equivariance():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = SeriesMat2(random_units(rng, 1, 8).c[0])
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(c)) < 1e-2:
            continue
        m = a * SeriesMat2.z_shift()
        cm = SeriesMat2.constant(c, 8) * m
        assert chordal(eta_at(cm, 0.0), ProjPoint(*(c @ eta_at(m, 0.0).vec))) < 1e-9


def test_chain_directions_match_the_composite():
    rng = np.random.default_rng(8)
    for n in (1, 3, 5):
        seq = rat.RationalSequence(rat.default_points(n), rat.minimal_direction_vecs(1, n, rng)[0])
        mats = [PolyMat2(c) for c in seq.coeffs()]
        dirs = chain_directions(mats, seq.points)
        full = PolyMat2(rat.composites(seq.coeffs()[None])[0])
        comp = PolyMat2.identity()
        for mat, mu, d in zip(mats, seq.points, dirs):
            assert np.allclose(prefix_product(mats, mu), full(mu))
            comp = comp * mat
            assert chordal(eta_at(comp, mu), d) < 1e-9


def test_h_map_matches_the_scalar_chain():
    rng = np.random.default_rng(40)
    for n in (1, 2, 4, 6):
        for _ in range(10):
            seq = rat.RationalSequence(rat.default_points(n), rat.minimal_direction_vecs(1, n, rng)[0])
            scalar = chain_directions([PolyMat2(c) for c in seq.coeffs()], seq.points)
            assert max(chordal(ProjPoint(*v), y) for v, y in zip(seq.h_map(), scalar)) < 1e-13


def test_stacked_verify_eta_paths_match_the_scalar_ones():
    rng = np.random.default_rng(41)
    g = rng.normal(size=(50, 4, 2))
    l1, l2, mu1, step = np.moveaxis(g[..., 0] + 1j * g[..., 1], 1, 0)
    mu2 = mu1 + step * 0.5 + 1.0
    generic, special = suites._two_step_directions(l1, l2, mu1, mu2)
    for k in range(50):
        for first, stacked in ((ProjPoint(l1[k], 1), generic[k]), (ProjPoint(1, 0), special[k])):
            seq = rat.RationalSequence([mu1[k], mu2[k]],
                                       rat.direction_vecs([[first, ProjPoint(l2[k], 1)]])[0])
            scalar = chain_directions([PolyMat2(c) for c in seq.coeffs()], seq.points)
            assert max(chordal(ProjPoint(*v), d) for v, d in zip(stacked, scalar)) < 1e-13

    c = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
    moved, conj = suites._left_equivariance(c)
    z = SeriesMat2.z_shift()
    for k in range(50):
        m = SeriesMat2.constant(constant_representatives(ProjPoint(c[k, 0], c[k, 1]).vec))
        cm = np.array([[c[k, 2], 1], [1, 0]])
        assert chordal(ProjPoint(*moved[k]), ProjPoint(*(cm @ eta_at(m * z, 0.0).vec))) < 1e-13
        assert chordal(ProjPoint(*conj[k]), eta_at(SeriesMat2.constant(cm, 8) * m * z, 0.0)) < 1e-13


def test_stacked_companion_residual_is_the_worst_of_the_stack():
    rng = np.random.default_rng(42)
    stack = random_units(rng, 20, 8)
    units = [SeriesMat2(c) for c in stack.c]
    assert companion_residual(stack) == max(companion_residual(u) for u in units)
    b = bruhat_companion(stack)
    assert all(np.array_equal(b.c[k], bruhat_companion(u).c) for k, u in enumerate(units))


def per_draw_unit(rng, order):
    """One ``random_units`` unit drawn by the per-draw rejection loop, and the
    candidates it drew."""
    decay = 0.4 ** np.arange(order + 1)
    tries = 0
    while True:
        tries += 1
        re, im = rng.normal(size=(2, 2, 2, order + 1))
        coeffs = (re + 1j * im) * decay
        (a, b), (c, d) = coeffs[..., 0].tolist()
        if abs(a * d - b * c) > 0.3:
            return coeffs, tries


@pytest.mark.parametrize("seed", [7, 11, 12345])
@pytest.mark.parametrize("count", [1, 100, 200])
def test_random_units_draw_in_per_draw_order(seed, count):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_units(rng, count, 8).c
    units, tries = zip(*(per_draw_unit(ref, 8) for _ in range(count)))
    want = np.array(units)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state
    if count > 1:  # the blocks after the first redraw rejected candidates
        assert sum(tries) > count
