import math

import numpy as np
import pytest

from heckelab.torus import CurvePoint, Lattice

#: The default lattices, a skewed one far from the fundamental domain, a
#: flat one, the square and hexagonal lattices, and a tall one.
TAUS = (0.21 + 1.3j, 0.3 + 0.45j, 3.21 + 0.25j, 0.1 + 0.15j, 1j,
        0.5 + 0.5j * np.sqrt(3), 0.5 + 4j)


def brute_distance(lat, z):
    """Distance to the nearest m + n tau with |m|, |n| <= 60."""
    m = np.arange(-60, 61)
    return float(np.abs(z - (m[:, None] + m[None, :] * lat.tau)).min())


@pytest.mark.parametrize("tau", [0.2 + 0j, 0.3 - 1j, complex(0.2, math.nan), complex(math.inf, 1),
                                 complex(math.nan, 1), complex(0, math.inf)])
def test_lattice_rejects_a_tau_off_the_upper_half_plane(tau):
    # A NaN imaginary part passes the test Im tau <= 0, and would give every
    # reduced lift nan+nanj.
    with pytest.raises(ValueError):
        Lattice(tau)


@pytest.mark.parametrize("tau", TAUS)
def test_distance_matches_brute_force(tau):
    lat = Lattice(tau)
    rng = np.random.default_rng(3)
    for _ in range(400):
        x, y = 3 * rng.random(2) - 1.5
        z = complex(x + y * tau)
        assert abs(lat.distance(z, 0.0) - brute_distance(lat, z)) < 1e-12, z


@pytest.mark.parametrize("tau", TAUS)
def test_distance_is_lattice_invariant_and_symmetric(tau):
    lat = Lattice(tau)
    rng = np.random.default_rng(4)
    for _ in range(50):
        z1, z2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        m, n = rng.integers(-9, 10, size=2)
        d = lat.distance(z1, z2)
        assert abs(lat.distance(z1 + m + n * tau, z2) - d) < 1e-12
        assert abs(lat.distance(z2, z1) - d) < 1e-12
        assert lat.distance(z1, z1 + m + n * tau) < 1e-12


def generator_distance(lat, z1, z2):
    """``Lattice.distance`` in its earlier form, a generator over the cell
    corners (m, n)."""
    b1, b2 = lat._reduced_basis()
    d = complex(z1) - complex(z2)
    x = (d * b2.conjugate()).imag / (b1 * b2.conjugate()).imag
    y = (d * b1.conjugate()).imag / (b2 * b1.conjugate()).imag
    d -= math.floor(x) * b1 + math.floor(y) * b2
    return min(abs(d - m * b1 - n * b2) for m in (0, 1) for n in (0, 1))


@pytest.mark.parametrize("tau", TAUS[:2])
def test_distance_equals_the_generator_form(tau):
    lat = Lattice(tau)
    b1, b2 = lat._reduced_basis()
    rng = np.random.default_rng(5)
    z1s = list(rng.normal(size=500) + 1j * rng.normal(size=500))
    z2s = list(rng.normal(size=500) + 1j * rng.normal(size=500))
    # Lattice translates of z2 and the cell corners of the reduced basis,
    # where the floors and the four candidates tie.
    shifts = [m + n * tau for m, n in rng.integers(-9, 10, size=(100, 2)).tolist()]
    z1s += [z + s for z, s in zip(z2s, shifts)] + [m * b1 + n * b2 for m in (0, 1) for n in (0, 1)]
    z2s += z2s[:100] + [0.0] * 4
    for z1, z2 in zip(z1s, z2s):
        assert lat.distance(z1, z2) == generator_distance(lat, z1, z2), (z1, z2)


@pytest.mark.parametrize("tau", TAUS)
def test_reduced_basis_spans_the_lattice(tau):
    lat = Lattice(tau)
    b1, b2 = lat._reduced_basis()
    assert abs(b1) <= abs(b2)
    assert abs((b2 * b1.conjugate()).real) <= abs(b1) ** 2 / 2 + 1e-12
    # Same covolume, and both vectors are lattice points.
    assert abs(abs((b1.conjugate() * b2).imag) - tau.imag) < 1e-12
    assert lat.distance(b1, 0.0) < 1e-12 and lat.distance(b2, 0.0) < 1e-12
    assert lat._reduced_basis() is lat._reduced_basis()


def test_corner_search_of_the_unreduced_cell_overestimates():
    # At tau = 3.21 + 0.25i the nearest lattice point of this z is not a
    # corner of its {1, tau} cell; the reduced cell finds it.
    lat = Lattice(3.21 + 0.25j)
    z = 0.95 + 0.35 * lat.tau
    corners = min(abs(z - m - n * lat.tau) for m in (0, 1) for n in (0, 1))
    assert corners > brute_distance(lat, z) + 0.9
    assert abs(lat.distance(z, 0.0) - brute_distance(lat, z)) < 1e-12


def test_canonical_lifts_unchanged():
    lat = Lattice(3.21 + 0.25j)
    p = CurvePoint(2.7 - 1.3 * lat.tau, lat)
    x, y = lat.coords(p.lift)
    assert 0 <= x < 1 and 0 <= y < 1
    assert abs(p.lift - lat.reduce(2.7 - 1.3 * lat.tau)) == 0
    assert p == CurvePoint(p.lift + 3 - 2 * lat.tau, lat)


def reference_reduce(lat, z):
    """The reduction with the scalar test ``np.ndim(z) == 0``, which
    ``Lattice.reduce`` replaced by a type test."""
    z = np.asarray(z, dtype=complex) if np.ndim(z) else complex(z)
    x, y = lat.coords(z)
    return (x % 1.0) + (y % 1.0) * lat.tau


@pytest.mark.parametrize("z", [
    3, True, -2.75, 1.3 - 4.1j, complex(-0.0, -0.0), np.float64(2.6), np.complex128(-1.2 + 7.7j),
    np.float32(0.3), np.int64(-9), np.complex64(0.5 - 0.25j), np.array(0.7 + 2.2j),
    [0.1, 2.5 - 1j], np.array([-3.3 + 0.4j, 0.0]), np.array([[1.5], [-0.5j]]), [],
], ids=lambda z: type(z).__name__ + str(np.ndim(z)))
def test_reduce_keeps_types_and_values_of_each_input_kind(z):
    lat = Lattice(0.3 + 0.45j)
    got, want = lat.reduce(z), reference_reduce(lat, z)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
