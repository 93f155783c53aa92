"""Directions of local modifications via the pivot-cell coordinate.

A modification matrix, evaluated at its degeneracy point, has rank one;
the direction map reads off its column space as a point of CP^1.  This
walk-through checks the two facts that make the coordinate usable: it is
invariant under right multiplication by invertible series, and every
point of CP^1 arises from a constant representative.
"""

import numpy as np

from heckelab.grassmannian import (
    companion_residual,
    constant_representatives,
    eta_at,
    eta_invariance_checks,
    random_units,
)
from heckelab.projective import ProjPoint, chordal, sphere_grid
from heckelab.pseries import SeriesMat2

rng = np.random.default_rng(0)

print("The pivot diag(1, z - mu) itself points along [1:0]:")
mu = 0.4 - 0.2j
print("  eta =", eta_at(lambda z: np.array([[1, 0], [0, z - mu]]), mu))

print("\nA lower-unipotent shape carries the affine parameter:")
lam = 1.2 + 0.7j
m = lambda z: np.array([[lam, z - mu], [1, 0]])
print(f"  eta = {eta_at(m, mu)}  (expected [lambda:1] with lambda = {lam})")

print("\nRight multiplication by a unit never moves the direction;")
print("worst residual over 200 random unit pairs at truncation order 8:")
units = random_units(rng, 400, 8).c
worst = eta_invariance_checks(units[0::2], units[1::2]).max()
print(f"  {worst:.3e}")

print("\nThe companion factorization A(0) Z B = A Z behind that invariance,")
print("checked coefficientwise on 50 random units:")
worst = companion_residual(random_units(rng, 50, 8))
print(f"  {worst:.3e}")

print("\nEvery direction on a 32-point sphere grid has a constant preimage:")
worst = max(
    chordal(eta_at(SeriesMat2.constant(constant_representatives(p.vec)) * SeriesMat2.z_shift(), 0.0), p)
    for p in sphere_grid(32)
)
print(f"  worst roundtrip {worst:.3e}")
