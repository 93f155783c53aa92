"""Theta functions as the elliptic analogue of linear polynomials.

The translated theta vanishes exactly on one lattice orbit and obeys a
one-line translation law; an even quotient of doubled-lattice thetas
realizes the two-to-one cover from the torus to the projective line that
coordinatizes the semistable moduli space.
"""

import numpy as np

from heckelab import theta as th
from heckelab.projective import chordal
from heckelab.torus import CurvePoint, Lattice

lat = Lattice()            # tau = 0.21 + 1.3i, a generic lattice
tau = lat.tau
rng = np.random.default_rng(1)
z = rng.normal(size=64) * 0.7 + 1j * rng.normal(size=64) * 0.7
w = 0.27 + 0.33j

print(f"lattice parameter tau = {tau}")
print(f"theta_w vanishes at w: |theta| = {abs(th.theta_w(w, w, lat)):.2e}")

f = th.automorphy_factor(z, w, 1)  # the standard factor of O(w), degree 1
t0, t1 = th.theta_w(z, w, lat), th.theta_w(z + tau, w, lat)
print("translation law theta(z + tau) = f(z) theta(z):",
      f"{np.max(np.abs(t1 - f * t0) / np.abs(t1)):.2e}")

g0 = th.g_w(z, w, lat)
print("log-derivative steps by one across tau:",
      f"{np.max(np.abs(th.g_w(z + tau, w, lat) - g0 - 1)):.2e}")

print("\nThe cover function h is even and fully periodic:")
hz = th.h_map(z, lat)
print("  |h(-z) - h(z)|:", f"{np.max(np.abs(th.h_map(-z, lat) - hz)):.2e}")

print("\nBranch points (images of the four half-lattice points):")
for i, b in enumerate(th.branch_points(lat), start=1):
    print(f"  a_{i} = {b}")

print("\nInverting the cover returns the fiber {p, -p}:")
p = CurvePoint(0.31 + 0.27 * tau, lat)
r1, r2 = th.invert_cover(th.pi_cover(p), lat)
print(f"  p        = {p.lift:.6f}")
print(f"  fiber    = {r1.lift:.6f}, {r2.lift:.6f}")
print(f"  sums to the origin: {r1 + r2 == CurvePoint(0, lat)}")

print("\nAt a branch point the fiber collapses:")
q1, q2 = th.invert_cover(th.branch_points(lat)[2], lat)
print(f"  doubled point {q1.lift:.6f} (= tau/2: {lat.distance(q1.lift, tau / 2) < 1e-8})")
