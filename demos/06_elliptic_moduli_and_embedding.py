"""The total direction map on the torus and the embedded complement curve.

A marked semistable bundle with n modifications maps to n + 1 moduli
coordinates: the base class plus one reinterpreted two-step class per
point.  The map is invertible; its length-two non-members trace an
embedded copy of the curve, and members embed as stable parabolic
bundles with one extra mark.
"""

import numpy as np

from heckelab import elliptic as ell
from heckelab import parabolic as par
from heckelab import theta as th
from heckelab.projective import chordal
from heckelab.torus import CurvePoint, Lattice

lat = Lattice()
rng = np.random.default_rng(5)
pt = lambda: CurvePoint(rng.random() + rng.random() * lat.tau, lat)

q, p1, p2 = pt(), pt(), pt()
tau0, tau1, tau2 = (th.pi_cover(pt()) for _ in range(3))

print("prescribe coordinates, build the sequence, read them back:")
seq = ell.sequence_from_coordinates([q], [[p1, p2]], [[tau0, tau1, tau2]])[0]
h = ell.h_total([seq])[0]
for i, (got, want) in enumerate(zip(h, [tau0, tau1, tau2])):
    print(f"  h_{i} = {got}   (residual {chordal(got, want):.2e})")

print("\nlength-two membership distinguishes the embedded curve:")
p = pt()
tri = ell.f_embedding([p], q, p1, p2)[0]
on_seq = ell.sequence_from_coordinates([q], [[p1, p2]], [tri])[0]
print(f"  f(p) tuple:      member = {ell.membership_Hp([on_seq])[0]}"
      f"   (distance to curve {ell.distance_to_curve([tri], [q], [p1], [p2])[0]:.1e})")
d = ell.distance_to_curve([[tau0, tau1, tau2]], [q], [p1], [p2])[0]
print(f"  prescribed tuple: member = {ell.membership_Hp([seq])[0]}"
      f"   (distance to curve {d:.3f})")

print("\nmembers embed as stable parabolic bundles (n + 1 marks):")
pb = par.hecke_embeddings_elliptic([seq])[0]
print(f"  underlying {pb.underlying}, {len(pb.marks)} marks,"
      f" verdict {par.stability(pb).verdict.value}")

print("\nthe curve parameterization is injective on a sample:")
import itertools

pts = [CurvePoint((i + 0.5) / 24 + ((i * 11) % 24 + 0.5) / 24 * lat.tau, lat)
       for i in range(24)]
vals = ell.f_embedding(pts, q, p1, p2)
mind = min(max(chordal(s, t) for s, t in zip(u, v))
           for u, v in itertools.combinations(vals, 2))
print(f"  min pairwise distance over 276 pairs: {mind:.4f}")
