"""The slice picture of minimal sequences and the commuting square.

A sequence of 2m modifications with semistable terminal acts on the
cokernel of its composite matrix; multiplication by the coordinate gives
a block-companion matrix whose eigenvalues are the modification points.
Reading the last block of left eigenvectors gives a second direction
tuple, and the square commutes through [x:y] -> [-y:x].
"""

import numpy as np

from heckelab import seidel_smith as ss
from heckelab.projective import ProjPoint
from heckelab.rational import RationalSequence

l1, l2 = 0.7 - 0.3j, 1.1 + 0.2j
mu1, mu2 = 0.2 + 0.1j, 0.9 - 0.4j

seq = RationalSequence([mu1, mu2], [ProjPoint(l1, 1).vec, ProjPoint(l2, 1).vec])
A = ss.kamnitzer(seq)
print("slice matrix of the generic two-step sequence:")
print(np.round(A, 6))
print("eigenvalues vs modification points:",
      np.round(sorted(np.linalg.eigvals(A), key=lambda v: v.real), 6),
      np.round(sorted([mu1, mu2], key=lambda v: v.real), 6))

print("\nleft-eigenvector directions:")
for x, y in ss.woodward_vecs(A, np.array([mu1, mu2])):
    print(" ", ProjPoint(x, y))
print("direction tuple of the sequence:")
for pt in (ProjPoint(*v) for v in seq.h_map()):
    print(" ", pt, "->", ProjPoint(-pt.c, pt.a), "after [x:y] -> [-y:x]")

residual = ss.conjecture_residuals(RationalSequence(seq.points[None], seq.vecs[None]))[0]
print(f"\ndiagram residual (closed-form case): {residual:.3e}")

rng = np.random.default_rng(3)
for m in (1, 2, 3):
    samples = 100 if m <= 2 else 25
    worst = ss.conjecture_check(m, samples, rng)
    tag = "verified bound" if m <= 2 else "exploratory"
    print(f"m = {m}: worst residual over {samples} random sequences = {worst:.3e} ({tag})")
