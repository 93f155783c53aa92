"""Walks on split bundles over the projective line.

Each modification moves between split types O(n) + O(m): the distinguished
subbundle direction raises the gap |n - m| and every other direction
lowers it.  Composing the table matrices and reading directions back
recovers the closed-form two-step formulas.  The terminal type of a
direction tuple, read off the least degree of a section through its lines
with no composite built, decides membership in the minimal-terminal spaces.
"""

import numpy as np

from heckelab import rational as rat
from heckelab.projective import ProjPoint, chordal, random_point
from heckelab.rational import RationalBundle, RationalSequence

print("Transition table on normalized types (k, 0):")
for k in (0, 2):
    b = RationalBundle(k, 0)
    for d in (ProjPoint(1, 0), ProjPoint(0.5, 1)):
        row = ("semistable:any-direction" if b.is_semistable()
               else "unstable:[1:0]" if d.is_zero_dir() else "unstable:[lambda:1]")
        print(f"  {b} --[{d}]--> {rat.single_hecke(b, d)}   ({row})")

print("\nTwo-step direction tuples match the closed forms:")
l1, l2 = 0.7 - 0.3j, 1.1 + 0.2j
mu1, mu2 = 0.2 + 0.1j, 0.9 - 0.4j
lb2 = l2 / (mu2 - mu1)
seq = RationalSequence([mu1, mu2], [ProjPoint(l1, 1).vec, ProjPoint(l2, 1).vec])
h = [ProjPoint(*v) for v in seq.h_map()]
print(f"  generic shape: h = {h[0]}, {h[1]}")
print(f"  expected       ([l1:1], [l1*lb2+1 : lb2]); residual "
      f"{max(chordal(h[0], ProjPoint(l1, 1)), chordal(h[1], ProjPoint(l1*lb2+1, lb2))):.2e}")

print("\nMembership in the minimal-terminal space, small cases:")
a, b = ProjPoint(0.3, 1), ProjPoint(-1.2 + 0.5j, 1)
for n, dirs, label in [
    (2, [a, a], "(a, a)"),
    (2, [a, b], "(a, b)"),
    (3, [a, a, a], "(a, a, a)"),
    (3, [a, b, a], "(a, b, a)"),
]:
    print(f"  n={n} {label:10s} member: {rat.membership_H(n, dirs)}")

print("\nTerminal Hecke lengths read off the direction tuples, n = 4:")
pts = rat.default_points(4)
c = ProjPoint(2.0, 1)
tuples = {"(a,a,b,c)": [a, a, b, c], "(a,a,a,b)": [a, a, a, b], "(a,a,a,a)": [a, a, a, a]}
lengths = rat.terminal_hecke_lengths(pts, rat.direction_vecs(list(tuples.values())))
for label, length in zip(tuples, lengths.tolist()):
    print(f"  {label}: terminal Hecke length {length}")

print("\nThe second chart certifies global regularity; a corrupted entry fails:")
m = rat.morphism_matrix(RationalBundle(3, 0), 0.0, ProjPoint(0.5, 1))
w = rat.chart_convert(m, RationalBundle(2, 0), RationalBundle(3, 0))
print(f"  [alpha]_w(0.9) =\n{np.round(w(0.9), 6)}")
bad = rat.PolyMat2([[[0.0, 1.0, 1.0], [0.5]], [[0.0], [1.0]]])
try:
    rat.chart_convert(bad, RationalBundle(2, 0), RationalBundle(3, 0))
except rat.NotGlobal as exc:
    print(f"  corrupted matrix rejected: {exc}")
