"""Theta-valued modification matrices on the torus and their coherence.

Every row of the morphism table is an entire matrix function
intertwining the automorphy factors of its two bundles; its determinant
degenerates exactly at the modification point, and its direction at that
point is the dispatching one.  Two chained rows classify like the
two-step table.
"""

import numpy as np

from heckelab import elliptic as ell
from heckelab import theta as th
from heckelab.elliptic import (
    Decomposable,
    F2Twist,
    G2Twist,
    point_line,
    trivial_line,
)
from heckelab.grassmannian import eta_at
from heckelab.projective import ProjPoint, chordal, random_point
from heckelab.torus import CurvePoint, Lattice, halve_sum

lat = Lattice()
rng = np.random.default_rng(4)
pt = lambda: CurvePoint(rng.random() + rng.random() * lat.tau, lat)
O = trivial_line(lat)

p, q = pt(), pt()
rows = [
    ("split degree-1, pivot", Decomposable(point_line(q), O), ProjPoint(1, 0)),
    ("split degree-1, generic", Decomposable(point_line(q), O), ProjPoint(0.6 - 0.1j, 1)),
    ("self-extension, good", F2Twist(O), ProjPoint(1.3 - 0.7j, 1)),
    ("stable G2 at its point", G2Twist(p.lift, O), random_point(rng)),
    ("strictly semistable, good",
     Decomposable(point_line(p).tensor(point_line(q).inverse()), O),
     random_point(rng)),
]
# 20 points in a doubled fundamental box, where each row is certified.
box = np.random.default_rng(5)
zs = (2 * box.random(20) - 0.5) + (2 * box.random(20) - 0.5) * lat.tau
print(f"{'row':28s} {'equivariance':>13s} {'direction':>11s} {'result'}")
for name, bundle, a in rows:
    rep = ell.morphism_rep([bundle], [p], [a])[0]
    resid = ell.certify_rows([rep], [zs])[0][0]
    dirr = chordal(eta_at(ell.evaluate_stack([rep.terms], [p.lift], lat)[0], p.lift), a)
    print(f"{name:28s} {resid:13.2e} {dirr:11.2e} {rep.result}")

print("\nsingle-modification classification echoes the table:")
a = th.pi_cover(pt())
split, f2, out = (rep.result for rep in ell.morphism_rep(
    [Decomposable(point_line(p), O), F2Twist(O), G2Twist(p.lift, O)], [p] * 3,
    [ProjPoint(0, 1), ProjPoint(0.4, 1), a]))
print(f"  O(p)+O at p toward [0:1]  ->  {split}  (trivial type:"
      f" {ell.s_equivalent(split, Decomposable(O, O))})")
print(f"  F2 in a good direction    ->  {f2}")
print(f"  G2(p) toward {a}  ->  {out}")
print(f"    cover image of the summand matches the direction:"
      f" {chordal(th.pi_cover(CurvePoint(out.l1.lift, lat)), a):.2e}")

print("\ntwo-step classification, both routes:")
p1, p2 = pt(), pt()
e = halve_sum(p1, p2)
bundle = F2Twist(O)
d1, d2 = ProjPoint(0.8 - 0.5j, 1), random_point(rng)
rep1 = ell.morphism_rep([bundle], [p1], [d1])[0]
rep2 = ell.morphism_rep([rep1.result], [p2], [d2])[0]
at_p1, at_p2 = ell.evaluate_stack([rep1.terms, rep1.terms], [p1.lift, p2.lift], lat)
a1 = eta_at(at_p1, p1.lift)
local = eta_at(ell.evaluate_stack([rep2.terms], [p2.lift], lat)[0], p2.lift)
v = at_p2 @ local.vec
b = ProjPoint(v[0], v[1])
table = ell.double_hecke([bundle], [p1], [p2], [a1], [b])[0]
chain = rep2.result.tensor(ell.LineBundleClass(1, e.lift, lat))
print(f"  composite keys  (a, b) = {a1}, {b}")
print(f"  table class     {table}")
print(f"  chained class   {chain}")
print(f"  agree as S-equivalence classes: {ell.s_equivalent(table, chain)}")
