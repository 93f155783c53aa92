"""The double table one draw at a time, and a key for bit-level comparison.

``reference_double_hecke`` is ``elliptic.double_hecke`` as it was before it
took stacks: a dispatch over F2, (O + O) tensor L_i and the dual pairs at
[0:1] and at [1:0], each with its 2-torsion subcase, whose good-direction
draws make their own ``morphism_rep``, ``evaluate_stack`` and
``_stable_first_class`` calls.  The stacked form decides a bad first
direction by its witness instead, so the two may differ in the summand
order and lifts of a result, not in its S-equivalence class; on a good
first direction they agree bit for bit.
"""

import dataclasses

from heckelab import elliptic as ell
from heckelab.elliptic import (
    Decomposable,
    F2Twist,
    LineBundleClass,
    NotSemistable,
    dual_pair,
    has_trivial_det,
    is_even_semistable,
    point_line,
    torsion_line,
)
from heckelab.projective import PROJ_TOL, ProjPoint, chordal
from heckelab.torus import CurvePoint, halve_sum


def exact(x):
    """``x`` as nested tuples that compare equal only for equal bits: bundles
    and points by type and fields (the lattice left out), projective points
    by their coordinates, complex numbers by the hex of both parts."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(exact(getattr(x, f.name)) for f in dataclasses.fields(x)
                                    if f.name != "lattice"))
    if isinstance(x, ProjPoint):
        return exact((x.a, x.c))
    if isinstance(x, (tuple, list)):
        return tuple(map(exact, x))
    if isinstance(x, (complex, float)):
        return complex(x).real.hex(), complex(x).imag.hex()
    return x


def reference_double_hecke(e, p1, p2, a, b):
    """The class of E2 tensor O(e) for one draw, or None when E2 is unstable."""
    lat = e.lattice
    if not is_even_semistable(e) or not has_trivial_det(e):
        raise NotSemistable(f"{e} is not semistable with trivial determinant")
    if p1 == p2:
        raise ValueError("modification points must be distinct")
    ept = halve_sum(p1, p2)
    e1 = LineBundleClass(1, ept.lift, lat)

    def split_class(li: LineBundleClass) -> Decomposable:
        """O(e - p1) L_i + O(e - p2) L_i."""
        return Decomposable(e1.tensor(point_line(p1).inverse()).tensor(li),
                            e1.tensor(point_line(p2).inverse()).tensor(li))

    def stable_class():
        rep1 = ell.morphism_rep([e], [p1], [a])[0]
        vals = ell.evaluate_stack([rep1.terms], [[p2.lift]], lat)
        return ell._stable_first_class([rep1], [[p2]], vals, [[b]])[0][0]

    if isinstance(e, F2Twist):
        if a.is_zero_dir():
            # Bad first direction: unstable intermediate.
            return None if b.is_zero_dir() else split_class(e.l)
        return stable_class()

    delta = e.l1  # degree 0 with l2 the inverse class, by the precondition
    ti = CurvePoint(delta.lift, lat).torsion_index()
    if ti is not None:
        # (O + O) tensor L_i: every direction is bad; a = b is terminal-unstable.
        return None if chordal(a, b) < PROJ_TOL else split_class(torsion_line(lat, ti))

    # O(p - e') + O(e' - p) block with p = e' + delta.
    p = ept + CurvePoint(delta.lift, lat)
    j = (p - p1).torsion_index()
    k = (p - p2).torsion_index()

    if a.is_infinity_dir():
        if j is not None:
            if b.is_infinity_dir():
                return None
            if b.is_zero_dir():
                lj = torsion_line(lat, j)
                return Decomposable(lj, lj)
            return F2Twist(torsion_line(lat, j))
        if b.is_infinity_dir():
            return None
        return dual_pair((p - p1).lift, lat)
    if a.is_zero_dir():
        if k is not None:
            if b.is_zero_dir():
                return None
            if b.is_infinity_dir():
                lk = torsion_line(lat, k)
                return Decomposable(lk, lk)
            return F2Twist(torsion_line(lat, k))
        if b.is_zero_dir():
            return None
        return dual_pair((p - p2).lift, lat)
    return stable_class()
