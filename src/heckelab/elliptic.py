"""Hecke modifications of rank-2 bundles on the complex torus.

Bundles are described by factors of automorphy; morphisms between them by
the rows of the paper's tables, held as data: sums of constants times
products of translated theta functions and exponentials.  Line-bundle data
carries an *exact* complex lift of its Abel-Jacobi point, not just the
class: the lift pins the standard trivialization, which is what makes
morphism matrices of consecutive modifications directly composable.
Class-level comparisons reduce lifts modulo the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projective import PROJ_TOL, ProjPoint, chordal, transport_direction
from .grassmannian import eta_at
from .torus import CurvePoint, Lattice, halve_sum
from . import theta as th

TWO_PI_I = 2j * np.pi

#: Tolerance for bundle-class (twist) comparisons.
CLASS_TOL = 1e-6

#: Chordal tolerance for membership in the embedded curve f(X).
CURVE_TOL = 1e-6


class NotSemistable(ValueError):
    """Operation requires a semistable bundle (Hecke length 0)."""


class Unsupported(ValueError):
    """Requested an exact computation outside the n <= 2 range."""


# ---------------------------------------------------------------------------
# Line bundle classes with pinned trivializations.


@dataclass(frozen=True)
class LineBundleClass:
    """Degree-d line bundle O((d-1)[0] + [t]) with an exact lift of t.

    Two instances with lifts differing by a lattice vector are isomorphic
    bundles but carry different standard trivializations; ``same_class``
    compares modulo the lattice, everything frame-sensitive uses ``lift``
    as given.
    """

    degree: int
    lift: complex
    lattice: Lattice

    def factor(self, z) -> np.ndarray:
        """Standard automorphy factor exp(-2 pi i (d z - t - d/2)) at z."""
        d, t = self.degree, self.lift
        return np.exp(-TWO_PI_I * (d * np.asarray(z, dtype=complex) - t - d / 2))

    def tensor(self, other: "LineBundleClass") -> "LineBundleClass":
        return LineBundleClass(self.degree + other.degree, self.lift + other.lift, self.lattice)

    def inverse(self) -> "LineBundleClass":
        return LineBundleClass(-self.degree, -self.lift, self.lattice)

    def same_class(self, other: "LineBundleClass", tol: float = CLASS_TOL) -> bool:
        return (
            self.degree == other.degree
            and self.lattice.distance(self.lift, other.lift) < tol
        )

    def is_trivial(self, tol: float = CLASS_TOL) -> bool:
        return self.degree == 0 and self.lattice.distance(self.lift, 0.0) < tol

    def twist_point(self) -> CurvePoint:
        return CurvePoint(self.lift, self.lattice)

    def reduced(self) -> complex:
        return self.lattice.reduce(self.lift)


def trivial_line(lattice: Lattice) -> LineBundleClass:
    return LineBundleClass(0, 0.0, lattice)


def point_line(p: CurvePoint) -> LineBundleClass:
    """O(p), trivialized with the lift of p."""
    return LineBundleClass(1, p.lift, p.lattice)


def torsion_line(lattice: Lattice, i: int) -> LineBundleClass:
    """The 2-torsion bundle L_i = O([z_i] - [0]), i in 1..4."""
    return LineBundleClass(0, lattice.torsion_lifts()[i - 1], lattice)


# ---------------------------------------------------------------------------
# 2x2 matrices of z: automorphy factors and morphism term tables.


def _mat2(a, b, c, d) -> np.ndarray:
    """The matrices [[a, b], [c, d]] (..., 2, 2) of broadcast entry arrays."""
    out = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


#: Factor kinds of a term: theta_w, theta_w', theta~_w and theta~_w' at z
#: for w = param, and EXP, exp(2 pi i param z).
TH, DTH, TT, DTT, EXP = "TH", "DTH", "TT", "DTT", "EXP"

_IDENTITY = ((0, 1.0, ()), (3, 1.0, ()))


def _evaluate(terms, z, lattice: Lattice) -> np.ndarray:
    """The matrices (..., 2, 2) of a term table at an array of z, with one
    kernel call per kind of factor over its distinct params."""
    z = np.asarray(z, dtype=complex)
    cols: dict[str, dict] = {}
    for _, _, factors in terms:
        for kind, param in factors:
            col = cols.setdefault(kind, {})
            col.setdefault(param, len(col))
    vals, zc = {}, z[..., None]
    for kind, col in cols.items():
        w = np.array(list(col))
        t = 2 * lattice.tau if kind in (TT, DTT) else lattice.tau
        kernel = th.theta_raw_deriv if kind in (DTH, DTT) else th.theta_raw
        vals[kind] = np.exp(TWO_PI_I * w * zc) if kind == EXP else kernel(zc - 0.5 * (1 + t) - w, t)
    out = np.zeros(z.shape + (4,), dtype=complex)
    for entry, coef, factors in terms:
        v = coef
        for kind, param in factors:
            v = v * vals[kind][..., cols[kind][param]]
        out[..., entry] += v
    return out.reshape(z.shape + (2, 2))


def _framed(terms, shift: int, scale: complex, swap: bool):
    """The terms of P diag(exp(2 pi i shift z), scale) M for the terms of M,
    P the row swap if ``swap``: a frame change from a table presentation to
    the stored one.  The frame itself is ``_framed(_IDENTITY, ...)``."""
    out = []
    for entry, coef, factors in terms:
        if entry < 2:
            factors = factors + ((EXP, shift),) if shift else factors
        else:
            coef = coef * scale
        out.append((entry ^ 2 if swap else entry, coef, factors))
    return tuple(out)


# ---------------------------------------------------------------------------
# Rank-2 bundles.


@dataclass(frozen=True)
class Decomposable:
    """L1 + L2 in the stored order (the order is part of the frame)."""

    l1: LineBundleClass
    l2: LineBundleClass

    @property
    def lattice(self) -> Lattice:
        return self.l1.lattice

    @property
    def hecke_length(self) -> int:
        return abs(self.l1.degree - self.l2.degree)

    def det_class(self) -> LineBundleClass:
        return self.l1.tensor(self.l2)

    def tensor(self, l: LineBundleClass) -> "Decomposable":
        return Decomposable(self.l1.tensor(l), self.l2.tensor(l))

    def factor(self, z) -> np.ndarray:
        return _mat2(self.l1.factor(z), 0, 0, self.l2.factor(z))

    def __str__(self) -> str:
        return f"O[{self.l1.degree},{self.l1.reduced():.4f}]+O[{self.l2.degree},{self.l2.reduced():.4f}]"


@dataclass(frozen=True)
class F2Twist:
    """F2 tensor L: the nontrivial self-extension of O, twisted."""

    l: LineBundleClass

    @property
    def lattice(self) -> Lattice:
        return self.l.lattice

    hecke_length = 0

    def det_class(self) -> LineBundleClass:
        return self.l.tensor(self.l)

    def tensor(self, l: LineBundleClass) -> "F2Twist":
        return F2Twist(self.l.tensor(l))

    def factor(self, z) -> np.ndarray:
        fl = self.l.factor(z)
        return _mat2(fl, fl, 0, fl)

    def __str__(self) -> str:
        return f"F2x[{self.l.degree},{self.l.reduced():.4f}]"


@dataclass(frozen=True)
class G2Twist:
    """G2(p) tensor L: the degree-1 extension of O(p) by O, twisted.

    ``point_lift`` is an exact lift of p, part of the trivialization.
    """

    point_lift: complex
    l: LineBundleClass

    @property
    def lattice(self) -> Lattice:
        return self.l.lattice

    hecke_length = 1

    def det_class(self) -> LineBundleClass:
        base = LineBundleClass(1, self.point_lift, self.lattice)
        return base.tensor(self.l).tensor(self.l)

    def tensor(self, l: LineBundleClass) -> "G2Twist":
        return G2Twist(self.point_lift, self.l.tensor(l))

    def factor(self, z) -> np.ndarray:
        fl = self.l.factor(z)
        return _mat2(0, fl, fl * th.automorphy_factor(self.point_lift + 0.5)(z), 0)

    def __str__(self) -> str:
        return f"G2({self.lattice.reduce(self.point_lift):.4f})x[{self.l.degree},{self.l.reduced():.4f}]"


EllipticBundle = Decomposable | F2Twist | G2Twist


def dual_pair(delta: complex, lattice: Lattice) -> Decomposable:
    """L + L^{-1} for the degree-0 class L with lift ``delta``."""
    return Decomposable(LineBundleClass(0, delta, lattice), LineBundleClass(0, -delta, lattice))


def is_semistable(b: EllipticBundle) -> bool:
    """Slope semistability: everything except split types of unequal
    degrees.  G2 twists are stable; they still have Hecke length 1 because
    the nearest even-degree semistable class is one modification away."""
    if isinstance(b, Decomposable):
        return b.l1.degree == b.l2.degree
    return True


def is_even_semistable(b: EllipticBundle) -> bool:
    """Semistable of even degree: Hecke length zero."""
    return b.hecke_length == 0


def has_trivial_det(b: EllipticBundle, tol: float = CLASS_TOL) -> bool:
    return b.det_class().is_trivial(tol)


def s_class(b: EllipticBundle):
    """S-equivalence data of a semistable bundle: the unordered pair of
    graded line-bundle classes."""
    if isinstance(b, Decomposable):
        if b.l1.degree != b.l2.degree:
            raise NotSemistable(f"{b} is unstable")
        return _sorted_pair(b.l1, b.l2)
    if isinstance(b, F2Twist):
        return _sorted_pair(b.l, b.l)
    raise NotSemistable("G2 twists are stable, not strictly semistable")


def _sorted_pair(a: LineBundleClass, b: LineBundleClass):
    ka = (a.degree, round(a.reduced().real, 6), round(a.reduced().imag, 6))
    kb = (b.degree, round(b.reduced().real, 6), round(b.reduced().imag, 6))
    return (a, b) if ka <= kb else (b, a)


def s_equivalent(b1: EllipticBundle, b2: EllipticBundle, tol: float = CLASS_TOL) -> bool:
    p1, p2 = s_class(b1), s_class(b2)
    direct = p1[0].same_class(p2[0], tol) and p1[1].same_class(p2[1], tol)
    crossed = p1[0].same_class(p2[1], tol) and p1[1].same_class(p2[0], tol)
    return direct or crossed


# ---------------------------------------------------------------------------
# Morphism representatives.


@dataclass(frozen=True)
class MorphismRep:
    """Matrix representative alpha: F -> E of a Hecke modification, as its
    table row: each term (entry, coef, factors) adds coef times the product
    of its factors (kind, param) to entry 0..3, row-major.  Matrices are in
    the stored trivializations of ``upstream`` (E) and ``result`` (F).
    """

    terms: tuple
    row: str
    upstream: EllipticBundle
    result: EllipticBundle
    point: CurvePoint

    def evaluator(self, z) -> np.ndarray:
        """alpha at an array of z: (..., 2, 2) matrices."""
        return _evaluate(self.terms, z, self.upstream.lattice)


def check_equivariance(rep: MorphismRep, samples: int = 20, seed: int = 5) -> float:
    """Max relative residual of the two automorphy intertwining laws.

    Checks alpha(z + tau) f_F(z) = f_E(z) alpha(z) and plain 1-periodicity
    over seeded random z in a doubled fundamental box.
    """
    lat = rep.upstream.lattice
    rng = np.random.default_rng(seed)
    z = (2 * rng.random(samples) - 0.5) + (2 * rng.random(samples) - 0.5) * lat.tau
    a_z = rep.evaluator(z)
    a_tau = rep.evaluator(z + lat.tau)
    a_one = rep.evaluator(z + 1.0)
    lhs = a_tau @ rep.result.factor(z)
    rhs = rep.upstream.factor(z) @ a_z
    scale = max(float(np.abs(rhs).max()), float(np.abs(a_z).max()), 1e-30)
    r1 = float(np.abs(lhs - rhs).max()) / scale
    r2 = float(np.abs(a_one - a_z).max()) / max(float(np.abs(a_z).max()), 1e-30)
    return max(r1, r2)


def _theta_const(lattice: Lattice) -> complex:
    """-(i/2pi) theta'^{(0)}(0): the direction constant of the F2 row."""
    return complex(-th.g_theta_w(0.0, 0.0, lattice))


def morphism_rep(e: EllipticBundle, p: CurvePoint, a: ProjPoint) -> MorphismRep:
    """Table representative of the modification of ``e`` at ``p`` toward ``a``.

    The bundle is rewritten as (table form) tensor M; matrices are
    twist-invariant, so only the frame change between the stored and table
    presentations (a swap, a scalar exponential, or a constant diagonal
    for moving the G2 point) dresses the table row.  The direction is
    transported through the frame's value at p before dispatch.
    """
    if isinstance(e, Decomposable):
        return _morphism_dec(e, p, a)
    if isinstance(e, F2Twist):
        return _morphism_f2(e, p, a)
    return _morphism_g2(e, p, a)


def _morphism_dec(e: Decomposable, p: CurvePoint, a: ProjPoint) -> MorphismRep:
    lat = e.lattice
    pt = p.lift
    swap = e.l1.degree < e.l2.degree
    u1, m = (e.l2, e.l1) if swap else (e.l1, e.l2)
    lp = u1.tensor(m.inverse())  # degree k >= 0, exact lift
    k, t = lp.degree, lp.lift
    trivial = k == 0 and lat.distance(t, 0.0) < CLASS_TOL  # O + O
    own = k == 1 and lat.distance(t, pt) < CLASS_TOL  # O(p) + O at its own point
    # Frame change table -> stored: a scalar-exponential lift fix on the
    # first summand (O + O and O(p) + O), then the order swap, as needed.
    shift = round((t - pt if own else t).imag / lat.tau.imag) if trivial or own else 0
    frame = (shift, 1.0, swap)
    phi = _framed(_IDENTITY, *frame)
    a_t = a if phi == _IDENTITY else transport_direction(_evaluate(phi, pt, lat), a)

    theta_p = ((TH, pt),)
    pivot = ((0, 1.0, ()), (3, 1.0, theta_p))  # toward [1:0]
    counter = ((0, 1.0, theta_p), (3, 1.0, ()))  # toward [0:1]
    low = LineBundleClass(-1, -pt, lat).tensor(m)

    def finish(row, terms, target):
        return MorphismRep(_framed(terms, *frame), row, e, target, p)

    if trivial:
        # O + O: every direction is bad; two matrix shapes.
        target = Decomposable(trivial_line(lat).tensor(m), low)
        if a_t.is_zero_dir():
            return finish("OO:[1:0]", pivot, target)
        terms = ((0, a_t.a / a_t.c, ()), (1, 1.0, theta_p), (2, 1.0, ()))
        return finish("OO:[lam:1]", terms, target)

    if k == 0:
        # O(p - q) + O with q = p - t; strictly semistable, t nontrivial.
        q_lift = pt - t
        if a_t.is_zero_dir():
            return finish("ss:[1:0]", pivot, Decomposable(u1, low))
        if a_t.is_infinity_dir():
            target = Decomposable(LineBundleClass(-1, -q_lift, lat).tensor(m), m)
            return finish("ss:[0:1]", counter, target)
        sa = a_t.a / complex(th.theta_tilde_w(q_lift - pt, 0.5 - lat.tau, lat))
        sb = a_t.c / complex(th.theta_tilde_w(pt - q_lift, 0.5 - lat.tau, lat))
        e2t = np.exp(TWO_PI_I * t)
        terms = (
            (0, sa, ((TT, pt + t + 0.5 - lat.tau),)),
            (1, -sa * e2t, ((TT, pt + t + 0.5),)),
            (2, sb, ((TT, pt - t + 0.5 - lat.tau),)),
            (3, -sb, ((TT, pt - t + 0.5),)),
        )
        target = G2Twist(q_lift, LineBundleClass(-1, -q_lift, lat).tensor(m))
        return finish("ss:[x:y]", terms, target)

    if own:
        if a_t.is_zero_dir():
            target = Decomposable(LineBundleClass(1, pt, lat).tensor(m), low)
            return finish("Op:[1:0]", pivot, target)
        if a_t.is_infinity_dir():
            return finish("Op:[0:1]", counter, Decomposable(trivial_line(lat).tensor(m), m))
        scale = a_t.c * _theta_const(lat) / a_t.a
        terms = ((0, 1.0, theta_p), (1, -1j / (2 * np.pi), ((DTH, pt),)), (3, scale, ()))
        return finish("Op:[x:y]", terms, F2Twist(m))

    # O(D) + O for deg D = k >= 1 with D's point distinct from p (k = 1)
    # or arbitrary (k >= 2; the theta product uses (k-1) [0] + the twist).
    name = "OD" if k > 1 else "Oq"
    if a_t.is_zero_dir():
        return finish(f"{name}:[1:0]", pivot, Decomposable(u1, low))
    # The table family is lambda * (theta product); its direction at p is
    # [lambda * product(p) : 1], so hitting the requested direction means
    # dividing out the product's value at p.
    denom = complex(th.theta_w(pt, t, lat))
    if k > 1:
        denom *= complex(th.theta_w(pt, 0.0, lat)) ** (k - 1)
    lam = (a_t.a / a_t.c) / denom
    terms = ((0, 1.0, theta_p), (1, lam, ((TH, t),) + ((TH, 0.0),) * (k - 1)), (3, 1.0, ()))
    target = Decomposable(LineBundleClass(k - 1, t - pt, lat).tensor(m), m)
    return finish(f"{name}:[lam:1]", terms, target)


def _morphism_f2(e: F2Twist, p: CurvePoint, a: ProjPoint) -> MorphismRep:
    lat = e.lattice
    pt = p.lift
    m = e.l
    if a.is_zero_dir():
        terms = ((0, 1.0, ()), (1, 1j / (2 * np.pi), ((DTH, pt),)), (3, 1.0, ((TH, pt),)))
        target = Decomposable(m, LineBundleClass(-1, -pt, lat).tensor(m))
        return MorphismRep(terms, "F2:[1:0]", e, target, p)
    lam = a.a / a.c
    lam_p = lam - 2 * complex(th.g_tilde_w(0.0, 0.5, lat))
    c = pt - 0.5
    ct = c - lat.tau
    i_pi = 1j / np.pi
    terms = (
        (0, 1 - lam_p, ((TT, ct),)), (0, -i_pi, ((DTT, ct),)),
        (1, lam_p, ((TT, c),)), (1, i_pi, ((DTT, c),)),
        (2, -1.0, ((TT, ct),)),
        (3, 1.0, ((TT, c),)),
    )
    target = G2Twist(pt, LineBundleClass(-1, -pt, lat).tensor(m))
    return MorphismRep(terms, "F2:[lam:1]", e, target, p)


def _morphism_g2(e: G2Twist, p: CurvePoint, a: ProjPoint) -> MorphismRep:
    lat = e.lattice
    pt = p.lift
    # Rewrite G2(p') tensor N as G2(p) tensor M; the exact half-difference
    # lift makes the frame change a constant diagonal.
    m = LineBundleClass(e.l.degree, e.l.lift + (e.point_lift - pt) / 2, lat)
    moved = abs(e.point_lift - pt) > 1e-14
    frame = (0, np.exp(1j * np.pi * (e.point_lift - pt)) if moved else 1.0, False)
    phi = _framed(_IDENTITY, *frame)
    a_t = a if phi == _IDENTITY else transport_direction(_evaluate(phi, pt, lat), a)

    idx = th.branch_index(a_t, lat)
    if idx is not None:
        zi = lat.torsion_lifts()[idx - 1]
        c = pt - 2 * zi + 0.5
        ct = c - lat.tau
        ei = np.exp(TWO_PI_I * zi)
        i_pi = 1j / np.pi
        terms = (
            (0, 1.0, ((TT, c),)),
            (1, -i_pi, ((DTT, c),)),
            (2, ei, ((TT, ct),)),
            (3, ei, ((TT, ct),)), (3, -ei * i_pi, ((DTT, ct),)),
        )
        target = F2Twist(torsion_line(lat, idx).tensor(m))
        return MorphismRep(_framed(terms, *frame), f"G2:a{idx}", e, target, p)

    root, _ = th.invert_cover(a_t, lat)
    # Any exact lift of the root works if used consistently in the
    # characters, the exponentials, and the target twists; the centered
    # lift keeps the doubled arguments +-2w numerically balanced.
    w = lat.reduce_centered(root.lift)
    e2w = np.exp(TWO_PI_I * w)
    terms = (
        (0, 1.0, ((TT, pt - 2 * w + 0.5),)),
        (1, 1.0, ((TT, pt + 2 * w + 0.5),)),
        (2, e2w, ((TT, pt - 2 * w + 0.5 - lat.tau),)),
        (3, 1 / e2w, ((TT, pt + 2 * w + 0.5 - lat.tau),)),
    )
    return MorphismRep(_framed(terms, *frame), "G2:good", e, dual_pair(w, lat).tensor(m), p)


def single_hecke(e: EllipticBundle, p: CurvePoint, a: ProjPoint) -> EllipticBundle:
    """Class of the modified bundle: the table transition.

    Delegates to the morphism constructor so the class-level table and the
    matrix-level table cannot drift apart.
    """
    return morphism_rep(e, p, a).result


# ---------------------------------------------------------------------------
# Two-step classification, moduli coordinates, and the total direction map.


def mss_coordinate(e: EllipticBundle) -> ProjPoint:
    """Coordinate of the S-equivalence class in the semistable moduli line.

    [L + L^{-1}] maps to the cover image of the twist of L; an F2 twist
    maps like its S-equivalent L + L.
    """
    if not is_even_semistable(e) or not has_trivial_det(e):
        raise NotSemistable(f"{e} is not semistable with trivial determinant")
    return th.pi_cover((e.l1 if isinstance(e, Decomposable) else e.l).twist_point())


def _stable_first_class(rep1: MorphismRep, p2: CurvePoint, b: ProjPoint) -> EllipticBundle:
    """E2 tensor O(e) when the first modification ``rep1`` is in a good direction.

    The intermediate bundle is stable, so the composite coordinate b must
    be transported back through the first-step representative before the
    single-modification table can classify the second step; the composite
    and intrinsic coordinates differ by the Moebius action of the
    first-step matrix at p2 (they agree only along unstable intermediates,
    where repeated subbundle modifications keep the coordinate constant).
    """
    p1 = rep1.point
    if p1 == p2:
        raise ValueError("modification points must be distinct")
    aval = rep1.evaluator(np.asarray(p2.lift))
    second = single_hecke(rep1.result, p2, transport_direction(aval, b))
    out = second.tensor(LineBundleClass(1, halve_sum(p1, p2).lift, p1.lattice))
    if not is_even_semistable(out):
        raise AssertionError("modification of a stable bundle must be semistable")
    return out


def double_hecke(
    e: EllipticBundle,
    p1: CurvePoint,
    p2: CurvePoint,
    a: ProjPoint,
    b: ProjPoint,
) -> EllipticBundle | None:
    """Classify a two-step modification of a semistable trivial-determinant
    bundle by its composite direction pair in the trivialization of ``e``.

    Returns the class of E2 tensor O(e) for e with 2e = p1 + p2 (the
    canonical-lift average), or None when E2 is unstable.  The dispatch
    includes the 2-torsion subcases where the twist point collides with a
    half-lattice translate of p1 or p2.
    """
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

    if isinstance(e, F2Twist):
        if a.is_zero_dir():
            # Bad first direction: unstable intermediate.
            return None if b.is_zero_dir() else split_class(e.l)
        return _stable_first_class(morphism_rep(e, p1, a), p2, b)

    delta = e.l1  # degree 0 with l2 the inverse class, by the precondition
    ti = delta.twist_point().torsion_index()
    if ti is not None:
        # (O + O) tensor L_i: every direction is bad; a = b is terminal-unstable.
        return None if chordal(a, b) < PROJ_TOL else split_class(torsion_line(lat, ti))

    # O(p - e') + O(e' - p) block with p = e' + delta.
    p = ept + delta.twist_point()
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
    return _stable_first_class(morphism_rep(e, p1, a), p2, b)


@dataclass(frozen=True)
class MarkedBundle:
    """A parabolically stable pair (E, line at q), trivial determinant."""

    bundle: EllipticBundle
    q: CurvePoint
    line: ProjPoint

    def __post_init__(self):
        if not is_even_semistable(self.bundle) or not has_trivial_det(self.bundle):
            raise NotSemistable(f"{self.bundle} cannot carry a stable mark")
        if bad_group_key(self.bundle, self.line) is not None:
            raise ValueError(f"line {self.line} is a bad direction of {self.bundle}")


def bad_group_key(e: EllipticBundle, direction: ProjPoint):
    """Grouping key when the direction is bad for ``e``, else None.

    Directions bad in the same direction (witnessed by one maximal-slope
    subbundle) share a key.
    """
    if isinstance(e, G2Twist):
        return None
    if isinstance(e, F2Twist):
        return "sub" if direction.is_zero_dir() else None
    if e.l1.degree != e.l2.degree:
        raise NotSemistable(f"{e} is unstable")
    if e.l1.same_class(e.l2):
        # Every direction is the fiber of a constant subbundle; two marks
        # share a subbundle exactly when the directions are equal.
        return ("dir", direction)
    if direction.is_zero_dir():
        return "sub1"
    if direction.is_infinity_dir():
        return "sub2"
    return None


def raw_directions(reps) -> list[ProjPoint]:
    """Directions of a chain of representatives in the trivialization of
    the first one's upstream bundle, in the factored form of
    ``chain_directions``: eta of each step at its point, transported by the
    product of the steps before it.  Each step is evaluated once, at its
    own point and all later ones."""
    zs = np.array([r.point.lift for r in reps])
    prefix = np.tile(np.eye(2, dtype=complex), (len(reps), 1, 1))
    out = []
    for i, r in enumerate(reps):
        val = r.evaluator(zs[i:])
        v = prefix[i] @ eta_at(val[0], zs[i]).vec
        out.append(ProjPoint(v[0], v[1]))
        prefix[i + 1:] = prefix[i + 1:] @ val[1:]
    return out


@dataclass(frozen=True)
class EllipticSequence:
    """A point of H(T^2, n): modifications of a marked bundle, held as the
    chain of morphism representatives, each built once.

    Each step's direction is in the standard trivialization of the bundle
    it modifies; the stored-frame convention makes consecutive evaluators
    directly composable.
    """

    base: MarkedBundle
    reps: tuple[MorphismRep, ...]

    @property
    def points(self) -> list[CurvePoint]:
        return [r.point for r in self.reps]

    @property
    def terminal(self) -> EllipticBundle:
        return self.reps[-1].result if self.reps else self.base.bundle

    def lines(self) -> list[ProjPoint]:
        """The parabolic lines: each step's direction in the base trivialization."""
        return raw_directions(self.reps)


def h_total(seq: EllipticSequence) -> list[ProjPoint]:
    """The n+1 moduli coordinates of a sequence on a marked bundle.

    Coordinate 0 is the class of the base bundle; coordinate i >= 1 is the
    class (twisted back to trivial determinant) of the two-step
    modification of the base at (q, p_i) in the directions read off the
    mark and the composed sequence.
    """
    base = seq.base
    out = [mss_coordinate(base.bundle)]
    if seq.reps:
        # Reinterpreted two-step sequences: the mark modification first, in
        # a good direction (``double_hecke``'s stable branch).  Composite
        # coordinates (mark line, d_i): line data is order-independent
        # under the canonical parabolic correspondence.
        rep_q = morphism_rep(base.bundle, base.q, base.line)
        out += [mss_coordinate(_stable_first_class(rep_q, pnt, d))
                for pnt, d in zip(seq.points, seq.lines())]
    return out


def f_embedding(
    p: CurvePoint, q: CurvePoint, p1: CurvePoint, p2: CurvePoint
) -> tuple[ProjPoint, ProjPoint, ProjPoint]:
    """The embedded curve of unstable-terminal classes for n = 2.

    Component i is the cover image of p shifted by e_i = (q + p_i)/2 data:
    pi_1 = cover(p - e_1), pi_2 = cover(p - p_1),
    pi_3 = cover(p - p_2 + e_2 - e_1).
    """
    e1 = halve_sum(q, p1)
    e2 = halve_sum(q, p2)
    return (
        th.pi_cover(p - e1),
        th.pi_cover(p - p1),
        th.pi_cover(p - p2 + e2 - e1),
    )


def distance_to_curve(triple, q: CurvePoint, p1: CurvePoint, p2: CurvePoint) -> float:
    """Max-chordal distance from a (CP^1)^3 point to the embedded curve.

    Component j of f is pi(p - s_j), so the curve points where it meets
    its target t_j are the cover fiber s_j +- r_j, {r_j, -r_j} =
    pi^{-1}(t_j), all three from one batched inversion.  The value is the
    least max-chordal residual over those six curve points, evaluated in
    one batched cover call.  Like any residual it is attained at real
    curve points; it is about 1e-15 on the curve, and near the curve
    within about 2x of the true minimum: for distinct q, p1, p2 at most
    one component can sit at a branch point, so a well-conditioned fiber
    is always among the candidates.
    """
    lat = q.lattice
    e1 = halve_sum(q, p1)
    e2 = halve_sum(q, p2)
    shifts = np.array([e1.lift, p1.lift, p2.lift - e2.lift + e1.lift])
    ta = np.array([t.a for t in triple])
    tc = np.array([t.c for t in triple])
    roots = th._invert_lifts(ta, tc, lat)
    z = np.concatenate([shifts + roots, shifts - roots])
    cross = th._cover_cross(z[:, None] - shifts, ta, tc, lat)
    return float(np.abs(cross).max(axis=1).min())


def membership_Hp(seq: EllipticSequence) -> bool:
    """Exact membership for n <= 2: n <= 1 is all of the total space; for
    n = 2 the complement is the embedded curve."""
    n = len(seq.reps)
    if n <= 1:
        return True
    if n > 2:
        raise Unsupported("exact membership is computed for n <= 2 only")
    return distance_to_curve(h_total(seq), seq.base.q, *seq.points) >= CURVE_TOL


# ---------------------------------------------------------------------------
# Constructive inverse of the total direction map.


def base_from_coordinate(
    tau0: ProjPoint, q: CurvePoint, line: ProjPoint | None = None
) -> MarkedBundle:
    """A marked bundle whose moduli coordinate is ``tau0``.

    Branch-point coordinates give the F2 twist by the matching torsion
    bundle (the split form L_i + L_i carries no good line); otherwise the
    dual pair of cover preimages.
    """
    lat = q.lattice
    idx = th.branch_index(tau0, lat)
    if idx is not None:
        bundle: EllipticBundle = F2Twist(torsion_line(lat, idx))
    else:
        # Centered lift: the strictly semistable rows see the doubled
        # twist 2*delta, so the balanced representative matters.
        bundle = dual_pair(lat.reduce_centered(th.invert_cover(tau0, lat)[0].lift), lat)
    mark = line if line is not None else ProjPoint(1.0, 1.0)
    return MarkedBundle(bundle, q, mark)


def second_direction_for_class(
    h1: G2Twist, q: CurvePoint, p: CurvePoint, tau: ProjPoint
) -> ProjPoint:
    """Direction (in the stored frame of ``h1``) whose modification at p
    lands on the moduli coordinate ``tau`` after the O(e) twist.

    Inverts the good-direction row: the class pair is {w, -w} + kappa with
    kappa the combined twist of the point-moving normalization and the
    e-twist, so w is the cover preimage of tau shifted by kappa.
    """
    lat = h1.lattice
    t_m = h1.l.lift + (h1.point_lift - p.lift) / 2
    kappa = t_m + (q.lift + p.lift) / 2
    root, _ = th.invert_cover(tau, lat)
    w = CurvePoint(root.lift - kappa, lat)
    delta_table = th.pi_cover(w)
    d2 = np.exp(1j * np.pi * (h1.point_lift - p.lift))
    v = delta_table.vec
    return ProjPoint(v[0], d2 * v[1])


def sequence_from_coordinates(
    base: MarkedBundle, points: list[CurvePoint], taus: list[ProjPoint]
) -> EllipticSequence:
    """The sequence realizing prescribed moduli coordinates (tau_1 .. tau_n).

    For each point the reinterpreted two-step sequence through the mark
    pins the parabolic line at that point; ``sequence_from_lines`` builds
    the chain from those lines.
    """
    rep_q = morphism_rep(base.bundle, base.q, base.line)
    h1 = rep_q.result
    lines = []
    for pnt, tau in zip(points, taus):
        # The second step's direction at its point is delta by construction.
        delta = second_direction_for_class(h1, base.q, pnt, tau)
        v = rep_q.evaluator(np.asarray(pnt.lift)) @ delta.vec
        lines.append(ProjPoint(v[0], v[1]))
    return sequence_from_lines(base, points, lines)


def sequence_from_lines(
    base: MarkedBundle, points: list[CurvePoint], lines: list[ProjPoint]
) -> EllipticSequence:
    """The sequence at ``points`` whose lines, in the trivialization of the
    base bundle, are ``lines``: each is transported back through the
    composite of the steps before it to the direction its step takes.

    Raises ValueError unless the points are pairwise distinct and away
    from the mark.
    """
    points = list(points)
    for i, pnt in enumerate(points):
        if pnt == base.q:
            raise ValueError("modification points must avoid the marked point")
        if any(pnt == other for other in points[i + 1:]):
            raise ValueError("modification points must be pairwise distinct")
    # prefix[i]: the product of the steps built so far, at point i.
    zs = np.array([pnt.lift for pnt in points])
    prefix = np.tile(np.eye(2, dtype=complex), (len(points), 1, 1))
    reps: list[MorphismRep] = []
    current = base.bundle
    for i, (pnt, line) in enumerate(zip(points, lines)):
        reps.append(morphism_rep(current, pnt, transport_direction(prefix[i], line)))
        current = reps[-1].result
        if i + 1 < len(points):
            prefix[i + 1:] = prefix[i + 1:] @ reps[-1].evaluator(zs[i + 1:])
    return EllipticSequence(base, tuple(reps))
