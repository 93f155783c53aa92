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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .projective import ProjPoint, mat2_det, mat2_mul, transport_directions
from .grassmannian import chain_direction_vecs
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


@dataclass(slots=True)
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

    def tensor(self, other: "LineBundleClass") -> "LineBundleClass":
        return LineBundleClass(self.degree + other.degree, self.lift + other.lift, self.lattice)

    def inverse(self) -> "LineBundleClass":
        return LineBundleClass(-self.degree, -self.lift, self.lattice)

    def same_class(self, other: "LineBundleClass") -> bool:
        return (
            self.degree == other.degree
            and self.lattice.distance(self.lift, other.lift) < CLASS_TOL
        )

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
# 2x2 matrices of z: morphism term tables.


#: Factor kinds of a term: theta_w, theta_w', theta~_w and theta~_w' at z for
#: w = param (theta~ is theta on Lattice(2 tau)), and EXP, exp(2 pi i param z).
TH, DTH, TT, DTT, EXP = "TH", "DTH", "TT", "DTT", "EXP"


@functools.cache
def _layout(shape: tuple) -> tuple:
    """The terms of a term-table shape, in which an entry starts a term and
    each (kind, column) after it is one of its factors, as (entry, factors)
    with a factor as (kind, position among the columns of its kind); and
    each kind with its columns, numbered after one coefficient per term."""
    n_terms = sum(type(x) is int for x in shape)
    terms, by_kind, where = [], {}, {}
    for x in shape:
        if type(x) is int:
            terms.append((x, []))
            continue
        kind, c = x
        if c not in where:
            cs = by_kind.setdefault(kind, [])
            where[c] = kind, len(cs)
            cs.append(n_terms + c)
        terms[-1][1].append(where[c])
    return (tuple((entry, tuple(factors)) for entry, factors in terms),
            tuple((kind, tuple(cs)) for kind, cs in by_kind.items()))


def evaluate_stack(tables, zs, lattice: Lattice) -> list[np.ndarray]:
    """The matrices (..., 2, 2) of each term table ``tables[i]`` at its own
    array ``zs[i]``, grouped by term-table shape, one broadcast per shape.

    A table's columns are its distinct (kind, param) factors; its shape is
    its entries, the kind and column of each factor.  The tables of one
    shape are evaluated together over all their points, term by term in
    table order; the factors of each kind, at every table's columns and
    points, come from one kernel call for the whole stack.  Tables with
    no points are not walked.
    """
    if not tables:
        return []
    zs = [np.asarray(z, dtype=complex) for z in zs]
    taus = {TH: lattice.tau, DTH: lattice.tau, TT: 2 * lattice.tau, DTT: 2 * lattice.tau}
    out = [None] * len(tables)
    groups: dict[tuple, tuple] = {}  # shape -> (tables, points, rows of coefs and params)
    for i, (terms, z) in enumerate(zip(tables, zs)):
        if not z.size:
            out[i] = np.zeros(z.shape + (2, 2), dtype=complex)
            continue
        col, shape, row = {}, [], []  # col: (kind, param) -> column
        for entry, coef, factors in terms:
            shape.append(entry)
            row.append(coef)
            for f in factors:
                shape.append((f[0], col.setdefault(f, len(col))))
        row += [param for _, param in col]
        idx, points, rows = groups.setdefault(tuple(shape), ([], [], []))
        idx.append(i)
        points.append(z.ravel())
        rows.append(row)
    args, zero, data = {}, [], {}
    for shape, (idx, points, rows) in groups.items():
        w = np.array(rows, dtype=complex)
        if idx[1:]:  # each point takes its table's row; a lone table's row broadcasts
            w = np.repeat(w, list(map(len, points)), axis=0)
        z = np.concatenate(points)[:, None]
        layout = _layout(shape)
        data[shape] = layout, w, len(z)
        for kind, cs in layout[1]:
            arg = TWO_PI_I * w[:, cs] * z if kind == EXP else z - 0.5 * (1 + taus[kind]) - w[:, cs]
            args.setdefault(kind, []).append(arg)
            if kind == TH:  # theta_w vanishes on w + Lambda: exactly 0 at its own point
                zero.append((z == w[:, cs]).ravel())
    vals = {}
    for kind, parts in args.items():
        flat = np.concatenate([x.ravel() for x in parts])
        kernel = th.theta_raw_deriv if kind in (DTH, DTT) else th.theta_raw
        flat = np.exp(flat) if kind == EXP else kernel(flat, taus[kind])
        if kind == TH:
            flat[np.concatenate(zero)] = 0
        ends = itertools.accumulate(x.size for x in parts)
        vals[kind] = iter([flat[e - x.size:e].reshape(x.shape) for x, e in zip(parts, ends)])
    for shape, (idx, points, _) in groups.items():
        (terms, by_kind), coefs, size = data[shape]
        v_s = {kind: next(vals[kind]) for kind, _ in by_kind}
        m = np.zeros((size, 4), dtype=complex)
        for (entry, factors), v in zip(terms, coefs.T):  # v: the term's coefficients
            for kind, k in factors:
                v = v * v_s[kind][:, k]
            m[:, entry] += v
        start = 0
        for i, p in zip(idx, points):
            out[i] = m[start:start + len(p)].reshape(zs[i].shape + (2, 2))
            start += len(p)
    return out


def _framed(terms, shift: int, scale: complex, swap: bool):
    """The terms of P diag(exp(2 pi i shift z), scale) M for the terms of M,
    P the row swap if ``swap``: a frame change from a table presentation to
    the stored one."""
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


@dataclass(slots=True)
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

    def tensor(self, l: LineBundleClass) -> "Decomposable":
        return Decomposable(self.l1.tensor(l), self.l2.tensor(l))

    def __str__(self) -> str:
        return f"O[{self.l1.degree},{self.l1.reduced():.4f}]+O[{self.l2.degree},{self.l2.reduced():.4f}]"


@dataclass(slots=True)
class F2Twist:
    """F2 tensor L: the nontrivial self-extension of O, twisted."""

    l: LineBundleClass

    @property
    def lattice(self) -> Lattice:
        return self.l.lattice

    hecke_length = 0

    def tensor(self, l: LineBundleClass) -> "F2Twist":
        return F2Twist(self.l.tensor(l))

    def __str__(self) -> str:
        return f"F2x[{self.l.degree},{self.l.reduced():.4f}]"


@dataclass(slots=True)
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

    def tensor(self, l: LineBundleClass) -> "G2Twist":
        return G2Twist(self.point_lift, self.l.tensor(l))

    def __str__(self) -> str:
        return f"G2({self.lattice.reduce(self.point_lift):.4f})x[{self.l.degree},{self.l.reduced():.4f}]"


EllipticBundle = Decomposable | F2Twist | G2Twist


def automorphy_factors(bundles, zs) -> np.ndarray:
    """The automorphy factors (B, k, 2, 2) of each bundle ``bundles[i]`` at
    its own points ``zs[i]`` (zs: (B, k)): diag(f1, f2) for L1 + L2,
    [[f, f], [0, f]] for F2 tensor L and [[0, f], [f g, 0]] for G2(p)
    tensor L.  Each f is the standard factor ``theta.automorphy_factor``
    of a line bundle of degree d and lift t, g that of O(p + 1/2); the
    stack's factors are one exponential."""
    zs = np.asarray(zs, dtype=complex)
    rows = [(b.l1.degree, b.l2.degree, b.l1.lift, b.l2.lift) if isinstance(b, Decomposable)
            else (b.l.degree, b.l.degree, b.l.lift, b.l.lift) if isinstance(b, F2Twist)
            else (b.l.degree, 1, b.l.lift, b.point_lift + 0.5) for b in bundles]
    d = np.array([r[:2] for r in rows], dtype=int).reshape(-1, 2).T[..., None]
    t = np.array([r[2:] for r in rows], dtype=complex).reshape(-1, 2).T[..., None]
    f, g = th.automorphy_factor(zs, t, d)
    split, g2 = (np.array([isinstance(b, kind) for b in bundles])[:, None]
                 for kind in (Decomposable, G2Twist))
    out = np.stack([np.where(g2, 0, f), np.where(split, 0, f), np.where(g2, f * g, 0),
                    np.where(g2, 0, g)], axis=-1)
    return out.reshape(zs.shape + (2, 2))


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


def det_lift(b: EllipticBundle) -> tuple[int, complex]:
    """(degree, lift) of det b in its stored trivialization: that of L1 L2
    for L1 + L2, of L^2 for F2 tensor L and of O(p) L^2 for G2(p) tensor L."""
    if isinstance(b, Decomposable):
        return b.l1.degree + b.l2.degree, b.l1.lift + b.l2.lift
    if isinstance(b, F2Twist):
        return 2 * b.l.degree, b.l.lift + b.l.lift
    return 1 + 2 * b.l.degree, (b.point_lift + b.l.lift) + b.l.lift


def has_trivial_det(b: EllipticBundle) -> bool:
    degree, lift = det_lift(b)
    return degree == 0 and b.lattice.distance(lift, 0.0) < CLASS_TOL


def s_equivalent(b1: EllipticBundle, b2: EllipticBundle) -> bool:
    """Semistable bundles with equal graded pairs of line-bundle classes, in either order."""
    pairs = []
    for b in (b1, b2):
        if isinstance(b, G2Twist):
            raise NotSemistable("G2 twists are stable, not strictly semistable")
        if not is_semistable(b):
            raise NotSemistable(f"{b} is unstable")
        pairs.append((b.l1, b.l2) if isinstance(b, Decomposable) else (b.l, b.l))
    (a1, a2), (c1, c2) = pairs
    return (a1.same_class(c1) and a2.same_class(c2)) or (a1.same_class(c2) and a2.same_class(c1))


# ---------------------------------------------------------------------------
# Morphism representatives.


@dataclass(slots=True)
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


def certify_rows(reps, zs) -> tuple[np.ndarray, np.ndarray]:
    """The two certificates (equivariance, det_identity), each (B,), of
    each representative ``reps[i]`` at its own points ``zs[i]`` (zs: (B, k)).

    equivariance: the max relative residual of the automorphy intertwining
    laws alpha(z + tau) f_F(z) = f_E(z) alpha(z) and alpha(z + 1) = alpha(z).
    det_identity: inf unless det E - det F = O(t) has degree 1; else the
    larger of the distance from t to p modulo the lattice and the fit
    residual max|det - c theta| / max|det|, theta = theta_w(., t) and c =
    <theta, det> / <theta, theta>.  alpha intertwines the automorphy
    factors, so det alpha is a section of O(t): a multiple of theta_w(., t),
    whose one zero per cell is t.  The fit takes no reference point and
    divides by no theta value, so a point near t needs no floor.  Both read
    one ``evaluate_stack`` call, each table at z, z + tau and z + 1
    together; the theta values are one kernel call.
    """
    if not reps:
        return np.empty(0), np.empty(0)
    lat = reps[0].upstream.lattice
    zs = np.asarray(zs, dtype=complex)
    vals = evaluate_stack([r.terms for r in reps], [(z, z + lat.tau, z + 1.0) for z in zs], lat)
    a_z, a_tau, a_one = np.moveaxis(np.array(vals), 1, 0)
    lhs = mat2_mul(a_tau, automorphy_factors([r.result for r in reps], zs))
    rhs = mat2_mul(automorphy_factors([r.upstream for r in reps], zs), a_z)
    # The largest entry modulus per representative.
    err, scale, peak, drift = (np.abs(m).max(axis=(1, 2, 3)) for m in (lhs - rhs, rhs, a_z, a_one - a_z))
    floor = np.maximum(peak, 1e-30)
    equivariance = np.maximum(err / np.maximum(scale, floor), drift / floor)
    dets = [(det_lift(r.upstream), det_lift(r.result)) for r in reps]
    dcs = [(du - df, tu + -tf) for (du, tu), (df, tf) in dets]  # det E tensor (det F)^-1
    det = mat2_det(a_z)
    theta = th.theta_w(zs, np.array([t for _, t in dcs])[:, None], lat)
    c = (theta.conj() * det).sum(1) / (theta.conj() * theta).sum(1)
    fit = np.abs(det - c[:, None] * theta).max(1) / np.abs(det).max(1)
    dist = [lat.distance(t, r.point.lift) if d == 1 else np.inf for (d, t), r in zip(dcs, reps)]
    return equivariance, np.maximum(fit, dist)


@functools.lru_cache(maxsize=64)
def _row_constants(lattice: Lattice) -> tuple[complex, complex]:
    """-(i/2pi) theta'^{(0)}(0) of row Op:[x:y] and 2 g~_{1/2}(0) of row F2:[lam:1], cached per tau."""
    return (-complex((1j / (2 * np.pi)) * th.theta_w_deriv(0.0, 0.0, lattice)),
            2 * complex(th.g_w(0.0, 0.5, Lattice(2 * lattice.tau))))


def morphism_rep(es, ps, dirs) -> list[MorphismRep]:
    """Table representatives of the modifications of ``es[i]`` at ``ps[i]``
    toward ``dirs[i]``, over stacks (sequences) of one length.

    Each bundle is rewritten as (table form) tensor M (``_table_form``);
    matrices are twist-invariant, so only the frame change between the
    stored and table presentations, P diag(exp(2 pi i shift z), scale) with
    P a row swap or the identity, dresses the table row (``_table_row``).
    The frame is monomial, so the direction reaches the table frame in
    closed form: swapped if P swaps, then divided by the diagonal's value
    at p.  A direction whose frame is the identity is used as given.
    Before any row is built, the theta values of its split forms are one
    kernel call per theta (theta~ for ss, theta for Oq and OD), and the
    fibers over its G2 rows' directions one branch test and inversion
    (``_invert_lifts``).
    """
    lat = es[0].lattice if es else None
    forms, a_t = [_table_form(e, p) for e, p in zip(es, ps)], list(dirs)
    for i, (p, form) in enumerate(zip(ps, forms)):
        shift, scale, swap = form.frame
        if form.frame != (0, 1.0, False):
            x, y = (a_t[i].c, a_t[i].a) if swap else (a_t[i].a, a_t[i].c)
            xy = (x / np.exp(TWO_PI_I * shift * p.lift) if shift else x, y / scale)
            # Rescaled by an exact power of two: the same bits, and never below NORM_TOL.
            k = -math.frexp(max(map(abs, xy)))[1]
            a_t[i] = ProjPoint(*(complex(math.ldexp(v.real, k), math.ldexp(v.imag, k)) for v in xy))
    # pre[i]: theta~_{1/2 - tau} at q - p and p - q (ss), the theta product
    # theta_t(p) theta_0(p)^(k-1) (Oq, OD), or (branch index, fiber lift) (G2).
    pre = [None] * len(es)
    ss, od, g2 = ([i for i, f in enumerate(forms) if f.family in fams]
                  for fams in (("ss",), ("Oq", "OD"), ("G2",)))
    if ss:
        z = np.array([(ps[i].lift - forms[i].lp[1]) - ps[i].lift for i in ss])
        vals = th.theta_w(np.concatenate([z, -z]), 0.5 - lat.tau, Lattice(2 * lat.tau)).tolist()
        for i, minus, plus in zip(ss, vals, vals[len(ss):]):
            pre[i] = minus, plus
    if od:
        vals = th.theta_w(np.array([ps[i].lift for i in od] * 2),
                          np.array([forms[i].lp[1] for i in od] + [0.0] * len(od)), lat).tolist()
        for i, t_p, o_p, k in zip(od, vals, vals[len(od):], (forms[i].lp[0] for i in od)):
            pre[i] = t_p * o_p ** (k - 1) if k > 1 else t_p
    if g2:
        lifts, idx = th._invert_lifts([a_t[i].a for i in g2], [a_t[i].c for i in g2], lat)
        for i, k, w in zip(g2, idx.tolist(), lifts.tolist()):
            pre[i] = k, w
    return [MorphismRep(_framed(terms, *form.frame), row, e, target, p)
            for e, p, form, (row, terms, target) in zip(es, ps, forms, map(_table_row, ps, a_t, forms, pre))]


class _TableForm(NamedTuple):
    """A bundle at a point as (table form) tensor m: its table ``family``
    (OO, ss, Op, Oq, OD, F2 or G2); for a split bundle lp, the (degree k >= 0,
    lift) of u1 tensor m^-1, and its first summand u1 in table order, with the
    lift the frame fixes; and the ``frame`` (shift, scale, swap) from the
    table presentation to the stored one."""

    family: str
    u1: LineBundleClass | None
    m: LineBundleClass
    lp: tuple[int, complex] | None
    frame: tuple


def _table_form(e: EllipticBundle, p: CurvePoint) -> _TableForm:
    """The ``_TableForm`` of ``e`` at ``p``."""
    if isinstance(e, F2Twist):
        return _TableForm("F2", None, e.l, None, (0, 1.0, False))
    if isinstance(e, G2Twist):
        # G2(p') tensor N as G2(p) tensor M: the exact half-difference
        # lift makes the frame change a constant diagonal.
        d = e.point_lift - p.lift
        m = LineBundleClass(e.l.degree, e.l.lift + d / 2, e.lattice)
        scale = np.exp(1j * np.pi * d) if abs(d) > 1e-14 else 1.0
        return _TableForm("G2", None, m, None, (0, scale, False))
    swap = e.l1.degree < e.l2.degree
    u1, m = (e.l2, e.l1) if swap else (e.l1, e.l2)
    k, t = u1.degree - m.degree, u1.lift + -m.lift  # u1 tensor m^-1, k >= 0
    # O + O, O(p - q) + O, O(p) + O at its own point, O(q) + O, O(D) + O.
    family = ("OO" if k == 0 and e.lattice.distance(t, 0.0) < CLASS_TOL else "ss" if k == 0
              else "Op" if k == 1 and e.lattice.distance(t, p.lift) < CLASS_TOL else "Oq" if k == 1 else "OD")
    # Frame change table -> stored: a scalar-exponential fix of the first
    # summand's lift to 0 (O + O) or p (O(p) + O), then the order swap.
    fixed, shift = {"OO": 0.0, "Op": p.lift}.get(family), 0
    if fixed is not None:
        shift = round((t - fixed).imag / e.lattice.tau.imag)
        u1 = LineBundleClass(k + m.degree, fixed + m.lift, e.lattice)  # O(k fixed) tensor m
    return _TableForm(family, u1, m, (k, t), (shift, 1.0, swap))


def _table_row(p: CurvePoint, a_t: ProjPoint, form: _TableForm, values):
    """(row, terms, target) of ``form`` at ``p`` for the direction ``a_t``
    in the table frame, given its ``morphism_rep`` precompute ``values``."""
    family, u1, m, lp, _ = form
    lat, pt = m.lattice, p.lift
    theta_p = ((TH, pt),)
    i_pi = 1j / np.pi

    if family == "G2":
        idx, root = values  # branch index (0 off the branch points), fiber lift
        if idx:
            zi = lat.torsion_lifts()[idx - 1]
            c = pt - 2 * zi + 0.5
            ct = c - lat.tau
            ei = np.exp(TWO_PI_I * zi)
            terms = (
                (0, 1.0, ((TT, c),)),
                (1, -i_pi, ((DTT, c),)),
                (2, ei, ((TT, ct),)),
                (3, ei, ((TT, ct),)), (3, -ei * i_pi, ((DTT, ct),)),
            )
            return f"G2:a{idx}", terms, F2Twist(LineBundleClass(m.degree, zi + m.lift, lat))
        # Any exact lift of the root works if used consistently in the
        # characters, the exponentials, and the target twists; the centered
        # lift keeps the doubled arguments +-2w numerically balanced.
        w = lat.reduce_centered(root)
        e2w = np.exp(TWO_PI_I * w)
        terms = (
            (0, 1.0, ((TT, pt - 2 * w + 0.5),)),
            (1, 1.0, ((TT, pt + 2 * w + 0.5),)),
            (2, e2w, ((TT, pt - 2 * w + 0.5 - lat.tau),)),
            (3, 1 / e2w, ((TT, pt + 2 * w + 0.5 - lat.tau),)),
        )
        return "G2:good", terms, Decomposable(*(LineBundleClass(m.degree, x + m.lift, lat) for x in (w, -w)))

    if family == "F2":
        low = LineBundleClass(-1 + m.degree, -pt + m.lift, lat)  # O(-p) tensor m
        if a_t.is_zero_dir():
            terms = ((0, 1.0, ()), (1, 1j / (2 * np.pi), ((DTH, pt),)), (3, 1.0, theta_p))
            return "F2:[1:0]", terms, Decomposable(m, low)
        lam_p = a_t.a / a_t.c - _row_constants(lat)[1]
        c = pt - 0.5
        ct = c - lat.tau
        terms = (
            (0, 1 - lam_p, ((TT, ct),)), (0, -i_pi, ((DTT, ct),)),
            (1, lam_p, ((TT, c),)), (1, i_pi, ((DTT, c),)),
            (2, -1.0, ((TT, ct),)),
            (3, 1.0, ((TT, c),)),
        )
        return "F2:[lam:1]", terms, G2Twist(pt, low)

    # A split family.
    k, t = lp
    if a_t.is_zero_dir() or family == "OO":  # OO: every direction is bad
        target = Decomposable(u1, LineBundleClass(-1 + m.degree, -pt + m.lift, lat))  # u1 + O(-p) tensor m
        if a_t.is_zero_dir():
            return f"{family}:[1:0]", ((0, 1.0, ()), (3, 1.0, theta_p)), target
        return "OO:[lam:1]", ((0, a_t.a / a_t.c, ()), (1, 1.0, theta_p), (2, 1.0, ())), target
    down = LineBundleClass(k - 1 + m.degree, (0.0 if family == "Op" else t - pt) + m.lift, lat)  # u1(-p)
    if family in ("ss", "Op") and a_t.is_infinity_dir():
        return f"{family}:[0:1]", ((0, 1.0, theta_p), (3, 1.0, ())), Decomposable(down, m)

    if family == "ss":
        # O(p - q) + O with q = p - t; strictly semistable, t nontrivial.
        sa, sb = a_t.a / values[0], a_t.c / values[1]
        e2t = np.exp(TWO_PI_I * t)
        terms = (
            (0, sa, ((TT, pt + t + 0.5 - lat.tau),)),
            (1, -sa * e2t, ((TT, pt + t + 0.5),)),
            (2, sb, ((TT, pt - t + 0.5 - lat.tau),)),
            (3, -sb, ((TT, pt - t + 0.5),)),
        )
        return "ss:[x:y]", terms, G2Twist(pt - t, down)

    if family == "Op":
        scale = a_t.c * _row_constants(lat)[0] / a_t.a
        terms = ((0, 1.0, theta_p), (1, -1j / (2 * np.pi), ((DTH, pt),)), (3, scale, ()))
        return "Op:[x:y]", terms, F2Twist(m)

    # O(D) + O for deg D = k >= 1 with D's point distinct from p (k = 1)
    # or arbitrary (k >= 2; the theta product uses (k-1) [0] + the twist).
    # The table family is lambda * (theta product); its direction at p is
    # [lambda * product(p) : 1], so hitting the requested direction means
    # dividing out the product's value at p.
    lam = (a_t.a / a_t.c) / values
    terms = ((0, 1.0, theta_p), (1, lam, ((TH, t),) + ((TH, 0.0),) * (k - 1)), (3, 1.0, ()))
    return f"{family}:[lam:1]", terms, Decomposable(down, m)


# ---------------------------------------------------------------------------
# Two-step classification, moduli coordinates, and the total direction map.


def _class_lifts(es) -> list[complex]:
    """Reduced lifts of the twists whose cover images are ``mss_coordinate(es)``."""
    for e in es:
        if not is_even_semistable(e) or not has_trivial_det(e):
            raise NotSemistable(f"{e} is not semistable with trivial determinant")
    return [(e.l1 if isinstance(e, Decomposable) else e.l).reduced() for e in es]


def mss_coordinate(es) -> list[ProjPoint]:
    """Coordinates of the S-equivalence classes ``es`` in the semistable
    moduli line, from one cover call.

    [L + L^{-1}] maps to the cover image of the twist of L; an F2 twist
    maps like its S-equivalent L + L.
    """
    return th._cover_points(_class_lifts(es), es[0].lattice) if es else []


def _stable_first_class(reps1, points, avals, dirs) -> list[list[EllipticBundle]]:
    """E2 tensor O(e) for each first modification ``reps1[i]`` in a good
    direction, with values ``avals[i]`` at its second points ``points[i]``,
    followed by second modifications there with composite coordinates ``dirs[i]``.

    The intermediate bundle is stable, so the composite coordinate b must
    be transported back through the first-step representative before the
    single-modification table can classify the second step; the composite
    and intrinsic coordinates differ by the Moebius action of the
    first-step matrix at p2 (they agree only along unstable intermediates,
    where repeated subbundle modifications keep the coordinate constant).
    The stack's transports and second steps are one call each.  The second
    points differ from the first; both callers check that before the call.
    """
    ups = [rep1.result for rep1, p2s in zip(reps1, points) for _ in p2s]
    pts = [p2 for p2s in points for p2 in p2s]
    vecs = transport_directions(np.concatenate(avals), np.array([(b.a, b.c) for d in dirs for b in d]))
    second = iter(morphism_rep(ups, pts, [ProjPoint(a, c) for a, c in vecs.tolist()]))
    out = []
    for rep1, p2s in zip(reps1, points):
        lat = rep1.point.lattice
        row = [next(second).result.tensor(LineBundleClass(1, halve_sum(rep1.point, p2).lift, lat))
               for p2 in p2s]
        if not all(is_even_semistable(c) for c in row):
            raise AssertionError("modification of a stable bundle must be semistable")
        out.append(row)
    return out


def double_hecke(es, p1s, p2s, as_, bs) -> list[EllipticBundle | None]:
    """Classify two-step modifications of semistable trivial-determinant
    bundles ``es[i]``, at ``p1s[i]`` then ``p2s[i]``, by their composite
    direction pairs (``as_[i]``, ``bs[i]``) in the trivialization of es[i],
    over stacks of one length.

    Each result is the class of E2 tensor O(e) for e with 2e = p1 + p2 (the
    canonical-lift average), or None when E2 is unstable.  A bad first
    direction a is the fiber of a maximal-slope subbundle M, named by its
    witness ``bad_group_key(e, a)``: E2 is unstable when b has the same
    witness, and otherwise E2 tensor O(e) is L + L^-1 with L = M(e - p2).
    When L is 2-torsion, that is L + L if b is the other bad line of e and
    F2 tensor L if not.  The draws with a good first direction are one
    ``morphism_rep``, one ``evaluate_stack`` and one ``_stable_first_class``
    call for the stack.
    """
    out, good = [], []
    for i, (e, p1, p2, a, b) in enumerate(zip(es, p1s, p2s, as_, bs)):
        if not is_even_semistable(e) or not has_trivial_det(e):
            raise NotSemistable(f"{e} is not semistable with trivial determinant")
        if p1 == p2:
            raise ValueError("modification points must be distinct")
        key, other = bad_group_key(e, a), bad_group_key(e, b)
        if key is None:
            good.append(i)
            out.append(None)
            continue
        if other == key:
            out.append(None)
            continue
        m = e.l if isinstance(e, F2Twist) else e.l2 if key.is_infinity_dir() else e.l1
        x = CurvePoint(m.lift + halve_sum(p1, p2).lift - p2.lift, e.lattice)
        ti = x.torsion_index()
        if ti is None:
            out.append(dual_pair(x.lift, e.lattice))
        else:
            lx = torsion_line(e.lattice, ti)
            out.append(F2Twist(lx) if other is None else Decomposable(lx, lx))
    if good:
        reps = morphism_rep([es[i] for i in good], [p1s[i] for i in good], [as_[i] for i in good])
        vals = evaluate_stack([r.terms for r in reps], [[p2s[i].lift] for i in good], es[0].lattice)
        rows = _stable_first_class(reps, [[p2s[i]] for i in good], vals, [[bs[i]] for i in good])
        for i, (c,) in zip(good, rows):
            out[i] = c
    return out


@dataclass(slots=True)
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


def bad_group_key(e: EllipticBundle, direction: ProjPoint) -> ProjPoint | None:
    """The fiber direction of the maximal-slope subbundle witnessing that
    ``direction`` is bad for ``e``, or None when it is good.

    Marks are bad in the same direction exactly when their witnesses are
    equal.
    """
    if isinstance(e, G2Twist):
        return None
    if isinstance(e, F2Twist):
        return ProjPoint(1, 0) if direction.is_zero_dir() else None
    if e.l1.degree != e.l2.degree:
        raise NotSemistable(f"{e} is unstable")
    if e.l1.same_class(e.l2):
        # Every direction is the fiber of a constant subbundle.
        return direction
    if direction.is_zero_dir():
        return ProjPoint(1, 0)
    if direction.is_infinity_dir():
        return ProjPoint(0, 1)
    return None


def chain_factors(chains) -> list[np.ndarray]:
    """The factors (n, n, 2, 2) of each chain of representatives: step k at
    point i for i >= k, zero below, from one ``evaluate_stack`` call that
    evaluates each representative at its own point and all later ones."""
    reps = [r for chain in chains for r in chain]
    zs = [[r.point.lift for r in chain] for chain in chains]
    flat = iter(evaluate_stack([r.terms for r in reps], [z[k:] for z in zs for k in range(len(z))],
                               reps[0].point.lattice if reps else None))
    out = [np.zeros((len(z), len(z), 2, 2), dtype=complex) for z in zs]
    for f in out:
        for k in range(len(f)):
            f[k, k:] = next(flat)
    return out


def factor_lines(factors) -> list[list[ProjPoint]]:
    """Directions of each chain, given its factors (n, n, 2, 2), in the
    trivialization of its first upstream bundle: eta of each step at its
    point, transported by the product of the steps before it.  The chains
    of each length are read by one ``chain_direction_vecs`` call."""
    out = [[] for _ in factors]
    for n in {len(f) for f in factors}:
        idx = [i for i, f in enumerate(factors) if len(f) == n]
        for i, vecs in zip(idx, chain_direction_vecs(np.array([factors[i] for i in idx])).tolist()):
            out[i] = [ProjPoint(a, c) for a, c in vecs]
    return out


@dataclass(slots=True, eq=False)
class EllipticSequence:
    """A point of H(T^2, n): modifications of a marked bundle, held as the
    chain of morphism representatives, each built once, with what its
    builder evaluated: its ``factors`` (see ``chain_factors``), its ``lines``
    in the base's trivialization, and the ``mark`` step (the modification at
    q toward the base's line) with its ``mark_values`` (n, 2, 2) at the points.

    Each step's direction is in the standard trivialization of the bundle
    it modifies; the stored-frame convention makes consecutive representatives
    directly composable.
    """

    base: MarkedBundle
    reps: tuple[MorphismRep, ...]
    factors: np.ndarray
    mark: MorphismRep
    mark_values: np.ndarray
    lines: list[ProjPoint]

    @property
    def points(self) -> list[CurvePoint]:
        return [r.point for r in self.reps]

    @property
    def terminal(self) -> EllipticBundle:
        return self.reps[-1].result if self.reps else self.base.bundle


def h_total(seqs) -> list[list[ProjPoint]]:
    """The n+1 moduli coordinates of each sequence on a marked bundle:
    the cover images of its ``_h_lifts``, from one cover call."""
    lifts = _h_lifts(seqs)
    coords = iter(th._cover_points([z for row in lifts for z in row], seqs[0].base.q.lattice) if seqs else ())
    return [[next(coords) for _ in row] for row in lifts]


def _h_lifts(seqs) -> list[list[complex]]:
    """The ``_class_lifts`` of each sequence's n+1 moduli classes: the base
    bundle, then per point p_i the class (twisted back to trivial
    determinant) of the two-step modification of the base at (q, p_i) in
    the directions read off the mark and the sequence's lines.  For the
    whole stack, the second steps are one ``morphism_rep`` call."""
    live = [s for s in seqs if s.reps]
    # Reinterpreted two-step sequences: the mark modification first, in a
    # good direction, classified as ``double_hecke`` classifies a good first
    # direction.  Composite coordinates (mark line, d_i): line data is
    # order-independent under the canonical parabolic correspondence.
    classes = _stable_first_class([s.mark for s in live], [s.points for s in live],
                                  [s.mark_values for s in live], [s.lines for s in live]) if live else []
    lifts = _class_lifts([s.base.bundle for s in seqs] + [c for row in classes for c in row])
    rest = iter(lifts[len(seqs):])
    return [[base] + [next(rest) for _ in s.reps] for base, s in zip(lifts, seqs)]


def f_embedding(ps, q: CurvePoint, p1: CurvePoint, p2: CurvePoint) -> list[tuple]:
    """The embedded curve of unstable-terminal classes for n = 2, at each
    point of ``ps``: triples of ProjPoints from one cover call.

    Component i is the cover image of p shifted by e_i = (q + p_i)/2 data:
    pi_1 = cover(p - e_1), pi_2 = cover(p - p_1),
    pi_3 = cover(p - p_2 + e_2 - e_1), on the array of lifts, each step
    reduced as ``CurvePoint`` arithmetic reduces.
    """
    red, z = q.lattice.reduce, np.array([p.lift for p in ps], dtype=complex)
    e1, e2 = halve_sum(q, p1).lift, halve_sum(q, p2).lift
    lifts = np.stack([red(z - e1), red(z - p1.lift), red(red(red(z - p2.lift) + e2) - e1)], axis=-1)
    pts = th._cover_points(lifts, q.lattice)
    return [tuple(pts[3 * i:3 * i + 3]) for i in range(len(ps))]


def distance_to_curve(triples, qs, p1s, p2s) -> np.ndarray:
    """Max-chordal distance from each (CP^1)^3 point ``triples[i]`` to the
    embedded curve of ``(qs[i], p1s[i], p2s[i])``, as a (B,) array: one
    batched inversion of the (B, 3) targets, then ``_fiber_distance``."""
    if not qs:
        return np.zeros(0)
    t = np.array([[(x.a, x.c) for x in tri] for tri in triples], dtype=complex).reshape(-1, 3, 2)
    roots = th._invert_lifts(t[..., 0].ravel(), t[..., 1].ravel(), qs[0].lattice)[0].reshape(-1, 3)
    return _fiber_distance(roots, qs, p1s, p2s, (t[..., 0], t[..., 1]))


def _fiber_distance(roots, qs, p1s, p2s, targets=None) -> np.ndarray:
    """``distance_to_curve`` of the targets (ta, tc), each (B, 3), given
    their cover fibers {r_j, -r_j} as ``roots``; without ``targets``, of the
    roots' cover images.

    Component j of f is pi(p - s_j), so the curve points where it meets
    its target t_j are s_j +- r_j.  The value is the least max-chordal
    residual over those six curve points per triple, with all (B, 6, 3)
    residuals from one batched cover call.  Like any residual it is
    attained at real curve points; it is about 1e-15 on the curve, and
    near the curve within about 2x of the true minimum: for distinct q,
    p1, p2 at most one component can sit at a branch point, so a
    well-conditioned fiber is always among the candidates.
    """
    if not qs:
        return np.zeros(0)
    lat = qs[0].lattice
    ta, tc = th._cover_homogeneous(roots, lat) if targets is None else targets
    e1s = [halve_sum(q, p1).lift for q, p1 in zip(qs, p1s)]
    shifts = np.array([(e1, p1.lift, p2.lift - halve_sum(q, p2).lift + e1)
                       for q, p1, p2, e1 in zip(qs, p1s, p2s, e1s)], dtype=complex).reshape(-1, 3)
    z = np.concatenate([shifts + roots, shifts - roots], axis=1)
    dist = th._cover_chordal(z[:, :, None] - shifts[:, None], ta[:, None], tc[:, None], lat)
    return dist.max(axis=2).min(axis=1)


def membership_Hp(seqs) -> list[bool]:
    """Exact membership of each sequence for n <= 2: n <= 1 is all of the
    total space; for n = 2 the complement is the embedded curve, decided
    by one stacked ``_fiber_distance`` of the ``_h_lifts``."""
    if any(len(s.reps) > 2 for s in seqs):
        raise Unsupported("exact membership is computed for n <= 2 only")
    two = [s for s in seqs if len(s.reps) == 2]
    dist = iter(_fiber_distance(np.array(_h_lifts(two)), [s.base.q for s in two],
                                [s.points[0] for s in two],
                                [s.points[1] for s in two]).tolist())
    return [next(dist) >= CURVE_TOL if len(s.reps) == 2 else True for s in seqs]


# ---------------------------------------------------------------------------
# Constructive inverse of the total direction map.


def base_from_coordinate(taus, qs) -> list[MarkedBundle]:
    """Marked bundles at ``qs[i]`` whose moduli coordinates are ``taus[i]``,
    from one inversion for the stack."""
    if not qs:
        return []
    lat = qs[0].lattice
    return _bases(*th._invert_lifts([t.a for t in taus], [t.c for t in taus], lat), qs, lat)


def _bases(lifts, idx, qs, lat) -> list[MarkedBundle]:
    """Marked bundles at ``qs`` from the fibers ``(lifts, idx)`` of their
    coordinates.  Branch-point coordinates give the F2 twist by the matching
    torsion bundle (the split form L_i + L_i carries no good line);
    otherwise the dual pair of cover preimages.  The mark is the line [1:1].
    """
    out = []
    for q, z, i in zip(qs, lifts.tolist(), idx.tolist()):
        # Centered lift: the strictly semistable rows see the doubled
        # twist 2*delta, so the balanced representative matters.
        bundle = F2Twist(torsion_line(lat, i)) if i else dual_pair(lat.reduce_centered(z), lat)
        out.append(MarkedBundle(bundle, q, ProjPoint(1.0, 1.0)))
    return out


def _second_directions(h1s, qs, ps, roots, lat) -> list[ProjPoint]:
    """Directions (in the stored frame of ``h1s[i]``) whose modification at
    ``ps[i]`` lands, after the O(e) twist, on the moduli coordinate with
    cover preimage ``roots[i]``.  Inverts the good-direction row: the class
    pair is {w, -w} + kappa with kappa the twist of h1's ``_table_form`` at
    p plus the e-twist, so w is the cover preimage of tau shifted by kappa;
    the direction takes the form's frame scale."""
    forms = [_table_form(h1, p) for h1, p in zip(h1s, ps)]
    ws = [CurvePoint(root - (f.m.lift + (q.lift + p.lift) / 2), lat).lift
          for f, q, p, root in zip(forms, qs, ps, roots)]
    return [ProjPoint(d.a, f.frame[1] * d.c) for d, f in zip(th._cover_points(ws, lat), forms)]


def sequence_from_coordinates(qs, points, coords) -> list[EllipticSequence]:
    """The inverse of ``h_total``: the sequences at ``points[i]`` on a base
    marked at ``qs[i]`` whose n + 1 moduli coordinates are ``coords[i]``,
    the base class first; a stack of ``_sequences``."""
    return _sequences(qs, points, coords)


def _sequences(heads, points, given) -> list[EllipticSequence]:
    """The one builder of elliptic sequences, at ``points[i]``.  A
    ``MarkedBundle`` head ``heads[i]`` is the base, and ``given[i]`` its
    lines in the base's trivialization; a point head is the marked point q,
    and ``given[i]`` the n + 1 moduli coordinates, base class first, as
    ``h_total`` returns them.

    One inversion of all the coordinates gives the bases and the second
    directions, and one mark pass (``morphism_rep``, ``evaluate_stack``) the
    mark steps and their values at the points, which carry the second
    directions to the lines.  Step i is one ``transport_directions``,
    ``morphism_rep`` and ``evaluate_stack`` call for the stack: each line is
    transported back through the steps before it.  The kept lines are one
    ``factor_lines`` read.

    Raises ValueError unless each sequence's points are pairwise distinct
    and away from its mark.
    """
    if not heads:
        return []
    qs = [h.q if isinstance(h, MarkedBundle) else h for h in heads]
    for q, pts in zip(qs, points):
        for i, pnt in enumerate(pts):
            if pnt == q:
                raise ValueError("modification points must avoid the marked point")
            if any(pnt == other for other in pts[i + 1:]):
                raise ValueError("modification points must be pairwise distinct")
    lat = qs[0].lattice
    by_coords = [k for k, h in enumerate(heads) if not isinstance(h, MarkedBundle)]
    flat = [given[k][0] for k in by_coords] + [t for k in by_coords for t in given[k][1:]]
    lifts, idx = th._invert_lifts([t.a for t in flat], [t.c for t in flat], lat)
    bases, lines, m = list(heads), list(given), len(by_coords)
    for k, base in zip(by_coords, _bases(lifts[:m], idx[:m], [qs[k] for k in by_coords], lat)):
        bases[k] = base
    marks = morphism_rep([b.bundle for b in bases], qs, [b.line for b in bases])
    zs = [np.array([pnt.lift for pnt in pts]) for pts in points]
    mark_values = evaluate_stack([r.terms for r in marks], zs, lat)
    steps = [(marks[k].result, qs[k], pnt) for k in by_coords for pnt in points[k]]
    if steps:
        # The second step's direction at its point is delta by construction.
        deltas = _second_directions(*zip(*steps), lifts[m:].tolist(), lat)
        vecs = iter(mat2_mul(np.concatenate([mark_values[k] for k in by_coords]),
                             np.array([(d.a, d.c) for d in deltas])).tolist())
        for k in by_coords:
            lines[k] = [ProjPoint(*next(vecs)) for _ in points[k]]
    # Flat over the points of the stack: pos[r] is the index of point r in
    # its sequence, and prefix[r] the product of the steps built so far there.
    lens = [len(pts) for pts in points]
    pos = np.arange(sum(lens)) - np.repeat(np.cumsum([0] + lens[:-1]), lens)
    prefix = np.tile(np.eye(2, dtype=complex), (len(pos), 1, 1))
    factors = [np.zeros((n, n, 2, 2), dtype=complex) for n in lens]
    reps: list[list[MorphismRep]] = [[] for _ in heads]
    for i in range(max(lens)):
        live = [k for k, n in enumerate(lens) if i < n]
        vecs = transport_directions(prefix[pos == i], np.array([(lines[k][i].a, lines[k][i].c) for k in live]))
        step = morphism_rep([reps[k][-1].result if reps[k] else bases[k].bundle for k in live],
                            [points[k][i] for k in live],
                            [ProjPoint(a, c) for a, c in vecs.tolist()])
        values = evaluate_stack([r.terms for r in step], [zs[k][i:] for k in live], lat)
        for k, rep, v in zip(live, step, values):
            reps[k].append(rep)
            factors[k][i, i:] = v
        later = pos > i
        prefix[later] = mat2_mul(prefix[later], np.concatenate([v[1:] for v in values]))
    return [EllipticSequence(*x) for x in zip(bases, map(tuple, reps), factors, marks, mark_values,
                                              factor_lines(factors))]
