"""The terminal Hecke length as it was before its d = 0 step read chordal
distances.

``reference_terminal_hecke_lengths`` is ``rational.terminal_hecke_lengths``
as it was: it replaces each direction within PROJ_TOL of its predecessor
by that predecessor, forms the unit perpendicular rows and decides d = 0 by
``two_column_ratio``, then each d >= 1 by a stacked SVD.  The library must
decide every tuple as it does.  ``replaced_vecs`` and ``perpendiculars``
are its first two steps on their own, for tests of the d = 0 identity, and
``near_repeat_tuples`` draws tuples on both sides of the coincidence rule.
"""

import numpy as np

from heckelab.projective import PROJ_TOL, chordal_vecs, normalized_vecs
from heckelab.rational import RANK_DROP_TOL, two_column_ratio


def reference_terminal_hecke_lengths(points, vecs) -> np.ndarray:
    n = vecs.shape[1]
    near = chordal_vecs(vecs[:, :-1], vecs[:, 1:]) < PROJ_TOL
    vecs = vecs.copy()
    for i in np.flatnonzero(near.any(axis=0)):  # in order, so runs take their first
        vecs[near[:, i], i + 1] = vecs[near[:, i], i]
    # Row i: the perpendicular (y_i, -x_i) / |a_i| of a_i = [x_i : y_i].
    perp = np.stack([vecs[..., 1], -vecs[..., 0]], axis=-1) / np.linalg.norm(vecs, axis=-1, keepdims=True)
    powers = np.asarray(points, dtype=complex)[:n, None] ** np.arange(n // 2)
    out = np.where(two_column_ratio(perp) < RANK_DROP_TOL, n, n % 2)
    open_ = np.flatnonzero(out != n)
    for d in range(1, n // 2):
        # Column (j, k): component j of the perpendicular times mu_i^k.
        a = perp[open_, :, :, None] * powers[:, None, : d + 1]
        s = np.linalg.svd(a.reshape(len(open_), n, 2 * (d + 1)), compute_uv=False)
        done = s[:, -1] < RANK_DROP_TOL * s[:, 0]
        out[open_[done]] = n - 2 * d
        open_ = open_[~done]
    return out


def replaced_vecs(vecs):
    """``vecs`` (B, n, 2) with each direction within PROJ_TOL of its
    predecessor replaced by it, in order, so that runs take their first."""
    near = chordal_vecs(vecs[:, :-1], vecs[:, 1:]) < PROJ_TOL
    vecs = vecs.copy()
    for i in np.flatnonzero(near.any(axis=0)):
        vecs[near[:, i], i + 1] = vecs[near[:, i], i]
    return vecs


def perpendiculars(vecs):
    """The d = 0 condition matrices (B, n, 2): row i is the unit
    perpendicular (y_i, -x_i) / |a_i| of a_i = [x_i : y_i]."""
    return np.stack([vecs[..., 1], -vecs[..., 0]], axis=-1) / np.linalg.norm(vecs, axis=-1, keepdims=True)


def near_repeat_tuples(rng, n, count):
    """``count`` direction tuples (count, n, 2), normalized as ``ProjPoint``
    normalizes them.  Each direction after the first is, with equal odds, a
    fresh Gaussian draw, an exact repeat of its predecessor, or its
    predecessor moved by 0.5 or 2 PROJ_TOL (chordal) at a random phase; so
    runs of three and more occur, and offsets on either side of PROJ_TOL."""
    z = rng.normal(size=(count, n, 2, 2))
    vecs = normalized_vecs(z[..., 0] + 1j * z[..., 1])
    kinds = rng.integers(0, 4, size=(count, n))
    phases = np.exp(2j * np.pi * rng.random((count, n)))
    for k in range(1, n):
        u = vecs[:, k - 1] / np.linalg.norm(vecs[:, k - 1], axis=-1, keepdims=True)
        # A unit vector orthogonal to u: moving along it by d is chordal d.
        w = np.stack([-u[:, 1].conj(), u[:, 0].conj()], axis=-1) * phases[:, k, None]
        for kind, d in ((2, 0.5 * PROJ_TOL), (3, 2 * PROJ_TOL)):
            moved = normalized_vecs(u * np.sqrt(1 - d * d) + w * d)
            vecs[kinds[:, k] == kind, k] = moved[kinds[:, k] == kind]
        vecs[kinds[:, k] == 1, k] = vecs[kinds[:, k] == 1, k - 1]
    return vecs
