"""Scalar reference readers of direction chains, one step at a time.

The library reads chains only in stacks (``grassmannian.chain_direction_vecs``
and ``elliptic.factor_lines``); the tests compare those against these loops.
"""

import numpy as np

from heckelab.elliptic import evaluate_stack
from heckelab.grassmannian import eta_at, eta_vecs
from heckelab.projective import ProjPoint


def evaluator(rep):
    """alpha of an elliptic morphism representative as a function of an
    array of z: its term table evaluated as a stack of one."""
    return lambda z: evaluate_stack([rep.terms], [z], rep.upstream.lattice)[0]


def prefix_product(evaluators, z) -> np.ndarray:
    """Product of the evaluators at ``z``, left to right from the identity."""
    out = np.eye(2, dtype=complex)
    for ev in evaluators:
        out = out @ ev(z)
    return out


def chain_directions(evaluators, zs) -> list[ProjPoint]:
    """Direction of each step of a chain of evaluators z -> 2x2, in the
    frame of the chain's start: eta of evaluator i at ``zs[i]``,
    transported by the product of the evaluators before it."""
    out = []
    for i, z in enumerate(zs):
        v = prefix_product(evaluators[:i], z) @ eta_at(evaluators[i], z).vec
        out.append(ProjPoint(v[0], v[1]))
    return out


def raw_directions(reps) -> list[ProjPoint]:
    """``chain_directions`` of a chain of elliptic morphism representatives,
    each evaluated once, at its own point and all later ones."""
    zs = np.array([r.point.lift for r in reps])
    prefix = np.tile(np.eye(2, dtype=complex), (len(reps), 1, 1))
    out = []
    for i, r in enumerate(reps):
        val = evaluator(r)(zs[i:])
        v = prefix[i] @ eta_at(val[0], zs[i]).vec
        out.append(ProjPoint(v[0], v[1]))
        prefix[i + 1:] = prefix[i + 1:] @ val[1:]
    return out


def scalar_mat2_mul(a, b) -> np.ndarray:
    """``projective.mat2_mul`` entry by entry in Python's complex arithmetic:
    a (..., 2, 2) times matrices b (..., 2, k), or times vectors b (..., 2)
    with fewer axes than a.  Each entry is x0 y0 + x1 y1, so ``mat2_mul``
    must equal it bit for bit, signed zeros aside."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    vector = b.ndim < a.ndim
    b = b[..., None] if vector else b
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a, b = np.broadcast_to(a, lead + (2, 2)), np.broadcast_to(b, lead + b.shape[-2:])
    out = np.empty(lead + (2, b.shape[-1]), dtype=complex)
    for i in np.ndindex(*lead):
        x, y = a[i].tolist(), b[i].tolist()
        out[i] = [[row[0] * y[0][k] + row[1] * y[1][k] for k in range(len(y[0]))] for row in x]
    return out[..., 0] if vector else out


def identity_prefixed_vecs(factors: np.ndarray) -> np.ndarray:
    """``chain_direction_vecs`` read from the identity: every prefix,
    the identity included, multiplied out at every point of the chain, in
    Python's complex arithmetic (``scalar_mat2_mul``)."""
    n = factors.shape[-3]
    diag = np.arange(n)
    eta = eta_vecs(factors[..., diag, diag, :, :])
    out = np.empty_like(eta)
    prefix = np.broadcast_to(np.eye(2, dtype=complex), factors.shape[:-4] + (n, 2, 2))
    for k in range(n):
        out[..., k, :] = scalar_mat2_mul(prefix[..., k, :, :], eta[..., k, :])
        prefix = scalar_mat2_mul(prefix, factors[..., k, :, :, :])
    return out


def random_factors(rng: np.random.Generator, lead: tuple, n: int) -> np.ndarray:
    """Evaluated chain factors (*lead, n, n, 2, 2) for the chain readers.

    Factor k at point i is a rank-1 matrix u w^T on the diagonal (i = k),
    with u at [1:0], at [0:1] or generic, one third each; a complex matrix
    with about a fifth of its entries exactly zero below it (k < i); and
    NaN above it, which no reader may touch.
    """
    shape = tuple(lead) + (n, n)
    g = rng.normal(size=shape + (2, 2, 2))
    f = g[..., 0] + 1j * g[..., 1]
    f[rng.random(shape + (2, 2)) < 0.2] = 0
    u, w = f[..., 0].copy(), f[..., 1].copy()
    kind = rng.integers(0, 3, size=shape)
    u[kind == 1, 1] = 0
    u[kind == 2, 0] = 0
    u[(u == 0).all(axis=-1)] = 1  # a zero u or w has no direction
    w[(w == 0).all(axis=-1)] = 1
    on = np.arange(n)[:, None] == np.arange(n)[None, :]
    f[..., on, :, :] = u[..., on, :, None] * w[..., on, None, :]
    f[..., np.tril(np.ones((n, n), bool), -1), :, :] = np.nan
    return f
