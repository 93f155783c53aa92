"""Scalar reference readers of direction chains, one step at a time.

The library reads chains only in stacks (``grassmannian.chain_direction_vecs``
and ``elliptic.chain_lines``); the tests compare those against these loops.
"""

import numpy as np

from heckelab.elliptic import evaluate_stack
from heckelab.grassmannian import eta_at
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
