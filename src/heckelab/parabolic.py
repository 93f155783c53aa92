"""Parabolic-bundle stability for rank 2 with small symmetric weights.

A parabolic bundle is an underlying bundle plus one line per marked
point; a line is *bad* when it is the fiber of a maximal-slope line
subbundle, and marks are bad in the same direction when one subbundle
witnesses them all.  In the small-weight regime (weights below 1/(2n)
for n marks) the stability verdict only depends on the largest such group.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .projective import PROJ_TOL, ProjPoint, chordal, chordal_vecs
from .rational import RationalBundle, RationalSequence
from .elliptic import (
    EllipticBundle,
    bad_group_key,
    is_semistable as elliptic_semistable,
)

class TerminalNotMinimal(ValueError):
    """Sequence terminal bundle does not have minimal Hecke length."""


class Verdict(Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly-semistable"
    UNSTABLE = "unstable"


@dataclass(slots=True)
class StabilityVerdict:
    verdict: Verdict
    witness: int  # max count of marks bad in one direction


@dataclass(slots=True)
class Mark:
    point: object  # chart coordinate (rational) or CurvePoint (elliptic)
    line: ProjPoint


@dataclass(slots=True)
class ParabolicBundle:
    underlying: RationalBundle | EllipticBundle
    marks: tuple[Mark, ...]

    def __post_init__(self):
        self.marks = tuple(self.marks)


def _underlying_semistable(u) -> bool:
    if isinstance(u, RationalBundle):
        return u.is_semistable()
    return elliptic_semistable(u)


def stabilities(pbs: list[ParabolicBundle]) -> list[StabilityVerdict]:
    """Small-weight verdicts: compare each largest bad group m with n/2.

    Marks with witnesses equal as ``ProjPoint ==`` decides form one group;
    the keys of all bundles, padded to (B, w, 2), are compared in one
    ``chordal_vecs`` call.  An unstable underlying bundle is parabolically
    unstable outright (its maximal subbundle wins by at least 1/2 against
    any weight sum), with witness n.
    """
    ok = [_underlying_semistable(pb.underlying) for pb in pbs]
    # A split semistable rational bundle has every line as the fiber of a
    # constant subbundle, which witnesses that line itself.
    witnesses = [[m.line if isinstance(pb.underlying, RationalBundle) else bad_group_key(pb.underlying, m.line)
                  for m in pb.marks] if s else [] for pb, s in zip(pbs, ok)]
    rows = [[(k.a, k.c) for k in ks if k is not None] for ks in witnesses]
    w = max(map(len, rows), default=0)
    keys = np.array([r + [(1, 0)] * (w - len(r)) for r in rows], dtype=complex).reshape(len(rows), w, 2)
    valid = np.arange(w) < np.array([len(r) for r in rows], dtype=int)[:, None]
    same = (chordal_vecs(keys[:, :, None], keys[:, None]) < PROJ_TOL) & valid[:, None]
    groups = np.where(valid, same.sum(-1), 0).max(-1, initial=0).tolist()
    by_sign = (Verdict.STRICTLY_SEMISTABLE, Verdict.UNSTABLE, Verdict.STABLE)  # index: sign of 2m - n
    return [StabilityVerdict(by_sign[(2 * m > len(pb.marks)) - (2 * m < len(pb.marks))], m) if s
            else StabilityVerdict(Verdict.UNSTABLE, len(pb.marks))
            for pb, s, m in zip(pbs, ok, groups)]


def stability(pb: ParabolicBundle) -> StabilityVerdict:
    """A batch of one of ``stabilities``."""
    return stabilities([pb])[0]


# ---------------------------------------------------------------------------
# Hecke embeddings into the parabolic moduli spaces.


def hecke_embeddings_rational(seq: RationalSequence, aux: list[Mark]) -> list[ParabolicBundle]:
    """Embed minimal-terminal sequences, one or a stack, as stable parabolic
    bundles: each adds three auxiliary marks with distinct lines at fresh
    points to its direction tuple.  One length walk and one ``h_map`` read
    serve the whole stack."""
    n = len(seq)
    if n % 2:
        raise ValueError("the embedding is defined for even-length sequences")
    if len(aux) != 3:
        raise ValueError("need exactly three auxiliary marks")
    if min(chordal(aux[i].line, aux[j].line) for i, j in ((0, 1), (0, 2), (1, 2))) < PROJ_TOL:
        raise ValueError("auxiliary lines must be distinct")
    # The sequences' own length walk gives the terminal type; no rank test.
    lengths = seq.hecke_lengths()[..., -1].ravel()
    if lengths.any():
        raise TerminalNotMinimal(f"terminal Hecke length {lengths[lengths != 0][0]} is not minimal")
    dirs = seq.h_map().reshape(lengths.size, n, 2).tolist()
    return [ParabolicBundle(RationalBundle(0, 0), tuple(
        [Mark(mu, ProjPoint(a, c)) for mu, (a, c) in zip(pts, h)] + list(aux)))
        for pts, h in zip(seq.points.reshape(lengths.size, n).tolist(), dirs)]


def hecke_embeddings_elliptic(seqs) -> list[ParabolicBundle]:
    """Embed even minimal sequences on marked bundles, at the lines they
    keep, adding each good mark itself as the auxiliary line."""
    for seq in seqs:
        if len(seq.reps) % 2:
            raise ValueError("the embedding is defined for even-length sequences")
        if not elliptic_semistable(seq.terminal):
            raise TerminalNotMinimal(f"terminal bundle {seq.terminal} is unstable")
    return [ParabolicBundle(s.base.bundle,
                            tuple(map(Mark, s.points + [s.base.q], s.lines + [s.base.line])))
            for s in seqs]

