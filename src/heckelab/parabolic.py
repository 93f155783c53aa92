"""Parabolic-bundle stability for rank 2 with small symmetric weights.

A parabolic bundle is an underlying bundle plus one line per marked
point; a line is *bad* when it is the fiber of a maximal-slope line
subbundle, and marks are bad in the same direction when one subbundle
witnesses them all.  In the small-weight regime the stability verdict
only depends on the largest such group.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .projective import PROJ_TOL, ProjPoint, chordal
from .rational import RationalBundle, RationalSequence, terminal_hecke_length
from .elliptic import (
    EllipticBundle,
    EllipticSequence,
    bad_group_key,
    chain_lines,
    is_semistable as elliptic_semistable,
)

#: Default parabolic weight; inside mu < 1/(2n) for all n <= 16.
DEFAULT_WEIGHT = 1e-3


class UnderlyingUnstable(ValueError):
    """Operation needs a semistable underlying bundle."""


class TerminalNotMinimal(ValueError):
    """Sequence terminal bundle does not have minimal Hecke length."""


class Verdict(Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly-semistable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: Verdict
    witness: int  # max count of marks bad in one direction


@dataclass(frozen=True)
class Mark:
    point: object  # chart coordinate (rational) or CurvePoint (elliptic)
    line: ProjPoint


@dataclass(frozen=True)
class ParabolicBundle:
    underlying: RationalBundle | EllipticBundle
    marks: tuple[Mark, ...]
    weight: float = DEFAULT_WEIGHT

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(self.marks))
        n = len(self.marks)
        if n and self.weight >= 1 / (2 * n):
            raise ValueError(f"weight {self.weight} outside the small regime for n={n}")


def _underlying_semistable(u) -> bool:
    if isinstance(u, RationalBundle):
        return u.is_semistable()
    return elliptic_semistable(u)


def max_bad_group(pb: ParabolicBundle) -> int:
    """The most marks whose lines one maximal-slope subbundle witnesses as
    bad: marks with equal witnesses (``bad_group_key``) form one group."""
    u = pb.underlying
    if not _underlying_semistable(u):
        raise UnderlyingUnstable(f"{u} is unstable")
    # A split semistable rational bundle has every line as the fiber of a
    # constant subbundle, which witnesses that line itself.
    keys = [m.line if isinstance(u, RationalBundle) else bad_group_key(u, m.line)
            for m in pb.marks]
    return max((sum(k == j for j in keys) for k in keys if k is not None), default=0)


def stability(pb: ParabolicBundle) -> StabilityVerdict:
    """Small-weight verdict: compare the largest bad group m with n/2.

    An unstable underlying bundle is parabolically unstable outright (its
    maximal subbundle wins by at least 1/2 against any weight sum).
    """
    if not _underlying_semistable(pb.underlying):
        return StabilityVerdict(Verdict.UNSTABLE, len(pb.marks))
    m = max_bad_group(pb)
    n = len(pb.marks)
    if 2 * m < n:
        return StabilityVerdict(Verdict.STABLE, m)
    if 2 * m == n:
        return StabilityVerdict(Verdict.STRICTLY_SEMISTABLE, m)
    return StabilityVerdict(Verdict.UNSTABLE, m)


# ---------------------------------------------------------------------------
# The correspondence between sequences and marked lines.


def tuple_from_lines(marks: list[Mark]):
    """Inverse correspondence: the marks are exactly the direction tuple."""
    return [m.point for m in marks], [m.line for m in marks]


def rational_terminal_class(marks: list[Mark]) -> RationalBundle:
    """Terminal bundle class of the sequence reinterpreting the marks."""
    points, dirs = tuple_from_lines(marks)
    d1 = (len(marks) - terminal_hecke_length(points, dirs)) // 2
    return RationalBundle(-d1, -(len(marks) - d1))


# ---------------------------------------------------------------------------
# Hecke embeddings into the parabolic moduli spaces.


def hecke_embedding_rational(
    seq: RationalSequence, aux: list[Mark], weight: float = DEFAULT_WEIGHT
) -> ParabolicBundle:
    """Embed a minimal-terminal sequence as a stable parabolic bundle.

    The sequence contributes its direction tuple as marks; three auxiliary
    marks with distinct lines at fresh points make the result stable for
    even length.
    """
    n = len(seq)
    if n % 2:
        raise ValueError("the embedding is defined for even-length sequences")
    if len(aux) != 3:
        raise ValueError("need exactly three auxiliary marks")
    for i in range(3):
        for j in range(i + 1, 3):
            if chordal(aux[i].line, aux[j].line) < PROJ_TOL:
                raise ValueError("auxiliary lines must be distinct")
    # The sequence's own length walk gives the terminal type; no rank test.
    length = seq.hecke_lengths()[-1]
    if length:
        raise TerminalNotMinimal(f"terminal Hecke length {length} is not minimal")
    marks = [Mark(mu, ProjPoint(a, c)) for mu, (a, c) in zip(seq.points.tolist(),
                                                             seq.h_map().tolist())]
    return ParabolicBundle(RationalBundle(0, 0), tuple(marks + list(aux)), weight)


def hecke_embeddings_elliptic(seqs, weight: float = DEFAULT_WEIGHT) -> list[ParabolicBundle]:
    """Embed even minimal sequences on marked bundles, adding each good
    mark itself as the auxiliary line; the lines of the whole stack are
    one ``chain_lines`` read."""
    for seq in seqs:
        if len(seq.reps) % 2:
            raise ValueError("the embedding is defined for even-length sequences")
        if not elliptic_semistable(seq.terminal):
            raise TerminalNotMinimal(f"terminal bundle {seq.terminal} is unstable")
    return [ParabolicBundle(s.base.bundle,
                            tuple(map(Mark, s.points + [s.base.q], lines + [s.base.line])), weight)
            for s, lines in zip(seqs, chain_lines([s.reps for s in seqs]))]


def hecke_embedding_elliptic(seq: EllipticSequence, weight=DEFAULT_WEIGHT) -> ParabolicBundle:
    """A batch of one of ``hecke_embeddings_elliptic``."""
    return hecke_embeddings_elliptic([seq], weight)[0]
