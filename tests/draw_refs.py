"""Scalar reference loops of the block draws, one generator call at a time.

The library draws random points and directions in blocks
(``seidel_smith.separated_points``, ``rational.minimal_direction_vecs``).
These loops make the same generator calls in the order those docstrings
state, with ``ProjPoint``, ``single_hecke`` and Python's complex
arithmetic, so the tests can require equal bits and equal generator state.
"""

from heckelab.projective import ProjPoint
from heckelab.rational import RationalBundle, single_hecke


def reference_minimal_directions(count, n, rng, zero_dir_rate=0.25) -> list[list[ProjPoint]]:
    """Directions of ``count`` random minimal sequences of n steps: every
    draw's uniforms first, then every draw's normal pairs; then, per draw
    and step from O + O, [1:0] when the class is semistable and the
    uniform is below the rate, else [lam:1]."""
    uniforms = [[rng.random() for _ in range(n)] for _ in range(count)]
    lams = [[rng.normal() + 1j * rng.normal() for _ in range(n)] for _ in range(count)]
    out = []
    for us, ls in zip(uniforms, lams):
        dirs, current = [], RationalBundle(0, 0)
        for u, lam in zip(us, ls):
            zero = current.is_semistable() and u < zero_dir_rate
            dirs.append(ProjPoint(1.0, 0.0) if zero else ProjPoint(lam, 1.0))
            current = single_hecke(current, dirs[-1])
        out.append(dirs)
    return out


def reference_separated_points(count, n, rng, gap=0.3) -> list[list[complex]]:
    """Points of ``count`` draws of n points: rounds over the draws still
    short of n points, each drawing, draw by draw, as many candidates as
    the emptiest of them lacks; a candidate is kept when it is at least
    ``gap`` from every point its draw has kept."""
    pts = [[] for _ in range(count)]
    while any(len(p) < n for p in pts):
        open_ = [p for p in pts if len(p) < n]
        k = n - min(len(p) for p in open_)
        for p in open_:
            for z in [rng.normal() + 1j * rng.normal() for _ in range(k)]:
                if len(p) < n and all(abs(z - w) >= gap for w in p):
                    p.append(z)
    return pts
