"""The complex torus C/Lambda: canonical lifts, group law, torsion points."""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

#: Default generic lattice parameter; avoids square/hexagonal extra symmetry.
DEFAULT_TAU = 0.21 + 1.3j

#: Two torus points closer than this (after reduction) are the same point.
POINT_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class Lattice:
    """The lattice Z + Z*tau with tau finite and Im tau > 0, a value of tau."""

    tau: complex = DEFAULT_TAU

    def __post_init__(self):
        tau = complex(self.tau)
        if not (cmath.isfinite(tau) and tau.imag > 0):
            raise ValueError(f"tau must be finite with Im tau > 0, got {tau}")
        object.__setattr__(self, "tau", tau)

    def coords(self, z: complex) -> tuple[float, float]:
        """Real coordinates (x, y) with z = x + y*tau."""
        y = z.imag / self.tau.imag
        x = z.real - y * self.tau.real
        return x, y

    def reduce(self, z):
        """Canonical lift: x, y reduced into [0, 1).

        Elementwise on arrays; a scalar comes back as a Python complex.
        """
        # Python scalars (numpy's float64 and complex128 among them) skip
        # numpy, which costs half of a scalar call.
        if isinstance(z, (complex, float, int)):
            z = complex(z)
        else:
            z = np.asarray(z, dtype=complex)
            if not z.ndim:
                z = complex(z)
        x, y = self.coords(z)
        return (x % 1.0) + (y % 1.0) * self.tau

    def reduce_centered(self, z: complex) -> complex:
        """Lift with lattice coordinates in [-1/2, 1/2); balanced for
        numerical work with doubled arguments."""
        x, y = self.coords(complex(z))
        return ((x + 0.5) % 1.0 - 0.5) + ((y + 0.5) % 1.0 - 0.5) * self.tau

    @functools.lru_cache(maxsize=64)
    def _reduced_basis(self) -> tuple[complex, complex]:
        """Lagrange-reduced basis (b1, b2): |b1| <= |b2| and
        |Re(b2 conj(b1))| <= |b1|^2 / 2, cached per tau."""
        b1, b2 = (1.0 + 0.0j, self.tau) if abs(self.tau) >= 1 else (self.tau, 1.0 + 0.0j)
        while True:
            b2 -= round((b2 * b1.conjugate()).real / abs(b1) ** 2) * b1
            if abs(b2) >= abs(b1):
                return b1, b2
            b1, b2 = b2, b1

    def distance(self, z1: complex, z2: complex) -> float:
        """Distance |z1 - z2| minimized over lattice translates.

        The nearest lattice point is a corner of the cell of the reduced
        basis that contains z1 - z2 (for an unreduced basis it need not be).
        """
        b1, b2 = self._reduced_basis()
        d = complex(z1) - complex(z2)
        x = (d * b2.conjugate()).imag / (b1 * b2.conjugate()).imag
        y = (d * b1.conjugate()).imag / (b2 * b1.conjugate()).imag
        d -= math.floor(x) * b1 + math.floor(y) * b2
        return min(abs(d), abs(d - b2), abs(d - b1), abs(d - b1 - b2))

    def torsion_lifts(self) -> tuple[complex, complex, complex, complex]:
        """Lifts of the four 2-torsion points: 0, 1/2, tau/2, (1+tau)/2."""
        return (0.0 + 0.0j, 0.5 + 0.0j, self.tau / 2, (1.0 + self.tau) / 2)


@dataclass(slots=True, eq=False)
class CurvePoint:
    """A point of C/Lambda with its canonical fundamental-domain lift."""

    lift: complex
    lattice: Lattice = field(default_factory=Lattice)

    def __post_init__(self):
        self.lift = self.lattice.reduce(self.lift)

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        return CurvePoint(self.lift + other.lift, self.lattice)

    def __sub__(self, other: "CurvePoint") -> "CurvePoint":
        return CurvePoint(self.lift - other.lift, self.lattice)

    def __neg__(self) -> "CurvePoint":
        return CurvePoint(-self.lift, self.lattice)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CurvePoint)
            and self.lattice == other.lattice
            and self.lattice.distance(self.lift, other.lift) < POINT_TOL
        )

    def torsion_index(self) -> int | None:
        """Index 1..4 among the 2-torsion points, or None."""
        for i, t in enumerate(self.lattice.torsion_lifts(), start=1):
            if self.lattice.distance(self.lift, t) < POINT_TOL:
                return i
        return None


def halve_sum(p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """The canonical e with 2e = p + q: the average of the canonical lifts.

    The other three solutions differ by the 2-torsion points.  Canonical
    lifts follow the lattice basis, so the half picked does too: under an
    SL2(Z) change of basis it can move by a 2-torsion point, and so can a
    moduli coordinate of p_i built from it.  Under tau -> tau + 1 only
    the two ``f_embedding`` components that use it move.
    """
    return CurvePoint((p.lift + q.lift) / 2, p.lattice)


def torsion_point(lattice: Lattice, index: int) -> CurvePoint:
    """The 2-torsion point [z_index] for index in 1..4."""
    return CurvePoint(lattice.torsion_lifts()[index - 1], lattice)
