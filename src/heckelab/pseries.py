"""Truncated power series over complex doubles and 2x2 matrices of them.

These carry the local computations around a Bruhat-cell point: a series of
order N stores the exact coefficients of z^0 .. z^N, and every arithmetic
result carries the minimum order of its operands (shifting by z^k raises
the order by k, which is exact).
"""

from __future__ import annotations

import numpy as np

#: Default truncation order for all Grassmannian work.
DEFAULT_ORDER = 8

#: Constant terms below this magnitude are not invertible units.
UNIT_TOL = 1e-10


class NonUnit(ArithmeticError):
    """Constant term (or constant-term determinant) is numerically zero."""


class TruncSeries:
    """A truncated power series sum_{k=0}^{N} c_k z^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        self.coeffs = c.copy()
        self.coeffs.flags.writeable = False

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def constant(cls, value: complex, order: int = DEFAULT_ORDER) -> "TruncSeries":
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, order: int = DEFAULT_ORDER) -> "TruncSeries":
        c = np.zeros(order + 1, dtype=complex)
        c[1] = 1.0
        return cls(c)

    def truncate(self, order: int) -> "TruncSeries":
        if order >= self.order:
            return self
        return TruncSeries(self.coeffs[: order + 1])

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by z^k exactly (order grows by k)."""
        return TruncSeries(np.concatenate([np.zeros(k, dtype=complex), self.coeffs]))

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries(self.coeffs[: n + 1] + other.coeffs[: n + 1])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries(self.coeffs[: n + 1] - other.coeffs[: n + 1])

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(-self.coeffs)

    def scale(self, s: complex) -> "TruncSeries":
        return TruncSeries(self.coeffs * s)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        full = np.convolve(self.coeffs[: n + 1], other.coeffs[: n + 1])
        return TruncSeries(full[: n + 1])

    def __call__(self, z: complex) -> complex:
        # Horner evaluation of the truncation.
        acc = 0.0 + 0.0j
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc

    def invert_unit(self) -> "TruncSeries":
        """Series inverse; requires |c_0| > UNIT_TOL."""
        c = self.coeffs
        if abs(c[0]) <= UNIT_TOL:
            raise NonUnit(f"constant term {c[0]} is not a unit")
        n = self.order
        b = np.zeros(n + 1, dtype=complex)
        b[0] = 1.0 / c[0]
        for k in range(1, n + 1):
            b[k] = -b[0] * np.dot(c[1 : k + 1], b[k - 1 :: -1][: k])
        return TruncSeries(b)

    def allclose(self, other: "TruncSeries", tol: float = 1e-12) -> bool:
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
        return bool(np.abs(a - b).max() <= tol * scale)

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order}, coeffs={np.array2string(self.coeffs, precision=4)})"


class SeriesMat2:
    """A 2x2 matrix of TruncSeries sharing one truncation order."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        es = [[e if isinstance(e, TruncSeries) else TruncSeries(e) for e in row] for row in entries]
        n = min(e.order for row in es for e in row)
        self.entries = tuple(tuple(e.truncate(n) for e in row) for row in es)

    @property
    def order(self) -> int:
        return self.entries[0][0].order

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "SeriesMat2":
        one = TruncSeries.constant(1.0, order)
        zero = TruncSeries.constant(0.0, order)
        return cls([[one, zero], [zero, one]])

    @classmethod
    def constant(cls, m, order: int = DEFAULT_ORDER) -> "SeriesMat2":
        m = np.asarray(m, dtype=complex)
        return cls([[TruncSeries.constant(m[i, j], order) for j in range(2)] for i in range(2)])

    @classmethod
    def z_shift(cls, mu: complex = 0.0, order: int = DEFAULT_ORDER) -> "SeriesMat2":
        """The pivot matrix diag(1, z - mu)."""
        one = TruncSeries.constant(1.0, order)
        zero = TruncSeries.constant(0.0, order)
        zmu = TruncSeries(np.concatenate([[-mu, 1.0], np.zeros(order - 1)]))
        return cls([[one, zero], [zero, zmu]])

    def __mul__(self, other: "SeriesMat2") -> "SeriesMat2":
        a, b = self.entries, other.entries
        return SeriesMat2(
            [
                [a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
                for i in range(2)
            ]
        )

    def __add__(self, other: "SeriesMat2") -> "SeriesMat2":
        return SeriesMat2(
            [[self.entries[i][j] + other.entries[i][j] for j in range(2)] for i in range(2)]
        )

    def __sub__(self, other: "SeriesMat2") -> "SeriesMat2":
        return SeriesMat2(
            [[self.entries[i][j] - other.entries[i][j] for j in range(2)] for i in range(2)]
        )

    def det(self) -> TruncSeries:
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def constant_term(self) -> np.ndarray:
        return np.array([[e.coeffs[0] for e in row] for row in self.entries])

    def __call__(self, z: complex) -> np.ndarray:
        return np.array([[e(z) for e in row] for row in self.entries])

    def invert_unit(self) -> "SeriesMat2":
        """Inverse via the adjugate over the series ring; M(0) must be a unit."""
        d = self.det()
        if abs(d.coeffs[0]) <= UNIT_TOL:
            raise NonUnit("constant-term determinant is not a unit")
        dinv = d.invert_unit()
        e = self.entries
        return SeriesMat2(
            [
                [e[1][1] * dinv, (-e[0][1]) * dinv],
                [(-e[1][0]) * dinv, e[0][0] * dinv],
            ]
        )

    def allclose(self, other: "SeriesMat2", tol: float = 1e-12) -> bool:
        return all(
            self.entries[i][j].allclose(other.entries[i][j], tol)
            for i in range(2)
            for j in range(2)
        )

    def __repr__(self) -> str:
        return f"SeriesMat2(order={self.order})"


def bruhat_companion(a: SeriesMat2) -> SeriesMat2:
    """The unit B with A(0) Z B = A Z, where Z = diag(1, z).

    B = 1 + z Z^{-1} A(0)^{-1} A_1 Z with A(z) = A(0) + z A_1(z).  The
    conjugation by Z keeps everything inside the power-series ring:
    z Z^{-1} M Z = [[z m11, z^2 m12], [m21, z m22]].
    """
    n = a.order
    a0 = a.constant_term()
    if abs(np.linalg.det(a0)) <= UNIT_TOL:
        raise NonUnit("A(0) is not invertible")
    a0inv = np.linalg.inv(a0)
    # A_1 = (A - A(0)) / z, honest order n - 1.
    a1 = SeriesMat2(
        [[TruncSeries(a.entries[i][j].coeffs[1:]) for j in range(2)] for i in range(2)]
    )
    m = SeriesMat2.constant(a0inv, n - 1) * a1
    e = m.entries
    b = [
        [e[0][0].shift(1), e[0][1].shift(2)],
        [e[1][0], e[1][1].shift(1)],
    ]
    return SeriesMat2.identity(n) + SeriesMat2(b)
