"""2x2 matrices of polynomials and of truncated power series.

Both are one complex array ``c`` of shape (2, 2, K): ``c[i, j, k]`` is the
z^k coefficient of entry (i, j).  ``PolyMat2`` is exact: products keep
every coefficient and trailing zero coefficients are trimmed.
``SeriesMat2`` carries the local computations around a Bruhat-cell point:
a series of order N = K - 1 stores the exact coefficients of z^0 .. z^N,
and every arithmetic result carries the minimum order of its operands.
Products, ``constant`` and ``constant_term`` also act on stacks: a ``c`` of
shape (..., 2, 2, K) holds one matrix per leading index.
"""

from __future__ import annotations

import numpy as np

from .projective import complex_div, mat2_adj, mat2_det, mat2_mul

#: Default truncation order for all Grassmannian work.
DEFAULT_ORDER = 8

#: Constant terms below this magnitude are not invertible units.
UNIT_TOL = 1e-10


class NonUnit(ArithmeticError):
    """Constant term (or constant-term determinant) is numerically zero."""


class _Mat2:
    """Shared coefficient-array core; subclasses fix how sizes combine."""

    __slots__ = ("c",)

    #: Coefficient count of a combination of operands of the given counts.
    _fit = max

    def __init__(self, entries):
        """From a (2, 2, K) array, or from nested lists of ragged coefficient
        lists.  An array is not copied, so ``c`` may share it: never write
        to ``c``."""
        if not isinstance(entries, np.ndarray):
            es = [[np.atleast_1d(np.asarray(e, dtype=complex)) for e in row] for row in entries]
            size = self._fit(e.size for row in es for e in row)
            entries = np.zeros((2, 2, size), dtype=complex)
            for i, row in enumerate(es):
                for j, e in enumerate(row):
                    entries[i, j, : e.size] = e[:size]
        self.c = self._normalize(np.asarray(entries, dtype=complex))

    @staticmethod
    def _normalize(c: np.ndarray) -> np.ndarray:
        return c

    @classmethod
    def constant(cls, m, order: int = DEFAULT_ORDER):
        c = np.zeros(np.shape(m) + (order + 1,), dtype=complex)
        c[..., 0] = m
        return cls(c)

    @classmethod
    def identity(cls):
        return cls.constant(np.eye(2))

    @classmethod
    def z_shift(cls, order: int = DEFAULT_ORDER):
        """The pivot matrix diag(1, z) truncated at ``order``; diag(1, 0) at 0."""
        c = np.zeros((2, 2, order + 1), dtype=complex)
        c[0, 0, 0] = 1.0
        c[1, 1, 1:2] = 1.0
        return cls(c)

    def det(self) -> np.ndarray:
        """Ascending coefficients of the determinant."""
        size = self._fit(self.c.shape[-1], 2 * self.c.shape[-1] - 1)
        c = self.c
        d = np.convolve(c[0, 0], c[1, 1])[:size] - np.convolve(c[0, 1], c[1, 0])[:size]
        return self._normalize(d)

    def __call__(self, z: complex) -> np.ndarray:
        # Horner evaluation of every entry in Python scalars: numpy's
        # vectorized complex multiply may fuse operations and round otherwise.
        out = []
        for coeffs in self.c.reshape(4, -1).tolist():
            acc = 0j
            for v in reversed(coeffs):
                acc = acc * z + v
            out.append(acc)
        return np.array(out).reshape(2, 2)

    def constant_term(self) -> np.ndarray:
        return self.c[..., 0]

    def max_degree(self) -> int:
        return self.c.shape[-1] - 1

    def coeff_scale(self) -> float:
        # Python's abs (hypot): numpy's vectorized np.abs can differ in the
        # last bit.
        return max(map(abs, self.c.ravel().tolist()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(deg<={self.max_degree()})"


class PolyMat2(_Mat2):
    """A 2x2 matrix of polynomials, exact over complex doubles."""

    __slots__ = ()

    @staticmethod
    def _normalize(c: np.ndarray) -> np.ndarray:
        size = c.shape[-1]
        while size > 1 and not c[..., size - 1].any():
            size -= 1
        return c[..., :size]

    def __mul__(self, other: "PolyMat2") -> "PolyMat2":
        return PolyMat2(series_product(self.c, other.c, self.c.shape[-1] + other.c.shape[-1] - 1))


class SeriesMat2(_Mat2):
    """A 2x2 matrix of power series sharing one truncation order."""

    __slots__ = ()
    _fit = min

    @property
    def order(self) -> int:
        return self.max_degree()

    def __mul__(self, other: "SeriesMat2") -> "SeriesMat2":
        return SeriesMat2(series_product(self.c, other.c))


def series_product(x: np.ndarray, y: np.ndarray, size: int | None = None) -> np.ndarray:
    """Coefficients 0 .. size - 1 (default: the shorter operand's count) of
    the products of stacked matrices of polynomials or series (..., 2, 2, K).

    Coefficient k is sum_t x_t y_{k-t}, one einsum against a strided
    Toeplitz view of y; nothing of size K^2 per matrix is allocated.
    """
    size = min(x.shape[-1], y.shape[-1]) if size is None else size
    x, y = x[..., :size], y[..., :size]
    # toeplitz[..., t, k] = y_{k - t}, a strided view of y behind size - 1
    # zeros.  Built with np.ndarray: through sliding_window_view (as_strided)
    # a 0.9 MB block stayed allocated after some thousands of calls.
    padded = np.zeros(y.shape[:-1] + (2 * size - 1,), dtype=complex)
    padded[..., size - 1 : size - 1 + y.shape[-1]] = y
    step = padded.strides[-1]
    toeplitz = np.ndarray(y.shape[:-1] + (x.shape[-1], size), complex, padded,
                          (size - 1) * step, padded.strides[:-1] + (-step, step))
    return np.einsum("...ijt,...jltk->...ilk", x, toeplitz)


def bruhat_companion(a: SeriesMat2) -> SeriesMat2:
    """The unit B with A(0) Z B = A Z, where Z = diag(1, z), for each A of a stack.

    B = 1 + z Z^{-1} A(0)^{-1} A_1 Z with A(z) = A(0) + z A_1(z).  The
    conjugation by Z keeps everything inside the power-series ring:
    z Z^{-1} M Z = [[z m11, z^2 m12], [m21, z m22]].
    """
    n = a.order
    a0 = a.constant_term()
    det = mat2_det(a0)
    if (abs(det) <= UNIT_TOL).any():
        raise NonUnit("A(0) is not invertible")
    # M = adj A(0) A_1 / det A(0) with A_1 = (A - A(0)) / z, honest order n - 1, as 2 x 2n.
    m = mat2_mul(mat2_adj(a0), a.c[..., 1:].reshape(a0.shape[:-1] + (-1,))).reshape(a.c.shape[:-1] + (n,))
    m = complex_div(m, det[..., None, None, None])
    b = np.zeros(a.c.shape[:-1] + (n,), dtype=complex)
    b[..., 0, 0, 1:] = m[..., 0, 0, : n - 1]
    b[..., 0, 1, 2:] = m[..., 0, 1, : n - 2]
    b[..., 1, 0, :] = m[..., 1, 0, :]
    b[..., 1, 1, 1:] = m[..., 1, 1, : n - 1]
    b[..., 0] += np.eye(2)
    return SeriesMat2(b)
