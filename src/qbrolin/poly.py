"""Polynomials with quaternionic right coefficients: q |-> sum q^n a_n.

Implements the star product (coefficient convolution), slice conjugate,
symmetrization f^s = f^c * f, bullet composition, and restriction of
one-slice polynomials to the reference slice C_i.

Both polynomial types keep their coefficients in one read-only array, and
quaternions are [w, x, y, z] arrays multiplied by `quat.hamilton`; the
algebra is bit-identical to the scalar arithmetic kept in tests/quat_refs.py.

Coefficient convention is right coefficients q^n a_n throughout; the test
suite locks the orientation ((q i)*(q j) has q^2 coefficient ij = k).
"""

from __future__ import annotations

import numpy as np

from .errors import CoefficientOffSlice
from .policy import OFF_SLICE_TOL
from .quat import hamilton, inverse

__all__ = ["QPolynomial", "ComplexPoly", "evaluate", "horner"]

# largest imaginary part (absolute) of a coefficient that counts as real
_REAL_TOL = 1e-12


def horner(coeffs, z):
    """sum coeffs[k] z^k (ascending, degree >= 1) at an array z in place:
    acc = c_d * z, then acc += c_k, acc *= z for k = d-1 .. 1, then += c_0.
    A coefficient may broadcast against z, the leading one only to z's
    shape. One element gets a fresh product each step: numpy's in-place
    complex product there is its reduction loop, which rounds differently."""
    acc = coeffs[-1] * z
    out = acc if acc.size > 1 else None
    for c in coeffs[-2:0:-1]:
        acc += c
        acc = np.multiply(acc, z, out=out)
    acc += coeffs[0]
    return acc


def evaluate(coeffs, q):
    """sum q^n a_n for right coefficients a_n, the rows of a (..., D, 4)
    array, at (..., 4) points q: powers of q multiply from the left.

    A stack of coefficient arrays evaluates one polynomial per point.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    acc = np.zeros(np.broadcast_shapes(coeffs.shape[:-2] + (4,), np.shape(q)))
    power = np.zeros_like(acc)
    power[..., 0] = 1.0
    for n in range(coeffs.shape[-2]):
        if n:
            power = hamilton(power, q)
        acc = acc + hamilton(power, coeffs[..., n, :])
    return acc


class QPolynomial:
    """Right coefficients: a (D, 4) array of [w, x, y, z] rows (or a list of
    reals), ascending degree, trailing zero rows trimmed.

    The zero polynomial has no rows. Trimming removes exact zeros only:
    near-zero leading coefficients are kept because the degree drives d^-n
    normalizations downstream.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if not isinstance(coeffs, np.ndarray):
            coeffs = [(float(c), 0.0, 0.0, 0.0) for c in coeffs]
        arr = np.array(coeffs, dtype=float).reshape(-1, 4)
        n = len(arr)
        while n > 0 and not arr[n - 1].any():
            n -= 1
        self.coeffs = arr[:n]
        self.coeffs.setflags(write=False)

    @staticmethod
    def from_real(values):
        values = np.asarray(values, dtype=float)
        return QPolynomial(np.column_stack([values, np.zeros((len(values), 3))]))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (isinstance(other, QPolynomial)
                and np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"QPolynomial(deg={self.degree})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        padded = np.zeros((2, max(len(a), len(b)), 4))
        padded[0, :len(a)], padded[1, :len(b)] = a, b
        return QPolynomial(padded[0] + padded[1])

    def __sub__(self, other):
        return self + QPolynomial(-other.coeffs)

    def eval(self, q):
        """f(q) at (..., 4) points q; see `evaluate`."""
        return evaluate(self.coeffs, q)

    def star_mul(self, other: "QPolynomial") -> "QPolynomial":
        """(f*g) by coefficient convolution with order a_j b_k.

        Each output row sums the products a_j b_k from zero in ascending j,
        as a double loop would.
        """
        a, b = self.coeffs, other.coeffs
        if not len(a) or not len(b):
            return QPolynomial([])
        prods = hamilton(a[:, None], b[None, :])
        out = np.zeros((len(a) + len(b) - 1, 4))
        for j in range(len(a)):
            out[j:j + len(b)] += prods[j]
        return QPolynomial(out)

    def conj(self) -> "QPolynomial":
        """Coefficient-wise quaternionic conjugation (the slice conjugate)."""
        return QPolynomial(self.coeffs * [1.0, -1.0, -1.0, -1.0])

    def symmetrize(self) -> "QPolynomial":
        """f^s = f^c * f: slice preserving, all coefficients real."""
        return self.conj().star_mul(self)

    def star_conjugation_point(self, q):
        """T_f(q) = f(q)^-1 q f(q) at (..., 4) points; ZeroDivisor where
        f(q) = 0."""
        fq = self.eval(q)
        return hamilton(hamilton(inverse(fq), q), fq)

    def bullet_compose(self, w: "QPolynomial") -> "QPolynomial":
        """(self . w) = sum_n w^{*n} * a_n with a_n the coefficients of self."""
        acc = QPolynomial([])
        power = QPolynomial([1.0])
        for n in range(len(self.coeffs)):
            if n:
                power = power.star_mul(w)
            acc = acc + power.star_mul(QPolynomial(self.coeffs[n:n + 1]))
        return acc

    def has_real_coeffs(self):
        return self.max_imag_coeff() <= _REAL_TOL

    def max_imag_coeff(self):
        _, x, y, z = self.coeffs.T
        with np.errstate(over="ignore"):   # inf is not real: callers compare
            return float(np.max(np.sqrt(x * x + y * y + z * z), initial=0.0))

    def restrict_to_slice(self) -> "ComplexPoly":
        """The complex polynomial w + x i of the reference slice C_i.

        Every coefficient must lie in C_i (off-plane part |(y, z)| below
        OFF_SLICE_TOL), else CoefficientOffSlice with the first
        offending index.
        """
        w, x, y, z = self.coeffs.T
        # hypot: squares of coefficients near 1e300 would overflow to inf
        off = np.hypot(y, z)
        norm = np.hypot(np.hypot(w, x), off)
        bad = np.flatnonzero(off > OFF_SLICE_TOL * np.maximum(1.0, norm))
        if bad.size:
            raise CoefficientOffSlice(int(bad[0]), float(off[bad[0]]))
        out = w.astype(complex)
        # the dot product with i = (1, 0, 0): x = -0.0 stays -0.0 only when
        # y and z are negative or -0.0 too
        out.imag = x + y * 0.0 + z * 0.0
        return ComplexPoly(out)

    def to_json(self):
        return {"coeffs": self.coeffs.tolist()}

    @staticmethod
    def from_json(data):
        """ValueError unless data["coeffs"] is (D, 4) finite [w, x, y, z] rows."""
        arr = np.asarray(data["coeffs"], dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4 or not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite [w, x, y, z] rows")
        return QPolynomial(arr)


class ComplexPoly:
    """Complex polynomial, ascending coefficients, for one-slice work."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        n = len(coeffs)
        while n > 0 and coeffs[n - 1] == 0:
            n -= 1
        self.coeffs = coeffs[:n].copy()
        self.coeffs.setflags(write=False)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"ComplexPoly(deg={self.degree})"

    def __call__(self, z):
        """p(z) by `horner` (degree >= 1), bit for bit the loop
        acc = acc * z + c from acc = 0 at a finite array z, but for the sign
        of a zero part of p(z) where c_d has a -0.0 part. The coefficient is
        the left factor: numpy's array complex product is not
        operand-symmetric. A 0-d z is evaluated as a one-element array and
        returns a Python complex. A constant is that loop: 0 * z + c_0 (NaN
        at a non-finite z), and 0 for the zero polynomial."""
        c = self.coeffs
        if len(c) < 2:
            acc = np.zeros_like(np.asarray(z, dtype=complex))
            acc = acc * z + c[0] if len(c) else acc
            return complex(acc) if np.ndim(z) == 0 else acc
        if np.ndim(z) == 0:
            return complex(horner(c, np.reshape(z, 1))[0])
        return horner(c, z)

    def derivative(self) -> "ComplexPoly":
        if self.degree < 1:
            return ComplexPoly([])
        return ComplexPoly(self.coeffs[1:] * np.arange(1, len(self.coeffs)))

    def compose(self, inner: "ComplexPoly") -> "ComplexPoly":
        """self(inner(z)) by Horner over polynomial arithmetic."""
        polymul = np.polynomial.polynomial.polymul
        acc = np.zeros(1, dtype=complex)
        for c in self.coeffs[::-1]:
            acc = np.asarray(polymul(acc, inner.coeffs), dtype=complex)
            acc = np.atleast_1d(acc).copy()
            acc[0] += c
        return ComplexPoly(acc)

    def iterate_poly(self, n: int) -> "ComplexPoly":
        """Coefficients of the n-fold composition self^n."""
        acc = ComplexPoly([0.0, 1.0])
        for _ in range(n):
            acc = self.compose(acc)
        return acc

    def shifted(self, w) -> "ComplexPoly":
        """self - w, for fiber solves and exceptional screening."""
        c = self.coeffs.copy()
        c[0] -= w
        return ComplexPoly(c)

    def conj_coeffs(self) -> "ComplexPoly":
        return ComplexPoly(np.conj(self.coeffs))

    def is_real(self):
        return bool(np.all(np.abs(self.coeffs.imag) <= _REAL_TOL))
