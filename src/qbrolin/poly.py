"""Polynomials with quaternionic right coefficients: q |-> sum q^n a_n.

Implements the star product (coefficient convolution), slice conjugate,
symmetrization f^s = f^c * f, slice derivative, bullet composition, and
restriction of one-slice polynomials to their complex plane.

Both polynomial types keep their coefficients in one read-only array; the
array algebra is bit-identical to the scalar Quaternion arithmetic.

Coefficient convention is right coefficients q^n a_n throughout; the test
suite locks the orientation ((q i)*(q j) has q^2 coefficient ij = k).
"""

from __future__ import annotations

import numpy as np

from .errors import CoefficientOffSlice, ZeroDivisor
from .policy import DEFAULT, NumericPolicy
from .quat import ImaginaryUnit, Quaternion
from . import roots as _roots

__all__ = ["QPolynomial", "ComplexPoly", "critical_points_slice"]


class QPolynomial:
    """Right coefficients: a (D, 4) array of [w, x, y, z] rows (or a list of
    Quaternions and reals), ascending degree, trailing zero rows trimmed.

    The zero polynomial has no rows. Trimming removes exact zeros only:
    near-zero leading coefficients are kept because the degree drives d^-n
    normalizations downstream.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if not isinstance(coeffs, np.ndarray):
            coeffs = [(c.w, c.x, c.y, c.z) if isinstance(c, Quaternion)
                      else (float(c), 0.0, 0.0, 0.0) for c in coeffs]
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

    def is_zero(self):
        return not len(self.coeffs)

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

    def eval(self, q: Quaternion) -> Quaternion:
        """sum q^n a_n: powers of q multiply coefficients from the left."""
        acc = Quaternion()
        power = Quaternion.real(1.0)
        for a in self.coeffs.tolist():
            acc = acc + power * Quaternion(*a)
            power = power * q
        return acc

    def star_mul(self, other: "QPolynomial") -> "QPolynomial":
        """(f*g) by coefficient convolution with order a_j b_k.

        The products a_j b_k take Quaternion.__mul__'s term order, and each
        output row sums them from zero in ascending j, as a double loop would.
        """
        a, b = self.coeffs, other.coeffs
        if not len(a) or not len(b):
            return QPolynomial([])
        (aw, ax, ay, az), (bw, bx, by, bz) = a.T[:, :, None], b.T[:, None, :]
        prods = np.empty((len(a), len(b), 4))
        prods[..., 0] = aw * bw - ax * bx - ay * by - az * bz
        prods[..., 1] = aw * bx + ax * bw + ay * bz - az * by
        prods[..., 2] = aw * by - ax * bz + ay * bw + az * bx
        prods[..., 3] = aw * bz + ax * by - ay * bx + az * bw
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

    def star_conjugation_point(self, q: Quaternion) -> Quaternion:
        """T_f(q) = f(q)^-1 q f(q); requires f(q) != 0."""
        fq = self.eval(q)
        if fq.norm_sq() == 0.0:
            raise ZeroDivisor("T_f undefined where f(q) = 0")
        return fq.inverse() * q * fq

    def bullet_compose(self, w: "QPolynomial") -> "QPolynomial":
        """(self . w) = sum_n w^{*n} * a_n with a_n the coefficients of self."""
        acc = QPolynomial([])
        power = QPolynomial([1.0])
        for n in range(len(self.coeffs)):
            if n:
                power = power.star_mul(w)
            acc = acc + power.star_mul(QPolynomial(self.coeffs[n:n + 1]))
        return acc

    def slice_derivative(self) -> "QPolynomial":
        """sum n q^{n-1} a_n (formal derivative, right coefficients)."""
        n = np.arange(1.0, len(self.coeffs))
        return QPolynomial(self.coeffs[1:] * n[:, None])

    def has_real_coeffs(self, tol=1e-12):
        return self.max_imag_coeff() <= tol

    def max_imag_coeff(self):
        _, x, y, z = self.coeffs.T
        return float(np.max(np.sqrt(x * x + y * y + z * z), initial=0.0))

    def restrict_to_slice(self, unit: ImaginaryUnit,
                          policy: NumericPolicy = DEFAULT) -> "ComplexPoly":
        """Identify C_I with C and return the restricted complex polynomial.

        Every coefficient must lie in C_I (off-plane component below
        policy.off_slice_tol), else CoefficientOffSlice with the first
        offending index.
        """
        w, x, y, z = self.coeffs.T
        proj = x * unit.x + y * unit.y + z * unit.z
        # hypot: squares of coefficients near 1e300 would overflow to inf
        off = np.hypot(np.hypot(x - proj * unit.x, y - proj * unit.y),
                       z - proj * unit.z)
        norm = np.hypot(np.hypot(w, x), np.hypot(y, z))
        bad = np.flatnonzero(off > policy.off_slice_tol * np.maximum(1.0, norm))
        if bad.size:
            raise CoefficientOffSlice(int(bad[0]), float(off[bad[0]]))
        out = w.astype(complex)
        out.imag = proj
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
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        if np.ndim(z) == 0:
            return complex(acc)
        return acc

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
        """self - w, for fiber solves."""
        c = self.coeffs.copy()
        c[0] -= w
        return ComplexPoly(c)

    def conj_coeffs(self) -> "ComplexPoly":
        return ComplexPoly(np.conj(self.coeffs))

    def is_real(self, tol=1e-12):
        return bool(np.all(np.abs(self.coeffs.imag) <= tol))

    def lift(self, unit: ImaginaryUnit) -> QPolynomial:
        """Lift back to a QPolynomial with coefficients in C_I."""
        re, im = self.coeffs.real, self.coeffs.imag
        return QPolynomial(np.stack([re, im * unit.x, im * unit.y, im * unit.z],
                                    axis=1))

    def roots(self, policy: NumericPolicy = DEFAULT):
        return _roots.all_roots(self.coeffs, policy)

    def to_json(self):
        return {"coeffs": [[c.real, c.imag] for c in self.coeffs]}

    @staticmethod
    def from_json(data):
        return ComplexPoly([complex(re, im) for re, im in data["coeffs"]])


def critical_points_slice(f: QPolynomial, unit: ImaginaryUnit,
                          policy: NumericPolicy = DEFAULT):
    """Roots (with multiplicity, as a flat array) of d_c f restricted to C_I."""
    df = f.slice_derivative().restrict_to_slice(unit, policy)
    return df.roots(policy)
