"""The scalar quaternion arithmetic the library used before quaternions
became [w, x, y, z] arrays, kept verbatim as test references (this module
holds no tests).

- `Quaternion`: the former frozen dataclass, with its Hamilton product,
  sum, inverse and norm.
- `ref_eval`, `ref_star_conjugation_point`: the former `QPolynomial.eval`
  and `QPolynomial.star_conjugation_point`, on a (D, 4) coefficient array.
- `ref_sphere_quadrature`: the former quadrature nodes, each unit built as
  `ImaginaryUnit.from_vector` built it.
- `ref_slice_imag`, `ref_lift`: the former restriction to C_i and lift
  from it, with the unit i = (1, 0, 0) written out.
- `TupleQPolynomial`: the former QPolynomial, a tuple of Quaternions
  walked in Python loops.
- `ref_star_algebra_worst`: the former per-trial loops of the `verify`
  mode's three star algebra checks, returning their three worst errors.
"""

import math
from dataclasses import dataclass

import numpy as np

from qbrolin.errors import ZeroDivisor
from qbrolin.poly import QPolynomial, evaluate
from qbrolin.quat import hamilton, inverse, norm_sq


@dataclass(frozen=True)
class Quaternion:
    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @staticmethod
    def real(value):
        return Quaternion(float(value), 0.0, 0.0, 0.0)

    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self):
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self):
        return math.sqrt(self.norm_sq())

    def inverse(self):
        n = self.norm_sq()
        if n == 0.0:
            raise ZeroDivisor("cannot invert zero quaternion")
        return Quaternion(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    def to_json(self):
        return [self.w, self.x, self.y, self.z]


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion.real(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Quaternion")


def rows(quats):
    """A list of Quaternions as a (N, 4) array."""
    return np.array([q.to_json() for q in quats], dtype=float).reshape(-1, 4)


def ref_eval(coeffs, q):
    acc = Quaternion()
    power = Quaternion.real(1.0)
    for a in coeffs.tolist():
        acc = acc + power * Quaternion(*a)
        power = power * q
    return acc


def ref_star_conjugation_point(coeffs, q):
    fq = ref_eval(coeffs, q)
    if fq.norm_sq() == 0.0:
        raise ZeroDivisor("T_f undefined where f(q) = 0")
    return fq.inverse() * q * fq


def _from_vector(x, y, z):
    n = math.sqrt(x * x + y * y + z * z)
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    return (x / n, y / n, z / n)


def ref_sphere_quadrature(level):
    """(units, weights) as lists of (x, y, z) tuples and floats."""
    four_pi = 4.0 * math.pi
    if level == 1:
        # [UNIT_I, -UNIT_I, UNIT_J, -UNIT_J, UNIT_K, -UNIT_K]
        axes = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        units = [v for u in axes for v in (u, tuple(-c for c in u))]
        return units, [four_pi / 6.0] * 6
    n_polar = level
    n_az = 2 * level + 2
    zs, zw = np.polynomial.legendre.leggauss(n_polar)
    units, weights = [], []
    for zi, wi in zip(zs, zw):
        r = math.sqrt(max(0.0, 1.0 - zi * zi))
        for k in range(n_az):
            phi = 2.0 * math.pi * k / n_az
            units.append(_from_vector(r * math.cos(phi), r * math.sin(phi), zi))
            weights.append(four_pi * (wi / 2.0) / n_az)
    return units, weights


def ref_slice_imag(coeffs):
    """Imaginary parts of the coefficients restricted to C_i."""
    _, x, y, z = coeffs.T
    return x * 1.0 + y * 0.0 + z * 0.0


def ref_lift(c):
    """A complex coefficient array lifted to (D, 4) rows in C_i."""
    re, im = c.real, c.imag
    return np.stack([re, im * 1.0, im * 0.0, im * 0.0], axis=1)


class TupleQPolynomial:
    def __init__(self, coeffs):
        coeffs = [c if isinstance(c, Quaternion) else Quaternion.real(c)
                  for c in coeffs]
        while coeffs and coeffs[-1] == Quaternion():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Quaternion()] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Quaternion()] * (n - len(other.coeffs))
        return TupleQPolynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + TupleQPolynomial([-c for c in other.coeffs])

    def star_mul(self, other):
        if not self.coeffs or not other.coeffs:
            return TupleQPolynomial([])
        out = [Quaternion()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            for k, b in enumerate(other.coeffs):
                out[j + k] = out[j + k] + a * b
        return TupleQPolynomial(out)

    def conj(self):
        return TupleQPolynomial([c.conj() for c in self.coeffs])

    def symmetrize(self):
        return self.conj().star_mul(self)

    def bullet_compose(self, w):
        acc = TupleQPolynomial([])
        power = TupleQPolynomial([Quaternion.real(1.0)])
        for a in self.coeffs:
            acc = acc + power.star_mul(TupleQPolynomial([a]))
            power = power.star_mul(w)
        return acc


def ref_star_algebra_worst(seed):
    rng = np.random.default_rng(seed)

    def rand_qpoly(deg):
        return QPolynomial(rng.normal(size=(deg + 1, 4)))

    worst = 0.0
    for _ in range(100):
        f, g = rand_qpoly(3), rand_qpoly(2)
        lhs, rhs = f.star_mul(g).conj(), g.conj().star_mul(f.conj())
        diff = np.linalg.norm((lhs - rhs).coeffs, axis=1)
        worst = max(worst, float(np.max(diff, initial=0.0)))
    antihom = worst

    worst = max(rand_qpoly(3).symmetrize().max_imag_coeff()
                for _ in range(100))
    realness = worst

    # (f*g)(q) = f(q) g(T_f(q)), T_f(q) = f(q)^-1 q f(q), over 100 trials
    # drawn one by one and evaluated as one batch
    rows = []
    for _ in range(100):
        f, g = rand_qpoly(3), rand_qpoly(2)
        rows.append((f.coeffs, g.coeffs, f.star_mul(g).coeffs,
                     rng.normal(size=4)))
    f, g, fg, q = map(np.stack, zip(*rows))
    fq = evaluate(f, q)
    ok = np.sqrt(norm_sq(fq)) > 1e-12
    t = hamilton(hamilton(inverse(fq[ok]), q[ok]), fq[ok])
    want = np.zeros_like(fq)
    want[ok] = hamilton(fq[ok], evaluate(g[ok], t))
    got = evaluate(fg, q)
    worst = float(np.max(np.sqrt(norm_sq(got - want))
                         / (1.0 + np.sqrt(norm_sq(got)))))
    return antihom, realness, worst
