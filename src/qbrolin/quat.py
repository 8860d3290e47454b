"""Quaternion arithmetic, slice decomposition, spheres of imaginary units,
and deterministic quadrature over the unit 2-sphere of imaginary units.

All values are immutable; every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroDivisor

__all__ = [
    "Quaternion",
    "ImaginaryUnit",
    "SlicePoint",
    "SphereQuadrature",
    "UNIT_I",
    "UNIT_J",
    "UNIT_K",
    "slice_decompose",
    "sphere_quadrature",
    "random_units",
]


@dataclass(frozen=True)
class Quaternion:
    """q = w + x i + y j + z k with the Hamilton relations i^2=j^2=k^2=ijk=-1."""

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

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        return _coerce(other) - self

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

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return _coerce(other) * self

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self):
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self):
        return math.sqrt(self.norm_sq())

    def re(self):
        return self.w

    def im_norm(self):
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def inverse(self):
        n = self.norm_sq()
        if n == 0.0:
            raise ZeroDivisor("cannot invert zero quaternion")
        return Quaternion(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    def is_real(self, tol=1e-12):
        return self.im_norm() <= tol

    def to_json(self):
        return [self.w, self.x, self.y, self.z]

    @staticmethod
    def from_json(data):
        w, x, y, z = (float(v) for v in data)
        return Quaternion(w, x, y, z)


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion.real(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Quaternion")


@dataclass(frozen=True)
class ImaginaryUnit:
    """A point of S = {q : q^2 = -1}: purely imaginary with unit norm."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"imaginary unit must have unit norm, got |v|^2={n}")

    @staticmethod
    def from_vector(x, y, z):
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0:
            raise ValueError("zero vector has no direction")
        return ImaginaryUnit(x / n, y / n, z / n)

    def as_quaternion(self):
        return Quaternion(0.0, self.x, self.y, self.z)

    def __neg__(self):
        return ImaginaryUnit(-self.x, -self.y, -self.z)

    def to_json(self):
        return [self.x, self.y, self.z]

    @staticmethod
    def from_json(data):
        x, y, z = (float(v) for v in data)
        return ImaginaryUnit.from_vector(x, y, z)


UNIT_I = ImaginaryUnit(1.0, 0.0, 0.0)
UNIT_J = ImaginaryUnit(0.0, 1.0, 0.0)
UNIT_K = ImaginaryUnit(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class SlicePoint:
    """q = alpha + I beta with beta >= 0; the unit is canonical i when beta = 0.

    Downstream code must treat the unit of a real point as arbitrary: every
    slice plane contains the real axis.
    """

    alpha: float
    beta: float
    unit: ImaginaryUnit

    def embed(self):
        return Quaternion(self.alpha, self.beta * self.unit.x,
                          self.beta * self.unit.y, self.beta * self.unit.z)

    def as_complex(self):
        return complex(self.alpha, self.beta)


def slice_decompose(q: Quaternion) -> SlicePoint:
    """Write q = alpha + I beta with beta = |Im q| >= 0.

    Real points get the canonical unit i.
    """
    beta = q.im_norm()
    if beta == 0.0:
        return SlicePoint(q.w, 0.0, UNIT_I)
    return SlicePoint(q.w, beta,
                      ImaginaryUnit(q.x / beta, q.y / beta, q.z / beta))


class SphereQuadrature:
    """Deterministic node set on S with total weight 4*pi.

    Level 1 is the octahedron (6 axis nodes, equal weights); levels >= 2 are
    Gauss-Legendre in the polar direction crossed with a uniform azimuthal
    rule, which integrates all spherical polynomials of degree <= 2*level - 1
    exactly.
    """

    def __init__(self, units, weights, level):
        self.units = tuple(units)
        self.weights = np.asarray(weights, dtype=float)
        self.level = level

    def __len__(self):
        return len(self.units)

    def integrate(self, fn):
        """Sum w_j * fn(I_j); integrates over S with total weight 4*pi."""
        return float(sum(w * fn(u) for u, w in zip(self.units, self.weights)))

    def average(self, fn):
        """(1/4pi) * integrate(fn)."""
        return self.integrate(fn) / (4.0 * math.pi)


def sphere_quadrature(level: int) -> SphereQuadrature:
    if level < 1:
        raise ValueError("quadrature level must be >= 1")
    four_pi = 4.0 * math.pi
    if level == 1:
        units = [UNIT_I, -UNIT_I, UNIT_J, -UNIT_J, UNIT_K, -UNIT_K]
        weights = [four_pi / 6.0] * 6
        return SphereQuadrature(units, weights, level)
    n_polar = level
    n_az = 2 * level + 2
    zs, zw = np.polynomial.legendre.leggauss(n_polar)
    units, weights = [], []
    for zi, wi in zip(zs, zw):
        r = math.sqrt(max(0.0, 1.0 - zi * zi))
        for k in range(n_az):
            phi = 2.0 * math.pi * k / n_az
            units.append(ImaginaryUnit.from_vector(r * math.cos(phi),
                                                   r * math.sin(phi), zi))
            # leggauss weights sum to 2; the full product rule sums to 4*pi
            weights.append(four_pi * (wi / 2.0) / n_az)
    return SphereQuadrature(units, weights, level)


def random_units(rng: np.random.Generator, count: int):
    """Seeded i.i.d. uniform draws from S, for statistics that need them."""
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [ImaginaryUnit(*row) for row in v]
