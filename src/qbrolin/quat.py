"""Quaternions as float arrays: the last axis of a (..., 4) array holds
[w, x, y, z] for q = w + x i + y j + z k, with i^2 = j^2 = k^2 = ijk = -1.

An imaginary unit I in S = {q : q^2 = -1} is a unit vector [x, y, z]; the
slice plane C_I holds alpha + I beta. `hamilton` is the one quaternion
product; `sphere_quadrature` is a deterministic node set on S.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroDivisor

__all__ = ["hamilton", "norm_sq", "inverse", "sphere_quadrature"]


def hamilton(a, b):
    """The Hamilton product a b of (..., 4) arrays, broadcast over the
    leading axes; each component sums its four terms left to right."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def norm_sq(q):
    """|q|^2 over the last axis, summed in w, x, y, z order."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return w * w + x * x + y * y + z * z


def inverse(q):
    """q^-1 = conj(q) / |q|^2; ZeroDivisor if any q is zero."""
    q = np.asarray(q, dtype=float)
    n = norm_sq(q)
    if np.any(n == 0.0):
        raise ZeroDivisor("cannot invert zero quaternion")
    return q * np.array([1.0, -1.0, -1.0, -1.0]) / n[..., None]


def sphere_quadrature(level: int):
    """(units (N, 3), weights (N,)): nodes on S with total weight 4*pi.

    Level 1 is the octahedron (6 axis nodes, equal weights); levels >= 2 are
    Gauss-Legendre in the polar direction crossed with a uniform azimuthal
    rule, which integrates all spherical polynomials of degree <= 2*level - 1
    exactly.
    """
    if level < 1:
        raise ValueError("quadrature level must be >= 1")
    four_pi = 4.0 * math.pi
    if level == 1:
        # +-i, +-j, +-k; the negated axes carry -0.0 off-axis components
        return np.kron(np.eye(3), [[1.0], [-1.0]]), np.full(6, four_pi / 6.0)
    n_polar = level
    n_az = 2 * level + 2
    zs, zw = np.polynomial.legendre.leggauss(n_polar)
    units, weights = [], []
    for zi, wi in zip(zs, zw):
        r = math.sqrt(max(0.0, 1.0 - zi * zi))
        for k in range(n_az):
            phi = 2.0 * math.pi * k / n_az
            x, y, z = r * math.cos(phi), r * math.sin(phi), zi
            n = math.sqrt(x * x + y * y + z * z)
            units.append((x / n, y / n, z / n))
            # leggauss weights sum to 2; the full product rule sums to 4*pi
            weights.append(four_pi * (wi / 2.0) / n_az)
    return np.array(units), np.array(weights)
