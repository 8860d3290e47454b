"""Axially symmetric measures on H, stored as arrays of point-or-sphere atoms.

The paper's equilibrium measure is mu = (1/4pi) int mu_I dI, so a measure is
fully described by three arrays: alpha, rho and weight. An atom with rho = 0
is a real point; one with rho > 0 is the 2-sphere S_{alpha+I rho}.

Every measure built from complex slice atoms goes through one fold, which
refuses a non-finite point and sends z and its conjugate to the same
(Re z, |Im z|), with rho snapped to 0 within REAL_AXIS_TOL of the real
axis. Atoms are one exactly when their (alpha, rho) are equal: Brolin's
measure weights a preimage by its multiplicity, which fiber rows carry as
exact repeats, and closed-form rows of real maps are conjugation-exact. A
depth-n pullback gives each complex fiber root mass 1/d^n, so a real root
of multiplicity m becomes a real point of weight m/d^n, and a conjugate
pair {z, z bar} one sphere of weight 2m/d^n. Every pullback is then a
probability measure, whose sphere atoms split back into conjugate slice
pairs at half weight each: mu_I exactly.

A test function is a plain vectorized f(alpha, rho), axial (constant on each
sphere): a measure pairs against one with a single vectorized sum over its
atoms. `standard_panel()` maps the twelve panel names to their functions.
"""

from __future__ import annotations

import math

import numpy as np

from .cdyn import is_exceptional, preimage_tree
from .errors import ExceptionalTarget, InvariantViolation
from .policy import REAL_AXIS_TOL
from .poly import QPolynomial

__all__ = [
    "EmpiricalMeasure",
    "standard_panel",
    "brolin_pullback",
    "pair",
    "weak_distance",
    "pushforward",
    "measure_from_complex_atoms",
    "uniform_measure",
]


class EmpiricalMeasure:
    """Atoms as arrays alpha, rho, weight, plus provenance metadata.

    Atoms are sorted by (rho > 0, alpha, rho), stably, so folds over them
    are deterministic regardless of construction order. Every weight must be
    positive and finite, every alpha finite, every rho finite and >= 0.
    """

    def __init__(self, alpha, rho, weight, meta=None):
        alpha, rho, weight = (np.asarray(x, dtype=float).reshape(-1)
                              for x in (alpha, rho, weight))
        if not len(alpha) == len(rho) == len(weight):
            raise ValueError("alpha, rho and weight must have one length")
        if not np.all((weight > 0) & np.isfinite(weight)):
            raise ValueError("atom weight must be positive and finite")
        if not np.all(np.isfinite(alpha) & np.isfinite(rho) & (rho >= 0)):
            raise ValueError("alpha and rho must be finite, rho >= 0")
        order = np.lexsort((rho, alpha, rho > 0))
        self.alpha, self.rho, self.weight = alpha[order], rho[order], weight[order]
        self.meta = dict(meta or {})

    def total_mass(self):
        # the builtin float sum: raster normalization depends on its rounding
        return float(sum(self.weight.tolist()))

    def scaled(self, factor):
        return EmpiricalMeasure(self.alpha, self.rho, self.weight * factor,
                                self.meta)

    def __len__(self):
        return len(self.weight)


def standard_panel():
    """The fixed 12-function panel used by all acceptance numbers, by name.

    Polynomials in (Re q, |Im q|) up to degree 3, two Gaussian bumps of width
    1 centered at 0 and 1, |q|^2, and cos(Re q).
    """
    return {
        "re": lambda a, b: a,
        "im": lambda a, b: b,
        "re2": lambda a, b: a * a,
        "im2": lambda a, b: b * b,
        "re_im": lambda a, b: a * b,
        "re3": lambda a, b: a ** 3,
        "im3": lambda a, b: b ** 3,
        "re2_im": lambda a, b: a * a * b,
        "gauss0": lambda a, b: np.exp(-(a * a + b * b) / 2.0),
        "gauss1": lambda a, b: np.exp(-((a - 1.0) ** 2 + b * b) / 2.0),
        "abs2": lambda a, b: a * a + b * b,
        "cos_re": lambda a, b: np.cos(a),
    }


def brolin_pullback(p: QPolynomial, a: float, n: int) -> EmpiricalMeasure:
    """nu_n: the depth-n normalized preimage measure of a real target a.

    p must have real coefficients and degree >= 2; a is screened against the
    exceptional set of the restricted polynomial.
    """
    if not p.has_real_coeffs():
        raise ValueError("brolin_pullback requires real coefficients")
    pc = p.restrict_to_slice()
    if pc.degree < 2:
        raise ValueError("degree must be >= 2")
    if is_exceptional(pc, complex(a)):
        raise ExceptionalTarget(f"target {a} is exceptional for this polynomial")
    with np.errstate(over="ignore", invalid="ignore"):   # refused in the fold
        points = preimage_tree(pc, complex(a), n)
    return uniform_measure(points, {"polynomial": p.to_json(), "target": a,
                                    "depth": n})


def pair(m: EmpiricalMeasure, f) -> float:
    """<m, f> = sum of w * f(alpha, rho) over the atoms: the sphere average
    of an axial function is its value at (alpha, rho), exactly."""
    return float(np.sum(m.weight * f(m.alpha, m.rho)))


def weak_distance(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """max over the standard panel of |<m1,f> - <m2,f>|; a non-finite
    difference is an InvariantViolation naming its panel functions."""
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = {name: abs(pair(m1, f) - pair(m2, f))
                 for name, f in standard_panel().items()}
    bad = [name for name, d in diffs.items() if not math.isfinite(d)]
    if bad:
        raise InvariantViolation(f"non-finite pairing differences: {bad}")
    return max(diffs.values())


def pushforward(p: QPolynomial, m: EmpiricalMeasure) -> EmpiricalMeasure:
    """p_* m: atoms map forward; spheres map to spheres (or collapse to
    real points) under a real-coefficient polynomial; weights preserved."""
    if not p.has_real_coeffs():
        raise ValueError("pushforward requires real coefficients")
    pc = p.restrict_to_slice()
    return measure_from_complex_atoms(pc(m.alpha + 1j * m.rho), m.weight,
                                      m.meta)


def measure_from_complex_atoms(points, weights,
                               meta=None) -> EmpiricalMeasure:
    """Build an axially symmetric measure from complex slice atoms: those of
    weight <= 0 dropped, a non-finite point refused (InvariantViolation), z
    folded onto (Re z + 0.0, rho = |Im z|), rho = 0 when |Im z| <=
    REAL_AXIS_TOL (1 + |z|), so a conjugate pair lands on one sphere.
    Callers supply both halves (or a raster covering both half-planes).
    Atoms with equal (alpha, rho) are one, their weights summed in input
    order: no two distinct points merge."""
    z = np.asarray(points, dtype=complex).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    keep = ~(w <= 0)  # a NaN weight is kept, and refused
    z, w = z[keep], w[keep]
    if not np.all(np.isfinite(z)):
        raise InvariantViolation(f"{np.sum(~np.isfinite(z))} of {len(z)} "
                                 "atom points are not finite")
    alpha, rho = z.real + 0.0, np.abs(z.imag)
    rho[rho <= REAL_AXIS_TOL * (1.0 + np.abs(z))] = 0.0
    order = np.lexsort((rho, alpha))
    a, r = alpha[order], rho[order]
    new = (np.diff(a, prepend=np.nan) != 0) | (np.diff(r, prepend=np.nan) != 0)
    return EmpiricalMeasure(a[new], r[new], np.bincount(np.cumsum(new) - 1,
                                                        w[order]), meta)


def uniform_measure(points, meta) -> EmpiricalMeasure:
    """The complex slice atoms points, each at weight 1/len(points), by
    `measure_from_complex_atoms`; InvariantViolation unless the folded
    mass is 1 within 1e-9."""
    m = measure_from_complex_atoms(points, np.full(len(points),
                                                   1 / len(points)), meta)
    if abs(m.total_mass() - 1.0) > 1e-9:
        raise InvariantViolation(f"measure mass {m.total_mass()} != 1")
    return m
