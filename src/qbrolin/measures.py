"""Axially symmetric measures on H, stored as arrays of point-or-sphere atoms.

The paper's equilibrium measure is mu = (1/4pi) int mu_I dI, so a measure is
fully described by three arrays: alpha, rho and weight. An atom with rho = 0
is a real point; one with rho > 0 is the 2-sphere S_{alpha+I rho}.

Every measure built from complex slice atoms goes through one fold and one
merge. The fold sends z and its conjugate to the same (Re z, |Im z|), with
rho snapped to 0 within REAL_AXIS_TOL of the real axis. The merge is
`roots.merge_near`, run on real points and spheres apart; each cluster keeps
its head atom with the summed weight. A depth-n pullback gives each complex
fiber root mass 1/d^n, so a real root of multiplicity m becomes a real point
of weight m/d^n, and a conjugate pair {z, z bar} one sphere of weight 2m/d^n.
Every pullback is then a probability measure, whose sphere atoms split back
into conjugate slice pairs at half weight each: mu_I exactly.

Test functions are axial, f(alpha, rho), constant on each sphere: a measure
pairs against one with a single vectorized sum over its atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cdyn import is_exceptional, preimage_tree
from .errors import ExceptionalTarget, InvariantViolation
from .policy import CLUSTER_TOL, REAL_AXIS_TOL
from .poly import QPolynomial
from .roots import merge_near

__all__ = [
    "EmpiricalMeasure",
    "TestFunction",
    "standard_panel",
    "brolin_pullback",
    "pair",
    "weak_distance",
    "pushforward",
    "measure_from_complex_atoms",
]


class EmpiricalMeasure:
    """Atoms as arrays alpha, rho, weight, plus provenance metadata.

    Atoms are sorted by (rho > 0, alpha, rho), stably, so folds over them
    are deterministic regardless of construction order. Every weight must be
    positive and finite, every rho >= 0.
    """

    def __init__(self, alpha, rho, weight, meta=None):
        alpha, rho, weight = (np.asarray(x, dtype=float).reshape(-1)
                              for x in (alpha, rho, weight))
        if not len(alpha) == len(rho) == len(weight):
            raise ValueError("alpha, rho and weight must have one length")
        if not np.all((weight > 0) & np.isfinite(weight)):
            raise ValueError("atom weight must be positive and finite")
        if not np.all(rho >= 0):
            raise ValueError("rho must be >= 0")
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

    def rows(self):
        """(kind, alpha, rho, weight) per atom; kind is "point" or "sphere"."""
        return [("point" if r == 0.0 else "sphere", a, r, w) for a, r, w
                in zip(self.alpha.tolist(), self.rho.tolist(),
                       self.weight.tolist())]

    def to_json(self):
        return {"atoms": [{"kind": k, "alpha": a, "rho": r, "weight": w}
                          for k, a, r, w in self.rows()],
                "meta": self.meta}

    @staticmethod
    def from_json(data):
        atoms = data["atoms"]
        return EmpiricalMeasure([d["alpha"] for d in atoms],
                                [d["rho"] for d in atoms],
                                [d["weight"] for d in atoms], data.get("meta"))


@dataclass(frozen=True)
class TestFunction:
    """Named continuous test function H -> R for weak-convergence pairings.

    Every test function is axial: `axial` is a vectorized f(alpha, rho), the
    value on every point of the sphere S_{alpha+I rho}, so axially symmetric
    measures pair against it without sphere quadrature.
    """

    __test__ = False   # a library type, not a pytest test class
    name: str
    axial: Callable


def standard_panel():
    """The fixed 12-function panel used by all acceptance numbers.

    Polynomials in (Re q, |Im q|) up to degree 3, two Gaussian bumps of width
    1 centered at 0 and 1, |q|^2, and cos(Re q).
    """
    return [
        TestFunction("re", lambda a, b: a),
        TestFunction("im", lambda a, b: b),
        TestFunction("re2", lambda a, b: a * a),
        TestFunction("im2", lambda a, b: b * b),
        TestFunction("re_im", lambda a, b: a * b),
        TestFunction("re3", lambda a, b: a ** 3),
        TestFunction("im3", lambda a, b: b ** 3),
        TestFunction("re2_im", lambda a, b: a * a * b),
        TestFunction("gauss0", lambda a, b: np.exp(-(a * a + b * b) / 2.0)),
        TestFunction("gauss1", lambda a, b: np.exp(-((a - 1.0) ** 2 + b * b) / 2.0)),
        TestFunction("abs2", lambda a, b: a * a + b * b),
        TestFunction("cos_re", lambda a, b: np.cos(a)),
    ]


def _fold_merge(z, weight, meta) -> EmpiricalMeasure:
    """Complex slice atoms -> one measure: z and its conjugate fold onto
    (Re z, rho = |Im z|), rho = 0 when |Im z| <= REAL_AXIS_TOL * (1 + |z|);
    then each kind (rho = 0, rho > 0) goes through merge_near on alpha + i
    rho at radius CLUSTER_TOL * (1 + |alpha| + rho), heads keeping the
    weights summed in (alpha, rho) order."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    weight = np.asarray(weight, dtype=float).reshape(-1)
    rho = np.abs(z.imag)
    rho[rho <= REAL_AXIS_TOL * (1.0 + np.abs(z))] = 0.0
    parts, sphere = [], rho > 0
    for kind in (~sphere, sphere):
        a, r, w = z.real[kind], rho[kind], weight[kind]
        order, head = merge_near(a + 1j * r,
                                 CLUSTER_TOL * (1.0 + np.abs(a) + r))
        heads, cluster = np.unique(head, return_inverse=True)
        parts.append((a[order][heads], r[order][heads],
                      np.bincount(cluster, w[order])))
    return EmpiricalMeasure(*(np.concatenate(x) for x in zip(*parts)), meta)


def brolin_pullback(p: QPolynomial, a: float, n: int) -> EmpiricalMeasure:
    """nu_n: the depth-n normalized preimage measure of a real target a.

    p must have real coefficients and degree >= 2; a is screened against the
    exceptional set of the restricted polynomial.
    """
    if not p.has_real_coeffs():
        raise ValueError("brolin_pullback requires real coefficients")
    pc = p.restrict_to_slice()
    d = pc.degree
    if d < 2:
        raise ValueError("degree must be >= 2")
    if is_exceptional(pc, complex(a)):
        raise ExceptionalTarget(f"target {a} is exceptional for this polynomial")
    points = preimage_tree(pc, complex(a), n)
    meta = {"polynomial": p.to_json(), "target": a, "depth": n}
    m = _fold_merge(points, np.full(len(points), 1.0 / float(d) ** n), meta)
    if abs(m.total_mass() - 1.0) > 1e-9:
        raise InvariantViolation(f"pullback mass {m.total_mass()} != 1")
    return m


def pair(m: EmpiricalMeasure, f: TestFunction) -> float:
    """<m, f> = sum of w * f(alpha, rho) over the atoms: the sphere average
    of an axial function is its value at (alpha, rho), exactly."""
    return float(np.sum(m.weight * f.axial(m.alpha, m.rho)))


def weak_distance(m1: EmpiricalMeasure, m2: EmpiricalMeasure,
                  panel=None) -> float:
    """max over the panel of |<m1,f> - <m2,f>|."""
    if panel is None:
        panel = standard_panel()
    return max(abs(pair(m1, f) - pair(m2, f)) for f in panel)


def pushforward(p: QPolynomial, m: EmpiricalMeasure) -> EmpiricalMeasure:
    """p_* m: atoms map forward; spheres map to spheres (or collapse to
    real points) under a real-coefficient polynomial; weights preserved."""
    if not p.has_real_coeffs():
        raise ValueError("pushforward requires real coefficients")
    pc = p.restrict_to_slice()
    images = pc(m.alpha + 1j * m.rho)
    return _fold_merge(images, m.weight, m.meta)


def measure_from_complex_atoms(points, weights,
                               meta=None) -> EmpiricalMeasure:
    """Build an axially symmetric measure from complex slice atoms.

    Conjugate mass is folded onto rho = |Im z|; callers supply both halves
    (or a density raster covering both half-planes). Atoms of weight <= 0
    are dropped.
    """
    points = np.asarray(points, dtype=complex).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    keep = ~(weights <= 0)  # a NaN weight is kept, and refused
    return _fold_merge(points[keep], weights[keep], meta or {})
