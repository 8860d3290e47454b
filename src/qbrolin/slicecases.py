"""Equilibrium constructions beyond real coefficients.

One-slice case: all coefficients live in a single slice plane C_I with at
least one nonreal. The symmetrized slice iterate g_n = (P^n_I)^s has real
coefficients, and the candidate limit measure is

    mu' = (1/8 pi) int_S mu_{P(.,J)} dJ + (1/8 pi) int_S mu_{P^c(.,J)} dJ,

where P(., J) rewrites each coefficient x + I y as x + J y. Over every J
that is the same complex data, so the one-slice functions (gn_build,
mu_prime_estimate, gn_pullback_measure) take P as one ComplexPoly with
coefficients x + i y: P restricted to its slice, written over C_i.

General case: arbitrary quaternionic coefficients. The bullet iterate
p^{bullet n} symmetrizes to a real-coefficient h_n of degree 2 d^n, and the
testable statement is the vanishing gap
d^{-n} (log|h_n(q) - a| - log|h_n(q) - b|) -> 0; no limit measure is claimed.
"""

from __future__ import annotations

import math

import numpy as np

from .cdyn import is_exceptional, preimage_tree
from .errors import (BudgetExceeded, ConfigError, ExceptionalTarget,
                     InvariantViolation, ProbeOnFiber)
from .measures import EmpiricalMeasure, measure_from_complex_atoms
from .policy import DEGREE_BUDGET, FIBER_RESIDUAL_TOL
from .poly import ComplexPoly, QPolynomial
from .roots import fiber_roots

__all__ = [
    "gn_build",
    "mu_prime_estimate",
    "gn_pullback_measure",
    "hn_build",
    "brolin3_gap",
    "annulus_probes",
]


# largest imaginary part of a symmetrized coefficient, relative to the
# magnitude its convolution summed, that _realify accepts as rounding
_REALIFY_TOL = 1e-10


def _realify(f: QPolynomial, scale: float) -> QPolynomial:
    """Check coefficients are finite and real to tolerance, then drop the
    imaginary parts.

    scale is the magnitude the convolution producing f actually summed
    (symmetrization cancels heavily, so the output coefficients can sit many
    orders below the products whose rounding sets the error floor).
    """
    bad = int(np.sum(~np.isfinite(f.coeffs).all(axis=1)))
    if bad:
        raise InvariantViolation(f"{bad} non-finite coefficients")
    if f.max_imag_coeff() > _REALIFY_TOL * scale:
        raise InvariantViolation(
            f"expected real coefficients, worst imaginary part {f.max_imag_coeff():.3g}")
    return QPolynomial.from_real(f.coeffs[:, 0])


def gn_build(pc: ComplexPoly, n: int) -> QPolynomial:
    """g_n = (P^n_I)^s: iterate within the slice, lift, symmetrize.

    pc holds P's coefficients x + I y as complex numbers x + i y. C_I is a
    commutative field, so the slice iterate is an ordinary complex
    composition. Real-coefficient input short-circuits to g_n = (P^n)^2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = pc.degree
    if d ** n > DEGREE_BUDGET:
        raise BudgetExceeded(f"d^n = {d ** n} exceeds budget {DEGREE_BUDGET}")
    pn = pc.iterate_poly(n)
    if pc.is_real():
        sq = ComplexPoly(np.convolve(pn.coeffs, pn.coeffs))
        return QPolynomial.from_real(sq.coeffs.real)
    g = pn.lift().symmetrize()
    g = _realify(g, scale=float(np.sum(np.abs(pn.coeffs))) ** 2)
    if g.degree != 2 * d ** n:
        raise InvariantViolation(f"deg g_n = {g.degree}, expected {2 * d ** n}")
    return g


def _screen_gn_target(pc: ComplexPoly, a: float):
    """Exceptional screening of a real target through g_1's slice restriction."""
    g1 = gn_build(pc, 1).restrict_to_slice()
    if is_exceptional(g1, complex(a)):
        raise ExceptionalTarget(f"target {a} is exceptional for g_n")


def _binned(points, weights, bin_width, meta):
    """Aggregate slice atoms into (alpha, rho) bins of the given width.

    Bin mass sits at the weighted mean of its members, which keeps first
    moments exact; rho snaps to 0 when the whole bin hugs the real axis.
    """
    points = np.asarray(points, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    alpha, rho = points.real, np.abs(points.imag)
    keys = np.floor(np.stack([alpha, rho], axis=1) / bin_width)
    if not np.all(np.abs(keys) < 2.0 ** 53):   # int64 keys exact below 2^53
        raise ConfigError(f"bin_width {bin_width!r} is too small for atoms")
    keys = keys.astype(np.int64)
    _, bin_of = np.unique(keys, axis=0, return_inverse=True)
    bin_of = bin_of.reshape(-1)
    w = np.bincount(bin_of, weights)
    means = (np.bincount(bin_of, weights * alpha)
             + 1j * np.bincount(bin_of, weights * rho)) / w
    return measure_from_complex_atoms(means, w, meta=meta)


def mu_prime_estimate(pc: ComplexPoly, n: int, a: float = 0.0,
                      bin_width: float = 1.0 / 128.0) -> EmpiricalMeasure:
    """Estimator of mu' from depth-n Brolin pullbacks of the real target a.

    P(., J) has the same complex coefficients pc for every unit J, so in
    axial coordinates (1/8 pi) int_S mu_{P(., J)} dJ is half of mu_{P(., I)},
    and likewise for P^c (coefficients conjugated): the two pullback clouds
    are binned once, each of their 2 d^n points at weight d^-n / 2. With
    real coefficients both halves coincide (the slice-preserving corollary).
    """
    d = pc.degree
    if d < 2:
        raise ValueError("degree must be >= 2")
    _screen_gn_target(pc, a)

    points = np.concatenate([preimage_tree(half, complex(a), n, DEGREE_BUDGET)
                             for half in (pc, pc.conj_coeffs())])
    meta = {"estimator": "mu_prime", "depth": n, "target": a,
            "bin_width": bin_width,
            "binning": {"width": bin_width, "rule": "weighted-mean"}}
    m = _binned(points, np.full(len(points), 1.0 / float(d) ** n / 2.0),
                bin_width, meta)
    if abs(m.total_mass() - 1.0) > 1e-9:
        raise InvariantViolation(f"mu' mass {m.total_mass()} != 1")
    return m


def gn_pullback_measure(pc: ComplexPoly, a: float,
                        n: int) -> EmpiricalMeasure:
    """Normalized fiber measure of the real target a under g_n.

    g_n has real coefficients and degree 2 d^n; each complex fiber root
    (a multiple one repeated) carries 1/(2 d^n), and conjugate roots fold
    onto one sphere.
    """
    g = gn_build(pc, n)
    _screen_gn_target(pc, a)
    gc = g.restrict_to_slice()
    fiber = fiber_roots(gc.coeffs, [complex(a)])[0]
    meta = {"estimator": "gn_pullback", "depth": n, "target": a}
    m = measure_from_complex_atoms(fiber, np.full(len(fiber), 1.0 / gc.degree),
                                   meta=meta)
    if abs(m.total_mass() - 1.0) > 1e-6:
        raise InvariantViolation(f"g_n fiber mass {m.total_mass()} != 1")
    return m


def hn_build(p: QPolynomial, n: int) -> QPolynomial:
    """h_n = (p^{bullet n})^s for arbitrary quaternionic coefficients."""
    d = p.degree
    if d < 2:
        raise ValueError("degree must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    if 2 * d ** n > DEGREE_BUDGET:
        raise BudgetExceeded(
            f"2 d^n = {2 * d ** n} exceeds budget {DEGREE_BUDGET}")
    it = p
    with np.errstate(over="ignore", invalid="ignore"):  # _realify refuses inf
        for _ in range(n - 1):
            it = p.bullet_compose(it)
        hn = _realify(it.symmetrize(),
                      scale=float(np.sum(np.linalg.norm(it.coeffs, axis=1))) ** 2)
    if hn.degree != 2 * d ** n:
        raise InvariantViolation(f"deg h_n = {hn.degree}, expected {2 * d ** n}")
    return hn


def annulus_probes(count: int = 100) -> np.ndarray:
    """Deterministic probe grid on the upper-half annulus 1.1 <= |z| <= 1.4
    of the reference slice, as a complex array.

    Radii x angles factor count into the nearest balanced product.
    """
    n_r = max(2, int(math.sqrt(count)))
    n_t = max(2, count // n_r)
    return np.array([complex(r * math.cos(t), r * math.sin(t))
                     for r in np.linspace(1.1, 1.4, n_r)
                     for t in np.linspace(0.15, math.pi - 0.15, n_t)])


def brolin3_gap(p: QPolynomial, a: float, b: float, n: int,
                probe_points=None) -> float:
    """max over probes of |d^-n (log|h_n(q) - a| - log|h_n(q) - b|)|.

    h_n has real coefficients, so its value on the sphere of a slice probe
    z = alpha + i beta is read off h_n(z) on C_i; probes are complex points.
    Probes too close to a fiber of a or b are skipped; an empty surviving
    probe set raises ProbeOnFiber, and a non-finite |h_n - a| or |h_n - b|
    at any probe raises InvariantViolation. a and b are not screened for
    finite h-orbits: bounded targets routinely have them, while the gap
    statement, probed away from the fibers, is insensitive to that.
    """
    if a == b:
        return 0.0
    hc = hn_build(p, n).restrict_to_slice()
    d = p.degree
    gap = 0.0
    survivors = 0
    # one probe at a time: an array call of hc rounds differently
    for z in (probe_points if probe_points is not None else annulus_probes()):
        v = hc(z)
        da, db = abs(v - a), abs(v - b)
        if not (math.isfinite(da) and math.isfinite(db)):
            raise InvariantViolation(f"h_{n} is not finite at probe {z}")
        if min(da, db) < FIBER_RESIDUAL_TOL * (1.0 + abs(v)):
            continue  # on (or hugging) a fiber; skip this probe
        survivors += 1
        gap = max(gap, abs(math.log(da) - math.log(db)) / float(d) ** n)
    if survivors == 0:
        raise ProbeOnFiber("every probe point sits on a fiber of a or b")
    return gap
