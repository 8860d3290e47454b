"""Equilibrium constructions beyond real coefficients.

One-slice case: all coefficients live in a single slice plane C_I with at
least one nonreal. The symmetrized slice iterate g_n = (P^n_I)^s has real
coefficients, and the candidate limit measure is

    mu' = (1/8 pi) int_S mu_{P(.,J)} dJ + (1/8 pi) int_S mu_{P^c(.,J)} dJ,

where P(., J) rewrites each coefficient x + I y as x + J y. Over every J
that is the same complex data, so the one-slice functions (mu_prime_estimate,
gn_pullback_measure) take P as one ComplexPoly with coefficients x + i y: P
restricted to its slice, written over C_i. For a real target the tree
under P^c is the conjugate of the tree under P, so in axial coordinates
(Re q, |Im q|) mu' is the fold of one depth-n tree. On C_I,
g_n = P^n (P^c)^n, so its fiber of 0 is the depth-n preimage trees of 0
under P and P^c, and the fiber of another target is solved by composition
from those trees; g_n's 2 d^n coefficients are never built. Targets are
screened on g_1 = P^c P.

General case: arbitrary quaternionic coefficients. The bullet iterate
p^{bullet n} symmetrizes to a real-coefficient h_n of degree 2 d^n, and the
testable statement is the vanishing gap
d^{-n} (log|h_n(q) - a| - log|h_n(q) - b|) -> 0, read off one evaluation of
h_n on the whole probe array; no limit measure is claimed.
"""

from __future__ import annotations

import math

import numpy as np

from .cdyn import is_exceptional, preimage_tree
from .errors import (BudgetExceeded, ExceptionalTarget, InvariantViolation,
                     ProbeOnFiber)
from .measures import EmpiricalMeasure, measure_from_complex_atoms
from .policy import DEGREE_BUDGET, FIBER_RESIDUAL_TOL
from .poly import ComplexPoly, QPolynomial
from .roots import fiber_row, newton_roots

__all__ = [
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


def _g1(pc: ComplexPoly) -> ComplexPoly:
    """g_1 = P^c P on C_I, one convolution of P's coefficients (real up to
    rounding); InvariantViolation unless it is finite of degree 2 d (a
    leading coefficient can underflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        g1 = ComplexPoly(np.convolve(pc.coeffs, np.conj(pc.coeffs)).real)
    bad = int(np.sum(~np.isfinite(g1.coeffs)))
    if bad or g1.degree != 2 * pc.degree:
        raise InvariantViolation(f"g_1 has {bad} non-finite coefficients and "
                                 f"degree {g1.degree}, not {2 * pc.degree}")
    return g1


def _screen_gn_target(pc: ComplexPoly, a: float):
    """Exceptional screening of a real target through g_1."""
    if is_exceptional(_g1(pc), complex(a)):
        raise ExceptionalTarget(f"target {a} is exceptional for g_n")


def _trees(halves, n: int) -> np.ndarray:
    """The depth-n preimage trees of t under Q, d^n within DEGREE_BUDGET,
    for each (Q, t) of halves."""
    return np.concatenate([preimage_tree(q, t, n, DEGREE_BUDGET)
                           for q, t in halves])


def mu_prime_estimate(pc: ComplexPoly, n: int,
                      a: float = 0.0) -> EmpiricalMeasure:
    """Estimator of mu' from the depth-n Brolin pullback of the real target a.

    P(., J) has the same complex coefficients pc for every unit J, so in
    axial coordinates (1/8 pi) int_S mu_{P(., J)} dJ is half of mu_{P(., I)},
    and likewise for P^c (coefficients conjugated). For real a the tree of a
    under P^c is the conjugate of the tree under P, and both fold onto the
    same (Re z, |Im z|) atoms: mu' is the fold of the one tree under P, each
    of its d^n points at weight d^-n. With real coefficients that is nu_n
    (the slice-preserving corollary).
    """
    d = pc.degree
    if d < 2:
        raise ValueError("degree must be >= 2")
    _screen_gn_target(pc, a)
    points = preimage_tree(pc, complex(a), n, DEGREE_BUDGET)
    meta = {"estimator": "mu_prime", "depth": n, "target": a}
    m = measure_from_complex_atoms(
        points, np.full(len(points), 1.0 / float(d) ** n), meta=meta)
    if abs(m.total_mass() - 1.0) > 1e-9:
        raise InvariantViolation(f"mu' mass {m.total_mass()} != 1")
    return m


def _gn_start(pc: ComplexPoly, n: int) -> np.ndarray:
    """Aberth start for the g_n fiber of a target a != 0, P not real: the
    trees of 0 under P and P^c, the fiber of 0. When 0 is P's exceptional
    point, P = c z^d, those collapse onto 0; then the trees of 1 under P and
    of 2 under P^c are taken. A polynomial has at most one finite
    exceptional point, so neither tree repeats a point, and they lie on the
    circles |c|^m |z|^(d^n) = 1 and 2 (m = (d^n - 1) / (d - 1)), so they
    share none.
    """
    if is_exceptional(pc, 0.0):
        return _trees(((pc, 1.0), (pc.conj_coeffs(), 2.0)), n)
    return _trees(((pc, 0.0), (pc.conj_coeffs(), 0.0)), n)


def _gn_newton(pc: ComplexPoly, a: float, n: int):
    """z -> (g_n(z) - a, g_n'(z)) on C_I by composition: n steps of
    u <- P(u), v <- P^c(v) with the chain rule, then g_n = u v and
    g_n' = u' v + u v'."""
    p, q = pc, pc.conj_coeffs()
    dp, dq = p.derivative(), q.derivative()

    def newton(z):
        u, du, v, dv = z, 1.0, z, 1.0
        for _ in range(n):
            u, du, v, dv = p(u), du * dp(u), q(v), dv * dq(v)
        return u * v - a, du * v + u * dv
    return newton


def _gn_fiber(pc: ComplexPoly, a: float, n: int) -> np.ndarray:
    """Every root of g_n - a, with repetitions, as a `fiber_row`.

    Where it is known exactly it is read off preimage trees: for real P,
    g_n = (P^n)^2 and the fiber is the trees of +-sqrt(a) under P (at a = 0
    every root is double); at a = 0 it is the trees of 0 under P and P^c.
    Otherwise `newton_roots` solves it on the composition `_gn_newton` from
    the trees of `_gn_start`.
    """
    if pc.is_real():
        s = np.sqrt(complex(a))
        return fiber_row(_trees(((pc, s), (pc, -s)), n))
    if a == 0.0:
        return fiber_row(_trees(((pc, 0.0), (pc.conj_coeffs(), 0.0)), n))
    return newton_roots(_gn_start(pc, n), _gn_newton(pc, a, n))


def gn_pullback_measure(pc: ComplexPoly, a: float,
                        n: int) -> EmpiricalMeasure:
    """Normalized fiber measure of the real target a under g_n.

    g_n has real coefficients and degree 2 d^n; its fiber is found without
    them (`_gn_fiber`). Each complex fiber root (a multiple one repeated)
    carries 1/(2 d^n), and conjugate roots fold onto one sphere.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _screen_gn_target(pc, a)
    fiber = _gn_fiber(pc, a, n)
    meta = {"estimator": "gn_pullback", "depth": n, "target": a}
    m = measure_from_complex_atoms(
        fiber, np.full(len(fiber), 1.0 / (2 * pc.degree ** n)), meta=meta)
    if abs(m.total_mass() - 1.0) > 1e-9:
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
        # s * s overflows to inf where s ** 2 would raise OverflowError
        s = float(np.sum(np.linalg.norm(it.coeffs, axis=1)))
        hn = _realify(it.symmetrize(), scale=s * s)
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
    z = np.asarray(annulus_probes() if probe_points is None else probe_points,
                   dtype=complex).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        v = hc(z)
        da, db = np.abs(v - a), np.abs(v - b)
    bad = ~(np.isfinite(da) & np.isfinite(db))
    if bad.any():
        raise InvariantViolation(
            f"h_{n} is not finite at probe {complex(z[bad][0])}")
    # a probe on (or hugging) a fiber is skipped
    keep = np.minimum(da, db) >= FIBER_RESIDUAL_TOL * (1.0 + np.abs(v))
    if not keep.any():
        raise ProbeOnFiber("every probe point sits on a fiber of a or b")
    return float(np.max(np.abs(np.log(da[keep]) - np.log(db[keep])))
                 / float(p.degree) ** n)
