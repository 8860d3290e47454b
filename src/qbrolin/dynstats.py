"""Dynamical statistics over the equilibrium measure.

Sampling realization: the backward random orbit (repeatedly pick a uniformly
random fiber root, multiplicity-weighted) equidistributes toward the slice
equilibrium measure; after burn-in the chain points are treated as mu_I
samples. The sampler runs several chains in lockstep, one batched fiber solve
per step. Within each chain p(z_{t}) = z_{t-1}, so lagged statistics of a
chain are forward-orbit statistics; no forward orbit crosses from one chain
into the next.

Observables are axial test functions, evaluated at (Re z, |Im z|). The
separated-set count takes an array of quaternion orbits, which
topological_entropy builds once for every n and eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _special
from scipy import stats as _sstats
from scipy.spatial import cKDTree

from .cdyn import is_exceptional
from .errors import (ConfigError, DegenerateSample, ExceptionalTarget,
                     InvariantViolation, SolverFailure)
from .policy import BURN_IN
from .poly import ComplexPoly, QPolynomial
from .quat import norm_sq, sphere_quadrature
from .roots import fiber_roots

__all__ = [
    "EstimateReport",
    "AxialBox",
    "SAMPLER_CHAINS",
    "sample_mu",
    "lyapunov_slice",
    "lyapunov_sphere_direction",
    "mixing_correlation",
    "fit_log_slope",
    "CltResult",
    "clt_harness",
    "calibrate_ks_null",
    "separated_count",
    "topological_entropy",
    "partition_entropy",
    "interval_partition",
]

_START = complex(0.41, 0.37)
# Chains of the backward-orbit sampler: enough rows for one batched fiber
# solve per step to pay off, few enough that each chain runs long past its
# burn-in at the sample counts the estimators use.
SAMPLER_CHAINS = 64
# samples per batch of transfer-operator trees in _level_phi_means
_PHI_BATCH = 1024


@dataclass(frozen=True)
class EstimateReport:
    """A named scalar estimate with provenance for CLI output."""

    name: str
    value: float
    stderr: float
    n_samples: int
    params: dict = field(default_factory=dict)

    def to_json(self):
        return {"name": self.name, "value": self.value, "stderr": self.stderr,
                "n_samples": self.n_samples, "params": self.params}


@dataclass(frozen=True)
class AxialBox:
    """Axially symmetric box: S x ([alpha_lo, alpha_hi] x [beta_lo, beta_hi])."""

    alpha_lo: float
    alpha_hi: float
    beta_lo: float
    beta_hi: float

    def contains(self, alpha, beta):
        return ((alpha >= self.alpha_lo) & (alpha <= self.alpha_hi)
                & (beta >= self.beta_lo) & (beta <= self.beta_hi))


def _chain_step(p: ComplexPoly, targets, rng):
    """One backward step for an array of chain heads: a uniform pick among
    each head's d fiber roots, counted with multiplicity."""
    roots = fiber_roots(p.coeffs, targets)
    pick = rng.integers(0, p.degree, size=len(targets))
    return roots[np.arange(len(targets)), pick]


def _chain_lengths(count: int, chains: int) -> np.ndarray:
    """Lengths of min(count, chains) chains (one if count is 0) holding
    count points in all, differing by at most one, longer chains first."""
    k = max(1, min(count, chains))
    base, extra = divmod(count, k)
    return np.where(np.arange(k) < extra, base + 1, base)


def sample_mu(p: ComplexPoly, count: int, seed: int, *,
              chains: int = SAMPLER_CHAINS) -> np.ndarray:
    """`count` mu_I-distributed points from backward random orbits run in
    lockstep, as one flat chain-major array.

    min(count, chains) chains all start at 0.41 + 0.37i; each step solves
    the fibers of every chain head in one `fiber_roots` call and draws one
    pick per chain. After BURN_IN steps, each chain records its head, then
    steps. Chain lengths differ by at most one, longer chains first; within a chain
    consecutive points satisfy p(z_{t+1}) = z_t (up to the solver).
    Deterministic given (seed, params).
    """
    if p.degree < 2:
        raise ValueError("sampling needs degree >= 2")
    if chains < 1:
        raise ValueError("sampling needs at least one chain")
    if is_exceptional(p, _START):
        raise ExceptionalTarget(f"start point {_START} is exceptional")
    lengths = _chain_lengths(count, chains)
    steps = int(lengths[0])
    rng = np.random.default_rng(seed)
    z = np.full(len(lengths), _START, dtype=complex)
    for _ in range(BURN_IN):
        z = _chain_step(p, z, rng)
    out = np.empty((len(lengths), steps), dtype=complex)
    for t in range(steps):
        out[:, t] = z
        if t + 1 < steps:
            z = _chain_step(p, z, rng)
    return out[np.arange(steps) < lengths[:, None]]


def lyapunov_slice(p: ComplexPoly, n_samples: int,
                   seed: int) -> EstimateReport:
    """Slice-direction exponent: Birkhoff average of log|p'(z)| over mu_I.

    Samples with |p'(z)| <= 1e-12 (at a critical point, where the log
    diverges) are dropped, not resampled: the mean runs over the rest, and
    params["dropped_critical"] counts the dropped ones.
    """
    dp = p.derivative()
    z = sample_mu(p, n_samples, seed)
    vals = np.abs(dp(z))
    good = vals > 1e-12
    dropped = int(np.sum(~good))
    logs = np.log(vals[good])
    value = float(np.mean(logs))
    stderr = float(np.std(logs, ddof=1) / math.sqrt(len(logs)))
    return EstimateReport("lyapunov_slice", value, stderr, len(logs),
                          {"seed": seed, "dropped_critical": dropped})


def lyapunov_sphere_direction(p: QPolynomial, alpha: float, beta: float,
                              n: int) -> float:
    """Finite-n exponent in the tangent-to-S direction at alpha + i beta
    (beta > 0).

    Tilts the unit i by 1e-6 toward -j, iterates both quaternionic orbits
    together, and returns (1/n) log(|p^n(q') - p^n(q)| / (|I'-i| beta)). The
    theorem value is 0.
    """
    if not beta > 0:
        raise ValueError("sphere-direction splitting undefined on the real axis")
    units = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 1.0, -1e-6, 0.0]])
    units[1] /= math.sqrt(1.0 + 1e-6 * 1e-6)
    q = units * beta
    q[:, 0] = alpha
    for _ in range(n):
        q = p.eval(q)
    du = math.sqrt(norm_sq(units[1] - units[0]))
    gap = math.sqrt(norm_sq(q[1] - q[0]))
    if gap == 0.0 or not math.isfinite(gap):
        # both orbits collapsed to a fixed point (or escaped); the
        # splitting is only meaningful on the chaotic set
        raise DegenerateSample("sphere-direction splitting collapsed; "
                               "pick a base point on the Julia set")
    return math.log(gap / (du * beta)) / n


def _slice_values(f, z):
    """Values of an axial test function on the spheres of slice points z."""
    return np.asarray(f.axial(z.real, np.abs(z.imag)), dtype=float)


def _level_phi_means(p: ComplexPoly, phi, z, n_max):
    """(L^n phi)(z_t) for n = 0..n_max: fiber-tree averages per sample.

    L is the normalized transfer operator (Lf)(z) = d^-1 sum_{p(w)=z} f(w);
    one depth-n_max preimage tree per sample yields every level at once,
    each level one `fiber_roots` solve over the whole batch.
    """
    out = np.empty((n_max + 1, len(z)))
    out[0] = _slice_values(phi, z)
    for lo in range(0, len(z), _PHI_BATCH):
        w = np.asarray(z[lo:lo + _PHI_BATCH])[:, None]
        for n in range(1, n_max + 1):
            w = fiber_roots(p.coeffs, w.ravel()).reshape(w.shape[0], -1)
            vals = _slice_values(phi, w.ravel()).reshape(w.shape)
            out[n, lo:lo + w.shape[0]] = vals.mean(axis=1)
    return out


def mixing_correlation(p: ComplexPoly, phi, psi, n_max: int, samples: int,
                       seed: int):
    """corr(n) = <mu, (psi o p^n) phi> - <mu,phi><mu,psi> for n = 0..n_max.

    With z ~ mu and w a uniform fiber-tree leaf over p^n(w) = z, the pairing
    is E[psi(z) (L^n phi)(z)]; averaging phi over the whole fiber tree
    instead of one random leaf keeps the noise proportional to the decaying
    signal, which a plain lagged-chain covariance cannot do.
    """
    z = sample_mu(p, samples, seed)
    psi_s = _slice_values(psi, z)
    lphi = _level_phi_means(p, phi, z, n_max)
    out = []
    for n in range(n_max + 1):
        corr = float(np.mean(psi_s * lphi[n])
                     - np.mean(psi_s) * np.mean(lphi[n]))
        out.append((n, corr))
    return out


def fit_log_slope(pairs, n_min=1, n_max=None):
    """Least-squares slope of log|value| vs n over [n_min, n_max]."""
    xs, ys = [], []
    for n, v in pairs:
        if n < n_min or (n_max is not None and n > n_max) or v == 0:
            continue
        xs.append(n)
        ys.append(math.log(abs(v)))
    if len(xs) < 2:
        raise InvariantViolation("not enough points for a slope fit")
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


@dataclass(frozen=True)
class CltResult:
    ks_statistic: float
    sigma_hat: float
    degenerate: bool
    n_samples: int


def clt_harness(p: ComplexPoly, phi, n_terms: int, n_samples: int,
                seed: int) -> CltResult:
    """Distribution of S_n/sqrt(n) = n^{-1/2} sum_i phi(p^i z) over mu starts.

    phi is centered internally by its empirical mean over all visited points.
    Returns the KS distance to the zero-mean Gaussian with the fitted sigma.
    A sigma below 1e-6 is reported as degenerate (coboundary candidate), not
    failed.
    """
    # many independent one-point chains, not a few long ones: the sums
    # need independent starts
    z = sample_mu(p, n_samples, seed, chains=n_samples)
    if np.max(np.abs(z.imag)) <= 1e-8:
        # burn-in leaves a residual transverse component that the forward
        # expansion would double each step; a real Julia set is numerically
        # forward-invariant only on the axis itself
        z = z.real + 0j
    vals = np.empty((n_terms, n_samples))
    for i in range(n_terms):
        vals[i] = _slice_values(phi, z)
        z = p(z)
        if np.any(np.abs(z) > 1e6):
            raise SolverFailure(float(np.max(np.abs(z))),
                                "forward orbit escaped; phi support left the Julia set")
    mean = float(np.mean(vals))
    s = np.sum(vals - mean, axis=0) / math.sqrt(n_terms)
    sigma = float(np.std(s, ddof=1))
    if sigma < 1e-6:
        return CltResult(float("nan"), sigma, True, n_samples)
    ks = float(_sstats.kstest(s, "norm", args=(0.0, sigma)).statistic)
    return CltResult(ks, sigma, False, n_samples)


def calibrate_ks_null(n_samples: int, reps: int = 200,
                      seed: int = 0) -> float:
    """KS pass bar: the 0.95 quantile of the same-size Gaussian null,
    fitted the same way (sigma estimated from the data).

    Replications are drawn in blocks of rows from one stream, so the result
    does not depend on the block size; each row's statistic is kstest's
    two-sided D against N(0, sigma^2).
    """
    rng = np.random.default_rng(seed)
    ks_vals = np.empty(reps)
    block = max(1, 2 ** 18 // n_samples)   # rows of about 2 MB of normals
    up = np.arange(1.0, n_samples + 1) / n_samples
    down = np.arange(0.0, n_samples) / n_samples
    for lo in range(0, reps, block):
        s = rng.normal(size=(min(block, reps - lo), n_samples))
        sigma = np.std(s, axis=1, ddof=1, keepdims=True)
        s -= np.mean(s, axis=1, keepdims=True)
        s.sort(axis=1)
        cdf = _special.ndtr(s / sigma)
        ks_vals[lo:lo + len(s)] = np.maximum(np.max(up - cdf, axis=1),
                                             np.max(cdf - down, axis=1))
    return float(np.quantile(ks_vals, 0.95))


def _orbit_matrix(pc: ComplexPoly, z0, units_xyz, n):
    """Quaternion n-orbits as an (N, n, 4) array for Bowen distances.

    For a real-coefficient restriction the slice orbit (alpha_j, beta_j) is
    shared across units: the quaternion iterate of alpha + I beta is
    alpha_j + I beta_j.
    """
    N = len(z0)
    out = np.empty((N, n, 4))
    z = np.asarray(z0, dtype=complex)
    for j in range(n):
        out[:, j, 0], out[:, j, 1:] = z.real, z.imag[:, None] * units_xyz
        z = pc(z)
    return out


def _candidate_points(pc: ComplexPoly, box: AxialBox, count: int, seed: int,
                      n_units: int):
    """Candidate slice points on the measure support, inside the box,
    with units cycling through a deterministic quadrature node set.

    Sampling on the support (backward orbit) instead of a blind raster keeps
    the candidate set where the separation actually happens.
    """
    z = sample_mu(pc, count, seed)
    alpha, beta = z.real, np.abs(z.imag)
    keep = box.contains(alpha, beta)
    z = (alpha + 1j * beta)[keep]
    units = sphere_quadrature(2)[0][:n_units]
    units_xyz = units[np.arange(len(z)) % len(units)]
    return z, units_xyz


def separated_count(orbits, eps: float) -> int:
    """Greedy maximal (n, eps)-separated subset size over an (N, n, 4) array
    of quaternion n-orbits (as `_orbit_matrix` builds them).

    dis_n(q1, q2) = max_{j<n} |p^j(q1) - p^j(q2)|; greedy gives a maximal
    (hence within-factor) separated set, an under-estimator with stable bias
    across n, which is what the entropy slope needs.
    """
    n = orbits.shape[1]
    orbits = np.asarray(orbits, dtype=np.float32)
    last = orbits[:, -1, :].astype(float)
    if not np.all(np.isfinite(last)):
        # rounding drift off the Julia set grows like d^n until the orbit
        # escapes; no distance to a point at infinity can be measured
        raise SolverFailure(math.inf, f"forward orbit escaped within {n} "
                            "iterates; lower n")
    # dis_n >= distance of the last iterate, the most spread out one, so a
    # k-d tree on it gives every pair the exact float32 test below can
    # accept; the inflated radius covers float32 rounding
    tree = cKDTree(last)
    radius = eps * (1.0 + 1e-4) + 1e-12
    alive = np.ones(orbits.shape[0], dtype=bool)
    count = 0
    eps2 = np.float32(eps * eps)
    for i in range(orbits.shape[0]):
        if not alive[i]:
            continue
        count += 1
        near = np.array(tree.query_ball_point(last[i], radius), dtype=np.intp)
        near = near[alive[near]]
        diff = orbits[near] - orbits[i]
        d2 = np.max(np.sum(diff * diff, axis=2), axis=1)
        alive[near[d2 < eps2]] = False
    return count


def _tail_fit(pairs, n_max):
    """Least-squares line through the last max(3, n_max//2) (n, y) pairs:
    (slope, rms residual)."""
    tail = pairs[-max(3, n_max // 2):]
    xs = np.array([n for n, _ in tail], dtype=float)
    ys = np.array([y for _, y in tail])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return float(slope), resid


def topological_entropy(pc: ComplexPoly, box: AxialBox, n_max: int,
                        eps_list, grid_density: int = 20000,
                        seed: int = 0) -> EstimateReport:
    """sup over eps of the fitted growth slope of log N(K, n, eps).

    The fit is least squares on the last max(3, n_max//2) points of
    log N vs n, reported with the fit residual as stderr. pc is the slice
    restriction; its orbits on every unit are quaternion orbits only for
    real coefficients.
    """
    if not pc.is_real():
        raise ConfigError("topological entropy needs real coefficients")
    z, units_xyz = _candidate_points(pc, box, grid_density, seed, n_units=6)
    if not len(z):
        raise InvariantViolation("no sampled point of the Julia set lies in "
                                 "the entropy box")
    orbits = _orbit_matrix(pc, z, units_xyz, n_max)
    best = None
    for eps in eps_list:
        counts = [(n, separated_count(orbits[:, :n, :], eps))
                  for n in range(1, n_max + 1)]
        slope, resid = _tail_fit([(n, math.log(c)) for n, c in counts], n_max)
        if best is None or slope > best[0]:
            best = (slope, resid, eps, counts)
    slope, resid, eps, counts = best
    return EstimateReport("topological_entropy", slope, resid, len(z),
                          {"eps": eps, "n_max": n_max, "seed": seed,
                           "counts": counts})


def interval_partition(lo: float, hi: float, cells: int,
                       beta_hi: float = math.inf):
    """cells equal boxes S x ([a_i, a_{i+1}] x [0, beta_hi])."""
    edges = np.linspace(lo, hi, cells + 1)
    return [AxialBox(edges[i], edges[i + 1], 0.0, beta_hi)
            for i in range(cells)]


def partition_entropy(pc: ComplexPoly, partition, n_max: int,
                      samples: int = 100000,
                      seed: int = 0) -> EstimateReport:
    """Kolmogorov entropy of the refined partition via itinerary coding,
    for the slice restriction pc.

    Chain samples give sliding itinerary words (the forward orbit of z_t is
    z_{t-1}, z_{t-2}, ...). A point outside every cell breaks the chain: no
    word spans it, nor a boundary between two sampler chains; a length left
    with no word raises InvariantViolation.
    H_n is the n-gram entropy with the Miller-Madow bias correction; the
    reported value is the least-squares slope of H_n vs n on the last
    max(3, n_max//2) points.
    """
    z = sample_mu(pc, samples, seed)
    lengths = _chain_lengths(samples, SAMPLER_CHAINS)
    alpha, beta = z.real, np.abs(z.imag)
    symbols = np.full(len(z), -1, dtype=np.int64)
    for k, cell in enumerate(partition):
        inside = cell.contains(alpha, beta) & (symbols < 0)
        symbols[inside] = k
    n_inside = int(np.sum(symbols >= 0))
    # an out-of-partition symbol between chains breaks words there too
    symbols = np.insert(symbols, np.cumsum(lengths)[:-1], -1)
    # gaps[t] = number of out-of-partition points among the first t
    gaps = np.concatenate([[0], np.cumsum(symbols < 0)])
    m = len(partition) + 1
    hs = []
    for n in range(1, n_max + 1):
        # word for position t is the itinerary of w = z_{t+n-1} read
        # backwards, (p^{n-1} w, ..., p w, w): the same n-gram entropy
        codes = np.zeros(len(symbols) - n + 1, dtype=np.int64)
        for j in range(n):
            codes = codes * m + symbols[j:len(symbols) - n + 1 + j]
        codes = codes[gaps[n:] == gaps[:len(gaps) - n]]
        if not len(codes):
            raise InvariantViolation(f"no itinerary word of length {n}")
        _, counts = np.unique(codes, return_counts=True)
        probs = counts / counts.sum()
        h = float(-np.sum(probs * np.log(probs)))
        h += (len(counts) - 1) / (2.0 * counts.sum())  # Miller-Madow
        hs.append((n, h))
    slope, resid = _tail_fit(hs, n_max)
    return EstimateReport("partition_entropy", slope, resid, n_inside,
                          {"n_max": n_max, "seed": seed,
                           "cells": len(partition), "H_n": hs})
