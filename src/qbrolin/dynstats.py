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
topological_entropy builds once for every n and eps. scipy is imported at
the first call of `ks_distance` (`scipy.special.ndtr`) or `separated_count`
(`scipy.spatial.cKDTree`), so `import qbrolin` loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    "ks_distance",
    "clt_ks_bar",
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
# undecided orbits that one round of separated_count decides, and candidate
# pairs per block of the round's removals
_ROUND = 128
_PAIR_BLOCK = 1 << 15
# The CLT's one exact null, for q^2 - 2 at 200 terms and 10,000 samples: the
# 95th percentile of the KS statistic over 50 replications of the exact model
# of that sum (scripts/calibrate_clt_null.py). The sum is non-Gaussian there.
KS_NULL_BAR_N200_S10000 = 0.018301627368235786
CLT_NULL = "exact doubling model of q^2 - 2 (scripts/calibrate_clt_null.py)"


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
    with np.errstate(over="ignore", invalid="ignore"):   # gap checked below
        for _ in range(n):
            q = p.eval(q)
        gap = math.sqrt(norm_sq(q[1] - q[0]))
    du = math.sqrt(norm_sq(units[1] - units[0]))
    if gap == 0.0 or not math.isfinite(gap):
        # both orbits collapsed to a fixed point (or escaped); the
        # splitting is only meaningful on the chaotic set
        raise DegenerateSample("sphere-direction splitting collapsed; "
                               "pick a base point on the Julia set")
    return math.log(gap / (du * beta)) / n


def _slice_values(f, z):
    """Values of an axial test function on the spheres of slice points z."""
    return np.asarray(f(z.real, np.abs(z.imag)), dtype=float)


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
    signal, which a plain lagged-chain covariance cannot do. A non-finite
    corr(n), or a table of rounding residue alone, is an InvariantViolation.
    """
    z = sample_mu(p, samples, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        psi_s = _slice_values(psi, z)
        lphi = _level_phi_means(p, phi, z, n_max)
        out = [(n, float(np.mean(psi_s * ln) - np.mean(psi_s) * np.mean(ln)))
               for n, ln in enumerate(lphi)]
        size = (np.mean(np.abs(psi_s * lphi), axis=1)
                + np.abs(np.mean(psi_s) * np.mean(lphi, axis=1)))
    bad = [n for n, corr in out if not math.isfinite(corr)]
    if bad:
        raise InvariantViolation(f"non-finite mixing correlation at n = {bad}")
    # 2^-42 = 1024 eps: a mean of N terms rounds off by ~log2(N) eps of them
    if all(abs(corr) <= 2.0 ** -42 * s for (_, corr), s in zip(out, size)):
        raise InvariantViolation("every corr(n) is rounding residue")
    return out


def _line_fit(pairs):
    """Least-squares line through the (n, y) pairs: (slope, rms residual)."""
    xs = np.array([n for n, _ in pairs], dtype=float)
    ys = np.array([y for _, y in pairs])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return float(slope), resid


def fit_log_slope(pairs, n_min=1):
    """Least-squares slope of log|value| vs n over n >= n_min, value != 0."""
    logs = [(n, math.log(abs(v))) for n, v in pairs if n >= n_min and v != 0]
    if len(logs) < 2:
        raise InvariantViolation("not enough points for a slope fit")
    return _line_fit(logs)[0]


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
    return CltResult(float(ks_distance(s, sigma)), sigma, False, n_samples)


def ks_distance(x, sigma):
    """Two-sided KS distance of the samples along the last axis of x to
    N(0, sigma^2), sigma a scalar or one value per row: scipy.stats.kstest's
    statistic, bit for bit, without its p-value."""
    from scipy.special import ndtr
    n = np.shape(x)[-1]
    cdf = ndtr(np.sort(x, axis=-1) / np.asarray(sigma)[..., None])
    return np.maximum(np.max(np.arange(1.0, n + 1) / n - cdf, axis=-1),
                      np.max(cdf - np.arange(0.0, n) / n, axis=-1))


def clt_ks_bar(p: ComplexPoly, n_terms: int, n_samples: int) -> float | None:
    """`clt_harness`'s KS pass bar (phi = Re) from an exact null, or None."""
    exact = (n_terms, n_samples) == (200, 10000) and np.array_equal(
        p.coeffs, [-2, 0, 1])
    return KS_NULL_BAR_N200_S10000 if exact else None


def calibrate_ks_null(n_samples: int, reps: int = 200,
                      seed: int = 0) -> float:
    """The 0.95 quantile of the same-size Gaussian KS null, sigma fitted from
    the data. No CLI mode calls it (see `clt_ks_bar`); the benchmark names it.

    Replications are drawn in row blocks from one stream, so the result does
    not depend on the block size; each row's statistic is `ks_distance`.
    """
    rng = np.random.default_rng(seed)
    ks_vals = np.empty(reps)
    block = max(1, 2 ** 18 // n_samples)   # rows of about 2 MB of normals
    for lo in range(0, reps, block):
        s = rng.normal(size=(min(block, reps - lo), n_samples))
        sigma = np.std(s, axis=1, ddof=1)
        s -= np.mean(s, axis=1, keepdims=True)
        ks_vals[lo:lo + len(s)] = ks_distance(s, sigma)
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
    # an escaping orbit overflows; separated_count refuses it
    with np.errstate(over="ignore", invalid="ignore"):
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


def _sq_dists(x, y):
    """Squared distances between the rows of two (k, 4) float32 arrays, the
    four float32 terms summed left to right, as `np.sum` sums them."""
    d = x - y
    d *= d
    return ((d[:, 0] + d[:, 1]) + d[:, 2]) + d[:, 3]


def separated_count(orbits, eps: float) -> int:
    """Greedy maximal (n, eps)-separated subset size over an (N, n, 4) array
    of quaternion n-orbits (as `_orbit_matrix` builds them).

    dis_n(q1, q2) = max_{j<n} |p^j(q1) - p^j(q2)|; greedy gives a maximal
    (hence within-factor) separated set, an under-estimator with stable bias
    across n, which is what the entropy slope needs.

    Two orbits conflict when `_sq_dists` is below float32 eps^2 at every
    iterate; the count is that of the greedy that takes the orbits in index
    order and keeps each one that conflicts with no orbit kept before it.
    It runs in rounds: when a round starts, every undecided orbit is clear
    of every kept one, so the greedy over the first _ROUND undecided orbits
    alone decides them as the whole greedy does (Blelloch, Fineman & Shun,
    SPAA 2012). Then the orbits the round keeps remove the undecided orbits
    they conflict with, in blocks of bounded ball volume.
    """
    n = orbits.shape[1]
    with np.errstate(over="ignore"):   # checked on the last iterate below
        orbits = np.asarray(orbits, dtype=np.float32)
    last = orbits[:, -1, :].astype(float)
    if not np.all(np.isfinite(last)):
        # rounding drift off the Julia set grows like d^n until the orbit
        # escapes; no distance to a point at infinity can be measured
        raise SolverFailure(math.inf, f"forward orbit escaped within {n} "
                            "iterates; lower n")
    eps2 = np.float32(float(eps) * eps)   # a large int squares to inf
    if not (eps > 0 and eps2 > 0):
        # no two orbits, equal ones included, could conflict
        raise InvariantViolation(f"eps {eps!r} is not positive or squares "
                                 "to 0 in float32")
    # each iterate's four float32 coordinates as one 16-byte item, so a
    # gather moves one item per point
    rows = np.ascontiguousarray(orbits).view(np.dtype((np.void, 16)))[..., 0]

    def conflicts(a, b):
        """Positions k of the pairs (a[k], b[k]) that conflict."""
        keep = np.arange(len(a))
        # the last iterate last: the k-d trees below have bounded it already
        for t in (*range(n - 2, -1, -1), n - 1):
            d2 = _sq_dists(rows[a[keep], t].view(np.float32).reshape(-1, 4),
                           rows[b[keep], t].view(np.float32).reshape(-1, 4))
            keep = keep[d2 < eps2]
        return keep

    # dis_n >= distance of the last iterate, so k-d trees on it give every
    # pair the exact test can accept; the inflated radius covers float32
    # rounding
    from scipy.spatial import cKDTree
    radius = eps * (1.0 + 1e-4) + 1e-12
    alive = np.ones(len(last), dtype=bool)
    live = np.arange(len(last))
    tree_idx, tree = live, cKDTree(last)
    count = 0
    while len(live):
        s, live = live[:_ROUND], live[_ROUND:]
        pairs = cKDTree(last[s]).query_pairs(radius, output_type="ndarray")
        dead = np.zeros(len(s), dtype=bool)
        # query_pairs gives i < j, so in order of i dead[i] is final here
        for i, j in sorted(pairs[conflicts(s[pairs[:, 0]],
                                           s[pairs[:, 1]])].tolist()):
            if not dead[i]:
                dead[j] = True
        c = s[~dead]
        count += len(c)
        alive[s] = False
        if not len(live):
            break
        if 2 * len(live) <= len(tree_idx):
            tree_idx, tree = live, cKDTree(last[live])
        # the kept orbits' balls in blocks that hold fewer than _PAIR_BLOCK
        # candidate pairs past their first ball
        balls = tree.query_ball_point(last[c], radius, return_length=True)
        cuts = np.flatnonzero(np.diff(np.cumsum(balls) // _PAIR_BLOCK)) + 1
        for block in np.split(c, cuts):
            near = tree.sparse_distance_matrix(cKDTree(last[block]), radius,
                                               output_type="ndarray")
            j = tree_idx[near["i"]]
            on = alive[j]
            j, i = j[on], block[near["j"][on]]
            alive[j[conflicts(i, j)]] = False
        live = live[alive[live]]
    return count


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
        logs = [(n, math.log(c)) for n, c in counts]
        slope, resid = _line_fit(logs[-max(3, n_max // 2):])
        if best is None or slope > best[0]:
            best = (slope, resid, eps, counts)
    slope, resid, eps, counts = best
    return EstimateReport("topological_entropy", slope, resid, len(z),
                          {"eps": eps, "n_max": n_max, "seed": seed,
                           "counts": counts})


def interval_partition(lo: float, hi: float, cells: int):
    """cells equal boxes S x ([a_i, a_{i+1}] x [0, inf))."""
    edges = np.linspace(lo, hi, cells + 1)
    return [AxialBox(edges[i], edges[i + 1], 0.0, math.inf)
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
    m, codes = len(partition) + 1, np.zeros_like(symbols)
    hs = []
    for n in range(1, n_max + 1):
        # word for position t is the itinerary of w = z_{t+n-1} read
        # backwards, (p^{n-1} w, ..., p w, w): the same n-gram entropy;
        # each length's codes extend the last length's by one symbol
        codes = codes[:len(symbols) - n + 1] * m + symbols[n - 1:]
        words = codes[gaps[n:] == gaps[:len(gaps) - n]]
        if not len(words):
            raise InvariantViolation(f"no itinerary word of length {n}")
        _, counts = np.unique(words, return_counts=True)
        probs = counts / counts.sum()
        h = float(-np.sum(probs * np.log(probs)))
        h += (len(counts) - 1) / (2.0 * counts.sum())  # Miller-Madow
        hs.append((n, h))
    slope, resid = _line_fit(hs[-max(3, n_max // 2):])
    return EstimateReport("partition_entropy", slope, resid, n_inside,
                          {"n_max": n_max, "seed": seed,
                           "cells": len(partition), "H_n": hs})
