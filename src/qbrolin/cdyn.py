"""One-slice complex dynamics: iteration with an overflow-safe escape ledger,
fibers and preimage trees, Green's functions G_n, filled Julia masks, and
exceptional-point screening.
`roots.merge_near` decides coincident points: fibers keep cluster means,
tree levels heads with summed multiplicities; screening counts clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvariantViolation
from .grids import GridField, SliceGrid
from .policy import DEFAULT, NumericPolicy
from .poly import ComplexPoly
from .roots import all_roots, cluster_roots, fiber_roots, merge_near

__all__ = [
    "EscapeParams",
    "PreimageNode",
    "OrbitValue",
    "escape_radius",
    "iterate",
    "green_n",
    "green_field",
    "solve_fiber",
    "preimage_tree",
    "filled_julia_mask",
    "is_exceptional",
]

def _ledger_switch(d: int) -> float:
    """Magnitude at which iteration switches to log tracking.

    Chosen so the next step |c_d| |z|^d stays representable; the dropped
    lower-order correction is bounded by ~1/switch.
    """
    return 10.0 ** min(30.0, 250.0 / d)


@dataclass(frozen=True)
class EscapeParams:
    """Escape test parameters; radius must guarantee |z| > R implies escape."""

    radius: float
    max_iter: int


def escape_radius(p: ComplexPoly) -> float:
    """R = 2 * max(1, sum|c_k| / |c_d|); |z| > R implies monotone escape."""
    lead = abs(p.coeffs[-1])
    return 2.0 * max(1.0, float(np.sum(np.abs(p.coeffs))) / lead)


@dataclass(frozen=True)
class OrbitValue:
    """Value of p^n(z): either the exact point, or an escaped log-magnitude.

    log_mag = log|p^n(z)| is valid in both cases (escape is a value, not an
    error).
    """

    escaped: bool
    point: complex  # meaningful only when not escaped
    log_mag: float


def _ledger_step(p: ComplexPoly, log_mag: float) -> float:
    """log|p(z)| from log|z| in the escaped regime, correction dropped."""
    d = p.degree
    return d * log_mag + math.log(abs(p.coeffs[-1]))


def iterate(p: ComplexPoly, z: complex, n: int) -> OrbitValue:
    """n-fold composition with the escape ledger.

    While |z| is representable the exact value is kept; once |z| exceeds the
    ledger switch the iteration tracks log|z| via log|p(z)| = d log|z| +
    log|c_d| + log|1 + sum_{k<d} c_k z^{k-d}/c_d|, evaluating the correction
    while it is representable.
    """
    switch = _ledger_switch(p.degree)
    z = complex(z)
    escaped = False
    log_mag = math.log(abs(z)) if z != 0 else -math.inf
    for _ in range(n):
        if not escaped:
            z = p(z)
            log_mag = math.log(abs(z)) if z != 0 else -math.inf
            if abs(z) > switch:
                escaped = True
        else:
            log_mag = _ledger_step(p, log_mag)
    return OrbitValue(escaped, z, log_mag)


def green_n(p: ComplexPoly, z: complex, n: int) -> float:
    """G_n(z) = d^-n log+ |p^n(z)| via the escape ledger."""
    orbit = iterate(p, z, n)
    return max(0.0, orbit.log_mag) / (p.degree ** n)


def green_field(p: ComplexPoly, grid: SliceGrid, n: int) -> GridField:
    """G_n on every node of a slice raster (vectorized ledger)."""
    z = grid.mesh()
    d = p.degree
    switch = _ledger_switch(d)
    live = np.ones(z.shape, dtype=bool)
    log_mag = np.full(z.shape, -np.inf)
    log_lead = math.log(abs(p.coeffs[-1]))
    for _ in range(n):
        dead_before = ~live
        if np.any(live):
            z = np.where(live, p(np.where(live, z, 0.0)), z)
            mag = np.abs(z)
            with np.errstate(divide="ignore"):
                log_mag = np.where(live, np.log(np.maximum(mag, 1e-320)), log_mag)
            live &= mag <= switch
        if np.any(dead_before):
            log_mag = np.where(dead_before, d * log_mag + log_lead, log_mag)
    values = np.maximum(0.0, log_mag) / (d ** n)
    return GridField(grid, values)


def solve_fiber(p: ComplexPoly, w: complex, policy: NumericPolicy = DEFAULT):
    """All d roots of p(z) = w with multiplicity, residual-certified.

    Returns list of (root, multiplicity) with multiplicities summing to d.
    """
    if p.degree < 1:
        raise ValueError("fiber solve needs degree >= 1")
    roots = all_roots(p.shifted(w).coeffs, policy)
    scale = 1.0 + float(np.max(np.abs(roots))) if len(roots) else 1.0
    return cluster_roots(roots, scale, policy)


@dataclass(frozen=True)
class PreimageNode:
    """A depth-n preimage point with its accumulated multiplicity."""

    point: complex
    depth: int
    multiplicity: int


def preimage_tree(p: ComplexPoly, a: complex, n: int, budget: int = 1 << 20,
                  policy: NumericPolicy = DEFAULT):
    """All d^n depth-n preimages of a, counted with multiplicity.

    Each level is one `fiber_roots` solve over all the points of the level
    above; coincident points (merge_near, radius cluster_tol * (1 + max|z|))
    then become their cluster head, carrying the summed multiplicity.
    """
    d = p.degree
    if d ** n > budget:
        raise BudgetExceeded(f"d^n = {d ** n} exceeds budget {budget}")
    points, mults = np.array([complex(a)]), np.array([1])
    for _ in range(n):
        points = fiber_roots(p.coeffs, points, policy).reshape(-1)
        scale = 1.0 + float(np.max(np.abs(points)))
        order, head = merge_near(points, policy.cluster_tol * scale)
        heads, cluster = np.unique(head, return_inverse=True)
        points = points[order][heads]
        mults = np.bincount(cluster, np.repeat(mults, d)[order]).astype(int)
    if mults.sum() != d ** n:
        raise InvariantViolation(f"multiplicities sum to {mults.sum()}, not {d ** n}")
    return [PreimageNode(pt, n, m)
            for pt, m in zip(points.tolist(), mults.tolist())]


def filled_julia_mask(p: ComplexPoly, grid: SliceGrid,
                      esc: EscapeParams) -> np.ndarray:
    """Boolean raster: node is inside iff its orbit stays <= R for max_iter."""
    z = grid.mesh()
    inside = np.ones(z.shape, dtype=bool)
    for _ in range(esc.max_iter):
        z = np.where(inside, p(np.where(inside, z, 0.0)), z)
        inside &= np.abs(z) <= esc.radius
        if not np.any(inside):
            break
    return inside


def is_exceptional(p: ComplexPoly, a: complex,
                   policy: NumericPolicy = DEFAULT) -> bool:
    """True iff the backward orbit of a stays a set of <= deg p points.

    For complex polynomials of degree >= 2 the exceptional set has at most
    one finite point (a critical fixed point of full multiplicity), so a
    non-exceptional backward orbit exceeds d points within two levels;
    policy.exceptional_depth levels add margin.
    """
    if p.degree < 2:
        raise ValueError("exceptional screening needs degree >= 2")
    current = np.array([complex(a)])
    for _ in range(policy.exceptional_depth):
        pts = fiber_roots(p.coeffs, current, policy).reshape(-1)
        scale = 1.0 + float(np.max(np.abs(pts)))
        order, head = merge_near(pts, policy.cluster_tol * scale)
        current = pts[order][np.unique(head)]
        if len(current) > p.degree:
            return False
    return True
