"""One-slice complex dynamics: one active-set escape kernel for Green's
functions G_n and filled Julia masks, fibers and preimage trees, and
exceptional-point screening.

`_escape` iterates only the points still inside a threshold, compacting its
arrays whenever one leaves; G_n takes log|z| once per point, at its exit step
(past `_ledger_switch`) or at step n, and continues an exited point by the
ledger log|p(z)| ~ d log|z| + log|c_d|. The escape radius R also covers
non-monic maps: |z| > R implies |p(z)| > |z| and escape.
A preimage tree returns its d^n points, a multiple fiber root repeated, and
merges nothing: the measure built on them decides which coincide.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded
from .grids import GridField, SliceGrid
from .poly import ComplexPoly
from .roots import fiber_roots

__all__ = [
    "escape_radius",
    "green_field",
    "solve_fiber",
    "preimage_tree",
    "filled_julia_mask",
    "is_exceptional",
]

_EXCEPTIONAL_TOL = 1e-12   # relative size of vanishing Taylor coefficients


def _ledger_switch(d: int) -> float:
    """Magnitude at which iteration switches to log tracking.

    Chosen so the next step |c_d| |z|^d stays representable; the dropped
    lower-order correction is bounded by ~1/switch.
    """
    return 10.0 ** min(30.0, 250.0 / d)


def escape_radius(p: ComplexPoly) -> float:
    """R = max(2 max(1, sum|c_k| / |c_d|), (2 / |c_d|)^(1/(d-1))).

    For |z| > R, |p(z)| > |c_d| |z|^d / 2 > |z|: monotone escape. The second
    term is at most 2 for a monic map, so only |c_d| < 1 can raise R.
    """
    lead, d = abs(p.coeffs[-1]), p.degree
    r = 2.0 * max(1.0, float(np.sum(np.abs(p.coeffs))) / lead)
    return max(r, (2.0 / lead) ** (1.0 / (d - 1))) if d > 1 else r


def _escape(p: ComplexPoly, z, n: int, threshold: float):
    """Iterate p on the points of z still inside |z| <= threshold.

    Returns (exit step, |z| there) as flat arrays: a point leaving at
    iteration k < n (|p^(k+1)(z)| not <= threshold, so NaN leaves) has exit
    step k and |p^(k+1)(z)|; a point inside for all n steps has exit step n
    and |p^n(z)|.
    """
    z = np.asarray(z, dtype=complex).ravel()
    step, mag = np.full(z.size, n), np.abs(z)
    live, m = np.arange(z.size), mag
    for k in range(n):
        if not live.size:
            break
        z = p(z)
        m = np.abs(z)
        out = ~(m <= threshold)
        if out.any():
            gone = live[out]
            step[gone], mag[gone] = k, m[out]
            keep = ~out
            live, z, m = live[keep], z[keep], m[keep]
    mag[live] = m
    return step, mag


def green_field(p: ComplexPoly, grid: SliceGrid, n: int) -> GridField:
    """G_n = d^-n log+|p^n| on every node of a slice raster; G_0 = log+|z|.

    A node leaving the ledger switch at iteration k carries the ledger
    x -> d x + log|c_d| for its n - k - 1 remaining steps.
    """
    d = p.degree
    step, mag = _escape(p, grid.mesh(), n, _ledger_switch(d))
    order = np.argsort(step, kind="stable")
    x = np.log(np.maximum(mag[order], 1e-320))
    log_lead = math.log(abs(p.coeffs[-1]))
    # after the j-th ledger step the nodes with exit step < n - j go on
    for end in np.searchsorted(step[order], np.arange(n - 1, 0, -1)):
        x[:end] *= d
        x[:end] += log_lead
    log_mag = np.empty_like(x)
    log_mag[order] = x
    values = np.maximum(0.0, log_mag) / (d ** n)
    return GridField(grid, values.reshape(grid.ny, grid.nx))


def solve_fiber(p: ComplexPoly, w: complex):
    """All d roots of p(z) = w with multiplicity: the distinct points of one
    `fiber_roots` row, which repeats each cluster mean by its multiplicity.

    Returns list of (root, multiplicity), sorted by (real, imag), with
    multiplicities summing to d.
    """
    if p.degree < 1:
        raise ValueError("fiber solve needs degree >= 1")
    roots, counts = np.unique(fiber_roots(p.coeffs, [w])[0],
                              return_counts=True)
    return list(zip(roots.tolist(), counts.tolist()))


def preimage_tree(p: ComplexPoly, a: complex, n: int,
                  budget: int = 1 << 20) -> np.ndarray:
    """All d^n depth-n preimages of a, a multiple one repeated: a (d^n,)
    complex array, each level one `fiber_roots` solve over the level above.
    """
    d = p.degree
    if d ** n > budget:
        raise BudgetExceeded(f"d^n = {d ** n} exceeds budget {budget}")
    points = np.array([complex(a)])
    for _ in range(n):
        points = fiber_roots(p.coeffs, points).reshape(-1)
    return points


def filled_julia_mask(p: ComplexPoly, grid: SliceGrid,
                      max_iter: int) -> np.ndarray:
    """Boolean raster: node is inside iff its orbit stays within
    escape_radius(p) for max_iter steps."""
    step, _ = _escape(p, grid.mesh(), max_iter, escape_radius(p))
    return (step == max_iter).reshape(grid.ny, grid.nx)


def is_exceptional(p: ComplexPoly, a: complex) -> bool:
    """True iff p(z) - a = c_d (z - a)^d: a is a critical fixed point of full
    multiplicity, the one finite exceptional point a polynomial of degree
    d >= 2 can have. Reads the Taylor coefficients (p - a)^(k)(a) / k! at a,
    k < d, against _EXCEPTIONAL_TOL * sum_k |c_k| max(1, |a|)^k.
    """
    d, a = p.degree, complex(a)
    if d < 2:
        raise ValueError("exceptional screening needs degree >= 2")
    q = p.shifted(a)
    tol = _EXCEPTIONAL_TOL * float(
        np.sum(np.abs(p.coeffs) * max(1.0, abs(a)) ** np.arange(d + 1)))
    for k in range(d):
        if not abs(q(a)) <= tol * math.factorial(k):
            return False
        q = q.derivative()
    return True
