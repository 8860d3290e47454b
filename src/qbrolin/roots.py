"""All-roots solver for complex polynomials.

Aberth-Ehrlich simultaneous iteration with deterministic initial guesses on a
circle, followed by Newton polish, with multiplicity detection by clustering.
It runs on rows: `fiber_roots` solves p(z) = t for many targets t at once
(every p - t shares all but the constant term), `all_roots` is its one-row
case. Degrees 1 and 2 use closed forms (they dominate the preimage workloads).
`merge_near` is the library's one rule for which points coincide: fiber
clusters keep their mean, measures their head atom.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailure
from .policy import (ABERTH_MAX_ITER, ABERTH_TOL, CLUSTER_TOL,
                     FIBER_RESIDUAL_TOL)

__all__ = ["all_roots", "cluster_roots", "fiber_roots", "merge_near",
           "quadratic_roots_many"]

# complex entries in one (rows, d, d) repulsion block: a batched solve takes
# max(1, _BLOCK // d^2) rows at a time, about 4 MB per temporary
_BLOCK = 1 << 18


def _horner(coeffs, z):
    """sum coeffs[k] z^k (ascending) at z; a coefficient may be a scalar or
    a per-row column broadcasting against z."""
    acc = np.zeros(z.shape, z.dtype)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def all_roots(coeffs):
    """Roots (with repetitions) of sum coeffs[k] z^k, ascending coefficients.

    Returns an ndarray of length deg, sorted by (real, imag). Raises
    SolverFailure when the post-polish residual check fails.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) < 2:
        return np.array([], dtype=complex)
    return _certified_rows(coeffs, coeffs[:1])[0]


def fiber_roots(coeffs, targets):
    """Every root of p(z) = t (coeffs ascending, leading one nonzero) for
    each target t: an (N, d) array, one row per target.

    Degrees 1 and 2 give the closed forms in `quadratic_roots_many` order,
    uncertified. Higher degrees run the certified Aberth solve on all rows at
    once (SolverFailure carries the worst residual of any row); a row is then
    bit for bit a one-row solve, sorted, each `cluster_roots` center repeated
    by its multiplicity.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    c0s = coeffs[0] - np.asarray(targets, dtype=complex).reshape(-1)
    deg = len(coeffs) - 1
    if deg <= 2:
        return _closed_form(coeffs, c0s)
    out = np.empty((len(c0s), deg), dtype=complex)
    step = max(1, _BLOCK // (deg * deg))
    for lo in range(0, len(c0s), step):
        rows = _certified_rows(coeffs, c0s[lo:lo + step])
        out[lo:lo + step] = _clustered(rows)
    return out


def _closed_form(coeffs, c0s):
    deg = len(coeffs) - 1
    if deg < 1:
        return np.empty((len(c0s), 0), dtype=complex)
    if deg == 1:
        return (-c0s / coeffs[1])[:, None]
    return quadratic_roots_many(c0s, coeffs[1], coeffs[2])


def _certified_rows(coeffs, c0s):
    """Roots of the polynomials coeffs with constant terms c0s, one row each:
    polished, residual-certified and sorted by (real, imag) within rows."""
    z = (_closed_form(coeffs, c0s) if len(coeffs) <= 3
         else _aberth(coeffs, c0s))
    # backward-error residual: |p(z)| against sum |c_k| max(1,|z|)^k
    # (the max keeps clustered roots near the origin certifiable)
    col = c0s[:, None]
    bound = _horner([np.abs(col), *np.abs(coeffs[1:])],
                    np.maximum(np.abs(z), 1.0))
    resid = np.abs(_horner([col, *coeffs[1:]], z)) / np.maximum(bound, 1e-300)
    worst = np.max(resid, axis=1)
    if not np.all(worst <= FIBER_RESIDUAL_TOL):
        raise SolverFailure(float(np.max(worst)))
    order = np.lexsort((z.imag, z.real), axis=-1)
    return np.take_along_axis(z, order, axis=1)


def quadratic_roots_many(c0s, c1, c2):
    """Vectorized stable quadratic roots for many constant terms c0s.

    Solves c2 z^2 + c1 z + c0 = 0 for each c0 in c0s; returns (n, 2) array.
    """
    c0s = np.asarray(c0s, dtype=complex)
    disc = np.sqrt(c1 * c1 - 4.0 * c2 * c0s)
    sign = np.where((np.conj(c1) * disc).real >= 0, 1.0, -1.0)
    qq = -(c1 + sign * disc) / 2.0
    out = np.empty(c0s.shape + (2,), dtype=complex)
    nz = qq != 0
    np.divide(qq, c2, out=out[..., 0])
    np.divide(c0s, qq, out=out[..., 1], where=nz)
    if not nz.all():
        r = np.sqrt(-c0s[~nz] / c2)
        out[~nz, 0] = r
        out[~nz, 1] = -r
    return out


def _aberth(coeffs, c0s):
    """Aberth-Ehrlich iteration on every row, then a 3-step Newton polish.

    A row leaves the active set when its own step test passes, so it does
    exactly the arithmetic of a one-row solve.
    """
    deg = len(coeffs) - 1
    hi, dco = list(coeffs[1:]), list(coeffs[1:] * np.arange(1, deg + 1))
    # Fujiwara root bound per row, via logs (iterated polynomials have huge
    # mid-range coefficients; the Cauchy bound would overflow the solver)
    lower = np.empty((len(c0s), deg), dtype=complex)
    lower[:], lower[:, 0] = coeffs[:-1], c0s
    with np.errstate(divide="ignore"):
        logc = np.log(np.abs(lower))
    finite = np.isfinite(logc)
    ratios = (logc - np.log(abs(coeffs[-1]))) / np.arange(deg, 0, -1)
    bound = np.max(np.where(finite, ratios, -np.inf), axis=1)
    radius = np.where(finite.any(axis=1), 2.0 * np.exp(bound), 1e-12)
    # deterministic start: slightly irrational phase offset breaks symmetry
    angles = 2.0 * np.pi * (np.arange(deg) + 0.25) / deg + 0.5 / deg
    z = np.maximum(radius, 1e-12)[:, None] * np.exp(1j * angles)
    active, za, col = np.arange(len(c0s)), z.copy(), c0s[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(ABERTH_MAX_ITER):
            p, dp = _horner([col, *hi], za), _horner(dco, za)
            newton = np.divide(p, dp, out=np.zeros(p.shape, complex),
                               where=dp != 0)
            diff = za[:, :, None] - za[:, None, :]
            diff.reshape(len(za), -1)[:, ::deg + 1] = np.inf   # 1/inf: no self term
            denom = 1.0 - newton * (1.0 / diff).sum(axis=2)
            step = np.divide(newton, denom, out=newton.copy(), where=denom != 0)
            za = za - step
            done = (np.abs(step).max(axis=1)
                    < ABERTH_TOL * (1.0 + np.abs(za).max(axis=1)))
            if done.any():
                z[active[done]] = za[done]
                if done.all():
                    break
                active, za, col = active[~done], za[~done], col[~done]
        else:   # ABERTH_MAX_ITER reached: rows still active keep their last iterate
            z[active] = za
    for _ in range(3):
        p, dp = _horner([c0s[:, None], *hi], z), _horner(dco, z)
        step = np.divide(p, dp, out=np.zeros(z.shape, complex),
                         where=(dp != 0) & (np.abs(p) > 0))
        # do not polish across a cluster: cap the step
        z = z - np.where(np.abs(step) < 1e-2 * (1 + np.abs(z)), step, 0.0)
    return z


def _clustered(rows):
    """Sorted root rows -> cluster means repeated by multiplicity.

    A row with no two roots within twice the cluster radius has nothing to
    merge and is final (a lone root's cluster mean is the root plus 0, which
    only clears signed zeros); the other rows go through cluster_roots.
    """
    scale = 1.0 + np.max(np.abs(rows), axis=1)
    tol = 2.0 * CLUSTER_TOL * np.maximum(scale, 1.0)
    close = np.abs(rows[:, :, None] - rows[:, None, :]) <= tol[:, None, None]
    out = rows + 0.0
    # every root is close to itself: a row with more close pairs than roots
    # has a cluster
    for i in np.flatnonzero(close.sum(axis=(1, 2)) > rows.shape[1]):
        clusters = cluster_roots(rows[i], float(scale[i]))
        out[i] = np.repeat([c for c, _ in clusters], [m for _, m in clusters])
    return out


def cluster_roots(roots, scale):
    """Group near-identical roots; returns list of (center, multiplicity).

    Clusters of merge_near at radius CLUSTER_TOL * max(scale, 1), centered
    at their means and sorted by (real, imag).
    """
    roots = np.asarray(roots, dtype=complex).reshape(-1)
    order, head = merge_near(roots, CLUSTER_TOL * max(scale, 1.0))
    roots = roots[order]
    heads, cluster, counts = np.unique(head, return_inverse=True,
                                       return_counts=True)
    centers = roots[heads] + 0.0   # a lone root's mean: plus 0
    for k in np.flatnonzero(counts > 1):
        centers[k] = np.mean(roots[cluster == k])
    return sorted(zip(centers.tolist(), counts.tolist()),
                  key=lambda c: (c[0].real, c[0].imag))


def merge_near(points, tol):
    """The one rule that decides which points coincide.

    Points are sorted by (real, imag). In that order each point x + iy not
    yet merged heads a cluster and absorbs every later unmerged point in
    [x, x + tol] x [y - tol, y + tol] (tol: a scalar or one per point).
    Returns (order, head): the sort order, and for each sorted point the
    sorted position of its head. A head's run up its column (equal real
    parts) is found by array operations; later columns in reach are scanned.
    """
    z = np.asarray(points, dtype=complex).reshape(-1)
    order = np.lexsort((z.imag, z.real))
    z, t = z[order], (np.zeros(len(z)) + tol)[order]
    x, y, idx = z.real, z.imag, np.arange(len(z))
    lo, hi = y - t, y + t
    # k's run ends before top[k]; later columns start at col[k] and leave
    # reach at right[k]
    top = np.searchsorted(z, x + 1j * hi, side="right")
    col = np.searchsorted(x, x, side="right")
    right = np.searchsorted(x, x + t, side="right")
    head, run_heads, scanned, last = idx.copy(), [], set(), -1
    starts = np.flatnonzero((top > idx + 1) | (right > col)).tolist()
    top_l, col_l, right_l = top.tolist(), col.tolist(), right.tolist()
    for k in starts:
        if k <= last or k in scanned:
            continue  # k already belongs to a cluster
        run_heads.append(k)
        last = top_l[k] - 1
        if right_l[k] > col_l[k]:
            w = np.arange(col_l[k], right_l[k])
            w = w[(head[w] == w) & (y[w] >= lo[k]) & (y[w] <= hi[k])]
            head[w] = k
            scanned.update(w.tolist())
    # runs do not overlap: a point's run head is the last one at or before it
    owner = np.maximum.accumulate(np.where(np.isin(idx, run_heads), idx, -1))
    run = (owner >= 0) & (head == idx) & (idx < top[owner])
    head[run] = owner[run]
    return order, head
