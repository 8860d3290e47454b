"""All-roots solver for complex polynomials.

One Aberth-Ehrlich loop (`_aberth`) with a capped 3-step Newton polish runs on
rows of start points and a callable giving the Newton pair (f, f') at them; it
reads no coefficients. `fiber_roots` solves p(z) = t for many targets t at
once (every p - t shares all but the constant term), certified by backward
error. Degrees 1 and 2 use closed forms, uncertified, degree 3 Cardano's
formula (they dominate the preimage workloads), higher degrees Aberth from a
Fujiwara circle with Horner pairs. `newton_roots` solves a function known only
by its Newton pairs (the one-slice g_n, evaluated by composition) from given
start points, crowded ones spread apart first, certified by Newton distance.
Both return rows as `fiber_row` does: sorted, multiplicities detected by
clustering. `all_roots` solves one polynomial, certified and sorted at every
degree, unclustered. `_components` is the one rule for which roots of a row
coincide (clusters keep their mean): order-free, and those of conj(z) are
the conjugates of those of z; measures join equal points only. Closed forms
are conjugation-equivariant, and a real row's is closed under conjugation
bit for bit: exactly real roots and exact conjugate pairs.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailure
from .policy import (ABERTH_MAX_ITER, ABERTH_TOL, CLUSTER_TOL,
                     FIBER_RESIDUAL_TOL)
from .poly import horner

__all__ = ["all_roots", "cluster_roots", "fiber_roots", "fiber_row",
           "newton_roots", "quadratic_roots_many"]

# complex entries in one pairwise block: a batched solve takes
# max(1, _BLOCK // d^2) rows at a time, and the repulsion and the cluster
# test of a wider row take blocks of its points; about 4 MB per temporary
_BLOCK = 1 << 18

# radius, relative to 1 + |z|, of the circle that crowded start points of
# newton_roots are spread on
_SPREAD = 1e-3
_TINY = np.finfo(float).tiny   # smallest normal float
# cube roots of unity, w and conj(w) exact: conjugate targets, conjugate rows
_UNITY = np.array([1.0, -0.5 + 0.75 ** 0.5 * 1j, -0.5 - 0.75 ** 0.5 * 1j])


def all_roots(coeffs):
    """Roots (with repetitions) of sum coeffs[k] z^k, ascending coefficients.

    Returns an ndarray of length deg, sorted by (real, imag). Raises
    SolverFailure when the residual check fails.
    """
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=complex), "b")
    if len(coeffs) < 2:
        return np.array([], dtype=complex)
    return _certified_rows(coeffs, coeffs[:1])[0]


def fiber_roots(coeffs, targets):
    """Every root of p(z) = t (coeffs ascending, leading one nonzero) for
    each target t: an (N, d) array, one row per target.

    Degrees 1 and 2 give the closed forms in `quadratic_roots_many` order,
    uncertified. Higher degrees are solved on all rows at once, degree 3 by
    Cardano's formula, certified (SolverFailure carries the worst residual
    of any row); a row is then bit for bit a one-row solve, sorted, each
    `cluster_roots` center repeated by its multiplicity.
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


def newton_roots(start, newton):
    """Every root, with repetitions, of a function f with len(start) roots:
    the Aberth iteration from the points start, on f's Newton pairs alone
    (newton(z) gives f(z) and f'(z) at an array z; f need have no
    coefficients).

    Start points that crowd within the cluster radius are first spread
    (`_spread_crowded`): the iteration does not split coinciding points (its
    steps can just swap them). f not finite at a start point, which would
    poison every repulsion sum, raises SolverFailure. Each root is certified
    by its Newton distance (`_newton_certified`). The roots come as a
    `fiber_row`.
    """
    start = _spread_crowded(np.asarray(start, dtype=complex).reshape(-1))
    with np.errstate(over="ignore", invalid="ignore"):
        bad = int(np.sum(~np.isfinite(newton(start)[0])))
    if bad:
        raise SolverFailure(np.nan, f"f is not finite at {bad} start points")
    z = _aberth(start[None], lambda z, _: newton(z), np.empty((1, 0)))
    return fiber_row(_newton_certified(z, newton)[0])


def fiber_row(points):
    """points as a fiber_roots row: sorted by (real, imag), each
    `cluster_roots` center repeated by its multiplicity."""
    z = np.asarray(points, dtype=complex).reshape(1, -1)
    order = np.lexsort((z.imag, z.real), axis=-1)
    return _clustered(np.take_along_axis(z, order, axis=1))[0]


def _spread_crowded(start):
    """The start points with each cluster of crowded ones (`_components` at
    twice the cluster radius) moved evenly onto a circle of radius
    _SPREAD (1 + |mean|) about its mean."""
    crowded, scale = _crowded(start[None])
    idx = np.flatnonzero(crowded[0])
    order, head = _components(start[idx],
                              2.0 * CLUSTER_TOL * max(scale[0], 1.0))
    idx, out = idx[order], start.copy()
    for h in np.unique(head):
        members = idx[head == h]
        mean, m = np.mean(start[members]), len(members)
        out[members] = mean + _SPREAD * (1.0 + abs(mean)) * np.exp(
            2j * np.pi * (np.arange(m) + 0.25) / m)
    return out


def _newton_certified(z, newton):
    """z, if every point is within CLUSTER_TOL (1 + |z|) of a root by its
    Newton distance |f / f'| (0 at f = 0); else SolverFailure with the worst
    ratio."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f, df = newton(z)
        dist = np.divide(np.abs(f), np.abs(df),
                         out=np.where(f == 0, 0.0, np.inf), where=df != 0)
        ratio = dist / (1.0 + np.abs(z))
    if not np.all(ratio <= CLUSTER_TOL):
        raise SolverFailure(float(np.max(ratio)),
                            "root solve failed Newton-distance check")
    return z


def _closed_form(coeffs, c0s):
    """Closed-form rows, conjugation-equivariant by construction: a row whose
    first nonzero imaginary part (c_d down to c0) is negative is solved
    conjugated and conjugated back (a real quadratic's formula already is);
    + 0.0 makes the -0 imaginary parts of its conjugated constant terms +0,
    as in P^c's own, so P^c takes the same side of each branch cut."""
    deg = len(coeffs) - 1
    if deg < 2:   # no root at degree 0: (N, 1) / (0,) broadcasts to (N, 0)
        return -c0s[:, None] / coeffs[1:]
    lead = next((x for x in coeffs[:0:-1].imag.tolist() if x), 0.0)
    if lead < 0:
        return np.conj(_closed_form(np.conj(coeffs), np.conj(c0s) + 0.0))
    if deg == 2:
        return quadratic_roots_many(c0s, coeffs[1], coeffs[2])
    flip = (lead == 0) & (c0s.imag < 0)
    rows = _cubic_rows(coeffs, np.where(flip, np.conj(c0s), c0s))
    return np.conjugate(rows, out=rows, where=flip[:, None])


def _certified_rows(coeffs, c0s):
    """Roots of the polynomials coeffs with constant terms c0s, one row each:
    certified, sorted by (real, imag). A cubic row the formula does not
    certify (past roots of 1e100 it overflows) is solved again by Aberth."""
    col, hi = c0s[:, None], list(coeffs[1:])
    dco = list(coeffs[1:] * np.arange(1, len(coeffs)))

    def aberth(rows):
        return _aberth(_fujiwara_circle(coeffs, c0s[rows]), lambda z, c: (
            horner([c, *hi], z), horner(dco, z)), col[rows])
    z = _closed_form(coeffs, c0s) if len(coeffs) <= 4 else aberth(slice(None))
    worst = _backward_error(coeffs, col, z)
    redo = np.flatnonzero(~(worst <= FIBER_RESIDUAL_TOL))
    if len(coeffs) == 4 and len(redo):
        z[redo] = aberth(redo)
        worst[redo] = _backward_error(coeffs, col[redo], z[redo])
    if not np.all(worst <= FIBER_RESIDUAL_TOL):
        raise SolverFailure(float(np.max(worst)))
    order = np.lexsort((z.imag, z.real), axis=-1)
    return np.take_along_axis(z, order, axis=1)


def _backward_error(coeffs, col, z):
    # each row's worst |p(z)| against sum |c_k| max(1,|z|)^k (the max keeps
    # clustered roots near the origin certifiable)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = horner([np.abs(col), *np.abs(coeffs[1:])],
                       np.maximum(np.abs(z), 1.0))
        return np.max(np.abs(horner([col, *coeffs[1:]], z))
                      / np.maximum(bound, 1e-300), axis=1)


def _cubic_rows(coeffs, c0s):
    """Roots of c3 z^3 + c2 z^2 + c1 z + c0, c0 in c0s, as (N, 3) rows, by
    Cardano (Blinn; Kahan) on y^3 + p y + q, y = z + a/3 (a = c2/c3). u^3 is
    the larger root of x^2 + q x - p^3/27; of u w + v/w (w^3 = 1, v = -p/3u)
    the largest, z1, is kept; Vieta's z^2 - s z - c/z1 (c = c0/c3) gives
    the others, s = z2 + z3 taken the way that rounds less. u = 0: all are
    -a/3. A real row (a, b, c real) is exactly closed under conjugation: if
    another candidate is nearer conj z1 than z1 is, the others are conj z1
    and the real -c/|z1|^2; else z1 is taken real, and Vieta's is real."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b, c = coeffs[2] / coeffs[3], coeffs[1] / coeffs[3], c0s / coeffs[3]
        p = b - a * a / 3.0
        h = (a * (2.0 * a * a - 9.0 * b) / 27.0 + c) / 2.0   # q / 2
        d = np.sqrt(h * h + p ** 3 / 27.0)
        u = (-h - np.where((np.conj(h) * d).real < 0, -d, d)) ** (1 / 3)
        v = np.divide(-p / 3.0, u, out=np.zeros_like(u), where=u != 0)
        z = u[:, None] * _UNITY + v[:, None] * _UNITY.conj() - a / 3.0
        z1 = z[np.arange(len(z)), np.argmax(np.abs(z), axis=1)]
        real = (c.imag == 0) & (a.imag == 0 == b.imag)
        pair = real   # all False unless some row is real
        if real.any():   # |z1 - conj z1| = 2 |Im z1|: a candidate nearer?
            near = np.abs(z - np.conj(z1)[:, None]).min(axis=1)
            pair = real & (near < 2.0 * np.abs(z1.imag))
            z1[real & ~pair] = z1[real & ~pair].real
        prod = np.divide(-c, z1, out=np.zeros_like(z1), where=z1 != 0)
        # rounding bounds of the two sums (z1 = 0 only when every root is)
        use_b = (abs(b) + np.abs(prod)) / np.abs(z1) < abs(a) + np.abs(z1)
        s = np.where(use_b, (b - prod) / z1, -a - z1)
        rows = np.column_stack([z1, quadratic_roots_many(prod, -s, 1.0)])
        if pair.any():
            rows[pair, 1], rows[pair, 2] = np.conj(z1[pair]), (
                -c[pair] / np.abs(z1[pair]) / np.abs(z1[pair])).real
        return rows


def quadratic_roots_many(c0s, c1, c2):
    """Vectorized stable quadratic roots for many constant terms c0s.

    Solves c2 z^2 + c1 z + c0 = 0 for each c0 in c0s; returns (n, 2) array.
    Real c0, c1, c2 with non-real roots give the exact pair (r, conj r).
    """
    c0s = np.asarray(c0s, dtype=complex)
    disc = np.sqrt(c1 * c1 - 4.0 * c2 * c0s)
    sign = np.where((np.conj(c1) * disc).real >= 0, 1.0, -1.0)
    qq = -(c1 + sign * disc) / 2.0
    out = np.empty(c0s.shape + (2,), dtype=complex)
    nz = np.abs(qq) >= _TINY
    np.divide(qq, c2, out=out[..., 0])
    np.divide(c0s, qq, out=out[..., 1], where=nz)
    rare = not nz.all()
    if rare:   # numpy's c0 / qq overflows to NaN at a subnormal qq
        sub = ~nz & (qq != 0)
        out[sub, 1] = c0s[sub] * 2.0 ** 64 / (qq[sub] * 2.0 ** 64)
        nz |= sub
    real = c0s.imag == 0
    if real.any():   # real data, non-real roots: the exact pair (r, conj r)
        real &= (np.imag(c1) == 0) & (np.imag(c2) == 0)
        np.conjugate(out[..., 0], out=out[..., 1],
                     where=real & (out[..., 0].imag != 0))
    if rare:
        r = np.sqrt(-c0s[~nz] / c2)
        out[~nz, 0] = r
        out[~nz, 1] = -r
    return out


def _aberth(z, newton, col):
    """Aberth-Ehrlich iteration from the start points z, an (N, d) array of
    rows, then a capped 3-step Newton polish.

    newton(z, c) gives (f, f') at the points z of some rows, c being those
    rows of col, the callers' per-row data (such as a constant term). A
    row leaves the active set when its own step test passes, so it does
    exactly the arithmetic of a one-row solve. Cardano's cubic rows skip it
    and its polish, whose steps can split a multiple root found exactly.
    """
    z = z.copy()
    active, za, ca = np.arange(len(z)), z.copy(), col
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(ABERTH_MAX_ITER):
            p, dp = newton(za, ca)
            quot = np.divide(p, dp, out=np.zeros(p.shape, complex),
                             where=dp != 0)
            denom = 1.0 - quot * _repulsion(za)
            step = np.divide(quot, denom, out=quot.copy(), where=denom != 0)
            za = za - step
            done = (np.abs(step).max(axis=1)
                    < ABERTH_TOL * (1.0 + np.abs(za).max(axis=1)))
            if done.any():
                z[active[done]] = za[done]
                if done.all():
                    break
                active, za, ca = active[~done], za[~done], ca[~done]
        else:   # ABERTH_MAX_ITER reached: rows still active keep their last iterate
            z[active] = za
        for _ in range(3):
            p, dp = newton(z, col)
            step = np.divide(p, dp, out=np.zeros(z.shape, complex),
                             where=(dp != 0) & (np.abs(p) > 0))
            # do not polish across a cluster: cap the step
            z = z - np.where(np.abs(step) < 1e-2 * (1 + np.abs(z)), step, 0.0)
    return z


def _block_width(z):
    """How many points i of each row of the (N, d) array z go in one
    pairwise (N, width, d) block of about _BLOCK entries."""
    return max(1, _BLOCK // max(1, z.size))


def _repulsion(z):
    """sum_{j != i} 1 / (z_i - z_j) for every point z_i of every row, one
    block of i at a time (each sum over j is the same contiguous reduction
    whatever the block)."""
    deg, width = z.shape[1], _block_width(z)
    sums = []
    for lo in range(0, deg, width):
        diff = z[:, lo:lo + width, None] - z[:, None, :]
        diff.reshape(len(z), -1)[:, lo::deg + 1] = np.inf   # 1/inf: no self term
        sums.append(np.divide(1.0, diff, out=diff).sum(axis=2))
    return sums[0] if len(sums) == 1 else np.concatenate(sums, axis=1)


def _fujiwara_circle(coeffs, c0s):
    """Aberth start for each row: deg points on a circle of twice the
    Fujiwara root bound, taken via logs (iterated polynomials have huge
    mid-range coefficients; the Cauchy bound would overflow the solver)."""
    deg = len(coeffs) - 1
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
    return np.maximum(radius, 1e-12)[:, None] * np.exp(1j * angles)


def _crowded(rows):
    """For each point of the (N, d) rows, whether another point of its row
    lies within twice the cluster radius CLUSTER_TOL max(scale, 1), scale
    1 + the row's largest |z|; and the scales. Blocked like `_repulsion`.
    Two points `_components` joins at the cluster radius lie within sqrt(2)
    times it, so a row with no crowded point has no cluster to find."""
    scale = 1.0 + np.max(np.abs(rows), axis=1)
    tol = 2.0 * CLUSTER_TOL * np.maximum(scale, 1.0)[:, None, None]
    width = _block_width(rows)
    # every point is close to itself
    near = [(np.abs(rows[:, lo:lo + width, None] - rows[:, None, :]) <= tol)
            .sum(axis=2) > 1 for lo in range(0, rows.shape[1], width)]
    return (near[0] if len(near) == 1 else np.concatenate(near, axis=1)), scale


def _clustered(rows):
    """Sorted root rows -> cluster means repeated by multiplicity.

    A row with no two roots within twice the cluster radius has nothing to
    merge and is final (a lone root's cluster mean is the root plus 0, which
    only clears signed zeros); the other rows go through cluster_roots.
    """
    crowded, scale = _crowded(rows)
    out = rows + 0.0
    for i in np.flatnonzero(crowded.any(axis=1)):
        clusters = cluster_roots(rows[i], float(scale[i]))
        out[i] = np.repeat([c for c, _ in clusters], [m for _, m in clusters])
    return out


def cluster_roots(roots, scale):
    """Group near-identical roots; returns list of (center, multiplicity).

    Clusters of `_components` at radius CLUSTER_TOL * max(scale, 1), centered
    at the means of their members in (real, imag) order, sorted by (real,
    imag).
    """
    roots = np.asarray(roots, dtype=complex).reshape(-1)
    order, head = _components(roots, CLUSTER_TOL * max(scale, 1.0))
    roots = roots[order]
    heads, cluster, counts = np.unique(head, return_inverse=True,
                                       return_counts=True)
    centers = roots[heads] + 0.0   # a lone root's mean: plus 0
    for k in np.flatnonzero(counts > 1):
        centers[k] = np.mean(roots[cluster == k])
    return sorted(zip(centers.tolist(), counts.tolist()),
                  key=lambda c: (c[0].real, c[0].imag))


def _components(points, tol):
    """The one rule that decides which points coincide: two are joined when
    their real parts and their imaginary parts each differ by at most tol, a
    scalar, and joins are transitive. Returns (order, head): the (real,
    imag) sort order, and for each sorted point the sorted position of the
    first point of its component. Step k joins the points k apart in that
    order, while any two are within tol in real part: no n x n temporary."""
    z = np.asarray(points, dtype=complex).reshape(-1)
    order = np.lexsort((z.imag, z.real))
    x, y, head = z.real[order], z.imag[order], np.arange(len(z))
    for k in range(1, len(z)):
        near = x[k:] - x[:-k] <= tol   # real parts ascend: none farther apart
        if not near.any():
            break
        lo = np.flatnonzero(near & (np.abs(y[k:] - y[:-k]) <= tol))
        while not np.array_equal(head[lo], head[lo + k]):
            a, b = head[lo], head[lo + k]   # hook larger heads on least
            np.minimum.at(head, np.maximum(a, b), np.minimum(a, b))
            while not np.array_equal(head[head], head):
                head = head[head]
    return order, head
