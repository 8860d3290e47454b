"""The three near-point merges the library used before `roots.merge_near`,
kept verbatim as test references (this module holds no tests).

- `ref_cluster_roots`: greedy disc around the first unused root, clusters
  keep their mean (the former `roots.cluster_roots`).
- `ref_merge_level`: a run of consecutive points within a disc of the run's
  first point, multiplicities summed (the former `cdyn._merge_level`).
- `ref_measure_merge`: a run of consecutive atoms of one kind within a box
  of the run's first atom, weights summed (the former `measures._merge`),
  after `ref_fold` (the former `measures._fold`).

On clouds where every pair is either within tol/2 or at least 2 tol apart
the first equals merge_near always, the run rules whenever no cluster is
interleaved with another point in the (real, imag) order.
"""

import numpy as np

from qbrolin.measures import EmpiricalMeasure
from qbrolin.policy import CLUSTER_TOL, REAL_AXIS_TOL


def ref_cluster_roots(roots, scale):
    roots = np.asarray(roots, dtype=complex)
    if len(roots) == 0:
        return []
    tol = CLUSTER_TOL * max(scale, 1.0)
    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]
    used = np.zeros(len(roots), dtype=bool)
    clusters = []
    for i in range(len(roots)):
        if used[i]:
            continue
        members = np.abs(roots - roots[i]) <= tol
        members &= ~used
        used |= members
        pts = roots[members]
        clusters.append((complex(np.mean(pts)), int(len(pts))))
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


def ref_merge_level(points, mults, scale):
    order = np.lexsort((np.imag(points), np.real(points)))
    points = np.asarray(points)[order]
    mults = np.asarray(mults)[order]
    tol = CLUSTER_TOL * max(scale, 1.0)
    out_p, out_m = [], []
    for pt, m in zip(points, mults):
        if out_p and abs(pt - out_p[-1]) <= tol:
            out_m[-1] += int(m)
        else:
            out_p.append(complex(pt))
            out_m.append(int(m))
    return out_p, out_m


def ref_fold(z, weight):
    z = np.asarray(z, dtype=complex).reshape(-1)
    rho = np.abs(z.imag)
    rho[rho <= REAL_AXIS_TOL * (1.0 + np.abs(z))] = 0.0
    return z.real, rho, np.asarray(weight, dtype=float).reshape(-1)


def ref_measure_merge(alpha, rho, weight, meta):
    order = np.lexsort((rho, alpha, rho > 0))
    alpha, rho, weight = alpha[order], rho[order], weight[order]
    sphere = rho > 0
    tol = CLUSTER_TOL * (1.0 + np.abs(alpha) + rho)
    # a run's first merge is always with the atom right before it
    near_next = ((sphere[1:] == sphere[:-1])
                 & (np.abs(alpha[1:] - alpha[:-1]) <= tol[:-1])
                 & (np.abs(rho[1:] - rho[:-1]) <= tol[:-1]))
    first = np.ones(len(alpha), dtype=bool)
    if np.any(near_next):
        a, r, s, t = (x.tolist() for x in (alpha, rho, sphere, tol))
        j = 0
        for b in np.flatnonzero(near_next).tolist():
            if b < j:
                continue  # b already joined the run of an earlier atom
            j = b + 1
            while (j < len(a) and s[j] == s[b] and abs(a[j] - a[b]) <= t[b]
                   and abs(r[j] - r[b]) <= t[b]):
                first[j] = False
                j += 1
    run = np.cumsum(first) - 1
    return EmpiricalMeasure(alpha[first], rho[first],
                            np.bincount(run, weight), meta)
