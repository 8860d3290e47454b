"""Two near-point merges the library used before `roots._components`, kept
verbatim as test references (this module holds no tests). Measures no
longer merge near points, so the former measure merge is gone from here.

- `ref_cluster_roots`: greedy disc around the first unused root, clusters
  keep their mean (the former `roots.cluster_roots`).
- `ref_merge_level`: a run of consecutive points within a disc of the run's
  first point, multiplicities summed (the former `cdyn._merge_level`).

On clouds where every pair is either within tol/2 or at least 2 tol apart
the first has the clusters of `roots._components`; the run rule splits the
double roots of a real polynomial, whose conjugates tie in real part.
"""

import numpy as np

from qbrolin.policy import CLUSTER_TOL


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
