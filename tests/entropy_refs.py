"""The greedy separated-set loop the library used before the batched rounds
of `dynstats.separated_count`, kept verbatim as a test reference (this
module holds no tests).

- `ref_separated_count`: one centre at a time in index order; each centre
  asks a k-d tree on the last iterate for its eps-ball and kills the live
  points that pass the exact float32 test (the former
  `dynstats.separated_count`).
"""

import math

import numpy as np

from qbrolin.errors import SolverFailure


def ref_separated_count(orbits, eps: float) -> int:
    n = orbits.shape[1]
    with np.errstate(over="ignore"):   # checked on the last iterate below
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
    from scipy.spatial import cKDTree
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
