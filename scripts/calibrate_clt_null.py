"""Calibrate the KS pass bar for the central-limit harness on q^2 - 2.

The finite-sum statistic S_n = n^{-1/2} sum_i Re(p^i z) is measurably
non-Gaussian at n_terms = 200 even with exact dynamics, so a plain Gaussian
null would reject correct runs. This script reproduces the frozen bar that
the `clt` mode and the acceptance test read
(`qbrolin.dynstats.KS_NULL_BAR_N200_S10000`, through `clt_ks_bar`) by
simulating the statistic exactly: on [-2, 2] the map conjugates to angle
doubling, x_i = 2 cos(2 pi frac(2^i u)), and a 260-bit integer angle keeps
every one of the 200 doublings exact. Each replication draws fresh starts,
fits sigma from the data, and reports the KS distance to N(0, sigma), the
same procedure the float harness applies, through the same statistic
(`qbrolin.dynstats.ks_distance`).

Usage: python scripts/calibrate_clt_null.py [--reps 50] [--n-terms 200]
       [--n-chains 10000]
"""

import argparse
import math

import numpy as np

from qbrolin.dynstats import ks_distance

BITS = 260


def exact_ks(seed: int, n_chains: int, n_terms: int) -> float:
    rng = np.random.default_rng(seed)
    ks = [int.from_bytes(rng.bytes(BITS // 8), "big") % (1 << BITS)
          for _ in range(n_chains)]
    vals = np.empty((n_terms, n_chains))
    for i in range(n_terms):
        # top 53 bits of frac(2^i u) as a float, exactly
        tops = np.array([((k << i) % (1 << BITS)) >> (BITS - 53) for k in ks],
                        dtype=np.float64) / (1 << 53)
        vals[i] = 2.0 * np.cos(2.0 * np.pi * tops)
    s = (vals - vals.mean()).sum(axis=0) / math.sqrt(n_terms)
    s = s - s.mean()
    return float(ks_distance(s, s.std(ddof=1)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=50)
    ap.add_argument("--n-terms", type=int, default=200)
    ap.add_argument("--n-chains", type=int, default=10000)
    args = ap.parse_args()
    ks = [exact_ks(s, args.n_chains, args.n_terms) for s in range(args.reps)]
    print(f"reps      {len(ks)}")
    print(f"mean      {float(np.mean(ks))!r}")
    print(f"95th pct  {float(np.quantile(ks, 0.95))!r}")
    print(f"max       {max(ks)!r}")


if __name__ == "__main__":
    main()
