"""Correlation decay under q^2 - 1 against the spectral-gap prediction.

Estimates corr(n) = <mu, (psi o p^n) phi> - <mu, phi><mu, psi> for the pair
phi = |q|^2, psi = Re q and fits the exponential decay rate; the prediction
is -log d = -log 2. The swapped pair (phi = Re q) vanishes identically by
parity, so the order matters.

Usage: python scripts/mixing_decay.py [--samples 100000] [--n-max 12]
       [--seed 7]
"""

import argparse
import math

from qbrolin.dynstats import fit_log_slope, mixing_correlation
from qbrolin.measures import TestFunction
from qbrolin.poly import QPolynomial


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=100000)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    pc = QPolynomial.from_real([-1.0, 0.0, 1.0]).restrict_to_slice()
    phi = TestFunction("abs2", lambda a, b: a * a + b * b)
    psi = TestFunction("re", lambda a, b: a)
    corr = mixing_correlation(pc, phi, psi, args.n_max, args.samples,
                              args.seed)
    print(f"{'n':>3} {'corr(n)':>14}")
    for n, c in corr:
        print(f"{n:>3} {c:>14.4e}")
    slope = fit_log_slope(corr, n_min=2)
    print(f"fitted slope (n >= 2): {slope:.4f}   (-log 2 = {-math.log(2):.4f})")


if __name__ == "__main__":
    main()
