"""Topological and partition entropy estimates for the standard panel.

Runs the (n, eps)-separated estimator and the itinerary-partition estimator
on q^2, q^2 - 2 and q^3 - q with the configurations the acceptance test uses,
and prints each against its theoretical value log d.

Usage: python scripts/entropy_scan.py [--quick]
"""

import argparse
import math

from qbrolin.dynstats import (AxialBox, interval_partition, partition_entropy,
                              topological_entropy)
from qbrolin.poly import ComplexPoly

CASES = [
    ("q^2", ComplexPoly([0.0, 0.0, 1.0]),
     AxialBox(-1.5, 1.5, 0.0, 1.5), 8, [0.2, 0.3], 20000, math.log(2)),
    ("q^2-2", ComplexPoly([-2.0, 0.0, 1.0]),
     AxialBox(-2.2, 2.2, 0.0, 0.5), 8, [0.2, 0.3], 20000, math.log(2)),
    ("q^3-q", ComplexPoly([0.0, -1.0, 0.0, 1.0]),
     AxialBox(-1.8, 1.8, 0.0, 1.2), 6, [0.35, 0.45], 50000, math.log(3)),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="quarter-size candidate sets")
    args = ap.parse_args()
    for name, p, box, n_max, eps_list, density, target in CASES:
        if args.quick:
            density //= 4
        rep = topological_entropy(p, box, n_max, eps_list,
                                  grid_density=density, seed=0)
        print(f"topological {name:>6}: {rep.value:.4f} +- {rep.stderr:.4f} "
              f"(log d = {target:.4f}, eps = {rep.params['eps']})")
    part = partition_entropy(ComplexPoly([-2.0, 0.0, 1.0]),
                             interval_partition(-2.0, 2.0, 16), 12,
                             samples=100000, seed=0)
    print(f"partition    q^2-2: {part.value:.4f} +- {part.stderr:.4f} "
          f"(log 2 = {math.log(2):.4f})")


if __name__ == "__main__":
    main()
