"""The benchmark workloads: seeded op lists and the checks on each op.

An op is one qbrolin CLI config, run in-process through
``qbrolin.cli.main([config, "--out", dir])``, or (for the criterion-04
cross-estimator, which no CLI mode reaches) one call chain through the public
library. The workload seed fixes every config; the program only ever sees the
generated configs.

Each check returns None when the op's output meets its reference tolerance,
or a one-line reason. Ops tagged ``known_defect`` are expected to fail at the
parent commit; their failures count in ``failed`` but do not make the run
incorrect, so a defect stays visible without hiding a new one.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Op:
    label: str
    check: Callable
    config: dict | None = None      # CLI config; None for a library op
    library: Callable | None = None  # library op: () -> result dict
    known_defect: str | None = None


def _real_poly(coeffs):
    return {"coeffs": [[float(c), 0.0, 0.0, 0.0] for c in coeffs]}


def _cli(mode, poly, params, seed=0, **extra):
    cfg = {"mode": mode, "params": params, "seed": int(seed)}
    if poly is not None:
        cfg["polynomial"] = poly
    cfg.update(extra)
    return cfg


def _read_json(out: Path, name):
    return json.loads((out / name).read_text())


def _read_csv(out: Path, name):
    with open(out / name, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _finite(*xs):
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


# -- checks ---------------------------------------------------------------

def check_lyapunov(degree):
    # L = log d for a polynomial with connected Julia set (every map used
    # here has one); 0.1 is several reported standard errors at these sizes
    def check(out, _):
        r = _read_json(out, "lyapunov.json")
        if not _finite(r["value"], r["stderr"]):
            return "non-finite Lyapunov estimate"
        if abs(r["value"] - math.log(degree)) > 0.1:
            return f"lyapunov {r['value']:.4f} not within 0.1 of log {degree}"
        return None
    return check


def check_equilibrium(support=None):
    def check(out, _):
        m = _read_json(out, "measure.json")
        atoms = m["atoms"]
        w = np.array([a["weight"] for a in atoms])
        if not atoms or np.any(w <= 0):
            return "empty measure or non-positive weight"
        if abs(float(np.sum(w)) - 1.0) > 1e-9:
            return f"mass {float(np.sum(w))!r} != 1"
        if len(_read_csv(out, "measure.csv")) != len(atoms):
            return "measure.csv and measure.json disagree"
        if _read_json(out, "measure.manifest.json")["atoms"] != len(atoms):
            return "manifest atom count disagrees"
        if support is not None and not support(atoms):
            return "atoms leave the known Julia set"
        return None
    return check


def _on_circle(radius):
    # depth-n preimages of t > 0 under q^2 lie on |z| = t^(2^-n)
    return lambda atoms: all(
        abs(math.hypot(a["alpha"], a["rho"]) - radius) < 1e-9 for a in atoms)


def _on_chebyshev_segment(atoms):   # Julia set of q^2 - 2 is [-2, 2]
    return all(a["rho"] == 0.0 and abs(a["alpha"]) <= 2.0 + 1e-9
               for a in atoms)


def check_mixing(out, cfg):
    rows = _read_csv(out, "mixing.csv")
    corr = [float(v) for _, v in rows]
    slope = _read_json(out, "mixing.json")["value"]
    if len(corr) != cfg["params"]["n_max"] + 1 or not _finite(*corr, slope):
        return "missing or non-finite correlations"
    if not (slope < 0 and abs(corr[-1]) < abs(corr[1])):
        return f"correlations do not decay (slope {slope:.4f})"
    return None


def check_entropy(degree, window):
    # windows of acceptance criterion 09: 0.15 (quadratic topological),
    # 0.2 (cubic topological), 0.1 (partition)
    def check(out, _):
        r = _read_json(out, "entropy.json")
        if not _finite(r["value"]):
            return "non-finite entropy"
        if abs(r["value"] - math.log(degree)) > window:
            return f"entropy {r['value']:.4f} not within {window} of log {degree}"
        return None
    return check


def check_clt(out, _):
    r = _read_json(out, "clt.json")
    return None if r["pass"] else (
        f"clt.json pass=false (ks {r['ks']:.4f} > bar {r['null_95']:.4f})")


def check_green(out, cfg):
    rows = {k: float(v) for k, v in _read_csv(out, "green_stats.csv")}
    if not (_finite(*rows.values()) and rows["max"] > 0
            and 0.0 < rows["zero_fraction"] < 1.0):
        return f"bad green stats {rows}"
    return None


def check_julia(out, _):
    frac = _read_json(out, "julia.manifest.json")["inside_fraction"]
    return None if 0.0 < frac < 1.0 else f"inside fraction {frac}"


def check_delta_star(out, _):
    # windows of acceptance criterion 02
    r = _read_json(out, "delta_star.json")
    ok = (r["finest_real_rel_err"] < 0.01 and r["finest_pair_rel_err"] < 0.01
          and 1.8 <= r["real_order"] <= 2.2 and 1.8 <= r["pair_order"] <= 2.2)
    return None if ok else f"delta-star outside criterion-02 windows: {r}"


def check_one_slice(out, _):
    # windows of acceptance criterion 10
    r = _read_json(out, "one_slice.json")
    ok = _finite(r["weak_distance"]) and r["weak_distance"] <= 0.05 \
        and r["real_mass"] <= 0.01
    return None if ok else f"one-slice outside criterion-10 windows: {r}"


def check_general_gap(out, _):
    bad = [int(n) for n, g in _read_csv(out, "gap.csv")
           if not (math.isfinite(float(g)) and float(g) != 0.0)]
    return f"gap exactly 0 or non-finite at n={bad}" if bad else None


def check_verify(out, _):
    r = _read_json(out, "verify.json")
    return None if r["all_pass"] else "verify.json all_pass=false"


def check_cross_estimator(result, _):
    # window of acceptance criterion 04
    if abs(result["raster_mass"] - 1.0) > 1e-9:
        return f"raster measure mass {result['raster_mass']!r} != 1"
    if not result["distance"] <= 0.05:
        return f"raster vs tree distance {result['distance']:.4f} > 0.05"
    return None


# -- workloads ------------------------------------------------------------

def _seeds(rng, n):
    return [int(s) for s in rng.integers(0, 2 ** 31, size=n)]


def _signed(rng, lo, hi):
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


def cubic_fibers(rng):
    """Degree-3 real maps: every fiber is a per-target Aberth solve."""
    c1, c2 = _signed(rng, 0.05, 0.3), _signed(rng, 0.05, 0.3)
    t = [float(x) for x in rng.uniform(-0.5, 0.5, size=2)]
    s = _seeds(rng, 4)
    maps = {"q3-q": _real_poly([0, -1, 0, 1]), "q3+c": _real_poly([c1, 0, 0, 1]),
            "q3+c'": _real_poly([c2, 0, 0, 1])}
    lyap, eq, ent = check_lyapunov(3), check_equilibrium(), check_entropy(3, 0.2)
    topo = {"kind": "topological", "n_max": 3, "eps_list": [0.35],
            "box": [-1.8, 1.8, 0.0, 1.2], "grid_density": 600}
    # n_max 4 with 2000 samples takes about a minute; keep cubic mixing small
    mix = {"n_max": 3, "samples": 25}
    return [
        Op("lyapunov q3-q", lyap,
           _cli("lyapunov", maps["q3-q"], {"n_samples": 200}, s[0])),
        Op("lyapunov q3+c", lyap,
           _cli("lyapunov", maps["q3+c"], {"n_samples": 200}, s[1])),
        Op("equilibrium q3+c d6", eq,
           _cli("equilibrium", maps["q3+c"], {"target": t[0], "depth": 6})),
        Op("equilibrium q3+c' d6", eq,
           _cli("equilibrium", maps["q3+c'"], {"target": t[1], "depth": 6})),
        Op("mixing q3+c", check_mixing, _cli("mixing", maps["q3+c"], mix, s[2])),
        Op("entropy topological q3-q", ent,
           _cli("entropy", maps["q3-q"], topo, s[3])),
    ]


def quadratic_orbits(rng):
    """q^2 + c, c in [-2, 0]: closed-form roots, sampler and separated set."""
    c = [float(x) for x in rng.uniform(-1.9, -0.1, size=2)]
    s = _seeds(rng, 6)
    cheb, basil, sq = (_real_poly([-2, 0, 1]), _real_poly([-1, 0, 1]),
                       _real_poly([0, 0, 1]))
    mix = {"n_max": 6, "samples": 2000}
    lyap = {"n_samples": 3000}
    part = {"kind": "partition", "n_max": 8, "cells": 16, "box": [-2.0, 2.0],
            "samples": 8000}
    topo = {"kind": "topological", "n_max": 6, "eps_list": [0.3],
            "grid_density": 4000, "box": [-1.5, 1.5, 0.0, 1.5]}
    # mixing pairs |q|^2 with Re q, whose correlation vanishes by parity on
    # the symmetric Julia set of q^2 - 2, so mixing uses other maps
    return [
        Op("mixing q2+c", check_mixing,
           _cli("mixing", _real_poly([c[0], 0, 1]), mix, s[0])),
        Op("mixing q2-1", check_mixing, _cli("mixing", basil, mix, s[1])),
        Op("lyapunov q2+c'", check_lyapunov(2),
           _cli("lyapunov", _real_poly([c[1], 0, 1]), lyap, s[2])),
        Op("lyapunov q2-2", check_lyapunov(2), _cli("lyapunov", cheb, lyap, s[3])),
        Op("entropy partition q2-2", check_entropy(2, 0.1),
           _cli("entropy", cheb, part, s[4])),
        Op("entropy topological q2", check_entropy(2, 0.15),
           _cli("entropy", sq, topo, s[5])),
        # clt_chebyshev.json as shipped: its Gaussian-null bar rejects this
        # run at seed 4 (and most, not all, other seeds)
        Op("clt q2-2", check_clt,
           _cli("clt", cheb, {"n_terms": 200, "n_samples": 10000,
                              "null_reps": 200}, 4),
           known_defect="the CLI's Gaussian-null KS bar rejects correct CLT runs"),
    ]


def _cross_estimator(c):
    """Criterion 04 through the public library: Green raster vs tree."""
    def run():
        from qbrolin import grids, laplacian, measures, poly
        p = poly.QPolynomial.from_real([c, 0.0, 1.0])
        grid = grids.SliceGrid.square(0j, 1.8, 1.0 / 128)
        density, clamp = laplacian.measure_from_green(p, 10, grid)
        m_raster = laplacian.raster_to_measure(density)
        m_tree = measures.brolin_pullback(p, 0.0, 10)
        return {"distance": measures.weak_distance(m_raster, m_tree),
                "raster_mass": m_raster.total_mass(), "clamp": clamp}
    return run


def measure_rasters(rng):
    """Deep trees, fine forward rasters and the raster-to-measure path."""
    c1 = float(rng.uniform(-1.9, -0.1))
    c2, c3 = (float(c) for c in rng.uniform(-1.2, -0.8, size=2))
    k, m = (int(v) for v in rng.integers(4, 13, size=2))
    fine = {"center": [0.0, 0.0], "half_width": 1.8, "h": 1.0 / 256}
    julia = dict(fine, h=1.0 / 128)
    eq = check_equilibrium()
    return [
        Op("equilibrium q2+c d14", eq,
           _cli("equilibrium", _real_poly([c1, 0, 1]), {"target": 0.0, "depth": 14})),
        Op("equilibrium q2 d14", check_equilibrium(_on_circle(0.5 ** 2 ** -14)),
           _cli("equilibrium", _real_poly([0, 0, 1]), {"target": 0.5, "depth": 14})),
        Op("equilibrium q2-2 d14", check_equilibrium(_on_chebyshev_segment),
           _cli("equilibrium", _real_poly([-2, 0, 1]), {"target": 0.0, "depth": 14})),
        Op("green q2+c h/256", check_green,
           _cli("green", _real_poly([c2, 0, 1]), {"depth": 12}, grid=fine)),
        Op("julia q2+c h/128", check_julia,
           _cli("julia", _real_poly([c3, 0, 1]), {"max_iter": 80}, grid=julia)),
        # singularities on nodes of every grid, as in criterion 02
        Op("delta-star h/256", check_delta_star,
           _cli("delta-star", _real_poly([0, 0, 1]),
                {"center": [k / 32, m / 32],
                 "h_list": [1 / 32, 1 / 64, 1 / 128, 1 / 256]})),
        Op("cross-estimator q2+c", check_cross_estimator,
           library=_cross_estimator(c2)),
    ]


def quaternion_algebra(rng):
    """Star products, bullet iterates and the one-slice/general cases."""
    u = [float(x) for x in rng.uniform(-0.6, 0.6, size=4)]
    a, b = float(rng.uniform(-0.5, 0.3)), float(rng.uniform(0.3, 1.0))
    seed, = _seeds(rng, 1)
    gap = {"a": 0.0, "b": 1.0, "n_list": list(range(1, 9))}
    defect = "general-gap returns exactly 0.0 at n >= 7 (coefficient noise)"
    sq = [[0, 0, 0, 0], [1, 0, 0, 0]]
    return [
        Op("general-gap q2+u", check_general_gap,
           _cli("general-gap", {"coeffs": [u, *sq]}, gap), known_defect=defect),
        Op("one-slice q2+(a+bI)", check_one_slice,
           _cli("one-slice", {"coeffs": [[a, b, 0, 0], *sq]}, {"depth": 6})),
        Op("one-slice q2+I", check_one_slice,
           _cli("one-slice", {"coeffs": [[0, 1, 0, 0], *sq]}, {"depth": 6})),
        Op("verify", check_verify, _cli("verify", None, {}, seed)),
    ]


@dataclass(frozen=True)
class Workload:
    groups: tuple          # op-list builders, run in this order each pass
    layers: tuple          # modules whose wrapped functions must be called
    why: str

    def build(self, rng):
        return [op for group in self.groups for op in group(rng)]


# Two workloads, each two op groups, so that each run is long: on a shared
# host the best time of an op is steady only over a minute or so. The split
# is by root solver: every fiber of the first goes through Aberth, the
# second takes almost all its roots in closed form (Aberth under 0.1%).
WORKLOADS = {
    "cubic-quaternion": Workload(
        (cubic_fibers, quaternion_algebra),
        ("roots", "cdyn", "measures", "dynstats", "slicecases", "poly", "cli"),
        "Aberth fibers: degree-3 Lyapunov, depth-6 trees, small mixing and"
        " entropy; quaternion general-gap n 1-8, one-slice depth 6, verify:"
        " star products, bullet iterates"),
    "quadratic-rasters": Workload(
        (quadratic_orbits, measure_rasters),
        ("roots", "cdyn", "laplacian", "measures", "dynstats", "cli"),
        "closed-form roots: q^2+c sampler and separated set (mixing,"
        " Lyapunov, entropy, CLT), depth-14 trees, Green/Julia rasters,"
        " delta-star, raster-to-measure"),
}
