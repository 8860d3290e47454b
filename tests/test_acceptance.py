"""Acceptance gate: twelve numbered end-to-end checks with frozen targets.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion with the measured numbers. Every stochastic check pins its seed;
derived reference constants are frozen here with the script that produced
them noted alongside.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qbrolin.dynstats import (AxialBox, clt_harness, fit_log_slope,
                              interval_partition, lyapunov_slice,
                              lyapunov_sphere_direction, mixing_correlation,
                              partition_entropy, topological_entropy)
from qbrolin.errors import ZeroDivisor
from qbrolin.grids import SliceGrid
from qbrolin.laplacian import (fundamental_solution_check, measure_from_green,
                               raster_to_measure, refinement_order,
                               sphere_kernel_check)
from qbrolin.measures import (TestFunction, brolin_pullback,
                              measure_from_complex_atoms, pushforward,
                              weak_distance)
from qbrolin.poly import QPolynomial
from qbrolin.quat import hamilton, norm_sq
from qbrolin.slicecases import brolin3_gap, gn_pullback_measure, \
    mu_prime_estimate
from qbrolin.poly import ComplexPoly

CHEB = QPolynomial.from_real([-2.0, 0.0, 1.0])       # q^2 - 2
BASILICA = QPolynomial.from_real([-1.0, 0.0, 1.0])   # q^2 - 1
SQ = QPolynomial.from_real([0.0, 0.0, 1.0])          # q^2

# 95th percentile of the kstest statistic over 50 replications of the exact
# arithmetic surrogate for the q^2 - 2 sum (doubling map in 260-bit integer
# angles, see scripts/calibrate_clt_null.py): the finite-n_terms sum is
# measurably non-Gaussian, so the pass bar comes from the exact model of the
# same statistic, not from a Gaussian null.
KS_NULL_BAR_N200_S10000 = 0.018301627368235786


def _report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_algebra():
    rng = np.random.default_rng(12345)

    def rand_poly(max_deg=5):
        deg = int(rng.integers(1, max_deg + 1))
        return QPolynomial(np.array([rng.uniform(-2, 2, size=4)
                                     for _ in range(deg + 1)]))

    def rand_quat():
        return rng.uniform(-1.5, 1.5, size=4)

    def qabs(q):
        return float(np.sqrt(norm_sq(q)))

    worst = 0.0
    for _ in range(1000):
        f, g = rand_poly(), rand_poly()
        # conjugation antihomomorphism
        lhs, rhs = f.star_mul(g).conj(), g.conj().star_mul(f.conj())
        f_abs = np.sum(np.linalg.norm(f.coeffs, axis=1))
        scale = f_abs * np.sum(np.linalg.norm(g.coeffs, axis=1))
        err = np.max(np.linalg.norm(lhs.coeffs - rhs.coeffs, axis=1)) / scale
        worst = max(worst, err)
        # symmetrization realness
        worst = max(worst, f.symmetrize().max_imag_coeff() / f_abs ** 2)
        # star evaluation identity
        q = rand_quat()
        try:
            t = f.star_conjugation_point(q)
        except ZeroDivisor:
            t = None
        if t is not None:
            val_l = f.star_mul(g).eval(q)
            val_r = hamilton(f.eval(q), g.eval(t))
            es = scale * max(1.0, qabs(q)) ** (f.degree + g.degree)
            worst = max(worst, qabs(val_l - val_r) / es)
        # bullet degree law (generic coefficients: leading term survives)
        w = rand_poly()
        worst = max(worst,
                    0.0 if f.bullet_compose(w).degree == f.degree * w.degree
                    else 1.0)
    _report(1, "star algebra", worst < 1e-10, f"worst rel err {worst:.2e}")


def test_criterion_02_fundamental_solutions():
    bump = TestFunction(
        "bump", lambda a, b: np.exp(-((a - 0.1) ** 2 + b ** 2)))
    # singularities on grid nodes keep the sub-cell offset fixed across h
    a_real = 0.25
    a_sphere = (0.25, 0.5)      # the sphere of 0.25 + 0.5 j
    hs = [1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256]
    vals_r, vals_s = {}, {}
    for h in hs:
        grid = SliceGrid.square(0j, 2.0, h)
        vals_r[h] = fundamental_solution_check(a_real, bump, grid)
        vals_s[h], want_s = sphere_kernel_check(*a_sphere, bump, grid)
    want_r = 0.5 * bump.axial(a_real, 0.0)
    rel_r = abs(vals_r[hs[-1]] / want_r - 1.0)
    rel_s = abs(vals_s[hs[-1]] / want_s - 1.0)
    order_r = refinement_order(vals_r, want_r)
    order_s = refinement_order(vals_s, want_s)
    ok = (rel_r < 0.01 and rel_s < 0.01
          and 1.8 <= order_r <= 2.2 and 1.8 <= order_s <= 2.2)
    _report(2, "fundamental solutions", ok,
            f"rel {rel_r:.2e}/{rel_s:.2e}, order {order_r:.3f}/{order_s:.3f}")


def _arcsine_oracle(n_atoms=4096):
    # equilibrium measure of q^2 - 2: arcsine law on [-2, 2]; midpoint rule
    # in the angle variable is exact to O(1/N^2) for the smooth panel
    k = np.arange(n_atoms)
    x = 2.0 * np.cos((k + 0.5) * np.pi / n_atoms)
    return measure_from_complex_atoms(x.astype(complex),
                                      np.full(n_atoms, 1.0 / n_atoms),
                                      meta={"oracle": "arcsine"})


def test_criterion_03_brolin_convergence():
    nu_a = brolin_pullback(CHEB, 0.0, 12)
    nu_b = brolin_pullback(CHEB, 1.0, 12)
    d_targets = weak_distance(nu_a, nu_b)
    d_oracle = weak_distance(nu_a, _arcsine_oracle())
    ok = d_targets <= 0.05 and d_oracle <= 0.03
    _report(3, "Brolin convergence", ok,
            f"target gap {d_targets:.2e}, arcsine gap {d_oracle:.2e}")


def test_criterion_04_cross_estimator():
    grid = SliceGrid.square(0j, 1.8, 1.0 / 256)
    density, clamp = measure_from_green(BASILICA, 10, grid)
    m_raster = raster_to_measure(density)
    m_tree = brolin_pullback(BASILICA, 0.0, 10)
    dist = weak_distance(m_raster, m_tree)
    _report(4, "cross-estimator agreement", dist <= 0.05,
            f"panel distance {dist:.4f}, clamped mass {clamp:.4f}")


def test_criterion_05_invariance():
    nu12 = brolin_pullback(CHEB, 0.0, 12)
    nu11 = brolin_pullback(CHEB, 0.0, 11)
    d_tower = weak_distance(pushforward(CHEB, nu12), nu11)
    d_inv = weak_distance(pushforward(CHEB, nu12), nu12)
    ok = d_tower <= 1e-9 and d_inv <= 0.03
    _report(5, "pushforward invariance", ok,
            f"tower {d_tower:.2e}, invariance {d_inv:.2e}")


def test_criterion_06_mixing():
    # phi = |q|^2 at the base point, psi = Re at the forward point; the
    # swapped pair vanishes identically for the even map q^2 - 1
    phi = TestFunction("abs2", lambda a, b: a * a + b * b)
    psi = TestFunction("re", lambda a, b: a)
    pc = BASILICA.restrict_to_slice()
    corr = mixing_correlation(pc, phi, psi, 12, 100000, seed=7)
    slope = fit_log_slope(corr, n_min=2)
    lo, hi = -math.log(2.0) - 0.15, -math.log(2.0) + 0.15
    _report(6, "mixing decay", lo <= slope <= hi,
            f"slope {slope:.4f}, window [{lo:.3f}, {hi:.3f}]")


def test_criterion_07_clt():
    phi = TestFunction("re", lambda a, b: a)
    res = clt_harness(CHEB.restrict_to_slice(), phi, 200, 10000, seed=4)
    ok = (not res.degenerate) and res.ks_statistic <= KS_NULL_BAR_N200_S10000
    _report(7, "central limit theorem", ok,
            f"ks {res.ks_statistic:.4f} vs bar {KS_NULL_BAR_N200_S10000:.4f}, "
            f"sigma {res.sigma_hat:.3f}")


def test_criterion_08_lyapunov():
    # q^2 with a start on the unit circle (0 is exceptional for q^2 itself)
    sq_eps = ComplexPoly([1e-9, 0.0, 1.0])
    rep = lyapunov_slice(sq_eps, 20000, seed=5)
    ok1 = abs(rep.value - math.log(2.0)) <= 0.01

    theta = 2.0 * math.pi * 166886.0 / 1048575.0
    sphere = lyapunov_sphere_direction(SQ, math.cos(theta), math.sin(theta),
                                       20)
    ok2 = abs(sphere) <= 0.01

    panel = [SQ, CHEB, BASILICA,
             QPolynomial.from_real([0.0, -1.0, 0.0, 1.0]),
             QPolynomial.from_real([0.2, 0.0, 0.0, 1.0])]
    margins = []
    for p in panel:
        pc = p.restrict_to_slice()
        if p is SQ:
            pc = sq_eps
        r = lyapunov_slice(pc, 20000, seed=5)
        margins.append(r.value - 0.5 * math.log(pc.degree))
    ok3 = min(margins) >= -0.02
    _report(8, "Lyapunov exponents", ok1 and ok2 and ok3,
            f"lambda1(q^2) {rep.value:.4f}, sphere {sphere:.2e}, "
            f"min margin {min(margins):.4f}")


def test_criterion_09_entropy():
    sq, cheb = SQ.restrict_to_slice(), CHEB.restrict_to_slice()
    topo_sq = topological_entropy(sq, AxialBox(-1.5, 1.5, 0.0, 1.5), 8,
                                  [0.2, 0.3], grid_density=20000, seed=0)
    ok1 = abs(topo_sq.value - math.log(2.0)) <= 0.15

    cubic = ComplexPoly([0.0, -1.0, 0.0, 1.0])
    topo_cubic = topological_entropy(cubic, AxialBox(-1.8, 1.8, 0.0, 1.2), 6,
                                     [0.35, 0.45], grid_density=50000, seed=0)
    ok2 = abs(topo_cubic.value - math.log(3.0)) <= 0.2

    part = partition_entropy(cheb, interval_partition(-2.0, 2.0, 16), 12,
                             samples=100000, seed=0)
    ok3 = abs(part.value - math.log(2.0)) <= 0.1

    topo_cheb = topological_entropy(cheb, AxialBox(-2.2, 2.2, 0.0, 0.5), 8,
                                    [0.2, 0.3], grid_density=20000, seed=0)
    ok4 = part.value <= topo_cheb.value + part.stderr + topo_cheb.stderr
    _report(9, "entropy", ok1 and ok2 and ok3 and ok4,
            f"topo q^2 {topo_sq.value:.3f}, q^3-q {topo_cubic.value:.3f}, "
            f"partition {part.value:.3f}, "
            f"variational gap {part.value - topo_cheb.value:+.3f} "
            f"<= {part.stderr + topo_cheb.stderr:.3f}")


def test_criterion_10_one_slice():
    P = ComplexPoly([1j, 0.0, 1.0])
    m_prime = mu_prime_estimate(P, 6)
    m_gn = gn_pullback_measure(P, 0.0, 6)
    dist = weak_distance(m_gn, m_prime)
    real_mass = float(np.sum(m_prime.weight[m_prime.rho == 0.0]))
    m_prime_b = mu_prime_estimate(P, 6, a=1.0)
    a_indep = weak_distance(m_prime, m_prime_b)
    ok = dist <= 0.05 and real_mass <= 0.01 and a_indep <= 0.05
    _report(10, "one-slice case", ok,
            f"estimator gap {dist:.2e}, real mass {real_mass:.2e}, "
            f"a-independence {a_indep:.2e}")


def test_criterion_11_general_case():
    p = QPolynomial(np.array([[0.0, 0, 1, 0], [0, 0, 0, 0],
                              [1, 0, 0, 0]]))  # q^2 + j
    gaps = {n: brolin3_gap(p, 0.0, 1.0, n) for n in range(3, 9)}
    monotone = all(gaps[n + 1] <= gaps[n] for n in range(3, 8))
    ok = monotone and gaps[8] <= 0.02
    _report(11, "general case gap", ok,
            "gaps " + " ".join(f"{gaps[n]:.1e}" for n in range(3, 9)))


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"mode": "verify", "seed": 9}))
    # the child interpreter imports qbrolin from this checkout's src/
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    outs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        r = subprocess.run([sys.executable, "-m", "qbrolin.cli", str(cfg),
                            "--out", str(out)], capture_output=True, env=env)
        assert r.returncode == 0, r.stderr.decode()
        outs.append(out)
    files = sorted(f.name for f in outs[0].iterdir())
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in files)
    _report(12, "determinism", same and len(files) >= 3,
            f"{len(files)} files byte-identical across runs")
