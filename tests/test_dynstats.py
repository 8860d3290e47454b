import math

import numpy as np
import pytest

from qbrolin.dynstats import (AxialBox, calibrate_ks_null, clt_harness,
                              fit_log_slope, interval_partition,
                              lyapunov_slice, lyapunov_sphere_direction,
                              mixing_correlation, partition_entropy, sample_mu,
                              sample_mu_chains, separated_count,
                              topological_entropy, transfer_apply)
from qbrolin.errors import DegenerateSample, InvariantViolation
from qbrolin.measures import axial_test_function
from qbrolin.poly import ComplexPoly, QPolynomial
from qbrolin.quat import SlicePoint, UNIT_I

CHEB = ComplexPoly([-2.0, 0.0, 1.0])
BASILICA = ComplexPoly([-1.0, 0.0, 1.0])
RE = axial_test_function("re", lambda a, b: a)
ABS2 = axial_test_function("abs2", lambda a, b: a * a + b * b)


def test_sampler_deterministic():
    a = sample_mu(CHEB, 200, seed=3)
    b = sample_mu(CHEB, 200, seed=3)
    assert np.array_equal(a, b)
    c = sample_mu(CHEB, 200, seed=4)
    assert not np.array_equal(a, c)


def test_sampler_chain_inverts_forward():
    z = sample_mu(BASILICA, 100, seed=0)
    # consecutive points satisfy p(z_{t+1}) = z_t
    assert np.max(np.abs(BASILICA(z[1:]) - z[:-1])) < 1e-9


def test_sampler_lands_on_support():
    z = sample_mu(CHEB, 2000, seed=1)
    assert np.max(np.abs(z.imag)) < 1e-9
    assert np.max(np.abs(z.real)) <= 2.0 + 1e-9


def test_sampler_rejects_exceptional_start():
    with pytest.raises(ValueError):
        sample_mu(ComplexPoly([0.0, 0.0, 1.0]), 10, seed=0, start=0.0)


def test_sample_mu_chains_shape():
    z = sample_mu_chains(CHEB, 64, seed=2)
    assert z.shape == (64,)
    assert np.max(np.abs(z.real)) <= 2.0 + 1e-9


def test_cubic_chain_step():
    p = ComplexPoly([0.0, -1.0, 0.0, 1.0])  # z^3 - z, Aberth path
    z = sample_mu(p, 50, seed=0)
    assert np.max(np.abs(p(z[1:]) - z[:-1])) < 1e-7


def test_lyapunov_power_map_exact():
    # mu(z^2) is the unit circle where log|p'| = log 2 identically,
    # but 0 is exceptional; use a start on the circle
    rep = lyapunov_slice(ComplexPoly([1e-9, 0.0, 1.0]), 2000, seed=5)
    assert rep.value == pytest.approx(math.log(2.0), abs=1e-3)


def test_lyapunov_sphere_direction_degenerate():
    p = QPolynomial.from_real([0.0, 0.0, 1.0])
    with pytest.raises(DegenerateSample):
        lyapunov_sphere_direction(p, SlicePoint(0.3, 0.4, UNIT_I), 20)
    with pytest.raises(ValueError):
        lyapunov_sphere_direction(p, SlicePoint(0.5, 0.0, UNIT_I), 5)


def test_transfer_apply_constant_and_linearity():
    assert transfer_apply(CHEB, lambda w: 1.0, 0.7) == pytest.approx(1.0)
    # the two preimages under z^2 - 2 are +-sqrt(z + 2), so Re averages to 0
    assert transfer_apply(CHEB, lambda w: w.real, 0.7) == pytest.approx(0.0, abs=1e-10)


def test_mixing_correlation_lag_zero_is_covariance():
    corr = mixing_correlation(CHEB, ABS2, RE, 3, 2000, seed=7)
    z = sample_mu(CHEB, 2000, seed=7)
    phi = np.abs(z) ** 2
    psi = z.real
    cov = float(np.mean(phi * psi) - np.mean(phi) * np.mean(psi))
    assert corr[0][1] == pytest.approx(cov, abs=1e-9)


def test_mixing_correlation_decays():
    corr = dict(mixing_correlation(CHEB, ABS2, RE, 6, 4000, seed=7))
    assert abs(corr[6]) < abs(corr[1])


def test_partition_entropy_needs_words_of_every_length():
    part = interval_partition(-2.0, 2.0, 4)
    with pytest.raises(InvariantViolation):
        partition_entropy(QPolynomial.from_real([-2.0, 0.0, 1.0]), part, 4,
                          samples=np.array([0.5 + 0j, 1.5 + 0j, -0.3 + 0j]))


def test_fit_log_slope():
    pairs = [(n, 3.0 * 0.5 ** n) for n in range(8)]
    assert fit_log_slope(pairs, n_min=1) == pytest.approx(math.log(0.5), abs=1e-9)
    with pytest.raises(InvariantViolation):
        fit_log_slope([(1, 1.0)], n_min=1)


def test_clt_harness_runs():
    res = clt_harness(CHEB, RE, 50, 1000, seed=4)
    assert not res.degenerate
    assert 0.0 < res.ks_statistic < 0.2
    assert res.sigma_hat > 0.5


def test_calibrate_ks_null_deterministic():
    a = calibrate_ks_null(500, reps=50, seed=1)
    b = calibrate_ks_null(500, reps=50, seed=1)
    assert a == b
    assert 0.01 < a < 0.1


def test_separated_count_monotone():
    p = QPolynomial.from_real([0.0, 0.0, 1.0])
    box = AxialBox(-1.5, 1.5, 0.0, 1.5)
    n_small = separated_count(p, box, 2, 0.3, grid_density=3000, seed=0)
    n_large = separated_count(p, box, 5, 0.3, grid_density=3000, seed=0)
    n_coarse = separated_count(p, box, 5, 0.6, grid_density=3000, seed=0)
    assert n_small <= n_large
    assert n_coarse <= n_large
    assert n_small >= 2


def test_topological_entropy_report():
    p = QPolynomial.from_real([0.0, 0.0, 1.0])
    rep = topological_entropy(p, AxialBox(-1.5, 1.5, 0.0, 1.5), 5,
                              [0.25], grid_density=4000, seed=0)
    assert rep.name == "topological_entropy"
    assert 0.3 < rep.value < 1.1
    assert rep.params["eps"] == 0.25
    assert len(rep.params["counts"]) == 5


def test_interval_partition():
    cells = interval_partition(-2.0, 2.0, 4)
    assert len(cells) == 4
    assert cells[0].alpha_lo == -2.0 and cells[-1].alpha_hi == 2.0
    assert cells[1].contains(-0.5, 0.2)


def test_partition_entropy_breaks_words_at_dropped_points():
    # runs of three points in cell 0, then in cell 1, each run followed by a
    # point outside the partition: every 2-word stays inside one run, so only
    # (0, 0) and (1, 1) occur, in equal numbers
    run = [0.5, 0.5, 0.5, 5.0, 1.5, 1.5, 1.5, 5.0]
    z = np.array(run * 50, dtype=complex)
    rep = partition_entropy(QPolynomial.from_real([0.0, 0.0, 1.0]),
                            interval_partition(0.0, 2.0, 2), 3, samples=z)
    h = dict(rep.params["H_n"])
    words = 4 * 50      # two 2-words per run, two runs per repeat
    assert h[2] == pytest.approx(math.log(2.0) + 1.0 / (2.0 * words))
    assert rep.n_samples == 6 * 50


def test_partition_entropy_chebyshev():
    p = QPolynomial.from_real([-2.0, 0.0, 1.0])
    rep = partition_entropy(p, interval_partition(-2.0, 2.0, 8), 8,
                            samples=20000, seed=0)
    assert rep.value == pytest.approx(math.log(2.0), abs=0.15)
