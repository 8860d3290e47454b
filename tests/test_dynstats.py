import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scipy import stats

from qbrolin import dynstats
from qbrolin.dynstats import (SAMPLER_CHAINS, AxialBox, _candidate_points,
                              _orbit_matrix, calibrate_ks_null, clt_harness,
                              fit_log_slope, interval_partition, ks_distance,
                              lyapunov_slice, lyapunov_sphere_direction,
                              mixing_correlation, partition_entropy, sample_mu,
                              separated_count, topological_entropy)
from qbrolin.errors import (ConfigError, DegenerateSample, ExceptionalTarget,
                            InvariantViolation, SolverFailure)
from qbrolin.measures import standard_panel
from qbrolin.policy import BURN_IN
from qbrolin.poly import ComplexPoly, QPolynomial
from qbrolin.roots import fiber_roots

CHEB = ComplexPoly([-2.0, 0.0, 1.0])
BASILICA = ComplexPoly([-1.0, 0.0, 1.0])
RE, ABS2 = standard_panel()["re"], standard_panel()["abs2"]


def test_sampler_deterministic():
    a = sample_mu(CHEB, 200, seed=3)
    b = sample_mu(CHEB, 200, seed=3)
    assert np.array_equal(a, b)
    c = sample_mu(CHEB, 200, seed=4)
    assert not np.array_equal(a, c)


def test_sampler_chain_inverts_forward():
    z = sample_mu(BASILICA, 100, seed=0, chains=4).reshape(4, 25)
    # consecutive points of a chain satisfy p(z_{t+1}) = z_t
    assert np.max(np.abs(BASILICA(z[:, 1:]) - z[:, :-1])) < 1e-9
    # the chains start together but part within burn-in
    assert len(np.unique(z[:, 0])) == 4


def test_sampler_chain_lengths():
    # 100 points in 64 chains: 36 chains of two points, then 28 of one
    z = sample_mu(BASILICA, 100, seed=0)
    assert z.shape == (100,)
    pairs = z[:72].reshape(36, 2)
    assert np.max(np.abs(BASILICA(pairs[:, 1]) - pairs[:, 0])) < 1e-9
    assert sample_mu(BASILICA, 10, seed=0).shape == (10,)
    assert SAMPLER_CHAINS == 64


def test_sampler_lands_on_support():
    z = sample_mu(CHEB, 2000, seed=1)
    assert np.max(np.abs(z.imag)) < 1e-9
    assert np.max(np.abs(z.real)) <= 2.0 + 1e-9


def test_sampler_rejects_exceptional_start(monkeypatch):
    # 0 is exceptional for z^2; every chain starts at dynstats._START
    monkeypatch.setattr(dynstats, "_START", 0j)
    with pytest.raises(ExceptionalTarget):
        sample_mu(ComplexPoly([0.0, 0.0, 1.0]), 10, seed=0)


def test_sampler_rejects_a_start_that_is_an_inexact_critical_fixed_point():
    # (z - s)^2 + s with s = _START: s is no float fixed point exactly
    s = dynstats._START
    with pytest.raises(ExceptionalTarget):
        sample_mu(ComplexPoly([s * s + s, -2 * s, 1.0]), 10, seed=0)


def test_sample_mu_chains_shape():
    z = sample_mu(CHEB, 64, seed=2, chains=64)
    assert z.shape == (64,)
    assert np.max(np.abs(z.real)) <= 2.0 + 1e-9


def _former_sample_mu_chains(p, n_chains, seed, start=complex(0.41, 0.37)):
    """The former one-draw-per-chain sampler: burn-in, then the heads."""
    rng = np.random.default_rng(seed)
    z = np.full(n_chains, start, dtype=complex)
    for _ in range(BURN_IN):
        roots = fiber_roots(p.coeffs, z)
        pick = rng.integers(0, p.degree, size=len(z))
        z = roots[np.arange(len(z)), pick]
    return z


@pytest.mark.parametrize("p", [CHEB, ComplexPoly([0.2, 0.0, 0.0, 1.0])])
def test_one_point_chains_equal_former_sampler(p):
    got = sample_mu(p, 300, seed=5, chains=300)
    assert np.array_equal(got, _former_sample_mu_chains(p, 300, seed=5))


def test_cubic_chain_step():
    p = ComplexPoly([0.0, -1.0, 0.0, 1.0])  # z^3 - z, Aberth path
    z = sample_mu(p, 50, seed=0, chains=5).reshape(5, 10)
    assert np.max(np.abs(p(z[:, 1:]) - z[:, :-1])) < 1e-7


def test_lyapunov_power_map_exact():
    # mu(z^2) is the unit circle where log|p'| = log 2 identically,
    # but 0 is exceptional; use a start on the circle
    rep = lyapunov_slice(ComplexPoly([1e-9, 0.0, 1.0]), 2000, seed=5)
    assert rep.value == pytest.approx(math.log(2.0), abs=1e-3)


def test_lyapunov_sphere_direction_degenerate():
    p = QPolynomial.from_real([0.0, 0.0, 1.0])
    with pytest.raises(DegenerateSample):
        lyapunov_sphere_direction(p, 0.3, 0.4, 20)
    with pytest.raises(ValueError):
        lyapunov_sphere_direction(p, 0.5, 0.0, 5)


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


def test_partition_entropy_needs_words_of_every_length(monkeypatch):
    import qbrolin.dynstats as dyn
    monkeypatch.setattr(dyn, "SAMPLER_CHAINS", 1)
    monkeypatch.setattr(dyn, "sample_mu", lambda *a, **k: np.array(
        [0.5 + 0j, 1.5 + 0j, -0.3 + 0j]))
    part = interval_partition(-2.0, 2.0, 4)
    with pytest.raises(InvariantViolation):
        dyn.partition_entropy(CHEB, part, 4, samples=3)


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


def _former_calibrate_ks_null(n_samples, reps, seed, quantile=0.95):
    """The former one-replication-at-a-time loop through kstest."""
    rng = np.random.default_rng(seed)
    ks_vals = np.empty(reps)
    for r in range(reps):
        s = rng.normal(size=n_samples)
        sigma = float(np.std(s, ddof=1))
        mean = float(np.mean(s))
        ks_vals[r] = stats.kstest(s - mean, "norm", args=(0.0, sigma)).statistic
    return float(np.quantile(ks_vals, quantile))


@pytest.mark.parametrize("n, reps, seed", [(500, 50, 1), (10000, 60, 5),
                                           (37, 200, 0), (3000, 7, 2)])
def test_calibrate_ks_null_equals_former_loop(n, reps, seed):
    assert calibrate_ks_null(n, reps, seed) == _former_calibrate_ks_null(
        n, reps, seed)


def _kstest(x, sigma):
    return stats.kstest(x, "norm", args=(0.0, sigma)).statistic


@st.composite
def _ks_samples(draw):
    """Unsorted, uncentred samples: drawn floats at small n, else seeded
    normals at any n up to 10,000, with ties and signed zeros."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=2,
                                      max_size=40)))
    n = draw(st.sampled_from([2, 3, 5, 99, 1001, 10_000])
             | st.integers(2, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = draw(st.floats(-5.0, 5.0)) + draw(st.floats(0.01, 5.0)) \
        * rng.standard_normal(n)
    if draw(st.booleans()):
        x = np.round(x, draw(st.integers(0, 2)))    # ties
    k = draw(st.integers(0, n))
    x[rng.permutation(n)[:k]] = rng.choice([0.0, -0.0], size=k)
    return x


@settings(max_examples=300, deadline=None)
@given(x=_ks_samples(), sigma=st.floats(1e-3, 10.0))
@example(x=np.array([0.0, -0.0]), sigma=1.0)
@example(x=np.array([0.5, -0.5, 0.5, 0.5, -0.0]), sigma=1e-3)
def test_ks_distance_is_kstest_bit_for_bit(x, sigma):
    before = x.tobytes()
    assert ks_distance(x, sigma) == _kstest(x, sigma)
    assert x.tobytes() == before


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 6),
       n=st.integers(2, 300), ties=st.booleans())
def test_ks_distance_reduces_each_row(seed, rows, n, ties):
    rng = np.random.default_rng(seed)
    x = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), size=(rows, n))
    if ties:
        x = np.round(x, 1)
    sigma = rng.uniform(1e-3, 10.0, size=rows)
    d = ks_distance(x, sigma)
    assert d.shape == (rows,)
    assert all(d[r] == _kstest(x[r], sigma[r]) for r in range(rows))
    d = ks_distance(x, sigma[0])
    assert all(d[r] == _kstest(x[r], sigma[0]) for r in range(rows))


def test_clt_harness_keeps_the_clt_chebyshev_ks():
    # clt_chebyshev.json: q^2 - 2, phi = Re, 200 terms, 10,000 samples,
    # seed 4; the value its clt.json held while the harness called kstest
    res = clt_harness(CHEB, RE, 200, 10_000, seed=4)
    assert res.ks_statistic == 0.013438101859022722


def test_separated_count_monotone():
    pc = ComplexPoly([0.0, 0.0, 1.0])
    z, units = _candidate_points(pc, AxialBox(-1.5, 1.5, 0.0, 1.5), 3000, 0,
                                 n_units=6)
    orbits = _orbit_matrix(pc, z, units, 5)
    n_small = separated_count(orbits[:, :2, :], 0.3)
    n_large = separated_count(orbits, 0.3)
    n_coarse = separated_count(orbits, 0.6)
    assert n_small <= n_large
    assert n_coarse <= n_large
    assert n_small >= 2


def _former_separated_count(orbits, eps):
    """The former greedy loop: first live point, kill its eps-ball, repeat."""
    orbits = np.asarray(orbits, dtype=np.float32)
    N = orbits.shape[0]
    first = orbits[:, 0, :]
    alive = np.ones(N, dtype=bool)
    count = 0
    eps2 = np.float32(eps * eps)
    idx = np.arange(N)
    while True:
        live_idx = idx[alive]
        if len(live_idx) == 0:
            break
        i = live_idx[0]
        count += 1
        d0 = first[live_idx] - first[i]
        near = live_idx[np.sum(d0 * d0, axis=1) < eps2]
        diff = orbits[near] - orbits[i]
        d2 = np.max(np.sum(diff * diff, axis=2), axis=1)
        alive[near[d2 < eps2]] = False
    return count


@pytest.mark.parametrize("coeffs, box, n_max, eps_list", [
    ([0.0, 0.0, 1.0], (-1.5, 1.5, 0.0, 1.5), 6, [0.2, 0.3]),
    ([0.0, -1.0, 0.0, 1.0], (-1.8, 1.8, 0.0, 1.2), 4, [0.35, 0.45]),
    ([-2.0, 0.0, 1.0], (-2.2, 2.2, 0.0, 0.5), 6, [0.2, 0.3]),
])
def test_separated_count_equals_former_greedy(coeffs, box, n_max, eps_list):
    p = QPolynomial.from_real(coeffs)
    box = AxialBox(*box)
    pc = p.restrict_to_slice()
    z, units = _candidate_points(pc, box, 3000, 0, n_units=6)
    orbits = _orbit_matrix(pc, z, units, n_max)
    for n in range(1, n_max + 1):
        for eps in eps_list:
            assert (separated_count(orbits[:, :n, :], eps)
                    == _former_separated_count(orbits[:, :n, :], eps))


def test_separated_count_refuses_escaped_orbits():
    # an orbit that overflowed has no distance to measure (the former
    # greedy loop never killed such a point and did not return)
    orbits = np.zeros((3, 2, 4))
    orbits[1, 1, 0] = np.inf
    with pytest.raises(SolverFailure):
        separated_count(orbits, 0.3)


def test_topological_entropy_report():
    p = ComplexPoly([0.0, 0.0, 1.0])
    rep = topological_entropy(p, AxialBox(-1.5, 1.5, 0.0, 1.5), 5,
                              [0.25], grid_density=4000, seed=0)
    assert rep.name == "topological_entropy"
    assert 0.3 < rep.value < 1.1
    assert rep.params["eps"] == 0.25
    assert len(rep.params["counts"]) == 5


def test_topological_entropy_refuses_nonreal_coefficients():
    # off a real map the slice orbit placed on every unit is not the
    # quaternion orbit, so a count of separated orbits measures nothing
    p = ComplexPoly([0.3j, 0.0, 1.0])
    with pytest.raises(ConfigError):
        topological_entropy(p, AxialBox(-1.5, 1.5, 0.0, 1.5), 3, [0.3],
                            grid_density=200, seed=0)


def test_interval_partition():
    cells = interval_partition(-2.0, 2.0, 4)
    assert len(cells) == 4
    assert cells[0].alpha_lo == -2.0 and cells[-1].alpha_hi == 2.0
    assert cells[1].contains(-0.5, 0.2)


def test_partition_entropy_breaks_words_at_dropped_points(monkeypatch):
    # runs of three points in cell 0, then in cell 1, each run followed by a
    # point outside the partition: every 2-word stays inside one run, so only
    # (0, 0) and (1, 1) occur, in equal numbers
    import qbrolin.dynstats as dyn
    run = [0.5, 0.5, 0.5, 5.0, 1.5, 1.5, 1.5, 5.0]
    z = np.array(run * 50, dtype=complex)
    monkeypatch.setattr(dyn, "SAMPLER_CHAINS", 1)
    monkeypatch.setattr(dyn, "sample_mu", lambda *a, **k: z)
    rep = dyn.partition_entropy(ComplexPoly([0.0, 0.0, 1.0]),
                                interval_partition(0.0, 2.0, 2), 3,
                                samples=len(z))
    h = dict(rep.params["H_n"])
    words = 4 * 50      # two 2-words per run, two runs per repeat
    assert h[2] == pytest.approx(math.log(2.0) + 1.0 / (2.0 * words))
    assert rep.n_samples == 6 * 50


def test_partition_entropy_breaks_words_at_chain_boundaries(monkeypatch):
    # four chains, each constant in its own cell: a word across a boundary
    # would pair two cells, so every 2-word must be (k, k)
    import qbrolin.dynstats as dyn
    lengths = dyn._chain_lengths(40, 4)
    cells = np.repeat([0.25, 0.75, 1.25, 1.75], lengths).astype(complex)
    monkeypatch.setattr(dyn, "SAMPLER_CHAINS", 4)
    monkeypatch.setattr(dyn, "sample_mu", lambda *a, **k: cells)
    rep = dyn.partition_entropy(ComplexPoly([0.0, 0.0, 1.0]),
                                interval_partition(0.0, 2.0, 4), 3,
                                samples=40)
    h = dict(rep.params["H_n"])
    words = 4 * 9       # nine 2-words per chain of ten
    assert h[2] == pytest.approx(math.log(4.0) + 3.0 / (2.0 * words))
    assert rep.n_samples == 40


def test_partition_entropy_chebyshev():
    rep = partition_entropy(CHEB, interval_partition(-2.0, 2.0, 8), 8,
                            samples=20000, seed=0)
    assert rep.value == pytest.approx(math.log(2.0), abs=0.15)
