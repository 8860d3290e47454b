import dataclasses

import numpy as np
import pytest

from qbrolin.cdyn import solve_fiber
from qbrolin.errors import SolverFailure
from qbrolin.policy import DEFAULT
from qbrolin.poly import ComplexPoly
from qbrolin.quat import UNIT_I
from qbrolin.roots import (all_roots, cluster_roots, fiber_roots,
                           quadratic_roots_many)
from qbrolin.slicecases import OneSlicePolynomial, gn_build


def _poly_from_roots(roots):
    c = np.array([1.0 + 0j])
    for r in roots:
        c = np.convolve(c, [-r, 1.0])
    return c


def test_degree_one_and_two():
    assert np.allclose(all_roots([2.0, 1.0]), [-2.0])
    r = all_roots([-2.0, 0.0, 1.0])
    assert np.allclose(sorted(r.real), [-np.sqrt(2), np.sqrt(2)], atol=1e-14)


def test_random_polynomials_match_numpy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        deg = int(rng.integers(3, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        mine = all_roots(coeffs)
        ref = np.sort_complex(np.roots(coeffs[::-1]))
        assert np.allclose(np.sort_complex(mine), ref, atol=1e-7)


def test_multiple_root_certified():
    # (z - 1)^4: ill conditioned but must still pass the backward-error check
    coeffs = _poly_from_roots([1.0] * 4)
    r = all_roots(coeffs)
    assert np.allclose(r, 1.0, atol=1e-3)


def test_multiple_root_at_origin():
    r = all_roots([0.0, 0.0, 0.0, 0.0, 1.0])
    assert np.allclose(r, 0.0, atol=1e-7)


def test_huge_coefficients():
    # iterated quadratic: coefficients span many orders of magnitude
    p = ComplexPoly([-1.0, 0.0, 1.0]).iterate_poly(6)
    r = all_roots(p.coeffs)
    assert len(r) == 64
    # backward error against the growth envelope sum |c_k| max(1,|z|)^k
    k = np.arange(len(p.coeffs))
    env = np.sum(np.abs(p.coeffs)[None, :]
                 * np.maximum(np.abs(r), 1.0)[:, None] ** k[None, :], axis=1)
    assert np.max(np.abs(p(r)) / env) < 1e-9


def test_tiny_scale_roots():
    coeffs = _poly_from_roots([1e-8, 2e-8, -1e-8])
    r = all_roots(coeffs)
    assert np.allclose(np.sort(r.real), [-1e-8, 1e-8, 2e-8], atol=1e-12)


def test_quadratic_roots_many_matches_scalar():
    rng = np.random.default_rng(1)
    c0s = rng.normal(size=50) + 1j * rng.normal(size=50)
    c1, c2 = 0.3 - 0.2j, 1.0 + 0.5j
    batch = quadratic_roots_many(c0s, c1, c2)
    for c0, pair in zip(c0s, batch):
        ref = all_roots([c0, c1, c2])
        assert np.allclose(np.sort_complex(pair), ref, atol=1e-10)


def test_quadratic_roots_many_pure_square_root():
    out = quadratic_roots_many(np.array([-4.0 + 0j]), 0.0, 1.0)
    assert np.allclose(np.sort(out[0].real), [-2.0, 2.0])


def test_cluster_roots():
    roots = np.array([1.0, 1.0 + 1e-9, -1.0, 2.0 + 1e-9j])
    clusters = cluster_roots(roots, scale=1.0)
    assert [(round(c.real, 6), m) for c, m in clusters] == [
        (-1.0, 1), (1.0, 2), (2.0, 1)]


def test_cluster_roots_empty():
    assert cluster_roots(np.array([]), 1.0) == []


def test_zero_degree():
    assert len(all_roots([5.0])) == 0


# -- the row-batched kernel against the one-target solver it replaced --------

def _ref_horner(coeffs, z):
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _ref_all_roots(coeffs, policy=DEFAULT):
    """The scalar Aberth solve, one polynomial at a time (the former
    implementation of all_roots for degree >= 3, kept as the reference)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    deg = len(coeffs) - 1
    dcoeffs = coeffs[1:] * np.arange(1, deg + 1)
    with np.errstate(divide="ignore"):
        logc = np.log(np.abs(coeffs[:-1]))
    k = np.arange(deg, 0, -1)
    finite = np.isfinite(logc)
    log_lead = np.log(abs(coeffs[-1]))
    radius = 2.0 * float(np.exp(np.max((logc[finite] - log_lead) / k[finite]))) \
        if np.any(finite) else 1e-12
    radius = max(radius, 1e-12)
    angles = 2.0 * np.pi * (np.arange(deg) + 0.25) / deg + 0.5 / deg
    z = radius * np.exp(1j * angles)
    for _ in range(policy.aberth_max_iter):
        p, dp = _ref_horner(coeffs, z), _ref_horner(dcoeffs, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dp != 0, p / np.where(dp != 0, dp, 1), 0.0)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            repulse = np.sum(1.0 / diff, axis=1)
            denom = 1.0 - newton * repulse
            step = np.where(denom != 0,
                            newton / np.where(denom != 0, denom, 1), newton)
        z = z - step
        if np.max(np.abs(step)) < policy.aberth_tol * (1.0 + np.max(np.abs(z))):
            break
    for _ in range(3):
        p, dp = _ref_horner(coeffs, z), _ref_horner(dcoeffs, z)
        ok = (dp != 0) & (np.abs(p) > 0)
        step = np.zeros_like(z)
        step[ok] = p[ok] / dp[ok]
        step = np.where(np.abs(step) < 1e-2 * (1 + np.abs(z)), step, 0.0)
        z = z - step
    return z[np.lexsort((z.imag, z.real))]


def _ref_fiber_row(p, t):
    """solve_fiber's clusters for one target, expanded by multiplicity."""
    roots = _ref_all_roots(p.shifted(t).coeffs)
    clusters = cluster_roots(roots, 1.0 + float(np.max(np.abs(roots))))
    return np.array([c for c, m in clusters for _ in range(m)])


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("coeffs", [
    [0.2, 0.0, 0.0, 1.0],                        # z^3 + 0.2
    [0.0, -1.0, 0.0, 1.0],                       # z^3 - z
    [0.3, -0.5, 0.1, 0.2, 1.0],                  # a quartic
    [0.1 + 0.2j, 0.3, -0.2, 0.1j, 0.5, 1.0],     # a complex quintic
])
def test_fiber_roots_rows_match_one_target_solves(coeffs):
    p = ComplexPoly(coeffs)
    rng = np.random.default_rng(11)
    targets = rng.normal(size=120) + 1j * rng.normal(size=120)
    rows = fiber_roots(p.coeffs, targets)
    assert rows.shape == (120, p.degree)
    for t, row in zip(targets, rows):
        assert _same_bits(row, _ref_fiber_row(p, t))
        expanded = [r for r, m in solve_fiber(p, t) for _ in range(m)]
        assert _same_bits(row, np.array(expanded))


def test_fiber_roots_critical_values_take_the_cluster_path():
    # z^3 + 0.2 has a triple root over t = 0.2; z^3 - z double roots over
    # its critical values +-2/(3 sqrt 3)
    cube = ComplexPoly([0.2, 0.0, 0.0, 1.0])
    rows = fiber_roots(cube.coeffs, [0.2, 1.0, 0.2])
    assert rows[0][0] == rows[0][1] == rows[0][2]
    assert abs(rows[0][0]) < 1e-5
    assert len(set(rows[1])) == 3
    assert _same_bits(rows[0], rows[2])
    assert _same_bits(rows[0], _ref_fiber_row(cube, 0.2))
    odd = ComplexPoly([0.0, -1.0, 0.0, 1.0])
    cv = 2.0 / (3.0 * np.sqrt(3.0))
    rows = fiber_roots(odd.coeffs, [cv, -cv, 0.5])
    for t, row in zip([cv, -cv, 0.5], rows):
        assert _same_bits(row, _ref_fiber_row(odd, t))
    assert [len(set(r)) for r in rows] == [2, 2, 3]


def test_fiber_roots_empty_targets():
    for coeffs in ([0.2, 0.0, 0.0, 1.0], [-2.0, 0.0, 1.0]):
        rows = fiber_roots(np.asarray(coeffs, dtype=complex), np.array([]))
        assert rows.shape == (0, len(coeffs) - 1)


def test_fiber_roots_closed_forms_for_low_degree():
    targets = np.array([0.5, -1.0 + 2.0j, 3.0])
    rows = fiber_roots(np.array([-1.0, 0.0, 1.0], dtype=complex), targets)
    assert _same_bits(rows, quadratic_roots_many(-1.0 - targets, 0.0, 1.0))
    line = fiber_roots(np.array([1.0, 2.0], dtype=complex), targets)
    assert np.allclose(line[:, 0], (targets - 1.0) / 2.0)


def test_fiber_roots_certificate_raises():
    tight = dataclasses.replace(DEFAULT, fiber_residual_tol=0.0)
    targets = np.array([0.1, 0.7 + 0.2j, -0.4j])
    with pytest.raises(SolverFailure) as info:
        fiber_roots(np.array([0.2, 0.0, 0.0, 1.0], dtype=complex), targets,
                    tight)
    assert info.value.worst_residual > 0.0


def test_degree_128_one_row_solve_unchanged():
    # the one-slice g_6 of q^2 + I: the largest solve the CLI makes
    g = gn_build(OneSlicePolynomial(ComplexPoly([1j, 0.0, 1.0]), UNIT_I),
                 6).restrict_to_slice(UNIT_I)
    assert g.degree == 128
    roots = all_roots(g.coeffs)
    assert _same_bits(roots, _ref_all_roots(g.coeffs))
    # the same polynomial in a batch spanning two row chunks
    targets = np.concatenate([[0.0], np.linspace(0.1, 0.3, 17), [0.0]])
    rows = fiber_roots(g.coeffs, targets)
    expanded = [r for r, m in solve_fiber(g, 0.0) for _ in range(m)]
    assert _same_bits(rows[0], np.array(expanded))
    assert _same_bits(rows[-1], rows[0])
