import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gn_refs import gn_build
from merge_refs import ref_cluster_roots, ref_merge_level
from roots_refs import ref_quadratic_roots_many
from qbrolin import roots as roots_module
from qbrolin.cdyn import solve_fiber
from qbrolin.errors import SolverFailure
from qbrolin.policy import ABERTH_MAX_ITER, ABERTH_TOL, FIBER_RESIDUAL_TOL
from qbrolin.poly import ComplexPoly
from qbrolin.roots import (all_roots, cluster_roots, fiber_roots,
                           newton_roots, quadratic_roots_many)


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


_TINY_PART = (st.sampled_from([0.0, 5e-324, -2.2e-311, 1e-309, -2e-308])
              | st.floats(-4, 4))
_TINY_COMPLEX = st.builds(complex, _TINY_PART, _TINY_PART)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TINY_COMPLEX | _TINY_PART, min_size=1, max_size=6),
       _TINY_COMPLEX, st.sampled_from([1.0, -0.5, 1j, 2.0 ** -60]))
@example([0.0], 2.2e-311, 1.0)
def test_quadratic_roots_many_at_a_subnormal_larger_root(c0s, c1, c2):
    # rows whose larger root qq is 0 or normal keep the former bits; at a
    # subnormal qq the former c0 / qq is NaN, and now the quotient's
    c0s = np.array(c0s, dtype=complex)
    with np.errstate(all="ignore"):
        got, want = quadratic_roots_many(c0s, c1, c2), \
            ref_quadratic_roots_many(c0s, c1, c2)
    disc = np.sqrt(c1 * c1 - 4.0 * c2 * c0s)
    qq = -(c1 + np.where((np.conj(c1) * disc).real >= 0, 1.0, -1.0) * disc) / 2
    sub = (qq != 0) & (np.abs(qq) < np.finfo(float).tiny)
    assert got[~sub].tobytes() == want[~sub].tobytes()
    assert got[sub, 0].tobytes() == want[sub, 0].tobytes()
    assert np.all(np.isfinite(got[sub]))
    scaled = got[sub, 1] * (qq[sub] * 2.0 ** 64)
    assert np.allclose(scaled, c0s[sub] * 2.0 ** 64, rtol=1e-15, atol=0.0)


def test_quadratic_with_a_subnormal_linear_term():
    # z^2 + 2.2e-311 z over 0: qq = -1.1e-311 (c1^2 underflows), c0 / qq is 0
    with np.errstate(all="ignore"):
        assert np.isnan(ref_quadratic_roots_many([0j], 2.2e-311, 1.0)).any()
    row = fiber_roots(np.array([0.0, 2.2e-311, 1.0], dtype=complex), [0.0])
    assert row.tolist() == [[-1.1e-311, 0j]]


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


def _ref_all_roots(coeffs):
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
    for _ in range(ABERTH_MAX_ITER):
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
        if np.max(np.abs(step)) < ABERTH_TOL * (1.0 + np.max(np.abs(z))):
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
    """solve_fiber's clusters for one target, expanded by multiplicity, from
    the former solver and the former clustering."""
    roots = _ref_all_roots(p.shifted(t).coeffs)
    clusters = ref_cluster_roots(roots, 1.0 + float(np.max(np.abs(roots))))
    return np.array([c for c, m in clusters for _ in range(m)])


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _one_target_rows(p, targets):
    """fiber_roots over each target alone, stacked."""
    return np.array([fiber_roots(p.coeffs, [t])[0] for t in targets])


@pytest.mark.parametrize("coeffs", [
    [0.2, 0.0, 0.0, 1.0],                        # z^3 + 0.2
    [0.0, -1.0, 0.0, 1.0],                       # z^3 - z
    [0.3, -0.5, 0.1, 0.2, 1.0],                  # a quartic
    [0.1 + 0.2j, 0.3, -0.2, 0.1j, 0.5, 1.0],     # a complex quintic
    [0.2, 0.0, 0.0, 0.0, 1.0],                   # z^4 + 0.2
    [0.0, -1.0, 0.0, 0.0, 1.0],                  # z^4 - z
])
def test_fiber_roots_rows_match_one_target_solves(coeffs):
    p = ComplexPoly(coeffs)
    rng = np.random.default_rng(11)
    targets = rng.normal(size=120) + 1j * rng.normal(size=120)
    rows = fiber_roots(p.coeffs, targets)
    assert rows.shape == (120, p.degree)
    assert _same_bits(rows, _one_target_rows(p, targets))
    for t, row in zip(targets, rows):
        if p.degree == 3:
            # cubic rows are Cardano's closed form, not the scalar Aberth
            ref = np.roots(p.shifted(t).coeffs[::-1])
            assert np.allclose(row, ref[np.lexsort((ref.imag, ref.real))],
                               rtol=1e-12, atol=1e-12)
        else:
            assert _same_bits(row, _ref_fiber_row(p, t))
        expanded = [r for r, m in solve_fiber(p, t) for _ in range(m)]
        assert _same_bits(row, np.array(expanded))


def test_fiber_roots_critical_values_take_the_cluster_path():
    # z^3 + 0.2 has a triple root over t = 0.2; z^3 - z double roots over
    # its critical values +-2/(3 sqrt 3). Their quartic analogues z^4 + 0.2
    # (a quadruple root) and z^4 - z (three critical values) keep batched
    # Aberth rows against the scalar reference
    cube = ComplexPoly([0.2, 0.0, 0.0, 1.0])
    rows = fiber_roots(cube.coeffs, [0.2, 1.0, 0.2])
    assert rows[0][0] == rows[0][1] == rows[0][2]
    assert abs(rows[0][0]) < 1e-5
    assert len(set(rows[1])) == 3
    assert _same_bits(rows[0], rows[2])
    assert _same_bits(rows, _one_target_rows(cube, [0.2, 1.0, 0.2]))
    odd = ComplexPoly([0.0, -1.0, 0.0, 1.0])
    cv = 2.0 / (3.0 * np.sqrt(3.0))
    rows = fiber_roots(odd.coeffs, [cv, -cv, 0.5])
    assert _same_bits(rows, _one_target_rows(odd, [cv, -cv, 0.5]))
    assert [len(set(r)) for r in rows] == [2, 2, 3]
    quartic = ComplexPoly([0.2, 0.0, 0.0, 0.0, 1.0])
    rows = fiber_roots(quartic.coeffs, [0.2, 1.0, 0.2])
    assert len(set(rows[0])) == 1 and abs(rows[0][0]) < 1e-5
    assert len(set(rows[1])) == 4
    assert _same_bits(rows[0], rows[2])
    assert _same_bits(rows[0], _ref_fiber_row(quartic, 0.2))
    odd = ComplexPoly([0.0, -1.0, 0.0, 0.0, 1.0])
    crit = 4.0 ** (-1.0 / 3.0) * np.exp(2j * np.pi * np.arange(3) / 3)
    targets = [*(crit ** 4 - crit), 0.5]
    rows = fiber_roots(odd.coeffs, targets)
    for t, row in zip(targets, rows):
        assert _same_bits(row, _ref_fiber_row(odd, t))
    assert [len(set(r)) for r in rows] == [3, 3, 3, 4]


# -- cubic rows in closed form against two oracles ----------------------------

@st.composite
def _cubic(draw):
    """c3 (z - r1)(z - r2)(z - r3) with roots of modulus 1e-2 .. 1e4 (the
    leading coefficient down to 1e-4 of the others), a repeated root at
    times, and c3 of modulus 1e-2 .. 1e2: (coefficients, drawn roots)."""
    def point(exp_lo, exp_hi):
        mod = 10.0 ** draw(st.floats(exp_lo, exp_hi))
        return mod * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
    roots = [point(-2, 4) for _ in range(3)]
    roots[1] = draw(st.sampled_from([roots[1], roots[0]]))
    return _poly_from_roots(roots) * point(-2, 2), np.array(roots)


@settings(max_examples=300, deadline=None)
@given(_cubic())
def test_cubic_rows_certify_and_match_two_oracles(cubic):
    coeffs, drawn = cubic
    z = roots_module._certified_rows(coeffs, coeffs[:1])[0]
    assert _same_bits(fiber_roots(coeffs, [0.0])[0],
                      roots_module._clustered(z[None])[0])
    scale = 1.0 + np.abs(drawn)
    gaps = np.abs(drawn[:, None] - drawn[None, :]) + np.diag([np.inf] * 3)
    if np.min(gaps / scale) < 1e-3:
        return   # a repeated or close pair: no root-by-root match
    oracle = np.roots(coeffs[::-1])
    for ref in (drawn, oracle):
        near = np.min(np.abs(z[:, None] - ref[None, :]), axis=1)
        assert np.all(near <= 1e-10 * (1.0 + np.abs(z)))


# -- conjugation-exact closed forms ------------------------------------------

def _conj_bytes(row):
    """The sorted bytes of conj(row), and of row; + 0.0 clears the sign of a
    zero imaginary part, which conjugation flips."""
    return (np.sort_complex(np.conj(row) + 0.0).tobytes(),
            np.sort_complex(row + 0.0).tobytes())


def _aberth_row(coeffs, target):
    """Whether fiber_roots solves the row of target by Aberth, which is not
    conjugation-exact: a cubic row the closed form does not certify (past
    roots of about 1e100, or a NaN Vieta pair from a subnormal z1)."""
    if len(coeffs) != 4:
        return False
    col = np.array([[coeffs[0] - complex(target)]])
    with np.errstate(all="ignore"):
        z = roots_module._closed_form(coeffs, col[:, 0])
        worst = roots_module._backward_error(coeffs, col, z)[0]
    return not worst <= FIBER_RESIDUAL_TOL


# parts draw subnormals too, where quadratic_roots_many's c0 / qq was NaN (its
# larger root qq subnormal) before it scaled the division, and where a tiny
# imaginary part puts a cubic row on a branch cut, whose side the sign of
# c0's zero imaginary part picks
_PART = (st.floats(-4, 4)
         | st.sampled_from([5e-324, -2.2e-311, 1e-309, -2e-308, 1e-160]))
_REAL = _PART | st.integers(-4, 4).map(float)
_COMPLEX = st.builds(complex, _PART, _PART)


@settings(max_examples=500, deadline=None)
@given(st.lists(_REAL, min_size=2, max_size=3), st.sampled_from([1.0, -0.5, 3.0]),
       st.lists(_REAL, min_size=1, max_size=8))
# a triple root at 0 the former greedy clusters split about the real axis
@example([0.0, 1e-14, 1e-14], 1.0, [0.0])
def test_real_rows_over_real_targets_equal_their_conjugates(low, lead, targets):
    # a real quadratic or cubic: each row is exactly real roots and exact
    # conjugate pairs, integer coefficients giving multiple roots at times
    coeffs = np.array(low + [lead], dtype=complex)
    for t, row in zip(targets, fiber_roots(coeffs, targets)):
        got, want = _conj_bytes(row)
        assert got == want or _aberth_row(coeffs, t)


@settings(max_examples=500, deadline=None)
@given(st.lists(_COMPLEX, min_size=2, max_size=3),
       st.sampled_from([1.0, -0.5, 1j]), st.lists(_COMPLEX, min_size=1,
                                                   max_size=8))
@example([0.3 + 0.5j, 0.0, 0.0], 1.0, [0.2, 0.25 + 0.1j])   # z^3 + c
@example([-1.0, 0.0], 1.0, [0.3 + 0.7j])   # a real map at complex targets
@example([0.0, 1 + 5e-324j, 0.0], 1.0, [0j])   # c0 on a branch cut
@example([-1.0, 0.0, 9.5e-167 + 6.5e-309j], -0.5, [0j])
def test_rows_at_conjugate_targets_are_conjugate(low, lead, targets):
    # P^c's row of conj t is conj of P's row of t, as multisets bit for bit
    coeffs = np.array(low + [lead], dtype=complex)
    rows = fiber_roots(coeffs, targets)
    mirror = fiber_roots(np.conj(coeffs), np.conj(targets))
    for t, row, other in zip(targets, rows, mirror):
        assert (_conj_bytes(row)[0] == _conj_bytes(other)[1]
                or _aberth_row(coeffs, t))


def test_cubic_with_a_tiny_leading_coefficient():
    # roots 1e-3 .. 3.5e7: Cardano's three roots put the two small ones
    # 0.06 off; taken from Vieta's relations with the large root they match
    coeffs = np.array([-5.82, -2098.7, 4301.6, -1.23e-4], dtype=complex)
    z = all_roots(coeffs)
    oracle = np.sort_complex(np.roots(coeffs[::-1]))
    assert np.all(np.abs(z - oracle) <= 1e-10 * (1.0 + np.abs(z)))
    # the two small roots lie within the cluster radius of a 3.5e7 row
    assert solve_fiber(ComplexPoly(coeffs), 0.0) == [(np.mean(z[:2]), 2),
                                                     (z[2] + 0.0, 1)]


def test_cubic_clusters_at_critical_values():
    # z^3 + 0.2 over 0.2 is z^3: u = 0, the row is exactly 0
    row = fiber_roots(np.array([0.2, 0.0, 0.0, 1.0], dtype=complex), [0.2])
    assert row.tolist() == [[0j, 0j, 0j]]
    assert not np.signbit(row.view(float)).any()
    odd = ComplexPoly([0.0, -1.0, 0.0, 1.0])
    cv = 2.0 / (3.0 * np.sqrt(3.0))
    fibers = [solve_fiber(odd, t) for t in (cv, -cv, 0.5)]
    assert [len(f) for f in fibers] == [2, 2, 3]
    assert [sorted(m for _, m in f) for f in fibers] == [[1, 2], [1, 2],
                                                         [1, 1, 1]]
    for t, f in zip((cv, -cv), fibers):
        double = [r for r, m in f if m == 2][0]
        assert abs(double + np.sign(t) / np.sqrt(3.0)) < 1e-7


def test_cubic_rows_past_the_formula_take_the_aberth_solve():
    # z^3 = 1e300: h^2 overflows in Cardano's formula, so that row alone is
    # solved by Aberth, bit for bit the scalar reference; the row beside it
    # is the closed form
    cube = ComplexPoly([0.0, 0.0, 0.0, 1.0])
    rows = fiber_roots(cube.coeffs, [1e300, 8.0])
    assert _same_bits(rows[0], _ref_fiber_row(cube, 1e300))
    assert np.allclose(np.abs(rows[0]), 1e100, rtol=1e-12)
    assert np.allclose(rows[1] ** 3, 8.0, rtol=1e-14)
    assert len(set(rows[1])) == 3
    assert not _same_bits(rows[1], _ref_fiber_row(cube, 8.0))


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


def test_fiber_roots_certificate_raises(monkeypatch):
    monkeypatch.setattr(roots_module, "FIBER_RESIDUAL_TOL", 0.0)
    targets = np.array([0.1, 0.7 + 0.2j, -0.4j])
    with pytest.raises(SolverFailure) as info:
        fiber_roots(np.array([0.2, 0.0, 0.0, 1.0], dtype=complex), targets)
    assert info.value.worst_residual > 0.0


def test_degree_128_one_row_solve_unchanged():
    # the expanded one-slice g_6 of q^2 + I: a degree-128 solve on one row
    g = gn_build(ComplexPoly([1j, 0.0, 1.0]), 6).restrict_to_slice()
    assert g.degree == 128
    roots = all_roots(g.coeffs)
    assert _same_bits(roots, _ref_all_roots(g.coeffs))
    # the same polynomial in a batch spanning two row chunks
    targets = np.concatenate([[0.0], np.linspace(0.1, 0.3, 17), [0.0]])
    rows = fiber_roots(g.coeffs, targets)
    expanded = [r for r, m in solve_fiber(g, 0.0) for _ in range(m)]
    assert _same_bits(rows[0], np.array(expanded))
    assert _same_bits(rows[-1], rows[0])


def test_blocked_solves_are_bit_for_bit_the_unblocked_ones(monkeypatch):
    # _BLOCK bounds the pairwise temporaries of the repulsion and of the
    # cluster test; every sum over j is the same reduction in any block
    from qbrolin.slicecases import _gn_newton, _gn_start
    P = ComplexPoly([1j, 0.0, 1.0])
    start, newton = _gn_start(P, 6), _gn_newton(P, 0.3, 6)
    cube = np.array([0.2, 0.0, 0.0, 1.0], dtype=complex)
    targets = np.linspace(-1.0, 1.0, 40) + 0.5j
    whole = (newton_roots(start, newton), fiber_roots(cube, targets))
    assert roots_module._block_width(start[None]) >= len(start)
    for block in (1, 7, 1000):
        monkeypatch.setattr(roots_module, "_BLOCK", block)
        assert roots_module._block_width(start[None]) < len(start)
        assert _same_bits(newton_roots(start, newton), whole[0])
        assert _same_bits(fiber_roots(cube, targets), whole[1])


def test_crowded_start_points_are_spread_apart():
    # the iteration does not split coinciding points (its steps can just
    # swap them): two roots would be lost silently
    newton = lambda w: ((w - 1) * (w - 2) * (w + 1),
                        3 * w ** 2 - 4 * w - 1)
    want = np.array([-1.0, 1.0, 2.0])
    for start in ([0.5, 1.5, 3.0], [0.5, 0.5 + 1e-13, 3.0], [0.5, 0.5, 0.5]):
        assert np.allclose(newton_roots(start, newton), want,
                           rtol=0, atol=1e-14)
    spread = roots_module._spread_crowded(np.array([0.5, 0.5, 0.5, 3.0 + 0j]))
    assert spread[3] == 3.0
    assert np.allclose(np.abs(spread[:3] - 0.5), 1.5e-3, rtol=1e-12)
    # the copies of a double root in the start come back as one cluster
    newton = lambda w: ((w - 1) ** 2 * (w + 1), (w - 1) * (3 * w + 1))
    roots = newton_roots([1.0, 1.0, -1.0], newton)
    assert roots[1] == roots[2]
    assert np.allclose(roots, [-1.0, 1.0, 1.0], rtol=0, atol=1e-8)


# -- cluster_roots against the greedy disc it replaced ----------------------

_NEAR = 1.5e-8   # offsets inside a cluster: every pair within tol/2 (tol >= 1e-7)
_GRID = 0.125    # cluster sites lie on this lattice: other pairs >= 2 tol apart


@st.composite
def _separated(draw):
    """Clusters of exact duplicates and near copies around lattice sites in
    [-2, 2]^2, in random order: conjugate sites tie in real part, and all
    sites may share one column (equal real parts)."""
    sites = draw(st.lists(st.tuples(st.integers(-16, 16), st.integers(-16, 16)),
                          min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        sites = list(dict.fromkeys((sites[0][0], j) for _, j in sites))
    if draw(st.booleans()):
        sites = list(dict.fromkeys(sites + [(i, -j) for i, j in sites]))
    near = st.floats(-_NEAR, _NEAR)
    points = []
    for i, j in sites:
        z = complex(i * _GRID, j * _GRID)
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                points.append(z)
            else:
                points.append(z + complex(draw(near), draw(near)))
    order = draw(st.permutations(range(len(points))))
    return np.array([points[k] for k in order])


@settings(max_examples=200, deadline=None)
@given(_separated())
def test_cluster_roots_matches_former_cluster_roots(points):
    scale = 1.0 + float(np.max(np.abs(points)))
    got, want = cluster_roots(points, scale), ref_cluster_roots(points, scale)
    assert [m for _, m in got] == [m for _, m in want]
    assert _same_bits(np.array([c for c, _ in got]),
                      np.array([c for c, _ in want]))


def test_double_roots_of_a_real_g5_form_32_clusters():
    # g_5 = (P^5)^2 for P = z^2 - 0.12: every root of P^5 is double, and
    # conjugate roots tie in real part, so a run of consecutive roots within
    # a disc splits pairs (50 runs); the box rule keeps all 32
    g = gn_build(ComplexPoly([-0.12, 0.0, 1.0]), 5).restrict_to_slice()
    roots = all_roots(g.coeffs)
    scale = 1.0 + float(np.max(np.abs(roots)))
    assert [m for _, m in cluster_roots(roots, scale)] == [2] * 32
    assert [m for _, m in solve_fiber(g, 0.0)] == [2] * 32
    assert len(ref_merge_level(roots, np.ones(64, int), scale)[0]) == 50


@st.composite
def _crowded(draw):
    """Points a few radii apart on a lattice of step 0.1 (so differences
    round either side of the radius): long runs, columns of equal real
    part, windows that span columns, duplicates."""
    n = draw(st.integers(0, 60))
    cells = st.integers(0, draw(st.integers(0, 12)))
    points = [complex(draw(cells), draw(cells)) * 0.1 for _ in range(n)]
    tol = draw(st.sampled_from([0.0, 0.1, 0.15, 0.2, 0.3, 1.2]))
    return np.array(points, dtype=complex), tol


def _partition(points, tol):
    """_components' clusters, as a set of sets of input positions."""
    order, head = roots_module._components(points, tol)
    clusters = {}
    for pos, h in zip(order.tolist(), head.tolist()):
        clusters.setdefault(h, set()).add(pos)
    return {frozenset(c) for c in clusters.values()}


def _union_find_partition(points, tol):
    """Every pair within tol in real and in imaginary part, joined by a
    plain union-find on floats."""
    pts = [(float(v.real), float(v.imag)) for v in points]
    parent = list(range(len(pts)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a
    for a, (xa, ya) in enumerate(pts):
        for b, (xb, yb) in enumerate(pts[:a]):
            if abs(xa - xb) <= tol and abs(ya - yb) <= tol:
                parent[find(a)] = find(b)
    clusters = {}
    for a in range(len(pts)):
        clusters.setdefault(find(a), set()).add(a)
    return {frozenset(c) for c in clusters.values()}


@settings(max_examples=300, deadline=None)
@given(_crowded(), st.randoms(use_true_random=False))
def test_components_are_order_free_and_conjugation_symmetric(cloud, rnd):
    points, tol = cloud
    want = _union_find_partition(points, tol)
    assert _partition(points, tol) == want
    perm = list(range(len(points)))
    rnd.shuffle(perm)
    shuffled = _partition(points[perm], tol)
    assert {frozenset(perm[k] for k in c) for c in shuffled} == want
    assert _partition(np.conj(points), tol) == want
