import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from gn_refs import gn_build
from qbrolin import roots as roots_module
from qbrolin.cdyn import is_exceptional, preimage_tree
from qbrolin.errors import (BudgetExceeded, ExceptionalTarget,
                            InvariantViolation, ProbeOnFiber, SolverFailure)
from qbrolin.measures import measure_from_complex_atoms, weak_distance
from qbrolin.poly import ComplexPoly, QPolynomial
from qbrolin.policy import CLUSTER_TOL
from qbrolin.quat import sphere_quadrature
from qbrolin.roots import all_roots, fiber_roots, newton_roots
from qbrolin.slicecases import (_g1, _gn_fiber, _gn_newton, _gn_start,
                                _realify, annulus_probes, brolin3_gap,
                                gn_pullback_measure, hn_build,
                                mu_prime_estimate)
from quat_refs import Quaternion, ref_lift

P_I = ComplexPoly([1j, 0.0, 1.0])                                # q^2 + i
P_J = QPolynomial(np.array([[0.0, 0, 1, 0], [0, 0, 0, 0],
                            [1, 0, 0, 0]]))                      # q^2 + j


def test_one_slice_flags():
    # _gn_fiber routes on is_real; mu' pulls back through P and P^c
    assert not P_I.is_real()
    assert ComplexPoly([-2.0, 0.0, 1.0]).is_real()
    assert np.allclose(P_I.conj_coeffs().coeffs, [-1j, 0.0, 1.0])


def test_g1_closed_form():
    # (q^2 + i)^s = (q^2 - i) * (q^2 + i) = q^4 + 1
    g1 = gn_build(P_I, 1)
    assert g1.coeffs[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0, 1.0]
    assert g1.has_real_coeffs()


def test_gn_degree_and_realness():
    for n in (2, 3, 4):
        g = gn_build(P_I, n)
        assert g.degree == 2 * 2 ** n
        assert g.has_real_coeffs()


def test_gn_real_coeff_shortcut():
    real = ComplexPoly([-2.0, 0.0, 1.0])
    g2 = gn_build(real, 2)
    p2 = ComplexPoly([-2.0, 0.0, 1.0]).iterate_poly(2)
    z = 0.37 + 0.0j
    assert g2.restrict_to_slice()(z) == pytest.approx(p2(z) ** 2, rel=1e-12)


def test_gn_is_not_an_iteration_semigroup():
    # g_{n+1} != g_1 o g_n: symmetrization does not commute with composition
    g1 = gn_build(P_I, 1).restrict_to_slice()
    g2 = gn_build(P_I, 2).restrict_to_slice()
    composed = g1.compose(g1)
    assert composed.degree == g2.degree * 2
    assert abs(composed(0.5) - g2(0.5)) > 0.1


def test_gn_budget():
    # d^n = 8192 > DEGREE_BUDGET: both one-slice functions refuse depth 13
    # in preimage_tree, before any tree level is solved
    with pytest.raises(BudgetExceeded):
        gn_pullback_measure(P_I, 0.3, 13)
    with pytest.raises(BudgetExceeded):
        mu_prime_estimate(P_I, 13)


def test_an_exceptional_target_is_refused_before_the_budget():
    # g_1 of I q^2 is q^4, exceptional at 0: the screen runs first, so
    # depth 13 (over budget) is refused as exceptional too
    P = ComplexPoly([0.0, 0.0, 1j])
    for n in (2, 13):
        with pytest.raises(ExceptionalTarget):
            gn_pullback_measure(P, 0.0, n)
        with pytest.raises(ExceptionalTarget):
            mu_prime_estimate(P, n)


# P = 0.5 + i (z - 0.5)^2: 0.5 is P's exceptional point (its only
# preimage), but not g_1's, and mu' takes its tree under P
P_EXC_HALF = ComplexPoly([0.5 + 0.25j, -1j, 1j])


def test_mu_prime_refuses_a_target_exceptional_for_p():
    # it once screened g_1 alone and returned one real point of weight 1
    assert not is_exceptional(_g1(P_EXC_HALF), 0.5)
    with pytest.raises(ExceptionalTarget):
        mu_prime_estimate(P_EXC_HALF, 6, 0.5)


def test_gn_pullback_measure_refuses_a_target_exceptional_for_p():
    # it once screened g_1 alone, and the composition solve then failed its
    # Newton-distance check (worst residual inf) without naming the target
    with pytest.raises(ExceptionalTarget, match="exceptional for P"):
        gn_pullback_measure(P_EXC_HALF, 0.5, 6)


def test_one_slice_functions_build_no_expanded_iterate(monkeypatch):
    # both run on ComplexPoly alone: no QPolynomial, no expanded P^n
    def refuse(*args):
        raise AssertionError("expanded-coefficient path taken")
    monkeypatch.setattr(QPolynomial, "__init__", refuse)
    monkeypatch.setattr(ComplexPoly, "iterate_poly", refuse)
    for P in (P_I, ComplexPoly([-1.0, 0.0, 1.0])):
        for a in (0.0, 0.3):
            mu_prime_estimate(P, 4, a)
            gn_pullback_measure(P, a, 4)


# P of degree 2-4 with coefficients of modulus at most 2 (the leading one
# not tiny), or exactly c z^d, whose g_1 = |c|^2 z^(2d) is exceptional at 0
_lead = st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0)
_slice_poly = st.one_of(
    st.builds(lambda lower, lead: ComplexPoly([*lower, lead]),
              st.lists(st.complex_numbers(max_magnitude=2.0), min_size=2,
                       max_size=4), _lead),
    st.builds(lambda d, lead: ComplexPoly([0.0] * d + [lead]),
              st.integers(2, 4), _lead))


def _screen(g1_of, pc, a):
    try:
        return is_exceptional(g1_of(pc), a)
    except InvariantViolation:
        return "refused"


@settings(max_examples=200, deadline=None)
@given(_slice_poly, st.sampled_from([0.0, 0.3, -0.5, 1.0]) | st.floats(-3, 3))
@example(ComplexPoly([0.0, 0.0, 1j]), 0.0)
@example(ComplexPoly([0.0, 0.0, 0.0, 0.6 - 0.8j]), 0.0)
def test_g1_convolution_screen_matches_the_expanded_g1(pc, a):
    # g_1 = P^c P by one convolution against the lifted, star-symmetrized
    # g_1 of gn_build: same coefficients to rounding, same screening
    def expanded(p):
        return gn_build(p, 1).restrict_to_slice()
    assert _screen(_g1, pc, a) == _screen(expanded, pc, a)
    want = expanded(pc).coeffs
    assert (np.max(np.abs(_g1(pc).coeffs - want))
            <= 1e-14 * np.sum(np.abs(want)))


def test_h1_closed_form():
    # (q^2 + j)^s = q^4 + 1 as well
    h1 = hn_build(P_J, 1)
    assert h1.coeffs[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0, 1.0]


def test_hn_degree_law():
    for n in (2, 3, 5):
        hn = hn_build(P_J, n)
        assert hn.degree == 2 * 2 ** n
        assert hn.has_real_coeffs()


def test_hn_matches_gn_for_one_slice_input():
    # coefficients in one slice commute, so the bullet iterate restricts to
    # the ordinary slice iterate and h_n = g_n
    p_i = QPolynomial(ref_lift(P_I.coeffs))
    for n in (1, 2, 3):
        hn = hn_build(p_i, n).restrict_to_slice()
        gn = gn_build(P_I, n).restrict_to_slice()
        assert np.allclose(hn.coeffs, gn.coeffs, atol=1e-9)


def test_degree_checks_raise_invariant_violation(monkeypatch):
    # the builders check the iterate's degree with a typed error, which
    # python -O keeps (it strips assert statements)
    monkeypatch.setattr(QPolynomial, "bullet_compose", lambda self, q: q)
    with pytest.raises(InvariantViolation):
        hn_build(P_J, 3)
    # g_1 of 1e-300 I q^2: the leading coefficient underflows to 0
    with pytest.raises(InvariantViolation):
        _g1(ComplexPoly([0.0, 0.0, 1e-300j]))


def test_annulus_probes():
    probes = annulus_probes()
    assert len(probes) >= 100
    for z in probes:
        assert 1.1 - 1e-12 <= abs(z) <= 1.4 + 1e-12
        assert z.imag > 0


def test_brolin3_gap_basics():
    assert brolin3_gap(P_J, 0.3, 0.3, 4) == 0.0
    g5 = brolin3_gap(P_J, 0.0, 1.0, 5)
    g3 = brolin3_gap(P_J, 0.0, 1.0, 3)
    assert 0.0 <= g5 < g3


def _exact_gap_qj(n, probes):
    """The gap of brolin3_gap(q^2 + j, 0, 1, n) in exact arithmetic: h_n
    from integer quaternion star products (F <- F * F + j from F = q, then
    F^c * F), evaluated at each dyadic probe z = w / 2^k as the Gaussian
    integer 2^(k D) h_n(z) by Horner; the log ratio of two exact integers
    is rounded once."""
    def star(f, g):
        out = [Quaternion(0, 0, 0, 0)] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for k, y in enumerate(g):
                out[i + k] = out[i + k] + x * y
        return out
    f = [Quaternion(0, 0, 0, 0), Quaternion(1, 0, 0, 0)]
    for _ in range(n):
        f = star(f, f)
        f[0] = f[0] + Quaternion(0, 0, 1, 0)
    h = star([x.conj() for x in f], f)
    assert all(x.x == x.y == x.z == 0 for x in h)
    gap = 0.0
    for z in probes:
        (xr, dr), (xi, di) = (float(z.real).as_integer_ratio(),
                              float(z.imag).as_integer_ratio())
        den = max(dr, di)
        x, y = xr * (den // dr), xi * (den // di)
        re, im = h[-1].w, 0
        for m in range(len(h) - 2, -1, -1):
            re, im = (re * x - im * y + h[m].w * den ** (len(h) - 1 - m),
                      re * y + im * x)
        scale = den ** (len(h) - 1)             # h_n(z) = (re + i im) / scale
        na, nb = re * re + im * im, (re - scale) ** 2 + im * im
        gap = max(gap, abs(math.log1p(Fraction(na - nb, nb))) / 2 / 2 ** n)
    return gap


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_brolin3_gap_matches_exact_arithmetic(n):
    # q^2 + j has integer coefficients: the float h_n is held to the exact
    # gap, window fixed before running (criterion 11's n <= 5 readings)
    probes = annulus_probes()
    assert brolin3_gap(P_J, 0.0, 1.0, n) == pytest.approx(
        _exact_gap_qj(n, probes), rel=1e-9, abs=0)


def test_brolin3_gap_probe_on_fiber():
    # h_1 = q^4 + 1 sends q = 1 to 2; with a = 2 the only probe is on a fiber
    with pytest.raises(ProbeOnFiber):
        brolin3_gap(P_J, 2.0, 3.0, 1, probe_points=[1.0 + 0j])


def test_non_finite_h_n_is_refused():
    # a NaN gap was once dropped by max and a NaN coefficient let through
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvariantViolation):   # h_1(1e200) overflows
            brolin3_gap(P_J, 0.0, 1.0, 1, probe_points=[0.5j, 1e200 + 0j])
    with pytest.raises(InvariantViolation):
        _realify(QPolynomial.from_real([np.nan, 1.0]), 1.0)


def test_gn_pullback_measure_atoms():
    # g_1 = q^4 + 1 above 0: roots of q^4 = -1, two conjugate sphere pairs
    m = gn_pullback_measure(P_I, 0.0, 1)
    assert m.total_mass() == pytest.approx(1.0, abs=1e-9)
    alpha, rho, w = m.alpha, m.rho, m.weight
    assert np.allclose(np.sort(alpha), [-2 ** -0.5, 2 ** -0.5], atol=1e-12)
    assert np.allclose(rho, 2 ** -0.5, atol=1e-12)
    assert np.allclose(w, 0.5)


def test_mu_prime_mass_and_distance():
    m = mu_prime_estimate(P_I, 4)
    assert m.total_mass() == pytest.approx(1.0, abs=1e-9)
    mg = gn_pullback_measure(P_I, 0.0, 4)
    assert weak_distance(m, mg) < 0.05


def test_mu_prime_collapses_for_real_coeffs():
    # with real coefficients both conjugate halves coincide with nu_n
    from qbrolin.measures import brolin_pullback
    real = ComplexPoly([-2.0, 0.0, 1.0])
    m = mu_prime_estimate(real, 5)
    nu = brolin_pullback(QPolynomial.from_real([-2.0, 0.0, 1.0]), 0.0, 5)
    assert weak_distance(m, nu) < 0.02


def _former_mu_prime(P, quad_weights, n):
    """The former estimator, unbinned: the trees of 0 under P and P^c once
    per quadrature unit J, at weight w_J / (2 d^n sum w), folded."""
    points, weights = [], []
    for wj in quad_weights:
        for half in (P, P.conj_coeffs()):
            tree = preimage_tree(half, 0j, n)
            points.extend(tree)
            weights.extend([wj / 2.0 ** n / (2.0 * sum(quad_weights))]
                           * len(tree))
    return measure_from_complex_atoms(points, weights)


@pytest.mark.parametrize("c", [1j, 0.3 + 0.5j, -0.8 + 0.2j])
def test_mu_prime_matches_the_per_unit_loop(c):
    P = ComplexPoly([c, 0.0, 1.0])
    got = mu_prime_estimate(P, 6)
    want = _former_mu_prime(P, sphere_quadrature(3)[1], 6)
    assert len(got) == len(want)
    assert np.allclose(got.alpha, want.alpha, rtol=0, atol=1e-14)
    assert np.allclose(got.rho, want.rho, rtol=0, atol=1e-14)
    assert np.allclose(got.weight, want.weight, rtol=0, atol=1e-16)



def _generic_poly(seed, d):
    """P of degree d with full-mantissa coefficients, |Re|, |Im| <= 2."""
    rng = np.random.default_rng(seed)
    return ComplexPoly(rng.uniform(-2, 2, d + 1)
                       + 1j * rng.uniform(-2, 2, d + 1))


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.builds(lambda c: ComplexPoly([c, 0.0, 1.0]),
              st.complex_numbers(max_magnitude=2.0)),
    st.builds(_generic_poly, st.integers(0, 2 ** 32 - 1),
              st.sampled_from([2, 3]))),
    st.floats(-2, 2), st.integers(1, 4))
def test_the_conjugate_map_has_the_conjugate_tree(pc, a, n):
    # mu' folds one tree: for real a the tree under P^c is conj of the tree
    # under P, bit for bit but for the sign of a zero imaginary part (the
    # closed-form quadratic rows for q^2 + c, Cardano rows for generic
    # cubics; the test below has the cubics where it fails)
    want = np.conj(preimage_tree(pc, a, n))
    got = preimage_tree(pc.conj_coeffs(), a, n)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("coeffs, a", [
    ([0.3 + 0.5j, 0.0, 0.0, 1.0], 0.2),
    ([-0.1 + 1e-200j, -1.0, 0.0, 1.0], 0.3)])
def test_cardano_ties_give_conjugate_trees_exactly(coeffs, a):
    # Cardano's z1 is the largest of three candidates, which for z^3 + c
    # have one modulus (and for a real-up-to-1e-200 cubic come as a pair of
    # one modulus), and conjugation swaps the columns it picks from. A row
    # whose data lie in the lower half is solved conjugated, so the P^c tree
    # is conj of the P tree as a multiset, bit for bit
    P = ComplexPoly(coeffs)
    got = preimage_tree(P.conj_coeffs(), a, 5)
    want = np.conj(preimage_tree(P, a, 5))
    assert np.sort_complex(got + 0.0).tobytes() == np.sort_complex(
        want + 0.0).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_g_n_fiber_of_0_is_closed_under_conjugation(n):
    # z^3 + c: the P^c tree is read as conj of the P tree, never solved
    # (its solve is the same multiset since conjugate rows are exact, test
    # above)
    c = -0.22580225758741745 - 0.09200826123290917j
    fiber = _gn_fiber(ComplexPoly([c, 0.0, 0.0, 1.0]), 0.0, n)
    assert len(fiber) == 2 * 3 ** n and np.all(fiber.imag != 0)
    assert np.sort_complex(fiber).tobytes() == np.sort_complex(
        np.conj(fiber)).tobytes()


def test_depth_8_mu_prime_is_the_g8_fiber_of_0():
    # unbinned: 256 sphere atoms (the former 1/128 grid merged them into
    # 230), and at a = 0 the g_8 fiber (both trees, half weight) atom for atom
    m = mu_prime_estimate(P_I, 8)
    assert len(m) == 256 and np.all(m.rho > 0)
    g = gn_pullback_measure(P_I, 0.0, 8)
    for x in ("alpha", "rho", "weight"):
        assert np.array_equal(getattr(m, x), getattr(g, x))


# -- the g_n fiber by composition ---------------------------------------------

def _same_atoms(m, want, tol):
    """The folded points of two fiber measures, each atom repeated by its
    weight in units of the smallest weight of either, matched one to one
    within tol in (alpha, rho). Atoms are compared as points: measures join
    equal points only, so a fiber whose conjugate roots are not exact pairs
    has more atoms than one whose are."""
    unit = min(m.weight.min(), want.weight.min())
    points = []
    for x in (m, want):
        counts = x.weight / unit
        assert np.allclose(counts, np.rint(counts), rtol=1e-12, atol=0)
        points.append(np.repeat(x.alpha + 1j * x.rho,
                                np.rint(counts).astype(int)))
    assert len(points[0]) == len(points[1])
    dist = np.abs(points[0][:, None] - points[1][None, :])
    rows, cols = linear_sum_assignment(dist)
    assert np.max(dist[rows, cols]) <= tol


def _expanded_fiber(P, a, n):
    """The former solve: fiber_roots on g_n's 2 d^n expanded coefficients."""
    return fiber_roots(gn_build(P, n).restrict_to_slice().coeffs, [a])[0]


def _match_distance(a, b):
    """Largest distance in the closest one-to-one matching of two root sets."""
    dist = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(dist)
    return float(np.max(dist[rows, cols]))


@pytest.mark.parametrize("c", [1j, -0.3 + 0.6j])
def test_depth_7_fiber_of_0_is_the_two_trees(c):
    # g_n = P^n (P^c)^n on C_I: its zeros are the depth-n trees of 0 under
    # P and P^c (the expanded degree-256 solve missed them by up to 0.5)
    P = ComplexPoly([c, 0.0, 1.0])
    trees = np.concatenate([preimage_tree(P, 0.0, 7),
                            preimage_tree(P.conj_coeffs(), 0.0, 7)])
    want = measure_from_complex_atoms(trees, np.full(256, 1.0 / 256))
    _same_atoms(gn_pullback_measure(P, 0.0, 7), want, 1e-12)


def test_newton_certificate_rejects_the_expanded_g6_roots():
    # all_roots certifies these by backward error; their Newton distance on
    # the composition is far above CLUSTER_TOL
    z = all_roots(gn_build(P_I, 6).restrict_to_slice().coeffs)
    with pytest.raises(SolverFailure) as info:
        roots_module._newton_certified(z[None], _gn_newton(P_I, 0.0, 6))
    assert info.value.worst_residual > 1e3 * CLUSTER_TOL


# the rabbit: the centre c of the period-3 component, c^3 + 2c^2 + c + 1 = 0
_RABBIT = complex(max(np.roots([1, 2, 1, 1]), key=lambda r: r.imag))


@pytest.mark.parametrize("coeffs, a", [
    *((c, a) for c in ([1j, 0.0, 1.0], [-0.3 + 0.6j, 0.0, 1.0],
                       [0.1 + 0.2j, 0.0, 0.0, 1.0]) for a in (0.3, -0.5, 1.0)),
    # trees of 0 that share or repeat points: q^2 + I q fixes 0 (P and P^c
    # both), the rabbit's 0 is a double preimage of c at depths >= 3
    *((c, a) for c in ([0.0, 1j, 1.0], [_RABBIT, 0.0, 1.0])
      for a in (0.3, -0.5))])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_composition_fiber_matches_the_expanded_solve(coeffs, a, n):
    P = ComplexPoly(coeffs)
    fiber = newton_roots(_gn_start(P, n), _gn_newton(P, a, n))
    # a = 1 = g_n(0) for odd n on q^2 + I (and g_4 - 1 has a double root at
    # i): roots of multiplicity m are placed only to about eps^(1/m), here
    # m <= 4, by either solve
    multiple = coeffs[0] == 1j and a == 1.0 and n != 2
    assert _match_distance(fiber, _expanded_fiber(P, a, n)) <= (
        1e-5 if multiple else 1e-12)


@pytest.mark.parametrize("c, n, a", [(1j, 3, 1.0),
                                     (np.exp(1j * np.pi / 3), 2, 1.0),
                                     (np.exp(1j * np.pi / 3), 2, 0.5)])
def test_exceptional_zero_starts_from_the_trees_of_1_and_2(c, n, a):
    # P = c q^2: 0 is exceptional, so the trees of 0 are 2 d^n copies of 0.
    # The trees of 1 under P and P^c coincide when c^(2^n - 1) is real
    # (c = e^(i pi/3), n = 2); those of 1 and 2 lie on two circles
    P = ComplexPoly([0.0, 0.0, c])
    start = _gn_start(P, n)
    gaps = np.abs(start[:, None] - start[None, :]) + np.eye(len(start))
    assert np.min(gaps) > 0.1
    want = measure_from_complex_atoms(_expanded_fiber(P, a, n),
                                      np.full(len(start), 1.0 / len(start)))
    _same_atoms(gn_pullback_measure(P, a, n), want, 1e-12)


def test_real_coefficients_start_from_the_exact_fiber():
    # g_n = (P^n)^2: the fiber of a is the trees of +-sqrt(a) under P, and at
    # a = 0 every root of P^n twice (two exact copies of each tree point)
    P = ComplexPoly([-1.0, 0.0, 1.0])
    for a, halves in ((0.25, (0.5, -0.5)), (0.0, (0.0, 0.0))):
        trees = np.concatenate([preimage_tree(P, t, 5) for t in halves])
        want = measure_from_complex_atoms(trees, np.full(64, 1.0 / 64))
        _same_atoms(gn_pullback_measure(P, a, 5), want, 1e-12)


def test_a_critical_value_target_is_certified_or_refused():
    # a = 2 = |P^n(0)|^2 = g_n(0) for even n on q^2 + I. At n = 6 the root
    # 0 is double and clusters; at n = 8 g_8''(0) = 0 too, so it is a root
    # of multiplicity 4 that doubles place only to about 1e-4: the
    # certificate must refuse it rather than report four atoms near 0
    m = gn_pullback_measure(P_I, 2.0, 6)
    at_0 = (np.abs(m.alpha) < 1e-7) & (m.rho < 1e-7)
    assert m.weight[at_0].tolist() == [2.0 / 128]
    try:
        m = gn_pullback_measure(P_I, 2.0, 8)
    except SolverFailure as failure:
        assert failure.worst_residual > CLUSTER_TOL
    else:
        at_0 = (np.abs(m.alpha) < 1e-4) & (m.rho < 1e-4)
        assert m.weight[at_0].sum() == pytest.approx(4.0 / 512)


def test_an_overflowing_start_point_is_refused_by_name():
    # q^2 + I q at depth 10: points of the P^c tree of 0 escape under P, so
    # u = P^10(z) overflows while v = (P^c)^10(z) is about 0 and g_n = u v
    # is inf * 0; that NaN would poison the whole row's repulsion
    with pytest.raises(SolverFailure) as info:
        gn_pullback_measure(ComplexPoly([0.0, 1j, 1.0]), 0.3, 10)
    assert "not finite at" in str(info.value)


@pytest.mark.parametrize("c", [1j, -0.3 + 0.6j])
@pytest.mark.parametrize("a", [0.3, -0.5])
def test_gn_fiber_of_a_nonzero_target_approaches_mu_prime(c, a):
    # the one-slice theorem measured: the g_n fiber of a != 0 (not the trees
    # mu' bins) tends to mu' as n grows; windows fixed before running
    P = ComplexPoly([c, 0.0, 1.0])
    d = {n: weak_distance(gn_pullback_measure(P, a, n),
                          mu_prime_estimate(P, n, 0.0)) for n in (4, 6, 8)}
    assert d[4] > d[6] > d[8]
    assert d[8] <= d[4] / 10
    assert d[8] <= 5e-3
