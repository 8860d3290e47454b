import numpy as np
import pytest

from qbrolin.errors import BudgetExceeded, InvariantViolation, ProbeOnFiber
from qbrolin.measures import weak_distance
from qbrolin.poly import ComplexPoly, QPolynomial
from qbrolin.quat import sphere_quadrature
from qbrolin.slicecases import (_realify, annulus_probes, brolin3_gap,
                                gn_build, gn_pullback_measure, hn_build,
                                mu_prime_estimate)

P_I = ComplexPoly([1j, 0.0, 1.0])                                # q^2 + i
P_J = QPolynomial(np.array([[0.0, 0, 1, 0], [0, 0, 0, 0],
                            [1, 0, 0, 0]]))                      # q^2 + j


def test_one_slice_flags():
    # gn_build routes on is_real; mu' pulls back through P and P^c
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
    with pytest.raises(BudgetExceeded):
        gn_build(P_I, 14)


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
    p_i = P_I.lift()
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
    monkeypatch.setattr(ComplexPoly, "iterate_poly", lambda self, n: self)
    with pytest.raises(InvariantViolation):
        gn_build(P_I, 2)


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


def _former_mu_prime(P, quad_weights, n, bin_width=1.0 / 128.0):
    """The former estimator: both clouds once per quadrature unit J, at
    weight w_J / (2 sum w)."""
    from qbrolin.cdyn import preimage_tree
    from qbrolin.slicecases import _binned
    points, weights = [], []
    for wj in quad_weights:
        for half in (P, P.conj_coeffs()):
            tree = preimage_tree(half, 0j, n)
            points.extend(tree)
            weights.extend([wj / 2.0 ** n / (2.0 * sum(quad_weights))]
                           * len(tree))
    return _binned(points, weights, bin_width, {})


@pytest.mark.parametrize("c", [1j, 0.3 + 0.5j, -0.8 + 0.2j])
def test_mu_prime_matches_the_per_unit_loop(c):
    P = ComplexPoly([c, 0.0, 1.0])
    got = mu_prime_estimate(P, 6)
    want = _former_mu_prime(P, sphere_quadrature(3)[1], 6)
    assert len(got) == len(want)
    assert np.allclose(got.alpha, want.alpha, rtol=0, atol=1e-14)
    assert np.allclose(got.rho, want.rho, rtol=0, atol=1e-14)
    assert np.allclose(got.weight, want.weight, rtol=0, atol=1e-16)

