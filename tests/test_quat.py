import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbrolin.cli import _star_algebra_worst
from qbrolin.errors import ZeroDivisor
from qbrolin.poly import QPolynomial, evaluate, star, star_conjugation_point
from qbrolin.quat import hamilton, inverse, norm_sq, sphere_quadrature
from quat_refs import (Quaternion, TupleQPolynomial, ref_eval,
                       ref_sphere_quadrature, ref_star_algebra_worst,
                       ref_star_conjugation_point, rows)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quats = st.tuples(finite, finite, finite, finite).map(np.array)

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I, J, K = np.eye(4)[1:]
CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _abs(q):
    return float(np.sqrt(norm_sq(q)))


def test_hamilton_relations():
    assert np.array_equal(hamilton(I, I), -ONE)
    assert np.array_equal(hamilton(J, J), -ONE)
    assert np.array_equal(hamilton(K, K), -ONE)
    assert np.array_equal(hamilton(I, J), K)
    assert np.array_equal(hamilton(J, K), I)
    assert np.array_equal(hamilton(K, I), J)
    assert np.array_equal(hamilton(J, I), -K)


@given(quats, quats)
def test_conjugation_antihomomorphism(a, b):
    lhs = hamilton(a, b) * CONJ
    rhs = hamilton(b * CONJ, a * CONJ)
    assert _abs(lhs - rhs) <= 1e-9 * (1.0 + _abs(a) * _abs(b))


@given(quats, quats)
def test_norm_multiplicative(a, b):
    assert _abs(hamilton(a, b)) == pytest.approx(_abs(a) * _abs(b),
                                                 rel=1e-9, abs=1e-9)


@given(quats)
def test_inverse(q):
    if norm_sq(q) < 1e-6:
        return
    assert _abs(hamilton(q, inverse(q)) - ONE) < 1e-9


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisor):
        inverse(np.zeros(4))
    with pytest.raises(ZeroDivisor):
        inverse(np.array([ONE, np.zeros(4)]))


def test_real_scalar_coercion():
    # a real scalar r is the quaternion [r, 0, 0, 0]: it scales from
    # either side and adds to the real part
    q = np.array([1.0, 2.0, 0.0, 0.0])
    assert np.array_equal(hamilton(2.0 * ONE, q), [2.0, 4.0, 0.0, 0.0])
    assert np.array_equal(hamilton(q, 2.0 * ONE), [2.0, 4.0, 0.0, 0.0])
    assert np.array_equal(q + ONE, [2.0, 2.0, 0.0, 0.0])
    assert np.array_equal(ONE - q, [0.0, -2.0, 0.0, 0.0])


def test_json_roundtrip():
    q = np.array([0.5, -1.25, 3.0, 4.5])
    assert np.array_equal(np.array(json.loads(json.dumps(q.tolist()))), q)


def test_imaginary_unit_squares_to_minus_one():
    v = np.array([1.0, 2.0, -0.5])
    u = np.concatenate([[0.0], v / np.linalg.norm(v)])
    assert _abs(hamilton(u, u) + ONE) < 1e-12


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_quadrature_total_weight(level):
    _, weights = sphere_quadrature(level)
    assert np.sum(weights) == pytest.approx(4.0 * math.pi, rel=1e-12)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_quadrature_moments(level):
    units, weights = sphere_quadrature(level)

    def average(values):
        return float(np.sum(weights * values)) / (4.0 * math.pi)

    # odd moments vanish, second moments are 1/3 each
    assert average(units[:, 0]) == pytest.approx(0.0, abs=1e-12)
    assert average(units[:, 2]) == pytest.approx(0.0, abs=1e-12)
    for comp in range(3):
        assert average(units[:, comp] ** 2) == pytest.approx(1.0 / 3.0,
                                                             rel=1e-10)


def test_quadrature_level_validation():
    with pytest.raises(ValueError):
        sphere_quadrature(0)


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


# signed zeros, small integers (exact cancellation) and general floats
edge_float = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]),
                       st.floats(min_value=-2, max_value=2, allow_nan=False))
edge_quat = st.builds(Quaternion, *(edge_float,) * 4)
edge_lists = st.lists(edge_quat, max_size=4)


@given(edge_lists, edge_lists, st.lists(edge_quat, min_size=1, max_size=3),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=200, deadline=None)
def test_array_arithmetic_matches_scalar_reference_bit_for_bit(fa, ga, qs,
                                                               level):
    f, g, q = QPolynomial(rows(fa)), QPolynomial(rows(ga)), rows(qs)
    # the Hamilton product, row by row and broadcast over all pairs
    for a in fa + qs:
        for b in qs:
            assert _bits(hamilton(rows([a])[0], rows([b])[0])) \
                == _bits(rows([a * b])[0])
    assert _bits(hamilton(rows(fa)[:, None], q[None, :])) == _bits(
        rows([a * b for a in fa for b in qs]).reshape(len(fa), len(qs), 4))
    # evaluation at one point, at a batch of points, and of a stack of
    # polynomials (one per point)
    want = rows([ref_eval(f.coeffs, p) for p in qs])
    assert _bits(f.eval(q[0])) == _bits(want[0])
    assert _bits(f.eval(q)) == _bits(want)
    stack = np.stack([f.coeffs[::(-1) ** i] for i in range(len(qs))])
    assert _bits(evaluate(stack, q)) == _bits(
        rows([ref_eval(c, p) for c, p in zip(stack, qs)]))
    # T_f, with ZeroDivisor exactly where the reference raises
    for p, row in zip(qs, q):
        try:
            want_t = ref_star_conjugation_point(f.coeffs, p)
        except ZeroDivisor:
            with pytest.raises(ZeroDivisor):
                star_conjugation_point(f.coeffs, row)
        else:
            assert _bits(star_conjugation_point(f.coeffs, row)) == _bits(
                rows([want_t])[0])
    assert _bits(f.star_mul(g).coeffs) == _bits(
        rows(TupleQPolynomial(fa).star_mul(TupleQPolynomial(ga)).coeffs))
    units, weights = sphere_quadrature(level)
    ref_units, ref_weights = ref_sphere_quadrature(level)
    assert _bits(units) == _bits(ref_units)
    assert _bits(weights) == _bits(ref_weights)


def _ref_t(coeffs, q):
    """ref_star_conjugation_point as a [w, x, y, z] row, None where it
    raises ZeroDivisor."""
    try:
        return rows([ref_star_conjugation_point(coeffs, q)])[0]
    except ZeroDivisor:
        return None


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_star_algebra_on_stacks_matches_the_per_item_references(data):
    # m items of f (da rows), g (db rows) and q; star and T_f of the stacks,
    # and of item 0's f broadcast against the g and q stacks, each item
    # bit for bit the per-item reference (trailing zero rows trimmed)
    m, da, db = (data.draw(st.integers(1, 4)) for _ in range(3))
    fs, gs = ([data.draw(st.lists(edge_quat, min_size=d, max_size=d))
               for _ in range(m)] for d in (da, db))
    qs = data.draw(st.lists(edge_quat, min_size=m, max_size=m))
    f, g = (np.stack([rows(x) for x in xs]) for xs in (fs, gs))
    q = rows(qs)

    def ref_star(a, b):
        return rows(TupleQPolynomial(a).star_mul(TupleQPolynomial(b)).coeffs)

    for got, pairs in ((star(f, g), zip(fs, gs)),
                       (star(f[0], g), ((fs[0], b) for b in gs)),
                       (star(f, g[0]), ((a, gs[0]) for a in fs))):
        assert got.shape == (m, da + db - 1, 4)
        for row, (a, b) in zip(got, pairs):
            assert _bits(QPolynomial(row).coeffs) == _bits(ref_star(a, b))
    for coeffs, items in ((f, f), (f[0], [f[0]] * m)):
        want = [_ref_t(c, p) for c, p in zip(items, qs)]
        if any(w is None for w in want):
            with pytest.raises(ZeroDivisor):
                star_conjugation_point(coeffs, q)
        else:
            assert _bits(star_conjugation_point(coeffs, q)) == _bits(want)


def test_star_conjugation_point_refuses_a_stack_with_one_zero_value():
    # f_0 = 1 and f_1 = q - 1, both at q = 1: f_1(1) = 0
    f = np.array([[[1.0, 0, 0, 0], [0, 0, 0, 0]],
                  [[-1.0, 0, 0, 0], [1, 0, 0, 0]]])
    q = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
    assert _bits(star_conjugation_point(f[:1], q[:1])) == _bits([[1.0, 0, 0, 0]])
    with pytest.raises(ZeroDivisor):
        star_conjugation_point(f, q)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_verify_star_checks_equal_the_former_per_trial_loops(seed):
    # the verify mode's three worst errors, from one batch per check, are
    # the floats its former per-trial loops gave, bit for bit
    got, want = _star_algebra_worst(seed), ref_star_algebra_worst(seed)
    assert [x.hex() for x in got] == [x.hex() for x in want]
