import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qbrolin.errors import CoefficientOffSlice, ZeroDivisor
from qbrolin.poly import ComplexPoly, QPolynomial
from qbrolin.quat import hamilton, norm_sq
from qbrolin.slicecases import hn_build
from quat_refs import (Quaternion, TupleQPolynomial, ref_eval, ref_lift,
                       ref_slice_imag, rows)
from raster_refs import ref_complex_poly_call

coeff = st.tuples(*(st.floats(min_value=-2, max_value=2, allow_nan=False),) * 4)
qpolys = st.lists(coeff, min_size=1, max_size=5).map(
    lambda c: QPolynomial(np.array(c)))
quats = st.tuples(*(st.floats(min_value=-1.5, max_value=1.5,
                              allow_nan=False),) * 4).map(np.array)
O, ONE = np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0])
I, J, K = np.eye(4)[1:]


def _abs(q):
    return float(np.sqrt(norm_sq(q)))



def _bits(rows):
    """The exact bytes of a coefficient or point array."""
    rows = np.asarray(rows, dtype=float)
    return rows.shape, rows.tobytes()


# signed zeros, small integers (exact cancellation) and general floats
edge_float = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]),
                       st.floats(min_value=-2, max_value=2, allow_nan=False))
edge_coeff = st.builds(Quaternion, *(edge_float,) * 4)
zero_row = st.sampled_from([Quaternion(), Quaternion(-0.0, -0.0, -0.0, -0.0),
                            Quaternion(0.0, -0.0, 0.0, -0.0)])
edge_lists = st.tuples(st.lists(edge_coeff, max_size=4),
                       st.lists(zero_row, max_size=2)).map(lambda t: t[0] + t[1])


@given(edge_lists, edge_lists, st.builds(Quaternion, *(edge_float,) * 4))
@settings(max_examples=200)
def test_array_algebra_matches_tuple_reference_bit_for_bit(fa, ga, q):
    f, g = QPolynomial(rows(fa)), QPolynomial(rows(ga))
    rf, rg = TupleQPolynomial(fa), TupleQPolynomial(ga)
    assert _bits(f.coeffs) == _bits(rows(rf.coeffs))
    pairs = [(f.star_mul(g), rf.star_mul(rg)),
             (g.star_mul(f), rg.star_mul(rf)),
             (f.bullet_compose(g), rf.bullet_compose(rg)),
             (f.symmetrize(), rf.symmetrize()),
             (f.conj(), rf.conj()),
             (f + g, rf + rg),
             (f - g, rf - rg)]
    for new, ref in pairs:
        assert _bits(new.coeffs) == _bits(rows(ref.coeffs))
    assert _bits(f.eval(rows([q])[0])) == _bits(rows([ref_eval(f.coeffs, q)])[0])


def test_hn_build_matches_tuple_reference_bit_for_bit():
    u = Quaternion(*np.random.default_rng(5).uniform(-0.6, 0.6, size=4))
    coeffs = [u, Quaternion(), Quaternion.real(1.0)]         # q^2 + u
    p, ref = QPolynomial(rows(coeffs)), TupleQPolynomial(coeffs)
    it = ref
    for n in range(1, 9):
        if n > 1:
            it = ref.bullet_compose(it)
        want = TupleQPolynomial([c.w for c in it.symmetrize().coeffs])
        assert _bits(hn_build(p, n).coeffs) == _bits(rows(want.coeffs))


def test_coeffs_are_a_read_only_row_array():
    p = QPolynomial(np.array([[1, 2, 3, 4], [5, 0, 0, 0]]))
    assert p.coeffs.shape == (2, 4) and p.coeffs.dtype == float
    assert p.coeffs.tolist() == [[1, 2, 3, 4], [5, 0, 0, 0]]
    with pytest.raises(ValueError):
        p.coeffs[0, 0] = 0.0


def test_from_json_refuses_bad_shapes_and_non_finite_values():
    for coeffs in ([], [1, 2], [[1, 2, 3]], [[1, 0, 0, 0], [1, 0]],
                   [[float("nan"), 0, 0, 0]], [[0, 0, 0, float("inf")]],
                   [["a", 0, 0, 0]]):
        with pytest.raises(ValueError):
            QPolynomial.from_json({"coeffs": coeffs})


def test_orientation_lock():
    # (q i) * (q j) must have q^2 coefficient ij = k, not ji
    f = QPolynomial(np.array([O, I]))
    g = QPolynomial(np.array([O, J]))
    prod = f.star_mul(g)
    assert prod.coeffs[2].tolist() == K.tolist()


def test_trailing_zero_trim():
    p = QPolynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert QPolynomial([0.0]).coeffs.shape == (0, 4)


def test_eval_right_coefficients():
    # q^1 * a with a = j at q = i: the product is i j = k
    p = QPolynomial(np.array([O, J]))
    assert np.array_equal(p.eval(I), K)


@given(qpolys, qpolys)
def test_star_conjugate_antihomomorphism(f, g):
    lhs = f.star_mul(g).conj()
    rhs = g.conj().star_mul(f.conj())
    assert lhs.degree == rhs.degree
    assert np.all(np.linalg.norm(lhs.coeffs - rhs.coeffs, axis=1) < 1e-9)


@given(qpolys)
def test_symmetrization_real(f):
    scale = np.sum(np.linalg.norm(f.coeffs, axis=1)) ** 2
    assert f.symmetrize().max_imag_coeff() <= 1e-10 * max(scale, 1.0)


@given(qpolys, qpolys, quats)
@settings(max_examples=60)
def test_star_evaluation_identity(f, g, q):
    fq = f.eval(q)
    try:
        t = f.star_conjugation_point(q)
    except ZeroDivisor:
        return
    lhs = f.star_mul(g).eval(q)
    rhs = hamilton(fq, g.eval(t))
    scale = 1.0 + np.sum(np.linalg.norm(f.coeffs, axis=1)) \
        * np.sum(np.linalg.norm(g.coeffs, axis=1)) \
        * max(1.0, _abs(q)) ** (f.degree + g.degree)
    assert _abs(lhs - rhs) < 1e-9 * scale


def test_star_matches_pointwise_for_real_coeffs():
    f = QPolynomial.from_real([1.0, 0.0, 2.0])
    g = QPolynomial.from_real([-1.0, 3.0])
    q = np.array([0.3, 0.1, -0.7, 0.2])
    assert _abs(f.star_mul(g).eval(q) - hamilton(f.eval(q), g.eval(q))) < 1e-12


def test_bullet_degree_law():
    g = QPolynomial(np.array([ONE, J, 0.5 * ONE]))
    w = QPolynomial(np.array([I, 2.0 * ONE, O, ONE]))
    assert g.bullet_compose(w).degree == g.degree * w.degree


def test_bullet_matches_composition_for_real_coeffs():
    g = QPolynomial.from_real([1.0, -2.0, 1.0])
    w = QPolynomial.from_real([0.0, 0.0, 1.0])
    gc = g.restrict_to_slice()
    wc = w.restrict_to_slice()
    expect = gc.compose(wc)
    got = g.bullet_compose(w).restrict_to_slice()
    assert np.allclose(got.coeffs, expect.coeffs)


def test_restrict_lift_roundtrip():
    pc = ComplexPoly([1 + 2j, 0.0, -0.5j])
    lifted = QPolynomial(ref_lift(pc.coeffs))
    back = lifted.restrict_to_slice()
    assert np.allclose(back.coeffs, pc.coeffs)


slice_rows = st.lists(st.tuples(edge_float, edge_float,
                                st.sampled_from([0.0, -0.0]),
                                st.sampled_from([0.0, -0.0])), max_size=4)


@given(slice_rows)
def test_restrict_and_lift_keep_the_former_signed_zeros(coeffs):
    # x * 1.0 + y * 0.0 + z * 0.0 turns x = -0.0 into +0.0 unless y and z
    # are negative zeros too; a root solve can see the sign
    p = QPolynomial(np.array(coeffs).reshape(-1, 4))
    pc = p.restrict_to_slice()
    assert _bits(pc.coeffs.real) == _bits(p.coeffs[:, 0])
    assert _bits(pc.coeffs.imag) == _bits(ref_slice_imag(p.coeffs))


def test_restrict_off_slice_raises():
    p = QPolynomial(np.array([ONE, J]))
    with pytest.raises(CoefficientOffSlice) as err:
        p.restrict_to_slice()
    assert err.value.index == 1


def test_qpolynomial_json_roundtrip():
    p = QPolynomial(np.array([[1, 2, 3, 4], [0, 0, 0, 1]]))
    assert QPolynomial.from_json(p.to_json()) == p


def test_complexpoly_calls_and_derivative():
    p = ComplexPoly([-2.0, 0.0, 1.0])  # z^2 - 2
    assert p(3.0) == 7.0
    zs = np.array([0.0, 1j, 2.0])
    assert np.allclose(p(zs), zs * zs - 2.0)
    assert np.allclose(p.derivative().coeffs, [0.0, 2.0])


def test_complexpoly_compose_iterate():
    p = ComplexPoly([-1.0, 0.0, 1.0])
    p2 = p.iterate_poly(2)
    z = 0.7 + 0.2j
    assert p2(z) == pytest.approx(p(p(z)), rel=1e-12)
    assert p2.degree == 4


def test_complexpoly_shifted_and_json():
    p = ComplexPoly([1.0, 2.0])
    assert p.shifted(1.0)(0.0) == 0.0


edge_complex = st.builds(complex, edge_float, edge_float)
seeds = st.integers(0, 2 ** 32 - 1)


def _generic(seed, shape):
    """Complex values with full mantissas (Hypothesis favours simple floats,
    on which both operand orders of a product round alike)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-2, 2, shape) + 1j * rng.uniform(-2, 2, shape)


call_coeffs = st.one_of(
    st.lists(edge_complex, max_size=31),
    st.builds(lambda s, n: list(_generic(s, n)), seeds, st.integers(1, 31)))
# 1-D and 2-D, one-element arrays included (numpy's in-place complex
# product rounds differently there)
small_shapes = hnp.array_shapes(min_dims=1, max_dims=2, max_side=6)
generic_scalars = st.builds(lambda s: complex(_generic(s, 1)[0]), seeds)
call_points = st.one_of(
    hnp.arrays(complex, small_shapes, elements=edge_complex),
    hnp.arrays(float, small_shapes, elements=edge_float),
    st.builds(_generic, seeds, small_shapes),
    st.builds(lambda s, shape: _generic(s, shape).real, seeds, small_shapes),
    edge_complex, edge_float, generic_scalars,
    st.one_of(edge_complex, generic_scalars).map(np.complex128),
    generic_scalars.map(lambda z: z.real))


def _exact(v):
    """Type, shape, dtype and bytes of a scalar or an array value."""
    return type(v), np.shape(v), np.asarray(v).dtype, np.asarray(v).tobytes()


def _has_negative_zero_part(c):
    return any(x == 0 and np.signbit(x) for x in (c.real, c.imag))


@given(call_coeffs, call_points)
@settings(max_examples=500, deadline=None)
def test_complexpoly_call_matches_the_former_loop_bit_for_bit(coeffs, z):
    # degrees 0-30 (and the zero polynomial), non-monic complex coefficients
    p = ComplexPoly(coeffs)
    got, want = p(z), ref_complex_poly_call(p.coeffs, z)
    if not np.ndim(z):
        # a scalar is a one-element array call. The former loop ran in
        # numpy's scalar arithmetic, which rounds unlike its array loops:
        # the value moves by zero signs or by rounding, within Horner's
        # bound 2 (d + 1) gamma_4 sum |c_k| |z|^k (gamma_4 < 5 eps)
        assert _exact(got) == _exact(complex(p(np.reshape(z, 1))[0]))
        size = float(np.sum(np.abs(p.coeffs) * abs(z) ** np.arange(
            len(p.coeffs))))
        assert abs(got - want) <= 10 * len(p.coeffs) * 2.0 ** -52 * size
    elif p.degree >= 1 and _has_negative_zero_part(p.coeffs[-1]):
        # the documented exception: c_d * z keeps a -0.0 part of c_d where
        # the loop's 0 * z + c_d may give +0.0; only zero signs differ
        assert _exact(got)[:3] == _exact(want)[:3]
        assert np.array_equal(got, want)
    else:
        assert _exact(got) == _exact(want)