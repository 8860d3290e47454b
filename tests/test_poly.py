import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbrolin.errors import CoefficientOffSlice, ZeroDivisor
from qbrolin.poly import ComplexPoly, QPolynomial, critical_points_slice
from qbrolin.quat import Quaternion, UNIT_I, UNIT_J, UNIT_K
from qbrolin.slicecases import hn_build

coeff = st.builds(Quaternion,
                  *(st.floats(min_value=-2, max_value=2, allow_nan=False),) * 4)
qpolys = st.lists(coeff, min_size=1, max_size=5).map(QPolynomial)
quats = st.builds(Quaternion,
                  *(st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),) * 4)


class TupleQPolynomial:
    """The former QPolynomial, a tuple of Quaternions walked in Python
    loops: the reference the array-backed class must match bit for bit."""

    def __init__(self, coeffs):
        coeffs = [c if isinstance(c, Quaternion) else Quaternion.real(c)
                  for c in coeffs]
        while coeffs and coeffs[-1] == Quaternion():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Quaternion()] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Quaternion()] * (n - len(other.coeffs))
        return TupleQPolynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + TupleQPolynomial([-c for c in other.coeffs])

    def eval(self, q):
        acc = Quaternion()
        power = Quaternion.real(1.0)
        for a in self.coeffs:
            acc = acc + power * a
            power = power * q
        return acc

    def star_mul(self, other):
        if not self.coeffs or not other.coeffs:
            return TupleQPolynomial([])
        out = [Quaternion()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            for k, b in enumerate(other.coeffs):
                out[j + k] = out[j + k] + a * b
        return TupleQPolynomial(out)

    def conj(self):
        return TupleQPolynomial([c.conj() for c in self.coeffs])

    def symmetrize(self):
        return self.conj().star_mul(self)

    def bullet_compose(self, w):
        acc = TupleQPolynomial([])
        power = TupleQPolynomial([Quaternion.real(1.0)])
        for a in self.coeffs:
            acc = acc + power.star_mul(TupleQPolynomial([a]))
            power = power.star_mul(w)
        return acc

    def slice_derivative(self):
        return TupleQPolynomial(
            [c * float(n) for n, c in enumerate(self.coeffs)][1:])


def _bits(rows):
    """The exact bytes of a coefficient array or a list of Quaternions."""
    if not isinstance(rows, np.ndarray):
        rows = np.array([q.to_json() for q in rows], dtype=float).reshape(-1, 4)
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
    f, g = QPolynomial(fa), QPolynomial(ga)
    rf, rg = TupleQPolynomial(fa), TupleQPolynomial(ga)
    assert _bits(f.coeffs) == _bits(rf.coeffs)
    pairs = [(f.star_mul(g), rf.star_mul(rg)),
             (g.star_mul(f), rg.star_mul(rf)),
             (f.bullet_compose(g), rf.bullet_compose(rg)),
             (f.symmetrize(), rf.symmetrize()),
             (f.conj(), rf.conj()),
             (f + g, rf + rg),
             (f - g, rf - rg),
             (f.slice_derivative(), rf.slice_derivative())]
    for new, ref in pairs:
        assert _bits(new.coeffs) == _bits(ref.coeffs)
    assert _bits([f.eval(q)]) == _bits([rf.eval(q)])


def test_hn_build_matches_tuple_reference_bit_for_bit():
    u = Quaternion(*np.random.default_rng(5).uniform(-0.6, 0.6, size=4))
    coeffs = [u, Quaternion(), Quaternion.real(1.0)]         # q^2 + u
    p, ref = QPolynomial(coeffs), TupleQPolynomial(coeffs)
    it = ref
    for n in range(1, 9):
        if n > 1:
            it = ref.bullet_compose(it)
        want = TupleQPolynomial([c.w for c in it.symmetrize().coeffs])
        assert _bits(hn_build(p, n).coeffs) == _bits(want.coeffs)


def test_coeffs_are_a_read_only_row_array():
    p = QPolynomial([Quaternion(1, 2, 3, 4), 5.0])
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
    f = QPolynomial([Quaternion(), UNIT_I.as_quaternion()])
    g = QPolynomial([Quaternion(), UNIT_J.as_quaternion()])
    prod = f.star_mul(g)
    assert prod.coeffs[2].tolist() == UNIT_K.as_quaternion().to_json()


def test_trailing_zero_trim():
    p = QPolynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert QPolynomial([0.0]).is_zero()


def test_eval_right_coefficients():
    # q^1 * a with a = j at q = i: the product is i j = k
    p = QPolynomial([Quaternion(), UNIT_J.as_quaternion()])
    assert p.eval(UNIT_I.as_quaternion()) == UNIT_K.as_quaternion()


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
    rhs = fq * g.eval(t)
    scale = 1.0 + np.sum(np.linalg.norm(f.coeffs, axis=1)) \
        * np.sum(np.linalg.norm(g.coeffs, axis=1)) \
        * max(1.0, abs(q)) ** (f.degree + g.degree)
    assert abs(lhs - rhs) < 1e-9 * scale


def test_star_matches_pointwise_for_real_coeffs():
    f = QPolynomial.from_real([1.0, 0.0, 2.0])
    g = QPolynomial.from_real([-1.0, 3.0])
    q = Quaternion(0.3, 0.1, -0.7, 0.2)
    assert abs(f.star_mul(g).eval(q) - f.eval(q) * g.eval(q)) < 1e-12


def test_bullet_degree_law():
    g = QPolynomial([Quaternion.real(1.0), UNIT_J.as_quaternion(),
                     Quaternion.real(0.5)])
    w = QPolynomial([UNIT_I.as_quaternion(), Quaternion.real(2.0),
                     Quaternion.real(0.0), Quaternion.real(1.0)])
    assert g.bullet_compose(w).degree == g.degree * w.degree


def test_bullet_matches_composition_for_real_coeffs():
    g = QPolynomial.from_real([1.0, -2.0, 1.0])
    w = QPolynomial.from_real([0.0, 0.0, 1.0])
    gc = g.restrict_to_slice(UNIT_I)
    wc = w.restrict_to_slice(UNIT_I)
    expect = gc.compose(wc)
    got = g.bullet_compose(w).restrict_to_slice(UNIT_I)
    assert np.allclose(got.coeffs, expect.coeffs)


def test_slice_derivative():
    p = QPolynomial.from_real([5.0, 1.0, 2.0, 3.0])
    assert p.slice_derivative().coeffs.tolist() == [
        [1.0, 0, 0, 0], [4.0, 0, 0, 0], [9.0, 0, 0, 0]]


def test_restrict_lift_roundtrip():
    pc = ComplexPoly([1 + 2j, 0.0, -0.5j])
    lifted = pc.lift(UNIT_J)
    back = lifted.restrict_to_slice(UNIT_J)
    assert np.allclose(back.coeffs, pc.coeffs)


def test_restrict_off_slice_raises():
    p = QPolynomial([Quaternion.real(1.0), Quaternion(0.0, 0.0, 1.0, 0.0)])
    with pytest.raises(CoefficientOffSlice) as err:
        p.restrict_to_slice(UNIT_I)
    assert err.value.index == 1


def test_qpolynomial_json_roundtrip():
    p = QPolynomial([Quaternion(1, 2, 3, 4), Quaternion(0, 0, 0, 1)])
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
    assert np.allclose(ComplexPoly.from_json(p.to_json()).coeffs, p.coeffs)


def test_critical_points_slice():
    # d/dq (q^3 - 3q) = 3q^2 - 3, critical points at +-1
    p = QPolynomial.from_real([0.0, -3.0, 0.0, 1.0])
    roots = critical_points_slice(p, UNIT_I)
    assert np.allclose(sorted(roots.real), [-1.0, 1.0], atol=1e-10)
