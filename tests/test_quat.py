import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qbrolin.errors import ZeroDivisor
from qbrolin.quat import (ImaginaryUnit, Quaternion, SlicePoint, UNIT_I,
                          UNIT_J, UNIT_K, random_units, slice_decompose,
                          sphere_quadrature)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_hamilton_relations():
    i, j, k = (u.as_quaternion() for u in (UNIT_I, UNIT_J, UNIT_K))
    minus_one = Quaternion.real(-1.0)
    assert i * i == minus_one
    assert j * j == minus_one
    assert k * k == minus_one
    assert i * j == k
    assert j * k == i
    assert k * i == j
    assert j * i == -k


@given(quats, quats)
def test_conjugation_antihomomorphism(a, b):
    lhs = (a * b).conj()
    rhs = b.conj() * a.conj()
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(a) * abs(b))


@given(quats, quats)
def test_norm_multiplicative(a, b):
    assert abs(a * b) == pytest.approx(abs(a) * abs(b), rel=1e-9, abs=1e-9)


@given(quats)
def test_inverse(q):
    if q.norm_sq() < 1e-6:
        return
    prod = q * q.inverse()
    assert abs(prod - Quaternion.real(1.0)) < 1e-9


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisor):
        Quaternion().inverse()


def test_real_scalar_coercion():
    q = Quaternion(1.0, 2.0, 0.0, 0.0)
    assert 2 * q == Quaternion(2.0, 4.0, 0.0, 0.0)
    assert q + 1 == Quaternion(2.0, 2.0, 0.0, 0.0)
    assert 1 - q == Quaternion(0.0, -2.0, 0.0, 0.0)


def test_json_roundtrip():
    q = Quaternion(0.5, -1.25, 3.0, 4.5)
    assert Quaternion.from_json(q.to_json()) == q


@given(quats)
def test_slice_decompose_roundtrip(q):
    sp = slice_decompose(q)
    assert sp.beta >= 0.0
    assert abs(sp.embed() - q) < 1e-9 * (1.0 + abs(q))


def test_slice_decompose_real_point():
    sp = slice_decompose(Quaternion.real(3.0))
    assert sp.beta == 0.0
    assert sp.unit == UNIT_I


def test_imaginary_unit_squares_to_minus_one():
    u = ImaginaryUnit.from_vector(1.0, 2.0, -0.5)
    q = u.as_quaternion()
    assert abs(q * q - Quaternion.real(-1.0)) < 1e-12


def test_imaginary_unit_norm_enforced():
    with pytest.raises(ValueError):
        ImaginaryUnit(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ImaginaryUnit.from_vector(0.0, 0.0, 0.0)


def test_slice_point_as_complex():
    sp = SlicePoint(1.5, 0.5, UNIT_K)
    assert sp.as_complex() == complex(1.5, 0.5)
    assert sp.embed() == Quaternion(1.5, 0.0, 0.0, 0.5)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_quadrature_total_weight(level):
    quad = sphere_quadrature(level)
    assert quad.integrate(lambda u: 1.0) == pytest.approx(4.0 * math.pi, rel=1e-12)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_quadrature_moments(level):
    quad = sphere_quadrature(level)
    # odd moments vanish, second moments are 1/3 each
    assert quad.average(lambda u: u.x) == pytest.approx(0.0, abs=1e-12)
    assert quad.average(lambda u: u.z) == pytest.approx(0.0, abs=1e-12)
    for comp in ("x", "y", "z"):
        m2 = quad.average(lambda u: getattr(u, comp) ** 2)
        assert m2 == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_quadrature_level_validation():
    with pytest.raises(ValueError):
        sphere_quadrature(0)


def test_random_units_seeded():
    a = random_units(np.random.default_rng(3), 10)
    b = random_units(np.random.default_rng(3), 10)
    assert a == b
    for u in a:
        assert u.x ** 2 + u.y ** 2 + u.z ** 2 == pytest.approx(1.0, rel=1e-12)
