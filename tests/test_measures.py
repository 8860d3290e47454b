import json
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbrolin import cli
from qbrolin.errors import ExceptionalTarget, InvariantViolation
from qbrolin.measures import (EmpiricalMeasure, brolin_pullback,
                              measure_from_complex_atoms, pair, pushforward,
                              standard_panel, weak_distance)
from qbrolin.policy import CLUSTER_TOL, REAL_AXIS_TOL
from qbrolin.poly import QPolynomial
from qbrolin.quat import sphere_quadrature
from writer_refs import ref_measure_rows

CHEB = QPolynomial.from_real([-2.0, 0.0, 1.0])
SQ = QPolynomial.from_real([0.0, 0.0, 1.0])


def _arrays(m):
    return m.alpha, m.rho, m.weight


def test_atom_validation():
    for weight in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            EmpiricalMeasure([0.0], [0.0], [weight])
    with pytest.raises(ValueError):
        EmpiricalMeasure([0.0], [-1.0], [1.0])
    for alpha, rho in ((np.nan, 0.0), (np.inf, 0.0), (0.0, np.nan),
                       (0.0, np.inf)):
        with pytest.raises(ValueError):
            EmpiricalMeasure([alpha], [rho], [1.0])


def test_non_finite_complex_atoms_are_refused():
    # the one fold every measure built from complex atoms goes through
    for z in (np.nan, complex(0.0, np.inf), complex(np.nan, 1.0)):
        with pytest.raises(InvariantViolation):
            measure_from_complex_atoms([0.5, z], [0.5, 0.5])


def test_measure_sorted_and_json(tmp_path):
    m = EmpiricalMeasure([1.0, -1.0], [0.5, 0.0], [0.5, 0.5], {"tag": 1})
    assert ref_measure_rows(m) == [("point", -1.0, 0.0, 0.5),
                                   ("sphere", 1.0, 0.5, 0.5)]
    # measure.json reads back to the same arrays and meta
    cli.write_json(tmp_path / "m.json", cli._atom_columns(m))
    data = json.loads((tmp_path / "m.json").read_text())
    assert [d["kind"] for d in data["atoms"]] == ["point", "sphere"]
    again = EmpiricalMeasure(*([d[k] for d in data["atoms"]]
                               for k in ("alpha", "rho", "weight")),
                             data["meta"])
    assert all(np.array_equal(x, y) for x, y in zip(_arrays(again), _arrays(m)))
    assert again.meta == m.meta


# Reference for the fold and merge, on plain tuples: the per-atom fold of
# measure_from_complex_atoms, then atoms with equal (alpha, rho) summed in
# input order; distinct atoms stay apart however near.
_Atom = namedtuple("_Atom", "alpha rho weight")


def _reference_fold_merge(points, weights):
    atoms = {}
    for z, w in zip(points, weights):
        if w <= 0:
            continue
        rho = abs(z.imag)
        if rho <= REAL_AXIS_TOL * (1.0 + abs(z)):
            rho = 0.0
        key = (z.real + 0.0, rho)
        atoms[key] = atoms.get(key, 0.0) + float(w)
    merged = sorted((_Atom(a, r, w) for (a, r), w in atoms.items()),
                    key=lambda a: (a.rho > 0, a.alpha, a.rho))
    return tuple(np.array([getattr(a, k) for a in merged], dtype=float)
                 for k in _Atom._fields)


@st.composite
def _clouds(draw):
    """Slice atoms with exact and near duplicates, conjugates, chains of
    near duplicates, near-real points and zero weights, in random order."""
    points = []
    for a, b in draw(st.lists(st.tuples(st.floats(-3, 3), st.floats(-2, 2)),
                              min_size=1, max_size=10)):
        z = complex(a, b)
        points.append(z)
        step = draw(st.floats(0.5, 2.0)) * CLUSTER_TOL * (1 + abs(z))
        kind = draw(st.sampled_from(["dup", "near", "chain", "conj", "real", "-"]))
        if kind == "dup":
            points.append(z)
        elif kind == "near":
            dz = draw(st.sampled_from([step, 1j * step, step - 1j * step]))
            points.append(z + dz)
        elif kind == "chain":
            points.extend(z + k * 0.6 * step for k in (1, 2, 3))
        elif kind == "conj":
            points.append(z.conjugate())
        elif kind == "real":
            near_axis = step / CLUSTER_TOL * REAL_AXIS_TOL
            points.append(complex(a, draw(st.sampled_from([1, -1])) * near_axis))
    weights = draw(st.lists(st.sampled_from([0.0, 0.25]) | st.floats(1e-6, 1.0),
                            min_size=len(points), max_size=len(points)))
    order = draw(st.permutations(range(len(points))))
    return [points[i] for i in order], [weights[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(_clouds())
# 1.5e-7 + 0.5i is within the former merge radius of 0.5i: it stays apart
@example(([1j, 0.5j, 1.5e-7 + 0.5j], [0.25, 0.25, 0.25]))
# a conjugate pair with i between them in input order: one sphere
@example(([0.5j, 1j, -0.5j], [0.25, 0.5, 0.25]))
def test_fold_merge_matches_reference(cloud):
    points, weights = cloud
    want = _reference_fold_merge(points, weights)
    got = _arrays(measure_from_complex_atoms(points, weights))
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_real_points_and_spheres_merge_apart():
    # the sphere lies off the real axis by more than REAL_AXIS_TOL, 1e-9
    # from the real point in alpha: distinct atoms never merge
    sphere = complex(-1.0 - 1e-9, 2e-7 + 1e-14)
    m = measure_from_complex_atoms([sphere, -1.0], [0.5, 0.5])
    assert ref_measure_rows(m) == [("point", -1.0, 0.0, 0.5),
                                   ("sphere", sphere.real, sphere.imag, 0.5)]


def test_pullback_mass_one():
    for n in (1, 4, 8):
        m = brolin_pullback(CHEB, 0.0, n)
        assert m.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_pullback_screens_exceptional():
    with pytest.raises(ExceptionalTarget):
        brolin_pullback(SQ, 0.0, 3)


def test_pullback_requires_real_coeffs():
    q = QPolynomial(np.array([[0.0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]))
    with pytest.raises(ValueError):
        brolin_pullback(q, 0.0, 2)


def test_axial_pair_matches_quadrature():
    # the sphere average of f(Re q, |Im q|) over S_{alpha + I rho} is
    # f(alpha, rho), so pair needs no quadrature
    m = brolin_pullback(CHEB, 1.0, 5)
    units, weights = sphere_quadrature(3)

    def f(a, b):
        return a * a + 0.3 * b

    def sphere_average(a, r):
        # f at the quaternions a + r u over the nodes u of S
        q = np.column_stack([np.full(len(units), a), r * units])
        vals = f(q[:, 0], np.linalg.norm(q[:, 1:], axis=1))
        return np.sum(weights * vals) / (4.0 * np.pi)

    slow = sum(w * sphere_average(a, r)
               for a, r, w in zip(m.alpha, m.rho, m.weight))
    assert pair(m, f) == pytest.approx(slow, abs=1e-10)


def test_weak_distance_zero_on_self():
    m = brolin_pullback(CHEB, 0.0, 6)
    assert weak_distance(m, m) == 0.0


def test_weak_distance_refuses_a_non_finite_pairing():
    # re3 overflows on both measures; inf - inf once fell out of the max,
    # leaving the re2 difference 3e220
    m1 = EmpiricalMeasure([1e110], [0.0], [1.0])
    m2 = EmpiricalMeasure([2e110], [0.0], [1.0])
    with pytest.raises(InvariantViolation, match="re3"):
        weak_distance(m1, m2)


def test_pushforward_tower_identity():
    # p_* nu_n = nu_{n-1}: exact up to solver tolerance
    nu6 = brolin_pullback(CHEB, 0.5, 6)
    nu5 = brolin_pullback(CHEB, 0.5, 5)
    assert weak_distance(pushforward(CHEB, nu6), nu5) < 1e-9


def test_measure_from_complex_atoms_folds_conjugates():
    pts = [1.0 + 0.5j, 1.0 - 0.5j, 0.3 + 0j]
    m = measure_from_complex_atoms(pts, [0.25, 0.25, 0.5])
    assert len(m) == 2
    sphere = m.rho > 0
    assert m.weight[sphere] == pytest.approx([0.5])
    assert m.rho[sphere] == pytest.approx([0.5])


def test_standard_panel_shape():
    panel = standard_panel()
    assert len(panel) == 12
    for f in panel.values():
        # vectorized over (alpha, rho)
        assert np.shape(f(np.zeros(3), np.ones(3))) == (3,)


def test_chebyshev_moments():
    # nu_n for z^2 - 2 approaches the arcsine law on [-2, 2]:
    # odd moments 0, second moment 2, fourth moment 6
    m = brolin_pullback(CHEB, 0.0, 12)
    alpha, rho, w = _arrays(m)
    assert rho.max() == 0.0  # supported on the real segment
    assert np.sum(w * alpha) == pytest.approx(0.0, abs=1e-6)
    assert np.sum(w * alpha ** 2) == pytest.approx(2.0, abs=1e-6)
    assert np.sum(w * alpha ** 4) == pytest.approx(6.0, abs=1e-5)


def test_basilica_pullback_has_spheres():
    m = brolin_pullback(QPolynomial.from_real([-1.0, 0.0, 1.0]), 0.5, 8)
    kinds = set((m.rho == 0.0).tolist())
    assert kinds == {True, False}
    assert m.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_deep_chebyshev_pullback_keeps_every_preimage():
    # the 65,536 preimages of 0.5 under z^2 - 2 are distinct real points,
    # some closer than 1e-7 near +-2: one atom each, at weight 2^-16
    m = brolin_pullback(CHEB, 0.5, 16)
    assert len(m) == 2 ** 16 and np.all(m.rho == 0.0)
    assert np.all(m.weight == 2.0 ** -16)


def test_huge_constant_pullback_has_two_spheres():
    # the depth-2 preimages of 0 under z^2 + 1e300 are +-0.5 +- 1e150 i
    # (to rounding): two spheres 1 apart in alpha, whose radius 1e150 once
    # put them inside one merge box
    m = brolin_pullback(QPolynomial.from_real([1e300, 0.0, 1.0]), 0.0, 2)
    assert m.alpha.tolist() == [-0.5, 0.5]
    assert np.all(m.rho > 1e149) and m.weight.tolist() == [0.5, 0.5]
