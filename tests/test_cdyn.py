import math

import numpy as np
import pytest

from merge_refs import ref_merge_level
from qbrolin.cdyn import (EscapeParams, escape_radius, filled_julia_mask,
                          green_field, green_n, is_exceptional, iterate,
                          preimage_tree, solve_fiber)
from qbrolin.errors import BudgetExceeded
from qbrolin.grids import SliceGrid
from qbrolin.poly import ComplexPoly

SQ = ComplexPoly([0.0, 0.0, 1.0])          # z^2
CHEB = ComplexPoly([-2.0, 0.0, 1.0])       # z^2 - 2
BASILICA = ComplexPoly([-1.0, 0.0, 1.0])   # z^2 - 1


def test_escape_radius_guarantee():
    r = escape_radius(CHEB)
    z = r * 1.01
    for _ in range(5):
        z2 = CHEB(z)
        assert abs(z2) > abs(z)
        z = z2


def test_iterate_matches_direct_eval():
    z = 0.3 + 0.4j
    w = z
    for _ in range(7):
        w = BASILICA(w)
    orbit = iterate(BASILICA, z, 7)
    assert not orbit.escaped
    assert orbit.point == pytest.approx(w)
    assert orbit.log_mag == pytest.approx(math.log(abs(w)))


def test_iterate_ledger_regime():
    # z^2 from |z| = 10: log|z_n| = 2^n log 10, far past overflow
    orbit = iterate(SQ, 10.0, 60)
    assert orbit.escaped
    assert orbit.log_mag == pytest.approx(2 ** 60 * math.log(10.0), rel=1e-12)


def test_green_n_power_map_exact():
    # G_n(z) = log+|z| exactly for z^d
    for z in (3.0, 0.5, 1.0 + 1.0j):
        g = green_n(SQ, z, 12)
        assert g == pytest.approx(max(0.0, math.log(abs(z))), abs=1e-12)


def test_green_field_matches_pointwise():
    grid = SliceGrid.square(0j, 2.0, 0.25)
    gf = green_field(CHEB, grid, 10)
    z = grid.mesh()
    for idx in [(0, 0), (8, 8), (3, 14), (16, 2)]:
        assert gf.values[idx] == pytest.approx(
            green_n(CHEB, complex(z[idx]), 10), abs=1e-10)


def test_green_scaling_relation():
    # G_{n+1}(z) = G_n(p(z)) / d
    z = 1.7 + 0.3j
    assert green_n(CHEB, z, 9) == pytest.approx(
        green_n(CHEB, CHEB(z), 8) / 2.0, rel=1e-10)


def test_solve_fiber_multiplicity():
    [(root, mult)] = solve_fiber(SQ, 0.0)
    assert root == 0.0 and mult == 2
    fiber = solve_fiber(CHEB, 2.0)
    assert sorted(m for _, m in fiber) == [1, 1]
    assert np.allclose(sorted(r.real for r, _ in fiber), [-2.0, 2.0])


def test_preimage_tree_counts_and_inversion():
    nodes = preimage_tree(CHEB, 0.0, 6)
    assert sum(nd.multiplicity for nd in nodes) == 64
    for nd in nodes[:5]:
        w = nd.point
        for _ in range(6):
            w = CHEB(w)
        assert abs(w) < 1e-7


def test_preimage_tree_budget():
    with pytest.raises(BudgetExceeded):
        preimage_tree(CHEB, 0.0, 8, budget=100)


def test_preimage_tree_merges_multiplicity():
    # z^2 above 0: single point of multiplicity 2 at every level
    nodes = preimage_tree(SQ, 0.0, 5)
    assert len(nodes) == 1
    assert nodes[0].multiplicity == 32


def _ref_preimage_tree(p, a, n):
    """The former per-target loop: one solve_fiber per node of each level,
    merged by the former level merge."""
    points, mults = [complex(a)], [1]
    for _ in range(n):
        new_points, new_mults = [], []
        for pt, m in zip(points, mults):
            for r, k in solve_fiber(p, pt):
                new_points.append(r)
                new_mults.append(m * k)
        new_points = np.asarray(new_points)
        scale = 1.0 + float(np.max(np.abs(new_points)))
        points, mults = ref_merge_level(new_points, np.asarray(new_mults),
                                        scale)
    return points, mults


@pytest.mark.parametrize("coeffs, a", [
    ([0.2, 0.0, 0.0, 1.0], 0.1),      # z^3 + 0.2
    ([0.0, -1.0, 0.0, 1.0], 0.0),     # z^3 - z, target a fixed point
])
def test_cubic_preimage_tree_depth_6_unchanged(coeffs, a):
    p = ComplexPoly(coeffs)
    nodes = preimage_tree(p, a, 6)
    points, mults = _ref_preimage_tree(p, a, 6)
    assert [nd.multiplicity for nd in nodes] == mults
    got = np.array([nd.point for nd in nodes])
    assert got.tobytes() == np.array(points).tobytes()
    assert sum(mults) == 3 ** 6


def test_depth_16_chebyshev_tree_keeps_65404_nodes():
    # the 65,536 preimages of 0.5 under z^2 - 2 crowd near +-2 closer than
    # the cluster radius; the merge (as the former one) keeps 65,404 nodes,
    # up to 13 preimages in one
    nodes = preimage_tree(CHEB, 0.5, 16)
    assert len(nodes) == 65404
    assert max(nd.multiplicity for nd in nodes) == 13
    assert sum(nd.multiplicity for nd in nodes) == 2 ** 16


def test_is_exceptional_cubic():
    # 0 is totally invariant for z^3; z^3 - z has no exceptional point
    assert is_exceptional(ComplexPoly([0.0, 0.0, 0.0, 1.0]), 0.0)
    assert not is_exceptional(ComplexPoly([0.0, -1.0, 0.0, 1.0]), 0.0)


def test_filled_julia_mask_disk():
    # K(z^2) is the closed unit disk
    grid = SliceGrid.square(0j, 1.5, 0.125)
    inside = filled_julia_mask(SQ, grid, EscapeParams(2.0, 80))
    z = grid.mesh()
    mod = np.abs(z)
    assert np.all(inside[mod <= 0.95])
    assert not np.any(inside[mod >= 1.05])


def test_is_exceptional():
    assert is_exceptional(SQ, 0.0)          # 0 is totally invariant for z^2
    assert not is_exceptional(SQ, 1.0)
    assert not is_exceptional(CHEB, 0.0)
    with pytest.raises(ValueError):
        is_exceptional(ComplexPoly([0.0, 1.0]), 0.0)
