import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from escape_refs import ref_filled_julia_mask, ref_green_field
from merge_refs import ref_merge_level
from qbrolin.cdyn import (_escape, _ledger_switch, _raster_rows,
                          escape_radius, filled_julia_mask, green_field,
                          is_exceptional, preimage_tree, solve_fiber)
from qbrolin.errors import BudgetExceeded
from qbrolin.grids import SliceGrid
from qbrolin.poly import ComplexPoly

SQ = ComplexPoly([0.0, 0.0, 1.0])          # z^2
CHEB = ComplexPoly([-2.0, 0.0, 1.0])       # z^2 - 2
BASILICA = ComplexPoly([-1.0, 0.0, 1.0])   # z^2 - 1


def _green_at(p, z, n):
    """G_n(z) from green_field: z is the first node of a 2 x 2 raster."""
    z = complex(z)
    grid = SliceGrid(z.real, z.real + 1.0, z.imag, z.imag + 1.0, 2, 2)
    return float(green_field(p, grid, n).values[0, 0])


def test_escape_radius_guarantee():
    # z^2 - 2; 0.1 z^2, whose K is the disk |z| <= 10; 0.3 z^3 + 0.5
    for p in (CHEB, ComplexPoly([0.0, 0.0, 0.1]),
              ComplexPoly([0.5, 0.0, 0.0, 0.3])):
        r = escape_radius(p)
        for z in r * 1.01 * np.exp(2j * np.pi * np.arange(16) / 16):
            for _ in range(5):
                z2 = p(z)
                assert abs(z2) > abs(z)
                z = z2


def test_escape_radius_non_monic():
    # 2 max(1, sum|c_k| / |c_d|) alone is 2 for 0.1 z^2, inside K; where it
    # is the larger term (0.3 z^3 + 0.5, every monic map) R is unchanged
    assert escape_radius(ComplexPoly([0.0, 0.0, 0.1])) == pytest.approx(20.0)
    assert escape_radius(ComplexPoly([0.5, 0.0, 0.0, 0.3])) == 2.0 * 0.8 / 0.3
    assert escape_radius(ComplexPoly([0.5, 0.0, 0.0, 1.0])) == 3.0


def test_iterate_matches_direct_eval():
    z = 0.3 + 0.4j
    w = z
    for _ in range(7):
        w = BASILICA(w)
    # 2 leaves |z| <= 2 at the first step, with |p(2)| = 3
    step, mag = _escape(BASILICA, np.array([z, 2.0]), 7, 2.0)
    assert step.tolist() == [7, 0] and mag[1] == 3.0
    assert mag[0] == pytest.approx(abs(w))
    assert math.log(mag[0]) == pytest.approx(math.log(abs(w)))


def test_iterate_ledger_regime():
    # z^2 from |z| = 10 passes the switch 1e30 at 10^32 (iteration 4), then
    # the ledger carries log|z_60| = 2^60 log 10, far past overflow
    step, mag = _escape(SQ, np.array([10.0]), 60, _ledger_switch(2))
    assert step.tolist() == [4] and mag[0] == pytest.approx(1e32)
    assert _green_at(SQ, 10.0, 60) == pytest.approx(math.log(10.0), rel=1e-12)


def test_green_n_power_map_exact():
    # G_n(z) = log+|z| exactly for z^d
    for z in (3.0, 0.5, 1.0 + 1.0j):
        g = _green_at(SQ, z, 12)
        assert g == pytest.approx(max(0.0, math.log(abs(z))), abs=1e-12)


def test_green_depth_0_is_log_plus():
    grid = SliceGrid.square(0j, 2.0, 0.25)   # a node at 0: G_0(0) = 0
    with np.errstate(divide="ignore"):
        want = np.maximum(0.0, np.log(np.abs(grid.mesh())))
    assert np.array_equal(green_field(CHEB, grid, 0).values, want)


def test_green_field_matches_pointwise():
    # compaction keeps each node's orbit: the raster value is the node's own
    grid = SliceGrid.square(0j, 2.0, 0.25)
    gf = green_field(CHEB, grid, 10)
    z = grid.mesh()
    for idx in [(0, 0), (8, 8), (3, 14), (16, 2)]:
        assert gf.values[idx] == _green_at(CHEB, z[idx], 10)


def test_green_scaling_relation():
    # G_{n+1}(z) = G_n(p(z)) / d
    z = 1.7 + 0.3j
    assert _green_at(CHEB, z, 9) == pytest.approx(
        _green_at(CHEB, CHEB(z), 8) / 2.0, rel=1e-10)


_maps = st.builds(
    lambda deg, c, lead: ComplexPoly([c] + [0.0] * (deg - 1) + [lead]),
    st.sampled_from([2, 3]),
    st.one_of(st.floats(-2.5, 0.5), st.complex_numbers(max_magnitude=1.5)),
    st.sampled_from([1.0, 1.0, 0.3, -2.5, 1e300, 1e308]))
# symmetric about the real axis, so a real map iterates the upper rows
# only; with dyadic spacing and half-width every node is exact, one of them
# 0, while half-width 1.8 or 25 cells per half-width put nodes off the
# dyadics; the 2^53 raster leaves the ledger switch at the first step
_grids = st.builds(lambda hw, k: SliceGrid.square(0j, hw, hw / k),
                   st.sampled_from([2.0, 0.5, 2.0 ** 53, 1.8]),
                   st.sampled_from([1, 4, 8, 16, 25]))


# depth 1 and max_iter 1: every exit is at the first and the last step;
# the cubic maps overflow to NaN orbits, in the ledger and in the mask
@example(SQ, SliceGrid.square(0j, 2.0, 0.25), 1, 1)
# non-dyadic mirror-exact rasters, ny even (462) and odd (923); a map with a
# 1e-13 imaginary part takes all rows
@example(BASILICA, SliceGrid.square(0j, 1.8, 1 / 128), 12, 60)
@example(ComplexPoly([-1.2, 0.0, 1.0]), SliceGrid.square(0j, 1.8, 1 / 256),
         14, 40)
@example(ComplexPoly([-1.0 + 1e-13j, 0.0, 1.0]),
         SliceGrid.square(0j, 1.8, 1 / 128), 12, 60)
@example(ComplexPoly([0.3, 0.0, 0.0, 1e300]),
         SliceGrid.square(0j, 2.0 ** 53, 2.0 ** 51), 5, 5)
@example(ComplexPoly([0.3, 0.0, 0.0, 1e308]), SliceGrid.square(0j, 2.0, 0.5), 5, 5)
@given(_maps, _grids, st.integers(1, 14), st.integers(1, 100))
@settings(max_examples=200, deadline=None)
def test_escape_kernel_bit_identical_to_full_raster_loops(p, grid, n, max_iter):
    with np.errstate(all="ignore"):   # overflow to inf and NaN on purpose
        got, want = green_field(p, grid, n), ref_green_field(p, grid, n)
        mask = filled_julia_mask(p, grid, max_iter)
        esc = SimpleNamespace(radius=escape_radius(p), max_iter=max_iter)
        ref_mask = ref_filled_julia_mask(p, grid, esc)
    assert got.values.tobytes() == want.values.tobytes()
    assert mask.shape == ref_mask.shape and np.array_equal(mask, ref_mask)


def test_real_map_iterates_the_upper_rows_of_a_mirror_exact_grid():
    grid = SliceGrid.square(0j, 1.8, 1 / 128)    # 462 rows, none at 0
    mesh = grid.mesh()
    z, rows = _raster_rows(BASILICA, grid)
    assert z.shape == (231, 462) and np.all(z.imag > 0)
    assert np.array_equal(np.where(mesh.imag < 0, np.conj(z[rows]), z[rows]),
                          mesh)
    z, rows = _raster_rows(CHEB, SliceGrid.square(0j, 1.8, 1 / 256))
    assert z.shape == (462, 923) and z[0, 0].imag == 0.0
    # a 1e-13 imaginary part, a grid off the real axis: every row
    for p, g in ((ComplexPoly([-1.0 + 1e-13j, 0.0, 1.0]), grid),
                 (BASILICA, SliceGrid.square(0.1j, 1.8, 1 / 128))):
        z, rows = _raster_rows(p, g)
        assert np.array_equal(z, g.mesh())
        assert np.array_equal(rows, np.arange(g.ny))


def test_solve_fiber_multiplicity():
    [(root, mult)] = solve_fiber(SQ, 0.0)
    assert root == 0.0 and mult == 2
    fiber = solve_fiber(CHEB, 2.0)
    assert sorted(m for _, m in fiber) == [1, 1]
    assert np.allclose(sorted(r.real for r, _ in fiber), [-2.0, 2.0])


def test_preimage_tree_counts_and_inversion():
    points = preimage_tree(CHEB, 0.0, 6)
    assert points.shape == (64,) and points.dtype == complex
    for w in points[:5]:
        for _ in range(6):
            w = CHEB(w)
        assert abs(w) < 1e-7


def test_preimage_tree_budget():
    with pytest.raises(BudgetExceeded):
        preimage_tree(CHEB, 0.0, 8, budget=100)


def test_preimage_tree_repeats_multiple_roots():
    # z^2 above 0: a double root at every level, so all 32 points are 0
    points = preimage_tree(SQ, 0.0, 5)
    assert points.shape == (32,) and np.all(points == 0.0)


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
    # no two of these preimages crowd within the merge radius, so the former
    # merged tree, each head repeated by its multiplicity, is the same points
    p = ComplexPoly(coeffs)
    got = preimage_tree(p, a, 6)
    points, mults = _ref_preimage_tree(p, a, 6)
    assert sum(mults) == len(got) == 3 ** 6
    got = got[np.lexsort((got.imag, got.real))]
    assert got.tobytes() == np.repeat(np.array(points), mults).tobytes()


def test_depth_16_chebyshev_tree_has_the_arcsine_moments():
    # the 65,536 preimages of 0.5 = 2 cos(theta) under z^2 - 2 are
    # 2 cos((theta + 2 pi j) / 2^16): for k <= 8 their k-th moment is the
    # arcsine law's, C(k, k/2) for even k and 0 for odd k. Near +-2 they
    # crowd closer than the cluster radius, which a merged tree would count
    # as multiplicities.
    points = preimage_tree(CHEB, 0.5, 16)
    assert points.shape == (2 ** 16,)
    worst = max(abs(np.mean(points ** k)
                    - (math.comb(k, k // 2) if k % 2 == 0 else 0))
                for k in range(1, 9))
    assert worst <= 1e-12


def test_is_exceptional_cubic():
    # 0 is totally invariant for z^3; z^3 - z has no exceptional point
    assert is_exceptional(ComplexPoly([0.0, 0.0, 0.0, 1.0]), 0.0)
    assert not is_exceptional(ComplexPoly([0.0, -1.0, 0.0, 1.0]), 0.0)


def _shifted_power(lead, s, d):
    """lead (z - s)^d + s, whose exceptional point is s."""
    c = lead * np.polynomial.polynomial.polypow([-s, 1.0], d).astype(complex)
    c[0] += s
    return ComplexPoly(c)


# z^2 and z^3 at 0, z^2 at 1, z^2 - 2 and z^3 - z at 0: test_is_exceptional
# and test_is_exceptional_cubic
@pytest.mark.parametrize("p, a", [
    (_shifted_power(1.0, 0.1, 2), 0.1),
    (_shifted_power(1.0, 0.41 + 0.37j, 2), 0.41 + 0.37j),
    (_shifted_power(3.0, 0.7, 3), 0.7)])
def test_is_exceptional_at_an_inexact_critical_fixed_point(p, a):
    # a float fiber of a splits by rounding, so no finite tree keeps the
    # backward orbit of a at one point; the Taylor coefficients at a vanish
    assert is_exceptional(p, a)


def test_is_exceptional_false_near_an_exceptional_map():
    assert not is_exceptional(ComplexPoly([1e-9, 0.0, 1.0]), 0.0)


def test_filled_julia_mask_disk():
    # K(z^2) is the closed unit disk
    grid = SliceGrid.square(0j, 1.5, 0.125)
    assert escape_radius(SQ) == 2.0
    inside = filled_julia_mask(SQ, grid, 80)
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
