import contextlib
import io
import json
import math

import numpy as np
import pytest

from qbrolin.cli import main
from qbrolin.errors import InvariantViolation
from qbrolin.grids import GridField, SliceGrid
from qbrolin.laplacian import (kernel_pairings, log_distance_field,
                               measure_from_green, raster_to_measure,
                               refinement_order, slice_laplacian)
from qbrolin.measures import brolin_pullback, weak_distance
from qbrolin.poly import QPolynomial
from raster_refs import ref_fundamental_solution_check, ref_sphere_kernel_check


def BUMP(a, b):
    return np.exp(-((a - 0.1) ** 2 + b ** 2))


def _grid(h=1.0 / 64):
    return SliceGrid.square(0j, 2.0, h)


def test_laplacian_of_quadratics():
    grid = _grid(0.125)
    z = grid.mesh()
    # quarter-Laplacian: alpha^2 -> 1/2, harmonic alpha^2 - beta^2 -> 0
    lap = slice_laplacian(GridField(grid, z.real ** 2))
    assert np.allclose(lap.values[1:-1, 1:-1], 0.5, atol=1e-10)
    # the boundary ring is +0.0, so sums over the raster need no mask
    ring = lap.values.copy()
    ring[1:-1, 1:-1] = 1.0
    assert np.sum(ring == 0.0) == 2 * (grid.nx + grid.ny) - 4
    assert not np.any(np.signbit(ring))
    lap = slice_laplacian(GridField(grid, z.real ** 2 - z.imag ** 2))
    assert np.allclose(lap.values[1:-1, 1:-1], 0.0, atol=1e-10)


def test_log_distance_field_unmasked():
    grid = _grid(0.25)
    f = log_distance_field(grid, [0.25 + 0.5j])
    assert not np.any(np.isinf(f.values))


def test_fundamental_solution_real_point():
    [got] = kernel_pairings(_grid(), BUMP, [[0.25 + 0j]])
    want = 0.5 * BUMP(0.25, 0.0)
    assert got == pytest.approx(want, rel=0.02)


def test_sphere_kernel_half_weights():
    # the sphere of 0.25 + 0.3 i + 0.4 j: log|(q-a)^s| is the kernel of the
    # conjugate pair 0.25 +- 0.5 i on every slice
    b = math.hypot(0.3, 0.4)
    [got] = kernel_pairings(_grid(), BUMP, [[0.25 + 1j * b, 0.25 - 1j * b]])
    assert got == pytest.approx(float(BUMP(0.25, b)), rel=0.02)


def test_delta_star_pairings_match_the_former_checks_bit_for_bit(tmp_path):
    # criterion 02: h 1/32 .. 1/256 on [-2, 2]^2, the real point 0.25 and
    # the sphere of 0.25 + 0.5 j, the CLI's bump
    cfg = tmp_path / "delta.json"
    cfg.write_text(json.dumps({
        "mode": "delta-star",
        "polynomial": {"coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
        "params": {"center": [0.25, 0.5],
                   "h_list": [1 / 32, 1 / 64, 1 / 128, 1 / 256]}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "delta_star.csv").read_text().splitlines()
    assert len(lines) == 5
    for line in lines[1:]:
        h, real, real_want, pair, pair_want = map(float, line.split(","))
        grid = _grid(h)
        want_r = ref_fundamental_solution_check(0.25, BUMP, grid)
        want_p = ref_sphere_kernel_check(0.25, 0.5, BUMP, grid)
        # %.17g round-trips every float
        assert (real, real_want) == (want_r, 0.5 * BUMP(0.25, 0.0))
        assert (pair, pair_want) == want_p
        assert kernel_pairings(grid, BUMP, [[0.25 + 0j],
                                            [0.25 + 0.5j, 0.25 - 0.5j]]) \
            == [want_r, want_p[0]]


def test_refinement_order_synthetic():
    values = {h: 1.0 + 3.0 * h ** 2 for h in (0.1, 0.05, 0.025)}
    assert refinement_order(values, 1.0) == pytest.approx(2.0, abs=1e-6)
    # an exact zero error measures no order
    with pytest.raises(InvariantViolation):
        refinement_order({0.1: 1.0, 0.05: 1.0}, 1.0)


def test_measure_from_green_unit_mass():
    p = QPolynomial.from_real([-2.0, 0.0, 1.0])
    density, clamp = measure_from_green(p, 8, SliceGrid.square(0j, 2.5, 1.0 / 64))
    assert density.cell_sum() == pytest.approx(1.0, abs=0.05)
    assert clamp < 0.05


def test_measure_from_green_clamp_limit():
    # the stencil overshoots at the level curve: at h = 1/16 it clamps
    # 7.3% of the mass, past the 5% limit
    p = QPolynomial.from_real([-2.0, 0.0, 1.0])
    with pytest.raises(InvariantViolation):
        measure_from_green(p, 8, SliceGrid.square(0j, 2.5, 1.0 / 16))


def test_green_raster_measure_has_one_atom_per_axial_node():
    # on a mirror-exact grid every node and its mirror image fold onto one
    # sphere: 84,096 nodes of positive mass, 42,048 atoms (66,560 atoms when
    # 41.6% of the beta values had their negation)
    grid = SliceGrid.square(0j, 1.8, 1.0 / 128)
    p = QPolynomial.from_real([-1.0, 0.0, 1.0])
    density, _ = measure_from_green(p, 10, grid)
    m = raster_to_measure(density)
    z = grid.mesh()[density.values * grid.h ** 2 > 0.0]
    axial = np.unique(np.stack([z.real, np.abs(z.imag)]), axis=1)
    assert len(m) == axial.shape[1] == 42048 and len(z) == 84096


def test_raster_vs_preimage_measure():
    p = QPolynomial.from_real([-2.0, 0.0, 1.0])
    density, _ = measure_from_green(p, 8, SliceGrid.square(0j, 2.5, 1.0 / 128))
    m_raster = raster_to_measure(density)
    m_tree = brolin_pullback(p, 0.0, 10)
    assert weak_distance(m_raster, m_tree) < 0.1
