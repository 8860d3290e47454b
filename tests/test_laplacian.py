import math

import numpy as np
import pytest

from qbrolin.errors import InvariantViolation
from qbrolin.grids import GridField, SliceGrid
from qbrolin.laplacian import (fundamental_solution_check, log_distance_field,
                               measure_from_green, raster_to_measure,
                               refinement_order, slice_laplacian,
                               sphere_kernel_check)
from qbrolin.measures import TestFunction, brolin_pullback, weak_distance
from qbrolin.poly import QPolynomial

BUMP = TestFunction(
    "bump", lambda a, b: np.exp(-((a - 0.1) ** 2 + b ** 2)))


def _grid(h=1.0 / 64):
    return SliceGrid.square(0j, 2.0, h)


def test_laplacian_of_quadratics():
    grid = _grid(0.125)
    z = grid.mesh()
    # quarter-Laplacian: alpha^2 -> 1/2, harmonic alpha^2 - beta^2 -> 0
    lap = slice_laplacian(GridField(grid, z.real ** 2))
    interior = ~lap.mask
    assert np.allclose(lap.values[interior], 0.5, atol=1e-10)
    lap = slice_laplacian(GridField(grid, z.real ** 2 - z.imag ** 2))
    assert np.allclose(lap.values[interior], 0.0, atol=1e-10)


def test_laplacian_masked_input():
    grid = _grid(0.25)
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    mask[5, 5] = True
    field = GridField(grid, np.ones((grid.ny, grid.nx)), mask)
    lap = slice_laplacian(field)
    assert lap.mask[5, 5] and lap.mask[5, 6] and lap.mask[4, 5]


def test_log_distance_field_unmasked():
    grid = _grid(0.25)
    f = log_distance_field(grid, [0.25 + 0.5j])
    assert not np.any(np.isinf(f.values))
    assert not np.any(f.mask)


def test_fundamental_solution_real_point():
    got = fundamental_solution_check(0.25, BUMP, _grid())
    want = 0.5 * BUMP.axial(0.25, 0.0)
    assert got == pytest.approx(want, rel=0.02)


def test_sphere_kernel_half_weights():
    # the sphere of 0.25 + 0.3 i + 0.4 j
    got, want = sphere_kernel_check(0.25, math.hypot(0.3, 0.4), BUMP, _grid())
    assert got == pytest.approx(want, rel=0.02)


def test_sphere_kernel_rejects_real_center():
    with pytest.raises(ValueError):
        sphere_kernel_check(1.0, 0.0, BUMP, _grid(0.25))


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


def test_raster_vs_preimage_measure():
    p = QPolynomial.from_real([-2.0, 0.0, 1.0])
    density, _ = measure_from_green(p, 8, SliceGrid.square(0j, 2.5, 1.0 / 128))
    m_raster = raster_to_measure(density)
    m_tree = brolin_pullback(p, 0.0, 10)
    assert weak_distance(m_raster, m_tree) < 0.1
