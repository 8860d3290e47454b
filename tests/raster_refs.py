"""The raster kernels the library used before its in-place versions, kept
verbatim as test references (this module holds no tests).

- `ref_complex_poly_call`: the former `ComplexPoly.__call__`, one new array
  per Horner step (`acc = acc * z + c` from acc = 0).
- `ref_mesh`: the former `SliceGrid.mesh`, through `np.meshgrid`.
- `ref_fundamental_solution_check` and `ref_sphere_kernel_check`: the former
  `laplacian` checks of a real point's and of a sphere's kernel, each
  building its own log-distance field and pairing (with the former
  `log_distance_field` and `_pairing`), each on its own mesh, here
  `ref_mesh`. `slice_laplacian` is the live one: its values did not change.
  Two edits since: a bump is called as `bump(alpha, rho)`, and the pairing
  sums over the whole raster, without the former mask select, which only
  zeroed the boundary ring the stencil leaves at +0.0.
"""

import math

import numpy as np

from qbrolin.grids import GridField
from qbrolin.laplacian import slice_laplacian


def ref_complex_poly_call(coeffs, z):
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in coeffs[::-1]:
        acc = acc * z + c
    if np.ndim(z) == 0:
        return complex(acc)
    return acc


def ref_mesh(grid):
    a, b = np.meshgrid(grid.alphas(), grid.betas())
    return a + 1j * b


def ref_log_distance_field(grid, singularities):
    z = ref_mesh(grid)
    values = np.zeros(z.shape)
    floor = 1e-3 * grid.h
    for s in singularities:
        values += np.log(np.maximum(np.abs(z - s), floor))
    return GridField(grid, values)


def ref_pairing(lap, bump):
    z = ref_mesh(lap.grid)
    bump_vals = bump(z.real, np.abs(z.imag))
    h2 = lap.grid.h ** 2
    total = np.sum(lap.values * bump_vals) * h2
    return float(total / math.pi)


def ref_fundamental_solution_check(a, bump, grid):
    field = ref_log_distance_field(grid, [complex(a, 0.0)])
    lap = slice_laplacian(field)
    return ref_pairing(lap, bump)


def ref_sphere_kernel_check(alpha0, beta0, bump, grid):
    s1 = complex(alpha0, beta0)
    s2 = complex(alpha0, -beta0)
    field = ref_log_distance_field(grid, [s1, s2])
    lap = slice_laplacian(field)
    computed = ref_pairing(lap, bump)
    return computed, float(bump(alpha0, beta0))
