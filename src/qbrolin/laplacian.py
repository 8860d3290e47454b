"""Discrete slice Laplacian on rasters and its fundamental-solution checks.

The operator on each slice is (1/4)(d^2/dalpha^2 + d^2/dbeta^2), realized by
a 5-point stencil scaled by 1/4. Distributional pairings are normalized by
1/pi so that the discrete functional realizes the identities
  lap log|q-a|      = (1/2) delta_a           (real a)
  lap log|(q-a)^s|  = (1/2) delta_a + (1/2) delta_{a conj}   (non-real a)
exactly in the limit h -> 0. (The raw 2-D distributional constant of the
quarter-Laplacian is pi/2 per unit mass; the 1/pi factor is what makes the
half-weight form hold.) Bumps are axial test functions, evaluated at
(alpha, |beta|) on every raster node.
"""

from __future__ import annotations

import math

import numpy as np

from .cdyn import green_field
from .errors import InvariantViolation
from .grids import GridField, SliceGrid
from .measures import EmpiricalMeasure, TestFunction, measure_from_complex_atoms
from .poly import QPolynomial

__all__ = [
    "slice_laplacian",
    "log_distance_field",
    "fundamental_solution_check",
    "sphere_kernel_check",
    "measure_from_green",
    "refinement_order",
    "raster_to_measure",
]

# largest share of the raster mass measure_from_green may clamp to zero
_CLAMP_LIMIT = 0.05


def slice_laplacian(f: GridField) -> GridField:
    """5-point stencil scaled by 1/4; the boundary ring is masked out, and
    so is every output whose stencil touches a masked input node."""
    v = f.values
    h2 = f.grid.h ** 2
    out = np.zeros_like(v)
    out[1:-1, 1:-1] = (v[1:-1, 2:] + v[1:-1, :-2] + v[2:, 1:-1] + v[:-2, 1:-1]
                       - 4.0 * v[1:-1, 1:-1]) / (4.0 * h2)
    mask = np.ones_like(v, dtype=bool)
    mask[1:-1, 1:-1] = False
    if np.any(f.mask):
        m = f.mask
        mask[1:-1, 1:-1] = (m[1:-1, 1:-1] | m[1:-1, 2:] | m[1:-1, :-2]
                            | m[2:, 1:-1] | m[:-2, 1:-1])
    out[mask] = 0.0
    return GridField(f.grid, out, mask)


def log_distance_field(grid: SliceGrid, singularities) -> GridField:
    """sum_k log|z - s_k| with the distance floored at 1e-3 h.

    No masking: the delta mass of the discrete Laplacian lives entirely in
    the stencils touching the singular node, so dropping them loses the
    mass. The floor only matters when a singularity sits exactly on a node,
    and the value there cancels in bump-weighted sums up to O(h^2 log h)
    (a node's value enters neighboring stencils with net coefficient zero).
    """
    z = grid.mesh()
    values = np.zeros(z.shape)
    floor = 1e-3 * grid.h
    for s in singularities:
        values += np.log(np.maximum(np.abs(z - s), floor))
    return GridField(grid, values)


def _pairing(lap: GridField, bump: TestFunction) -> float:
    """(1/pi) sum lap * bump * h^2 over unmasked nodes."""
    z = lap.grid.mesh()
    bump_vals = bump.axial(z.real, np.abs(z.imag))
    h2 = lap.grid.h ** 2
    total = np.sum(np.where(lap.mask, 0.0, lap.values * bump_vals)) * h2
    return float(total / math.pi)


def fundamental_solution_check(a: float, bump: TestFunction,
                               grid: SliceGrid) -> float:
    """Pair lap log|z-a| against a bump; the limit value is bump(a)/2."""
    field = log_distance_field(grid, [complex(a, 0.0)])
    lap = slice_laplacian(field)
    return _pairing(lap, bump)


def sphere_kernel_check(alpha0: float, beta0: float, bump: TestFunction,
                        grid: SliceGrid):
    """Pair lap log|(q-a)^s| against a bump for a = alpha0 + I beta0 with
    beta0 > 0, on any unit I.

    Returns (computed, expected) with expected the conjugate-pair half
    weights (1/2) bump(alpha0 + I beta0) + (1/2) bump(alpha0 - I beta0),
    both bump.axial(alpha0, beta0) for an axial bump.
    The field depends on a only through (alpha0, beta0): (q-a)^s = (q-a')^s
    for any a' on the sphere of a.
    """
    if beta0 <= 0:
        raise ValueError("sphere_kernel_check needs a non-real center")
    s1 = complex(alpha0, beta0)
    s2 = complex(alpha0, -beta0)
    field = log_distance_field(grid, [s1, s2])
    lap = slice_laplacian(field)
    computed = _pairing(lap, bump)
    return computed, float(bump.axial(alpha0, beta0))


def measure_from_green(p: QPolynomial, n: int, grid: SliceGrid):
    """Density raster of the equilibrium measure: (1/2pi) Delta_2D G_n.

    slice_laplacian carries the 1/4 normalization, so the density is
    (2/pi) * stencil output; with this constant the raster integrates to the
    unit mass of the probability measure. Negative values (the log+ kink of
    G_n makes the stencil overshoot on the outer side of the level curve)
    are clamped to zero; returns (density field, clamp_mass). Clamp mass
    above _CLAMP_LIMIT of the total is a failed run and raises.
    """
    pc = p.restrict_to_slice()
    g = green_field(pc, grid, n)
    lap = slice_laplacian(g)
    density = (2.0 / math.pi) * lap.values
    clamp_mass = float(-np.sum(np.minimum(density, 0.0)) * grid.h ** 2)
    density = np.maximum(density, 0.0)
    total = float(np.sum(density) * grid.h ** 2)
    if total > 0 and clamp_mass > _CLAMP_LIMIT * total:
        raise InvariantViolation(
            f"clamped negative mass {clamp_mass:.3g} exceeds "
            f"{_CLAMP_LIMIT:.0%} of total {total:.3g}")
    return GridField(grid, density, lap.mask), clamp_mass


def raster_to_measure(density: GridField) -> EmpiricalMeasure:
    """Convert a density raster to an atomic measure on grid nodes.

    Node (alpha, beta) with mass density*h^2 > 0 becomes a slice atom at
    alpha + i beta; conjugate half-planes fold onto spheres. The result is
    normalized to unit mass (the comparison targets are probabilities).
    """
    z = density.grid.mesh()
    h2 = density.grid.h ** 2
    w = np.where(density.mask, 0.0, density.values) * h2
    keep = w > 0.0
    m = measure_from_complex_atoms(z[keep].ravel(), w[keep].ravel(),
                                   meta={"source": "raster"})
    return m.scaled(1.0 / m.total_mass()) if m.total_mass() > 0 else m


def refinement_order(values_by_h, exact):
    """Least-squares slope of log|error| vs log h for an h-refinement study.

    An exact zero error has no logarithm: InvariantViolation, not an order.
    """
    hs = np.array(sorted(values_by_h))
    errs = np.array([abs(values_by_h[h] - exact) for h in hs])
    if np.any(errs == 0):
        raise InvariantViolation(
            f"zero error at h = {hs[errs == 0].tolist()}: no refinement order")
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)
