"""Discrete slice Laplacian on rasters and its pairings with test functions.

The operator on each slice is (1/4)(d^2/dalpha^2 + d^2/dbeta^2), realized by
a 5-point stencil scaled by 1/4. Distributional pairings are normalized by
1/pi so that the discrete functional realizes the identities
  lap log|q-a|      = (1/2) delta_a           (real a)
  lap log|(q-a)^s|  = (1/2) delta_a + (1/2) delta_{a conj}   (non-real a)
exactly in the limit h -> 0. (The raw 2-D distributional constant of the
quarter-Laplacian is pi/2 per unit mass; the 1/pi factor is what makes the
half-weight form hold.) A bump is an axial test function f(alpha, rho),
evaluated at (alpha, |beta|) on every raster node. The stencil writes +0.0
on the boundary ring, so sums over the whole raster need no mask.
"""

from __future__ import annotations

import math

import numpy as np

from .cdyn import green_field
from .errors import InvariantViolation
from .grids import GridField, SliceGrid
from .measures import EmpiricalMeasure, measure_from_complex_atoms
from .poly import QPolynomial

__all__ = [
    "slice_laplacian",
    "log_distance_field",
    "kernel_pairings",
    "measure_from_green",
    "refinement_order",
    "raster_to_measure",
]

# largest share of the raster mass measure_from_green may clamp to zero
_CLAMP_LIMIT = 0.05


def slice_laplacian(f: GridField) -> GridField:
    """5-point stencil scaled by 1/4 on the interior nodes; +0.0 on the
    boundary ring."""
    v = f.values
    h2 = f.grid.h ** 2
    out = np.zeros_like(v)
    out[1:-1, 1:-1] = (v[1:-1, 2:] + v[1:-1, :-2] + v[2:, 1:-1] + v[:-2, 1:-1]
                       - 4.0 * v[1:-1, 1:-1]) / (4.0 * h2)
    return GridField(f.grid, out)


def log_distance_field(grid: SliceGrid, singularities, z=None) -> GridField:
    """sum_k log|z - s_k| on the nodes z = grid.mesh() (or the caller's),
    with the distance floored at 1e-3 h.

    No masking: the delta mass of the discrete Laplacian lives entirely in
    the stencils touching the singular node, so dropping them loses the
    mass. The floor only matters when a singularity sits exactly on a node,
    and the value there cancels in bump-weighted sums up to O(h^2 log h)
    (a node's value enters neighboring stencils with net coefficient zero).
    """
    z = grid.mesh() if z is None else z
    values, dist, diff = np.zeros(z.shape), np.empty(z.shape), np.empty_like(z)
    floor = 1e-3 * grid.h
    for s in singularities:
        np.abs(np.subtract(z, s, out=diff), out=dist)
        values += np.log(np.maximum(dist, floor, out=dist), out=dist)
    return GridField(grid, values)


def kernel_pairings(grid: SliceGrid, bump, kernels):
    """(1/pi) sum lap * bump * h^2 over the raster, lap the slice Laplacian
    of log_distance_field, for each singularity list in kernels; one mesh
    and one bump evaluation serve them all. The limit is bump(a, 0)/2 for
    [a], a real, and bump(alpha0, beta0) for [alpha0 +- i beta0], the
    kernel log|(q-a)^s| of the sphere of alpha0 + I beta0, beta0 > 0."""
    z = grid.mesh()
    bump_vals = bump(z.real, np.abs(z.imag))
    laps = (slice_laplacian(log_distance_field(grid, s, z)) for s in kernels)
    return [float(np.sum(lap.values * bump_vals) * grid.h ** 2 / math.pi)
            for lap in laps]


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
    return GridField(grid, density), clamp_mass


def raster_to_measure(density: GridField) -> EmpiricalMeasure:
    """Convert a density raster to an atomic measure on grid nodes.

    Node (alpha, beta) with mass density*h^2 > 0 becomes a slice atom at
    alpha + i beta; conjugate half-planes fold onto spheres. The result is
    normalized to unit mass (the comparison targets are probabilities).
    """
    z = density.grid.mesh()
    h2 = density.grid.h ** 2
    w = density.values * h2
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
