"""Uniform square rasters on a slice plane C_I and scalar fields on them."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["SliceGrid", "GridField"]


@dataclass(frozen=True)
class SliceGrid:
    """Node-centered square raster over [alpha_min, alpha_max] x [beta_min, beta_max].

    Spacing must be uniform and equal in both directions.
    """

    alpha_min: float
    alpha_max: float
    beta_min: float
    beta_max: float
    nx: int
    ny: int

    def __post_init__(self):
        hx = (self.alpha_max - self.alpha_min) / (self.nx - 1)
        hy = (self.beta_max - self.beta_min) / (self.ny - 1)
        if abs(hx - hy) > 1e-12 * max(abs(hx), abs(hy)):
            raise ValueError(f"grid cells must be square: hx={hx} hy={hy}")

    @property
    def h(self):
        return (self.alpha_max - self.alpha_min) / (self.nx - 1)

    @staticmethod
    def square(center, half_width, h):
        """Square grid of spacing ~h centered at a complex point."""
        n = int(round(2 * half_width / h)) + 1
        cx, cy = center.real, center.imag
        return SliceGrid(cx - half_width, cx + half_width,
                         cy - half_width, cy + half_width, n, n)

    def alphas(self):
        return np.linspace(self.alpha_min, self.alpha_max, self.nx)

    def betas(self):
        """`linspace`, made exactly antisymmetric when beta_min == -beta_max
        (each value moves by at most 1 ulp of beta_max): rows mirror-exact."""
        b = np.linspace(self.beta_min, self.beta_max, self.ny)
        return (b - b[::-1]) / 2 if self.beta_min == -self.beta_max else b

    def mesh(self):
        """Complex node coordinates, shape (ny, nx); row = beta, col = alpha."""
        return self.alphas() + 1j * self.betas()[:, None]

    def to_json(self):
        return asdict(self)


class GridField:
    """Scalar field on a SliceGrid: one value per node."""

    def __init__(self, grid: SliceGrid, values):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (grid.ny, grid.nx):
            raise ValueError("field shape does not match grid")

    def cell_sum(self):
        """Sum of values * h^2 over every node."""
        return float(np.sum(self.values) * self.grid.h ** 2)
