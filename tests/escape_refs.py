"""The escape iterations the library used before `cdyn._escape`, kept
verbatim as test references (this module holds no tests).

- `ref_green_field`: full-raster ledger, every step a `np.where` over all
  nodes (the former `cdyn.green_field`, with its `_ledger_switch`).
- `ref_filled_julia_mask`: full-raster escape test (the former
  `cdyn.filled_julia_mask`).
"""

import math

import numpy as np

from qbrolin.grids import GridField


def _ledger_switch(d: int) -> float:
    return 10.0 ** min(30.0, 250.0 / d)


def ref_green_field(p, grid, n):
    z = grid.mesh()
    d = p.degree
    switch = _ledger_switch(d)
    live = np.ones(z.shape, dtype=bool)
    log_mag = np.full(z.shape, -np.inf)
    log_lead = math.log(abs(p.coeffs[-1]))
    for _ in range(n):
        dead_before = ~live
        if np.any(live):
            z = np.where(live, p(np.where(live, z, 0.0)), z)
            mag = np.abs(z)
            with np.errstate(divide="ignore"):
                log_mag = np.where(live, np.log(np.maximum(mag, 1e-320)), log_mag)
            live &= mag <= switch
        if np.any(dead_before):
            log_mag = np.where(dead_before, d * log_mag + log_lead, log_mag)
    values = np.maximum(0.0, log_mag) / (d ** n)
    return GridField(grid, values)


def ref_filled_julia_mask(p, grid, esc):
    z = grid.mesh()
    inside = np.ones(z.shape, dtype=bool)
    for _ in range(esc.max_iter):
        z = np.where(inside, p(np.where(inside, z, 0.0)), z)
        inside &= np.abs(z) <= esc.radius
        if not np.any(inside):
            break
    return inside
