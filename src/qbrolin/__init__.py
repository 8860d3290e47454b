"""Numerical toolkit for equilibrium measures of quaternionic polynomials.

Slice-regular polynomial algebra (star product, symmetrization, bullet
composition), one-slice complex dynamics with Green's functions and preimage
measures, the slice Laplacian with its fundamental solutions, dynamical
statistics (Lyapunov, mixing, CLT, entropy), and the one-slice / general
coefficient constructions, behind a reproducible CLI.
"""

__version__ = "0.1.0"

from .errors import (BudgetExceeded, CoefficientOffSlice, ConfigError,
                     DegenerateSample, ExceptionalTarget, InvariantViolation,
                     ProbeOnFiber, QBrolinError, SolverFailure, ZeroDivisor)
from .quat import hamilton, inverse, norm_sq, sphere_quadrature
from .poly import ComplexPoly, QPolynomial, evaluate
from .grids import GridField, SliceGrid
from .cdyn import (escape_radius, filled_julia_mask, green_field,
                   is_exceptional, preimage_tree, solve_fiber)
from .measures import (EmpiricalMeasure, brolin_pullback,
                       measure_from_complex_atoms, pair, pushforward,
                       standard_panel, weak_distance)
from .laplacian import (kernel_pairings, log_distance_field,
                        measure_from_green, raster_to_measure,
                        refinement_order, slice_laplacian)
from .dynstats import (AxialBox, CltResult, EstimateReport, calibrate_ks_null,
                       clt_harness, lyapunov_slice, lyapunov_sphere_direction,
                       mixing_correlation, partition_entropy, sample_mu,
                       separated_count, topological_entropy)
from .slicecases import (brolin3_gap, gn_pullback_measure, hn_build,
                         mu_prime_estimate)
