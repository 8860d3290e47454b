"""Every tolerance that appears in more than one place, as a fixed constant.

The results the library reports (a preimage atom's multiplicity, a certified
fiber root, a sample after burn-in) are functions of these values; none of
them is settable, so a run's numbers depend only on its inputs.
"""

# absolute tolerance on the off-plane component in restrict_to_slice
OFF_SLICE_TOL = 1e-12
# relative residual bound for certified fiber roots: |p(z)-w| <= tol*(1+|w|)
FIBER_RESIDUAL_TOL = 1e-9
# clustering radius (times scale) for multiplicity detection
CLUSTER_TOL = 1e-7
# |Im z| below cluster scale counts as a real root in atom classification
REAL_AXIS_TOL = 1e-7
# backward-orbit burn-in
BURN_IN = 30
# hard cap on polynomial coefficient counts
DEGREE_BUDGET = 4096
# Aberth iteration controls
ABERTH_MAX_ITER = 200
ABERTH_TOL = 1e-14
