"""The expanded one-slice builder g_n = (P^n_I)^s, kept as a small-n oracle.

The library never expands g_n: it reads g_n's fibers off preimage trees or
solves them by composition, and screens targets on g_1 by one convolution.
This is the former `slicecases.gn_build`, verbatim but for the lift to C_i,
which is `quat_refs.ref_lift`.
"""

import numpy as np

from qbrolin.errors import BudgetExceeded, InvariantViolation
from qbrolin.policy import DEGREE_BUDGET
from qbrolin.poly import ComplexPoly, QPolynomial
from qbrolin.slicecases import _realify
from quat_refs import ref_lift


def _check_depth(pc: ComplexPoly, n: int):
    """The depths g_n is made for: n >= 1 (else ValueError) and d^n within
    DEGREE_BUDGET (else BudgetExceeded)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if pc.degree ** n > DEGREE_BUDGET:
        raise BudgetExceeded(
            f"d^n = {pc.degree ** n} exceeds budget {DEGREE_BUDGET}")


def gn_build(pc: ComplexPoly, n: int) -> QPolynomial:
    """g_n = (P^n_I)^s: iterate within the slice, lift, symmetrize.

    pc holds P's coefficients x + I y as complex numbers x + i y. C_I is a
    commutative field, so the slice iterate is an ordinary complex
    composition. Real-coefficient input short-circuits to g_n = (P^n)^2.
    """
    _check_depth(pc, n)
    d = pc.degree
    with np.errstate(over="ignore", invalid="ignore"):  # _realify refuses inf
        pn = pc.iterate_poly(n)
        if pc.is_real():
            sq = ComplexPoly(np.convolve(pn.coeffs, pn.coeffs))
            g = QPolynomial.from_real(sq.coeffs.real)
        else:
            # s * s overflows to inf where s ** 2 would raise OverflowError
            s = float(np.sum(np.abs(pn.coeffs)))
            g = _realify(QPolynomial(ref_lift(pn.coeffs)).symmetrize(),
                         scale=s * s)
    if g.degree != 2 * d ** n:
        raise InvariantViolation(f"deg g_n = {g.degree}, expected {2 * d ** n}")
    return g
