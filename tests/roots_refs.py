"""The closed-form quadratic solve the library used before it scaled the
division at a subnormal larger root, kept verbatim as a test reference (this
module holds no tests).

- `ref_quadratic_roots_many`: the former `roots.quadratic_roots_many`, whose
  c0 / qq is NaN where qq is subnormal (numpy's complex division overflows).
"""

import numpy as np


def ref_quadratic_roots_many(c0s, c1, c2):
    c0s = np.asarray(c0s, dtype=complex)
    disc = np.sqrt(c1 * c1 - 4.0 * c2 * c0s)
    sign = np.where((np.conj(c1) * disc).real >= 0, 1.0, -1.0)
    qq = -(c1 + sign * disc) / 2.0
    out = np.empty(c0s.shape + (2,), dtype=complex)
    nz = qq != 0
    np.divide(qq, c2, out=out[..., 0])
    np.divide(c0s, qq, out=out[..., 1], where=nz)
    real = c0s.imag == 0
    if real.any():   # real data, non-real roots: the exact pair (r, conj r)
        real &= (np.imag(c1) == 0) & (np.imag(c2) == 0)
        np.conjugate(out[..., 0], out=out[..., 1],
                     where=real & (out[..., 0].imag != 0))
    if not nz.all():
        r = np.sqrt(-c0s[~nz] / c2)
        out[~nz, 0] = r
        out[~nz, 1] = -r
    return out
