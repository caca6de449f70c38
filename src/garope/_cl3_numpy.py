"""The row kernel of the fixed-size Cl(3,0) product, in numpy.

Coefficient layout per 8-slot element: (1, e1, e2, e12, e3, e31, e23, e123).
The expanded 64-term expression below was generated from the generic
blade-table product in that layout. The tests re-derive its term table,
``cl3.PRODUCT_TERMS``, from the generic engine on every run and hold
``gp_batch`` to the generic engine at 1e-13; edit the generator, not
these lines.
"""

import numpy as np

REVERSE_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, -1.0])
REVERSE_SIGNS.flags.writeable = False


def gp_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric product of (n, 8) against (n, 8), row-wise."""
    a0, a1, a2, a3, a4, a5, a6, a7 = (a[:, i] for i in range(8))
    b0, b1, b2, b3, b4, b5, b6, b7 = (b[:, i] for i in range(8))
    out = np.empty_like(a)
    out[:, 0] = a0*b0 + a1*b1 + a2*b2 - a3*b3 + a4*b4 - a5*b5 - a6*b6 - a7*b7
    out[:, 1] = a0*b1 + a1*b0 - a2*b3 + a3*b2 + a4*b5 - a5*b4 - a6*b7 - a7*b6
    out[:, 2] = a0*b2 + a1*b3 + a2*b0 - a3*b1 - a4*b6 - a5*b7 + a6*b4 - a7*b5
    out[:, 3] = a0*b3 + a1*b2 - a2*b1 + a3*b0 + a4*b7 + a5*b6 - a6*b5 + a7*b4
    out[:, 4] = a0*b4 - a1*b5 + a2*b6 - a3*b7 + a4*b0 + a5*b1 - a6*b2 - a7*b3
    out[:, 5] = a0*b5 - a1*b4 + a2*b7 - a3*b6 + a4*b1 + a5*b0 + a6*b3 + a7*b2
    out[:, 6] = a0*b6 + a1*b7 + a2*b4 + a3*b5 - a4*b2 - a5*b3 + a6*b0 + a7*b1
    out[:, 7] = a0*b7 + a1*b6 + a2*b5 + a3*b4 + a4*b3 + a5*b2 + a6*b1 + a7*b0
    return out

