"""Fixed-size Cl(3,0) elements ("mv8") on the generic engine.

An 8-slot element stores coefficients in the order
(1, e1, e2, e12, e3, e31, e23, e123). This matches the generic engine's
ascending-mask order except that slot 5 carries the e31 = -e13
orientation, so the generic engine's coefficients and mv8 slots differ by
one sign flip (``_SLOT_ORIENTATION``).

``mv8_product`` is ``Algebra(3).gp`` with that flip on its operands and
its result: the one Cl(3,0) product, and the rotor sandwich is two of its
products. The encodings' block path does not use it; it serves the single
sub-vector oracles, the analytic gradients and the checks, while
``quaternion.hamilton_product`` stays the independent quaternion oracle.
"""

from __future__ import annotations

import numpy as np

from . import _cl3_numpy  # loaded for perfbench's Tracer.install; ROADMAP item 1 removes it
from .ga import Algebra, UNIT_TOL

REVERSE_SIGNS = _cl3_numpy.REVERSE_SIGNS
_SLOT_ORIENTATION = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
_SLOT_ORIENTATION.flags.writeable = False
_ODD_SLOTS = (1, 2, 4, 7)

# The 64 terms of the mv8 product: (out_slot, a_slot, b_slot, sign), as
# derive_product_terms recomputes them. Read by perfbench/spans.py (flop
# counts) and perfbench/test_perfbench.py; ROADMAP item 1 removes it.
PRODUCT_TERMS = (
    (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, -1),
    (0, 4, 4, 1), (0, 5, 5, -1), (0, 6, 6, -1), (0, 7, 7, -1),
    (1, 0, 1, 1), (1, 1, 0, 1), (1, 2, 3, -1), (1, 3, 2, 1),
    (1, 4, 5, 1), (1, 5, 4, -1), (1, 6, 7, -1), (1, 7, 6, -1),
    (2, 0, 2, 1), (2, 1, 3, 1), (2, 2, 0, 1), (2, 3, 1, -1),
    (2, 4, 6, -1), (2, 5, 7, -1), (2, 6, 4, 1), (2, 7, 5, -1),
    (3, 0, 3, 1), (3, 1, 2, 1), (3, 2, 1, -1), (3, 3, 0, 1),
    (3, 4, 7, 1), (3, 5, 6, 1), (3, 6, 5, -1), (3, 7, 4, 1),
    (4, 0, 4, 1), (4, 1, 5, -1), (4, 2, 6, 1), (4, 3, 7, -1),
    (4, 4, 0, 1), (4, 5, 1, 1), (4, 6, 2, -1), (4, 7, 3, -1),
    (5, 0, 5, 1), (5, 1, 4, -1), (5, 2, 7, 1), (5, 3, 6, -1),
    (5, 4, 1, 1), (5, 5, 0, 1), (5, 6, 3, 1), (5, 7, 2, 1),
    (6, 0, 6, 1), (6, 1, 7, 1), (6, 2, 4, 1), (6, 3, 5, 1),
    (6, 4, 2, -1), (6, 5, 3, -1), (6, 6, 0, 1), (6, 7, 1, 1),
    (7, 0, 7, 1), (7, 1, 6, 1), (7, 2, 5, 1), (7, 3, 4, 1),
    (7, 4, 3, 1), (7, 5, 2, 1), (7, 6, 1, 1), (7, 7, 0, 1),
)


# Read by perfbench/run.py (environment); ROADMAP item 1 removes it.
def backend_name() -> str:
    """Name of the product implementation; there is only numpy."""
    return "numpy"


def _as_mv8(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.shape[-1:] != (8,):
        raise ValueError(f"mv8 values need a trailing axis of 8, got shape {arr.shape}")
    return arr


def mv8_product(a, b) -> np.ndarray:
    """Geometric product of mv8 arrays with shape (..., 8), broadcasting:
    the generic engine's product with slot 5 flipped in and out."""
    a = _as_mv8(a) * _SLOT_ORIENTATION
    b = _as_mv8(b) * _SLOT_ORIENTATION
    return Algebra(3).gp(a, b) * _SLOT_ORIENTATION


def mv8_reverse(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64) * REVERSE_SIGNS


def _validate_rotor(rotor: np.ndarray) -> None:
    for slot in _ODD_SLOTS:
        if np.any(rotor[..., slot] != 0.0):
            raise ValueError("mv8 rotor has nonzero odd-grade slots")
    mag = np.einsum("...i,...i->...", rotor, rotor)
    if not np.all(np.abs(mag - 1.0) <= UNIT_TOL):  # written so NaN fails too
        raise ValueError("mv8 rotor is not unit norm")


def mv8_rotor_sandwich(rotor, a) -> np.ndarray:
    """R a ~R for even unit rotor(s), as two mv8 products; shapes broadcast
    like mv8_product, so one rotor row can serve a whole batch.

    Scalar and e123 slots of a pass through unchanged (the pseudoscalar is
    central in Cl(3,0)); the products recompute them anyway and tests pin
    the pass-through to round-off.
    """
    rotor = _as_mv8(rotor)
    _validate_rotor(rotor)
    return mv8_product(mv8_product(rotor, a), mv8_reverse(rotor))


def derive_product_terms() -> tuple[tuple[int, int, int, int], ...]:
    """Recompute PRODUCT_TERMS from the products of the mv8 basis elements."""
    basis = np.eye(8)
    prods = mv8_product(basis[:, None], basis[None, :])  # [i, j] = e_i e_j
    return tuple(
        sorted((int(k), int(i), int(j), int(prods[i, j, k])) for i, j, k in zip(*np.nonzero(prods)))
    )
