"""Fixed-size Cl(3,0) kernels in numpy.

An 8-slot element ("mv8") stores coefficients in the order
(1, e1, e2, e12, e3, e31, e23, e123). This matches the generic engine's
ascending-mask order except that slot 5 carries the e31 = -e13
orientation, so the generic engine's coefficients and mv8 slots differ by
one sign flip (``_SLOT_ORIENTATION``).

The one row kernel, the product ``gp_batch``, lives in ``_cl3_numpy``;
the rotor sandwich is two of its products. The encodings' block path does
not use it; it serves the single sub-vector oracles, the analytic
gradients and the checks. ``generic_product`` and ``generic_rotor_sandwich``
run the same products through the generic engine instead: the
independent oracle that the kernel and the care benchmark are checked
against.
"""

from __future__ import annotations

import numpy as np

from . import _cl3_numpy
from .ga import Algebra, UNIT_TOL

REVERSE_SIGNS = _cl3_numpy.REVERSE_SIGNS
_SLOT_ORIENTATION = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
_SLOT_ORIENTATION.flags.writeable = False
_ODD_SLOTS = (1, 2, 4, 7)

# Frozen 64-entry term table of the mv8 product: (out_slot, a_slot, b_slot,
# sign). Generated once from the generic blade products (see
# derive_product_terms); a test re-derives it on every run.
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


def backend_name() -> str:
    """Name of the kernel implementation; there is only numpy."""
    return "numpy"


def _as_rows(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.shape[-1:] != (8,):
        raise ValueError(f"mv8 values need a trailing axis of 8, got shape {arr.shape}")
    return np.ascontiguousarray(arr.reshape(-1, 8))


def mv8_product(a, b) -> np.ndarray:
    """Geometric product of mv8 arrays with shape (..., 8), broadcasting."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if shape[-1:] != (8,):
        raise ValueError("mv8 values need a trailing axis of 8")
    rows_a = _as_rows(np.broadcast_to(a, shape))
    rows_b = _as_rows(np.broadcast_to(b, shape))
    return _cl3_numpy.gp_batch(rows_a, rows_b).reshape(shape)


def mv8_reverse(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64) * REVERSE_SIGNS


def _validate_rotor(rows: np.ndarray) -> None:
    for slot in _ODD_SLOTS:
        if np.any(rows[:, slot] != 0.0):
            raise ValueError("mv8 rotor has nonzero odd-grade slots")
    mag = np.einsum("ij,ij->i", rows, rows)
    if not np.all(np.abs(mag - 1.0) <= UNIT_TOL):  # written so NaN fails too
        raise ValueError("mv8 rotor is not unit norm")


def mv8_rotor_sandwich(rotor, a) -> np.ndarray:
    """R a ~R for even unit rotor(s), as two products of the one kernel;
    shapes broadcast like mv8_product.

    Scalar and e123 slots of a pass through unchanged (the pseudoscalar is
    central in Cl(3,0)); the products recompute them anyway and tests pin
    the pass-through to round-off.
    """
    rotor = np.asarray(rotor, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    shape = np.broadcast_shapes(rotor.shape, a.shape)
    if shape[-1:] != (8,):
        raise ValueError("mv8 values need a trailing axis of 8")
    rows_r = _as_rows(np.broadcast_to(rotor, shape))
    rows_a = _as_rows(np.broadcast_to(a, shape))
    _validate_rotor(rows_r)
    gp = _cl3_numpy.gp_batch
    return gp(gp(rows_r, rows_a), rows_r * REVERSE_SIGNS).reshape(shape)


def generic_product(a, b) -> np.ndarray:
    """Geometric product of mv8 arrays through the generic Cl(3,0) engine;
    shapes broadcast like ``Algebra.gp``."""
    a = np.asarray(a, dtype=np.float64) * _SLOT_ORIENTATION
    b = np.asarray(b, dtype=np.float64) * _SLOT_ORIENTATION
    return Algebra(3).gp(a, b) * _SLOT_ORIENTATION


def generic_rotor_sandwich(rotor, a) -> np.ndarray:
    """R a ~R through the generic engine; shapes broadcast like
    ``generic_product``, so one rotor row can serve a whole batch."""
    return generic_product(generic_product(rotor, a), mv8_reverse(rotor))


def derive_product_terms() -> tuple[tuple[int, int, int, int], ...]:
    """Recompute PRODUCT_TERMS by multiplying basis elements in the
    generic engine and repacking into the mv8 layout."""
    alg = Algebra(3)
    terms = []
    for i in range(8):
        a = np.zeros(8)
        a[i] = _SLOT_ORIENTATION[i]
        for j in range(8):
            b = np.zeros(8)
            b[j] = _SLOT_ORIENTATION[j]
            prod = alg.gp(a, b) * _SLOT_ORIENTATION  # back to slot orientation
            for k in np.nonzero(prod)[0]:
                terms.append((int(k), i, j, int(prod[k])))
    return tuple(sorted(terms))
