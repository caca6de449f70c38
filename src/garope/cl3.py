"""The one oracle module: fixed-size Cl(3,0) elements ("mv8") on the
generic engine, and the single sub-vector rotor oracles built on them and
on the quaternion algebra.

An 8-slot element stores coefficients in the order
(1, e1, e2, e12, e3, e31, e23, e123). This matches the generic engine's
ascending-mask order except that slot 5 carries the e31 = -e13
orientation, so the generic engine's coefficients and mv8 slots differ by
one sign flip (``_SLOT_ORIENTATION``), which ``mv8_from_quaternion`` also
applies to place quaternions by the even-subalgebra embedding.

``mv8_product`` is ``Algebra(3).gp`` with that flip on its operands and
its result: the one Cl(3,0) product, and the rotor sandwich is two of its
products. The encodings' map path does not use it, and ``encodings``
imports no garope module; this module serves the oracles, the analytic
gradients and the checks, while ``quaternion.hamilton_product`` stays
the independent quaternion oracle.

The flip is the only table of the algebra stated here. ``mv8_reverse``
is ``Algebra(3).reverse`` (a sign per grade, which the flip leaves
alone), the rotor check reads the odd slots off ``Algebra(3).grades``,
and ``PRODUCT_TERMS`` is derived from ``mv8_product`` at import.

Every method is a rotor in Cl(3,0), and the single sub-vector ``*_apply``
functions compute each rotation independently of the maps: spherical
takes two of rope1d's planar turns, quatro sandwiches by a product of
two quaternion rotors, mixed is the axis-angle closed form, and care's
rotors are quatro's quaternion rotors placed in the even subalgebra
(``mv8_from_quaternion``). ``ORACLES`` lists them in the map builders'
call shape, (v, angle_x, angle_y, unit_x, unit_y): resolved angles and
unit axes, where a non-unit axis, or one whose last dimension is not 3,
raises rather than being normalized again. ``rotation_gradient(tag,
coordinate, v, angle_x, angle_y, unit_x, unit_y)`` takes the same
arguments after its tag and angle name, and derives every method's
derivative by one rule from ``ORACLES`` and each rotor's generator in
``GENERATORS``. The oracles and ``rotation_gradient`` broadcast over
leading sample axes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import _cl3_numpy  # noqa: F401  (perfbench's Tracer.install reads it; ROADMAP item 1 removes it)
from .encodings import (
    CARE_INVARIANT_SLOTS,
    SPHERICAL_AXIS_X,
    SPHERICAL_AXIS_Y,
    _real_float64,
    as_axes,
    require_unit_norm,
)
from .ga import Algebra
from .quaternion import even_cl3_coeffs, hamilton_product, quat_rotor, quat_sandwich, require_unit_axis

_SLOT_ORIENTATION = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
_SLOT_ORIENTATION.flags.writeable = False
_ODD_SLOTS = np.flatnonzero(Algebra(3).grades % 2)  # an even rotor holds 0 in each


# Read by perfbench/run.py (environment); ROADMAP item 1 removes it.
def backend_name() -> str:
    """Name of the product implementation; there is only numpy."""
    return "numpy"


def mv8_from_quaternion(q) -> np.ndarray:
    """mv8 slots of quaternions (..., 4): ``even_cl3_coeffs`` with the e31 flip."""
    return even_cl3_coeffs(q) * _SLOT_ORIENTATION


def mv8_product(a, b) -> np.ndarray:
    """Geometric product of mv8 arrays with shape (..., 8), broadcasting:
    the generic engine's product with slot 5 flipped in and out."""
    a = _real_float64(a, "mv8 values", 8) * _SLOT_ORIENTATION
    b = _real_float64(b, "mv8 values", 8) * _SLOT_ORIENTATION
    return Algebra(3).gp(a, b) * _SLOT_ORIENTATION


mv8_reverse = Algebra(3).reverse


def _validate_rotor(rotor: np.ndarray) -> None:
    if np.any(rotor[..., _ODD_SLOTS] != 0.0):
        raise ValueError("mv8 rotor has nonzero odd-grade slots")
    require_unit_norm(np.einsum("...i,...i->...", rotor, rotor), "mv8 rotor is not unit norm")


def mv8_rotor_sandwich(rotor, a) -> np.ndarray:
    """R a ~R for even unit rotor(s), as two mv8 products; shapes broadcast
    like mv8_product, so one rotor row can serve a whole batch.

    Scalar and e123 slots of a pass through unchanged (the pseudoscalar is
    central in Cl(3,0)); the products recompute them anyway and tests pin
    the pass-through to round-off.
    """
    rotor = _real_float64(rotor, "mv8 values", 8)
    _validate_rotor(rotor)
    return mv8_product(mv8_product(rotor, a), mv8_reverse(rotor))


def derive_product_terms() -> tuple[tuple[int, int, int, int], ...]:
    """The 64 terms of the mv8 product, (out_slot, a_slot, b_slot, sign),
    sorted, from the products of the mv8 basis elements."""
    basis = np.eye(8)
    prods = mv8_product(basis[:, None], basis[None, :])  # [i, j] = e_i e_j
    return tuple(
        sorted((int(k), int(i), int(j), int(prods[i, j, k])) for i, j, k in zip(*np.nonzero(prods)))
    )


# Read by perfbench/spans.py (flop counts) and perfbench/test_perfbench.py;
# ROADMAP item 1 removes it.
PRODUCT_TERMS = derive_product_terms()


# The oracles keep their own carrier widths, apart from ROTATIONS.
def rope1d_apply(v, angle) -> np.ndarray:
    v = _real_float64(v, "rope1d carriers", 2)
    angle = _real_float64(angle, "angles")
    c, s = np.cos(angle), np.sin(angle)
    return np.stack([c * v[..., 0] - s * v[..., 1], s * v[..., 0] + c * v[..., 1]], axis=-1)


def spherical_apply(v, angle_x, angle_y) -> np.ndarray:
    """Two rope1d_apply turns: the xy-plane by angle_y, then the yz-plane by angle_x."""
    v = _real_float64(v, "spherical carriers", 3)
    lead = np.broadcast_shapes(v.shape[:-1], np.shape(angle_x), np.shape(angle_y))
    out = np.array(np.broadcast_to(v, lead + (3,)))
    out[..., 0:2] = rope1d_apply(out[..., 0:2], angle_y)
    out[..., 1:3] = rope1d_apply(out[..., 1:3], angle_x)
    return out


def quatro_apply(v, angle_x, angle_y, unit_x, unit_y) -> np.ndarray:
    v = _real_float64(v, "quatro carriers", 3)
    rotor = hamilton_product(quat_rotor(unit_x, angle_x / 2.0), quat_rotor(unit_y, angle_y / 2.0))
    return quat_sandwich(rotor, v)


def mixed_apply(v, angle, unit) -> np.ndarray:
    u = require_unit_axis(unit)
    v = _real_float64(v, "mixed carriers", 3)
    angle = _real_float64(angle, "angles")[..., None]  # one angle per carrier
    c, s = np.cos(angle), np.sin(angle)
    return c * v + s * np.cross(u, v) + (1.0 - c) * np.sum(u * v, axis=-1, keepdims=True) * u


def mv8_bivector(axis) -> np.ndarray:
    """mv8 bivector slots for an axis (a_i, a_j, a_k): the pure quaternion
    (0, axis) in the even subalgebra, a_i e12 + a_j e23 + a_k e13. An
    axis whose last dimension is not 3 raises (``as_axes``)."""
    return mv8_from_quaternion(np.insert(as_axes(axis), 0, 0.0, axis=-1))


def mv8_rotor(unit, half_angle) -> np.ndarray:
    """quat_rotor's unit rotor cos(h) + sin(h) B(unit), as mv8 slots; the
    axis must be a unit axis."""
    return mv8_from_quaternion(quat_rotor(unit, half_angle))


def care_apply(m, angle_x, angle_y, unit_x, unit_y) -> np.ndarray:
    m = _real_float64(m, "care carriers")
    rx = mv8_rotor(unit_x, _real_float64(angle_x, "angles") / 2.0)
    ry = mv8_rotor(unit_y, _real_float64(angle_y, "angles") / 2.0)
    out = mv8_rotor_sandwich(mv8_product(ry, rx), m)
    # scalar and e123 commute with every rotor, so these channels are
    # exactly invariant; copy them through instead of keeping the
    # products' re-accumulated (round-off-bearing) values
    out[..., CARE_INVARIANT_SLOTS] = m[..., CARE_INVARIANT_SLOTS]
    return out


# Each method's rotor oracle at resolved angles, in METHODS order, called
# like the map builders: (v, angle_x, angle_y, unit_x, unit_y), unit axes
# (fixed methods ignore them, mixed reads unit_x; a non-unit axis raises).
# Apart from ROTATIONS, so the oracles stay independent of the maps.
ORACLES: dict[str, Callable[..., np.ndarray]] = {
    "rope1d": lambda v, angle_x, angle_y, unit_x, unit_y: rope1d_apply(v, angle_x),
    "mixed": lambda v, angle_x, angle_y, unit_x, unit_y: mixed_apply(v, angle_x + angle_y, unit_x),
    "spherical": lambda v, angle_x, angle_y, unit_x, unit_y: spherical_apply(v, angle_x, angle_y),
    "quatro": quatro_apply,
    "care": care_apply,
}


# ---------------------------------------------------------------------------
# analytic angle gradients


def _mv8_commutator_half(b: np.ndarray, m: np.ndarray) -> np.ndarray:
    return 0.5 * (mv8_product(b, m) - mv8_product(m, b))


# Each oracle's rotors, in METHODS order: the angle whose rotor conjugates
# outermost, and the generator G(w, unit_x, unit_y, wrt_x) of the rotor
# whose angle moves (angle_x when wrt_x), d/dt (R_t w ~R_t) at t = 0: the
# rotor commutator (B w - w B) / 2, on 3-vector carriers the cross product
# with the rotor's axis, and for rope1d a quarter turn (p_y turns nothing).
GENERATORS: dict[str, tuple[str, Callable[..., np.ndarray]]] = {
    "rope1d": ("angle_x", lambda w, ux, uy, wrt_x: (
        np.stack([-w[..., 1], w[..., 0]], axis=-1) if wrt_x else np.zeros_like(w))),
    "mixed": ("angle_x", lambda w, ux, uy, wrt_x: np.cross(ux, w)),
    "spherical": ("angle_x", lambda w, ux, uy, wrt_x: (
        np.cross(SPHERICAL_AXIS_X if wrt_x else SPHERICAL_AXIS_Y, w))),
    "quatro": ("angle_x", lambda w, ux, uy, wrt_x: np.cross(ux if wrt_x else uy, w)),
    "care": ("angle_y", lambda w, ux, uy, wrt_x: (
        _mv8_commutator_half(mv8_bivector(ux if wrt_x else uy), w))),
}


def rotation_gradient(
    tag: str, coordinate: str, v, angle_x, angle_y, unit_x=None, unit_y=None
) -> np.ndarray:
    """Derivative of the rotated sub-vector w.r.t. one resolved angle.

    After ``tag`` and ``coordinate`` it is called like ``ORACLES[tag]``,
    ``(v, angle_x, angle_y, unit_x, unit_y)``, at angles resolved by
    ``position_angles`` and unit axes. ``coordinate`` picks angle_x or
    angle_y (the angle after the schedule and speed scaling, so
    d angle/d p is not included). One rule over ``GENERATORS``: for the
    outer rotor's angle the derivative is G(R v), R the oracle's whole
    rotation; for the inner one it is R_out(G(R_in v)), where R_in and
    R_out are the oracle with the outer or the moving angle set to zero
    (a zero angle's rotor is exactly the identity).
    """
    if coordinate not in ("angle_x", "angle_y"):
        raise ValueError("coordinate must be angle_x or angle_y")
    if tag not in GENERATORS:
        raise ValueError(f"unknown encoding method {tag!r}")
    outer, generator = GENERATORS[tag]
    oracle, wrt_x = ORACLES[tag], coordinate == "angle_x"
    if coordinate == outer:
        return generator(oracle(v, angle_x, angle_y, unit_x, unit_y), unit_x, unit_y, wrt_x)
    without = {"angle_x": (0.0, angle_y), "angle_y": (angle_x, 0.0)}  # that angle set to zero
    w = generator(oracle(v, *without[outer], unit_x, unit_y), unit_x, unit_y, wrt_x)
    return oracle(w, *without[coordinate], unit_x, unit_y)
