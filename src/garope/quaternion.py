"""Quaternion algebra mapped onto the even subalgebra of Cl(3,0).

Quaternions are float64 arrays of shape (..., 4) in (w, x, y, z) order,
i.e. scalar first then the i, j, k coefficients. Pure quaternions double
as 3D vectors and are passed around as plain (..., 3) arrays.

The basis correspondence with Cl(3,0) is 1 -> 1, i -> e12, j -> e23,
k -> e13, which matches both multiplication tables cell for cell and
therefore turns the Hamilton product into the geometric product.
``even_cl3_coeffs`` places quaternion rows on those blades (the only copy
of that placement), so the generic engine's ``Algebra(3).gp`` serves as the
product's oracle, as ``quat_sandwich`` does for ``encodings.rotor_matrix``.
"""

from __future__ import annotations

import numpy as np

from .encodings import _real_float64, as_axes, require_unit_norm

PURE_RESIDUE_TOL = 1e-12  # scalar residue allowed after a sandwich, then truncated

# (i, j, k) coefficients live at blade masks 0b011, 0b110, 0b101
_EVEN_MASKS = (0, 0b011, 0b110, 0b101)


def hamilton_product(p, q) -> np.ndarray:
    """Hamilton product on (..., 4) arrays, broadcasting like numpy."""
    p, q = _real_float64(p, "quaternions", 4), _real_float64(q, "quaternions", 4)
    pw, px, py, pz = (p[..., i] for i in range(4))
    qw, qx, qy, qz = (q[..., i] for i in range(4))
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def conjugate(q) -> np.ndarray:
    q = _real_float64(q, "quaternions", 4)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def require_unit_axis(axis) -> np.ndarray:
    """(..., 3) rotation axes as float64, rejecting any other shape and any
    not of unit length within ``encodings.UNIT_TOL`` (normalize upstream; a
    zero axis is an error, not a convention)."""
    axis = as_axes(axis)
    require_unit_norm(np.sum(axis * axis, axis=-1), "rotation axis must be a unit 3-vector")
    return axis


def quat_rotor(axis, half_angle) -> np.ndarray:
    """Unit rotor cos(h) + sin(h) u for a unit pure-quaternion axis u.

    Broadcasts: axis (..., 3) against half_angle (...,). The axis must be
    unit length (see require_unit_axis).
    """
    axis = require_unit_axis(axis)
    half_angle = _real_float64(half_angle, "half angles")
    w = np.cos(half_angle)
    xyz = np.sin(half_angle)[..., None] * axis
    return np.concatenate([np.broadcast_to(w[..., None], xyz.shape[:-1] + (1,)), xyz], axis=-1)


def quat_sandwich(r, v) -> np.ndarray:
    """Rotate pure quaternion(s) v (..., 3) by unit rotor(s) r: r v r^-1.

    The scalar part of the result is round-off only; it is checked to be
    below PURE_RESIDUE_TOL (scaled by |v| above unit magnitude) and then
    dropped so the output is exactly pure.
    """
    r = _real_float64(r, "quaternion rotors", 4)
    v = _real_float64(v, "pure quaternions", 3)
    require_unit_norm(np.sum(r * r, axis=-1), "quaternion rotor is not unit norm")
    vq = np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)
    out = hamilton_product(hamilton_product(r, vq), conjugate(r))
    scale = max(1.0, float(np.max(np.sqrt(np.sum(v * v, axis=-1)), initial=0.0)))
    residue = float(np.max(np.abs(out[..., 0]), initial=0.0))
    if residue > PURE_RESIDUE_TOL * scale:
        raise ValueError(f"sandwich scalar residue {residue!r} exceeds tolerance")
    return out[..., 1:]


def even_cl3_coeffs(q) -> np.ndarray:
    """Cl(3,0) coefficients (..., 8) of quaternions (..., 4) in the even
    subalgebra.

    Exact coefficient placement (1, i, j, k) -> (1, e12, e23, e13); a
    product homomorphism onto ``Algebra(3).gp``.
    """
    q = _real_float64(q, "quaternions", 4)
    coeffs = np.zeros(q.shape[:-1] + (8,))
    coeffs[..., _EVEN_MASKS] = q
    return coeffs
