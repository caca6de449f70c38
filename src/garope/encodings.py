"""Positional encoding methods over 2D position grids.

Five methods act on query/key sub-vectors, distinguished by carrier width:

* ``rope1d``   - width 2, planar rotation by theta_i * p_x.
* ``mixed``    - width 3, one shared rotation axis, angle
  theta_i * (s_x p_x + s_y p_y); the two position coordinates commute.
* ``spherical``- width 3, fixed-axis pair: an xy-plane rotation by the
  p_y angle applied first, then a yz-plane rotation by the p_x angle.
* ``quatro``   - width 3, two learnable-axis quaternion rotors; the p_x
  rotor is the outer one in the conjugation.
* ``care``     - width 8, full Cl(3,0) multivector sub-vectors conjugated
  by a composite rotor; here the p_y rotor is the outer one.

Angles come from a per-band frequency schedule theta_i scaled by
per-coordinate speed factors. The block path and the sampling tools go
through one method table, ``ROTATIONS``: each method builds one
orthogonal map per (token, band) and applies it to every batch row.
rope1d's map is a complex phase exp(i angle) (rank 0) that multiplies
each 2-slot carrier read as one complex number; the 3x3 maps (rank 2)
are applied with explicit multiply-adds. spherical, quatro and care
build the 3x3 matrix of a two-rotor quaternion product, written out in
closed form. A block is encoded in two steps, ``block_maps`` (maps from
positions) and ``rotate_rows`` (maps applied to a raw float32 or float64
array one batch row at a time: each row is converted, rotated, checked
for non-finite values while still in float64, and cast into the output,
where a float32 row is checked again for overflow);
``apply_encoding`` runs both, attention scores reuse one build for
queries and keys, and ``garope encode`` rotates the file's array into an
output of its own dtype.
The single sub-vector ``*_rotate`` functions (grid positions) and
``*_apply`` variants (resolved angles) compute the same rotations
independently, through rotors, and serve as its oracles; they and
``rotation_gradient`` broadcast over leading sample axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import cl3
from .quaternion import (
    hamilton_product,
    quat_rotor,
    quat_sandwich,
    require_unit_axis,
    require_unit_norm,
)

METHODS = ("rope1d", "mixed", "spherical", "quatro", "care")
METHOD_WIDTHS = {"rope1d": 2, "mixed": 3, "spherical": 3, "quatro": 3, "care": 8}

AXIS_MIN_NORM = 1e-8  # raw learnable axes below this are degenerate

# Fixed axis pair that makes the two-rotor methods reproduce the
# fixed-axis spherical method: the p_x rotor about i generates the
# yz-plane rotation, the p_y rotor about k the xy-plane rotation.
SPHERICAL_AXIS_X = np.array([1.0, 0.0, 0.0])
SPHERICAL_AXIS_Y = np.array([0.0, 0.0, 1.0])
SPHERICAL_AXIS_X.flags.writeable = False
SPHERICAL_AXIS_Y.flags.writeable = False


def _axis_norms(axis: np.ndarray, what: str, degenerate: str) -> np.ndarray:
    """Norms of (..., 3) axes, keeping the last axis. A norm below
    AXIS_MIN_NORM or not finite raises ``degenerate``, unless the axis is
    finite and only its square overflows float64: that raises, named."""
    with np.errstate(over="ignore"):  # an overflow is named just below
        norm = np.sqrt(np.sum(axis * axis, axis=-1, keepdims=True))
    if not np.all((norm >= AXIS_MIN_NORM) & np.isfinite(norm)):  # so NaN fails too
        if np.any(np.isinf(norm) & np.all(np.isfinite(axis), axis=-1, keepdims=True)):
            raise ValueError(f"{what}: the squared norm of a finite axis overflows float64")
        raise ValueError(degenerate)
    return norm


def unit_axis(axis) -> np.ndarray:
    """Normalize (..., 3) axes, rejecting raw norms below AXIS_MIN_NORM or
    non-finite ones."""
    axis = np.asarray(axis, dtype=np.float64)
    return axis / _axis_norms(
        axis, "rotation axis", "degenerate rotation axis (norm below 1e-8 or not finite)"
    )


def grade1_rotation_axis(axis) -> np.ndarray:
    """3-space axis about which a bivector-parameterized rotor turns vectors.

    An axis (a_i, a_j, a_k) names the bivector a_i e12 + a_j e23 + a_k e13.
    Acting on grade-1 coefficients, the sandwich by its exponential is the
    rotation about (-a_j, a_k, -a_i): the dual vector of the bivector, with
    orientation fixed by the same convention that sends exp((t/2) e12) e1
    to cos(t) e1 - sin(t) e2. Pinned numerically by a generator test.
    """
    axis = np.asarray(axis, dtype=np.float64)
    return np.stack([-axis[..., 1], axis[..., 2], -axis[..., 0]], axis=-1)


@dataclass(frozen=True)
class FrequencySchedule:
    """Per-band angular speeds theta_i = base**(-i / num_bands)."""

    base: float
    num_bands: int
    band_angles: np.ndarray = field(repr=False)

    @classmethod
    def for_bands(cls, num_bands: int, base: float = 10000.0) -> "FrequencySchedule":
        if num_bands < 1:
            raise ValueError("schedule needs at least one band")
        if not math.isfinite(base):
            raise ValueError(f"schedule base must be finite, got {base!r}")
        if base <= 1.0:
            raise ValueError("schedule base must exceed 1")
        i = np.arange(num_bands, dtype=np.float64)
        angles = base ** (-i / num_bands)  # == base**(-2i / (2*num_bands))
        angles.flags.writeable = False
        return cls(base=float(base), num_bands=num_bands, band_angles=angles)


@dataclass(frozen=True)
class AxisParams:
    """Raw per-band rotation axes for the x and y position coordinates."""

    axes_x: np.ndarray  # (num_bands, 3)
    axes_y: np.ndarray

    def __post_init__(self):
        for name in ("axes_x", "axes_y"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(f"{name} must have shape (num_bands, 3)")
            _axis_norms(arr, name, f"{name} contains a degenerate or non-finite axis")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.axes_x.shape != self.axes_y.shape:
            raise ValueError("axes_x and axes_y must cover the same bands")

    @property
    def num_bands(self) -> int:
        return self.axes_x.shape[0]

    def unit_x(self) -> np.ndarray:
        return unit_axis(self.axes_x)

    def unit_y(self) -> np.ndarray:
        return unit_axis(self.axes_y)


@dataclass(frozen=True)
class EncodingMethod:
    """A method tag plus everything needed to apply it to a block."""

    tag: str
    schedule: FrequencySchedule
    axes: AxisParams | None = None
    scale_x: float = 1.0
    scale_y: float = 1.0

    def __post_init__(self):
        if self.tag not in METHODS:
            raise ValueError(f"unknown encoding method {self.tag!r}")
        for name, scale in (("scale_x", self.scale_x), ("scale_y", self.scale_y)):
            if not math.isfinite(scale):
                raise ValueError(f"{name} must be finite, got {scale!r}")
        if self.tag in ("rope1d", "spherical"):
            if self.axes is not None:
                raise ValueError(f"{self.tag} has fixed axes; remove the axis parameters")
            return
        if self.axes is None:
            raise ValueError(f"{self.tag} needs axis parameters")
        if self.axes.num_bands != self.schedule.num_bands:
            raise ValueError("axis bands do not match schedule bands")
        if self.tag == "mixed":
            ux, uy = self.axes.unit_x(), self.axes.unit_y()
            if np.max(np.abs(ux - uy)) > 1e-9:
                raise ValueError("mixed encoding needs one shared axis")

    @property
    def width(self) -> int:
        return METHOD_WIDTHS[self.tag]

    @classmethod
    def configure(
        cls,
        tag: str,
        head_dim: int,
        base: float = 10000.0,
        axes_x=None,
        axes_y=None,
        scale_x: float = 1.0,
        scale_y: float = 1.0,
    ) -> "EncodingMethod":
        """Build a method for a given head_dim, filling in default axes.

        Each axis is one 3-vector shared by every band or a (num_bands, 3)
        list. Defaults: quatro/care use the spherical-equivalent fixed
        pair, mixed shares the xy-plane axis (0, 0, 1) for both
        coordinates. rope1d and spherical have no free axes, and the
        constructor rejects explicit ones.
        """
        width = METHOD_WIDTHS[tag] if tag in METHODS else None
        if width is None:
            raise ValueError(f"unknown encoding method {tag!r}")
        num_bands = head_dim // width
        if num_bands < 1:
            raise ValueError(f"head_dim {head_dim} is below the {tag} sub-vector width {width}")
        schedule = FrequencySchedule.for_bands(num_bands, base)
        axes = None
        if tag in ("mixed", "quatro", "care") or axes_x is not None or axes_y is not None:
            if axes_x is None:
                axes_x = SPHERICAL_AXIS_Y if tag == "mixed" else SPHERICAL_AXIS_X
            axes_x = _per_band(axes_x, num_bands, "axes_x")
            if axes_y is None:
                axes_y = axes_x if tag == "mixed" else SPHERICAL_AXIS_Y
            axes = AxisParams(axes_x, _per_band(axes_y, num_bands, "axes_y"))
        return cls(tag=tag, schedule=schedule, axes=axes, scale_x=float(scale_x), scale_y=float(scale_y))


def _per_band(axes, num_bands: int, name: str) -> np.ndarray:
    """(num_bands, 3) axes from one shared 3-vector or a per-band list."""
    arr = np.asarray(axes, dtype=np.float64)
    if arr.shape == (3,):
        arr = np.tile(arr, (num_bands, 1))
    if arr.ndim == 2 and arr.shape[1] == 3 and arr.shape[0] != num_bands:
        raise ValueError(f"{name} lists {arr.shape[0]} bands, method needs {num_bands}")
    if arr.shape != (num_bands, 3):
        raise ValueError(f"{name} must be one 3-vector or shape ({num_bands}, 3)")
    return arr


def _read_only(values) -> np.ndarray:
    """values as float64, frozen through a view so that an array the
    caller passed in keeps its own flags; read-only input is kept as is."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.flags.writeable:
        arr = arr.view()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TokenBlock:
    """batch x tokens x head_dim values plus one 2D position per token."""

    data: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        data = _read_only(self.data)
        pos = _read_only(self.positions)
        if data.ndim != 3:
            raise ValueError("block data must be batch x tokens x head_dim")
        if pos.shape != (data.shape[1], 2):
            raise ValueError("positions must be (tokens, 2) matching the block")
        if not (np.all(np.isfinite(data)) and np.all(np.isfinite(pos))):
            raise ValueError("block contains non-finite values")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "positions", pos)

    @classmethod
    def _trusted(cls, data: np.ndarray, positions: np.ndarray) -> "TokenBlock":
        """Block around already checked values, without the constructor's
        scan: ``data`` is a fresh float64 array whose every value is known
        finite, ``positions`` a checked block's read-only positions."""
        data.flags.writeable = False
        block = object.__new__(cls)
        object.__setattr__(block, "data", data)
        object.__setattr__(block, "positions", positions)
        return block

    @property
    def batch(self) -> int:
        return self.data.shape[0]

    @property
    def tokens(self) -> int:
        return self.data.shape[1]

    @property
    def head_dim(self) -> int:
        return self.data.shape[2]


def grid_positions(grid_h: int, grid_w: int, origin=(0.0, 0.0)) -> np.ndarray:
    """Row-major (tokens, 2) integer grid; p_x runs along columns."""
    rows, cols = np.meshgrid(np.arange(grid_h), np.arange(grid_w), indexing="ij")
    pos = np.stack([cols.ravel() + origin[0], rows.ravel() + origin[1]], axis=-1)
    return pos.astype(np.float64)


def random_block(batch: int, head_dim: int, positions, seed: int) -> TokenBlock:
    """Standard-normal block with fixed positions, reproducible by seed."""
    positions = np.asarray(positions, dtype=np.float64)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((batch, positions.shape[0], head_dim))
    return TokenBlock(data=data, positions=positions)


# ---------------------------------------------------------------------------
# single sub-vector operations


def position_angles(p, theta, scale_x: float, scale_y: float) -> tuple[np.ndarray, np.ndarray]:
    """Resolved (angle_x, angle_y) = (theta (s_x p_x), theta (s_y p_y)) of
    (..., 2) positions at band angle(s) theta broadcasting against them.
    Each position is scaled first: the encoder, its oracles and ``grad``
    all form angles here, so they agree to the last bit."""
    p = np.asarray(p, dtype=np.float64)
    return theta * (scale_x * p[..., 0]), theta * (scale_y * p[..., 1])


def rope1d_apply(v, angle) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    c, s = np.cos(angle), np.sin(angle)
    return np.stack([c * v[..., 0] - s * v[..., 1], s * v[..., 0] + c * v[..., 1]], axis=-1)


def rope1d_rotate(v, p, theta, scale_x: float = 1.0) -> np.ndarray:
    """Planar rotation of a 2-vector by theta (s_x p), p being p_x alone."""
    return rope1d_apply(v, theta * (scale_x * np.asarray(p, dtype=np.float64)))


def _rot_xy(angle) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    z, o = np.zeros_like(c), np.ones_like(c)
    return np.stack(
        [np.stack([c, -s, z], -1), np.stack([s, c, z], -1), np.stack([z, z, o], -1)], axis=-2
    )


def _rot_yz(angle) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    z, o = np.zeros_like(c), np.ones_like(c)
    return np.stack(
        [np.stack([o, z, z], -1), np.stack([z, c, -s], -1), np.stack([z, s, c], -1)], axis=-2
    )


def spherical_apply(v, angle_x, angle_y) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    step = np.einsum("...ij,...j->...i", _rot_xy(angle_y), v)
    return np.einsum("...ij,...j->...i", _rot_yz(angle_x), step)


def spherical_rotate(v, p, theta, scale_x: float = 1.0, scale_y: float = 1.0) -> np.ndarray:
    """Fixed-axis 3-vector rotation: xy-plane by the p_y angle first, then
    yz-plane by the p_x angle. The two steps do not commute."""
    ax, ay = position_angles(p, theta, scale_x, scale_y)
    return spherical_apply(v, ax, ay)


def quatro_apply(v, angle_x, angle_y, axis_x, axis_y) -> np.ndarray:
    ux, uy = unit_axis(axis_x), unit_axis(axis_y)
    rotor = hamilton_product(quat_rotor(ux, angle_x / 2.0), quat_rotor(uy, angle_y / 2.0))
    return quat_sandwich(rotor, v)


def quatro_rotate(
    v, p, axis_x, axis_y, theta, scale_x: float = 1.0, scale_y: float = 1.0
) -> np.ndarray:
    """Two-rotor quaternion rotation of a 3-vector; the x rotor conjugates
    outermost, so the composite rotor is r_x * r_y."""
    ax, ay = position_angles(p, theta, scale_x, scale_y)
    return quatro_apply(v, ax, ay, axis_x, axis_y)


def mixed_apply(v, angle, axis) -> np.ndarray:
    u = unit_axis(axis)
    v = np.asarray(v, dtype=np.float64)
    angle = np.asarray(angle, dtype=np.float64)[..., None]  # one angle per carrier
    c, s = np.cos(angle), np.sin(angle)
    return c * v + s * np.cross(u, v) + (1.0 - c) * np.sum(u * v, axis=-1, keepdims=True) * u


def mixed_rotate(
    v, p, axis, theta, scale_x: float = 1.0, scale_y: float = 1.0
) -> np.ndarray:
    """Shared-axis rotation by the combined angle theta * (s_x p_x + s_y p_y).

    Closed form (axis-angle); identical to quatro_rotate with both axes set
    to the shared axis, because same-plane rotors compose additively.
    """
    ax, ay = position_angles(p, theta, scale_x, scale_y)
    return mixed_apply(v, ax + ay, axis)


def mv8_bivector(axis) -> np.ndarray:
    """mv8 bivector slots for an axis (a_i, a_j, a_k): a_i e12 + a_j e23 +
    a_k e13, with the e13 component stored on the e31 slot as -a_k."""
    axis = np.asarray(axis, dtype=np.float64)
    out = np.zeros(axis.shape[:-1] + (8,))
    out[..., 3] = axis[..., 0]
    out[..., 6] = axis[..., 1]
    out[..., 5] = -axis[..., 2]
    return out


def mv8_rotor(axis, half_angle) -> np.ndarray:
    """Unit mv8 rotor cos(h) + sin(h) B(axis); broadcasts like quat_rotor."""
    u = unit_axis(axis)
    half_angle = np.asarray(half_angle, dtype=np.float64)
    out = np.sin(half_angle)[..., None] * mv8_bivector(u)
    out[..., 0] = np.cos(half_angle)
    return out


def care_apply(m, angle_x, angle_y, axis_x, axis_y) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    rx = mv8_rotor(axis_x, np.asarray(angle_x) / 2.0)
    ry = mv8_rotor(axis_y, np.asarray(angle_y) / 2.0)
    out = cl3.mv8_rotor_sandwich(cl3.mv8_product(ry, rx), m)
    # scalar and e123 commute with every rotor, so these channels are
    # exactly invariant; copy them through instead of keeping the
    # products' re-accumulated (round-off-bearing) values
    out[..., 0] = m[..., 0]
    out[..., 7] = m[..., 7]
    return out


def care_rotate(
    m, p, axis_x, axis_y, theta, scale_x: float = 1.0, scale_y: float = 1.0
) -> np.ndarray:
    """Conjugate an 8-slot multivector by the composite rotor R_y R_x (the
    y rotor outermost, unlike quatro). Scalar and e123 slots are invariant;
    every grade's norm is preserved."""
    ax, ay = position_angles(p, theta, scale_x, scale_y)
    return care_apply(m, ax, ay, axis_x, axis_y)


# ---------------------------------------------------------------------------
# analytic angle gradients


def _mv8_commutator_half(b: np.ndarray, m: np.ndarray) -> np.ndarray:
    return 0.5 * (cl3.mv8_product(b, m) - cl3.mv8_product(m, b))


def rotation_gradient(
    tag: str,
    v,
    p,
    theta,
    coordinate: str,
    axis_x=None,
    axis_y=None,
    scale_x: float = 1.0,
    scale_y: float = 1.0,
) -> np.ndarray:
    """Derivative of the rotated sub-vector w.r.t. one resolved angle.

    ``coordinate`` picks angle_x or angle_y (the angle after the schedule
    and speed scaling, so d angle/d p is not included). Uses the rotor
    derivative d/dt (R a ~R) = (B (R a ~R) - (R a ~R) B) / 2 for the rotor
    whose angle moves, conjugated through the remaining outer rotor; for
    3-vector carriers that commutator is the cross product with the axis.
    """
    if coordinate not in ("angle_x", "angle_y"):
        raise ValueError("coordinate must be angle_x or angle_y")
    ax, ay = position_angles(p, theta, scale_x, scale_y)
    wrt_x = coordinate == "angle_x"

    if tag == "rope1d":
        if not wrt_x:
            return np.zeros(np.shape(np.asarray(v, dtype=np.float64)))
        out = rope1d_apply(v, ax)
        return np.stack([-out[..., 1], out[..., 0]], axis=-1)

    if tag == "mixed":
        u = unit_axis(axis_x)
        return np.cross(u, mixed_apply(v, ax + ay, u))

    if tag == "spherical":
        axis_x, axis_y = SPHERICAL_AXIS_X, SPHERICAL_AXIS_Y
        tag = "quatro"

    if tag == "quatro":
        ux, uy = unit_axis(axis_x), unit_axis(axis_y)
        if wrt_x:  # outer rotor
            return np.cross(ux, quatro_apply(v, ax, ay, ux, uy))
        rx = quat_rotor(ux, ax / 2.0)
        ry = quat_rotor(uy, ay / 2.0)
        return quat_sandwich(rx, np.cross(uy, quat_sandwich(ry, v)))

    if tag == "care":
        ux, uy = unit_axis(axis_x), unit_axis(axis_y)
        bx, by = mv8_bivector(ux), mv8_bivector(uy)
        rx = mv8_rotor(ux, ax / 2.0)
        ry = mv8_rotor(uy, ay / 2.0)
        if not wrt_x:  # outer rotor
            out = cl3.mv8_rotor_sandwich(cl3.mv8_product(ry, rx), v)
            return _mv8_commutator_half(by, out)
        inner = cl3.mv8_rotor_sandwich(rx, v)
        return cl3.mv8_rotor_sandwich(ry, _mv8_commutator_half(bx, inner))

    raise ValueError(f"unknown encoding method {tag!r}")


# ---------------------------------------------------------------------------
# rotation-map core
#
# Every method is one orthogonal map per (token, band). rope1d's is a planar
# turn, stored as the unit complex phase exp(i angle) = cos + i sin, which
# multiplies each 2-slot carrier read as one complex number (RoFormer's
# complex form of RoPE); mixed, spherical and quatro have a 3x3 matrix.
# care's composite rotor turns the grade-1 slots (e1, e2, e3) by a 3x3
# matrix M and, since the pseudoscalar is central, the bivector slots
# (e23, e31, e12) = (e1, e2, e3) e123 by the same M, while the scalar and
# e123 slots stay put: its 8x8 map is block-diag(1, M, M, 1). The 3x3
# matrices of spherical, quatro and care all come from one two-rotor build:
# the components of q = r_outer r_inner are written out from the two
# half-angle cosines and sines and the axes' dot and cross products, and
# the nine entries of q's rotation matrix go straight into one (3, 3, ...)
# array, with no quaternion arrays in between. Maps are built once per
# (token, band), components first, and applied to every batch row; the
# inverse map set (the conjugate phase, or the transposed matrices) is
# formed once per call, before the rows are rotated.

CARE_VECTOR_SLOTS = (1, 2, 4)  # e1, e2, e3
CARE_BIVECTOR_SLOTS = (6, 5, 3)  # e23, e31, e12: the duals of e1, e2, e3
CARE_INVARIANT_SLOTS = (0, 7)  # scalar, e123


def _planar_maps(angles_x, angles_y, unit_x, unit_y) -> np.ndarray:
    phase = np.empty(angles_x.shape, dtype=np.complex128)  # p_y does not contribute
    np.cos(angles_x, out=phase.real)
    np.sin(angles_x, out=phase.imag)
    return phase


def _mixed_maps(angles_x, angles_y, unit_x, unit_y) -> np.ndarray:
    """Rodrigues matrix c I + s [u]x + (1 - c) u u^T of the summed angle."""
    angle = angles_x + angles_y
    c, s = np.cos(angle), np.sin(angle)
    k = 1.0 - c
    u = np.moveaxis(np.asarray(unit_x, dtype=np.float64), -1, 0)  # (3, ...)
    mats = np.empty((3, 3) + np.broadcast_shapes(c.shape, u.shape[1:]))
    for i in range(3):
        for j in range(3):
            np.multiply(k, u[i] * u[j], out=mats[i, j, ...])
        mats[i, i] += c
    for i, j, n in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # [u]x holds -u_n at (i, j), u_n at (j, i)
        term = s * u[n]
        mats[i, j] -= term
        mats[j, i] += term
    return mats


def _two_rotor_matrix(axis_outer, angle_outer, axis_inner, angle_inner) -> np.ndarray:
    """Rotation matrix of the quaternion q = r_outer r_inner, components
    first, for rotors r = cos(a/2) + sin(a/2) u about unit axes u (outer)
    and v (inner). With c, s the half-angle cosines and sines,
    w = c1 c2 - s1 s2 (u.v) and xyz = c1 s2 v + s1 c2 u + s1 s2 (u x v).
    """
    u = np.moveaxis(require_unit_axis(axis_outer), -1, 0)  # (3, ...)
    v = np.moveaxis(require_unit_axis(axis_inner), -1, 0)
    h1, h2 = 0.5 * angle_outer, 0.5 * angle_inner
    c1, s1, c2, s2 = np.cos(h1), np.sin(h1), np.cos(h2), np.sin(h2)
    ss, cs, sc = s1 * s2, c1 * s2, s1 * c2
    w = c1 * c2 - ss * (u[0] * v[0] + u[1] * v[1] + u[2] * v[2])
    x, y, z = (
        cs * v[i] + sc * u[i] + ss * (u[j] * v[k] - u[k] * v[j])
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    )
    x2, y2, z2 = 2.0 * x, 2.0 * y, 2.0 * z
    xx, yy, zz = x * x2, y * y2, z * z2
    xy, xz, yz = x * y2, x * z2, y * z2
    wx, wy, wz = w * x2, w * y2, w * z2
    require_unit_norm(w * w + 0.5 * (xx + yy + zz))  # also rejects NaN angles
    mats = np.empty((3, 3) + w.shape)
    np.subtract(1.0, yy + zz, out=mats[0, 0, ...])
    np.subtract(xy, wz, out=mats[0, 1, ...])
    np.add(xz, wy, out=mats[0, 2, ...])
    np.add(xy, wz, out=mats[1, 0, ...])
    np.subtract(1.0, xx + zz, out=mats[1, 1, ...])
    np.subtract(yz, wx, out=mats[1, 2, ...])
    np.subtract(xz, wy, out=mats[2, 0, ...])
    np.add(yz, wx, out=mats[2, 1, ...])
    np.subtract(1.0, xx + yy, out=mats[2, 2, ...])
    return mats


def _spherical_maps(angles_x, angles_y, unit_x, unit_y) -> np.ndarray:
    return _two_rotor_matrix(SPHERICAL_AXIS_X, angles_x, SPHERICAL_AXIS_Y, angles_y)


def _quatro_maps(angles_x, angles_y, unit_x, unit_y) -> np.ndarray:
    return _two_rotor_matrix(unit_x, angles_x, unit_y, angles_y)  # r_x outermost


def _care_maps(angles_x, angles_y, unit_x, unit_y) -> np.ndarray:
    """M of the rotor R_y R_x on grade 1: the quaternion q_y q_x about the
    grade-1 axes of the two bivectors (y outermost, unlike quatro)."""
    return _two_rotor_matrix(
        grade1_rotation_axis(unit_y), angles_y, grade1_rotation_axis(unit_x), angles_x
    )


def _as_complex(carriers: np.ndarray) -> np.ndarray:
    """(..., 2) float64 carriers with a contiguous last axis, viewed as
    (...) complex128 x + i y."""
    return carriers.view(np.complex128)[..., 0]


def _apply_planar(phase, src, dst) -> None:
    if src.strides[-1] != src.itemsize:  # the view needs each (x, y) adjacent
        src = np.ascontiguousarray(src)
    np.multiply(_as_complex(src), phase, out=_as_complex(dst))


def _matvec3(mats, src, dst, slots_in, slots_out) -> None:
    """dst[slots_out] = M src[slots_in], one row of M at a time."""
    x, y, z = (src[..., k] for k in slots_in)
    term = np.empty(np.broadcast_shapes(mats.shape[2:], x.shape))
    for i, k in enumerate(slots_out):
        row = mats[i]
        out = dst[..., k]
        np.multiply(row[0], x, out=out)
        out += np.multiply(row[1], y, out=term)
        out += np.multiply(row[2], z, out=term)


def _apply_3x3(maps, src, dst) -> None:
    _matvec3(maps, src, dst, (0, 1, 2), (0, 1, 2))


def _apply_care(maps, src, dst) -> None:
    _matvec3(maps, src, dst, CARE_VECTOR_SLOTS, CARE_VECTOR_SLOTS)
    _matvec3(maps, src, dst, CARE_BIVECTOR_SLOTS, CARE_BIVECTOR_SLOTS)
    for k in CARE_INVARIANT_SLOTS:  # exactly invariant: copied, not recomputed
        dst[..., k] = src[..., k]


def _transpose(maps) -> np.ndarray:
    """The transposed (3, 3, ...) matrices, as a view: [i] is maps[:, i]."""
    return maps.swapaxes(0, 1)


@dataclass(frozen=True)
class Rotation:
    """How one method builds its per-(token, band) maps and applies them.

    ``build(angles_x, angles_y, unit_x, unit_y)`` takes resolved angles and
    unit axes that broadcast against them (axes carry a trailing 3) and
    returns the maps components first: a complex (...) phase
    cos + i sin (rank 0), or (3, 3, ...) for a matrix (rank 2).
    ``invert(maps)`` returns the inverse maps, and ``apply(maps, src, dst)``
    writes the rotated (..., width) carriers of src into dst.
    """

    build: Callable[..., np.ndarray]
    invert: Callable[[np.ndarray], np.ndarray]
    apply: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    map_rank: int  # leading component axes of the maps


ROTATIONS = {
    "rope1d": Rotation(_planar_maps, np.conjugate, _apply_planar, 0),
    "mixed": Rotation(_mixed_maps, _transpose, _apply_3x3, 2),
    "spherical": Rotation(_spherical_maps, _transpose, _apply_3x3, 2),
    "quatro": Rotation(_quatro_maps, _transpose, _apply_3x3, 2),
    "care": Rotation(_care_maps, _transpose, _apply_care, 2),
}


def rotation_maps(tag: str, angles_x, angles_y, unit_x=None, unit_y=None) -> np.ndarray:
    """Maps of method ``tag`` at resolved angles, components first: a
    complex phase of the angles' shape for rope1d, (3, 3, ...) matrices
    for the others.

    ``unit_x``/``unit_y`` are unit axes (mixed, quatro, care; mixed reads
    only ``unit_x``) broadcasting like quat_rotor's; rope1d and spherical
    ignore them.
    """
    angles_x = np.asarray(angles_x, dtype=np.float64)
    angles_y = np.asarray(angles_y, dtype=np.float64)
    return ROTATIONS[tag].build(angles_x, angles_y, unit_x, unit_y)


def apply_maps(tag: str, maps: np.ndarray, v) -> np.ndarray:
    """Rotate (..., width) carriers by maps whose per-map shape broadcasts
    against v's leading axes; for the inverse rotation pass
    ``ROTATIONS[tag].invert(maps)``."""
    rotation = ROTATIONS[tag]
    v = np.asarray(v, dtype=np.float64)
    width = METHOD_WIDTHS[tag]
    if v.shape[-1:] != (width,):
        raise ValueError(f"{tag} carriers need a trailing axis of {width}, got shape {v.shape}")
    lead = np.broadcast_shapes(maps.shape[rotation.map_rank :], v.shape[:-1])
    out = np.empty(lead + (width,))
    rotation.apply(maps, v, out)
    return out


# ---------------------------------------------------------------------------
# block application


def _band_split(head_dim: int, width: int) -> tuple[int, int]:
    bands = head_dim // width
    if bands < 1:
        raise ValueError(f"head_dim {head_dim} is below the sub-vector width {width}")
    return bands, head_dim - bands * width


def token_band_angles(method: EncodingMethod, positions) -> tuple[np.ndarray, np.ndarray]:
    """(angle_x, angle_y) of ``method`` for every (token, band) at
    (tokens, 2) positions, each of shape (tokens, bands)."""
    pos = np.asarray(positions, dtype=np.float64)[:, None, :]  # (tokens, 1, 2)
    return position_angles(pos, method.schedule.band_angles, method.scale_x, method.scale_y)


def block_maps(method: EncodingMethod, positions) -> np.ndarray:
    """Maps of ``method`` for every (token, band) at (tokens, 2) positions,
    components first; ``rotate_rows`` applies them to any block at those
    positions. Angles that overflow float64 (a coordinate scale times a
    position beyond its range) raise, naming the overflow."""
    axes = () if method.axes is None else (method.axes.unit_x(), method.axes.unit_y())
    with np.errstate(over="ignore"):  # an overflow is named just below
        angles = token_band_angles(method, positions)
    if not (np.isfinite(angles[0]).all() and np.isfinite(angles[1]).all()):
        raise ValueError(
            "position angle overflows float64: coordinate scale times position "
            f"(scale_x {method.scale_x!r}, scale_y {method.scale_y!r}) is not finite"
        )
    return rotation_maps(method.tag, *angles, *axes)


def rotate_rows(data, method: EncodingMethod, maps: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Rotate every sub-vector of (batch, tokens, head_dim) ``data`` by
    its (token, band) map from ``block_maps`` into a new array of
    ``data``'s dtype; ``inverse=True`` applies the inverse maps.

    head_dim splits into floor(head_dim / width) contiguous sub-vectors;
    leftover trailing dims pass through untouched. ``data`` may be float32
    or float64 and is rotated in float64 one batch row at a time, each row
    cast back to ``data``'s dtype. Every rotated row is checked while it is
    still in float64, before any cast: the maps are orthogonal, so a
    non-finite input value, or an overflow near the float64 limit, leaves
    a non-finite value in its row, and the check raises before anything
    later is written. A float32 row is checked again after its cast, since
    a rotated value near the float32 limit can overflow to inf there.
    """
    data = np.asarray(data)
    if data.ndim != 3:
        raise ValueError("block data must be batch x tokens x head_dim")
    if data.dtype not in (np.float32, np.float64):
        raise ValueError(f"block data must be float32 or float64, not {data.dtype}")
    batch, tokens, head_dim = data.shape
    bands, remainder = _band_split(head_dim, method.width)
    if method.schedule.num_bands != bands:
        raise ValueError(
            f"schedule has {method.schedule.num_bands} bands, block needs {bands}"
        )
    rotation = ROTATIONS[method.tag]
    if maps.shape[rotation.map_rank :] != (tokens, bands):
        raise ValueError(
            f"maps of shape {maps.shape} do not cover {tokens} tokens x {bands} bands"
        )
    out = np.empty(data.shape, data.dtype)
    if inverse:
        maps = rotation.invert(maps)
    body = bands * method.width
    if remainder:
        rest = data[:, :, body:]
        if not np.isfinite(rest).all():
            raise ValueError("block contains non-finite values")
        out[:, :, body:] = rest
    # One batch row at a time keeps the temporaries cache-sized. A
    # multiply-add runs as one long loop over (token, band) only on
    # contiguous rows, so a row goes straight into a float64 out without
    # pass-through dims and otherwise through a float64 scratch, cast on
    # the copy.
    carriers = (tokens, bands, method.width)
    narrow = data.dtype == np.float32
    direct = not narrow and not remainder
    scratch = None if direct else np.empty(carriers)
    for c in range(batch):
        row = np.ascontiguousarray(data[c, :, :body], dtype=np.float64).reshape(carriers)
        dst = out[c].reshape(carriers) if direct else scratch
        rotation.apply(maps, row, dst)
        if not np.isfinite(dst).all():
            raise ValueError("block contains non-finite values")
        if direct:
            continue
        if not narrow:
            out[c, :, :body] = scratch.reshape(tokens, body)
            continue
        with np.errstate(over="ignore"):  # an overflow is reported just below
            out[c, :, :body] = scratch.reshape(tokens, body)
        if not np.isfinite(out[c, :, :body]).all():
            raise ValueError(f"rotated values in batch row {c} overflow float32")
    return out


def apply_encoding(block: TokenBlock, method: EncodingMethod, inverse: bool = False) -> TokenBlock:
    """Rotate every sub-vector of the block by its band/position angles.

    Builds the maps at the block's positions (``block_maps``) and applies
    them (``rotate_rows``). ``inverse=True`` applies the inverse rotations
    (conjugate phases or transposed matrices), recovering the input of a
    forward pass up to round-off.
    """
    maps = block_maps(method, block.positions)
    data = rotate_rows(block.data, method, maps, inverse)
    # rotate_rows has checked every value and the positions are the
    # input block's checked ones, so the new block skips the constructor's
    # second scan of the data
    return TokenBlock._trusted(data, block.positions)
