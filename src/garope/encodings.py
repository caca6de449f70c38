"""Positional encoding methods over 2D position grids.

Five methods act on query/key sub-vectors, distinguished by carrier width
and by how many free rotation axes they take:

* ``rope1d``   - width 2, no free axis: planar rotation by theta_i * p_x.
* ``mixed``    - width 3, one axis shared by x and y, angle
  theta_i * (s_x p_x + s_y p_y); the two position coordinates commute.
* ``spherical``- width 3, no free axis: an xy-plane rotation by the
  p_y angle applied first, then a yz-plane rotation by the p_x angle.
* ``quatro``   - width 3, an x and a y axis: two quaternion rotors; the
  p_x rotor is the outer one in the conjugation.
* ``care``     - width 8, an x and a y axis: Cl(3,0) multivector
  sub-vectors conjugated by a composite rotor, the p_y rotor outermost.

Mixed and spherical are thus QuatRo with its axes tied or fixed. Angles
come from a per-band frequency schedule theta_i scaled by per-coordinate
speed factors; ``position_angles`` forms them and refuses any that
overflow float64. One method table, ``ROTATIONS``, holds each method's
carrier layout (the slot groups its maps turn and the slots they copy),
its axis rule and how it builds one orthogonal map per (token, band),
applied to every batch row by one ``turner``; ``METHODS``, the widths
and the phase counts are read off it. Every map is complex phases with a
leading phase axis, which multiply adjacent slot pairs in the order of
the method's turn sequence: a pair is turned by one phase exp(i angle)
(``PAIR_TURNS``), and every triple as Rz(alpha) Rx(beta) Rz(gamma), by
three phases; mixed's, quatro's and care's are read off their
quaternion with no trig (``_euler_phases``).
care's two triples sit on adjacent slots once its (e12, e3) pair is
turned by a quarter turn, which the sequence undoes at its end
(``CARE_TURNS``). A block is encoded in two steps, ``block_maps``
(maps from positions; on a row-major grid its trig runs once per column
and row, not once per token) and ``rotate_rows`` (maps applied to a raw
float32 or float64 array one batch row at a time, each row checked
once, on the values written);
``apply_encoding`` runs both, attention scores reuse one build for
queries and keys, and ``garope encode`` rotates the file's array into an
output of its own dtype. Each precondition is proven once, where its
values enter (``AxisParams``, ``position_angles``, the shape and grid
tests of ``block_maps``, ``apply_maps``, ``rotate_rows``), and the
builders and applies behind these entries trust their inputs (see
``Rotation``). ``require_unit_norm`` is the one unit-norm guard, for
``_euler_phases`` and ``rotor_matrix`` (which ``check`` holds to the
quaternion sandwich) here and for the quaternion and mv8 sandwiches.
This module imports numpy and no garope module. The rotor oracles that
compute the same rotations independently, ``ORACLES`` and
``rotation_gradient``, live in ``cl3``, which imports this module. The
``*_rotate`` wrappers (grid positions, raw axes normalized once) are
kept only for the benchmark's gates, and each imports its oracle from
``cl3`` when it is called.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

AXIS_MIN_NORM = 1e-8  # raw learnable axes below this are degenerate
UNIT_TOL = 1e-9  # tolerance on |<R ~R>_0 - 1| before rejecting a rotor

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


def as_axes(axis) -> np.ndarray:
    """(..., 3) rotation axes as float64; complex axes or any other
    trailing axis raise, named."""
    return _real_float64(axis, "rotation axes", 3)


def unit_axis(axis) -> np.ndarray:
    """Normalize (..., 3) axes, rejecting any other shape and raw norms
    below AXIS_MIN_NORM or non-finite ones."""
    axis = as_axes(axis)
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
    An axis whose last dimension is not 3 raises (``as_axes``).
    """
    axis = as_axes(axis)
    return np.stack([-axis[..., 1], axis[..., 2], -axis[..., 0]], axis=-1)


@dataclass(frozen=True)
class FrequencySchedule:
    """Per-band angular speeds theta_i = base**(-i / num_bands)."""

    base: float
    num_bands: int
    band_angles: np.ndarray = field(repr=False)

    @classmethod
    def for_bands(cls, num_bands: int, base: float = 10000.0) -> "FrequencySchedule":
        require_integer(num_bands, "num_bands")
        if num_bands < 1:
            raise ValueError("schedule needs at least one band")
        base = _finite_number(base, "schedule base")
        if base <= 1.0:
            raise ValueError("schedule base must exceed 1")
        i = np.arange(num_bands, dtype=np.float64)
        angles = base ** (-i / num_bands)  # == base**(-2i / (2*num_bands))
        angles.flags.writeable = False
        return cls(base=base, num_bands=num_bands, band_angles=angles)


@dataclass(frozen=True)
class AxisParams:
    """Raw per-band rotation axes for the x and y position coordinates,
    and their unit axes ``unit_x``/``unit_y``, normalized once."""

    axes_x: np.ndarray  # (num_bands, 3)
    axes_y: np.ndarray
    unit_x: np.ndarray = field(init=False, repr=False, compare=False)
    unit_y: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, unit_name in (("axes_x", "unit_x"), ("axes_y", "unit_y")):
            arr = _real_float64(getattr(self, name), name)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(f"{name} must have shape (num_bands, 3)")
            norm = _axis_norms(arr, name, f"{name} contains a degenerate or non-finite axis")
            arr = arr.copy()
            unit = arr / norm
            arr.flags.writeable = unit.flags.writeable = False
            object.__setattr__(self, name, arr)
            object.__setattr__(self, unit_name, unit)
        if self.axes_x.shape != self.axes_y.shape:
            raise ValueError("axes_x and axes_y must cover the same bands")

    @property
    def num_bands(self) -> int:
        return self.axes_x.shape[0]


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
        for name in ("scale_x", "scale_y"):
            object.__setattr__(self, name, _finite_number(getattr(self, name), name))
        free_axes = ROTATIONS[self.tag].free_axes
        if not free_axes:
            if self.axes is not None:
                raise ValueError(f"{self.tag} has fixed axes; remove the axis parameters")
            return
        if self.axes is None:
            raise ValueError(f"{self.tag} needs axis parameters")
        if self.axes.num_bands != self.schedule.num_bands:
            raise ValueError("axis bands do not match schedule bands")
        if free_axes == 1 and np.max(np.abs(self.axes.unit_x - self.axes.unit_y)) > 1e-9:
            raise ValueError(f"{self.tag} encoding needs one shared axis")

    @property
    def width(self) -> int:
        return ROTATIONS[self.tag].width

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
        list. Defaults follow the method's axis rule in ``ROTATIONS``: a
        two-axis method (quatro, care) gets the spherical-equivalent fixed
        pair, a shared-axis method (mixed) the xy-plane axis (0, 0, 1) for
        both coordinates. A fixed method (rope1d, spherical) has no free
        axes, and the constructor rejects explicit ones.
        """
        if tag not in METHODS:
            raise ValueError(f"unknown encoding method {tag!r}")
        require_integer(head_dim, "head_dim")
        width, free_axes = ROTATIONS[tag].width, ROTATIONS[tag].free_axes
        num_bands = head_dim // width
        if num_bands < 1:
            raise ValueError(f"head_dim {head_dim} is below the {tag} sub-vector width {width}")
        schedule = FrequencySchedule.for_bands(num_bands, base)
        axes = None
        if free_axes or axes_x is not None or axes_y is not None:
            if axes_x is None:
                axes_x = SPHERICAL_AXIS_Y if free_axes == 1 else SPHERICAL_AXIS_X
            axes_x = _per_band(axes_x, num_bands, "axes_x")
            if axes_y is None:
                axes_y = axes_x if free_axes == 1 else SPHERICAL_AXIS_Y
            axes = AxisParams(axes_x, _per_band(axes_y, num_bands, "axes_y"))
        return cls(tag=tag, schedule=schedule, axes=axes, scale_x=scale_x, scale_y=scale_y)


def require_integer(value, name: str) -> None:
    """Refuse a ``value`` that is not a Python or numpy integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _real_number(value, name: str) -> float:
    """``value`` as a float. What is not a Python or numpy real number (a
    bool, a string, None, a complex) raises, named, and so does an integer
    beyond float64's range."""
    if type(value) is float:  # the common case, without the slower ABC test
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer beyond float64's range") from None


def _finite_number(value, name: str) -> float:
    """``_real_number``, and a NaN or infinity raises, named."""
    number = _real_number(value, name)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number!r}")
    return number


def _per_band(axes, num_bands: int, name: str) -> np.ndarray:
    """(num_bands, 3) axes from one shared 3-vector or a per-band list."""
    arr = _real_float64(axes, name)
    if arr.shape == (3,):
        arr = np.tile(arr, (num_bands, 1))
    if arr.ndim == 2 and arr.shape[1] == 3 and arr.shape[0] != num_bands:
        raise ValueError(f"{name} lists {arr.shape[0]} bands, method needs {num_bands}")
    if arr.shape != (num_bands, 3):
        raise ValueError(f"{name} must be one 3-vector or shape ({num_bands}, 3)")
    return arr


def _real_float64(values, name: str, width: int | None = None) -> np.ndarray:
    """Real ``values`` as float64. Complex values raise, named, rather than
    losing their imaginary part in the cast, and so does a last axis other
    than ``width`` when one is given."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} must be real, not {arr.dtype}")
    arr = np.asarray(arr, dtype=np.float64)
    if width is not None and arr.shape[-1:] != (width,):
        raise ValueError(f"{name} need a trailing axis of {width}, got shape {arr.shape}")
    return arr


def _read_only(values, name: str) -> np.ndarray:
    """``_real_float64`` values, frozen through a view so that an array
    the caller passed in keeps its own flags; read-only input is kept as
    is."""
    arr = _real_float64(values, name)
    if arr.flags.writeable:
        arr = arr.view()
        arr.flags.writeable = False
    return arr


def _token_positions(positions) -> np.ndarray:
    """(tokens, 2) real positions as float64; complex positions or any
    other shape raise, named."""
    pos = _real_float64(positions, "positions")
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions must be (tokens, 2), got shape {pos.shape}")
    return pos


@dataclass(frozen=True)
class TokenBlock:
    """batch x tokens x head_dim values plus one 2D position per token."""

    data: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        data = _read_only(self.data, "block data")
        pos = _read_only(self.positions, "positions")
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
    """Row-major (tokens, 2) positions of a unit-spaced grid whose first
    token sits at ``origin``, a 2-vector of finite real numbers (which may
    be fractional); p_x runs along columns. A size that is not an integer,
    or is negative, raises, and so does any other origin."""
    require_integer(grid_h, "grid_h")
    require_integer(grid_w, "grid_w")
    if grid_h < 0 or grid_w < 0:
        raise ValueError(f"grid size must not be negative, got {grid_h} x {grid_w}")
    if np.shape(origin) != (2,):
        raise ValueError(f"origin must be a 2-vector (p_x, p_y), got shape {np.shape(origin)}")
    origin_x, origin_y = (_finite_number(c, f"origin {name}") for c, name in zip(origin, ("p_x", "p_y")))
    rows, cols = np.meshgrid(np.arange(grid_h), np.arange(grid_w), indexing="ij")
    pos = np.stack([cols.ravel() + origin_x, rows.ravel() + origin_y], axis=-1)
    return pos.astype(np.float64)


def random_block(batch: int, head_dim: int, positions, seed: int) -> TokenBlock:
    """Standard-normal block with fixed positions, reproducible by seed;
    positions that are not (tokens, 2), or complex ones, raise, named."""
    positions = _token_positions(positions)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((batch, positions.shape[0], head_dim))
    return TokenBlock(data=data, positions=positions)


# ---------------------------------------------------------------------------
# single sub-vector operations


def position_angles(p, theta, scale_x: float, scale_y: float) -> tuple[np.ndarray, np.ndarray]:
    """Resolved (angle_x, angle_y) = (theta (s_x p_x), theta (s_y p_y)) of
    (..., 2) positions at band angle(s) theta broadcasting against them.
    Each position is scaled first: the encoder, its oracles and ``grad``
    all form angles here, so they agree to the last bit. A non-finite
    angle raises: named as not finite when a position, band angle or
    scale is, and otherwise as an overflow (a coordinate scale times a
    position beyond float64's range). Complex positions or band angles,
    positions whose last axis is not 2 and scales that are not real
    numbers raise, named."""
    p = _real_float64(p, "positions", 2)
    theta = _real_float64(theta, "band angles")
    scale_x, scale_y = _real_number(scale_x, "scale_x"), _real_number(scale_y, "scale_y")
    with np.errstate(over="ignore", invalid="ignore"):  # named just below
        angle_x, angle_y = theta * (scale_x * p[..., 0]), theta * (scale_y * p[..., 1])
    if not (np.isfinite(angle_x).all() and np.isfinite(angle_y).all()):
        what = (
            "overflows float64: coordinate scale times position"
            if all(np.isfinite(x).all() for x in (p, theta, scale_x, scale_y))
            else "is not finite: a position, band angle or coordinate scale"
        )
        raise ValueError(f"position angle {what} (scale_x {scale_x!r}, scale_y {scale_y!r}) is not finite")
    return angle_x, angle_y


def rope1d_rotate(v, p, theta, scale_x: float = 1.0) -> np.ndarray:
    """Planar rotation of a 2-vector by theta (s_x p), p being p_x alone.
    The ``*_rotate`` wrappers are kept only for the benchmark's gates."""
    from .cl3 import rope1d_apply
    p = _real_float64(p, "positions")
    angle, _ = position_angles(np.stack([p, np.zeros_like(p)], axis=-1), theta, scale_x, 1.0)
    return rope1d_apply(v, angle)


def spherical_rotate(v, p, theta, scale_x: float = 1.0, scale_y: float = 1.0) -> np.ndarray:
    """Fixed-axis 3-vector rotation: xy-plane by the p_y angle first, then
    yz-plane by the p_x angle. The two steps do not commute."""
    from .cl3 import spherical_apply
    ax, ay = position_angles(p, theta, scale_x, scale_y)
    return spherical_apply(v, ax, ay)


def quatro_rotate(
    v, p, axis_x, axis_y, theta, scale_x: float = 1.0, scale_y: float = 1.0
) -> np.ndarray:
    """Two-rotor quaternion rotation of a 3-vector about raw axes,
    normalized here once; the x rotor conjugates outermost, so the
    composite rotor is r_x * r_y."""
    from .cl3 import quatro_apply
    ax, ay = position_angles(p, theta, scale_x, scale_y)
    return quatro_apply(v, ax, ay, unit_axis(axis_x), unit_axis(axis_y))


def mixed_rotate(
    v, p, axis, theta, scale_x: float = 1.0, scale_y: float = 1.0
) -> np.ndarray:
    """Shared-axis rotation by the combined angle theta * (s_x p_x + s_y p_y)
    about a raw axis, normalized here once.

    Closed form (axis-angle); identical to quatro_rotate with both axes set
    to the shared axis, because same-plane rotors compose additively.
    """
    from .cl3 import mixed_apply
    ax, ay = position_angles(p, theta, scale_x, scale_y)
    return mixed_apply(v, ax + ay, unit_axis(axis))


def care_rotate(
    m, p, axis_x, axis_y, theta, scale_x: float = 1.0, scale_y: float = 1.0
) -> np.ndarray:
    """Conjugate an 8-slot multivector by the composite rotor R_y R_x (the
    y rotor outermost, unlike quatro) about raw axes, normalized here once.
    Scalar and e123 slots are invariant; every grade's norm is preserved."""
    from .cl3 import care_apply
    ax, ay = position_angles(p, theta, scale_x, scale_y)
    return care_apply(m, ax, ay, unit_axis(axis_x), unit_axis(axis_y))


# ---------------------------------------------------------------------------
# rotation-map core
#
# Every method is one orthogonal map per (token, band) that turns a few
# slot groups of its carrier and copies the rest; each ROTATIONS row states
# that layout once. Every map is complex128 phases, (phases, tokens,
# bands), and one turn-sequence apply turns every method's carriers.
# rope1d turns its one pair by the unit complex phase exp(i angle)
# = cos + i sin (RoFormer's complex form of RoPE). The other methods turn
# each triple as Rz(alpha) Rx(beta) Rz(gamma): three phases e^{i gamma},
# e^{i beta}, e^{i alpha}, 48 bytes per map, each a complex multiply on
# adjacent slot pairs of the row (_turn_sequence).
# mixed, spherical and quatro turn the pairs (0, 1), (1, 2), then (0, 1).
# spherical's phases are its oracle's two turns and 1; mixed's, quatro's
# and care's come from their quaternion q (for mixed cos(t/2) + sin(t/2) u)
# by the formulas of _euler_phases, with no trig. quatro's and care's q
# is a two-rotor product, written out from the two half-angle cosines and
# sines and the axes' dot and cross products. care's composite rotor turns
# the grade-1 slots (e1, e2, e3) by q's rotation M and, since the
# pseudoscalar is central, the bivector slots (e23, e31, e12)
# = (e1, e2, e3) e123 by the same M, and leaves the scalar and e123 slots:
# its 8x8 map is block-diag(1, M, M, 1). Its turn sequence, CARE_TURNS,
# turns the two triples on adjacent slots in place, with no gather.
# Maps are built for every (token, band), phases first, and applied to
# every batch row; on a grid, block_maps takes the trig once per column
# (angle_x) and row (angle_y) and the elementwise steps broadcast them.
# The inverse maps are formed once per call, before the rows are rotated.

CARE_VECTOR_SLOTS = (1, 2, 4)  # e1, e2, e3
CARE_BIVECTOR_SLOTS = (6, 5, 3)  # e23, e31, e12: the duals of e1, e2, e3
CARE_INVARIANT_SLOTS = (0, 7)  # scalar, e123


def _planar_maps(angles_x, angles_y, unit_x, unit_y) -> np.ndarray:
    phase = np.empty((1,) + angles_x.shape, dtype=np.complex128)  # p_y does not contribute
    np.cos(angles_x, out=phase.real[0, ...])
    np.sin(angles_x, out=phase.imag[0, ...])
    return phase


def require_unit_norm(sq_norm, message: str) -> None:
    """Refuse, with ``message``, squared norms that are not 1 within UNIT_TOL."""
    if not np.all(np.abs(sq_norm - 1.0) <= UNIT_TOL):  # written so NaN fails too
        raise ValueError(message)


def rotor_matrix(w, x, y, z) -> np.ndarray:
    """(3, 3, ...) matrices M, M v = quat_sandwich(q, v), of unit quaternions
    q = w + x i + y j + z k given as components of one shape; a non-unit q
    raises. No map calls it: ``check`` holds it to the quaternion sandwich,
    and the tests hold the Euler phases to it."""
    x2, y2, z2 = 2.0 * x, 2.0 * y, 2.0 * z
    xx, yy, zz = x * x2, y * y2, z * z2
    xy, xz, yz = x * y2, x * z2, y * z2
    wx, wy, wz = w * x2, w * y2, w * z2
    # also rejects NaN components
    require_unit_norm(w * w + 0.5 * (xx + yy + zz), "quaternion rotor is not unit norm")
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


def _two_rotor_quaternion(axis_outer, angle_outer, axis_inner, angle_inner):
    """Components (w, x, y, z) of the quaternion q = r_outer r_inner, for
    rotors r = cos(a/2) + sin(a/2) u about unit axes u (outer) and v
    (inner). With c, s the half-angle cosines and sines,
    w = c1 c2 - s1 s2 (u.v) and xyz = c1 s2 v + s1 c2 u + s1 s2 (u x v).
    """
    u = np.moveaxis(axis_outer, -1, 0)  # (3, ...)
    v = np.moveaxis(axis_inner, -1, 0)
    h1, h2 = 0.5 * angle_outer, 0.5 * angle_inner
    c1, s1, c2, s2 = np.cos(h1), np.sin(h1), np.cos(h2), np.sin(h2)
    ss, cs, sc = s1 * s2, c1 * s2, s1 * c2
    w = c1 * c2 - ss * (u[0] * v[0] + u[1] * v[1] + u[2] * v[2])
    x, y, z = (
        cs * v[i] + sc * u[i] + ss * (u[j] * v[k] - u[k] * v[j])
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    )
    return w, x, y, z


_FLAT = math.sqrt(np.finfo(np.float64).tiny)  # |A||B| below this counts as 0


def _euler_phases(w, x, y, z) -> np.ndarray:
    """(3, ...) phases (e^{i gamma}, e^{i beta}, e^{i alpha}) of the
    rotations Rz(alpha) Rx(beta) Rz(gamma) of unit quaternions
    q = w + x i + y j + z k given as components of one shape; a non-unit
    q raises.

    With A = w + i z = cos(beta/2) e^{i(alpha+gamma)/2} and
    B = x + i y = sin(beta/2) e^{i(alpha-gamma)/2}, in real arithmetic and
    one reciprocal: e^{i beta} = |A|^2 - |B|^2 + 2i |A||B|,
    e^{i alpha} = A B / (|A||B|) and e^{i gamma} = A conj(B) / (|A||B|).
    Both outer phases come from the same A and B, so an error in B's phase
    moves R by about that error times sin(beta), and beta near 0 stays
    well conditioned. Where |A||B| is 0 to float64 precision (beta = 0 or
    pi, |A| or |B| below 1e-154) only alpha + gamma or alpha - gamma is
    defined, and the smaller number counts as 1: the phases are then
    A/|A| (beta = 0) or B/|B| and its conjugate (beta = pi), and R moves
    by less than the dropped modulus. No numpy warning is raised.
    """
    aa, bb = w * w + z * z, x * x + y * y  # |A|^2, |B|^2
    require_unit_norm(aa + bb, "quaternion rotor is not unit norm")  # also rejects NaN components
    r = np.sqrt(aa * bb)  # |A||B|
    phases = np.empty((3,) + r.shape, dtype=np.complex128)
    re, im = phases.real, phases.imag
    np.subtract(aa, bb, out=re[1, ...])
    np.multiply(r, 2.0, out=im[1, ...])
    inv = 1.0 / np.maximum(r, _FLAT)  # finite everywhere; the flat entries are redone below
    wx, zy, wy, zx = w * x, z * y, w * y, z * x
    np.multiply(wx + zy, inv, out=re[0, ...])
    np.multiply(zx - wy, inv, out=im[0, ...])
    np.multiply(wx - zy, inv, out=re[2, ...])
    np.multiply(wy + zx, inv, out=im[2, ...])
    flat = np.flatnonzero(r < _FLAT)
    if flat.size:  # the smaller of A and B counts as 1
        w, x, y, z, aa, bb = (np.broadcast_to(c, r.shape).ravel()[flat] for c in (w, x, y, z, aa, bb))
        keep_a = bb <= aa
        unit = np.where(keep_a, w + 1j * z, x + 1j * y) / np.sqrt(np.maximum(aa, bb))
        rows = phases.reshape(3, -1)  # a view: phases is contiguous
        rows[2, flat] = unit
        rows[0, flat] = np.where(keep_a, unit, np.conjugate(unit))
    return phases


def _mixed_phases(angles_x, angles_y, unit_x, unit_y) -> np.ndarray:
    """Phases of q = cos(t/2) + sin(t/2) u for the summed angle t."""
    half = 0.5 * (angles_x + angles_y)
    c, s = np.cos(half), np.sin(half)
    u = np.moveaxis(unit_x, -1, 0)  # (3, ...)
    return _euler_phases(c, s * u[0], s * u[1], s * u[2])


def _spherical_phases(angles_x, angles_y, unit_x, unit_y) -> np.ndarray:
    """Its oracle's two turns, (0, 1) by angle_y then (1, 2) by angle_x;
    the third phase is exactly 1."""
    phases = np.empty((3,) + np.broadcast_shapes(angles_x.shape, angles_y.shape), dtype=np.complex128)
    for turn, angle in ((0, angles_y), (1, angles_x)):
        phases.real[turn, ...] = np.cos(angle)
        phases.imag[turn, ...] = np.sin(angle)
    phases[2] = 1.0
    return phases


def _quatro_phases(angles_x, angles_y, unit_x, unit_y) -> np.ndarray:
    return _euler_phases(*_two_rotor_quaternion(unit_x, angles_x, unit_y, angles_y))  # r_x outermost


def _care_phases(angles_x, angles_y, unit_x, unit_y) -> np.ndarray:
    """Phases of M, the rotor R_y R_x on grade 1: the quaternion q_y q_x
    about the grade-1 axes of the two bivectors (y outermost, unlike
    quatro)."""
    return _euler_phases(
        *_two_rotor_quaternion(grade1_rotation_axis(unit_y), angles_y, grade1_rotation_axis(unit_x), angles_x)
    )


def _turn_sequence(leads: bool, steps, src, dst) -> None:
    """dst = src turned by ``steps`` in order. A step (first, end, pick,
    factor) multiplies the pairs dst[..., first:end], viewed as complex128
    numbers and indexed by ``pick`` (0 for one pair, a stride for
    several), by ``factor``. dst is C-contiguous float64; src is only read
    and may be any real array that broadcasts to dst.

    The route is read off the row. When the first step turns every slot
    (``leads``: rope1d's one pair) and src is C-contiguous float64, that
    step multiplies src straight into dst, in one pass. Otherwise every
    slot of src is copied into dst first, and each step turns dst in
    place. Both routes give the same bits."""
    if leads and src.dtype == np.float64 and src.flags.c_contiguous:
        _, _, pick, factor = steps[0]
        np.multiply(src.view(np.complex128)[..., pick], factor, out=dst.view(np.complex128)[..., pick])
        steps = steps[1:]
    else:
        np.copyto(dst, src)
    for first, end, pick, factor in steps:
        pairs = dst[..., first:end].view(np.complex128)[..., pick]
        np.multiply(pairs, factor, out=pairs)


# A turn sequence lists its steps in order. A step gives the (k, phase) of
# each slot pair (k, k + 1) it multiplies in one call, the pairs equally
# spaced: phase n is row n of the maps, ~n its conjugate, and a complex
# number a constant, which turns one pair alone. The maps' leading axis
# holds the phases the steps read.
# rope1d's one pair (0, 1) by its one phase
PAIR_TURNS = (((0, 0),),)
# Rz(gamma) on (0, 1), then Rx(beta) on (1, 2), then Rz(alpha) on (0, 1):
# a palindrome, so the conjugate phases in reverse order undo it
EULER_TURNS = (((0, 0),), ((1, 1),), ((0, 2),))
# care's triples (e1, e2, e3) and (e23, e31, e12) sit at slots (1, 2, 4)
# and (6, 5, 3). The quarter turn i (e12 + i e3) = -e3 + i e12 puts them
# on adjacent slots, (e1, e2, -e3) at 1-3 and (e12, e31, e23) at 4-6.
# There the pair (1, 2) is e1 + i e2, the first triple's Rz pair, and
# (2, 3) is conj(e2 + i e3), its Rx pair conjugated; (5, 6) is
# i conj(e23 + i e31) and (4, 5) is i conj(e31 + i e12), the second
# triple's Rz and Rx pairs conjugated and times i. So each pair takes its
# phase or the conjugate, and -i undoes the quarter turn; the scalar and
# e123 slots are only copied. The steps mirror each other about Rx, so
# the conjugate phases in reverse order undo the sequence too.
CARE_TURNS = (
    ((3, 1j),),
    ((1, 0), (5, ~0)),  # Rz(gamma) on both triples in one call
    ((2, ~1),),
    ((4, ~1),),
    ((1, 2), (5, ~2)),
    ((3, -1j),),
)


@dataclass(frozen=True)
class Rotation:
    """One method's carrier layout and axis rule, and how it builds and
    applies its per-(token, band) maps. The layout is stated once, as
    ``groups``, the slot groups each map turns (all of one size), and
    ``copied``, the slots it leaves as they are; ``width`` (the slots
    covered) is read off it. Every map is a few complex phases that turn
    the carrier by ``turns``, a turn sequence (``PAIR_TURNS``,
    ``EULER_TURNS``, ``CARE_TURNS``): a pair takes its one phase
    cos + i sin, triples the three Euler phases. The turns are read once,
    here: ``steps`` holds each step's (first, end, pick) and its constant
    or phase refs, ``reads`` the phase rows and conjugates the steps read,
    ``phases`` the length of the maps' leading axis, and ``leads`` whether
    the first step turns every slot.

    ``build(angles_x, angles_y, unit_x, unit_y)`` takes resolved angles and
    unit axes that broadcast against them (axes carry a trailing 3) and
    returns the maps phases first, (phases, ...). ``turner(maps)`` forms
    each step's factor once (a phase row, a conjugate, care's stacked pair
    or a constant) and gives the function (src, dst) that turns src's
    (..., width) carriers into dst (``_turn_sequence``). ``invert(maps)``
    gives the conjugate phases in reverse order, which undo the turns, as
    each sequence mirrors itself. build and the turns trust their inputs
    (finite angles, unit axes, carriers of the stated layout):
    ``block_maps`` and the gradient check pass build angles from
    ``position_angles`` and unit axes, and ``apply_maps`` and
    ``rotate_rows`` prove the turns'.
    """

    groups: tuple[tuple[int, ...], ...]  # slot groups the maps turn
    free_axes: int  # axis rule: 0 fixed, 1 one axis shared by x and y, 2 an x and a y axis
    build: Callable[..., np.ndarray]
    # build takes its trig of angle_x and of angle_y apart, so on a grid it
    # can take (1, columns, bands) and (rows, 1, bands) angles
    separable: bool
    turns: tuple  # the turn sequence
    copied: tuple[int, ...] = ()  # slots the maps leave as they are
    width: int = field(init=False)  # carrier width: every slot, turned or copied
    steps: tuple = field(init=False)  # per step: its pairs dst[..., first:end][pick], and its constant or refs
    reads: tuple[int, ...] = field(init=False)  # the phase rows (n) and conjugates (~n) the turns read
    phases: int = field(init=False)  # the maps' leading axis
    leads: bool = field(init=False)  # the first step turns every slot

    def __post_init__(self):
        object.__setattr__(self, "width", sum(map(len, self.groups)) + len(self.copied))
        steps = []
        for step in self.turns:
            (first, ref), (last, _) = step[0], step[-1]
            pick = 0 if len(step) == 1 else slice(None, None, (step[1][0] - first) // 2)
            refs = ref if isinstance(ref, complex) else tuple(r for _, r in step)
            steps.append((first, last + 2, pick, refs))
        reads = sorted({ref for *_, refs in steps if isinstance(refs, tuple) for ref in refs})
        first, end, _, _ = steps[0]
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "reads", tuple(reads))
        object.__setattr__(self, "phases", max(ref if ref >= 0 else ~ref for ref in reads) + 1)
        object.__setattr__(self, "leads", first == 0 and end == self.width == 2 * len(self.turns[0]))

    def invert(self, maps: np.ndarray) -> np.ndarray:
        return np.conjugate(maps)[::-1]

    def turner(self, maps: np.ndarray) -> Callable[[np.ndarray, np.ndarray], None]:
        rows = {}  # plain loops: comprehensions cost a call each, per turner
        for ref in self.reads:
            rows[ref] = maps[ref] if ref >= 0 else np.conjugate(maps[~ref])
        steps = []
        for first, end, pick, refs in self.steps:
            if isinstance(refs, tuple):  # phase rows, stacked for several pairs; a constant stays
                refs = rows[refs[0]] if len(refs) == 1 else np.stack([rows[ref] for ref in refs], axis=-1)
            steps.append((first, end, pick, refs))
        return partial(_turn_sequence, self.leads, steps)


ROTATIONS = {  # in the order METHODS lists and reports them
    "rope1d": Rotation(((0, 1),), 0, _planar_maps, True, PAIR_TURNS),
    # mixed turns by the sum angle_x + angle_y, one trig argument per token
    "mixed": Rotation(((0, 1, 2),), 1, _mixed_phases, False, EULER_TURNS),
    "spherical": Rotation(((0, 1, 2),), 0, _spherical_phases, True, EULER_TURNS),
    "quatro": Rotation(((0, 1, 2),), 2, _quatro_phases, True, EULER_TURNS),
    "care": Rotation(
        (CARE_VECTOR_SLOTS, CARE_BIVECTOR_SLOTS), 2, _care_phases, True, CARE_TURNS, CARE_INVARIANT_SLOTS
    ),
}
METHODS = tuple(ROTATIONS)
METHOD_WIDTHS = {tag: rotation.width for tag, rotation in ROTATIONS.items()}  # perfbench reads it


def _require_map_kind(tag: str, rotation: Rotation, maps) -> None:
    """Maps of ``rotation``'s kind, by their attributes alone: a complex128
    numpy array with a leading axis of its phases (1 for a pair, 3 for
    triples). Maps of another method of the same kind pass, as they rotate
    the same carriers: the phases of any triple method, care among them,
    turn the triples of any other."""
    if not isinstance(maps, np.ndarray):
        raise ValueError(f"{tag} maps must be a numpy array, not {type(maps).__name__}")
    if maps.dtype != np.complex128:
        raise ValueError(f"{tag} maps must be complex128, not {maps.dtype}")
    if maps.shape[:1] != (rotation.phases,):
        raise ValueError(
            f"{tag} maps need a leading phase axis of length {rotation.phases}, got shape {maps.shape}"
        )


def apply_maps(tag: str, maps: np.ndarray, v) -> np.ndarray:
    """Rotate (..., width) real carriers by maps of the method's kind
    (phases first; ``_require_map_kind``) whose per-map shape broadcasts
    against v's leading axes; complex carriers raise, named, and so do
    maps and carriers that do not broadcast. For the inverse rotation pass
    ``ROTATIONS[tag].invert(maps)``."""
    rotation = ROTATIONS.get(tag)
    if rotation is None:
        raise ValueError(f"unknown encoding method {tag!r}")
    _require_map_kind(tag, rotation, maps)
    width = rotation.width
    v = _real_float64(v, f"{tag} carriers", width)
    try:
        lead = np.broadcast_shapes(maps.shape[1:], v.shape[:-1])
    except ValueError:
        raise ValueError(
            f"{tag} maps of shape {maps.shape} do not broadcast against carriers of shape {v.shape}"
        ) from None
    out = np.empty(lead + (width,))
    rotation.turner(maps)(v, out)
    return out


# ---------------------------------------------------------------------------
# block application


def token_band_angles(method: EncodingMethod, positions) -> tuple[np.ndarray, np.ndarray]:
    """(angle_x, angle_y) of ``method`` for every (token, band) at
    (tokens, 2) positions, each of shape (tokens, bands); positions of any
    other shape, or complex ones, raise, named."""
    pos = _token_positions(positions)[:, None, :]  # (tokens, 1, 2)
    return position_angles(pos, method.schedule.band_angles, method.scale_x, method.scale_y)


def _grid_shape(pos: np.ndarray) -> tuple[int, int] | None:
    """(rows, columns) when (tokens, 2) positions form a row-major product
    grid bit for bit: p_x constant down each column, p_y along each row.
    None otherwise."""
    if not len(pos):
        return None
    bits = pos.view(np.int64)  # -0.0 is not 0.0 to sin
    columns = int((bits[:, 1] != bits[0, 1]).argmax()) or len(pos)  # where the second row starts
    if len(pos) % columns:
        return None
    grid = bits.reshape(-1, columns, 2)
    if (grid[:, :, 0] == grid[0, :, 0]).all() and (grid[:, :, 1] == grid[:, :1, 1]).all():
        return grid.shape[0], columns
    return None


def block_maps(method: EncodingMethod, positions) -> np.ndarray:
    """Maps of ``method`` for every (token, band) at (tokens, 2) positions,
    complex128 (phases, tokens, bands); ``rotate_rows`` applies them to
    any block at those positions. Positions of any other shape raise, and
    so do complex positions and angles that overflow float64
    (``position_angles``).

    On a row-major grid, proven once on the positions' bits, a separable
    method takes its trig once per column and row: angle_x comes from the
    first row, angle_y from the first column, and the maps are the
    per-token ones bit for bit, since equal positions give equal angles
    and every later step is the same elementwise operation on them.
    """
    rotation = ROTATIONS[method.tag]
    axes = (None, None) if method.axes is None else (method.axes.unit_x, method.axes.unit_y)
    pos = _token_positions(positions)
    grid = _grid_shape(pos) if rotation.separable else None
    if grid is None:
        return rotation.build(*token_band_angles(method, pos), *axes)
    rows, columns = grid
    # one call sees every distinct coordinate, so an overflowing or
    # non-finite angle raises with the per-token message
    ax, ay = token_band_angles(method, np.concatenate([pos[:columns], pos[::columns]]))
    maps = rotation.build(ax[None, :columns], ay[columns:, None], *axes)
    full = maps.shape[:1] + (rows, columns, ax.shape[1])
    if maps.shape != full:  # rope1d's phase is one row, repeated by the copying reshape
        maps = np.broadcast_to(maps, full)
    return maps.reshape(full[0], len(pos), full[-1])


def rotate_rows(data, method: EncodingMethod, maps: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Rotate every sub-vector of (batch, tokens, head_dim) ``data`` by
    its (token, band) map from ``block_maps`` into a new array of
    ``data``'s dtype; ``inverse=True`` applies the inverse maps. Maps of
    another kind raise (``_require_map_kind``' test of type, dtype and
    phase axis), and so do maps that do not cover the block.
    ``data`` is only read: every turn lands in the output or a scratch.

    head_dim splits into floor(head_dim / width) contiguous sub-vectors;
    leftover trailing dims pass through untouched. ``data`` may be float32
    or float64 and is rotated in float64 one batch row at a time, each row
    cast back to ``data``'s dtype. A float64 row without pass-through dims
    is rotated straight into the output, and any other row through an
    interleaved float64 scratch, allocated once per call, by the method's
    ``turner``.

    Each row is checked once, on the values written: the maps are
    orthogonal, so a rotated value is non-finite only if an input value
    was, or if the rotation overflowed, near the float64 limit or in the
    cast to float32. A failed check raises before any later row is
    rotated, with a message that names the cause: non-finite values in
    the block if the input row holds any, else an overflow of ``data``'s
    dtype in that batch row. No numpy warning is raised on the way.
    """
    data = np.asarray(data)
    if data.ndim != 3:
        raise ValueError("block data must be batch x tokens x head_dim")
    if data.dtype not in (np.float32, np.float64):
        raise ValueError(f"block data must be float32 or float64, not {data.dtype}")
    batch, tokens, head_dim = data.shape
    bands, remainder = divmod(head_dim, method.width)
    if bands < 1:
        raise ValueError(f"head_dim {head_dim} is below the sub-vector width {method.width}")
    if method.schedule.num_bands != bands:
        raise ValueError(
            f"schedule has {method.schedule.num_bands} bands, block needs {bands}"
        )
    rotation = ROTATIONS[method.tag]
    _require_map_kind(method.tag, rotation, maps)
    if maps.shape[1:] != (tokens, bands):
        raise ValueError(
            f"maps of shape {maps.shape} do not cover {tokens} tokens x {bands} bands"
        )
    out = np.empty(data.shape, data.dtype)
    body = bands * method.width
    if remainder:
        rest = data[:, :, body:]
        if not np.isfinite(rest).all():
            raise ValueError("block contains non-finite values")
        out[:, :, body:] = rest
    # One batch row at a time keeps the temporaries cache-sized. A complex
    # view needs a contiguous float64 carrier, so a row goes straight into
    # a float64 out without pass-through dims and otherwise through a
    # float64 scratch, cast on the copy.
    carriers = (tokens, bands, method.width)
    narrow = data.dtype == np.float32
    direct = not (narrow or remainder)
    scratch = None if direct else np.empty(carriers)
    turn = rotation.turner(rotation.invert(maps) if inverse else maps)
    with np.errstate(over="ignore", invalid="ignore"):  # a failed row is named below
        for c in range(batch):
            dst = out[c].reshape(carriers) if direct else scratch
            turn(data[c, :, :body].reshape(carriers), dst)
            if not direct:
                np.copyto(out[c, :, :body].reshape(carriers), scratch)
            if not np.isfinite(out[c, :, :body] if narrow else dst).all():
                if np.isfinite(data[c, :, :body]).all():  # finite input turned past the dtype's limit
                    raise ValueError(f"rotated values in batch row {c} overflow {data.dtype}")
                raise ValueError("block contains non-finite values")
    return out


def apply_encoding(block: TokenBlock, method: EncodingMethod, inverse: bool = False) -> TokenBlock:
    """Rotate every sub-vector of the block by its band/position angles.

    Builds the maps at the block's positions (``block_maps``) and applies
    them (``rotate_rows``). ``inverse=True`` applies the inverse rotations
    (conjugate phases, in reverse turn order), recovering the input of a forward pass up to round-off.
    """
    maps = block_maps(method, block.positions)
    data = rotate_rows(block.data, method, maps, inverse)
    # rotate_rows has checked every value and the positions are the
    # input block's checked ones, so the new block skips the constructor's
    # second scan of the data
    return TokenBlock._trusted(data, block.positions)
