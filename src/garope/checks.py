"""All three verifications: the suites of ``check``, and the reductions
and gradients that ``equiv`` and ``grad`` print.

Each suite re-derives its expected values independently: the blade-table
engine, which is also the one Cl(3,0) product behind ``cl3.mv8_product``,
meets its algebra laws and the Hamilton product; rotors meet rotation
matrices (``rotor_matrix``) and closed-form identities; the encoder meets
the rotor oracles of ``encodings.ORACLES``, as a wrong orthogonal map
keeps norms and round trips; and two frozen witness configurations
(``witness_gaps``) show the non-commuting methods losing shift equivariance.
The gradient check turns each drawn case set into angles once, through
``position_angles`` as the encoder does, and hands the same angles and unit
axes to ``rotation_gradient`` and to central differences of maps built by
``ROTATIONS[tag].build``.
All are seeded and pure (same seed, same printed figures, byte for byte);
samples that draw several values each follow the rule of ``draw_samples``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cl3
from .attention import commutator_norm, shift_invariance_gap
from .encodings import (
    CARE_INVARIANT_SLOTS,
    CARE_VECTOR_SLOTS,
    METHODS,
    ORACLES,
    ROTATIONS,
    SPHERICAL_AXIS_X,
    SPHERICAL_AXIS_Y,
    EncodingMethod,
    apply_encoding,
    apply_maps,
    block_maps,
    care_rotate,
    grade1_rotation_axis,
    grid_positions,
    mixed_apply,
    mixed_rotate,
    mv8_rotor,
    position_angles,
    quatro_rotate,
    random_block,
    rope1d_rotate,
    rotate_rows,
    rotation_gradient,
    rotor_matrix,
    spherical_rotate,
    unit_axis,
)
from .ga import Algebra
from .quaternion import (
    even_cl3_coeffs,
    hamilton_product,
    quat_rotor,
    quat_sandwich,
)


class CheckFailure(AssertionError):
    """An invariant suite found a violation; message names the property."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def draw_samples(count: int, draw: Callable[[], tuple]) -> tuple[np.ndarray, ...]:
    """Call ``draw()`` ``count`` times, in order, and stack its results
    column by column. Drawing one sample at a time keeps each seed's samples,
    and so its printed figures; evaluate the stacked samples all at once."""
    return tuple(np.array(column) for column in zip(*(draw() for _ in range(count))))


# ---------------------------------------------------------------------------
# suites


def _suite_ga_product_laws(seed: int) -> str:
    rng = np.random.default_rng([seed, 0])
    alg = Algebra(3)
    # one row per triple: a, b, c (8 each), then s and t; the stream is
    # that of drawing the triples one at a time, so each seed keeps its
    # samples and its printed detail
    draws = rng.standard_normal((50, 26))
    a, b, c = draws[:, 0:8], draws[:, 8:16], draws[:, 16:24]
    s, t = draws[:, 24:25], draws[:, 25:26]
    assoc = alg.gp(alg.gp(a, b), c) - alg.gp(a, alg.gp(b, c))
    lin = alg.gp(s * a + t * b, c) - (s * alg.gp(a, c) + t * alg.gp(b, c))
    worst = float(max(np.max(np.abs(assoc)), np.max(np.abs(lin))))
    _require(worst <= 1e-12, f"associativity/bilinearity deviation {worst:.3e} > 1e-12")
    for i in range(3):
        ei = np.zeros(8)
        ei[1 << i] = 1.0
        sq = alg.gp(ei, ei)
        _require(sq[0] == 1.0 and np.all(sq[1:] == 0.0), f"e{i + 1}^2 != 1")
        for j in range(i + 1, 3):
            ej = np.zeros(8)
            ej[1 << j] = 1.0
            anti = alg.gp(ei, ej) + alg.gp(ej, ei)
            _require(np.all(anti == 0.0), f"e{i + 1} e{j + 1} does not anticommute")
    return f"assoc/linear dev {worst:.3e} on 50 triples; generator table exact"


def _suite_ga_rotor_sandwich(seed: int) -> str:
    rng = np.random.default_rng([seed, 1])
    alg = Algebra(3)
    n = 100
    b3, half, mv = draw_samples(
        n, lambda: (rng.standard_normal(3), rng.uniform(-np.pi, np.pi), rng.standard_normal(8))
    )

    def dots(a):  # each row's np.dot(row, row): the same BLAS dot, so the same digits
        return (a[:, None, :] @ a[:, :, None])[:, 0, 0]

    def sandwich(rotor, x):
        return alg.gp(alg.gp(rotor, x), alg.reverse(rotor))

    def grade_norms(x):  # (rows, grade)
        return np.stack([np.sqrt(dots(alg.grade_project(x, g))) for g in range(4)], axis=-1)

    biv = np.zeros((n, 8))
    biv[:, [3, 5, 6]] = b3  # bivector masks e12, e13, e23
    biv = biv * (1.0 / np.sqrt(dots(biv)))[:, None]
    rotor = np.sin(half)[:, None] * biv  # exp(h B) = cos(h) + sin(h) B for a unit bivector
    rotor[:, 0] = np.cos(half)
    out = sandwich(rotor, mv)
    worst_norm = float(np.max(np.abs(grade_norms(out) - grade_norms(mv))))
    back = sandwich(alg.reverse(rotor), out)
    worst_inv = float(np.max(np.abs(back - mv)))
    _require(worst_norm <= 1e-12, f"grade-norm deviation {worst_norm:.3e} > 1e-12")
    _require(worst_inv <= 1e-12, f"sandwich inverse deviation {worst_inv:.3e} > 1e-12")
    return f"grade norms {worst_norm:.3e}, inverse {worst_inv:.3e} on {n} rotors"


def _suite_quat_isomorphism(seed: int) -> str:
    alg = Algebra(3)
    basis = np.eye(4)
    embedded = even_cl3_coeffs(basis)
    # every basis pair (qi, qj) at once, qi along the first axis
    ham = even_cl3_coeffs(hamilton_product(basis[:, None], basis[None, :]))
    ga = alg.gp(embedded[:, None], embedded[None, :])
    mismatched = np.argwhere(np.any(ga != ham, axis=-1))
    if mismatched.size:
        qi, qj = mismatched[0]
        raise CheckFailure(f"basis pair ({qi},{qj}) mismatched")
    rng = np.random.default_rng([seed, 2])
    pairs = rng.standard_normal((1000, 2, 4))  # p then q, pair by pair
    p, q = pairs[:, 0], pairs[:, 1]
    ham = even_cl3_coeffs(hamilton_product(p, q))
    ga = alg.gp(even_cl3_coeffs(p), even_cl3_coeffs(q))
    worst = float(np.max(np.abs(ham - ga)))
    _require(worst <= 1e-12, f"random-pair homomorphism deviation {worst:.3e} > 1e-12")
    return f"16 basis pairs exact; 1000 random pairs dev {worst:.3e}"


def _suite_quat_rotation(seed: int) -> str:
    rng = np.random.default_rng([seed, 3])
    axes = unit_axis(rng.standard_normal((1000, 3)))
    half = rng.uniform(-np.pi, np.pi, 1000)
    rotors = quat_rotor(axes, half)
    vecs = rng.standard_normal((1000, 3))
    via_sandwich = quat_sandwich(rotors, vecs)
    # contiguous (n, 3, 3): an einsum over the moved-axis view rounds differently
    mats = np.ascontiguousarray(np.moveaxis(rotor_matrix(*rotors.T), (0, 1), (-2, -1)))
    via_matrix = np.einsum("nij,nj->ni", mats, vecs)
    worst = float(np.max(np.abs(via_sandwich - via_matrix)))
    _require(worst <= 1e-12, f"sandwich vs matrix deviation {worst:.3e} > 1e-12")
    dets = np.linalg.det(mats)
    worst_det = float(np.max(np.abs(dets - 1.0)))
    _require(worst_det <= 1e-12, f"rotation determinant off by {worst_det:.3e}")
    return f"1000 rotor/vector pairs dev {worst:.3e}; det drift {worst_det:.3e}"


def _suite_cl3_invariant_channels(seed: int) -> str:
    rng = np.random.default_rng([seed, 5])
    n = 2000
    rotors = mv8_rotor(rng.standard_normal((n, 3)), rng.uniform(-np.pi, np.pi, n))
    a = rng.standard_normal((n, 8))
    out = cl3.mv8_rotor_sandwich(rotors, a)
    a_inv, out_inv = a[:, CARE_INVARIANT_SLOTS], out[:, CARE_INVARIANT_SLOTS]
    drift = float(np.max(np.abs(out_inv - a_inv) / np.maximum(1.0, np.abs(a_inv))))
    _require(drift <= 1e-15, f"scalar/e123 slots drift {drift:.3e} > 1e-15")
    return f"invariant-channel drift {drift:.3e} on {n} rows"


def reduction_deviations(
    seed: int, samples: int = 1000, grid_h: int = 14, grid_w: int = 14, base: float = 10000.0
) -> dict[str, float]:
    """Max deviation of each special-case reduction over random samples.

    The five claims: quatro with the orthogonal fixed pair reproduces
    spherical; quatro with parallel axes reproduces mixed; care restricted
    to a grade-1 carrier reproduces a quaternion rotation (axes remapped
    through the bivector correspondence, conjugation order aligned); care
    with parallel axes on grade-1 reproduces mixed about the remapped axis;
    mixed about e3 with scale_y 0 reproduces rope1d, the third slot 0. The
    last draws from its own stream, so the first four keep their samples.
    """
    grid = grid_positions(grid_h, grid_w)
    schedule = EncodingMethod.configure("quatro", 64, base=base).schedule

    def draw(stream: int, sizes: tuple[int, ...]):  # p, theta, then a normal draw per size
        rng = np.random.default_rng([seed, stream])
        return draw_samples(samples, lambda: (
            grid[rng.integers(0, grid.shape[0])],
            schedule.band_angles[rng.integers(0, schedule.num_bands)],
            *(rng.standard_normal(size) for size in sizes),
        ))

    p, theta, v, u, ux, uy = draw(6, (3, 3, 3, 3))
    u, ux, uy = unit_axis(u), unit_axis(ux), unit_axis(uy)

    def worst(a, b) -> float:
        return float(np.max(np.abs(a - b)))

    dev = {}
    dev["quatro_orthogonal_vs_spherical"] = worst(
        quatro_rotate(v, p, SPHERICAL_AXIS_X, SPHERICAL_AXIS_Y, theta),
        spherical_rotate(v, p, theta),
    )
    dev["quatro_parallel_vs_mixed"] = worst(  # parallel, different raw norms
        quatro_rotate(v, p, u, 2.5 * u, theta), mixed_rotate(v, p, u, theta)
    )
    m = np.zeros((samples, 8))
    m[:, CARE_VECTOR_SLOTS] = v
    # order-aligned quaternion oracle: care conjugates y outermost
    rx = quat_rotor(grade1_rotation_axis(ux), theta * p[:, 0] / 2.0)
    ry = quat_rotor(grade1_rotation_axis(uy), theta * p[:, 1] / 2.0)
    dev["care_grade1_vs_quatro"] = worst(
        care_rotate(m, p, ux, uy, theta)[:, CARE_VECTOR_SLOTS],
        quat_sandwich(hamilton_product(ry, rx), v),
    )
    dev["care_parallel_vs_mixed"] = worst(  # parallel pair
        care_rotate(m, p, ux, 0.5 * ux, theta)[:, CARE_VECTOR_SLOTS],
        mixed_apply(v, theta * (p[:, 0] + p[:, 1]), grade1_rotation_axis(ux)),
    )
    p, theta, ab = draw(10, (2,))
    sx = 1.3  # not 1, so an angle formed from an unscaled p_x shows
    dev["mixed_e3_vs_rope1d"] = worst(
        mixed_rotate(np.insert(ab, 2, 0.0, axis=-1), p, (0.0, 0.0, 2.0), theta, sx, 0.0),
        np.insert(rope1d_rotate(ab, p[:, 0], theta, sx), 2, 0.0, axis=-1),
    )
    return dev


def _suite_rotary_reductions(seed: int) -> str:
    dev = reduction_deviations(seed, samples=300)
    worst = max(dev.values())
    _require(worst <= 1e-10, f"reduction deviation {worst:.3e} > 1e-10")
    parts = ", ".join(f"{k.split('_vs_')[0]} {v:.2e}" for k, v in dev.items())
    return f"300 samples each: {parts}"


GRAD_H_SWEEP = (1e-4, 1e-5, 1e-6)  # finite-difference steps, each checked
GRAD_CHANNEL_H = 1e-5  # step of the care invariant-channel check
GRAD_CHANNEL_TOL = 1e-10  # bound on any derivative of the care scalar/e123 slots


def _grad_cases(tag: str, rng: np.random.Generator, positions: np.ndarray, schedule, count: int):
    """``count`` gradient samples: carriers, positions, band angles and unit
    axes; a shared-axis method draws one axis for both."""
    rotation = ROTATIONS[tag]
    shared = rotation.free_axes == 1

    def draw():
        v = rng.standard_normal(rotation.width)
        p = positions[rng.integers(0, positions.shape[0])]
        theta = float(schedule.band_angles[rng.integers(0, schedule.num_bands)])
        raw_x = rng.standard_normal(3)
        return v, p, theta, raw_x, raw_x if shared else rng.standard_normal(3)

    v, p, theta, raw_x, raw_y = draw_samples(count, draw)
    axis_x = unit_axis(raw_x)
    return v, p, theta, axis_x, axis_x if shared else unit_axis(raw_y)


def _grad_fd(tag, cases, coordinate, h) -> np.ndarray:
    """Central differences of every sample at once, through the map table."""
    v, angle_x, angle_y, axis_x, axis_y = cases
    build = ROTATIONS[tag].build

    def f(dx, dy):
        return apply_maps(tag, build(angle_x + dx, angle_y + dy, axis_x, axis_y), v)

    if coordinate == "angle_x":
        return (f(h, 0.0) - f(-h, 0.0)) / (2.0 * h)
    return (f(0.0, h) - f(0.0, -h)) / (2.0 * h)


def gradient_errors(
    seed: int, positions: np.ndarray, samples: int = 100, base: float = 10000.0, scales=(1.0, 1.0)
) -> tuple[dict[tuple[str, str, float], float], float]:
    """Worst max |g - fd| / max(1, max |fd|) of ``rotation_gradient`` (the
    rotor commutator) against central differences through the map table,
    per (method, angle, step of GRAD_H_SWEEP); and the largest derivative,
    either way, of care's scalar and e123 slots, which no rotor moves."""
    schedule = EncodingMethod.configure("quatro", 64, base=base).schedule

    def resolved_cases(tag, rng):  # (v, angle_x, angle_y, axis_x, axis_y)
        v, p, theta, axis_x, axis_y = _grad_cases(tag, rng, positions, schedule, samples)
        return (v, *position_angles(p, theta, *scales), axis_x, axis_y)

    errors = {}
    for tag_index, tag in enumerate(METHODS):
        for coord_index, coordinate in enumerate(("angle_x", "angle_y")):
            cases = resolved_cases(tag, np.random.default_rng([seed, 2 * tag_index + coord_index]))
            g = rotation_gradient(tag, coordinate, *cases)  # independent of h
            for h in GRAD_H_SWEEP:
                fd = _grad_fd(tag, cases, coordinate, h)
                rel = np.max(np.abs(g - fd), axis=-1) / np.maximum(1.0, np.max(np.abs(fd), axis=-1))
                errors[tag, coordinate, h] = float(np.max(rel))

    cases = resolved_cases("care", np.random.default_rng([seed, 999]))
    derivatives = []
    for coordinate in ("angle_x", "angle_y"):
        fd = _grad_fd("care", cases, coordinate, GRAD_CHANNEL_H)
        derivatives += [rotation_gradient("care", coordinate, *cases), fd]
    channels = float(np.max(np.abs(np.stack(derivatives)[..., CARE_INVARIANT_SLOTS])))
    return errors, channels


def _suite_rotary_norms(seed: int) -> str:
    rng = np.random.default_rng([seed, 7])
    pos = grid_positions(5, 5)
    worst_norm = 0.0
    worst_channel = 0.0
    worst_round = 0.0
    for tag, head_dim in (("rope1d", 10), ("mixed", 9), ("spherical", 10), ("quatro", 10), ("care", 17)):
        free_axes = ROTATIONS[tag].free_axes  # a shared axis_y defaults to axis_x
        axes_x = rng.standard_normal(3) if free_axes else None
        axes_y = rng.standard_normal(3) if free_axes == 2 else None
        method = EncodingMethod.configure(
            tag, head_dim, axes_x=axes_x, axes_y=axes_y, scale_x=1.2, scale_y=0.7
        )
        block = random_block(2, head_dim, pos, seed=seed + head_dim)
        out = apply_encoding(block, method)
        bands, width = method.schedule.num_bands, method.width
        sub_in = block.data[:, :, : bands * width].reshape(2, pos.shape[0], bands, width)
        sub_out = out.data[:, :, : bands * width].reshape(2, pos.shape[0], bands, width)
        norms = np.abs(
            np.linalg.norm(sub_out, axis=-1) - np.linalg.norm(sub_in, axis=-1)
        )
        worst_norm = max(worst_norm, float(np.max(norms)))
        if tag == "care":
            for slots in ((0,), (1, 2, 4), (3, 5, 6), (7,)):  # per-grade slot groups
                g = np.abs(
                    np.linalg.norm(sub_out[..., slots], axis=-1)
                    - np.linalg.norm(sub_in[..., slots], axis=-1)
                )
                worst_norm = max(worst_norm, float(np.max(g)))
            drift = np.max(np.abs(sub_out[..., CARE_INVARIANT_SLOTS] - sub_in[..., CARE_INVARIANT_SLOTS]))
            worst_channel = max(worst_channel, float(drift))
        back = apply_encoding(out, method, inverse=True)
        worst_round = max(worst_round, float(np.max(np.abs(back.data - block.data))))
    _require(worst_norm <= 1e-10, f"norm preservation deviation {worst_norm:.3e} > 1e-10")
    _require(worst_channel <= 1e-15, f"care invariant channels drift {worst_channel:.3e} > 1e-15")
    _require(worst_round <= 1e-10, f"inverse round-trip deviation {worst_round:.3e} > 1e-10")
    return (
        f"norms {worst_norm:.3e}, care channels {worst_channel:.3e}, round-trip {worst_round:.3e}"
    )


# The non-commuting methods lose shift equivariance: an existential claim,
# so its evidence is two hand-picked configurations, frozen so that a
# regression reproduces exactly, with gaps re-measured on every run.
WITNESS_GAP_FLOOR = 1e-3


def witness_gaps() -> tuple[float, float]:
    """Shift gaps of the spherical and the non-parallel-axes quatro
    witness; they measure 1.684 and 2.509, far above the floor."""
    block = random_block(1, 6, grid_positions(4, 4), seed=11)
    shift = np.array([1.0, -1.0])
    spherical = EncodingMethod.configure("spherical", 6)
    quatro = EncodingMethod.configure(
        "quatro", 6, axes_x=np.array([1.0, 0.5, -0.25]), axes_y=np.array([-0.3, 0.9, 1.1])
    )
    return shift_invariance_gap(spherical, block, shift), shift_invariance_gap(quatro, block, shift)


def _suite_harness_equivariance(seed: int) -> str:
    rng = np.random.default_rng([seed, 8])
    pos = grid_positions(4, 4)
    block = random_block(1, 6, pos, seed=seed + 100)
    mixed = EncodingMethod.configure("mixed", 6)
    rope = EncodingMethod.configure("rope1d", 6)
    shifts = rng.uniform(-10.0, 10.0, (25, 2))
    worst_inv = max(shift_invariance_gap(m, block, s) for s in shifts for m in (mixed, rope))
    _require(worst_inv <= 1e-8, f"commuting-method shift gap {worst_inv:.3e} > 1e-8")
    gaps = witness_gaps()
    _require(
        min(gaps) > WITNESS_GAP_FLOOR,
        f"witness gap {min(gaps):.3e} not above {WITNESS_GAP_FLOOR}",
    )
    spherical = EncodingMethod.configure("spherical", 6)
    wit = commutator_norm(spherical, (np.pi / 2, 0.0), (0.0, np.pi / 2))
    _require(wit > 0.1, f"spherical commutator witness {wit:.3e} not above 0.1")
    par = EncodingMethod.configure(
        "quatro", 6, axes_x=np.array([0.6, -0.3, 0.9]), axes_y=np.array([1.2, -0.6, 1.8])
    )
    zero = max(
        commutator_norm(par, tuple(rng.uniform(-3, 3, 2)), tuple(rng.uniform(-3, 3, 2)))
        for _ in range(5)
    )
    _require(zero <= 1e-12, f"parallel-axes commutator {zero:.3e} > 1e-12")
    return (
        f"commuting gaps {worst_inv:.3e}; witness gaps {gaps[0]:.3f}/{gaps[1]:.3f}; "
        f"commutators {wit:.3f} vs {zero:.1e}"
    )


def _suite_encoder_oracles(seed: int) -> str:
    # the path garope encode runs (block_maps + rotate_rows) against the rotor
    # oracles at the same angles; per-band random axes, unequal scales, an
    # off-origin grid and pass-through dims make a transposed map or swapped
    # coordinates or axes show
    rng = np.random.default_rng([seed, 9])
    head_dim, sx, sy = 67, 1.3, 0.7  # 1, 1, 1, 1 and 3 pass-through dims
    pos = grid_positions(6, 7, origin=(0.5, -2.0))
    devs, worst_round, copied = {}, 0.0, True
    for tag in METHODS:
        width, free_axes = ROTATIONS[tag].width, ROTATIONS[tag].free_axes
        bands = head_dim // width
        body = bands * width
        axes_x = axes_y = None
        if free_axes:
            axes_x = rng.standard_normal((bands, 3))
            axes_y = axes_x if free_axes == 1 else rng.standard_normal((bands, 3))
        method = EncodingMethod.configure(
            tag, head_dim, axes_x=axes_x, axes_y=axes_y, scale_x=sx, scale_y=sy
        )
        data = rng.standard_normal((2, pos.shape[0], head_dim))
        maps = block_maps(method, pos)
        out = rotate_rows(data, method, maps)
        back = rotate_rows(out, method, maps, inverse=True)
        sub_in, sub_out = (a[:, :, :body].reshape(2, -1, bands, width) for a in (data, out))
        angles = position_angles(pos[:, None, :], method.schedule.band_angles, sx, sy)
        expected = ORACLES[tag](sub_in, *angles, axes_x, axes_y)
        devs[tag] = float(np.max(np.abs(sub_out - expected)))
        worst_round = max(worst_round, float(np.max(np.abs(back - data))))
        copied &= bool(np.array_equal(out[:, :, body:], data[:, :, body:]))
        if tag == "care":
            slots = CARE_INVARIANT_SLOTS
            copied &= bool(np.array_equal(sub_out[..., slots], sub_in[..., slots]))
    worst = max(devs.values())
    _require(worst <= 1e-13, f"encoder vs rotor oracle deviation {worst:.3e} > 1e-13")
    _require(worst_round <= 1e-13, f"encoder round-trip deviation {worst_round:.3e} > 1e-13")
    _require(copied, "pass-through dims or care scalar/e123 slots not copied exactly")
    parts = ", ".join(f"{tag} {dev:.2e}" for tag, dev in devs.items())
    return (
        f"2x{pos.shape[0]} tokens, head_dim {head_dim}: {parts}; "
        f"round-trip {worst_round:.2e}; copied slots exact"
    )


SUITES: tuple[tuple[str, Callable[[int], str]], ...] = (
    ("ga-product-laws", _suite_ga_product_laws),
    ("ga-rotor-sandwich", _suite_ga_rotor_sandwich),
    ("quat-cl3-isomorphism", _suite_quat_isomorphism),
    ("quat-rotation-matrix", _suite_quat_rotation),
    ("cl3-invariant-channels", _suite_cl3_invariant_channels),
    ("rotary-reductions", _suite_rotary_reductions),
    ("rotary-norm-preservation", _suite_rotary_norms),
    ("harness-equivariance", _suite_harness_equivariance),
    ("encoder-oracle-agreement", _suite_encoder_oracles),
)


def run_all(seed: int) -> list[CheckResult]:
    """Run every suite; failures become results, not exceptions."""
    results = []
    for name, fn in SUITES:
        try:
            detail = fn(seed)
            results.append(CheckResult(name=name, passed=True, detail=detail))
        except CheckFailure as exc:
            results.append(CheckResult(name=name, passed=False, detail=str(exc)))
    return results
