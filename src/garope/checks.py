"""Named invariant suites behind the ``check`` and ``equiv`` commands.

Each suite re-derives its expected values independently: the blade-table
engine, which is also the one Cl(3,0) product behind ``cl3.mv8_product``,
meets its algebra laws and the Hamilton product; rotors meet rotation
matrices and closed-form identities; and the encoder meets the rotor
oracles, as a wrong orthogonal map keeps norms and round trips.
Suites are seeded and pure: same seed, same printed detail, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cl3
from .attention import commutator_norm, shift_invariance_gap
from .encodings import (
    METHOD_WIDTHS,
    SPHERICAL_AXIS_X,
    SPHERICAL_AXIS_Y,
    EncodingMethod,
    apply_encoding,
    block_maps,
    care_rotate,
    grade1_rotation_axis,
    grid_positions,
    mixed_apply,
    mixed_rotate,
    mv8_rotor,
    quatro_rotate,
    random_block,
    rope1d_rotate,
    rotate_rows,
    spherical_rotate,
    unit_axis,
)
from .ga import Algebra
from .quaternion import (
    even_cl3_coeffs,
    hamilton_product,
    quat_rotor,
    quat_sandwich,
    quat_to_rotation_matrix,
)


class CheckFailure(AssertionError):
    """An invariant suite found a violation; message names the property."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_rotor_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    return mv8_rotor(rng.standard_normal((n, 3)), rng.uniform(-np.pi, np.pi, n))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


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

    def sandwich(rotor, mv):
        return alg.gp(alg.gp(rotor, mv), alg.reverse(rotor))

    def grade_norm(mv, grade):
        part = alg.grade_project(mv, grade)
        return float(np.sqrt(np.dot(part, part)))

    worst_norm = 0.0
    worst_inv = 0.0
    for _ in range(100):
        biv = np.zeros(8)
        biv[[3, 5, 6]] = rng.standard_normal(3)  # bivector masks e12, e13, e23
        biv = biv * (1.0 / float(np.sqrt(np.dot(biv, biv))))
        half = rng.uniform(-np.pi, np.pi)
        rotor = math.sin(half) * biv  # exp(h B) = cos(h) + sin(h) B for a unit bivector
        rotor[0] = math.cos(half)
        mv = rng.standard_normal(8)
        out = sandwich(rotor, mv)
        for grade in range(4):
            worst_norm = max(worst_norm, abs(grade_norm(out, grade) - grade_norm(mv, grade)))
        back = sandwich(alg.reverse(rotor), out)
        worst_inv = max(worst_inv, float(np.max(np.abs(back - mv))))
    _require(worst_norm <= 1e-12, f"grade-norm deviation {worst_norm:.3e} > 1e-12")
    _require(worst_inv <= 1e-12, f"sandwich inverse deviation {worst_inv:.3e} > 1e-12")
    return f"grade norms {worst_norm:.3e}, inverse {worst_inv:.3e} on 100 rotors"


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
    via_matrix = np.einsum("nij,nj->ni", quat_to_rotation_matrix(rotors), vecs)
    worst = float(np.max(np.abs(via_sandwich - via_matrix)))
    _require(worst <= 1e-12, f"sandwich vs matrix deviation {worst:.3e} > 1e-12")
    dets = np.linalg.det(quat_to_rotation_matrix(rotors))
    worst_det = float(np.max(np.abs(dets - 1.0)))
    _require(worst_det <= 1e-12, f"rotation determinant off by {worst_det:.3e}")
    return f"1000 rotor/vector pairs dev {worst:.3e}; det drift {worst_det:.3e}"


def _suite_cl3_invariant_channels(seed: int) -> str:
    rng = np.random.default_rng([seed, 5])
    n = 2000
    rotors = _random_rotor_rows(rng, n)
    a = rng.standard_normal((n, 8))
    out = cl3.mv8_rotor_sandwich(rotors, a)
    scale = np.maximum(1.0, np.abs(a[:, [0, 7]]))
    drift = float(np.max(np.abs(out[:, [0, 7]] - a[:, [0, 7]]) / scale))
    _require(drift <= 1e-15, f"scalar/e123 slots drift {drift:.3e} > 1e-15")
    return f"invariant-channel drift {drift:.3e} on {n} rows"


def reduction_deviations(
    seed: int, samples: int = 1000, grid_h: int = 14, grid_w: int = 14, base: float = 10000.0
) -> dict[str, float]:
    """Max deviation of each special-case reduction over random samples.

    The four claims: quatro with the orthogonal fixed pair reproduces
    spherical; quatro with parallel axes reproduces mixed; care restricted
    to a grade-1 carrier reproduces a quaternion rotation (axes remapped
    through the bivector correspondence, conjugation order aligned); care
    with parallel axes on grade-1 reproduces mixed about the remapped axis.
    """
    rng = np.random.default_rng([seed, 6])
    grid = grid_positions(grid_h, grid_w)
    schedule = EncodingMethod.configure("quatro", 64, base=base).schedule
    # one sample's draws at a time keeps the random stream, and so each
    # seed's sample set, fixed; each reduction then runs over all samples
    draws = []
    for _ in range(samples):
        p = grid[rng.integers(0, grid.shape[0])]
        theta = schedule.band_angles[rng.integers(0, schedule.num_bands)]
        v, u, ux, uy = (rng.standard_normal(3) for _ in range(4))
        draws.append((p, theta, v, u, ux, uy))
    p, theta, v, u, ux, uy = (np.array(column) for column in zip(*draws))
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
    m[:, [1, 2, 4]] = v
    # order-aligned quaternion oracle: care conjugates y outermost
    rx = quat_rotor(grade1_rotation_axis(ux), theta * p[:, 0] / 2.0)
    ry = quat_rotor(grade1_rotation_axis(uy), theta * p[:, 1] / 2.0)
    dev["care_grade1_vs_quatro"] = worst(
        care_rotate(m, p, ux, uy, theta)[:, [1, 2, 4]],
        quat_sandwich(hamilton_product(ry, rx), v),
    )
    dev["care_parallel_vs_mixed"] = worst(  # parallel pair
        care_rotate(m, p, ux, 0.5 * ux, theta)[:, [1, 2, 4]],
        mixed_apply(v, theta * (p[:, 0] + p[:, 1]), grade1_rotation_axis(ux)),
    )
    return dev


def _suite_rotary_reductions(seed: int) -> str:
    dev = reduction_deviations(seed, samples=300)
    worst = max(dev.values())
    _require(worst <= 1e-10, f"reduction deviation {worst:.3e} > 1e-10")
    parts = ", ".join(f"{k.split('_vs_')[0]} {v:.2e}" for k, v in dev.items())
    return f"300 samples each: {parts}"


def _suite_rotary_norms(seed: int) -> str:
    rng = np.random.default_rng([seed, 7])
    pos = grid_positions(5, 5)
    worst_norm = 0.0
    worst_channel = 0.0
    worst_round = 0.0
    for tag, head_dim in (("rope1d", 10), ("mixed", 9), ("spherical", 10), ("quatro", 10), ("care", 17)):
        axes_x = rng.standard_normal(3) if tag in ("mixed", "quatro", "care") else None
        axes_y = rng.standard_normal(3) if tag in ("quatro", "care") else None
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
            drift = np.max(np.abs(sub_out[..., [0, 7]] - sub_in[..., [0, 7]]))
            worst_channel = max(worst_channel, float(drift))
        back = apply_encoding(out, method, inverse=True)
        worst_round = max(worst_round, float(np.max(np.abs(back.data - block.data))))
    _require(worst_norm <= 1e-10, f"norm preservation deviation {worst_norm:.3e} > 1e-10")
    _require(worst_channel <= 1e-15, f"care invariant channels drift {worst_channel:.3e} > 1e-15")
    _require(worst_round <= 1e-10, f"inverse round-trip deviation {worst_round:.3e} > 1e-10")
    return (
        f"norms {worst_norm:.3e}, care channels {worst_channel:.3e}, round-trip {worst_round:.3e}"
    )


def _suite_harness_equivariance(seed: int) -> str:
    from .fixtures import WITNESS_GAP_FLOOR, WITNESSES, evaluate_witness

    rng = np.random.default_rng([seed, 8])
    pos = grid_positions(4, 4)
    block = random_block(1, 6, pos, seed=seed + 100)
    mixed = EncodingMethod.configure("mixed", 6)
    rope = EncodingMethod.configure("rope1d", 6)
    worst_inv = 0.0
    for _ in range(25):
        shift = rng.uniform(-10.0, 10.0, 2)
        worst_inv = max(worst_inv, shift_invariance_gap(mixed, block, shift))
        worst_inv = max(worst_inv, shift_invariance_gap(rope, block, shift))
    _require(worst_inv <= 1e-8, f"commuting-method shift gap {worst_inv:.3e} > 1e-8")
    gaps = [evaluate_witness(w) for w in WITNESSES]
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
    # the path garope encode runs (block_maps + rotate_rows) against the *_rotate
    # oracles; per-band random axes, unequal scales, an off-origin grid and
    # pass-through dims make a transposed map or swapped coordinates or axes show
    rng = np.random.default_rng([seed, 9])
    head_dim, sx, sy = 67, 1.3, 0.7  # 1, 1, 1, 1 and 3 pass-through dims
    pos = grid_positions(6, 7, origin=(0.5, -2.0))
    oracles = {
        "rope1d": lambda v, p, theta, axis_x, axis_y: rope1d_rotate(v, p[..., 0], theta, sx),
        "mixed": lambda v, p, theta, axis_x, axis_y: mixed_rotate(v, p, axis_x, theta, sx, sy),
        "spherical": lambda v, p, theta, axis_x, axis_y: spherical_rotate(v, p, theta, sx, sy),
        "quatro": lambda v, p, theta, axis_x, axis_y: quatro_rotate(v, p, axis_x, axis_y, theta, sx, sy),
        "care": lambda v, p, theta, axis_x, axis_y: care_rotate(v, p, axis_x, axis_y, theta, sx, sy),
    }
    devs, worst_round, copied = {}, 0.0, True
    for tag, oracle in oracles.items():
        width = METHOD_WIDTHS[tag]
        bands = head_dim // width
        body = bands * width
        axes_x = axes_y = None
        if tag in ("mixed", "quatro", "care"):
            axes_x = rng.standard_normal((bands, 3))
            axes_y = axes_x if tag == "mixed" else rng.standard_normal((bands, 3))
        method = EncodingMethod.configure(
            tag, head_dim, axes_x=axes_x, axes_y=axes_y, scale_x=sx, scale_y=sy
        )
        data = rng.standard_normal((2, pos.shape[0], head_dim))
        maps = block_maps(method, pos)
        out = rotate_rows(data, method, maps)
        back = rotate_rows(out, method, maps, inverse=True)
        sub_in, sub_out = (a[:, :, :body].reshape(2, -1, bands, width) for a in (data, out))
        expected = oracle(sub_in, pos[:, None, :], method.schedule.band_angles, axes_x, axes_y)
        devs[tag] = float(np.max(np.abs(sub_out - expected)))
        worst_round = max(worst_round, float(np.max(np.abs(back - data))))
        copied &= bool(np.array_equal(out[:, :, body:], data[:, :, body:]))
        if tag == "care":
            copied &= bool(np.array_equal(sub_out[..., [0, 7]], sub_in[..., [0, 7]]))
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
