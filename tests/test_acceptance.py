"""Acceptance gate: every shipped guarantee, one verdict line per test.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each test prints exactly one PASS/FAIL line and then asserts it.
"""

import time

import numpy as np

from garope import bench, checks, cl3, cli
from garope.attention import shift_invariance_gap
from garope.encodings import (
    METHOD_WIDTHS,
    METHODS,
    ORACLES,
    ROTATIONS,
    EncodingMethod,
    TokenBlock,
    apply_encoding,
    grid_positions,
    mv8_rotor,
    position_angles,
    random_block,
    rotation_gradient,
    rotor_matrix,
    unit_axis,
)
from garope.formats import read_tensor, write_tensor
from garope.ga import Algebra
from garope.quaternion import even_cl3_coeffs, hamilton_product, quat_sandwich

_ORIENT = np.array(cl3._SLOT_ORIENTATION, dtype=np.float64)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label} — {detail}")
    assert ok, f"{label}: {detail}"


def _oracle_product_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    alg = Algebra(3)
    return _ORIENT * alg.gp(a * _ORIENT, b * _ORIENT)


def test_quaternion_cl3_product_homomorphism():
    t0 = time.perf_counter()
    alg = Algebra(3)
    basis_exact = True
    for i in range(4):
        for j in range(4):
            p, q = np.zeros(4), np.zeros(4)
            p[i] = q[j] = 1.0
            lhs = even_cl3_coeffs(hamilton_product(p, q))
            rhs = alg.gp(even_cl3_coeffs(p), even_cl3_coeffs(q))
            basis_exact &= bool(np.array_equal(lhs, rhs))
    rng = np.random.default_rng(100)
    random_dev = 0.0
    for _ in range(1000):
        p, q = rng.standard_normal(4), rng.standard_normal(4)
        lhs = even_cl3_coeffs(hamilton_product(p, q))
        rhs = alg.gp(even_cl3_coeffs(p), even_cl3_coeffs(q))
        random_dev = max(random_dev, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - t0
    ok = basis_exact and random_dev <= 1e-12 and elapsed < 1.0
    _verdict(
        "quaternion-to-even-Cl(3,0) map is a product homomorphism",
        ok,
        f"16 basis pairs exact, 1000 random pairs dev {random_dev:.3e}, {elapsed:.2f}s",
    )


def test_specialized_kernels_match_generic_engine():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n = 10_000
    a = rng.standard_normal((n, 8))
    b = rng.standard_normal((n, 8))
    prod_dev = float(np.max(np.abs(cl3.mv8_product(a, b) - _oracle_product_rows(a, b))))
    axis = rng.standard_normal((n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    rotors = mv8_rotor(axis, rng.uniform(-np.pi, np.pi, n))
    oracle = _oracle_product_rows(_oracle_product_rows(rotors, a), cl3.mv8_reverse(rotors))
    sand_dev = float(np.max(np.abs(cl3.mv8_rotor_sandwich(rotors, a) - oracle)))
    elapsed = time.perf_counter() - t0
    ok = prod_dev <= 1e-13 and sand_dev <= 1e-13 and elapsed < 5.0
    _verdict(
        "8-slot product/sandwich match the dense blade-table engine in the mv8 layout",
        ok,
        f"product dev {prod_dev:.3e}, sandwich dev {sand_dev:.3e} on {n} rows, {elapsed:.2f}s",
    )


def test_rotation_agrees_with_matrix_oracle_and_preserves_grades():
    rng = np.random.default_rng(102)
    axis = rng.standard_normal((1000, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    from garope.quaternion import quat_rotor

    rotors = quat_rotor(axis, rng.uniform(-np.pi, np.pi, 1000))
    v = rng.standard_normal((1000, 3))
    mats = np.moveaxis(rotor_matrix(*rotors.T), (0, 1), (-2, -1))  # the encoder's matrices
    quat_dev = float(
        np.max(np.abs(quat_sandwich(rotors, v) - np.einsum("nij,nj->ni", mats, v)))
    )

    grade_dev = 0.0
    alg = Algebra(3)
    for _ in range(200):
        biv = np.zeros(8)
        biv[[3, 5, 6]] = rng.standard_normal(3)  # e12, e13, e23
        biv = biv / np.linalg.norm(biv)
        half = float(rng.uniform(-np.pi, np.pi))
        rotor = np.sin(half) * biv  # exp(h B) for a unit bivector B
        rotor[0] = np.cos(half)
        for grade in range(4):
            idx = [m for m in range(8) if bin(m).count("1") == grade]
            pure = np.zeros(8)
            pure[idx] = rng.standard_normal(len(idx))
            out = alg.gp(alg.gp(rotor, pure), alg.reverse(rotor))
            for g in range(4):
                got = np.linalg.norm(alg.grade_project(out, g))
                want = np.linalg.norm(pure[idx]) if g == grade else 0.0
                grade_dev = max(grade_dev, abs(got - want))
    ok = quat_dev <= 1e-12 and grade_dev <= 1e-12
    _verdict(
        "quaternion sandwich matches 3x3 matrices; rotor sandwich preserves grades",
        ok,
        f"matrix dev {quat_dev:.3e} on 1000 pairs, grade/norm dev {grade_dev:.3e}",
    )


def test_special_case_reductions_hold_on_the_grid():
    t0 = time.perf_counter()
    dev = checks.reduction_deviations(seed=0, samples=1000, grid_h=14, grid_w=14)
    elapsed = time.perf_counter() - t0
    worst = max(dev.values())
    ok = worst <= 1e-10 and len(dev) == 5 and elapsed < 10.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in dev.items())
    _verdict(
        "all five special-case reductions hold to 1e-10 over 1000 samples",
        ok,
        f"{detail}; {elapsed:.2f}s",
    )


def test_shift_equivariance_dichotomy():
    method = EncodingMethod.configure("mixed", 12)
    block = random_block(2, 12, grid_positions(4, 4), seed=5)
    rng = np.random.default_rng(17)
    mixed_gap = max(
        shift_invariance_gap(method, block, shift) for shift in rng.uniform(-10, 10, (100, 2))
    )
    witness_gaps = checks.witness_gaps()
    ok = mixed_gap <= 1e-8 and all(g > 1e-3 for g in witness_gaps)
    _verdict(
        "mixed scores are shift-invariant; spherical/quatro witnesses are not",
        ok,
        f"mixed gap {mixed_gap:.3e} over 100 shifts, witness gaps "
        + "/".join(f"{g:.3f}" for g in witness_gaps),
    )


def test_care_scalar_and_pseudoscalar_channels_are_invariant():
    worst = 0.0
    rng = np.random.default_rng(103)
    for head_dim in (8, 16, 24, 64):
        for scale_x, scale_y in ((1.0, 1.0), (1.7, 0.3)):
            for axes in (None, rng.standard_normal(3)):
                axes_y = None if axes is None else rng.standard_normal(3)
                method = EncodingMethod.configure(
                    "care", head_dim, axes_x=axes, axes_y=axes_y, scale_x=scale_x, scale_y=scale_y
                )
                block = random_block(2, head_dim, grid_positions(3, 5), seed=head_dim)
                out = apply_encoding(block, method)
                nb = method.schedule.num_bands
                sub_in = block.data[:, :, : nb * 8].reshape(2, -1, nb, 8)
                sub_out = out.data[:, :, : nb * 8].reshape(2, -1, nb, 8)
                drift = max(
                    float(np.max(np.abs(sub_out[..., 0] - sub_in[..., 0]))),
                    float(np.max(np.abs(sub_out[..., 7] - sub_in[..., 7]))),
                )
                worst = max(worst, drift)
    ok = worst <= 1e-15
    _verdict(
        "care scalar/e123 channels pass through unchanged in every configuration",
        ok,
        f"max drift {worst:.3e} across 16 configurations",
    )


def test_analytic_gradients_match_finite_differences():
    positions = grid_positions(14, 14)
    schedule = EncodingMethod.configure("quatro", 64).schedule
    h = 1e-5

    def fd(tag, v, ax, ay, ux, uy, coordinate):
        def f(dx, dy):
            return ORACLES[tag](v, ax + dx, ay + dy, ux, uy)

        if coordinate == "angle_x":
            return (f(h, 0.0) - f(-h, 0.0)) / (2.0 * h)
        return (f(0.0, h) - f(0.0, -h)) / (2.0 * h)

    worst, total = 0.0, 0
    for tag_index, tag in enumerate(METHODS):
        for coord_index, coordinate in enumerate(("angle_x", "angle_y")):
            rng = np.random.default_rng([104, 2 * tag_index + coord_index])
            for _ in range(100):
                v = rng.standard_normal(METHOD_WIDTHS[tag])
                p = positions[rng.integers(0, positions.shape[0])]
                theta = float(schedule.band_angles[rng.integers(0, schedule.num_bands)])
                ux = unit_axis(rng.standard_normal(3))
                uy = ux if ROTATIONS[tag].free_axes == 1 else unit_axis(rng.standard_normal(3))
                g = rotation_gradient(tag, coordinate, v, *position_angles(p, theta, 1.0, 1.0), ux, uy)
                ref = fd(tag, v, theta * p[0], theta * p[1], ux, uy, coordinate)
                rel = float(np.max(np.abs(g - ref))) / max(1.0, float(np.max(np.abs(ref))))
                worst = max(worst, rel)
                total += 1
    ok = worst <= 1e-6 and total == 1000
    _verdict(
        "analytic angle gradients match central differences at h=1e-5",
        ok,
        f"max relative error {worst:.3e} over {total} samples",
    )


def test_shipped_encoder_matches_rotor_oracles():
    t0 = time.perf_counter()
    suites_ok = all(
        {r.name: r for r in checks.run_all(seed)}["encoder-oracle-agreement"].passed
        for seed in (0, 1, 7, 12345)
    )
    # one more configuration, independent of the suite's: other scales,
    # origin and head_dims, and the rotor oracles at resolved angles
    rng = np.random.default_rng(106)
    positions = grid_positions(5, 6, origin=(-1.5, 2.25))
    scale_x, scale_y = 0.6, 1.9
    worst = worst_round = 0.0
    copied = True
    for tag in METHODS:
        width = METHOD_WIDTHS[tag]
        bands = 4
        head_dim = bands * width + width - 1  # the most pass-through dims
        free_axes = ROTATIONS[tag].free_axes
        axes_x = axes_y = None
        if free_axes:
            axes_x = rng.standard_normal((bands, 3))
            axes_y = axes_x if free_axes == 1 else rng.standard_normal((bands, 3))
        method = EncodingMethod.configure(
            tag, head_dim, axes_x=axes_x, axes_y=axes_y, scale_x=scale_x, scale_y=scale_y
        )
        block = random_block(3, head_dim, positions, seed=bands * width)
        out = apply_encoding(block, method)
        back = apply_encoding(out, method, inverse=True)
        theta = method.schedule.band_angles
        ax = theta * (scale_x * positions[:, None, 0])
        ay = theta * (scale_y * positions[:, None, 1])
        ux = None if axes_x is None else unit_axis(axes_x)
        uy = None if axes_y is None else unit_axis(axes_y)
        sub_in = block.data[:, :, : bands * width].reshape(3, -1, bands, width)
        sub_out = out.data[:, :, : bands * width].reshape(3, -1, bands, width)
        expected = ORACLES[tag](sub_in, ax, ay, ux, uy)
        worst = max(worst, float(np.max(np.abs(sub_out - expected))))
        worst_round = max(worst_round, float(np.max(np.abs(back.data - block.data))))
        copied &= bool(np.array_equal(out.data[..., bands * width :], block.data[..., bands * width :]))
    elapsed = time.perf_counter() - t0
    ok = suites_ok and worst <= 1e-13 and worst_round <= 1e-13 and copied and elapsed < 10.0
    _verdict(
        "the shipped encoder matches the rotor oracles sub-vector by sub-vector",
        ok,
        f"check suite passes at seeds 0/1/7/12345; extra configuration dev {worst:.3e}, "
        f"round-trip {worst_round:.3e}, pass-through exact; {elapsed:.2f}s",
    )


def test_benchmark_produces_agreeing_kernels(tmp_path):
    t0 = time.perf_counter()
    out_path = tmp_path / "bench.csv"
    code = cli.main(["bench", "--reps", "30", "--output", str(out_path)])
    elapsed = time.perf_counter() - t0
    lines = out_path.read_text().strip().split("\n")
    header_ok = lines[0] == bench.BenchReport.CSV_HEADER
    checksums = {}
    complete = True
    for line in lines[1:]:
        fields = line.split(",")
        complete &= len(fields) == 10 and all(fields)
        checksums[fields[0]] = float(fields[9])
    # the default workload: seed 0, batch 2, the 14x14 grid, head_dim 64
    data = np.random.default_rng(0).standard_normal((2, 196, 64))
    block = TokenBlock(data=data, positions=grid_positions(14, 14))
    expected = {
        tag: float(np.sum(apply_encoding(block, EncodingMethod.configure(tag, 64)).data))
        for tag in METHODS
    }
    ok = (
        code == 0
        and header_ok
        and complete
        and tuple(checksums) == METHODS
        and checksums == expected
        and elapsed < 120.0
    )
    _verdict(
        "benchmark times one row per method, each checksum that of apply_encoding",
        ok,
        f"{len(checksums)} kernels, checksums equal: {checksums == expected}, {elapsed:.1f}s",
    )


def test_cli_reports_are_deterministic_and_tensor_io_bit_exact(tmp_path, capsys):
    repeats = {}
    for command in ("check", "equiv", "grad"):
        outputs = []
        for _ in range(2):
            code = cli.main([command, "--seed", "11"])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            outputs.append(captured.out)
        repeats[command] = outputs[0] == outputs[1]

    rng = np.random.default_rng(105)
    round_trips = []
    for dtype in (np.float32, np.float64):
        arr = rng.standard_normal((3, 4, 5)).astype(dtype)
        path = tmp_path / f"t_{arr.dtype}.rten"
        write_tensor(path, arr)
        back = read_tensor(path)
        round_trips.append(back.dtype == arr.dtype and back.tobytes() == arr.tobytes())

    ok = all(repeats.values()) and all(round_trips)
    _verdict(
        "check/equiv/grad are byte-identical across runs; tensor files round-trip bit-exact",
        ok,
        f"deterministic: {sorted(k for k, v in repeats.items() if v)}; "
        f"round trips exact for float32/float64",
    )
