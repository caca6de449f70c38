"""The row-evaluated check suites against per-sample reference loops."""

import math

import numpy as np
import pytest

from garope import checks, encodings
from garope.encodings import METHODS, ROTATIONS, EncodingMethod, grid_positions, unit_axis
from garope.ga import Algebra
from garope.quaternion import even_cl3_coeffs, hamilton_product


def reference_product_laws(seed: int) -> str:
    """ga-product-laws drawn and evaluated one triple at a time."""
    rng = np.random.default_rng([seed, 0])
    alg = Algebra(3)
    worst = 0.0
    for _ in range(50):
        a, b, c = (rng.standard_normal(8) for _ in range(3))
        left = alg.gp(alg.gp(a, b), c)
        right = alg.gp(a, alg.gp(b, c))
        worst = max(worst, float(np.max(np.abs(left - right))))
        s, t = rng.standard_normal(2)
        lin = alg.gp(s * a + t * b, c) - (s * alg.gp(a, c) + t * alg.gp(b, c))
        worst = max(worst, float(np.max(np.abs(lin))))
    return f"assoc/linear dev {worst:.3e} on 50 triples; generator table exact"


def reference_quat_isomorphism(seed: int, product=hamilton_product) -> str:
    """quat-cl3-isomorphism on single embedded quaternions, one pair at a time."""
    alg = Algebra(3)
    embed = even_cl3_coeffs
    basis = np.eye(4)
    for qi in range(4):
        for qj in range(4):
            ham = product(basis[qi], basis[qj])
            ga = alg.gp(embed(basis[qi]), embed(basis[qj]))
            if not np.array_equal(ga, embed(ham)):
                return f"basis pair ({qi},{qj}) mismatched"
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(1000):
        p, q = rng.standard_normal(4), rng.standard_normal(4)
        ham = embed(product(p, q))
        ga = alg.gp(embed(p), embed(q))
        worst = max(worst, float(np.max(np.abs(ham - ga))))
    return f"16 basis pairs exact; 1000 random pairs dev {worst:.3e}"


def reference_rotor_sandwich(seed: int) -> str:
    """ga-rotor-sandwich drawn and evaluated one rotor at a time."""
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
        rotor = math.sin(half) * biv
        rotor[0] = math.cos(half)
        mv = rng.standard_normal(8)
        out = sandwich(rotor, mv)
        for grade in range(4):
            worst_norm = max(worst_norm, abs(grade_norm(out, grade) - grade_norm(mv, grade)))
        back = sandwich(alg.reverse(rotor), out)
        worst_inv = max(worst_inv, float(np.max(np.abs(back - mv))))
    return f"grade norms {worst_norm:.3e}, inverse {worst_inv:.3e} on 100 rotors"


def reference_grad_cases(tag, rng, positions, schedule, count):
    """Gradient samples drawn, normalized and stacked one at a time."""
    rotation = ROTATIONS[tag]
    cases = []
    for _ in range(count):
        v = rng.standard_normal(rotation.width)
        p = positions[rng.integers(0, positions.shape[0])]
        theta = float(schedule.band_angles[rng.integers(0, schedule.num_bands)])
        axis_x = unit_axis(rng.standard_normal(3))
        axis_y = axis_x if rotation.free_axes == 1 else unit_axis(rng.standard_normal(3))
        cases.append((v, p, theta, axis_x, axis_y))
    return tuple(np.array(column) for column in zip(*cases))


class TestDrawSamples:
    def test_stacks_each_value_over_the_samples_in_draw_order(self):
        rng = np.random.default_rng(3)
        want = [(rng.standard_normal(2), rng.integers(0, 9), rng.uniform()) for _ in range(7)]
        rng = np.random.default_rng(3)
        got = checks.draw_samples(7, lambda: (rng.standard_normal(2), rng.integers(0, 9), rng.uniform()))
        assert len(got) == 3
        assert got[0].shape == (7, 2) and got[1].shape == (7,) and got[2].shape == (7,)
        for i, sample in enumerate(want):
            for column, value in zip(got, sample):
                assert np.array_equal(column[i], value)

    @pytest.mark.parametrize("tag", METHODS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_gradient_cases_equal_drawing_one_sample_at_a_time(self, tag, seed):
        # mixed shares its axis, so it draws no axis_y: a wrong draw order
        # shifts every later sample and the stream left after the draws
        positions = grid_positions(5, 7, origin=(0.5, -2.0))
        schedule = EncodingMethod.configure("quatro", 64).schedule
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = checks._grad_cases(tag, rng_got, positions, schedule, 40)
        want = reference_grad_cases(tag, rng_want, positions, schedule, 40)
        assert len(got) == len(want) == 5
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert rng_got.standard_normal() == rng_want.standard_normal()
        if ROTATIONS[tag].free_axes == 1:
            assert np.array_equal(got[3], got[4])
        else:
            assert not np.array_equal(got[3], got[4])


@pytest.mark.parametrize("seed", [*range(24), 12345, 2031])
def test_rotor_sandwich_matches_per_rotor_reference(seed):
    assert checks._suite_ga_rotor_sandwich(seed) == reference_rotor_sandwich(seed)


@pytest.mark.xfail(
    raises=checks.CheckFailure,
    strict=True,
    reason="known defect: the scalar/e123 drift of 1.073e-15 at seed 2031 exceeds the 1e-15 bound",
)
def test_invariant_channels_hold_at_seed_2031():
    checks._suite_cl3_invariant_channels(2031)


@pytest.mark.parametrize("seed", range(10))
def test_product_laws_match_per_sample_reference(seed):
    assert checks._suite_ga_product_laws(seed) == reference_product_laws(seed)


@pytest.mark.parametrize("seed", range(10))
def test_quat_isomorphism_matches_per_sample_reference(seed):
    assert checks._suite_quat_isomorphism(seed) == reference_quat_isomorphism(seed)


def test_quat_isomorphism_names_first_mismatched_basis_pair(monkeypatch):
    # q p in place of p q: the pairs with 1 or a repeated unit still match,
    # so the first mismatch in row-major order is i j against j i
    def swapped(p, q):
        return hamilton_product(q, p)

    want = reference_quat_isomorphism(0, product=swapped)
    assert want == "basis pair (1,2) mismatched"
    monkeypatch.setattr(checks, "hamilton_product", swapped)
    with pytest.raises(checks.CheckFailure) as failure:
        checks._suite_quat_isomorphism(0)
    assert str(failure.value) == want


@pytest.mark.parametrize(
    "seed, first_four",
    [
        (0, (8.881784197001252e-16, 2.220446049250313e-15, 8.881784197001252e-16, 1.5543122344752192e-15)),
        (1, (1.3322676295501878e-15, 1.4432899320127035e-15, 1.3322676295501878e-15, 1.7763568394002505e-15)),
        (7, (8.881784197001252e-16, 4.08006961549745e-15, 1.3322676295501878e-15, 4.218847493575595e-15)),
        (12345, (1.3322676295501878e-15, 1.9984014443252818e-15, 1.1102230246251565e-15, 2.6645352591003757e-15)),
    ],
)
def test_rope1d_reduction_leaves_the_other_four_unchanged(seed, first_four):
    # printed by `garope equiv`: the fifth reduction draws from its own
    # stream, so the four before it keep the figures they had without it
    dev = checks.reduction_deviations(seed)
    assert list(dev) == [
        "quatro_orthogonal_vs_spherical",
        "quatro_parallel_vs_mixed",
        "care_grade1_vs_quatro",
        "care_parallel_vs_mixed",
        "mixed_e3_vs_rope1d",
    ]
    assert tuple(dev.values())[:4] == first_four
    assert dev["mixed_e3_vs_rope1d"] == 0.0


def test_each_axis_is_normalized_once_where_it_is_drawn(monkeypatch):
    # the oracles and rotation_gradient take unit axes, so only the draws
    # normalize: two axes per case set (one for mixed's shared axis) over
    # ten case sets, and two for care's invariant-channel set
    calls = []

    def counted(axis):
        calls.append(np.shape(axis))
        return unit_axis(axis)

    monkeypatch.setattr(checks, "unit_axis", counted)
    monkeypatch.setattr(encodings, "unit_axis", counted)
    checks.gradient_errors(0, grid_positions(4, 4), samples=10)
    assert calls == [(10, 3)] * 20


def test_quat_rotation_fails_on_a_wrong_entry_of_the_encoder_matrix(monkeypatch):
    # the suite holds the matrix formula the encoder ships to Hamilton
    # sandwiches, so one wrong entry in it (here xy + wz at (0, 1), the
    # sign of w flipped) fails the suite
    shipped = encodings.rotor_matrix
    assert checks.rotor_matrix is shipped

    def broken(w, x, y, z):
        mats = shipped(w, x, y, z)
        mats[0, 1] = mats[1, 0]
        return mats

    monkeypatch.setattr(checks, "rotor_matrix", broken)
    result = {r.name: r for r in checks.run_all(0)}["quat-rotation-matrix"]
    assert not result.passed
    assert result.detail.startswith("sandwich vs matrix deviation")


@pytest.mark.parametrize(
    "seed, detail",
    [
        (0, "grade norms 8.882e-16, inverse 2.220e-15 on 100 rotors"),
        (1, "grade norms 1.332e-15, inverse 1.776e-15 on 100 rotors"),
        (7, "grade norms 8.882e-16, inverse 1.332e-15 on 100 rotors"),
        (12345, "grade norms 1.332e-15, inverse 3.109e-15 on 100 rotors"),
    ],
)
def test_rotor_sandwich_details_are_pinned(seed, detail):
    # printed by `garope check`, so the figures must not move
    assert checks._suite_ga_rotor_sandwich(seed) == detail
