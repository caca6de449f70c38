"""Encoding methods: schedules, rotations, reductions, block application."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garope import encodings as enc
from garope.quaternion import hamilton_product, quat_rotor, quat_sandwich, quat_to_rotation_matrix

rng = np.random.default_rng(31337)


def unit3():
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestFrequencySchedule:
    def test_first_band_is_one(self):
        s = enc.FrequencySchedule.for_bands(21)
        assert s.band_angles[0] == 1.0

    def test_closed_form(self):
        s = enc.FrequencySchedule.for_bands(8, base=10000.0)
        expect = 10000.0 ** (-np.arange(8) / 8.0)
        assert np.array_equal(s.band_angles, expect)

    def test_strictly_decreasing_positive(self):
        s = enc.FrequencySchedule.for_bands(32)
        assert np.all(np.diff(s.band_angles) < 0)
        assert np.all(s.band_angles > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            enc.FrequencySchedule.for_bands(0)
        with pytest.raises(ValueError):
            enc.FrequencySchedule.for_bands(4, base=1.0)

    @pytest.mark.parametrize("base", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("num_bands", [1, 8])
    def test_non_finite_base_rejected(self, base, num_bands):
        # inf used to pass as the schedule [1, 0, 0, ...], and nan**0 == 1
        with pytest.raises(ValueError, match="base must be finite"):
            enc.FrequencySchedule.for_bands(num_bands, base=base)


class TestMethodConfigure:
    def test_band_counts_at_head_dim_64(self):
        assert enc.EncodingMethod.configure("rope1d", 64).schedule.num_bands == 32
        assert enc.EncodingMethod.configure("quatro", 64).schedule.num_bands == 21
        assert enc.EncodingMethod.configure("care", 64).schedule.num_bands == 8

    def test_head_dim_below_width_rejected(self):
        with pytest.raises(ValueError):
            enc.EncodingMethod.configure("care", 7)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            enc.EncodingMethod.configure("axial", 8)

    def test_fixed_axis_methods_reject_axes(self):
        with pytest.raises(ValueError):
            enc.EncodingMethod.configure("spherical", 6, axes_x=np.array([1.0, 0, 0]))

    @pytest.mark.parametrize("tag,head_dim", [("rope1d", 8), ("spherical", 6)])
    def test_direct_construction_rejects_axes_for_fixed_methods(self, tag, head_dim):
        schedule = enc.FrequencySchedule.for_bands(2)
        axes = enc.AxisParams(np.eye(3)[[0, 0]], np.eye(3)[[2, 2]])
        fixed = f"^{tag} has fixed axes; remove the axis parameters$"
        with pytest.raises(ValueError, match=fixed):
            enc.EncodingMethod(tag=tag, schedule=schedule, axes=axes)
        with pytest.raises(ValueError, match=fixed):
            enc.EncodingMethod.configure(tag, head_dim, axes_y=np.array([0.0, 0.0, 1.0]))

    def test_mixed_requires_shared_axis(self):
        with pytest.raises(ValueError):
            enc.EncodingMethod.configure(
                "mixed", 6, axes_x=np.array([1.0, 0, 0]), axes_y=np.array([0.0, 1, 0])
            )

    def test_mixed_accepts_scaled_parallel(self):
        m = enc.EncodingMethod.configure(
            "mixed", 6, axes_x=np.array([1.0, 1, 0]), axes_y=np.array([3.0, 3, 0])
        )
        assert m.axes.num_bands == 2

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError):
            enc.EncodingMethod.configure("quatro", 6, axes_x=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_axis_rejected(self, bad):
        with pytest.raises(ValueError, match="degenerate or non-finite"):
            enc.AxisParams(np.array([[bad, 0.0, 1.0]]), np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="not finite"):
            enc.unit_axis(np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("big", [1e155, -1e200, 1e308])
    def test_axis_whose_square_overflows_is_named(self, big):
        # finite components, but the squared norm overflows float64; a
        # leaked numpy warning would fail this test (RuntimeWarning is an error)
        with pytest.raises(ValueError, match="axes_x: the squared norm of a finite axis overflows"):
            enc.AxisParams(np.array([[0.0, 0.0, 1.0], [big, 0.0, 0.0]]), np.ones((2, 3)))
        with pytest.raises(ValueError, match="rotation axis: the squared norm of a finite axis overflows"):
            enc.unit_axis(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, big]]))
        with pytest.raises(ValueError, match="axes_y: the squared norm"):
            enc.EncodingMethod.configure("care", 16, axes_y=np.array([big, big, 0.0]))

    def test_large_and_random_axes_keep_their_bits(self):
        axes = np.concatenate([rng.standard_normal((50, 3)), [[1e154, 0.0, 0.0], [3e-8, 0.0, 0.0]]])
        norm = np.sqrt(np.sum(axes * axes, axis=-1, keepdims=True))
        assert enc.unit_axis(axes).tobytes() == (axes / norm).tobytes()
        assert enc.AxisParams(axes, axes).unit_x().tobytes() == (axes / norm).tobytes()

    @pytest.mark.parametrize("tag", ["rope1d", "mixed", "spherical", "quatro", "care"])
    def test_position_angle_overflow_is_named(self, tag):
        method = enc.EncodingMethod.configure(tag, 24, scale_x=1e300)
        pos = enc.grid_positions(2, 2, origin=(1e10, 0.0))
        with pytest.raises(ValueError, match="position angle overflows float64"):
            enc.block_maps(method, pos)
        with pytest.raises(ValueError, match="position angle overflows float64"):
            enc.apply_encoding(enc.random_block(1, 24, pos, seed=0), method)
        # the largest products that stay finite still build finite maps
        fine = enc.EncodingMethod.configure(tag, 24, scale_x=1e298)
        assert np.all(np.isfinite(enc.block_maps(fine, pos)))

    @pytest.mark.parametrize("tag", ["rope1d", "quatro"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_base_rejected(self, tag, bad):
        with pytest.raises(ValueError, match="base must be finite"):
            enc.EncodingMethod.configure(tag, 8, base=bad)

    @pytest.mark.parametrize("tag", ["rope1d", "quatro"])
    @pytest.mark.parametrize("name", ["scale_x", "scale_y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_rejected(self, tag, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            enc.EncodingMethod.configure(tag, 8, **{name: bad})
        schedule = enc.FrequencySchedule.for_bands(4)
        axes = None if tag == "rope1d" else enc.AxisParams(np.eye(3)[[0] * 4], np.eye(3)[[2] * 4])
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            enc.EncodingMethod(tag=tag, schedule=schedule, axes=axes, **{name: bad})

    def test_default_axes_are_the_orthogonal_pair(self):
        m = enc.EncodingMethod.configure("quatro", 9)
        assert np.all(m.axes.axes_x == enc.SPHERICAL_AXIS_X)
        assert np.all(m.axes.axes_y == enc.SPHERICAL_AXIS_Y)

    @pytest.mark.parametrize("name", ["SPHERICAL_AXIS_X", "SPHERICAL_AXIS_Y"])
    def test_default_axes_are_frozen(self, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(enc, name)[0] = 0.5

    def test_per_band_axes_shape_enforced(self):
        with pytest.raises(ValueError):
            enc.EncodingMethod.configure("quatro", 9, axes_x=rng.standard_normal((2, 3)))


class TestTokenBlock:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            enc.TokenBlock(data=np.zeros((3, 4)), positions=np.zeros((4, 2)))
        with pytest.raises(ValueError):
            enc.TokenBlock(data=np.zeros((1, 4, 8)), positions=np.zeros((5, 2)))

    def test_non_finite_rejected(self):
        data = np.zeros((1, 2, 4))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            enc.TokenBlock(data=data, positions=np.zeros((2, 2)))

    def test_caller_arrays_keep_their_flags(self):
        data, pos = np.zeros((1, 2, 4)), np.zeros((2, 2))
        block = enc.TokenBlock(data=data, positions=pos)
        for given, held in ((data, block.data), (pos, block.positions)):
            assert given.flags.writeable
            assert not held.flags.writeable
            assert np.shares_memory(given, held)

    def test_grid_positions_row_major(self):
        pos = enc.grid_positions(2, 3)
        # p_x runs along columns, p_y along rows
        assert np.array_equal(pos, [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]])

    def test_grid_origin_offset(self):
        pos = enc.grid_positions(1, 2, origin=(10.0, -3.0))
        assert np.array_equal(pos, [[10, -3], [11, -3]])


class TestScalarOps:
    def test_rope1d_quarter_turn(self):
        out = enc.rope1d_rotate(np.array([1.0, 0.0]), 1.0, np.pi / 2)
        assert np.max(np.abs(out - [0.0, 1.0])) < 1e-15

    def test_rope1d_scale_equals_prescaled_position(self):
        v, p, theta = rng.standard_normal((5, 7, 2)), rng.uniform(-40, 40, (5, 7)), rng.uniform(0, 1, 7)
        for sx in (1.3, 0.7, -2.5, 1e-3):
            got = enc.rope1d_rotate(v, p, theta, sx)
            assert got.tobytes() == enc.rope1d_rotate(v, sx * p, theta).tobytes()
            assert got.tobytes() == enc.rope1d_apply(v, enc.position_angles(
                np.stack([p, p], axis=-1), theta, sx, 1.0)[0]).tobytes()
        assert enc.rope1d_rotate(v, p, theta).tobytes() == enc.rope1d_rotate(v, p, theta, 1.0).tobytes()

    def test_rope1d_zero_position_identity(self):
        v = rng.standard_normal(2)
        assert np.array_equal(enc.rope1d_rotate(v, 0.0, 0.31), v)

    def test_spherical_order_xy_first(self):
        # the two steps do not commute; the xy-plane (p_y) step is applied
        # first, then the yz-plane (p_x) step
        v = np.array([1.0, 0.0, 0.0])
        out = enc.spherical_rotate(v, (np.pi / 2, np.pi / 2), 1.0)
        # Rxy sends e_x -> e_y, then Ryz sends e_y -> e_z
        assert np.max(np.abs(out - [0.0, 0.0, 1.0])) < 1e-15
        swapped = enc.spherical_apply(v, 0.0, np.pi / 2)
        swapped = enc.spherical_apply(swapped, np.pi / 2, 0.0)
        assert np.max(np.abs(out - swapped)) < 1e-15

    def test_spherical_noncommutativity_witness(self):
        v = np.array([1.0, 0.0, 0.0])
        p = (np.pi / 2, np.pi / 2)
        forward = enc.spherical_rotate(v, p, 1.0)
        # applying the two plane rotations in the opposite order
        other = enc.spherical_apply(enc.spherical_apply(v, np.pi / 2, 0.0), 0.0, np.pi / 2)
        assert np.linalg.norm(forward - other) > 0.5

    def test_quatro_x_rotor_is_outermost(self):
        v, p, theta = rng.standard_normal(3), (1.7, -0.6), 0.9
        ux, uy = unit3(), unit3()
        out = enc.quatro_rotate(v, p, ux, uy, theta)
        rx = quat_rotor(ux, theta * p[0] / 2)
        ry = quat_rotor(uy, theta * p[1] / 2)
        nested = quat_sandwich(rx, quat_sandwich(ry, v))
        assert np.max(np.abs(out - nested)) < 1e-14

    def test_quatro_normalizes_raw_axes(self):
        v, p, theta = rng.standard_normal(3), (0.4, 1.3), 0.5
        a = enc.quatro_rotate(v, p, np.array([2.0, 0, 0]), np.array([0, 0, 5.0]), theta)
        b = enc.quatro_rotate(v, p, enc.SPHERICAL_AXIS_X, enc.SPHERICAL_AXIS_Y, theta)
        assert np.max(np.abs(a - b)) < 1e-15

    def test_quatro_degenerate_axis_rejected(self):
        with pytest.raises(ValueError):
            enc.quatro_rotate(np.zeros(3), (0, 0), np.zeros(3), unit3(), 1.0)

    def test_mixed_depends_on_coordinate_sum(self):
        v, u, theta = rng.standard_normal(3), unit3(), 0.73
        a = enc.mixed_rotate(v, (2.0, 5.0), u, theta)
        b = enc.mixed_rotate(v, (2.0 + 1.25, 5.0 - 1.25), u, theta)
        assert np.max(np.abs(a - b)) < 1e-14

    def test_mixed_apply_takes_one_angle_per_carrier(self):
        n = 40
        v = rng.standard_normal((n, 3))
        angle = rng.uniform(-5, 5, n)
        u = enc.unit_axis(rng.standard_normal((n, 3)))
        batch = enc.mixed_apply(v, angle, u)
        single = np.array([enc.mixed_apply(v[i], float(angle[i]), u[i]) for i in range(n)])
        assert batch.shape == (n, 3)
        assert np.array_equal(batch, single)

    def test_mixed_zero_position_identity(self):
        v = rng.standard_normal(3)
        assert np.max(np.abs(enc.mixed_rotate(v, (0.0, 0.0), unit3(), 0.9) - v)) < 1e-15

    def test_care_zero_position_identity(self):
        m = rng.standard_normal(8)
        out = enc.care_rotate(m, (0.0, 0.0), unit3(), unit3(), 0.8)
        assert np.array_equal(out, m)

    def test_care_scalar_pseudoscalar_invariant(self):
        m = rng.standard_normal(8)
        out = enc.care_rotate(m, (3.0, -2.0), unit3(), unit3(), 0.8)
        assert out[0] == m[0] and out[7] == m[7]

    def test_care_one_plus_e123_fixed_point(self):
        m = np.zeros(8)
        m[0] = m[7] = 1.0
        for p in [(0.3, 0.4), (5.0, -1.0), (100.0, 7.0)]:
            out = enc.care_rotate(m, p, unit3(), unit3(), 1.0)
            assert np.max(np.abs(out - m)) < 5e-15

    def test_care_grade_norms_preserved(self):
        m = rng.standard_normal(8)
        out = enc.care_rotate(m, (1.2, 0.8), unit3(), unit3(), 1.0, 1.3, 0.4)
        for slots in ((1, 2, 4), (3, 5, 6)):
            assert np.linalg.norm(out[list(slots)]) == pytest.approx(
                np.linalg.norm(m[list(slots)]), abs=1e-12
            )

    def test_care_y_rotor_is_outermost(self):
        m, p, theta = rng.standard_normal(8), (0.9, -1.4), 0.8
        ux, uy = unit3(), unit3()
        out = enc.care_rotate(m, p, ux, uy, theta)
        inner = enc.care_apply(m, theta * p[0], 0.0, ux, uy)
        nested = enc.care_apply(inner, 0.0, theta * p[1], ux, uy)
        assert np.max(np.abs(out - nested)) < 1e-13


class TestReductionChain:
    """The four special-case claims, at acceptance strength."""

    GRID = enc.grid_positions(14, 14)
    SCHEDULE = enc.EncodingMethod.configure("quatro", 64).schedule

    def sample(self):
        p = self.GRID[rng.integers(0, len(self.GRID))]
        theta = float(self.SCHEDULE.band_angles[rng.integers(0, self.SCHEDULE.num_bands)])
        return rng.standard_normal(3), p, theta

    def test_quatro_orthogonal_equals_spherical(self):
        worst = 0.0
        for _ in range(1000):
            v, p, theta = self.sample()
            a = enc.quatro_rotate(v, p, enc.SPHERICAL_AXIS_X, enc.SPHERICAL_AXIS_Y, theta)
            b = enc.spherical_rotate(v, p, theta)
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-10

    def test_quatro_parallel_equals_mixed(self):
        worst = 0.0
        for _ in range(1000):
            v, p, theta = self.sample()
            u = unit3()
            a = enc.quatro_rotate(v, p, u, 3.0 * u, theta)
            b = enc.mixed_rotate(v, p, u, theta)
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-10

    def test_care_grade1_equals_quatro_order_aligned(self):
        # care conjugates with the p_y rotor outermost, so the quaternion
        # oracle composes in that order; bivector axes map to vector axes
        # through grade1_rotation_axis
        worst = 0.0
        for _ in range(1000):
            v, p, theta = self.sample()
            ux, uy = unit3(), unit3()
            m = np.zeros(8)
            m[[1, 2, 4]] = v
            out = enc.care_rotate(m, p, ux, uy, theta)
            rx = quat_rotor(enc.grade1_rotation_axis(ux), theta * p[0] / 2)
            ry = quat_rotor(enc.grade1_rotation_axis(uy), theta * p[1] / 2)
            ref = quat_sandwich(hamilton_product(ry, rx), v)
            worst = max(worst, float(np.max(np.abs(out[[1, 2, 4]] - ref))))
            assert np.all(out[[0, 3, 5, 6, 7]] == 0.0)
        assert worst <= 1e-10

    def test_care_parallel_equals_mixed(self):
        worst = 0.0
        for _ in range(1000):
            v, p, theta = self.sample()
            u = unit3()
            m = np.zeros(8)
            m[[1, 2, 4]] = v
            out = enc.care_rotate(m, p, u, 0.25 * u, theta)
            ref = enc.mixed_apply(v, theta * (p[0] + p[1]), enc.grade1_rotation_axis(u))
            worst = max(worst, float(np.max(np.abs(out[[1, 2, 4]] - ref))))
        assert worst <= 1e-10

    def test_grade1_axis_map_is_what_the_sandwich_does(self):
        # pin the bivector-to-vector axis correspondence numerically: the
        # sandwich by exp(h B(u)) must fix the claimed rotation axis
        for _ in range(20):
            u = unit3()
            w = enc.grade1_rotation_axis(u)
            m = np.zeros(8)
            m[[1, 2, 4]] = w
            out = enc.care_rotate(m, (1.0, 0.0), u, unit3(), 1.3)
            assert np.max(np.abs(out[[1, 2, 4]] - w)) < 1e-14


class TestApplyEncoding:
    POS = enc.grid_positions(4, 5)

    @pytest.mark.parametrize(
        "tag,head_dim,remainder",
        [("rope1d", 9, 1), ("mixed", 8, 2), ("spherical", 9, 0), ("quatro", 10, 1), ("care", 17, 1)],
    )
    def test_block_matches_scalar_ops(self, tag, head_dim, remainder):
        axes_x = rng.standard_normal(3) if tag in ("mixed", "quatro", "care") else None
        axes_y = rng.standard_normal(3) if tag in ("quatro", "care") else None
        method = enc.EncodingMethod.configure(
            tag, head_dim, base=50.0, axes_x=axes_x, axes_y=axes_y, scale_x=1.1, scale_y=0.6
        )
        block = enc.random_block(2, head_dim, self.POS, seed=9)
        out = enc.apply_encoding(block, method)
        w, nb = method.width, method.schedule.num_bands
        assert head_dim - nb * w == remainder
        for t in range(block.tokens):
            p = self.POS[t]
            for band in range(nb):
                theta = float(method.schedule.band_angles[band])
                seg = slice(band * w, (band + 1) * w)
                for c in range(block.batch):
                    v = block.data[c, t, seg]
                    if tag == "rope1d":
                        ref = enc.rope1d_rotate(v, method.scale_x * p[0], theta)
                    elif tag == "mixed":
                        ref = enc.mixed_rotate(v, p, axes_x, theta, 1.1, 0.6)
                    elif tag == "spherical":
                        ref = enc.spherical_rotate(v, p, theta, 1.1, 0.6)
                    elif tag == "quatro":
                        ref = enc.quatro_rotate(v, p, axes_x, axes_y, theta, 1.1, 0.6)
                    else:
                        ref = enc.care_rotate(v, p, axes_x, axes_y, theta, 1.1, 0.6)
                    assert np.max(np.abs(out.data[c, t, seg] - ref)) < 1e-12
        if remainder:
            tail = slice(nb * w, None)
            assert np.array_equal(out.data[..., tail], block.data[..., tail])

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_zero_positions_identity(self, tag):
        head_dim = 16
        method = enc.EncodingMethod.configure(tag, head_dim)
        block = enc.random_block(1, head_dim, np.zeros((6, 2)), seed=3)
        out = enc.apply_encoding(block, method)
        assert np.max(np.abs(out.data - block.data)) < 1e-15

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_inverse_round_trip(self, tag):
        head_dim = 17
        axes_x = rng.standard_normal(3) if tag in ("mixed", "quatro", "care") else None
        axes_y = rng.standard_normal(3) if tag in ("quatro", "care") else None
        method = enc.EncodingMethod.configure(tag, head_dim, axes_x=axes_x, axes_y=axes_y)
        block = enc.random_block(2, head_dim, self.POS, seed=21)
        out = enc.apply_encoding(block, method)
        back = enc.apply_encoding(out, method, inverse=True)
        assert np.max(np.abs(back.data - block.data)) <= 1e-10

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_norm_preservation(self, tag):
        head_dim = 24
        method = enc.EncodingMethod.configure(tag, head_dim)
        block = enc.random_block(2, head_dim, self.POS, seed=4)
        out = enc.apply_encoding(block, method)
        w, nb = method.width, method.schedule.num_bands
        sub_in = block.data[:, :, : nb * w].reshape(2, -1, nb, w)
        sub_out = out.data[:, :, : nb * w].reshape(2, -1, nb, w)
        dev = np.abs(np.linalg.norm(sub_out, axis=-1) - np.linalg.norm(sub_in, axis=-1))
        assert np.max(dev) <= 1e-10

    def test_care_invariant_channels_exact(self):
        method = enc.EncodingMethod.configure("care", 24)
        block = enc.random_block(2, 24, self.POS, seed=8)
        out = enc.apply_encoding(block, method)
        sub_in = block.data.reshape(2, -1, 3, 8)
        sub_out = out.data.reshape(2, -1, 3, 8)
        assert np.array_equal(sub_out[..., 0], sub_in[..., 0])
        assert np.array_equal(sub_out[..., 7], sub_in[..., 7])

    def test_schedule_band_mismatch_rejected(self):
        method = enc.EncodingMethod.configure("rope1d", 8)
        block = enc.random_block(1, 10, self.POS, seed=1)
        with pytest.raises(ValueError):
            enc.apply_encoding(block, method)

    def test_head_dim_64_quatro_has_21_bands_one_remainder(self):
        method = enc.EncodingMethod.configure("quatro", 64)
        block = enc.random_block(1, 64, self.POS, seed=2)
        out = enc.apply_encoding(block, method)
        assert method.schedule.num_bands == 21
        assert np.array_equal(out.data[..., 63], block.data[..., 63])
        assert not np.allclose(out.data[..., :63], block.data[..., :63])



class TestRotateRows:
    """The row loop on raw arrays: dtypes and its per-row check."""

    POS = enc.grid_positions(3, 4, origin=(7.0, -3.0))

    def configure(self, tag, head_dim):
        axes_x = rng.standard_normal(3) if tag in ("mixed", "quatro", "care") else None
        axes_y = rng.standard_normal(3) if tag in ("quatro", "care") else None
        return enc.EncodingMethod.configure(tag, head_dim, axes_x=axes_x, axes_y=axes_y)

    @pytest.mark.parametrize("tag", enc.METHODS)
    @pytest.mark.parametrize("head_dim", [16, 17])
    def test_raw_rows_equal_apply_encoding(self, tag, head_dim):
        method = self.configure(tag, head_dim)
        block = enc.random_block(3, head_dim, self.POS, seed=12)
        maps = enc.block_maps(method, self.POS)
        for inverse in (False, True):
            want = enc.apply_encoding(block, method, inverse=inverse).data
            got = enc.rotate_rows(block.data, method, maps, inverse)
            assert got.dtype == np.float64 and np.array_equal(got, want)
            # float32 rows are rotated in float64 and cast once, on the copy
            narrow = block.data.astype(np.float32)
            wide = enc.rotate_rows(narrow.astype(np.float64), method, maps, inverse)
            got = enc.rotate_rows(narrow, method, maps, inverse)
            assert got.dtype == np.float32
            assert np.array_equal(got, wide.astype(np.float32))
        with pytest.raises(ValueError, match="float32 or float64, not int64"):
            enc.rotate_rows(block.data.astype(np.int64), method, maps)

    @staticmethod
    def bad_slots(tag, head_dim):
        """(head_dim, slot) pairs to spoil: a carrier slot, care's
        invariant slots, and a pass-through dim."""
        width = enc.METHOD_WIDTHS[tag]
        slots = [(head_dim, width + 1)]
        if tag == "care":
            slots += [(head_dim, 8 + k) for k in enc.CARE_INVARIANT_SLOTS]
        for padded in (65, 66):
            if padded % width:
                slots.append((padded, padded - 1))
        return slots

    @pytest.mark.parametrize("tag", enc.METHODS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_row_raises(self, tag, value, dtype):
        for head_dim, slot in self.bad_slots(tag, 16):
            method = self.configure(tag, head_dim)
            data = rng.standard_normal((3, 12, head_dim)).astype(dtype)
            data[1, 5, slot] = value  # a middle batch row
            maps = enc.block_maps(method, self.POS)
            for inverse in (False, True):
                with np.errstate(invalid="ignore"), pytest.raises(
                    ValueError, match="block contains non-finite values"
                ):
                    enc.rotate_rows(data, method, maps, inverse)

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_overflowing_rotation_raises(self, tag):
        # finite input, accepted by the block, but turned past the float64 limit
        method = self.configure(tag, 16)
        block = enc.TokenBlock(data=np.full((2, 12, 16), 1.6e308), positions=self.POS)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="block contains non-finite values"
        ):
            enc.apply_encoding(block, method)

    @pytest.mark.parametrize("head_dim", [4, 5])
    def test_float32_overflow_raises(self, head_dim):
        # finite float32 input whose rotation exceeds the float32 limit: it
        # passes the float64 row check and overflows only in the cast
        method = self.configure("rope1d", head_dim)
        data = np.full((2, 12, head_dim), 3.0e38, dtype=np.float32)
        maps = enc.block_maps(method, self.POS)
        wide = enc.rotate_rows(data.astype(np.float64), method, maps)
        assert np.isfinite(wide).all() and np.max(np.abs(wide)) > np.finfo(np.float32).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the cast's own warning stays silent
            for inverse in (False, True):
                with pytest.raises(ValueError, match="^rotated values in batch row 0 overflow float32$"):
                    enc.rotate_rows(data, method, maps, inverse)

    def test_output_block_is_built_without_a_second_scan(self, monkeypatch):
        block = enc.random_block(2, 17, self.POS, seed=13)
        scans = []
        post_init = enc.TokenBlock.__post_init__

        def counted(self):
            scans.append(1)
            post_init(self)

        monkeypatch.setattr(enc.TokenBlock, "__post_init__", counted)
        out = enc.apply_encoding(block, self.configure("care", 17))
        assert scans == []
        assert out.positions is block.positions
        assert not out.data.flags.writeable


def _rotate_one(method, v, p, band):
    """One sub-vector through the single-sub-vector ``*_rotate`` oracle."""
    theta = float(method.schedule.band_angles[band])
    sx, sy = method.scale_x, method.scale_y
    if method.tag == "rope1d":
        return enc.rope1d_rotate(v, sx * p[0], theta)
    if method.tag == "spherical":
        return enc.spherical_rotate(v, p, theta, sx, sy)
    ax, ay = method.axes.axes_x[band], method.axes.axes_y[band]
    if method.tag == "mixed":
        return enc.mixed_rotate(v, p, ax, theta, sx, sy)
    if method.tag == "quatro":
        return enc.quatro_rotate(v, p, ax, ay, theta, sx, sy)
    return enc.care_rotate(v, p, ax, ay, theta, sx, sy)


class TestRotationMaps:
    """The map table against the rotor oracles, with non-parallel axes."""

    POS = enc.grid_positions(3, 4)

    def configure(self, tag, head_dim):
        axes_x = rng.standard_normal(3) if tag in ("mixed", "quatro", "care") else None
        axes_y = rng.standard_normal(3) if tag in ("quatro", "care") else None
        return enc.EncodingMethod.configure(
            tag, head_dim, base=30.0, axes_x=axes_x, axes_y=axes_y, scale_x=1.3, scale_y=0.8
        )

    def test_care_map_equals_the_mv8_sandwich_on_all_slots(self):
        from garope import cl3

        n = 500
        ux, uy = enc.unit_axis(rng.standard_normal((2, n, 3)))
        ax, ay = rng.uniform(-4.0, 4.0, (2, n))
        m = rng.standard_normal((n, 8))
        got = enc.apply_maps("care", enc.rotation_maps("care", ax, ay, ux, uy), m)
        rotor = cl3.mv8_product(enc.mv8_rotor(uy, ay / 2.0), enc.mv8_rotor(ux, ax / 2.0))
        want = cl3.mv8_rotor_sandwich(rotor, m)
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_single_carrier_matches_the_apply_oracle(self, tag):
        v = rng.standard_normal(enc.METHOD_WIDTHS[tag])
        ax, ay = rng.uniform(-4.0, 4.0, 2)
        ux = unit3()
        uy = ux if tag == "mixed" else unit3()
        want = {
            "rope1d": lambda: enc.rope1d_apply(v, ax),
            "mixed": lambda: enc.mixed_apply(v, ax + ay, ux),
            "spherical": lambda: enc.spherical_apply(v, ax, ay),
            "quatro": lambda: enc.quatro_apply(v, ax, ay, ux, uy),
            "care": lambda: enc.care_apply(v, ax, ay, ux, uy),
        }[tag]()
        maps = enc.rotation_maps(tag, ax, ay, ux, uy)
        got = enc.apply_maps(tag, maps, v)
        assert got.shape == v.shape
        assert np.max(np.abs(got - want)) <= 1e-13
        back = enc.apply_maps(tag, enc.ROTATIONS[tag].invert(maps), got)
        assert np.max(np.abs(back - v)) <= 1e-13

    @pytest.mark.parametrize("inverse", [False, True])
    def test_care_invariant_slots_are_copied(self, inverse):
        n = 50
        ux, uy = enc.unit_axis(rng.standard_normal((2, n, 3)))
        ax, ay = rng.uniform(-4.0, 4.0, (2, n))
        m = rng.standard_normal((n, 8))
        maps = enc.rotation_maps("care", ax, ay, ux, uy)
        out = enc.apply_maps("care", enc.ROTATIONS["care"].invert(maps) if inverse else maps, m)
        assert np.array_equal(out[:, enc.CARE_INVARIANT_SLOTS], m[:, enc.CARE_INVARIANT_SLOTS])

    @pytest.mark.parametrize(
        "tag,head_dim",
        [("rope1d", 9), ("mixed", 10), ("spherical", 9), ("quatro", 10), ("care", 18)],
    )
    def test_inverse_block_rotates_forward_to_the_input(self, tag, head_dim):
        method = self.configure(tag, head_dim)
        block = enc.random_block(2, head_dim, self.POS, seed=17)
        back = enc.apply_encoding(block, method, inverse=True).data
        w, nb = method.width, method.schedule.num_bands
        for t, p in enumerate(self.POS):
            for band in range(nb):
                seg = slice(band * w, (band + 1) * w)
                for c in range(block.batch):
                    forward = _rotate_one(method, back[c, t, seg], p, band)
                    assert np.max(np.abs(forward - block.data[c, t, seg])) <= 1e-12
        assert np.array_equal(back[..., nb * w :], block.data[..., nb * w :])

    def test_non_contiguous_block_data(self):
        method = self.configure("quatro", 7)
        fortran = np.asfortranarray(rng.standard_normal((2, 12, 7)))
        strided = rng.standard_normal((2, 12, 14))[:, :, ::2]
        for arr in (fortran, strided):
            block = enc.TokenBlock(data=arr, positions=self.POS)
            want = enc.apply_encoding(enc.TokenBlock(data=arr.copy(), positions=self.POS), method)
            assert np.array_equal(enc.apply_encoding(block, method).data, want.data)

    @pytest.mark.parametrize("tag", ["mixed", "spherical", "quatro", "care"])
    def test_matrix_inverse_is_the_transposed_copy(self, tag):
        # invert() returns a view; it must act exactly as the transposed array
        method = self.configure(tag, 9 if tag != "care" else 16)
        maps = enc.block_maps(method, self.POS)
        v = rng.standard_normal(maps.shape[2:] + (method.width,))
        got = enc.apply_maps(tag, enc.ROTATIONS[tag].invert(maps), v)
        want = enc.apply_maps(tag, np.ascontiguousarray(maps.swapaxes(0, 1)), v)
        assert np.array_equal(got, want)

    def test_maps_are_orthogonal(self):
        for tag in ("mixed", "spherical", "quatro", "care"):
            method = self.configure(tag, 9 if tag != "care" else 16)
            maps = enc.block_maps(method, [[2.5, -1.5]])
            mats = np.moveaxis(maps, (0, 1), (-2, -1))
            eye = np.einsum("...ij,...kj->...ik", mats, mats)
            assert np.max(np.abs(eye - np.eye(3))) <= 1e-14
            assert np.max(np.abs(np.linalg.det(mats) - 1.0)) <= 1e-14

    def test_token_band_angles_scale_each_position_first(self):
        method = self.configure("quatro", 9)
        theta = method.schedule.band_angles
        ax, ay = enc.token_band_angles(method, self.POS)
        assert ax.shape == ay.shape == (12, 3)
        for t, (px, py) in enumerate(self.POS):
            assert np.array_equal(ax[t], theta * (1.3 * px))
            assert np.array_equal(ay[t], theta * (0.8 * py))

    def test_carrier_width_checked(self):
        maps = enc.rotation_maps("quatro", 0.1, 0.2, enc.SPHERICAL_AXIS_X, enc.SPHERICAL_AXIS_Y)
        with pytest.raises(ValueError, match="trailing axis of 3"):
            enc.apply_maps("quatro", maps, np.zeros(4))


class TestAngleFormula:
    """The oracles, ``grad`` and the encoder form every angle as
    theta (s p), so at non-unit scales they agree to the last bit."""

    SCALES = (1.3, 0.7)
    POS = enc.grid_positions(14, 14, origin=(0.5, -2.0))

    def method(self):
        return enc.EncodingMethod.configure(
            "quatro", 64, scale_x=self.SCALES[0], scale_y=self.SCALES[1]
        )

    def test_oracle_angles_equal_the_encoder_angles(self):
        method = self.method()
        theta = method.schedule.band_angles
        want_x, want_y = enc.token_band_angles(method, self.POS)
        got_x, got_y = enc.position_angles(self.POS[:, None, :], theta[None, :], *self.SCALES)
        assert np.array_equal(got_x, want_x)
        assert np.array_equal(got_y, want_y)

    def test_rotate_oracle_turns_by_the_encoder_angles(self):
        method = self.method()
        ux, uy = method.axes.unit_x()[0], method.axes.unit_y()[0]
        ax, ay = enc.token_band_angles(method, self.POS)
        v = rng.standard_normal((len(self.POS), 3))
        got = enc.quatro_rotate(
            v, self.POS, ux, uy, method.schedule.band_angles[5], *self.SCALES
        )
        assert np.array_equal(got, enc.quatro_apply(v, ax[:, 5], ay[:, 5], ux, uy))

    def test_grad_differences_use_the_encoder_angles(self, monkeypatch):
        from garope import cli

        method = self.method()
        n = len(self.POS)
        theta = np.full(n, method.schedule.band_angles[3])
        v = rng.standard_normal((n, 2))
        cases = (v, self.POS, theta, np.zeros((n, 3)), np.zeros((n, 3)))
        seen = []

        def recorder(tag, ax, ay, ux, uy):
            seen.append(np.asarray(ax))
            return enc.rotation_maps(tag, ax, ay, ux, uy)

        monkeypatch.setattr(cli, "rotation_maps", recorder)
        with np.errstate(divide="ignore", invalid="ignore"):  # h = 0 leaves the angles as formed
            cli._grad_fd("rope1d", cases, "angle_x", self.SCALES, 0.0)
        assert np.array_equal(seen[0], enc.token_band_angles(method, self.POS)[0][:, 3])


class TestComplexPhase:
    """rope1d's phase path: one complex multiply per carrier."""

    POS = enc.grid_positions(6, 7, origin=(7.0, -3.0))

    def method(self, head_dim):
        return enc.EncodingMethod.configure("rope1d", head_dim, scale_x=1.3, scale_y=0.7)

    def test_block_matches_the_rotate_oracle_on_every_sub_vector(self):
        method = self.method(16)
        block = enc.random_block(3, 16, self.POS, seed=41)
        out = enc.apply_encoding(block, method).data.reshape(3, len(self.POS), 8, 2)
        sub = block.data.reshape(out.shape)
        p = 1.3 * self.POS[:, 0][:, None]  # (tokens, 1): s_x p_x
        want = enc.rope1d_rotate(sub, p, method.schedule.band_angles)
        assert np.max(np.abs(out - want)) <= 1e-13

    def test_inverse_round_trip(self):
        method = self.method(16)
        block = enc.random_block(3, 16, self.POS, seed=42)
        back = enc.apply_encoding(enc.apply_encoding(block, method), method, inverse=True).data
        err = np.max(np.abs(back - block.data), axis=-1)
        assert np.all(err <= 1e-15 * np.linalg.norm(block.data, axis=-1))

    def test_odd_head_dim_body_equals_the_even_block(self):
        data = rng.standard_normal((2, len(self.POS), 17))
        odd = enc.TokenBlock(data=data, positions=self.POS)
        even = enc.TokenBlock(data=data[:, :, :16].copy(), positions=self.POS)
        for inverse in (False, True):
            got = enc.apply_encoding(odd, self.method(17), inverse=inverse).data
            want = enc.apply_encoding(even, self.method(16), inverse=inverse).data
            assert np.array_equal(got[:, :, :16], want)
            assert np.array_equal(got[:, :, 16], data[:, :, 16])

    def test_strided_carriers_equal_their_contiguous_copy(self):
        method = self.method(16)
        maps = enc.block_maps(method, self.POS)
        big = rng.standard_normal((len(self.POS), 8, 4))
        view = big[..., ::2]
        assert view.strides[-1] != view.itemsize
        for phase in (maps, enc.ROTATIONS["rope1d"].invert(maps)):
            got = enc.apply_maps("rope1d", phase, view)
            want = enc.apply_maps("rope1d", phase, view.copy())
            assert np.array_equal(got, want)

    def test_phase_is_unit(self):
        method = self.method(64)
        phase = enc.block_maps(method, enc.grid_positions(32, 32, origin=(7.0, -3.0)))
        assert phase.dtype == np.complex128 and phase.shape == (1024, 32)
        assert enc.ROTATIONS["rope1d"].map_rank == 0
        assert np.max(np.abs(np.abs(phase) - 1.0)) <= 1e-15

    def test_phase_components_are_cos_and_sin(self):
        angles = rng.uniform(-100.0, 100.0, (5, 4))
        phase = enc.rotation_maps("rope1d", angles, np.zeros_like(angles))
        assert np.array_equal(phase.real, np.cos(angles))
        assert np.array_equal(phase.imag, np.sin(angles))

    def test_commutator_norm_is_zero(self):
        from garope import attention as att

        method = self.method(16)
        for band in range(method.schedule.num_bands):
            p_a, p_b = rng.uniform(-50.0, 50.0, (2, 2))
            assert att.commutator_norm(method, p_a, p_b, band=band) <= 1e-15
            assert att.commutator_norm(method, p_a, p_a, band=band) == 0.0


class TestTwoRotorMatrix:
    """The closed-form two-rotor build against the quaternion oracle, with
    the (bands, 3) axes against (tokens, bands) angles of a block."""

    TOKENS, BANDS = 40, 7

    def draw(self):
        u, v = enc.unit_axis(rng.standard_normal((2, self.BANDS, 3)))
        a, b = rng.uniform(-50.0, 50.0, (2, self.TOKENS, self.BANDS))
        return u, a, v, b

    def test_matches_the_quaternion_oracle(self):
        u, a, v, b = self.draw()
        got = enc._two_rotor_matrix(u, a, v, b)
        assert got.shape == (3, 3, self.TOKENS, self.BANDS)
        want = quat_to_rotation_matrix(hamilton_product(quat_rotor(u, a / 2.0), quat_rotor(v, b / 2.0)))
        assert np.max(np.abs(np.moveaxis(got, (0, 1), (-2, -1)) - want)) <= 1e-14

    def test_is_a_proper_rotation(self):
        mats = np.moveaxis(enc._two_rotor_matrix(*self.draw()), (0, 1), (-2, -1))
        eye = np.einsum("...ij,...kj->...ik", mats, mats)
        assert np.max(np.abs(eye - np.eye(3))) <= 1e-14
        assert np.max(np.abs(np.linalg.det(mats) - 1.0)) <= 1e-14

    def test_nan_angle_rejected(self):
        u, a, v, b = self.draw()
        a[3, 2] = np.nan
        with pytest.raises(ValueError, match="not unit norm"):
            enc._two_rotor_matrix(u, a, v, b)
        with pytest.raises(ValueError, match="not unit norm"):
            enc._two_rotor_matrix(u, b, v, a)

    @pytest.mark.parametrize("bad", [(1.0, 1.0, 0.0), (np.nan, 0.0, 0.0), (0.0, 0.0, 0.0)])
    @pytest.mark.parametrize("outer", [True, False])
    def test_non_unit_axis_rejected(self, bad, outer):
        u, a, v, b = self.draw()
        (u if outer else v)[1] = bad
        with pytest.raises(ValueError, match="unit 3-vector"):
            enc._two_rotor_matrix(u, a, v, b)


class TestRotationGradient:
    def fd(self, tag, v, ax, ay, ux, uy, coordinate, h=1e-5):
        def f(dx, dy):
            if tag == "rope1d":
                return enc.rope1d_apply(v, ax + dx)
            if tag == "mixed":
                return enc.mixed_apply(v, (ax + dx) + (ay + dy), ux)
            if tag == "spherical":
                return enc.spherical_apply(v, ax + dx, ay + dy)
            if tag == "quatro":
                return enc.quatro_apply(v, ax + dx, ay + dy, ux, uy)
            return enc.care_apply(v, ax + dx, ay + dy, ux, uy)

        if coordinate == "angle_x":
            return (f(h, 0) - f(-h, 0)) / (2 * h)
        return (f(0, h) - f(0, -h)) / (2 * h)

    @pytest.mark.parametrize("tag", enc.METHODS)
    @pytest.mark.parametrize("coordinate", ["angle_x", "angle_y"])
    def test_matches_central_differences(self, tag, coordinate):
        worst = 0.0
        for _ in range(100):
            v = rng.standard_normal(enc.METHOD_WIDTHS[tag])
            p = rng.uniform(-8, 8, 2)
            theta = float(10 ** rng.uniform(-2, 0))
            ux = unit3()
            uy = ux if tag == "mixed" else unit3()
            g = enc.rotation_gradient(
                tag, v, p, theta, coordinate, axis_x=ux, axis_y=uy, scale_x=1.2, scale_y=0.8
            )
            fd = self.fd(tag, v, theta * 1.2 * p[0], theta * 0.8 * p[1], ux, uy, coordinate)
            rel = float(np.max(np.abs(g - fd))) / max(1.0, float(np.max(np.abs(fd))))
            worst = max(worst, rel)
        assert worst <= 1e-6

    @pytest.mark.parametrize("tag", enc.METHODS)
    @pytest.mark.parametrize("coordinate", ["angle_x", "angle_y"])
    def test_batch_equals_per_sample_calls(self, tag, coordinate):
        n = 50
        v = rng.standard_normal((n, enc.METHOD_WIDTHS[tag]))
        p = rng.uniform(-8, 8, (n, 2))
        theta = 10 ** rng.uniform(-2, 0, n)
        ux = enc.unit_axis(rng.standard_normal((n, 3)))
        uy = ux if tag == "mixed" else enc.unit_axis(rng.standard_normal((n, 3)))
        scales = dict(scale_x=1.2, scale_y=0.8)
        batch = enc.rotation_gradient(
            tag, v, p, theta, coordinate, axis_x=ux, axis_y=uy, **scales
        )
        single = np.array(
            [
                enc.rotation_gradient(
                    tag, v[i], p[i], float(theta[i]), coordinate,
                    axis_x=ux[i], axis_y=uy[i], **scales,
                )
                for i in range(n)
            ]
        )
        assert batch.shape == v.shape
        assert np.array_equal(batch, single)  # same arithmetic, element by element

    def test_planar_derivative_at_zero(self):
        # rotating e1 in the e12-style plane: derivative at angle 0 points
        # along the second axis with unit magnitude
        g = enc.rotation_gradient("rope1d", np.array([1.0, 0.0]), (0.0, 0.0), 1.0, "angle_x")
        assert np.max(np.abs(g - [0.0, 1.0])) < 1e-15

    def test_rope1d_has_no_y_sensitivity(self):
        g = enc.rotation_gradient("rope1d", rng.standard_normal(2), (1.0, 2.0), 0.7, "angle_y")
        assert np.array_equal(g, np.zeros(2))

    def test_care_invariant_slots_have_zero_gradient(self):
        for coordinate in ("angle_x", "angle_y"):
            m = rng.standard_normal(8)
            g = enc.rotation_gradient(
                "care", m, (1.3, -0.8), 0.9, coordinate, axis_x=unit3(), axis_y=unit3()
            )
            assert np.max(np.abs(g[[0, 7]])) <= 1e-10

    def test_unknown_coordinate_rejected(self):
        with pytest.raises(ValueError):
            enc.rotation_gradient("rope1d", np.zeros(2), (0, 0), 1.0, "angle_z")


@settings(max_examples=60, deadline=None)
@given(
    px=st.floats(-20, 20),
    py=st.floats(-20, 20),
    shift=st.floats(-20, 20),
    theta=st.floats(0.01, 1.0),
)
def test_mixed_angle_additivity_property(px, py, shift, theta):
    # sliding weight between the two coordinates never changes mixed output
    v = np.array([0.3, -1.2, 0.7])
    u = np.array([2.0, 1.0, -2.0]) / 3.0
    a = enc.mixed_rotate(v, (px, py), u, theta)
    b = enc.mixed_rotate(v, (px + shift, py - shift), u, theta)
    assert np.max(np.abs(a - b)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(angle=st.floats(-10, 10))
def test_rope1d_composition_property(angle):
    v = np.array([1.3, -0.4])
    once = enc.rope1d_apply(enc.rope1d_apply(v, angle), angle)
    twice = enc.rope1d_apply(v, 2 * angle)
    assert np.max(np.abs(once - twice)) < 1e-12
