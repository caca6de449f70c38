"""Encoding methods: schedules, rotations, reductions, block application."""

import dataclasses
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garope import bench, cl3
from garope import encodings as enc
from garope.attention import AttentionScores, commutator_norm, shift_positions
from garope.ga import Algebra
from garope.quaternion import conjugate, even_cl3_coeffs, hamilton_product, quat_rotor, quat_sandwich

rng = np.random.default_rng(31337)


def unit3():
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def draw_axes(tag):
    """Raw (axes_x, axes_y) by the method's axis rule; None where the
    method takes no axis, or where mixed's axis_y defaults to axis_x."""
    free_axes = enc.ROTATIONS[tag].free_axes
    axes_x = rng.standard_normal(3) if free_axes else None
    axes_y = rng.standard_normal(3) if free_axes == 2 else None
    return axes_x, axes_y


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
        params = enc.AxisParams(axes, axes[::-1])
        assert params.unit_x.tobytes() == enc.unit_axis(axes).tobytes()
        assert params.unit_y.tobytes() == enc.unit_axis(axes[::-1]).tobytes()
        assert not (params.unit_x.flags.writeable or params.unit_y.flags.writeable)

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

    def test_oracles_and_gradient_share_the_angle_overflow_check(self):
        # position_angles is the one angle formula: the rotor oracles refuse
        # the overflow with block_maps' message, and rotation_gradient takes
        # angles resolved by it (a leaked numpy warning would fail this test)
        p, theta, axis = np.array([1e10, 0.0]), 1.0, np.array([0.0, 0.0, 1.0])
        message = r"^position angle overflows float64: .*\(scale_x 1e\+300, scale_y 1.0\) is not finite$"
        calls = [
            lambda: enc.position_angles(p, theta, 1e300, 1.0),
            lambda: enc.rope1d_rotate(np.ones(2), p[0], theta, 1e300),
            lambda: enc.mixed_rotate(np.ones(3), p, axis, theta, 1e300),
            lambda: enc.spherical_rotate(np.ones(3), p, theta, 1e300),
            lambda: enc.quatro_rotate(np.ones(3), p, axis, axis, theta, 1e300),
            lambda: enc.care_rotate(np.ones(8), p, axis, axis, theta, 1e300),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    def test_non_finite_input_angle_is_named_not_finite(self):
        # a NaN or infinite position, band angle or scale is not an overflow
        # (a leaked numpy warning, as from 0 * inf, would fail this test)
        message = (
            r"^position angle is not finite: a position, band angle or coordinate scale "
            r"\(scale_x {}, scale_y 1.0\) is not finite$"
        )
        nan_p, axis = np.array([np.nan, 0.0]), np.array([0.0, 0.0, 1.0])
        calls = [
            (lambda: enc.block_maps(enc.EncodingMethod.configure("rope1d", 4), [nan_p]), "1.0"),
            (lambda: enc.quatro_rotate(np.ones(3), nan_p, axis, axis, 1.0), "1.0"),
            (lambda: enc.position_angles(np.array([0.0, 1.0]), np.inf, 1.0, 1.0), "1.0"),
            (lambda: enc.position_angles(np.array([np.inf, 1.0]), 1.0, 0.0, 1.0), "0.0"),
            (lambda: enc.rope1d_rotate(np.ones(2), 1.0, 1.0, np.nan), "nan"),
        ]
        for call, scale_x in calls:
            with pytest.raises(ValueError, match=message.format(scale_x)):
                call()

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


_TWO_BANDS = enc.FrequencySchedule.for_bands(2)


def _rope1d_rows(data, tokens):
    """rotate_rows on ``data`` with rope1d head_dim 4 maps for ``tokens`` positions."""
    method = enc.EncodingMethod.configure("rope1d", 4)
    return enc.rotate_rows(np.asarray(data), method, enc.block_maps(method, np.zeros((tokens, 2))))


_SPHERICAL_6 = enc.EncodingMethod.configure("spherical", 6)
_E3 = np.array([0.0, 0.0, 1.0])


def _rows_with_maps(tag, maps):
    """rotate_rows on a (1, 3, 6) block (3 tokens) with the given maps."""
    method = enc.EncodingMethod.configure(tag, 6)
    return enc.rotate_rows(np.ones((1, 3, 6)), method, maps)


# float64 (3, 3, tokens, bands) identity matrices for the 3 tokens and 2
# bands of _rows_with_maps: the matrix kind no method takes
_MATRICES = np.broadcast_to(np.eye(3)[..., None, None], (3, 3, 3, 2))


class TestRefusals:
    """Each guard on outside input refuses with its own message."""

    @pytest.mark.parametrize(
        "call,message",
        [
            (
                lambda: enc.AxisParams(np.zeros((2, 2)), np.zeros((2, 2))),
                "axes_x must have shape (num_bands, 3)",
            ),
            (
                lambda: enc.AxisParams(np.ones((2, 3)), np.ones((3, 3))),
                "axes_x and axes_y must cover the same bands",
            ),
            (lambda: enc.EncodingMethod("axial", _TWO_BANDS), "unknown encoding method 'axial'"),
            (lambda: enc.EncodingMethod("quatro", _TWO_BANDS), "quatro needs axis parameters"),
            (
                lambda: enc.EncodingMethod(
                    "quatro", _TWO_BANDS, enc.AxisParams(np.ones((3, 3)), np.ones((3, 3)))
                ),
                "axis bands do not match schedule bands",
            ),
            (
                lambda: enc.EncodingMethod.configure("quatro", 12, axes_x=[1.0, 0.0]),
                "axes_x must be one 3-vector or shape (4, 3)",
            ),
            (
                lambda: cl3.rotation_gradient("axial", "angle_x", np.ones(3), 0.0, 0.0),
                "unknown encoding method 'axial'",
            ),
            (
                lambda: enc.apply_maps("axial", np.ones((3, 3)), np.ones(3)),
                "unknown encoding method 'axial'",
            ),
            (lambda: _rope1d_rows(np.zeros((3, 4)), 3), "block data must be batch x tokens x head_dim"),
            (lambda: _rope1d_rows(np.zeros((1, 3, 1)), 3), "head_dim 1 is below the sub-vector width 2"),
            (
                lambda: _rope1d_rows(np.zeros((1, 3, 4)), 2),
                "maps of shape (1, 2, 2) do not cover 3 tokens x 2 bands",
            ),
            (
                lambda: _rows_with_maps("rope1d", np.full((3, 3), 0.5)),
                "rope1d maps must be complex128, not float64",
            ),
            (
                lambda: _rows_with_maps("quatro", np.ones((3, 3, 2), dtype=np.float32)),
                "quatro maps must be complex128, not float32",
            ),
            (
                lambda: enc.apply_maps("care", np.ones((3, 3, 2)), np.ones(8)),
                "care maps must be complex128, not float64",
            ),
            (
                lambda: enc.apply_maps("care", np.ones(2, dtype=np.complex128), np.ones(8)),
                "care maps need a leading phase axis of length 3, got shape (2,)",
            ),
            (lambda: _rows_with_maps("mixed", _MATRICES), "mixed maps must be complex128, not float64"),
            (
                lambda: _rows_with_maps("spherical", _MATRICES),
                "spherical maps must be complex128, not float64",
            ),
            (lambda: _rows_with_maps("quatro", _MATRICES), "quatro maps must be complex128, not float64"),
            (
                lambda: enc.rotate_rows(np.ones((1, 3, 16)), enc.EncodingMethod.configure("care", 16), _MATRICES),
                "care maps must be complex128, not float64",
            ),
            (
                lambda: enc.block_maps(enc.EncodingMethod.configure("care", 16), np.zeros((4, 2), complex)),
                "positions must be real, not complex128",
            ),
            (
                lambda: enc.apply_maps("rope1d", np.ones(1, complex), np.ones((1, 2), complex)),
                "rope1d carriers must be real, not complex128",
            ),
            (
                lambda: enc.apply_maps("care", np.ones((3, 1), complex), np.full((1, 8), 1j)),
                "care carriers must be real, not complex128",
            ),
            (lambda: enc.FrequencySchedule.for_bands(4, base="10"), "schedule base must be a real number, got '10'"),
            (lambda: enc.FrequencySchedule.for_bands(4, base=None), "schedule base must be a real number, got None"),
            (
                lambda: enc.FrequencySchedule.for_bands(4, base=1 + 1j),
                "schedule base must be a real number, got (1+1j)",
            ),
            (
                lambda: enc.EncodingMethod.configure("quatro", 9, scale_x=None),
                "scale_x must be a real number, got None",
            ),
            (
                lambda: enc.EncodingMethod.configure("rope1d", 4, scale_y="2"),
                "scale_y must be a real number, got '2'",
            ),
            (
                lambda: enc.EncodingMethod("rope1d", _TWO_BANDS, scale_x=1j),
                "scale_x must be a real number, got 1j",
            ),
            (
                lambda: enc.FrequencySchedule.for_bands(4, base=10**400),
                "schedule base must be finite, got an integer beyond float64's range",
            ),
            (
                lambda: enc.EncodingMethod.configure("quatro", 9, scale_y=-(10**400)),
                "scale_y must be finite, got an integer beyond float64's range",
            ),
            (
                lambda: _rows_with_maps("quatro", np.ones((2, 3, 2), dtype=np.complex128)),
                "quatro maps need a leading phase axis of length 3, got shape (2, 3, 2)",
            ),
            (
                lambda: enc.apply_maps("spherical", np.ones(5, dtype=np.complex128), np.ones(3)),
                "spherical maps need a leading phase axis of length 3, got shape (5,)",
            ),
            (
                lambda: commutator_norm(_SPHERICAL_6, (0, 0), (1, 1), band=1.5),
                "band must be an integer, got 1.5",
            ),
            (
                lambda: commutator_norm(_SPHERICAL_6, (0, 0), (1, 1), band=True),
                "band must be an integer, got True",
            ),
            (lambda: enc.EncodingMethod.configure("rope1d", 2.5), "head_dim must be an integer, got 2.5"),
            (
                lambda: enc.grid_positions(2, 2, origin=(1, 2, 3)),
                "origin must be a 2-vector (p_x, p_y), got shape (3,)",
            ),
            (lambda: enc.grid_positions(-1, 3), "grid size must not be negative, got -1 x 3"),
            (lambda: enc.grid_positions(2.5, 2), "grid_h must be an integer, got 2.5"),
            (
                lambda: enc.TokenBlock(np.full((1, 2, 4), 1 + 2j), np.zeros((2, 2))),
                "block data must be real, not complex128",
            ),
            (
                lambda: AttentionScores(np.full((1, 2, 2), 1j)),
                "scores must be real, not complex128",
            ),
            (lambda: enc.unit_axis([3.0, 4.0]), "rotation axes need a trailing axis of 3, got shape (2,)"),
            (lambda: quat_rotor([0.6, 0.8], 0.3), "rotation axes need a trailing axis of 3, got shape (2,)"),
            (
                lambda: quat_rotor([0.5, 0.5, 0.5, 0.5], 0.3),
                "rotation axes need a trailing axis of 3, got shape (4,)",
            ),
            (
                lambda: cl3.ORACLES["quatro"](np.ones(3), 0.3, 0.5, [0.6, 0.8], [0.6, 0.8]),
                "rotation axes need a trailing axis of 3, got shape (2,)",
            ),
            (lambda: cl3.mv8_rotor([0.6, 0.8], 0.3), "rotation axes need a trailing axis of 3, got shape (2,)"),
            (lambda: enc.FrequencySchedule.for_bands(2.5), "num_bands must be an integer, got 2.5"),
            (lambda: enc.FrequencySchedule.for_bands(True), "num_bands must be an integer, got True"),
            (
                lambda: bench.run_bench(enc.grid_positions(2, 2), head_dim=6.0),
                "head_dim must be an integer, got 6.0",
            ),
            (lambda: bench.run_bench(enc.grid_positions(2, 2), batch=True), "batch must be an integer, got True"),
            (lambda: bench.run_bench(enc.grid_positions(2, 2), reps=30.0), "reps must be an integer, got 30.0"),
            (
                lambda: cl3.ORACLES["rope1d"](np.ones(3), 0.1, 0.2, None, None),
                "rope1d carriers need a trailing axis of 2, got shape (3,)",
            ),
            (
                lambda: cl3.ORACLES["mixed"](np.ones(4), 0.1, 0.2, _E3, _E3),
                "mixed carriers need a trailing axis of 3, got shape (4,)",
            ),
            (
                lambda: cl3.ORACLES["spherical"](np.ones(2), 0.1, 0.2, None, None),
                "spherical carriers need a trailing axis of 3, got shape (2,)",
            ),
            (
                lambda: cl3.ORACLES["quatro"](np.ones((5, 2)), 0.1, 0.2, _E3, _E3),
                "quatro carriers need a trailing axis of 3, got shape (5, 2)",
            ),
            (
                lambda: cl3.ORACLES["care"](np.ones(3), 0.1, 0.2, _E3, _E3),
                "mv8 values need a trailing axis of 8, got shape (3,)",
            ),
            (
                lambda: cl3.rotation_gradient("quatro", "angle_x", np.ones(2), 0.1, 0.2, _E3, _E3),
                "quatro carriers need a trailing axis of 3, got shape (2,)",
            ),
            (
                lambda: cl3.rotation_gradient("rope1d", "angle_y", np.ones(3), 0.1, 0.2),
                "rope1d carriers need a trailing axis of 2, got shape (3,)",
            ),
            (
                lambda: enc.grade1_rotation_axis(np.ones(4)),
                "rotation axes need a trailing axis of 3, got shape (4,)",
            ),
            (
                lambda: enc.grade1_rotation_axis([0.6, 0.8]),
                "rotation axes need a trailing axis of 3, got shape (2,)",
            ),
            (lambda: cl3.mv8_bivector([0.6, 0.8]), "rotation axes need a trailing axis of 3, got shape (2,)"),
            (lambda: Algebra(3).reverse(np.ones(1)), "Cl(3,0) operands need a trailing axis of 8, got shape (1,)"),
            (lambda: Algebra(3).reverse(np.ones(5)), "Cl(3,0) operands need a trailing axis of 8, got shape (5,)"),
            (
                lambda: Algebra(3).grade_project(np.ones(1), 2),
                "Cl(3,0) operands need a trailing axis of 8, got shape (1,)",
            ),
            (
                lambda: Algebra(3).grade_project(np.ones((2, 7)), 2),
                "Cl(3,0) operands need a trailing axis of 8, got shape (2, 7)",
            ),
            (lambda: cl3.mv8_reverse(np.ones(1)), "Cl(3,0) operands need a trailing axis of 8, got shape (1,)"),
            (lambda: Algebra(3).grade_project(np.ones(8), 1.5), "grade must be an integer, got 1.5"),
            (lambda: Algebra(3).grade_project(np.ones(8), True), "grade must be an integer, got True"),
            (
                lambda: enc.apply_maps("rope1d", np.ones((3, 2), complex), np.ones((2, 2))),
                "rope1d maps need a leading phase axis of length 1, got shape (3, 2)",
            ),
            (
                lambda: _rows_with_maps("quatro", np.ones((3, 3, 2), complex).tolist()),
                "quatro maps must be a numpy array, not list",
            ),
            (
                lambda: enc.apply_maps("quatro", np.ones((3, 3, 2), complex).tolist(), np.ones(3)),
                "quatro maps must be a numpy array, not list",
            ),
            (
                lambda: enc.apply_maps("quatro", np.ones((3, 4, 2), complex), np.ones((3, 3))),
                "quatro maps of shape (3, 4, 2) do not broadcast against carriers of shape (3, 3)",
            ),
            (lambda: enc.as_axes(np.array([1j, 0, 0])), "rotation axes must be real, not complex128"),
            (lambda: enc.unit_axis(np.array([1j, 1, 0])), "rotation axes must be real, not complex128"),
            (
                lambda: enc.grade1_rotation_axis(np.array([1j, 0, 0])),
                "rotation axes must be real, not complex128",
            ),
            (
                lambda: enc.AxisParams(np.full((2, 3), 1j), np.ones((2, 3))),
                "axes_x must be real, not complex128",
            ),
            (lambda: quat_rotor(np.array([1j, 0, 0]), 0.3), "rotation axes must be real, not complex128"),
            (
                lambda: enc.position_angles(np.array([1j, 0]), 1.0, 1.0, 1.0),
                "positions must be real, not complex128",
            ),
            (
                lambda: enc.position_angles(np.ones((4, 2)), 1j, 1.0, 1.0),
                "band angles must be real, not complex128",
            ),
            (
                lambda: cl3.ORACLES["quatro"](np.full(3, 1j), 0.1, 0.2, _E3, _E3),
                "quatro carriers must be real, not complex128",
            ),
            (
                lambda: cl3.care_apply(np.full(8, 1j), 0.1, 0.2, _E3, _E3),
                "care carriers must be real, not complex128",
            ),
            (
                lambda: enc.EncodingMethod.configure("quatro", 6, axes_x=[1j, 0, 0]),
                "axes_x must be real, not complex128",
            ),
            (
                lambda: enc.position_angles(np.ones((4, 3)), 1.0, 1.0, 1.0),
                "positions need a trailing axis of 2, got shape (4, 3)",
            ),
            (
                lambda: enc.position_angles(np.ones((4, 2)), 1.0, "a", 1.0),
                "scale_x must be a real number, got 'a'",
            ),
            (lambda: enc.grid_positions(2, 2, origin=(np.nan, 0)), "origin p_x must be finite, got nan"),
            (lambda: enc.grid_positions(2, 2, origin=(0, np.inf)), "origin p_y must be finite, got inf"),
            (
                lambda: enc.grid_positions(2, 2, origin=("a", "b")),
                "origin p_x must be a real number, got 'a'",
            ),
            (lambda: hamilton_product(np.full(4, 1j), np.ones(4)), "quaternions must be real, not complex128"),
            (
                lambda: hamilton_product(np.ones(3), np.ones(4)),
                "quaternions need a trailing axis of 4, got shape (3,)",
            ),
            (lambda: conjugate(np.full(4, 1j)), "quaternions must be real, not complex128"),
            (lambda: even_cl3_coeffs(np.full(4, 1j)), "quaternions must be real, not complex128"),
            (lambda: quat_rotor(_E3, np.array(0.3j)), "half angles must be real, not complex128"),
            (
                lambda: quat_sandwich(np.full(4, 0.5j), np.ones(3)),
                "quaternion rotors must be real, not complex128",
            ),
            (
                lambda: quat_sandwich(np.array([1.0, 0.0, 0.0, 0.0]), np.full(3, 1j)),
                "pure quaternions must be real, not complex128",
            ),
            (
                lambda: quat_sandwich(np.array([1.0, 0.0, 0.0, 0.0]), np.ones(4)),
                "pure quaternions need a trailing axis of 3, got shape (4,)",
            ),
            (lambda: cl3.rope1d_apply(np.ones(2), np.array(1j)), "angles must be real, not complex128"),
            (lambda: cl3.spherical_apply(np.ones(3), 0.1, np.array(0.2j)), "angles must be real, not complex128"),
            (lambda: cl3.mixed_apply(np.ones(3), np.array(0.1j), _E3), "angles must be real, not complex128"),
            (
                lambda: cl3.ORACLES["quatro"](np.ones(3), np.array(0.1j), 0.2, _E3, _E3),
                "half angles must be real, not complex128",
            ),
            (
                lambda: cl3.care_apply(np.ones(8), 0.1, np.array(0.2j), _E3, _E3),
                "angles must be real, not complex128",
            ),
            (
                lambda: cl3.rotation_gradient("rope1d", "angle_x", np.ones(2), np.array(1j), 0.0),
                "angles must be real, not complex128",
            ),
            (
                lambda: shift_positions(enc.random_block(1, 4, enc.grid_positions(1, 2), 0), np.array([1j, 0])),
                "shift must be real, not complex128",
            ),
            (
                lambda: commutator_norm(_SPHERICAL_6, np.array([1j, 0]), (1, 1)),
                "p_a must be real, not complex128",
            ),
            (
                lambda: enc.random_block(1, 4, np.zeros((2, 2), complex), 0),
                "positions must be real, not complex128",
            ),
            (
                lambda: enc.random_block(1, 4, np.zeros(2), 0),
                "positions must be (tokens, 2), got shape (2,)",
            ),
            (
                lambda: enc.token_band_angles(_SPHERICAL_6, np.zeros((2, 2), complex)),
                "positions must be real, not complex128",
            ),
            (
                lambda: enc.token_band_angles(_SPHERICAL_6, np.array([1.0, 0.0])),
                "positions must be (tokens, 2), got shape (2,)",
            ),
            (lambda: enc.rope1d_rotate(np.ones(2), np.array(1j), 1.0), "positions must be real, not complex128"),
        ],
        ids=[
            "axis_params_shape",
            "axis_params_bands",
            "method_unknown_tag",
            "method_missing_axes",
            "method_axis_bands",
            "per_band_shape",
            "gradient_unknown_tag",
            "apply_maps_unknown_tag",
            "rows_rank",
            "rows_head_dim_below_width",
            "rows_maps_cover",
            "rows_real_maps_for_rope1d",
            "rows_float32_maps",
            "apply_maps_real_maps_for_care",
            "apply_maps_two_turns_for_care",
            "rows_matrices_for_mixed",
            "rows_matrices_for_spherical",
            "rows_matrices_for_quatro",
            "rows_matrices_for_care",
            "block_maps_complex_positions",
            "apply_maps_complex_carriers",
            "apply_maps_complex_care_carriers",
            "schedule_string_base",
            "schedule_none_base",
            "schedule_complex_base",
            "configure_none_scale",
            "configure_string_scale",
            "method_complex_scale",
            "schedule_huge_integer_base",
            "configure_huge_integer_scale",
            "rows_two_turns_for_quatro",
            "apply_maps_one_phase_for_spherical",
            "commutator_fractional_band",
            "commutator_bool_band",
            "configure_fractional_head_dim",
            "grid_origin_shape",
            "grid_negative_size",
            "grid_fractional_size",
            "block_complex_data",
            "scores_complex",
            "unit_axis_two_vector",
            "quat_rotor_two_vector_axis",
            "quat_rotor_four_vector_axis",
            "quatro_oracle_two_vector_axes",
            "mv8_rotor_two_vector_axis",
            "schedule_fractional_bands",
            "schedule_bool_bands",
            "bench_fractional_head_dim",
            "bench_bool_batch",
            "bench_fractional_reps",
            "rope1d_oracle_three_vector",
            "mixed_oracle_four_vector",
            "spherical_oracle_two_vector",
            "quatro_oracle_two_vectors",
            "care_oracle_three_vector",
            "gradient_quatro_two_vector",
            "gradient_rope1d_inner_three_vector",
            "grade1_axis_four_vector",
            "grade1_axis_two_vector",
            "mv8_bivector_two_vector",
            "reverse_one_wide",
            "reverse_five_wide",
            "grade_project_one_wide",
            "grade_project_seven_wide",
            "mv8_reverse_one_wide",
            "grade_project_fractional_grade",
            "grade_project_bool_grade",
            "apply_maps_three_phases_for_rope1d",
            "rows_list_maps",
            "apply_maps_list_maps",
            "apply_maps_maps_and_carriers_do_not_broadcast",
            "as_axes_complex",
            "unit_axis_complex",
            "grade1_axis_complex",
            "axis_params_complex",
            "quat_rotor_complex_axis",
            "position_angles_complex_positions",
            "position_angles_complex_band_angles",
            "quatro_oracle_complex_carriers",
            "care_apply_complex_carriers",
            "configure_complex_axis",
            "position_angles_three_wide",
            "position_angles_string_scale",
            "grid_nan_origin",
            "grid_inf_origin",
            "grid_string_origin",
            "hamilton_product_complex",
            "hamilton_product_three_wide",
            "quat_conjugate_complex",
            "even_cl3_coeffs_complex",
            "quat_rotor_complex_half_angle",
            "quat_sandwich_complex_rotor",
            "quat_sandwich_complex_vector",
            "quat_sandwich_four_wide_vector",
            "rope1d_oracle_complex_angle",
            "spherical_oracle_complex_angle",
            "mixed_oracle_complex_angle",
            "quatro_oracle_complex_angle",
            "care_oracle_complex_angle",
            "gradient_complex_angle",
            "shift_complex",
            "commutator_complex_position",
            "random_block_complex_positions",
            "random_block_flat_positions",
            "token_band_angles_complex_positions",
            "token_band_angles_flat_positions",
            "rope1d_rotate_complex_position",
        ],
    )
    def test_refusal_names_its_cause(self, call, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("source", ["mixed", "spherical", "quatro", "care"])
    def test_maps_of_another_method_of_the_same_kind_are_accepted(self, source):
        # the kind test reads dtype and turn axis only: the phases of any
        # triple method, care's among them, turn 3-wide carriers
        maps = enc.block_maps(enc.EncodingMethod.configure(source, 24), enc.grid_positions(2, 3))
        data = rng.standard_normal((2, 6, 6))
        quatro = enc.EncodingMethod.configure("quatro", 6)
        want = enc.apply_maps("quatro", maps[..., :2], data.reshape(2, 6, 2, 3))
        assert np.array_equal(enc.rotate_rows(data, quatro, maps[..., :2]), want.reshape(2, 6, 6))

    @pytest.mark.parametrize("shape", [(5,), (4, 1), (5, 3), (2, 2, 2)])
    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_block_maps_refuses_positions_not_tokens_by_two(self, tag, shape):
        method = enc.EncodingMethod.configure(tag, 24)
        message = f"positions must be (tokens, 2), got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enc.block_maps(method, np.ones(shape))

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_block_maps_accepts_no_tokens(self, tag):
        method = enc.EncodingMethod.configure(tag, 24)
        maps = enc.block_maps(method, np.zeros((0, 2)))
        assert maps.shape == (enc.ROTATIONS[tag].phases, 0, method.schedule.num_bands)

    # a non-finite coordinate is refused at position_angles, the way in for angles
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("coordinate", [0, 1])
    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_block_maps_refuses_a_non_finite_position(self, tag, coordinate, bad):
        pos = np.array([[0.3, -0.4], [1.2, 2.0], [-2.0, 0.1]])
        pos[1, coordinate] = bad
        message = (
            "position angle is not finite: a position, band angle or coordinate scale "
            "(scale_x 1.0, scale_y 1.0) is not finite"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enc.block_maps(enc.EncodingMethod.configure(tag, 24), pos)

    # a zero or NaN axis is refused at AxisParams, the way in for axes;
    # quatro's x axis is its outer one, care's its inner one; mixed reads only x
    @pytest.mark.parametrize("bad", [(np.nan, 0.0, 0.0), (0.0, 0.0, 0.0)])
    @pytest.mark.parametrize(
        "tag,name",
        [("mixed", "axes_x"), ("quatro", "axes_x"), ("quatro", "axes_y"), ("care", "axes_x"), ("care", "axes_y")],
    )
    def test_configure_refuses_a_degenerate_axis(self, tag, name, bad):
        width = enc.ROTATIONS[tag].width
        axes = {"axes_x": np.tile([0.0, 0.6, 0.8], (7, 1)), "axes_y": np.tile([0.8, 0.0, -0.6], (7, 1))}
        if tag == "mixed":
            axes["axes_y"] = axes["axes_x"].copy()
        axes[name][1] = bad
        message = f"{name} contains a degenerate or non-finite axis"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enc.EncodingMethod.configure(tag, 7 * width, **axes)


class TestMethodTable:
    """ROTATIONS holds each method's width and axis rule; the rest reads them."""

    def test_methods_and_axis_rules_follow_the_table(self):
        assert enc.METHODS == ("rope1d", "mixed", "spherical", "quatro", "care")
        rules = {tag: rotation.free_axes for tag, rotation in enc.ROTATIONS.items()}
        assert rules == {"rope1d": 0, "mixed": 1, "spherical": 0, "quatro": 2, "care": 2}

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_width_is_the_tables(self, tag):
        assert enc.METHOD_WIDTHS[tag] == enc.ROTATIONS[tag].width
        assert enc.EncodingMethod.configure(tag, 24).width == enc.ROTATIONS[tag].width

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_carrier_layout_is_stated_once(self, tag):
        # the turned groups and the copied slots cover the carrier once each;
        # every method turns by a sequence, and its phase count is the one
        # the groups' size asks for: a pair one phase, triples the three
        # Euler phases
        rotation = enc.ROTATIONS[tag]
        slots = [k for group in rotation.groups for k in group] + list(rotation.copied)
        assert sorted(slots) == list(range(rotation.width))
        assert enc.METHOD_WIDTHS[tag] == rotation.width == len(slots)
        sizes = {len(group) for group in rotation.groups}
        assert sizes in ({2}, {3})
        assert rotation.phases == (1 if sizes == {2} else 3)
        if rotation.phases == 1:  # the phase turns the carrier, one complex number
            assert rotation.groups == ((0, 1),) and rotation.copied == ()
            assert rotation.turns == enc.PAIR_TURNS
        refs = [ref for step in rotation.turns for _, ref in step if not isinstance(ref, complex)]
        assert {ref if ref >= 0 else ~ref for ref in refs} == set(range(rotation.phases))  # every phase row is read
        for step in rotation.turns:  # equally spaced slot pairs (k, k + 1) of the carrier
            firsts = [k for k, _ in step]
            assert all(0 <= k <= rotation.width - 2 for k in firsts)
            assert len({b - a for a, b in zip(firsts, firsts[1:])}) <= 1
            assert all((b - a) % 2 == 0 and b - a >= 2 for a, b in zip(firsts, firsts[1:]))

        last = rotation.phases - 1

        def mirrored(ref):  # the same turn in the conjugate phases in reverse order
            return ref.conjugate() if isinstance(ref, complex) else last - ref if ref >= 0 else ~(last - ~ref)

        # read backwards with mirrored phases, a sequence has the same steps
        # (care's two Rx steps commute), so invert may reverse the phases
        mirror = [tuple((k, mirrored(ref)) for k, ref in step) for step in reversed(rotation.turns)]
        assert Counter(mirror) == Counter(rotation.turns)
        # rotate_rows keeps each turned group's norm and copies each copied slot bit for bit
        axes_x, axes_y = draw_axes(tag)
        method = enc.EncodingMethod.configure(tag, 5 * rotation.width + 1, axes_x=axes_x, axes_y=axes_y)
        data = rng.standard_normal((2, 12, 5 * rotation.width + 1))
        body = data[..., :-1].reshape(2, 12, 5, rotation.width)
        maps = enc.block_maps(method, enc.grid_positions(3, 4, origin=(0.5, -2.0)))
        for inverse in (False, True):
            out = enc.rotate_rows(data, method, maps, inverse)[..., :-1].reshape(body.shape)
            for group in rotation.groups:
                norm_in, norm_out = (np.linalg.norm(a[..., group], axis=-1) for a in (body, out))
                assert np.max(np.abs(norm_out - norm_in)) <= 1e-12
            for k in rotation.copied:
                assert np.array_equal(out[..., k], body[..., k])

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_configure_follows_the_axis_rule(self, tag):
        x, y = np.array([1.0, 2.0, 0.5]), np.array([-0.3, 0.9, 1.1])
        free_axes = enc.ROTATIONS[tag].free_axes
        if free_axes == 0:
            assert enc.EncodingMethod.configure(tag, 24).axes is None
            with pytest.raises(ValueError, match=f"^{tag} has fixed axes"):
                enc.EncodingMethod.configure(tag, 24, axes_x=x)
        elif free_axes == 1:
            axes = enc.EncodingMethod.configure(tag, 24, axes_x=x).axes
            assert np.array_equal(axes.axes_y, axes.axes_x)
            with pytest.raises(ValueError, match=f"^{tag} encoding needs one shared axis$"):
                enc.EncodingMethod.configure(tag, 24, axes_x=x, axes_y=y)
        else:
            axes = enc.EncodingMethod.configure(tag, 24, axes_x=x, axes_y=y).axes
            assert np.array_equal(axes.unit_x[0], enc.unit_axis(x))
            assert np.array_equal(axes.unit_y[0], enc.unit_axis(y))


class TestOracleTable:
    """ORACLES: each method's rotor oracle at resolved angles, in METHODS
    order, equal to its ``*_rotate`` oracle at ``position_angles``' angles."""

    def test_lists_the_methods_in_order(self):
        assert tuple(cl3.ORACLES) == enc.METHODS

    @pytest.mark.parametrize(
        "tag,rotate",
        [
            ("rope1d", lambda v, p, theta, ux, uy: enc.rope1d_rotate(v, p[..., 0], theta, 1.3)),
            ("mixed", lambda v, p, theta, ux, uy: enc.mixed_rotate(v, p, ux, theta, 1.3, 0.7)),
            ("spherical", lambda v, p, theta, ux, uy: enc.spherical_rotate(v, p, theta, 1.3, 0.7)),
            ("quatro", lambda v, p, theta, ux, uy: enc.quatro_rotate(v, p, ux, uy, theta, 1.3, 0.7)),
            ("care", lambda v, p, theta, ux, uy: enc.care_rotate(v, p, ux, uy, theta, 1.3, 0.7)),
        ],
    )
    def test_entry_equals_its_rotate_oracle(self, tag, rotate):
        pos = enc.grid_positions(3, 4, origin=(0.5, -2.0))[:, None, :]  # (tokens, 1, 2)
        theta = enc.FrequencySchedule.for_bands(5).band_angles
        ux, uy = rng.standard_normal((2, 5, 3))  # raw per-band axes
        v = rng.standard_normal((2, 12, 5, enc.ROTATIONS[tag].width))
        angles = enc.position_angles(pos, theta, 1.3, 0.7)
        got = cl3.ORACLES[tag](v, *angles, enc.unit_axis(ux), enc.unit_axis(uy))
        assert got.tobytes() == rotate(v, pos, theta, ux, uy).tobytes()


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
            assert got.tobytes() == cl3.rope1d_apply(v, theta * (sx * p)).tobytes()
            assert got.tobytes() == cl3.rope1d_apply(v, enc.position_angles(
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
        swapped = cl3.spherical_apply(v, 0.0, np.pi / 2)
        swapped = cl3.spherical_apply(swapped, np.pi / 2, 0.0)
        assert np.max(np.abs(out - swapped)) < 1e-15

    def test_spherical_noncommutativity_witness(self):
        v = np.array([1.0, 0.0, 0.0])
        p = (np.pi / 2, np.pi / 2)
        forward = enc.spherical_rotate(v, p, 1.0)
        # applying the two plane rotations in the opposite order
        other = cl3.spherical_apply(cl3.spherical_apply(v, np.pi / 2, 0.0), 0.0, np.pi / 2)
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
        batch = cl3.mixed_apply(v, angle, u)
        single = np.array([cl3.mixed_apply(v[i], float(angle[i]), u[i]) for i in range(n)])
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
        inner = cl3.care_apply(m, theta * p[0], 0.0, ux, uy)
        nested = cl3.care_apply(inner, 0.0, theta * p[1], ux, uy)
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
            ref = cl3.mixed_apply(v, theta * (p[0] + p[1]), enc.grade1_rotation_axis(u))
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
        axes_x, axes_y = draw_axes(tag)
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
                angles = enc.position_angles(p, theta, 1.1, 0.6)
                units = (None, None)
                if method.axes is not None:
                    units = (method.axes.unit_x[band], method.axes.unit_y[band])
                for c in range(block.batch):
                    ref = cl3.ORACLES[tag](block.data[c, t, seg], *angles, *units)
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
        axes_x, axes_y = draw_axes(tag)
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
        axes_x, axes_y = draw_axes(tag)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("head_dim", [16, 17, 18, 64, 66])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_care_rows_equal_the_interleaved_apply(self, dtype, head_dim, batch):
        # care's rows go straight into the output or through a scratch; the
        # bits must be those of its apply into a contiguous row, and the
        # scalar and e123 slots those of the input
        method = self.configure("care", head_dim)
        maps = enc.block_maps(method, self.POS)
        data = rng.standard_normal((batch, 12, head_dim)).astype(dtype)
        body = head_dim // 8 * 8
        carriers = (batch, 12, head_dim // 8, 8)
        invariant = list(enc.CARE_INVARIANT_SLOTS)
        for inverse in (False, True):
            turn = enc.ROTATIONS["care"].turner(enc.ROTATIONS["care"].invert(maps) if inverse else maps)
            want = np.empty(carriers)
            for c in range(batch):
                turn(data[c, :, :body].astype(np.float64).reshape(carriers[1:]), want[c])
            got = enc.rotate_rows(data, method, maps, inverse)
            assert got.dtype == dtype
            assert np.array_equal(got[..., :body], want.reshape(batch, 12, body).astype(dtype))
            slots = got[..., :body].reshape(carriers)[..., invariant]
            assert np.array_equal(slots, data[..., :body].reshape(carriers)[..., invariant])
            assert np.array_equal(got[..., body:], data[..., body:])
            again = enc.rotate_rows(data, method, maps, inverse)
            assert np.array_equal(again, got) and not np.shares_memory(again, got)

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_both_turn_routes_give_the_same_bits(self, tag):
        # the turner reads its route off each src: when the first step
        # turns every slot (rope1d's alone), a C-contiguous float64 src is
        # multiplied straight into dst, and any other src is copied into
        # dst and turned there. Both routes give the same bits, through
        # the one turner and through every entry that calls it.
        draw = np.random.default_rng(4404)  # apart from rng, so the later tests draw what they drew before
        rotation = enc.ROTATIONS[tag]
        assert rotation.leads == (tag == "rope1d")
        width, bands = rotation.width, 5
        axes_x = draw.standard_normal(3) if rotation.free_axes else None
        axes_y = draw.standard_normal(3) if rotation.free_axes == 2 else None
        method, padded = (
            enc.EncodingMethod.configure(tag, head_dim, axes_x=axes_x, axes_y=axes_y)
            for head_dim in (bands * width, bands * width + 1)
        )
        maps = enc.block_maps(method, self.POS)
        data = draw.standard_normal((3, len(self.POS), bands * width))
        carriers = data.reshape(3, len(self.POS), bands, width)
        strided_carriers = np.empty(carriers.shape[:-1] + (2 * width,))[..., ::2]
        strided_carriers[...] = carriers
        v = draw.standard_normal((bands, width))  # broadcasts against every token's maps
        strided = np.empty((bands, 2 * width))[:, ::2]
        strided[...] = v
        for inverse in (False, True):
            phases = rotation.invert(maps) if inverse else maps
            turn = rotation.turner(phases)
            read = np.empty(carriers.shape)
            turn(carriers, read)
            for src in (np.asfortranarray(carriers), strided_carriers):
                assert not src.flags.c_contiguous
                copied = np.empty(carriers.shape)
                turn(src, copied)
                assert np.array_equal(copied, read)
            # C-contiguous float64 rows against float32 rows and rows with a pass-through dim
            wide = enc.rotate_rows(data, method, maps, inverse)
            assert np.array_equal(wide, read.reshape(data.shape))
            narrow = data.astype(np.float32)
            want = enc.rotate_rows(narrow.astype(np.float64), method, maps, inverse).astype(np.float32)
            assert np.array_equal(enc.rotate_rows(narrow, method, maps, inverse), want)
            rest = draw.standard_normal((3, len(self.POS), 1))
            got = enc.rotate_rows(np.concatenate([data, rest], axis=-1), padded, maps, inverse)
            assert np.array_equal(got[..., :-1], wide) and np.array_equal(got[..., -1:], rest)
            # carriers that broadcast in apply_maps, contiguous and strided
            got = enc.apply_maps(tag, phases, v)
            assert np.array_equal(got, enc.apply_maps(tag, phases, strided))
            assert got.shape == (len(self.POS), bands, width)

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
                # no numpy warning, though inf times a zero map entry is NaN
                with pytest.raises(ValueError, match="^block contains non-finite values$"):
                    enc.rotate_rows(data, method, maps, inverse)

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_overflowing_rotation_raises(self, tag):
        # finite input, accepted by the block, but turned past the float64 limit
        method = self.configure(tag, 16)
        block = enc.TokenBlock(data=np.full((2, 12, 16), 1.6e308), positions=self.POS)
        with pytest.raises(ValueError, match="^rotated values in batch row 0 overflow float64$"):
            enc.apply_encoding(block, method)

    @pytest.mark.parametrize("tag", enc.METHODS)
    @pytest.mark.parametrize("head_dim", [16, 17])
    def test_float64_overflow_names_its_row_without_a_warning(self, tag, head_dim):
        # rows without (head_dim 16) and with (17) a pass-through dim
        method = self.configure(tag, head_dim)
        maps = enc.block_maps(method, self.POS)
        data = rng.standard_normal((3, 12, head_dim))
        data[1] = 1.6e308  # finite, but turned past the float64 limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for inverse in (False, True):
                with pytest.raises(ValueError, match="^rotated values in batch row 1 overflow float64$"):
                    enc.rotate_rows(data, method, maps, inverse)

    @pytest.mark.parametrize("tag", enc.METHODS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padded", [False, True])
    def test_the_input_is_never_written(self, tag, dtype, padded):
        # with one token, a row's carriers are a contiguous slice of the
        # input, which numpy hands over as a view; every turn must land in
        # the output or a scratch, and a failed row is named from the input
        width = enc.METHOD_WIDTHS[tag]
        head_dim = 64 // width * width + padded  # with and without a pass-through dim
        method = self.configure(tag, head_dim)
        pos = np.array([[2.5, -1.5]])
        maps = enc.block_maps(method, pos)
        data = rng.standard_normal((2, 1, head_dim)).astype(dtype)
        kept = data.copy()
        for inverse in (False, True):
            out = enc.rotate_rows(data, method, maps, inverse)
            assert np.array_equal(data, kept) and not np.shares_memory(out, data)
        block = enc.TokenBlock(data=data, positions=pos)  # read-only float64 data
        kept = block.data.copy()
        for inverse in (False, True):
            enc.apply_encoding(block, method, inverse)
            assert np.array_equal(block.data, kept)
        if dtype == np.float64:
            data[1] = 1.6e308  # finite, but turned past the float64 limit
            kept = data.copy()
            for inverse in (False, True):
                with pytest.raises(ValueError, match="^rotated values in batch row 1 overflow float64$"):
                    enc.rotate_rows(data, method, maps, inverse)
                assert np.array_equal(data, kept)

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

    @pytest.mark.parametrize("head_dim", [4, 5])
    def test_float32_failure_names_its_row_and_cause(self, head_dim):
        # the message is chosen only once a row fails, from its float64 values
        method = self.configure("rope1d", head_dim)
        maps = enc.block_maps(method, self.POS)
        data = rng.standard_normal((3, 12, head_dim)).astype(np.float32)
        data[1, 7, :2] = 3.0e38  # rotated past the float32 limit
        for inverse in (False, True):
            with pytest.raises(ValueError, match="^rotated values in batch row 1 overflow float32$"):
                enc.rotate_rows(data, method, maps, inverse)
        for also_overflowing in (False, True):
            spoiled = data.copy() if also_overflowing else data[[0, 0, 2]]
            spoiled[1, 3, 1] = np.nan  # a NaN wins over an overflow in the same row
            for inverse in (False, True):
                with pytest.raises(ValueError, match="^block contains non-finite values$"):
                    enc.rotate_rows(spoiled, method, maps, inverse)

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
    """One sub-vector through its rotor oracle, at the encoder's angles."""
    theta = float(method.schedule.band_angles[band])
    angles = enc.position_angles(p, theta, method.scale_x, method.scale_y)
    axes = (None, None) if method.axes is None else (method.axes.unit_x[band], method.axes.unit_y[band])
    return cl3.ORACLES[method.tag](v, *angles, *axes)


class TestRotationMaps:
    """The map table against the rotor oracles, with non-parallel axes."""

    POS = enc.grid_positions(3, 4)

    def configure(self, tag, head_dim):
        axes_x, axes_y = draw_axes(tag)
        return enc.EncodingMethod.configure(
            tag, head_dim, base=30.0, axes_x=axes_x, axes_y=axes_y, scale_x=1.3, scale_y=0.8
        )

    def test_care_map_equals_the_mv8_sandwich_on_all_slots(self):
        n = 500
        ux, uy = enc.unit_axis(rng.standard_normal((2, n, 3)))
        ax, ay = rng.uniform(-4.0, 4.0, (2, n))
        m = rng.standard_normal((n, 8))
        got = enc.apply_maps("care", enc.ROTATIONS["care"].build(ax, ay, ux, uy), m)
        rotor = cl3.mv8_product(cl3.mv8_rotor(uy, ay / 2.0), cl3.mv8_rotor(ux, ax / 2.0))
        want = cl3.mv8_rotor_sandwich(rotor, m)
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_single_carrier_matches_the_apply_oracle(self, tag):
        v = rng.standard_normal(enc.METHOD_WIDTHS[tag])
        ax, ay = rng.uniform(-4.0, 4.0, 2)
        ux = unit3()
        uy = ux if enc.ROTATIONS[tag].free_axes == 1 else unit3()
        want = cl3.ORACLES[tag](v, ax, ay, ux, uy)
        maps = enc.ROTATIONS[tag].build(ax, ay, ux, uy)
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
        maps = enc.ROTATIONS["care"].build(ax, ay, ux, uy)
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

    @pytest.mark.parametrize("tag", enc.METHODS)
    @pytest.mark.parametrize("extra", [0, 1])
    def test_non_contiguous_block_data(self, tag, extra):
        # Fortran-ordered and strided data give the bits of their C-contiguous
        # copy, with and without a pass-through dim
        head_dim = 2 * enc.METHOD_WIDTHS[tag] + extra
        method = self.configure(tag, head_dim)
        draw = np.random.default_rng(4405)
        fortran = np.asfortranarray(draw.standard_normal((2, 12, head_dim)))
        strided = draw.standard_normal((2, 12, 2 * head_dim))[:, :, ::2]
        for arr in (fortran, strided):
            block = enc.TokenBlock(data=arr, positions=self.POS)
            want = enc.apply_encoding(enc.TokenBlock(data=arr.copy(), positions=self.POS), method)
            assert np.array_equal(enc.apply_encoding(block, method).data, want.data)

    @pytest.mark.parametrize("tag", ["mixed", "spherical", "quatro", "care"])
    def test_phase_inverse_is_the_reversed_conjugate(self, tag):
        # the turns mirror themselves: the conjugate phases, last turn first,
        # undo them, and the reversed view acts as its contiguous copy
        method = self.configure(tag, 24)
        maps = enc.block_maps(method, self.POS)
        inverse = enc.ROTATIONS[tag].invert(maps)
        assert np.array_equal(inverse, np.conjugate(maps)[::-1])
        v = rng.standard_normal(maps.shape[1:] + (method.width,))
        got = enc.apply_maps(tag, inverse, v)
        assert np.array_equal(got, enc.apply_maps(tag, np.ascontiguousarray(inverse), v))
        assert np.max(np.abs(enc.apply_maps(tag, maps, got) - v)) <= 1e-14

    def test_maps_are_orthogonal(self):
        for tag in ("mixed", "spherical", "quatro", "care"):
            method = self.configure(tag, 9 if tag != "care" else 16)
            maps = enc.block_maps(method, [[2.5, -1.5]])
            # columns M e_j: each map applied to the unit vectors of a triple
            basis = np.eye(8)[list(enc.CARE_VECTOR_SLOTS)] if tag == "care" else np.eye(3)
            turned = enc.apply_maps(tag, maps[..., None], basis)  # (tokens, bands, j, width)
            if tag == "care":
                turned = turned[..., list(enc.CARE_VECTOR_SLOTS)]
            mats = np.swapaxes(turned, -1, -2)
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
        angle_x, angle_y = np.array(0.1), np.array(0.2)
        maps = enc.ROTATIONS["quatro"].build(angle_x, angle_y, enc.SPHERICAL_AXIS_X, enc.SPHERICAL_AXIS_Y)
        with pytest.raises(ValueError, match="trailing axis of 3"):
            enc.apply_maps("quatro", maps, np.zeros(4))
        phase = enc.ROTATIONS["rope1d"].build(angle_x, angle_y, None, None)
        with pytest.raises(ValueError, match=r"trailing axis of 2, got shape \(\)$"):
            enc.apply_maps("rope1d", phase, 1.0)


grid_rng = np.random.default_rng(7177)  # apart from rng, so the later tests draw what they drew before


def _grid(columns, rows) -> np.ndarray:
    """Row-major (tokens, 2) positions of the product grid columns x rows."""
    px, py = np.meshgrid(np.asarray(columns, dtype=np.float64), np.asarray(rows, dtype=np.float64))
    return np.stack([px.ravel(), py.ravel()], axis=-1)


def _grid_position_sets() -> dict:
    g = enc.grid_positions
    negative_zero_token = g(3, 4).copy()
    negative_zero_token[5, 0] = -0.0
    return {
        "1x1": g(1, 1),
        "1x7": g(1, 7),
        "7x1": g(7, 1),
        "32x32": g(32, 32, origin=(7.0, -3.0)),
        "negative_origin": g(5, 6, origin=(-4.0, -9.0)),
        "fractional_origin": g(5, 6, origin=(-1.5, 2.25)),
        "negative_zero_origin": g(3, 4, origin=(-0.0, -0.0)),
        "negative_zero_column": _grid([-0.0, 1.0, 2.0], [0.0, -0.0, 3.5]),
        "negative_zero_token": negative_zero_token,
        "reversed": g(6, 5)[::-1],
        "duplicated_rows": np.repeat(g(2, 5).reshape(2, 5, 2), 2, axis=0).reshape(-1, 2),
        "one_row_twice": np.concatenate([g(4, 5)[:5], g(4, 5)]),
        "column_major": g(5, 4).reshape(5, 4, 2).swapaxes(0, 1).reshape(-1, 2),
        "random": grid_rng.uniform(-20.0, 20.0, (37, 2)),
    }


GRID_POSITION_SETS = _grid_position_sets()


class TestGridMaps:
    """On a grid, block_maps takes its trig once per column and row; every
    map stays the per-token build's, bit for bit."""

    def configure(self, tag, head_dim, **scales):
        free_axes, bands = enc.ROTATIONS[tag].free_axes, head_dim // enc.METHOD_WIDTHS[tag]
        axes_x = grid_rng.standard_normal((bands, 3)) if free_axes else None
        axes_y = grid_rng.standard_normal((bands, 3)) if free_axes == 2 else None
        scales = {"scale_x": 1.3, "scale_y": 0.7, **scales}
        return enc.EncodingMethod.configure(
            tag, head_dim, base=100.0, axes_x=axes_x, axes_y=axes_y, **scales
        )

    @staticmethod
    def per_token_maps(method, pos):
        axes = (None, None) if method.axes is None else (method.axes.unit_x, method.axes.unit_y)
        return enc.ROTATIONS[method.tag].build(*enc.token_band_angles(method, pos), *axes)

    @pytest.mark.parametrize("name", list(GRID_POSITION_SETS))
    @pytest.mark.parametrize("head_dim", [64, 66])
    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_maps_equal_the_per_token_build_bit_for_bit(self, tag, head_dim, name):
        pos = GRID_POSITION_SETS[name]
        method = self.configure(tag, head_dim)
        want = self.per_token_maps(method, pos)
        got = enc.block_maps(method, pos)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_grid_shape_is_found_bit_for_bit(self):
        shapes = {name: enc._grid_shape(pos) for name, pos in GRID_POSITION_SETS.items()}
        assert shapes == {
            "1x1": (1, 1),
            "1x7": (1, 7),
            "7x1": (7, 1),
            "32x32": (32, 32),
            "negative_origin": (5, 6),
            "fractional_origin": (5, 6),
            "negative_zero_origin": (3, 4),
            "negative_zero_column": (3, 3),
            "negative_zero_token": None,  # its column holds 0.0 and -0.0
            "reversed": (6, 5),
            "duplicated_rows": (2, 10),
            "one_row_twice": None,
            "column_major": None,
            "random": None,
        }
        assert enc._grid_shape(np.zeros((0, 2))) is None

    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_separable_methods_take_column_and_row_angles(self, tag, monkeypatch):
        rotation = enc.ROTATIONS[tag]
        shapes = []

        def build(ax, ay, ux, uy):
            shapes.append((ax.shape, ay.shape))
            return rotation.build(ax, ay, ux, uy)

        monkeypatch.setitem(enc.ROTATIONS, tag, dataclasses.replace(rotation, build=build))
        method = self.configure(tag, 24)
        bands = method.schedule.num_bands
        enc.block_maps(method, enc.grid_positions(6, 7, origin=(0.5, -2.0)))
        enc.block_maps(method, GRID_POSITION_SETS["random"])
        grid = ((1, 7, bands), (6, 1, bands)) if rotation.separable else ((42, bands),) * 2
        assert shapes == [grid, ((37, bands),) * 2]
        assert rotation.separable == (tag != "mixed")  # mixed turns by angle_x + angle_y

    @pytest.mark.parametrize(
        "case,columns,rows,scales",
        [
            ("one column overflows", [0.0, 1.0, 2.0, 1e306], [0.0, -1.0, 5.0], {"scale_x": 1e3}),
            ("one row overflows", [0.0, 1.0, 2.0, 3.0], [0.0, -1e306, 5.0], {"scale_y": 1e3}),
            ("infinite column", [0.0, np.inf, 2.0, 3.0], [0.0, -1.0, 5.0], {}),
            ("NaN row", [0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 5.0], {}),
            ("overflow and infinite row", [0.0, 1.0, 2.0, 1e306], [0.0, np.inf, 5.0], {"scale_x": 1e3}),
        ],
    )
    @pytest.mark.parametrize("tag", enc.METHODS)
    def test_angle_errors_match_the_per_token_path(self, tag, case, columns, rows, scales):
        pos = _grid(columns, rows)
        assert enc._grid_shape(pos) == (3, 4)
        method = self.configure(tag, 24, **scales)
        with pytest.raises(ValueError) as want:
            enc.token_band_angles(method, pos)
        with pytest.raises(ValueError) as got:
            enc.block_maps(method, pos)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("position angle")


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
        ux, uy = method.axes.unit_x[0], method.axes.unit_y[0]
        ax, ay = enc.token_band_angles(method, self.POS)
        v = rng.standard_normal((len(self.POS), 3))
        got = enc.quatro_rotate(
            v, self.POS, ux, uy, method.schedule.band_angles[5], *self.SCALES
        )
        assert np.array_equal(got, cl3.quatro_apply(v, ax[:, 5], ay[:, 5], ux, uy))

    def test_grad_differences_use_the_encoder_angles(self, monkeypatch):
        from garope import checks

        method = self.method()
        rotation = enc.ROTATIONS["rope1d"]
        seen = []

        def recorder(ax, ay, ux, uy):
            seen.append((np.asarray(ax), np.asarray(ay)))
            return rotation.build(ax, ay, ux, uy)

        monkeypatch.setitem(checks.ROTATIONS, "rope1d", dataclasses.replace(rotation, build=recorder))
        monkeypatch.setattr(checks, "GRAD_H_SWEEP", (0.0,))  # h = 0 leaves the angles as formed
        with np.errstate(divide="ignore", invalid="ignore"):
            checks.gradient_errors(3, self.POS, samples=40, scales=self.SCALES)
        # the first build is rope1d's angle_x case, drawn from stream [3, 0]
        rng = np.random.default_rng([3, 0])
        _, p, theta, _, _ = checks._grad_cases("rope1d", rng, self.POS, method.schedule, 40)
        token = np.argmax((self.POS[None, :, :] == p[:, None, :]).all(axis=-1), axis=1)
        band = np.argmax(method.schedule.band_angles[None, :] == theta[:, None], axis=1)
        want_x, want_y = enc.token_band_angles(method, self.POS)
        assert np.array_equal(seen[0][0], want_x[token, band])
        assert np.array_equal(seen[0][1], want_y[token, band])


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
        assert phase.dtype == np.complex128 and phase.shape == (1, 1024, 32)
        assert enc.ROTATIONS["rope1d"].phases == 1
        assert np.max(np.abs(np.abs(phase) - 1.0)) <= 1e-15

    def test_phase_components_are_cos_and_sin(self):
        angles = rng.uniform(-100.0, 100.0, (5, 4))
        phase = enc.ROTATIONS["rope1d"].build(angles, np.zeros_like(angles), None, None)
        assert phase.shape == (1, 5, 4)
        assert np.array_equal(phase.real[0], np.cos(angles))
        assert np.array_equal(phase.imag[0], np.sin(angles))

    def test_commutator_norm_is_zero(self):
        from garope import attention as att

        method = self.method(16)
        for band in range(method.schedule.num_bands):
            p_a, p_b = rng.uniform(-50.0, 50.0, (2, 2))
            assert att.commutator_norm(method, p_a, p_b, band=band) <= 1e-15
            assert att.commutator_norm(method, p_a, p_a, band=band) == 0.0


class TestTwoRotorQuaternion:
    """The closed-form two-rotor build against the quaternion oracle, with
    the (bands, 3) axes against (tokens, bands) angles of a block: column j
    of the rotation matrix of q is the sandwich q e_j q^-1."""

    TOKENS, BANDS = 40, 7

    def draw(self):
        u, v = enc.unit_axis(rng.standard_normal((2, self.BANDS, 3)))
        a, b = rng.uniform(-50.0, 50.0, (2, self.TOKENS, self.BANDS))
        return u, a, v, b

    def test_matches_the_quaternion_oracle(self):
        u, a, v, b = self.draw()
        q = hamilton_product(quat_rotor(u, a / 2.0), quat_rotor(v, b / 2.0))
        got = np.stack(enc._two_rotor_quaternion(u, a, v, b), axis=-1)
        assert got.shape == (self.TOKENS, self.BANDS, 4)
        assert np.max(np.abs(got - q)) <= 1e-15
        mats = enc.rotor_matrix(*np.moveaxis(got, -1, 0))
        columns = quat_sandwich(q[..., None, :], np.eye(3))  # [..., j, i] = M[i, j]
        assert np.max(np.abs(np.moveaxis(mats, (0, 1), (-1, -2)) - columns)) <= 1e-14

    def test_is_a_proper_rotation(self):
        mats = np.moveaxis(enc.rotor_matrix(*enc._two_rotor_quaternion(*self.draw())), (0, 1), (-2, -1))
        eye = np.einsum("...ij,...kj->...ik", mats, mats)
        assert np.max(np.abs(eye - np.eye(3))) <= 1e-14
        assert np.max(np.abs(np.linalg.det(mats) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("build", [enc._euler_phases, enc.rotor_matrix])
    def test_nan_angle_rejected(self, build):
        u, a, v, b = self.draw()
        a[3, 2] = np.nan
        with pytest.raises(ValueError, match="not unit norm"):
            build(*enc._two_rotor_quaternion(u, a, v, b))
        with pytest.raises(ValueError, match="not unit norm"):
            build(*enc._two_rotor_quaternion(u, b, v, a))


def _unit_rows(q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


class TestEulerPhases:
    """The three phases of a unit quaternion turn a 3-wide carrier as its
    rotation matrix does, also where beta is 0 or pi and only alpha + gamma
    or alpha - gamma is defined."""

    EDGES = _unit_rows(
        [
            [1.0, 0.0, 0.0, 0.0],  # identity: B = 0
            [0.0, 1.0, 0.0, 0.0],  # a half turn about x: A = 0
            [0.0, 0.0, 0.0, 1.0],  # a half turn about z: B = 0
            [0.0, 0.0, 1.0, 0.0],  # a half turn about y: A = 0
            [0.6, 0.0, 0.0, -0.8],  # beta = 0, alpha + gamma only
            [0.0, -0.28, 0.96, 0.0],  # beta = pi, alpha - gamma only
            [1.0, 1e-160, 0.0, 0.0],  # |A||B| squared underflows: beta about 2e-160
            [1e-160, 0.0, -1.0, 1e-170],  # beta about pi
            [1.0, 1e-9, -2e-9, 0.5],  # a turn of a few 1e-9 in beta
            [-1.0, 0.0, 0.0, 0.0],  # -q turns as q
        ]
    )

    @staticmethod
    def turned(phases) -> np.ndarray:
        """(..., 3, 3) matrices whose column j is e_j turned by the phases."""
        columns = enc.apply_maps("quatro", phases[..., None], np.eye(3))  # [..., j, i]
        return np.swapaxes(columns, -1, -2)

    def test_matches_the_rotation_matrix(self):
        q = np.concatenate([self.EDGES, _unit_rows(rng.standard_normal((500, 4)))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phases = enc._euler_phases(*q.T)
        assert phases.shape == (3, len(q)) and phases.dtype == np.complex128
        assert np.max(np.abs(np.abs(phases) - 1.0)) <= 1e-15
        want = np.moveaxis(enc.rotor_matrix(*q.T), (0, 1), (-2, -1))
        assert np.max(np.abs(self.turned(phases) - want)) <= 2e-15

    def test_care_turns_both_triples_by_the_rotation_matrix(self):
        # care's sequence turns (e1, e2, e3) and (e23, e31, e12) by the M
        # of the same quaternion, and copies the scalar and e123 slots: the
        # 8x8 map is block-diag(1, M, M, 1) in those slots, and its inverse
        # the transpose
        q = np.concatenate([self.EDGES, _unit_rows(rng.standard_normal((500, 4)))])
        phases = enc._euler_phases(*q.T)
        m = np.moveaxis(enc.rotor_matrix(*q.T), (0, 1), (-2, -1))
        want = np.zeros((len(q), 8, 8))
        want[:, 0, 0] = want[:, 7, 7] = 1.0
        for triple in (enc.CARE_VECTOR_SLOTS, enc.CARE_BIVECTOR_SLOTS):
            want[:, np.array(triple)[:, None], np.array(triple)] = m
        for maps, mats in ((phases, want), (enc.ROTATIONS["care"].invert(phases), np.swapaxes(want, -1, -2))):
            turned = enc.apply_maps("care", maps[..., None], np.eye(8))  # [..., j, i]
            assert np.max(np.abs(np.swapaxes(turned, -1, -2) - mats)) <= 2e-15

    def test_zero_b_keeps_only_the_phase_of_a(self):
        q = self.EDGES[4]  # A = 0.6 - 0.8i, B = 0
        phases = enc._euler_phases(*q)
        assert phases[1] == 1.0
        assert phases[0] == phases[2] == 0.6 - 0.8j

    def test_non_unit_quaternion_rejected(self):
        q = _unit_rows(rng.standard_normal((5, 4)))
        q[2, 1] = np.nan
        for bad in (q, 1.1 * self.EDGES):
            with pytest.raises(ValueError, match="^quaternion rotor is not unit norm$"):
                enc._euler_phases(*bad.T)


class TestRotationGradient:
    def fd(self, tag, v, ax, ay, ux, uy, coordinate, h=1e-5):
        def f(dx, dy):
            return cl3.ORACLES[tag](v, ax + dx, ay + dy, ux, uy)

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
            uy = ux if enc.ROTATIONS[tag].free_axes == 1 else unit3()
            g = cl3.rotation_gradient(tag, coordinate, v, *enc.position_angles(p, theta, 1.2, 0.8), ux, uy)
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
        uy = ux if enc.ROTATIONS[tag].free_axes == 1 else enc.unit_axis(rng.standard_normal((n, 3)))
        ax, ay = enc.position_angles(p, theta, 1.2, 0.8)
        batch = cl3.rotation_gradient(tag, coordinate, v, ax, ay, ux, uy)
        single = np.array(
            [cl3.rotation_gradient(tag, coordinate, v[i], ax[i], ay[i], ux[i], uy[i]) for i in range(n)]
        )
        assert batch.shape == v.shape
        assert np.array_equal(batch, single)  # same arithmetic, element by element

    def test_planar_derivative_at_zero(self):
        # rotating e1 in the e12-style plane: derivative at angle 0 points
        # along the second axis with unit magnitude
        angles = enc.position_angles((0.0, 0.0), 1.0, 1.0, 1.0)
        g = cl3.rotation_gradient("rope1d", "angle_x", np.array([1.0, 0.0]), *angles)
        assert np.max(np.abs(g - [0.0, 1.0])) < 1e-15

    def test_rope1d_has_no_y_sensitivity(self):
        v = rng.standard_normal(2)
        g = cl3.rotation_gradient("rope1d", "angle_y", v, *enc.position_angles((1.0, 2.0), 0.7, 1.0, 1.0))
        assert np.array_equal(g, np.zeros(2))

    def test_care_invariant_slots_have_zero_gradient(self):
        for coordinate in ("angle_x", "angle_y"):
            m = rng.standard_normal(8)
            angles = enc.position_angles((1.3, -0.8), 0.9, 1.0, 1.0)
            g = cl3.rotation_gradient("care", coordinate, m, *angles, unit3(), unit3())
            assert np.max(np.abs(g[[0, 7]])) <= 1e-10

    def test_unknown_coordinate_rejected(self):
        with pytest.raises(ValueError):
            cl3.rotation_gradient("rope1d", "angle_z", np.zeros(2), 0.0, 0.0)

    def test_generator_table_lists_the_methods_in_order(self):
        assert tuple(cl3.GENERATORS) == enc.METHODS
        assert {outer for outer, _ in cl3.GENERATORS.values()} == {"angle_x", "angle_y"}

    @pytest.mark.parametrize("tag", ["mixed", "quatro", "care"])
    @pytest.mark.parametrize("coordinate", ["angle_x", "angle_y"])
    def test_non_unit_axis_rejected(self, tag, coordinate):
        # the oracles and the gradient take unit axes and normalize none
        v = np.ones(enc.METHOD_WIDTHS[tag])
        axis = np.array([0.0, 2.0, 0.0])
        for call in (
            lambda: cl3.ORACLES[tag](v, 0.3, 0.5, axis, axis),
            lambda: cl3.rotation_gradient(tag, coordinate, v, 0.3, 0.5, axis, axis),
        ):
            with pytest.raises(ValueError, match="^rotation axis must be a unit 3-vector$"):
                call()


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
    once = cl3.rope1d_apply(cl3.rope1d_apply(v, angle), angle)
    twice = cl3.rope1d_apply(v, 2 * angle)
    assert np.max(np.abs(once - twice)) < 1e-12
