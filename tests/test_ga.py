"""Generic Cl(n,0) engine: product table, rotors, sandwich conjugation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garope.ga import (
    Algebra,
    Multivector,
    Rotor,
    geometric_product,
    grade_project,
    mv_norm,
    reverse,
    rotor_exp,
    sandwich,
)

rng = np.random.default_rng(2024)


def blade(dim, name, coeff=1.0):
    return Algebra(dim).blade(name, coeff)


class TestAlgebraTables:
    def test_generators_square_to_one(self):
        alg = Algebra(3)
        for k in range(3):
            e = alg.blade(1 << k)
            assert (e * e).coeffs[0] == 1.0
            assert np.all((e * e).coeffs[1:] == 0.0)

    def test_distinct_generators_anticommute(self):
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            ei, ej = Algebra(3).blade(1 << i), Algebra(3).blade(1 << j)
            assert np.array_equal((ei * ej).coeffs, -(ej * ei).coeffs)

    def test_e1_e2_is_e12(self):
        out = blade(3, "e1") * blade(3, "e2")
        assert np.array_equal(out.coeffs, blade(3, "e12").coeffs)

    def test_e2_e1_is_minus_e12(self):
        out = blade(3, "e2") * blade(3, "e1")
        assert np.array_equal(out.coeffs, blade(3, "e12", -1.0).coeffs)

    def test_bivector_products_match_reference_table(self):
        # full even-subalgebra table: rows/cols e12, e23, e13
        e12, e23, e13 = (blade(3, n) for n in ("e12", "e23", "e13"))
        table = {
            ("e12", "e12"): -Multivector(3, np.eye(8)[0]),
            ("e12", "e23"): e13,
            ("e12", "e13"): -e23,
            ("e23", "e12"): -e13,
            ("e23", "e23"): -Multivector(3, np.eye(8)[0]),
            ("e23", "e13"): e12,
            ("e13", "e12"): e23,
            ("e13", "e23"): -e12,
            ("e13", "e13"): -Multivector(3, np.eye(8)[0]),
        }
        for (a, b), expected in table.items():
            got = blade(3, a) * blade(3, b)
            assert np.array_equal(got.coeffs, expected.coeffs), (a, b)

    def test_pseudoscalar_is_central_in_cl3(self):
        alg = Algebra(3)
        e123 = alg.blade("e123")
        for mask in range(8):
            b = alg.blade(mask)
            assert np.array_equal((e123 * b).coeffs, (b * e123).coeffs)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_associativity_random(self, dim):
        alg = Algebra(dim)
        for _ in range(20):
            a, b, c = (rng.standard_normal(alg.size) for _ in range(3))
            left = alg.gp(alg.gp(a, b), c)
            right = alg.gp(a, alg.gp(b, c))
            assert np.max(np.abs(left - right)) < 1e-12 * alg.size

    def test_batched_gp_matches_loop(self):
        alg = Algebra(3)
        a = rng.standard_normal((10, 8))
        b = rng.standard_normal((10, 8))
        batched = alg.gp(a, b)
        for k in range(10):
            assert np.array_equal(batched[k], alg.gp(a[k], b[k]))

    def test_algebra_is_cached(self):
        assert Algebra(3) is Algebra(3)

    @pytest.mark.parametrize("dim", [0, 13, -1])
    def test_dimension_bounds(self, dim):
        with pytest.raises(ValueError):
            Algebra(dim)

    def test_blade_names_round_trip(self):
        alg = Algebra(4)
        for mask in range(16):
            assert alg.blade_mask(alg.blade_name(mask)) == mask


class TestMultivector:
    def test_immutability(self):
        mv = Multivector(3, np.zeros(8))
        with pytest.raises(AttributeError):
            mv.dim = 2
        with pytest.raises(ValueError):
            mv.coeffs[0] = 1.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Multivector(3, np.zeros(7))

    def test_grade_projection_partitions(self):
        mv = Multivector(3, rng.standard_normal(8))
        total = sum((mv.grade(g) for g in range(4)), Multivector(3, np.zeros(8)))
        assert np.array_equal(total.coeffs, mv.coeffs)

    def test_reverse_signs(self):
        # grades 0,1 fixed; 2,3 negated in Cl(3,0)
        mv = Multivector(3, np.ones(8))
        r = ~mv
        assert np.array_equal(r.coeffs, [1, 1, 1, -1, 1, -1, -1, -1])

    def test_scalar_arithmetic(self):
        mv = blade(3, "e1")
        assert (2.0 * mv).coeffs[1] == 2.0
        assert (mv * 0.5).coeffs[1] == 0.5
        assert (1 + mv).coeffs[0] == 1.0

    def test_norm_is_coefficient_norm(self):
        coeffs = rng.standard_normal(8)
        assert mv_norm(Multivector(3, coeffs)) == pytest.approx(np.linalg.norm(coeffs))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            geometric_product(Multivector(2, np.zeros(4)), Multivector(3, np.zeros(8)))


class TestRotor:
    def test_rejects_odd_grades(self):
        coeffs = np.zeros(8)
        coeffs[0], coeffs[1] = 1.0, 1e-300  # any nonzero odd coefficient
        with pytest.raises(ValueError):
            Rotor(3, coeffs)

    def test_rejects_non_unit(self):
        coeffs = np.zeros(8)
        coeffs[0] = 1.1
        with pytest.raises(ValueError):
            Rotor(3, coeffs)

    def test_rejects_nan(self):
        coeffs = np.zeros(8)
        coeffs[0] = np.nan
        with pytest.raises(ValueError, match="not unit"):
            Rotor(3, coeffs)

    def test_rotor_product_stays_rotor(self):
        r1 = rotor_exp(blade(3, "e12"), 0.3)
        r2 = rotor_exp(blade(3, "e23"), -1.1)
        assert isinstance(r1 * r2, Rotor)

    def test_exp_quarter_turn_coefficients(self):
        r = rotor_exp(blade(3, "e12"), np.pi / 4)
        assert r.coeffs[0] == pytest.approx(np.sqrt(0.5), abs=1e-15)
        assert r.coeffs[3] == pytest.approx(np.sqrt(0.5), abs=1e-15)
        assert np.all(r.coeffs[[1, 2, 4, 5, 6, 7]] == 0.0)

    def test_exp_requires_unit_bivector(self):
        with pytest.raises(ValueError):
            rotor_exp(blade(3, "e12", 2.0), 0.5)
        with pytest.raises(ValueError):
            rotor_exp(blade(3, "e1"), 0.5)

    def test_exp_rejects_nan_bivector(self):
        with pytest.raises(ValueError, match="unit bivector"):
            rotor_exp(blade(3, "e12", np.nan), 0.5)

    def test_exp_matches_power_series(self):
        biv = blade(3, "e12", 0.6) + blade(3, "e23", -0.8)
        h = 0.7
        series = Multivector(3, np.eye(8)[0])
        term = Multivector(3, np.eye(8)[0])
        for k in range(1, 30):
            term = term * biv * (h / k)
            series = series + term
        closed = rotor_exp(biv, h)
        assert np.max(np.abs(series.coeffs - closed.coeffs)) < 1e-14


class TestSandwich:
    def test_quarter_turn_sends_e1_to_minus_e2(self):
        r = rotor_exp(blade(3, "e12"), np.pi / 4)  # half-angle for a 90 degree turn
        out = sandwich(r, blade(3, "e1"))
        assert out.coeffs[2] == pytest.approx(-1.0, abs=1e-15)
        assert abs(out.coeffs[1]) < 1e-15

    def test_rotation_convention_in_e12_plane(self):
        theta = 0.37
        out = sandwich(rotor_exp(blade(3, "e12"), theta / 2), blade(3, "e1"))
        assert out.coeffs[1] == pytest.approx(np.cos(theta), abs=1e-15)
        assert out.coeffs[2] == pytest.approx(-np.sin(theta), abs=1e-15)

    def test_preserves_pseudoscalar(self):
        for _ in range(20):
            coeffs = np.zeros(8)
            coeffs[[3, 5, 6]] = rng.standard_normal(3)
            biv = Multivector(3, coeffs)
            r = rotor_exp(biv * (1.0 / biv.norm()), rng.uniform(-3, 3))
            out = sandwich(r, blade(3, "e123"))
            assert np.max(np.abs(out.coeffs - blade(3, "e123").coeffs)) < 1e-15

    def test_preserves_grades_and_norms(self):
        for _ in range(50):
            coeffs = np.zeros(8)
            coeffs[[3, 5, 6]] = rng.standard_normal(3)
            biv = Multivector(3, coeffs)
            r = rotor_exp(biv * (1.0 / biv.norm()), rng.uniform(-3, 3))
            mv = Multivector(3, rng.standard_normal(8))
            out = sandwich(r, mv)
            for g in range(4):
                assert out.grade(g).norm() == pytest.approx(mv.grade(g).norm(), abs=1e-12)

    def test_inverse_rotor_undoes(self):
        coeffs = np.zeros(8)
        coeffs[[3, 5, 6]] = [0.3, -0.5, 0.81]
        biv = Multivector(3, coeffs)
        r = rotor_exp(biv * (1.0 / biv.norm()), 1.234)
        mv = Multivector(3, rng.standard_normal(8))
        back = sandwich(~r, sandwich(r, mv))
        assert np.max(np.abs(back.coeffs - mv.coeffs)) < 1e-14

    def test_rejects_non_rotor(self):
        with pytest.raises(ValueError):
            sandwich(blade(3, "e1"), blade(3, "e2"))


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(-10, 10), min_size=8, max_size=8),
    plane=st.lists(st.floats(-1, 1), min_size=3, max_size=3),
    half=st.floats(-np.pi, np.pi),
)
def test_sandwich_preserves_norm_property(coeffs, plane, half):
    if np.linalg.norm(plane) < 1e-3:
        return
    bc = np.zeros(8)
    bc[[3, 5, 6]] = plane
    biv = Multivector(3, bc)
    r = rotor_exp(biv * (1.0 / biv.norm()), half)
    mv = Multivector(3, np.array(coeffs))
    out = sandwich(r, mv)
    assert mv_norm(out) == pytest.approx(mv_norm(mv), abs=1e-10)


def test_grade_project_range_check():
    with pytest.raises(ValueError):
        grade_project(Multivector(3, np.zeros(8)), 4)


def test_reverse_is_involution():
    mv = Multivector(4, rng.standard_normal(16))
    assert np.array_equal(reverse(reverse(mv)).coeffs, mv.coeffs)
