"""Generic Cl(n,0) engine on raw coefficient arrays: product table,
rotors, sandwich conjugation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garope import cl3
from garope.cl3 import mv8_bivector, mv8_rotor
from garope.ga import Algebra

rng = np.random.default_rng(2024)

ALG = Algebra(3)
# Cl(3,0) blade masks: bit k set means e_{k+1} is a factor
E1, E2, E12, E3, E13, E23, E123 = 1, 2, 3, 4, 5, 6, 7
ONE = np.eye(8)[0]


def blade(mask, coeff=1.0):
    out = np.zeros(8)
    out[mask] = coeff
    return out


def rotor_exp(plane, half):
    """cos(h) + sin(h) B for the unit bivector B along ``plane``, given as
    (e12, e13, e23) coefficients."""
    biv = np.zeros(8)
    biv[[E12, E13, E23]] = plane
    biv = biv * (1.0 / float(np.sqrt(np.dot(biv, biv))))
    rotor = math.sin(half) * biv
    rotor[0] = math.cos(half)
    return rotor


def sandwich(rotor, a):
    return ALG.gp(ALG.gp(rotor, a), ALG.reverse(rotor))


def norm(a):
    return float(np.sqrt(np.dot(a, a)))


class TestAlgebraTables:
    def test_generators_square_to_one(self):
        for k in range(3):
            e = blade(1 << k)
            assert ALG.gp(e, e)[0] == 1.0
            assert np.all(ALG.gp(e, e)[1:] == 0.0)

    def test_distinct_generators_anticommute(self):
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            ei, ej = blade(1 << i), blade(1 << j)
            assert np.array_equal(ALG.gp(ei, ej), -ALG.gp(ej, ei))

    def test_e1_e2_is_e12(self):
        assert np.array_equal(ALG.gp(blade(E1), blade(E2)), blade(E12))

    def test_e2_e1_is_minus_e12(self):
        assert np.array_equal(ALG.gp(blade(E2), blade(E1)), blade(E12, -1.0))

    def test_bivector_products_match_reference_table(self):
        # full even-subalgebra table: rows/cols e12, e23, e13
        table = {
            (E12, E12): -ONE,
            (E12, E23): blade(E13),
            (E12, E13): -blade(E23),
            (E23, E12): -blade(E13),
            (E23, E23): -ONE,
            (E23, E13): blade(E12),
            (E13, E12): blade(E23),
            (E13, E23): -blade(E12),
            (E13, E13): -ONE,
        }
        for (a, b), expected in table.items():
            assert np.array_equal(ALG.gp(blade(a), blade(b)), expected), (a, b)

    def test_pseudoscalar_is_central_in_cl3(self):
        e123 = blade(E123)
        for mask in range(8):
            b = blade(mask)
            assert np.array_equal(ALG.gp(e123, b), ALG.gp(b, e123))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_associativity_random(self, dim):
        alg = Algebra(dim)
        for _ in range(20):
            a, b, c = (rng.standard_normal(alg.size) for _ in range(3))
            left = alg.gp(alg.gp(a, b), c)
            right = alg.gp(a, alg.gp(b, c))
            assert np.max(np.abs(left - right)) < 1e-12 * alg.size

    def test_batched_gp_matches_loop(self):
        a = rng.standard_normal((10, 8))
        b = rng.standard_normal((10, 8))
        batched = ALG.gp(a, b)
        for k in range(10):
            assert np.array_equal(batched[k], ALG.gp(a[k], b[k]))

    def test_algebra_is_cached(self):
        assert Algebra(3) is Algebra(3)

    @pytest.mark.parametrize("dim", [0, 13, -1])
    def test_dimension_bounds(self, dim):
        with pytest.raises(ValueError):
            Algebra(dim)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("table", ["grades", "sign", "xor_perm", "reverse_signs"])
    def test_shared_tables_are_frozen(self, dim, table):
        arr = getattr(Algebra(dim), table)
        before = arr.copy()
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 5
        assert np.array_equal(getattr(Algebra(dim), table), before)


class TestMultivector:
    def test_grade_projection_partitions(self):
        mv = rng.standard_normal(8)
        total = sum(ALG.grade_project(mv, g) for g in range(4))
        assert np.array_equal(total, mv)

    def test_reverse_signs(self):
        # grades 0,1 fixed; 2,3 negated in Cl(3,0)
        assert np.array_equal(ALG.reverse(np.ones(8)), [1, 1, 1, -1, 1, -1, -1, -1])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ALG.gp(np.zeros(4), np.zeros(8))

    @pytest.mark.parametrize(
        "dim, length, message",
        [
            (3, 4, r"Cl\(3,0\) operands need a trailing axis of 8, got shapes \(4,\) and \(4,\)"),
            (2, 8, r"Cl\(2,0\) operands need a trailing axis of 4, got shapes \(8,\) and \(8,\)"),
        ],
    )
    def test_wrong_coefficient_count_is_named(self, dim, length, message):
        with pytest.raises(ValueError, match=message):
            Algebra(dim).gp(np.zeros(length), np.zeros(length))


class TestRotor:
    def test_rotor_product_stays_rotor(self):
        r = ALG.gp(rotor_exp([1.0, 0.0, 0.0], 0.3), rotor_exp([0.0, 0.0, 1.0], -1.1))
        assert np.all(r[ALG.grades % 2 == 1] == 0.0)
        assert abs(np.dot(r, r) - 1.0) < 1e-15

    def test_exp_quarter_turn_coefficients(self):
        # mv8_rotor's axis (1, 0, 0) names the e12 plane
        r = mv8_rotor([1.0, 0.0, 0.0], np.pi / 4)
        assert r[0] == pytest.approx(np.sqrt(0.5), abs=1e-15)
        assert r[3] == pytest.approx(np.sqrt(0.5), abs=1e-15)
        assert np.all(r[[1, 2, 4, 5, 6, 7]] == 0.0)

    def test_exp_matches_power_series(self):
        # mv8_rotor's closed form against exp(h B) summed in the generic
        # engine; the e13 component exercises the e31 slot's sign flip
        axis = np.array([0.6, -0.48, 0.64])
        biv = mv8_bivector(axis) * cl3._SLOT_ORIENTATION
        h = 0.7
        series = ONE.copy()
        term = ONE.copy()
        for k in range(1, 30):
            term = ALG.gp(term, biv) * (h / k)
            series = series + term
        closed = mv8_rotor(axis, h) * cl3._SLOT_ORIENTATION
        assert np.max(np.abs(series - closed)) < 1e-14

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="^rotation axis must be a unit 3-vector$"):
            mv8_rotor([0.0, 2.0, 0.0], 0.7)

    def test_axes_broadcast_against_one_angle(self):
        axes = np.array([[0.6, -0.48, 0.64], [0.0, 1.0, 0.0]])
        assert np.array_equal(mv8_rotor(axes, 0.7), np.stack([mv8_rotor(axis, 0.7) for axis in axes]))


class TestSandwich:
    def test_quarter_turn_sends_e1_to_minus_e2(self):
        r = rotor_exp([1.0, 0.0, 0.0], np.pi / 4)  # half-angle for a 90 degree turn
        out = sandwich(r, blade(E1))
        assert out[E2] == pytest.approx(-1.0, abs=1e-15)
        assert abs(out[E1]) < 1e-15

    def test_rotation_convention_in_e12_plane(self):
        theta = 0.37
        out = sandwich(rotor_exp([1.0, 0.0, 0.0], theta / 2), blade(E1))
        assert out[E1] == pytest.approx(np.cos(theta), abs=1e-15)
        assert out[E2] == pytest.approx(-np.sin(theta), abs=1e-15)

    def test_preserves_pseudoscalar(self):
        for _ in range(20):
            r = rotor_exp(rng.standard_normal(3), rng.uniform(-3, 3))
            out = sandwich(r, blade(E123))
            assert np.max(np.abs(out - blade(E123))) < 1e-15

    def test_preserves_grades_and_norms(self):
        for _ in range(50):
            r = rotor_exp(rng.standard_normal(3), rng.uniform(-3, 3))
            mv = rng.standard_normal(8)
            out = sandwich(r, mv)
            for g in range(4):
                got = norm(ALG.grade_project(out, g))
                assert got == pytest.approx(norm(ALG.grade_project(mv, g)), abs=1e-12)

    def test_inverse_rotor_undoes(self):
        r = rotor_exp([0.3, -0.5, 0.81], 1.234)
        mv = rng.standard_normal(8)
        back = sandwich(ALG.reverse(r), sandwich(r, mv))
        assert np.max(np.abs(back - mv)) < 1e-14


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(-10, 10), min_size=8, max_size=8),
    plane=st.lists(st.floats(-1, 1), min_size=3, max_size=3),
    half=st.floats(-np.pi, np.pi),
)
def test_sandwich_preserves_norm_property(coeffs, plane, half):
    if np.linalg.norm(plane) < 1e-3:
        return
    mv = np.array(coeffs)
    out = sandwich(rotor_exp(plane, half), mv)
    assert norm(out) == pytest.approx(norm(mv), abs=1e-10)


def test_grade_project_range_check():
    with pytest.raises(ValueError):
        ALG.grade_project(np.zeros(8), 4)


def test_reverse_is_involution():
    alg = Algebra(4)
    mv = rng.standard_normal(16)
    assert np.array_equal(alg.reverse(alg.reverse(mv)), mv)
