"""Quaternion algebra and its embedding into even Cl(3,0)."""

import numpy as np
import pytest

from garope.ga import Algebra, Multivector
from garope.quaternion import (
    conjugate,
    even_cl3_coeffs,
    hamilton_product,
    quat,
    quat_rotor,
    quat_sandwich,
    quat_to_rotation_matrix,
)

rng = np.random.default_rng(77)

I, J, K = quat(0, 1, 0, 0), quat(0, 0, 1, 0), quat(0, 0, 0, 1)
ONE = quat(1, 0, 0, 0)


class TestHamiltonProduct:
    def test_ij_is_k(self):
        assert np.array_equal(hamilton_product(I, J), K)

    def test_ji_is_minus_k(self):
        assert np.array_equal(hamilton_product(J, I), -K)

    def test_jk_is_i_and_ki_is_j(self):
        assert np.array_equal(hamilton_product(J, K), I)
        assert np.array_equal(hamilton_product(K, I), J)

    def test_squares_are_minus_one(self):
        for u in (I, J, K):
            assert np.array_equal(hamilton_product(u, u), -ONE)

    def test_identity(self):
        q = rng.standard_normal(4)
        assert np.array_equal(hamilton_product(ONE, q), q)
        assert np.array_equal(hamilton_product(q, ONE), q)

    def test_associative(self):
        p, q, r = (rng.standard_normal(4) for _ in range(3))
        left = hamilton_product(hamilton_product(p, q), r)
        right = hamilton_product(p, hamilton_product(q, r))
        assert np.max(np.abs(left - right)) < 1e-13

    def test_norm_multiplicative(self):
        p, q = rng.standard_normal(4), rng.standard_normal(4)
        n = np.linalg.norm(hamilton_product(p, q))
        assert n == pytest.approx(np.linalg.norm(p) * np.linalg.norm(q), rel=1e-13)

    def test_broadcasting(self):
        ps = rng.standard_normal((6, 4))
        q = rng.standard_normal(4)
        batched = hamilton_product(ps, q)
        for k in range(6):
            assert np.array_equal(batched[k], hamilton_product(ps[k], q))

    def test_conjugate_reverses_product(self):
        p, q = rng.standard_normal(4), rng.standard_normal(4)
        lhs = conjugate(hamilton_product(p, q))
        rhs = hamilton_product(conjugate(q), conjugate(p))
        assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestRotor:
    def test_rotor_is_unit(self):
        axes = rng.standard_normal((100, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        r = quat_rotor(axes, rng.uniform(-np.pi, np.pi, 100))
        assert np.max(np.abs(np.sum(r * r, axis=-1) - 1.0)) < 1e-14

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            quat_rotor(np.array([1.0, 1.0, 0.0]), 0.3)

    def test_rejects_nan_axis(self):
        with pytest.raises(ValueError, match="unit 3-vector"):
            quat_rotor(np.array([np.nan, 0.0, 0.0]), 0.3)

    def test_zero_angle_is_identity(self):
        r = quat_rotor(np.array([0.0, 0.0, 1.0]), 0.0)
        assert np.array_equal(r, ONE)


class TestSandwich:
    @pytest.mark.parametrize("apply", [lambda r: quat_sandwich(r, np.ones(3)), quat_to_rotation_matrix])
    def test_nan_rotor_rejected(self, apply):
        with pytest.raises(ValueError, match="not unit norm"):
            apply(np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_quarter_turn_about_k_sends_i_to_j(self):
        r = quat_rotor(np.array([0.0, 0.0, 1.0]), np.pi / 4)  # half angle
        out = quat_sandwich(r, np.array([1.0, 0.0, 0.0]))
        assert np.max(np.abs(out - [0.0, 1.0, 0.0])) < 1e-15

    def test_rotation_convention_about_i(self):
        theta = 0.41
        r = quat_rotor(np.array([1.0, 0.0, 0.0]), theta / 2)
        out = quat_sandwich(r, np.array([0.0, 1.0, 0.0]))
        # axis i turns the yz-plane: j -> cos j + sin k
        assert out[1] == pytest.approx(np.cos(theta), abs=1e-15)
        assert out[2] == pytest.approx(np.sin(theta), abs=1e-15)

    def test_matches_matrix_oracle(self):
        n = 1000
        axes = rng.standard_normal((n, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        r = quat_rotor(axes, rng.uniform(-np.pi, np.pi, n))
        v = rng.standard_normal((n, 3))
        via_sandwich = quat_sandwich(r, v)
        via_matrix = np.einsum("nij,nj->ni", quat_to_rotation_matrix(r), v)
        assert np.max(np.abs(via_sandwich - via_matrix)) < 1e-12

    def test_axis_is_fixed(self):
        axis = np.array([2.0, -1.0, 0.5]) / np.linalg.norm([2.0, -1.0, 0.5])
        r = quat_rotor(axis, 1.1)
        assert np.max(np.abs(quat_sandwich(r, axis) - axis)) < 1e-14

    def test_norm_preserved(self):
        axes = rng.standard_normal((50, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        r = quat_rotor(axes, rng.uniform(-np.pi, np.pi, 50))
        v = rng.standard_normal((50, 3))
        out = quat_sandwich(r, v)
        assert np.max(np.abs(np.linalg.norm(out, axis=-1) - np.linalg.norm(v, axis=-1))) < 1e-13

    def test_rejects_non_unit_rotor(self):
        with pytest.raises(ValueError):
            quat_sandwich(quat(1.0, 1.0, 0.0, 0.0), np.array([1.0, 0.0, 0.0]))


class TestRotationMatrix:
    def test_identity_quaternion(self):
        assert np.array_equal(quat_to_rotation_matrix(ONE), np.eye(3))

    def test_proper_orthogonal(self):
        axes = rng.standard_normal((30, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        mats = quat_to_rotation_matrix(quat_rotor(axes, rng.uniform(-np.pi, np.pi, 30)))
        eye = np.broadcast_to(np.eye(3), (30, 3, 3))
        assert np.max(np.abs(mats @ np.swapaxes(mats, -1, -2) - eye)) < 1e-14
        assert np.max(np.abs(np.linalg.det(mats) - 1.0)) < 1e-13


def embed(q) -> Multivector:
    return Multivector(3, even_cl3_coeffs(q))


class TestIsomorphism:
    def test_embedding_places_coefficients(self):
        coeffs = even_cl3_coeffs(quat(2.0, 3.0, 5.0, 7.0))
        alg = Algebra(3)
        assert coeffs[0] == 2.0
        assert coeffs[alg.blade_mask("e12")] == 3.0
        assert coeffs[alg.blade_mask("e23")] == 5.0
        assert coeffs[alg.blade_mask("e13")] == 7.0
        assert np.count_nonzero(coeffs) == 4

    def test_row_embedding_matches_single_embedding(self):
        q = rng.standard_normal((6, 5, 4))
        rows = even_cl3_coeffs(q)
        assert rows.shape == (6, 5, 8)
        for i in range(6):
            for j in range(5):
                assert np.array_equal(rows[i, j], even_cl3_coeffs(q[i, j]))

    def test_all_basis_products_exact(self):
        basis = np.eye(4)
        for a in range(4):
            for b in range(4):
                ham = embed(hamilton_product(basis[a], basis[b]))
                ga = embed(basis[a]) * embed(basis[b])
                assert np.array_equal(ham.coeffs, ga.coeffs), (a, b)

    def test_homomorphism_on_random_pairs(self):
        worst = 0.0
        for _ in range(1000):
            p, q = rng.standard_normal(4), rng.standard_normal(4)
            ham = embed(hamilton_product(p, q)).coeffs
            ga = (embed(p) * embed(q)).coeffs
            worst = max(worst, float(np.max(np.abs(ham - ga))))
        assert worst < 1e-12

    def test_conjugate_maps_to_reverse(self):
        q = rng.standard_normal(4)
        lhs = embed(conjugate(q))
        rhs = ~embed(q)
        assert np.array_equal(lhs.coeffs, rhs.coeffs)
