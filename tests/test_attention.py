"""Score harness: shift equivariance, witnesses, commutator probes."""

import numpy as np
import pytest

from garope import attention as att
from garope import encodings as enc
from garope import fixtures
from garope.encodings import EncodingMethod, TokenBlock, apply_encoding, grid_positions, random_block

rng = np.random.default_rng(8128)

PA = (np.pi / 2, 0.0)
PB = (0.0, np.pi / 2)


def small_block(head_dim=12, seed=5, grid=(4, 4)):
    return random_block(2, head_dim, grid_positions(*grid), seed=seed)


class TestScoreMatrix:
    def test_zero_positions_give_raw_dot_products(self):
        pos = np.zeros((7, 2))
        q = random_block(2, 12, pos, seed=1)
        k = random_block(2, 12, pos, seed=2)
        method = EncodingMethod.configure("quatro", 12)
        got = att.score_matrix(q, k, method).scores
        raw = (q.data @ k.data.transpose(0, 2, 1)) / np.sqrt(12.0)  # the same product, exactly
        assert np.array_equal(got, raw)

    def test_orthonormal_self_scores_are_scaled_identity(self):
        head_dim = 8
        data = np.eye(head_dim)[None]
        block = TokenBlock(data=data, positions=np.zeros((head_dim, 2)))
        method = EncodingMethod.configure("rope1d", head_dim)
        got = att.score_matrix(block, block, method).scores
        assert np.max(np.abs(got - np.eye(head_dim) / np.sqrt(head_dim))) < 1e-15

    def test_shape_mismatch_rejected(self):
        pos = np.zeros((3, 2))
        q = random_block(1, 8, pos, seed=0)
        k = random_block(2, 8, pos, seed=0)
        with pytest.raises(ValueError):
            att.score_matrix(q, k, EncodingMethod.configure("rope1d", 8))

    def test_position_mismatch_rejected(self):
        q = random_block(1, 8, np.zeros((3, 2)), seed=0)
        k = random_block(1, 8, np.ones((3, 2)), seed=0)
        with pytest.raises(ValueError):
            att.score_matrix(q, k, EncodingMethod.configure("rope1d", 8))

    @pytest.mark.parametrize("shape", [(1, 0, 8), (0, 3, 8)])
    def test_empty_blocks(self, shape):
        block = TokenBlock(data=np.zeros(shape), positions=np.zeros((shape[1], 2)))
        got = att.score_matrix(block, block, EncodingMethod.configure("care", 8)).scores
        assert got.shape == (shape[0], shape[1], shape[1])

    def test_scores_validation(self):
        with pytest.raises(ValueError):
            att.AttentionScores(scores=np.zeros((2, 3, 4)))
        bad = np.zeros((1, 2, 2))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            att.AttentionScores(scores=bad)

    def test_caller_array_keeps_its_flags(self):
        given = np.zeros((1, 3, 3))
        held = att.AttentionScores(scores=given).scores
        assert given.flags.writeable
        assert not held.flags.writeable
        assert np.shares_memory(given, held)


class TestScoreMatrixReference:
    """score_matrix against encoding q and k separately and contracting
    with einsum, with seeded random per-band axes and a non-zero origin."""

    POS = grid_positions(5, 6, origin=(7.0, -3.0))

    def method(self, tag, head_dim, seed):
        axes_rng = np.random.default_rng(seed)
        bands = head_dim // enc.METHOD_WIDTHS[tag]
        axes_x = axes_rng.standard_normal((bands, 3)) if tag in ("mixed", "quatro", "care") else None
        axes_y = axes_rng.standard_normal((bands, 3)) if tag in ("quatro", "care") else None
        return EncodingMethod.configure(tag, head_dim, axes_x=axes_x, axes_y=axes_y, scale_x=1.2)

    @pytest.mark.parametrize("tag", enc.METHODS)
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("head_dim", [64, 66])
    def test_matches_separate_encodes_and_einsum(self, tag, batch, head_dim):
        method = self.method(tag, head_dim, seed=head_dim + batch)
        q = random_block(batch, head_dim, self.POS, seed=3)
        k = random_block(batch, head_dim, self.POS, seed=4)
        qe, ke = apply_encoding(q, method).data, apply_encoding(k, method).data
        want = np.einsum("btd,bsd->bts", qe, ke) / np.sqrt(head_dim)
        got = att.score_matrix(q, k, method).scores
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        self_want = np.einsum("btd,bsd->bts", qe, qe) / np.sqrt(head_dim)
        self_got = att.score_matrix(q, q, method).scores
        assert np.max(np.abs(self_got - self_want)) <= 1e-13 * np.max(np.abs(self_want))

    @pytest.mark.parametrize("rows_per_chunk", [1, 7])
    def test_chunked_product_matches_einsum(self, monkeypatch, rows_per_chunk):
        method = self.method("quatro", 66, seed=2)
        q = random_block(2, 66, self.POS, seed=3)
        k = random_block(2, 66, self.POS, seed=4)
        qe, ke = apply_encoding(q, method).data, apply_encoding(k, method).data
        want = np.einsum("btd,bsd->bts", qe, ke) / np.sqrt(66)
        monkeypatch.setattr(att, "PRODUCT_CHUNK_MULADDS", rows_per_chunk * q.tokens * 66)
        got = att.score_matrix(q, k, method).scores
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("same", [False, True])
    def test_one_map_build_per_score(self, monkeypatch, same):
        builds, rotations = [], []

        def counted(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(args[0])
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(enc, "rotation_maps", counted(builds, enc.rotation_maps))
        monkeypatch.setattr(att, "rotate_rows", counted(rotations, att.rotate_rows))
        method = self.method("care", 66, seed=1)
        q = random_block(2, 66, self.POS, seed=3)
        k = q if same else random_block(2, 66, self.POS, seed=4)
        att.score_matrix(q, k, method)
        assert len(builds) == 1
        assert len(rotations) == (1 if same else 2)  # a self-score rotates its block once
        assert rotations[0] is q.data and rotations[-1] is k.data  # the raw arrays, not blocks


class TestShiftPositions:
    def test_moves_every_position(self):
        block = small_block()
        moved = att.shift_positions(block, (2.5, -1.0))
        assert np.array_equal(moved.positions, block.positions + [2.5, -1.0])
        assert moved.data is block.data

    def test_bad_shift_shape(self):
        with pytest.raises(ValueError):
            att.shift_positions(small_block(), (1.0, 2.0, 3.0))


class TestShiftInvariance:
    """rope1d and mixed score by relative position; a common shift of all
    positions is invisible. spherical/quatro (non-parallel axes) are not."""

    def test_zero_shift_is_exact(self):
        block = small_block(head_dim=16)
        for tag in ("rope1d", "mixed", "spherical", "quatro", "care"):
            method = EncodingMethod.configure(tag, 16)
            assert att.shift_invariance_gap(method, block, (0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("tag", ["rope1d", "mixed"])
    def test_commuting_methods_are_shift_invariant(self, tag):
        method = EncodingMethod.configure(tag, 12)
        block = small_block()
        shifts = [np.array([5.0, -3.0])] + list(rng.uniform(-10, 10, (100, 2)))
        worst = max(att.shift_invariance_gap(method, block, s) for s in shifts)
        assert worst <= 1e-8

    def test_parallel_axis_quatro_is_shift_invariant(self):
        u = np.array([0.6, -0.3, 0.9])
        method = EncodingMethod.configure("quatro", 12, axes_x=u, axes_y=2.0 * u)
        block = small_block()
        worst = max(
            att.shift_invariance_gap(method, block, s) for s in rng.uniform(-5, 5, (20, 2))
        )
        assert worst <= 1e-12


class TestWitnesses:
    def test_frozen_witnesses_clear_the_floor(self):
        for fixture in fixtures.WITNESSES:
            gap = fixtures.evaluate_witness(fixture)
            assert gap > fixtures.WITNESS_GAP_FLOOR
            assert gap >= fixture.expected_gap

    def test_spherical_witness_value_pinned(self):
        assert fixtures.evaluate_witness(fixtures.SPHERICAL_WITNESS) == pytest.approx(
            1.684, abs=5e-3
        )

    def test_quatro_witness_value_pinned(self):
        assert fixtures.evaluate_witness(fixtures.QUATRO_WITNESS) == pytest.approx(
            2.509, abs=5e-3
        )

    def test_witness_is_deterministic(self):
        a = fixtures.evaluate_witness(fixtures.SPHERICAL_WITNESS)
        b = fixtures.evaluate_witness(fixtures.SPHERICAL_WITNESS)
        assert a == b


class TestCommutatorNorm:
    def test_spherical_quarter_turn_pair_does_not_commute(self):
        method = EncodingMethod.configure("spherical", 6)
        assert att.commutator_norm(method, PA, PB) > 0.1

    def test_care_default_axes_do_not_commute(self):
        method = EncodingMethod.configure("care", 16)
        assert att.commutator_norm(method, PA, PB) > 0.1

    def test_parallel_axis_quatro_commutes(self):
        u = np.array([1.0, 2.0, -1.0])
        method = EncodingMethod.configure("quatro", 6, axes_x=u, axes_y=2.0 * u)
        assert att.commutator_norm(method, PA, PB) <= 1e-12

    @pytest.mark.parametrize("tag", ["rope1d", "mixed"])
    def test_planar_methods_always_commute(self, tag):
        method = EncodingMethod.configure(tag, 8)
        for _ in range(10):
            p_a, p_b = rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2)
            assert att.commutator_norm(method, p_a, p_b) <= 1e-12

    def test_mixed_with_random_per_band_axes_commutes(self):
        method = EncodingMethod.configure("mixed", 12, axes_x=rng.standard_normal((4, 3)))
        for band in range(method.schedule.num_bands):
            p_a, p_b = rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2)
            assert att.commutator_norm(method, p_a, p_b, band=band) <= 1e-12

    @pytest.mark.parametrize("tag", ["quatro", "care"])
    def test_non_parallel_axes_do_not_commute(self, tag):
        method = EncodingMethod.configure(
            tag, 16, axes_x=np.array([1.0, 0.5, -0.25]), axes_y=np.array([-0.3, 0.9, 1.1])
        )
        assert att.commutator_norm(method, PA, PB) > 0.1

    def test_same_position_commutes_exactly(self):
        method = EncodingMethod.configure("spherical", 6)
        assert att.commutator_norm(method, PA, PA) == 0.0

    def test_gap_shrinks_with_band_frequency(self):
        method = EncodingMethod.configure("care", 16)
        g0 = att.commutator_norm(method, PA, PB, band=0)
        g1 = att.commutator_norm(method, PA, PB, band=1)
        assert g1 < g0

    def test_direction_count_floor(self):
        method = EncodingMethod.configure("spherical", 6)
        with pytest.raises(ValueError):
            att.commutator_norm(method, PA, PB, directions=99)

    def test_band_range_checked(self):
        method = EncodingMethod.configure("spherical", 6)
        with pytest.raises(ValueError):
            att.commutator_norm(method, PA, PB, band=2)
