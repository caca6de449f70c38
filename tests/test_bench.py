"""Kernel benchmark harness (small workloads; timing itself is not asserted)."""

import numpy as np
import pytest

from garope import bench, cl3
from garope.encodings import METHODS, EncodingMethod, apply_encoding, grid_positions, random_block
from garope.ga import Algebra


def tiny_report(**overrides):
    params = dict(positions=grid_positions(3, 4), batch=1, head_dim=16, reps=30, seed=3)
    params.update(overrides)
    return bench.run_bench(**params)


class TestRunBench:
    def test_default_kernel_set(self):
        assert tuple(r.kernel for r in tiny_report().rows) == METHODS

    def test_rows_cover_requested_kernels(self):
        report = tiny_report(kernels=("rope1d", "care"))
        assert [r.kernel for r in report.rows] == ["rope1d", "care"]
        for row in report.rows:
            assert (row.batch, row.tokens, row.head_dim, row.reps) == (1, 12, 16, 30)
            assert row.min_ns > 0
            assert row.min_ns <= row.median_ns
            assert row.min_ns <= row.mean_ns
            assert row.rot_per_sec == pytest.approx(1e9 / row.median_ns)

    def test_band_counts_per_kernel(self):
        report = tiny_report(kernels=("rope1d", "quatro", "care"))
        bands = {r.kernel: r.bands for r in report.rows}
        assert bands == {"rope1d": 8, "quatro": 5, "care": 2}

    def test_checksum_is_reproducible(self):
        a = tiny_report(kernels=("quatro",)).rows[0].checksum
        b = tiny_report(kernels=("quatro",)).rows[0].checksum
        assert a == b

    def test_checksum_matches_direct_encoding(self):
        report = tiny_report(kernels=("care",))
        block = random_block(1, 16, grid_positions(3, 4), seed=3)
        # run_bench seeds its block identically
        rng = np.random.default_rng(3)
        data = rng.standard_normal((1, 12, 16))
        assert np.array_equal(block.data, data)
        out = apply_encoding(block, EncodingMethod.configure("care", 16))
        assert report.rows[0].checksum == float(np.sum(out.data))

    def test_reps_floor_enforced(self):
        with pytest.raises(ValueError, match="reps"):
            tiny_report(reps=29)

    def test_sizes_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            tiny_report(positions=grid_positions(0, 4))

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            tiny_report(kernels=("rope1d", "warp_drive"))
        with pytest.raises(ValueError, match="unknown kernel 'care_generic'"):
            tiny_report(kernels=("care_generic",))

    def test_repeated_kernel_rejected(self):
        with pytest.raises(ValueError, match="^kernel 'rope1d' is listed twice$"):
            tiny_report(kernels=("rope1d", "mixed", "rope1d"))

    def test_prime_token_count_still_works(self):
        report = tiny_report(positions=grid_positions(1, 13), kernels=("rope1d",))
        assert report.rows[0].tokens == 13


class TestCsv:
    def test_header_and_shape(self):
        report = tiny_report(kernels=("rope1d", "care"))
        text = report.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "kernel,batch,tokens,head_dim,reps,min_ns,median_ns,mean_ns,rot_per_sec,checksum"
        assert len(lines) == 3
        assert text.endswith("\n")

    def test_rows_parse_back(self):
        report = tiny_report(kernels=("quatro",))
        lines = report.to_csv().strip().split("\n")
        fields = lines[1].split(",")
        assert fields[0] == "quatro"
        assert [int(f) for f in fields[1:5]] == [1, 12, 16, 30]
        assert float(fields[5]) <= float(fields[6])
        # checksum is repr'd at full precision
        assert float(fields[9]) == report.rows[0].checksum


class TestGenericEngineAgreement:
    def test_generic_rotor_sandwich_is_the_oracle(self):
        rng = np.random.default_rng(14)
        half = rng.standard_normal(5)
        axis = rng.standard_normal((5, 3))
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        from garope.encodings import mv8_rotor

        rotors = mv8_rotor(axis, half)
        rows = rng.standard_normal((5, 8))
        fast = cl3.mv8_rotor_sandwich(rotors, rows)
        alg, orient = Algebra(3), cl3._SLOT_ORIENTATION
        r, m = rotors * orient, rows * orient
        generic = alg.gp(alg.gp(r, m), alg.reverse(r)) * orient
        assert np.max(np.abs(fast - generic)) <= 1e-13
