"""The 8-slot Cl(3,0) product and rotor sandwich against the engine oracle."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import garope
from garope import cl3
from garope.ga import Algebra
from garope.encodings import mv8_rotor
from garope.quaternion import even_cl3_coeffs

rng = np.random.default_rng(5150)

ORIENT = np.array(cl3._SLOT_ORIENTATION, dtype=np.float64)


def oracle_product(a_rows, b_rows):
    """Geometric product on mv8 rows through the dense blade-table engine."""
    alg = Algebra(3)
    return ORIENT * alg.gp(a_rows * ORIENT, b_rows * ORIENT)


def random_rotors(n):
    axes = rng.standard_normal((n, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    half = rng.uniform(-np.pi, np.pi, n)
    rows = np.zeros((n, 8))
    rows[:, 0] = np.cos(half)
    rows[:, 3] = np.sin(half) * axes[:, 0]
    rows[:, 6] = np.sin(half) * axes[:, 1]
    rows[:, 5] = -np.sin(half) * axes[:, 2]
    return rows


class TestProductTable:
    def test_frozen_terms_match_rederivation(self):
        # perfbench counts product flops from this table; re-derive it
        # from the product and require exact agreement
        assert cl3.derive_product_terms() == cl3.PRODUCT_TERMS

    def test_product_vs_oracle_large_batch(self):
        n = 10_000
        a = rng.standard_normal((n, 8))
        b = rng.standard_normal((n, 8))
        assert np.max(np.abs(cl3.mv8_product(a, b) - oracle_product(a, b))) <= 1e-13

    def test_sandwich_vs_oracle_large_batch(self):
        n = 10_000
        r = random_rotors(n)
        a = rng.standard_normal((n, 8))
        fast = cl3.mv8_rotor_sandwich(r, a)
        slow = oracle_product(oracle_product(r, a), cl3.mv8_reverse(r))
        assert np.max(np.abs(fast - slow)) <= 1e-13

    def test_product_broadcasts(self):
        a = rng.standard_normal((4, 1, 8))
        b = rng.standard_normal((3, 8))
        out = cl3.mv8_product(a, b)
        assert out.shape == (4, 3, 8)
        for i in range(4):
            for j in range(3):
                assert np.array_equal(out[i, j], cl3.mv8_product(a[i, 0], b[j]))

    def test_trailing_axis_validated(self):
        with pytest.raises(ValueError, match="trailing axis of 8"):
            cl3.mv8_product(np.zeros(7), np.zeros(7))
        with pytest.raises(ValueError, match="trailing axis of 8"):  # would broadcast to 8
            cl3.mv8_product(np.zeros(1), np.zeros(8))
        with pytest.raises(ValueError, match="trailing axis of 8"):
            cl3.mv8_rotor_sandwich(np.zeros(4), np.zeros(8))


class TestGenericOracle:
    def test_product_is_the_oriented_engine_product(self):
        a = rng.standard_normal((50, 8))
        b = rng.standard_normal((50, 8))
        assert np.array_equal(cl3.mv8_product(a, b), oracle_product(a, b))
        e1, e3 = np.eye(8)[1], np.eye(8)[4]
        assert np.array_equal(cl3.mv8_product(e3, e1), np.eye(8)[5])  # e3 e1 = e31

    def test_sandwich_broadcasts_one_rotor_over_a_batch(self):
        r = random_rotors(6)
        a = rng.standard_normal((3, 6, 8))
        tiled = np.broadcast_to(r, a.shape).reshape(-1, 8)
        want = cl3.mv8_rotor_sandwich(tiled, a.reshape(-1, 8)).reshape(a.shape)
        assert np.array_equal(cl3.mv8_rotor_sandwich(r, a), want)


class TestRotorSandwich:
    def test_rejects_odd_slots(self):
        r = np.zeros(8)
        r[0], r[1] = 1.0, 1e-9
        with pytest.raises(ValueError):
            cl3.mv8_rotor_sandwich(r, np.zeros(8))

    def test_rejects_non_unit(self):
        r = np.zeros(8)
        r[0] = 0.5
        with pytest.raises(ValueError):
            cl3.mv8_rotor_sandwich(r, np.zeros(8))

    def test_rejects_nan_rotor(self):
        # abs(nan - 1) > tol is False, so the unit check must be written
        # the other way round to catch it
        r = np.zeros(8)
        r[0] = np.nan
        with pytest.raises(ValueError, match="unit norm"):
            cl3.mv8_rotor_sandwich(r, np.ones(8))

    def test_is_two_products_of_the_kernel(self):
        r = random_rotors(300)
        a = rng.standard_normal((300, 8))
        want = cl3.mv8_product(cl3.mv8_product(r, a), cl3.mv8_reverse(r))
        assert cl3.mv8_rotor_sandwich(r, a).tobytes() == want.tobytes()

    def test_one_rotor_broadcasts_over_a_batch(self):
        r = random_rotors(1)[0]
        a = rng.standard_normal((4, 5, 8))
        want = cl3.mv8_product(cl3.mv8_product(r, a), cl3.mv8_reverse(r))
        got = cl3.mv8_rotor_sandwich(r, a)
        assert got.shape == (4, 5, 8)
        assert got.tobytes() == want.tobytes()

    def test_scalar_and_pseudoscalar_pass_through(self):
        r = random_rotors(500)
        a = rng.standard_normal((500, 8))
        out = cl3.mv8_rotor_sandwich(r, a)
        scale = np.maximum(1.0, np.abs(a[:, [0, 7]]))
        assert np.max(np.abs(out[:, [0, 7]] - a[:, [0, 7]]) / scale) < 1e-15

    def test_grade_norms_preserved(self):
        r = random_rotors(500)
        a = rng.standard_normal((500, 8))
        out = cl3.mv8_rotor_sandwich(r, a)
        for slots in ((1, 2, 4), (3, 5, 6)):
            before = np.linalg.norm(a[:, slots], axis=-1)
            after = np.linalg.norm(out[:, slots], axis=-1)
            assert np.max(np.abs(after - before)) < 1e-13

    def test_reverse_undoes(self):
        r = random_rotors(100)
        a = rng.standard_normal((100, 8))
        back = cl3.mv8_rotor_sandwich(cl3.mv8_reverse(r), cl3.mv8_rotor_sandwich(r, a))
        assert np.max(np.abs(back - a)) < 1e-13


# Everything the benchmark harness reads from garope, in a fresh
# interpreter, after it has run ``import garope.cli`` and ``from garope
# import cl3`` (see perfbench/spans.py, Tracer.install), with the line that
# reads it. A change that drops one of these names fails here, not only in
# the benchmark.
PERFBENCH_READS = {
    "cl3.backend_name()": "perfbench/run.py:83 (environment)",
    "cl3.PRODUCT_TERMS": "perfbench/spans.py:137 and perfbench/test_perfbench.py:205",
    **{
        f"sys.modules['garope.{module}']": "perfbench/spans.py:138 (Tracer.install, spans.MODULES)"
        for module in (
            "cli", "formats", "attention", "checks", "encodings", "quaternion", "cl3", "_cl3_numpy", "ga",
        )
    },
    **{
        f"garope.{target}": "perfbench/spans.py:33 (spans.EXTRA_TARGETS)"
        for target in (
            "ga.Algebra.gp", "encodings.EncodingMethod.configure", "encodings.TokenBlock.__post_init__",
        )
    },
    **{
        f"garope.encodings.{tag}_rotate": "perfbench/workloads.py:83-97 (bulk and attend gates)"
        for tag in ("rope1d", "mixed", "spherical", "quatro", "care")
    },
    "garope.encodings.METHOD_WIDTHS": "perfbench/workloads.py:76 and :409",
    "garope.encodings.METHODS": "perfbench/metrics.py:15 and perfbench/workloads.py:25",
    "garope.encodings.grid_positions": "perfbench/workloads.py:25",
    "garope.encodings.apply_encoding": "perfbench/workloads.py:246 and perfbench/setup_probe.py:30",
    "garope.attention.score_matrix": "perfbench/workloads.py:309 and perfbench/setup_probe.py:32",
    "garope.formats.write_tensor": "perfbench/workloads.py:421",
    "garope.cli.main": "perfbench/workloads.py:452 and perfbench/cli_launcher.py:29",
}


@functools.cache
def _perfbench_reads() -> dict:
    script = (
        "import json, sys\n"
        "import garope.cli\n"
        "from garope import cl3\n"
        "def found(expr):\n"
        "    try:\n"
        "        return eval(expr) is not None\n"
        "    except (AttributeError, KeyError):\n"
        "        return False\n"
        f"print(json.dumps({{expr: found(expr) for expr in {list(PERFBENCH_READS)!r}}}))\n"
    )
    src = str(Path(garope.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return json.loads(done.stdout)


class TestBackends:
    def test_backend_name_is_known(self):
        assert cl3.backend_name() == "numpy"

    @pytest.mark.parametrize("expr", list(PERFBENCH_READS))
    def test_names_the_benchmark_reads_stay_loaded(self, expr):
        assert _perfbench_reads()[expr], f"{expr} is gone, but {PERFBENCH_READS[expr]} reads it"

    @pytest.mark.parametrize("name", ["REVERSE_SIGNS", "_SLOT_ORIENTATION"])
    def test_sign_tables_are_frozen(self, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(cl3, name)[3] = 0.0


class TestConversions:
    def test_slot_five_sign_flip(self):
        # e1 e3 = e13 = -e31, and slot 5 stores the e31 orientation
        e1, e3 = np.eye(8)[1], np.eye(8)[4]
        slots = cl3.mv8_product(e1, e3)
        assert slots[5] == -1.0 and np.count_nonzero(slots) == 1
        assert np.array_equal(Algebra(3).gp(e1, e3), slots * ORIENT)  # +e13 on mask 5

    def test_product_matches_multivector_product(self):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        via_slots = cl3.mv8_product(a * ORIENT, b * ORIENT) * ORIENT
        assert np.max(np.abs(via_slots - Algebra(3).gp(a, b))) < 1e-14

    def test_quaternion_rotor_between_layouts(self):
        # a quaternion rotor embedded in even Cl(3,0) lands on the same mv8
        # slots the encodings build directly
        q = np.array([np.cos(0.4), np.sin(0.4), 0.0, 0.0])  # rotor about i
        slots = even_cl3_coeffs(q) * ORIENT
        assert slots[0] == q[0] and slots[3] == q[1]
        assert np.all(slots[[1, 2, 4, 7]] == 0.0)
        assert np.array_equal(slots, mv8_rotor([1.0, 0.0, 0.0], 0.4))
