"""End-to-end command-line behavior: exit codes, determinism, file I/O."""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garope import cl3, cli, encodings
from garope.encodings import (
    METHOD_WIDTHS,
    METHODS,
    EncodingMethod,
    TokenBlock,
    apply_encoding,
    grid_positions,
)
from garope.formats import read_tensor, write_tensor
from garope.ga import Algebra


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_all_suites_pass(self, capsys):
        code, out, err = run(capsys, ["check", "--seed", "0"])
        assert code == cli.EXIT_OK
        assert err == ""
        lines = out.strip().split("\n")
        assert len(lines) == 10
        assert all(line.startswith("ok  ") for line in lines[:-1])
        assert lines[-1] == "9/9 suites passed (seed 0)"

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["check", "--seed", "7"])
        _, second, _ = run(capsys, ["check", "--seed", "7"])
        assert first == second

    def test_seed_changes_details(self, capsys):
        _, a, _ = run(capsys, ["check", "--seed", "1"])
        _, b, _ = run(capsys, ["check", "--seed", "2"])
        assert a != b
        assert a.endswith("(seed 1)\n")

    def test_output_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run(capsys, ["check", "--seed", "0", "--output", str(path)])
        assert code == cli.EXIT_OK
        assert out == ""
        assert path.read_text().endswith("9/9 suites passed (seed 0)\n")

    def test_kernel_mutation_is_caught_by_oracle_suite(self, capsys, monkeypatch):
        # Negating the product would hide: R and -R rotate alike. Swapping
        # the factors, or reading slot 5 as e13 (the e31 flip left out),
        # turns care's rotors wrong, and the suites that hold care to the
        # quaternion and rotor oracles must notice and name themselves.
        orig = cl3.mv8_product
        mutations = (lambda a, b: orig(b, a), lambda a, b: Algebra(3).gp(a, b))
        for mutation in mutations:
            monkeypatch.setattr(cl3, "mv8_product", mutation)
            code, out, err = run(capsys, ["check", "--seed", "0"])
            assert code == cli.EXIT_PROPERTY
            assert "FAIL rotary-reductions" in out
            assert "FAIL encoder-oracle-agreement" in out
            assert err == "failing suites: rotary-reductions, encoder-oracle-agreement\n"

    # Each mutation keeps every map orthogonal, so norms and round trips
    # hold and the comparison with the rotor oracles fails. The norm and
    # equivariance suites run the mutated encoder too and still pass;
    # under the quatro and coordinate mutations their printed maxima and
    # witness gaps move, so only their verdicts are compared. Swapping the
    # coordinates gives every grid token the same maps (the first row's
    # angle_x reads its one p_y, the first column's angle_y its one p_x),
    # so the equivariance witness gap closes and that suite fails as well.
    MAP_MUTATIONS = {
        "quatro_transposed": ("quatro", lambda b: lambda *a: b(*a).swapaxes(0, 1)),
        "quatro_axes_swapped": ("quatro", lambda b: lambda ax, ay, ux, uy: b(ax, ay, uy, ux)),
        "care_in_quatro_order": (
            "care",
            lambda b: lambda ax, ay, ux, uy: encodings._two_rotor_matrix(
                encodings.grade1_rotation_axis(ux), ax, encodings.grade1_rotation_axis(uy), ay
            ),
        ),
        "rope1d_reads_p_y": ("rope1d", lambda b: lambda ax, ay, ux, uy: b(ay, ax, ux, uy)),
    }
    DETAILS_MOVE = ("quatro_transposed", "quatro_axes_swapped", "coordinates_swapped")

    @pytest.mark.parametrize("mutation", [*MAP_MUTATIONS, "coordinates_swapped"])
    def test_encoder_mutation_is_caught_by_encoder_suite(self, capsys, monkeypatch, mutation):
        _, clean, _ = run(capsys, ["check", "--seed", "0"])
        if mutation == "coordinates_swapped":
            angles = encodings.token_band_angles
            monkeypatch.setattr(
                encodings, "token_band_angles", lambda m, p: angles(m, np.asarray(p)[:, ::-1])
            )
        else:
            tag, wrap = self.MAP_MUTATIONS[mutation]
            rotation = encodings.ROTATIONS[tag]
            monkeypatch.setitem(
                encodings.ROTATIONS, tag, dataclasses.replace(rotation, build=wrap(rotation.build))
            )
        code, out, err = run(capsys, ["check", "--seed", "0"])
        assert code == cli.EXIT_PROPERTY
        failing = ["encoder-oracle-agreement"]
        if mutation == "coordinates_swapped":
            failing.insert(0, "harness-equivariance")
        assert err == f"failing suites: {', '.join(failing)}\n"
        lines, clean_lines = out.split("\n"), clean.split("\n")
        assert lines[8].startswith("FAIL encoder-oracle-agreement: encoder vs rotor oracle")
        assert lines[9] == f"{9 - len(failing)}/9 suites passed (seed 0)"
        moved = ("rotary-norm-preservation", "harness-equivariance")
        for line, clean_line in zip(lines[:8], clean_lines[:8]):
            name = clean_line.split(":")[0][5:]
            if name in failing:
                assert line.startswith(f"FAIL {name}: witness gap ")
            elif mutation in self.DETAILS_MOVE and name in moved:
                assert line.startswith("ok  ")
            else:
                assert line == clean_line


class TestEquiv:
    NAMES = [
        "quatro_orthogonal_vs_spherical",
        "quatro_parallel_vs_mixed",
        "care_grade1_vs_quatro",
        "care_parallel_vs_mixed",
        "mixed_e3_vs_rope1d",
    ]

    def test_reductions_hold_at_default_tolerance(self, capsys):
        code, out, err = run(capsys, ["equiv", "--seed", "0"])
        assert code == cli.EXIT_OK
        assert err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "reduction,max_abs_dev,tolerance,pass"
        assert [row.split(",")[0] for row in lines[1:]] == self.NAMES
        for row in lines[1:]:
            _, value, tol, flag = row.split(",")
            assert float(value) <= float(tol) == 1e-10
            assert flag == "true"

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, ["equiv", "--seed", "5"])
        _, b, _ = run(capsys, ["equiv", "--seed", "5"])
        assert a == b

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, err = run(capsys, ["equiv", "--seed", "0", "--tolerance", "1e-18"])
        assert code == cli.EXIT_PROPERTY
        assert "false" in out
        assert "exceeded tolerance" in err

    def test_tolerance_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tolerance = 1e-18\n")
        code, _, _ = run(capsys, ["equiv", "--config", str(cfg)])
        assert code == cli.EXIT_PROPERTY
        # explicit flag outranks the config value
        code, _, _ = run(capsys, ["equiv", "--config", str(cfg), "--tolerance", "1e-10"])
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("command", ["equiv", "grad"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
    def test_tolerance_flag_must_be_finite_and_positive(self, capsys, command, value):
        # the flag follows the config key's rule instead of passing (inf) or
        # failing (nan) every figure
        code, out, err = run(capsys, [command, "--seed", "0", "--tolerance", value])
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert "--tolerance" in err


class TestGrad:
    def test_analytic_matches_finite_differences(self, capsys):
        code, out, err = run(capsys, ["grad", "--seed", "0"])
        assert code == cli.EXIT_OK
        assert err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "case,coordinate,h,max_rel_err,pass"
        # 5 methods x 2 coordinates x 3 step sizes + the channel row
        assert len(lines) == 1 + 30 + 1
        assert all(row.endswith(",true") for row in lines[1:])
        assert lines[-1].startswith("care_invariant_channels,both,")

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, ["grad", "--seed", "3"])
        _, b, _ = run(capsys, ["grad", "--seed", "3"])
        assert a == b

    def test_impossible_tolerance_fails(self, capsys):
        code, out, err = run(capsys, ["grad", "--seed", "0", "--tolerance", "1e-16"])
        assert code == cli.EXIT_PROPERTY
        assert "gradient check failed" in err

    def test_angle_overflow_is_named(self, capsys, tmp_path):
        # encode's message, from the one angle formula; a leaked numpy
        # warning would fail this test (RuntimeWarning is an error)
        cfg = tmp_path / "g.conf"
        cfg.write_text("coord_scale_x = 1e300\norigin_x = 1e10\n")
        code, out, err = run(capsys, ["grad", "--config", str(cfg), "--seed", "0"])
        assert code == cli.EXIT_CONFIG
        assert err == (
            "error: position angle overflows float64: coordinate scale times position "
            "(scale_x 1e+300, scale_y 1.0) is not finite\n"
        )
        assert out == ""


class TestEncode:
    def setup_tensor(self, tmp_path, shape=(2, 12, 9), dtype=np.float64, seed=0):
        arr = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
        path = tmp_path / "in.rten"
        write_tensor(path, arr)
        return path, arr

    def write_cfg(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_matches_library_path(self, capsys, tmp_path):
        src, arr = self.setup_tensor(tmp_path)
        cfg = self.write_cfg(tmp_path, "method = quatro\ngrid_h = 3\ngrid_w = 4\n")
        out_path = tmp_path / "out.rten"
        code, _, err = run(
            capsys, ["encode", str(src), "--config", cfg, "--output", str(out_path)]
        )
        assert code == cli.EXIT_OK, err
        got = read_tensor(out_path)
        block = TokenBlock(data=arr, positions=grid_positions(3, 4))
        want = apply_encoding(block, EncodingMethod.configure("quatro", 9)).data
        assert np.array_equal(got, want)

    def test_invert_round_trip(self, capsys, tmp_path):
        src, arr = self.setup_tensor(tmp_path, shape=(1, 6, 16))
        fwd_cfg = self.write_cfg(tmp_path, "method = care\ngrid_h = 2\ngrid_w = 3\n")
        mid = tmp_path / "mid.rten"
        back = tmp_path / "back.rten"
        assert run(capsys, ["encode", str(src), "--config", fwd_cfg, "--output", str(mid)])[0] == 0
        inv_cfg = tmp_path / "inv.cfg"
        inv_cfg.write_text("method = care\ngrid_h = 2\ngrid_w = 3\ninvert = true\n")
        assert (
            run(capsys, ["encode", str(mid), "--config", str(inv_cfg), "--output", str(back)])[0]
            == 0
        )
        assert np.max(np.abs(read_tensor(back) - arr)) <= 1e-10

    def test_float32_stays_float32(self, capsys, tmp_path):
        src, arr = self.setup_tensor(tmp_path, dtype=np.float32)
        cfg = self.write_cfg(tmp_path, "grid_h = 3\ngrid_w = 4\n")
        out_path = tmp_path / "out.rten"
        code, _, _ = run(capsys, ["encode", str(src), "--config", cfg, "--output", str(out_path)])
        assert code == cli.EXIT_OK
        got = read_tensor(out_path)
        assert got.dtype == np.float32
        # computed in float64, rounded once on the way out
        block = TokenBlock(data=arr.astype(np.float64), positions=grid_positions(3, 4))
        want = apply_encoding(block, EncodingMethod.configure("quatro", 9)).data
        assert np.array_equal(got, want.astype(np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_may_be_the_input_file(self, capsys, tmp_path, dtype):
        # the whole input is read before the output is opened
        src, arr = self.setup_tensor(tmp_path, dtype=dtype)
        cfg = self.write_cfg(tmp_path, "method = care\ngrid_h = 3\ngrid_w = 4\n")
        code, _, err = run(capsys, ["encode", str(src), "--config", cfg, "--output", str(src)])
        assert code == cli.EXIT_OK, err
        block = TokenBlock(data=arr.astype(np.float64), positions=grid_positions(3, 4))
        want = apply_encoding(block, EncodingMethod.configure("care", 9)).data
        assert np.array_equal(read_tensor(src), want.astype(dtype))

    @pytest.mark.parametrize("tag", METHODS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_value_fails_before_writing(self, capsys, tmp_path, tag, value, dtype):
        width = METHOD_WIDTHS[tag]
        spoiled = [(16, width + 1)]  # (head_dim, slot): a carrier slot
        if tag == "care":
            spoiled += [(16, 8), (16, 15)]  # the scalar and e123 slots
        spoiled += [(d, d - 1) for d in (65, 66) if d % width]  # a pass-through dim
        cfg = self.write_cfg(tmp_path, f"method = {tag}\ngrid_h = 3\ngrid_w = 4\n")
        out_path = tmp_path / "out.rten"
        write_tensor(out_path, np.ones((1, 2, 3), dtype))
        before = out_path.read_bytes()
        for head_dim, slot in spoiled:
            src, arr = self.setup_tensor(tmp_path, shape=(3, 12, head_dim), dtype=dtype)
            arr[1, 5, slot] = value  # a middle batch row
            write_tensor(src, arr)
            # inf times a zero map entry is NaN, named with no numpy warning
            code, _, err = run(capsys, ["encode", str(src), "--config", cfg, "--output", str(out_path)])
            assert code == cli.EXIT_CONFIG
            assert err == "error: block contains non-finite values\n"
            assert out_path.read_bytes() == before

    def test_float32_overflow_fails_before_writing(self, capsys, tmp_path):
        src = tmp_path / "in.rten"
        write_tensor(src, np.full((1, 12, 4), 3.0e38, dtype=np.float32))
        cfg = self.write_cfg(tmp_path, "method = rope1d\ngrid_h = 3\ngrid_w = 4\norigin_x = 7\n")
        out_path = tmp_path / "out.rten"
        write_tensor(out_path, np.ones((1, 2, 3), np.float32))
        before = out_path.read_bytes()
        code, out, err = run(capsys, ["encode", str(src), "--config", cfg, "--output", str(out_path)])
        assert code == cli.EXIT_CONFIG
        assert err == "error: rotated values in batch row 0 overflow float32\n"
        assert out == ""
        assert out_path.read_bytes() == before

    def test_float64_overflow_fails_before_writing(self, capsys, tmp_path):
        # finite input that rope1d turns past the float64 limit: token 0
        # (p_x = 0.5) by 0.5 rad, and cos + sin > 1
        data = np.ones((2, 12, 4))
        data[1, 0, :2] = 1.7e308
        src = tmp_path / "in.rten"
        write_tensor(src, data)
        cfg = self.write_cfg(tmp_path, "method = rope1d\ngrid_h = 3\ngrid_w = 4\norigin_x = 0.5\n")
        out_path = tmp_path / "out.rten"
        write_tensor(out_path, np.ones((1, 2, 3)))
        before = out_path.read_bytes()
        code, out, err = run(capsys, ["encode", str(src), "--config", cfg, "--output", str(out_path)])
        assert code == cli.EXIT_CONFIG
        assert err == "error: rotated values in batch row 1 overflow float64\n"
        assert out == ""
        assert out_path.read_bytes() == before

    @pytest.mark.parametrize("tag", METHODS)
    def test_angle_overflow_fails_before_writing(self, capsys, tmp_path, tag):
        # an all-ones block: only coord_scale_x * p_x (1e300 * 1e10) overflows
        src = tmp_path / "in.rten"
        write_tensor(src, np.ones((1, 12, 24)))
        cfg = self.write_cfg(
            tmp_path,
            f"method = {tag}\ngrid_h = 3\ngrid_w = 4\ncoord_scale_x = 1e300\norigin_x = 1e10\n",
        )
        out_path = tmp_path / "out.rten"
        code, out, err = run(capsys, ["encode", str(src), "--config", cfg, "--output", str(out_path)])
        assert code == cli.EXIT_CONFIG
        assert err == (
            "error: position angle overflows float64: coordinate scale times position "
            "(scale_x 1e+300, scale_y 1.0) is not finite\n"
        )
        assert out == ""
        assert not out_path.exists()

    def test_axis_overflow_is_named(self, capsys, tmp_path):
        src, _ = self.setup_tensor(tmp_path)
        cfg = self.write_cfg(tmp_path, "method = quatro\ngrid_h = 3\ngrid_w = 4\naxes_x = shared:1e200,0,0\n")
        out_path = tmp_path / "out.rten"
        code, out, err = run(capsys, ["encode", str(src), "--config", cfg, "--output", str(out_path)])
        assert code == cli.EXIT_CONFIG
        assert err == "config error: axes_x: the squared norm of a finite axis overflows float64\n"
        assert out == ""
        assert not out_path.exists()

    def test_per_band_axis_count_error_text(self, capsys, tmp_path):
        src, _ = self.setup_tensor(tmp_path)
        cfg = self.write_cfg(tmp_path, "method = quatro\ngrid_h = 3\ngrid_w = 4\naxes_x = 1,0,0;0,1,0\n")
        code, _, err = run(
            capsys, ["encode", str(src), "--config", cfg, "--output", str(tmp_path / "o.rten")]
        )
        assert code == cli.EXIT_CONFIG
        assert err == "config error: axes_x lists 2 bands, method needs 3\n"

    @pytest.mark.parametrize("tag", METHODS)
    def test_peak_memory_is_input_plus_output_plus_rows(self, tmp_path, tag):
        # rows are converted, rotated and cast one at a time: no whole-file
        # float64 copy of the input or the output
        src, arr = self.setup_tensor(tmp_path, shape=(32, 256, 128), dtype=np.float32)
        cfg = self.write_cfg(tmp_path, f"method = {tag}\ngrid_h = 16\ngrid_w = 16\n")
        argv = ["encode", str(src), "--config", cfg, "--output", str(tmp_path / "out.rten")]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        assert peak < 2.5 * arr.nbytes

    def test_missing_output_flag(self, capsys, tmp_path):
        src, _ = self.setup_tensor(tmp_path)
        code, _, err = run(capsys, ["encode", str(src)])
        assert code == cli.EXIT_CONFIG
        assert "requires --output" in err

    def test_rank_must_be_three(self, capsys, tmp_path):
        path = tmp_path / "flat.rten"
        write_tensor(path, np.zeros((4, 4)))
        code, _, err = run(capsys, ["encode", str(path), "--output", str(tmp_path / "o.rten")])
        assert code == cli.EXIT_CONFIG
        assert "rank 3" in err

    def test_token_grid_mismatch(self, capsys, tmp_path):
        src, _ = self.setup_tensor(tmp_path, shape=(1, 10, 9))
        cfg = self.write_cfg(tmp_path, "grid_h = 3\ngrid_w = 4\n")
        code, _, err = run(
            capsys, ["encode", str(src), "--config", cfg, "--output", str(tmp_path / "o.rten")]
        )
        assert code == cli.EXIT_CONFIG
        assert "10 tokens" in err

    def test_explicit_head_dim_conflict(self, capsys, tmp_path):
        src, _ = self.setup_tensor(tmp_path)
        cfg = self.write_cfg(tmp_path, "head_dim = 32\ngrid_h = 3\ngrid_w = 4\n")
        code, _, err = run(
            capsys, ["encode", str(src), "--config", cfg, "--output", str(tmp_path / "o.rten")]
        )
        assert code == cli.EXIT_CONFIG
        assert "does not match tensor head_dim" in err

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["encode", str(tmp_path / "ghost.rten"), "--output", str(tmp_path / "o.rten")],
        )
        assert code == cli.EXIT_IO
        assert "i/o error" in err

    def test_corrupt_tensor_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "broken.rten"
        path.write_bytes(b"RTEN" + b"\x00" * 3)
        code, _, err = run(capsys, ["encode", str(path), "--output", str(tmp_path / "o.rten")])
        assert code == cli.EXIT_IO
        assert "tensor file error" in err

    @pytest.mark.parametrize("text", ["base = nan", "coord_scale_x = inf", "axes_x = nan,0,1"])
    def test_non_finite_config_value_names_its_line(self, capsys, tmp_path, text):
        src, _ = self.setup_tensor(tmp_path)
        cfg = self.write_cfg(tmp_path, f"grid_h = 3\ngrid_w = 4\n{text}\n")
        code, _, err = run(
            capsys, ["encode", str(src), "--config", cfg, "--output", str(tmp_path / "o.rten")]
        )
        assert code == cli.EXIT_CONFIG
        assert "line 3" in err and "finite" in err

    def test_wrapping_dims_are_an_io_error(self, capsys, tmp_path):
        path = tmp_path / "huge.rten"
        path.write_bytes(b"RTEN" + struct.pack("<IBB", 1, 1, 3) + struct.pack("<3Q", 2**62, 4, 1))
        code, _, err = run(capsys, ["encode", str(path), "--output", str(tmp_path / "o.rten")])
        assert code == cli.EXIT_IO
        assert "tensor file error" in err

    def test_bad_config_is_config_error(self, capsys, tmp_path):
        src, _ = self.setup_tensor(tmp_path)
        cfg = self.write_cfg(tmp_path, "grid_h = 3\nwarp = 9\n")
        code, _, err = run(
            capsys, ["encode", str(src), "--config", cfg, "--output", str(tmp_path / "o.rten")]
        )
        assert code == cli.EXIT_CONFIG
        assert "line 2" in err


def _axis_text(vectors) -> str:
    return ";".join(",".join(repr(c) for c in vec) for vec in vectors)


@st.composite
def encode_configs(draw):
    """A valid run config, as file text, and the tensor shape it encodes."""
    method = draw(st.sampled_from(METHODS))
    width = METHOD_WIDTHS[method]
    bands = draw(st.integers(1, 4))
    head_dim = bands * width + draw(st.integers(0, width - 1))
    grid_h, grid_w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    finite = dict(allow_nan=False, allow_infinity=False)
    lines = [
        f"method = {method}",
        f"head_dim = {head_dim}",
        f"grid_h = {grid_h}",
        f"grid_w = {grid_w}",
        f"base = {draw(st.floats(1.5, 1e5, **finite))!r}",
    ]
    for key in ("coord_scale_x", "coord_scale_y", "origin_x", "origin_y"):
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(st.floats(-4.0, 4.0, **finite))!r}")
    axis = st.lists(st.floats(-2.0, 2.0, **finite), min_size=3, max_size=3).filter(
        lambda v: np.linalg.norm(v) > 0.1
    )
    # mixed takes one axis for both coordinates; rope1d and spherical none
    keys = {"mixed": ("axes_x",), "quatro": ("axes_x", "axes_y"), "care": ("axes_x", "axes_y")}
    for key in keys.get(method, ()):
        form = draw(st.sampled_from(["default", "shared", "per-band"]))
        if form == "shared":
            lines.append(f"{key} = shared:{_axis_text([draw(axis)])}")
        elif form == "per-band":
            vectors = draw(st.lists(axis, min_size=bands, max_size=bands))
            lines.append(f"{key} = {_axis_text(vectors)}")
    return "\n".join(lines) + "\n", (grid_h * grid_w, head_dim)


@settings(max_examples=60, deadline=None)
@given(
    config=encode_configs(),
    batch=st.integers(1, 3),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_encode_then_invert_recovers_the_input(config, batch, dtype, seed):
    text, shape = config
    arr = np.random.default_rng(seed).standard_normal((batch,) + shape).astype(dtype)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "fwd.cfg").write_text(text)
        (tmp / "inv.cfg").write_text(text + "invert = true\n")
        write_tensor(tmp / "in.rten", arr)
        for cfg, src, dst in (("fwd", "in", "mid"), ("inv", "mid", "back")):
            argv = ["encode", f"{tmp / src}.rten", "--config", f"{tmp / cfg}.cfg"]
            assert cli.main(argv + ["--output", f"{tmp / dst}.rten"]) == cli.EXIT_OK
        back = read_tensor(tmp / "back.rten")
    assert back.dtype == arr.dtype and back.shape == arr.shape
    err = np.max(np.abs(back.astype(np.float64) - arr))
    if dtype == np.float64:
        assert err <= 1e-10
    else:
        # both passes compute in float64 and round once to float32 on the
        # way out; each rounding moves a sub-vector by at most eps/2 of its
        # norm, which the norm of the whole row bounds
        assert err <= np.finfo(np.float32).eps * np.max(np.linalg.norm(arr, axis=-1))


class TestBench:
    def small_cfg(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("grid_h = 3\ngrid_w = 4\nhead_dim = 16\n")
        return str(cfg)

    def test_csv_report(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            [
                "bench",
                "--config",
                self.small_cfg(tmp_path),
                "--reps",
                "30",
                "--batch",
                "1",
                "--kernels",
                "rope1d,care",
            ],
        )
        assert code == cli.EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("kernel,batch,tokens,head_dim,reps,")
        assert len(lines) == 3
        assert lines[1].split(",")[:5] == ["rope1d", "1", "12", "16", "30"]

    @pytest.mark.parametrize("grid_h, grid_w", [(4, 3), (2, 8)])
    def test_times_the_config_grid(self, capsys, tmp_path, monkeypatch, grid_h, grid_w):
        # not the near-square grid of grid_h * grid_w tokens (3x4, 4x4)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            f"grid_h = {grid_h}\ngrid_w = {grid_w}\norigin_x = 0.5\norigin_y = -2\nhead_dim = 16\n"
        )
        seen = []

        def encode(block, method):
            seen.append(block.positions)
            return apply_encoding(block, method)

        monkeypatch.setattr(cli.bench_mod, "apply_encoding", encode)
        code, out, _ = run(
            capsys, ["bench", "--config", str(cfg), "--reps", "30", "--kernels", "rope1d"]
        )
        assert code == cli.EXIT_OK
        assert out.split("\n")[1].split(",")[2] == str(grid_h * grid_w)
        expected = grid_positions(grid_h, grid_w, origin=(0.5, -2.0))
        assert seen and all(np.array_equal(p, expected) for p in seen)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys,
            [
                "bench",
                "--config",
                self.small_cfg(tmp_path),
                "--reps",
                "30",
                "--batch",
                "1",
                "--kernels",
                "rope1d",
                "--output",
                str(path),
            ],
        )
        assert code == cli.EXIT_OK and out == ""
        assert path.read_text().startswith("kernel,")

    def test_low_reps_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["bench", "--config", self.small_cfg(tmp_path), "--reps", "5"]
        )
        assert code == cli.EXIT_CONFIG
        assert "reps" in err

    def test_unknown_kernel_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "bench",
                "--config",
                self.small_cfg(tmp_path),
                "--reps",
                "30",
                "--kernels",
                "rope1d,teleport",
            ],
        )
        assert code == cli.EXIT_CONFIG
        assert "unknown kernel" in err

    def test_repeated_kernel_rejected(self, capsys, tmp_path):
        # timing a method twice would print two rows for it
        code, out, err = run(
            capsys,
            ["bench", "--config", self.small_cfg(tmp_path), "--reps", "30", "--kernels", "care,rope1d,care"],
        )
        assert code == cli.EXIT_CONFIG and out == ""
        assert err == "error: kernel 'care' is listed twice\n"

    def test_unallocatable_batch_is_a_usage_error(self, capsys):
        # 891 PiB: beyond any 64-bit address space, so the allocation fails
        # whatever the host's overcommit setting, before any page is touched
        code, out, err = run(capsys, ["bench", "--batch", str(10**13), "--kernels", "rope1d", "--reps", "30"])
        assert code == cli.EXIT_CONFIG and out == ""
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1

    def test_memory_error_without_message_is_named(self, capsys, monkeypatch):
        def run_bench(**_):
            raise MemoryError()

        monkeypatch.setattr(cli.bench_mod, "run_bench", run_bench)
        code, out, err = run(capsys, ["bench", "--reps", "30"])
        assert code == cli.EXIT_CONFIG and out == ""
        assert err == "error: out of memory\n"

    def test_empty_kernel_list_rejected(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            ["bench", "--config", self.small_cfg(tmp_path), "--reps", "30", "--kernels", ","],
        )
        assert code == cli.EXIT_CONFIG and out == ""
        assert err == "error: no kernels to run; known: care, mixed, quatro, rope1d, spherical\n"


class TestParser:
    def test_missing_command_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        assert "command" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["check", "--tolerance", "1e-3"], ["encode", "--seed", "1", "in.rten"]]
    )
    def test_flags_a_command_ignores_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "equiv", "grad", "bench"])
    def test_seed_flag_must_be_non_negative(self, capsys, command):
        # the flag follows the config key's rule and names itself
        code, out, err = run(capsys, [command, "--seed", "-1"])
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err == "error: --seed must be non-negative, got -1\n"

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["check", "--config", str(tmp_path / "none.cfg")])
        assert code == cli.EXIT_IO
        assert "i/o error" in err


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# prints the environment variables a child's imports changed, and its
# thread count where Linux lists it
REPORT_ENV = (
    "import json\n"
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
    "changed = sorted(k for k in {*before, *os.environ} if before.get(k) != os.environ.get(k))\n"
    "print(json.dumps({'changed': changed, 'tasks': tasks}))\n"
)


def run_child(args, **preset) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's ``garope``, with none of the
    BLAS thread variables set but those in ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, check=True, timeout=120)


def child_env(imports: str, **preset) -> dict:
    code = "import os\nbefore = dict(os.environ)\n" + imports + "\n" + REPORT_ENV
    return json.loads(run_child(["-c", code], **preset).stdout)


class TestBlasThreads:
    def test_cli_import_starts_numpy_single_threaded(self):
        report = child_env("import garope.cli")
        assert report["changed"] == []
        if sys.platform.startswith("linux"):
            assert report["tasks"] == 1

    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_a_preset_variable_is_kept(self, var):
        report = child_env("import garope.cli", **{var: "2"})
        assert report["changed"] == []
        assert report["tasks"] == child_env("import numpy", **{var: "2"})["tasks"]

    def test_numpy_loaded_first_keeps_its_threads(self):
        report = child_env("import numpy\nimport garope.cli")
        assert report["changed"] == []
        assert report["tasks"] == child_env("import numpy")["tasks"]

    def test_library_use_sets_nothing(self):
        assert child_env("import garope.encodings, garope.attention, garope.formats")["changed"] == []

    @pytest.mark.parametrize("command", ["check", "equiv", "grad"])
    def test_reports_do_not_depend_on_blas_threads(self, command):
        args = ["-c", "import sys; from garope.cli import main; sys.exit(main())", command, "--seed", "7"]
        default = run_child(args).stdout
        assert default and run_child(args, OPENBLAS_NUM_THREADS="2").stdout == default
