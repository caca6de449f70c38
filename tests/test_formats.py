"""Tensor container and run-config parsing."""

import struct

import numpy as np
import pytest

from garope import formats
from garope.formats import (
    ConfigError,
    RunConfig,
    TensorFileError,
    build_method,
    config_positions,
    load_run_config,
    parse_run_config,
    read_tensor,
    write_tensor,
)

rng = np.random.default_rng(424242)


class TestTensorRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_exact(self, tmp_path, dtype):
        arr = rng.standard_normal((2, 5, 3)).astype(dtype)
        path = tmp_path / "t.rten"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.dtype(dtype)
        assert back.shape == arr.shape
        assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))

    def test_rank_zero(self, tmp_path):
        path = tmp_path / "s.rten"
        write_tensor(path, np.float64(3.25))
        back = read_tensor(path)
        assert back.shape == ()
        assert back[()] == 3.25

    def test_empty_dimension(self, tmp_path):
        path = tmp_path / "e.rten"
        write_tensor(path, np.zeros((0, 4)))
        assert read_tensor(path).shape == (0, 4)

    def test_non_contiguous_input(self, tmp_path):
        arr = rng.standard_normal((4, 6)).T
        path = tmp_path / "nc.rten"
        write_tensor(path, arr)
        assert np.array_equal(read_tensor(path), arr)

    def test_special_values_survive(self, tmp_path):
        arr = np.array([0.0, -0.0, np.pi, 1e-300, -1e300])
        path = tmp_path / "sv.rten"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))

    def test_result_is_writable(self, tmp_path):
        path = tmp_path / "w.rten"
        write_tensor(path, np.ones(3))
        back = read_tensor(path)
        back[0] = 2.0
        assert back[0] == 2.0

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.rten"
        write_tensor(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"RTEN"
        version, code, rank = struct.unpack_from("<IBB", raw, 4)
        assert (version, code, rank) == (1, 0, 2)
        assert struct.unpack_from("<2Q", raw, 10) == (2, 3)
        assert len(raw) == 10 + 16 + 2 * 3 * 4

    def test_integer_arrays_rejected(self, tmp_path):
        with pytest.raises(TensorFileError):
            write_tensor(tmp_path / "i.rten", np.arange(4))


class TestTensorErrors:
    def valid_bytes(self):
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        header = b"RTEN" + struct.pack("<IBB", 1, 1, 2) + struct.pack("<2Q", 2, 3)
        return header + arr.tobytes()

    def write(self, tmp_path, raw):
        path = tmp_path / "bad.rten"
        path.write_bytes(raw)
        return path

    def test_valid_baseline(self, tmp_path):
        assert read_tensor(self.write(tmp_path, self.valid_bytes())).shape == (2, 3)

    def test_bad_magic(self, tmp_path):
        raw = b"NOPE" + self.valid_bytes()[4:]
        with pytest.raises(TensorFileError, match="magic"):
            read_tensor(self.write(tmp_path, raw))

    def test_bad_version(self, tmp_path):
        raw = self.valid_bytes()
        raw = raw[:4] + struct.pack("<I", 9) + raw[8:]
        with pytest.raises(TensorFileError, match="version"):
            read_tensor(self.write(tmp_path, raw))

    def test_unknown_dtype_code(self, tmp_path):
        raw = bytearray(self.valid_bytes())
        raw[8] = 7
        with pytest.raises(TensorFileError, match="dtype"):
            read_tensor(self.write(tmp_path, bytes(raw)))

    def test_truncated_header(self, tmp_path):
        with pytest.raises(TensorFileError):
            read_tensor(self.write(tmp_path, b"RTEN\x01"))

    def test_truncated_dims(self, tmp_path):
        with pytest.raises(TensorFileError, match="dims"):
            read_tensor(self.write(tmp_path, self.valid_bytes()[:14]))

    def test_payload_length_mismatch(self, tmp_path):
        with pytest.raises(TensorFileError, match="payload"):
            read_tensor(self.write(tmp_path, self.valid_bytes()[:-8]))

    def test_trailing_garbage_rejected(self, tmp_path):
        with pytest.raises(TensorFileError, match="payload"):
            read_tensor(self.write(tmp_path, self.valid_bytes() + b"\x00"))

    def test_huge_dims_do_not_wrap_to_zero(self, tmp_path):
        # 2**62 * 4 elements * 8 bytes is 0 modulo 2**64; an int64 size
        # would match the empty payload and fail later inside numpy
        raw = b"RTEN" + struct.pack("<IBB", 1, 1, 2) + struct.pack("<2Q", 2**62, 4)
        with pytest.raises(TensorFileError, match="payload is 0 bytes"):
            read_tensor(self.write(tmp_path, raw))

    def test_empty_payload_with_unloadable_dims(self, tmp_path):
        raw = b"RTEN" + struct.pack("<IBB", 1, 1, 2) + struct.pack("<2Q", 0, 2**62)
        with pytest.raises(TensorFileError, match="cannot be loaded"):
            read_tensor(self.write(tmp_path, raw))


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        config = parse_run_config("")
        assert config == RunConfig()
        assert config.explicit_keys == frozenset()

    def test_every_key_parses(self):
        text = """
        # full sweep
        method = care
        head_dim = 16          # inline comment
        grid_h = 3
        grid_w = 5
        base = 500.0
        seed = 9
        coord_scale_x = 1.5
        coord_scale_y = 0.25
        tolerance = 1e-9
        invert = true
        origin_x = -2.0
        origin_y = 0.5
        axes_x = shared:1,0,0
        axes_y = 0,1,0 ; 0,0,1
        """
        config = parse_run_config(text)
        assert config.method == "care"
        assert config.head_dim == 16
        assert (config.grid_h, config.grid_w) == (3, 5)
        assert config.base == 500.0
        assert config.seed == 9
        assert (config.coord_scale_x, config.coord_scale_y) == (1.5, 0.25)
        assert config.tolerance == 1e-9
        assert config.invert is True
        assert (config.origin_x, config.origin_y) == (-2.0, 0.5)
        assert np.shape(config.axes_x) == (3,)  # shared: one axis for every band
        assert np.array_equal(config.axes_x, [1, 0, 0])
        assert np.shape(config.axes_y) == (2, 3)  # a per-band list
        assert np.array_equal(config.axes_y, [[0, 1, 0], [0, 0, 1]])
        assert "tolerance" in config.explicit_keys and "method" in config.explicit_keys

    def test_comment_only_lines_ignored(self):
        assert parse_run_config("# nothing\n\n   \n# more\n") == RunConfig()

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("speed = 3", 1, "unknown key"),
            ("seed = 1\nseed = 2", 2, "duplicate"),
            ("seed =", 1, "empty value"),
            ("just words", 1, "key = value"),
            ("head_dim = ten", 1, "bad value"),
            ("base = fast", 1, "bad value"),
            ("invert = yes", 1, "true or false"),
            ("method = rope2d", 1, "method must be one of"),
            ("axes_x = 1,2", 1, "not a 3-vector"),
            ("axes_x = 1,2,z", 1, "non-numeric"),
            ("axes_x = shared:1,0,0;0,1,0", 1, "exactly one"),
            ("axes_x = ;", 1, "empty axes"),
            ("\n\nmethod = care\nbogus = 1", 4, "unknown key"),
            ("grid_h = 0", 1, "grid_h must be positive"),
            ("method = care\nhead_dim = 0", 2, "head_dim must be positive"),
            ("seed = 3\nbase = 1.0", 2, "base must exceed 1"),
            ("# a comment\n\nseed = -1", 3, "seed must be non-negative"),
            ("tolerance = 0", 1, "tolerance must be positive"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ConfigError, match=fragment) as err:
            parse_run_config(text)
        assert err.value.line == line
        assert f"line {line}:" in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            "head_dim = 0",
            "grid_h = 0",
            "grid_w = -2",
            "base = 1.0",
            "seed = -1",
            "tolerance = 0",
            "tolerance = -1e-9",
        ],
    )
    def test_value_bounds(self, text):
        with pytest.raises(ConfigError):
            parse_run_config(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    @pytest.mark.parametrize(
        "key",
        ["base", "coord_scale_x", "coord_scale_y", "origin_x", "origin_y", "tolerance"],
    )
    def test_non_finite_floats_rejected_with_line(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite") as err:
            parse_run_config(f"method = quatro\n{key} = {value}\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text", ["axes_x = 1,nan,0", "axes_x = shared:inf,0,0", "axes_y = 0,0,1 ; 1,-inf,0"]
    )
    def test_non_finite_axis_components_rejected(self, text):
        with pytest.raises(ConfigError, match="non-finite component") as err:
            parse_run_config("method = care\n" + text)
        assert err.value.line == 2

    def test_nan_base_with_one_band_rejected(self):
        # nan**0 == 1, so a one-band schedule would not notice a nan base
        with pytest.raises(ConfigError, match="base must be finite"):
            parse_run_config("method = rope1d\nhead_dim = 2\nbase = nan\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("method = mixed\nhead_dim = 9\naxes_x = shared:0,1,0\n")
        config = load_run_config(path)
        assert config.method == "mixed"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_run_config(tmp_path / "absent.cfg")


class TestAxisSpec:
    """How a parsed axes value reaches the method's per-band axes."""

    def test_shared_resolve_tiles(self):
        config = parse_run_config("method = quatro\nhead_dim = 12\naxes_x = shared:0,0,1\n")
        assert np.shape(config.axes_x) == (3,)
        out = build_method(config).axes.axes_x
        assert out.shape == (4, 3)
        assert np.array_equal(out, np.tile([0.0, 0.0, 1.0], (4, 1)))

    def test_per_band_resolve_checks_count(self):
        text = "method = quatro\nhead_dim = {}\naxes_x = 1,0,0;0,1,0\n"
        config = parse_run_config(text.format(6))
        assert np.shape(config.axes_x) == (2, 3)
        assert build_method(config).axes.axes_x.shape == (2, 3)
        with pytest.raises(ConfigError, match="^axes_x lists 2 bands, method needs 3$"):
            build_method(parse_run_config(text.format(9)))

    def test_single_per_band_axis_is_not_shared(self):
        config = parse_run_config("method = care\nhead_dim = 16\naxes_y = 0,0,1\n")
        assert np.shape(config.axes_y) == (1, 3)
        with pytest.raises(ConfigError, match="^axes_y lists 1 bands, method needs 2$"):
            build_method(config)

    def test_configs_with_axes_compare_and_hash(self):
        text = "method = care\nhead_dim = 16\naxes_x = 1,0,0;0,1,0\naxes_y = shared:0,0,1\n"
        a, b = parse_run_config(text), parse_run_config(text)
        assert a == b and hash(a) == hash(b)
        other = parse_run_config(text.replace("0,1,0", "0,0,1", 1))
        assert a != other
        assert len({a, b, other}) == 2


class TestBuildMethod:
    def test_positions_respect_origin(self):
        config = parse_run_config("grid_h = 2\ngrid_w = 2\norigin_x = 10\norigin_y = -1")
        pos = config_positions(config)
        assert np.array_equal(pos, [[10, -1], [11, -1], [10, 0], [11, 0]])

    def test_quatro_with_per_band_axes(self):
        text = "method = quatro\nhead_dim = 6\naxes_x = 1,0,0;0,1,0\naxes_y = shared:0,0,1\n"
        method = build_method(parse_run_config(text))
        assert method.tag == "quatro"
        assert method.axes.num_bands == 2
        assert np.array_equal(method.axes.axes_x, [[1, 0, 0], [0, 1, 0]])

    def test_band_count_mismatch_is_config_error(self):
        text = "method = quatro\nhead_dim = 9\naxes_x = 1,0,0;0,1,0\n"
        with pytest.raises(ConfigError, match="needs 3"):
            build_method(parse_run_config(text))

    def test_head_dim_below_width_is_config_error(self):
        with pytest.raises(ConfigError, match="below"):
            build_method(parse_run_config("method = care\nhead_dim = 4"))

    def test_mixed_axis_conflict_is_config_error(self):
        text = "method = mixed\naxes_x = shared:1,0,0\naxes_y = shared:0,1,0\nhead_dim = 6"
        with pytest.raises(ConfigError, match="shared axis"):
            build_method(parse_run_config(text))

    def test_defaults_build(self):
        method = build_method(RunConfig())
        assert method.tag == "quatro"
        assert method.schedule.num_bands == 21

    def test_scales_carried_through(self):
        config = parse_run_config("coord_scale_x = 2.0\ncoord_scale_y = 0.5")
        method = build_method(config)
        assert (method.scale_x, method.scale_y) == (2.0, 0.5)

    def test_module_magic_constant(self):
        assert formats.MAGIC == b"RTEN"
        assert formats.VERSION == 1
