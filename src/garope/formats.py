"""Tensor file and run-config formats used by the command-line tools.

Tensor files are a minimal binary container: magic ``RTEN``, a version
word, dtype/rank bytes, dims, then the row-major little-endian payload.
Round trips are bit-exact. Run configs are ``key = value`` lines with
``#`` comments; unknown keys are rejected with their line number so typos
fail loudly instead of silently using a default.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .encodings import METHODS, EncodingMethod, grid_positions

MAGIC = b"RTEN"
VERSION = 1
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class TensorFileError(ValueError):
    """Malformed tensor file (bad magic/version/lengths)."""


class ConfigError(ValueError):
    """Malformed run config; message carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def write_tensor(path, array: np.ndarray) -> None:
    """Write a float32/float64 array; shape and payload restore bit-exact."""
    array = np.asarray(array)
    if array.dtype not in _DTYPE_CODES:
        raise TensorFileError(f"unsupported dtype {array.dtype}; use float32 or float64")
    code = _DTYPE_CODES[array.dtype]
    header = MAGIC + struct.pack("<IBB", VERSION, code, array.ndim)
    header += struct.pack(f"<{array.ndim}Q", *array.shape)
    payload = np.ascontiguousarray(array).astype(_CODE_DTYPES[code], copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.data)  # the array's own buffer, no bytes copy


def read_tensor(path) -> np.ndarray:
    """Read a tensor file, holding its payload in memory once."""
    with open(path, "rb") as fh:
        head = fh.read(10)
        if head[:4] != MAGIC:
            raise TensorFileError("not a tensor file (bad magic)")
        if len(head) < 10:
            raise TensorFileError("truncated tensor header")
        version, code, rank = struct.unpack_from("<IBB", head, 4)
        if version != VERSION:
            raise TensorFileError(f"unsupported tensor file version {version}")
        if code not in _CODE_DTYPES:
            raise TensorFileError(f"unknown dtype code {code}")
        raw_dims = fh.read(8 * rank)
        if len(raw_dims) < 8 * rank:
            raise TensorFileError("truncated dims")
        dims = struct.unpack(f"<{rank}Q", raw_dims)
        dtype = _CODE_DTYPES[code]
        expected = math.prod(dims) * dtype.itemsize  # Python ints: no wrap-around
        size = os.fstat(fh.fileno()).st_size - (10 + 8 * rank)
        if size != expected:
            raise TensorFileError(f"payload is {size} bytes, dims require {expected}")
        arr = np.fromfile(fh, dtype=dtype, count=expected // dtype.itemsize)
    try:
        arr = arr.reshape(dims)
    except ValueError as exc:  # an empty payload with dims numpy cannot hold
        raise TensorFileError(f"dims {dims} cannot be loaded: {exc}") from None
    return arr.astype(dtype.newbyteorder("="), copy=False)


_INT_KEYS = ("head_dim", "grid_h", "grid_w", "seed")
_FLOAT_KEYS = ("base", "coord_scale_x", "coord_scale_y", "tolerance", "origin_x", "origin_y")
_BOOL_KEYS = ("invert",)
_AXIS_KEYS = ("axes_x", "axes_y")
_ALL_KEYS = ("method",) + _INT_KEYS + _FLOAT_KEYS + _BOOL_KEYS + _AXIS_KEYS


@dataclass(frozen=True)
class RunConfig:
    """Run parameters; defaults mirror the 14x14/head_dim-64 test setup."""

    method: str = "quatro"
    head_dim: int = 64
    grid_h: int = 14
    grid_w: int = 14
    base: float = 10000.0
    seed: int = 0
    coord_scale_x: float = 1.0
    coord_scale_y: float = 1.0
    tolerance: float | None = None
    invert: bool = False
    origin_x: float = 0.0
    origin_y: float = 0.0
    axes_x: tuple | None = None  # one 3-tuple shared by every band, or k per band
    axes_y: tuple | None = None
    explicit_keys: frozenset = field(default=frozenset(), compare=False)


def _parse_axes(value: str, line: int) -> tuple:
    """``shared:x,y,z`` as one 3-tuple axis for every band, or ``x,y,z; ...``
    as a per-band tuple of k 3-tuples. Tuples keep ``RunConfig``
    comparable and hashable."""
    shared = value.startswith("shared:")
    if shared:
        value = value[len("shared:") :]
    groups = [g for g in value.split(";") if g.strip()]
    if shared and len(groups) != 1:
        raise ConfigError("shared axes take exactly one 3-vector", line)
    if not groups:
        raise ConfigError("empty axes value", line)
    vectors = []
    for g in groups:
        parts = [s.strip() for s in g.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"axis {g.strip()!r} is not a 3-vector", line)
        try:
            components = tuple(float(s) for s in parts)
        except ValueError:
            raise ConfigError(f"axis {g.strip()!r} has a non-numeric component", line) from None
        if not all(math.isfinite(c) for c in components):
            raise ConfigError(f"axis {g.strip()!r} has a non-finite component", line)
        vectors.append(components)
    return vectors[0] if shared else tuple(vectors)


def parse_run_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines; every error names its line number."""
    values: dict = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = (s.strip() for s in line.partition("="))
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        try:
            if key == "method":
                if value not in METHODS:
                    raise ConfigError(
                        f"method must be one of {', '.join(METHODS)}; got {value!r}", lineno
                    )
                values[key] = value
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
                if not math.isfinite(values[key]):
                    raise ConfigError(f"{key} must be finite, got {value!r}", lineno)
            elif key in _BOOL_KEYS:
                if value not in ("true", "false"):
                    raise ConfigError(f"{key} must be true or false", lineno)
                values[key] = value == "true"
            else:
                values[key] = _parse_axes(value, lineno)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"bad value {value!r} for {key!r}", lineno) from None
    config = RunConfig(explicit_keys=frozenset(values), **values)
    _validate_config(config)
    return config


def _validate_config(config: RunConfig) -> None:
    if config.head_dim < 1:
        raise ConfigError("head_dim must be positive")
    if config.grid_h < 1 or config.grid_w < 1:
        raise ConfigError("grid dimensions must be positive")
    if config.base <= 1.0:
        raise ConfigError("base must exceed 1")
    if config.seed < 0:
        raise ConfigError("seed must be non-negative")
    if config.tolerance is not None and not config.tolerance > 0.0:
        raise ConfigError("tolerance must be positive")


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())


def config_positions(config: RunConfig) -> np.ndarray:
    return grid_positions(config.grid_h, config.grid_w, (config.origin_x, config.origin_y))


def build_method(config: RunConfig) -> EncodingMethod:
    """EncodingMethod from a config; the method's own checks fail as
    ConfigError."""
    try:
        return EncodingMethod.configure(
            config.method,
            config.head_dim,
            base=config.base,
            axes_x=config.axes_x,
            axes_y=config.axes_y,
            scale_x=config.coord_scale_x,
            scale_y=config.coord_scale_y,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
