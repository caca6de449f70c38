"""Command-line entry point.

Commands: ``check`` (invariant suites), ``equiv`` (special-case reduction
deviations), ``encode`` (apply an encoding to a tensor file), ``grad``
(analytic vs finite-difference gradients), ``bench`` (kernel timings).
Exit codes: 0 success, 1 property failure, 2 usage/config error, 3 I/O
error. Everything except bench timings is deterministic given the seed.
The three verifications behind ``check``, ``equiv`` and ``grad`` live in
``checks``; their commands here only print the results, apply the
tolerance and pick the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

# No garope command needs BLAS threads, and OpenBLAS starts its thread pool
# while numpy loads; the new worker busy-waits while the import goes on, which
# cost up to ~65 ms of a ~170 ms numpy import on a 2-vCPU VM. So numpy loads
# with OPENBLAS_NUM_THREADS=1 unless the user set a thread variable, and the
# variable is removed again at once: OpenBLAS reads it only at load, and
# processes started later inherit the environment as it was. Importing this
# module after numpy changes nothing. The rule runs at import, not in main(),
# because this module still imports numpy at module level; it moves into main()
# once the commands import their modules lazily.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_ONE_BLAS_THREAD = not any(var in os.environ for var in _BLAS_THREAD_VARS)
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy  # noqa: F401  (OpenBLAS reads the variable only while numpy loads)

if _ONE_BLAS_THREAD:
    del os.environ["OPENBLAS_NUM_THREADS"]

from . import bench as bench_mod
from . import checks
from .encodings import block_maps, rotate_rows
from .formats import (
    ConfigError,
    RunConfig,
    TensorFileError,
    build_method,
    config_positions,
    load_run_config,
    read_tensor,
    write_tensor,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_IO = 3

GRAD_DEFAULT_TOL = 1e-6
EQUIV_DEFAULT_TOL = 1e-10


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads: --config and --output
    everywhere, --seed everywhere but encode, --tolerance on equiv and
    grad."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="run config file path")
    common.add_argument("--output", default=None, help="write report/tensor here instead of stdout")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
    tolerant = argparse.ArgumentParser(add_help=False, parents=[seeded])
    tolerant.add_argument(
        "--tolerance", type=float, default=None, help="pass/fail tolerance (overrides config)"
    )

    parser = argparse.ArgumentParser(
        prog="garope", description="rotary positional encodings over quaternion/Clifford rotors"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[seeded], help="run the named invariant suites")
    sub.add_parser("equiv", parents=[tolerant], help="measure the special-case reductions")
    p_enc = sub.add_parser("encode", parents=[common], help="encode a rank-3 tensor file")
    p_enc.add_argument("input", help="input tensor file (batch x tokens x head_dim)")
    sub.add_parser("grad", parents=[tolerant], help="analytic vs finite-difference gradients")
    p_bench = sub.add_parser("bench", parents=[seeded], help="time the rotation kernels")
    p_bench.add_argument("--reps", type=int, default=50, help="timing repetitions (min 30)")
    p_bench.add_argument("--batch", type=int, default=2, help="batch size of the workload")
    p_bench.add_argument(
        "--kernels", default=None, help="comma-separated subset of the methods (default: all)"
    )
    return parser


def _load_config(args) -> RunConfig:
    if args.config is None:
        return RunConfig()
    return load_run_config(args.config)


def _seed(args, config: RunConfig) -> int:
    if args.seed is not None:
        if args.seed < 0:  # the config key's rule
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        return args.seed
    return config.seed


def _tolerance(args, config: RunConfig, default: float) -> float:
    if args.tolerance is not None:
        if not (math.isfinite(args.tolerance) and args.tolerance > 0.0):  # the config key's rule
            raise ValueError(f"--tolerance must be finite and > 0, got {args.tolerance!r}")
        return args.tolerance
    if config.tolerance is not None:
        return config.tolerance
    return default


def _emit(text: str, args) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_check(args) -> int:
    config = _load_config(args)
    seed = _seed(args, config)
    results = checks.run_all(seed)
    lines = [
        f"{'ok  ' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} suites passed (seed {seed})")
    _emit("\n".join(lines) + "\n", args)
    if passed != len(results):
        failing = ", ".join(r.name for r in results if not r.passed)
        print(f"failing suites: {failing}", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_equiv(args) -> int:
    config = _load_config(args)
    seed = _seed(args, config)
    tol = _tolerance(args, config, EQUIV_DEFAULT_TOL)
    dev = checks.reduction_deviations(
        seed, samples=1000, grid_h=config.grid_h, grid_w=config.grid_w, base=config.base
    )
    lines = ["reduction,max_abs_dev,tolerance,pass"]
    for name, value in dev.items():
        lines.append(f"{name},{value!r},{tol!r},{'true' if value <= tol else 'false'}")
    _emit("\n".join(lines) + "\n", args)
    if not all(value <= tol for value in dev.values()):
        worst = max(dev, key=dev.get)
        print(f"reduction {worst} exceeded tolerance: {dev[worst]!r} > {tol!r}", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_encode(args) -> int:
    config = _load_config(args)
    if args.output is None:
        print("encode requires --output", file=sys.stderr)
        return EXIT_CONFIG
    arr = read_tensor(args.input)
    if arr.ndim != 3:
        print(f"input must be rank 3 (batch x tokens x head_dim), got rank {arr.ndim}", file=sys.stderr)
        return EXIT_CONFIG
    batch, tokens, head_dim = arr.shape
    if "head_dim" in config.explicit_keys and config.head_dim != head_dim:
        print(
            f"config head_dim {config.head_dim} does not match tensor head_dim {head_dim}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    if tokens != config.grid_h * config.grid_w:
        print(
            f"tensor has {tokens} tokens but the {config.grid_h}x{config.grid_w} grid "
            f"needs {config.grid_h * config.grid_w}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    method = build_method(dataclasses.replace(config, head_dim=head_dim))
    maps = block_maps(method, config_positions(config))
    # rows are rotated in float64 and cast into an output of the input's
    # dtype one at a time; a non-finite row raises before the file is opened
    out = rotate_rows(arr, method, maps, config.invert)
    write_tensor(args.output, out)
    return EXIT_OK


def cmd_grad(args) -> int:
    config = _load_config(args)
    seed = _seed(args, config)
    tol = _tolerance(args, config, GRAD_DEFAULT_TOL)
    scales = (config.coord_scale_x, config.coord_scale_y)
    positions = config_positions(config)
    errors, channels = checks.gradient_errors(seed, positions, base=config.base, scales=scales)
    rows = [(*case, value, tol) for case, value in errors.items()]
    channel_tol = checks.GRAD_CHANNEL_TOL
    rows.append(("care_invariant_channels", "both", checks.GRAD_CHANNEL_H, channels, channel_tol))
    lines = ["case,coordinate,h,max_rel_err,pass"]
    for name, coordinate, h, value, bound in rows:
        lines.append(f"{name},{coordinate},{h:g},{value!r},{'true' if value <= bound else 'false'}")
    _emit("\n".join(lines) + "\n", args)
    if not all(value <= tol for value in errors.values()):
        tag, coordinate, h = worst = max(errors, key=errors.get)
        worst_label = f"{tag}/{coordinate} at h={h:g}"
        print(f"gradient check failed: {worst_label} rel err {errors[worst]!r}", file=sys.stderr)
        return EXIT_PROPERTY
    if not channels <= channel_tol:
        print(
            f"gradient check failed: care_invariant_channels {channels!r} above its bound {channel_tol!r}",
            file=sys.stderr,
        )
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_bench(args) -> int:
    config = _load_config(args)
    seed = _seed(args, config)
    kernels = None
    if args.kernels is not None:
        kernels = tuple(k.strip() for k in args.kernels.split(",") if k.strip())
    report = bench_mod.run_bench(
        positions=config_positions(config),
        batch=args.batch,
        head_dim=config.head_dim,
        reps=args.reps,
        seed=seed,
        kernels=kernels,
    )
    _emit(report.to_csv(), args)
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "equiv": cmd_equiv,
    "encode": cmd_encode,
    "grad": cmd_grad,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TensorFileError as exc:
        print(f"tensor file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a size too large to allocate is a usage error
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
