"""Micro-benchmarks for the rotation kernels at attention-shaped workloads.

Kernels, cheapest math to heaviest: ``rope1d`` (one unit-complex phase
multiply per token and band), ``quatro`` (one 3x3 map per token and band),
``care_fast`` (``apply_encoding``'s care path: one 3x3 map per token and
band applied to the grade-1 and bivector slots, block-diag(1, M, M, 1)),
and ``care_generic`` (the rotor sandwich through the dense blade-table
engine, the oracle everything else is checked against). Checksums are
reported so dead code cannot be eliminated and so the two care variants
can be confirmed to compute the same thing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import cl3
from .encodings import (
    EncodingMethod,
    TokenBlock,
    apply_encoding,
    grid_positions,
    mv8_rotor,
    token_band_angles,
)

MIN_REPS = 30
WARMUP_RUNS = 5


@dataclass(frozen=True)
class KernelStats:
    """One benchmark row; time fields are nanoseconds per sub-vector rotation."""

    kernel: str
    batch: int
    tokens: int
    head_dim: int
    bands: int
    reps: int
    min_ns: float
    median_ns: float
    mean_ns: float
    rot_per_sec: float
    checksum: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[KernelStats, ...]
    warnings: tuple[str, ...]

    CSV_HEADER = "kernel,batch,tokens,head_dim,reps,min_ns,median_ns,mean_ns,rot_per_sec,checksum"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.kernel},{r.batch},{r.tokens},{r.head_dim},{r.reps},"
                f"{r.min_ns:.3f},{r.median_ns:.3f},{r.mean_ns:.3f},"
                f"{r.rot_per_sec:.1f},{r.checksum!r}"
            )
        return "\n".join(lines) + "\n"


def _encode_care_generic(block: TokenBlock, method: EncodingMethod) -> TokenBlock:
    """care apply_encoding with every product routed through the generic engine."""
    bands, width = method.schedule.num_bands, method.width
    ax, ay = token_band_angles(method, block.positions)
    rx = mv8_rotor(method.axes.unit_x()[None], ax / 2.0).reshape(-1, 8)
    ry = mv8_rotor(method.axes.unit_y()[None], ay / 2.0).reshape(-1, 8)
    rotor = cl3.generic_product(ry, rx)  # y outermost
    sub = block.data[:, :, : bands * width].reshape(block.batch, -1, 8)
    out = cl3.generic_rotor_sandwich(rotor, sub)  # one rotor row serves every batch row
    out = out.reshape(block.batch, block.tokens, bands * width)
    out[..., 0::width] = block.data[:, :, : bands * width : width]  # invariant channels
    out[..., 7::width] = block.data[:, :, 7 : bands * width : width]
    data = np.concatenate([out, block.data[:, :, bands * width :]], axis=-1)
    return TokenBlock(data=data, positions=block.positions)


def _bench_positions(tokens: int) -> np.ndarray:
    """Near-square grid covering exactly `tokens` positions."""
    h = max(1, int(math.isqrt(tokens)))
    while tokens % h:
        h -= 1
    return grid_positions(h, tokens // h)


def _kernel_table(head_dim: int):
    rope = EncodingMethod.configure("rope1d", head_dim)
    quatro = EncodingMethod.configure("quatro", head_dim)
    care = EncodingMethod.configure("care", head_dim)
    table = {
        "rope1d": (rope, lambda b: apply_encoding(b, rope)),
        "quatro": (quatro, lambda b: apply_encoding(b, quatro)),
        "care_fast": (care, lambda b: apply_encoding(b, care)),
        "care_generic": (care, lambda b: _encode_care_generic(b, care)),
    }
    return table


def default_kernels() -> tuple[str, ...]:
    return ("rope1d", "quatro", "care_generic", "care_fast")


def run_bench(
    batch: int = 2,
    tokens: int = 196,
    head_dim: int = 64,
    reps: int = 50,
    seed: int = 0,
    kernels: tuple[str, ...] | None = None,
) -> BenchReport:
    """Time each kernel on one seeded block; stats over `reps` runs.

    5 warm-up runs are discarded; the median is the headline number. The
    directional cost expectation rope1d <= quatro <= care_fast <=
    care_generic is checked on medians and reported as a warning when the
    machine disagrees, never as a failure.
    """
    if reps < MIN_REPS:
        raise ValueError(f"reps must be at least {MIN_REPS}, got {reps}")
    if min(batch, tokens, head_dim) < 1:
        raise ValueError("workload sizes must be positive")
    table = _kernel_table(head_dim)
    names = tuple(kernels) if kernels is not None else default_kernels()
    if not names:
        raise ValueError(f"no kernels to run; known: {', '.join(sorted(table))}")
    for name in names:
        if name not in table:
            raise ValueError(f"unknown kernel {name!r}; known: {', '.join(sorted(table))}")

    positions = _bench_positions(tokens)
    rng = np.random.default_rng(seed)
    block = TokenBlock(
        data=rng.standard_normal((batch, tokens, head_dim)), positions=positions
    )

    rows = []
    medians = {}
    for name in names:
        method, fn = table[name]
        rotations = batch * tokens * method.schedule.num_bands
        for _ in range(WARMUP_RUNS):
            out = fn(block)
        times = np.empty(reps)
        for i in range(reps):
            t0 = time.perf_counter_ns()
            out = fn(block)
            times[i] = time.perf_counter_ns() - t0
        per_rot = times / rotations
        median_ns = float(np.median(per_rot))
        medians[name] = median_ns
        rows.append(
            KernelStats(
                kernel=name,
                batch=batch,
                tokens=tokens,
                head_dim=head_dim,
                bands=method.schedule.num_bands,
                reps=reps,
                min_ns=float(np.min(per_rot)),
                median_ns=median_ns,
                mean_ns=float(np.mean(per_rot)),
                rot_per_sec=1e9 / median_ns,
                checksum=float(np.sum(out.data)),
            )
        )

    warnings = []
    expected_order = [k for k in ("rope1d", "quatro", "care_fast", "care_generic") if k in medians]
    for slow, fast in zip(expected_order[1:], expected_order):
        if medians[slow] < medians[fast]:
            warnings.append(
                f"cost ordering violated on this machine: {slow} median "
                f"{medians[slow]:.1f} ns/rot beat {fast} at {medians[fast]:.1f} ns/rot"
            )
    return BenchReport(rows=tuple(rows), warnings=tuple(warnings))
