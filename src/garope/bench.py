"""Micro-benchmarks for the five encodings at attention-shaped workloads.

One kernel per method of ``METHODS`` (rope1d, mixed, spherical, quatro,
care), each timed through ``apply_encoding``: ``block_maps`` builds one
map per (token, band) and ``rotate_rows`` applies it to every batch row,
the path ``garope encode`` runs. Checksums are reported so dead code
cannot be eliminated and so two runs can be compared bit for bit. The
encoder's agreement with the rotor oracles is ``garope check``'s
``encoder-oracle-agreement`` suite, not a benchmark row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .encodings import METHODS, EncodingMethod, apply_encoding, random_block, require_integer

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


def run_bench(
    positions,
    batch: int = 2,
    head_dim: int = 64,
    reps: int = 50,
    seed: int = 0,
    kernels: tuple[str, ...] | None = None,
) -> BenchReport:
    """Time each named method (default: all of ``METHODS``) through
    ``apply_encoding`` on one seeded block at (tokens, 2) ``positions``;
    stats over `reps` runs.

    5 warm-up runs are discarded; the median is the headline number.
    """
    for name, value in (("batch", batch), ("head_dim", head_dim), ("reps", reps)):
        require_integer(value, name)
    if reps < MIN_REPS:
        raise ValueError(f"reps must be at least {MIN_REPS}, got {reps}")
    tokens = len(positions)
    if min(batch, tokens, head_dim) < 1:
        raise ValueError("workload sizes must be positive")
    names = tuple(kernels) if kernels is not None else METHODS
    known = ", ".join(sorted(METHODS))
    if not names:
        raise ValueError(f"no kernels to run; known: {known}")
    for i, name in enumerate(names):
        if name not in METHODS:
            raise ValueError(f"unknown kernel {name!r}; known: {known}")
        if name in names[:i]:
            raise ValueError(f"kernel {name!r} is listed twice")

    block = random_block(batch, head_dim, positions, seed)

    rows = []
    for name in names:
        method = EncodingMethod.configure(name, head_dim)
        rotations = batch * tokens * method.schedule.num_bands
        for _ in range(WARMUP_RUNS):
            out = apply_encoding(block, method)
        times = np.empty(reps)
        for i in range(reps):
            t0 = time.perf_counter_ns()
            out = apply_encoding(block, method)
            times[i] = time.perf_counter_ns() - t0
        per_rot = times / rotations
        median_ns = float(np.median(per_rot))
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
    return BenchReport(rows=tuple(rows))
