"""Attention-score experiments over the positional encodings.

Scores are pre-softmax scaled dot products; softmax is monotone and would
only blur the tolerances, so equivariance is measured on the raw scores.
The interesting dichotomy: methods whose two coordinate rotations commute
(rope1d, mixed) give scores that depend only on position differences,
while spherical/quatro/care with non-parallel axes do not — a uniform
shift of all positions moves their scores by a measurable gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encodings import (
    EncodingMethod,
    TokenBlock,
    _read_only,
    apply_maps,
    block_maps,
    require_integer,
    rotate_rows,
)

DIRECTIONS = 128  # unit directions commutator_norm probes on a band
# Q K^T is formed in square tiles of side isqrt(this // head_dim), so that
# no matrix product does more than this many multiply-adds. OpenBLAS runs
# products this small on the calling thread; larger ones wake its worker
# threads, where a library caller's numpy has them, and on a 2-vCPU VM
# such wake-ups stalled single score requests for ~30 ms. (A garope
# process starts none; see cli.) At head_dim 64 a tile is 64 x 64 and
# reads a 64-column block of K^T, where a query-row strip read all of it.
PRODUCT_CHUNK_MULADDS = 1 << 18
_DIRECTION_SEED = 20240915  # fixed so commutator sampling is reproducible


@dataclass(frozen=True)
class AttentionScores:
    """Pre-softmax score matrices, one tokens x tokens slab per batch row."""

    scores: np.ndarray  # (batch, tokens, tokens)

    def __post_init__(self):
        scores = _read_only(self.scores, "scores")
        if scores.ndim != 3 or scores.shape[1] != scores.shape[2]:
            raise ValueError("scores must be batch x tokens x tokens")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores contain non-finite values")
        object.__setattr__(self, "scores", scores)

    @property
    def tokens(self) -> int:
        return self.scores.shape[1]


def score_matrix(
    q_block: TokenBlock, k_block: TokenBlock, method: EncodingMethod
) -> AttentionScores:
    """Encode queries and keys, then form (Q K^T) / sqrt(head_dim).

    Queries and keys share positions, so their maps are built once; a
    block passed as both is rotated once.
    """
    if q_block.data.shape != k_block.data.shape:
        raise ValueError("query and key blocks must share batch/tokens/head_dim")
    if not np.array_equal(q_block.positions, k_block.positions):
        raise ValueError("query and key blocks must share positions")
    maps = block_maps(method, q_block.positions)
    q = rotate_rows(q_block.data, method, maps)
    k = q if k_block is q_block else rotate_rows(k_block.data, method, maps)
    batch, tokens, head_dim = q.shape
    scores = np.empty((batch, tokens, tokens))
    k_t = k.transpose(0, 2, 1)
    side = max(1, math.isqrt(PRODUCT_CHUNK_MULADDS // max(1, head_dim)))
    for r in range(0, tokens, side):
        rows = slice(r, r + side)
        for c in range(0, tokens, side):
            cols = slice(c, c + side)
            np.matmul(q[:, rows], k_t[..., cols], out=scores[:, rows, cols])
    scale = math.sqrt(head_dim)
    if math.frexp(scale)[0] == 0.5:  # a power of two: its exact reciprocal makes this the division
        scores *= 1.0 / scale
    else:
        scores /= scale
    return AttentionScores(scores=scores)


def shift_positions(block: TokenBlock, shift) -> TokenBlock:
    """Same data, every position moved by one common 2D offset."""
    shift = np.asarray(shift, dtype=np.float64)
    if shift.shape != (2,):
        raise ValueError("shift must be a 2-vector")
    return TokenBlock(data=block.data, positions=block.positions + shift)


def shift_invariance_gap(method: EncodingMethod, block: TokenBlock, shift) -> float:
    """Max-abs score change when all positions move by a common shift.

    Zero (to round-off) exactly when the method's position rotations
    commute, so relative offsets are all that matter.
    """
    base = score_matrix(block, block, method).scores
    moved_block = shift_positions(block, shift)
    moved = score_matrix(moved_block, moved_block, method).scores
    return float(np.max(np.abs(base - moved)))


def _unit_directions(width: int) -> np.ndarray:
    """DIRECTIONS deterministic unit vectors: circle / Fibonacci sphere / seeded."""
    if width == 2:
        ang = 2.0 * np.pi * np.arange(DIRECTIONS) / DIRECTIONS
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if width == 3:
        i = np.arange(DIRECTIONS, dtype=np.float64)
        z = 1.0 - 2.0 * (i + 0.5) / DIRECTIONS
        r = np.sqrt(1.0 - z * z)
        phi = i * np.pi * (3.0 - np.sqrt(5.0))  # golden angle
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
    pts = np.random.default_rng(_DIRECTION_SEED).standard_normal((DIRECTIONS, width))
    return pts / np.linalg.norm(pts, axis=-1, keepdims=True)


def _finite_position(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise ValueError(f"{name} must be a finite 2-vector")
    return p


def commutator_norm(method: EncodingMethod, p_a, p_b, band: int = 0) -> float:
    """Operator gap ||R(p_a) R(p_b) - R(p_b) R(p_a)|| on one band.

    Measured as the max output difference between the two application
    orders over DIRECTIONS (128) deterministic unit directions of the
    carrier space. Zero iff the band's rotations at the two positions
    commute (always true for rope1d/mixed, generically false otherwise).
    """
    require_integer(band, "band")
    if not 0 <= band < method.schedule.num_bands:
        raise ValueError("band index out of range")
    p_a, p_b = _finite_position(p_a, "p_a"), _finite_position(p_b, "p_b")
    maps = block_maps(method, [p_a, p_b])[..., band]  # R(p_a), R(p_b) on the band
    r_a, r_b = maps[..., 0], maps[..., 1]
    dirs = _unit_directions(method.width)
    ab = apply_maps(method.tag, r_a, apply_maps(method.tag, r_b, dirs))
    ba = apply_maps(method.tag, r_b, apply_maps(method.tag, r_a, dirs))
    return float(np.max(np.abs(ab - ba)))

