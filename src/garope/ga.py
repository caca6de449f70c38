"""Dense Clifford algebra Cl(n,0) over blade bitmasks.

Basis blades are indexed by n-bit masks: bit k set means basis vector
e_{k+1} participates in the blade. A multivector is a length-2^n float64
coefficient array in ascending mask order, so the product of two basis
blades lands at the XOR of their masks with a sign from counting
basis-vector transpositions (every e_k squares to +1).

All operations are pure and take raw coefficient arrays of shape
(..., 2^n). Each ``Algebra`` is built once per n and shared, so its
tables are frozen: an in-place edit raises instead of corrupting every
later product.
"""

from __future__ import annotations

import numbers

import numpy as np

MAX_DIM = 12  # 4096 blades; keeps the dense representation bounded
UNIT_TOL = 1e-9  # tolerance on |<R ~R>_0 - 1| before rejecting a rotor


def _popcount(x):
    return np.bitwise_count(np.asarray(x, dtype=np.uint64)).astype(np.int64)


class Algebra:
    """Product tables and grade bookkeeping for Cl(n,0), cached per n."""

    _cache: dict[int, "Algebra"] = {}

    def __new__(cls, dim: int):
        if not isinstance(dim, numbers.Integral) or not 1 <= dim <= MAX_DIM:
            raise ValueError(f"algebra dimension must be in 1..{MAX_DIM}, got {dim!r}")
        dim = int(dim)
        if dim not in cls._cache:
            self = super().__new__(cls)
            self._build(dim)
            cls._cache[dim] = self
        return cls._cache[dim]

    def _build(self, dim: int) -> None:
        self.dim = dim
        self.size = 1 << dim
        masks = np.arange(self.size, dtype=np.int64)
        self.grades = _popcount(masks)

        # sign[i, j] of the blade product b_i * b_j: parity of the number of
        # transpositions needed to sort the concatenated factor list
        swaps = np.zeros((self.size, self.size), dtype=np.int64)
        shifted = masks[:, None] >> 1
        while shifted.any():
            swaps += _popcount(shifted & masks[None, :])
            shifted >>= 1
        self.sign = np.where(swaps & 1, -1.0, 1.0)

        # xor_perm[i] sends column index k to i ^ k (its own inverse)
        self.xor_perm = masks[:, None] ^ masks[None, :]
        self.reverse_signs = np.where((self.grades * (self.grades - 1) // 2) & 1, -1.0, 1.0)
        for table in (self.grades, self.sign, self.xor_perm, self.reverse_signs):
            table.flags.writeable = False

    def gp(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Geometric product on raw coefficient arrays of shape (..., 2^n)."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape[-1:] != (self.size,) or b.shape[-1:] != (self.size,):
            raise ValueError(
                f"Cl({self.dim},0) operands need a trailing axis of {self.size}, "
                f"got shapes {a.shape} and {b.shape}"
            )
        shape = np.broadcast_shapes(a.shape, b.shape)
        out = np.zeros(shape, dtype=np.float64)
        for i in range(self.size):
            perm = self.xor_perm[i]
            out += a[..., i, None] * (self.sign[i, perm] * b[..., perm])
        return out

    def reverse(self, a: np.ndarray) -> np.ndarray:
        """Reversion anti-automorphism: grade g scaled by (-1)^(g(g-1)/2)."""
        return np.asarray(a, dtype=np.float64) * self.reverse_signs

    def grade_project(self, a: np.ndarray, g: int) -> np.ndarray:
        """Keep only the grade-g coefficients of a."""
        if not 0 <= g <= self.dim:
            raise ValueError(f"grade {g} out of range for Cl({self.dim},0)")
        return np.where(self.grades == g, np.asarray(a, dtype=np.float64), 0.0)
