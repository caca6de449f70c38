"""Dense Clifford algebra Cl(n,0) over blade bitmasks.

Basis blades are indexed by n-bit masks: bit k set means basis vector
e_{k+1} participates in the blade. A multivector is a length-2^n float64
coefficient array in ascending mask order, so the product of two basis
blades lands at the XOR of their masks with a sign from counting
basis-vector transpositions (every e_k squares to +1).

All operations are pure; multivector coefficient arrays are frozen after
construction so values can be shared freely across threads.
"""

from __future__ import annotations

import math
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

    def gp(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Geometric product on raw coefficient arrays of shape (..., 2^n)."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        shape = np.broadcast_shapes(a.shape, b.shape)
        out = np.zeros(shape, dtype=np.float64)
        for i in range(self.size):
            perm = self.xor_perm[i]
            out += a[..., i, None] * (self.sign[i, perm] * b[..., perm])
        return out

    def reverse(self, a: np.ndarray) -> np.ndarray:
        return np.asarray(a, dtype=np.float64) * self.reverse_signs

    def grade_project(self, a: np.ndarray, g: int) -> np.ndarray:
        if not 0 <= g <= self.dim:
            raise ValueError(f"grade {g} out of range for Cl({self.dim},0)")
        return np.where(self.grades == g, np.asarray(a, dtype=np.float64), 0.0)

    def blade_name(self, mask: int) -> str:
        if mask == 0:
            return "1"
        return "e" + "".join(str(k + 1) for k in range(self.dim) if mask >> k & 1)

    def blade_mask(self, name: str) -> int:
        """Mask for a blade name like "e13" (digit indexing, so dim <= 9)."""
        if name == "1":
            return 0
        if self.dim > 9 or not name.startswith("e"):
            raise ValueError(f"cannot parse blade name {name!r} in Cl({self.dim},0)")
        mask = 0
        for ch in name[1:]:
            k = int(ch) - 1
            if not 0 <= k < self.dim or mask >> k & 1:
                raise ValueError(f"bad blade name {name!r} for Cl({self.dim},0)")
            mask |= 1 << k
        return mask

    def blade(self, spec: int | str, coeff: float = 1.0) -> "Multivector":
        """Single-blade multivector from a mask or a name like "e12"."""
        mask = self.blade_mask(spec) if isinstance(spec, str) else int(spec)
        if not 0 <= mask < self.size:
            raise ValueError(f"blade mask {mask} out of range for Cl({self.dim},0)")
        coeffs = np.zeros(self.size)
        coeffs[mask] = coeff
        return Multivector(self.dim, coeffs)


class Multivector:
    """Immutable dense multivector of Cl(n,0)."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs):
        algebra = Algebra(dim)
        arr = np.array(coeffs, dtype=np.float64)
        if arr.shape != (algebra.size,):
            raise ValueError(
                f"Cl({dim},0) needs {algebra.size} coefficients, got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    @property
    def algebra(self) -> Algebra:
        return Algebra(self.dim)

    def __add__(self, other):
        other = _coerce(other, self.dim)
        return Multivector(self.dim, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other, self.dim)
        return Multivector(self.dim, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return _coerce(other, self.dim) - self

    def __neg__(self):
        return Multivector(self.dim, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return Multivector(self.dim, self.coeffs * float(other))
        return geometric_product(self, _coerce(other, self.dim))

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return Multivector(self.dim, self.coeffs * float(other))
        return geometric_product(_coerce(other, self.dim), self)

    def __invert__(self):
        return reverse(self)

    def grade(self, g: int) -> "Multivector":
        return grade_project(self, g)

    def norm(self) -> float:
        return mv_norm(self)

    def __repr__(self):
        alg = self.algebra
        parts = []
        for mask, c in enumerate(self.coeffs):
            if c == 0.0:
                continue
            name = alg.blade_name(mask)
            parts.append(f"{c:g}" if mask == 0 else f"{c:g}*{name}")
        return " + ".join(parts) if parts else "0"


def _coerce(value, dim: int) -> Multivector:
    if isinstance(value, Multivector):
        if value.dim != dim:
            raise ValueError(f"dimension mismatch: Cl({value.dim},0) vs Cl({dim},0)")
        return value
    if isinstance(value, numbers.Real):
        coeffs = np.zeros(Algebra(dim).size)
        coeffs[0] = float(value)
        return Multivector(dim, coeffs)
    raise TypeError(f"cannot combine {type(value).__name__} with Multivector")


class Rotor(Multivector):
    """Unit even-grade multivector; validated on construction.

    Enforces exactly-zero odd-grade coefficients and <R ~R>_0 = 1 within
    UNIT_TOL. In Cl(n,0) the scalar part of R ~R equals the plain sum of
    squared coefficients, which is what we check.
    """

    __slots__ = ()

    def __init__(self, dim_or_mv, coeffs=None):
        if isinstance(dim_or_mv, Multivector) and coeffs is None:
            dim, coeffs = dim_or_mv.dim, dim_or_mv.coeffs
        else:
            dim = dim_or_mv
        super().__init__(dim, coeffs)
        alg = self.algebra
        if np.any(self.coeffs[alg.grades % 2 == 1] != 0.0):
            raise ValueError("rotor has nonzero odd-grade coefficients")
        mag = float(np.dot(self.coeffs, self.coeffs))
        if not abs(mag - 1.0) <= UNIT_TOL:  # written so NaN fails too
            raise ValueError(f"rotor is not unit: <R ~R>_0 = {mag!r}")

    def __mul__(self, other):
        if isinstance(other, Rotor):
            return Rotor(super().__mul__(other))
        return super().__mul__(other)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Associative bilinear product of Cl(n,0); requires a.dim == b.dim."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: Cl({a.dim},0) vs Cl({b.dim},0)")
    return Multivector(a.dim, Algebra(a.dim).gp(a.coeffs, b.coeffs))


def reverse(a: Multivector) -> Multivector:
    """Reversion anti-automorphism: grade g scaled by (-1)^(g(g-1)/2)."""
    return Multivector(a.dim, a.algebra.reverse(a.coeffs))


def grade_project(a: Multivector, g: int) -> Multivector:
    """Keep only the grade-g coefficients of a."""
    return Multivector(a.dim, a.algebra.grade_project(a.coeffs, g))


def mv_norm(a: Multivector) -> float:
    """Euclidean coefficient norm, equal to sqrt(<a ~a>_0) in Cl(n,0)."""
    return float(np.sqrt(np.dot(a.coeffs, a.coeffs)))


def rotor_exp(B: Multivector, half_angle: float) -> Rotor:
    """Closed-form exponential cos(h) + sin(h) B of a unit bivector B.

    h is the half angle: rotor_exp(B, theta / 2) rotates by theta. B must
    be purely grade 2 with unit norm (within UNIT_TOL); then B*B = -1 and
    the closed form equals the power series of exp(h B) exactly.
    """
    alg = B.algebra
    if np.any(B.coeffs[alg.grades != 2] != 0.0):
        raise ValueError("rotor generator must be purely grade 2")
    mag = float(np.dot(B.coeffs, B.coeffs))
    if not abs(mag - 1.0) <= UNIT_TOL:
        raise ValueError(f"rotor generator must be a unit bivector, got norm^2 {mag!r}")
    coeffs = math.sin(half_angle) * B.coeffs
    coeffs = coeffs.copy()
    coeffs[0] = math.cos(half_angle)
    return Rotor(B.dim, coeffs)


def sandwich(R: Rotor, a: Multivector) -> Multivector:
    """Conjugation R a ~R; rotates a while preserving its grade split."""
    if not isinstance(R, Rotor):
        R = Rotor(R)  # validates evenness and unit magnitude
    if R.dim != a.dim:
        raise ValueError(f"dimension mismatch: Cl({R.dim},0) vs Cl({a.dim},0)")
    alg = Algebra(a.dim)
    out = alg.gp(alg.gp(R.coeffs, a.coeffs), alg.reverse(R.coeffs))
    return Multivector(a.dim, out)
