"""Frozen witness configurations for shift-equivariance violations.

The non-commuting methods (spherical, quatro with non-parallel axes) lose
the relative-position property: a common shift of all positions changes
the attention scores. That is an existential claim, so the evidence is a
concrete configuration. The two below are hand-picked and frozen, so test
runs are deterministic and regressions reproduce exactly;
``evaluate_witness`` re-measures each gap from scratch on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import shift_invariance_gap
from .encodings import EncodingMethod, TokenBlock, grid_positions, random_block

WITNESS_GAP_FLOOR = 1e-3


@dataclass(frozen=True)
class WitnessFixture:
    """Everything needed to rebuild one gap measurement bit-for-bit."""

    tag: str
    head_dim: int
    grid_h: int
    grid_w: int
    seed: int
    shift: tuple[float, float]
    base: float = 10000.0
    axes_x: tuple[float, float, float] | None = None
    axes_y: tuple[float, float, float] | None = None
    expected_gap: float = WITNESS_GAP_FLOOR  # lower bound, not an equality

    def method(self) -> EncodingMethod:
        ax = None if self.axes_x is None else np.array(self.axes_x)
        ay = None if self.axes_y is None else np.array(self.axes_y)
        return EncodingMethod.configure(self.tag, self.head_dim, base=self.base, axes_x=ax, axes_y=ay)

    def block(self) -> TokenBlock:
        return random_block(1, self.head_dim, grid_positions(self.grid_h, self.grid_w), seed=self.seed)


def evaluate_witness(fixture: WitnessFixture) -> float:
    return shift_invariance_gap(fixture.method(), fixture.block(), np.array(fixture.shift))


# Hand-picked; evaluate_witness measures gaps 1.684 and 2.509, far above the floor.
SPHERICAL_WITNESS = WitnessFixture(
    tag="spherical", head_dim=6, grid_h=4, grid_w=4, seed=11, shift=(1.0, -1.0), expected_gap=1.68
)
QUATRO_WITNESS = WitnessFixture(
    tag="quatro",
    head_dim=6,
    grid_h=4,
    grid_w=4,
    seed=11,
    shift=(1.0, -1.0),
    axes_x=(1.0, 0.5, -0.25),  # deliberately non-parallel pair
    axes_y=(-0.3, 0.9, 1.1),
    expected_gap=2.50,
)

WITNESSES = (SPHERICAL_WITNESS, QUATRO_WITNESS)
