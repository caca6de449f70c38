"""Sweep seeds over every ``check`` suite, ``equiv`` reduction and ``grad``
case, and show how close each comes to its bound.

    python3 tools/margins.py --src src --check-seeds 0-1499,2031 --seeds 0-599 --out tools/margins.md

Imports garope from the source tree ``--src`` and runs everything in one
process through ``garope.checks``, at the default configuration that
``garope check``, ``equiv`` and ``grad`` use with no ``--config``:

* ``check``: ``checks.run_all`` at every seed of ``--check-seeds``; per
  suite, the seeds at which it fails and the first failure's detail;
* ``equiv``: ``checks.reduction_deviations`` (1000 samples on the default
  grid) at every seed of ``--seeds``; per reduction, the worst deviation,
  the seed it fell at, and its ratio to the default tolerance;
* ``grad``: ``checks.gradient_errors`` on the default grid at the same
  seeds; per (method, angle, step) case and for care's invariant
  channels, the worst value, its seed and its ratio to the bound.

A ratio below 1 passes at every seed swept; the closer to 1, the smaller
the margin. The Markdown table goes to stdout, and to ``--out`` if given.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from verify_outputs import parse_seeds


def _seed_text(seeds: list[int]) -> str:
    """[0, 1, 2, 5] -> "0-2,5"."""
    parts, start = [], None
    for i, seed in enumerate(seeds):
        if start is None:
            start = seed
        if i + 1 == len(seeds) or seeds[i + 1] != seed + 1:
            parts.append(f"{start}" if start == seed else f"{start}-{seed}")
            start = None
    return ",".join(parts) or "none"


def _worst(table: dict, key, value: float, seed: int) -> None:
    if key not in table or value > table[key][0]:
        table[key] = (value, seed)


def sweep(check_seeds: list[int], seeds: list[int]) -> tuple[dict, dict, dict, dict]:
    """(failing seeds and first detail per suite, worst equiv deviations,
    worst grad errors, bounds); the worst tables map a key to (value, seed)."""
    from garope import checks
    from garope.cli import EQUIV_DEFAULT_TOL, GRAD_DEFAULT_TOL
    from garope.formats import RunConfig, config_positions

    config = RunConfig()
    failing = {name: ([], None) for name, _ in checks.SUITES}
    for seed in check_seeds:
        for result in checks.run_all(seed):
            if not result.passed:
                seen, detail = failing[result.name]
                failing[result.name] = (seen + [seed], detail or result.detail)
    equiv, grad = {}, {}
    positions = config_positions(config)
    scales = (config.coord_scale_x, config.coord_scale_y)
    for seed in seeds:
        dev = checks.reduction_deviations(
            seed, samples=1000, grid_h=config.grid_h, grid_w=config.grid_w, base=config.base
        )
        for name, value in dev.items():
            _worst(equiv, name, value, seed)
        errors, channels = checks.gradient_errors(seed, positions, base=config.base, scales=scales)
        for case, value in errors.items():
            _worst(grad, case, value, seed)
        _worst(grad, ("care_invariant_channels", "both", checks.GRAD_CHANNEL_H), channels, seed)
    bounds = {"equiv": EQUIV_DEFAULT_TOL, "grad": GRAD_DEFAULT_TOL, "channels": checks.GRAD_CHANNEL_TOL}
    return failing, equiv, grad, bounds


def table(check_seeds: list[int], seeds: list[int], results) -> str:
    failing, equiv, grad, bounds = results
    lines = [
        "# Bound margins of check, equiv and grad",
        "",
        f"numpy {np.__version__}; default configuration (no --config). "
        "worst / bound below 1 passes at every seed swept.",
        "",
        f"## check suites, seeds {_seed_text(check_seeds)}",
        "",
        "| suite | failing seeds | first failure |",
        "|---|---|---|",
    ]
    for name, (seen, detail) in failing.items():
        lines.append(f"| {name} | {_seed_text(seen)} | {detail or ''} |")
    lines += [
        "",
        f"## equiv reductions, seeds {_seed_text(seeds)}, bound {bounds['equiv']:g}",
        "",
        "| reduction | worst | at seed | worst / bound |",
        "|---|---|---|---|",
    ]
    for name, (value, seed) in equiv.items():
        lines.append(f"| {name} | {value:.3e} | {seed} | {value / bounds['equiv']:.2e} |")
    lines += [
        "",
        f"## grad cases, seeds {_seed_text(seeds)}",
        "",
        "| case | coordinate | h | worst | at seed | bound | worst / bound |",
        "|---|---|---|---|---|---|---|",
    ]
    for (name, coordinate, h), (value, seed) in grad.items():
        bound = bounds["channels"] if name == "care_invariant_channels" else bounds["grad"]
        lines.append(
            f"| {name} | {coordinate} | {h:g} | {value:.3e} | {seed} | {bound:g} | {value / bound:.2e} |"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the garope package")
    parser.add_argument("--check-seeds", default="0-1499,2031", help="seeds for the check suites")
    parser.add_argument("--seeds", default="0-599", help="seeds for equiv and grad")
    parser.add_argument("--out", help="also write the Markdown table here")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    check_seeds, seeds = parse_seeds(args.check_seeds), parse_seeds(args.seeds)
    t0 = time.perf_counter()
    text = table(check_seeds, seeds, sweep(check_seeds, seeds))
    print(text, end="")
    print(f"swept in {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
