"""Fingerprint the outputs of ``garope check``, ``equiv`` and ``grad`` over a
range of seeds, and of ``garope encode`` on fixed inputs, and compare two
fingerprint files.

    python3 tools/verify_outputs.py record --src src --seeds 0-999,2031 --out change.json
    python3 tools/verify_outputs.py compare parent.json change.json

``record`` imports ``garope.cli`` from the source tree ``--src`` and runs
``main([command, "--seed", seed])`` for every command and seed in one
process, with stdout and stderr captured. Per (command, seed) it writes
the exit code and the sha256 of stdout and of stderr. It runs ``equiv``
and ``grad`` a second time with ``--config`` on ``SCALED_CONFIG`` (both
coordinate scales away from 1, an off-origin grid and another base), so
that a dropped or swapped scale shows, and records them as
``equiv/config`` and ``grad/config``.

It then runs ``main(["encode", ...])`` on tensors it writes itself from
``ENCODE_SEED``, on a 6x7 grid at origin (0.5, -2): every method, float32
and float64, head_dim 64, 66 and 67, forward and inverse, and four inputs
that must fail (a NaN in a rotated dim, a NaN in a pass-through dim, a
float32 overflow in batch row 1, a float64 rotation overflow). Per run it
writes the exit code, the sha256 of the output file (null when none was
written) and of stderr, and the numpy warnings raised, as category and
message without the source path and line that differ between trees.

Last it runs ``main(["bench", *BENCH_ARGS])`` and writes the exit code
and the sha256 of its CSV with the timing columns dropped: the kernel,
shape and ``checksum`` columns, which show any change in the bytes the
encoder produces.

``compare`` prints every run whose record differs or exists on one side
only, then one line per command (record class): how many of its runs
differ, and in which fields (``exit``, ``stdout_sha256``,
``stderr_sha256``, ``output_sha256``, ``warnings``). It exits 1 if any
run differs, else 0.

Two source trees are compared by recording each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np

COMMANDS = ("check", "equiv", "grad")
ENCODE_SEED = 20310
ENCODE_CONFIG = "grid_h = 6\ngrid_w = 7\norigin_x = 0.5\norigin_y = -2\n"
ENCODE_BATCH = 3
CONFIG_COMMANDS = ("equiv", "grad")
SCALED_CONFIG = ENCODE_CONFIG + "coord_scale_x = 1.3\ncoord_scale_y = 0.7\nbase = 500\n"
BENCH_ARGS = ("--seed", "3", "--reps", "30")
BENCH_TIMING_COLUMNS = ("min_ns", "median_ns", "mean_ns", "rot_per_sec")


def parse_seeds(text: str) -> list[int]:
    """``"0-999,2031"`` -> [0, 1, ..., 999, 2031]; ranges include both ends."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _encode_cases():
    """(label, method, dtype, head_dim, invert, spoil) per encode run;
    spoil is None or an (index, value) written into the seeded input."""
    from garope.encodings import METHODS

    for method in METHODS:
        for dtype in ("float32", "float64"):
            for head_dim in (64, 66, 67):
                for invert in (False, True):
                    direction = "inverse" if invert else "forward"
                    yield f"{method}/{dtype}/{head_dim}/{direction}", method, dtype, head_dim, invert, None
    yield "fails/nan-in-rotated-dim", "quatro", "float32", 66, False, ((1, 5, 3), np.nan)
    yield "fails/nan-in-pass-through-dim", "quatro", "float64", 67, False, ((1, 5, 66), np.nan)
    # rope1d band 0 turns token 0 (p_x = 0.5) by 0.5 rad, and cos + sin > 1
    # takes a pair of values at the dtype's limit past it
    f32_max = np.finfo(np.float32).max
    yield "fails/float32-overflow-in-row-1", "rope1d", "float32", 64, False, ((1, 0, slice(2)), f32_max)
    yield "fails/float64-rotation-overflow", "rope1d", "float64", 64, False, ((2, 0, slice(2)), 1.7e308)


def _record_encode(main) -> dict:
    from garope.formats import write_tensor

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "grid.cfg")
        for i, (label, method, dtype, head_dim, invert, spoil) in enumerate(_encode_cases()):
            rng = np.random.default_rng(ENCODE_SEED)
            data = rng.standard_normal((ENCODE_BATCH, 42, head_dim)).astype(dtype)
            if spoil is not None:
                index, value = spoil
                data[index] = value
            src, dst = os.path.join(tmp, f"in{i}.rten"), os.path.join(tmp, f"out{i}.rten")
            write_tensor(src, data)
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(ENCODE_CONFIG + f"method = {method}\ninvert = {str(invert).lower()}\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["encode", src, "--config", config, "--output", dst])
            output = None
            if os.path.exists(dst):
                with open(dst, "rb") as fh:
                    output = hashlib.sha256(fh.read()).hexdigest()
            runs[label] = {
                "exit": code,
                "output_sha256": output,
                "stderr_sha256": _sha256(err.getvalue()),
                "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            }
    return runs


def _record_bench(main) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["bench", *BENCH_ARGS])
    rows = [line.split(",") for line in out.getvalue().splitlines()]
    keep = [i for i, name in enumerate(rows[0] if rows else ()) if name not in BENCH_TIMING_COLUMNS]
    checksums = "".join(",".join(row[i] for i in keep) + "\n" for row in rows)
    return {
        " ".join(BENCH_ARGS): {
            "exit": code,
            "stdout_sha256": _sha256(checksums),
            "stderr_sha256": _sha256(err.getvalue()),
        }
    }


def _record_seeds(main, command: str, seeds: list[int], options=()) -> dict:
    runs = {}
    for seed in seeds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--seed", str(seed), *options])
        runs[str(seed)] = {
            "exit": code,
            "stdout_sha256": _sha256(out.getvalue()),
            "stderr_sha256": _sha256(err.getvalue()),
        }
    return runs


def record(src: str, seeds: list[int]) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    from garope.cli import main

    results = {command: _record_seeds(main, command, seeds) for command in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "scaled.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(SCALED_CONFIG)
        for command in CONFIG_COMMANDS:
            results[f"{command}/config"] = _record_seeds(main, command, seeds, ("--config", config))
    results["encode"] = _record_encode(main)
    results["bench"] = _record_bench(main)
    return {"src": os.path.abspath(src), "results": results}


def _run_order(key: str):
    """Seeds in numeric order, then encode labels in text order."""
    return (0, int(key), "") if key.isdigit() else (1, 0, key)


def compare(a: dict, b: dict) -> tuple[list[str], list[str]]:
    """One line per run whose records differ, and one per command: its
    differing runs out of all, and the fields that differ in them."""
    lines, classes = [], []
    for command in sorted(set(a["results"]) | set(b["results"])):
        runs_a, runs_b = a["results"].get(command, {}), b["results"].get(command, {})
        keys = sorted(set(runs_a) | set(runs_b), key=_run_order)
        differing, fields = 0, {}
        for key in keys:
            run = f"{command} --seed {key}" if key.isdigit() else f"{command} {key}"
            ra, rb = runs_a.get(key), runs_b.get(key)
            if ra is None or rb is None:
                differing += 1
                fields["recorded on one side only"] = None
                lines.append(f"{run}: recorded on one side only")
            elif ra != rb:
                differing += 1
                names = [k for k in ra if ra[k] != rb.get(k)]
                fields.update(dict.fromkeys(names))
                lines.append(f"{run}: {', '.join(names)} differ")
        where = f" in {', '.join(fields)}" if fields else ""
        classes.append(f"{command}: {differing} of {len(keys)} runs differ{where}")
    return lines, classes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_rec = sub.add_parser("record", help="fingerprint one source tree's outputs")
    p_rec.add_argument("--src", required=True, help="directory holding the garope package")
    p_rec.add_argument("--seeds", default="0-999,2031", help="e.g. 0-999,2031")
    p_rec.add_argument("--out", required=True, help="JSON file to write")
    p_cmp = sub.add_parser("compare", help="compare two fingerprint files")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)

    if args.action == "record":
        report = record(args.src, parse_seeds(args.seeds))
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        runs = sum(len(r) for r in report["results"].values())
        print(f"recorded {runs} runs to {args.out}")
        return 0

    with open(args.a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b = json.load(fh)
    lines, classes = compare(a, b)
    for line in lines + classes:
        print(line)
    runs = len({(c, s) for r in (a, b) for c, seeds in r["results"].items() for s in seeds})
    print(f"{len(lines)} of {runs} run records differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
