"""Fingerprint the outputs of ``garope check``, ``equiv`` and ``grad`` over a
range of seeds, and compare two fingerprint files.

    python3 tools/verify_outputs.py record --src src --seeds 0-999,2031 --out change.json
    python3 tools/verify_outputs.py compare parent.json change.json

``record`` imports ``garope.cli`` from the source tree ``--src`` and runs
``main([command, "--seed", seed])`` for every command and seed in one
process, with stdout and stderr captured. Per (command, seed) it writes
the exit code and the sha256 of stdout and of stderr. ``compare`` prints
every (command, seed) whose record differs or exists on one side only,
and exits 1 if there is any, else 0.

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

COMMANDS = ("check", "equiv", "grad")


def parse_seeds(text: str) -> list[int]:
    """``"0-999,2031"`` -> [0, 1, ..., 999, 2031]; ranges include both ends."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(src: str, seeds: list[int]) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    from garope.cli import main

    results = {}
    for command in COMMANDS:
        runs = results[command] = {}
        for seed in seeds:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--seed", str(seed)])
            runs[str(seed)] = {
                "exit": code,
                "stdout_sha256": _sha256(out.getvalue()),
                "stderr_sha256": _sha256(err.getvalue()),
            }
    return {"src": os.path.abspath(src), "results": results}


def compare(a: dict, b: dict) -> list[str]:
    """One line per (command, seed) whose records differ."""
    lines = []
    for command in sorted(set(a["results"]) | set(b["results"])):
        runs_a, runs_b = a["results"].get(command, {}), b["results"].get(command, {})
        for seed in sorted(set(runs_a) | set(runs_b), key=int):
            ra, rb = runs_a.get(seed), runs_b.get(seed)
            if ra is None or rb is None:
                lines.append(f"{command} --seed {seed}: recorded on one side only")
            elif ra != rb:
                keys = ", ".join(k for k in ra if ra[k] != rb.get(k))
                lines.append(f"{command} --seed {seed}: {keys} differ")
    return lines


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
    lines = compare(a, b)
    for line in lines:
        print(line)
    runs = len({(c, s) for r in (a, b) for c, seeds in r["results"].items() for s in seeds})
    print(f"{len(lines)} of {runs} (command, seed) records differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
