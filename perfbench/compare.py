"""Compare two result records written by run.py, metric by metric.

Usage: python3 perfbench/compare.py BEFORE.json AFTER.json

Records are comparable only when their environments name the same Cl(3,0)
backend and core count (``env.comparable_key``); otherwise the pair is
reported as not comparable and the exit code is 1.
"""

import json
import sys


def load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv) -> int:
    before, after = load(argv[1]), load(argv[2])
    key_a, key_b = before["env"]["comparable_key"], after["env"]["comparable_key"]
    if key_a != key_b:
        print(f"not comparable: {key_a} vs {key_b}")
        return 1
    metrics_a, metrics_b = before["result"]["metrics"], after["result"]["metrics"]
    for name, a in metrics_a.items():
        b = metrics_b.get(name)
        if b is None:
            continue
        change = (b["value"] - a["value"]) / a["value"] if a["value"] else float("nan")
        print(f"{name}: {a['value']!r} -> {b['value']!r} {a['unit']} ({change:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
