"""Time one workload's set-up in a fresh interpreter and print the seconds.

Usage: python3 setup_probe.py WORKLOAD

Set-up is what a process pays before its first request: importing the
program (numpy included), configuring the five methods and one small
warm-up call per method. For ``cli``, where each request is its own
process, it is the bare ``import garope.cli``. Nothing is imported before
the clock starts.
"""

import sys
import time


def main() -> int:
    workload = sys.argv[1]
    t0 = time.perf_counter()
    if workload == "cli":
        import garope.cli  # noqa: F401
    else:
        import numpy as np

        from garope import attention, cli, encodings  # noqa: F401

        block = encodings.TokenBlock(data=np.ones((1, 4, 64)), positions=encodings.grid_positions(2, 2))
        for tag in encodings.METHODS:
            method = encodings.EncodingMethod.configure(tag, 64)
            if workload == "bulk":
                encodings.apply_encoding(encodings.apply_encoding(block, method), method, inverse=True)
            elif workload == "attend":
                attention.score_matrix(block, block, method)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
