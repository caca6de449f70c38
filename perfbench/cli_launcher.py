"""Run ``garope.cli.main`` with the span tracer installed, in a fresh process.

Usage: python3 cli_launcher.py SPANS.npz CLI_ARGS...

The traced counterpart of the plain ``garope`` entry point: it times the
import of ``garope.cli``, wraps the program's public functions, runs the
command and writes the spans to SPANS.npz. Exits with the command's code.
"""

import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import garope.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.add("cli.import.ms", import_ms)
    tracer.add("cli.import.count", 1)
    tracer.request_id = 0
    tracer.active = True
    try:
        code = garope.cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
