"""Run one workload of garope's benchmark and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

Workloads: bulk, attend and cli (see workloads.py). The program is
imported from ``src/`` (as with ``PYTHONPATH=src``), never from an
installed copy.

``--trace 0`` measures the end-to-end metrics with no tracing: requests
run one after another and every output goes through the workload's gates.
A run issues a fixed number of requests in whole rounds of the workload's
mix, sized from ``--seconds`` and the workload's nominal cost per request,
so a run lasts about ``--seconds`` at the commit that defined the
benchmark. A fixed count keeps the mix, and so the rank the median and
tail fall on, the same in every run and on every commit; a time limit
would let them drift with speed. At least 11 requests run, so the tail
percentile exists.
``--trace 1`` runs fixed blocks of requests twice, first untraced and
then with every public function of the program wrapped, and reports the
per-layer metrics plus the tracing overhead between the two passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it name the environment and workload-specific figures; the full record,
including which gates failed, is written to ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
SETUP_PROBES = 5
MIN_REQUESTS = 11
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description="garope benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cache_sizes() -> dict:
    """Cache levels of cpu0 as the kernel reports them (read-only)."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = {"size": size, "shared_cpu_list": shared}
    return caches


def environment() -> dict:
    import numpy as np

    from garope import cl3

    nproc = len(os.sched_getaffinity(0))
    backend = cl3.backend_name()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cl3_backend": backend,
        "nproc": nproc,
        "caches": cache_sizes(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        # results with different keys are not comparable (see compare.py)
        "comparable_key": f"backend={backend};nproc={nproc}",
    }


def probe_setup(workload_name: str, env: dict) -> list[float]:
    """Median material for setup_s: fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def one_request(workload, req, tracer=None, request_id=0, spans_path=None):
    """Run and check one request: (seconds, failed gate names)."""
    if tracer is not None:
        tracer.request_id = request_id
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = workload.run(req, spans_path)
        error = None
    except Exception as exc:  # a failed request is counted, the run goes on
        out, error = None, f"raised:{type(exc).__name__}:{exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return seconds, [error] if error else workload.check(req, out)


def request_count(workload, seconds: float) -> int:
    """Whole rounds lasting about ``seconds`` at the nominal cost, >= 11 requests."""
    size = workload.round_size
    rounds = round(seconds / (workload.request_seconds * size))
    return size * max(rounds, -(-MIN_REQUESTS // size))


def measure(workload, count: int):
    """Closed loop over ``count`` requests.

    Returns (labels, latencies, failures, bytes, ns_per_rot), the last a
    list of latency / rotations per method for the requests that rotate.
    """
    labels, latencies, failures, payload = [], [], [], 0
    ns_per_rot = defaultdict(list)
    for req in itertools.islice(workload.requests(), count):
        dt, failed = one_request(workload, req)
        labels.append(workload.label(req))
        latencies.append(dt)
        failures.append(failed)
        payload += workload.payload_bytes(req)
        method = workload.method(req)
        if method is not None:
            ns_per_rot[method].append(dt * 1e9 / workload.rotations(req))
    return labels, latencies, failures, payload, ns_per_rot


def measure_traced(workload, seconds: float, tracer):
    """Fixed blocks, each run untraced then traced, for per-layer figures."""
    blocks = max(1, round(seconds / workload.trace_block_seconds))
    gen = workload.requests()
    spans_dir = workload.out_dir / workload.name
    spans_dir.mkdir(parents=True, exist_ok=True)
    # one request first, so first-call costs land in neither pass
    _, failed = one_request(workload, next(gen))
    plain, traced, failures, span_files = [], [], [failed], []
    payload = rotations = 0
    for _ in range(blocks):
        reqs = list(itertools.islice(gen, workload.trace_block))
        for req in reqs:
            dt, failed = one_request(workload, req)
            plain.append(dt)
            failures.append(failed)
        if workload.in_process:
            tracer.install()
        for req in reqs:
            rid = len(traced)
            path = None
            if not workload.in_process:
                path = spans_dir / f"spans-{rid}.npz"
                span_files.append(path)
            dt, failed = one_request(workload, req, tracer if workload.in_process else None, rid, path)
            traced.append(dt)
            failures.append(failed)
            payload += workload.payload_bytes(req)
            rotations += workload.rotations(req)
        if workload.in_process:
            tracer.uninstall()
    return plain, traced, failures, span_files, payload, rotations


def result_line(failures, metrics) -> dict:
    failed = sum(1 for f in failures if f)
    return {"correct": failed == 0, "attempted": len(failures), "failed": failed, "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: int, sizes=None, out_dir: Path = OUT_DIR,
                 cli_import_ms: float = 0.0) -> dict:
    """One run; returns the full record (its ``result`` is the printed line).

    ``cli_import_ms`` is this process's import time of garope.cli, reported
    as cli.import.ms by in-process traced runs.
    """
    import metrics
    import workloads

    cls = workloads.WORKLOADS[name]
    workload = cls(seed, sizes or workloads.Sizes(), out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": environment()}

    if trace == 0:
        setup_samples = probe_setup(name, workloads.program_env())
        workload.setup()
        labels, latencies, failures, payload, ns_per_rot = measure(workload, request_count(workload, seconds))
        result = result_line(failures, metrics.end_to_end(setup_samples, latencies, workload.peak_rss_mib(),
                                                          ns_per_rot))
        _, pct = metrics.tail(latencies)
        record["info"] = {
            "requests": len(latencies),
            "tail_percentile": pct,
            "setup_samples_s": setup_samples,
            "throughput_mib_s": payload / 2**20 / sum(latencies),
            "failed_frac": result["failed"] / result["attempted"],
            **workload.info(labels, latencies),
        }
    else:
        from spans import SpanSet, Tracer

        tracer = Tracer()
        if workload.in_process:
            tracer.install()
            tracer.active = True
        workload.setup()
        tracer.active = False
        tracer.uninstall()
        plain, traced, failures, span_files, payload, rotations = measure_traced(workload, seconds, tracer)
        if workload.in_process:
            spans = SpanSet.from_tracer(tracer)
            tracer.dump(out_dir / f"spans-{name}.npz")
        else:
            spans = SpanSet.load([p for p in span_files if p.exists()])  # a failed process may write none
        in_requests = spans.request >= 0
        import_ms = spans.work.get("cli.import.ms", cli_import_ms)
        import_count = spans.work.get("cli.import.count", 1.0)
        extra = {
            "trace.overhead_frac": sum(traced) / sum(plain) - 1.0,
            "trace.self_sum_frac": float(spans.self_time[in_requests].sum()) / sum(plain),
            "cli.import.ms": import_ms / import_count,
            "workload.input_mib": payload / 2**20,
            "workload.rotations": rotations,
            "workload.failed_frac": sum(1 for f in failures if f) / len(failures),
        }
        result = result_line(failures, metrics.per_layer(spans, extra))
        record["info"] = {
            "requests_per_phase": len(traced),
            "spans": int(spans.name.size),
            "computed_not_measured": [n for n in result["metrics"] if n.endswith((".flops", ".bytes"))],
            "computed_note": "work counts derived from the term table and array shapes on a CPU run; "
                             "not measured bandwidth",
        }
    record["failures"] = dict(Counter(g for f in failures for g in f))
    record["result"] = result
    with open(out_dir / f"result-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "garope" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'garope'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import garope.cli  # noqa: F401

    import_ms = (time.perf_counter() - t0) * 1e3
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, args.trace, cli_import_ms=import_ms)
    print("env: " + json.dumps(record["env"], sort_keys=True))
    print("info: " + json.dumps(record["info"], sort_keys=True))
    if record["failures"]:
        print("failed gates: " + json.dumps(record["failures"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
