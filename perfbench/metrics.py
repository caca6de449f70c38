"""Metric definitions and the statistics that turn samples and spans into them.

END_TO_END metrics are reported by every untraced run, on every workload,
because each workload's result carries the same metric set. PER_LAYER
metrics are reported by every traced run; a function a workload never
calls reports 0 calls and 0 ms.
"""

from __future__ import annotations

import statistics

import numpy as np

from garope.encodings import METHODS
from spans import ROTOR_METHODS, ROTOR_PRODUCTS, MODULES, SpanSet

END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("request_ms_p50", "ms", "lower", 0.25),
    ("request_ms_tail", "ms", "lower", 0.25),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    # median over one method's requests of latency / sub-vector rotations;
    # every workload runs all five methods in every round
    *((f"{m}_ns_per_rot", "ns", "lower", 0.25) for m in METHODS),
)

_STAT_UNITS = {"calls": ("count", "lower"), "self_ms": ("ms", "lower"), "rows": ("count", "lower"),
               "flops": ("flop", "lower"), "bytes": ("B", "lower")}

# (function, stats) in the order of the per-layer table: kernels, rotor
# build, block and file handling, attention, the oracles only check, equiv and
# grad reach, set-up.
LAYER_FUNCTIONS = (
    ("_cl3_numpy.rotor_sandwich_batch", ("calls", "self_ms", "rows", "flops", "bytes")),
    ("_cl3_numpy.gp_batch", ("calls", "self_ms", "rows", "flops", "bytes")),
    ("cl3.mv8_rotor_sandwich", ("calls", "self_ms", "rows")),
    ("encodings.apply_encoding", ("calls", "self_ms")),
    ("quaternion.quat_rotor", ("calls", "self_ms", "rows")),
    ("quaternion.hamilton_product", ("calls", "self_ms", "rows")),
    ("quaternion.quat_to_rotation_matrix", ("calls", "self_ms", "rows")),
    ("encodings.mv8_rotor", ("calls", "self_ms", "rows")),
    ("cl3.mv8_product", ("calls", "self_ms", "rows")),
    ("encodings.TokenBlock", ("calls", "self_ms", "bytes")),
    ("formats.read_tensor", ("calls", "self_ms", "bytes")),
    ("formats.write_tensor", ("calls", "self_ms", "bytes")),
    ("formats.load_run_config", ("calls", "self_ms")),
    ("formats.build_method", ("calls", "self_ms")),
    ("cli.cmd_encode", ("calls", "self_ms")),
    ("attention.score_matrix", ("calls", "self_ms")),
    ("ga.Algebra.gp", ("calls", "self_ms", "rows")),
    ("encodings.unit_axis", ("calls", "self_ms")),
    ("encodings.rotation_gradient", ("calls", "self_ms")),
    *((f"encodings.{m}_apply", ("calls", "self_ms")) for m in METHODS),
    ("quaternion.quat_sandwich", ("calls", "self_ms")),
    ("attention.commutator_norm", ("calls", "self_ms")),
    ("attention.shift_invariance_gap", ("calls", "self_ms")),
    ("checks.run_all", ("calls", "self_ms")),
    ("checks.reduction_deviations", ("calls", "self_ms")),
    ("cli.cmd_grad", ("calls", "self_ms")),
    ("encodings.EncodingMethod.configure", ("calls", "self_ms")),
)

# Metrics beyond per-function stats: name, unit, better.
LAYER_EXTRA = (
    ("cl3.mv8_rotor_sandwich.rows_per_distinct_rotor", "ratio", "lower"),
    ("encodings.apply_encoding.rotor_rows_per_token_band", "ratio", "lower"),
    ("encodings.apply_encoding.apply3x3.flops", "flop", "lower"),
    ("encodings.apply_encoding.apply3x3.bytes", "B", "lower"),
    *((f"encodings.apply_encoding.{m}_ns_per_rot", "ns", "lower") for m in METHODS),
    ("cli.import.ms", "ms", "lower"),
    *((f"{m}.all.self_ms", "ms", "lower") for m in MODULES),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.self_sum_frac", "ratio", "higher"),
    ("workload.key_repeat_share", "ratio", "higher"),
    ("workload.input_mib", "MiB", "higher"),
    ("workload.rotations", "count", "higher"),
    ("workload.failed_frac", "ratio", "lower"),
)


def per_layer_defs() -> list[tuple[str, str, str]]:
    defs = []
    for fn, stats in LAYER_FUNCTIONS:
        defs += [(f"{fn}.{stat}", *_STAT_UNITS[stat]) for stat in stats]
    return defs + list(LAYER_EXTRA)


def benchmark_json(run_seconds: int, workloads) -> dict:
    """The BENCHMARK.json contents these definitions imply."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_defs()],
    }


# ---------------------------------------------------------------------------
# end-to-end statistics


def tail(samples) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (value, pct).

    Sorted ascending, the value at index n - 11 has 10 samples above it and
    (n - 10) / n of the samples at or below it. Needs n >= 11.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"tail needs at least 11 samples, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup_samples, latencies, peak_rss_mib, ns_per_rot: dict) -> dict:
    """``ns_per_rot`` maps each method to its requests' latency / rotations."""
    tail_value, _ = tail(latencies)
    values = {
        "setup_s": statistics.median(setup_samples),
        "request_ms_p50": statistics.median(latencies) * 1e3,
        "request_ms_tail": tail_value * 1e3,
        "requests_per_s": len(latencies) / sum(latencies),
        "peak_rss_mib": peak_rss_mib,
    }
    for method in METHODS:
        values[f"{method}_ns_per_rot"] = statistics.median(ns_per_rot[method])
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


# ---------------------------------------------------------------------------
# per-layer statistics from spans


def per_layer(spans: SpanSet, extra: dict) -> dict:
    """Every PER_LAYER metric from a traced run's spans.

    ``extra`` carries the values the run measures outside the spans:
    trace.overhead_frac, trace.self_sum_frac, cli.import.ms and the
    workload.* descriptors.
    """
    values: dict[str, float] = {}
    for fn, stats in LAYER_FUNCTIONS:
        m = spans.mask(fn)
        values[f"{fn}.calls"] = int(m.sum())
        values[f"{fn}.self_ms"] = float(spans.self_time[m].sum() * 1e3)
        if "rows" in stats:
            values[f"{fn}.rows"] = float(spans.rows[m].sum())
        for stat in ("flops", "bytes"):
            if stat in stats:
                values[f"{fn}.{stat}"] = spans.work.get(f"{fn}.{stat}", 0.0)

    sandwich_rows = values["cl3.mv8_rotor_sandwich.rows"]
    distinct = spans.work.get("cl3.mv8_rotor_sandwich.distinct_rotors", 0.0)
    values["cl3.mv8_rotor_sandwich.rows_per_distinct_rotor"] = sandwich_rows / distinct if distinct else 0.0

    calls = spans.apply_calls
    inside = spans.under("encodings.apply_encoding")
    built = sum(float(spans.rows[spans.mask(p) & inside].sum()) for p in ROTOR_PRODUCTS)
    token_bands = sum(c[3] for c in calls if c[1] in ROTOR_METHODS)
    values["encodings.apply_encoding.rotor_rows_per_token_band"] = built / token_bands if token_bands else 0.0
    for stat in ("flops", "bytes"):
        key = f"encodings.apply_encoding.apply3x3.{stat}"
        values[key] = spans.work.get(key, 0.0)
    for method in METHODS:
        mine = [c for c in calls if c[1] == method]
        rotations = sum(c[2] for c in mine)
        seconds = sum(float(spans.duration[c[0]]) for c in mine)
        values[f"encodings.apply_encoding.{method}_ns_per_rot"] = seconds * 1e9 / rotations if rotations else 0.0

    module_of = np.array([n.split(".", 1)[0] for n in spans.names] or [""])
    for module in MODULES:
        m = module_of[spans.name] == module if spans.name.size else np.zeros(0, dtype=bool)
        values[f"{module}.all.self_ms"] = float(spans.self_time[m].sum() * 1e3)

    key_calls = spans.key_calls
    values["workload.key_repeat_share"] = spans.repeated_keys / key_calls if key_calls else 0.0
    values.update(extra)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_defs()}
