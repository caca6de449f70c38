"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root: python3 -m pytest perfbench -q

Checks that every declared metric is emitted with its unit, that each
correctness gate trips on a corrupted copy of a real output (the program
itself is never modified), and that span self times add up.
"""

import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from garope import formats  # noqa: E402

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanSet, Tracer, product_flops  # noqa: E402

TINY = workloads.Sizes(
    bulk_batch=2,
    bulk_grid=(4, 4),
    attend_grids=((3, 3), (2, 4)),
    encode_batch=2,
    encode_grid=(4, 4),
    verify_commands=("check",),
)


def test_benchmark_json_matches_definitions():
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    assert declared == metrics.benchmark_json(declared["run_seconds"], workloads.WORKLOADS.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    record = run.run_workload(name, seed=3, seconds=0.5, trace=trace, sizes=TINY, out_dir=tmp_path)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record["failures"]
    if trace == 0:
        want = {n: u for n, u, _, _ in metrics.END_TO_END}
    else:
        want = {n: u for n, u, _ in metrics.per_layer_defs()}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


# -- gates ------------------------------------------------------------------


def _bulk_call(tag, inverse=False):
    w = workloads.Bulk(5, TINY, None)
    w.setup()
    req = (0, tag)
    forward, back = out = w.run(req)
    assert w.check(req, out) == []
    if inverse:
        return w, forward.data, back.data.copy()
    return w, w.x.data, forward.data.copy()


def _bulk_gates(w, tag, inp, out, inverse=False):
    rng = np.random.default_rng(0)
    return workloads.bulk_gates(w.methods[tag], inp, out, w.x.positions, inverse, w.x.data, rng)


def test_bulk_norm_gate_trips():
    w, inp, out = _bulk_call("quatro")
    out[0, 0, :3] *= 1.0 + 1e-9
    assert "norm_preserved" in _bulk_gates(w, "quatro", inp, out)


def test_bulk_passthrough_gate_trips():
    w, inp, out = _bulk_call("mixed")  # head_dim 64 leaves one dim past 21 bands of 3
    out[1, 2, 63] = np.nextafter(out[1, 2, 63], np.inf)
    assert _bulk_gates(w, "mixed", inp, out) == ["passthrough_exact"]


def test_bulk_care_invariant_gate_trips():
    w, inp, out = _bulk_call("care")
    out[0, 3, 8] = np.nextafter(out[0, 3, 8], np.inf)  # slot 0 of band 1
    assert _bulk_gates(w, "care", inp, out) == ["care_invariant_exact"]


def test_bulk_inverse_gate_trips():
    w, inp, out = _bulk_call("spherical", inverse=True)
    out[1, 1, 1] += 1e-8
    assert "inverse_recovers" in _bulk_gates(w, "spherical", inp, out, inverse=True)


def test_bulk_sample_gate_trips():
    w, inp, out = _bulk_call("rope1d")
    out[..., 0::2], out[..., 1::2] = out[..., 1::2].copy(), out[..., 0::2].copy()  # norms kept
    assert _bulk_gates(w, "rope1d", inp, out) == ["sample_vs_rotate"]


def test_attend_gates_trip():
    w = workloads.Attend(5, TINY, None)
    w.setup()
    req = next(r for r in w.requests() if r[4])
    i, tag, q, k, _ = req
    out = w.run(req)
    assert w.check(req, out) == []
    qq = workloads.attention.score_matrix(q, q, w.methods[tag]).scores.copy()
    qq[0, 1, 1] *= 1.0 + 1e-8
    assert workloads.diag_gate(qq, q.data) == ["diag_norm"]
    scores = out.scores * (1.0 + 1e-8)
    rng = np.random.default_rng(0)
    assert workloads.entry_gate(w.methods[tag], scores, q.data, k.data, q.positions, rng) == ["entry_vs_rotate"]


def _cli(tmp_path):
    w = workloads.Cli(5, TINY, tmp_path)
    w.setup()
    return w


def test_encode_gates_trip(tmp_path):
    w = _cli(tmp_path)
    case = w.cases[0]
    code = w.run(0)
    assert w.check(0, code) == []
    assert workloads.encode_gates(case, 1, w.output) == ["exit_code"]
    _, dims, payload = workloads.read_rten(w.output)
    copy = tmp_path / "copy.rten"
    data = np.frombuffer(payload, dtype=case["dtype"]).reshape(dims).copy()
    formats.write_tensor(copy, data.astype(np.float64))
    assert "dtype_shape_kept" in workloads.encode_gates(case, 0, copy)
    data.flat[5] = np.nextafter(data.flat[5], np.inf)
    formats.write_tensor(copy, data)
    assert workloads.encode_gates(case, 0, copy) == ["matches_library"]
    shutil.copyfile(w.output, copy)
    assert workloads.encode_gates(case, 0, copy) == []


def test_verify_gates_trip(tmp_path):
    w = _cli(tmp_path)
    req = next(i for i, case in enumerate(w.cases) if case.get("command") == "check")
    code, text = w.run(req)
    assert w.check(req, (code, text)) == [] and w.check(req, (code, text)) == []
    assert workloads.verify_gates({}, "check", (1, text)) == ["exit_code"]
    assert workloads.verify_gates({"check": text}, "check", (0, text + " ")) == ["byte_identical"]


# -- spans ------------------------------------------------------------------


def test_span_self_times_add_up_to_no_more_than_the_parent():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        traced_leaf()
        traced_leaf()

    def root():
        traced_middle()
        time.sleep(0.001)
        traced_leaf()

    traced_leaf = tracer.wrap("t.leaf", leaf)
    traced_middle = tracer.wrap("t.middle", middle)
    traced_root = tracer.wrap("t.root", root)
    tracer.active = True
    for rid in range(3):
        tracer.request_id = rid
        traced_root()
    tracer.active = False
    spans = SpanSet.from_tracer(tracer)
    assert spans.name.size == 3 * 5
    assert np.all(spans.self_time >= 0.0)
    for i in range(spans.name.size):
        kids = spans.parent == i
        assert spans.covered[i] <= spans.duration[i]
        assert spans.self_time[kids].sum() + spans.self_time[i] <= spans.duration[i]
    roots = spans.parent < 0
    assert spans.self_time.sum() <= spans.duration[roots].sum()
    assert np.all(spans.request[spans.mask("t.leaf")] == np.repeat(np.arange(3), 3))
    assert spans.under("t.middle").sum() == 3 * 2


def test_kernel_flops_come_from_the_term_table():
    from garope import cl3

    assert product_flops(cl3.PRODUCT_TERMS) == 64 + 64 - 8
