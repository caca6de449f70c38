"""The workloads: inputs made from a seed, one timed call per request,
and the correctness gates each output must pass.

Every workload is a closed loop with one client in one process: the next
request is issued only after the previous one returned and was checked.
The program sees only the generated inputs; the seed never reaches it
except where it is the input (the ``verify`` commands take ``--seed``).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import resource
import struct
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from garope import attention, encodings, formats
from garope.encodings import METHODS, EncodingMethod, TokenBlock, grid_positions

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

INVERSE_TOL = 1e-10  # inverse after forward recovers the input
SAMPLE_TOL = 1e-12  # block result vs the single-sub-vector *_rotate functions
NORM_TOL = 1e-12  # relative sub-vector norm drift
SCORE_TOL = 1e-10  # relative error of attention scores
SAMPLES_PER_CALL = 8  # sub-vectors compared against *_rotate per bulk call
ROWS_PER_CALL = 4  # batch rows whose norms and exact channels a bulk call checks
ATTEND_SAMPLE_SHARE = 0.25  # attend requests that get the two sampled gates


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, the self-test shrinks them."""

    head_dim: int = 64
    # 16, not 64: a batch-64 care call keeps about ten 32 MiB temporaries live,
    # spills the shared L3 and drifted 1250-1950 ns/rot between runs on a
    # 2-core VM; at 16 the apply still handles 16 rows per rotor built.
    bulk_batch: int = 16
    bulk_grid: tuple = (32, 32)
    attend_batches: tuple = (1, 2)
    attend_grids: tuple = ((8, 8), (14, 14), (16, 16), (12, 20), (10, 10), (16, 12))
    encode_batch: int = 64
    encode_grid: tuple = (32, 32)
    verify_commands: tuple = ("check", "equiv", "grad")


def program_env() -> dict:
    """Environment for a child interpreter that runs the program from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def seeded_axes(rng: np.random.Generator, tag: str, bands: int):
    """Per-band learnable axes; mixed shares one axis between x and y."""
    if tag in ("rope1d", "spherical"):
        return None, None
    ax = rng.standard_normal((bands, 3))
    ay = ax if tag == "mixed" else rng.standard_normal((bands, 3))
    return ax, ay


def configure(rng: np.random.Generator, head_dim: int, base: float = 10000.0) -> dict:
    methods = {}
    for tag in METHODS:
        bands = head_dim // encodings.METHOD_WIDTHS[tag]
        ax, ay = seeded_axes(rng, tag, bands)
        methods[tag] = EncodingMethod.configure(tag, head_dim, base=base, axes_x=ax, axes_y=ay)
    return methods


def rotate_single(method: EncodingMethod, v: np.ndarray, p: np.ndarray, band: int) -> np.ndarray:
    """One sub-vector through the single-sub-vector ``*_rotate`` function."""
    theta = float(method.schedule.band_angles[band])
    sx, sy = method.scale_x, method.scale_y
    tag = method.tag
    if tag == "rope1d":
        return encodings.rope1d_rotate(v, sx * p[0], theta)
    if tag == "spherical":
        return encodings.spherical_rotate(v, p, theta, sx, sy)
    ax = method.axes.axes_x[band]
    if tag == "mixed":
        return encodings.mixed_rotate(v, p, ax, theta, sx, sy)
    ay = method.axes.axes_y[band]
    if tag == "quatro":
        return encodings.quatro_rotate(v, p, ax, ay, theta, sx, sy)
    return encodings.care_rotate(v, p, ax, ay, theta, sx, sy)


def rotate_row(method: EncodingMethod, row: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A whole head_dim row sub-vector by sub-vector; pass-through dims kept."""
    width = method.width
    out = row.copy()
    for band in range(method.schedule.num_bands):
        sl = slice(band * width, (band + 1) * width)
        out[sl] = rotate_single(method, row[sl], p, band)
    return out


def bulk_gates(method, inp, out, positions, inverse, original, rng) -> list[str]:
    """Names of the gates ``out = apply_encoding(inp, method, inverse)`` fails.

    ``original`` is the input of the forward pass (inverse calls only).
    Norms, pass-through dims and care's invariant slots are checked on a
    seeded sample of batch rows; the inverse check covers every value.
    """
    failed = []
    width, bands = method.width, method.schedule.num_bands
    body = bands * width
    rows = np.sort(rng.choice(inp.shape[0], size=min(ROWS_PER_CALL, inp.shape[0]), replace=False))
    inp_rows, out_rows = inp[rows], out[rows]
    sub_in = inp_rows[..., :body].reshape(inp_rows.shape[:2] + (bands, width))
    sub_out = out_rows[..., :body].reshape(out_rows.shape[:2] + (bands, width))
    n_in = np.sqrt(np.einsum("ctbw,ctbw->ctb", sub_in, sub_in))
    n_out = np.sqrt(np.einsum("ctbw,ctbw->ctb", sub_out, sub_out))
    if not np.all(np.abs(n_out - n_in) <= NORM_TOL * (1.0 + n_in)):
        failed.append("norm_preserved")
    if not np.array_equal(out_rows[..., body:], inp_rows[..., body:]):
        failed.append("passthrough_exact")
    if method.tag == "care" and not (
        np.array_equal(sub_out[..., 0], sub_in[..., 0]) and np.array_equal(sub_out[..., 7], sub_in[..., 7])
    ):
        failed.append("care_invariant_exact")
    if inverse and not np.max(np.abs(out - original)) <= INVERSE_TOL:
        failed.append("inverse_recovers")
    for _ in range(SAMPLES_PER_CALL):
        c, t, b = (int(rng.integers(0, n)) for n in (inp.shape[0], inp.shape[1], bands))
        sl = slice(b * width, (b + 1) * width)
        if inverse:  # rotating the inverse's output forward gives its input back
            got, want = rotate_single(method, out[c, t, sl], positions[t], b), inp[c, t, sl]
        else:
            got, want = out[c, t, sl], rotate_single(method, inp[c, t, sl], positions[t], b)
        if not np.max(np.abs(got - want)) <= SAMPLE_TOL:
            failed.append("sample_vs_rotate")
            break
    return failed


def diag_gate(qq_scores: np.ndarray, q: np.ndarray) -> list[str]:
    """score_matrix(q, q) has |q_t|^2 / sqrt(d) on its diagonal."""
    want = np.einsum("btd,btd->bt", q, q) / np.sqrt(q.shape[-1])
    got = np.diagonal(qq_scores, axis1=1, axis2=2)
    return [] if np.all(np.abs(got - want) <= SCORE_TOL * np.abs(want)) else ["diag_norm"]


def entry_gate(method, scores, q, k, positions, rng) -> list[str]:
    """One sampled score against rows rotated by the ``*_rotate`` functions."""
    b, t, s = (int(rng.integers(0, n)) for n in (q.shape[0], q.shape[1], q.shape[1]))
    qr = rotate_row(method, q[b, t], positions[t])
    kr = rotate_row(method, k[b, s], positions[s])
    scale = np.sqrt(q.shape[-1])
    want = float(qr @ kr) / scale
    bound = SCORE_TOL * np.linalg.norm(q[b, t]) * np.linalg.norm(k[b, s]) / scale
    return [] if abs(float(scores[b, t, s]) - want) <= bound else ["entry_vs_rotate"]


# ---------------------------------------------------------------------------


class Workload:
    """One named input stream: set-up, requests, the timed call, the gates."""

    name = ""
    why = ""
    round_size = 1  # requests that make up one balanced round of the mix
    request_seconds = 1.0  # nominal wall time per request, gates included
    trace_block = 1  # requests per traced block
    trace_block_seconds = 10.0  # nominal wall time of one block, both phases
    in_process = True  # False: each request is a subprocess that writes its own spans

    def __init__(self, seed: int, sizes: Sizes, out_dir: Path):
        self.seed = seed
        self.sizes = sizes
        self.out_dir = out_dir

    def setup(self) -> None:
        """Make inputs and configure methods; not timed."""

    def requests(self):
        raise NotImplementedError

    def run(self, req, spans_path=None):
        """The timed call. ``spans_path`` is set for a traced subprocess."""
        raise NotImplementedError

    def check(self, req, out) -> list[str]:
        raise NotImplementedError

    def label(self, req):
        """A small description of the request, kept after it ran."""
        return req

    def payload_bytes(self, req) -> int:
        return 0

    def rotations(self, req) -> int:
        return 0

    def method(self, req):
        """The encoding method a request rotates with, or None."""
        return None

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def info(self, labels, latencies) -> dict:
        """Workload-specific figures printed beside the metrics."""
        return {}


class Bulk(Workload):
    name = "bulk"
    why = ("8 MiB float64 blocks (batch 16, 32x32 grid, head_dim 64), one method forward then "
           "inverse per request: the apply stage (einsum, mv8 sandwich) does the work")
    round_size = len(METHODS)
    # One request per method per round, so the median falls inside the
    # middle method's requests rather than between two methods'.
    request_seconds = 0.15
    trace_block = round_size
    trace_block_seconds = 1.6

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        h, w = self.sizes.bulk_grid
        origin = tuple(float(v) for v in rng.integers(0, 64, size=2))
        data = rng.standard_normal((self.sizes.bulk_batch, h * w, self.sizes.head_dim))
        self.x = TokenBlock(data=data, positions=grid_positions(h, w, origin))
        self.methods = configure(rng, self.sizes.head_dim)

    def requests(self):
        for i in itertools.count():
            yield (i, METHODS[i % len(METHODS)])

    def run(self, req, spans_path=None):
        method = self.methods[req[1]]
        forward = encodings.apply_encoding(self.x, method)
        return forward, encodings.apply_encoding(forward, method, inverse=True)

    def check(self, req, out):
        i, tag = req
        forward, back = out
        method, x = self.methods[tag], self.x
        rng = np.random.default_rng([self.seed, 11, i])
        return (bulk_gates(method, x.data, forward.data, x.positions, False, None, rng)
                + bulk_gates(method, forward.data, back.data, x.positions, True, x.data, rng))

    def label(self, req):
        return req[1]

    def method(self, req):
        return req[1]

    def payload_bytes(self, req):
        return self.x.data.nbytes

    def rotations(self, req):
        """Forward and inverse: two rotations per (row, token, band)."""
        return 2 * self.x.batch * self.x.tokens * self.methods[req[1]].schedule.num_bands


class Attend(Workload):
    name = "attend"
    why = ("small score_matrix requests (batch 1-2, <=256 tokens, all methods): rotor "
           "build per (token, band) outweighs the apply and (method, positions) keys repeat")
    request_seconds = 0.0075
    trace_block_seconds = 2.7

    @property
    def round_size(self):
        """Every (method, batch, grid) combination once per round, so each
        run has the same mix and the tail falls on the same kind of request."""
        return len(METHODS) * len(self.sizes.attend_batches) * len(self.sizes.attend_grids)

    @property
    def trace_block(self):
        return 3 * self.round_size

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        self.methods = configure(rng, self.sizes.head_dim)
        self.origins = [(0.0, 0.0)] + [tuple(float(v) for v in rng.integers(1, 100, size=2)) for _ in range(3)]

    def requests(self):
        rng = np.random.default_rng([self.seed, 3])
        d = self.sizes.head_dim
        mix = list(itertools.product(METHODS, self.sizes.attend_batches, self.sizes.attend_grids))
        for i in itertools.count():
            if i % len(mix) == 0:
                order = rng.permutation(len(mix))
            tag, batch, (h, w) = mix[order[i % len(mix)]]
            origin = self.origins[0] if rng.random() < 0.5 else self.origins[rng.integers(1, len(self.origins))]
            pos = grid_positions(h, w, origin)
            q = TokenBlock(data=rng.standard_normal((batch, h * w, d)), positions=pos)
            k = TokenBlock(data=rng.standard_normal((batch, h * w, d)), positions=pos)
            yield (i, tag, q, k, bool(rng.random() < ATTEND_SAMPLE_SHARE))

    def run(self, req, spans_path=None):
        _, tag, q, k, _ = req
        return attention.score_matrix(q, k, self.methods[tag])

    def check(self, req, out):
        i, tag, q, k, sampled = req
        scores = out.scores
        if scores.shape != (q.batch, q.tokens, q.tokens):
            return ["shape"]
        if not sampled:
            return []
        method = self.methods[tag]
        rng = np.random.default_rng([self.seed, 4, i])
        qq = attention.score_matrix(q, q, method).scores
        return diag_gate(qq, q.data) + entry_gate(method, scores, q.data, k.data, q.positions, rng)

    def label(self, req):
        return req[1]

    def method(self, req):
        return req[1]

    def payload_bytes(self, req):
        return req[2].data.nbytes + req[3].data.nbytes

    def rotations(self, req):
        _, tag, q, _, _ = req
        return 2 * q.batch * q.tokens * self.methods[tag].schedule.num_bands


# -- the garope command line: inputs written with the program's own writer,
# -- outputs parsed by the benchmark's own reader ---------------------------

_RTEN_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}


def read_rten(path: Path):
    """(dtype code, dims, payload bytes), or None if the header is malformed."""
    raw = path.read_bytes()
    if raw[:4] != b"RTEN" or len(raw) < 10:
        return None
    _, code, rank = struct.unpack_from("<IBB", raw, 4)
    if len(raw) < 10 + 8 * rank:
        return None
    dims = struct.unpack_from(f"<{rank}Q", raw, 10)
    return code, tuple(dims), raw[10 + 8 * rank:]


# (method, dtype, head_dim, invert): all five methods, both file dtypes, the
# inverse path, and head_dim 66 leaving two pass-through dims for care.
ENCODE_CASES = (
    ("rope1d", "float32", 64, False),
    ("mixed", "float32", 64, False),
    ("spherical", "float32", 64, False),
    ("quatro", "float32", 64, True),
    ("care", "float32", 66, False),
    ("quatro", "float64", 64, False),
    ("care", "float64", 64, True),
)


def _axes_line(key: str, axes: np.ndarray) -> str:
    return f"{key} = " + "; ".join(",".join(repr(float(v)) for v in row) for row in axes)


class Cli(Workload):
    """One cold ``garope`` process per request, one after another.

    A round encodes every ENCODE_CASES file once and runs each verify
    command (check, equiv, grad) once. The verify commands make tens of
    thousands of tiny calls per process, so per-call overhead sets their
    cost; they are the only requests that reach ga, checks, the
    single-sub-vector ``*_apply`` functions and rotation_gradient.
    """

    name = "cli"
    why = ("a cold garope process per request: encode on 16-32 MiB RTEN files (all methods, invert, "
           "head_dim 66) and check, equiv, grad (tiny calls, per-call overhead)")
    request_seconds = 1.0
    in_process = False

    @property
    def round_size(self):
        return len(ENCODE_CASES) + len(self.sizes.verify_commands)

    @property
    def trace_block(self):
        return self.round_size

    @property
    def trace_block_seconds(self):
        return 4.0 * self.round_size  # untraced, then traced at about 3x

    def setup(self):
        rng = np.random.default_rng([self.seed, 5])
        self.dir = self.out_dir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        for stale in self.dir.glob("spans-*.npz"):
            stale.unlink()
        h, w = self.sizes.encode_grid
        self.cases = []
        for i, (tag, dtype, head_dim, invert) in enumerate(ENCODE_CASES):
            bands = head_dim // encodings.METHOD_WIDTHS[tag]
            ax, ay = seeded_axes(rng, tag, bands)
            origin = tuple(float(v) for v in rng.integers(0, 64, size=2))
            lines = [f"method = {tag}", f"head_dim = {head_dim}", f"grid_h = {h}", f"grid_w = {w}",
                     f"origin_x = {origin[0]!r}", f"origin_y = {origin[1]!r}",
                     f"invert = {'true' if invert else 'false'}"]
            if ax is not None:
                lines += [_axes_line("axes_x", ax), _axes_line("axes_y", ay)]
            config = self.dir / f"case{i}.conf"
            config.write_text("\n".join(lines) + "\n")
            data = rng.standard_normal((self.sizes.encode_batch, h * w, head_dim)).astype(dtype)
            source = self.dir / f"case{i}.rten"
            formats.write_tensor(source, data)
            method = EncodingMethod.configure(tag, head_dim, axes_x=ax, axes_y=ay)
            block = TokenBlock(data=data.astype(np.float64), positions=grid_positions(h, w, origin))
            want = encodings.apply_encoding(block, method, inverse=invert).data.astype(data.dtype)
            self.cases.append({
                "tag": tag, "config": config, "input": source, "dtype": data.dtype, "shape": data.shape,
                "sha256": hashlib.sha256(want.tobytes()).hexdigest(),
                "rotations": data.shape[0] * data.shape[1] * bands, "bytes": data.nbytes,
            })
        # one seed per command, so every repeat within a run must print the same bytes
        for command, seed in zip(self.sizes.verify_commands, rng.integers(0, 2**31 - 1, size=3)):
            self.cases.append({"command": command, "seed": int(seed)})
        self.verify_seen: dict = {}
        self.output = self.dir / "out.rten"
        self.stdout_path = self.dir / "stdout.txt"
        self.stderr_path = self.dir / "stderr.txt"
        self.rss_kib = []

    def requests(self):
        rng = np.random.default_rng([self.seed, 6])
        while True:
            for case in rng.permutation(len(self.cases)):
                yield int(case)

    def run(self, req, spans_path=None):
        case = self.cases[req]
        if "command" in case:
            args = [case["command"], "--seed", str(case["seed"])]
        else:
            args = ["encode", "--config", str(case["config"]), "--output", str(self.output), str(case["input"])]
        if spans_path is None:
            cmd = [sys.executable, "-c", "import sys; from garope.cli import main; sys.exit(main())", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_launcher.py"), str(spans_path), *args]
        if self.output.exists():
            self.output.unlink()
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=program_env(), cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kib.append(usage.ru_maxrss)
        if "command" in case:
            return proc.returncode, self.stdout_path.read_text()
        return proc.returncode

    def check(self, req, out):
        case = self.cases[req]
        if "command" in case:
            return verify_gates(self.verify_seen, case["command"], out)
        return encode_gates(case, out, self.output)

    def label(self, req):
        return self.cases[req].get("command", "encode")

    def method(self, req):
        return self.cases[req].get("tag")

    def payload_bytes(self, req):
        return self.cases[req].get("bytes", 0)

    def rotations(self, req):
        return self.cases[req].get("rotations", 0)

    def peak_rss_mib(self):
        return max(self.rss_kib) / 1024.0

    def info(self, labels, latencies):
        return {f"{cmd}_s": float(np.median([dt for c, dt in zip(labels, latencies) if c == cmd]))
                for cmd in self.sizes.verify_commands}


def encode_gates(case: dict, exit_code: int, output: Path) -> list[str]:
    if exit_code != 0:
        return ["exit_code"]
    parsed = read_rten(output) if output.exists() else None
    if parsed is None:
        return ["output_readable"]
    code, dims, payload = parsed
    failed = []
    if code != _RTEN_CODES[case["dtype"]] or dims != case["shape"]:
        failed.append("dtype_shape_kept")
    if hashlib.sha256(payload).hexdigest() != case["sha256"]:
        failed.append("matches_library")
    return failed


def verify_gates(seen: dict, key, out) -> list[str]:
    """Exit code 0, and the same output as the first run of ``key``."""
    code, text = out
    failed = [] if code == 0 else ["exit_code"]
    if seen.setdefault(key, text) != text:
        failed.append("byte_identical")
    return failed


WORKLOADS = {w.name: w for w in (Bulk, Attend, Cli)}
