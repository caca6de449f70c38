"""In-memory span tracer that wraps garope's public functions from outside.

Each wrapped call records one span: name, start, end, parent span and
request id. Spans live in flat arrays and are written out once, when the
run ends. A span also records the interval its wrapper occupied
(``cover``), which is what its parent subtracts for self time, so the
wrapper's own bookkeeping and the computed-work statistics below are
charged to no layer: they show up only as tracing overhead.

Wrapping happens in the benchmark's process (or in the encode launcher's
subprocess); no file of the program is modified. A function is rebound
under every name it is reachable by in the ``garope`` modules, including
dict values such as the CLI's command table, so calls through an
imported name are traced as well.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

# Modules whose public functions are wrapped, in the layer order of the
# program (front end first, kernels last).
MODULES = ("cli", "formats", "attention", "checks", "encodings", "quaternion", "cl3", "_cl3_numpy", "ga")

# Methods and constructors wrapped in addition to module-level functions.
EXTRA_TARGETS = (
    ("ga", "Algebra", "gp"),
    ("encodings", "EncodingMethod", "configure"),
    ("encodings", "TokenBlock", "__post_init__"),
)

ROTOR_PRODUCTS = ("quaternion.hamilton_product", "cl3.mv8_product")
ROTOR_METHODS = ("spherical", "quatro", "care")
APPLY3X3_FLOPS = 15  # 9 multiplies + 6 adds per 3-vector, computed
_now = time.perf_counter


def product_flops(terms) -> int:
    """Flops of one mv8 geometric product, from its term table: one
    multiply per term, and per output slot one add fewer than its terms."""
    out_slots = {t[0] for t in terms}
    return len(terms) + (len(terms) - len(out_slots))


def _rows(shape) -> int:
    return int(np.prod(shape[:-1], dtype=np.int64)) if len(shape) else 0


def _distinct_rows(arr: np.ndarray) -> int:
    """Distinct (..., 8) rows, dropping broadcast (zero-stride) axes first."""
    index = tuple(0 if stride == 0 and i < arr.ndim - 1 else slice(None) for i, stride in enumerate(arr.strides))
    rows = np.ascontiguousarray(arr[index]).reshape(-1, arr.shape[-1])
    return int(np.unique(rows, axis=0).shape[0])


class Tracer:
    """Span store plus the per-call work records the wrappers compute."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cover_start = array("d")
        self.cover_end = array("d")
        self.rows = array("d")
        self.work: dict[str, float] = {}  # "<name>.<stat>" -> summed computed work
        self.apply_calls: list[list] = []  # [span, tag, rotations, token_bands]
        self.seen_keys: set = set()
        self.repeated_keys = 0
        self.active = False
        self.request_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.flops_gp = 0

    # -- recording -----------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, work=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            cover_start = _now()
            idx = len(tracer.name)
            stack = tracer._stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.request.append(tracer.request_id)
            tracer.rows.append(0.0)
            tracer.cover_start.append(cover_start)
            tracer.cover_end.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            start = _now()
            tracer.start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = _now()
                stack.pop()
            if work is not None:
                work(tracer, idx, args, kwargs, result)
            tracer.cover_end[idx] = _now()
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.work[key] = self.work.get(key, 0.0) + float(value)

    # -- installing ----------------------------------------------------
    def install(self) -> None:
        """Wrap every public function of MODULES and EXTRA_TARGETS, under
        every binding in the loaded garope modules."""
        import garope.cli  # noqa: F401  (loads every traced module)
        from garope import cl3

        self.flops_gp = product_flops(cl3.PRODUCT_TERMS)
        mods = {m: sys.modules[f"garope.{m}"] for m in MODULES}
        replace = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                replace[id(obj)] = (obj, self.wrap(name, obj, WORK.get(name)))
        for short, cls_name, attr in EXTRA_TARGETS:
            cls = getattr(mods[short], cls_name)
            raw = inspect.getattr_static(cls, attr)
            name = f"{short}.{cls_name}" if attr == "__post_init__" else f"{short}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, WORK.get(name)))
            else:
                wrapped = self.wrap(name, raw, WORK.get(name))
            self._originals.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "garope" or mod_name.startswith("garope.")) or mod is None:
                continue
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replace and replace[id(value)][0] is value:
                            self._originals.append((obj, key, value))
                            obj[key] = replace[id(value)][1]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._originals.clear()

    # -- output --------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "cover_start": np.frombuffer(self.cover_start, dtype=np.float64).copy(),
            "cover_end": np.frombuffer(self.cover_end, dtype=np.float64).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.float64).copy(),
        }

    def meta(self) -> dict:
        return {
            "names": self.names,
            "work": self.work,
            "apply_calls": self.apply_calls,
            "repeated_keys": self.repeated_keys,
            "distinct_keys": len(self.seen_keys),
        }

    def dump(self, path) -> None:
        """Write spans and work records (one .npz file)."""
        np.savez(path, meta=np.array(json.dumps(self.meta())), **self.arrays())


class SpanSet:
    """Spans loaded from one or more dumps, with self times computed."""

    def __init__(self, parts):
        names: list[str] = []
        cols = {k: [] for k in ("name", "parent", "request", "start", "end", "cover_start", "cover_end", "rows")}
        self.work: dict[str, float] = {}
        self.apply_calls: list[list] = []
        self.repeated_keys = 0
        self.key_calls = 0
        offset = 0
        for arrays, meta in parts:
            remap = np.array([_intern(names, n) for n in meta["names"]] or [0], dtype=np.int32)
            n = arrays["name"].shape[0]
            for key in cols:
                col = arrays[key]
                if key == "name":
                    col = remap[col] if n else col
                elif key == "parent":
                    col = np.where(col >= 0, col + offset, -1)
                cols[key].append(col)
            for key, value in meta["work"].items():
                self.work[key] = self.work.get(key, 0.0) + value
            self.apply_calls += [[c[0] + offset] + list(c[1:]) for c in meta["apply_calls"]]
            self.repeated_keys += meta["repeated_keys"]
            self.key_calls += meta["repeated_keys"] + meta["distinct_keys"]
            offset += n
        self.names = names
        for key, chunks in cols.items():
            dtype = np.int32 if key in ("name", "parent", "request") else np.float64
            setattr(self, key, np.concatenate(chunks).astype(dtype) if chunks else np.zeros(0, dtype))
        self.duration = self.end - self.start
        covered = np.zeros_like(self.duration)
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], (self.cover_end - self.cover_start)[has_parent])
        self.covered = covered
        self.self_time = self.duration - covered

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "SpanSet":
        return cls([(tracer.arrays(), tracer.meta())])

    @classmethod
    def load(cls, paths) -> "SpanSet":
        parts = []
        for path in paths:
            with np.load(path) as data:
                parts.append(({k: data[k] for k in data.files if k != "meta"}, json.loads(str(data["meta"]))))
        return cls(parts)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.shape, dtype=bool)
        return self.name == self.names.index(name)

    def under(self, ancestor: str) -> np.ndarray:
        """Spans with a span named ``ancestor`` above them."""
        target = self.names.index(ancestor) if ancestor in self.names else -2
        inside = np.zeros(self.name.shape, dtype=bool)
        above = self.parent.copy()
        live = above >= 0
        while live.any():
            inside[live] |= self.name[above[live]] == target
            above[live] = self.parent[above[live]]
            live = above >= 0
        return inside


def _intern(names: list[str], name: str) -> int:
    if name not in names:
        names.append(name)
    return names.index(name)


# ---------------------------------------------------------------------------
# computed work, recorded after each call and excluded from every self time


def _work_rows_from_result(tracer, idx, args, kwargs, result):
    tracer.rows[idx] = _rows(np.shape(result))


def _work_rows_broadcast(tracer, idx, args, kwargs, result):
    shape = np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))
    tracer.rows[idx] = _rows(shape)


def _work_gp_batch(tracer, idx, args, kwargs, result):
    a, b = args[0], args[1]
    rows = a.shape[0]
    tracer.rows[idx] = rows
    tracer.add("_cl3_numpy.gp_batch.flops", rows * tracer.flops_gp)
    tracer.add("_cl3_numpy.gp_batch.bytes", a.nbytes + b.nbytes + result.nbytes)


def _work_sandwich_batch(tracer, idx, args, kwargs, result):
    """The second product only: the first is a traced gp_batch call that
    books its own work, so these figures cover the same work as self_ms."""
    r = args[0]
    rows = r.shape[0]
    tracer.rows[idx] = rows
    tracer.add("_cl3_numpy.rotor_sandwich_batch.flops", rows * tracer.flops_gp)
    # reads r and the first product's result t, writes the output
    tracer.add("_cl3_numpy.rotor_sandwich_batch.bytes", r.nbytes + 2 * result.nbytes)


def _work_mv8_sandwich(tracer, idx, args, kwargs, result):
    rotor = np.asarray(args[0], dtype=np.float64)
    shape = np.broadcast_shapes(rotor.shape, np.shape(args[1]))
    tracer.rows[idx] = _rows(shape)
    tracer.add("cl3.mv8_rotor_sandwich.distinct_rotors", _distinct_rows(rotor))


def _work_token_block(tracer, idx, args, kwargs, result):
    block = args[0]
    tracer.add("encodings.TokenBlock.bytes", block.data.nbytes + block.positions.nbytes)


def _work_tensor_result(tracer, idx, args, kwargs, result):
    tracer.add("formats.read_tensor.bytes", np.asarray(result).nbytes)


def _work_tensor_arg(tracer, idx, args, kwargs, result):
    tracer.add("formats.write_tensor.bytes", np.asarray(args[1]).nbytes)


def _work_apply_encoding(tracer, idx, args, kwargs, result):
    block, method = args[0], args[1]
    inverse = bool(args[2]) if len(args) > 2 else bool(kwargs.get("inverse", False))
    bands = method.schedule.num_bands
    token_bands = block.tokens * bands
    rotations = block.batch * token_bands
    tracer.apply_calls.append([idx, method.tag, rotations, token_bands])
    if method.tag in ("spherical", "quatro"):
        tracer.add("encodings.apply_encoding.apply3x3.flops", rotations * APPLY3X3_FLOPS)
        tracer.add("encodings.apply_encoding.apply3x3.bytes", token_bands * 9 * 8 + 2 * rotations * 3 * 8)
    axes = method.axes
    key = (
        method.tag,
        method.scale_x,
        method.scale_y,
        method.schedule.base,
        block.positions.tobytes(),
        b"" if axes is None else axes.axes_x.tobytes() + axes.axes_y.tobytes(),
        inverse,
    )
    if key in tracer.seen_keys:
        tracer.repeated_keys += 1
    else:
        tracer.seen_keys.add(key)


WORK = {
    "_cl3_numpy.gp_batch": _work_gp_batch,
    "_cl3_numpy.rotor_sandwich_batch": _work_sandwich_batch,
    "cl3.mv8_rotor_sandwich": _work_mv8_sandwich,
    "cl3.mv8_product": _work_rows_broadcast,
    "quaternion.hamilton_product": _work_rows_broadcast,
    "quaternion.quat_rotor": _work_rows_from_result,
    "quaternion.quat_to_rotation_matrix": _work_rows_from_result,
    "encodings.mv8_rotor": _work_rows_from_result,
    "ga.Algebra.gp": _work_rows_from_result,
    "encodings.TokenBlock": _work_token_block,
    "formats.read_tensor": _work_tensor_result,
    "formats.write_tensor": _work_tensor_arg,
    "encodings.apply_encoding": _work_apply_encoding,
}
