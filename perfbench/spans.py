"""Span tracer that wraps helm_bench functions from outside the package.

Wrapping replaces module and class attributes. The package calls across
layers through module attributes (``sim`` calls ``dynamics.step``,
``sensors.render_frame``, ``control.lqr_step`` ...), so every such call
passes through a wrapper that records a span: name, start, end, parent span
and operation id. Parent stacks are thread-local; a patched
``ThreadPoolExecutor.submit`` hands the submitting span to the pool thread,
so spans on the ``evaluate`` worker threads keep their parent.
Spans stay in memory in compact arrays and are written out once, by
``Tracer.save``. No file of the package changes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
from array import array
from concurrent.futures.thread import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter, thread_time

import numpy as np

OP_SPAN = "bench.op"

# Spanned functions, each with the end-to-end metric it should move.
SPANS = {
    "config.load_scenario": "setup_s",
    "control.lqr_gain": "setup_s; items_per_s on emulator_loop (one solve per LQR run)",
    "control.lqr_step": "items_per_s on emulator_loop",
    "control.pid_step": "items_per_s on emulator_loop",
    "control.smc_refs": "items_per_s on emulator_loop",
    "control.smc_step": "items_per_s on emulator_loop",
    "dynamics.step": "items_per_s on emulator_loop; ~0 on ncc_loop",
    "dynamics.mix": "items_per_s on emulator_loop",
    "dynamics.saturate": "items_per_s on emulator_loop",
    "dynamics.unmix": "items_per_s on emulator_loop",
    "sensors.project_target": "items_per_s on emulator_loop",
    "sensors.emulate_tracker": "items_per_s on emulator_loop",
    "sensors.render_frame": "items_per_s on ncc_loop",
    "sensors.NccTracker.track": "items_per_s on ncc_loop",
    "sensors.ncc_track": "items_per_s on ncc_loop",
    "sensors.zncc_scores": "items_per_s on ncc_loop",
    "sensors.lidar_range": "items_per_s on emulator_loop",
    "sensors.measure_state": "items_per_s on emulator_loop",
    "guidance.guidance_step": "items_per_s on ncc_loop (visibility 0.1 holds and searches) vs emulator_loop (all tracking)",
    "sim.run_scenario": "items_per_s on emulator_loop (self: dataclass churn, log append, columns)",
    "sim.target_pose": "items_per_s on emulator_loop",
    "sim.RunLog.to_csv": "items_per_s on emulator_loop",
    "sim.RunLog.gt_boxes": "items_per_s on emulator_loop",
    "sim.RunLog.pred_boxes": "items_per_s on emulator_loop",
    "metrics.format_boxes": "items_per_s on emulator_loop",
    "metrics.evaluate_sequence": "items_per_s on evaluate",
    "metrics.load_boxes": "items_per_s on evaluate",
    "metrics.evaluate_boxes": "items_per_s on evaluate",
    "metrics.aggregate_reports": "items_per_s on evaluate",
    "metrics.format_report": "items_per_s on evaluate",
    "metrics.format_curves": "items_per_s on evaluate",
    "io_utils.atomic_write_text": "items_per_s on emulator_loop, evaluate",
    "cli.main": "items_per_s on evaluate",
    "cli._evaluate_tracker": "items_per_s on evaluate (the evaluate thread pool)",
}

# `cli` binds atomic_write_text by name at import, so that binding is
# patched as well, under the same span name.
ALIASES = {("cli", "atomic_write_text"): "io_utils.atomic_write_text"}

# Constructors and helpers that are counted, not spanned: they run several
# times per control step, and a span each would dominate the trace.
COUNTED = (
    "core.Pose2D.__init__",
    "core.BodyState.__init__",
    "dynamics.ThrustPair.__init__",
    "dynamics.GeneralizedThrust.__init__",
    "dynamics.StateDerivative.__init__",
    "dynamics.Disturbance.__init__",
    "dynamics.derivatives",
)

LAYERS = ("core", "config", "dynamics", "sensors", "guidance", "control", "sim", "metrics", "io_utils", "cli")

# Spans whose p99 self time is reported next to the p50.
P99 = (
    "dynamics.step",
    "sensors.render_frame",
    "sensors.zncc_scores",
    "sim.run_scenario",
    "sim.RunLog.to_csv",
    "metrics.load_boxes",
    "metrics.evaluate_boxes",
    "guidance.guidance_step",
    "control.lqr_step",
)


def _bump(counts: dict, key: str, amount=1) -> None:
    counts[key] = counts.get(key, 0) + amount


def _saturate(counts, args, result) -> None:
    pair = args[0]
    _bump(counts, "sat.calls")
    if result.left != pair.left or result.right != pair.right:
        _bump(counts, "sat.clamped")


def _zncc(counts, args, result) -> None:
    _bump(counts, "zncc.placements", result.size)
    _bump(counts, "zncc.madds", result.size * args[1].size)


def _render(counts, args, result) -> None:
    _bump(counts, "render.pixels", result.size)
    _bump(counts, "render.bytes", result.nbytes)


def _track(counts, args, result) -> None:
    _bump(counts, "ncc.valid", int(result.valid))
    _bump(counts, "ncc.score", float(result.score))


# Observers see (per-thread counts, call args, result) after a spanned call.
OBSERVERS = {
    "dynamics.saturate": _saturate,
    "sensors.render_frame": _render,
    "sensors.zncc_scores": _zncc,
    "sensors.NccTracker.track": _track,
    "guidance.guidance_step": lambda c, a, r: _bump(c, "mode." + r.mode.value),
    "sim.run_scenario": lambda c, a, r: _bump(c, "steps", len(r)),
    "sim.RunLog.to_csv": lambda c, a, r: _bump(c, "csv.bytes", len(r)),
    "io_utils.atomic_write_text": lambda c, a, r: _bump(c, "write.bytes", len(a[1])),
    "metrics.load_boxes": lambda c, a, r: _bump(c, "load.bytes", os.path.getsize(a[0])),
    "metrics.evaluate_boxes": lambda c, a, r: _bump(c, "eval.frames", r.n_frames),
}


def _resolve(dotted: str):
    """'sim.RunLog.to_csv' -> (sim.RunLog, 'to_csv') inside helm_bench."""
    parts = dotted.split(".")
    owner = importlib.import_module(f"helm_bench.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _ThreadBuffer:
    __slots__ = ("stack", "rec", "times", "counts", "thread")

    def __init__(self) -> None:
        self.stack = [0]  # 0 = no parent span
        self.rec = array("q")  # span id, parent id, name index, op id
        self.times = array("d")  # start, end
        self.counts: dict = {}
        self.thread = threading.get_ident()


class Tracer:
    """Records spans and counts while its patches are installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        self.op = 0  # operation id stamped on spans; 0 = outside operations

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _index(self, name: str) -> int:
        if name not in self._names:
            self._names.append(name)
        return self._names.index(name)

    def _spanned(self, original, name: str, observe=None):
        idx = self._index(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            sid = next(tracer._ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                buf.rec.extend((sid, parent, idx, tracer.op))
                buf.times.extend((t0, t1))
            if observe is not None:
                observe(buf.counts, args, result)
            return result

        return wrapper

    def _counted(self, original, key: str):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts = tracer._buffer().counts
            counts[key] = counts.get(key, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    def _carry_parent(self, original):
        """ThreadPoolExecutor.submit that runs the task under the caller's span."""
        tracer = self

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer._buffer().stack[-1]

            def run(*a, **kw):
                buf = tracer._buffer()
                buf.stack.append(parent)
                cpu = thread_time()
                try:
                    return fn(*a, **kw)
                finally:
                    buf.stack.pop()
                    _bump(buf.counts, "pool.cpu_s", thread_time() - cpu)

            return original(pool, run, *args, **kwargs)

        return submit

    def _build(self) -> None:
        names = {}
        for name in SPANS:
            owner, attr = _resolve(name)
            original = vars(owner)[attr]
            names[name] = self._spanned(original, name, OBSERVERS.get(name))
            self._wrappers.append((owner, attr, names[name]))
        for (module, attr), name in ALIASES.items():
            owner, _ = _resolve(f"{module}.{attr}")
            self._wrappers.append((owner, attr, names[name]))
        for name in COUNTED:
            owner, attr = _resolve(name)
            key = name.removesuffix(".__init__")
            self._wrappers.append((owner, attr, self._counted(vars(owner)[attr], key)))
        submit = vars(ThreadPoolExecutor)["submit"]
        self._wrappers.append((ThreadPoolExecutor, "submit", self._carry_parent(submit)))

    def install(self) -> None:
        if not self._wrappers:
            self._build()
        for owner, attr, wrapper in self._wrappers:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Run package code (output checks) without recording it."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def call(self, op: int, fn, *args):
        """Run one operation as a root span with its own operation id."""
        self.op = op
        try:
            return self._spanned(fn, OP_SPAN)(*args)
        finally:
            self.op = 0

    def counts(self) -> dict:
        total: dict = {}
        for buf in self._buffers:
            for key, value in buf.counts.items():
                _bump(total, key, value)
        return total

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as columns: id, parent, name index, op, thread, start, end."""
        rec = [np.frombuffer(b.rec, dtype=np.int64).reshape(-1, 4) for b in self._buffers]
        times = [np.frombuffer(b.times, dtype=np.float64).reshape(-1, 2) for b in self._buffers]
        threads = [np.full(len(r), b.thread, dtype=np.int64) for r, b in zip(rec, self._buffers)]
        rec_all = np.concatenate(rec) if rec else np.empty((0, 4), np.int64)
        times_all = np.concatenate(times) if times else np.empty((0, 2))
        return {
            "id": rec_all[:, 0],
            "parent": rec_all[:, 1],
            "name": rec_all[:, 2],
            "op": rec_all[:, 3],
            "thread": np.concatenate(threads) if threads else np.empty(0, np.int64),
            "start": times_all[:, 0],
            "end": times_all[:, 1],
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self._names), **self.arrays())

    @property
    def names(self) -> list[str]:
        return self._names


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children on the parent's thread nest and never overlap, so their
    durations add up. Children on pool threads overlap one another, so
    their intervals are merged first.
    """
    ids, parents = cols["id"], cols["parent"]
    start, end = cols["start"], cols["end"]
    dur = end - start
    if ids.size == 0:
        return dur
    index_of = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
    index_of[ids] = np.arange(ids.size)
    has_parent = parents > 0
    pidx = np.where(has_parent, index_of[np.where(has_parent, parents, 0)], -1)
    same = has_parent & (cols["thread"] == cols["thread"][np.maximum(pidx, 0)])
    covered = np.bincount(pidx[same], weights=dur[same], minlength=ids.size)

    cross = np.flatnonzero(has_parent & ~same)
    order = cross[np.lexsort((start[cross], pidx[cross]))]
    current, reach = -1, -np.inf
    for i in order.tolist():
        p = int(pidx[i])
        if p != current:
            current, reach = p, start[p]
        lo = max(start[i], reach)
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach = max(reach, hi)
    return dur - covered


def layer_metrics(tracer: Tracer, n_ops: int, pools: dict[str, int]) -> tuple[dict, list]:
    """Per-layer metrics {name: (value, unit)} plus rows for the printed table.

    `pools` maps the span that owns a thread pool to its worker count.
    """
    cols = tracer.arrays()
    selfs = self_times(cols)
    dur = cols["end"] - cols["start"]
    in_op = cols["op"] > 0
    counts = tracer.counts()
    steps = counts.get("steps", 0)
    ops = max(n_ops, 1)

    def spans_of(name: str) -> np.ndarray:
        if name not in tracer.names:
            return np.zeros(cols["id"].size, dtype=bool)
        return cols["name"] == tracer.names.index(name)

    def per(value, base):
        return value / base if base else 0.0

    op_time = float(dur[spans_of(OP_SPAN)].sum())
    out: dict[str, tuple[float, str]] = {}
    rows = []
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in SPANS:
        mask = spans_of(name)
        s = selfs[mask] * 1e6
        p50 = float(np.percentile(s, 50)) if s.size else 0.0
        p99 = float(np.percentile(s, 99)) if s.size else 0.0
        calls = np.count_nonzero(mask & in_op) / ops
        busy = float(selfs[mask & in_op].sum())
        layer_self[name.split(".")[0]] += busy
        out[f"{name}.calls_per_op"] = (calls, "calls/op")
        out[f"{name}.self_us_p50"] = (p50, "us")
        if name in P99:
            out[f"{name}.self_us_p99"] = (p99, "us")
        rows.append((name, calls, p50, p99, 100.0 * per(busy, op_time), SPANS[name]))

    for layer in LAYERS:
        out[f"share.{layer}_pct"] = (100.0 * per(layer_self[layer], op_time), "%")
    out["trace.layer_coverage_pct"] = (100.0 * per(sum(layer_self.values()), op_time), "%")

    run_self = float(selfs[spans_of("sim.run_scenario") & in_op].sum())
    out["sim.run_scenario.self_us_per_step"] = (1e6 * per(run_self, steps), "us")
    out["dynamics.derivatives.calls_per_step"] = (per(counts.get("dynamics.derivatives", 0), steps), "calls/step")
    out["dynamics.saturation_fraction"] = (per(counts.get("sat.clamped", 0), counts.get("sat.calls", 0)), "fraction")
    for name in COUNTED[:-1]:
        cls = name.removesuffix(".__init__")
        out[f"new.{cls}_per_step"] = (per(counts.get(cls, 0), steps), "count")

    def calls_total(name):
        return np.count_nonzero(spans_of(name))

    def time_total(name):
        return float(dur[spans_of(name)].sum())

    csv_bytes = counts.get("csv.bytes", 0)
    out["sim.RunLog.to_csv.bytes_per_call"] = (per(csv_bytes, calls_total("sim.RunLog.to_csv")), "B")
    out["sim.RunLog.to_csv.mb_per_s"] = (per(csv_bytes / 1e6, time_total("sim.RunLog.to_csv")), "MB/s")
    writes = calls_total("io_utils.atomic_write_text")
    out["io_utils.atomic_write_text.bytes_per_call"] = (per(counts.get("write.bytes", 0), writes), "B")

    renders = calls_total("sensors.render_frame")
    out["sensors.render_frame.pixels_per_call"] = (per(counts.get("render.pixels", 0), renders), "count")
    out["sensors.render_frame.out_bytes_per_call_computed"] = (per(counts.get("render.bytes", 0), renders), "B")
    znccs = calls_total("sensors.zncc_scores")
    out["sensors.zncc_scores.placements_per_call"] = (per(counts.get("zncc.placements", 0), znccs), "count")
    out["sensors.zncc_scores.madds_per_call_computed"] = (per(counts.get("zncc.madds", 0), znccs), "count")
    tracks = calls_total("sensors.NccTracker.track")
    out["ncc.valid_ratio"] = (per(counts.get("ncc.valid", 0), tracks), "fraction")
    out["ncc.peak_score_mean"] = (per(counts.get("ncc.score", 0.0), tracks), "score")
    for mode in ("tracking", "holding", "searching"):
        out[f"guidance.mode.{mode}_per_op"] = (counts.get(f"mode.{mode}", 0) / ops, "count")

    loaded = time_total("metrics.load_boxes")
    out["metrics.load_boxes.mb_per_s"] = (per(counts.get("load.bytes", 0) / 1e6, loaded), "MB/s")
    evaluated = time_total("metrics.evaluate_boxes")
    out["metrics.evaluate_boxes.us_per_frame"] = (1e6 * per(evaluated, counts.get("eval.frames", 0)), "us")

    # Pool wall is the owner span's duration; busy is the time its direct
    # children, which run on the pool threads, were open. Under the GIL a
    # child is open while it waits for the lock, so the CPU time the pool
    # threads used is reported beside it.
    owner = spans_of("cli._evaluate_tracker") & in_op
    wall = float(dur[owner].sum())
    busy = float(dur[np.isin(cols["parent"], cols["id"][owner])].sum())
    capacity = wall * pools.get("cli._evaluate_tracker", 0)
    out["cli.evaluate_pool.wall_ms"] = (1e3 * wall / ops, "ms")
    out["cli.evaluate_pool.busy_ms"] = (1e3 * busy / ops, "ms")
    out["cli.evaluate_pool.parallel_efficiency"] = (per(busy, capacity), "fraction")
    out["pool.cpu_efficiency"] = (per(counts.get("pool.cpu_s", 0.0), capacity), "fraction")
    return out, rows
