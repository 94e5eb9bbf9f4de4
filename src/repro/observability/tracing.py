"""End-to-end tracing: spans, the span profile, kernel attribution, exporters.

Three cooperating pieces live here:

* :class:`Tracer` — a process-wide span recorder, and :class:`trace_span`,
  the one primitive that times a region.  Disabled (the default) the
  tracer holds **no buffer at all** (``_ring is None``) and every
  :class:`trace_span` enter/exit is a single attribute check, so traced
  code paths cost nothing in production.  Enabled, completed spans land
  in a preallocated ring buffer (no per-span allocation beyond the record
  dict itself) under a lock, so the serving threads and the micro-batcher
  can record concurrently.  Trace identity (``trace_id``/``span_id``)
  propagates through :mod:`contextvars`, and — for hops that cross thread
  boundaries, like the micro-batcher queue — explicitly via
  :func:`current_trace_context` + :class:`trace_context`.  The same lock
  section adds each span's duration to the **span profile**: call count
  and total wall time per span-name path (``trainer.epoch/trainer.step``),
  exact however far the ring has wrapped.  The CLI's ``--profile`` enables
  the tracer and prints :meth:`Tracer.profile` via :func:`render_profile`;
  ``--trace`` additionally enables the kernel profiler and exports spans.

* :class:`KernelProfiler` — aggregation for the opt-in per-kernel timing
  in ``CapturedGraph.replay_forward/replay_backward``.  The replay loops
  take one ``perf_counter()`` reading per kernel and attribute the whole
  inter-kernel interval to the kernel that just ran (self time plus its
  share of loop overhead), so the per-kernel totals account for ~all of
  the replayed wall time instead of leaking the bookkeeping between
  kernels.  Recordings are keyed by ``(label, schedule index, op name)``.

* Exporters — per-process JSONL shards (``trace.jsonl`` in the run dir,
  ``trace.worker-<pid>.jsonl`` from pool workers, folded together by the
  worker-shard protocol of :mod:`repro.observability.shards` through
  :data:`TRACE_SHARDS`, de-duplicated by span id) and Chrome trace-event
  JSON (:func:`chrome_trace`) loadable in Perfetto / ``chrome://tracing``.

Trace record shape (one JSON object per line in the shards)::

    {"name": ..., "cat": ..., "ts": <unix s>, "dur": <s>,
     "pid": ..., "tid": ..., "span": <hex id>,
     "trace": <hex id, optional>, "parent": <hex id, optional>,
     "args": {..., optional}}
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
from pathlib import Path
from time import perf_counter, time as _wall_time

import numpy as np

from repro.observability.shards import ShardStream, canonical_json, read_jsonl, write_jsonl

__all__ = [
    "TRACE_NAME",
    "KERNELS_NAME",
    "TRACE_SHARDS",
    "Tracer",
    "get_tracer",
    "current_span_path",
    "profile_delta",
    "enable_tracing",
    "disable_tracing",
    "trace_span",
    "trace_context",
    "new_trace_id",
    "current_trace_id",
    "current_span_id",
    "current_trace_context",
    "KernelProfiler",
    "KernelRecording",
    "get_kernel_profiler",
    "kernel_delta",
    "write_trace_jsonl",
    "read_trace",
    "chrome_trace",
    "write_chrome_trace",
    "render_profile",
    "write_kernels_json",
    "hot_kernels",
    "render_kernel_report",
    "render_kernel_diff",
]

#: Canonical file names inside a run directory.
TRACE_NAME = "trace.jsonl"
KERNELS_NAME = "kernels.json"

#: Default ring capacity: enough for ~100 training epochs of spans plus a
#: busy serving session, at ~200 bytes/record ≈ 13 MB worst case.
DEFAULT_CAPACITY = 65536

_TRACE_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_trace_id", default=None
)
_SPAN_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_span_id", default=None
)
# Names of the open spans, outermost first: the span-profile key.  Set
# only while tracing is enabled; a new thread starts at the root.
_SPAN_PATH: contextvars.ContextVar[tuple[str, ...]] = contextvars.ContextVar(
    "repro_span_path", default=()
)

_ID_COUNTER = 0
_ID_LOCK = threading.Lock()


def new_trace_id() -> str:
    """A process-unique 16-hex-char id (pid-prefixed, monotonic suffix)."""
    global _ID_COUNTER
    with _ID_LOCK:
        _ID_COUNTER += 1
        n = _ID_COUNTER
    return f"{os.getpid() & 0xFFFFFF:06x}{n & 0xFFFFFFFFFF:010x}"


def current_trace_id() -> str | None:
    return _TRACE_ID.get()


def current_span_id() -> str | None:
    return _SPAN_ID.get()


def current_trace_context() -> tuple[str | None, str | None]:
    """``(trace_id, span_id)`` — for handing across a thread boundary."""
    return _TRACE_ID.get(), _SPAN_ID.get()


class Tracer:
    """Process-wide span recorder with a preallocated ring buffer.

    The ring (``_ring``) is only allocated by :meth:`enable` — while
    disabled the tracer owns no span storage whatsoever, which the
    zero-allocation test asserts directly.  When more spans are recorded
    than ``capacity``, the oldest are overwritten and :attr:`dropped`
    counts the loss (never silently: exporters embed the count); the span
    profile (:meth:`profile`) aggregates outside the ring and loses nothing.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.enabled = False
        self.capacity = int(capacity)
        self.pid = os.getpid()
        self._ring: list[dict | None] | None = None
        self._count = 0
        self._profile: dict[tuple[str, ...], list] = {}  # path -> [count, total_s]
        self._lock = threading.Lock()
        # Wall-clock anchor: spans are timed with perf_counter() (cheap,
        # monotonic) and converted to unix time via this pair at export.
        self._anchor_wall = 0.0
        self._anchor_perf = 0.0

    # -- lifecycle -----------------------------------------------------
    def enable(self, capacity: int | None = None) -> None:
        with self._lock:
            if capacity is not None:
                self.capacity = int(capacity)
            if self._ring is None or len(self._ring) != self.capacity:
                self._ring = [None] * self.capacity
                self._count = 0
            self._anchor_wall = _wall_time()
            self._anchor_perf = perf_counter()
            self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def _forked(self) -> None:
        """Start a forked child disabled and empty (registered at fork).

        Nothing in the child exports the parent's spans, and a pool worker
        that records must :meth:`enable` itself (``--trace`` workers do),
        so an inherited ring would only fill up unread.
        """
        self.enabled = False
        self._ring = None
        self._count = 0
        self._profile = {}
        self._lock = threading.Lock()  # the parent's may be held mid-fork
        self.pid = os.getpid()

    def reset(self) -> None:
        """Drop recorded spans and the profile; release the ring unless enabled."""
        with self._lock:
            self._count = 0
            self._profile = {}
            self._ring = [None] * self.capacity if self.enabled else None

    # -- recording -----------------------------------------------------
    def wall(self, t_perf: float) -> float:
        """Convert a ``perf_counter()`` reading to unix seconds."""
        return self._anchor_wall + (t_perf - self._anchor_perf)

    def record(
        self,
        name: str,
        cat: str,
        t0_perf: float,
        dur_s: float,
        trace_id: str | None = None,
        span_id: str | None = None,
        parent_id: str | None = None,
        args: dict | None = None,
        path: tuple[str, ...] | None = None,
    ) -> None:
        """Append one completed span (no-op while disabled).

        A span with a name ``path`` also counts toward the span profile.
        """
        if not self.enabled:
            return
        rec = {
            "name": name,
            "cat": cat,
            "ts": self.wall(t0_perf),
            "dur": dur_s if dur_s >= 0.0 else 0.0,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "span": span_id if span_id is not None else new_trace_id(),
        }
        if trace_id is not None:
            rec["trace"] = trace_id
        if parent_id is not None:
            rec["parent"] = parent_id
        if args:
            rec["args"] = args
        with self._lock:
            ring = self._ring
            if ring is None:  # disabled concurrently
                return
            ring[self._count % self.capacity] = rec
            self._count += 1
            if path is not None:
                entry = self._profile.setdefault(path, [0, 0.0])
                entry[0] += 1
                entry[1] += rec["dur"]

    # -- inspection / draining -----------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def dropped(self) -> int:
        return max(0, self._count - self.capacity)

    def _ordered(self) -> list[dict]:
        """Recorded spans, oldest first; the caller holds the lock."""
        ring, n = self._ring, self._count
        if ring is None or n == 0:
            return []
        if n <= self.capacity:
            return ring[:n]
        head = n % self.capacity
        return ring[head:] + ring[:head]

    def records(self) -> list[dict]:
        """Recorded spans, oldest first (ring order resolved)."""
        with self._lock:
            return self._ordered()

    def drain(self) -> list[dict]:
        """Return recorded spans and clear the buffer (keeps enabled state).

        Read and clear are one lock section, so a span another thread
        records meanwhile is either returned here or kept for the next drain.
        """
        with self._lock:
            out = self._ordered()
            if out:
                self._ring[: len(out)] = [None] * len(out)
            self._count = 0
        return out

    def profile_totals(self) -> dict[tuple[str, ...], tuple[int, float]]:
        """A copy of the span profile as ``{path: (count, total_s)}``."""
        with self._lock:
            return {path: (count, total) for path, (count, total) in self._profile.items()}

    def merge_profile(
        self, delta: dict[tuple[str, ...], tuple[int, float]], prefix: tuple[str, ...] = ()
    ) -> None:
        """Add another process's span-profile delta, its paths under ``prefix``.

        Pool workers return the profile of each task they ran (see
        :func:`profile_delta`); the coordinating process folds it in here,
        under the spans that were open around the mapping call, so a
        ``--jobs N`` profile has the shape of the ``--jobs 1`` one.
        """
        with self._lock:
            for path, (count, total) in delta.items():
                entry = self._profile.setdefault(prefix + tuple(path), [0, 0.0])
                entry[0] += count
                entry[1] += total

    def profile(self) -> list[dict]:
        """The span profile: the ``profile`` event payload and ``profile.json``.

        ``[{"path": "a/b", "count": n, "total_s": s}, ...]`` per span-name
        path, depth-first with each node's children by total, descending.
        """
        totals = self.profile_totals()
        children: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for path in totals:
            children.setdefault(path[:-1], []).append(path)
        out: list[dict] = []

        def walk(prefix: tuple[str, ...]) -> None:
            for path in sorted(children.get(prefix, ()), key=lambda p: -totals[p][1]):
                count, total = totals[path]
                out.append({"path": "/".join(path), "count": count, "total_s": total})
                walk(path)

        walk(())
        return out


_TRACER = Tracer()
os.register_at_fork(after_in_child=_TRACER._forked)


def get_tracer() -> Tracer:
    return _TRACER


def current_span_path() -> tuple[str, ...]:
    """Names of the spans open in this context, outermost first."""
    return _SPAN_PATH.get()


def profile_delta(
    before: dict[tuple[str, ...], tuple[int, float]],
    after: dict[tuple[str, ...], tuple[int, float]],
) -> dict[tuple[str, ...], tuple[int, float]]:
    """The span-profile entries ``after`` added to ``before`` (changed paths only)."""
    delta = {}
    for path, (count, total) in after.items():
        base_count, base_total = before.get(path, (0, 0.0))
        if count != base_count:
            delta[path] = (count - base_count, total - base_total)
    return delta


def render_profile(spans: list[dict]) -> str:
    """A span profile as an indented table: calls, total and mean wall time."""
    if not spans:
        return "(no spans recorded — was profiling enabled?)"
    rows = [("span", "calls", "total_s", "mean_ms")]
    for item in spans:
        path = item["path"].split("/")
        mean_ms = item["total_s"] / item["count"] * 1e3 if item["count"] else 0.0
        rows.append(
            ("  " * (len(path) - 1) + path[-1], str(item["count"]),
             f"{item['total_s']:.4f}", f"{mean_ms:.3f}")
        )
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    return "\n".join(
        f"{r[0]:<{widths[0]}}  {r[1]:>{widths[1]}}  {r[2]:>{widths[2]}}  {r[3]:>{widths[3]}}"
        for r in rows
    )


class trace_span:
    """Context manager recording one span around a block.

    The one way this package times a region: the completed span goes to
    the ring and adds to the span profile under the names of the spans
    open around it in this thread.  Disabled path: ``__enter__``/
    ``__exit__`` are one attribute check each (``_TRACER.enabled``) — no
    ids, no clock reads, no allocation.
    """

    __slots__ = ("name", "cat", "args", "_t0", "_span_id", "_tok_span", "_tok_trace", "_tok_path")

    def __init__(self, name: str, cat: str = "app", args: dict | None = None):
        self.name = name
        self.cat = cat
        self.args = args
        self._t0 = None

    def __enter__(self):
        if not _TRACER.enabled:
            self._t0 = None
            return self
        self._tok_trace = None
        if _TRACE_ID.get() is None:
            self._tok_trace = _TRACE_ID.set(new_trace_id())
        self._span_id = new_trace_id()
        self._tok_span = _SPAN_ID.set(self._span_id)
        self._tok_path = _SPAN_PATH.set(_SPAN_PATH.get() + (self.name,))
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t0 = self._t0
        if t0 is None:
            return False
        dur = perf_counter() - t0
        path = _SPAN_PATH.get()
        _SPAN_PATH.reset(self._tok_path)
        _SPAN_ID.reset(self._tok_span)
        _TRACER.record(
            self.name,
            self.cat,
            t0,
            dur,
            trace_id=_TRACE_ID.get(),
            span_id=self._span_id,
            parent_id=_SPAN_ID.get(),
            args=self.args,
            path=path,
        )
        if self._tok_trace is not None:
            _TRACE_ID.reset(self._tok_trace)
        self._t0 = None
        return False


class trace_context:
    """Bind an explicit trace identity for the current (possibly new) thread.

    Used where contextvars cannot flow by themselves: the serving handler
    binds the request's ``X-Trace-Id``, and the micro-batcher thread binds
    the lead request's context around a flush so engine-level spans join
    the right trace.
    """

    __slots__ = ("trace_id", "parent_id", "_tok_trace", "_tok_span")

    def __init__(self, trace_id: str | None = None, parent_id: str | None = None):
        self.trace_id = trace_id
        self.parent_id = parent_id

    def __enter__(self) -> str:
        tid = self.trace_id if self.trace_id is not None else new_trace_id()
        self._tok_trace = _TRACE_ID.set(tid)
        self._tok_span = _SPAN_ID.set(self.parent_id)
        return tid

    def __exit__(self, exc_type, exc, tb):
        _SPAN_ID.reset(self._tok_span)
        _TRACE_ID.reset(self._tok_trace)
        return False


# ----------------------------------------------------------------------
# Per-kernel replay attribution
# ----------------------------------------------------------------------
def kernel_name(fwd) -> str:
    """A short human name for a captured forward thunk.

    ufuncs report their own name (``add``, ``matmul``); Python closures
    captured inside :class:`~repro.autograd.tensor.Tensor` methods are
    named after the defining method (``Tensor.reshape.<locals>.<lambda>``
    → ``reshape``), with dunder/underscore decoration and the ``_kernel``
    suffix stripped (``_sigmoid_kernel`` → ``sigmoid``).
    """
    if isinstance(fwd, np.ufunc):
        return fwd.__name__
    qual = getattr(fwd, "__qualname__", "") or type(fwd).__name__
    name = qual.split(".<locals>", 1)[0].rsplit(".", 1)[-1]
    name = name.strip("_") or "op"
    if name.endswith("_kernel"):
        name = name[: -len("_kernel")]
    return name


class KernelRecording:
    """Per-kernel accumulated self time for one captured graph + label.

    ``times[i]`` is filled in place by the timed replay loops (one float
    add per kernel); ``wall_s``/``replays`` track the enclosing replay
    wall time so coverage (attributed / wall) is computable.
    """

    __slots__ = ("label", "names", "times", "replays", "wall_s")

    def __init__(self, label: str, names: list[str]):
        self.label = label
        self.names = list(names)
        self.times = [0.0] * len(self.names)
        self.replays = 0
        self.wall_s = 0.0

    def note_replay(self, wall_s: float) -> None:
        self.replays += 1
        self.wall_s += wall_s


class KernelProfiler:
    """Registry of :class:`KernelRecording` objects, aggregated at export.

    Like the tracer, disabled by default; the captured-graph engines only
    create recordings (and take the extra ``perf_counter()`` per kernel)
    when :attr:`enabled` is set, so the replay fast path is untouched.
    """

    def __init__(self):
        self.enabled = False
        self._recordings: list[KernelRecording] = []
        self._merged: dict[str, dict] = {}
        self._lock = threading.Lock()

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._recordings = []
            self._merged = {}

    def recording(self, label: str, names: list[str]) -> KernelRecording:
        rec = KernelRecording(label, names)
        with self._lock:
            self._recordings.append(rec)
        return rec

    def has_data(self) -> bool:
        with self._lock:
            return bool(self._merged) or any(rec.replays for rec in self._recordings)

    def totals(self) -> dict[str, dict]:
        """Recordings aggregated per label, merged entries included.

        Same-label recordings (a graph recaptured mid-run) merge by
        ``(index, name)``: ``{label: {"replays": n, "wall_s": s,
        "kernels": {(index, name): total_s}}}``.  The result is a fresh
        copy; :func:`kernel_delta` diffs two of them.
        """
        with self._lock:
            recordings = list(self._recordings)
            labels = {
                label: dict(entry, kernels=dict(entry["kernels"]))
                for label, entry in self._merged.items()
            }
        for rec in recordings:
            if rec.replays == 0:
                continue
            entry = labels.setdefault(rec.label, {"replays": 0, "wall_s": 0.0, "kernels": {}})
            entry["replays"] += rec.replays
            entry["wall_s"] += rec.wall_s
            table = entry["kernels"]
            for index, (name, total) in enumerate(zip(rec.names, rec.times)):
                key = (index, name)
                table[key] = table.get(key, 0.0) + total
        return labels

    def merge(self, delta: dict[str, dict]) -> None:
        """Add another process's :func:`kernel_delta` by ``(label, index, name)``.

        Pool workers return the kernel recordings of each task they ran;
        the coordinating process folds them in here, so a traced
        ``--jobs N`` run writes the ``kernels.json`` a ``--jobs 1`` run
        would.
        """
        with self._lock:
            for label, part in delta.items():
                entry = self._merged.setdefault(label, {"replays": 0, "wall_s": 0.0, "kernels": {}})
                entry["replays"] += part["replays"]
                entry["wall_s"] += part["wall_s"]
                table = entry["kernels"]
                for key, total in part["kernels"].items():
                    table[key] = table.get(key, 0.0) + total

    def as_json(self) -> dict:
        """Aggregate recordings into the ``kernels.json`` payload.

        Schema::

            {"labels": {label: {"replays": n, "wall_s": s,
                                "attributed_s": s,
                                "kernels": [{"index", "name", "total_s"}]}}}
        """
        out: dict[str, dict] = {}
        for label, entry in self.totals().items():
            kernels = [
                {"index": index, "name": name, "total_s": total}
                for (index, name), total in sorted(entry["kernels"].items())
            ]
            out[label] = {
                "replays": entry["replays"],
                "wall_s": entry["wall_s"],
                "attributed_s": sum(k["total_s"] for k in kernels),
                "kernels": kernels,
            }
        return {"labels": out}


def kernel_delta(before: dict[str, dict], after: dict[str, dict]) -> dict[str, dict]:
    """The :meth:`KernelProfiler.totals` entries ``after`` added to ``before``.

    Only labels that replayed in between are kept, each with the replays,
    wall time and per-kernel time added since ``before``.
    """
    delta = {}
    for label, entry in after.items():
        base = before.get(label, {"replays": 0, "wall_s": 0.0, "kernels": {}})
        if entry["replays"] == base["replays"]:
            continue
        delta[label] = {
            "replays": entry["replays"] - base["replays"],
            "wall_s": entry["wall_s"] - base["wall_s"],
            "kernels": {
                key: total - base["kernels"].get(key, 0.0)
                for key, total in entry["kernels"].items()
            },
        }
    return delta


_KERNEL_PROFILER = KernelProfiler()


def get_kernel_profiler() -> KernelProfiler:
    return _KERNEL_PROFILER


def enable_tracing(capacity: int | None = None) -> None:
    """Enable the span tracer and the kernel profiler (the --trace switch)."""
    _TRACER.enable(capacity)
    _KERNEL_PROFILER.enable()


def disable_tracing() -> None:
    _TRACER.disable()
    _KERNEL_PROFILER.disable()


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
#: Trace shards are written by the worker-shard protocol's line writer.
write_trace_jsonl = write_jsonl


def read_trace(path: str | Path) -> list[dict]:
    """Read a trace file; a truncated final line is dropped, not fatal."""
    return [rec for rec in read_jsonl(path, tolerate_truncated_tail=True) if isinstance(rec, dict)]


#: Worker shards of the span trace (``trace.worker-<pid>.jsonl``); a
#: span's identity is its span id.
TRACE_SHARDS = ShardStream(
    "trace", read_trace, key=lambda rec: rec.get("span") or canonical_json(rec)
)


def chrome_trace(records: list[dict]) -> dict:
    """Convert trace records to Chrome trace-event JSON (Perfetto-loadable).

    Complete events (``ph: "X"``) with microsecond timestamps relative to
    the earliest span, so the timeline opens at t=0.
    """
    events: list[dict] = []
    base = min((rec.get("ts", 0.0) for rec in records), default=0.0)
    for rec in sorted(records, key=lambda r: r.get("ts", 0.0)):
        args = dict(rec.get("args") or {})
        for key in ("trace", "span", "parent"):
            if key in rec:
                args[key] = rec[key]
        events.append(
            {
                "name": rec.get("name", "?"),
                "cat": rec.get("cat", "app"),
                "ph": "X",
                "ts": max(0.0, (rec.get("ts", base) - base) * 1e6),
                "dur": max(0.0, rec.get("dur", 0.0) * 1e6),
                "pid": rec.get("pid", 0),
                "tid": rec.get("tid", 0),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, records: list[dict]) -> int:
    """Write records as a Chrome trace JSON file; returns the event count."""
    payload = chrome_trace(records)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return len(payload["traceEvents"])


def write_kernels_json(path: str | Path, profiler: KernelProfiler | None = None) -> bool:
    """Write the aggregated kernel table; returns False when there is none."""
    profiler = profiler if profiler is not None else _KERNEL_PROFILER
    if not profiler.has_data():
        return False
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(profiler.as_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    tmp.replace(path)
    return True


# ----------------------------------------------------------------------
# Hot-kernel reporting
# ----------------------------------------------------------------------
def hot_kernels(kernels: dict, top: int = 15) -> list[dict]:
    """Flatten a ``kernels.json`` payload into the top-N rows by self time.

    Each row: ``{"label", "index", "name", "total_s", "per_replay_s",
    "share"}`` where ``share`` is the fraction of that label's attributed
    time.
    """
    rows: list[dict] = []
    for label, entry in kernels.get("labels", {}).items():
        attributed = entry.get("attributed_s", 0.0) or 1e-30
        replays = max(1, entry.get("replays", 1))
        for k in entry.get("kernels", []):
            if k["total_s"] <= 0.0:
                continue
            rows.append(
                {
                    "label": label,
                    "index": k["index"],
                    "name": k["name"],
                    "total_s": k["total_s"],
                    "per_replay_s": k["total_s"] / replays,
                    "share": k["total_s"] / attributed,
                }
            )
    rows.sort(key=lambda r: -r["total_s"])
    return rows[:top]


def _fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:,.1f}us"


def render_kernel_report(kernels: dict, top: int = 15) -> str:
    """Human-readable hot-kernel table with per-label coverage lines."""
    lines = ["== hottest kernels =="]
    labels = kernels.get("labels", {})
    if not labels:
        lines.append("  (no kernel trace data)")
        return "\n".join(lines)
    for label in sorted(labels):
        entry = labels[label]
        wall = entry.get("wall_s", 0.0)
        attributed = entry.get("attributed_s", 0.0)
        coverage = attributed / wall if wall > 0 else 0.0
        lines.append(
            f"  {label}: {entry.get('replays', 0)} replays, "
            f"wall {wall:.4f}s, attributed {attributed:.4f}s "
            f"({coverage:.1%} coverage)"
        )
    rows = hot_kernels(kernels, top=top)
    if rows:
        lines.append(f"  {'rank':<5}{'kernel':<18}{'label':<24}{'idx':>4}"
                     f"{'total':>12}{'per-replay':>14}{'share':>8}")
        for rank, row in enumerate(rows, start=1):
            lines.append(
                f"  {rank:<5}{row['name']:<18}{row['label']:<24}{row['index']:>4}"
                f"{row['total_s']:>11.4f}s{_fmt_us(row['per_replay_s']):>14}"
                f"{row['share']:>7.1%}"
            )
    return "\n".join(lines)


def render_kernel_diff(before: dict, after: dict, top: int = 10) -> str:
    """Name the kernels responsible for a step-time regression.

    Matches kernels by ``(label, index, name)`` across two ``kernels.json``
    payloads and ranks by the change in per-replay self time, so "replay
    got 8% slower" becomes "``matmul`` at schedule index 3 got 6us/replay
    slower".
    """

    def per_replay(payload: dict) -> dict[tuple, float]:
        table: dict[tuple, float] = {}
        for label, entry in payload.get("labels", {}).items():
            replays = max(1, entry.get("replays", 1))
            for k in entry.get("kernels", []):
                table[(label, k["index"], k["name"])] = k["total_s"] / replays
        return table

    a, b = per_replay(before), per_replay(after)
    deltas = [
        {"key": key, "before": a.get(key, 0.0), "after": b.get(key, 0.0),
         "delta": b.get(key, 0.0) - a.get(key, 0.0)}
        for key in set(a) | set(b)
    ]
    deltas.sort(key=lambda d: -abs(d["delta"]))
    lines = ["== kernel diff (per-replay self time, after - before) =="]
    if not deltas:
        lines.append("  (no kernels to compare)")
        return "\n".join(lines)
    worst = max(deltas, key=lambda d: d["delta"])
    if worst["delta"] > 0:
        label, index, name = worst["key"]
        rel = worst["delta"] / worst["before"] if worst["before"] > 0 else float("inf")
        rel_txt = f"{rel:+.1%}" if worst["before"] > 0 else "new"
        lines.append(
            f"  regression driver: {name} ({label}, index {index}) "
            f"{_fmt_us(worst['delta'])}/replay slower ({rel_txt})"
        )
    else:
        lines.append("  no kernel regressed (all per-replay deltas <= 0)")
    lines.append(f"  {'kernel':<18}{'label':<24}{'idx':>4}"
                 f"{'before':>12}{'after':>12}{'delta':>12}")
    for d in deltas[:top]:
        label, index, name = d["key"]
        lines.append(
            f"  {name:<18}{label:<24}{index:>4}"
            f"{_fmt_us(d['before']):>12}{_fmt_us(d['after']):>12}"
            f"{_fmt_us(d['delta']):>12}"
        )
    return "\n".join(lines)
