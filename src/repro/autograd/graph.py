"""Static-graph capture & replay for the autograd engine.

Full-batch training (the paper's protocol, §IV-A) evaluates a structurally
identical computational graph every epoch — only parameter *values* change.
:class:`CapturedGraph` records one eager forward (op sequence, parent
tensors, preallocated output buffers) plus the reverse topological order of
one backward pass, then replays later epochs as a flat loop over numpy
kernels:

* **forward replay** walks the recorded schedule and recomputes each node's
  forward thunk, writing the result *into the node's existing array* (numpy
  ufuncs write via ``out=`` — buffer donation; everything else is
  ``np.copyto``).  No ``Tensor`` boxes, no closures, no topo sort are
  (re)created.
* **backward replay** reuses the closures recorded during the capture epoch
  (they reference the parent/output arrays by object, which the in-place
  forward keeps fresh) and propagates along the cached topo order via the
  same accumulation routine as eager — gradients are bit-identical.

:meth:`CapturedGraph.split` partitions a recorded forward into a **head**
(every kernel some chosen outputs depend on) and a **tail** (the rest),
sharing the captured buffers.  The trainers use it to let the post-step
eval forward double as the next step's forward: the eval replays the head,
the next step replays only the tail.  :meth:`CapturedGraph.stamp_leaves` /
:meth:`CapturedGraph.leaves_unchanged` fingerprint the head's leaf values so
a step can tell whether the head's buffers still match its leaves.

Validity is guarded by a cheap structural fingerprint: a process-wide
*graph version* (bumped by mutations that change graph **structure**, e.g.
``CrossbarLayer.set_masks``), the objective's epoch key (e.g. the AL warmup
boundary), and the recorded leaf shapes.  Value-only changes — LR halving,
λ/μ updates, budget annealing — never invalidate a capture.

:class:`Program` is the one loop around :class:`CapturedGraph`: it records
a program, checks validity before each replay, re-records on a mismatch,
falls back to eager for good on :class:`GraphCaptureError`, and times each
replay per kernel while the kernel profiler is on.  The trainer, the fleet,
the Monte-Carlo ensemble and the serving engine all run their programs
through it.
"""

from __future__ import annotations

import contextlib
import logging
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from repro.autograd.tensor import Tensor, _run_backward, _topo_order, graph_capture, no_grad
from repro.observability.metrics import get_registry
from repro.observability.tracing import get_kernel_profiler, kernel_name, trace_span

logger = logging.getLogger(__name__)

_REPLAY_EPOCHS = get_registry().counter(
    "graph_replay_epochs", "training epochs executed by captured-graph replay"
)
_RECAPTURE_TOTAL = get_registry().counter(
    "graph_recapture_total", "captured graphs invalidated and re-recorded mid-run"
)
_CAPTURE_FALLBACKS = get_registry().counter(
    "graph_capture_fallbacks", "capture attempts abandoned (op without a forward thunk)"
)

#: Process-wide structural version; replay is valid only while unchanged.
_GRAPH_VERSION = 0


def graph_version() -> int:
    """Current structural version of the process's tensor programs."""
    return _GRAPH_VERSION


def bump_graph_version() -> None:
    """Invalidate every captured graph (call after structural mutations)."""
    global _GRAPH_VERSION
    _GRAPH_VERSION += 1


class GraphCaptureError(RuntimeError):
    """The traced program cannot be replayed (an op lacks a forward thunk)."""


# Schedule entry modes.
_MODE_COPY = 0   # recompute, then np.copyto into the node's buffer
_MODE_UFUNC = 1  # numpy ufunc: write directly via out= (buffer donation)


class CapturedGraph:
    """One recorded tensor program, replayable into its original buffers.

    Parameters
    ----------
    outputs:
        The tensors whose values the caller reads after each replay.  The
        forward schedule is the set of their ancestors (this prunes work:
        e.g. during AL warmup the training loss does not depend on the
        power assembly, so replay skips it entirely).
    backward_root:
        Optional scalar to also record a backward pass for; its topo order
        is cached and reused by :meth:`replay_backward`.
    epoch_key:
        Opaque structural key (see ``Objective.graph_epoch_key``); replay is
        valid only for epochs with an equal key.
    """

    def __init__(
        self,
        outputs: Sequence[Tensor],
        backward_root: Tensor | None = None,
        epoch_key: object = None,
    ):
        self.outputs = tuple(outputs)
        self.epoch_key = epoch_key
        self.version = graph_version()
        self.backward_root = backward_root
        self.backward_order: list[Tensor] | None = None
        if backward_root is not None:
            self.backward_order = _topo_order(backward_root)
        self._schedule: list[tuple[int, Callable, tuple[Tensor, ...], np.ndarray]] = []
        self._kernel_names: list[str] = []
        self.n_leaves = 0
        self.n_view_nodes = 0
        self._leaf_shapes: list[tuple[Tensor, tuple[int, ...]]] = []
        self._stamp: bytes | None = None
        self._build()

    # ------------------------------------------------------------------
    @property
    def n_ops(self) -> int:
        """Recomputed kernels per forward replay (views/aliases excluded)."""
        return len(self._schedule)

    def _build(self) -> None:
        order = _forward_order(self.outputs)
        for node in order:
            preds = node._parents + node._deps
            if not preds:
                self.n_leaves += 1
                self._leaf_shapes.append((node, node.data.shape))
                continue
            fwd = node._fwd
            if fwd is None:
                raise GraphCaptureError(
                    "captured graph contains an op without a forward thunk "
                    "(was part of the program built outside graph_capture()?)"
                )
            # Aliasing outputs (reshape/transpose views, detach) track their
            # source automatically once updates are in place — skip them.
            if any(np.shares_memory(node.data, p.data) for p in preds):
                self.n_view_nodes += 1
                continue
            mode = _MODE_COPY
            if isinstance(fwd, np.ufunc) and fwd.nin == len(preds) and fwd.nout == 1:
                try:
                    fwd(*[p.data for p in preds], out=node.data)
                    mode = _MODE_UFUNC
                except (TypeError, ValueError):  # pragma: no cover - exotic shapes
                    mode = _MODE_COPY
            self._schedule.append((mode, fwd, preds, node.data))
            self._kernel_names.append(kernel_name(fwd))

    def split(self, head_outputs: Sequence[Tensor]) -> tuple["CapturedGraph", "CapturedGraph"]:
        """Partition the forward schedule into ``(head, tail)``.

        ``head`` holds, in recorded order, every kernel ``head_outputs``
        depend on; ``tail`` holds the rest.  The parts are disjoint, cover
        the schedule, and write into this graph's buffers, so replaying head
        then tail equals one :meth:`replay_forward`.  Replaying the tail
        alone is exact while the head's buffers are current — no leaf the
        head reads changed since its last replay (see :meth:`leaves_unchanged`).
        Both parts are forward-only; the backward stays with this graph.
        """
        head_nodes = _forward_order(head_outputs)
        head_buffers = {id(node.data) for node in head_nodes}
        head_leaves = [node for node in head_nodes if not (node._parents or node._deps)]
        head_ids = {id(leaf) for leaf in head_leaves}
        entries: tuple[list, list] = ([], [])
        names: tuple[list[str], list[str]] = ([], [])
        for entry, name in zip(self._schedule, self._kernel_names):
            side = 0 if id(entry[3]) in head_buffers else 1
            entries[side].append(entry)
            names[side].append(name)
        tail_outputs = [t for t in self.outputs if id(t.data) not in head_buffers]
        tail_leaves = [leaf for leaf, _ in self._leaf_shapes if id(leaf) not in head_ids]
        return (
            self._part(head_outputs, entries[0], names[0], head_leaves),
            self._part(tail_outputs, entries[1], names[1], tail_leaves),
        )

    def _part(self, outputs, schedule, names, leaves) -> "CapturedGraph":
        # Built without __init__: a part is a view of this capture, not a new one.
        part = object.__new__(CapturedGraph)
        part.outputs = tuple(outputs)
        part.epoch_key = self.epoch_key
        part.version = self.version
        part.backward_root = None
        part.backward_order = None
        part._schedule = schedule
        part._kernel_names = names
        part.n_leaves = len(leaves)
        part.n_view_nodes = 0
        part._leaf_shapes = [(leaf, leaf.data.shape) for leaf in leaves]
        part._stamp = None
        return part

    def stamp_leaves(self) -> None:
        """Record the bytes of every leaf value (read by :meth:`leaves_unchanged`)."""
        self._stamp = self._leaf_bytes()

    def leaves_unchanged(self) -> bool:
        """Whether every leaf holds the bits it held at the last stamp.

        False before the first :meth:`stamp_leaves`.  When True, the buffers
        a replay made right before that stamp are still what a replay now
        would compute.
        """
        return self._stamp is not None and self._stamp == self._leaf_bytes()

    def _leaf_bytes(self) -> bytes:
        return b"".join([leaf.data.tobytes() for leaf, _shape in self._leaf_shapes])

    # ------------------------------------------------------------------
    def is_valid(self, epoch_key: object = None) -> bool:
        """Cheap structural fingerprint check run before every replay."""
        if self.version != graph_version():
            return False
        if epoch_key != self.epoch_key:
            return False
        for leaf, shape in self._leaf_shapes:
            if leaf.data.shape != shape:
                return False
        return True

    def kernel_names(self) -> list[str]:
        """Per-schedule-index kernel names (parallel to the forward schedule)."""
        return list(self._kernel_names)

    def backward_kernel_names(self) -> list[str]:
        """Names for the timed backward walk, indexed by reversed-topo position."""
        if self.backward_order is None:
            return []
        names: list[str] = []
        for node in reversed(self.backward_order):
            if node._backward is not None:
                base = kernel_name(node._fwd) if node._fwd is not None else "op"
                names.append(f"grad.{base}")
            else:
                names.append("accumulate")
        return names

    def replay_forward(self, timings: list[float] | None = None) -> None:
        """Re-execute the recorded kernels into the captured buffers.

        With ``timings`` (a list of length :attr:`n_ops`), one
        ``perf_counter()`` reading is taken per kernel and the full
        inter-reading interval is accumulated into ``timings[i]`` — the
        kernel's self time plus its share of loop overhead, so the totals
        account for essentially all of the replay wall time.  The kernel
        execution itself is byte-identical to the untimed path.
        """
        if timings is None:
            for mode, fwd, srcs, out in self._schedule:
                if mode == _MODE_UFUNC:
                    fwd(*[s.data for s in srcs], out=out)
                else:
                    result = fwd(*[s.data for s in srcs])
                    if result is not out:
                        np.copyto(out, result, casting="unsafe")
            return
        t_prev = perf_counter()
        for i, (mode, fwd, srcs, out) in enumerate(self._schedule):
            if mode == _MODE_UFUNC:
                fwd(*[s.data for s in srcs], out=out)
            else:
                result = fwd(*[s.data for s in srcs])
                if result is not out:
                    np.copyto(out, result, casting="unsafe")
            t_now = perf_counter()
            timings[i] += t_now - t_prev
            t_prev = t_now

    def replay_backward(self, timings: list[float] | None = None) -> None:
        """Re-run the captured backward pass along the cached topo order.

        ``timings`` works as in :meth:`replay_forward`, indexed by position
        in the reversed topo order (see :meth:`backward_kernel_names`).
        """
        root = self.backward_root
        if root is None or self.backward_order is None:
            raise RuntimeError("graph was captured without a backward root")
        _run_backward(root, self.backward_order, np.ones_like(root.data), timings)


def _forward_order(outputs: Sequence[Tensor]) -> list[Tensor]:
    """Topo order (ancestors first) over ``_parents`` + ``_deps``."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(t, False) for t in outputs]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for pred in node._parents + node._deps:
            if id(pred) not in visited:
                stack.append((pred, False))
    return order


def capture_forward(fn: Callable[..., "Tensor | Sequence[Tensor]"], *leaves: Tensor) -> CapturedGraph:
    """Record a forward-only program over fixed input buffers.

    Runs ``fn(*leaves)`` once under ``no_grad() + graph_capture()`` — replay
    structure (parents + forward thunks) is retained without any gradient
    bookkeeping — and wraps the outputs in a :class:`CapturedGraph`.  Later
    calls overwrite the leaves' arrays in place (``np.copyto``) and invoke
    :meth:`CapturedGraph.replay_forward`; the output buffers then hold the
    fresh values.  A bare capture with no recapture or fallback around it;
    long-lived programs use :class:`Program`.
    """
    with no_grad(), graph_capture():
        outputs = fn(*leaves)
    if isinstance(outputs, Tensor):
        outputs = (outputs,)
    return CapturedGraph(tuple(outputs))


class Program:
    """Capture → validity check → recapture → eager fallback for one program.

    ``build(*args)`` returns the program's output tensors.  :meth:`run`
    records it on first use — under :func:`graph_capture`, and
    :func:`no_grad` when the program has no backward — and afterwards
    replays it while :meth:`CapturedGraph.is_valid` accepts
    ``epoch_key(*args)``.  A mismatch re-records it
    (``graph_recapture_total``).  A :class:`GraphCaptureError` switches the
    program to plain ``build`` calls for good (``graph_capture_fallbacks``,
    one warning).  A capture that ran computed the outputs eagerly, so its
    epoch needs no replay.  While the kernel profiler is enabled, each
    capture opens one kernel recording per label and replays are timed into
    it; otherwise a replay is one dict lookup away from the bare kernel loop.
    The backward of a capture's own epoch, the first pass over fresh
    buffers, is replayed untimed, as that epoch's forward is not replayed.

    Parameters
    ----------
    build:
        Called as ``build(*args)``; returns a tensor or a tuple of tensors.
        It should not reference the object holding the program: that cycle
        keeps every captured buffer alive until the cyclic collector runs.
    label:
        Kernel-recording label of the forward :meth:`run` replays (the tail
        when ``head`` is given).
    backward:
        ``(index, label)``: also record the backward pass from
        ``outputs[index]``, run by :meth:`backward`.  A replay of a program
        with a backward counts as one training epoch (``graph_replay_epochs``).
    head:
        ``(index, label)``: split ``outputs[index:]`` and every kernel they
        depend on off as a head (:meth:`CapturedGraph.split`), replayed by
        :meth:`run_head`.  :meth:`run` then replays the tail, and the head
        first only when its leaves changed since the last :meth:`run_head`.
    epoch_key:
        Maps ``args`` to the structural key replay must match; only called
        while the program is captured or capturing.
    enabled:
        False runs ``build`` eagerly from the start (the reference path).
    on_capture:
        Called with the program after each successful capture.
    """

    def __init__(
        self,
        build: Callable[..., "Tensor | tuple[Tensor, ...]"],
        label: str,
        *,
        backward: tuple[int, str] | None = None,
        head: tuple[int, str] | None = None,
        epoch_key: Callable[..., object] | None = None,
        enabled: bool = True,
        on_capture: Callable[["Program"], None] | None = None,
    ):
        self._build = build
        self._label = label
        self._backward = backward
        self._head = head
        self._epoch_key = epoch_key
        self._on_capture = on_capture
        self._eager = not enabled
        self.graph: CapturedGraph | None = None
        self.head: CapturedGraph | None = None
        self._forward: CapturedGraph | None = None
        self.outputs: tuple[Tensor, ...] = ()
        self._recs: dict = {}
        self._untimed_backward = False

    @property
    def captured(self) -> bool:
        """Whether the program replays a recorded schedule (vs eager)."""
        return self.graph is not None

    @property
    def n_ops(self) -> int:
        """Kernels :meth:`run` replays (0 while not captured)."""
        return 0 if self._forward is None else self._forward.n_ops

    # ------------------------------------------------------------------
    def capture(self, *args) -> tuple[Tensor, ...]:
        """Record the program now; returns the outputs the recording computed."""
        if self.graph is not None:
            _RECAPTURE_TOTAL.inc()
            logger.debug("%s: captured graph invalidated; re-recording", self._label)
        self.graph = self.head = self._forward = None
        self._recs = {}
        with trace_span("graph.capture", "autograd"):
            with self._grad_mode(), graph_capture():
                self.outputs = _as_outputs(self._build(*args))
            try:
                root = None if self._backward is None else self.outputs[self._backward[0]]
                graph = CapturedGraph(self.outputs, backward_root=root, epoch_key=self._key(args))
            except GraphCaptureError:
                _CAPTURE_FALLBACKS.inc()
                logger.warning("%s: graph capture failed; running eagerly from now on",
                               self._label, exc_info=True)
                self._eager = True
                return self.outputs
            self.graph = self._forward = graph
            self._untimed_backward = True
            parts = {self._label: graph}
            if self._head is not None:
                self.head, self._forward = graph.split(self.outputs[self._head[0]:])
                parts = {self._label: self._forward, self._head[1]: self.head}
        profiler = get_kernel_profiler()
        if profiler.enabled:
            names = {label: part.kernel_names() for label, part in parts.items()}
            if self._backward is not None:
                names[self._backward[1]] = graph.backward_kernel_names()
            self._recs = {label: profiler.recording(label, n) for label, n in names.items()}
        if self._on_capture is not None:
            self._on_capture(self)
        return self.outputs

    def run(self, *args) -> tuple[Tensor, ...]:
        """The program's outputs for ``args``: replayed, re-recorded or eager."""
        if self._eager:
            with self._grad_mode():
                self.outputs = _as_outputs(self._build(*args))
            return self.outputs
        if self.graph is None or not self.graph.is_valid(self._key(args)):
            return self.capture(*args)
        if self.head is not None and not self.head.leaves_unchanged():
            self._replay(self.head.replay_forward, self._head[1])
        self._replay(self._forward.replay_forward, self._label)
        if self._backward is not None:
            _REPLAY_EPOCHS.inc()
        return self.outputs

    def run_head(self) -> tuple[Tensor, ...] | None:
        """Replay the head and stamp its leaves; its outputs (None while not captured)."""
        if self.head is None:
            return None
        self._replay(self.head.replay_forward, self._head[1])
        self.head.stamp_leaves()
        return self.outputs[self._head[0]:]

    def backward(self) -> None:
        """Backward pass of the last :meth:`run`: replayed, or eager when not captured."""
        if self.graph is None:
            root = self.outputs[self._backward[0]]
            root.backward(np.ones_like(root.data))
        elif self._untimed_backward:
            self._untimed_backward = False
            self.graph.replay_backward()
        else:
            self._replay(self.graph.replay_backward, self._backward[1])

    # ------------------------------------------------------------------
    def _grad_mode(self):
        # A forward-only program keeps no gradient bookkeeping.
        return contextlib.nullcontext() if self._backward else no_grad()

    def _key(self, args: tuple) -> object:
        return None if self._epoch_key is None else self._epoch_key(*args)

    def _replay(self, replay: Callable, label: str) -> None:
        rec = self._recs.get(label)
        if rec is None:
            replay()
            return
        t0 = perf_counter()
        replay(rec.times)
        rec.note_replay(perf_counter() - t0)


def _as_outputs(outputs: "Tensor | Sequence[Tensor]") -> tuple[Tensor, ...]:
    return (outputs,) if isinstance(outputs, Tensor) else tuple(outputs)
