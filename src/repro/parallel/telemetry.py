"""Worker-side telemetry: per-process event and span shards + metrics forwarding.

The PR-1 observability layer records single-process runs; this module
extends it across the process pool so a 16-way grid run is no longer a
black box.  The contract:

- The coordinating process activates telemetry by passing a (picklable)
  :class:`WorkerTelemetry` spec into :func:`repro.parallel.map_tasks`
  (the CLI sets a process-wide default via :func:`set_default_telemetry`
  when ``--run-dir`` is given).
- Inside each worker, the engine binds a per-process
  :class:`WorkerRunLogger` writing ``events.worker-<pid>.jsonl`` in the
  run directory.  Every event it emits is stamped with ``worker_id`` (the
  worker pid) and the ``task_id`` (task label) it ran under, so the merged
  timeline (see :func:`repro.observability.runs.merge_worker_shards`)
  stays attributable per event.  With ``trace=True`` each worker also
  drains its spans into ``trace.worker-<pid>.jsonl`` after every task.
  Both shard streams follow one protocol — file name, line format, merge
  and live read — owned by :mod:`repro.observability.shards`.
- Task code reaches the active logger through :func:`worker_run_logger`
  and gets ready-made trainer callbacks (event forwarding + health
  watchdogs) from :func:`worker_callbacks` — both no-ops when telemetry
  is inactive, so the serial-vs-parallel determinism guarantees are
  untouched.
- The engine snapshots the worker's metrics registry around each task and
  ships the delta back with the :class:`TaskOutcome`; the parent folds it
  into its own registry, so parallel runs report the same aggregate
  counters as their serial twins.  Span profiles travel the same way,
  independent of a run dir: when the parent's tracer is enabled, each
  outcome carries its task's span-profile delta (see
  :func:`repro.parallel.engine.map_tasks`).

Shard files are opened in append mode and cached per (process, run dir):
one worker process serves many tasks, and pool workers outlive a single
``map_tasks`` call.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from pathlib import Path

from repro.observability.events import EVENT_SHARDS, JsonlSink, RunLogger

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WorkerTelemetry:
    """Picklable recipe for worker-side telemetry.

    ``trace=True`` (the CLI's ``--trace``) additionally enables the span
    tracer inside each worker; drained spans land in a per-pid
    ``trace.worker-<pid>.jsonl`` shard merged at finalization.
    """

    run_dir: str
    trace: bool = False


class WorkerRunLogger(RunLogger):
    """RunLogger stamping ``worker_id`` and the current ``task_id``."""

    def __init__(self, sink, worker_id: int):
        super().__init__(sink)
        self.worker_id = worker_id
        self.task_id: str | None = None

    def emit(self, event_type: str, **fields) -> None:
        fields.setdefault("worker_id", self.worker_id)
        if self.task_id is not None:
            fields.setdefault("task_id", self.task_id)
        super().emit(event_type, **fields)


#: Coordinating-process default, set by the CLI when a run dir is active.
_DEFAULT_TELEMETRY: WorkerTelemetry | None = None

#: The worker-process logger bound to the task currently executing.
_ACTIVE_LOGGER: WorkerRunLogger | None = None

#: Open shard sinks of this process, keyed by shard path.
_SHARD_SINKS: dict[Path, JsonlSink] = {}


def set_default_telemetry(telemetry: WorkerTelemetry | None) -> None:
    """Install the process-wide telemetry default ``map_tasks`` falls back to."""
    global _DEFAULT_TELEMETRY
    _DEFAULT_TELEMETRY = telemetry


def default_telemetry() -> WorkerTelemetry | None:
    return _DEFAULT_TELEMETRY


def bind_task(telemetry: WorkerTelemetry, task_id: str) -> WorkerRunLogger:
    """Bind this process's shard logger to one task (engine-internal).

    Idempotent per process: the shard sink opens once (append mode) and is
    reused for every subsequent task the worker executes.
    """
    global _ACTIVE_LOGGER
    worker_id = os.getpid()
    path = EVENT_SHARDS.shard_path(telemetry.run_dir, worker_id)
    sink = _SHARD_SINKS.get(path)
    if sink is None:
        sink = JsonlSink(path, append=True)
        _SHARD_SINKS[path] = sink
    run_logger = WorkerRunLogger(sink, worker_id)
    run_logger.task_id = task_id
    _ACTIVE_LOGGER = run_logger
    return run_logger


def unbind_task() -> None:
    """Detach the active task logger (the shard sink stays open)."""
    global _ACTIVE_LOGGER
    _ACTIVE_LOGGER = None


def worker_run_logger() -> WorkerRunLogger | None:
    """The logger of the task currently executing in this process, if any."""
    return _ACTIVE_LOGGER


def worker_trace_begin(telemetry: WorkerTelemetry) -> None:
    """Enable span tracing in this worker process (engine-internal).

    Idempotent; re-enabling re-anchors the clock pair.  A forked worker's
    tracer starts disabled and empty (the tracer resets itself at fork), so
    the worker shard only ever holds this process's records.
    """
    if not telemetry.trace:
        return
    from repro.observability.tracing import enable_tracing

    enable_tracing()


def worker_trace_flush(telemetry: WorkerTelemetry) -> None:
    """Drain this process's spans into its ``trace.worker-<pid>.jsonl`` shard."""
    if not telemetry.trace:
        return
    from repro.observability.tracing import TRACE_SHARDS, get_tracer, write_trace_jsonl

    records = get_tracer().drain()
    if records:
        path = TRACE_SHARDS.shard_path(telemetry.run_dir, os.getpid())
        write_trace_jsonl(path, records, append=True)


def worker_callbacks(phase: str = "train") -> list:
    """Trainer callbacks forwarding worker-side training telemetry.

    Returns ``[]`` when no telemetry is bound — the common case for tests
    and plain library use, where training behaviour must stay identical.
    With telemetry active: an
    :class:`~repro.observability.callbacks.EventLogCallback` (worker-
    attributed epoch/checkpoint/λ events) and a non-aborting
    :class:`~repro.observability.health.HealthMonitor` (alert events).
    """
    run_logger = worker_run_logger()
    if run_logger is None:
        return []
    from repro.observability.callbacks import EventLogCallback
    from repro.observability.health import HealthMonitor

    return [
        EventLogCallback(run_logger, phase=phase),
        HealthMonitor(run_logger, phase=phase),
    ]
