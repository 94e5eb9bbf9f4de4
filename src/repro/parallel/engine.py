"""Process-pool experiment execution core.

The paper's evaluation is a large population of *independent* training
runs (dataset × AF × budget grid cells, penalty-sweep points, Monte-Carlo
instances).  :func:`map_tasks` farms such a population across worker
processes with three guarantees:

- **Determinism** — a task is a picklable value object carrying every
  input of its computation (dataset name, activation kind, seeds,
  config); workers rebuild state from the task alone, so results are
  bit-identical whether a task runs in-process (``n_jobs=1``), in any
  worker, or in any order.
- **Ordered collection** — results come back in submission order
  regardless of completion order.
- **Crash isolation** — a task that raises (or whose worker dies)
  produces a structured :class:`TaskError` record in its slot; the
  remaining tasks still run and the pool is never left dead from the
  caller's perspective.  ``on_error="cancel"`` flips this into the
  fail-fast policy: the first failure cancels every not-yet-started
  task, which surface as ``TaskError(kind="cancelled")`` records.

``n_jobs=1`` is a true serial fallback: the same task objects run inline
in the calling process, with no executor and no pickling.

Pool workers share the host's cores: each one caps its BLAS at
``max(1, os.cpu_count() // n_jobs)`` threads (:func:`set_blas_threads`),
so ``n_jobs`` workers never oversubscribe the cores with numpy's default
one-thread-per-core OpenBLAS pools.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Protocol, Sequence

from repro.observability.metrics import get_registry, snapshot_delta
from repro.observability.tracing import (
    current_span_path,
    get_kernel_profiler,
    get_tracer,
    kernel_delta,
    profile_delta,
)
from repro.parallel.telemetry import (
    WorkerTelemetry,
    bind_task,
    default_telemetry,
    unbind_task,
    worker_trace_begin,
    worker_trace_flush,
)

logger = logging.getLogger(__name__)

#: Environment variable overriding the multiprocessing start method.
MP_START_ENV = "REPRO_MP_START"

#: Thread-count variables BLAS/OpenMP libraries read when they load.
_BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _openblas() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """Setter and getter of the thread count of the OpenBLAS numpy loaded.

    ``None`` when numpy's BLAS does not export them.  Looked up through
    numpy's core extension: ``dlsym`` on a library handle also searches the
    libraries it links, so this finds the bundled OpenBLAS whatever its
    mangled file name.
    """
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        setter = lib.scipy_openblas_set_num_threads64_
        getter = lib.scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return setter, getter


def blas_threads() -> int | None:
    """The BLAS thread count in effect in this process (``None``: unreadable)."""
    handles = _openblas()
    return None if handles is None else int(handles[1]())


def set_blas_threads(threads: int) -> None:
    """Cap this process's BLAS threads.

    Calls into the loaded OpenBLAS when it exports its setter (numpy is
    already imported in a forked worker, so its pool size is fixed unless
    changed in place); otherwise sets the thread variables, which reach
    BLAS libraries loaded from here on.
    """
    handles = _openblas()
    if handles is not None:
        handles[0](threads)
        return
    for name in _BLAS_THREAD_ENV:
        os.environ[name] = str(threads)


class ExperimentTask(Protocol):
    """A picklable unit of work: ``run()`` plus a human-readable label."""

    @property
    def label(self) -> str:  # pragma: no cover - protocol
        ...

    def run(self) -> Any:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class TaskError:
    """Structured record of one failed task (picklable, JSON-friendly).

    ``kind`` distinguishes a task that *ran and raised* (``"error"``) from
    one that never ran because the engine's fail-fast policy cancelled the
    remaining queue after an earlier failure (``"cancelled"``).
    """

    label: str
    error_type: str
    message: str
    traceback_text: str = ""
    kind: str = "error"

    def __str__(self) -> str:
        return f"{self.label}: {self.error_type}: {self.message}"


def _cancelled_error(label: str, cause: str) -> TaskError:
    return TaskError(
        label=label,
        error_type="Cancelled",
        message=f"cancelled by on_error='cancel' after failure of {cause}",
        kind="cancelled",
    )


@dataclass(frozen=True)
class TaskOutcome:
    """One slot of :func:`map_tasks`' result list (submission order)."""

    index: int
    label: str
    ok: bool
    value: Any = None
    error: TaskError | None = None
    duration_s: float = 0.0
    worker_pid: int = 0
    #: metrics-registry delta of this task's execution (telemetry runs only)
    metrics: dict | None = None
    #: span-profile delta ``{path: (count, total_s)}`` of this task's
    #: execution (pool runs of a profiling parent only)
    spans: dict | None = None
    #: kernel-recording delta (:func:`~repro.observability.tracing.kernel_delta`)
    #: of this task's execution (pool runs of a tracing parent only)
    kernels: dict | None = None


class TaskFailedError(RuntimeError):
    """Raised by wiring helpers when a mapped population had failures."""

    def __init__(self, errors: Sequence[TaskError]):
        self.errors = list(errors)
        summary = "; ".join(str(e) for e in self.errors[:3])
        more = f" (+{len(self.errors) - 3} more)" if len(self.errors) > 3 else ""
        super().__init__(f"{len(self.errors)} task(s) failed: {summary}{more}")


def _execute(
    index: int,
    task: ExperimentTask,
    telemetry: WorkerTelemetry | None = None,
    profile: bool = False,
) -> TaskOutcome:
    """Run one task, capturing any exception as a :class:`TaskError`.

    Top-level so it is picklable; runs in the worker (or inline for the
    serial fallback).  Only ``Exception`` is caught — ``KeyboardInterrupt``
    and worker death propagate and are handled at collection time.

    With ``telemetry`` set, the task runs under a bound
    :class:`~repro.parallel.telemetry.WorkerRunLogger` (``task_start`` /
    ``task_end`` shard events, worker-attributed training events via
    :func:`~repro.parallel.telemetry.worker_callbacks`) and the outcome
    carries the metrics-registry delta of the execution.  With ``profile``
    set (a pool worker of a profiling parent), the span tracer records the
    task and the outcome carries its span-profile delta; when the kernel
    profiler is on as well (a tracing parent), it also carries the task's
    kernel recordings.
    """
    label = getattr(task, "label", repr(task))
    started = perf_counter()
    tracer = get_tracer()
    spans_before = None
    if profile:
        # A forked worker inherits the names of the spans open where the
        # pool forked; the delta is made relative to them, and the parent
        # re-roots it.
        span_root = current_span_path()
        if not tracer.enabled:
            tracer.enable()
        spans_before = tracer.profile_totals()
    worker_log = None
    metrics_before: dict | None = None
    if telemetry is not None:
        try:
            worker_log = bind_task(telemetry, task_id=label)
            worker_trace_begin(telemetry)
            metrics_before = get_registry().snapshot()
            worker_log.emit("task_start", index=index, label=label)
        except Exception:
            logger.exception("worker telemetry setup failed for %s; continuing without", label)
            worker_log = None

    profiler = get_kernel_profiler()
    kernels_before = profiler.totals() if profile and profiler.enabled else None
    error: TaskError | None = None
    value: Any = None
    try:
        value = task.run()
    except Exception as exc:
        error = TaskError(
            label=label,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_text=traceback.format_exc(),
        )
    finally:
        duration_s = perf_counter() - started
        metrics = None
        if worker_log is not None:
            try:
                fields = dict(
                    index=index,
                    label=label,
                    status="ok" if error is None else "error",
                    duration_s=duration_s,
                )
                if error is not None:
                    fields["error"] = str(error)
                worker_log.emit("task_end", **fields)
                metrics = snapshot_delta(metrics_before, get_registry().snapshot())
                worker_trace_flush(telemetry)
            except Exception:
                logger.exception("worker telemetry teardown failed for %s", label)
            unbind_task()
        spans = None
        if spans_before is not None:
            delta = profile_delta(spans_before, tracer.profile_totals())
            spans = {path[len(span_root):]: entry for path, entry in delta.items()}
            if telemetry is None or not telemetry.trace:
                tracer.drain()  # profile only: no shard exports the records
        kernels = None
        if kernels_before is not None:
            kernels = kernel_delta(kernels_before, profiler.totals()) or None

    return TaskOutcome(
        index=index,
        label=label,
        ok=error is None,
        value=value,
        error=error,
        duration_s=duration_s,
        worker_pid=os.getpid(),
        metrics=metrics,
        spans=spans,
        kernels=kernels,
    )


def _mp_context():
    """The multiprocessing context for worker pools.

    ``fork`` (where available) keeps worker start cheap and lets workers
    inherit the parent's in-memory surrogate cache; ``spawn`` is the
    fallback.  Override with ``REPRO_MP_START=spawn|fork|forkserver``.
    """
    import multiprocessing

    requested = os.environ.get(MP_START_ENV, "")
    methods = multiprocessing.get_all_start_methods()
    if requested:
        if requested not in methods:
            raise ValueError(f"{MP_START_ENV}={requested!r} not in {methods}")
        return multiprocessing.get_context(requested)
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def map_tasks(
    tasks: Sequence[ExperimentTask],
    n_jobs: int = 1,
    progress: Callable[[TaskOutcome, int, int], None] | None = None,
    telemetry: WorkerTelemetry | None = None,
    on_error: str = "continue",
) -> list[TaskOutcome]:
    """Run ``tasks`` across ``n_jobs`` processes; results in task order.

    Parameters
    ----------
    tasks:
        Picklable task objects (``run()`` + ``label``).
    n_jobs:
        ``1`` runs every task inline (serial fallback, no pickling);
        ``> 1`` uses a :class:`ProcessPoolExecutor`.  Values above the
        task count are clamped.
    progress:
        Optional callback ``(outcome, done, total)`` invoked in the
        calling process as each result is collected (collection is in
        submission order, so ``done`` counts monotonically).
    telemetry:
        Optional :class:`~repro.parallel.telemetry.WorkerTelemetry` spec.
        When set (or when the CLI installed a process-wide default via
        ``set_default_telemetry``), every task executes under a worker
        shard logger and ships its metrics delta back with the outcome;
        pool runs fold those deltas into the parent registry so aggregate
        counters match the serial execution.  Independently, when the
        caller's span tracer is enabled (``--profile`` / ``--trace``),
        pool workers record spans too and each outcome carries its task's
        span-profile delta, folded into the caller's profile under the
        spans open around this call; with the kernel profiler on too
        (``--trace``), their kernel recordings are merged into the
        caller's profiler.
    on_error:
        ``"continue"`` (default) drains the whole queue regardless of
        failures — every task gets its real outcome.  ``"cancel"`` is the
        fail-fast policy: after the first failed outcome is collected,
        not-yet-started tasks are cancelled and surface as structured
        ``TaskError(kind="cancelled")`` records (pool tasks already
        running when the failure is collected finish normally — worker
        processes are never killed mid-task).

    Returns
    -------
    list[TaskOutcome]
        One outcome per task, in submission order.  Failed tasks carry a
        :class:`TaskError` instead of a value; a dead worker process
        (e.g. OOM-killed) yields error records for the affected tasks
        rather than an exception.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if on_error not in ("continue", "cancel"):
        raise ValueError("on_error must be 'continue' or 'cancel'")
    if telemetry is None:
        telemetry = default_telemetry()
    total = len(tasks)
    outcomes: list[TaskOutcome] = []
    if total == 0:
        return outcomes
    n_jobs = min(n_jobs, total)

    def _label(index: int) -> str:
        return getattr(tasks[index], "label", repr(tasks[index]))

    if n_jobs == 1:
        # Inline execution mutates the parent registry directly — the
        # outcome's metrics delta is informational, never merged (that
        # would double-count).
        for index, task in enumerate(tasks):
            outcome = _execute(index, task, telemetry)
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome, index + 1, total)
            if on_error == "cancel" and not outcome.ok:
                for rest in range(index + 1, total):
                    cancelled = TaskOutcome(
                        index=rest,
                        label=_label(rest),
                        ok=False,
                        error=_cancelled_error(_label(rest), outcome.label),
                    )
                    outcomes.append(cancelled)
                    if progress is not None:
                        progress(cancelled, rest + 1, total)
                break
        return outcomes

    logger.info("mapping %d tasks over %d worker processes", total, n_jobs)
    registry = get_registry()
    # A profiling parent gets its workers' spans, nested under the spans
    # open around this call — where inline execution would record them.
    profile = get_tracer().enabled
    span_prefix = current_span_path()
    first_failure: str | None = None
    with ProcessPoolExecutor(
        max_workers=n_jobs,
        mp_context=_mp_context(),
        initializer=set_blas_threads,
        initargs=(max(1, (os.cpu_count() or 1) // n_jobs),),
    ) as pool:
        futures = [
            pool.submit(_execute, index, task, telemetry, profile)
            for index, task in enumerate(tasks)
        ]
        for index, future in enumerate(futures):
            if future.cancelled():
                outcome = TaskOutcome(
                    index=index,
                    label=_label(index),
                    ok=False,
                    error=_cancelled_error(_label(index), first_failure or "?"),
                )
            else:
                try:
                    outcome = future.result()
                except Exception as exc:
                    # The worker died before returning (BrokenProcessPool,
                    # unpicklable result, ...).  Record it and keep collecting:
                    # the remaining futures either completed before the break
                    # or resolve to the same structured record.
                    label = _label(index)
                    logger.error("task %s lost its worker: %s", label, exc)
                    outcome = TaskOutcome(
                        index=index,
                        label=label,
                        ok=False,
                        error=TaskError(
                            label=label,
                            error_type=type(exc).__name__,
                            message=str(exc) or "worker process died before returning a result",
                        ),
                    )
            if outcome.metrics:
                registry.merge_snapshot(outcome.metrics)
            if outcome.spans:
                get_tracer().merge_profile(outcome.spans, span_prefix)
            if outcome.kernels:
                get_kernel_profiler().merge(outcome.kernels)
            if (
                on_error == "cancel"
                and not outcome.ok
                and first_failure is None
                and outcome.error is not None
                and outcome.error.kind != "cancelled"
            ):
                first_failure = outcome.label
                cancelled_count = sum(f.cancel() for f in futures[index + 1:])
                if cancelled_count:
                    logger.warning(
                        "cancelled %d queued task(s) after failure of %s",
                        cancelled_count, first_failure,
                    )
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome, index + 1, total)
    return outcomes


def collect_values(outcomes: Sequence[TaskOutcome]) -> list[Any]:
    """Values of an all-successful outcome list; raises on any failure."""
    errors = [o.error for o in outcomes if not o.ok]
    if errors:
        raise TaskFailedError(errors)
    return [o.value for o in outcomes]
