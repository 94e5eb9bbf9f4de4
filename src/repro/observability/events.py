"""Structured run events: schema, validation, sinks, and the RunLogger.

Every training run can emit a JSONL event stream — one JSON object per
line — that captures the *dynamics* the paper's headline claim rests on
(λ convergence, constraint-violation decay, feasible-epoch checkpointing)
without re-running anything.  The stream is the contract between the
trainer/CLI (producers) and ``repro.cli report`` (consumer), so every
event type has an explicit schema and :func:`validate_event` is applied
on both ends.

Event envelope (all types)::

    {"type": "<event type>", "ts": <unix seconds>, ...payload}

Payload schemas are listed in :data:`EVENT_SCHEMAS`; optional fields in
:data:`OPTIONAL_FIELDS`.  The default sink is :class:`NullSink`, so a
:class:`RunLogger` constructed without arguments is free: ``emit`` returns
before building the event dict.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path

from repro.observability.shards import ShardStream, read_jsonl

logger = logging.getLogger(__name__)

#: Required payload fields per event type, as ``name -> allowed types``.
#: ``float`` fields accept ints (JSON does not distinguish); ``bool`` is
#: never accepted where a number is required.
EVENT_SCHEMAS: dict[str, dict[str, tuple[type, ...]]] = {
    # One per process: the command line, its resolved configuration and the
    # source revision, so a run file is self-describing.
    "run_start": {"command": (str,), "config": (dict,), "git_sha": (str,)},
    # One per training epoch (the core trace).
    "epoch": {
        "epoch": (int,),
        "loss": (float, int),
        "power_w": (float, int),
        "val_accuracy": (float, int),
        "feasible": (bool,),
        "lr": (float, int),
        "phase": (str,),
    },
    # Plateau scheduler halved the learning rate this epoch.
    "lr_drop": {"epoch": (int,), "from_lr": (float, int), "to_lr": (float, int), "phase": (str,)},
    # The dual variable moved (post-update value, aligned with the power
    # that drove the update — see repro.training.trainer).
    "multiplier_update": {"epoch": (int,), "multiplier": (float, int), "phase": (str,)},
    # A new best feasible validation checkpoint was taken.
    "checkpoint": {
        "epoch": (int,),
        "val_accuracy": (float, int),
        "power_w": (float, int),
        "phase": (str,),
    },
    # The run transitioned from feasible to violating the budget.
    "infeasible": {"epoch": (int,), "power_w": (float, int), "phase": (str,)},
    # One mapped experiment task completed (grid cell, sweep point,
    # Monte-Carlo chunk) — emitted by the parallel engine's progress
    # reporter in the coordinating process.
    "task": {
        "index": (int,),
        "label": (str,),
        "status": (str,),
        "duration_s": (float, int),
        "done": (int,),
        "total": (int,),
    },
    # Span-profiler breakdown (emitted once, when --profile is active).
    "profile": {"spans": (list,)},
    # Emitted *inside* a worker process when one mapped task begins /
    # finishes; lands in that worker's shard file and is merged into the
    # parent timeline at run finalization (see repro.observability.runs).
    "task_start": {"index": (int,), "label": (str,)},
    "task_end": {
        "index": (int,),
        "label": (str,),
        "status": (str,),
        "duration_s": (float, int),
    },
    # A training-health watchdog fired (see repro.observability.health):
    # NaN/inf loss, λ divergence, violation stall, budget overshoot.
    "alert": {
        "kind": (str,),
        "epoch": (int,),
        "message": (str,),
        "phase": (str,),
    },
    # One evaluated stacked chunk of Monte-Carlo instances (repro.evaluation
    # .montecarlo): how many printed instances it held and its wall time.
    # Emitted in process and by pool workers alike, so a yield run's
    # throughput shows up in the warehouse/dashboard like training epochs.
    "montecarlo": {
        "instances": (int,),
        "duration_s": (float, int),
    },
    # One trained fleet chunk (repro.training.fleet): how many real
    # instances it trained, how many epochs the fleet loop executed, and
    # its wall time.  The sweep's counterpart of "montecarlo".
    "fleet": {
        "instances": (int,),
        "epoch": (int,),
        "duration_s": (float, int),
    },
    # One HTTP request handled by the serving layer (repro.serving.server):
    # endpoint path, response status, number of feature rows processed and
    # wall time.  Offline `repro predict` emits the same shape with
    # endpoint "predict-cli".
    "serve": {
        "endpoint": (str,),
        "status": (int,),
        "rows": (int,),
        "duration_s": (float, int),
    },
    # One phase of the compile-to-hardware backend (repro.compile): place,
    # netlist, bundle, verify.  ``tiles`` is the placed tile count and
    # ``status`` is "ok" / "failed" — a failed verify phase means the
    # written bundle does not reproduce the layered model.
    "compile": {
        "phase": (str,),
        "tiles": (int,),
        "duration_s": (float, int),
        "status": (str,),
    },
    # One per process; carries the exit code and a metrics snapshot.
    "run_end": {"exit_code": (int,), "duration_s": (float, int)},
}

#: Optional payload fields per event type.
OPTIONAL_FIELDS: dict[str, dict[str, tuple[type, ...]]] = {
    "epoch": {
        "multiplier": (float, int, type(None)),
        "step_time_s": (float, int),
        "eval_time_s": (float, int),
    },
    "task": {"error": (str,), "worker_pid": (int,)},
    "task_end": {"error": (str,)},
    # ``vectorized`` is no longer emitted (every chunk is stacked); run logs
    # written while a serial path existed carry it and must stay valid.
    "montecarlo": {"chunk_index": (int,), "start": (int,), "vectorized": (bool,)},
    "fleet": {"chunk_index": (int,)},
    "serve": {"error": (str,), "batch_rows": (int,)},
    "compile": {"layers": (int,), "vectors": (int,), "out": (str,), "error": (str,)},
    "alert": {"value": (float, int)},
    "run_end": {"metrics": (dict,)},
}

#: Optional fields accepted on *every* event type.  Events produced inside
#: a pool worker are tagged with the emitting process and the mapped task,
#: so a merged multi-worker timeline stays attributable per event.
GLOBAL_OPTIONAL_FIELDS: dict[str, tuple[type, ...]] = {
    "worker_id": (int,),
    "task_id": (str,),
}

EVENT_TYPES = tuple(EVENT_SCHEMAS)


def _check_type(value, allowed: tuple[type, ...]) -> bool:
    # bool subclasses int: only accept it where bool is explicitly allowed.
    if isinstance(value, bool):
        return bool in allowed
    return isinstance(value, allowed)


def validate_event(event: dict) -> None:
    """Raise ``ValueError`` unless ``event`` matches its type's schema."""
    if not isinstance(event, dict):
        raise ValueError(f"event must be a dict, got {type(event).__name__}")
    event_type = event.get("type")
    if event_type not in EVENT_SCHEMAS:
        raise ValueError(f"unknown event type {event_type!r} (known: {', '.join(EVENT_TYPES)})")
    if not _check_type(event.get("ts"), (float, int)):
        raise ValueError(f"{event_type}: missing or non-numeric 'ts'")
    schema = EVENT_SCHEMAS[event_type]
    optional = OPTIONAL_FIELDS.get(event_type, {})
    for field, allowed in schema.items():
        if field not in event:
            raise ValueError(f"{event_type}: missing required field {field!r}")
        if not _check_type(event[field], allowed):
            raise ValueError(
                f"{event_type}.{field}: expected {'/'.join(t.__name__ for t in allowed)}, "
                f"got {type(event[field]).__name__}"
            )
    for field, value in event.items():
        if field in ("type", "ts") or field in schema:
            continue
        allowed = optional.get(field) or GLOBAL_OPTIONAL_FIELDS.get(field)
        if allowed is None:
            raise ValueError(f"{event_type}: unexpected field {field!r}")
        if not _check_type(value, allowed):
            raise ValueError(
                f"{event_type}.{field}: expected "
                f"{'/'.join(t.__name__ for t in allowed)}, got {type(value).__name__}"
            )


# ----------------------------------------------------------------------
class NullSink:
    """Discard every event (the zero-cost default)."""

    def write(self, event: dict) -> None:
        pass

    def close(self) -> None:
        pass


class JsonlSink:
    """Write events to a JSONL file, one object per line, flushed per event.

    ``append=True`` reopens an existing file without truncating — the mode
    worker shard files use, since one worker process serves many tasks.
    """

    def __init__(self, path: str | Path, append: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a" if append else "w", encoding="utf-8")

    def write(self, event: dict) -> None:
        json.dump(event, self._fh, separators=(",", ":"), sort_keys=False)
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class TeeSink:
    """Fan one event stream out to several sinks (e.g. --log-json + run dir)."""

    def __init__(self, *sinks):
        self.sinks = list(sinks)

    def write(self, event: dict) -> None:
        for sink in self.sinks:
            sink.write(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class ListSink:
    """Collect events in memory (tests, report post-processing)."""

    def __init__(self):
        self.events: list[dict] = []

    def write(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class RunLogger:
    """Validated event emitter over a sink.

    With the default :class:`NullSink` every ``emit`` is a single branch;
    callers that build expensive payloads should guard on :attr:`enabled`.
    """

    def __init__(self, sink=None):
        self.sink = sink if sink is not None else NullSink()

    @property
    def enabled(self) -> bool:
        return not isinstance(self.sink, NullSink)

    def emit(self, event_type: str, **fields) -> None:
        """Validate and write one event (timestamped now)."""
        if not self.enabled:
            return
        event = {"type": event_type, "ts": time.time(), **fields}
        validate_event(event)
        self.sink.write(event)

    def close(self) -> None:
        self.sink.close()


def read_events(
    path: str | Path, strict: bool = True, tolerate_truncated_tail: bool = False
) -> list[dict]:
    """Parse and validate a JSONL run file.

    Raises ``ValueError`` naming the first offending line, so a truncated
    or hand-edited file fails loudly instead of rendering garbage.

    With ``strict=False``, events whose ``type`` is *unknown* are kept
    unvalidated instead of rejected — the forward-compatibility mode the
    report renderer uses, so a file written by a newer schema still
    renders everything this version understands.  Known event types are
    validated either way, and malformed JSON always fails.

    With ``tolerate_truncated_tail=True``, a *final* line that fails to
    parse or validate is silently dropped instead of raising — the mode
    for reading an **in-flight** run whose writer may be mid-line (live
    tailing, warehouse indexing).  Only the last line gets this grace:
    corruption anywhere else still fails loudly.
    """

    def check(event) -> None:
        if strict or not isinstance(event, dict) or event.get("type") in EVENT_SCHEMAS:
            validate_event(event)

    return read_jsonl(path, check, tolerate_truncated_tail)


#: Worker shards of the run timeline (``events.worker-<pid>.jsonl``); an
#: event's identity is its whole canonical line.
EVENT_SHARDS = ShardStream(
    "events", lambda path: read_events(path, strict=False, tolerate_truncated_tail=True)
)
