"""Run registries for the registry and dashboard tests.

``write_run`` lays out one synthetic run directory by hand (manifest and
epoch timeline, optionally corrupt, mid-write or sharded).
``record_registry`` records a mixed registry through the real
:meth:`RunContext.create` / :meth:`RunContext.finalize`, so its finalized
manifests carry the event ``summary`` the manifest index reads.
``oracle_summaries`` is the reference the manifest index is held to: the
events-based :func:`summarize_run` of every run, filtered and ordered by
hand.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.observability.runs import RunContext, list_runs, summarize_run

NOW = time.time()
DAY = 86400.0


def write_run(
    base: Path,
    name: str,
    status: str = "completed",
    command: str = "train",
    acc: float = 0.9,
    power: float = 1e-3,
    epochs: int = 3,
    age_days: float = 10.0,
    seed: int = 0,
    dataset: str = "iris",
    corrupt_manifest: bool = False,
    truncated_tail: bool = False,
    alerts: int = 0,
    worker_shard: bool = False,
) -> Path:
    """One synthetic run directory, manifest + epoch timeline."""
    directory = base / name
    directory.mkdir(parents=True)
    created = NOW - age_days * DAY
    manifest = {
        "schema_version": 1,
        "run_id": name,
        "command": command,
        "config": {"dataset": dataset, "seed": seed},
        "seed": seed,
        "git_sha": "test",
        "created_ts": created,
        "created": "2026-08-01T00:00:00+00:00",
        "status": status,
        "exit_code": 0 if status == "completed" else 1,
        "duration_s": 2.5,
    }
    (directory / "manifest.json").write_text(
        "{broken" if corrupt_manifest else json.dumps(manifest)
    )
    with open(directory / "events.jsonl", "w", encoding="utf-8") as fh:
        for epoch in range(epochs):
            fh.write(json.dumps({
                "type": "epoch", "ts": created + epoch, "epoch": epoch,
                "loss": 1.0 / (epoch + 1), "power_w": power,
                "val_accuracy": acc, "feasible": True, "lr": 0.1,
                "phase": "constrained", "multiplier": 0.05 * epoch,
            }) + "\n")
        for k in range(alerts):
            fh.write(json.dumps({
                "type": "alert", "ts": created + 50 + k, "kind": "lambda_divergence",
                "epoch": epochs - 1, "message": "x", "phase": "constrained",
            }) + "\n")
        if truncated_tail:
            fh.write('{"type": "epoch", "ts": 1.0, "epo')  # writer died mid-line
    if worker_shard:
        with open(directory / "events.worker-77.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "type": "task_end", "ts": created + 1.5, "index": 0, "label": "cell",
                "status": "ok", "duration_s": 0.4, "worker_id": 77,
            }) + "\n")
    return directory


def _record(
    base: Path,
    name: str,
    command: str = "train",
    dataset: str = "iris",
    seed: int = 0,
    accuracies: tuple[float, ...] = (0.6, 0.7, 0.8),
    power: float = 1e-3,
    alerts: tuple[str, ...] = (),
    worker_id: int | None = None,
    exit_code: int | None = 0,
    duration_s: float = 2.5,
) -> RunContext:
    """Record one run; ``exit_code=None`` leaves it in flight."""
    ctx = RunContext.create(
        base, command, {"dataset": dataset, "seed": seed},
        argv=[command, dataset], git_sha="test", run_id=name,
    )
    for epoch, acc in enumerate(accuracies):
        ctx.logger.emit(
            "epoch", epoch=epoch, loss=1.0 / (epoch + 1), power_w=power * (1 + 0.1 * epoch),
            val_accuracy=acc, feasible=epoch > 0, lr=0.1, multiplier=0.05 * epoch,
            phase="constrained",
        )
    for kind in alerts:
        ctx.logger.emit("alert", kind=kind, epoch=len(accuracies) - 1, message="x",
                        phase="constrained")
    if worker_id is not None:
        (ctx.directory / f"events.worker-{worker_id}.jsonl").write_text(json.dumps({
            "type": "task_end", "ts": time.time(), "index": 0, "label": "cell",
            "status": "ok", "duration_s": 0.4, "worker_id": worker_id,
        }) + "\n")
    if exit_code is not None:
        ctx.finalize(exit_code=exit_code, duration_s=duration_s)
    return ctx


def record_registry(base: Path, finalized_only: bool = False) -> Path:
    """A mixed registry recorded through ``RunContext``.

    Statuses completed and failed, alerts, a merged worker shard, ties on
    accuracy and duration, and a run without epochs.  Unless
    ``finalized_only``, it also holds a corrupt manifest, a manifest
    written before finalize stamped a ``summary``, and an in-flight run
    whose last line is mid-write.
    """
    _record(base, "a-train-old", seed=1, accuracies=(0.5, 0.7, 0.8), power=2e-3)
    _record(base, "b-sweep", command="sweep", accuracies=(0.6, 0.7), power=3e-3,
            alerts=("lambda_divergence", "budget_overshoot", "lambda_divergence"),
            exit_code=1, duration_s=4.0)
    _record(base, "c-train", dataset="seeds", seed=2, accuracies=(0.7, 0.9, 0.95),
            power=1.5e-3, worker_id=77)
    _record(base, "g-grid", command="grid", accuracies=(0.8,), power=1e-3, duration_s=4.0)
    _record(base, "h-empty", command="montecarlo", accuracies=(), duration_s=0.5)
    if finalized_only:
        return base
    corrupt = _record(base, "d-corrupt", seed=3)
    (corrupt.directory / "manifest.json").write_text("{broken")
    old = _record(base, "f-presummary", dataset="seeds", accuracies=(0.9, 0.8))
    manifest = json.loads((old.directory / "manifest.json").read_text())
    del manifest["summary"]
    (old.directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    inflight = _record(base, "e-inflight", accuracies=(0.4, 0.5), worker_id=78,
                       exit_code=None)
    inflight.logger.close()
    with open(inflight.events_path, "a", encoding="utf-8") as fh:
        fh.write('{"type": "epoch", "ts": 1.0, "epo')  # writer mid-line
    return base


def oracle_summaries(
    base: Path,
    command: str | None = None,
    status: str | None = None,
    dataset: str | None = None,
    seed: int | None = None,
    sort: str = "created",
    descending: bool = False,
    limit: int | None = None,
) -> list:
    """:func:`summarize_run` of every run, filtered and ordered by hand.

    Runs without the sort value come first ascending; ties order by
    directory name; ``descending`` reverses the whole list.
    """
    summaries = [
        s for s in (summarize_run(path) for path in list_runs(base))
        if (command is None or s.command == command)
        and (status is None or s.status == status)
        and (dataset is None or str(s.config.get("dataset")) == str(dataset))
        and (seed is None or s.config.get("seed") == seed)
    ]
    if sort != "created":
        field = {
            "accuracy": lambda s: s.final_accuracy,
            "power": lambda s: s.final_power_w,
            "duration": lambda s: s.duration_s,
            "epochs": lambda s: s.n_epochs,
            "alerts": lambda s: s.n_alerts,
        }[sort]
        missing = sorted((s for s in summaries if field(s) is None), key=lambda s: s.path.name)
        present = sorted((s for s in summaries if field(s) is not None),
                         key=lambda s: (field(s), s.path.name))
        summaries = missing + present
    if descending:
        summaries = summaries[::-1]
    return summaries if limit is None else summaries[:limit]


def spy_event_reads(monkeypatch) -> list[Path]:
    """Record every events-stream file the event reader parses from now on."""
    from repro.observability import events

    seen: list[Path] = []
    real = events.read_jsonl

    def spy(path, *args, **kwargs):
        seen.append(Path(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(events, "read_jsonl", spy)
    return seen
