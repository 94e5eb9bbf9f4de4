"""Render an ASCII summary of a recorded run (``repro.cli report``).

Consumes the JSONL event stream written by ``--log-json`` (or the merged
``events.jsonl`` of a run directory) and rebuilds the run's story without
re-running anything: configuration and revision from ``run_start``, the
accuracy/power/λ trajectory from the ``epoch`` events, the transition log
(LR drops, checkpoints, feasibility losses), health-watchdog alerts,
per-worker event attribution for parallel runs, the span-profile
breakdown when ``--profile`` was active, and the final metrics snapshot
from ``run_end``.

Files are read in forward-compatible mode: event types this version does
not know are carried through untouched and counted, never fatal.
"""

from __future__ import annotations

import logging
from datetime import datetime, timezone
from pathlib import Path

from repro.observability.events import read_events
from repro.observability.metrics import quantiles_from_snapshot
from repro.observability.tracing import render_kernel_report, render_profile

logger = logging.getLogger(__name__)

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], width: int = 60) -> str:
    """Downsample ``values`` to ``width`` columns of unicode bars."""
    if not values:
        return ""
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    low, high = min(values), max(values)
    if high - low < 1e-30:
        return _SPARK_CHARS[0] * len(values)
    scale = (len(_SPARK_CHARS) - 1) / (high - low)
    return "".join(_SPARK_CHARS[int((v - low) * scale)] for v in values)


def _fmt_ts(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S UTC")


def _pick_trajectory_phase(epochs_by_phase: dict[str, list[dict]]) -> str | None:
    """Prefer the phase that carries λ data, else the longest one."""
    if not epochs_by_phase:
        return None
    with_multiplier = [
        phase
        for phase, events in epochs_by_phase.items()
        if any(e.get("multiplier") is not None for e in events)
    ]
    candidates = with_multiplier or list(epochs_by_phase)
    return max(candidates, key=lambda phase: len(epochs_by_phase[phase]))


def _trajectory_rows(events: list[dict], max_rows: int = 12) -> list[tuple[str, ...]]:
    if len(events) > max_rows:
        stride = (len(events) - 1) / (max_rows - 1)
        picked = sorted({int(round(i * stride)) for i in range(max_rows)})
        events = [events[i] for i in picked]
    rows = []
    for e in events:
        multiplier = e.get("multiplier")
        rows.append(
            (
                str(e["epoch"]),
                f"{e['val_accuracy']:.3f}",
                f"{e['power_w'] * 1e3:.4f}",
                "-" if multiplier is None else f"{multiplier:.4f}",
                "yes" if e["feasible"] else "NO",
            )
        )
    return rows


def _table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    all_rows = [header, *rows]
    widths = [max(len(r[i]) for r in all_rows) for i in range(len(header))]
    lines = []
    for r in all_rows:
        lines.append("  ".join(f"{cell:>{w}}" for cell, w in zip(r, widths)))
    return "\n".join(lines)


def render_report(events: list[dict], source: str = "", kernels: dict | None = None) -> str:
    """Human-readable multi-section summary of one recorded run.

    ``kernels`` is the parsed ``kernels.json`` of a traced run, when the
    run directory contains one — it adds a "hottest kernels" section.
    """
    sections: list[str] = []
    title = f"run report{f' — {source}' if source else ''}"
    sections.append(title + "\n" + "=" * len(title))

    run_start = next((e for e in events if e.get("type") == "run_start"), None)
    if run_start is not None:
        config = run_start["config"]
        config_line = "  ".join(f"{k}={v}" for k, v in sorted(config.items()))
        sections.append(
            f"command : {run_start['command']}\n"
            f"git sha : {run_start['git_sha']}\n"
            f"started : {_fmt_ts(run_start['ts'])}\n"
            f"config  : {config_line if config_line else '(empty)'}"
        )

    epochs_by_phase: dict[str, list[dict]] = {}
    for e in events:
        if e.get("type") == "epoch":
            epochs_by_phase.setdefault(e["phase"], []).append(e)
    phase = _pick_trajectory_phase(epochs_by_phase)
    if phase is not None:
        trajectory = sorted(epochs_by_phase[phase], key=lambda e: e["epoch"])
        accuracy = [e["val_accuracy"] for e in trajectory]
        power = [e["power_w"] for e in trajectory]
        multipliers = [e["multiplier"] for e in trajectory if e.get("multiplier") is not None]
        lines = [
            f"trajectory — phase '{phase}', {len(trajectory)} epochs",
            f"  val_acc  [{min(accuracy):.3f}..{max(accuracy):.3f}]  {sparkline(accuracy)}",
            f"  power_mW [{min(power) * 1e3:.4f}..{max(power) * 1e3:.4f}]  {sparkline(power)}",
        ]
        if multipliers:
            lines.append(
                f"  λ        [{min(multipliers):.4f}..{max(multipliers):.4f}]  {sparkline(multipliers)}"
            )
        lines.append("")
        lines.append(
            _table(("epoch", "val_acc", "power_mW", "λ", "feasible"), _trajectory_rows(trajectory))
        )
        sections.append("\n".join(lines))

    tasks = [e for e in events if e.get("type") == "task"]
    if tasks:
        failed = [e for e in tasks if e["status"] != "ok"]
        total_s = sum(e["duration_s"] for e in tasks)
        lines = [
            f"tasks: {len(tasks) - len(failed)} ok, {len(failed)} failed "
            f"({total_s:.1f} task-seconds)"
        ]
        for e in failed[:5]:
            lines.append(f"  FAILED {e['label']}: {e.get('error', '(no detail)')}")
        if len(failed) > 5:
            lines.append(f"  ... and {len(failed) - 5} more failures")
        sections.append("\n".join(lines))

    fleet = [e for e in events if e.get("type") == "fleet"]
    if fleet:
        instances = sum(e["instances"] for e in fleet)
        total_s = sum(e["duration_s"] for e in fleet)
        rate = instances / total_s if total_s > 0 else 0.0
        lines = [
            f"fleet chunks: {len(fleet)}  "
            f"({instances} instances, {total_s:.1f} s, {rate:.1f} instances/s)"
        ]
        for e in fleet[:8]:
            chunk = e.get("chunk_index")
            label = "chunk" if chunk is None else f"chunk {chunk}"
            lines.append(
                f"  {label}: {e['instances']} instances × {e['epoch']} epochs "
                f"in {e['duration_s']:.2f} s"
            )
        if len(fleet) > 8:
            lines.append(f"  ... and {len(fleet) - 8} more chunks")
        sections.append("\n".join(lines))

    alerts = [e for e in events if e.get("type") == "alert"]
    if alerts:
        lines = [f"health alerts: {len(alerts)}"]
        for e in alerts:
            value = f" (value {e['value']:g})" if "value" in e else ""
            lines.append(
                f"  [{e['kind']}] epoch {e['epoch']} phase '{e['phase']}': {e['message']}{value}"
            )
        sections.append("\n".join(lines))

    worker_counts: dict[int, int] = {}
    worker_tasks: dict[int, set] = {}
    for e in events:
        worker = e.get("worker_id")
        if worker is None:
            continue
        worker_counts[worker] = worker_counts.get(worker, 0) + 1
        if "task_id" in e:
            worker_tasks.setdefault(worker, set()).add(e["task_id"])
    if worker_counts:
        lines = [f"workers: {len(worker_counts)} (merged timeline)"]
        for worker in sorted(worker_counts):
            n_tasks = len(worker_tasks.get(worker, ()))
            lines.append(
                f"  worker {worker}: {worker_counts[worker]} events, {n_tasks} task(s)"
            )
        sections.append("\n".join(lines))

    transitions = [
        e for e in events
        if e.get("type") in ("lr_drop", "multiplier_update", "checkpoint", "infeasible")
    ]
    if transitions:
        counts: dict[str, int] = {}
        for e in transitions:
            counts[e["type"]] = counts.get(e["type"], 0) + 1
        summary = "  ".join(f"{name}×{n}" for name, n in sorted(counts.items()))
        checkpoints = [e for e in transitions if e["type"] == "checkpoint"]
        lines = [f"transitions: {summary}"]
        if checkpoints:
            last = checkpoints[-1]
            lines.append(
                f"last checkpoint: epoch {last['epoch']}  val {last['val_accuracy']:.3f}  "
                f"P {last['power_w'] * 1e3:.4f} mW"
            )
        sections.append("\n".join(lines))

    profile = next((e for e in reversed(events) if e.get("type") == "profile"), None)
    if profile is not None and profile["spans"]:
        table = render_profile(profile["spans"]).splitlines()
        sections.append("\n".join(["span breakdown", *("  " + line for line in table)]))

    if kernels is not None:
        sections.append(render_kernel_report(kernels, top=10))

    run_end = next((e for e in reversed(events) if e.get("type") == "run_end"), None)
    if run_end is not None:
        lines = [
            f"finished: exit code {run_end['exit_code']}  duration {run_end['duration_s']:.2f} s"
        ]
        metrics = run_end.get("metrics")
        if metrics:
            for name in sorted(metrics):
                value = metrics[name]
                if isinstance(value, dict):
                    row = f"  {name}: n={value.get('count')} sum={value.get('sum'):.4g}"
                    quantiles = quantiles_from_snapshot(value)
                    if quantiles and value.get("count"):
                        row += "".join(
                            f" p{int(q * 100)}={est:.4g}" for q, est in sorted(quantiles.items())
                        )
                    lines.append(row)
                else:
                    lines.append(f"  {name}: {value:g}")
        sections.append("\n".join(lines))

    from repro.observability.events import EVENT_SCHEMAS

    unknown: dict[str, int] = {}
    for e in events:
        name = e.get("type")
        if name not in EVENT_SCHEMAS:
            unknown[str(name)] = unknown.get(str(name), 0) + 1
    if unknown:
        summary = "  ".join(f"{name}×{n}" for name, n in sorted(unknown.items()))
        sections.append(f"unknown event types (ignored): {summary}")

    if len(sections) == 1:
        sections.append("(no events)")
    return "\n\n".join(sections)


def render_report_file(path: str | Path) -> str:
    """Load, validate and render a JSONL run file.

    Unknown event types are tolerated (forward compatibility); known
    types are still validated and malformed JSON still fails.
    """
    events = read_events(path, strict=False)
    return render_report(events, source=str(path))
