"""Run registry: self-describing per-run directories + cross-run comparison.

The paper's headline claim — augmented-Lagrangian training hits a hard
power budget in *one* run where the penalty baseline needs a sweep of
hundreds — is a claim about **populations of runs**, so every run must
leave a comparable artifact.  A run directory is that artifact::

    runs/<run_id>/
        manifest.json           resolved config, seeds, git SHA, argv,
                                python/platform/env fingerprint, status
        events.jsonl            merged, time-ordered, schema-valid timeline
        events.worker-<pid>.jsonl raw per-worker shards (kept for forensics)
        metrics.prom            Prometheus textfile of the final registry
        profile.json            span profile: calls and time per span path (--profile)
        trace.jsonl             merged span records (--trace)
        trace.worker-<pid>.jsonl raw per-worker span shards (--trace)
        kernels.json            per-kernel replay attribution (--trace)
        diagnostic.json         health-watchdog dump (aborted runs only)

:class:`RunContext` owns the directory lifecycle: :meth:`RunContext.create`
writes the manifest and opens the event sink; :meth:`RunContext.finalize`
folds the worker shards written by :mod:`repro.parallel.telemetry` into
``events.jsonl`` and ``trace.jsonl`` (one protocol for both streams,
:mod:`repro.observability.shards`), snapshots metrics, and stamps the
outcome back into the manifest.  The module-level functions (:func:`list_runs`,
:func:`resolve_run`, :func:`summarize_run`, the ``render_*`` helpers) are
the read side backing ``repro runs list|show|compare``.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import secrets
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro.observability.events import (
    EVENT_SHARDS,
    JsonlSink,
    RunLogger,
    read_events,
    validate_event,
)
from repro.observability.metrics import get_registry
from repro.observability.tracing import KERNELS_NAME, TRACE_NAME, TRACE_SHARDS

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"
METRICS_NAME = "metrics.prom"
PROFILE_NAME = "profile.json"
DIAGNOSTIC_NAME = "diagnostic.json"

#: Manifest layout version (bump on incompatible changes).
MANIFEST_SCHEMA_VERSION = 1

#: Environment variables worth fingerprinting (behaviour-changing knobs).
_FINGERPRINT_ENV_PREFIXES = ("REPRO_",)
_FINGERPRINT_ENV_NAMES = (
    "PYTHONHASHSEED",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def environment_fingerprint() -> dict:
    """Where and how this process runs — enough to explain a drifted rerun."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unknown"
    env = {
        name: value
        for name, value in sorted(os.environ.items())
        if name in _FINGERPRINT_ENV_NAMES
        or any(name.startswith(p) for p in _FINGERPRINT_ENV_PREFIXES)
    }
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "pid": os.getpid(),
        "env": env,
    }


def new_run_id(command: str) -> str:
    """Sortable, collision-safe id: UTC timestamp + command + random tail."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{command}-{secrets.token_hex(3)}"


@dataclass
class RunContext:
    """One live run directory: manifest + event sink + finalization."""

    directory: Path
    manifest: dict
    logger: RunLogger = field(default_factory=RunLogger)

    @classmethod
    def create(
        cls,
        base_dir: str | Path,
        command: str,
        config: dict,
        argv: list[str] | None = None,
        git_sha: str = "unknown",
        run_id: str | None = None,
    ) -> "RunContext":
        """Make ``base_dir/<run_id>/``, write the manifest, open the sink."""
        run_id = run_id or new_run_id(command)
        directory = Path(base_dir) / run_id
        directory.mkdir(parents=True, exist_ok=False)
        manifest = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "run_id": run_id,
            "command": command,
            "argv": list(argv) if argv is not None else list(sys.argv[1:]),
            "config": dict(config),
            "seed": config.get("seed"),
            "git_sha": git_sha,
            "created_ts": time.time(),
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "status": "running",
            "environment": environment_fingerprint(),
        }
        _write_json(directory / MANIFEST_NAME, manifest)
        context = cls(directory=directory, manifest=manifest)
        context.logger = RunLogger(JsonlSink(directory / EVENTS_NAME))
        logger.info("run %s recording into %s", run_id, directory)
        return context

    @property
    def run_id(self) -> str:
        return self.manifest["run_id"]

    @property
    def events_path(self) -> Path:
        return self.directory / EVENTS_NAME

    def write_diagnostic(self, diagnostic: dict) -> Path:
        """Persist a health-watchdog dump next to the timeline."""
        path = self.directory / DIAGNOSTIC_NAME
        _write_json(path, diagnostic)
        return path

    def finalize(
        self, exit_code: int, duration_s: float, profile: list[dict] | None = None
    ) -> None:
        """Close out the run: merge shards, snapshot metrics, stamp outcome.

        Call *after* the run's last event was emitted and the logger
        closed — the shard merge rewrites ``events.jsonl`` in place.  A
        non-empty ``profile`` (:meth:`Tracer.profile
        <repro.observability.tracing.Tracer.profile>`) is written to
        ``profile.json``.
        """
        self.logger.close()
        merged = EVENT_SHARDS.merge(self.directory)
        TRACE_SHARDS.merge(self.directory)
        (self.directory / METRICS_NAME).write_text(
            get_registry().render_prometheus(), encoding="utf-8"
        )
        if profile:
            _write_json(self.directory / PROFILE_NAME, profile)
        self.manifest.update(
            status="completed" if exit_code == 0 else "failed",
            exit_code=exit_code,
            duration_s=duration_s,
            finished=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            worker_events_merged=merged,
        )
        trace_path = self.directory / TRACE_NAME
        if trace_path.exists():
            with open(trace_path, "r", encoding="utf-8") as fh:
                self.manifest["trace_events"] = sum(1 for line in fh if line.strip())
        _write_json(self.directory / MANIFEST_NAME, self.manifest)


def _write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(path.suffix + f".tmp-{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Worker-shard merging
# ----------------------------------------------------------------------
def merge_worker_shards(run_dir: str | Path) -> int:
    """Fold the run's worker shards into ``events.jsonl`` and ``trace.jsonl``.

    Both streams go through :meth:`ShardStream.merge
    <repro.observability.shards.ShardStream.merge>`: shard records are
    de-duplicated (events by their canonical line, spans by span id),
    stably time-ordered with the main file's and rewritten atomically, so
    re-merging a finalized run changes neither file.  Shard files stay on
    disk as the per-worker forensic record.  Returns the number of records
    newly merged across both streams (0 without shards).
    """
    return EVENT_SHARDS.merge(run_dir) + TRACE_SHARDS.merge(run_dir)


# ----------------------------------------------------------------------
# Registry read side
# ----------------------------------------------------------------------
def is_run_dir(path: str | Path) -> bool:
    return (Path(path) / MANIFEST_NAME).is_file()


def load_manifest(run_dir: str | Path) -> dict:
    with open(Path(run_dir) / MANIFEST_NAME, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_manifest_safe(run_dir: str | Path) -> dict:
    """Best-effort manifest load: ``{}`` when missing, corrupt, or mid-write.

    The tolerant read side (``runs list``, warehouse indexing, the
    dashboard) must survive a manifest another process is rewriting —
    one unreadable run must never take down a listing of thousands.
    """
    try:
        return load_manifest(run_dir)
    except (OSError, json.JSONDecodeError) as exc:
        logger.warning("unreadable manifest in %s: %s", run_dir, exc)
        return {}


def list_runs(base_dir: str | Path) -> list[Path]:
    """Run directories under ``base_dir``, oldest first."""
    base = Path(base_dir)
    if not base.is_dir():
        return []
    runs = [p for p in base.iterdir() if p.is_dir() and is_run_dir(p)]

    def created(path: Path) -> tuple:
        try:
            return (load_manifest(path).get("created_ts") or 0.0, path.name)
        except (OSError, json.JSONDecodeError):
            return (0.0, path.name)

    return sorted(runs, key=created)


def resolve_run(ref: str, base_dir: str | Path = "runs") -> Path:
    """Turn a user-supplied run reference into a run directory.

    Accepts a path to a run directory, a run id under ``base_dir``, a
    unique run-id prefix, or the alias ``latest`` (the most recent run by
    manifest ``created_ts``).  Raises ``ValueError`` with the candidates
    when the reference is missing or ambiguous.
    """
    as_path = Path(ref)
    if is_run_dir(as_path):
        return as_path
    base = Path(base_dir)
    if is_run_dir(base / ref):
        return base / ref
    if ref == "latest":
        runs = list_runs(base)
        if not runs:
            raise ValueError(f"no runs under {base} to resolve 'latest'")
        return runs[-1]
    matches = [p for p in list_runs(base) if p.name.startswith(ref)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ValueError(f"no run {ref!r} under {base} (and {ref!r} is not a run directory)")
    names = ", ".join(p.name for p in matches)
    raise ValueError(f"run reference {ref!r} is ambiguous: {names}")


@dataclass(frozen=True)
class RunSummary:
    """Comparable digest of one recorded run."""

    path: Path
    run_id: str
    command: str
    status: str
    created: str
    exit_code: int | None
    duration_s: float | None
    config: dict
    #: final epoch of the trajectory phase: val_accuracy / power_w / multiplier
    final: dict
    n_epochs: int
    n_alerts: int
    alert_kinds: tuple[str, ...]
    worker_ids: tuple[int, ...]

    @property
    def final_accuracy(self) -> float | None:
        return self.final.get("val_accuracy")

    @property
    def final_power_w(self) -> float | None:
        return self.final.get("power_w")

    @property
    def final_multiplier(self) -> float | None:
        return self.final.get("multiplier")


def _trajectory(events: list[dict]) -> list[dict]:
    """Epoch events of the λ-bearing (else longest) phase, epoch-ordered."""
    from repro.observability.report import _pick_trajectory_phase

    by_phase: dict[str, list[dict]] = {}
    for e in events:
        if e.get("type") == "epoch":
            by_phase.setdefault(e.get("phase", ""), []).append(e)
    phase = _pick_trajectory_phase(by_phase)
    if phase is None:
        return []
    return sorted(by_phase[phase], key=lambda e: e["epoch"])


def read_run_events(run_dir: str | Path) -> list[dict]:
    """Tolerant timeline read of one run: ``[]`` when missing or unreadable.

    Unknown event types are kept (forward compatibility) and a truncated
    or mid-write final line is dropped, so in-flight runs always read.
    """
    events_path = Path(run_dir) / EVENTS_NAME
    if not events_path.exists():
        return []
    try:
        return read_events(events_path, strict=False, tolerate_truncated_tail=True)
    except (OSError, ValueError) as exc:
        logger.warning("unreadable timeline in %s: %s", run_dir, exc)
        return []


def summarize_run(run_dir: str | Path, events: list[dict] | None = None) -> RunSummary:
    """Manifest + event digest of one run (tolerant of unfinished runs).

    Pass ``events`` to reuse an already-loaded timeline (the warehouse
    indexer reads each file once and feeds both this digest and the
    trajectory table from it).
    """
    run_dir = Path(run_dir)
    manifest = load_manifest_safe(run_dir)
    if events is None:
        events = read_run_events(run_dir)
    trajectory = _trajectory(events)
    final: dict = {}
    if trajectory:
        last = trajectory[-1]
        final = {
            "val_accuracy": last.get("val_accuracy"),
            "power_w": last.get("power_w"),
            "multiplier": last.get("multiplier"),
            "feasible": last.get("feasible"),
        }
    alerts = [e for e in events if e.get("type") == "alert"]
    worker_ids = sorted({e["worker_id"] for e in events if "worker_id" in e})
    return RunSummary(
        path=run_dir,
        run_id=manifest.get("run_id", run_dir.name),
        command=manifest.get("command", "?"),
        status=manifest.get("status", "unknown"),
        created=manifest.get("created", ""),
        exit_code=manifest.get("exit_code"),
        duration_s=manifest.get("duration_s"),
        config=manifest.get("config", {}),
        final=final,
        n_epochs=len(trajectory),
        n_alerts=len(alerts),
        alert_kinds=tuple(sorted({a.get("kind", "?") for a in alerts})),
        worker_ids=tuple(worker_ids),
    )


def _in_flight(run_dir: Path) -> bool:
    """Whether the run is still running — its shards may hold unmerged records."""
    return load_manifest_safe(run_dir).get("status", "running") == "running"


def tail_run_events(run_dir: str | Path, offset: int = 0) -> tuple[list[dict], int]:
    """Follow an active run's merged timeline: events after ``offset``.

    Reads ``events.jsonl`` and, while the run is in flight, its live
    ``events.worker-*.jsonl`` shards (tolerating a mid-write final line in
    each), merged in memory the way :func:`merge_worker_shards` will at
    finalization, and returns ``(events[offset:], new_offset)``.  The
    caller polls with the returned offset; because finished files only
    ever grow, the merged prefix below ``offset`` is stable for a
    completed stream and at worst transiently reordered while workers
    interleave.
    """
    run_dir = Path(run_dir)
    merged = EVENT_SHARDS.read_live(run_dir, include_shards=_in_flight(run_dir))
    offset = max(0, int(offset))
    return merged[offset:], len(merged)


def load_run_trace(run_dir: str | Path) -> list[dict]:
    """A run's merged trace records, time-ordered, de-duplicated by span id.

    Mirrors :func:`tail_run_events`: a finalized run's ``trace.jsonl`` is
    authoritative; while the run is still in flight, live
    ``trace.worker-*.jsonl`` shards are merged in on the fly.  Returns
    ``[]`` when the run was not traced.
    """
    run_dir = Path(run_dir)
    return TRACE_SHARDS.read_live(run_dir, include_shards=_in_flight(run_dir))


def load_run_kernels(run_dir: str | Path) -> dict | None:
    """The parsed ``kernels.json`` of a traced run, or None."""
    path = Path(run_dir) / KERNELS_NAME
    if not path.is_file():
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        logger.warning("unreadable kernel table %s: %s", path, exc)
        return None


# ----------------------------------------------------------------------
# Retention GC (the `repro runs prune` CLI)
# ----------------------------------------------------------------------
_AGE_UNITS = {"d": 86400.0, "h": 3600.0, "m": 60.0, "s": 1.0}


def parse_age(text: str) -> float:
    """Parse a retention age like ``30d``, ``12h``, ``45m``, ``90s`` to seconds.

    A bare number is taken as seconds.  Raises ``ValueError`` on anything
    else so a typo never silently selects the wrong runs.
    """
    text = text.strip()
    unit = 1.0
    number = text
    if text and text[-1].lower() in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1].lower()]
        number = text[:-1]
    try:
        value = float(number)
    except ValueError:
        raise ValueError(f"invalid age {text!r} (expected e.g. 30d, 12h, 45m, 90s)") from None
    if value < 0:
        raise ValueError(f"age must be non-negative, got {text!r}")
    return value * unit


@dataclass(frozen=True)
class PruneDecision:
    """One run's fate under a :func:`prune_runs` policy."""

    path: Path
    run_id: str
    status: str
    age_s: float
    prune: bool
    reason: str


def prune_runs(
    base_dir: str | Path,
    keep_last: int | None = None,
    older_than_s: float | None = None,
    status: str | None = None,
    dry_run: bool = True,
    now: float | None = None,
    entries: list[tuple[Path, dict]] | None = None,
) -> list[PruneDecision]:
    """Retention GC over the run registry; returns one decision per run.

    Selection: a run is pruned when it matches *every* given criterion —
    older than ``older_than_s`` seconds, manifest status equal to
    ``status``, and not among the ``keep_last`` most recent runs.  Two
    safety rails apply regardless: at least one criterion must be given
    (pruning *everything* must be spelled out as ``keep_last=0``), and
    in-flight runs (status ``running``) are only ever pruned when
    ``status="running"`` is explicit.  With ``dry_run`` (the default)
    nothing is deleted — callers render the decisions and re-invoke with
    ``dry_run=False`` after confirmation.

    ``entries`` — optional pre-loaded ``(path, manifest)`` pairs, oldest
    first — lets the warehouse feed the decision pass from its index
    instead of re-reading every manifest; the policy is identical.
    """
    if keep_last is None and older_than_s is None and status is None:
        raise ValueError(
            "refusing to prune without a criterion: pass keep_last, older_than_s, or status"
        )
    if keep_last is not None and keep_last < 0:
        raise ValueError("keep_last must be >= 0")
    now = time.time() if now is None else now
    if entries is None:
        entries = [(path, load_manifest_safe(path)) for path in list_runs(base_dir)]
    runs = [path for path, _ in entries]  # oldest first
    protected_recent = set()
    if keep_last is not None and keep_last > 0:
        protected_recent = {p.name for p in runs[-keep_last:]}
    decisions: list[PruneDecision] = []
    for path, manifest in entries:
        run_status = manifest.get("status", "unknown")
        age_s = max(0.0, now - float(manifest.get("created_ts") or 0.0))
        prune, reason = True, "matched criteria"
        if path.name in protected_recent:
            prune, reason = False, f"among {keep_last} most recent"
        elif older_than_s is not None and age_s < older_than_s:
            prune, reason = False, "newer than --older-than"
        elif status is not None and run_status != status:
            prune, reason = False, f"status {run_status!r} != {status!r}"
        elif run_status == "running" and status != "running":
            prune, reason = False, "in flight (status 'running')"
        decisions.append(
            PruneDecision(
                path=path,
                run_id=manifest.get("run_id", path.name),
                status=run_status,
                age_s=age_s,
                prune=prune,
                reason=reason,
            )
        )
    if not dry_run:
        import shutil

        for decision in decisions:
            if decision.prune:
                shutil.rmtree(decision.path)
                logger.info("pruned run %s (%s)", decision.run_id, decision.reason)
    return decisions


def _fmt_age(age_s: float) -> str:
    for suffix, seconds in (("d", 86400.0), ("h", 3600.0), ("m", 60.0)):
        if age_s >= seconds:
            return f"{age_s / seconds:.1f}{suffix}"
    return f"{age_s:.0f}s"


def render_prune_report(decisions: list[PruneDecision], dry_run: bool) -> str:
    """Human-readable table of a prune pass (what went / what stayed)."""
    if not decisions:
        return "(no runs)"
    verb = "would prune" if dry_run else "pruned"
    rows = [("action", "run_id", "status", "age", "reason")]
    for d in decisions:
        rows.append(
            (verb if d.prune else "keep", d.run_id, d.status, _fmt_age(d.age_s), d.reason)
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    table = "\n".join(
        "  ".join(f"{cell:<{w}}" for cell, w in zip(row, widths)).rstrip() for row in rows
    )
    n_pruned = sum(1 for d in decisions if d.prune)
    summary = f"{verb}: {n_pruned} of {len(decisions)} run(s)"
    if dry_run and n_pruned:
        summary += "  (dry run; pass --yes to delete)"
    return table + "\n" + summary


def validate_run_events(run_dir: str | Path) -> int:
    """Strictly re-validate every line of a run's merged timeline.

    The CI schema-drift gate: replays ``events.jsonl`` through
    :func:`validate_event` and returns the event count (raises on the
    first violation).
    """
    events = read_events(Path(run_dir) / EVENTS_NAME, strict=True)
    for event in events:
        validate_event(event)
    return len(events)


# ----------------------------------------------------------------------
# Rendering (the `repro runs` CLI)
# ----------------------------------------------------------------------
def _fmt_opt(value, spec: str = "g") -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return format(value, spec)


def render_runs_table(
    base_dir: str | Path, summaries: list[RunSummary] | None = None
) -> str:
    """One line per recorded run under ``base_dir``.

    With ``summaries`` the caller supplies the (possibly warehouse-backed,
    filtered) digests and no directory scan happens; without it every run
    directory is summarized from disk.  Rendering is identical either way.
    """
    if summaries is None:
        summaries = [summarize_run(path) for path in list_runs(base_dir)]
    if not summaries:
        return f"(no runs under {base_dir})"
    rows = [("run_id", "command", "status", "epochs", "val_acc", "power_mW", "alerts", "workers")]
    for s in summaries:
        power = None if s.final_power_w is None else s.final_power_w * 1e3
        rows.append(
            (
                s.run_id,
                s.command,
                s.status,
                str(s.n_epochs),
                _fmt_opt(s.final_accuracy, ".3f"),
                _fmt_opt(power, ".4f"),
                str(s.n_alerts),
                str(len(s.worker_ids)),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(f"{cell:<{w}}" for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def render_run_show(run_dir: str | Path) -> str:
    """Manifest header + the standard event report of one run."""
    from repro.observability.report import render_report

    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    env = manifest.get("environment", {})
    lines = [
        f"run      : {manifest.get('run_id', run_dir.name)}",
        f"directory: {run_dir}",
        f"status   : {manifest.get('status', 'unknown')}"
        + (f" (exit {manifest['exit_code']})" if manifest.get("exit_code") is not None else ""),
        f"created  : {manifest.get('created', '?')}",
        f"git sha  : {manifest.get('git_sha', '?')}",
        f"python   : {env.get('python', '?')} on {env.get('platform', '?')}",
        f"argv     : {' '.join(manifest.get('argv', [])) or '(none)'}",
    ]
    diagnostic = run_dir / DIAGNOSTIC_NAME
    if diagnostic.exists():
        lines.append(f"diagnostic: {diagnostic} (run aborted by a health watchdog)")
    events_path = run_dir / EVENTS_NAME
    if events_path.exists():
        events = read_events(events_path, strict=False)
        return "\n".join(lines) + "\n\n" + render_report(
            events, source=str(events_path), kernels=load_run_kernels(run_dir)
        )
    return "\n".join(lines) + "\n\n(no events recorded)"


def _config_diff(a: dict, b: dict) -> list[str]:
    lines = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, "<unset>"), b.get(key, "<unset>")
        if va != vb:
            lines.append(f"  {key}: {va} -> {vb}")
    return lines


def render_run_compare(dir_a: str | Path, dir_b: str | Path) -> str:
    """Side-by-side diff of two runs: config, outcome, trajectories."""
    from repro.observability.report import sparkline

    a, b = summarize_run(dir_a), summarize_run(dir_b)
    title = f"run compare — {a.run_id} vs {b.run_id}"
    sections = [title + "\n" + "=" * len(title)]

    diff = _config_diff(a.config, b.config)
    sections.append("config diff:\n" + ("\n".join(diff) if diff else "  (identical)"))

    def row(name, va, vb, spec="g"):
        return (name, _fmt_opt(va, spec), _fmt_opt(vb, spec))

    power_a = None if a.final_power_w is None else a.final_power_w * 1e3
    power_b = None if b.final_power_w is None else b.final_power_w * 1e3
    rows = [
        ("", a.run_id, b.run_id),
        row("status", a.status, b.status, "s"),
        row("epochs", a.n_epochs, b.n_epochs, "d"),
        row("final val_acc", a.final_accuracy, b.final_accuracy, ".3f"),
        row("final power_mW", power_a, power_b, ".4f"),
        row("final λ", a.final_multiplier, b.final_multiplier, ".4f"),
        row("feasible", a.final.get("feasible"), b.final.get("feasible")),
        row("alerts", a.n_alerts, b.n_alerts, "d"),
        row("workers", len(a.worker_ids), len(b.worker_ids), "d"),
        row("duration_s", a.duration_s, b.duration_s, ".1f"),
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    sections.append(
        "\n".join(
            f"{r[0]:<{widths[0]}}  {r[1]:>{widths[1]}}  {r[2]:>{widths[2]}}" for r in rows
        )
    )

    spark_lines = []
    for summary in (a, b):
        trajectory = _trajectory(read_run_events(summary.path))
        if not trajectory:
            spark_lines.append(f"{summary.run_id}: (no epoch events)")
            continue
        accuracy = [e["val_accuracy"] for e in trajectory]
        power = [e["power_w"] for e in trajectory]
        multipliers = [e["multiplier"] for e in trajectory if e.get("multiplier") is not None]
        spark_lines.append(f"{summary.run_id}:")
        spark_lines.append(f"  val_acc  {sparkline(accuracy)}")
        spark_lines.append(f"  power_W  {sparkline(power)}")
        if multipliers:
            spark_lines.append(f"  λ        {sparkline(multipliers)}")
    sections.append("\n".join(spark_lines))
    return "\n\n".join(sections)
