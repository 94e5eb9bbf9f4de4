"""Structured observability: run events, metrics, spans, callbacks, run dirs.

The instrumentation substrate for the whole reproduction (and the perf
work the ROADMAP plans on top of it):

- :mod:`repro.observability.events` — JSONL structured event log
  (:class:`RunLogger`, schema validation, sinks);
- :mod:`repro.observability.metrics` — process-wide counters / gauges /
  histograms with a Prometheus textfile exporter;
- :mod:`repro.observability.tracing` — :class:`trace_span`, the one span
  primitive (``with trace_span("pnc.forward_with_power", "circuits"):``),
  off by default; enabled, it feeds the span trace (``--trace``) and the
  per-path span profile (``--profile``), plus per-kernel replay timing;
- :mod:`repro.observability.callbacks` — the trainer's per-epoch
  :class:`EpochEvent` dispatch and the stock callbacks;
- :mod:`repro.observability.logconf` — ``configure_logging(verbosity)``,
  the single opt-in entry point for the module-logger tree;
- :mod:`repro.observability.report` — ASCII rendering of a recorded run
  (``repro.cli report RUN.jsonl``);
- :mod:`repro.observability.runs` — run directories (``--run-dir``) and
  the registry read side, indexed by the manifests; pool workers write
  ``events``/``trace`` shards that one protocol,
  :mod:`repro.observability.shards`, names, reads and merges;
- :mod:`repro.observability.dashboard` — the read-only web view of the
  registry, a lazy import because it pulls in the HTTP stack.

Everything is zero-cost by default: the null event sink drops events
before they are built, disabled spans are one attribute check, and
metric increments are plain float adds.
"""

from repro.observability.events import (
    EVENT_SCHEMAS,
    EVENT_TYPES,
    GLOBAL_OPTIONAL_FIELDS,
    JsonlSink,
    ListSink,
    NullSink,
    RunLogger,
    TeeSink,
    read_events,
    validate_event,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    snapshot_delta,
)
from repro.observability.callbacks import (
    EpochEvent,
    EventLogCallback,
    ProgressReporter,
    TraceRecorder,
    TrainerCallback,
)
from repro.observability.health import (
    CRITICAL_KINDS,
    HealthConfig,
    HealthMonitor,
    TrainingHealthError,
)
from repro.observability.logconf import configure_logging, verbosity_to_level
from repro.observability.report import render_report, render_report_file, sparkline
from repro.observability.runs import (
    PruneDecision,
    RunContext,
    RunSummary,
    accuracy_power_front,
    config_fingerprint,
    list_runs,
    load_summaries,
    load_manifest,
    load_manifest_safe,
    load_run_kernels,
    load_run_trace,
    merge_worker_shards,
    parse_age,
    prune_runs,
    read_run_events,
    render_prune_report,
    render_run_compare,
    render_run_show,
    render_runs_table,
    resolve_run,
    summarize_run,
    summary_to_dict,
    tail_run_events,
    validate_run_events,
)
from repro.observability.tracing import (
    KernelProfiler,
    Tracer,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    get_kernel_profiler,
    get_tracer,
    hot_kernels,
    new_trace_id,
    read_trace,
    render_kernel_diff,
    render_kernel_report,
    render_profile,
    trace_context,
    trace_span,
    write_chrome_trace,
    write_kernels_json,
    write_trace_jsonl,
)

__all__ = [
    "EVENT_SCHEMAS",
    "EVENT_TYPES",
    "GLOBAL_OPTIONAL_FIELDS",
    "JsonlSink",
    "ListSink",
    "NullSink",
    "RunLogger",
    "TeeSink",
    "read_events",
    "validate_event",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "EpochEvent",
    "EventLogCallback",
    "ProgressReporter",
    "TraceRecorder",
    "TrainerCallback",
    "configure_logging",
    "verbosity_to_level",
    "render_report",
    "render_report_file",
    "sparkline",
    "accuracy_power_front",
    "config_fingerprint",
    "load_summaries",
    "summary_to_dict",
    "KernelProfiler",
    "Tracer",
    "chrome_trace",
    "disable_tracing",
    "enable_tracing",
    "get_kernel_profiler",
    "get_tracer",
    "hot_kernels",
    "load_run_kernels",
    "load_run_trace",
    "merge_worker_shards",
    "new_trace_id",
    "read_trace",
    "render_kernel_diff",
    "render_kernel_report",
    "render_profile",
    "trace_context",
    "trace_span",
    "write_chrome_trace",
    "write_kernels_json",
    "write_trace_jsonl",
]
