"""Tests for the observability layer: events, metrics, spans, report, logging.

These are pure-python tests (no network training) pinning the contracts
the CLI and trainer rely on: event schema round-trips, metric aggregation
and Prometheus rendering, span nesting with monotone timings, and the
report renderer's tolerance of partial runs.
"""

from __future__ import annotations

import json
import logging
import time

import pytest

from repro.observability import (
    EVENT_SCHEMAS,
    JsonlSink,
    ListSink,
    MetricsRegistry,
    NullSink,
    RunLogger,
    TeeSink,
    configure_logging,
    disable_tracing,
    get_kernel_profiler,
    get_registry,
    get_tracer,
    read_events,
    render_profile,
    render_report,
    render_report_file,
    snapshot_delta,
    trace_span,
    validate_event,
    verbosity_to_level,
)


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts with a disabled, empty tracer and span profile."""
    disable_tracing()
    get_tracer().reset()
    yield
    disable_tracing()
    get_tracer().reset()


# ----------------------------------------------------------------------
class TestEventSchema:
    def _sample(self, event_type: str) -> dict:
        samples = {
            "run_start": {"command": "train", "config": {"dataset": "iris"}, "git_sha": "abc1234"},
            "epoch": {
                "epoch": 3, "loss": 0.9, "power_w": 1.2e-4, "val_accuracy": 0.8,
                "feasible": True, "lr": 0.05, "phase": "constrained", "multiplier": 0.1,
            },
            "lr_drop": {"epoch": 10, "from_lr": 0.1, "to_lr": 0.05, "phase": "constrained"},
            "multiplier_update": {"epoch": 10, "multiplier": 0.25, "phase": "constrained"},
            "checkpoint": {"epoch": 7, "val_accuracy": 0.9, "power_w": 1e-4, "phase": "constrained"},
            "infeasible": {"epoch": 4, "power_w": 2e-4, "phase": "constrained"},
            "profile": {"spans": [{"path": "a/b", "count": 1, "total_s": 0.1}]},
            "task": {
                "index": 0, "label": "budget:iris:p-tanh:0.4", "status": "ok",
                "duration_s": 2.5, "done": 1, "total": 4,
            },
            "task_start": {"index": 0, "label": "budget:iris:p-tanh:0.4"},
            "task_end": {
                "index": 0, "label": "budget:iris:p-tanh:0.4", "status": "ok",
                "duration_s": 2.5,
            },
            "alert": {
                "kind": "non_finite", "epoch": 12, "message": "loss went NaN",
                "phase": "constrained", "value": 1.5,
            },
            "serve": {
                "endpoint": "predict", "status": 200, "rows": 8, "duration_s": 0.004,
            },
            "montecarlo": {
                "instances": 64, "duration_s": 0.12, "chunk_index": 2, "start": 128,
            },
            "fleet": {
                "instances": 16, "epoch": 7, "duration_s": 0.8, "chunk_index": 1,
            },
            "compile": {
                "phase": "verify", "tiles": 8, "duration_s": 0.4, "status": "ok",
                "layers": 2, "vectors": 4, "out": "compiled",
            },
            "run_end": {"exit_code": 0, "duration_s": 1.5, "metrics": {"forward_calls": 3.0}},
        }
        return {"type": event_type, "ts": time.time(), **samples[event_type]}

    def test_every_event_type_has_a_valid_sample(self):
        for event_type in EVENT_SCHEMAS:
            validate_event(self._sample(event_type))

    def test_montecarlo_events_of_old_logs_still_validate(self):
        """Logs written while a serial Monte-Carlo path existed tag each
        chunk with ``vectorized``; they stay valid, while the field is no
        longer required of new events."""
        new = self._sample("montecarlo")
        assert "vectorized" not in new
        validate_event(new)
        for flag in (True, False):
            validate_event({**new, "vectorized": flag})
        with pytest.raises(ValueError, match="montecarlo.vectorized"):
            validate_event({**new, "vectorized": "yes"})

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            validate_event({"type": "nope", "ts": 0.0})

    def test_missing_required_field_rejected(self):
        event = self._sample("lr_drop")
        del event["to_lr"]
        with pytest.raises(ValueError, match="to_lr"):
            validate_event(event)

    def test_unexpected_field_rejected(self):
        event = self._sample("checkpoint")
        event["surprise"] = 1
        with pytest.raises(ValueError, match="unexpected field"):
            validate_event(event)

    def test_bool_not_accepted_as_number(self):
        event = self._sample("epoch")
        event["loss"] = True
        with pytest.raises(ValueError, match="epoch.loss"):
            validate_event(event)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        logger = RunLogger(JsonlSink(path))
        assert logger.enabled
        for event_type in EVENT_SCHEMAS:
            sample = self._sample(event_type)
            payload = {k: v for k, v in sample.items() if k not in ("type", "ts")}
            logger.emit(event_type, **payload)
        logger.close()
        events = read_events(path)
        assert [e["type"] for e in events] == list(EVENT_SCHEMAS)
        # Every line is independently parseable JSON.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_read_events_rejects_garbage_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "run_end", "ts": 1.0, "exit_code": 0, "duration_s": 1.0}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            read_events(path)

    def test_null_sink_emit_is_noop_even_with_invalid_payload(self):
        logger = RunLogger()
        assert isinstance(logger.sink, NullSink)
        assert not logger.enabled
        logger.emit("epoch")  # would fail validation if it were validated

    def test_list_sink_collects(self):
        sink = ListSink()
        logger = RunLogger(sink)
        logger.emit("run_start", command="x", config={}, git_sha="dead")
        assert len(sink.events) == 1
        assert sink.events[0]["type"] == "run_start"
        assert sink.events[0]["ts"] > 0

    def test_worker_attribution_accepted_on_every_type(self):
        for event_type in EVENT_SCHEMAS:
            event = self._sample(event_type)
            event["worker_id"] = 4211
            event["task_id"] = "budget:iris:p-tanh:0.4"
            validate_event(event)

    def test_worker_attribution_type_checked(self):
        event = self._sample("epoch")
        event["worker_id"] = "not-an-int"
        with pytest.raises(ValueError, match="worker_id"):
            validate_event(event)

    def test_tee_sink_fans_out(self, tmp_path):
        list_sink = ListSink()
        path = tmp_path / "tee.jsonl"
        logger = RunLogger(TeeSink(JsonlSink(path), list_sink))
        assert logger.enabled
        logger.emit("run_start", command="x", config={}, git_sha="dead")
        logger.close()
        assert len(list_sink.events) == 1
        assert [e["type"] for e in read_events(path)] == ["run_start"]

    def test_jsonl_append_mode_preserves_lines(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        for _ in range(2):
            sink = JsonlSink(path, append=True)
            sink.write({"type": "task_start", "ts": 1.0, "index": 0, "label": "x"})
            sink.close()
        assert len(read_events(path)) == 2

    def test_read_events_strict_false_keeps_unknown_types(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"type": "run_end", "ts": 1.0, "exit_code": 0, "duration_s": 1.0}\n'
            '{"type": "from_the_future", "ts": 2.0, "payload": 42}\n'
        )
        with pytest.raises(ValueError, match="unknown event type"):
            read_events(path)
        events = read_events(path, strict=False)
        assert [e["type"] for e in events] == ["run_end", "from_the_future"]

    def test_read_events_strict_false_still_validates_known_types(self, tmp_path):
        path = tmp_path / "bad-known.jsonl"
        path.write_text('{"type": "run_end", "ts": 1.0}\n')  # missing fields
        with pytest.raises(ValueError, match="missing required field"):
            read_events(path, strict=False)


# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram_aggregation(self):
        reg = MetricsRegistry()
        c = reg.counter("calls", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = reg.gauge("violation")
        g.set(0.25)
        g.inc(0.25)
        assert g.value == 0.5
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)
        assert h.bucket_counts == [1, 2]  # cumulative: le=0.1 → 1, le=1.0 → 2
        assert h.mean == pytest.approx(5.55 / 3)

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_reset_preserves_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc(5)
        reg.reset()
        assert c.value == 0.0
        assert reg.counter("x") is c

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("calls", "number of calls").inc(3)
        reg.gauge("level").set(0.5)
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        text = reg.render_prometheus()
        assert "# HELP repro_calls number of calls" in text
        assert "# TYPE repro_calls counter" in text
        assert "repro_calls 3" in text
        assert "# TYPE repro_level gauge" in text
        assert "repro_level 0.5" in text
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_count 1" in text
        assert text.endswith("\n")

    def test_global_registry_has_builtin_metrics(self):
        # Importing the instrumented modules registers the paper-relevant
        # metrics on the shared registry.
        import repro.circuits.pnc  # noqa: F401
        import repro.power.surrogate  # noqa: F401
        import repro.spice.solver  # noqa: F401
        import repro.training.trainer  # noqa: F401

        names = {m.name for m in get_registry()}
        assert {"forward_calls", "surrogate_evals", "spice_iterations",
                "power_violation", "epoch_time_s"} <= names

    def test_prometheus_exposition_lint(self):
        """The global registry's textfile passes exposition-format checks:
        every family has HELP/TYPE lines, names are ``[a-z_]+`` with the
        ``repro_`` prefix, and no family is emitted twice."""
        import re

        import repro.circuits.pnc  # noqa: F401 — register built-in metrics
        import repro.training.trainer  # noqa: F401

        text = get_registry().render_prometheus()
        assert text.endswith("\n")
        families: list[str] = []
        typed: set[str] = set()
        for line in text.splitlines():
            assert line.strip() == line and line  # no padding, no blank lines
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert kind in ("counter", "gauge", "histogram")
                families.append(name)
                typed.add(name)
            elif line.startswith("# HELP "):
                name = line.split(" ", 3)[2]
                assert re.fullmatch(r"repro_[a-z_]+", name), name
            else:
                sample_name = re.match(r"[a-zA-Z_][a-zA-Z0-9_]*", line).group(0)
                base = re.sub(r"_(bucket|sum|count)$", "", sample_name)
                assert re.fullmatch(r"repro_[a-z_]+", base), line
                assert sample_name in typed or base in typed, line
        assert len(families) == len(set(families)), "duplicate metric family"
        assert len(families) >= 5

    def test_snapshot_carries_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        snap = reg.snapshot()
        assert snap["lat"] == {
            "count": 2,
            "sum": pytest.approx(0.55),
            "buckets": [1, 2],
            "le": [0.1, 1.0],
        }

    def test_snapshot_delta_only_reports_change(self):
        reg = MetricsRegistry()
        c = reg.counter("calls")
        h = reg.histogram("lat", buckets=(1.0,))
        reg.counter("idle")
        c.inc(2)
        before = reg.snapshot()
        c.inc(3)
        h.observe(0.5)
        delta = snapshot_delta(before, reg.snapshot())
        assert delta == {
            "calls": 3.0,
            "lat": {"count": 1, "sum": 0.5, "buckets": [1], "le": [1.0]},
        }
        assert snapshot_delta(before, before) == {}

    def test_merge_snapshot_adds_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.counter("calls").inc(10)
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        reg.gauge("level").set(1.0)
        reg.merge_snapshot({
            "calls": 5.0,
            "lat": {"count": 2, "sum": 1.5, "buckets": [0, 2]},
            "level": 99.0,                 # gauge: skipped
            "worker_only": 7.0,            # becomes a counter
            "mystery_hist": {"count": 1, "sum": 1.0, "buckets": [1]},  # dropped
        })
        assert reg.counter("calls").value == 15.0
        assert h.count == 3 and h.sum == pytest.approx(1.55)
        assert h.bucket_counts == [1, 3]
        assert reg.gauge("level").value == 1.0
        assert reg.counter("worker_only").value == 7.0
        assert reg.get("mystery_hist") is None

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("b").observe(1.0)
        json.dumps(reg.snapshot())

    def test_summary_renders_all(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(2)
        text = reg.render_summary()
        assert "a" in text and "counter" in text
        assert "b" in text and "gauge" in text


# ----------------------------------------------------------------------
class TestSpans:
    """The span profile the tracer aggregates (the ``--profile`` tree)."""

    def _stats(self) -> dict:
        return {tuple(item["path"].split("/")): item for item in get_tracer().profile()}

    def test_disabled_spans_record_nothing(self):
        with trace_span("outer"):
            pass
        assert get_tracer().profile() == []

    def test_nesting_and_monotonicity(self):
        get_tracer().enable()
        for _ in range(3):
            with trace_span("outer"):
                with trace_span("inner"):
                    time.sleep(0.001)
        stats = self._stats()
        outer = stats[("outer",)]
        inner = stats[("outer", "inner")]
        assert outer["count"] == 3 and inner["count"] == 3
        # A child's total can never exceed its parent's.
        assert 0 < inner["total_s"] <= outer["total_s"]
        assert inner["total_s"] / inner["count"] <= outer["total_s"] / outer["count"]

    def test_tree_order_is_depth_first(self):
        get_tracer().enable()
        with trace_span("a"):
            with trace_span("b"):
                pass
        with trace_span("c"):
            pass
        paths = [item["path"] for item in get_tracer().profile()]
        assert paths.index("a") < paths.index("a/b")
        assert "c" in paths

    def test_recursion_nests_paths(self):
        get_tracer().enable()

        def fib(n):
            with trace_span("fib"):
                return n if n < 2 else fib(n - 1) + fib(n - 2)

        assert fib(5) == 5
        stats = self._stats()
        assert stats[("fib",)]["count"] == 1  # one top-level call
        assert ("fib", "fib") in stats  # recursive frames nest under it

    def test_as_json_round_trips_through_profile_event(self):
        get_tracer().enable()
        with trace_span("x"):
            pass
        payload = get_tracer().profile()
        sink = ListSink()
        RunLogger(sink).emit("profile", spans=payload)
        assert sink.events[0]["spans"][0]["path"] == "x"

    def test_render_tree_mentions_disabled_state(self):
        assert "no spans" in render_profile(get_tracer().profile())

    def test_profile_stays_exact_when_ring_wraps(self):
        tracer = get_tracer()
        default_capacity = tracer.capacity
        tracer.enable(capacity=8)
        try:
            for _ in range(50):
                with trace_span("outer"):
                    with trace_span("inner"):
                        pass
            assert tracer.dropped > 0
            stats = self._stats()
            assert stats[("outer",)]["count"] == 50
            assert stats[("outer", "inner")]["count"] == 50
        finally:
            tracer.capacity = default_capacity  # later enable() calls size the ring by it

    def test_cli_profile_without_trace(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        kernel_enables = []
        monkeypatch.setattr(
            type(get_kernel_profiler()), "enable", lambda self: kernel_enables.append(self)
        )
        assert main(["train", "iris", "--epochs", "2", "--seed", "0",
                     "--profile", "--run-dir", str(tmp_path)]) in (0, 1)
        out = capsys.readouterr().out
        assert "span breakdown:" in out and "trainer.epoch" in out
        (run,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        profile = json.loads((run / "profile.json").read_text())
        assert {"trainer.epoch", "trainer.epoch/trainer.step"} <= {i["path"] for i in profile}
        assert not (run / "trace.jsonl").exists()
        assert not (run / "kernels.json").exists()
        assert kernel_enables == [] and not get_kernel_profiler().enabled


# ----------------------------------------------------------------------
class TestLogConfiguration:
    def test_verbosity_mapping(self):
        assert verbosity_to_level(-5) == logging.ERROR
        assert verbosity_to_level(-1) == logging.ERROR
        assert verbosity_to_level(0) == logging.WARNING
        assert verbosity_to_level(1) == logging.INFO
        assert verbosity_to_level(2) == logging.DEBUG
        assert verbosity_to_level(9) == logging.DEBUG

    def test_configure_is_idempotent(self):
        root = logging.getLogger("repro")
        before = list(root.handlers)
        configure_logging(1)
        configure_logging(2)
        ours = [h for h in root.handlers if h not in before]
        assert len(ours) == 1
        assert root.level == logging.DEBUG
        for handler in ours:
            root.removeHandler(handler)
        root.setLevel(logging.NOTSET)


# ----------------------------------------------------------------------
class TestReport:
    def _events(self) -> list[dict]:
        events = [
            {"type": "run_start", "ts": 100.0, "command": "train",
             "config": {"dataset": "iris", "epochs": 3}, "git_sha": "abc1234"},
        ]
        for epoch in range(3):
            events.append({
                "type": "epoch", "ts": 101.0 + epoch, "epoch": epoch, "loss": 1.0 - 0.1 * epoch,
                "power_w": 2e-4 - 1e-5 * epoch, "val_accuracy": 0.5 + 0.1 * epoch,
                "feasible": epoch > 0, "lr": 0.1, "multiplier": 0.05 * epoch,
                "phase": "constrained",
            })
        events.append({"type": "checkpoint", "ts": 103.5, "epoch": 2, "val_accuracy": 0.7,
                       "power_w": 1.8e-4, "phase": "constrained"})
        events.append({"type": "run_end", "ts": 104.0, "exit_code": 0, "duration_s": 4.0,
                       "metrics": {"forward_calls": 6.0}})
        return events

    def test_render_contains_trajectory_and_metrics(self):
        text = render_report(self._events(), source="test.jsonl")
        assert "test.jsonl" in text
        assert "abc1234" in text
        assert "constrained" in text
        assert "forward_calls" in text
        assert "exit code 0" in text
        # All three trajectory series render.
        assert "val_acc" in text and "power_mW" in text and "λ" in text

    def test_render_tolerates_unfinished_run(self):
        events = self._events()[:2]  # run_start + one epoch, no run_end
        text = render_report(events, source="partial.jsonl")
        assert "partial.jsonl" in text

    def test_render_report_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        logger = RunLogger(JsonlSink(path))
        for event in self._events():
            payload = {k: v for k, v in event.items() if k not in ("type", "ts")}
            logger.emit(event["type"], **payload)
        logger.close()
        assert "run report" in render_report_file(path)

    def test_render_empty_events(self):
        text = render_report([], source="empty.jsonl")
        assert "empty" in text.lower() or "no events" in text.lower()

    def test_render_empty_event_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        text = render_report_file(path)
        assert "no events" in text

    def test_single_epoch_sparkline(self):
        """A one-epoch run renders a degenerate (flat) sparkline, no crash."""
        events = [self._events()[1]]  # exactly one epoch event
        text = render_report(events, source="one.jsonl")
        assert "1 epochs" in text
        assert "val_acc" in text

    def test_unknown_event_types_are_tolerated_and_counted(self, tmp_path):
        path = tmp_path / "future.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for event in self._events():
                json.dump(event, fh)
                fh.write("\n")
            fh.write('{"type": "gpu_temp", "ts": 200.0, "celsius": 71}\n')
        text = render_report_file(path)
        assert "unknown event types" in text
        assert "gpu_temp×1" in text
        assert "constrained" in text  # the known content still renders

    def test_alert_section(self):
        events = self._events()
        events.append({
            "type": "alert", "ts": 103.8, "kind": "multiplier_divergence",
            "epoch": 2, "message": "λ ran away", "phase": "constrained", "value": 2e6,
        })
        text = render_report(events)
        assert "health alerts: 1" in text
        assert "multiplier_divergence" in text and "λ ran away" in text

    def test_worker_summary_section(self):
        events = self._events()
        for event in events:
            if event["type"] == "epoch":
                event["worker_id"] = 1234
                event["task_id"] = "budget:iris:p-tanh:0.4"
        text = render_report(events)
        assert "workers: 1" in text
        assert "worker 1234: 3 events, 1 task(s)" in text

    def test_merged_multiworker_timeline_renders_ordered(self, tmp_path):
        """A run dir with two worker shards merges into one ordered,
        schema-valid timeline that the report renders."""
        from repro.observability import merge_worker_shards, validate_run_events

        parent = RunLogger(JsonlSink(tmp_path / "events.jsonl"))
        parent.emit("run_start", command="grid", config={}, git_sha="abc")
        parent.close()
        for worker_id, offset in ((71, 0.0), (72, 0.5)):
            sink = JsonlSink(tmp_path / f"events.worker-{worker_id}.jsonl", append=True)
            for epoch in range(3):
                sink.write({
                    "type": "epoch", "ts": 200.0 + epoch + offset, "epoch": epoch,
                    "loss": 0.5, "power_w": 1e-4, "val_accuracy": 0.7, "feasible": True,
                    "lr": 0.1, "multiplier": 0.1, "phase": "constrained",
                    "worker_id": worker_id, "task_id": f"cell-{worker_id}",
                })
            sink.close()
        assert merge_worker_shards(tmp_path) == 6
        assert validate_run_events(tmp_path) == 7
        events = read_events(tmp_path / "events.jsonl")
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
        text = render_report_file(tmp_path / "events.jsonl")
        assert "workers: 2" in text


# ----------------------------------------------------------------------
class TestCliIntegration:
    def test_obs_flags_parse_on_every_subcommand(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["datasets", "--profile"],
            ["train", "iris", "--log-json", "r.jsonl", "-vv"],
            ["circuits", "--metrics-out", "m.prom", "-q"],
            ["report", "r.jsonl"],
        ):
            args = parser.parse_args(argv)
            assert hasattr(args, "log_json")
            assert hasattr(args, "profile")
            assert hasattr(args, "metrics_out")

    def test_datasets_run_emits_valid_run_file(self, tmp_path, capsys):
        from repro.cli import main

        run = tmp_path / "run.jsonl"
        prom = tmp_path / "metrics.prom"
        code = main(["datasets", "--log-json", str(run), "--metrics-out", str(prom), "--profile"])
        assert code == 0
        events = read_events(run)
        types = [e["type"] for e in events]
        assert types[0] == "run_start"
        assert "profile" in types
        assert types[-1] == "run_end"
        assert events[-1]["exit_code"] == 0
        assert prom.read_text().count("# TYPE") >= 5
        capsys.readouterr()
        assert main(["report", str(run)]) == 0
        out = capsys.readouterr().out
        assert "run report" in out
