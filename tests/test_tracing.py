"""Tests for end-to-end tracing: tracer core, kernel attribution, exporters.

Three properties are load-bearing:

- **Off means off** — with tracing disabled, spans must not allocate, the
  ring buffer must not exist, and training must be bit-identical to an
  untraced run (the default path pays one attribute check).
- **Attribution is honest** — per-kernel replay timings must not perturb
  the replayed floats, and the interval scheme must attribute ≥95% of the
  replay wall time.
- **Formats round-trip** — the Chrome trace export must be schema-valid
  JSON, trace ids must survive the HTTP hop, and re-merging worker shards
  must never double count.
"""

from __future__ import annotations

import gc
import json
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from repro.autograd.graph import capture_forward
from repro.autograd.tensor import Tensor
from repro.observability.metrics import Histogram, estimate_quantile, quantiles_from_snapshot
from repro.observability.runs import merge_worker_shards
from repro.observability.tracing import (
    KERNELS_NAME,
    TRACE_NAME,
    Tracer,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    get_kernel_profiler,
    get_tracer,
    hot_kernels,
    kernel_name,
    new_trace_id,
    read_trace,
    render_kernel_diff,
    render_kernel_report,
    trace_context,
    trace_span,
    write_trace_jsonl,
)


@pytest.fixture(autouse=True)
def _clean_tracing():
    """Tracer and profiler are process-global; leave them pristine."""
    yield
    disable_tracing()
    get_tracer().reset()
    get_kernel_profiler().reset()


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_has_no_ring(self):
        tracer = Tracer()
        assert not tracer.enabled
        assert tracer._ring is None
        tracer.record("x", "t", 0.0, 1.0)  # no-op, not an error
        assert tracer.count == 0
        assert tracer.records() == []

    def test_disabled_spans_allocate_nothing(self):
        tracer = get_tracer()
        assert not tracer.enabled

        def burst(n=500):
            for _ in range(n):
                with trace_span("noop", "test"):
                    pass

        burst()  # warm caches/allocator before measuring
        gc.collect()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        burst()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert tracer.count == 0
        assert tracer._ring is None
        # Spans are transient; nothing may survive the block.  A small
        # slack absorbs interpreter-internal noise (not per-span growth).
        assert after - before < 4096

    def test_enable_allocates_ring_and_records(self):
        tracer = get_tracer()
        tracer.enable(capacity=64)
        try:
            assert tracer.enabled and len(tracer._ring) == 64
            with trace_span("outer", "test"):
                with trace_span("inner", "test", args={"k": 1}):
                    pass
            recs = tracer.records()
            assert [r["name"] for r in recs] == ["inner", "outer"]
            inner, outer = recs
            assert inner["trace"] == outer["trace"]
            assert inner["parent"] == outer["span"]
            assert "parent" not in outer  # root span
            assert inner["args"] == {"k": 1}
            assert inner["dur"] >= 0.0 and outer["dur"] >= inner["dur"]
        finally:
            tracer.disable()
            tracer.reset()

    def test_ring_wraps_and_counts_drops(self):
        tracer = get_tracer()
        tracer.enable(capacity=4)
        try:
            for i in range(10):
                tracer.record(f"s{i}", "test", float(i), 0.001)
            assert tracer.count == 10
            assert tracer.dropped == 6
            assert [r["name"] for r in tracer.records()] == ["s6", "s7", "s8", "s9"]
        finally:
            tracer.disable()
            tracer.reset()

    def test_drain_clears_but_stays_enabled(self):
        tracer = get_tracer()
        tracer.enable(capacity=16)
        try:
            tracer.record("a", "test", 0.0, 0.001)
            assert len(tracer.drain()) == 1
            assert tracer.records() == [] and tracer.enabled
        finally:
            tracer.disable()
            tracer.reset()

    def test_drain_never_loses_concurrent_spans(self):
        tracer = get_tracer()
        default_capacity = tracer.capacity
        n = 20000
        tracer.enable(capacity=n)  # no wrap: every span must be accounted for
        try:
            def writer():
                for i in range(n):
                    tracer.record("s", "test", 0.0, 0.0, span_id=str(i))

            thread = threading.Thread(target=writer)
            drained: list[dict] = []
            thread.start()
            while thread.is_alive():
                drained.extend(tracer.drain())
            thread.join()
            # Returned by a drain, or still in the ring.
            drained.extend(tracer.records())
            assert sorted(int(r["span"]) for r in drained) == list(range(n))
        finally:
            tracer.disable()
            tracer.capacity = default_capacity
            tracer.reset()

    def test_forked_child_starts_disabled_and_empty(self):
        tracer = get_tracer()
        tracer.enable()
        try:
            with trace_span("parent", "test"):
                pass
            pid = os.fork()
            if pid == 0:  # child: report through the exit code only
                fresh = not tracer.enabled and tracer.records() == [] and not tracer.profile()
                os._exit(0 if fresh and tracer._ring is None else 1)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert [r["name"] for r in tracer.records()] == ["parent"]  # parent untouched
        finally:
            tracer.disable()
            tracer.reset()

    def test_new_trace_ids_unique_and_header_safe(self):
        ids = {new_trace_id() for _ in range(256)}
        assert len(ids) == 256
        for tid in ids:
            assert re.fullmatch(r"[0-9a-f]{16}", tid)

    def test_trace_context_binds_explicit_identity(self):
        tracer = get_tracer()
        tracer.enable(capacity=16)
        try:
            with trace_context("req-42", "parent-7"):
                with trace_span("work", "test"):
                    pass
            (rec,) = tracer.records()
            assert rec["trace"] == "req-42"
            assert rec["parent"] == "parent-7"
        finally:
            tracer.disable()
            tracer.reset()


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
class TestChromeExport:
    def _records(self):
        enable_tracing(capacity=256)
        with trace_span("epoch", "train"):
            with trace_span("step", "train", args={"i": 0}):
                pass
            with trace_span("eval", "train"):
                pass
        return get_tracer().drain()

    def test_schema_conformance(self):
        payload = chrome_trace(self._records())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == 3
        for event in events:
            assert set(("name", "cat", "ph", "ts", "dur", "pid", "tid")) <= set(event)
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
            assert event["args"]["span"]
        # Timestamps are relative to the earliest span and sorted.
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts) and ts[0] == 0.0

    def test_round_trips_json(self):
        payload = chrome_trace(self._records())
        again = json.loads(json.dumps(payload))
        assert again == payload

    def test_empty_trace_is_valid(self):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Kernel attribution on a captured graph
# ----------------------------------------------------------------------
def _sigmoid_kernel(x):
    return x


def _capture_small():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(6, 4)))
    x = Tensor(rng.normal(size=(8, 6)))

    def forward(inp):
        return ((inp @ w).tanh() ** 2).sum()

    return capture_forward(forward, x)


class TestKernelAttribution:
    def test_kernel_names_are_readable(self):
        graph = _capture_small()
        names = graph.kernel_names()
        assert len(names) == graph.n_ops
        assert "matmul" in names and "tanh" in names
        for name in names:
            assert name and "<" not in name and "lambda" not in name

    def test_timed_replay_is_bit_identical(self):
        graph = _capture_small()
        graph.replay_forward()
        baseline = graph.outputs[0].data.copy()
        timings = [0.0] * graph.n_ops
        graph.replay_forward(timings)
        assert np.array_equal(graph.outputs[0].data, baseline)
        assert all(t >= 0.0 for t in timings)
        assert sum(timings) > 0.0

    def test_interval_scheme_attributes_full_wall(self):
        from time import perf_counter

        graph = _capture_small()
        graph.replay_forward()  # warm caches before timing
        # The interval scheme folds loop overhead into kernel intervals,
        # so attributed time covers ≥95% of replay wall time.  The graph
        # here is tiny (microseconds per replay), so a descheduled slice
        # between two replays can poison a single trial — take the best
        # of several independent trials to reject scheduler noise.
        best = 0.0
        for _ in range(5):
            timings = [0.0] * graph.n_ops
            t0 = perf_counter()
            for _ in range(50):
                graph.replay_forward(timings)
            wall = perf_counter() - t0
            best = max(best, sum(timings) / wall)
            if best >= 0.95:
                break
        assert best >= 0.95

    def test_kernel_name_unwraps_closures(self):
        assert kernel_name(np.add) == "add"
        assert kernel_name(_sigmoid_kernel) == "sigmoid"

        def method_lambda(x):
            return x

        # A thunk closed over inside an operator method reports the method.
        method_lambda.__qualname__ = "Tensor.__pow__.<locals>.<lambda>"
        assert kernel_name(method_lambda) == "pow"

    def test_profiler_aggregation_and_report(self):
        profiler = get_kernel_profiler()
        profiler.enable()
        rec = profiler.recording("unit.forward", ["matmul", "tanh"])
        rec.times[0] += 0.004
        rec.times[1] += 0.001
        rec.note_replay(0.0052)
        payload = profiler.as_json()
        entry = payload["labels"]["unit.forward"]
        assert entry["replays"] == 1
        assert entry["attributed_s"] == pytest.approx(0.005)
        rows = hot_kernels(payload, top=1)
        assert rows[0]["name"] == "matmul" and rows[0]["share"] == pytest.approx(0.8)
        report = render_kernel_report(payload)
        assert "hottest kernels" in report and "matmul" in report

    def test_kernel_diff_names_regression_driver(self):
        def payload(matmul_s):
            return {"labels": {"train.step.forward": {
                "replays": 10, "wall_s": matmul_s + 0.01,
                "attributed_s": matmul_s + 0.01,
                "kernels": [
                    {"index": 0, "name": "matmul", "total_s": matmul_s},
                    {"index": 1, "name": "tanh", "total_s": 0.01},
                ],
            }}}

        text = render_kernel_diff(payload(0.02), payload(0.08))
        assert "regression driver: matmul" in text


# ----------------------------------------------------------------------
# Shard merging
# ----------------------------------------------------------------------
class TestMergeShards:
    def _rec(self, name, span, ts):
        return {"name": name, "cat": "t", "ts": ts, "dur": 0.001,
                "pid": 1, "tid": 1, "span": span}

    def test_merge_is_idempotent_and_time_ordered(self, tmp_path):
        write_trace_jsonl(tmp_path / TRACE_NAME, [self._rec("parent", "s1", 10.0)])
        write_trace_jsonl(
            tmp_path / "trace.worker-11.jsonl",
            [self._rec("w", "s2", 5.0), self._rec("dup", "s1", 10.0)],
        )
        assert merge_worker_shards(tmp_path) == 1  # s1 deduped
        merged = read_trace(tmp_path / TRACE_NAME)
        assert [r["span"] for r in merged] == ["s2", "s1"]  # ts-sorted
        # Re-merging a finalized run folds in nothing new.
        assert merge_worker_shards(tmp_path) == 0
        assert read_trace(tmp_path / TRACE_NAME) == merged
        # Shards stay on disk as the forensic record.
        assert (tmp_path / "trace.worker-11.jsonl").exists()

    def test_truncated_tail_line_is_dropped(self, tmp_path):
        path = tmp_path / TRACE_NAME
        write_trace_jsonl(path, [self._rec("a", "s1", 1.0)])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"name": "torn"')  # writer died mid-line
        assert [r["name"] for r in read_trace(path)] == ["a"]


# ----------------------------------------------------------------------
# Histogram quantiles (satellite: latency percentiles)
# ----------------------------------------------------------------------
class TestHistogramQuantiles:
    def test_estimate_interpolates_within_bucket(self):
        # 10 observations uniform over one (0, 1] bucket: p50 ≈ 0.5.
        assert estimate_quantile([1.0], [10], 10, 0.5) == pytest.approx(0.5)

    def test_quantile_clamps_beyond_last_bound(self):
        hist = Histogram("h", "", buckets=(0.1, 1.0))
        for _ in range(10):
            hist.observe(50.0)  # all beyond the last finite bound
        assert hist.quantile(0.99) == pytest.approx(1.0)

    def test_snapshot_quantiles(self):
        hist = Histogram("h", "", buckets=(0.001, 0.01, 0.1, 1.0))
        for v in (0.005, 0.005, 0.05, 0.5):
            hist.observe(v)
        snap = {"count": hist.count, "sum": hist.sum,
                "buckets": list(hist.bucket_counts), "le": list(hist.buckets)}
        qs = quantiles_from_snapshot(snap)
        assert qs is not None
        assert 0.001 <= qs[0.5] <= 0.01 * (1 + 1e-9)
        assert 0.1 <= qs[0.99] <= 1.0 * (1 + 1e-9)

    def test_snapshot_without_bounds_returns_none(self):
        assert quantiles_from_snapshot({"count": 3, "sum": 1.0, "buckets": [3]}) is None


# ----------------------------------------------------------------------
# HTTP round trip (client → server → batcher → engine)
# ----------------------------------------------------------------------
@pytest.fixture()
def serving_pair(tmp_path):
    from repro.serving import ServingClient, ServingServer, export_artifact, load_artifact
    from tests.test_serving import _analytic_net

    path = tmp_path / "model.pnz"
    export_artifact(_analytic_net(), path)
    model = load_artifact(path)
    server = ServingServer(model, port=0, max_delay_s=0.0).start()
    try:
        yield ServingClient(server.url), server
    finally:
        server.shutdown()


class TestHTTPTracePropagation:
    def test_trace_id_survives_round_trip(self, serving_pair):
        client, _ = serving_pair
        response = client.predict([[0.1, 0.2, 0.3, 0.4]], trace_id="req-abc-123")
        assert response["trace_id"] == "req-abc-123"
        assert client.last_trace_id == "req-abc-123"

    def test_untraced_request_still_gets_an_id(self, serving_pair):
        client, _ = serving_pair
        response = client.predict([[0.1, 0.2, 0.3, 0.4]])
        assert response["trace_id"] == client.last_trace_id
        assert re.fullmatch(r"[0-9a-f]{16}", response["trace_id"])

    def test_hostile_header_is_replaced_not_echoed(self, serving_pair):
        client, _ = serving_pair
        evil = "x" * 65  # over-length → regenerated server-side
        response = client.predict([[0.1, 0.2, 0.3, 0.4]], trace_id=evil)
        assert response["trace_id"] != evil
        assert re.fullmatch(r"[0-9a-f]{16}", response["trace_id"])

    def test_spans_share_the_request_trace(self, serving_pair):
        client, _ = serving_pair
        enable_tracing(capacity=1024)
        client.predict([[0.1, 0.2, 0.3, 0.4]], trace_id="shared-trace-1")
        spans = {r["name"] for r in get_tracer().records()
                 if r.get("trace") == "shared-trace-1"}
        assert {"serving.client.predict", "serving.request",
                "serving.queue_wait", "serving.batch", "serving.replay"} <= spans

    @pytest.mark.parametrize(
        "rows, status", [([[0.1, 0.2, 0.3, 0.4]], 200), ([[1.0, 2.0]], 400)]
    )
    def test_request_span_is_recorded_before_the_response(
        self, serving_pair, monkeypatch, rows, status
    ):
        """The handler responds only after ``serving.request`` is recorded,
        so a client reading the tracer after its response finds the span."""
        from repro.serving.client import ServingClientError
        from repro.serving.server import _Handler

        client, _ = serving_pair
        enable_tracing(capacity=1024)
        trace_id = f"respond-order-{status}"
        seen: list[tuple[int, set[str]]] = []
        original = _Handler._respond

        def respond(handler, code, payload, endpoint, *args, **kwargs):
            if endpoint == "predict":
                names = {r["name"] for r in get_tracer().records()
                         if r.get("trace") == trace_id}
                seen.append((code, names))
            return original(handler, code, payload, endpoint, *args, **kwargs)

        monkeypatch.setattr(_Handler, "_respond", respond)
        try:
            client.predict(rows, trace_id=trace_id)
        except ServingClientError:
            pass
        assert len(seen) == 1
        code, names = seen[0]
        assert code == status
        assert "serving.request" in names

    def test_error_response_echoes_trace_id(self, serving_pair):
        from repro.serving.client import ServingClientError

        client, _ = serving_pair
        with pytest.raises(ServingClientError):
            client.predict([[1.0, 2.0]], trace_id="bad-shape-req")  # wrong width
        assert client.last_trace_id == "bad-shape-req"


# ----------------------------------------------------------------------
# Training bit-identity and CLI integration
# ----------------------------------------------------------------------
class TestTrainingIntegration:
    def test_traced_training_is_bit_identical(self, af_surrogates, neg_surrogate):
        from repro.circuits import PNCConfig, PrintedNeuralNetwork
        from repro.datasets import load_dataset, train_val_test_split
        from repro.pdk.params import ActivationKind
        from repro.training import TrainerSettings, train_unconstrained

        split = train_val_test_split(load_dataset("iris"), seed=0)

        def run():
            data = load_dataset("iris")
            net = PrintedNeuralNetwork(
                data.n_features, data.n_classes, PNCConfig(kind=ActivationKind.TANH),
                np.random.default_rng(5),
                af_surrogates[ActivationKind.TANH], neg_surrogate,
            )
            return train_unconstrained(net, split, settings=TrainerSettings(epochs=8))

        baseline = run()
        enable_tracing()
        traced = run()
        disable_tracing()
        assert traced.loss_trace == baseline.loss_trace
        assert traced.val_accuracy_trace == baseline.val_accuracy_trace
        assert get_kernel_profiler().has_data()

    def test_cli_trace_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        runs = tmp_path / "runs"
        chrome = tmp_path / "chrome.json"
        assert main(["train", "iris", "--epochs", "2", "--seed", "0",
                     "--trace", "--run-dir", str(runs),
                     "--trace-out", str(chrome)]) in (0, 1)  # feasibility not the point
        capsys.readouterr()
        (run_dir,) = (p for p in runs.iterdir() if p.is_dir())
        assert (run_dir / TRACE_NAME).exists()
        kernels = json.loads((run_dir / KERNELS_NAME).read_text())
        labels = set(kernels["labels"])
        assert {"train.step.forward", "train.step.backward",
                "train.eval.forward"} <= labels
        # Kernel coverage: attributed ≥95% of replay wall per label.
        for entry in kernels["labels"].values():
            assert entry["attributed_s"] >= 0.95 * entry["wall_s"]
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"] and payload["displayTimeUnit"] == "ms"

        assert main(["profile", "--kernels", "--dir", str(runs)]) == 0
        out = capsys.readouterr().out
        assert "hottest kernels" in out
        assert main(["report", str(run_dir)]) == 0
        assert "hottest kernels" in capsys.readouterr().out

    def test_cli_profile_without_trace_data_errors(self, tmp_path, capsys):
        from repro.cli import main

        runs = tmp_path / "runs"
        assert main(["train", "iris", "--epochs", "2", "--seed", "0",
                     "--run-dir", str(runs)]) in (0, 1)
        capsys.readouterr()
        assert main(["profile", "--kernels", "--dir", str(runs)]) == 2
        assert "re-run with --trace" in capsys.readouterr().err
