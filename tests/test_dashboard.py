"""Tests for the read-only web dashboard (repro.observability.dashboard).

Drives a real :class:`DashboardServer` on an ephemeral port with urllib:
every endpoint answers, the live-tail offset protocol follows an
in-flight run (worker shards included), the run listing equals the
events-based oracle and picks up runs recorded after startup, and request
metrics advance.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.observability import RunContext, accuracy_power_front, summary_to_dict
from repro.observability.dashboard import DashboardServer, render_dashboard_page
from repro.observability.metrics import get_registry

from tests.run_registry import oracle_summaries, record_registry, spy_event_reads, write_run


@pytest.fixture
def registry(tmp_path):
    base = tmp_path / "runs"
    write_run(base, "a-train-old", acc=0.80, power=2e-3, age_days=30, seed=1)
    write_run(base, "b-sweep", command="sweep", status="failed", acc=0.70,
               power=3e-3, age_days=20, alerts=2)
    write_run(base, "c-train", acc=0.95, power=1.5e-3, age_days=10, dataset="seeds")
    write_run(base, "d-corrupt", corrupt_manifest=True, age_days=5)
    write_run(base, "e-inflight", status="running", age_days=0.5,
               truncated_tail=True, worker_shard=True)
    # A clean in-flight run for the tail-follow test: no mid-write line,
    # so appended events extend a well-formed file like a live writer's.
    write_run(base, "f-live", status="running", age_days=0.2, worker_shard=True)
    return base


@pytest.fixture
def server(registry):
    with DashboardServer(base_dir=registry, port=0) as srv:
        yield srv


def _get(server, path):
    """(status, decoded body) — JSON decoded when the server says so."""
    try:
        with urllib.request.urlopen(server.url + path, timeout=10) as resp:
            raw, ctype, status = resp.read(), resp.headers.get("Content-Type", ""), resp.status
    except urllib.error.HTTPError as err:  # 4xx/5xx still carry a body
        raw, ctype, status = err.read(), err.headers.get("Content-Type", ""), err.code
    body = raw.decode("utf-8")
    return status, json.loads(body) if "json" in ctype else body


class TestEndpoints:
    def test_index_page(self, server):
        status, body = _get(server, "/")
        assert status == 200
        assert "<title>repro run dashboard</title>" in body
        assert body == render_dashboard_page()

    def test_healthz(self, server, registry):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["runs"] == 6
        assert "index" not in body
        assert body["runs_dir"] == str(registry)

    def test_healthz_reads_no_events(self, server, monkeypatch):
        # A liveness poll counts run directories; it digests no run, not
        # even the two in flight.
        seen = spy_event_reads(monkeypatch)
        status, body = _get(server, "/healthz")
        assert status == 200 and body["runs"] == 6
        assert seen == []

    def test_runs_listing_and_filters(self, server):
        status, body = _get(server, "/api/runs")
        assert status == 200 and body["count"] == 6
        # Oldest first; the corrupted manifest falls back to created_ts 0.
        assert [r["run_id"] for r in body["runs"]] == [
            "d-corrupt", "a-train-old", "b-sweep", "c-train", "e-inflight", "f-live",
        ]
        status, body = _get(server, "/api/runs?status=completed&sort=accuracy&desc=1&limit=1")
        assert status == 200
        assert [r["run_id"] for r in body["runs"]] == ["c-train"]

    @pytest.mark.parametrize("name, path", [
        ("limit", "/api/runs?limit=lots"),
        ("seed", "/api/runs?seed=lots"),
        ("offset", "/api/runs/c-train/events?offset=lots"),
        ("top", "/api/runs/c-train/kernels?top=lots"),
    ], ids=["limit", "seed", "offset", "top"])
    def test_bad_limit_is_a_client_error(self, server, name, path):
        status, body = _get(server, path)
        assert status == 400 and f"{name} must be an integer, got 'lots'" in body["error"]

    def test_unknown_run_with_malformed_parameter_stays_404(self, server):
        status, body = _get(server, "/api/runs/nope/events?offset=lots")
        assert status == 404 and "no run 'nope'" in body["error"]

    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_limit_below_one_is_a_400(self, server, limit):
        status, body = _get(server, f"/api/runs?limit={limit}")
        assert status == 400 and "limit must be >= 1" in body["error"]

    def test_run_detail(self, server):
        status, body = _get(server, "/api/runs/c-train")
        assert status == 200
        assert body["summary"]["run_id"] == "c-train"
        assert body["summary"]["dataset"] == "seeds"
        assert body["manifest"]["git_sha"] == "test"
        assert [e["epoch"] for e in body["trajectory"]] == [0, 1, 2]
        assert body["alerts"] == []
        status, body = _get(server, "/api/runs/b-sweep")
        assert len(body["alerts"]) == 2
        assert body["alerts"][0]["kind"] == "lambda_divergence"

    def test_run_detail_resolves_prefix_and_latest(self, server):
        assert _get(server, "/api/runs/c")[1]["summary"]["run_id"] == "c-train"
        assert _get(server, "/api/runs/latest")[1]["summary"]["run_id"] == "f-live"

    def test_unknown_ref_and_path_404(self, server):
        status, body = _get(server, "/api/runs/nope")
        assert status == 404 and "no run 'nope'" in body["error"]
        status, body = _get(server, "/api/runs/a/b/c")
        assert status == 404 and "unknown path" in body["error"]
        status, body = _get(server, "/definitely/not/here")
        assert status == 404

    def test_compare(self, server):
        status, body = _get(server, "/api/compare?a=a-train-old&b=c-train")
        assert status == 200
        assert body["a"]["summary"]["run_id"] == "a-train-old"
        assert body["b"]["summary"]["run_id"] == "c-train"
        assert any("dataset" in line for line in body["config_diff"])
        status, body = _get(server, "/api/compare?a=a-train-old")
        assert status == 400 and "needs both" in body["error"]

    def test_pareto(self, server):
        status, body = _get(server, "/api/pareto")
        assert status == 200
        assert [r["run_id"] for r in body["front"]] == ["d-corrupt", "c-train"]
        assert len(body["dominated"]) == 4
        front_powers = [r["final"]["power_w"] for r in body["front"]]
        assert front_powers == sorted(front_powers)


class TestLiveTail:
    def test_offset_protocol_follows_inflight_run(self, server, registry):
        # f-live is running: merged timeline = 3 epochs + 1 worker-shard event.
        status, body = _get(server, "/api/runs/f-live/events?offset=0")
        assert status == 200
        assert body["status"] == "running"
        assert len(body["events"]) == 4
        offset = body["offset"]
        assert offset == 4

        # Nothing new yet: an empty poll, offset unchanged.
        _, body = _get(server, f"/api/runs/f-live/events?offset={offset}")
        assert body["events"] == [] and body["offset"] == offset

        # The live writer appends an epoch; only the delta comes back.
        with open(registry / "f-live" / "events.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "type": "epoch", "ts": time.time(), "epoch": 3, "loss": 0.2,
                "power_w": 9e-4, "val_accuracy": 0.91, "feasible": True,
                "lr": 0.1, "phase": "constrained", "multiplier": 0.2,
            }) + "\n")
        _, body = _get(server, f"/api/runs/f-live/events?offset={offset}")
        assert [e["epoch"] for e in body["events"]] == [3]
        assert body["offset"] == offset + 1

    def test_midwrite_tail_line_is_not_fatal(self, server):
        status, body = _get(server, "/api/runs/e-inflight/events?offset=0")
        assert status == 200 and body["status"] == "running"
        # 3 epochs + 1 shard event; the torn trailing line is dropped.
        assert len(body["events"]) == 4

    def test_finalized_run_tail_ignores_leftover_shards(self, server, registry):
        (registry / "c-train" / "events.worker-9.jsonl").write_text(
            json.dumps({"type": "task_end", "ts": 1.0, "index": 0, "label": "x",
                        "status": "ok", "duration_s": 0.1, "worker_id": 9}) + "\n"
        )
        _, body = _get(server, "/api/runs/c-train/events?offset=0")
        # completed -> shards were already merged at finalize; don't re-read.
        assert body["status"] == "completed" and len(body["events"]) == 3


class TestRecordedRegistry:
    @pytest.fixture
    def recorded(self, tmp_path):
        return record_registry(tmp_path / "recorded")

    def test_runs_and_pareto_match_events_oracle(self, recorded):
        expected = oracle_summaries(recorded)
        with DashboardServer(base_dir=recorded, port=0) as srv:
            _, runs = _get(srv, "/api/runs")
            _, pareto = _get(srv, "/api/pareto")
        # Round-trip through JSON so tuples compare as the lists the API sends.
        as_json = lambda rows: json.loads(json.dumps([summary_to_dict(s) for s in rows]))
        assert runs == {"runs": as_json(expected), "count": len(expected)}
        front = accuracy_power_front(expected)
        assert pareto["front"] == as_json(front)
        assert len(pareto["front"]) + len(pareto["dominated"]) == sum(
            s.final_accuracy is not None and s.final_power_w is not None for s in expected
        )

    def test_run_recorded_after_startup_is_listed(self, recorded):
        with DashboardServer(base_dir=recorded, port=0) as srv:
            before = _get(srv, "/api/runs")[1]["count"]
            ctx = RunContext.create(recorded, "train", {"seed": 9}, argv=[], git_sha="x")
            ctx.finalize(exit_code=0, duration_s=0.1)
            _, body = _get(srv, "/api/runs")
            assert body["count"] == before + 1
            assert body["runs"][-1]["run_id"] == ctx.run_id
            assert _get(srv, "/healthz")[1]["runs"] == before + 1


def _wait_for(predicate, timeout=5.0):
    """Accounting runs server-side *after* the body is written; poll."""
    deadline = time.time() + timeout
    while not predicate() and time.time() < deadline:
        time.sleep(0.02)
    return predicate()


class TestServerPlumbing:
    def test_metrics_endpoint_and_counters(self, server):
        requests = get_registry().counter("dashboard_requests_total", "")
        before = requests.value
        status, body = _get(server, "/metrics")
        assert status == 200
        assert "repro_dashboard_requests_total" in body
        assert "repro_dashboard_request_latency_s" in body
        _get(server, "/healthz")
        assert _wait_for(lambda: requests.value >= before + 2)

    def test_error_counter_advances_on_404(self, server):
        errors = get_registry().counter("dashboard_request_errors", "")
        before = errors.value
        _get(server, "/api/runs/nope")
        assert _wait_for(lambda: errors.value == before + 1)

    def test_max_requests_self_shutdown(self, registry):
        server = DashboardServer(base_dir=registry, port=0, max_requests=2).start()
        try:
            _get(server, "/healthz")
            _get(server, "/healthz")
            deadline = time.time() + 10
            while server._thread.is_alive() and time.time() < deadline:
                time.sleep(0.05)
            assert not server._thread.is_alive()
        finally:
            server.close()
