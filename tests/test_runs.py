"""Tests for the run registry (repro.observability.runs) and its CLI.

Covers the run-directory lifecycle (manifest, events, metrics, status),
worker-shard merging into one time-ordered schema-valid timeline, run
resolution (path / id / prefix), summaries, the render helpers, and the
``repro runs list|show|compare`` subcommands end to end.
"""

from __future__ import annotations

import json

import pytest

from repro.observability import (
    JsonlSink,
    RunContext,
    RunLogger,
    list_runs,
    load_manifest,
    merge_worker_shards,
    read_events,
    render_run_compare,
    render_run_show,
    render_runs_table,
    resolve_run,
    summarize_run,
    validate_run_events,
)
from repro.observability.runs import environment_fingerprint, new_run_id


def _write_epochs(run_logger: RunLogger, n: int, phase: str = "constrained") -> None:
    for epoch in range(n):
        run_logger.emit(
            "epoch", epoch=epoch, loss=1.0 - 0.1 * epoch, power_w=2e-4 - 1e-5 * epoch,
            val_accuracy=0.5 + 0.05 * epoch, feasible=epoch > 0, lr=0.1,
            multiplier=0.02 * epoch, phase=phase,
        )


def _make_run(base, command="train", config=None, epochs=3, run_id=None) -> RunContext:
    ctx = RunContext.create(
        base, command, dict(config or {"dataset": "iris", "seed": 0}),
        argv=[command, "iris"], git_sha="abc1234", run_id=run_id,
    )
    _write_epochs(ctx.logger, epochs)
    ctx.finalize(exit_code=0, duration_s=1.5)
    return ctx


# ----------------------------------------------------------------------
class TestRunContext:
    def test_create_writes_manifest_and_events(self, tmp_path):
        ctx = RunContext.create(
            tmp_path, "train", {"dataset": "iris", "seed": 7},
            argv=["train", "iris"], git_sha="abc1234",
        )
        manifest = load_manifest(ctx.directory)
        assert manifest["command"] == "train"
        assert manifest["config"] == {"dataset": "iris", "seed": 7}
        assert manifest["seed"] == 7
        assert manifest["git_sha"] == "abc1234"
        assert manifest["argv"] == ["train", "iris"]
        assert manifest["status"] == "running"
        env = manifest["environment"]
        assert {"python", "platform", "numpy", "pid", "env"} <= set(env)
        ctx.logger.emit("run_start", command="train", config={}, git_sha="abc1234")
        ctx.finalize(exit_code=0, duration_s=2.0)
        manifest = load_manifest(ctx.directory)
        assert manifest["status"] == "completed"
        assert manifest["exit_code"] == 0
        assert manifest["duration_s"] == pytest.approx(2.0)
        assert (ctx.directory / "metrics.prom").read_text().startswith("# HELP")
        assert validate_run_events(ctx.directory) == 1

    def test_nonzero_exit_marks_failed(self, tmp_path):
        ctx = RunContext.create(tmp_path, "grid", {})
        ctx.finalize(exit_code=1, duration_s=0.1)
        assert load_manifest(ctx.directory)["status"] == "failed"

    def test_run_id_collision_rejected(self, tmp_path):
        RunContext.create(tmp_path, "train", {}, run_id="fixed")
        with pytest.raises(FileExistsError):
            RunContext.create(tmp_path, "train", {}, run_id="fixed")

    def test_new_run_id_embeds_command_and_is_unique(self):
        a, b = new_run_id("grid"), new_run_id("grid")
        assert "grid" in a and a != b

    def test_write_diagnostic(self, tmp_path):
        ctx = RunContext.create(tmp_path, "train", {})
        path = ctx.write_diagnostic({"kind": "non_finite", "epoch": 3})
        assert json.loads(path.read_text())["kind"] == "non_finite"

    def test_fingerprint_captures_repro_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert environment_fingerprint()["env"]["REPRO_FULL"] == "1"

    def test_fingerprint_captures_blas_threads(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert environment_fingerprint()["env"]["OPENBLAS_NUM_THREADS"] == "3"

    def test_fingerprint_records_effective_blas_threads(self):
        from repro.parallel.engine import blas_threads, set_blas_threads

        before = blas_threads()
        if before is None:
            pytest.skip("this BLAS does not export a thread-count getter")
        try:
            set_blas_threads(1)
            assert environment_fingerprint()["blas_threads"] == 1
        finally:
            set_blas_threads(before)


# ----------------------------------------------------------------------
class TestShardMerge:
    def _shard(self, path, worker_id, specs):
        """specs: list of (ts, epoch) for worker-attributed epoch events."""
        sink = JsonlSink(path, append=True)
        for ts, epoch in specs:
            sink.write({
                "type": "epoch", "ts": ts, "epoch": epoch, "loss": 0.5,
                "power_w": 1e-4, "val_accuracy": 0.7, "feasible": True, "lr": 0.1,
                "multiplier": 0.1, "phase": "constrained",
                "worker_id": worker_id, "task_id": f"task-{worker_id}",
            })
        sink.close()

    def test_merge_orders_and_stays_schema_valid(self, tmp_path):
        parent = RunLogger(JsonlSink(tmp_path / "events.jsonl"))
        parent.emit("run_start", command="grid", config={}, git_sha="abc")
        parent.close()
        self._shard(tmp_path / "events.worker-111.jsonl", 111, [(50.0, 0), (150.0, 1)])
        self._shard(tmp_path / "events.worker-222.jsonl", 222, [(100.0, 0), (125.0, 1)])

        merged_count = merge_worker_shards(tmp_path)
        assert merged_count == 4
        events = read_events(tmp_path / "events.jsonl")  # strict: all valid
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        worker_events = [e for e in events if "worker_id" in e]
        assert len(worker_events) == 4
        assert all("task_id" in e for e in worker_events)
        assert {e["worker_id"] for e in worker_events} == {111, 222}
        # shards are kept for forensics
        assert len(list(tmp_path.glob("events.worker-*.jsonl"))) == 2
        assert validate_run_events(tmp_path) == 5

    def test_merge_without_shards_is_noop(self, tmp_path):
        parent = RunLogger(JsonlSink(tmp_path / "events.jsonl"))
        parent.emit("run_start", command="x", config={}, git_sha="abc")
        parent.close()
        before = (tmp_path / "events.jsonl").read_text()
        assert merge_worker_shards(tmp_path) == 0
        assert (tmp_path / "events.jsonl").read_text() == before

    def test_remerge_is_byte_identical_for_both_streams(self, tmp_path):
        parent = RunLogger(JsonlSink(tmp_path / "events.jsonl"))
        parent.emit("run_start", command="grid", config={}, git_sha="abc")
        parent.close()
        self._shard(tmp_path / "events.worker-7.jsonl", 7, [(50.0, 0), (150.0, 1)])
        span = {"name": "w", "cat": "t", "ts": 5.0, "dur": 0.1, "pid": 7, "tid": 1, "span": "s1"}
        (tmp_path / "trace.jsonl").write_text("")
        (tmp_path / "trace.worker-7.jsonl").write_text(json.dumps(span) + "\n")
        assert merge_worker_shards(tmp_path) == 3
        events = (tmp_path / "events.jsonl").read_bytes()
        trace = (tmp_path / "trace.jsonl").read_bytes()
        assert len(events.splitlines()) == 3 and len(trace.splitlines()) == 1
        assert merge_worker_shards(tmp_path) == 0
        assert (tmp_path / "events.jsonl").read_bytes() == events
        assert (tmp_path / "trace.jsonl").read_bytes() == trace

    def test_merge_is_stable_for_equal_timestamps(self, tmp_path):
        self._shard(tmp_path / "events.worker-5.jsonl", 5, [(10.0, 0), (10.0, 1), (10.0, 2)])
        merge_worker_shards(tmp_path)
        events = read_events(tmp_path / "events.jsonl")
        assert [e["epoch"] for e in events] == [0, 1, 2]


# ----------------------------------------------------------------------
class TestRegistryReadSide:
    def test_list_runs_sorted_by_creation(self, tmp_path):
        _make_run(tmp_path, run_id="b-second")
        _make_run(tmp_path, run_id="a-first")
        (tmp_path / "not-a-run").mkdir()
        names = [p.name for p in list_runs(tmp_path)]
        assert set(names) == {"b-second", "a-first"}
        created = [load_manifest(tmp_path / n)["created_ts"] for n in names]
        assert created == sorted(created)

    def test_resolve_by_path_id_and_prefix(self, tmp_path):
        ctx = _make_run(tmp_path, run_id="20260101-000000-train-aaa111")
        assert resolve_run(str(ctx.directory)) == ctx.directory
        assert resolve_run("20260101-000000-train-aaa111", tmp_path) == ctx.directory
        assert resolve_run("20260101", tmp_path) == ctx.directory

    def test_resolve_latest_returns_newest_run(self, tmp_path):
        _make_run(tmp_path, run_id="a-older")
        newest = _make_run(tmp_path, run_id="b-newer")
        assert resolve_run("latest", tmp_path) == newest.directory

    def test_resolve_latest_with_no_runs_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="no runs"):
            resolve_run("latest", tmp_path)

    def test_resolve_rejects_missing_and_ambiguous(self, tmp_path):
        _make_run(tmp_path, run_id="run-aa")
        _make_run(tmp_path, run_id="run-ab")
        with pytest.raises(ValueError, match="ambiguous"):
            resolve_run("run-a", tmp_path)
        with pytest.raises(ValueError, match="no run"):
            resolve_run("zzz", tmp_path)

    def test_summarize_run_final_metrics(self, tmp_path):
        ctx = _make_run(tmp_path, epochs=4)
        summary = summarize_run(ctx.directory)
        assert summary.status == "completed"
        assert summary.n_epochs == 4
        assert summary.final_accuracy == pytest.approx(0.65)
        assert summary.final_power_w == pytest.approx(1.7e-4)
        assert summary.final_multiplier == pytest.approx(0.06)
        assert summary.n_alerts == 0
        assert summary.worker_ids == ()

    def test_validate_run_events_rejects_corruption(self, tmp_path):
        ctx = _make_run(tmp_path)
        with open(ctx.events_path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "epoch", "ts": 1.0}\n')  # missing required fields
        with pytest.raises(ValueError, match="missing required field"):
            validate_run_events(ctx.directory)


# ----------------------------------------------------------------------
class TestRendering:
    def test_table_lists_each_run(self, tmp_path):
        _make_run(tmp_path, run_id="run-one", command="train")
        _make_run(tmp_path, run_id="run-two", command="grid")
        text = render_runs_table(tmp_path)
        assert "run-one" in text and "run-two" in text
        assert "val_acc" in text and "power_mW" in text

    def test_table_empty_dir(self, tmp_path):
        assert "no runs" in render_runs_table(tmp_path / "absent")

    def test_show_contains_manifest_and_report(self, tmp_path):
        ctx = _make_run(tmp_path)
        text = render_run_show(ctx.directory)
        assert ctx.run_id in text
        assert "abc1234" in text
        assert "run report" in text
        assert "constrained" in text

    def test_compare_diffs_config_and_trajectories(self, tmp_path):
        a = _make_run(tmp_path, config={"dataset": "iris", "epochs": 5}, run_id="cmp-a")
        b = _make_run(tmp_path, config={"dataset": "seeds", "epochs": 9}, run_id="cmp-b",
                      epochs=5)
        text = render_run_compare(a.directory, b.directory)
        assert "cmp-a" in text and "cmp-b" in text
        assert "dataset: iris -> seeds" in text
        assert "epochs: 5 -> 9" in text
        assert "final val_acc" in text and "final power_mW" in text and "final λ" in text
        # both trajectories sparkline
        assert text.count("val_acc  ") >= 2


# ----------------------------------------------------------------------
class TestRunsCli:
    def _record_run(self, tmp_path, monkeypatch=None):
        from repro.cli import main

        assert main(["datasets", "--run-dir", str(tmp_path)]) == 0
        return list_runs(tmp_path)[-1]

    def test_run_dir_end_to_end(self, tmp_path, capsys):
        run = self._record_run(tmp_path)
        capsys.readouterr()
        manifest = load_manifest(run)
        assert manifest["command"] == "datasets"
        assert manifest["status"] == "completed"
        assert "datasets" in manifest["argv"]
        assert (run / "metrics.prom").exists()
        events = read_events(run / "events.jsonl")
        assert [e["type"] for e in events][0] == "run_start"
        assert events[-1]["type"] == "run_end"

    def test_run_dir_tees_with_log_json(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "copy.jsonl"
        assert main(["datasets", "--run-dir", str(tmp_path / "runs"),
                     "--log-json", str(log)]) == 0
        capsys.readouterr()
        run = list_runs(tmp_path / "runs")[-1]
        assert [e["type"] for e in read_events(log)] == \
            [e["type"] for e in read_events(run / "events.jsonl")]

    def test_runs_list_show_compare(self, tmp_path, capsys):
        from repro.cli import main

        run_a = self._record_run(tmp_path)
        run_b = self._record_run(tmp_path)
        capsys.readouterr()

        assert main(["runs", "list", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert run_a.name in out and run_b.name in out

        assert main(["runs", "show", run_a.name, "--dir", str(tmp_path)]) == 0
        assert run_a.name in capsys.readouterr().out

        assert main(["runs", "compare", run_a.name, run_b.name,
                     "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "config diff" in out

    def test_runs_show_latest_alias(self, tmp_path, capsys):
        from repro.cli import main

        self._record_run(tmp_path)
        newest = self._record_run(tmp_path)
        capsys.readouterr()
        assert main(["runs", "show", "latest", "--dir", str(tmp_path)]) == 0
        assert newest.name in capsys.readouterr().out

    def test_runs_show_unknown_ref_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["runs", "show", "nope", "--dir", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err


def _synthetic_run(base, run_id: str, age_s: float, status: str, now: float = 1_000_000.0):
    run_dir = base / run_id
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(json.dumps(
        {"run_id": run_id, "created_ts": now - age_s, "status": status}
    ))
    return run_dir


class TestParseAge:
    def test_suffixes(self):
        from repro.observability import parse_age

        assert parse_age("30d") == 30 * 86400
        assert parse_age("12h") == 12 * 3600
        assert parse_age("45m") == 45 * 60
        assert parse_age("90s") == 90
        assert parse_age("90") == 90  # bare number = seconds

    def test_rejects_garbage(self):
        from repro.observability import parse_age

        for bad in ("", "soon", "3w", "-5d"):
            with pytest.raises(ValueError):
                parse_age(bad)


class TestPruneRuns:
    NOW = 1_000_000.0

    def _populate(self, base):
        """Five runs, oldest to newest: completed/failed/completed/running/completed."""
        ages_statuses = [
            ("r0", 40 * 86400, "completed"),
            ("r1", 20 * 86400, "failed"),
            ("r2", 10 * 86400, "completed"),
            ("r3", 5 * 86400, "running"),
            ("r4", 1 * 86400, "completed"),
        ]
        for run_id, age, status in ages_statuses:
            _synthetic_run(base, run_id, age, status, now=self.NOW)

    def test_requires_a_criterion(self, tmp_path):
        from repro.observability import prune_runs

        with pytest.raises(ValueError):
            prune_runs(tmp_path)

    def test_dry_run_selects_but_deletes_nothing(self, tmp_path):
        from repro.observability import prune_runs

        self._populate(tmp_path)
        decisions = prune_runs(tmp_path, older_than_s=15 * 86400, now=self.NOW)
        assert [d.run_id for d in decisions if d.prune] == ["r0", "r1"]
        assert len(list_runs(tmp_path)) == 5  # nothing deleted

    def test_keep_last_protects_newest(self, tmp_path):
        from repro.observability import prune_runs

        self._populate(tmp_path)
        decisions = prune_runs(tmp_path, keep_last=2, dry_run=False, now=self.NOW)
        # r3 is among the 2 most recent; r0..r2 go
        assert [d.run_id for d in decisions if d.prune] == ["r0", "r1", "r2"]
        assert sorted(p.name for p in list_runs(tmp_path)) == ["r3", "r4"]

    def test_running_runs_are_protected(self, tmp_path):
        from repro.observability import prune_runs

        self._populate(tmp_path)
        decisions = prune_runs(tmp_path, older_than_s=0, keep_last=1, now=self.NOW)
        fates = {d.run_id: d.prune for d in decisions}
        assert fates == {"r0": True, "r1": True, "r2": True, "r3": False, "r4": False}

    def test_status_filter(self, tmp_path):
        from repro.observability import prune_runs

        self._populate(tmp_path)
        decisions = prune_runs(tmp_path, status="failed", dry_run=False, now=self.NOW)
        assert [d.run_id for d in decisions if d.prune] == ["r1"]
        assert sorted(p.name for p in list_runs(tmp_path)) == ["r0", "r2", "r3", "r4"]

    def test_explicit_running_status_overrides_protection(self, tmp_path):
        from repro.observability import prune_runs

        self._populate(tmp_path)
        decisions = prune_runs(tmp_path, status="running", dry_run=False, now=self.NOW)
        assert [d.run_id for d in decisions if d.prune] == ["r3"]

    def test_render_report(self, tmp_path):
        from repro.observability import prune_runs, render_prune_report

        self._populate(tmp_path)
        decisions = prune_runs(tmp_path, older_than_s=15 * 86400, now=self.NOW)
        text = render_prune_report(decisions, dry_run=True)
        assert "would prune" in text and "--yes" in text
        assert "r0" in text and "r4" in text


class TestPruneCli:
    def test_dry_run_then_delete(self, tmp_path, capsys):
        from repro.cli import main

        for i, status in enumerate(["completed", "completed", "completed"]):
            _synthetic_run(tmp_path, f"run-{i}", age_s=(3 - i) * 3600, status=status)
        base = str(tmp_path)

        assert main(["runs", "prune", "--dir", base, "--keep-last", "1"]) == 0
        out = capsys.readouterr().out
        assert "would prune: 2 of 3" in out
        assert len(list_runs(tmp_path)) == 3

        assert main(["runs", "prune", "--dir", base, "--keep-last", "1", "--yes"]) == 0
        out = capsys.readouterr().out
        assert "pruned: 2 of 3" in out
        assert [p.name for p in list_runs(tmp_path)] == ["run-2"]

    def test_no_criterion_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["runs", "prune", "--dir", str(tmp_path)]) == 2
        assert "refusing to prune" in capsys.readouterr().err
