"""Tests for the run registry (repro.observability.runs) and its CLI.

Covers the run-directory lifecycle (manifest, events, metrics, status),
worker-shard merging into one time-ordered schema-valid timeline, run
resolution (path / id / prefix), summaries, the render helpers, the
``repro runs list|query|show|compare|prune`` subcommands end to end, and
the manifest index: every listing read from the manifests' ``summary``
equals the events-based oracle byte for byte, and a registry of finalized
runs lists without parsing one ``events.jsonl``.
"""

from __future__ import annotations

import json
import types

import pytest

from repro.observability import (
    JsonlSink,
    RunContext,
    RunLogger,
    accuracy_power_front,
    config_fingerprint,
    list_runs,
    load_manifest,
    load_summaries,
    merge_worker_shards,
    prune_runs,
    read_events,
    render_prune_report,
    render_run_compare,
    render_run_show,
    render_runs_table,
    resolve_run,
    summarize_run,
    summary_to_dict,
    validate_run_events,
)
from repro.observability.report import render_report
from repro.observability.runs import environment_fingerprint, new_run_id

from tests.run_registry import (
    oracle_summaries,
    record_registry,
    spy_event_reads,
    write_run,
)


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


# ----------------------------------------------------------------------
# The manifest index
# ----------------------------------------------------------------------
@pytest.fixture
def registry(tmp_path):
    """Hand-written registry: statuses, a corrupt manifest, an in-flight mid-write run."""
    base = tmp_path / "runs"
    write_run(base, "a-train-old", acc=0.80, power=2e-3, age_days=30, seed=1)
    write_run(base, "b-sweep", command="sweep", status="failed", acc=0.70,
              power=3e-3, age_days=20, alerts=2)
    write_run(base, "c-train", acc=0.95, power=1.5e-3, age_days=10, dataset="seeds")
    write_run(base, "d-corrupt", corrupt_manifest=True, age_days=5)
    write_run(base, "e-inflight", status="running", age_days=0.5,
              truncated_tail=True, worker_shard=True)
    return base


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """The mixed registry of ``record_registry``; the tests below only read it."""
    return record_registry(tmp_path_factory.mktemp("recorded") / "runs")


def _cli(argv, capsys):
    """``(exit code, stdout, error lines)`` of one ``repro`` invocation."""
    from repro.cli import main

    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, [line for line in out.err.splitlines() if line.startswith("error:")]


def _table(base, rows):
    return render_runs_table(base, summaries=rows) + "\n"


def _query_table(base, **query):
    rows = oracle_summaries(base, **query)
    return _table(base, rows) + f"({len(rows)} run(s))\n"


def _query_json(base, **query):
    rows = oracle_summaries(base, **query)
    return json.dumps([summary_to_dict(s) for s in rows], indent=2) + "\n"


def _missing(base, ref):
    try:
        resolve_run(ref, base)
    except ValueError as exc:
        return 2, "", [f"error: {exc}"]
    raise AssertionError(f"{ref!r} resolved")


def _shown(run_dir):
    """``runs show`` of one run: its manifest header and event report."""
    return _ok(render_run_show(run_dir) + "\n")


def _ok(text):
    return 0, text, []


_SORTS = ("created", "accuracy", "power", "duration", "epochs", "alerts")
_FILTERS = (
    (["--command", "sweep"], {"command": "sweep"}),
    (["--status", "completed"], {"status": "completed"}),
    (["--dataset", "seeds"], {"dataset": "seeds"}),
    (["--seed", "1"], {"seed": 1}),
)

#: ``(argv after "runs", expected (code, stdout, error lines) of the registry)``.
CLI_CASES = [
    pytest.param(["list"], lambda b: _ok(render_runs_table(b) + "\n"), id="list"),
    pytest.param(["list", "--limit", "2"],
                 lambda b: _ok(_table(b, oracle_summaries(b)[-2:])), id="list-limit"),
    pytest.param(["list", "--status", "completed"],
                 lambda b: _ok(_table(b, oracle_summaries(b, status="completed"))),
                 id="list-status"),
    pytest.param(["list", "--limit", "1", "--status", "failed"],
                 lambda b: _ok(_table(b, oracle_summaries(b, status="failed")[-1:])),
                 id="list-limit-status"),
    pytest.param(["show", "c-train"], lambda b: _shown(b / "c-train"), id="show"),
    pytest.param(["show", "latest"], lambda b: _shown(list_runs(b)[-1]), id="show-latest"),
    pytest.param(["compare", "a-train-old", "c-train"],
                 lambda b: _ok(render_run_compare(b / "a-train-old", b / "c-train") + "\n"),
                 id="compare"),
    pytest.param(["prune", "--keep-last", "2"],
                 lambda b: _ok(render_prune_report(prune_runs(b, keep_last=2), True) + "\n"),
                 id="prune-keep-last"),
    pytest.param(["prune", "--older-than", "15d"],
                 lambda b: _ok(render_prune_report(
                     prune_runs(b, older_than_s=15 * 86400.0), True) + "\n"),
                 id="prune-older-than"),
    pytest.param(["prune", "--status", "failed"],
                 lambda b: _ok(render_prune_report(prune_runs(b, status="failed"), True) + "\n"),
                 id="prune-status"),
    pytest.param(["show", "definitely-missing"], lambda b: _missing(b, "definitely-missing"),
                 id="show-missing"),
    *[
        pytest.param(["query", "--sort", sort, *(["--desc"] if desc else [])],
                     lambda b, sort=sort, desc=desc: _ok(
                         _query_table(b, sort=sort, descending=desc)),
                     id=f"query-{sort}{'-desc' if desc else ''}")
        for sort in _SORTS for desc in (False, True)
    ],
    *[
        pytest.param(["query", "--sort", sort, *(["--desc"] if desc else []), "--json"],
                     lambda b, sort=sort, desc=desc: _ok(
                         _query_json(b, sort=sort, descending=desc)),
                     id=f"query-{sort}{'-desc' if desc else ''}-json")
        for sort in _SORTS for desc in (False, True)
    ],
    *[
        pytest.param(["query", *flags, *extra],
                     lambda b, query=query, render=render: _ok(render(b, **query)),
                     id=f"query-{flags[0][2:]}{suffix}")
        for flags, query in _FILTERS
        for extra, render, suffix in (([], _query_table, ""), (["--json"], _query_json, "-json"))
    ],
    pytest.param(["query", "--status", "completed", "--sort", "power", "--desc", "--limit", "2"],
                 lambda b: _ok(_query_table(b, status="completed", sort="power",
                                            descending=True, limit=2)),
                 id="query-status-sort-limit"),
]


class TestManifestIndex:
    """``load_summaries`` reads the manifests and equals the events-based oracle."""

    FILTERS = [
        {},
        {"status": "completed"},
        {"command": "sweep"},
        {"dataset": "seeds"},
        {"seed": 1},
        {"sort": "accuracy", "descending": True},
        {"sort": "power"},
        {"sort": "duration", "descending": True},
        {"limit": 2},
        {"sort": "alerts", "descending": True, "limit": 3},
        {"status": "completed", "sort": "accuracy", "descending": True, "limit": 1},
        {"sort": "epochs"},
        {"descending": True},
        {"status": "running"},
    ]

    @pytest.mark.parametrize("filters", FILTERS)
    def test_summaries_match_events_oracle(self, recorded, filters):
        summaries = load_summaries(recorded, **filters)
        expected = oracle_summaries(recorded, **filters)
        assert summaries == expected
        assert [summary_to_dict(s) for s in summaries] == [summary_to_dict(s) for s in expected]
        assert _table(recorded, summaries) == _table(recorded, expected)

    @pytest.mark.parametrize("argv_tail, expected", CLI_CASES)
    def test_cli_matches_events_oracle(self, recorded, capsys, monkeypatch, argv_tail, expected):
        # Prune ages are measured from the clock: freeze it for both sides.
        now = 2_000_000_000.0
        monkeypatch.setattr("repro.observability.runs.time",
                            types.SimpleNamespace(time=lambda: now))
        assert _cli(["runs", *argv_tail, "--dir", str(recorded)], capsys) == expected(recorded)

    def test_show_of_in_flight_run_drops_the_mid_write_line(self, recorded, capsys):
        run_dir = list_runs(recorded)[-1]
        assert run_dir.name == "e-inflight"  # ``runs show latest`` above is this run
        events_path = run_dir / "events.jsonl"
        with pytest.raises(ValueError):
            read_events(events_path, strict=False)
        code, out, errors = _cli(["runs", "show", "e-inflight", "--dir", str(recorded)], capsys)
        assert (code, errors) == (0, [])
        assert "status   : running" in out
        complete = read_events(events_path, strict=False, tolerate_truncated_tail=True)
        assert [e["val_accuracy"] for e in complete if e["type"] == "epoch"] == [0.4, 0.5]
        assert out.endswith(render_report(complete, source=str(events_path)) + "\n")

    def test_report_of_in_flight_run_drops_the_mid_write_line(self, recorded, capsys):
        events_path = recorded / "e-inflight" / "events.jsonl"
        code, out, errors = _cli(["report", str(events_path)], capsys)
        assert (code, errors) == (0, [])
        complete = read_events(events_path, strict=False, tolerate_truncated_tail=True)
        assert out == render_report(complete, source=str(events_path)) + "\n"

    def test_registry_exercises_both_sources(self, recorded, monkeypatch):
        # Only the corrupt, pre-summary and in-flight runs are read from events.
        seen = spy_event_reads(monkeypatch)
        summaries = load_summaries(recorded)
        assert {p.parent.name for p in seen} == {"d-corrupt", "e-inflight", "f-presummary"}
        by_name = {s.path.name: s for s in summaries}
        assert by_name["b-sweep"].alert_kinds == ("budget_overshoot", "lambda_divergence")
        assert by_name["b-sweep"].n_alerts == 3
        assert by_name["c-train"].worker_ids == (77,)
        assert by_name["e-inflight"].n_epochs == 2  # mid-write line dropped
        assert by_name["f-presummary"].final_accuracy == 0.8
        assert by_name["h-empty"].final == {}

    def test_finalized_registry_reads_no_events(self, tmp_path, monkeypatch):
        base = record_registry(tmp_path / "runs", finalized_only=True)
        expected = oracle_summaries(base)
        seen = spy_event_reads(monkeypatch)
        assert load_summaries(base) == expected
        assert len(expected) == 5
        assert seen == []

    def test_running_manifest_is_digested_from_events(self, tmp_path):
        # A manifest marked running is read from its timeline, summary or not.
        ctx = _make_run(tmp_path, epochs=2)
        manifest = load_manifest(ctx.directory)
        manifest["status"] = "running"
        (ctx.directory / "manifest.json").write_text(json.dumps(manifest))
        with open(ctx.events_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "type": "epoch", "ts": 9e9, "epoch": 2, "loss": 0.1, "power_w": 1e-4,
                "val_accuracy": 0.99, "feasible": True, "lr": 0.1, "phase": "constrained",
            }) + "\n")
        (summary,) = load_summaries(tmp_path)
        assert summary.n_epochs == 3 and summary.final_accuracy == 0.99
        assert summary == summarize_run(ctx.directory)

    def test_finalize_stamps_the_event_digest_from_one_read(self, tmp_path, monkeypatch):
        ctx = RunContext.create(tmp_path, "train", {"seed": 0}, argv=[], git_sha="x")
        _write_epochs(ctx.logger, 3)
        ctx.logger.emit("alert", kind="budget_overshoot", epoch=2, message="m",
                        phase="constrained")
        (ctx.directory / "events.worker-5.jsonl").write_text(json.dumps({
            "type": "task_end", "ts": 0.5, "index": 0, "label": "c", "status": "ok",
            "duration_s": 0.1, "worker_id": 5,
        }) + "\n")
        seen = spy_event_reads(monkeypatch)
        ctx.finalize(exit_code=0, duration_s=1.0)
        assert sorted(p.name for p in seen) == ["events.jsonl", "events.worker-5.jsonl"]
        summary = load_manifest(ctx.directory)["summary"]
        assert summary == {
            "final": {"val_accuracy": 0.6, "power_w": 1.8e-4, "multiplier": 0.04,
                      "feasible": True},
            "n_epochs": 3,
            "n_alerts": 1,
            "alert_kinds": ["budget_overshoot"],
            "worker_ids": [5],
        }
        assert load_summaries(tmp_path) == [summarize_run(ctx.directory)]

    def test_default_order_matches_list_runs(self, recorded):
        assert [s.path for s in load_summaries(recorded)] == list_runs(recorded)

    def test_resolve_agrees_with_listing_and_cli(self, recorded, capsys):
        paths = [s.path for s in load_summaries(recorded)]
        assert resolve_run("latest", recorded) == paths[-1]
        assert resolve_run("c-train", recorded) == recorded / "c-train" in paths
        assert resolve_run("b", recorded) == recorded / "b-sweep" in paths
        # `runs show` reports the resolver's own error text
        for ref in ("nope", "zzz"):
            assert _cli(["runs", "show", ref, "--dir", str(recorded)], capsys) == \
                _missing(recorded, ref)

    def test_cli_ambiguous_prefix_error_matches_resolver(self, tmp_path, capsys):
        base = tmp_path / "runs"
        write_run(base, "run-aa", age_days=2)
        write_run(base, "run-ab", age_days=1)
        code, out, errors = _cli(["runs", "show", "run-a", "--dir", str(base)], capsys)
        assert (code, out, errors) == _missing(base, "run-a")
        assert "ambiguous" in errors[0]

    def test_cli_latest_on_empty_registry_matches_resolver(self, tmp_path, capsys):
        base = tmp_path / "runs"
        base.mkdir()
        code, out, errors = _cli(["runs", "show", "latest", "--dir", str(base)], capsys)
        assert (code, out, errors) == _missing(base, "latest")
        assert "no runs" in errors[0]

    def test_unknown_sort_rejected(self, recorded):
        with pytest.raises(ValueError, match="unknown sort"):
            load_summaries(recorded, sort="speed")

    def test_missing_and_empty_base_list_nothing(self, tmp_path):
        assert load_summaries(tmp_path / "nothing-here") == []
        assert load_summaries(tmp_path) == []

    def test_query_json_round_trips(self, recorded, capsys):
        code, out, _ = _cli(
            ["runs", "query", "--status", "completed", "--json", "--dir", str(recorded)], capsys
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["run_id"] for r in rows] == [
            "a-train-old", "c-train", "g-grid", "h-empty", "f-presummary",
        ]
        assert all(r["config_fingerprint"] for r in rows)

    def test_stray_index_file_is_ignored(self, tmp_path, capsys):
        # A file in the registry root, such as an old SQLite index, is no run.
        base = record_registry(tmp_path / "runs", finalized_only=True)
        expected = _cli(["runs", "list", "--dir", str(base)], capsys)
        (base / "leftover.db").write_bytes(b"this is not a database" * 100)
        assert _cli(["runs", "list", "--dir", str(base)], capsys) == expected

    def test_index_is_not_a_runs_command(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["runs", "index", "--dir", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["list", "query"])
    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_limit_below_one_is_a_usage_error(self, tmp_path, capsys, command, limit):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["runs", command, "--limit", limit, "--dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "limit must be >= 1" in capsys.readouterr().err


# ----------------------------------------------------------------------
class TestTruncatedTailTolerance:
    def test_summarize_run_survives_midwrite_tail(self, registry):
        summary = summarize_run(registry / "e-inflight")
        assert summary.status == "running"
        assert summary.n_epochs == 3  # the mid-write line is dropped, not fatal

    def test_read_events_tail_grace_is_last_line_only(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = json.dumps({"type": "epoch", "ts": 1.0, "epoch": 0, "loss": 0.5,
                           "power_w": 1e-3, "val_accuracy": 0.5, "feasible": True,
                           "lr": 0.1, "phase": "p"})
        path.write_text('{"broken\n' + good + "\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_events(path, tolerate_truncated_tail=True)  # corruption mid-file
        path.write_text(good + "\n" + '{"broken')
        assert len(read_events(path, tolerate_truncated_tail=True)) == 1
        with pytest.raises(ValueError):
            read_events(path)  # strict default still refuses

    def test_corrupt_manifest_listed_not_fatal(self, registry):
        corrupt = next(s for s in load_summaries(registry) if s.path.name == "d-corrupt")
        assert corrupt.status == "unknown" and corrupt.command == "?"


# ----------------------------------------------------------------------
class TestParetoAndFingerprint:
    def test_front_is_non_dominated_and_power_sorted(self, registry):
        front = accuracy_power_front(load_summaries(registry))
        ids = [s.run_id for s in front]
        # c-train (0.95 @ 1.5mW) dominates a-train-old (0.80 @ 2mW) and
        # b-sweep (0.70 @ 3mW).  d-corrupt and e-inflight tie at the
        # default coordinates (0.90 @ 1mW); the name tie-break keeps
        # d-corrupt and drops e-inflight (no strict accuracy gain).
        assert ids == ["d-corrupt", "c-train"]
        powers = [s.final_power_w for s in front]
        assert powers == sorted(powers)

    def test_runs_without_final_metrics_excluded(self, tmp_path):
        base = tmp_path / "runs"
        write_run(base, "no-epochs", epochs=0)
        assert accuracy_power_front(load_summaries(base)) == []

    def test_fingerprint_is_key_order_independent(self):
        assert config_fingerprint({"a": 1, "b": [2]}) == config_fingerprint({"b": [2], "a": 1})
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})
