"""Tests for the parallel experiment engine and the vectorized power path.

Covers the engine contract (ordering, crash isolation, serial fallback,
progress), the serial-vs-parallel determinism guarantees of the wired
experiment entry points, the surrogate disk-cache hardening (atomic write,
corrupt-file tolerance), the finetune import-shadowing regression, and the
forward-pass call-count micro-benchmarks backing the vectorization.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.circuits import PNCConfig, PrintedNeuralNetwork
from repro.observability.events import ListSink, RunLogger
from repro.observability.metrics import get_registry
from repro.parallel import (
    NetworkSpec,
    TaskFailedError,
    TaskProgressReporter,
    collect_values,
    map_tasks,
)
from repro.pdk.params import ActivationKind

from tests.conftest import TEST_SURROGATE_EPOCHS, TEST_SURROGATE_NQ


# ----------------------------------------------------------------------
# Engine contract
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SquareTask:
    n: int

    @property
    def label(self) -> str:
        return f"square:{self.n}"

    def run(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class FailingTask:
    @property
    def label(self) -> str:
        return "failing"

    def run(self):
        raise ValueError("intentional test failure")


@dataclass(frozen=True)
class DyingTask:
    """Kills its worker process outright (no Python exception to catch)."""

    @property
    def label(self) -> str:
        return "dying"

    def run(self):
        os._exit(3)


@dataclass(frozen=True)
class SpanTask:
    """Opens ``n`` nested span pairs (``task.outer/task.inner``)."""

    n: int

    @property
    def label(self) -> str:
        return f"spans:{self.n}"

    def run(self) -> int:
        from repro.observability.tracing import trace_span

        for _ in range(self.n):
            with trace_span("task.outer"):
                with trace_span("task.inner"):
                    pass
        return self.n


@dataclass(frozen=True)
class BlasThreadsTask:
    """Reads back the BLAS thread count its worker runs with."""

    @property
    def label(self) -> str:
        return "blas-threads"

    def run(self) -> int | None:
        from repro.parallel.engine import blas_threads

        return blas_threads()


class TestMapTasks:
    def test_ordered_results_across_workers(self):
        outcomes = map_tasks([SquareTask(i) for i in range(6)], n_jobs=2)
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert [o.index for o in outcomes] == list(range(6))
        assert all(o.ok for o in outcomes)

    def test_serial_fallback_matches_parallel(self):
        tasks = [SquareTask(i) for i in range(4)]
        serial = map_tasks(tasks, n_jobs=1)
        parallel = map_tasks(tasks, n_jobs=2)
        assert [o.value for o in serial] == [o.value for o in parallel]
        # the serial fallback runs inline — same process, no pool
        assert all(o.worker_pid == os.getpid() for o in serial)

    def test_failed_task_is_isolated(self):
        outcomes = map_tasks([SquareTask(1), FailingTask(), SquareTask(2)], n_jobs=2)
        assert [o.ok for o in outcomes] == [True, False, True]
        error = outcomes[1].error
        assert error.error_type == "ValueError"
        assert "intentional test failure" in error.message
        assert "intentional test failure" in error.traceback_text

    def test_dead_worker_yields_error_records_not_exception(self):
        outcomes = map_tasks([SquareTask(1), DyingTask(), SquareTask(2)], n_jobs=2)
        assert len(outcomes) == 3
        assert not outcomes[1].ok
        assert outcomes[1].error is not None

    def test_pool_workers_share_the_cores_between_their_blas(self):
        from repro.parallel.engine import blas_threads

        if blas_threads() is None:
            pytest.skip("this BLAS does not export a thread-count getter")
        outcomes = map_tasks([BlasThreadsTask(), BlasThreadsTask()], n_jobs=2)
        expected = max(1, (os.cpu_count() or 1) // 2)
        assert [o.value for o in outcomes] == [expected, expected]

    def test_serial_error_isolation(self):
        outcomes = map_tasks([FailingTask(), SquareTask(3)], n_jobs=1)
        assert [o.ok for o in outcomes] == [False, True]
        assert outcomes[1].value == 9

    def test_progress_callback_sequencing(self):
        seen = []
        map_tasks(
            [SquareTask(i) for i in range(3)],
            n_jobs=1,
            progress=lambda outcome, done, total: seen.append((outcome.label, done, total)),
        )
        assert seen == [("square:0", 1, 3), ("square:1", 2, 3), ("square:2", 3, 3)]

    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ValueError):
            map_tasks([SquareTask(1)], n_jobs=0)

    def test_empty_task_list(self):
        assert map_tasks([], n_jobs=4) == []

    def test_collect_values_raises_aggregate(self):
        outcomes = map_tasks([SquareTask(1), FailingTask()], n_jobs=1)
        with pytest.raises(TaskFailedError) as excinfo:
            collect_values(outcomes)
        assert "failing" in str(excinfo.value)
        assert len(excinfo.value.errors) == 1


@dataclass(frozen=True)
class SlowTask:
    """Sleeps long enough to still be queued when an earlier task fails."""

    n: int
    delay: float = 0.2

    @property
    def label(self) -> str:
        return f"slow:{self.n}"

    def run(self) -> int:
        import time

        time.sleep(self.delay)
        return self.n


class TestAbortPolicy:
    def test_serial_cancel_skips_remaining(self):
        outcomes = map_tasks(
            [SquareTask(1), FailingTask(), SquareTask(2), SquareTask(3)],
            n_jobs=1,
            on_error="cancel",
        )
        assert [o.ok for o in outcomes] == [True, False, False, False]
        assert outcomes[1].error.kind == "error"
        for outcome in outcomes[2:]:
            assert outcome.error.kind == "cancelled"
            assert outcome.error.error_type == "Cancelled"
            assert "failing" in outcome.error.message
        # slots still line up with submission order
        assert [o.index for o in outcomes] == list(range(4))

    def test_serial_default_drains_everything(self):
        outcomes = map_tasks([FailingTask(), SquareTask(2)], n_jobs=1)
        assert [o.ok for o in outcomes] == [False, True]
        assert outcomes[1].value == 4

    def test_pool_cancel_produces_cancelled_records(self):
        # First task fails immediately; the slow tail is still queued when
        # its failure is collected, so at least the last tasks get cancelled.
        tasks = [FailingTask()] + [SlowTask(i) for i in range(8)]
        outcomes = map_tasks(tasks, n_jobs=2, on_error="cancel")
        assert len(outcomes) == 9
        assert [o.index for o in outcomes] == list(range(9))
        assert not outcomes[0].ok and outcomes[0].error.kind == "error"
        cancelled = [o for o in outcomes if o.error is not None and o.error.kind == "cancelled"]
        assert cancelled, "expected queued tasks to be cancelled after the failure"
        for outcome in cancelled:
            assert not outcome.ok
            assert "failing" in outcome.error.message
        # already-running tasks are never killed mid-task — they finish ok
        for outcome in outcomes[1:]:
            if outcome.ok:
                assert outcome.value == int(outcome.label.split(":")[1])

    def test_pool_continue_is_unaffected(self):
        tasks = [FailingTask()] + [SquareTask(i) for i in range(4)]
        outcomes = map_tasks(tasks, n_jobs=2)
        assert [o.ok for o in outcomes] == [False, True, True, True, True]

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="on_error"):
            map_tasks([SquareTask(1)], n_jobs=1, on_error="explode")

    def test_progress_reports_cancelled_status(self):
        sink = ListSink()
        reporter = TaskProgressReporter(run_logger=RunLogger(sink))
        counter = get_registry().counter("parallel_tasks_cancelled", "")
        before = counter.value

        map_tasks(
            [FailingTask(), SquareTask(2)], n_jobs=1, on_error="cancel", progress=reporter
        )

        assert counter.value - before == 1
        assert [e["status"] for e in sink.events] == ["error", "cancelled"]
        assert "cancelled by on_error='cancel'" in sink.events[1]["error"]
        assert sink.events[1]["done"] == 2 and sink.events[1]["total"] == 2


class TestTaskProgressReporter:
    def test_emits_task_events_and_counts(self):
        sink = ListSink()
        reporter = TaskProgressReporter(run_logger=RunLogger(sink))
        completed = get_registry().counter("parallel_tasks_completed", "")
        failed = get_registry().counter("parallel_tasks_failed", "")
        before_ok, before_err = completed.value, failed.value

        map_tasks([SquareTask(1), FailingTask()], n_jobs=1, progress=reporter)

        assert completed.value - before_ok == 1
        assert failed.value - before_err == 1
        assert [e["type"] for e in sink.events] == ["task", "task"]
        assert sink.events[0]["status"] == "ok"
        assert sink.events[1]["status"] == "error"
        assert "intentional test failure" in sink.events[1]["error"]
        assert sink.events[1]["done"] == 2 and sink.events[1]["total"] == 2


# ----------------------------------------------------------------------
# Worker telemetry: shard files, event attribution, metrics forwarding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CountingTask:
    """Increments a named counter in whichever process runs it."""

    name: str
    n: int

    @property
    def label(self) -> str:
        return f"count:{self.n}"

    def run(self) -> int:
        get_registry().counter(self.name, "").inc(self.n)
        return self.n


class TestWorkerSpanProfile:
    """A profiling parent gets its pool workers' spans in its own profile."""

    @pytest.fixture(autouse=True)
    def _clean_tracer(self):
        from repro.observability.tracing import disable_tracing, get_tracer

        disable_tracing()
        get_tracer().reset()
        yield
        disable_tracing()
        get_tracer().reset()

    @staticmethod
    def _counts(profile):
        return {item["path"]: item["count"] for item in profile}

    def test_pool_profile_equals_inline_profile(self):
        from repro.observability.tracing import get_tracer, trace_span

        tracer = get_tracer()
        tracer.enable()
        profiles = {}
        for n_jobs in (1, 2):
            tracer.reset()
            with trace_span("sweep"):
                outcomes = map_tasks([SpanTask(n) for n in (1, 2, 3)], n_jobs=n_jobs)
            assert [o.value for o in outcomes] == [1, 2, 3]
            profiles[n_jobs] = self._counts(tracer.profile())
        assert profiles[2] == profiles[1] == {
            "sweep": 1, "sweep/task.outer": 6, "sweep/task.outer/task.inner": 6,
        }

    def test_pool_outcomes_carry_span_deltas_only_when_profiling(self):
        from repro.observability.tracing import get_tracer

        assert all(o.spans is None for o in map_tasks([SpanTask(2), SpanTask(1)], n_jobs=2))
        get_tracer().enable()
        outcomes = map_tasks([SpanTask(2), SpanTask(1)], n_jobs=2)
        assert [o.spans[("task.outer",)][0] for o in outcomes] == [2, 1]
        assert all(o.spans[("task.outer",)][1] >= 0.0 for o in outcomes)

    def test_cli_grid_profile_contains_worker_training_spans(self, capsys):
        from repro.cli import main

        main(["grid", "iris", "--budgets", "0.4", "--epochs", "3", "--jobs", "2",
              "--profile"])
        out = capsys.readouterr().out
        assert "no spans recorded" not in out
        breakdown = out.split("span breakdown:", 1)[1]
        assert "trainer.epoch" in breakdown and "trainer.step" in breakdown


class TestWorkerTelemetry:
    def _read_shards(self, run_dir):
        from repro.observability.events import read_events

        events = []
        for shard in sorted(run_dir.glob("events.worker-*.jsonl")):
            events.extend(read_events(shard))  # strict: shards are schema-valid
        return events

    def test_pool_shards_are_attributed_and_metrics_aggregate(self, tmp_path):
        from repro.parallel.telemetry import WorkerTelemetry

        telemetry = WorkerTelemetry(run_dir=str(tmp_path))
        counter = get_registry().counter("test_pool_increments", "")
        before = counter.value
        outcomes = map_tasks(
            [CountingTask("test_pool_increments", n) for n in (1, 2, 3)],
            n_jobs=2, telemetry=telemetry,
        )
        # parent registry aggregates the worker deltas: 1 + 2 + 3
        assert counter.value - before == 6
        assert all(o.ok for o in outcomes)
        assert all(o.metrics is not None for o in outcomes)
        assert all(o.metrics.get("test_pool_increments") == o.value for o in outcomes)

        events = self._read_shards(tmp_path)
        starts = [e for e in events if e["type"] == "task_start"]
        ends = [e for e in events if e["type"] == "task_end"]
        assert len(starts) == 3 and len(ends) == 3
        assert all("worker_id" in e and "task_id" in e for e in events)
        assert {e["task_id"] for e in ends} == {"count:1", "count:2", "count:3"}
        assert all(e["status"] == "ok" for e in ends)
        # the shard filename matches the worker_id stamped inside it
        for shard in tmp_path.glob("events.worker-*.jsonl"):
            pid = int(shard.stem.split("-")[-1])
            from repro.observability.events import read_events

            assert {e["worker_id"] for e in read_events(shard)} == {pid}

    def test_serial_telemetry_writes_shard_without_double_count(self, tmp_path):
        from repro.parallel.telemetry import WorkerTelemetry

        telemetry = WorkerTelemetry(run_dir=str(tmp_path))
        counter = get_registry().counter("test_serial_increments", "")
        before = counter.value
        outcomes = map_tasks(
            [CountingTask("test_serial_increments", n) for n in (2, 5)],
            n_jobs=1, telemetry=telemetry,
        )
        # inline runs mutate the registry directly; deltas are NOT re-merged
        assert counter.value - before == 7
        assert all(o.worker_pid == os.getpid() for o in outcomes)
        events = self._read_shards(tmp_path)
        assert {e["worker_id"] for e in events} == {os.getpid()}
        assert len([e for e in events if e["type"] == "task_end"]) == 2

    def test_failed_task_end_event_carries_error(self, tmp_path):
        from repro.parallel.telemetry import WorkerTelemetry

        outcomes = map_tasks(
            [FailingTask()], n_jobs=1, telemetry=WorkerTelemetry(run_dir=str(tmp_path))
        )
        assert not outcomes[0].ok
        ends = [e for e in self._read_shards(tmp_path) if e["type"] == "task_end"]
        assert ends[0]["status"] == "error"
        assert "intentional test failure" in ends[0]["error"]

    def test_no_telemetry_means_no_shards_and_no_metrics(self, tmp_path):
        outcomes = map_tasks([SquareTask(2)], n_jobs=1)
        assert outcomes[0].metrics is None
        assert list(tmp_path.glob("events.worker-*.jsonl")) == []

    def test_worker_callbacks_inactive_by_default(self):
        from repro.parallel.telemetry import worker_callbacks, worker_run_logger

        assert worker_run_logger() is None
        assert worker_callbacks() == []

    def test_worker_callbacks_active_inside_bound_task(self, tmp_path):
        from repro.observability.callbacks import EventLogCallback
        from repro.observability.health import HealthMonitor
        from repro.parallel.telemetry import (
            WorkerTelemetry,
            bind_task,
            unbind_task,
            worker_callbacks,
        )

        bind_task(WorkerTelemetry(run_dir=str(tmp_path)), task_id="cell-0")
        try:
            callbacks = worker_callbacks(phase="constrained")
            assert [type(c) for c in callbacks] == [EventLogCallback, HealthMonitor]
            assert callbacks[0].phase == "constrained"
            callbacks[0].run_logger.emit(
                "checkpoint", epoch=1, val_accuracy=0.9, power_w=1e-4, phase="constrained"
            )
        finally:
            unbind_task()
        events = self._read_shards(tmp_path)
        checkpoint = next(e for e in events if e["type"] == "checkpoint")
        assert checkpoint["worker_id"] == os.getpid()
        assert checkpoint["task_id"] == "cell-0"

    def test_default_telemetry_install_and_clear(self, tmp_path):
        from repro.parallel.telemetry import (
            WorkerTelemetry,
            default_telemetry,
            set_default_telemetry,
        )

        assert default_telemetry() is None
        telemetry = WorkerTelemetry(run_dir=str(tmp_path))
        set_default_telemetry(telemetry)
        try:
            assert default_telemetry() is telemetry
            map_tasks([SquareTask(3)], n_jobs=1)  # picks up the default
            assert list(tmp_path.glob("events.worker-*.jsonl"))
        finally:
            set_default_telemetry(None)
        assert default_telemetry() is None


# ----------------------------------------------------------------------
# Serial-vs-parallel determinism of the wired experiment entry points
# ----------------------------------------------------------------------
def _tiny_config():
    from repro.evaluation.experiments import ExperimentConfig

    return ExperimentConfig(
        epochs=4,
        patience=2,
        warmup_epochs=1,
        anneal_epochs=2,
        seed=0,
        surrogate_n_q=TEST_SURROGATE_NQ,
        surrogate_epochs=TEST_SURROGATE_EPOCHS,
        finetune=False,
    )


class TestSerialParallelDeterminism:
    def test_grid_bit_identical(self, af_surrogates):
        from repro.evaluation.experiments import run_dataset_grid

        config = _tiny_config()
        kwargs = dict(
            dataset_names=["iris"],
            kinds=(ActivationKind.TANH,),
            budget_fractions=(0.4, 0.8),
            config=config,
        )
        serial = run_dataset_grid(n_jobs=1, **kwargs)
        parallel = run_dataset_grid(n_jobs=2, **kwargs)

        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert (a.dataset, a.kind, a.budget_fraction) == (b.dataset, b.kind, b.budget_fraction)
            assert a.accuracy == b.accuracy
            assert a.power_w == b.power_w
            assert a.device_count == b.device_count
            assert a.budget_w == b.budget_w and a.max_power_w == b.max_power_w
            assert a.result.feasible == b.result.feasible
            assert a.result.power_trace == b.result.power_trace
            for key in a.result.state:
                assert np.array_equal(a.result.state[key], b.result.state[key])

    def test_penalty_sweep_task_path_matches_legacy_loop(self, af_surrogates):
        from repro.evaluation.experiments import dataset_split, network_spec
        from repro.training import TrainerSettings
        from repro.training.penalty import penalty_pareto_sweep
        from tests.serial_oracle import penalty_sweep_oracle

        config = _tiny_config()
        spec = network_spec("iris", ActivationKind.TANH, config)
        split = dataset_split("iris", seed=config.seed)
        settings = TrainerSettings(epochs=2, patience=2)
        kwargs = dict(n_alphas=2, n_seeds=1, settings=settings)

        legacy = penalty_sweep_oracle(spec.build, split, **kwargs)
        tasked = penalty_pareto_sweep(net_spec=spec, **kwargs)
        sharded = penalty_pareto_sweep(net_spec=spec, n_jobs=2, **kwargs)

        assert tasked.errors == [] and sharded.errors == []
        for sweep in (tasked, sharded):
            assert np.array_equal(legacy.points(), sweep.points())
            for a, b in zip(legacy.results, sweep.results):
                assert a.device_count == b.device_count

    def test_penalty_sweep_parallel_requires_spec(self):
        from repro.training.penalty import penalty_pareto_sweep

        with pytest.raises(ValueError):
            penalty_pareto_sweep(lambda seed: None, None, n_alphas=1, n_seeds=1, n_jobs=2)

    def test_monte_carlo_chunk_invariant(self, af_surrogates, neg_surrogate, rng):
        from repro.evaluation.montecarlo import run_monte_carlo
        from repro.pdk.variation import VariationSpec

        net = PrintedNeuralNetwork(
            4, 3, PNCConfig(kind=ActivationKind.TANH), np.random.default_rng(7),
            af_surrogates[ActivationKind.TANH], neg_surrogate,
        )
        net.eval()
        x = rng.random((12, 4))
        y = rng.integers(0, 3, size=12)
        spec = VariationSpec()
        kwargs = dict(n_samples=6, seed=3, power_budget=1e-3, accuracy_floor=0.3)

        serial = run_monte_carlo(net, x, y, spec, n_jobs=1, **kwargs)
        parallel = run_monte_carlo(net, x, y, spec, n_jobs=2, **kwargs)

        assert np.array_equal(serial.accuracies, parallel.accuracies)
        assert np.array_equal(serial.powers, parallel.powers)
        assert serial.nominal_power == parallel.nominal_power
        # the caller's net is restored by both paths
        third = run_monte_carlo(net, x, y, spec, n_jobs=1, **kwargs)
        assert np.array_equal(serial.accuracies, third.accuracies)


# ----------------------------------------------------------------------
# Surrogate disk cache: atomic write, validation, lock protocol
# ----------------------------------------------------------------------
class TestSurrogateCache:
    def _tiny_model(self):
        from repro.autograd import nn
        from repro.pdk.params import negation_design_space
        from repro.power.surrogate import Normalization, SurrogatePowerModel

        space = negation_design_space()
        d = space.dimension + 1
        network = nn.mlp(d, [4], 1, rng=np.random.default_rng(0), activation=nn.TanhLayer)
        norm = Normalization(
            log_mask=np.zeros(d, dtype=bool), mean=np.zeros(d), std=np.ones(d)
        )
        return SurrogatePowerModel(network, norm, space, None, "tiny"), space

    def test_save_is_atomic_and_roundtrips(self, tmp_path):
        from repro.power.surrogate import load_surrogate

        model, space = self._tiny_model()
        path = tmp_path / "surrogate-test.npz"
        model.save(path)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp-*")) == []

        loaded = load_surrogate(path, space, label="tiny")
        q = [Tensor(np.array(v)) for v in space.center()]
        v = Tensor(np.linspace(-0.5, 0.5, 5).reshape(-1, 1))
        with no_grad():
            assert np.array_equal(
                model.predict_tensor(q, v).data, loaded.predict_tensor(q, v).data
            )

    def test_load_rejects_missing_keys(self, tmp_path):
        from repro.power.surrogate import load_surrogate

        path = tmp_path / "broken.npz"
        with open(path, "wb") as fh:
            np.savez(fh, unrelated=np.zeros(3))
        _, space = self._tiny_model()
        with pytest.raises(ValueError, match="missing keys"):
            load_surrogate(path, space)

    def test_corrupt_cache_file_is_discarded(self, tmp_path):
        from repro.power.surrogate import _load_cached

        model, space = self._tiny_model()
        path = tmp_path / "surrogate-x.npz"
        path.write_bytes(b"PK\x03\x04 definitely not a finished zip")
        assert _load_cached(path, space, "x") is None
        # a valid file loads
        model.save(path)
        assert _load_cached(path, space, "x") is not None
        # absent file → None, no exception
        assert _load_cached(tmp_path / "absent.npz", space, "x") is None

    def test_get_cached_surrogate_recovers_from_corruption(self, tmp_path, monkeypatch):
        """A truncated cache file triggers a refit + rewrite, not a crash."""
        import repro.power.surrogate as surrogate_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(surrogate_mod, "_MEMORY_CACHE", {})
        key = "negation-q40-e2-s0-v4"
        bad = tmp_path / f"surrogate-{key}.npz"
        bad.write_bytes(b"\x00\x01 truncated")

        model = surrogate_mod.get_cached_surrogate("negation", n_q=40, epochs=2)
        assert model is not None
        # the corrupt file was replaced by a loadable one
        assert surrogate_mod._load_cached(bad, model.space, "negation") is not None

    def test_lock_is_reentrant_across_processes(self, tmp_path, monkeypatch):
        """The lock context degrades gracefully and leaves a lock file."""
        import repro.power.surrogate as surrogate_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with surrogate_mod._surrogate_lock("k1"):
            pass
        assert (tmp_path / "surrogate-k1.lock").exists()


# ----------------------------------------------------------------------
# Finetune import-shadowing regression (run_budget_experiment)
# ----------------------------------------------------------------------
class TestFinetuneWiring:
    def test_run_finetune_is_the_function_not_the_module(self):
        # `import repro.training.finetune` itself resolves to the *function*
        # (the package __init__ rebinds the attribute) — the very shadowing
        # this guards against; go through sys.modules for the real module.
        import importlib

        import repro.evaluation.experiments as experiments

        finetune_module = importlib.import_module("repro.training.finetune")
        assert inspect.isfunction(experiments.run_finetune)
        assert experiments.run_finetune is finetune_module.finetune

    def test_budget_experiment_executes_finetune_path(self, af_surrogates, monkeypatch):
        import repro.evaluation.experiments as experiments

        calls = []

        def fake_finetune(net, split, power_budget, mu=2.0, settings=None, **kwargs):
            calls.append(power_budget)
            from repro.training.trainer import TrainResult

            return TrainResult(
                train_accuracy=1.0, val_accuracy=1.0, test_accuracy=1.0,
                power=power_budget * 0.5, feasible=True, device_count=1,
                epochs_run=1, best_epoch=0,
            )

        monkeypatch.setattr(experiments, "run_finetune", fake_finetune)
        config = _tiny_config()
        config.finetune = True
        config.finetune_epochs = 1
        record = experiments.run_budget_experiment(
            "iris", ActivationKind.TANH, 0.5, config, max_power_w=2e-3
        )
        assert calls == [pytest.approx(1e-3)]
        # the stubbed finetune result wins (feasible, accuracy 1.0)
        assert record.result.test_accuracy == 1.0


# ----------------------------------------------------------------------
# Vectorized power path: call-count micro-benchmarks + equivalence
# ----------------------------------------------------------------------
class TestVectorizedPowerPath:
    @pytest.fixture
    def net(self, af_surrogates, neg_surrogate):
        return PrintedNeuralNetwork(
            4, 3, PNCConfig(kind=ActivationKind.TANH), np.random.default_rng(0),
            af_surrogates[ActivationKind.TANH], neg_surrogate,
        )

    def test_forward_with_power_call_counts(self, af_surrogates, neg_surrogate, rng):
        """At any depth >= 2, one forward = 1 forward_call, 3 surrogate evals
        (stacked P^AF, the input layer's P^N alone, the deeper layers' P^N
        stacked) and exactly n_layers effective-θ materializations; a
        captured forward folds the input layer's P^N as a constant."""
        from repro.autograd.graph import CapturedGraph
        from repro.autograd.tensor import graph_capture

        registry = get_registry()
        surrogate_evals = registry.counter("surrogate_evals", "")
        theta_computes = registry.counter("effective_theta_computes", "")
        forward_calls = registry.counter("forward_calls", "")
        x = Tensor(rng.random((20, 4)))

        for hidden in ((3,), (3, 3)):
            net = PrintedNeuralNetwork(
                4, 3, PNCConfig(kind=ActivationKind.TANH, hidden=hidden),
                np.random.default_rng(0), af_surrogates[ActivationKind.TANH], neg_surrogate,
            )
            with no_grad():
                s0, t0, f0 = surrogate_evals.value, theta_computes.value, forward_calls.value
                net.forward_with_power(x)
                assert forward_calls.value - f0 == 1
                assert surrogate_evals.value - s0 == 3
                assert theta_computes.value - t0 == net.n_layers

            # The input layer's P^N reads only x, the fixed negation q and the
            # frozen surrogate: every kernel of its call folds (its output is
            # the first predict_tensor result), while the power it feeds moves.
            first: list[Tensor] = []
            surrogate = net.neg_surrogate
            predict = surrogate.predict_tensor

            def recording_predict(*args):
                out = predict(*args)
                first.append(out)
                return out

            surrogate.predict_tensor = recording_predict
            try:
                with no_grad(), graph_capture():
                    logits, breakdown = net.forward_with_power(x)
            finally:
                del surrogate.predict_tensor
            graph = CapturedGraph((logits, breakdown.total))
            constant = {
                id(out): const for (_m, _f, _s, out), const in zip(graph._schedule, graph._constant)
            }
            assert constant[id(first[0].data)]
            assert not constant[id(breakdown.negation.data)]
            assert 0 < graph.n_constant < graph.n_ops

    def test_device_count_materializes_theta_once_per_crossbar(self, net):
        theta_computes = get_registry().counter("effective_theta_computes", "")
        t0 = theta_computes.value
        net.device_count()
        assert theta_computes.value - t0 == net.n_layers
        t0 = theta_computes.value
        net.hard_counts()
        assert theta_computes.value - t0 == net.n_layers

    def test_batched_predict_matches_per_group(self, af_surrogates, rng):
        surrogate = af_surrogates[ActivationKind.TANH]
        center = surrogate.space.center()
        g1 = ([Tensor(np.array(v)) for v in center], Tensor(rng.random((7, 1))))
        g2 = ([Tensor(np.array(v * 0.9)) for v in center], Tensor(rng.random((4, 1))))
        with no_grad():
            batched = surrogate.predict_tensor_batched([g1, g2])
            single = [surrogate.predict_tensor(*g1), surrogate.predict_tensor(*g2)]
        for b, s in zip(batched, single):
            assert b.shape == s.shape
            np.testing.assert_allclose(b.data, s.data, rtol=1e-12)

    def test_batched_power_breakdown_matches_per_layer(self, net, rng):
        """The stacked assembly equals per-layer predict_tensor calls."""
        x = Tensor(rng.random((15, 4)))
        with no_grad():
            _, breakdown = net.forward_with_power(x)
            # reference: per-layer calls through the analytic wiring path
            per_layer = []
            signal = x
            for crossbar, activation in zip(net.crossbars(), net.activations()):
                v_z = crossbar(signal)
                per_layer.append((signal, v_z, crossbar, activation))
                signal = activation(v_z)
            from repro.power.counts import (
                straight_through_column_activity,
                straight_through_row_negativity,
            )

            threshold = net.config.pdk.prune_threshold_us
            activation_power = 0.0
            negation_power = 0.0
            for layer_in, v_z, crossbar, activation in per_layer:
                theta = crossbar.effective_theta()
                row = straight_through_row_negativity(theta, threshold=threshold)
                col = straight_through_column_activity(theta, threshold=threshold)
                negation_power += float(
                    net._negation_power(layer_in, crossbar, row).data
                )
                per_circuit = activation.power_per_circuit(
                    v_z, batch_limit=net.config.power_batch_limit
                )
                activation_power += float((col * per_circuit).sum().data)
        np.testing.assert_allclose(float(breakdown.activation.data), activation_power, rtol=1e-10)
        np.testing.assert_allclose(float(breakdown.negation.data), negation_power, rtol=1e-10)

    def test_gradients_flow_through_batched_path(self, net, rng):
        x = Tensor(rng.random((10, 4)))
        _, breakdown = net.forward_with_power(x)
        breakdown.total.backward()
        assert all(p.grad is not None for p in net.parameters())
        assert any(np.any(p.grad != 0) for p in net.parameters())


# ----------------------------------------------------------------------
# NetworkSpec + task pickling
# ----------------------------------------------------------------------
class TestTaskSpecs:
    def test_network_spec_build_is_deterministic(self, af_surrogates):
        spec = NetworkSpec(
            dataset="iris", kind=ActivationKind.TANH,
            surrogate_n_q=TEST_SURROGATE_NQ, surrogate_epochs=TEST_SURROGATE_EPOCHS,
        )
        a, b = spec.build(5), spec.build(5)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(pa.data, pb.data)

    def test_tasks_pickle_roundtrip(self):
        import pickle

        from repro.parallel import BudgetTask, FleetSweepChunkTask, MaxPowerTask

        config = _tiny_config()
        spec = NetworkSpec(dataset="iris", kind=ActivationKind.TANH)
        for task in (
            MaxPowerTask("iris", ActivationKind.TANH, config),
            BudgetTask("iris", ActivationKind.TANH, 0.4, 1e-3, config),
            FleetSweepChunkTask(spec, pairs=((0.5, 1), (0.75, 0)), indices=(2, 3),
                                instances=4, chunk_index=1),
        ):
            clone = pickle.loads(pickle.dumps(task))
            assert clone == task
            assert clone.label == task.label
