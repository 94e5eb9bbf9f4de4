"""Tests for the training-health watchdogs (repro.observability.health).

Unit tests drive :class:`HealthMonitor` with synthetic epoch events so
each watchdog's threshold logic is pinned exactly; the integration test
poisons a real network with NaN parameters and checks the abort carries a
structured diagnostic out of the real training loop.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.observability import (
    CRITICAL_KINDS,
    HealthConfig,
    HealthMonitor,
    ListSink,
    RunLogger,
    TrainingHealthError,
    validate_event,
)
from repro.observability.callbacks import EpochEvent


def _epoch(
    epoch: int,
    loss: float = 0.5,
    power: float = 1e-4,
    feasible: bool = True,
    multiplier: float | None = 0.1,
) -> EpochEvent:
    return EpochEvent(
        epoch=epoch, loss=loss, power=power, val_accuracy=0.8, feasible=feasible,
        lr=0.1, multiplier=multiplier, is_best=False, epoch_time_s=0.01,
    )


class _Objective:
    def __init__(self, power_budget=None):
        if power_budget is not None:
            self.power_budget = power_budget


class _Result:
    def __init__(self, power: float, feasible: bool):
        self.power = power
        self.feasible = feasible


def _started(monitor: HealthMonitor, budget=None) -> HealthMonitor:
    monitor.on_train_start(None, _Objective(budget), None)
    return monitor


# ----------------------------------------------------------------------
class TestWatchdogs:
    def test_healthy_run_raises_nothing(self):
        monitor = _started(HealthMonitor(abort=True), budget=1e-3)
        for i in range(10):
            monitor.on_epoch(_epoch(i))
        monitor.on_train_end(_Result(power=5e-4, feasible=True))
        assert monitor.alerts == []

    def test_non_finite_loss_fires_once(self):
        sink = ListSink()
        monitor = _started(HealthMonitor(RunLogger(sink)))
        monitor.on_epoch(_epoch(0, loss=float("nan")))
        monitor.on_epoch(_epoch(1, loss=float("nan")))
        kinds = [a["kind"] for a in monitor.alerts]
        assert kinds == ["non_finite"]
        assert [e["type"] for e in sink.events] == ["alert"]
        validate_event(sink.events[0])

    def test_non_finite_power_detected(self):
        monitor = _started(HealthMonitor())
        monitor.on_epoch(_epoch(0, power=float("inf")))
        assert monitor.alerts[0]["kind"] == "non_finite"

    def test_multiplier_divergence(self):
        config = HealthConfig(multiplier_limit=100.0)
        monitor = _started(HealthMonitor(config=config))
        monitor.on_epoch(_epoch(0, multiplier=99.0))
        assert monitor.alerts == []
        monitor.on_epoch(_epoch(1, multiplier=101.0))
        assert monitor.alerts[0]["kind"] == "multiplier_divergence"

    def test_violation_stall(self):
        config = HealthConfig(stall_window=5, stall_min_decrease=0.05)
        monitor = _started(HealthMonitor(config=config), budget=1e-4)
        # constant 50% violation, never improving
        for i in range(5):
            monitor.on_epoch(_epoch(i, power=1.5e-4, feasible=False))
        assert monitor.alerts[0]["kind"] == "violation_stall"

    def test_progressing_violation_does_not_stall(self):
        config = HealthConfig(stall_window=5, stall_min_decrease=0.05)
        monitor = _started(HealthMonitor(config=config), budget=1e-4)
        for i in range(8):
            monitor.on_epoch(_epoch(i, power=(1.5 - 0.05 * i) * 1e-4, feasible=False))
        assert monitor.alerts == []

    def test_feasible_epoch_resets_stall_window(self):
        config = HealthConfig(stall_window=4, stall_min_decrease=0.05)
        monitor = _started(HealthMonitor(config=config), budget=1e-4)
        for i in range(3):
            monitor.on_epoch(_epoch(i, power=1.5e-4, feasible=False))
        monitor.on_epoch(_epoch(3, power=0.9e-4, feasible=True))
        for i in range(4, 7):
            monitor.on_epoch(_epoch(i, power=1.5e-4, feasible=False))
        assert monitor.alerts == []

    def test_budget_overshoot_at_convergence(self):
        monitor = _started(HealthMonitor(), budget=1e-4)
        monitor.on_epoch(_epoch(0, power=2e-4, feasible=False))
        monitor.on_train_end(_Result(power=1.2e-4, feasible=False))
        assert monitor.alerts[0]["kind"] == "budget_overshoot"
        assert monitor.alerts[0]["value"] == pytest.approx(0.2)

    def test_feasible_end_is_never_overshoot(self):
        monitor = _started(HealthMonitor(), budget=1e-4)
        monitor.on_train_end(_Result(power=0.9e-4, feasible=True))
        assert monitor.alerts == []

    def test_reuse_rearms_watchdogs(self):
        """One instance across AL restarts: each loop gets fresh state."""
        monitor = _started(HealthMonitor())
        monitor.on_epoch(_epoch(0, loss=float("nan")))
        assert len(monitor.alerts) == 1
        _started(monitor)  # second training loop, same instance
        monitor.on_epoch(_epoch(0, loss=float("nan")))
        assert [a["kind"] for a in monitor.alerts] == ["non_finite", "non_finite"]


# ----------------------------------------------------------------------
class TestAbort:
    def test_abort_raises_with_diagnostic(self):
        monitor = _started(HealthMonitor(abort=True), budget=1e-3)
        monitor.on_epoch(_epoch(0, loss=0.9))
        with pytest.raises(TrainingHealthError) as excinfo:
            monitor.on_epoch(_epoch(1, loss=float("nan")))
        diag = excinfo.value.diagnostic
        assert diag["kind"] == "non_finite"
        assert diag["epoch"] == 1
        assert diag["power_budget_w"] == pytest.approx(1e-3)
        assert diag["recent"]["loss"][0] == pytest.approx(0.9)
        assert math.isnan(diag["recent"]["loss"][-1])
        assert diag["config"]["multiplier_limit"] == HealthConfig().multiplier_limit
        # the alert was recorded before the raise
        assert diag["alerts"][0]["kind"] == "non_finite"

    def test_non_critical_kinds_do_not_abort_by_default(self):
        assert "budget_overshoot" not in CRITICAL_KINDS
        monitor = _started(HealthMonitor(abort=True), budget=1e-4)
        monitor.on_train_end(_Result(power=2e-4, feasible=False))  # no raise
        assert monitor.alerts[0]["kind"] == "budget_overshoot"

    def test_abort_on_is_configurable(self):
        monitor = _started(
            HealthMonitor(abort=True, abort_on=("budget_overshoot",)), budget=1e-4
        )
        with pytest.raises(TrainingHealthError):
            monitor.on_train_end(_Result(power=2e-4, feasible=False))

    def test_no_abort_records_and_continues(self):
        monitor = _started(HealthMonitor(abort=False))
        monitor.on_epoch(_epoch(0, loss=float("nan")))
        monitor.on_epoch(_epoch(1, loss=0.4))  # run carries on
        assert len(monitor.alerts) == 1


# ----------------------------------------------------------------------
class TestNanPoisonedTraining:
    def test_real_training_loop_aborts_with_dump(self, af_surrogates, neg_surrogate):
        from repro.circuits import PNCConfig, PrintedNeuralNetwork
        from repro.datasets import load_dataset, train_val_test_split
        from repro.pdk.params import ActivationKind
        from repro.training import TrainerSettings, train_unconstrained

        data = load_dataset("iris")
        split = train_val_test_split(data, seed=0)
        net = PrintedNeuralNetwork(
            data.n_features, data.n_classes, PNCConfig(kind=ActivationKind.TANH),
            np.random.default_rng(0), af_surrogates[ActivationKind.TANH], neg_surrogate,
        )
        for p in net.parameters():
            p.data = np.full_like(p.data, np.nan)

        sink = ListSink()
        monitor = HealthMonitor(RunLogger(sink), abort=True)
        with pytest.raises(TrainingHealthError) as excinfo:
            train_unconstrained(
                net, split, settings=TrainerSettings(epochs=5, patience=5),
                callbacks=[monitor],
            )
        assert excinfo.value.diagnostic["kind"] == "non_finite"
        alert_events = [e for e in sink.events if e["type"] == "alert"]
        assert len(alert_events) == 1
        validate_event(alert_events[0])


# ----------------------------------------------------------------------
class TestCliAbortPath:
    def test_exit_code_3_and_diagnostic_json(self, monkeypatch, tmp_path, capsys):
        import json

        import repro.cli as cli

        def poisoned(args, run_logger, run_ctx=None):
            raise TrainingHealthError(
                "watchdog non_finite fired", {"kind": "non_finite", "epoch": 2}
            )

        monkeypatch.setattr(cli, "_dispatch", poisoned)
        code = cli.main(["datasets", "--run-dir", str(tmp_path)])
        assert code == 3
        run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        diag = json.loads((run_dir / "diagnostic.json").read_text())
        assert diag["kind"] == "non_finite"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["exit_code"] == 3
        err = capsys.readouterr().err
        assert "health watchdog" in err

    def test_exit_code_3_without_run_dir_dumps_to_stderr(self, monkeypatch, capsys):
        import repro.cli as cli

        def poisoned(args, run_logger, run_ctx=None):
            raise TrainingHealthError("boom", {"kind": "multiplier_divergence"})

        monkeypatch.setattr(cli, "_dispatch", poisoned)
        assert cli.main(["datasets"]) == 3
        err = capsys.readouterr().err
        assert "multiplier_divergence" in err


# ----------------------------------------------------------------------
class TestSolverUnconverged:
    """``solver_unconverged``: the activation Newton solve hit its cap."""

    @staticmethod
    def _train(af_surrogates, neg_surrogate, sink, newton_iterations=None):
        from repro.circuits import PNCConfig, PrintedNeuralNetwork
        from repro.datasets import load_dataset, train_val_test_split
        from repro.pdk.params import ActivationKind
        from repro.training import TrainerSettings, train_unconstrained

        data = load_dataset("iris")
        split = train_val_test_split(data, seed=0)
        net = PrintedNeuralNetwork(
            data.n_features, data.n_classes, PNCConfig(kind=ActivationKind.TANH),
            np.random.default_rng(0), af_surrogates[ActivationKind.TANH], neg_surrogate,
        )
        if newton_iterations is not None:
            for activation in net.activations():
                activation.transfer.newton_iterations = newton_iterations
        monitor = HealthMonitor(RunLogger(sink))
        train_unconstrained(
            net, split, settings=TrainerSettings(epochs=3, patience=3), callbacks=[monitor],
        )
        return monitor

    def test_capped_newton_raises_one_alert(self, af_surrogates, neg_surrogate):
        sink = ListSink()
        monitor = self._train(af_surrogates, neg_surrogate, sink, newton_iterations=2)
        assert [a["kind"] for a in monitor.alerts] == ["solver_unconverged"]
        assert monitor.alerts[0]["value"] > 0
        assert "solver_unconverged" not in CRITICAL_KINDS
        (event,) = [e for e in sink.events if e["type"] == "alert"]
        validate_event(event)

    def test_normal_run_raises_none(self, af_surrogates, neg_surrogate):
        monitor = self._train(af_surrogates, neg_surrogate, ListSink())
        assert monitor.alerts == []

    def test_report_lists_the_alert(self, af_surrogates, neg_surrogate, tmp_path, capsys):
        from repro.cli import main
        from repro.observability import JsonlSink

        path = tmp_path / "run.jsonl"
        run_logger = RunLogger(JsonlSink(path))
        run_logger.emit("run_start", command="train", config={}, git_sha="")
        self._train(af_surrogates, neg_surrogate, run_logger.sink, newton_iterations=2)
        run_logger.emit("run_end", exit_code=0, duration_s=1.0, metrics={})
        run_logger.close()
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "health alerts: 1" in out
        assert "[solver_unconverged]" in out
