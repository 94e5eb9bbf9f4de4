"""Training-health watchdogs: alert events + optional structured abort.

Power-constrained analog training has characteristic failure modes the
trace lists alone surface too late: the loss goes NaN after an unstable
step, the dual variable λ diverges when μ grows against an infeasible
budget, the constraint violation plateaus without ever entering the
feasible region, training "converges" to a circuit that still overshoots
the budget, or an activation's Newton solve hits its iteration cap with
elements still off the solution (``transfer_newton_unconverged_total``
grew).  :class:`HealthMonitor` is a
:class:`~repro.observability.callbacks.TrainerCallback` that detects all
five **while the run is happening**, emits schema'd ``alert`` events (see
:mod:`repro.observability.events`), and — opt-in — aborts the run with a
:class:`TrainingHealthError` carrying a structured diagnostic dump (the
recent loss/power/λ window plus the watchdog configuration), so a poisoned
16-hour sweep dies in minutes with an artifact instead of finishing with
garbage.

The monitor never changes training behaviour unless ``abort=True``: it
only observes the :class:`EpochEvent` stream.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.observability.callbacks import EpochEvent, TrainerCallback
from repro.observability.events import RunLogger
from repro.observability.metrics import get_registry

logger = logging.getLogger(__name__)

_ALERTS = get_registry().counter(
    "health_alerts", "training-health watchdog alerts raised (all kinds)"
)
#: Incremented by the transfer-model Newton solve (:mod:`repro.pdk.transfer`)
#: with the number of elements it left unconverged.
_NEWTON_UNCONVERGED = get_registry().counter(
    "transfer_newton_unconverged_total",
    "transfer-model Newton elements still at or above tol when the iteration cap hit",
)

#: Alert kinds that indicate the run is unrecoverable (default abort set).
CRITICAL_KINDS: tuple[str, ...] = ("non_finite", "multiplier_divergence")


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds of the four watchdogs (paper-scale-friendly defaults)."""

    #: λ above this (or non-finite) counts as divergence.
    multiplier_limit: float = 1e6
    #: epochs of uninterrupted infeasibility before the stall check arms.
    stall_window: int = 60
    #: minimum relative violation decrease over the window to count as progress.
    stall_min_decrease: float = 0.01
    #: relative budget overshoot tolerated in the final returned circuit.
    overshoot_rtol: float = 0.05
    #: how many recent epochs the diagnostic dump keeps per series.
    history: int = 20


class TrainingHealthError(RuntimeError):
    """An aborting watchdog fired; ``diagnostic`` is the structured dump."""

    def __init__(self, message: str, diagnostic: dict):
        super().__init__(message)
        self.diagnostic = diagnostic


class HealthMonitor(TrainerCallback):
    """Watchdog callback over the per-epoch event stream.

    Parameters
    ----------
    run_logger:
        Destination for ``alert`` events (optional — alerts are always
        also logged at WARNING level and counted in ``health_alerts``).
    config:
        Watchdog thresholds.
    abort:
        Raise :class:`TrainingHealthError` when a kind in ``abort_on``
        fires.  Off by default so sweeps record alerts without dying.
    abort_on:
        Alert kinds that trigger the abort (default: the critical kinds).
    phase:
        Phase tag stamped on emitted alerts.

    Each alert kind fires at most once per training run, so a run that
    goes NaN at epoch 40 of 500 yields one ``non_finite`` event, not 460.
    """

    def __init__(
        self,
        run_logger: RunLogger | None = None,
        config: HealthConfig | None = None,
        abort: bool = False,
        abort_on: Sequence[str] = CRITICAL_KINDS,
        phase: str = "train",
    ):
        self.run_logger = run_logger
        self.config = config or HealthConfig()
        self.abort = abort
        self.abort_on = tuple(abort_on)
        self.phase = phase
        self.alerts: list[dict] = []
        self._fired: set[str] = set()
        self._budget: float | None = None
        self._violations: list[float] = []  # one per consecutive infeasible epoch
        self._loss_hist: list[float] = []
        self._power_hist: list[float] = []
        self._multiplier_hist: list[float] = []
        self._last_epoch = -1
        self._unconverged_base = _NEWTON_UNCONVERGED.value

    # ------------------------------------------------------------------
    def on_train_start(self, net, objective, settings) -> None:
        # One monitor instance may serve several consecutive loops (AL
        # restarts, the fine-tuning pass): re-arm the watchdogs per loop.
        budget = getattr(objective, "power_budget", None)
        self._budget = float(budget) if budget else None
        self._fired.clear()
        self._violations.clear()
        self._loss_hist.clear()
        self._power_hist.clear()
        self._multiplier_hist.clear()
        self._last_epoch = -1
        self._unconverged_base = _NEWTON_UNCONVERGED.value

    def on_epoch(self, event: EpochEvent) -> None:
        self._last_epoch = event.epoch
        self._remember(self._loss_hist, event.loss)
        self._remember(self._power_hist, event.power)
        if event.multiplier is not None:
            self._remember(self._multiplier_hist, float(event.multiplier))

        if not (math.isfinite(event.loss) and math.isfinite(event.power)):
            self._alert(
                "non_finite",
                event.epoch,
                f"loss={event.loss!r} power={event.power!r} — training state is poisoned",
                value=event.loss if not math.isfinite(event.loss) else event.power,
            )

        if event.multiplier is not None:
            m = float(event.multiplier)
            if not math.isfinite(m) or m > self.config.multiplier_limit:
                self._alert(
                    "multiplier_divergence",
                    event.epoch,
                    f"λ={m!r} exceeded limit {self.config.multiplier_limit:g} — "
                    "the dual ascent is running away (budget likely unreachable)",
                    value=m,
                )

        self._check_stall(event)
        self._check_solver(event)

    def on_train_end(self, result) -> None:
        budget = self._budget
        if budget is None:
            return
        overshoot = (result.power - budget) / budget
        if not result.feasible and overshoot > self.config.overshoot_rtol:
            self._alert(
                "budget_overshoot",
                max(self._last_epoch, 0),
                f"converged at P={result.power:.4g} W, "
                f"{overshoot * 100:.1f}% above the {budget:.4g} W budget",
                value=overshoot,
            )

    # ------------------------------------------------------------------
    def _check_stall(self, event: EpochEvent) -> None:
        budget = self._budget
        if budget is None:
            return
        if event.feasible:
            self._violations.clear()
            return
        self._violations.append(max(0.0, (event.power - budget) / budget))
        window = self.config.stall_window
        if len(self._violations) < window:
            return
        first = self._violations[-window]
        last = self._violations[-1]
        if not math.isfinite(last):
            return  # non_finite watchdog owns this
        decrease = (first - last) / first if first > 0 else 0.0
        if decrease < self.config.stall_min_decrease:
            self._alert(
                "violation_stall",
                event.epoch,
                f"constraint violation stuck near {last * 100:.1f}% for {window} "
                f"infeasible epochs (decrease {decrease * 100:.2f}%)",
                value=last,
            )

    def _check_solver(self, event: EpochEvent) -> None:
        unconverged = _NEWTON_UNCONVERGED.value - self._unconverged_base
        if unconverged > 0:
            self._alert(
                "solver_unconverged",
                event.epoch,
                f"{unconverged:g} activation Newton element(s) did not converge "
                "within the iteration cap since this loop started",
                value=unconverged,
            )

    def _remember(self, series: list[float], value: float) -> None:
        series.append(float(value))
        if len(series) > self.config.history:
            del series[0]

    def _alert(self, kind: str, epoch: int, message: str, value: float | None = None) -> None:
        if kind in self._fired:
            return
        self._fired.add(kind)
        _ALERTS.inc()
        logger.warning("health alert [%s] at epoch %d: %s", kind, epoch, message)
        record = {"kind": kind, "epoch": epoch, "message": message, "phase": self.phase}
        if value is not None and math.isfinite(value):
            record["value"] = float(value)
        self.alerts.append(record)
        if self.run_logger is not None and self.run_logger.enabled:
            self.run_logger.emit("alert", **record)
        if self.abort and kind in self.abort_on:
            raise TrainingHealthError(
                f"health watchdog {kind!r} fired at epoch {epoch}: {message}",
                diagnostic=self.diagnostic(kind, epoch, message),
            )

    def diagnostic(self, kind: str, epoch: int, message: str) -> dict:
        """The structured dump an aborting watchdog attaches to its error."""
        return {
            "kind": kind,
            "epoch": epoch,
            "message": message,
            "phase": self.phase,
            "power_budget_w": self._budget,
            "recent": {
                "loss": list(self._loss_hist),
                "power_w": list(self._power_hist),
                "multiplier": list(self._multiplier_hist),
            },
            "alerts": list(self.alerts),
            "config": asdict(self.config),
        }
