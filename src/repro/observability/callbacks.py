"""Trainer callback API: per-epoch events dispatched to pluggable observers.

The training loop (:func:`repro.training.trainer.train_model` for one
network, :func:`repro.training.fleet.train_fleet` for a fleet) builds one
:class:`EpochEvent` per epoch and instance and hands it to each of that
instance's registered :class:`TrainerCallback` objects in registration
order; a ``train_model`` call's callbacks see its network and objective in
``on_train_start``.  The three stock callbacks cover the built-in behaviours:

- :class:`TraceRecorder` — fills the ``TrainResult`` trace lists (the
  trainer always registers one first, so traces are byte-identical to the
  pre-callback implementation);
- :class:`EventLogCallback` — forwards epochs and derived transitions
  (``lr_drop``, ``multiplier_update``, ``checkpoint``, ``infeasible``) to
  a :class:`~repro.observability.events.RunLogger`;
- :class:`ProgressReporter` — periodic ``logging`` INFO lines.

Field alignment: ``multiplier`` is read **after** the objective's
``on_epoch_end`` ran, i.e. it is the post-update λ produced from this
epoch's ``power`` — ``multiplier_trace[i]`` therefore pairs exactly with
``power_trace[i]``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.observability.events import RunLogger

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EpochEvent:
    """Everything observable about one completed training epoch.

    Attributes
    ----------
    epoch:
        Zero-based epoch index.
    loss:
        Task (cross-entropy) loss of the pre-step forward.
    power:
        Post-step full-batch training power in watts — the value the
        objective's dual update consumed and feasibility was judged on.
    val_accuracy:
        Validation accuracy of the post-step parameters.
    feasible:
        Whether ``power`` satisfies the objective's constraint.
    lr:
        Learning rate *after* this epoch's plateau-scheduler step.
    multiplier:
        The objective's dual variable **after** its epoch-end update
        (None for objectives without one).  Aligned with ``power``.
    is_best:
        True when this epoch became the new best feasible checkpoint.
    epoch_time_s:
        Wall time of the epoch (step + evaluations).
    epoch_step_time_s:
        Wall time of the gradient-step portion (forward + backward +
        optimizer step + projection) — the part captured-graph replay
        accelerates.
    epoch_eval_time_s:
        Wall time of the post-step evaluation portion (power forward,
        dual update, validation accuracy).
    """

    epoch: int
    loss: float
    power: float
    val_accuracy: float
    feasible: bool
    lr: float
    multiplier: float | None
    is_best: bool
    epoch_time_s: float
    epoch_step_time_s: float = 0.0
    epoch_eval_time_s: float = 0.0


class TrainerCallback:
    """Base class: override any subset of the three hooks."""

    def on_train_start(self, net, objective, settings) -> None:
        pass

    def on_epoch(self, event: EpochEvent) -> None:
        pass

    def on_train_end(self, result) -> None:
        pass


class TraceRecorder(TrainerCallback):
    """Record the trace lists that populate ``TrainResult``.

    Sampling matches the historical trainer exactly: every
    ``trace_every``-th epoch appends loss/power/val-accuracy, and the
    multiplier (when the objective exposes one) is the post-update value.
    """

    def __init__(self, trace_every: int = 1):
        if trace_every < 1:
            raise ValueError("trace_every must be >= 1")
        self.trace_every = trace_every
        self.loss_trace: list[float] = []
        self.power_trace: list[float] = []
        self.val_accuracy_trace: list[float] = []
        self.multiplier_trace: list[float] = []

    def on_epoch(self, event: EpochEvent) -> None:
        if event.epoch % self.trace_every != 0:
            return
        self.loss_trace.append(event.loss)
        self.power_trace.append(event.power)
        self.val_accuracy_trace.append(event.val_accuracy)
        if event.multiplier is not None:
            self.multiplier_trace.append(float(event.multiplier))


class EventLogCallback(TrainerCallback):
    """Emit structured run events for every epoch plus derived transitions."""

    def __init__(self, run_logger: RunLogger, phase: str = "train"):
        self.run_logger = run_logger
        self.phase = phase
        self._prev_lr: float | None = None
        self._prev_multiplier: float | None = None
        self._prev_feasible = True

    def on_train_start(self, net, objective, settings) -> None:
        # A reused instance (AL restarts, fine-tuning) must not carry the
        # previous loop's LR/λ/feasibility into the new one's transitions.
        self._prev_lr = None
        self._prev_multiplier = None
        self._prev_feasible = True

    def on_epoch(self, event: EpochEvent) -> None:
        log = self.run_logger
        if not log.enabled:
            return
        log.emit(
            "epoch",
            epoch=event.epoch,
            loss=event.loss,
            power_w=event.power,
            val_accuracy=event.val_accuracy,
            feasible=event.feasible,
            lr=event.lr,
            multiplier=event.multiplier,
            phase=self.phase,
            step_time_s=event.epoch_step_time_s,
            eval_time_s=event.epoch_eval_time_s,
        )
        if self._prev_lr is not None and event.lr < self._prev_lr:
            log.emit(
                "lr_drop", epoch=event.epoch, from_lr=self._prev_lr, to_lr=event.lr, phase=self.phase
            )
        if (
            event.multiplier is not None
            and self._prev_multiplier is not None
            and event.multiplier != self._prev_multiplier
        ):
            log.emit(
                "multiplier_update",
                epoch=event.epoch,
                multiplier=float(event.multiplier),
                phase=self.phase,
            )
        if event.is_best:
            log.emit(
                "checkpoint",
                epoch=event.epoch,
                val_accuracy=event.val_accuracy,
                power_w=event.power,
                phase=self.phase,
            )
        if self._prev_feasible and not event.feasible:
            log.emit("infeasible", epoch=event.epoch, power_w=event.power, phase=self.phase)
        self._prev_lr = event.lr
        self._prev_multiplier = event.multiplier
        self._prev_feasible = event.feasible


class ProgressReporter(TrainerCallback):
    """Periodic INFO-level progress lines through the module logger."""

    def __init__(self, every: int = 25, log: logging.Logger | None = None):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.log = log or logger

    def on_epoch(self, event: EpochEvent) -> None:
        if event.epoch % self.every != 0:
            return
        multiplier = "-" if event.multiplier is None else f"{event.multiplier:.4f}"
        self.log.info(
            "epoch %4d  loss %.4f  P %.4f mW  val %.3f  λ %s  lr %.2g%s",
            event.epoch,
            event.loss,
            event.power * 1e3,
            event.val_accuracy,
            multiplier,
            event.lr,
            "" if event.feasible else "  [infeasible]",
        )

    def on_train_end(self, result) -> None:
        self.log.info(
            "training done: %d epochs, best epoch %d, val %.3f, P %.4f mW, feasible=%s",
            result.epochs_run,
            result.best_epoch,
            result.val_accuracy,
            result.power * 1e3,
            result.feasible,
        )
