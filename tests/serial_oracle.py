"""The serial training loop and the per-point penalty sweep, kept as test oracles.

``repro.training`` has one epoch loop: :func:`repro.training.train_model`
runs the fleet loop with one instance.  This module keeps the serial loop
that loop replaced — :func:`train_model` below, verbatim — together with
the objectives' losses as they were written before their per-instance
form (0-d leaves, scalar penalty scale, branching PHR), so tests can show
that the one loop trains every objective bit for bit as the serial code
did.  It runs on the library's own step/eval/val engine (``_GraphEngine``
over the net's own 2-D leaves) and forward.

Only the reference losses are new code here; they replace an objective's
``training_loss`` and leave its state and hooks (``on_epoch_end``,
``is_feasible``, λ, μ) to the wrapped objective.  One known difference:
this loop reports ``epochs_run=1`` when no epoch ran.

:func:`penalty_sweep_oracle` is the penalty sweep as it ran before every
sweep became a stacked fleet: one serial training per (α, seed) point, in
α-major order.  :func:`repro.training.penalty_pareto_sweep` must reproduce
it point for point.
"""

from __future__ import annotations

import logging
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.autograd import functional as F
from repro.autograd import optim
from repro.autograd.tensor import Tensor, constant_of
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.datasets.splits import DataSplit
from repro.observability.callbacks import EpochEvent, TraceRecorder, TrainerCallback
from repro.observability.tracing import trace_span
from repro.training.augmented_lagrangian import AugmentedLagrangianObjective
from repro.training.fleet import (
    _EPOCH_EVAL_TIME,
    _EPOCH_STEP_TIME,
    _EPOCH_TIME,
    _POWER_VIOLATION,
)
from repro.training.multi_constraint import PowerAreaObjective
from repro.training.penalty import ParetoSweepResult, PenaltyObjective
from repro.training.trainer import (
    Objective,
    TrainResult,
    TrainerSettings,
    _GraphEngine,
    _accuracy_only,
    evaluate_model,
)

logger = logging.getLogger(__name__)


class _ReferenceLoss:
    """An objective with its loss replaced; everything else is the objective's."""

    def __init__(self, objective):
        self.objective = objective

    def __getattr__(self, name):
        return getattr(self.objective, name)


class _ReferenceAL(_ReferenceLoss):
    """The AL loss over persistent 0-d PHR leaves, refreshed by ``prepare_epoch``."""

    def __init__(self, objective):
        super().__init__(objective)
        self._lam_t = Tensor(0.0)
        self._half_mu_t = Tensor(0.0)
        self._budget_t = Tensor(1.0)
        self._inv_budget_t = Tensor(1.0)
        self._inactive_t = Tensor(0.0)
        self.prepare_epoch(0)

    def prepare_epoch(self, epoch: int) -> None:
        budget = self.effective_budget(epoch)
        self._lam_t.data[...] = self.multiplier
        self._half_mu_t.data[...] = 0.5 * self.mu
        self._budget_t.data[...] = budget
        self._inv_budget_t.data[...] = 1.0 / budget
        self._inactive_t.data[...] = -(self.multiplier**2) / (2.0 * self.mu)

    def training_loss(self, loss: Tensor, power: Tensor, epoch: int) -> Tensor:
        if epoch < self.warmup_epochs:
            return loss
        self.prepare_epoch(epoch)
        c = (power - self._budget_t) * self._inv_budget_t
        active = constant_of(
            lambda cd, lam, hm: np.float64((lam + 2.0 * hm * cd) >= 0.0),
            c,
            self._lam_t,
            self._half_mu_t,
        )
        branch = c * self._lam_t + (c * c) * self._half_mu_t
        return loss + branch.where(active, self._inactive_t)


class _ReferencePenalty(_ReferenceLoss):
    def training_loss(self, loss: Tensor, power: Tensor, epoch: int) -> Tensor:
        if self.alpha == 0.0:
            return loss
        return loss + power * (self.alpha / self.reference_power)


def _branching_phr(c: Tensor, multiplier: float, mu: float) -> Tensor:
    active = (multiplier + mu * float(c.data)) >= 0.0
    if active:
        return c * multiplier + (c * c) * (0.5 * mu)
    return Tensor(-(multiplier**2) / (2.0 * mu))


class _ReferencePowerArea(_ReferenceLoss):
    def training_loss(self, loss: Tensor, power: Tensor, epoch: int) -> Tensor:
        if epoch < self.warmup_epochs:
            return loss
        c_power = (power - self.power_budget) * (1.0 / self.power_budget)
        total = loss + _branching_phr(c_power, self.multiplier_power, self.mu_power)
        devices = self.net.soft_device_count
        c_area = (devices - self.device_budget) * (1.0 / self.device_budget)
        total = total + _branching_phr(c_area, self.multiplier_area, self.mu_area)
        return total


_REFERENCE_LOSSES = {
    AugmentedLagrangianObjective: _ReferenceAL,
    PenaltyObjective: _ReferencePenalty,
    PowerAreaObjective: _ReferencePowerArea,
}


def reference_objective(objective: Objective) -> Objective:
    """``objective`` with its reference loss (itself for other objectives)."""
    wrap = _REFERENCE_LOSSES.get(type(objective))
    return objective if wrap is None else wrap(objective)


def train_model(
    net: PrintedNeuralNetwork,
    split: DataSplit,
    objective: Objective,
    settings: TrainerSettings | None = None,
    callbacks: Sequence[TrainerCallback] | None = None,
) -> TrainResult:
    """The serial loop on ``objective`` with its reference loss."""
    return _serial_train_model(net, split, reference_objective(objective), settings, callbacks)


def _serial_train_model(
    net: PrintedNeuralNetwork,
    split: DataSplit,
    objective: Objective,
    settings: TrainerSettings | None = None,
    callbacks: Sequence[TrainerCallback] | None = None,
) -> TrainResult:
    """Run the shared constrained-training loop.

    The best checkpoint is chosen by validation accuracy *among feasible
    epochs* (power within the objective's budget); if no epoch is feasible
    the minimum-power checkpoint is kept instead, so the caller always gets
    the least-violating circuit.

    ``callbacks`` are dispatched per epoch after the built-in trace
    recorder, in the order given; see
    :class:`repro.observability.callbacks.TrainerCallback`.
    """
    settings = settings or TrainerSettings()
    optimizer = optim.Adam(net.parameters(), lr=settings.lr)
    scheduler = optim.ReduceLROnPlateau(
        optimizer,
        patience=settings.patience,
        factor=settings.lr_factor,
        min_lr=settings.min_lr,
        mode="max",
    )

    recorder = TraceRecorder(settings.trace_every)
    all_callbacks: list[TrainerCallback] = [recorder, *(callbacks or [])]
    for callback in all_callbacks:
        callback.on_train_start(net, objective, settings)

    signal_weight = net.config.signal_health_weight

    def loss(logits: Tensor, power: Tensor, epoch: int) -> tuple[Tensor, Tensor]:
        task_loss = F.cross_entropy(logits, split.y_train)
        total = objective.training_loss(task_loss, power, epoch)
        if signal_weight > 0.0:
            total = total + net.signal_health * signal_weight
        return task_loss, total

    enabled = settings.capture_graph and bool(getattr(objective, "supports_graph_capture", False))
    engine = _GraphEngine(
        net, split, loss, enabled=enabled,
        epoch_key=getattr(objective, "graph_epoch_key", None),
        prepare=getattr(objective, "prepare_epoch", None),
    )
    budget = getattr(objective, "power_budget", None)

    best_val = -1.0
    best_state: dict[str, np.ndarray] | None = None
    best_epoch = -1
    fallback_power = np.inf
    fallback_state: dict[str, np.ndarray] | None = None
    stale = 0

    epoch = 0
    for epoch in range(settings.epochs):
        with trace_span("trainer.epoch", "train"):
            epoch_start = perf_counter()
            optimizer.zero_grad()
            with trace_span("trainer.step", "train"):
                task_loss, _ = engine.run_step(epoch)
                optimizer.step()
                net.project_()
            step_time = perf_counter() - epoch_start

            # Power of the *post-step* parameters — the state a checkpoint
            # would actually save.  (The pre-step forward's power describes
            # the state the optimizer just left.)  Feasibility is judged on
            # the training-distribution power: the budget is defined over the
            # deployment input distribution; val power differs only by
            # sampling.
            with trace_span("trainer.eval", "train"):
                eval_start = perf_counter()
                post_logits, power = engine.run_eval()
                power_value = float(power)
                objective.on_epoch_end(power_value, epoch)

                # Validation accuracy through the power-free forward; when
                # the val set aliases the train set the post-step logits are
                # reused outright (same array → same shapes → same logits).
                val_accuracy = F.accuracy(engine.val_logits(post_logits), split.y_val)
                eval_time = perf_counter() - eval_start

            feasible_now = objective.is_feasible(power_value)
            if budget:
                _POWER_VIOLATION.set(max(0.0, (power_value - budget) / budget))

            is_best = feasible_now and val_accuracy > best_val
            if is_best:
                best_val = val_accuracy
                best_state = net.state_dict()
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
            if power_value < fallback_power:
                fallback_power = power_value
                fallback_state = net.state_dict()

            scheduler.step(val_accuracy if feasible_now else -1.0)

            event = EpochEvent(
                epoch=epoch,
                loss=float(task_loss.data),
                power=power_value,
                val_accuracy=val_accuracy,
                feasible=feasible_now,
                lr=optimizer.lr,
                multiplier=_objective_multiplier(objective),
                is_best=is_best,
                epoch_time_s=perf_counter() - epoch_start,
                epoch_step_time_s=step_time,
                epoch_eval_time_s=eval_time,
            )
            _EPOCH_TIME.observe(event.epoch_time_s)
            _EPOCH_STEP_TIME.observe(step_time)
            _EPOCH_EVAL_TIME.observe(eval_time)
            for callback in all_callbacks:
                callback.on_epoch(event)

        if optimizer.lr <= settings.min_lr and stale >= settings.early_stop_stale:
            logger.debug("early stop at epoch %d (lr bottomed out, %d stale epochs)", epoch, stale)
            break

    if best_state is not None:
        net.load_state_dict(best_state)
        chosen_epoch = best_epoch
    elif fallback_state is not None:
        logger.debug("no feasible epoch; restoring minimum-power state (P=%.4g W)", fallback_power)
        net.load_state_dict(fallback_state)
        chosen_epoch = -1
    else:  # settings.epochs == 0
        chosen_epoch = -1

    with trace_span("trainer.eval", "train"):
        train_accuracy, power = evaluate_model(net, split.x_train, split.y_train)
        val_accuracy = _accuracy_only(net, split.x_val, split.y_val)
        test_accuracy = _accuracy_only(net, split.x_test, split.y_test)

    result = TrainResult(
        train_accuracy=train_accuracy,
        val_accuracy=val_accuracy,
        test_accuracy=test_accuracy,
        power=power,
        feasible=objective.is_feasible(power),
        device_count=net.device_count(),
        epochs_run=epoch + 1,
        best_epoch=chosen_epoch,
        loss_trace=recorder.loss_trace,
        power_trace=recorder.power_trace,
        val_accuracy_trace=recorder.val_accuracy_trace,
        multiplier_trace=recorder.multiplier_trace,
        state=net.state_dict(),
        counts=net.hard_counts(),
    )
    for callback in all_callbacks:
        callback.on_train_end(result)
    return result


def _objective_multiplier(objective: Objective) -> float | None:
    multiplier = getattr(objective, "multiplier", None)
    return None if multiplier is None else float(multiplier)


def penalty_sweep_oracle(
    make_net,
    split: DataSplit,
    n_alphas: int,
    n_seeds: int,
    alpha_range: tuple[float, float] = (0.0, 1.0),
    reference_power: float = 1.0e-3,
    settings: TrainerSettings | None = None,
) -> ParetoSweepResult:
    """One serial penalty training per (α, seed), α-major, nets from ``make_net(seed)``."""
    alphas = list(np.linspace(alpha_range[0], alpha_range[1], n_alphas))
    seeds = list(range(n_seeds))
    sweep = ParetoSweepResult(alphas=alphas, seeds=seeds)
    for alpha in alphas:
        for seed in seeds:
            objective = PenaltyObjective(alpha=float(alpha), reference_power=reference_power)
            sweep.results.append(train_model(make_net(seed), split, objective, settings=settings))
    return sweep
