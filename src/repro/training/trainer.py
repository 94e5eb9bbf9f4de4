"""Shared training loop for printed neuromorphic networks.

Implements the paper's training protocol (§IV-A): full-batch gradient
descent with Adam starting at learning rate 0.1, learning-rate halving after
``patience`` epochs without validation improvement, feasibility-aware
checkpointing (the returned model is the best *feasible* validation epoch),
and early stopping.

The loop is objective-agnostic: the augmented Lagrangian method, the penalty
baseline, and plain unconstrained training all plug in through the
``Objective`` protocol, which maps ``(loss, power, epoch)`` to the scalar
being minimized and owns any dual-variable state (λ updates happen in the
objective's ``on_epoch_end``).

Observability: the loop packages every epoch into an
:class:`~repro.observability.callbacks.EpochEvent` and dispatches it to the
registered callbacks in order.  A :class:`TraceRecorder` is always
registered first, so the ``TrainResult`` trace lists are identical to the
pre-callback implementation; extra callbacks (event logging, progress
reporting, anything user-supplied) ride along via ``train_model``'s
``callbacks`` argument.

Trace alignment: the objective's dual update runs *before* the epoch's
traces are recorded, so ``multiplier_trace[i]`` is the **post-update** λ
computed from ``power_trace[i]`` — the multiplier and the power it was
updated from share an index.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from time import perf_counter
from typing import Protocol, Sequence

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.autograd import functional as F
from repro.autograd import optim
from repro.autograd.graph import Program
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.datasets.splits import DataSplit
from repro.observability.callbacks import EpochEvent, TraceRecorder, TrainerCallback
from repro.observability.metrics import get_registry
from repro.observability.profiling import span
from repro.observability.tracing import trace_span

logger = logging.getLogger(__name__)

_EPOCH_TIME = get_registry().histogram(
    "epoch_time_s", "wall time per training epoch (step + evaluations)"
)
_EPOCH_STEP_TIME = get_registry().histogram(
    "epoch_step_time_s", "wall time of the gradient-step portion of each epoch"
)
_EPOCH_EVAL_TIME = get_registry().histogram(
    "epoch_eval_time_s", "wall time of the post-step evaluation portion of each epoch"
)
_POWER_VIOLATION = get_registry().gauge(
    "power_violation", "normalized constraint violation max(0, (P - budget)/budget) of the last epoch"
)
_GRAPH_STEP_OPS = get_registry().gauge(
    "graph_step_ops", "forward kernels per replayed training step (the tail after the eval)"
)
_GRAPH_EVAL_OPS = get_registry().gauge(
    "graph_eval_ops", "kernels per replayed post-step evaluation forward (logits + power)"
)
_GRAPH_VAL_OPS = get_registry().gauge(
    "graph_val_ops", "kernels per replayed validation forward"
)


class Objective(Protocol):
    """Strategy turning task loss + power into the training scalar.

    Objectives that additionally set ``supports_graph_capture = True`` opt
    into the captured-graph execution engine; they must then keep their
    epoch-to-epoch changes value-only (updating persistent leaf tensors in
    ``prepare_epoch``) and report structural boundaries (e.g. a warmup
    ending) through ``graph_epoch_key``.
    """

    def training_loss(self, loss: Tensor, power: Tensor, epoch: int) -> Tensor:
        """Scalar to minimize this epoch."""
        ...

    def on_epoch_end(self, power_value: float, epoch: int) -> None:
        """Post-step hook (dual updates, penalty schedules...)."""
        ...

    def is_feasible(self, power_value: float) -> bool:
        """Whether a power value satisfies this objective's constraint."""
        ...


@dataclass
class TrainerSettings:
    """Hyperparameters of the shared loop (paper defaults)."""

    epochs: int = 500
    lr: float = 0.1
    patience: int = 100
    lr_factor: float = 0.5
    min_lr: float = 1e-4
    #: record traces every this-many epochs (1 = every epoch)
    trace_every: int = 1
    #: stop once the LR bottomed out and the last epochs brought no change
    early_stop_stale: int = 250
    #: execute epochs by captured-graph replay when the objective supports
    #: it (bit-identical to eager; ``--no-capture`` on the CLI disables)
    capture_graph: bool = True


@dataclass
class TrainResult:
    """Outcome of one training run."""

    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    power: float
    feasible: bool
    device_count: int
    epochs_run: int
    best_epoch: int
    loss_trace: list[float] = field(default_factory=list)
    power_trace: list[float] = field(default_factory=list)
    val_accuracy_trace: list[float] = field(default_factory=list)
    multiplier_trace: list[float] = field(default_factory=list)
    state: dict[str, np.ndarray] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


def evaluate_model(
    net: PrintedNeuralNetwork, x: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """Return ``(accuracy, power_W)`` of the network on ``(x, y)``."""
    with no_grad():
        logits, breakdown = net.forward_with_power(Tensor(x))
    return F.accuracy(logits, y), float(breakdown.total.data)


def _accuracy_only(net: PrintedNeuralNetwork, x: np.ndarray, y: np.ndarray) -> float:
    """Accuracy via the power-free signal path.

    ``forward`` runs the identical op sequence on the signal as
    ``forward_with_power`` (logits are bit-equal) but skips the surrogate
    power assembly — the part :func:`evaluate_model` would compute and the
    accuracy-only callers used to throw away every epoch.
    """
    with no_grad():
        logits = net.forward(Tensor(x))
    return F.accuracy(logits, y)


class _GraphEngine:
    """Step, eval and val programs of one training run (serial or fleet).

    Both trainers run through it: :func:`train_model` over the net's own
    leaves, :class:`~repro.training.fleet.FleetProgram` over instance stacks
    (``leaves``).  Each program is a :class:`~repro.autograd.graph.Program`,
    which decides when it is replayed, re-recorded or run eagerly; with
    ``enabled`` false (``capture_graph=False``, or an objective without
    graph support) every program runs eagerly — the bit-identity reference.

    The **step** program is the forward with power plus ``loss`` — outputs
    ``(task_loss, total, logits, power)``, backward from ``total`` — split
    into a **head** (every kernel the logits and power depend on) and a
    **tail** (cross-entropy, the health term and the objective's penalty).
    Epoch ``t``'s post-step eval replays the head at θ_{t+1}; epoch
    ``t+1``'s step then replays only the tail before its backward, reading
    the head's buffers, so each epoch runs the pNC forward once.  The head
    stamps its leaf values when the eval replays it; a step that finds them
    changed (a callback edited θ) or unstamped (the first step after a
    capture) replays the head first.  The **val** program is the power-free
    forward on the validation inputs, built only when they are not the
    training inputs.  Kernel labels: ``{label}.eval.forward`` (head),
    ``{label}.step.forward`` (tail), ``{label}.step.backward`` and
    ``{label}.val.forward``.
    """

    def __init__(
        self,
        net: PrintedNeuralNetwork,
        split: DataSplit,
        loss,
        *,
        enabled: bool,
        epoch_key=None,
        prepare=None,
        leaves=dict,
        label: str = "train",
    ):
        self.net = net
        self.prepare = prepare
        self.leaves = leaves
        x_train = self.x_train = Tensor(split.x_train)
        x_val = None if split.x_val is split.x_train else Tensor(split.x_val)

        # The builds close over locals, not ``self``: a program whose build
        # reaches back to its owner would keep every captured buffer alive
        # until the cyclic garbage collector runs.
        def forward_step(epoch: int) -> tuple[Tensor, Tensor, Tensor, Tensor]:
            logits, breakdown = net.forward_with_power(x_train, **leaves())
            power = breakdown.total
            task_loss, total = loss(logits, power, epoch)
            return task_loss, total, logits, power

        self.step = Program(
            forward_step, f"{label}.step.forward",
            backward=(1, f"{label}.step.backward"), head=(2, f"{label}.eval.forward"),
            epoch_key=epoch_key, enabled=enabled, on_capture=_count_step_ops,
        )
        self.val = None
        if x_val is not None:
            self.val = Program(
                lambda: net.forward(x_val, **leaves()), f"{label}.val.forward",
                enabled=enabled, on_capture=lambda program: _GRAPH_VAL_OPS.set(program.n_ops),
            )

    def run_step(self, epoch: int) -> tuple[Tensor, Tensor]:
        """One epoch's forward + backward; returns ``(task_loss, total)``.

        The caller is responsible for ``zero_grad`` before and
        ``optimizer.step()`` / ``project_()`` after.
        """
        if self.prepare is not None:
            self.prepare(epoch)
        task_loss, total, _logits, _power = self.step.run(epoch)
        with span("trainer.backward"):
            self.step.backward()
        return task_loss, total

    def run_eval(self) -> tuple[Tensor, np.ndarray]:
        """Post-step training-set forward; returns ``(logits, power array)``.

        The power comes back as its array, not its tensor: a caller holding
        the tensor into the next step would keep the whole power path of a
        replaced graph alive through a recapture.
        """
        head = self.step.run_head()
        if head is not None:
            logits, power = head
        else:
            with no_grad():
                logits, breakdown = self.net.forward_with_power(self.x_train, **self.leaves())
            power = breakdown.total
        return logits, power.data

    def val_logits(self, post_logits: Tensor) -> Tensor:
        """Validation logits, reusing ``post_logits`` when val is train."""
        if self.val is None:
            return post_logits
        return self.val.run()[0]


def _count_step_ops(program: Program) -> None:
    _GRAPH_STEP_OPS.set(program.n_ops)
    _GRAPH_EVAL_OPS.set(program.head.n_ops)


def train_model(
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
        with span("trainer.epoch"), trace_span("trainer.epoch", "train"):
            epoch_start = perf_counter()
            optimizer.zero_grad()
            with span("trainer.step"), trace_span("trainer.step", "train"):
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
            with span("trainer.eval"), trace_span("trainer.eval", "train"):
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

    with span("trainer.eval"):
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
