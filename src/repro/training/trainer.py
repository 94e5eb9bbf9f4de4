"""Shared training loop for printed neuromorphic networks.

Implements the paper's training protocol (§IV-A): full-batch gradient
descent with Adam starting at learning rate 0.1, learning-rate halving after
``patience`` epochs without validation improvement, feasibility-aware
checkpointing (the returned model is the best *feasible* validation epoch),
and early stopping.

There is one epoch loop, and it trains instances on a leading axis:
:func:`train_model` runs it with one instance, and
:func:`~repro.training.fleet.train_fleet` with many (the loop lives in
:mod:`repro.training.fleet`).  It is objective-agnostic: the augmented
Lagrangian method, the penalty baseline, and plain unconstrained training
all plug in through the ``Objective`` protocol, which maps the per-instance
``(loss, power, epoch)`` to the quantity being minimized and owns any
dual-variable state (λ updates happen in the objective's ``on_epoch_end``).

Observability: the loop packages every epoch into an
:class:`~repro.observability.callbacks.EpochEvent` per instance and
dispatches it to that instance's callbacks in order.  A
:class:`TraceRecorder` is always registered first, so the ``TrainResult``
trace lists are identical to the pre-callback implementation; extra
callbacks (event logging, progress reporting, anything user-supplied) ride
along via ``train_model``'s ``callbacks`` argument.

Trace alignment: the objective's dual update runs *before* the epoch's
traces are recorded, so ``multiplier_trace[i]`` is the **post-update** λ
computed from ``power_trace[i]`` — the multiplier and the power it was
updated from share an index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.autograd import functional as F
from repro.autograd.graph import Program
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.datasets.splits import DataSplit
from repro.observability.callbacks import TrainerCallback
from repro.observability.metrics import get_registry
from repro.observability.profiling import span

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
    """Strategy turning task loss + power into the training quantity.

    The loop hands ``training_loss`` the task loss and the power of ``n``
    instances as ``(n, 1, 1)`` stacks (``n = 1`` for :func:`train_model`)
    and minimizes the ``(n, 1, 1)`` result; nothing in it may mix
    instances.  An objective of a fleet of many is called once, for all
    instances, so its per-instance constants (λ, μ, a budget, a penalty
    scale) must be *value leaves*: it names them in ``loss_values(epoch) ->
    {name: float}``, the loop keeps one ``(n, 1, 1)`` tensor per name
    (:class:`LossLeaves`), writes slot ``i`` from instance ``i``'s objective
    before every step — eager or replayed — and passes them as
    ``training_loss``'s fourth argument.  Called without it, the objective
    reads 0-d leaves of its own state (:meth:`LossLeaves.single`).  An
    objective without ``loss_values`` gets three arguments and trains alone.

    Objectives that additionally set ``supports_graph_capture = True`` opt
    into the captured-graph execution engine; their epoch-to-epoch changes
    must then be value-only (through ``loss_values``), with structural
    boundaries (e.g. a warmup ending) reported through ``graph_epoch_key``.
    ``structure_key()`` names what shapes the program, so instances with
    equal keys can share one (see
    :func:`~repro.training.fleet.fleet_structure_key`).
    """

    def training_loss(self, loss: Tensor, power: Tensor, epoch: int) -> Tensor:
        """Per-instance quantity to minimize this epoch."""
        ...

    def on_epoch_end(self, power_value: float, epoch: int) -> None:
        """Post-step hook (dual updates, penalty schedules...)."""
        ...

    def is_feasible(self, power_value: float) -> bool:
        """Whether a power value satisfies this objective's constraint."""
        ...


class LossLeaves(dict):
    """``name → (n, 1, 1)`` value leaves of ``n`` objectives' loss constants.

    :meth:`refresh` (run before every step) writes slot ``i`` from
    ``objectives[i].loss_values(epoch)`` in place, so λ/μ updates and budget
    annealing reach a captured program without re-recording it.
    """

    def __init__(self, objectives: Sequence[Objective]):
        super().__init__()
        self._objectives = list(objectives)
        n = len(self._objectives)
        for name in self._objectives[0].loss_values(0):
            self[name] = Tensor(np.zeros((n, 1, 1)))

    def refresh(self, epoch: int) -> None:
        for i, objective in enumerate(self._objectives):
            for name, value in objective.loss_values(epoch).items():
                self[name].data[i] = value

    @staticmethod
    def single(objective: Objective, epoch: int) -> dict[str, Tensor]:
        """0-d leaves of one objective's constants, for a call outside the loop."""
        return {name: Tensor(value) for name, value in objective.loss_values(epoch).items()}


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

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


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
    """Step, eval and val programs of one training run.

    The training loop runs it through
    :class:`~repro.training.fleet.FleetProgram`, over instance stacks
    (``leaves``); called without ``leaves`` it runs over the net's own.
    Each program is a :class:`~repro.autograd.graph.Program`,
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
    """Run the shared constrained-training loop on one network.

    The best checkpoint is chosen by validation accuracy *among feasible
    epochs* (power within the objective's budget); if no epoch is feasible
    the minimum-power checkpoint is kept instead, so the caller always gets
    the least-violating circuit.

    ``callbacks`` are dispatched per epoch after the built-in trace
    recorder, in the order given; see
    :class:`repro.observability.callbacks.TrainerCallback`.  The loop is
    the fleet's, run with one instance (kernel labels ``train.*``).
    """
    from repro.training.fleet import _train_loop  # fleet imports this module

    (result,) = _train_loop([net], split, [objective], settings, [callbacks or []], label="train")
    return result
