"""The training loop: one captured graph trains N instances.

The seed/variation sweeps behind the paper's aggregate tables train many
*independent* printed networks — same topology and split, different seeds
(and, for penalty sweeps, different α).  :class:`FleetProgram` stacks the
whole fleet's leaves on a leading instance axis and trains them through the
reference member's own
:meth:`~repro.circuits.pnc.PrintedNeuralNetwork.forward_with_power`:

- every crossbar θ becomes an ``(instances, M+2, N)`` :class:`Parameter`
  stack, every activation u an ``(instances, 1, 1)`` stack, the logit
  scales an ``(instances, 1, 1)`` leaf; each member's own θ and u become
  views of its slices, so callbacks and objectives that read or edit a
  member between epochs see and move the trained values,
- the objective's per-instance constants (AL: λ, μ/2, budget, 1/budget,
  inactive value; penalty: α/P_ref) ride along as ``(instances, 1, 1)``
  *leaf* tensors (:class:`~repro.training.trainer.LossLeaves`), refreshed
  in place per epoch so per-instance multiplier updates
  ``λᵢ ← max(0, λᵢ + μᵢ·cᵢ)`` never invalidate the captured program,
- the loss is the objective's own ``training_loss`` over the per-instance
  ``(instances, 1, 1)`` stacks, seeded with ones — no cross-instance
  reduction exists anywhere in the program, so instance ``i``'s gradients
  are exactly those of a one-instance run.

:func:`train_fleet` and :func:`~repro.training.trainer.train_model` (one
instance, kernel labels ``train.*`` instead of ``fleet.*``) both run
:func:`_train_loop`.  It drives the trainer's step/eval/val engine
(``_GraphEngine`` in :mod:`repro.training.trainer`), so one recorded
forward+backward schedule steps the whole fleet per replay; per-instance
Adam learning rates ride in stacked ``lr_scale`` arrays (see
:meth:`repro.autograd.optim.Adam.refresh_lr_scales`) and per-instance
plateau schedulers, checkpoints, early stopping and callbacks are handled in
plain Python around the replay.  Masking and projection are the crossbar's
and activation's own (:func:`~repro.circuits.crossbar.mask_theta`,
``project_``) applied to the stacks.

Bit-identity contract (same bar as the Monte-Carlo ensemble): every
per-instance loss/power/val-accuracy trace and every final
:class:`~repro.training.trainer.TrainResult` equals a one-instance run of
the same (net, objective) pair bit for bit — the forward is the 2-D one on
stacked leaves, so each slice matches the 2-D program op for op.  Chunks
shorter than the program width are padded with replicas of instance 0 (plus
copied objectives); padded slots get full symmetric bookkeeping but their
results are discarded, and no real slot can read a pad slot's values
(asserted by the property-based tests).
"""

from __future__ import annotations

import dataclasses
import logging
import weakref
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.autograd import functional as F
from repro.autograd import optim
from repro.autograd.nn import Parameter
from repro.autograd.tensor import Tensor
from repro.circuits.crossbar import mask_theta
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.datasets.splits import DataSplit
from repro.observability.callbacks import EpochEvent, TraceRecorder, TrainerCallback
from repro.observability.metrics import get_registry
from repro.observability.tracing import trace_span
from repro.training.trainer import (
    LossLeaves,
    TrainResult,
    TrainerSettings,
    _GraphEngine,
    _accuracy_only,
    evaluate_model,
)

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
_TRAIN_INSTANCES = get_registry().counter(
    "train_instances_total", "real (non-pad) instances trained (train_model: one per run)"
)


def fleet_structure_key(objective) -> tuple | None:
    """Program-structure key: instances sharing a key can share one graph.

    An objective whose loss is written over instance leaves names the part
    of its configuration that shapes the program in ``structure_key()``
    (AL: the warmup boundary; penalty: whether α is 0, which drops the power
    path from the loss).  Any other objective has no key (``None``) and
    trains as a fleet of one.
    """
    key = getattr(objective, "structure_key", None)
    return None if key is None else key()


def _same_surrogate(a, b) -> bool:
    """Whether two fitted surrogates compute the same function.

    ``NetworkSpec.build`` reloads surrogates from the cache per call, so
    fleet members may hold distinct objects with identical weights; identity
    is accepted fast, equal weights + normalization otherwise.
    """
    if a is b:
        return True
    if a is None or b is None:
        return False
    pa = [p.data for p in a.network.parameters()]
    pb = [p.data for p in b.network.parameters()]
    if len(pa) != len(pb):
        return False
    if not all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(pa, pb)):
        return False
    na, nb = a.normalization, b.normalization
    return (
        np.array_equal(np.asarray(na.log_mask), np.asarray(nb.log_mask))
        and np.array_equal(na.mean, nb.mean)
        and np.array_equal(na.std, nb.std)
    )


class _InstanceLr:
    """Per-instance ``.lr`` view for :class:`~repro.autograd.optim.ReduceLROnPlateau`.

    The plateau scheduler only reads and writes ``optimizer.lr``; pointing
    it at one instance's slot keeps its float arithmetic (``max(lr·factor,
    min_lr)``) identical to the serial per-run scheduler.
    """

    def __init__(self, program: "FleetProgram", index: int):
        self._program = program
        self._index = index

    @property
    def lr(self) -> float:
        return float(self._program._lrs[self._index])

    @lr.setter
    def lr(self, value: float) -> None:
        self._program.set_instance_lr(self._index, float(value))


class FleetProgram:
    """Instance-stacked training program over ``len(nets)`` member networks.

    All members must share topology, config, PDK and surrogates (checked);
    ``instances`` fixes the program width — members beyond ``len(nets)`` are
    pad replicas of member 0.  ``run_step`` / ``run_eval`` /
    ``val_accuracies`` delegate to one ``_GraphEngine`` whose kernels are
    labelled ``{label}.*``; this class owns the stacked leaves, the
    objective's loss leaves and the learning-rate stacks.
    """

    def __init__(
        self,
        nets: Sequence[PrintedNeuralNetwork],
        objectives: Sequence,
        split: DataSplit,
        settings: TrainerSettings,
        instances: int | None = None,
        label: str = "fleet",
    ):
        if not nets:
            raise ValueError("fleet requires at least one network")
        if len(objectives) != len(nets):
            raise ValueError("one objective per network required")
        if len({id(net) for net in nets}) != len(nets):
            raise ValueError("fleet members must be distinct networks")
        k = len(nets)
        n = k if instances is None else int(instances)
        if n < k:
            raise ValueError("instances must be >= len(nets)")

        ref = nets[0]
        structure_key = fleet_structure_key(objectives[0])
        for objective in objectives[1:]:
            if fleet_structure_key(objective) != structure_key:
                raise ValueError("all fleet objectives must share one structure key")
        if n > 1 and structure_key is None:
            name = type(objectives[0]).__name__
            raise ValueError(f"{name} names no structure key: it trains alone")
        self._check_members(nets, ref)

        self.split = split
        self.settings = settings
        self.instances = n
        self.n_real = k
        self._members = [nets[i] if i < k else nets[0] for i in range(n)]
        self.objectives = list(objectives) + [
            dataclasses.replace(objectives[0]) for _ in range(n - k)
        ]
        self._ref = ref
        self.n_layers = ref.n_layers

        # Per-instance learning rates, shared into every parameter's
        # lr_scale so the fused Adam applies instance ``i``'s rate to slice
        # ``i`` of every stacked leaf (u parameters at the serial 0.2 ratio).
        self._lrs = np.full(n, float(settings.lr))
        self._lr_theta = self._lrs.reshape(n, 1, 1).copy()
        self._lr_u = self._lr_theta * 0.2
        self._lr_dirty = False

        # Trainable leaves: θ stacks and u stacks, serial registration order
        # (crossbar_0, activation_0, crossbar_1, ...).  Each real member's
        # own parameters then become views of its slices (every writer —
        # Adam, project_, load_state_dict — writes in place).
        self._theta_params: list[Parameter] = []
        self._u_params: list[list[Parameter]] = []
        for layer in range(self.n_layers):
            crossbars = [member.crossbars()[layer] for member in self._members]
            theta = Parameter(
                np.stack([c.theta.data for c in crossbars]), name=f"crossbar_{layer}.theta"
            )
            theta.lr_scale = self._lr_theta
            self._theta_params.append(theta)
            activations = [member.activations()[layer] for member in self._members]
            layer_us: list[Parameter] = []
            for j in range(activations[0].space.dimension):
                values = np.array([float(getattr(a, f"u_{j}").data) for a in activations])
                u = Parameter(values.reshape(n, 1, 1), name=f"activation_{layer}.u_{j}")
                u.lr_scale = self._lr_u
                layer_us.append(u)
            self._u_params.append(layer_us)
            for i in range(k):
                crossbars[i].theta.data = theta.data[i]
                for j, u in enumerate(layer_us):
                    getattr(activations[i], f"u_{j}").data = u.data[i, 0, 0, ...]

        # Per-instance logit scales (no gradient — serial scale is a float).
        self._logit_t = Tensor(
            np.array([member.logit_scale for member in self._members]).reshape(n, 1, 1)
        )

        # The loss closes over locals only (see _GraphEngine) and reaches
        # this program's leaves through a weak proxy: a strong reference
        # would form a cycle that keeps every captured buffer alive until the
        # cyclic garbage collector runs.
        objective = self.objectives[0]
        loss_leaves = LossLeaves(self.objectives) if hasattr(objective, "loss_values") else None
        extra = () if loss_leaves is None else (loss_leaves,)
        y_train = split.y_train
        signal_weight = ref.config.signal_health_weight

        def loss(logits: Tensor, power: Tensor, epoch: int) -> tuple[Tensor, Tensor]:
            """Per-instance ``(task, total)`` stacks."""
            task = F.instance_cross_entropy(logits, y_train)
            total = objective.training_loss(task, power.reshape(-1, 1, 1), epoch, *extra)
            if signal_weight > 0.0:
                total = total + ref.signal_health.reshape(-1, 1, 1) * signal_weight
            return task, total

        me = weakref.proxy(self)
        self._engine = _GraphEngine(
            ref, split, loss,
            enabled=settings.capture_graph
            and bool(getattr(objective, "supports_graph_capture", False)),
            epoch_key=getattr(objective, "graph_epoch_key", None),
            prepare=None if loss_leaves is None else loss_leaves.refresh,
            leaves=lambda: me._stacked_leaves(), label=label,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _check_members(nets: Sequence[PrintedNeuralNetwork], ref: PrintedNeuralNetwork) -> None:
        cfg = ref.config
        for net in nets:
            if net.n_layers != ref.n_layers:
                raise ValueError("fleet members must share the topology")
            c = net.config
            if (
                c.kind != cfg.kind
                or c.power_mode != cfg.power_mode
                or c.count_mode != cfg.count_mode
                or c.power_batch_limit != cfg.power_batch_limit
                or c.signal_health_weight != cfg.signal_health_weight
                or c.signal_health_floor != cfg.signal_health_floor
            ):
                raise ValueError("fleet members must share the PNC config")
            if not (c.pdk is cfg.pdk or c.pdk == cfg.pdk):
                raise ValueError("fleet members must share the PDK")
            if not np.array_equal(net.neg_q, ref.neg_q):
                raise ValueError("fleet members must share the negation design")
            for crossbar, ref_crossbar in zip(net.crossbars(), ref.crossbars()):
                if crossbar.theta.data.shape != ref_crossbar.theta.data.shape:
                    raise ValueError("fleet members must share crossbar shapes")
                if crossbar.bias_voltage != ref_crossbar.bias_voltage:
                    raise ValueError("fleet members must share the bias voltage")
            for activation, ref_activation in zip(net.activations(), ref.activations()):
                if activation.space.dimension != ref_activation.space.dimension:
                    raise ValueError("fleet members must share the design space")
            if cfg.power_mode == "surrogate":
                if not _same_surrogate(net.neg_surrogate, ref.neg_surrogate):
                    raise ValueError("fleet members must share the negation surrogate")
                for activation, ref_activation in zip(net.activations(), ref.activations()):
                    if not _same_surrogate(activation.surrogate, ref_activation.surrogate):
                        raise ValueError("fleet members must share the activation surrogate")

    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in range(self.n_layers):
            params.append(self._theta_params[layer])
            params.extend(self._u_params[layer])
        return params

    def set_instance_lr(self, index: int, value: float) -> None:
        """Write one instance's learning rate into the shared scale stacks."""
        self._lrs[index] = value
        self._lr_theta[index, 0, 0] = value
        self._lr_u[index, 0, 0] = value * 0.2
        self._lr_dirty = True

    # ------------------------------------------------------------------
    def _stacked_leaves(self) -> dict:
        """The fleet's leaves for the net's own forward.

        The masked θ stacks are built here, so each capture reads the
        members' masks fresh: ``set_masks`` on any member bumps the graph
        version, and the next step re-records with the new masks.
        """
        thetas = []
        for layer, theta in enumerate(self._theta_params):
            crossbars = [member.crossbars()[layer] for member in self._members]
            masks = {}
            for name in ("positive", "keep"):
                stack = [getattr(crossbar, f"_{name}_mask") for crossbar in crossbars]
                present = [mask is not None for mask in stack]
                if any(present) and not all(present):
                    raise ValueError(f"fleet members must agree on {name}-mask presence per layer")
                masks[name] = np.stack(stack) if all(present) else None
            thetas.append(mask_theta(theta, **masks))
        return {"thetas": thetas, "units": self._u_params, "logit_scale": self._logit_t}

    # ------------------------------------------------------------------
    def run_step(self, epoch: int) -> tuple[Tensor, Tensor]:
        """One fleet epoch's forward + backward; ``(task_vec, total)``."""
        return self._engine.run_step(epoch)

    def run_eval(self) -> tuple[Tensor, np.ndarray]:
        """Post-step forward (the step's head); ``(logits, per-instance power array)``."""
        logits, power = self._engine.run_eval()
        return logits, power.reshape(self.instances).copy()

    def val_accuracies(self, post_logits: Tensor) -> np.ndarray:
        """Per-instance validation accuracy, reusing logits when val is train."""
        return F.instance_accuracy(self._engine.val_logits(post_logits), self.split.y_val)

    # ------------------------------------------------------------------
    def project_(self) -> None:
        """Post-step projection of the stacks through the reference member's layers."""
        for crossbar, theta in zip(self._ref.crossbars(), self._theta_params):
            crossbar.project_(theta.data)
        for activation, units in zip(self._ref.activations(), self._u_params):
            activation.project_(units)

    def instance_state(self, index: int) -> dict[str, np.ndarray]:
        """Instance ``index``'s parameters as a serial ``state_dict``."""
        state: dict[str, np.ndarray] = {}
        for layer in range(self.n_layers):
            state[f"crossbar_{layer}.theta"] = self._theta_params[layer].data[index].copy()
            for j, u in enumerate(self._u_params[layer]):
                state[f"activation_{layer}.u_{j}"] = np.array(u.data[index, 0, 0])
        return state


def _train_loop(
    nets: Sequence[PrintedNeuralNetwork],
    split: DataSplit,
    objectives: Sequence,
    settings: TrainerSettings | None = None,
    callbacks: Sequence[Sequence[TrainerCallback]] | None = None,
    instances: int | None = None,
    label: str = "fleet",
) -> list[TrainResult]:
    """The epoch loop: train ``nets`` on one instance axis; one result each.

    ``callbacks[i]`` are member ``i``'s, dispatched after its trace
    recorder.  Each instance keeps the serial protocol: its own plateau
    scheduler, feasible-best / minimum-power checkpoints, early stop and
    final evaluation through the 2-D forward.
    """
    settings = settings or TrainerSettings()
    program = FleetProgram(nets, objectives, split, settings, instances=instances, label=label)
    n, k = program.instances, program.n_real
    objectives = program.objectives
    listeners = [
        [TraceRecorder(settings.trace_every), *(callbacks[i] if callbacks and i < k else ())]
        for i in range(n)
    ]
    for net, objective, instance_listeners in zip(nets, objectives, listeners):
        for callback in instance_listeners:
            callback.on_train_start(net, objective, settings)

    optimizer = optim.Adam(program.parameters(), lr=1.0)
    schedulers = [
        optim.ReduceLROnPlateau(
            _InstanceLr(program, i),
            patience=settings.patience,
            factor=settings.lr_factor,
            min_lr=settings.min_lr,
            mode="max",
        )
        for i in range(n)
    ]
    budgets = [getattr(objective, "power_budget", None) for objective in objectives]

    best_val = np.full(n, -1.0)
    best_states: list[dict[str, np.ndarray] | None] = [None] * n
    best_epochs = np.full(n, -1, dtype=int)
    fallback_power = np.full(n, np.inf)
    fallback_states: list[dict[str, np.ndarray] | None] = [None] * n
    stale = np.zeros(n, dtype=int)
    stopped = np.zeros(n, dtype=bool)
    epochs_run = np.zeros(n, dtype=int)

    for epoch in range(settings.epochs):
        if stopped[:k].all():
            break
        with trace_span("trainer.epoch", "train"):
            epoch_start = perf_counter()
            optimizer.zero_grad()
            with trace_span("trainer.step", "train"):
                task_vec, _total = program.run_step(epoch)
                if program._lr_dirty:
                    optimizer.refresh_lr_scales()
                    program._lr_dirty = False
                optimizer.step()
                program.project_()
            step_time = perf_counter() - epoch_start

            # Power of the *post-step* parameters — the state a checkpoint
            # would actually save.  Feasibility is judged on the
            # training-distribution power: the budget is defined over the
            # deployment input distribution; val power differs only by
            # sampling.  Dual updates run before validation accuracy
            # (multiplier traces pair with this epoch's power).
            with trace_span("trainer.eval", "train"):
                eval_start = perf_counter()
                post_logits, power_values = program.run_eval()
                for i in range(n):
                    if not stopped[i]:
                        objectives[i].on_epoch_end(float(power_values[i]), epoch)
                accuracies = program.val_accuracies(post_logits)
                eval_time = perf_counter() - eval_start
            epoch_time = perf_counter() - epoch_start
            _EPOCH_TIME.observe(epoch_time)
            _EPOCH_STEP_TIME.observe(step_time)
            _EPOCH_EVAL_TIME.observe(eval_time)

            violation: float | None = None
            for i in range(n):
                if stopped[i]:
                    continue
                epochs_run[i] = epoch + 1
                power_value = float(power_values[i])
                val_accuracy = float(accuracies[i])
                feasible_now = objectives[i].is_feasible(power_value)
                if i < k and budgets[i]:
                    instance_violation = max(0.0, (power_value - budgets[i]) / budgets[i])
                    violation = (
                        instance_violation
                        if violation is None
                        else max(violation, instance_violation)
                    )
                is_best = feasible_now and val_accuracy > best_val[i]
                if is_best:
                    best_val[i] = val_accuracy
                    best_states[i] = program.instance_state(i)
                    best_epochs[i] = epoch
                    stale[i] = 0
                else:
                    stale[i] += 1
                if power_value < fallback_power[i]:
                    fallback_power[i] = power_value
                    fallback_states[i] = program.instance_state(i)
                schedulers[i].step(val_accuracy if feasible_now else -1.0)
                event = EpochEvent(
                    epoch=epoch,
                    loss=float(task_vec.data[i, 0, 0]),
                    power=power_value,
                    val_accuracy=val_accuracy,
                    feasible=feasible_now,
                    lr=float(program._lrs[i]),
                    multiplier=_objective_multiplier(objectives[i]),
                    is_best=is_best,
                    epoch_time_s=epoch_time,
                    epoch_step_time_s=step_time,
                    epoch_eval_time_s=eval_time,
                )
                for callback in listeners[i]:
                    callback.on_epoch(event)
                if program._lrs[i] <= settings.min_lr and stale[i] >= settings.early_stop_stale:
                    logger.debug("instance %d: early stop at epoch %d (lr bottomed out, %d stale epochs)",
                                 i, epoch, stale[i])
                    stopped[i] = True
            if violation is not None:
                _POWER_VIOLATION.set(violation)

    _TRAIN_INSTANCES.inc(k)
    # Finalize each real instance through the 2-D evaluation path.
    results: list[TrainResult] = []
    for i, net in enumerate(nets):
        if best_states[i] is not None:
            net.load_state_dict(best_states[i])
            chosen_epoch = int(best_epochs[i])
        elif fallback_states[i] is not None:
            logger.debug("no feasible epoch; restoring minimum-power state (P=%.4g W)", fallback_power[i])
            net.load_state_dict(fallback_states[i])
            chosen_epoch = -1
        else:  # no epoch ran
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
            feasible=objectives[i].is_feasible(power),
            device_count=net.device_count(),
            epochs_run=int(epochs_run[i]),
            best_epoch=chosen_epoch,
            loss_trace=listeners[i][0].loss_trace,
            power_trace=listeners[i][0].power_trace,
            val_accuracy_trace=listeners[i][0].val_accuracy_trace,
            multiplier_trace=listeners[i][0].multiplier_trace,
            state=net.state_dict(),
            counts=net.hard_counts(),
        )
        for callback in listeners[i]:
            callback.on_train_end(result)
        results.append(result)
    return results


def _objective_multiplier(objective) -> float | None:
    multiplier = getattr(objective, "multiplier", None)
    return None if multiplier is None else float(multiplier)


def train_fleet(
    nets: Sequence[PrintedNeuralNetwork],
    split: DataSplit,
    objectives: Sequence,
    settings: TrainerSettings | None = None,
    instances: int | None = None,
    run_logger=None,
    chunk_index: int | None = None,
) -> list[TrainResult]:
    """Train ``len(nets)`` networks as one vectorized fleet.

    The loop :func:`~repro.training.trainer.train_model` runs with one
    instance, run with many: returns one :class:`TrainResult` per real
    network, bit-identical to training each ``(net, objective)`` pair alone
    (traces, checkpoints, final metrics).  ``instances`` optionally pads the
    program to a fixed width so tail chunks reuse a captured program shape.
    A ``run_logger`` receives one ``fleet`` event for the whole call.
    """
    start = perf_counter()
    results = _train_loop(nets, split, objectives, settings, instances=instances)
    if run_logger is not None and run_logger.enabled:
        fields = {
            "instances": len(results),
            "epoch": max(result.epochs_run for result in results),
            "duration_s": perf_counter() - start,
        }
        if chunk_index is not None:
            fields["chunk_index"] = int(chunk_index)
        run_logger.emit("fleet", **fields)
    return results
