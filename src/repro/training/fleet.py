"""Vectorized fleet training: one captured graph trains N instances.

The seed/variation sweeps behind the paper's aggregate tables train many
*independent* printed networks — same topology and split, different seeds
(and, for penalty sweeps, different α).  The serial loop pays N full Python
training runs for that.  :class:`FleetProgram` stacks the whole fleet's
leaves on a leading instance axis and trains them through the reference
member's own :meth:`~repro.circuits.pnc.PrintedNeuralNetwork.forward_with_power`:

- every crossbar θ becomes an ``(instances, M+2, N)`` :class:`Parameter`
  stack, every activation u an ``(instances, 1, 1)`` stack, the logit
  scales an ``(instances, 1, 1)`` leaf,
- the AL dual state rides along as ``(instances, 1, 1)`` *leaf* tensors
  (λ, μ/2, budget, 1/budget, inactive value), refreshed in place per epoch
  so per-instance multiplier updates ``λᵢ ← max(0, λᵢ + μᵢ·cᵢ)`` never
  invalidate the captured program,
- the loss is a per-instance ``(instances, 1, 1)`` stack seeded with ones —
  no cross-instance reduction exists anywhere in the program, so instance
  ``i``'s gradients are exactly the serial run's.

The fleet runs the serial trainer's step/eval/val engine
(``_GraphEngine`` in :mod:`repro.training.trainer`, kernel labels
``fleet.*``) over these leaves, so one recorded forward+backward schedule
steps the whole fleet per replay; per-instance Adam learning rates ride
in stacked ``lr_scale`` arrays (see
:meth:`repro.autograd.optim.Adam.refresh_lr_scales`) and per-instance
plateau schedulers/early stopping are handled in plain Python around the
replay.  Masking and projection are the crossbar's and activation's own
(:func:`~repro.circuits.crossbar.mask_theta`, ``project_``) applied to the
stacks.

Bit-identity contract (same bar as the Monte-Carlo ensemble): every
per-instance loss/power/val-accuracy trace and every final
:class:`~repro.training.trainer.TrainResult` equals the serial
:func:`~repro.training.trainer.train_model` run bit for bit, for both the
augmented-Lagrangian and penalty objectives — the forward is the serial
one, so the recorded program matches the serial program node for node.
Chunks shorter than the program width are padded with replicas of
instance 0 (plus cloned objectives); padded slots get full symmetric
bookkeeping but their results are discarded, and no real slot can read a
pad slot's values (asserted by the property-based tests).
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.autograd import functional as F
from repro.autograd import optim
from repro.autograd.nn import Parameter
from repro.autograd.tensor import Tensor, constant_of
from repro.circuits.crossbar import mask_theta
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.datasets.splits import DataSplit
from repro.observability.callbacks import EpochEvent, TraceRecorder
from repro.observability.metrics import get_registry
from repro.training.augmented_lagrangian import AugmentedLagrangianObjective
from repro.training.penalty import PenaltyObjective
from repro.training.trainer import (
    _POWER_VIOLATION,
    TrainResult,
    TrainerSettings,
    _GraphEngine,
    _accuracy_only,
    _objective_multiplier,
    evaluate_model,
)

_FLEET_INSTANCES = get_registry().counter(
    "fleet_instances_total", "real (non-pad) instances trained through fleet programs"
)
_FLEET_STEP_SECONDS = get_registry().histogram(
    "fleet_step_seconds", "wall time of one fleet epoch step (all instances)"
)


def fleet_structure_key(objective) -> tuple:
    """Program-structure key: instances sharing a key can share one graph.

    The AL program's shape depends only on the warmup boundary (all other
    schedule state lives in value-refreshed leaves); the penalty program's
    only structural switch is ``α == 0`` (the power path drops out of the
    loss entirely).
    """
    if isinstance(objective, AugmentedLagrangianObjective):
        return ("al", objective.warmup_epochs)
    if isinstance(objective, PenaltyObjective):
        return ("penalty", objective.alpha == 0.0)
    raise TypeError(
        f"fleet training supports AL and penalty objectives, got {type(objective).__name__}"
    )


def _clone_objective(objective):
    """Fresh objective with identical hyperparameters (for pad slots)."""
    if isinstance(objective, AugmentedLagrangianObjective):
        clone = AugmentedLagrangianObjective(
            power_budget=objective.power_budget,
            mu=objective.mu,
            multiplier_every=objective.multiplier_every,
            mu_growth=objective.mu_growth,
            warmup_epochs=objective.warmup_epochs,
            anneal_epochs=objective.anneal_epochs,
            anneal_start_factor=objective.anneal_start_factor,
            feasibility_rtol=objective.feasibility_rtol,
            multiplier=objective.multiplier,
        )
        clone.mu = objective.mu
        return clone
    return PenaltyObjective(
        alpha=objective.alpha, reference_power=objective.reference_power
    )


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
    ``val_accuracies`` delegate to one ``_GraphEngine``; this class owns the
    stacked leaves, the per-instance loss and the learning-rate stacks.
    """

    def __init__(
        self,
        nets: Sequence[PrintedNeuralNetwork],
        objectives: Sequence,
        split: DataSplit,
        settings: TrainerSettings,
        instances: int | None = None,
    ):
        if not nets:
            raise ValueError("fleet requires at least one network")
        if len(objectives) != len(nets):
            raise ValueError("one objective per network required")
        k = len(nets)
        n = k if instances is None else int(instances)
        if n < k:
            raise ValueError("instances must be >= len(nets)")

        ref = nets[0]
        self._structure_key = fleet_structure_key(objectives[0])
        for objective in objectives[1:]:
            if fleet_structure_key(objective) != self._structure_key:
                raise ValueError("all fleet objectives must share one structure key")
        self._check_members(nets, ref)

        self.split = split
        self.settings = settings
        self.instances = n
        self.n_real = k
        self._members = [nets[i] if i < k else nets[0] for i in range(n)]
        self.objectives = list(objectives) + [
            _clone_objective(objectives[0]) for _ in range(n - k)
        ]
        self._ref = ref
        self.n_layers = ref.n_layers
        self.signal_weight = ref.config.signal_health_weight

        # Per-instance learning rates, shared into every parameter's
        # lr_scale so the fused Adam applies instance ``i``'s rate to slice
        # ``i`` of every stacked leaf (u parameters at the serial 0.2 ratio).
        self._lrs = np.full(n, float(settings.lr))
        self._lr_theta = self._lrs.reshape(n, 1, 1).copy()
        self._lr_u = self._lr_theta * 0.2
        self._lr_dirty = False

        # Trainable leaves: θ stacks and u stacks, serial registration order
        # (crossbar_0, activation_0, crossbar_1, ...).
        self._theta_params: list[Parameter] = []
        self._u_params: list[list[Parameter]] = []
        for layer in range(self.n_layers):
            stack = np.stack(
                [member.crossbars()[layer].theta.data for member in self._members]
            )
            theta = Parameter(stack, name=f"crossbar_{layer}.theta")
            theta.lr_scale = self._lr_theta
            self._theta_params.append(theta)
            layer_us: list[Parameter] = []
            activation = ref.activations()[layer]
            for j in range(activation.space.dimension):
                values = np.array(
                    [
                        float(getattr(member.activations()[layer], f"u_{j}").data)
                        for member in self._members
                    ]
                ).reshape(n, 1, 1)
                u = Parameter(values, name=f"activation_{layer}.u_{j}")
                u.lr_scale = self._lr_u
                layer_us.append(u)
            self._u_params.append(layer_us)

        # Per-instance logit scales (no gradient — serial scale is a float).
        self._logit_t = Tensor(
            np.array([member.logit_scale for member in self._members]).reshape(n, 1, 1)
        )

        # Objective leaves.  AL: the five PHR leaves as (n, 1, 1) stacks,
        # value-refreshed per epoch.  Penalty: the fixed per-instance scale.
        if self._structure_key[0] == "al":
            self._lam_t = Tensor(np.zeros((n, 1, 1)))
            self._half_mu_t = Tensor(np.zeros((n, 1, 1)))
            self._budget_t = Tensor(np.ones((n, 1, 1)))
            self._inv_budget_t = Tensor(np.ones((n, 1, 1)))
            self._inactive_t = Tensor(np.zeros((n, 1, 1)))
        elif not self._structure_key[1]:
            self._penalty_scale_t = Tensor(
                np.array(
                    [o.alpha / o.reference_power for o in self.objectives]
                ).reshape(n, 1, 1)
            )

        # The engine reaches this program through a weak proxy: a strong
        # reference would form a cycle that keeps every captured buffer alive
        # until the cyclic garbage collector runs.
        me = weakref.proxy(self)
        self._engine = _GraphEngine(
            ref, split, lambda *args: me._loss(*args), enabled=settings.capture_graph,
            epoch_key=self.objectives[0].graph_epoch_key,
            prepare=lambda epoch: me._prepare_epoch(epoch),
            leaves=lambda: me._stacked_leaves(), label="fleet",
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _check_members(nets: Sequence[PrintedNeuralNetwork], ref: PrintedNeuralNetwork) -> None:
        cfg = ref.config
        ref_act = ref.activations()[0]
        if cfg.power_mode == "surrogate":
            shared = ref_act.surrogate
            if any(a.surrogate is not shared for a in ref.activations()):
                raise ValueError("fleet requires one shared activation surrogate per network")
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
            for activation in net.activations():
                if activation.space.dimension != ref_act.space.dimension:
                    raise ValueError("fleet members must share the design space")
            if cfg.power_mode == "surrogate":
                if not _same_surrogate(net.neg_surrogate, ref.neg_surrogate):
                    raise ValueError("fleet members must share the negation surrogate")
                for activation in net.activations():
                    if not _same_surrogate(activation.surrogate, ref_act.surrogate):
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
    def _prepare_epoch(self, epoch: int) -> None:
        """Refresh the per-instance AL leaves (value-only; replay-safe)."""
        if self._structure_key[0] != "al":
            return
        for i, objective in enumerate(self.objectives):
            budget = objective.effective_budget(epoch)
            self._lam_t.data[i] = objective.multiplier
            self._half_mu_t.data[i] = 0.5 * objective.mu
            self._budget_t.data[i] = budget
            self._inv_budget_t.data[i] = 1.0 / budget
            self._inactive_t.data[i] = -(objective.multiplier**2) / (2.0 * objective.mu)

    def _loss(self, logits: Tensor, power: Tensor, epoch: int) -> tuple[Tensor, Tensor]:
        """Per-instance ``(task, total)`` stacks: the serial loss on an instance axis."""
        health = self._ref.signal_health
        task_vec = F.instance_cross_entropy(logits, self.split.y_train)
        power3 = power.reshape(-1, 1, 1)
        if self._structure_key[0] == "al":
            if epoch < self._structure_key[1]:
                total = task_vec
            else:
                c = (power3 - self._budget_t) * self._inv_budget_t
                active = constant_of(
                    lambda cd, lam, hm: ((lam + 2.0 * hm * cd) >= 0.0).astype(np.float64),
                    c,
                    self._lam_t,
                    self._half_mu_t,
                )
                branch = c * self._lam_t + (c * c) * self._half_mu_t
                total = task_vec + branch.where(active, self._inactive_t)
        elif self._structure_key[1]:
            total = task_vec
        else:
            total = task_vec + power3 * self._penalty_scale_t
        if self.signal_weight > 0.0:
            total = total + health.reshape(-1, 1, 1) * self.signal_weight
        return task_vec, total

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

    Drop-in batched twin of calling
    :func:`~repro.training.trainer.train_model` per ``(net, objective)``
    pair: returns one :class:`TrainResult` per real network, bit-identical
    to the serial loop's (traces, checkpoints, final metrics).  ``instances``
    optionally pads the program to a fixed width so tail chunks reuse a
    captured program shape.
    """
    settings = settings or TrainerSettings()
    program = FleetProgram(nets, objectives, split, settings, instances=instances)
    n = program.instances
    k = program.n_real
    objectives = program.objectives

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
    recorders = [TraceRecorder(settings.trace_every) for _ in range(n)]
    budgets = [getattr(objective, "power_budget", None) for objective in objectives]

    best_val = np.full(n, -1.0)
    best_states: list[dict[str, np.ndarray] | None] = [None] * n
    best_epochs = np.full(n, -1, dtype=int)
    fallback_power = np.full(n, np.inf)
    fallback_states: list[dict[str, np.ndarray] | None] = [None] * n
    stale = np.zeros(n, dtype=int)
    stopped = np.zeros(n, dtype=bool)
    last_epoch = np.zeros(n, dtype=int)

    fleet_start = perf_counter()
    epochs_executed = 0
    for epoch in range(settings.epochs):
        if stopped[:k].all():
            break
        epochs_executed = epoch + 1
        epoch_start = perf_counter()
        optimizer.zero_grad()
        task_vec, _total = program.run_step(epoch)
        if program._lr_dirty:
            optimizer.refresh_lr_scales()
            program._lr_dirty = False
        optimizer.step()
        program.project_()
        step_time = perf_counter() - epoch_start
        _FLEET_STEP_SECONDS.observe(step_time)

        eval_start = perf_counter()
        post_logits, power_values = program.run_eval()
        # Dual updates run before validation accuracy, exactly as in the
        # serial loop (multiplier traces pair with this epoch's power).
        for i in range(n):
            if not stopped[i]:
                objectives[i].on_epoch_end(float(power_values[i]), epoch)
        accuracies = program.val_accuracies(post_logits)
        eval_time = perf_counter() - eval_start
        epoch_time = perf_counter() - epoch_start

        violation: float | None = None
        for i in range(n):
            if stopped[i]:
                continue
            last_epoch[i] = epoch
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
            recorders[i].on_epoch(event)
            if program._lrs[i] <= settings.min_lr and stale[i] >= settings.early_stop_stale:
                stopped[i] = True
        if violation is not None:
            _POWER_VIOLATION.set(violation)

    _FLEET_INSTANCES.inc(k)
    if run_logger is not None and run_logger.enabled:
        fields = {
            "instances": k,
            "epoch": epochs_executed,
            "duration_s": perf_counter() - fleet_start,
        }
        if chunk_index is not None:
            fields["chunk_index"] = int(chunk_index)
        run_logger.emit("fleet", **fields)

    # Finalize each real instance through the serial evaluation path.
    results: list[TrainResult] = []
    for i in range(k):
        net = nets[i]
        if best_states[i] is not None:
            net.load_state_dict(best_states[i])
            chosen_epoch = int(best_epochs[i])
        elif fallback_states[i] is not None:
            net.load_state_dict(fallback_states[i])
            chosen_epoch = -1
        else:
            chosen_epoch = -1
        train_accuracy, power = evaluate_model(net, split.x_train, split.y_train)
        val_accuracy = _accuracy_only(net, split.x_val, split.y_val)
        test_accuracy = _accuracy_only(net, split.x_test, split.y_test)
        results.append(
            TrainResult(
                train_accuracy=train_accuracy,
                val_accuracy=val_accuracy,
                test_accuracy=test_accuracy,
                power=power,
                feasible=objectives[i].is_feasible(power),
                device_count=net.device_count(),
                epochs_run=int(last_epoch[i]) + 1,
                best_epoch=chosen_epoch,
                loss_trace=recorders[i].loss_trace,
                power_trace=recorders[i].power_trace,
                val_accuracy_trace=recorders[i].val_accuracy_trace,
                multiplier_trace=recorders[i].multiplier_trace,
                state=net.state_dict(),
                counts=net.hard_counts(),
            )
        )
    return results
