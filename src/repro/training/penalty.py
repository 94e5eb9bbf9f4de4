"""Penalty-based baseline training (Zhao et al. [13]).

The baseline minimizes the soft-constrained objective

.. math::

    \\mathcal{L}(D, θ, q) + α · P(θ, q) / P_{ref}

for a fixed scaling factor α ∈ [0, 1].  Power is normalized by a reference
power so α is dimensionless and comparable across datasets (the paper's
Table I reports α ∈ {0.25, 0.5, 0.75, 1}).  One run yields one point in the
power/accuracy plane; tracing the Pareto front requires a sweep over α and
seeds — the paper uses 50 α values × 10 seeds (up to 500 runs) per dataset,
which is precisely the cost the augmented Lagrangian method eliminates.

:func:`penalty_pareto_sweep` runs that sweep one way only: the points are
trained as instance-stacked fleets (:func:`repro.training.fleet.train_fleet`),
chunk by chunk, in process or across the pool.  The per-point loop — one
training per (α, seed) — is the test oracle the fleets are checked against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.datasets.splits import DataSplit
from repro.observability.callbacks import TrainerCallback
from repro.training.trainer import LossLeaves, TrainResult, TrainerSettings, train_model

logger = logging.getLogger(__name__)


@dataclass
class PenaltyObjective:
    """Soft-penalty objective ``L + α·P/P_ref`` (no hard constraint)."""

    alpha: float
    reference_power: float = 1.0e-3

    #: The objective is structurally constant across epochs (one fixed
    #: penalty scale, a value leaf), so captured-graph replay is always valid.
    supports_graph_capture = True

    def graph_epoch_key(self, epoch: int) -> int:
        return 0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.reference_power <= 0:
            raise ValueError("reference power must be positive")

    def structure_key(self) -> tuple:
        """α = 0 drops the power path from the loss: a program of its own."""
        return ("penalty", self.alpha == 0.0)

    def loss_values(self, epoch: int) -> dict[str, float]:
        return {"scale": self.alpha / self.reference_power}

    def training_loss(
        self, loss: Tensor, power: Tensor, epoch: int, leaves: Mapping[str, Tensor] | None = None
    ) -> Tensor:
        if self.alpha == 0.0:
            return loss
        leaves = LossLeaves.single(self, epoch) if leaves is None else leaves
        return loss + power * leaves["scale"]

    def on_epoch_end(self, power_value: float, epoch: int) -> None:
        return None

    def is_feasible(self, power_value: float) -> bool:
        # Soft constraint: every power level is "feasible"; checkpointing
        # then reduces to best-validation-accuracy.
        return True


def train_penalty(
    net: PrintedNeuralNetwork,
    split: DataSplit,
    alpha: float,
    reference_power: float = 1.0e-3,
    settings: TrainerSettings | None = None,
    callbacks: Sequence[TrainerCallback] | None = None,
) -> TrainResult:
    """One penalty-based run at scaling factor ``alpha``."""
    objective = PenaltyObjective(alpha=alpha, reference_power=reference_power)
    return train_model(net, split, objective, settings=settings, callbacks=callbacks)


def train_unconstrained(
    net: PrintedNeuralNetwork,
    split: DataSplit,
    settings: TrainerSettings | None = None,
    callbacks: Sequence[TrainerCallback] | None = None,
) -> TrainResult:
    """Accuracy-only training (α = 0).

    Used to establish the maximum (unconstrained) power from which the
    paper's 20/40/60/80 % budgets are derived.
    """
    return train_penalty(net, split, alpha=0.0, settings=settings, callbacks=callbacks)


@dataclass
class ParetoSweepResult:
    """All penalty runs of a sweep plus convenience accessors."""

    alphas: list[float]
    seeds: list[int]
    results: list[TrainResult] = field(default_factory=list)
    #: structured records of fleet chunks that failed (a crashed chunk is
    #: isolated instead of killing the sweep; its points are missing)
    errors: list = field(default_factory=list)

    def points(self) -> np.ndarray:
        """``(n, 2)`` array of (test_accuracy, power_W) per run."""
        return np.array([[r.test_accuracy, r.power] for r in self.results])

    @property
    def n_runs(self) -> int:
        return len(self.results)


def penalty_pareto_sweep(
    make_net: Callable[[int], PrintedNeuralNetwork] | None = None,
    split: DataSplit | None = None,
    n_alphas: int = 50,
    n_seeds: int = 10,
    alpha_range: tuple[float, float] = (0.0, 1.0),
    reference_power: float = 1.0e-3,
    settings: TrainerSettings | None = None,
    n_jobs: int = 1,
    net_spec=None,
    progress=None,
    on_error: str = "continue",
    vectorized: bool = True,
    instance_chunk: int = 64,
) -> ParetoSweepResult:
    """The baseline's multi-run sweep: ``n_alphas × n_seeds`` trainings.

    Seeds ``0 .. n_seeds-1`` initialize fresh networks, mirroring the
    paper's "10 different seeds" protocol.  Paper scale is 50 × 10 = 500
    runs; callers shrink both for tractable benchmarks.

    ``net_spec`` (a :class:`repro.parallel.NetworkSpec`) describes the
    network and split; it is required.  The (α, seed) points are grouped by
    fleet structure key (``α == 0`` points apart from ``α > 0``), chunked to
    at most ``instance_chunk`` instances, and each chunk trains as one
    :class:`repro.parallel.FleetSweepChunkTask` through
    :func:`repro.parallel.map_tasks` — inline for ``n_jobs=1``, sharded
    across the pool otherwise.  Results land in ``results`` in α-major
    order, bit-identical to training each point alone.  A failed chunk
    records one error entry for the whole chunk in ``errors``;
    ``progress`` and ``on_error`` are forwarded to ``map_tasks``
    (``on_error="cancel"`` records the skipped chunks as
    ``TaskError(kind="cancelled")`` entries).

    ``make_net``, ``split`` and ``vectorized`` are ignored and kept only
    for the ``perfbench`` caller, which passes ``spec.build, split`` and
    ``vectorized=True``; ``vectorized=False`` raises, because the
    per-point loop is now a test oracle (``tests/serial_oracle.py``).
    """
    if not vectorized:
        raise ValueError(
            "penalty_pareto_sweep always trains stacked fleets; the per-point loop "
            "is the test oracle penalty_sweep_oracle in tests/serial_oracle.py"
        )
    if net_spec is None:
        raise ValueError("penalty_pareto_sweep requires net_spec (a repro.parallel.NetworkSpec)")
    if instance_chunk < 1:
        raise ValueError("instance_chunk must be >= 1")
    from repro.parallel import FleetSweepChunkTask, map_tasks
    from repro.training.fleet import fleet_structure_key

    alphas = list(np.linspace(alpha_range[0], alpha_range[1], n_alphas))
    seeds = list(range(n_seeds))
    sweep = ParetoSweepResult(alphas=alphas, seeds=seeds)
    logger.info("penalty Pareto sweep: %d α values × %d seeds = %d runs", n_alphas, n_seeds, n_alphas * n_seeds)

    # Group by structure key preserving sweep order within each group, then
    # chunk; every chunk's fleet shares one captured program shape.
    groups: dict = {}
    points = [(float(alpha), seed) for alpha in alphas for seed in seeds]
    for index, (alpha, seed) in enumerate(points):
        key = fleet_structure_key(PenaltyObjective(alpha=alpha, reference_power=reference_power))
        groups.setdefault(key, []).append((index, alpha, seed))
    tasks = []
    for group in groups.values():
        for offset in range(0, len(group), instance_chunk):
            chunk = group[offset : offset + instance_chunk]
            tasks.append(
                FleetSweepChunkTask(
                    spec=net_spec,
                    pairs=tuple((alpha, seed) for _i, alpha, seed in chunk),
                    indices=tuple(i for i, _alpha, _seed in chunk),
                    reference_power=reference_power,
                    settings=settings,
                    instances=min(instance_chunk, len(group)),
                    chunk_index=len(tasks),
                )
            )
    placed: list = [None] * len(points)
    for task, outcome in zip(
        tasks, map_tasks(tasks, n_jobs=n_jobs, progress=progress, on_error=on_error)
    ):
        if outcome.ok:
            for index, result in zip(task.indices, outcome.value):
                placed[index] = result
        else:
            sweep.errors.append(outcome.error)
    sweep.results.extend(result for result in placed if result is not None)
    return sweep
