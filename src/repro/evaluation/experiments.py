"""Experiment orchestration for the paper's evaluation section.

The central object is the grid of §IV: for each dataset, each activation
function, and each power budget fraction {20, 40, 60, 80} % of the
unconstrained maximum power, run augmented-Lagrangian training once and
record (accuracy, power, device count, feasibility).  The penalty baseline
sweeps α and seeds on the same splits.

Experiment scale is configurable because paper scale (13 datasets × 4 AFs ×
4 budgets + 500 baseline runs/dataset) is hours of compute: the benchmarks
default to a reduced-but-structurally-identical schedule and honour
``REPRO_FULL=1`` for the full protocol.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

import numpy as np

from repro.circuits import PrintedNeuralNetwork, PNCConfig
from repro.datasets import load_dataset, train_val_test_split, DataSplit
from repro.parallel import (
    BudgetTask,
    MaxPowerTask,
    NetworkSpec,
    collect_values,
    map_tasks,
)
from repro.pdk.params import ActivationKind, ALL_ACTIVATIONS
from repro.power.surrogate import SurrogatePowerModel, get_cached_surrogate
from repro.training import (
    TrainerSettings,
    TrainResult,
    train_power_constrained,
    train_unconstrained,
    penalty_pareto_sweep,
    pareto_front,
)
# Import the *function* explicitly from its defining module.  ``from
# repro.training import finetune`` is ambiguous: ``finetune`` is both a
# submodule and a re-exported function of the package, so the binding
# depends on package import order — an alias that looked callable but could
# resolve to the module.
from repro.training.finetune import finetune as run_finetune
from repro.training.penalty import ParetoSweepResult

logger = logging.getLogger(__name__)

#: The paper's power budgets, as fractions of the unconstrained maximum.
POWER_BUDGET_FRACTIONS: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)

#: The baseline scaling factors reported in Table I.
BASELINE_ALPHAS: tuple[float, ...] = (1.0, 0.75, 0.5, 0.25)


def full_scale() -> bool:
    """Whether paper-scale experiments were requested (env REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "0") == "1"


@dataclass
class ExperimentConfig:
    """Knobs of one experiment campaign."""

    epochs: int = 450
    patience: int = 100
    mu: float = 2.0
    mu_growth: float = 1.2
    warmup_epochs: int = 80
    anneal_epochs: int = 200
    seed: int = 0
    surrogate_n_q: int = 1500
    surrogate_epochs: int = 120
    #: AL runs per (dataset, AF, budget); the paper reports top-3 of several
    n_restarts: int = 1
    #: run the paper's §IV-A1 fine-tuning (prune masks + constrained retrain)
    finetune: bool = True
    finetune_epochs: int = 150
    #: execute epochs by captured-graph replay (CLI --no-capture disables)
    capture_graph: bool = True

    def trainer_settings(self) -> TrainerSettings:
        return TrainerSettings(
            epochs=self.epochs, patience=self.patience, capture_graph=self.capture_graph
        )


@dataclass
class BudgetRunRecord:
    """One grid cell: dataset × activation × budget."""

    dataset: str
    kind: ActivationKind
    budget_fraction: float
    budget_w: float
    max_power_w: float
    result: TrainResult

    @property
    def accuracy(self) -> float:
        return self.result.test_accuracy

    @property
    def power_w(self) -> float:
        return self.result.power

    @property
    def feasible(self) -> bool:
        return self.result.feasible

    @property
    def device_count(self) -> int:
        return self.result.device_count


def _surrogates(
    kind: ActivationKind, config: ExperimentConfig
) -> tuple[SurrogatePowerModel, SurrogatePowerModel]:
    af = get_cached_surrogate(kind, n_q=config.surrogate_n_q, epochs=config.surrogate_epochs)
    neg = get_cached_surrogate("negation", n_q=config.surrogate_n_q // 2, epochs=config.surrogate_epochs)
    return af, neg


def make_network(
    dataset_name: str,
    kind: ActivationKind,
    seed: int,
    config: ExperimentConfig,
) -> PrintedNeuralNetwork:
    """Construct a fresh pNC for a dataset with the paper's topology."""
    dataset = load_dataset(dataset_name)
    af, neg = _surrogates(kind, config)
    pnc_config = PNCConfig(kind=kind)
    return PrintedNeuralNetwork(
        dataset.n_features, dataset.n_classes, pnc_config, np.random.default_rng(seed), af, neg
    )


def dataset_split(dataset_name: str, seed: int = 0) -> DataSplit:
    """The standard 60/20/20 split of one benchmark."""
    return train_val_test_split(load_dataset(dataset_name), seed=seed)


def unconstrained_max_power(
    dataset_name: str,
    kind: ActivationKind,
    config: ExperimentConfig,
    split: DataSplit | None = None,
    callbacks=None,
) -> tuple[float, TrainResult]:
    """Maximum power observed in unconstrained training (budget anchor).

    ``callbacks`` are forwarded to the training loop — inside a pool
    worker this is where :func:`repro.parallel.worker_callbacks` attaches
    the worker-attributed event stream and health watchdogs.
    """
    split = split or dataset_split(dataset_name, seed=config.seed)
    net = make_network(dataset_name, kind, config.seed, config)
    result = train_unconstrained(
        net, split, settings=config.trainer_settings(), callbacks=callbacks
    )
    max_power = max(result.power_trace) if result.power_trace else result.power
    return max_power, result


def run_budget_experiment(
    dataset_name: str,
    kind: ActivationKind,
    budget_fraction: float,
    config: ExperimentConfig,
    max_power_w: float | None = None,
    split: DataSplit | None = None,
    callbacks=None,
) -> BudgetRunRecord:
    """One AL training run at ``budget_fraction`` of the max power.

    With ``config.n_restarts > 1`` the best feasible test accuracy across
    restarts is kept (the paper selects the top models per dataset).
    ``callbacks`` ride into every contained training loop (AL restarts and
    the fine-tuning pass alike).
    """
    split = split or dataset_split(dataset_name, seed=config.seed)
    if max_power_w is None:
        max_power_w, _ = unconstrained_max_power(
            dataset_name, kind, config, split=split, callbacks=callbacks
        )
    budget = budget_fraction * max_power_w
    logger.info(
        "budget experiment: %s / %s @ %.0f%% (%.4g W)",
        dataset_name, kind.value, budget_fraction * 100, budget,
    )

    best: TrainResult | None = None
    for restart in range(config.n_restarts):
        net = make_network(dataset_name, kind, config.seed + 1000 * restart + 1, config)
        result = train_power_constrained(
            net,
            split,
            power_budget=budget,
            mu=config.mu,
            mu_growth=config.mu_growth,
            warmup_epochs=config.warmup_epochs,
            anneal_epochs=config.anneal_epochs,
            settings=config.trainer_settings(),
            callbacks=callbacks,
        )
        if config.finetune:
            tuned = run_finetune(
                net,
                split,
                power_budget=budget,
                mu=config.mu,
                settings=TrainerSettings(
                    epochs=config.finetune_epochs, lr=0.02, patience=max(30, config.patience // 2)
                ),
                callbacks=callbacks,
            )
            # Keep the fine-tuned circuit when it is at least as good (the
            # paper's protocol always fine-tunes; we guard against the rare
            # pruning that destroys a fragile solution).
            if _better(tuned, result) or (
                tuned.feasible == result.feasible
                and tuned.test_accuracy >= result.test_accuracy - 1e-9
            ):
                result = tuned
        if best is None or _better(result, best):
            best = result
    return BudgetRunRecord(
        dataset=dataset_name,
        kind=kind,
        budget_fraction=budget_fraction,
        budget_w=budget,
        max_power_w=max_power_w,
        result=best,
    )


def _better(a: TrainResult, b: TrainResult) -> bool:
    """Prefer feasible results, then higher test accuracy."""
    if a.feasible != b.feasible:
        return a.feasible
    return a.test_accuracy > b.test_accuracy


def run_dataset_grid(
    dataset_names: list[str],
    kinds: tuple[ActivationKind, ...] = ALL_ACTIVATIONS,
    budget_fractions: tuple[float, ...] = POWER_BUDGET_FRACTIONS,
    config: ExperimentConfig | None = None,
    n_jobs: int = 1,
    progress=None,
    on_error: str = "continue",
) -> list[BudgetRunRecord]:
    """The full Table I / Fig. 4 grid over the given datasets.

    Runs in two phases so the budget anchor stays shared exactly as in the
    serial protocol: phase 1 maps one unconstrained run per (dataset, AF)
    to find each cell's maximum power; phase 2 maps one AL run per
    (dataset, AF, budget fraction).  Both phases go through
    :func:`repro.parallel.map_tasks`, so results are bit-identical for any
    ``n_jobs`` and records come back in the serial iteration order.

    ``progress`` is an optional ``(outcome, done, total)`` callback — see
    :class:`repro.parallel.TaskProgressReporter`.  If any task fails, the
    remaining tasks still run (or, with ``on_error="cancel"``, queued
    tasks are cancelled), then a
    :class:`repro.parallel.TaskFailedError` naming every failed cell is
    raised.
    """
    config = config or ExperimentConfig()
    cells = [(dataset_name, kind) for dataset_name in dataset_names for kind in kinds]
    max_tasks = [MaxPowerTask(dataset_name, kind, config) for dataset_name, kind in cells]
    max_powers = collect_values(
        map_tasks(max_tasks, n_jobs=n_jobs, progress=progress, on_error=on_error)
    )
    anchor = dict(zip(cells, max_powers))

    budget_tasks = [
        BudgetTask(dataset_name, kind, fraction, anchor[(dataset_name, kind)], config)
        for dataset_name, kind in cells
        for fraction in budget_fractions
    ]
    return collect_values(
        map_tasks(budget_tasks, n_jobs=n_jobs, progress=progress, on_error=on_error)
    )


@dataclass
class ParetoComparison:
    """Fig. 5 data for one dataset: baseline sweep vs AL points."""

    dataset: str
    sweep: ParetoSweepResult
    front: np.ndarray  # (k, 2) accuracy/power
    al_records: list[BudgetRunRecord] = field(default_factory=list)

    def al_points(self) -> np.ndarray:
        return np.array([[r.accuracy, r.power_w] for r in self.al_records])


def network_spec(dataset_name: str, kind: ActivationKind, config: ExperimentConfig) -> NetworkSpec:
    """The picklable recipe matching :func:`make_network` + :func:`dataset_split`."""
    return NetworkSpec(
        dataset=dataset_name,
        kind=kind,
        surrogate_n_q=config.surrogate_n_q,
        surrogate_epochs=config.surrogate_epochs,
        split_seed=config.seed,
    )


def run_pareto_comparison(
    dataset_name: str,
    kind: ActivationKind = ActivationKind.TANH,
    n_alphas: int = 6,
    n_seeds: int = 2,
    budget_fractions: tuple[float, ...] = POWER_BUDGET_FRACTIONS,
    config: ExperimentConfig | None = None,
    n_jobs: int = 1,
    progress=None,
    on_error: str = "continue",
    instance_chunk: int = 64,
) -> ParetoComparison:
    """Fig. 5: penalty sweep Pareto front vs single-run AL optima.

    Paper scale is ``n_alphas=50, n_seeds=10`` (500 runs); defaults are
    reduced.  The AL side runs exactly one training per budget.  The sweep
    trains as instance-stacked fleets of up to ``instance_chunk`` (α, seed)
    points per captured program (see
    :func:`repro.training.penalty.penalty_pareto_sweep`); both the sweep
    chunks and the AL runs shard over ``n_jobs`` worker processes.
    """
    config = config or ExperimentConfig()
    split = dataset_split(dataset_name, seed=config.seed)
    spec = network_spec(dataset_name, kind, config)

    sweep = penalty_pareto_sweep(
        n_alphas=n_alphas,
        n_seeds=n_seeds,
        settings=config.trainer_settings(),
        n_jobs=n_jobs,
        net_spec=spec,
        progress=progress,
        on_error=on_error,
        instance_chunk=instance_chunk,
    )
    front = pareto_front(sweep.points())

    max_power, _ = unconstrained_max_power(dataset_name, kind, config, split=split)
    al_tasks = [
        BudgetTask(dataset_name, kind, fraction, max_power, config)
        for fraction in budget_fractions
    ]
    al_records = collect_values(
        map_tasks(al_tasks, n_jobs=n_jobs, progress=progress, on_error=on_error)
    )
    return ParetoComparison(dataset_name, sweep, front, al_records)
