"""Picklable task specs for the experiment populations of §IV.

Four task kinds cover the populations the process pool shards:

- :class:`MaxPowerTask` and :class:`BudgetTask` — Table-I grid cells, one
  training each;
- :class:`FleetSweepChunkTask` — a chunk of penalty-sweep points trained
  as one instance-stacked fleet (the sweep has no per-point task);
- :class:`MonteCarloChunkTask` — a shard of Monte-Carlo instances,
  evaluated as stacked sub-chunks.

Each task is a frozen dataclass holding only plain values (dataset name,
:class:`~repro.pdk.params.ActivationKind`, seeds, config dataclasses) so it
pickles cheaply into workers; ``run()`` lazily imports the heavy modules
(``repro.evaluation`` / ``repro.training``) to keep this module free of
import cycles and to let ``spawn``-started workers import on first use.

Workers rebuild *everything* — dataset, split, network, surrogates — from
the task fields with the same seeded constructors an in-process run uses,
so a task's result is bit-identical no matter which process runs it.
Surrogates come from :func:`repro.power.surrogate.get_cached_surrogate`,
whose on-disk cache is shared across workers (atomic write + lock, see
that module).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.pdk.params import ActivationKind

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.circuits.pnc import PrintedNeuralNetwork
    from repro.datasets.splits import DataSplit
    from repro.evaluation.experiments import BudgetRunRecord, ExperimentConfig
    from repro.pdk.variation import VariationSpec
    from repro.training.trainer import TrainerSettings, TrainResult


@dataclass(frozen=True)
class NetworkSpec:
    """Recipe for rebuilding a network + split inside a worker.

    Replaces the unpicklable ``make_net(seed)`` closures: carries the
    dataset name, activation kind, surrogate fit parameters and the split
    seed — everything needed to reconstruct the same
    :class:`PrintedNeuralNetwork` and :class:`DataSplit` in any process.
    """

    dataset: str
    kind: ActivationKind
    surrogate_n_q: int = 1500
    surrogate_epochs: int = 120
    split_seed: int = 0

    def surrogates(self):
        from repro.power.surrogate import get_cached_surrogate

        af = get_cached_surrogate(self.kind, n_q=self.surrogate_n_q, epochs=self.surrogate_epochs)
        neg = get_cached_surrogate(
            "negation", n_q=self.surrogate_n_q // 2, epochs=self.surrogate_epochs
        )
        return af, neg

    def build(self, seed: int, surrogates=None) -> "PrintedNeuralNetwork":
        from repro.circuits import PNCConfig, PrintedNeuralNetwork
        from repro.datasets import load_dataset

        dataset = load_dataset(self.dataset)
        # ``surrogates`` lets fleet builders fetch once and share the same
        # objects across every member network of a chunk.
        af, neg = self.surrogates() if surrogates is None else surrogates
        return PrintedNeuralNetwork(
            dataset.n_features,
            dataset.n_classes,
            PNCConfig(kind=self.kind),
            np.random.default_rng(seed),
            af,
            neg,
        )

    def split(self) -> "DataSplit":
        from repro.datasets import load_dataset, train_val_test_split

        return train_val_test_split(load_dataset(self.dataset), seed=self.split_seed)


@dataclass(frozen=True)
class MaxPowerTask:
    """Phase-1 grid cell: unconstrained training → maximum power anchor."""

    dataset: str
    kind: ActivationKind
    config: "ExperimentConfig"

    @property
    def label(self) -> str:
        return f"maxpower:{self.dataset}:{self.kind.value}"

    def run(self) -> float:
        from repro.evaluation.experiments import dataset_split, unconstrained_max_power
        from repro.parallel.telemetry import worker_callbacks

        split = dataset_split(self.dataset, seed=self.config.seed)
        max_power, _ = unconstrained_max_power(
            self.dataset, self.kind, self.config, split=split,
            callbacks=worker_callbacks(phase="reference"),
        )
        return max_power


@dataclass(frozen=True)
class BudgetTask:
    """Phase-2 grid cell: one AL run at a fraction of the max power."""

    dataset: str
    kind: ActivationKind
    budget_fraction: float
    max_power_w: float
    config: "ExperimentConfig"

    @property
    def label(self) -> str:
        return f"budget:{self.dataset}:{self.kind.value}:{self.budget_fraction:g}"

    def run(self) -> "BudgetRunRecord":
        from repro.evaluation.experiments import dataset_split, run_budget_experiment
        from repro.parallel.telemetry import worker_callbacks

        split = dataset_split(self.dataset, seed=self.config.seed)
        return run_budget_experiment(
            self.dataset,
            self.kind,
            self.budget_fraction,
            self.config,
            max_power_w=self.max_power_w,
            split=split,
            callbacks=worker_callbacks(phase="constrained"),
        )


@dataclass(frozen=True)
class FleetSweepChunkTask:
    """One stacked chunk of a penalty Pareto sweep.

    Holds a contiguous group of ``(α, seed)`` points sharing one fleet
    structure key, trained together through
    :func:`repro.training.fleet.train_fleet` as a single instance-stacked
    program.  ``indices`` are the points' positions in the sweep's
    α-major order, so the caller can put results back in that order.
    ``instances`` fixes the program width (tail chunks are padded inside
    ``train_fleet``).
    """

    spec: NetworkSpec
    pairs: tuple  # ((alpha, seed), ...)
    indices: tuple  # original sweep positions, same length as pairs
    reference_power: float = 1.0e-3
    settings: "TrainerSettings | None" = None
    instances: int | None = None
    chunk_index: int = 0

    @property
    def label(self) -> str:
        return f"fleet:{self.spec.dataset}:c{self.chunk_index}x{len(self.pairs)}"

    def run(self) -> "list[TrainResult]":
        from repro.parallel.telemetry import worker_run_logger
        from repro.training.fleet import train_fleet
        from repro.training.penalty import PenaltyObjective

        surrogates = self.spec.surrogates()
        split = self.spec.split()
        # Each distinct seed is built once; a later pair with that seed gets
        # a deep copy sharing the surrogate objects (the fleet's identity
        # fast path).  Members stay distinct: train_fleet loads each
        # instance's best state into its own net.
        built: dict = {}
        nets = []
        for _alpha, seed in self.pairs:
            if seed in built:
                nets.append(copy.deepcopy(built[seed], memo={id(s): s for s in surrogates}))
            else:
                built[seed] = self.spec.build(seed, surrogates=surrogates)
                nets.append(built[seed])
        objectives = [
            PenaltyObjective(alpha=float(alpha), reference_power=self.reference_power)
            for alpha, _seed in self.pairs
        ]
        return train_fleet(
            nets,
            split,
            objectives,
            settings=self.settings,
            instances=self.instances,
            run_logger=worker_run_logger(),
            chunk_index=self.chunk_index,
        )


@dataclass(frozen=True)
class MonteCarloChunkTask:
    """A contiguous shard of Monte-Carlo instances of one trained net.

    The network travels by pickle (prepared via
    :func:`repro.evaluation.montecarlo.picklable_network`); each instance
    gets its own pre-spawned :class:`numpy.random.SeedSequence`, so results
    do not depend on how instances are sharded across workers.  The worker
    evaluates its shard as stacked sub-chunks of ``instance_chunk``
    instances through the captured-graph ensemble engine — the process pool
    shards chunks of *stacks*.
    """

    net: Any  # PrintedNeuralNetwork (Any keeps the dataclass pickle-simple)
    x: np.ndarray
    y: np.ndarray
    variation: "VariationSpec"
    seed_seqs: tuple
    start: int
    instance_chunk: int = 64

    @property
    def label(self) -> str:
        return f"montecarlo:{self.start}+{len(self.seed_seqs)}"

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        from repro.evaluation.montecarlo import evaluate_instances_vectorized
        from repro.parallel.telemetry import worker_run_logger

        rngs = [np.random.default_rng(ss) for ss in self.seed_seqs]
        return evaluate_instances_vectorized(
            self.net, self.x, self.y, self.variation, rngs,
            instance_chunk=self.instance_chunk,
            run_logger=worker_run_logger(),
            start=self.start,
        )
