"""Power-constrained training (the paper's core contribution, §III-C).

- :mod:`repro.training.trainer` — ``train_model``, the objective protocol
  and the step/eval/val engine of the one training loop (full-batch Adam
  with plateau LR halving, feasible-checkpoint tracking and early
  stopping),
- :mod:`repro.training.augmented_lagrangian` — the proposed method: smoothed
  augmented Lagrangian with analytic inner maximization and multiplier
  updates (Eqs. 3–4),
- :mod:`repro.training.penalty` — the penalty-based baseline ``L + α·P``
  of [13], including the multi-run Pareto sweep,
- :mod:`repro.training.fleet` — the training loop itself: one captured
  forward/backward/Adam schedule steps a whole stack of (network,
  objective) instances per epoch, bit-identical per instance to training
  it alone (``train_model`` is the loop with one instance),
- :mod:`repro.training.finetune` — the paper's post-training fine-tuning:
  prune masks m^C / m^N, then constrained retraining,
- :mod:`repro.training.pareto` — Pareto dominance and front extraction,
- :mod:`repro.training.tuning` — μ selection by validation search (the
  paper uses RayTune; we run the identical search deterministically).
"""

from repro.training.trainer import TrainResult, TrainerSettings, train_model, evaluate_model
from repro.training.augmented_lagrangian import (
    AugmentedLagrangianObjective,
    train_power_constrained,
)
from repro.training.fleet import FleetProgram, fleet_structure_key, train_fleet
from repro.training.penalty import PenaltyObjective, train_penalty, penalty_pareto_sweep, train_unconstrained
from repro.training.pareto import pareto_front, dominates, hypervolume_2d
from repro.training.finetune import generate_masks, finetune
from repro.training.multi_constraint import PowerAreaObjective, train_power_area_constrained
from repro.training.tuning import tune_mu

__all__ = [
    "TrainResult",
    "TrainerSettings",
    "train_model",
    "evaluate_model",
    "AugmentedLagrangianObjective",
    "train_power_constrained",
    "FleetProgram",
    "fleet_structure_key",
    "train_fleet",
    "PenaltyObjective",
    "train_penalty",
    "penalty_pareto_sweep",
    "train_unconstrained",
    "pareto_front",
    "dominates",
    "hypervolume_2d",
    "generate_masks",
    "finetune",
    "tune_mu",
    "PowerAreaObjective",
    "train_power_area_constrained",
]
