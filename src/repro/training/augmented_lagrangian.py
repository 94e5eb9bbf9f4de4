"""Augmented Lagrangian power-constrained training (paper §III-C).

The constrained problem

.. math::

    \\min_{θ,q} \\; \\mathcal{L}(D, θ, q)
    \\quad \\text{s.t.} \\quad c(θ, q) = P(θ, q) - \\bar P \\le 0

is solved by alternating the smoothed inner problem (Eq. 3)

.. math::

    \\min_{θ,q} \\; \\mathcal{L}
      + \\max_{λ ≥ 0} \\Big[ λ·c - \\tfrac{1}{2μ}(λ - λ')^2 \\Big]

with the multiplier update (Eq. 4) ``λ' ← max(0, λ' + μ·c)``.  The inner
maximization over λ is analytic (see [32]): the maximizer is
``λ* = max(0, λ' + μ·c)``, which turns the bracket into the classic
Powell–Hestenes–Rockafellar (PHR) penalty

.. math::

    ψ(c; λ', μ) =
    \\begin{cases}
      λ'c + \\tfrac{μ}{2}c^2          & λ' + μc \\ge 0 \\\\
      -\\tfrac{λ'^2}{2μ}              & \\text{otherwise.}
    \\end{cases}

ψ is continuously differentiable in c, which is what lets Eq. 3 ride on
ordinary backpropagation.

Conditioning note: powers are ~1e-4 W while the cross-entropy is ~1; the
constraint is therefore normalized to ``c = (P - P̄)/P̄`` (dimensionless,
−1 ≤ c at P=0 and c=0 at the budget), so a single μ works across datasets
— equivalent to the paper's formulation up to a rescaling of λ and μ.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.autograd.tensor import Tensor, constant_of
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.datasets.splits import DataSplit
from repro.observability.callbacks import TrainerCallback
from repro.training.trainer import LossLeaves, TrainResult, TrainerSettings, train_model

logger = logging.getLogger(__name__)


def phr_values(multiplier: float, mu: float, budget: float, prefix: str = "") -> dict[str, float]:
    """One instance's constants of a PHR term over ``c = (value - budget)/budget``.

    The value-leaf names :func:`phr_term` reads (see
    :class:`~repro.training.trainer.LossLeaves`); ``prefix`` keeps the terms
    of a multi-constraint objective apart.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if multiplier < 0:
        raise ValueError("the multiplier estimate must be non-negative")
    return {
        f"{prefix}lam": multiplier,
        f"{prefix}half_mu": 0.5 * mu,
        f"{prefix}budget": budget,
        f"{prefix}inv_budget": 1.0 / budget,
        f"{prefix}inactive": -(multiplier**2) / (2.0 * mu),
    }


def phr_term(value: Tensor, leaves: Mapping[str, Tensor], prefix: str = "") -> Tensor:
    """ψ(c; λ', μ) of ``c = (value - budget)/budget``, per instance.

    ``leaves`` hold :func:`phr_values`' constants — ``(n, 1, 1)`` stacks in
    the training loop, 0-d outside it — so λ/μ updates and budget changes
    are value-only and a captured graph stays valid across them.
    """
    c = (value - leaves[f"{prefix}budget"]) * leaves[f"{prefix}inv_budget"]
    return _psi(c, leaves[f"{prefix}lam"], leaves[f"{prefix}half_mu"], leaves[f"{prefix}inactive"])


def _psi(c: Tensor, lam: Tensor, half_mu: Tensor, inactive: Tensor) -> Tensor:
    # Branch-free PHR: both branches are computed and a replayable constant
    # node selects between them, so the active/inactive flip is a value
    # change, not a structural one.  The selected branch's value is the
    # branching formula's, and the deselected branch contributes an
    # exact-zero gradient.
    active = constant_of(
        lambda cd, lm, hm: ((lm + 2.0 * hm * cd) >= 0.0).astype(np.float64), c, lam, half_mu
    )
    return (c * lam + (c * c) * half_mu).where(active, inactive)


@dataclass
class AugmentedLagrangianObjective:
    """Objective state for AL training: λ' estimate and its update schedule.

    Parameters
    ----------
    power_budget:
        P̄ in watts — the hard limit.
    mu:
        AL quadratic weight (on the normalized constraint).
    multiplier_every:
        Update λ' every this-many epochs; the classic method solves the
        inner problem to convergence between updates, the practical variant
        used here (and standard for NN training) updates on a fixed cadence
        with warm-started parameters.
    mu_growth:
        Optional geometric μ growth applied when an update leaves the
        constraint violated (Bertsekas' safeguard); 1.0 disables it.
    warmup_epochs:
        Epochs of pure cross-entropy before the constraint activates.  A
        randomly initialized circuit violating the budget would otherwise be
        dragged toward low power before it represents anything, frequently
        stranding it in a dead region; a short warmup lets the classifier
        form first, after which the multiplier walks the power down.  The
        budget itself is unchanged — feasibility is still judged against P̄.
    """

    power_budget: float
    mu: float = 2.0
    multiplier_every: int = 10
    mu_growth: float = 1.0
    warmup_epochs: int = 0
    #: budget homotopy: after warmup the effective budget interpolates
    #: geometrically from ``anneal_start_factor * P̄`` down to P̄ over
    #: ``anneal_epochs`` epochs, so tight constraints walk the circuit along
    #: trainable intermediate designs instead of yanking it straight into
    #: the low-power corner.  Feasibility is always judged against P̄.
    anneal_epochs: int = 0
    anneal_start_factor: float = 4.0
    feasibility_rtol: float = 1e-3
    multiplier: float = 0.0

    #: The post-warmup PHR term reads its constants (λ, μ/2, budget,
    #: inactive value) from value leaves (see :meth:`loss_values`), so λ/μ
    #: updates and budget annealing only change leaf *values* — a captured
    #: training graph stays structurally valid across them.  Only the warmup
    #: boundary changes the program (see :meth:`graph_epoch_key`).
    supports_graph_capture = True

    def __post_init__(self):
        if self.power_budget <= 0:
            raise ValueError("power budget must be positive")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.mu_growth < 1.0:
            raise ValueError("mu_growth must be >= 1")

    # ------------------------------------------------------------------
    def effective_budget(self, epoch: int) -> float:
        """The annealed budget active at ``epoch`` (equals P̄ after annealing)."""
        if self.anneal_epochs <= 0 or self.anneal_start_factor <= 1.0:
            return self.power_budget
        progress = (epoch - self.warmup_epochs) / self.anneal_epochs
        progress = min(max(progress, 0.0), 1.0)
        factor = self.anneal_start_factor ** (1.0 - progress)
        return self.power_budget * factor

    def constraint(self, power: Tensor, epoch: int | None = None) -> Tensor:
        """Normalized constraint ``c = (P - P̄_t) / P̄_t`` (Tensor)."""
        budget = self.power_budget if epoch is None else self.effective_budget(epoch)
        return (power - budget) * (1.0 / budget)

    def graph_epoch_key(self, epoch: int) -> int:
        """Structural key: warmup (bare loss) vs the constrained program."""
        return 0 if epoch < self.warmup_epochs else 1

    def structure_key(self) -> tuple:
        """Instances with equal warmups share one program."""
        return ("al", self.warmup_epochs)

    def loss_values(self, epoch: int) -> dict[str, float]:
        """This instance's PHR constants at ``epoch`` (annealed budget)."""
        return phr_values(self.multiplier, self.mu, self.effective_budget(epoch))

    def training_loss(
        self, loss: Tensor, power: Tensor, epoch: int, leaves: Mapping[str, Tensor] | None = None
    ) -> Tensor:
        if epoch < self.warmup_epochs:
            return loss
        return loss + phr_term(power, LossLeaves.single(self, epoch) if leaves is None else leaves)

    def on_epoch_end(self, power_value: float, epoch: int) -> None:
        if epoch < self.warmup_epochs:
            return
        if (epoch + 1) % self.multiplier_every != 0:
            return
        budget = self.effective_budget(epoch)
        c = (power_value - budget) / budget
        self.multiplier = max(0.0, self.multiplier + self.mu * c)
        logger.debug(
            "epoch %d: λ ← %.6f (c=%.4f, μ=%.3f)", epoch, self.multiplier, c, self.mu
        )
        if c > self.feasibility_rtol and self.mu_growth > 1.0:
            self.mu *= self.mu_growth

    def is_feasible(self, power_value: float) -> bool:
        return power_value <= self.power_budget * (1.0 + self.feasibility_rtol)


def train_power_constrained(
    net: PrintedNeuralNetwork,
    split: DataSplit,
    power_budget: float,
    mu: float = 2.0,
    multiplier_every: int = 5,
    mu_growth: float = 1.2,
    warmup_epochs: int = 80,
    anneal_epochs: int = 200,
    settings: TrainerSettings | None = None,
    callbacks: Sequence[TrainerCallback] | None = None,
) -> TrainResult:
    """Train ``net`` under the hard budget ``power_budget`` (watts).

    This is the paper's proposed method: one run yields a circuit whose
    power respects the budget, with the best feasible validation accuracy
    checkpoint restored into ``net``.
    """
    objective = AugmentedLagrangianObjective(
        power_budget=power_budget,
        mu=mu,
        multiplier_every=multiplier_every,
        mu_growth=mu_growth,
        warmup_epochs=warmup_epochs,
        anneal_epochs=anneal_epochs,
    )
    logger.info("augmented-Lagrangian training: budget %.4g W, μ=%.3g", power_budget, mu)
    return train_model(net, split, objective, settings=settings, callbacks=callbacks)
