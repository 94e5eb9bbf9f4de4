"""Multi-constraint augmented Lagrangian training (extension).

The paper's conclusion: "future works may explore its applicability to
additional circuit components and constraints."  This module implements that
extension for the most natural second constraint — **printed device count**
(area/ink): one PHR term and one multiplier per constraint,

.. math::

    \\min_{θ,q} \\; \\mathcal{L}
        + ψ(c_P; λ_P, μ_P) + ψ(c_D; λ_D, μ_D)

with ``c_P = (P - P̄)/P̄`` and ``c_D = (N_dev - N̄)/N̄``.  The device count
flows gradients through the straight-through relaxation exposed by
:attr:`PrintedNeuralNetwork.soft_device_count`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.autograd.tensor import Tensor
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.datasets.splits import DataSplit
from repro.observability.callbacks import TrainerCallback
from repro.training.augmented_lagrangian import phr_term, phr_values
from repro.training.trainer import LossLeaves, TrainResult, TrainerSettings, train_model

logger = logging.getLogger(__name__)


@dataclass
class PowerAreaObjective:
    """Hard power budget AND hard device-count budget, one λ each.

    Parameters
    ----------
    net:
        The network being trained — needed to read the differentiable device
        count the forward pass produced (the trainer's objective protocol
        only hands us loss and power).
    power_budget:
        P̄ in watts.
    device_budget:
        N̄ in printed components (crossbar resistors + circuit components).
    """

    net: PrintedNeuralNetwork
    power_budget: float
    device_budget: float
    mu_power: float = 5.0
    mu_area: float = 2.0
    multiplier_every: int = 5
    mu_growth: float = 1.3
    warmup_epochs: int = 60
    feasibility_rtol: float = 1e-3
    multiplier_power: float = 0.0
    multiplier_area: float = 0.0

    #: training_loss reads ``self.net.soft_device_count`` — state the trainer
    #: does not rebuild under replay — so this objective always runs eagerly.
    supports_graph_capture = False

    def __post_init__(self):
        if self.power_budget <= 0 or self.device_budget <= 0:
            raise ValueError("budgets must be positive")

    # ------------------------------------------------------------------
    def loss_values(self, epoch: int) -> dict[str, float]:
        """Both PHR terms' constants, ``power_*`` and ``area_*``."""
        return {
            **phr_values(self.multiplier_power, self.mu_power, self.power_budget, "power_"),
            **phr_values(self.multiplier_area, self.mu_area, self.device_budget, "area_"),
        }

    def training_loss(
        self, loss: Tensor, power: Tensor, epoch: int, leaves: Mapping[str, Tensor] | None = None
    ) -> Tensor:
        if epoch < self.warmup_epochs:
            return loss
        leaves = LossLeaves.single(self, epoch) if leaves is None else leaves
        devices = self.net.soft_device_count.reshape(power.shape)
        return loss + phr_term(power, leaves, "power_") + phr_term(devices, leaves, "area_")

    def on_epoch_end(self, power_value: float, epoch: int) -> None:
        if epoch < self.warmup_epochs or (epoch + 1) % self.multiplier_every != 0:
            return
        c_power = (power_value - self.power_budget) / self.power_budget
        self.multiplier_power = max(0.0, self.multiplier_power + self.mu_power * c_power)
        devices = self.net.soft_device_count.item()
        c_area = (devices - self.device_budget) / self.device_budget
        self.multiplier_area = max(0.0, self.multiplier_area + self.mu_area * c_area)
        if self.mu_growth > 1.0:
            if c_power > self.feasibility_rtol:
                self.mu_power *= self.mu_growth
            if c_area > self.feasibility_rtol:
                self.mu_area *= self.mu_growth

    def is_feasible(self, power_value: float) -> bool:
        power_ok = power_value <= self.power_budget * (1.0 + self.feasibility_rtol)
        devices_ok = self.net.device_count() <= self.device_budget * (1.0 + self.feasibility_rtol)
        return power_ok and devices_ok

    # The trainer reads .multiplier for its trace if present; expose the
    # power multiplier as the primary one.
    @property
    def multiplier(self) -> float:
        return self.multiplier_power


def train_power_area_constrained(
    net: PrintedNeuralNetwork,
    split: DataSplit,
    power_budget: float,
    device_budget: float,
    mu_power: float = 5.0,
    mu_area: float = 2.0,
    warmup_epochs: int = 60,
    settings: TrainerSettings | None = None,
    callbacks: Sequence[TrainerCallback] | None = None,
) -> TrainResult:
    """Train under simultaneous hard power and device-count budgets."""
    objective = PowerAreaObjective(
        net=net,
        power_budget=power_budget,
        device_budget=device_budget,
        mu_power=mu_power,
        mu_area=mu_area,
        warmup_epochs=warmup_epochs,
    )
    logger.info(
        "power+area constrained training: P̄=%.4g W, N̄=%g devices", power_budget, device_budget
    )
    return train_model(net, split, objective, settings=settings, callbacks=callbacks)
