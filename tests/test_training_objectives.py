"""Tests for the AL objective math, the penalty objective, and Pareto utils.

These are fast pure-math tests (no network training); the end-to-end
training behaviour is covered by ``test_training_loop.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.training.augmented_lagrangian import (
    AugmentedLagrangianObjective,
    phr_term,
    phr_values,
)
from repro.training.penalty import PenaltyObjective
from repro.training.pareto import dominates, pareto_front, front_accuracy_at_power, hypervolume_2d


def augmented_lagrangian_term(c: Tensor, multiplier: float, mu: float) -> Tensor:
    """ψ(c; λ', μ) of a normalized constraint ``c``, through :func:`phr_term`.

    With budget 1 the term's constraint is ``value - 1``, so ``value = c + 1``
    carries ``c`` (exactly, for the values used here) and ``dψ/dvalue = dψ/dc``.
    """
    leaves = {name: Tensor(v) for name, v in phr_values(multiplier, mu, budget=1.0).items()}
    return phr_term(c + 1.0, leaves)


class TestALTerm:
    def test_active_branch_value(self):
        c = Tensor(np.array(0.5), requires_grad=True)
        value = augmented_lagrangian_term(c, multiplier=2.0, mu=4.0)
        # λ'c + μ/2 c² = 1.0 + 0.5 = 1.5
        assert float(value.data) == pytest.approx(1.5)

    def test_inactive_branch_value(self):
        c = Tensor(np.array(-10.0))
        value = augmented_lagrangian_term(c, multiplier=1.0, mu=2.0)
        # -λ'²/(2μ) = -0.25
        assert float(value.data) == pytest.approx(-0.25)

    def test_branch_boundary_continuous(self):
        # At λ' + μc = 0 both branches agree (C¹ smoothness of PHR).
        multiplier, mu = 3.0, 2.0
        c_boundary = -multiplier / mu
        active = multiplier * c_boundary + 0.5 * mu * c_boundary**2
        inactive = -(multiplier**2) / (2 * mu)
        assert active == pytest.approx(inactive)

    def test_gradient_active(self):
        c = Tensor(np.array(0.5), requires_grad=True)
        augmented_lagrangian_term(c, multiplier=2.0, mu=4.0).backward()
        # d/dc = λ' + μc = 4.0
        assert float(c.grad) == pytest.approx(4.0)

    def test_gradient_inactive_is_zero(self):
        c = Tensor(np.array(-10.0), requires_grad=True)
        augmented_lagrangian_term(c, multiplier=1.0, mu=2.0).backward()
        assert c.grad is None or float(c.grad) == 0.0

    def test_validates_parameters(self):
        c = Tensor(np.array(0.0))
        with pytest.raises(ValueError):
            augmented_lagrangian_term(c, multiplier=0.0, mu=0.0)
        with pytest.raises(ValueError):
            augmented_lagrangian_term(c, multiplier=-1.0, mu=1.0)


class TestALObjective:
    def make(self, **kwargs):
        defaults = dict(power_budget=1e-4, mu=2.0, multiplier_every=1)
        defaults.update(kwargs)
        return AugmentedLagrangianObjective(**defaults)

    def test_constraint_normalized(self):
        objective = self.make()
        c = objective.constraint(Tensor(np.array(2e-4)))
        assert float(c.data) == pytest.approx(1.0)  # (2P̄ - P̄)/P̄

    def test_multiplier_update_on_violation(self):
        objective = self.make()
        objective.on_epoch_end(power_value=2e-4, epoch=0)  # c = +1
        assert objective.multiplier == pytest.approx(2.0)

    def test_multiplier_decays_when_feasible(self):
        objective = self.make()
        objective.multiplier = 1.0
        objective.on_epoch_end(power_value=0.5e-4, epoch=0)  # c = -0.5
        assert objective.multiplier == pytest.approx(0.0)

    def test_multiplier_never_negative(self):
        objective = self.make()
        objective.on_epoch_end(power_value=0.0, epoch=0)
        assert objective.multiplier == 0.0

    def test_update_cadence(self):
        objective = self.make(multiplier_every=5)
        objective.on_epoch_end(power_value=2e-4, epoch=0)
        assert objective.multiplier == 0.0  # epoch 0: (0+1) % 5 != 0
        objective.on_epoch_end(power_value=2e-4, epoch=4)
        assert objective.multiplier > 0.0

    def test_mu_growth_only_when_violated(self):
        objective = self.make(mu_growth=2.0)
        objective.on_epoch_end(power_value=0.5e-4, epoch=0)
        assert objective.mu == pytest.approx(2.0)
        objective.on_epoch_end(power_value=3e-4, epoch=1)
        assert objective.mu == pytest.approx(4.0)

    def test_warmup_freezes_constraint(self):
        objective = self.make(warmup_epochs=10)
        loss = Tensor(np.array(1.0))
        power = Tensor(np.array(5e-4))
        during = objective.training_loss(loss, power, epoch=5)
        assert float(during.data) == pytest.approx(1.0)
        objective.on_epoch_end(power_value=5e-4, epoch=5)
        assert objective.multiplier == 0.0
        after = objective.training_loss(loss, power, epoch=15)
        assert float(after.data) > 1.0

    def test_feasibility_tolerance(self):
        objective = self.make()
        assert objective.is_feasible(1e-4)
        assert objective.is_feasible(1.0005e-4)
        assert not objective.is_feasible(1.01e-4)

    def test_validates_budget(self):
        with pytest.raises(ValueError):
            AugmentedLagrangianObjective(power_budget=0.0)


class TestPenaltyObjective:
    def test_alpha_zero_is_pure_loss(self):
        objective = PenaltyObjective(alpha=0.0)
        loss = Tensor(np.array(2.0))
        out = objective.training_loss(loss, Tensor(np.array(1.0)), 0)
        assert float(out.data) == pytest.approx(2.0)

    def test_penalty_scales_with_alpha(self):
        loss = Tensor(np.array(1.0))
        power = Tensor(np.array(2e-3))
        weak = PenaltyObjective(alpha=0.1, reference_power=1e-3)
        strong = PenaltyObjective(alpha=1.0, reference_power=1e-3)
        assert float(strong.training_loss(loss, power, 0).data) > float(
            weak.training_loss(loss, power, 0).data
        )

    def test_everything_feasible(self):
        assert PenaltyObjective(alpha=0.5).is_feasible(1e9)

    def test_validates(self):
        with pytest.raises(ValueError):
            PenaltyObjective(alpha=-1.0)
        with pytest.raises(ValueError):
            PenaltyObjective(alpha=1.0, reference_power=0.0)


class TestPareto:
    def test_dominates(self):
        assert dominates((0.9, 1.0), (0.8, 2.0))
        assert dominates((0.9, 1.0), (0.9, 2.0))
        assert not dominates((0.9, 1.0), (0.95, 0.5))
        assert not dominates((0.9, 1.0), (0.9, 1.0))  # equal: no strict gain

    def test_front_extraction(self):
        points = np.array(
            [
                [0.5, 1.0],
                [0.8, 2.0],
                [0.7, 3.0],  # dominated by (0.8, 2.0)
                [0.9, 5.0],
                [0.4, 0.5],
            ]
        )
        front = pareto_front(points)
        accuracies = set(front[:, 0])
        assert accuracies == {0.4, 0.5, 0.8, 0.9}
        # sorted by power, accuracy strictly increasing
        assert (np.diff(front[:, 1]) >= 0).all()
        assert (np.diff(front[:, 0]) > 0).all()

    def test_front_of_empty(self):
        assert pareto_front(np.zeros((0, 2))).shape == (0, 2)

    def test_front_accuracy_at_power(self):
        front = np.array([[0.5, 1.0], [0.8, 2.0], [0.9, 4.0]])
        assert front_accuracy_at_power(front, 2.5) == pytest.approx(0.8)
        assert front_accuracy_at_power(front, 0.5) == float("-inf")

    def test_hypervolume_monotone_in_points(self):
        reference = (0.0, 10.0)
        small = hypervolume_2d(np.array([[0.5, 5.0]]), reference)
        larger = hypervolume_2d(np.array([[0.5, 5.0], [0.8, 8.0]]), reference)
        assert larger > small > 0

    def test_hypervolume_clips_outside_reference(self):
        assert hypervolume_2d(np.array([[0.5, 20.0]]), (0.0, 10.0)) == 0.0

    def test_front_validates_shape(self):
        with pytest.raises(ValueError):
            pareto_front(np.zeros(5))


class TestBudgetAnnealing:
    def make(self, **kwargs):
        defaults = dict(power_budget=1e-4, mu=2.0, multiplier_every=1,
                        warmup_epochs=10, anneal_epochs=100, anneal_start_factor=4.0)
        defaults.update(kwargs)
        return AugmentedLagrangianObjective(**defaults)

    def test_effective_budget_starts_high(self):
        objective = self.make()
        assert objective.effective_budget(10) == pytest.approx(4e-4)

    def test_effective_budget_reaches_target(self):
        objective = self.make()
        assert objective.effective_budget(110) == pytest.approx(1e-4)
        assert objective.effective_budget(500) == pytest.approx(1e-4)

    def test_effective_budget_geometric_midpoint(self):
        objective = self.make()
        midpoint = objective.effective_budget(60)  # halfway through annealing
        assert midpoint == pytest.approx(2e-4, rel=1e-9)  # sqrt(4) * P̄

    def test_disabled_annealing_is_constant(self):
        objective = self.make(anneal_epochs=0)
        assert objective.effective_budget(0) == pytest.approx(1e-4)
        assert objective.effective_budget(1000) == pytest.approx(1e-4)

    def test_feasibility_always_vs_final_budget(self):
        objective = self.make()
        # During annealing a power of 3e-4 is within the *effective* budget
        # but must still be reported infeasible vs the final P̄.
        assert not objective.is_feasible(3e-4)
        assert objective.is_feasible(0.9e-4)

    def test_multiplier_update_uses_effective_budget(self):
        objective = self.make()
        # At epoch 10 (annealing start) effective budget is 4e-4; a power of
        # 2e-4 is feasible vs the moving target → multiplier stays zero.
        objective.on_epoch_end(power_value=2e-4, epoch=10)
        assert objective.multiplier == 0.0
