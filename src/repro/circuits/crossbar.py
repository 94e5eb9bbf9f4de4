"""Learnable resistor crossbar layer (paper §II-B).

The crossbar computes, per output (row of the physical array / column of θ),

.. math::

    V_z = \\frac{\\sum_j g_j V^{(eff)}_j + g_b V_b}{\\sum_j g_j + g_b + g_d}

— a conductance-normalized weighted sum of the effective input voltages,
where each effective input is the raw input when the surrogate conductance
θ is positive and the negated input when θ is negative.  The learnable
parameter matrix is ``θ ∈ R^{(M+2) × N}``: M signal rows, one bias row tied
to the bias rail V_b, and one pull-down row tied to ground whose conductance
only enters the denominator.

θ is stored in µS.  After each optimizer step callers should invoke
:meth:`CrossbarLayer.project_` to clamp magnitudes into the printable range
(values below the prune threshold are legal — they denote a resistor that
will not be printed and are reported as pruned by the device counts).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.autograd.nn import Module, Parameter
from repro.autograd.graph import bump_graph_version
from repro.autograd import init as pinit
from repro.observability.metrics import get_registry
from repro.pdk.params import PDK, DEFAULT_PDK
from repro.power.crossbar_power import crossbar_power_matrix_signed

_EPS_G = 1e-9  # µS; keeps the denominator strictly positive

_EFFECTIVE_THETA_COMPUTES = get_registry().counter(
    "effective_theta_computes", "materializations of a crossbar's masked θ (effective_theta calls)"
)


def mask_theta(
    theta: Tensor, keep: np.ndarray | None = None, positive: np.ndarray | None = None
) -> Tensor:
    """θ after masks: ``positive`` entries → |θ|, then non-``keep`` entries → 0.

    Elementwise, so an ``(instances, M+2, N)`` θ stack takes mask stacks of
    the same shape and each slice equals the 2-D call bit for bit.
    """
    if positive is not None:
        theta = theta.abs().where(positive, theta)
    if keep is not None:
        theta = theta.where(keep, Tensor(np.zeros_like(theta.data)))
    return theta


class CrossbarLayer(Module):
    """One printed crossbar: M inputs → N outputs.

    Parameters
    ----------
    in_features, out_features:
        Signal dimensions M and N.
    rng:
        Seeded generator for θ initialization.
    pdk:
        Technology constants (conductance range, rails).
    bias_voltage:
        The bias rail voltage V_b (defaults to VDD).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        pdk: PDK = DEFAULT_PDK,
        bias_voltage: float | None = None,
    ):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("crossbar dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.pdk = pdk
        self.bias_voltage = pdk.vdd if bias_voltage is None else float(bias_voltage)
        theta0 = pinit.surrogate_conductance(
            rng,
            (in_features + 2, out_features),
            magnitude_low=pdk.conductance_min_us,
            magnitude_high=pdk.conductance_max_us * 0.3,
            negative_fraction=0.5,
        )
        # The pull-down row only loads the denominator; keep it positive.
        theta0[-1, :] = np.abs(theta0[-1, :])
        self.theta = Parameter(theta0, name="theta")
        # Optional fine-tuning masks (see repro.training.finetune):
        # keep_mask zeroes pruned resistors; positive_mask forces signs.
        self._keep_mask: np.ndarray | None = None
        self._positive_mask: np.ndarray | None = None

    # ------------------------------------------------------------------
    def set_masks(self, keep: np.ndarray | None, force_positive: np.ndarray | None) -> None:
        """Install pruning / sign masks (None clears them)."""
        for mask, name in ((keep, "keep"), (force_positive, "force_positive")):
            if mask is not None and mask.shape != self.theta.data.shape:
                raise ValueError(f"{name} mask shape mismatch")
        self._keep_mask = None if keep is None else keep.astype(bool)
        self._positive_mask = None if force_positive is None else force_positive.astype(bool)
        # Masks are baked into the effective-θ graph structure, so any
        # captured replay program over this layer is now stale.
        bump_graph_version()

    def effective_theta(self) -> Tensor:
        """θ after masks: pruned entries → 0, sign-forced entries → |θ|.

        Callers that need θ for several terms of the same step should
        compute it once and pass it through the ``theta=`` parameter of
        :meth:`forward` / :meth:`power` / :meth:`printed_resistor_count` —
        the ``effective_theta_computes`` metrics counter tracks how often
        the masked view is materialized.
        """
        _EFFECTIVE_THETA_COMPUTES.inc()
        return mask_theta(self.theta, keep=self._keep_mask, positive=self._positive_mask)

    # ------------------------------------------------------------------
    def extend_inputs(self, x: Tensor) -> Tensor:
        """Append the bias rail and ground rows: (..., B, M) → (..., B, M+2).

        Leading axes (an instance stack) get rails of their own; the rails
        hold the same values in every slice, so each slice equals the 2-D
        extension bit for bit.
        """
        from repro.autograd.tensor import concatenate

        rail = (*x.shape[:-1], 1)
        bias = Tensor(np.full(rail, self.bias_voltage))
        ground = Tensor(np.zeros(rail))
        return concatenate([x, bias, ground], axis=-1)

    def forward(self, x: Tensor, theta: Tensor | None = None) -> Tensor:
        """Crossbar output voltages ``(..., B, N)`` for inputs ``(..., B, M)``.

        With the ideal negation ``neg(V) = -V`` the numerator collapses to
        ``V_ext @ θ`` (|θ|·(−V) = θ·V for θ < 0), so the forward pass is a
        single matmul plus normalization.

        ``theta`` accepts a precomputed :meth:`effective_theta` so one
        materialization can serve forward, power and count terms of the
        same step.  It may be an ``(instances, M+2, N)`` stack: a 2-D input
        is then shared by every instance, and each instance slice of the
        output equals the 2-D call with that slice's θ bit for bit.
        """
        if x.shape[-1] != self.in_features:
            raise ValueError(f"expected {self.in_features} inputs, got {x.shape[-1]}")
        if theta is None:
            theta = self.effective_theta()
        v_ext = self.extend_inputs(x)
        numerator = v_ext @ theta
        denominator = theta.abs().sum(axis=-2, keepdims=True) + _EPS_G
        return numerator / denominator

    # ------------------------------------------------------------------
    def power(self, x: Tensor, v_out: Tensor, theta: Tensor | None = None) -> Tensor:
        """Batch-averaged crossbar dissipation P^C in watts (differentiable).

        One value per instance for an instance-stacked θ (a scalar for 2-D).
        """
        if theta is None:
            theta = self.effective_theta()
        v_ext = self.extend_inputs(x)
        matrix = crossbar_power_matrix_signed(theta, v_ext, -v_ext, v_out)
        return matrix.sum(axis=(-2, -1))

    # ------------------------------------------------------------------
    def project_(self, theta: np.ndarray | None = None) -> None:
        """Clamp θ magnitudes into the printable conductance range (in place).

        Magnitudes above g_max clip to g_max; magnitudes below the prune
        threshold are left as-is (interpreted as not-printed), preserving the
        optimizer's ability to prune.  ``theta`` projects another array of
        this layer's shape instead of the layer's own θ — an ``(instances,
        M+2, N)`` stack projects slice by slice.
        """
        data = self.theta.data if theta is None else theta
        magnitude = np.abs(data)
        sign = np.where(data >= 0, 1.0, -1.0)
        clipped = np.minimum(magnitude, self.pdk.conductance_max_us)
        # Write through the existing array: captured-graph replay (and the
        # backward closures recorded during capture) hold references to it.
        np.multiply(sign, clipped, out=data)
        np.abs(data[..., -1, :], out=data[..., -1, :])

    # ------------------------------------------------------------------
    def printed_resistor_count(self, threshold: float | None = None, theta: Tensor | None = None) -> int:
        """Number of crossbar resistors that must actually be printed."""
        threshold = self.pdk.prune_threshold_us if threshold is None else threshold
        if theta is None:
            theta = self.effective_theta()
        return int((np.abs(theta.data) > threshold).sum())
