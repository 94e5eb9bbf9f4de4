"""The printed neuromorphic network (pNC) with power accounting.

A :class:`PrintedNeuralNetwork` stacks printed neurons — crossbar + learnable
activation circuits — in the paper's fixed ``#inputs-3-#outputs`` topology
(configurable).  Its :meth:`forward_with_power` runs the signal path and
simultaneously assembles the differentiable total power

.. math::

    P(θ, q) = \\sum_{layers} \\big( P^C + \\sum_i a^N_i · P^N_i(V_i)
              + \\sum_j a^{AF}_j · P^{AF}_j(V_{z,j}) \\big)

where the activity coefficients ``a`` are straight-through indicators (hard
value, sigmoid gradient — §III-B), ``P^N``/``P^AF`` come from the fitted
surrogates evaluated at the actual node voltages, and ``P^C`` is the analytic
crossbar dissipation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.autograd.tensor import Tensor, constant_of
from repro.autograd.nn import Module
from repro.circuits.activations import SCREEN_ATTEMPTS, PrintedActivation, subsample_rows
from repro.circuits.crossbar import CrossbarLayer
from repro.circuits.negation import NEGATION_NOMINAL_Q
from repro.pdk.params import PDK, DEFAULT_PDK, ActivationKind
from repro.pdk.circuits import activation_device_count, NEGATION_DEVICE_COUNT
from repro.pdk.transfer import NegationModel, TransferModel
from repro.power.counts import (
    straight_through_column_activity,
    straight_through_row_negativity,
    straight_through_activation_count,
    straight_through_negation_count,
    soft_column_activity,
    soft_row_negativity,
    hard_activation_count,
    hard_negation_count,
)
from repro.power.surrogate import SurrogatePowerModel
from repro.observability.metrics import get_registry
from repro.observability.tracing import trace_span

logger = logging.getLogger(__name__)

_FORWARD_CALLS = get_registry().counter(
    "forward_calls", "full network forward passes (signal-only and with power assembly)"
)

#: Target standard deviation of the scaled logits.  The raw logit scale is
#: calibrated per network at construction (see ``_calibrate_activations``)
#: because output swings differ per activation circuit (a clipped follower
#: swings ~0.25 V, a tanh cascade ~2 V); a scalar affine map preserves the
#: circuit's argmax decision while keeping softmax gradients healthy.
LOGIT_TARGET_STD = 1.5
LOGIT_SCALE_MIN = 2.0
LOGIT_SCALE_MAX = 40.0


#: One layer's forward leaves: ``(crossbar, activation, θ, units, transfer)``.
_Leaves = tuple[CrossbarLayer, PrintedActivation, Tensor, "list[Tensor] | None", "TransferModel | None"]


@dataclass
class PowerBreakdown:
    """Differentiable power components of one forward pass (all watts).

    Each component is a scalar, or an ``(instances,)`` vector for an
    instance-stacked forward.  ``total`` is assembled once by the forward
    as ``(crossbar + activation) + negation``.
    """

    crossbar: Tensor
    activation: Tensor
    negation: Tensor
    total: Tensor

    def as_floats(self) -> dict[str, float]:
        return {
            "crossbar": float(self.crossbar.data),
            "activation": float(self.activation.data),
            "negation": float(self.negation.data),
            "total": float(self.total.data),
        }


@dataclass
class PNCConfig:
    """Construction options for a printed network."""

    kind: ActivationKind = ActivationKind.TANH
    hidden: tuple[int, ...] = (3,)
    power_mode: str = "surrogate"  # 'surrogate' | 'analytic'
    count_mode: str = "straight_through"  # 'straight_through' | 'soft'
    power_batch_limit: int = 256
    #: Weight of the signal-health regularizer: penalizes activation outputs
    #: whose batch standard deviation collapses below ``signal_health_floor``
    #: volts.  Analog stages that stop varying carry no information and have
    #: (near-)zero gradients — a degenerate attractor of cross-entropy
    #: training that the regularizer removes.  Training-time only; it does
    #: not alter the circuit or its power.
    signal_health_weight: float = 25.0
    signal_health_floor: float = 0.1
    pdk: PDK = field(default_factory=lambda: DEFAULT_PDK)


class PrintedNeuralNetwork(Module):
    """A full pNC: alternating crossbars and printed activation layers.

    Parameters
    ----------
    in_features, out_features:
        Task dimensions; the paper fixes the topology to ``#in-3-#out``.
    config:
        Activation kind, hidden widths and power-accounting options.
    rng:
        Seeded generator for all parameter initialization.
    af_surrogate, neg_surrogate:
        Fitted surrogate power models (required in surrogate power mode).
    calibrate:
        Run the construction-time activation/logit-scale calibration
        (default).  ``False`` builds the raw topology only — the
        inference-rebuild path of :mod:`repro.serving.artifact`, which
        restores every calibrated quantity from the frozen artifact
        instead of re-randomizing it.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        config: PNCConfig,
        rng: np.random.Generator,
        af_surrogate: SurrogatePowerModel | None = None,
        neg_surrogate: SurrogatePowerModel | None = None,
        calibrate: bool = True,
    ):
        super().__init__()
        if config.count_mode not in ("straight_through", "soft"):
            raise ValueError("count_mode must be 'straight_through' or 'soft'")
        if config.power_mode == "surrogate" and (af_surrogate is None or neg_surrogate is None):
            raise ValueError("surrogate power mode requires af_surrogate and neg_surrogate")
        self.config = config
        self.in_features = in_features
        self.out_features = out_features
        self.neg_surrogate = neg_surrogate
        self.neg_q = NEGATION_NOMINAL_Q.copy()
        #: last signal-health penalty (set by forward_with_power)
        self.signal_health: Tensor = Tensor(0.0)
        #: last differentiable device count (set by forward_with_power);
        #: forward value equals :meth:`device_count`, backward uses the
        #: sigmoid relaxation — enables area/device-count constraints.
        self.soft_device_count: Tensor = Tensor(0.0)
        #: calibrated logit scale (set during activation calibration)
        self.logit_scale: float = 5.0

        widths = [in_features, *config.hidden, out_features]
        self.n_layers = len(widths) - 1
        screens = self.n_layers * (2 if calibrate else 1)
        with trace_span(
            "pnc.build",
            "circuits",
            args={"layers": self.n_layers, "candidates": screens * SCREEN_ATTEMPTS},
        ):
            for index in range(self.n_layers):
                crossbar = CrossbarLayer(widths[index], widths[index + 1], rng=rng, pdk=config.pdk)
                activation = PrintedActivation(
                    config.kind,
                    rng=rng,
                    surrogate=af_surrogate,
                    power_mode=config.power_mode,
                    pdk=config.pdk,
                )
                setattr(self, f"crossbar_{index}", crossbar)
                setattr(self, f"activation_{index}", activation)
            if calibrate:
                self._calibrate_activations(rng)

    def _calibrate_activations(self, rng: np.random.Generator, probe_batch: int = 64) -> None:
        """Re-screen each activation's random q against realistic signals.

        Pushes a uniform probe batch through the network layer by layer and
        re-randomizes every activation's q so its transition overlaps the
        crossbar outputs it will actually see — without this, most random
        draws leave the circuit saturated and the network untrainable (the
        signal never enters the transfer's responsive region).
        """
        from repro.autograd.tensor import no_grad

        probe = Tensor(rng.random((probe_batch, self.in_features)))
        with no_grad():
            signal = probe
            for crossbar, activation in zip(self.crossbars(), self.activations()):
                v_z = crossbar(signal)
                flat = np.unique(np.round(v_z.data.reshape(-1), 4))
                activation.randomize_q(rng, flat)
                signal = activation(v_z)
            # Calibrate the logit scale to the realized output swing so
            # every activation kind sees comparable softmax sharpness.
            swing = float(signal.data.std())
            self.logit_scale = float(
                np.clip(LOGIT_TARGET_STD / max(swing, 1e-6), LOGIT_SCALE_MIN, LOGIT_SCALE_MAX)
            )

    # ------------------------------------------------------------------
    def crossbars(self) -> list[CrossbarLayer]:
        return [getattr(self, f"crossbar_{i}") for i in range(self.n_layers)]

    def activations(self) -> list[PrintedActivation]:
        return [getattr(self, f"activation_{i}") for i in range(self.n_layers)]

    # ------------------------------------------------------------------
    def _layer_leaves(
        self,
        thetas: list[Tensor] | None,
        units: list[list[Tensor]] | None,
        transfers: list[TransferModel] | None,
    ) -> list[_Leaves]:
        """Per layer ``(crossbar, activation, θ, units, transfer)``.

        Missing leaves fall back to the layer's own: θ is materialized once
        per layer with :meth:`CrossbarLayer.effective_theta`; ``None`` units
        and transfer make the activation use its own u parameters and model.
        """
        for name, given in (("theta", thetas), ("units", units), ("transfer", transfers)):
            if given is not None and len(given) != self.n_layers:
                raise ValueError(f"expected {self.n_layers} {name} entries, got {len(given)}")
        return [
            (
                crossbar,
                activation,
                crossbar.effective_theta() if thetas is None else thetas[index],
                None if units is None else units[index],
                None if transfers is None else transfers[index],
            )
            for index, (crossbar, activation) in enumerate(zip(self.crossbars(), self.activations()))
        ]

    def forward(
        self,
        x: Tensor,
        thetas: list[Tensor] | None = None,
        units: list[list[Tensor]] | None = None,
        transfers: list[TransferModel] | None = None,
        logit_scale: float | Tensor | None = None,
    ) -> Tensor:
        """Logits ``(..., B, out_features)`` — scaled output-neuron voltages.

        Takes the same optional per-layer leaves as
        :meth:`forward_with_power` and runs its signal path op for op.
        """
        _FORWARD_CALLS.inc()
        with trace_span("pnc.forward", "circuits"):
            signal = x
            for crossbar, activation, theta, unit, transfer in self._layer_leaves(
                thetas, units, transfers
            ):
                v_z = crossbar.forward(signal, theta=theta)
                signal = activation(v_z, units=unit, transfer=transfer)
            return signal * (self.logit_scale if logit_scale is None else logit_scale)

    # ------------------------------------------------------------------
    def forward_with_power(
        self,
        x: Tensor,
        thetas: list[Tensor] | None = None,
        units: list[list[Tensor]] | None = None,
        transfers: list[TransferModel] | None = None,
        logit_scale: float | Tensor | None = None,
    ) -> tuple[Tensor, PowerBreakdown]:
        """Run the signal path and assemble the differentiable power.

        Every argument after ``x`` optionally replaces one of the net's own
        per-layer leaves; omitted ones are read from the net's modules:

        - ``thetas`` — one effective θ per layer, ``(M+2, N)`` or an
          ``(instances, M+2, N)`` stack (bypasses
          :meth:`CrossbarLayer.effective_theta`);
        - ``units`` — per layer, the activation's unconstrained u tensors,
          scalars or ``(instances, 1, 1)`` stacks;
        - ``transfers`` — one transfer model per layer (e.g. carrying
          per-instance EGT cards);
        - ``logit_scale`` — a float or an ``(instances, 1, 1)`` tensor.

        With stacked leaves every op acts elementwise or per slice on the
        leading instance axis and reduces trailing axes only, so logits,
        power components, :attr:`signal_health` and
        :attr:`soft_device_count` gain that axis and instance ``i``'s values
        equal the 2-D call with slice ``i``'s leaves bit for bit.
        """
        _FORWARD_CALLS.inc()
        with trace_span("pnc.forward_with_power", "circuits"):
            return self._forward_with_power(x, thetas, units, transfers, logit_scale)

    def _forward_with_power(
        self,
        x: Tensor,
        thetas: list[Tensor] | None = None,
        units: list[list[Tensor]] | None = None,
        transfers: list[TransferModel] | None = None,
        logit_scale: float | Tensor | None = None,
    ) -> tuple[Tensor, PowerBreakdown]:
        threshold = self.config.pdk.prune_threshold_us
        straight = self.config.count_mode == "straight_through"
        crossbar_power = Tensor(0.0)
        health_penalty = Tensor(0.0)
        device_count = Tensor(0.0)
        # θ is materialized once per layer and reused by every power/count
        # term below (see effective_theta_computes).
        layers = self._layer_leaves(thetas, units, transfers)
        # Instance shape of a stacked forward; () for 2-D θ.
        lead = layers[0][2].shape[:-2]

        # Pass 1 — signal path.
        per_layer: list[tuple[Tensor, Tensor, _Leaves]] = []
        signal = x
        for leaves in layers:
            crossbar, activation, theta, unit, transfer = leaves
            v_z = crossbar.forward(signal, theta=theta)
            per_layer.append((signal, v_z, leaves))
            signal = activation(v_z, units=unit, transfer=transfer)
            health_penalty = health_penalty + self._health_term(signal)

        # Pass 2 — power assembly.  Crossbar power and activity coefficients
        # stay per layer; the surrogate MLP evaluations are stacked across
        # layers (P^AF in one call, P^N in two: the input layer's, then the
        # rest) instead of two calls per layer — row-wise identical numbers,
        # a fraction of the op count.
        row_activities: list[Tensor] = []
        col_activities: list[Tensor] = []
        for layer_in, v_z, (crossbar, activation, theta, _unit, _transfer) in per_layer:
            crossbar_power = crossbar_power + crossbar.power(layer_in, v_z, theta=theta)
            device_count = device_count + self._soft_devices(theta, activation)
            # Negation circuits: one per input row with active negative θ;
            # activation circuits: one per crossbar column.
            if straight:
                row_activities.append(straight_through_row_negativity(theta, threshold=threshold))
                col_activities.append(straight_through_column_activity(theta, threshold=threshold))
            else:
                row_activities.append(soft_row_negativity(theta, threshold=threshold))
                col_activities.append(soft_column_activity(theta, threshold=threshold))

        if self.config.power_mode == "surrogate":
            activation_power, negation_power = self._surrogate_powers(
                per_layer, row_activities, col_activities, lead
            )
        else:
            activation_power = Tensor(0.0)
            negation_power = Tensor(0.0)
            for (layer_in, v_z, leaves), row_activity, col_activity in zip(
                per_layer, row_activities, col_activities
            ):
                crossbar, activation, _theta, unit, transfer = leaves
                negation_power = negation_power + self._negation_power(
                    layer_in, crossbar, row_activity, lead
                )
                per_circuit = activation.power_per_circuit(
                    v_z, batch_limit=self.config.power_batch_limit, units=unit, transfer=transfer
                )
                activation_power = activation_power + (col_activity * per_circuit).sum(axis=-1)

        self.signal_health = health_penalty
        self.soft_device_count = device_count
        logits = signal * (self.logit_scale if logit_scale is None else logit_scale)
        total = (crossbar_power + activation_power) + negation_power
        return logits, PowerBreakdown(crossbar_power, activation_power, negation_power, total)

    def _surrogate_powers(
        self,
        per_layer: list[tuple[Tensor, Tensor, _Leaves]],
        row_activities: list[Tensor],
        col_activities: list[Tensor],
        lead: tuple[int, ...],
    ) -> tuple[Tensor, Tensor]:
        """Batched P^AF and P^N assembly over all layers (three MLP evals).

        Stacking is purely an op-count optimization: the surrogate MLPs act
        row-wise, so the per-layer slices of the stacked output are
        numerically identical to per-layer ``predict_tensor`` calls, and the
        accumulation below keeps the original layer order.
        """
        limit = self.config.power_batch_limit

        # P^N — every layer shares the nominal negation design.  The input
        # layer's group reads only ``x``, the fixed negation q and the frozen
        # surrogate, so it gets a call of its own: a captured program folds
        # it as a constant.  The deeper layers' groups stay stacked.
        neg_groups: list[tuple[list[Tensor], Tensor]] = []
        neg_shapes: list[tuple[int, int]] = []
        for layer_in, _v_z, (crossbar, *_rest) in per_layer:
            q, flat, batch, rows = self._negation_inputs(layer_in, crossbar, lead)
            neg_groups.append((q, flat))
            neg_shapes.append((batch, rows))
        neg_outputs = [self.neg_surrogate.predict_tensor(*neg_groups[0])]
        if len(neg_groups) > 1:
            neg_outputs += self.neg_surrogate.predict_tensor_batched(neg_groups[1:])
        negation_power = Tensor(0.0)
        for (batch, rows), output, row_activity in zip(neg_shapes, neg_outputs, row_activities):
            per_row = output.reshape(*lead, batch, rows).mean(axis=-2)
            negation_power = negation_power + (row_activity * per_row).sum(axis=-1)

        # P^AF — batched when all layers share one fitted surrogate (the
        # standard construction); hand-assembled mixed-surrogate networks
        # fall back to per-layer calls.
        activations = [leaves[1] for _layer_in, _v_z, leaves in per_layer]
        shared = activations[0].surrogate
        activation_power = Tensor(0.0)
        if all(activation.surrogate is shared for activation in activations):
            af_groups: list[tuple[list[Tensor], Tensor]] = []
            af_shapes: list[tuple[int, int]] = []
            for _layer_in, v_z, (_crossbar, activation, _theta, unit, _transfer) in per_layer:
                q_columns, flat, batch, n = activation.power_inputs(v_z, batch_limit=limit, units=unit)
                af_groups.append((q_columns, flat))
                af_shapes.append((batch, n))
            af_outputs = shared.predict_tensor_batched(af_groups)
            for (batch, n), output, col_activity in zip(af_shapes, af_outputs, col_activities):
                per_circuit = output.reshape(*lead, batch, n).mean(axis=-2)
                activation_power = activation_power + (col_activity * per_circuit).sum(axis=-1)
        else:
            for (_layer_in, v_z, leaves), col_activity in zip(per_layer, col_activities):
                _crossbar, activation, _theta, unit, _transfer = leaves
                per_circuit = activation.power_per_circuit(v_z, batch_limit=limit, units=unit)
                activation_power = activation_power + (col_activity * per_circuit).sum(axis=-1)
        return activation_power, negation_power

    def _soft_devices(self, theta: Tensor, activation: PrintedActivation) -> Tensor:
        """Differentiable per-layer device count (hard forward, soft backward).

        Mirrors :meth:`device_count`: printed crossbar resistors plus
        negation and activation circuits weighted by their component counts.
        Reduces the trailing ``(M+2, N)`` axes only: one count per instance
        for an instance-stacked θ.
        """
        from repro.power.counts import DEFAULT_SHARPNESS

        threshold = self.config.pdk.prune_threshold_us
        resistor_soft = ((theta.abs() - threshold) * DEFAULT_SHARPNESS).sigmoid().sum(axis=(-2, -1))
        correction = constant_of(
            lambda th, sv: (np.abs(th) > threshold).sum(axis=(-2, -1)) - sv, theta, resistor_soft
        )
        resistors = resistor_soft + correction
        negations = straight_through_negation_count(theta, threshold=threshold)
        activations_count = straight_through_activation_count(theta, threshold=threshold)
        return (
            resistors
            + negations * float(NEGATION_DEVICE_COUNT)
            + activations_count * float(activation_device_count(activation.kind))
        )

    def _health_term(self, signal: Tensor) -> Tensor:
        """Penalty ``mean_j relu(floor - std_batch(signal_j))²`` for one layer.

        Reduces the trailing ``(batch, j)`` axes only: one value per
        instance for an instance-stacked signal.
        """
        floor = self.config.signal_health_floor
        if self.config.signal_health_weight <= 0.0 or floor <= 0.0:
            return Tensor(0.0)
        mean = signal.mean(axis=-2, keepdims=True)
        centered = signal - mean
        variance = (centered * centered).mean(axis=-2)
        std = (variance + 1e-12).sqrt()
        shortfall = (Tensor(np.full(std.shape, floor)) - std).relu()
        return (shortfall * shortfall).mean(axis=-1)

    def _subsampled_extended_inputs(
        self, signal: Tensor, crossbar: CrossbarLayer, lead: tuple[int, ...] = ()
    ) -> Tensor:
        """The crossbar's extended inputs, stride-subsampled to the batch limit.

        ``lead`` is the instance shape of a stacked forward.  An input shared
        by every instance (2-D under stacked θ) is broadcast onto it as a
        read-only view (no kernel under replay): the batched surrogate call
        needs every group on the same lead.
        """
        v_ext = subsample_rows(crossbar.extend_inputs(signal), self.config.power_batch_limit)
        if lead and v_ext.ndim == 2:
            v_ext = v_ext.broadcast_to((*lead, *v_ext.shape))
        return v_ext

    def _negation_inputs(
        self, signal: Tensor, crossbar: CrossbarLayer, lead: tuple[int, ...] = ()
    ) -> tuple[list[Tensor], Tensor, int, int]:
        """Surrogate-ready ``(q, flat_v, batch, rows)`` for one layer's P^N."""
        v_ext = self._subsampled_extended_inputs(signal, crossbar, lead)
        batch, rows = v_ext.shape[-2:]
        q = [Tensor(v) for v in self.neg_q]
        return q, v_ext.reshape(*lead, batch * rows, 1), batch, rows

    def _negation_power(
        self,
        signal: Tensor,
        crossbar: CrossbarLayer,
        row_activity: Tensor,
        lead: tuple[int, ...] = (),
    ) -> Tensor:
        """Σ_i a_i · P^N(neg_q, V_i) over the crossbar's extended input rows."""
        if self.config.power_mode == "analytic":
            v_ext = self._subsampled_extended_inputs(signal, crossbar, lead)
            model = NegationModel(pdk=self.config.pdk)
            q = [Tensor(v) for v in self.neg_q]
            _, per_sample = model.output_and_power(v_ext, q)
            per_row = per_sample.mean(axis=-2)
        else:
            q, flat, batch, rows = self._negation_inputs(signal, crossbar, lead)
            per_sample = self.neg_surrogate.predict_tensor(q, flat)
            per_row = per_sample.reshape(*lead, batch, rows).mean(axis=-2)
        return (row_activity * per_row).sum(axis=-1)

    # ------------------------------------------------------------------
    def power_estimate(self, x: Tensor) -> float:
        """Hard (indicator-based) total power estimate in watts."""
        from repro.autograd.tensor import no_grad

        with no_grad():
            _, breakdown = self.forward_with_power(x)
        return float(breakdown.total.data)

    # ------------------------------------------------------------------
    def device_count(self) -> int:
        """Total number of printed components (Table I's #Dev metric).

        Counts printed crossbar resistors, negation circuits (× components
        each) and activation circuits (× components each), using the hard
        indicator at the prune threshold.
        """
        threshold = self.config.pdk.prune_threshold_us
        total = 0
        for crossbar, activation in zip(self.crossbars(), self.activations()):
            theta = crossbar.effective_theta()
            total += crossbar.printed_resistor_count(theta=theta)
            total += hard_negation_count(theta, threshold=threshold) * NEGATION_DEVICE_COUNT
            total += hard_activation_count(theta, threshold=threshold) * activation_device_count(
                activation.kind
            )
        return total

    def hard_counts(self) -> dict[str, int]:
        """Exact N^AF / N^N totals across layers."""
        threshold = self.config.pdk.prune_threshold_us
        n_af = n_neg = 0
        for crossbar in self.crossbars():
            theta = crossbar.effective_theta()
            n_af += hard_activation_count(theta, threshold=threshold)
            n_neg += hard_negation_count(theta, threshold=threshold)
        return {"activation_circuits": n_af, "negation_circuits": n_neg}

    # ------------------------------------------------------------------
    def project_(self) -> None:
        """Project all parameters back into printable ranges (post-step)."""
        for crossbar in self.crossbars():
            crossbar.project_()
        for activation in self.activations():
            activation.project_()
