"""Learnable printed activation layer.

Wraps one :class:`~repro.pdk.transfer.TransferModel` with its physical
parameters ``q = [R, W, L]`` registered as learnable :class:`Parameter`
scalars (shared by every activation circuit in the layer — all N circuits of
a layer are printed from the same design, which keeps the surrogate power
evaluation O(batch) instead of O(batch × N designs)).

Power is charged through the data-driven surrogate P^AF (paper-faithful), or
through the analytic circuit equations when ``power_mode="analytic"`` —
the latter serves as ground truth in tests and ablations, and is read off
the forward's own solve (:meth:`PrintedActivation.output_and_power`).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.autograd.nn import Module, Parameter
from repro.pdk.params import PDK, DEFAULT_PDK, ActivationKind, design_space
from repro.pdk.transfer import TransferModel
from repro.power.surrogate import SurrogatePowerModel

#: q candidates each responsiveness screen draws (see
#: :meth:`PrintedActivation._screen_units`).
SCREEN_ATTEMPTS = 64


def units_from_q(space, q: np.ndarray) -> np.ndarray:
    """Inverse of the sigmoid box mapping: physical q → unconstrained u.

    Exactly the arithmetic :meth:`PrintedActivation.set_q` applies — the
    design-space clip, the (log-space) unit coordinate, the ``1e-6`` unit
    clip and the logit — exposed as a function so the instance-stacked
    Monte-Carlo sampler (:mod:`repro.circuits.ensemble`) reproduces the
    same q → u → q round trip bit for bit.  ``q`` may carry leading axes
    (e.g. an ``(instances, dim)`` stack): every op is elementwise per
    design axis, so each row matches the single-vector path bit for bit.
    """
    q = space.clip(np.asarray(q, dtype=np.float64))
    u = np.empty_like(q)
    for i in range(space.dimension):
        value = q[..., i]
        low, high = float(space.lows[i]), float(space.highs[i])
        if space.log_scale and space.log_scale[i]:
            unit = (np.log(value) - np.log(low)) / (np.log(high) - np.log(low))
        else:
            unit = (value - low) / (high - low)
        unit = np.clip(unit, 1e-6, 1.0 - 1e-6)
        u[..., i] = np.log(unit / (1.0 - unit))
    return u


def q_tensor_from_u(space, i: int, u: Tensor) -> Tensor:
    """Map one unconstrained u tensor onto design axis ``i`` of ``space``.

    The forward half of the reparametrization (sigmoid, then a linear or
    log-space affine map onto the feasible box).  ``u`` may carry leading
    axes — e.g. an ``(instances, 1, 1)`` stack — the ops are elementwise,
    so every slice matches the scalar path bit for bit.
    """
    unit = u.sigmoid()
    low, high = float(space.lows[i]), float(space.highs[i])
    if space.log_scale and space.log_scale[i]:
        log_low, log_high = np.log(low), np.log(high)
        return (unit * (log_high - log_low) + log_low).exp()
    return unit * (high - low) + low


def subsample_rows(v: Tensor, limit: int) -> Tensor:
    """Deterministic stride subsample of the batch axis (``-2``) to ``limit`` rows."""
    batch = v.shape[-2]
    if batch <= limit:
        return v
    stride = batch // limit
    index = np.arange(0, batch, stride)[:limit]
    return v[(Ellipsis, index, slice(None))]


class PrintedActivation(Module):
    """Layer of N identical learnable printed activation circuits.

    Parameters
    ----------
    kind:
        Which printed circuit (p-ReLU / p-Clipped_ReLU / p-sigmoid / p-tanh).
    rng:
        Seeded generator: q is initialized uniformly at random inside the
        feasible design space (log-uniform on resistance axes), matching the
        paper's "randomly initialized parameters for each AF".
    surrogate:
        Fitted P^AF surrogate; required for ``power_mode="surrogate"``.
    power_mode:
        ``"surrogate"`` (paper) or ``"analytic"`` (circuit equations).
    """

    def __init__(
        self,
        kind: ActivationKind,
        rng: np.random.Generator,
        surrogate: SurrogatePowerModel | None = None,
        power_mode: str = "surrogate",
        pdk: PDK = DEFAULT_PDK,
    ):
        super().__init__()
        if power_mode not in ("surrogate", "analytic"):
            raise ValueError("power_mode must be 'surrogate' or 'analytic'")
        if power_mode == "surrogate" and surrogate is None:
            raise ValueError("surrogate power mode requires a fitted surrogate")
        self.kind = kind
        self.space = design_space(kind, pdk=pdk)
        self.transfer = TransferModel(kind, pdk=pdk)
        self.surrogate = surrogate
        self.power_mode = power_mode
        self.pdk = pdk
        # q is reparametrized: the learnable parameter is an unconstrained
        # scalar u per design dimension, mapped through a sigmoid onto the
        # feasible box (log-scaled axes map in log space).  This keeps every
        # learnable parameter O(1) so a single Adam learning rate works for
        # conductances and geometries alike, and q can never leave Q^AF.
        self._dim = self.space.dimension
        unit0 = self._responsive_unit_init(rng)
        u0 = np.log(unit0 / (1.0 - unit0))
        for i, name in enumerate(self.space.names):
            # The q parameters move slower than θ (lr_scale < 1): a small
            # change to a divider ratio or geometry can swing the transfer
            # across its whole range, so full-rate Adam steps routinely
            # catapult the circuit into degenerate always-on/always-off
            # corners during the first chaotic epochs.
            setattr(
                self,
                f"u_{i}",
                Parameter(np.array(u0[i]), name=f"{kind.name}.{name}", lr_scale=0.2),
            )

    def _responsive_unit_init(
        self, rng: np.random.Generator, attempts: int = SCREEN_ATTEMPTS
    ) -> np.ndarray:
        """Random q init screened for responsiveness on a default probe grid.

        Uniform draws over Q^AF frequently land the circuit's transition
        outside the crossbar's output range, leaving the whole network in a
        zero-gradient saturated region (cross-entropy can then never
        recover).  We keep the paper's random initialization but choose the
        draw whose transfer responds best over the operating range — an
        init retry, not a change to the learnable space.
        :meth:`randomize_q` re-runs the screening against the actual signal
        distribution once the surrounding network exists.
        """
        probe = np.linspace(-0.6, 0.6, 13)
        unit, _ = self._screen_units(rng, probe, attempts)
        return unit

    def _screen_units(
        self, rng: np.random.Generator, probe: np.ndarray, attempts: int
    ) -> tuple[np.ndarray, float]:
        """Draw q candidates; score by transfer responsiveness on ``probe``.

        The score counts probe points where the local slope |dV_out/dV_in|
        exceeds 0.05 (numeric difference), breaking ties by output spread —
        favouring gentle, well-centred transitions over razor-thin
        high-gain ones that saturate after one optimizer step.  The first
        best-scoring candidate wins.

        All ``attempts`` candidates are solved in one broadcast transfer
        call — the probe is a ``(1, P)`` row, each q axis an
        ``(attempts, 1)`` column — and every row equals a lone solve of
        that candidate bit for bit: the Newton solve freezes each element
        on its own residual, so an element's trajectory depends only on its
        own inputs; ``rng.random((attempts, d))`` consumes the stream
        exactly as ``attempts`` draws of ``rng.random(d)``; and the ops
        that touch only q (add, multiply, divide) are correctly rounded.
        :meth:`DesignSpace.from_unit` stays per row: its ``10.0 ** x`` over
        a whole block can take another SIMD path than one row's and change
        bits.
        """
        probe = np.sort(np.asarray(probe, dtype=np.float64).reshape(-1))
        units = 0.1 + 0.8 * rng.random((attempts, self._dim))
        q = np.stack([self.space.from_unit(unit) for unit in units])
        with no_grad():
            v_out, _ = self.transfer.output_and_power(
                Tensor(probe[None, :]), [Tensor(column[:, None]) for column in q.T]
            )
        gaps = np.diff(probe)
        gaps = np.where(gaps < 1e-12, 1e-12, gaps)
        best_unit, best_score = None, -np.inf
        for unit, values in zip(units, v_out.data):
            slopes = np.abs(np.diff(values)) / gaps
            responsive = float((slopes > 0.05).sum())
            score = responsive + 0.1 * float(np.std(values))
            if score > best_score:
                best_unit, best_score = unit, score
        return best_unit, best_score

    def randomize_q(
        self, rng: np.random.Generator, probe: np.ndarray, attempts: int = SCREEN_ATTEMPTS
    ) -> None:
        """Re-randomize q screened against an observed signal distribution.

        Called by :class:`~repro.circuits.pnc.PrintedNeuralNetwork` during
        construction with the layer's actual crossbar output samples, so the
        activation's transition lands where signals actually live.
        """
        unit, _ = self._screen_units(rng, probe, attempts)
        unit = np.clip(unit, 1e-6, 1.0 - 1e-6)
        u0 = np.log(unit / (1.0 - unit))
        for i in range(self._dim):
            np.copyto(getattr(self, f"u_{i}").data, u0[i])

    # ------------------------------------------------------------------
    def q_from(self, units: list[Tensor] | None = None) -> list[Tensor]:
        """q mapped from ``units`` — this layer's own u parameters by default.

        Supplied units may be ``(instances, 1, 1)`` stacks (one design per
        instance); every call materializes fresh q tensors.
        """
        if units is None:
            units = [getattr(self, f"u_{i}") for i in range(self._dim)]
        return [q_tensor_from_u(self.space, i, u) for i, u in enumerate(units)]

    @property
    def q_tensors(self) -> list[Tensor]:
        """The physical parameters as differentiable tensors (mapped from u)."""
        return self.q_from()

    def q_values(self) -> np.ndarray:
        """Current physical parameter vector (numpy copy)."""
        return np.array([float(t.data) for t in self.q_tensors])

    def set_q(self, q: np.ndarray) -> None:
        """Set the physical parameters (inverse of the sigmoid mapping)."""
        u = units_from_q(self.space, q)
        for i in range(self._dim):
            np.copyto(getattr(self, f"u_{i}").data, u[i])

    # ------------------------------------------------------------------
    #: Backward-only linear leak: the forward value is exactly the circuit
    #: output, but the backward pass sees an extra ``leak`` of dV_out/dV_in.
    #: Deeply saturated printed stages have exponentially small gains, which
    #: makes a saturated network untrainable; the leak (a straight-through
    #: estimator, like the soft device counts of §III-B) restores a recovery
    #: gradient without changing any reported voltage or power.
    GRADIENT_LEAK = 0.05

    def output_and_power(
        self,
        v_in: Tensor,
        units: list[Tensor] | None = None,
        transfer: TransferModel | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Activation outputs and the per-sample power (W) of the same solve.

        Both have ``v_in``'s shape; the power is the analytic circuit
        dissipation at the solved operating point.  ``units`` and
        ``transfer`` replace the layer's own u parameters and transfer
        model (e.g. instance stacks of both — see
        :meth:`repro.circuits.pnc.PrintedNeuralNetwork.forward_with_power`).
        """
        transfer = self.transfer if transfer is None else transfer
        v_out, power = transfer.output_and_power(v_in, self.q_from(units))
        if self.training and self.GRADIENT_LEAK > 0.0:
            v_out = v_out + (v_in - v_in.detach()) * self.GRADIENT_LEAK
        return v_out, power

    def forward(
        self,
        v_in: Tensor,
        units: list[Tensor] | None = None,
        transfer: TransferModel | None = None,
    ) -> Tensor:
        """Activation output voltages, same shape as ``v_in``."""
        return self.output_and_power(v_in, units, transfer)[0]

    # ------------------------------------------------------------------
    def power_inputs(
        self, v_in: Tensor, batch_limit: int = 256, units: list[Tensor] | None = None
    ) -> tuple[list[Tensor], Tensor, int, int]:
        """Surrogate-ready inputs ``(q_columns, flat_v, batch, n)`` for a layer.

        Applies the deterministic stride subsample down to ``batch_limit``
        rows and flattens to the ``(..., batch·n, 1)`` voltage column the
        P^AF surrogate expects.  Exposed so the network can stack several
        layers' groups into one
        :meth:`SurrogatePowerModel.predict_tensor_batched` call; the mean
        over ``reshape(..., batch, n)`` of the output reproduces
        :meth:`power_per_circuit`.
        """
        v_in = subsample_rows(v_in, batch_limit)
        batch, n = v_in.shape[-2:]
        flat = v_in.reshape(*v_in.shape[:-2], batch * n, 1)
        return self.q_from(units), flat, batch, n

    def power_per_circuit(
        self, v_in: Tensor, batch_limit: int = 256, units: list[Tensor] | None = None
    ) -> Tensor:
        """``(..., N)`` batch-averaged surrogate P^AF of each circuit in the layer (W).

        The MLP is evaluated on at most ``batch_limit`` batch rows
        (deterministic stride subsample) — the estimate is a batch mean, so
        subsampling changes variance, not bias, and keeps large datasets
        (e.g. pendigits) tractable.  Analytic power comes with the outputs
        from :meth:`output_and_power`, not from a second solve.
        """
        if self.surrogate is None:
            raise ValueError("power_per_circuit needs a fitted P^AF surrogate")
        q_columns, flat, batch, n = self.power_inputs(v_in, batch_limit, units)
        powers = self.surrogate.predict_tensor(q_columns, flat)
        return powers.reshape(*flat.shape[:-2], batch, n).mean(axis=-2)

    # ------------------------------------------------------------------
    def project_(self, units: list[Tensor] | None = None) -> None:
        """Keep the unconstrained parameters numerically tame.

        The sigmoid mapping already confines q to the design space; clipping
        u avoids saturated-sigmoid dead zones after aggressive steps.
        ``units`` clips other u leaves of this design space instead of the
        layer's own (e.g. ``(instances, 1, 1)`` stacks).
        """
        if units is None:
            units = [getattr(self, f"u_{i}") for i in range(self._dim)]
        for u in units:
            np.clip(u.data, -10.0, 10.0, out=u.data)
