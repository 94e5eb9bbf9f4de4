"""Differentiable transfer and power models of the printed circuits.

Training needs ``V_out`` and analytic power as *differentiable* functions of
the input voltage and of the learnable physical parameters ``q = [R, W, L]``.
The circuits are nonlinear (their node equations are implicit), so we use the
implicit function theorem:

1. Solve the scalar node equation ``g(V; v_in, q) = 0`` with a vectorized,
   damped Newton iteration in plain numpy (fast, no graph).
2. Re-attach gradients with a single implicit step

   .. math:: V_{out} = V^* - g(V^*; v_{in}, q) / g'(V^*)

   where ``V*`` is detached and ``g'`` is the (detached) numeric derivative.
   The forward value is unchanged (``g(V*) ≈ 0``), while backprop yields
   exactly ``∂V/∂p = -(∂g/∂p)/g'`` — the implicit derivative.

Because these equations are *the same EKV equations* the SPICE substrate
stamps (one numpy EKV, :func:`repro.spice.egt.ekv`, serves both; the Tensor
form is :func:`ids_t`), the transfer model agrees with full circuit simulation to solver
tolerance (asserted by tests), while remaining end-to-end differentiable for
the augmented-Lagrangian training loop.

All functions broadcast over arbitrary input shapes: ``v_in`` is typically a
``(batch, n_neurons)`` tensor and each entry of ``q`` a scalar tensor shared
across the layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.autograd.tensor import Tensor, constant_of
from repro.observability.metrics import get_registry
from repro.pdk.params import PDK, DEFAULT_PDK, ActivationKind
from repro.spice.egt import DEFAULT_NEGT, EGTModel, ekv

# ----------------------------------------------------------------------
# EKV, Tensor flavour (the numpy one is repro.spice.egt.ekv)
# ----------------------------------------------------------------------

def _softplus_t(x: Tensor) -> Tensor:
    positive = x.relu()
    return positive + ((-(x.abs())).exp() + 1.0).log()


def _f_t(x: Tensor) -> Tensor:
    s = _softplus_t(x * 0.5)
    return s * s


def ids_t(vg: Tensor, vd: Tensor, vs: Tensor, width: Tensor, length: Tensor, model: EGTModel) -> Tensor:
    """EKV drain current as an autograd expression."""
    i_s = width / length * (2.0 * model.n * model.k * model.phi**2)
    vp = (vg - model.vth) * (1.0 / model.n)
    xf = (vp - vs) * (1.0 / model.phi)
    xr = (vp - vd) * (1.0 / model.phi)
    return i_s * (_f_t(xf) - _f_t(xr))


def _const(value: float | np.ndarray) -> Tensor:
    return Tensor(np.asarray(value, dtype=np.float64))


# ----------------------------------------------------------------------
# Generic implicit node solve
# ----------------------------------------------------------------------

#: A residual closure ``g(V) -> (g, ∂g/∂V)`` over the moving node voltage.
Residual = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_NEWTON_EVALS = get_registry().counter(
    "transfer_newton_evals_total", "residual evaluations by transfer-model Newton solves"
)
_NEWTON_UNCONVERGED = get_registry().counter(
    "transfer_newton_unconverged_total",
    "transfer-model Newton elements still at or above tol when the iteration cap hit",
)


def _newton_solve_np(
    g_and_gprime: Residual,
    v0: np.ndarray,
    iterations: int = 60,
    step_limit: float = 0.4,
    tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized damped Newton on the scalar node equation.

    Returns ``(V*, g'(V*))``.  When the loop stops because every element
    converged, its last evaluation was taken at the returned ``V*``
    (frozen elements never move), so that evaluation's ``g'`` is returned
    with it; after the iteration cap the last evaluation preceded the last
    step, and the second item is None.

    Convergence is tracked **per element**: an element freezes the moment
    its own residual drops below ``tol`` and never moves again.  A
    batch-global stop (``|g|.max() < tol``) would let slow-converging
    neighbours keep polishing already-converged elements, making each
    element's bits depend on what else shares its batch — which breaks the
    grouping-invariance contract of :mod:`repro.serving.engine` (the same
    row must yield identical bits no matter which rows it was batched
    with).  With per-element freezing every trajectory is a pure function
    of its own ``v0`` entry and inputs, which is also what lets the
    activation init screen solve all its q candidates in one broadcast call
    (:meth:`repro.circuits.activations.PrintedActivation._screen_units`)
    with the bits of one solve per candidate.

    The solve is loud, not silent: every call adds its residual evaluations
    to ``transfer_newton_evals_total``, and when the cap of ``iterations``
    evaluations is reached with elements whose last residual was still at
    or above ``tol``, their count goes to
    ``transfer_newton_unconverged_total``.  Both come from the iterates the
    solve already computed — no extra residual evaluation, so the returned
    bits are the same whether anyone reads the counters or not.
    """
    v = v0.copy()
    active = np.ones(np.shape(v), dtype=bool)
    evals = 0
    for evals in range(1, iterations + 1):
        g, gp = g_and_gprime(v)
        active &= np.abs(g) >= tol
        if not active.any():
            break
        step = g / np.where(np.abs(gp) < 1e-30, 1e-30, gp)
        step = np.clip(step, -step_limit, step_limit)
        v = np.where(active, v - step, v)
    else:
        _NEWTON_UNCONVERGED.inc(int(np.count_nonzero(active)))
        gp = None
    _NEWTON_EVALS.inc(evals)
    return v, gp


def _implicit_solve(
    residual: Callable[[], Residual],
    v0: np.ndarray,
    iterations: int,
    inputs: tuple[Tensor, ...],
) -> tuple[Tensor, Tensor]:
    """Newton-solve the node equation as replayable constant nodes.

    ``residual`` is a *factory*: called with no arguments, it reads the
    current ``.data`` of ``inputs`` (and of the model card), computes every
    term that does not depend on the node voltage ``V`` — specific
    currents, pinch-off voltages, the fixed terminal's ``f(x)``, ``1/R`` —
    and returns the closure ``g(V) -> (g, ∂g/∂V)`` that evaluates only the
    terms that move with ``V``.  The factory runs at the start of every
    solve, never once at build time: a captured graph overwrites the input
    buffers in place between replays, and terms hoisted when the graph was
    built would freeze the capture epoch's values.  ``inputs`` must hold
    every tensor whose buffer the factory reads — a captured graph skips a
    kernel whose recorded inputs kept their bytes.

    Returns ``(v_star, inv_gprime)``: the detached solution and the detached
    ``1/g'(V*)`` factor.  Both are :func:`constant_of` nodes over ``inputs``,
    so a captured graph reruns the Newton iteration against the *current*
    input and parameter values on every replay instead of freezing the
    solution from the capture epoch.  The ``1/g'`` node takes the ``g'``
    of the solve's converged last evaluation, which runs right before it
    (same inputs: a replay runs both or neither), and evaluates the
    residual at ``V*`` itself only after the iteration cap.
    """
    last_gprime: list[np.ndarray | None] = [None]

    def solve(*_: np.ndarray) -> np.ndarray:
        v, last_gprime[0] = _newton_solve_np(residual(), v0, iterations=iterations)
        return v

    v_star = constant_of(solve, *inputs)

    def inv_gprime(v: np.ndarray, *_: np.ndarray) -> np.ndarray:
        g_prime, last_gprime[0] = last_gprime[0], None
        if g_prime is None:
            _, g_prime = residual()(v)
        safe = np.where(np.abs(g_prime) < 1e-30, 1e-30, g_prime)
        return 1.0 / safe

    return v_star, constant_of(inv_gprime, v_star, *inputs)


def _implicit_attach(v_star: Tensor, g_tensor: Tensor, inv_gprime: Tensor) -> Tensor:
    """Re-attach gradients to a detached Newton solution.

    ``g_tensor`` must be the residual evaluated *at the detached* ``v_star``
    as an autograd expression in the upstream tensors; ``inv_gprime`` is the
    detached ``1/∂g/∂V`` at ``v_star``.  The forward value is unchanged
    (``g(V*) ≈ 0``) while backprop yields exactly the implicit derivative.
    """
    return v_star - g_tensor * inv_gprime


# ----------------------------------------------------------------------
# Per-circuit node equations
# ----------------------------------------------------------------------

@dataclass
class TransferModel:
    """Differentiable transfer + analytic power for one activation circuit.

    Call :meth:`output` for the activation output voltage tensor and
    :meth:`output_and_power` to also get per-sample dissipated power (W).
    ``q`` is passed as a list of scalar :class:`Tensor` (one per design-space
    parameter, ordered as in :func:`repro.pdk.params.design_space`), so that
    gradients flow into the learnable physical parameters.

    ``model`` is the one EGT card both halves of a solve read: the numpy
    Newton closures take its values through :func:`repro.spice.egt.ekv`,
    and the :func:`ids_t` expressions record it.  Its ``vth``/``k`` may be
    ``(instances, 1, 1)`` :class:`Tensor` leaves (the Monte-Carlo engine,
    :mod:`repro.circuits.ensemble`): the graph then recomputes from their
    fresh values on every replay, and the closures read the same live
    buffers.
    """

    kind: ActivationKind
    pdk: PDK = DEFAULT_PDK
    model: EGTModel = DEFAULT_NEGT
    newton_iterations: int = 60

    def _solve_inputs(self, *tensors: Tensor) -> tuple[Tensor, ...]:
        """A solve's recorded inputs: ``tensors`` plus the card's Tensor leaves.

        The Newton closures read the live buffers of a card's Tensor
        ``vth``/``k`` leaves, which the Monte-Carlo engine rewrites in place
        between replays.
        """
        card = (self.model.vth, self.model.k)
        return tensors + tuple(v for v in card if isinstance(v, Tensor))

    # ------------------------------------------------------------------
    def output(self, v_in: Tensor, q: list[Tensor]) -> Tensor:
        return self.output_and_power(v_in, q)[0]

    def output_and_power(self, v_in: Tensor, q: list[Tensor]) -> tuple[Tensor, Tensor]:
        """Return ``(v_out, power)`` tensors broadcast to ``v_in``'s shape."""
        if self.kind is ActivationKind.RELU:
            return self._source_follower(v_in, q, clamp=False)
        if self.kind is ActivationKind.CLIPPED_RELU:
            return self._source_follower(v_in, q, clamp=True)
        if self.kind is ActivationKind.SIGMOID:
            return self._inverter_cascade(v_in, q, vss=0.0)
        if self.kind is ActivationKind.TANH:
            return self._inverter_cascade(v_in, q, vss=self.pdk.vss)
        raise ValueError(f"unhandled activation kind: {self.kind}")

    # ------------------------------------------------------------------
    def _source_follower(self, v_in: Tensor, q: list[Tensor], clamp: bool) -> tuple[Tensor, Tensor]:
        if clamp:
            return self._clipped_follower(v_in, q)
        vdd, model = self.pdk.vdd, self.model
        r_s, w_1, l_1 = q
        vin_np = v_in.data
        rs_np, w1_np, l1_np = r_s.data, w_1.data, l_1.data

        def residual() -> Residual:
            # Drain at VDD, gate at v_in: only the source side moves with V.
            i_s = model.specific_current(w1_np, l1_np)
            vp = model.pinch_off(vin_np)
            f_drain, _ = ekv((vp - vdd) / model.phi)
            neg_i_s, inv_rs = -i_s, 1.0 / rs_np

            def g_np(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                f_src, fp_src = ekv((vp - v) / model.phi)
                return i_s * (f_src - f_drain) - v / rs_np, neg_i_s * fp_src / model.phi - inv_rs

            return g_np

        v0 = np.full(np.broadcast_shapes(vin_np.shape, np.shape(rs_np)), 0.05)
        v_star_t, inv_gp = _implicit_solve(
            residual, v0, self.newton_iterations, self._solve_inputs(v_in, r_s, w_1, l_1)
        )
        g_t = ids_t(v_in, _const(vdd), v_star_t, w_1, l_1, model) - v_star_t / r_s
        v_out = _implicit_attach(v_star_t, g_t, inv_gp)

        # Analytic power with gradients: M1 drop + load.
        i1_out = ids_t(v_in, _const(vdd), v_out, w_1, l_1, model)
        power = i1_out * (vdd - v_out) + v_out * v_out / r_s
        return v_out, power

    def _clipped_follower(self, v_in: Tensor, q: list[Tensor]) -> tuple[Tensor, Tensor]:
        """Current-limited follower + diode clamp (p-Clipped_ReLU).

        The drain node eliminates analytically: the total output current
        ``I(V) = V/R_s + I_clamp(V)`` all flows through R_d, so
        ``V_drain = VDD − R_d·I(V)`` and a single scalar residual remains:

        .. math:: g(V) = I_{M1}(v_{in}, V_{drain}(V), V) - I(V) = 0.
        """
        vdd, model = self.pdk.vdd, self.model
        r_d, r_s, w_1, l_1, w_c, l_c = q
        vin_np = v_in.data
        rd_np, rs_np = r_d.data, r_s.data
        w1_np, l1_np, wc_np, lc_np = w_1.data, l_1.data, w_c.data, l_c.data

        def residual() -> Residual:
            # Both transistors move with V; only the partials g and g' use
            # are computed (clamp: dI/dVg + dI/dVd; M1: dI/dVd and dI/dVs).
            i_s_c = model.specific_current(wc_np, lc_np)
            i_s_1 = model.specific_current(w1_np, l1_np)
            vp_1 = model.pinch_off(vin_np)
            neg_i_s_1, neg_rd = -i_s_1, -rd_np
            inv_rs, n_phi = 1.0 / rs_np, model.n * model.phi

            def g_np(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                # Clamp: gate and drain at V, source at ground.
                vp_c = model.pinch_off(v)
                f_src, fp_src = ekv(vp_c / model.phi)
                f_drn, fp_drn = ekv((vp_c - v) / model.phi)
                ic = i_s_c * (f_src - f_drn)
                ic_prime = i_s_c * (fp_src - fp_drn) / n_phi + i_s_c * fp_drn / model.phi
                i_total = v / rs_np + ic
                i_total_prime = inv_rs + ic_prime
                v_drain = vdd - rd_np * i_total
                # M1: gate at v_in, source at V, drain at V_drain(V).
                f_src, fp_src = ekv((vp_1 - v) / model.phi)
                f_drn, fp_drn = ekv((vp_1 - v_drain) / model.phi)
                g = i_s_1 * (f_src - f_drn) - i_total
                gp = (
                    i_s_1 * fp_drn / model.phi * (neg_rd * i_total_prime)
                    + neg_i_s_1 * fp_src / model.phi
                    - i_total_prime
                )
                return g, gp

            return g_np

        v0 = np.full(
            np.broadcast_shapes(vin_np.shape, np.shape(rs_np), np.shape(rd_np)), 0.05
        )
        v_star_t, inv_gp = _implicit_solve(
            residual, v0, self.newton_iterations,
            self._solve_inputs(v_in, r_d, r_s, w_1, l_1, w_c, l_c),
        )
        ic_t = ids_t(v_star_t, v_star_t, _const(0.0), w_c, l_c, model)
        i_total_t = v_star_t / r_s + ic_t
        v_drain_t = _const(vdd) - r_d * i_total_t
        g_t = ids_t(v_in, v_drain_t, v_star_t, w_1, l_1, model) - i_total_t
        v_out = _implicit_attach(v_star_t, g_t, inv_gp)

        # Power with gradients, recomputed at the attached output.
        ic_out = ids_t(v_out, v_out, _const(0.0), w_c, l_c, model)
        i_total_out = v_out / r_s + ic_out
        v_drain_out = _const(vdd) - r_d * i_total_out
        i1_out = ids_t(v_in, v_drain_out, v_out, w_1, l_1, model)
        power = (
            i_total_out * i_total_out * r_d  # R_d drop (I²R with I = total)
            + i1_out * (v_drain_out - v_out)  # M1 channel
            + v_out * v_out / r_s  # load
            + ic_out * v_out  # clamp
        )
        return v_out, power

    # ------------------------------------------------------------------
    def _inverter_stage(
        self,
        v_gate: Tensor,
        r_load: Tensor,
        width: Tensor,
        length: Tensor,
        vss: float,
        r_shunt: Tensor | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Solve one resistive-load inverter stage; return (v_out, power).

        ``r_shunt`` models a resistive load from the output node to the
        ``vss`` rail (e.g. the next stage's gate divider); its dissipation is
        accounted for by the caller, not here.
        """
        vdd, model = self.pdk.vdd, self.model
        vg_np = v_gate.data
        r_np, w_np, l_np = r_load.data, width.data, length.data
        rsh_np = None if r_shunt is None else r_shunt.data

        def residual() -> Residual:
            # Gate and source are fixed: only the drain side moves with V.
            i_s = model.specific_current(w_np, l_np)
            vp = model.pinch_off(vg_np)
            f_src, _ = ekv((vp - vss) / model.phi)
            neg_inv_r = -1.0 / r_np
            inv_rsh = None if rsh_np is None else 1.0 / rsh_np

            def g_np(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                f_drn, fp_drn = ekv((vp - v) / model.phi)
                g = (vdd - v) / r_np - i_s * (f_src - f_drn)
                gp = neg_inv_r - i_s * fp_drn / model.phi
                if inv_rsh is not None:
                    g = g - (v - vss) / rsh_np
                    gp = gp - inv_rsh
                return g, gp

            return g_np

        v0 = np.full(np.broadcast_shapes(vg_np.shape, np.shape(r_np)), 0.5 * (vdd + vss))
        tensors = (v_gate, r_load, width, length) + (() if r_shunt is None else (r_shunt,))
        v_star_t, inv_gp = _implicit_solve(
            residual, v0, self.newton_iterations, self._solve_inputs(*tensors)
        )
        i_t = ids_t(v_gate, v_star_t, _const(vss), width, length, model)
        g_t = (_const(vdd) - v_star_t) / r_load - i_t
        if r_shunt is not None:
            g_t = g_t - (v_star_t - vss) / r_shunt
        v_out = _implicit_attach(v_star_t, g_t, inv_gp)

        i_out = ids_t(v_gate, v_out, _const(vss), width, length, model)
        drop = _const(vdd) - v_out
        power = drop * drop / r_load + i_out * (v_out - vss)
        return v_out, power

    @staticmethod
    def _divider(v_top: Tensor, r_top: Tensor, r_bot: Tensor, rail: float) -> tuple[Tensor, Tensor]:
        """Unloaded divider from ``v_top`` to ``rail``; return (v_tap, power)."""
        total = r_top + r_bot
        beta = r_bot / total
        v_tap = (v_top - rail) * beta + rail
        drop = v_top - rail
        power = drop * drop / total
        return v_tap, power

    def _inverter_cascade(self, v_in: Tensor, q: list[Tensor], vss: float) -> tuple[Tensor, Tensor]:
        if self.kind is ActivationKind.SIGMOID:
            r_d1, r_d2, r_1, r_2, w_1, l_1, w_2, l_2 = q
            v_g1, p_d1 = self._divider(v_in, r_d1, r_d2, 0.0)
            v_mid, p_1 = self._inverter_stage(v_g1, r_1, w_1, l_1, 0.0)
            v_out, p_2 = self._inverter_stage(v_mid, r_2, w_2, l_2, 0.0)
            return v_out, p_d1 + p_1 + p_2
        r_d1, r_d2, r_1, r_d3, r_d4, r_2, w_1, l_1, w_2, l_2 = q
        v_g1, p_d1 = self._divider(v_in, r_d1, r_d2, vss)
        v_mid, p_1 = self._inverter_stage(v_g1, r_1, w_1, l_1, vss, r_shunt=r_d3 + r_d4)
        v_g2, p_d2 = self._divider(v_mid, r_d3, r_d4, vss)
        v_out, p_2 = self._inverter_stage(v_g2, r_2, w_2, l_2, vss)
        return v_out, p_d1 + p_1 + p_d2 + p_2


@dataclass
class NegationModel:
    """Differentiable model of the negation (inverting amplifier) circuit."""

    pdk: PDK = DEFAULT_PDK
    model: EGTModel = DEFAULT_NEGT
    newton_iterations: int = 60

    def output_and_power(self, v_in: Tensor, q: list[Tensor]) -> tuple[Tensor, Tensor]:
        r_n, w_n, l_n = q
        helper = TransferModel(ActivationKind.TANH, pdk=self.pdk, model=self.model,
                               newton_iterations=self.newton_iterations)
        return helper._inverter_stage(v_in, r_n, w_n, l_n, self.pdk.vss)


def make_transfer_model(kind: ActivationKind | str, pdk: PDK = DEFAULT_PDK) -> TransferModel:
    """Factory accepting either the enum or a flexible name string."""
    if isinstance(kind, str):
        kind = ActivationKind.from_name(kind)
    return TransferModel(kind, pdk=pdk)
