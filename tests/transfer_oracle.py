"""The generic-partials transfer residuals, kept as a test oracle.

:mod:`repro.pdk.transfer` solves each printed circuit's node equation with
residual closures that recompute only the terms that move with the node
voltage ``V``; everything fixed during a solve is hoisted out of the Newton
loop.  This module keeps the residuals those closures replaced — each
iteration calls the generic :func:`ids_partials_np`, which computes the
current and all three partials of every transistor from scratch — together
with the Newton loop and the ``1/g'`` evaluation, verbatim, so tests can
show that the rewrite returns the same ``V*`` and ``1/g'`` bit for bit and
takes the same number of residual evaluations.

:func:`oracle_solve` takes the numpy values of one solve's inputs, in the
order the library passes them to ``_implicit_solve``, and returns
``(v_star, inv_gprime, evals)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.pdk.params import PDK
from repro.spice.egt import EGTModel


def _softplus_np(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0.0))))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _f_np(x: np.ndarray) -> np.ndarray:
    return _softplus_np(x / 2.0) ** 2


def _fp_np(x: np.ndarray) -> np.ndarray:
    return _softplus_np(x / 2.0) * _sigmoid_np(x / 2.0)


def ids_partials_np(
    vg: np.ndarray, vd: np.ndarray, vs: np.ndarray, width: np.ndarray, length: np.ndarray, model: EGTModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(ids, dI/dVg, dI/dVd, dI/dVs)`` as numpy arrays."""
    i_s = 2.0 * model.n * model.k * (width / length) * model.phi**2
    vp = (vg - model.vth) / model.n
    xf = (vp - vs) / model.phi
    xr = (vp - vd) / model.phi
    ff, fr = _f_np(xf), _f_np(xr)
    fpf, fpr = _fp_np(xf), _fp_np(xr)
    ids = i_s * (ff - fr)
    return (
        ids,
        i_s * (fpf - fpr) / (model.n * model.phi),
        i_s * fpr / model.phi,
        -i_s * fpf / model.phi,
    )


Residual = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def newton_solve(
    g_and_gprime: Residual,
    v0: np.ndarray,
    iterations: int = 60,
    step_limit: float = 0.4,
    tol: float = 1e-12,
) -> tuple[np.ndarray, int]:
    """The per-element-freezing damped Newton loop; also returns its evaluations."""
    v = v0.copy()
    active = np.ones(np.shape(v), dtype=bool)
    evals = 0
    for _ in range(iterations):
        g, gp = g_and_gprime(v)
        evals += 1
        active &= np.abs(g) >= tol
        if not active.any():
            break
        step = g / np.where(np.abs(gp) < 1e-30, 1e-30, gp)
        step = np.clip(step, -step_limit, step_limit)
        v = np.where(active, v - step, v)
    return v, evals


def follower_residual(vin_np, rs_np, w1_np, l1_np, *, vdd: float, model: EGTModel) -> Residual:
    """p-ReLU source follower."""

    def g_np(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        i1, _, _, di_dvs = ids_partials_np(vin_np, np.full_like(v, vdd), v, w1_np, l1_np, model)
        return i1 - v / rs_np, di_dvs - 1.0 / rs_np

    return g_np


def clipped_residual(
    vin_np, rd_np, rs_np, w1_np, l1_np, wc_np, lc_np, *, vdd: float, model: EGTModel
) -> Residual:
    """p-Clipped_ReLU: current-limited follower + diode clamp."""

    def g_np(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ic, ic_dvg, ic_dvd, _ = ids_partials_np(v, v, np.zeros_like(v), wc_np, lc_np, model)
        ic_prime = ic_dvg + ic_dvd
        i_total = v / rs_np + ic
        i_total_prime = 1.0 / rs_np + ic_prime
        v_drain = vdd - rd_np * i_total
        i1, _, i1_dvd, i1_dvs = ids_partials_np(vin_np, v_drain, v, w1_np, l1_np, model)
        g = i1 - i_total
        gp = i1_dvd * (-rd_np * i_total_prime) + i1_dvs - i_total_prime
        return g, gp

    return g_np


def inverter_residual(
    vg_np, r_np, w_np, l_np, rsh_np=None, *, vdd: float, vss: float, model: EGTModel
) -> Residual:
    """One resistive-load inverter stage, optionally shunted to ``vss``."""

    def g_np(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        i_m, _, di_dvd, _ = ids_partials_np(vg_np, v, np.full_like(v, vss), w_np, l_np, model)
        g = (vdd - v) / r_np - i_m
        gp = -1.0 / r_np - di_dvd
        if rsh_np is not None:
            g = g - (v - vss) / rsh_np
            gp = gp - 1.0 / rsh_np
        return g, gp

    return g_np


def oracle_solve(
    circuit: str,
    inputs: list[np.ndarray],
    pdk: PDK,
    model: EGTModel,
    iterations: int = 60,
    vss: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(v_star, inv_gprime, evals)`` of one solve of ``circuit``.

    ``circuit`` is ``"follower"``, ``"clipped"`` or ``"inverter"``;
    ``inputs`` are the solve's input values in library order (inverter:
    ``v_gate, R, W, L[, R_shunt]``).
    """
    vdd = pdk.vdd
    if circuit == "follower":
        g_np = follower_residual(*inputs, vdd=vdd, model=model)
        v0 = np.full(np.broadcast_shapes(inputs[0].shape, np.shape(inputs[1])), 0.05)
    elif circuit == "clipped":
        g_np = clipped_residual(*inputs, vdd=vdd, model=model)
        shape = np.broadcast_shapes(inputs[0].shape, np.shape(inputs[2]), np.shape(inputs[1]))
        v0 = np.full(shape, 0.05)
    elif circuit == "inverter":
        g_np = inverter_residual(*inputs, vdd=vdd, vss=vss, model=model)
        v0 = np.full(np.broadcast_shapes(inputs[0].shape, np.shape(inputs[1])), 0.5 * (vdd + vss))
    else:
        raise ValueError(f"unknown circuit {circuit!r}")
    v_star, evals = newton_solve(g_np, v0, iterations=iterations)
    _, g_prime = g_np(v_star)
    safe = np.where(np.abs(g_prime) < 1e-30, 1e-30, g_prime)
    return v_star, 1.0 / safe, evals
