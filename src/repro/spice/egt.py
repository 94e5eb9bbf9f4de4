"""Compact model of a printed inorganic n-type electrolyte-gated transistor.

Printed nEGTs operate below 1 V thanks to the huge electrolyte double-layer
capacitance; their I–V characteristics are well captured by an EKV-style
charge-based model that is smooth (infinitely differentiable), covers weak
through strong inversion, and saturates correctly.  This is the device model
behind every activation circuit in :mod:`repro.pdk`.

The drain current of an n-type device with terminals (d, g, s), all voltages
referenced to ground, is

.. math::

    I_{ds} = I_s \\, [F(x_f) - F(x_r)], \\qquad
    F(x) = \\ln^2(1 + e^{x/2}),

with the forward/reverse normalized voltages

.. math::

    x_f = (v_p - V_s)/\\phi, \\quad x_r = (v_p - V_d)/\\phi, \\quad
    v_p = (V_g - V_{th})/n,

specific current :math:`I_s = 2 n K (W/L) \\phi^2`, slope factor ``n``,
thermal-like voltage ``phi`` and transconductance parameter ``K``
(:math:`\\mu C`).  ``F`` interpolates between exponential sub-threshold
behaviour and the quadratic strong-inversion law.

This module holds the package's one numpy EKV, :func:`ekv` (with
:func:`drain_current` over whole transistor arrays), and its one specific
current, :meth:`EGTModel.specific_current`: the MNA solver, the power
accounting and the differentiable transfer models all evaluate these.  The
autograd form is :func:`repro.pdk.transfer.ids_t`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def ekv(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """EKV interpolation ``F(x) = softplus(x/2)²`` and ``F'(x) = softplus(x/2)·σ(x/2)``.

    The one numpy EKV of the package: the MNA stamps, the transfer-model
    residuals and :class:`EGTModel` all evaluate it.  One softplus serves
    both.  ``max(h, 0) + log1p(exp(-|h|))`` is the overflow-safe softplus in
    one branch-free expression: it gives the bits of the two-branch
    ``np.where`` form while evaluating each ufunc once.
    """
    h = x / 2.0
    s = np.maximum(h, 0.0) + np.log1p(np.exp(-np.abs(h)))
    return s**2, s * (1.0 / (1.0 + np.exp(-np.clip(h, -500, 500))))


def _numpy(value):
    """The numpy value of a card field (a Tensor leaf's live buffer)."""
    return value if isinstance(value, (float, int, np.ndarray, np.generic)) else value.data


def drain_current(vg, vd, vs, i_s, vth, n, phi) -> tuple:
    """``(I_ds, ∂I/∂V_g, ∂I/∂V_d, ∂I/∂V_s)``; every argument broadcasts.

    Both channel ends go through one :func:`ekv` call, so a whole circuit's
    transistors (as arrays of terminal voltages and card values) cost one
    EKV evaluation.
    """
    vp = (vg - vth) / n
    f, fp = ekv(np.stack(np.broadcast_arrays((vp - vs) / phi, (vp - vd) / phi)))
    return (
        i_s * (f[0] - f[1]),
        i_s * (fp[0] - fp[1]) / (n * phi),
        i_s * fp[1] / phi,
        -i_s * fp[0] / phi,
    )


@dataclass(frozen=True)
class EGTModel:
    """Printed nEGT model card.

    Parameters
    ----------
    vth:
        Threshold voltage in volts.  Printed inorganic EGTs sit around
        0.1–0.4 V, enabling sub-1 V supplies.
    k:
        Transconductance parameter ``K = mu * C`` in A/V².  Printed oxide
        channels reach ~1e-4 A/V² per square.
    n:
        Sub-threshold slope factor (dimensionless, >= 1).
    phi:
        Effective thermal voltage in volts; EGTs show steep ~100 mV/decade
        sub-threshold slopes, so ``phi`` ~ 0.04 V.

    ``vth`` and ``k`` may also be instance-stacked arrays, or autograd
    Tensor leaves over such arrays: the numpy methods read a leaf's live
    buffer, and :func:`repro.pdk.transfer.ids_t` records the leaf.
    """

    vth: float = 0.2
    k: float = 1.0e-4
    n: float = 1.2
    phi: float = 0.04

    def __post_init__(self):
        # vth/k may be instance-stacked arrays, or Tensor leaves over them:
        # the Monte-Carlo ensemble (repro.circuits.ensemble) gives each
        # layer one such card, which the graph expressions record and whose
        # live buffers the numpy solves read.  Validate elementwise.
        if np.any(_numpy(self.k) <= 0) or self.phi <= 0 or self.n < 1.0:
            raise ValueError("EGT model card out of physical range")

    def specific_current(self, width, length):
        """Specific (normalization) current ``I_s = 2 n K (W/L) φ²``.

        Numpy; broadcasts over geometry arrays and an instance-stacked card.
        """
        if np.any(np.less_equal(width, 0)) or np.any(np.less_equal(length, 0)):
            raise ValueError("transistor geometry must be positive")
        return 2.0 * self.n * _numpy(self.k) * (width / length) * self.phi**2

    def pinch_off(self, vg):
        """Pinch-off voltage ``v_p = (V_g − V_th)/n`` (numpy; broadcasts)."""
        return (vg - _numpy(self.vth)) / self.n

    def ids(self, vg: float, vd: float, vs: float, width: float, length: float) -> float:
        """Drain current (A) for terminal voltages referenced to ground."""
        return self.ids_and_derivatives(vg, vd, vs, width, length)[0]

    def ids_and_derivatives(
        self, vg: float, vd: float, vs: float, width: float, length: float
    ) -> tuple[float, float, float, float]:
        """Return ``(ids, dI/dVg, dI/dVd, dI/dVs)`` for Newton linearization."""
        i_s = self.specific_current(width, length)
        values = drain_current(vg, vd, vs, i_s, _numpy(self.vth), self.n, self.phi)
        return tuple(float(v) for v in values)

    def saturation_current(self, vgs: float, width: float, length: float) -> float:
        """Drain current deep in saturation (``vds`` large)."""
        f, _ = ekv(self.pinch_off(vgs) / self.phi)
        return float(self.specific_current(width, length) * f)


#: Default model card used by the printed PDK (nominal corner).
DEFAULT_NEGT = EGTModel()
