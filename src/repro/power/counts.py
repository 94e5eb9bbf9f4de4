"""Device counting — hard indicators and the paper's soft relaxations (§III-B).

Three counters matter for the power model:

- ``N^AF``: number of activation circuits that must actually be printed.  A
  column of the crossbar parameter matrix θ feeds one activation circuit; if
  every surrogate conductance in that column is (effectively) zero the
  circuit is never driven and need not be printed.  Eq. 2 of the paper:
  ``N^AF = 1ᵀ · max_over_inputs( 1{|θ| > 0} )``.
- ``N^N``: number of negation circuits.  A negation circuit is required for
  every *input row* of a crossbar that feeds at least one negative weight
  (one neg(·) block serves all resistors wired to it, see Fig. 3(b)).
- soft versions replacing ``1{|θ| > 0}`` with ``σ(k(|θ| − τ))`` so the counts
  receive gradients, plus straight-through variants whose forward value is
  exact while their backward uses the sigmoid's derivative.

Thresholding: real printed resistors below the printable conductance floor
cannot exist, so the indicator compares against the prune threshold ``τ``
(``PDK.prune_threshold_us``) rather than literal zero.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, constant_of

#: Sharpness of the sigmoid relaxation (in 1/µS of surrogate conductance).
DEFAULT_SHARPNESS = 8.0


def _magnitude(theta: Tensor | np.ndarray) -> np.ndarray:
    data = theta.data if isinstance(theta, Tensor) else np.asarray(theta)
    return np.abs(data)


# ----------------------------------------------------------------------
# Hard (exact) counts — reporting / final power estimation
# ----------------------------------------------------------------------

def hard_activation_count(theta: Tensor | np.ndarray, threshold: float = 0.0) -> int:
    """Exact ``N^AF``: columns of θ with at least one active conductance."""
    active = _magnitude(theta) > threshold
    return int(active.any(axis=0).sum())


def hard_negation_count(theta: Tensor | np.ndarray, threshold: float = 0.0) -> int:
    """Exact ``N^N``: input rows feeding at least one active negative weight.

    Only true input rows require negation circuits; the bias row can be wired
    to the complementary rail without an extra inverter, but we follow the
    conservative convention of [13] and count any row (including bias) whose
    negative-signed conductances are active.
    """
    data = theta.data if isinstance(theta, Tensor) else np.asarray(theta)
    active_negative = (data < -threshold)
    return int(active_negative.any(axis=1).sum())


# ----------------------------------------------------------------------
# Soft (sigmoid) counts — gradient path
# ----------------------------------------------------------------------

def soft_activation_count(
    theta: Tensor,
    threshold: float = 0.0,
    sharpness: float = DEFAULT_SHARPNESS,
) -> Tensor:
    """Differentiable ``N^AF_soft = 1ᵀ · rowmax σ(k(|θ| − τ))`` (paper Eq. soft).

    The max runs over the input axis (``axis=-2``) so each output column —
    each physical activation circuit — contributes at most 1; leading
    (instance) axes are kept.
    """
    soft = ((theta.abs() - threshold) * sharpness).sigmoid()
    return soft.max(axis=-2).sum(axis=-1)


def soft_negation_count(
    theta: Tensor,
    threshold: float = 0.0,
    sharpness: float = DEFAULT_SHARPNESS,
) -> Tensor:
    """Differentiable ``N^N_soft``: per-row max over negative-signed entries.

    Negative entries are selected by the (data-level) sign mask; their
    magnitudes pass through the same sigmoid relaxation.  Rows without any
    negative entry contribute ≈ σ(-kτ) ≈ 0.  Leading (instance) axes are
    kept.
    """
    negative_mask = constant_of(lambda th: th < 0.0, theta)
    magnitude = theta.abs()
    soft = ((magnitude - threshold) * sharpness).sigmoid()
    suppressed = soft.where(negative_mask, Tensor(np.zeros_like(theta.data)))
    return suppressed.max(axis=-1).sum(axis=-1)


# ----------------------------------------------------------------------
# Per-column / per-row activity vectors (straight-through)
# ----------------------------------------------------------------------

def soft_column_activity(
    theta: Tensor,
    threshold: float = 0.0,
    sharpness: float = DEFAULT_SHARPNESS,
) -> Tensor:
    """``(N,)`` soft activity of each activation circuit (column of θ).

    The reduction runs over the *row* axis addressed from the right
    (``axis=-2``), so θ may carry leading axes — an ``(instances, rows,
    cols)`` Monte-Carlo stack yields an ``(instances, N)`` activity whose
    slices match the per-instance 2-D call bit for bit.
    """
    soft = ((theta.abs() - threshold) * sharpness).sigmoid()
    return soft.max(axis=-2)


def straight_through_column_activity(
    theta: Tensor,
    threshold: float = 0.0,
    sharpness: float = DEFAULT_SHARPNESS,
) -> Tensor:
    """``(N,)`` activity per activation circuit: hard forward, soft backward.

    Used to weight per-circuit surrogate powers: inactive circuits contribute
    zero power exactly, while gradients still tell the optimizer that growing
    a conductance in a dead column would wake its activation circuit.
    """
    soft = soft_column_activity(theta, threshold=threshold, sharpness=sharpness)
    correction = constant_of(
        lambda th, sv: (np.abs(th) > threshold).any(axis=-2).astype(np.float64) - sv,
        theta,
        soft,
    )
    return soft + correction


def soft_row_negativity(
    theta: Tensor,
    threshold: float = 0.0,
    sharpness: float = DEFAULT_SHARPNESS,
) -> Tensor:
    """``(M+2,)`` soft need-a-negation-circuit score per input row.

    Reduces over the column axis addressed from the right (``axis=-1``);
    instance-stacked θ broadcasts to a per-instance score stack.
    """
    negative_mask = constant_of(lambda th: th < 0.0, theta)
    soft = ((theta.abs() - threshold) * sharpness).sigmoid()
    suppressed = soft.where(negative_mask, Tensor(np.zeros_like(theta.data)))
    return suppressed.max(axis=-1)


def straight_through_row_negativity(
    theta: Tensor,
    threshold: float = 0.0,
    sharpness: float = DEFAULT_SHARPNESS,
) -> Tensor:
    """``(M+2,)`` per-row negation activity: hard forward, soft backward."""
    soft = soft_row_negativity(theta, threshold=threshold, sharpness=sharpness)
    correction = constant_of(
        lambda th, sv: (th < -threshold).any(axis=-1).astype(np.float64) - sv,
        theta,
        soft,
    )
    return soft + correction


# ----------------------------------------------------------------------
# Straight-through counts — exact forward, sigmoid backward
# ----------------------------------------------------------------------

def straight_through_activation_count(
    theta: Tensor,
    threshold: float = 0.0,
    sharpness: float = DEFAULT_SHARPNESS,
) -> Tensor:
    """``N^AF`` exact in the forward pass, soft in the backward pass."""
    soft = soft_activation_count(theta, threshold=threshold, sharpness=sharpness)
    correction = constant_of(
        lambda th, sv: (np.abs(th) > threshold).any(axis=-2).sum(axis=-1) - sv,
        theta,
        soft,
    )
    return soft + correction


def straight_through_negation_count(
    theta: Tensor,
    threshold: float = 0.0,
    sharpness: float = DEFAULT_SHARPNESS,
) -> Tensor:
    """``N^N`` exact in the forward pass, soft in the backward pass."""
    soft = soft_negation_count(theta, threshold=threshold, sharpness=sharpness)
    correction = constant_of(
        lambda th, sv: (th < -threshold).any(axis=-1).sum(axis=-1) - sv,
        theta,
        soft,
    )
    return soft + correction
