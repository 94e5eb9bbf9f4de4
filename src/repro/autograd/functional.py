"""Neural-network math on :class:`~repro.autograd.tensor.Tensor`.

Provides the loss functions and nonlinearities used by the paper's training
pipeline, plus the *smooth indicator* relaxations (sigmoid soft counts and
straight-through estimators) that §III-B of the paper introduces for the
device-count terms of the power model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor, constant_of, is_grad_enabled, matmul_transposed


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid ``1 / (1 + exp(-x))``."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit ``max(0, x)``."""
    return x.relu()


def clipped_relu(x: Tensor, ceiling: float = 1.0) -> Tensor:
    """ReLU clipped at ``ceiling`` — matches the p-Clipped_ReLU ideal shape."""
    return x.clip(0.0, ceiling)


def softplus(x: Tensor, beta: float = 1.0) -> Tensor:
    """Numerically stable softplus ``log(1 + exp(beta * x)) / beta``."""
    scaled = x * beta
    # log(1 + e^s) = max(s, 0) + log(1 + e^{-|s|})
    positive = scaled.relu()
    stable = ((-(scaled.abs())).exp() + 1.0).log()
    return (positive + stable) * (1.0 / beta)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` with the max-subtraction trick."""
    shifted = logits - constant_of(lambda a: a.max(axis=axis, keepdims=True), logits)
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    return log_softmax(logits, axis=axis).exp()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy loss between raw ``logits`` and integer ``targets``.

    Parameters
    ----------
    logits:
        ``(batch, n_classes)`` tensor of unnormalized scores.  In the pNC
        context these are the (scaled) output-neuron voltages.
    targets:
        ``(batch,)`` integer class labels (numpy array, no gradient).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects 2-D logits (batch, classes)")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ValueError("targets must be 1-D and match the batch dimension")
    batch = np.arange(targets.shape[0])
    inv_n = 1.0 / targets.shape[0]
    source = logits.data

    # Fused kernel: the max-shift/exp/sum/log/pick/mean chain runs as one
    # numpy sequence (one graph node) instead of ~9 Tensor ops.  The forward
    # replicates the composed op sequence exactly; the backward uses the
    # closed form (softmax - onehot)/n.  The argmax shift and probabilities
    # are recomputed from the *current* logits array inside both closures,
    # which is what keeps the node valid under captured-graph replay.
    def fwd(a: np.ndarray) -> np.ndarray:
        shifted = a - a.max(axis=-1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        picked = (shifted - log_norm)[batch, targets]
        return -(picked.sum() * inv_n)

    def backward(g: np.ndarray):
        shifted = source - source.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=-1, keepdims=True)
        probs[batch, targets] -= 1.0
        return (probs * (g * inv_n),)

    return Tensor._make(fwd(source), (logits,), backward, fwd=fwd)


def instance_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-instance cross-entropy over ``(instances, batch, classes)`` logits.

    The instance-axis twin of :func:`cross_entropy`: one fused node whose
    output is an ``(instances, 1, 1)`` loss stack.  Every per-element
    operation (max-shift, exp, sum over the batch, closed-form backward)
    runs the same numpy sequence as the 2-D kernel does on each slice, so
    slice ``i`` of the result is bit-identical to
    ``cross_entropy(logits[i], targets)``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 3:
        raise ValueError("instance_cross_entropy expects 3-D logits (instances, batch, classes)")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[1]:
        raise ValueError("targets must be 1-D and match the batch dimension")
    batch = np.arange(targets.shape[0])
    inv_n = 1.0 / targets.shape[0]
    source = logits.data

    def fwd(a: np.ndarray) -> np.ndarray:
        shifted = a - a.max(axis=-1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        # The fancy-indexed pick is not C-contiguous; the strided row sum
        # would skip numpy's pairwise accumulation and drift from the 2-D
        # kernel's flat sum in the last ulp.  A contiguous copy restores
        # the exact per-row pairwise order.
        picked = np.ascontiguousarray((shifted - log_norm)[:, batch, targets])
        return (-(picked.sum(axis=-1) * inv_n)).reshape(-1, 1, 1)

    def backward(g: np.ndarray):
        shifted = source - source.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=-1, keepdims=True)
        probs[:, batch, targets] -= 1.0
        return (probs * (g * inv_n),)

    return Tensor._make(fwd(source), (logits,), backward, fwd=fwd)


def mse_loss(prediction: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error; used when fitting surrogate power models."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target_t
    return (diff * diff).mean()


def accuracy(logits: Tensor | np.ndarray, targets: np.ndarray) -> float:
    """Classification accuracy in [0, 1] from logits (argmax decision)."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = scores.argmax(axis=-1)
    return float((predictions == np.asarray(targets)).mean())


def instance_accuracy(logits: Tensor | np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-instance accuracies from ``(instances, batch, classes)`` logits.

    Each instance slice is scored exactly like :func:`accuracy` on a 2-D
    logits matrix: argmax is exact, and the mean over a batch of 0/1 hits
    is an exact float64 sum, so the result is bit-identical to looping
    :func:`accuracy` over the leading axis.
    """
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = scores.argmax(axis=-1)
    hits = predictions == np.asarray(targets)
    return hits.mean(axis=-1)


# ----------------------------------------------------------------------
# Smooth indicator relaxations (paper §III-B)
# ----------------------------------------------------------------------

def soft_indicator(x: Tensor, sharpness: float = 10.0) -> Tensor:
    """Sigmoid relaxation of the indicator ``1_{x > 0}``.

    The paper replaces the non-differentiable ``1_{|θ| > 0}`` used in the
    activation-circuit count (Eq. 2) with ``σ(|θ|)`` so the count receives
    gradients.  ``sharpness`` controls how closely the sigmoid approximates
    the step; the paper's formulation corresponds to ``sharpness`` times the
    conductance magnitude.
    """
    return (x * sharpness).sigmoid()


def hard_indicator(x: Tensor | np.ndarray, threshold: float = 0.0) -> np.ndarray:
    """Exact indicator ``1_{x > threshold}`` (no gradient; reporting only)."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    return (data > threshold).astype(np.float64)


def straight_through_indicator(x: Tensor, threshold: float = 0.0, sharpness: float = 10.0) -> Tensor:
    """Indicator with straight-through gradient.

    Forward pass returns the *hard* indicator ``1_{x > threshold}`` so power
    reports stay exact, while the backward pass uses the derivative of the
    sigmoid relaxation — the "soft count for differentiability" device of the
    paper, applied in straight-through form.
    """
    soft = soft_indicator(x - threshold, sharpness=sharpness)
    # hard = soft + (hard - soft).detach(): forward value is hard, gradient is
    # soft's.  The correction is data-dependent, so it is a replayable
    # constant node rather than a frozen Tensor literal.
    correction = constant_of(
        lambda xv, sv: (xv > threshold).astype(np.float64) - sv, x, soft
    )
    return soft + correction


def row_max(x: Tensor) -> Tensor:
    """Row-wise maximum (over the output axis), as used in Eq. 2.

    For a crossbar parameter matrix ``θ`` of shape ``(M+2, N)`` the paper
    takes the per-*activation-circuit* maximum over the incoming conductance
    indicators.  Each column of ``θ`` corresponds to one output/activation
    circuit, so the reduction runs over the input axis (axis 0), producing a
    length-``N`` vector.
    """
    return x.max(axis=0)


# ----------------------------------------------------------------------
# Frozen networks
# ----------------------------------------------------------------------

#: Rows of the bias blocks ``frozen_mlp`` adds (64 kB at 64 float32 columns).
_BIAS_ROWS = 256


def frozen_mlp(
    x: Tensor,
    weights: Sequence[Tensor],
    biases: Sequence[Tensor],
    groups: Sequence[int] | None = None,
) -> Tensor:
    """A tanh MLP whose parameters are all frozen, as one graph node, in float32.

    Computes ``h = tanh(h @ W + b)`` per layer, with no tanh after the last,
    over ``(..., n, d)`` inputs, in float32 as a PyTorch surrogate does:
    the node casts the weights and biases to float32 once (they are
    frozen), casts each input segment into a float32 buffer it owns, runs
    the whole layer chain there, in place, and casts the last layer's
    output into the node's float64 output array.  Inputs, outputs and input
    gradients are float64 at the node boundary.

    Every segment, one row group (``groups``, row counts along axis -2
    summing to ``n``; default one group of ``n``) of one instance slice of
    the leading axes, runs its own GEMM chain with M equal to its row
    count, starting at the beginning of its own buffers: float32 BLAS bits
    depend on M, so a stacked call equals its slices called alone and a
    grouped call equals its groups called alone.  The values are those of
    the float32 module-by-module composition applied to each segment (the
    oracle in ``tests/frozen_mlp_oracle.py``), bit for bit.  Every
    segment's hidden activations are kept only when the node has a
    backward; a captured replay reuses every buffer.

    The backward computes only the input gradient, segment by segment, in
    float32 with the operand order of ``Tensor.tanh`` (``g·(1−h·h)``) and
    ``Tensor.__matmul__`` (``g @ Wᵀ``).  Weights and biases are the node's
    non-grad parents, so constant folding covers them; a parameter that
    requires a gradient is refused.
    """
    if len(weights) != len(biases) or not weights:
        raise ValueError("frozen_mlp needs one bias per weight and at least one layer")
    params = [p for pair in zip(weights, biases) for p in pair]
    if any(p.requires_grad for p in params):
        raise ValueError("frozen_mlp parameters must not require gradients")
    if x.ndim < 2:
        raise ValueError("frozen_mlp expects (..., n, d) inputs")
    lead, n, d = x.shape[:-2], x.shape[-2], x.shape[-1]
    sizes = [n] if groups is None else [int(size) for size in groups]
    if sum(sizes) != n or min(sizes) < 1:
        raise ValueError(f"frozen_mlp groups {sizes} do not partition {n} rows")
    bounds = np.cumsum([0, *sizes])
    mats = [w.data.astype(np.float32) for w in weights]
    widths = [w.shape[1] for w in mats]
    # Each bias tiled to a block of rows and added block by block: a
    # contiguous add runs about twice as fast as a broadcast one, with the
    # same bits, and the block stays in cache.
    shifts = [
        np.tile(b.data.astype(np.float32).reshape(1, width), (min(max(sizes), _BIAS_ROWS), 1))
        for b, width in zip(biases, widths)
    ]
    # Without a backward, one slice's worth per layer serves every slice.
    keep = is_grad_enabled() and x.requires_grad
    slices = int(np.prod(lead, dtype=np.int64))
    kept = slices if keep else 1
    # Per group: the float32 input, each hidden layer's activations and the
    # last layer's output.
    chains = [
        (
            np.empty((m, d), np.float32),
            [np.empty((kept, m, width), np.float32) for width in widths[:-1]],
            np.empty((m, widths[-1]), np.float32),
        )
        for m in sizes
    ]
    output = np.empty((*lead, n, widths[-1]))
    targets = output.reshape(-1, n, widths[-1])

    def fwd(a: np.ndarray, *_frozen: np.ndarray) -> np.ndarray:
        source = a.reshape(-1, n, d)
        for i in range(source.shape[0]):
            for start, stop, (first, hidden, last) in zip(bounds[:-1], bounds[1:], chains):
                np.copyto(first, source[i, start:stop])
                h = first
                for w, b, out in zip(mats, shifts, [slab[i % kept] for slab in hidden] + [last]):
                    np.matmul(h, w, out=out)
                    for row in range(0, stop - start, _BIAS_ROWS):
                        block = out[row : row + _BIAS_ROWS]
                        np.add(block, b[: len(block)], out=block)
                    if out is not last:
                        np.tanh(out, out=out)
                    h = out
                np.copyto(targets[i, start:stop], last)
        return output

    # Segment-sized float32 scratch, made on the first backward and reused
    # across layers, segments and replays: two gradient buffers in turn and
    # the tanh factor, small enough to stay in cache.
    scratch: list[np.ndarray] = []

    def backward(g: np.ndarray):
        if not scratch:
            size = max(sizes) * max(d, *widths)
            scratch.extend(np.empty(size, np.float32) for _ in range(3))
        g_slabs = g.reshape(-1, n, widths[-1])
        grad = np.empty(x.shape)
        g_in = grad.reshape(-1, n, d)
        for i in range(g_slabs.shape[0]):
            for start, stop, (_first, hidden, _last) in zip(bounds[:-1], bounds[1:], chains):
                m = stop - start
                # The incoming gradient lands where the first layer down
                # does not write, so the chain always alternates buffers.
                g_i = scratch[len(mats) % 2][: m * widths[-1]].reshape(m, widths[-1])
                np.copyto(g_i, g_slabs[i, start:stop])
                for depth in range(len(mats) - 1, 0, -1):
                    width = widths[depth - 1]
                    g_h = scratch[depth % 2][: m * width].reshape(m, width)
                    factor = scratch[2][: m * width].reshape(m, width)
                    matmul_transposed(g_i, mats[depth], g_h)
                    h = hidden[depth - 1][i]
                    np.square(h, out=factor)
                    np.subtract(1.0, factor, out=factor)
                    np.multiply(g_h, factor, out=g_h)
                    g_i = g_h
                g_x = scratch[0][: m * d].reshape(m, d)
                matmul_transposed(g_i, mats[0], g_x)
                np.copyto(g_in[i, start:stop], g_x)
        return (grad,)

    return Tensor._make(fwd(x.data, *[p.data for p in params]), (x, *params), backward, fwd=fwd)
