"""The float32 module-by-module tanh MLP, kept as a test oracle.

:func:`repro.autograd.functional.frozen_mlp` evaluates a frozen tanh MLP as
one graph node in float32, in buffers it owns, one row group of one instance
slice at a time.  This module computes the same network the plain way: every
``Linear`` and every ``tanh`` is its own float32 numpy expression returning a
fresh array, applied to each segment (one row group of one instance slice)
on its own, and the backward walks the modules in reverse with the operand
order of ``Tensor.tanh`` (``g·(1−h·h)``) and ``Tensor.__matmul__``
(``g @ Wᵀ``).  Tests show the fused node returns these values and input
gradients bit for bit.

:func:`oracle_mlp` wraps the composition as a differentiable
:class:`~repro.autograd.tensor.Tensor` op with the signature of
``frozen_mlp``, so a surrogate's whole prediction pipeline can run on it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor


def forward32(x: np.ndarray, weights, biases) -> tuple[np.ndarray, list[np.ndarray]]:
    """The network on one ``(m, d)`` segment: float32 output and hidden activations."""
    h = x.astype(np.float32)
    hidden = []
    for depth, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w.astype(np.float32) + b.astype(np.float32)  # Linear
        if depth < len(weights) - 1:
            h = np.tanh(h)  # Tanh
            hidden.append(h)
    return h, hidden


def backward32(g: np.ndarray, weights, hidden: list[np.ndarray]) -> np.ndarray:
    """The input gradient of one segment, modules in reverse, in float32."""
    g = g.astype(np.float32)
    for depth in range(len(weights) - 1, 0, -1):
        h = hidden[depth - 1]
        g = (g @ weights[depth].astype(np.float32).T) * (1.0 - h * h)
    return g @ weights[0].astype(np.float32).T


def _segments(shape: tuple[int, ...], groups: Sequence[int] | None):
    n = shape[-2]
    bounds = np.cumsum([0, *([n] if groups is None else groups)])
    slices = int(np.prod(shape[:-2], dtype=np.int64))
    for i in range(slices):
        for start, stop in zip(bounds[:-1], bounds[1:]):
            yield i, slice(start, stop)


def oracle_mlp(
    x: Tensor,
    weights: Sequence[Tensor],
    biases: Sequence[Tensor],
    groups: Sequence[int] | None = None,
) -> Tensor:
    """``frozen_mlp``'s value and input gradient, module by module."""
    w_arrays = [w.data for w in weights]
    b_arrays = [b.data for b in biases]
    source = x.data.reshape(-1, *x.shape[-2:])
    width = w_arrays[-1].shape[1]
    out = np.empty((*x.shape[:-2], x.shape[-2], width))
    flat = out.reshape(-1, x.shape[-2], width)
    kept = {}
    for i, rows in _segments(x.shape, groups):
        value, hidden = forward32(source[i, rows], w_arrays, b_arrays)
        flat[i, rows] = value
        kept[i, rows.start] = hidden

    def backward(g: np.ndarray):
        g_flat = g.reshape(-1, x.shape[-2], width)
        grad = np.empty(x.shape)
        g_in = grad.reshape(-1, *x.shape[-2:])
        for i, rows in _segments(x.shape, groups):
            g_in[i, rows] = backward32(g_flat[i, rows], w_arrays, kept[i, rows.start])
        return (grad,)

    return Tensor._make(out, (x,), backward)
