"""Component probe: replay cost of each pNC component on ``train_al``'s net.

Each public call of one forward — crossbar i, activation i (with its
Newton solve), crossbar power, device counts, the two surrogate MLPs and
the loss — is captured alone with :func:`capture_forward` over fixed input
buffers taken from one eager forward on the training batch, then replayed.
The figure per component is the median over blocks of the mean replay time.
``training.eval_replay_vs_eager`` is eager post-step eval time divided by
its captured replay (below 1 means replay is slower).
"""

from __future__ import annotations

import statistics
from time import perf_counter


def _per_call_us(fn, repeats: int, blocks: int = 5) -> float:
    fn()  # warm
    means = []
    for _ in range(blocks):
        start = perf_counter()
        for _ in range(repeats):
            fn()
        means.append((perf_counter() - start) / repeats * 1e6)
    return statistics.median(means)


def run_probe(net, split, repeats: int = 40) -> dict[str, float]:
    import numpy as np

    from repro.autograd import functional as F
    from repro.autograd.graph import capture_forward
    from repro.autograd.tensor import Tensor, no_grad
    from repro.power.counts import (
        straight_through_column_activity,
        straight_through_row_negativity,
    )

    def leaf(tensor):
        return Tensor(np.array(tensor.data, dtype=np.float64, copy=True))

    threshold = net.config.pdk.prune_threshold_us
    limit = net.config.power_batch_limit
    x = Tensor(split.x_train)
    layers = []
    with no_grad():
        signal = x
        for crossbar, activation in zip(net.crossbars(), net.activations()):
            theta = crossbar.effective_theta()
            v_z = crossbar.forward(signal, theta=theta)
            layers.append((leaf(signal), leaf(theta), leaf(v_z), crossbar, activation))
            signal = activation(v_z)
        logits = leaf(signal * net.logit_scale)

    out: dict[str, float] = {}

    def replay_us(fn, *leaves) -> float:
        graph = capture_forward(fn, *leaves)
        return _per_call_us(graph.replay_forward, repeats)

    for i, (layer_in, theta, v_z, crossbar, activation) in enumerate(layers):
        out[f"circuits.crossbar{i}.replay_us"] = replay_us(
            lambda s, t, c=crossbar: c.forward(s, theta=t), layer_in, theta
        )
        out[f"pdk.activation{i}.replay_us"] = replay_us(activation, v_z)

    def crossbar_power(*_):
        total = Tensor(0.0)
        for layer_in, theta, v_z, crossbar, _activation in layers:
            total = total + crossbar.power(layer_in, v_z, theta=theta)
        return total

    def counts(*_):
        total = Tensor(0.0)
        for _in, theta, _vz, _crossbar, activation in layers:
            total = total + straight_through_row_negativity(theta, threshold=threshold).sum()
            total = total + straight_through_column_activity(theta, threshold=threshold).sum()
            total = total + net._soft_devices(theta, activation)
        return total

    def surrogate_af(*_):
        groups = [activation.power_inputs(v_z, batch_limit=limit)[:2]
                  for _in, _theta, v_z, _crossbar, activation in layers]
        return net.activations()[0].surrogate.predict_tensor_batched(groups)

    def surrogate_neg(*_):
        groups = [net._negation_inputs(layer_in, crossbar)[:2]
                  for layer_in, _theta, _vz, crossbar, _activation in layers]
        return net.neg_surrogate.predict_tensor_batched(groups)

    leaves = [t for layer in layers for t in layer[:3]]
    out["circuits.crossbar_power.replay_us"] = replay_us(crossbar_power, *leaves)
    out["power.counts.replay_us"] = replay_us(counts, *leaves)
    out["power.surrogate_af.replay_us"] = replay_us(surrogate_af, *leaves)
    out["power.surrogate_neg.replay_us"] = replay_us(surrogate_neg, *leaves)
    out["training.loss.replay_us"] = replay_us(
        lambda z: F.cross_entropy(z, split.y_train), logits
    )

    def eval_forward(xx):
        result, breakdown = net.forward_with_power(xx)
        return result, breakdown.total

    def eager():
        with no_grad():
            eval_forward(x)

    eager_us = _per_call_us(eager, max(4, repeats // 4))
    replayed_us = replay_us(eval_forward, x)
    out["training.eval_replay_vs_eager"] = eager_us / replayed_us
    return out
