"""The fused frozen-MLP node against the module-by-module network.

``functional.frozen_mlp`` evaluates a tanh MLP with frozen parameters as one
graph node, one instance slice at a time, and every fitted or loaded
surrogate predicts through it.  The ``nn.Sequential`` composition of the same
network is the reference: values, input gradients, captured replays after an
in-place input write and instance stacks must all match it bit for bit.  CI
reruns this suite with numpy's dispatched SIMD groups disabled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd import nn
from repro.autograd.graph import CapturedGraph
from repro.autograd.tensor import Tensor, graph_capture, no_grad
from repro.circuits import PNCConfig, PrintedNeuralNetwork
from repro.datasets import load_dataset
from repro.pdk.params import ActivationKind
from repro.power.surrogate import SurrogatePowerModel, _build_network


def _bits(a) -> tuple:
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


def _frozen_network(seed: int = 0, sizes=(5, 16, 16, 16, 1)) -> nn.Sequential:
    """A tanh MLP with non-zero biases and every parameter frozen."""
    rng = np.random.default_rng(seed)
    network = nn.mlp(sizes[0], list(sizes[1:-1]), sizes[-1], rng=rng, activation=nn.TanhLayer)
    for param in network.parameters():
        param.data += rng.normal(0.0, 0.1, param.data.shape)
        param.requires_grad = False
    return network


def _linears(network: nn.Sequential) -> tuple[list[Tensor], list[Tensor]]:
    linears = [layer for layer in network if isinstance(layer, nn.Linear)]
    return [layer.weight for layer in linears], [layer.bias for layer in linears]


def _fused(network: nn.Sequential, x: Tensor) -> Tensor:
    return F.frozen_mlp(x, *_linears(network))


def _trainable_twin(model: SurrogatePowerModel) -> SurrogatePowerModel:
    """The same surrogate with trainable weights: it runs module by module."""
    network = _build_network(model._layer_sizes(), np.random.default_rng(0))
    network.load_state_dict(model.network.state_dict())
    assert all(param.requires_grad for param in network.parameters())
    return SurrogatePowerModel(network, model.normalization, model.space, model.report, model.label)


SHAPES = [(7, 5), (1, 5), (4, 7, 5), (2, 3, 6, 5)]


# ----------------------------------------------------------------------
class TestAgainstSequential:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_eager_values(self, shape):
        network = _frozen_network()
        x = Tensor(np.random.default_rng(1).normal(size=shape))
        assert _bits(_fused(network, x).data) == _bits(network(x).data)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_input_gradients(self, shape):
        network = _frozen_network()
        data = np.random.default_rng(2).normal(size=shape)
        x_ref, x_fused = Tensor(data.copy(), requires_grad=True), Tensor(data.copy(), requires_grad=True)
        y_ref, y_fused = network(x_ref), _fused(network, x_fused)
        g = np.random.default_rng(3).normal(size=y_ref.shape)
        y_ref.backward(g)
        y_fused.backward(g)
        assert _bits(x_fused.grad) == _bits(x_ref.grad)
        assert all(param.grad is None for param in network.parameters())

    def test_instance_stack_matches_each_slice(self):
        network = _frozen_network()
        stack = Tensor(np.random.default_rng(4).normal(size=(5, 9, 5)), requires_grad=True)
        out = _fused(network, stack)
        out.backward(np.ones_like(out.data))
        for i in range(stack.shape[0]):
            piece = Tensor(stack.data[i].copy(), requires_grad=True)
            alone = _fused(network, piece)
            alone.backward(np.ones_like(alone.data))
            assert _bits(out.data[i]) == _bits(alone.data)
            assert _bits(stack.grad[i]) == _bits(piece.grad)
            assert _bits(alone.data) == _bits(network(Tensor(stack.data[i])).data)

    @pytest.mark.parametrize("grad", [True, False])
    def test_captured_replay_after_input_rewrite(self, grad):
        """With no backward the node keeps one slice of hidden activations."""
        network = _frozen_network()
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 8, 5)), requires_grad=grad)
        with graph_capture():
            out = _fused(network, x)
            loss = (out * out).sum()
        graph = CapturedGraph((loss, out), backward_root=loss if grad else None, inputs=(x,))
        assert graph.kernel_names().count("frozen_mlp") == 1
        if grad:
            graph.replay_backward()
        for _ in range(3):
            np.copyto(x.data, rng.normal(size=x.shape))
            x.grad = None
            graph.replay_forward()
            ref_x = Tensor(x.data.copy(), requires_grad=True)
            ref_out = network(ref_x)
            ref_loss = (ref_out * ref_out).sum()
            assert _bits(out.data) == _bits(ref_out.data)
            assert _bits(loss.data) == _bits(ref_loss.data)
            if grad:
                graph.replay_backward()
                ref_loss.backward()
                assert _bits(x.grad) == _bits(ref_x.grad)

    def test_replay_writes_the_node_output_in_place(self):
        network = _frozen_network()
        x = Tensor(np.random.default_rng(6).normal(size=(2, 4, 5)))
        with no_grad(), graph_capture():
            out = _fused(network, x)
        buffer = out.data
        result = out._fwd(x.data, *[p.data for p in out._parents[1:]])
        assert result is buffer

    def test_refuses_trainable_parameters(self):
        network = nn.mlp(3, [4], 1, rng=np.random.default_rng(0), activation=nn.TanhLayer)
        with pytest.raises(ValueError, match="require gradients"):
            _fused(network, Tensor(np.zeros((2, 3))))


# ----------------------------------------------------------------------
class TestSurrogates:
    def test_frozen_surrogate_predicts_through_one_node(self, neg_surrogate):
        q = [Tensor(np.array(v)) for v in neg_surrogate.space.center()]
        v = Tensor(np.linspace(-0.5, 0.5, 6).reshape(-1, 1))
        with no_grad(), graph_capture():
            power = neg_surrogate.predict_tensor(q, v)
        names = CapturedGraph((power,)).kernel_names()
        assert names.count("frozen_mlp") == 1
        assert "tanh" not in names and "matmul" not in names

    @pytest.mark.parametrize("which", ["negation", "p-tanh"])
    def test_predictions_match_the_trainable_twin(self, which, af_surrogates, neg_surrogate):
        model = neg_surrogate if which == "negation" else af_surrogates[ActivationKind.TANH]
        twin = _trainable_twin(model)
        rng = np.random.default_rng(7)
        center = model.space.center()
        v_data = rng.uniform(-1.0, 1.0, size=(3, 10, 1))
        results = []
        for surrogate in (model, twin):
            q = [Tensor(np.full((3, 1, 1), c), requires_grad=True) for c in center]
            v = Tensor(v_data.copy(), requires_grad=True)
            power = surrogate.predict_tensor(q, v)
            (first, second) = surrogate.predict_tensor_batched(
                [(q, v), (q, Tensor(v_data[:, :4].copy()))]
            )
            ((power * 1e3).sum() + (first * second[:, :1]).sum()).backward()
            numpy_power = surrogate.predict_numpy(
                np.tile(center, (10, 1)), v_data[0, :, 0]
            )
            results.append((power.data, first.data, second.data, numpy_power,
                            v.grad, *[t.grad for t in q]))
        for got, want in zip(*results):
            assert _bits(got) == _bits(want)

    def test_trainable_network_still_receives_weight_gradients(self, neg_surrogate):
        twin = _trainable_twin(neg_surrogate)
        q = [Tensor(np.array(v)) for v in twin.space.center()]
        v = Tensor(np.linspace(-0.5, 0.5, 6).reshape(-1, 1))
        twin.predict_tensor(q, v).sum().backward()
        params = list(twin.network.parameters())
        assert all(p.grad is not None and np.isfinite(p.grad).all() for p in params)
        assert any(np.abs(p.grad).sum() > 0 for p in params)

    def test_input_layer_negation_power_still_folds(self, af_surrogates, neg_surrogate):
        data = load_dataset("iris")
        net = PrintedNeuralNetwork(
            data.n_features, data.n_classes, PNCConfig(kind=ActivationKind.TANH),
            np.random.default_rng(11), af_surrogates[ActivationKind.TANH], neg_surrogate,
        )
        x = Tensor(data.features[:40].copy())
        with graph_capture():
            logits, breakdown = net.forward_with_power(x)
        graph = CapturedGraph((logits, breakdown.total))
        assert graph.n_constant > 0
        fused = [const for name, const in zip(graph.kernel_names(), graph._constant)
                 if name == "frozen_mlp"]
        # P^N of the input layer folds; P^N of the deeper layers and P^AF move.
        assert sorted(fused) == [False, False, True]
