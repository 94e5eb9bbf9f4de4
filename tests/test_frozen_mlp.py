"""The fused frozen-MLP node against the float32 module-by-module network.

``functional.frozen_mlp`` evaluates a tanh MLP with frozen parameters as one
graph node in float32, one row group of one instance slice at a time, and
every fitted or loaded surrogate predicts through it.  The float32
module-by-module composition in ``tests/frozen_mlp_oracle.py`` is the
reference: values, input gradients, captured replays after an in-place input
write, instance stacks and row groups must all match it bit for bit.  A
precision gate bounds the float32 prediction against the float64 network
over the box each surrogate was fitted on.  CI reruns this suite with
numpy's dispatched SIMD groups disabled.
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
from repro.power.sobol import sobol_sample_space
from repro.power.surrogate import SurrogatePowerModel, _build_network

from tests.frozen_mlp_oracle import oracle_mlp


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


def _fused(network: nn.Sequential, x: Tensor, groups=None) -> Tensor:
    return F.frozen_mlp(x, *_linears(network), groups)


def _oracle(network: nn.Sequential, x: Tensor, groups=None) -> Tensor:
    return oracle_mlp(x, *_linears(network), groups)


def _trainable_twin(model: SurrogatePowerModel) -> SurrogatePowerModel:
    """The same surrogate with trainable weights: it runs module by module in float64."""
    network = _build_network(model._layer_sizes(), np.random.default_rng(0))
    network.load_state_dict(model.network.state_dict())
    assert all(param.requires_grad for param in network.parameters())
    return SurrogatePowerModel(network, model.normalization, model.space, model.report, model.label)


class _OracleSurrogate(SurrogatePowerModel):
    """A frozen surrogate whose MLP runs through the float32 oracle."""

    def _log_power(self, features, groups=None):
        linears = self.network.layers[0::2]
        return oracle_mlp(
            features, [layer.weight for layer in linears], [layer.bias for layer in linears], groups
        )


def _oracle_twin(model: SurrogatePowerModel) -> SurrogatePowerModel:
    return _OracleSurrogate(model.network, model.normalization, model.space, model.report, model.label)


#: Bound on |Δ log10 P| between the float32 node and the float64 network.
#: float32 spacing at |log10 P| in [8, 16) is 9.5e-7 and the fitted
#: surrogates reach 1.9e-6; 1e-5 is a power ratio within 1 ± 2.3e-5, four
#: decades below the fits' test MAE.
LOG10_POWER_BOUND = 1e-5


SHAPES = [(7, 5), (1, 5), (4, 7, 5), (2, 3, 6, 5), (2, 600, 5)]


# ----------------------------------------------------------------------
class TestAgainstSequential:
    """The fused node against the float32 module-by-module oracle."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_eager_values(self, shape):
        network = _frozen_network()
        x = Tensor(np.random.default_rng(1).normal(size=shape))
        assert _bits(_fused(network, x).data) == _bits(_oracle(network, x).data)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_input_gradients(self, shape):
        network = _frozen_network()
        data = np.random.default_rng(2).normal(size=shape)
        x_ref, x_fused = Tensor(data.copy(), requires_grad=True), Tensor(data.copy(), requires_grad=True)
        y_ref, y_fused = _oracle(network, x_ref), _fused(network, x_fused)
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
            assert _bits(alone.data) == _bits(_oracle(network, Tensor(stack.data[i])).data)

    @pytest.mark.parametrize("grad", [True, False])
    def test_row_groups_match_each_group_alone(self, grad):
        """Each row group runs its own GEMM chain: grouped == each group called alone."""
        network = _frozen_network()
        groups = [7, 4, 1, 9]
        stack = Tensor(np.random.default_rng(8).normal(size=(3, sum(groups), 5)), requires_grad=grad)
        ref = Tensor(stack.data.copy(), requires_grad=grad)
        out, want = _fused(network, stack, groups), _oracle(network, ref, groups)
        assert _bits(out.data) == _bits(want.data)
        g = np.random.default_rng(9).normal(size=out.shape)
        if grad:
            out.backward(g)
            want.backward(g)
            assert _bits(stack.grad) == _bits(ref.grad)
        start = 0
        for size in groups:
            rows = slice(start, start + size)
            piece = Tensor(stack.data[:, rows].copy(), requires_grad=grad)
            alone = _fused(network, piece)
            assert _bits(out.data[:, rows]) == _bits(alone.data)
            if grad:
                alone.backward(g[:, rows])
                assert _bits(stack.grad[:, rows]) == _bits(piece.grad)
            start += size

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
            ref_out = _oracle(network, ref_x)
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

    @pytest.mark.parametrize("groups", [[3, 3], [7, 0], [8, -1]])
    def test_refuses_groups_that_do_not_partition_the_rows(self, groups):
        with pytest.raises(ValueError, match="partition"):
            _fused(_frozen_network(), Tensor(np.zeros((7, 5))), groups)

    def test_float32_inside_float64_at_the_boundary(self):
        network = _frozen_network()
        x = Tensor(np.random.default_rng(11).normal(size=(4, 5)), requires_grad=True)
        out = _fused(network, x)
        out.backward(np.ones(out.shape))
        assert out.data.dtype == np.float64 and x.grad.dtype == np.float64
        assert np.array_equal(out.data, out.data.astype(np.float32))
        assert all(p.data.dtype == np.float64 for p in network.parameters())


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
    def test_predictions_match_the_oracle_twin(self, which, af_surrogates, neg_surrogate):
        """Every prediction path equals the oracle's, values and gradients."""
        model = neg_surrogate if which == "negation" else af_surrogates[ActivationKind.TANH]
        twin = _oracle_twin(model)
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

    @pytest.mark.parametrize("which", ["negation", "p-tanh"])
    def test_predictions_match_the_trainable_twin(self, which, af_surrogates, neg_surrogate):
        """The float32 node stays within the precision bound of the float64 network."""
        model = neg_surrogate if which == "negation" else af_surrogates[ActivationKind.TANH]
        twin = _trainable_twin(model)
        rng = np.random.default_rng(7)
        center = model.space.center()
        v_data = rng.uniform(-1.0, 1.0, size=(3, 10, 1))
        with no_grad():
            powers = [
                surrogate.predict_tensor([Tensor(np.array(c)) for c in center], Tensor(v_data)).data
                for surrogate in (model, twin)
            ]
        assert np.all(np.abs(np.log10(powers[0] / powers[1])) <= LOG10_POWER_BOUND)

    def test_precision_gate_over_the_fitted_box(self, af_surrogates, neg_surrogate):
        """|Δ log10 P| between the float32 node and the float64 network over the fit box."""
        for model in [*af_surrogates.values(), neg_surrogate]:
            twin = _trainable_twin(model)
            q = sobol_sample_space(model.space, 2048, seed=1)
            v = np.random.default_rng(12).uniform(-1.0, 1.0, size=len(q))
            features = Tensor(model.normalization.apply_numpy(np.column_stack([q, v])))
            with no_grad():
                fused = model._log_power(features).data
                exact = twin._log_power(features).data
            gap = np.abs(fused - exact).max()
            assert 0.0 < gap <= LOG10_POWER_BOUND, (model.label, gap)

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
