"""Constant folding in captured programs, and the frozen surrogates it needs.

A captured kernel whose every leaf ancestor is a non-grad leaf is constant:
replay skips it while those leaves keep their bytes and re-runs it once they
change.  These tests pin where folding happens (the training head: the input
layer's P^N and the inputs' extension), that it never re-runs there over an
AL run, that an in-place rewrite of a folded leaf re-runs it with eager bits
(training, serving, Monte-Carlo), that the Newton ``g'`` handed to the
``1/g'`` node never outlives its solve, and that fitted surrogates carry no
gradient.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.graph import CapturedGraph, Program, capture_forward
from repro.autograd.tensor import Tensor, graph_capture, no_grad
from repro.circuits import PNCConfig, PrintedNeuralNetwork
from repro.circuits.activations import q_tensor_from_u
from repro.circuits.ensemble import EnsembleProgram, sample_instance_stack
from repro.datasets import load_dataset, train_val_test_split
from repro.pdk.params import ActivationKind, design_space
from repro.pdk.transfer import TransferModel
from repro.pdk.variation import VariationSpec
from repro.power.dataset import generate_power_dataset
from repro.power.surrogate import fit_surrogate, load_surrogate
from repro.serving import export_artifact, load_artifact
from repro.training import AugmentedLagrangianObjective, TrainerSettings, train_model


def _bits(a) -> tuple:
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


@pytest.fixture(scope="module")
def iris_split():
    return train_val_test_split(load_dataset("iris"), seed=0)


def _net(af_surrogates, neg_surrogate, seed=11, kind=ActivationKind.TANH):
    data = load_dataset("iris")
    return PrintedNeuralNetwork(
        data.n_features, data.n_classes, PNCConfig(kind=kind),
        np.random.default_rng(seed), af_surrogates[kind], neg_surrogate,
    )


def _surrogate_params(af_surrogates, neg_surrogate):
    models = [*af_surrogates.values(), neg_surrogate]
    return [param for model in models for param in model.network.parameters()]


# ----------------------------------------------------------------------
class TestTrainingHead:
    def test_head_folds_and_never_reruns_over_an_al_run(
        self, af_surrogates, neg_surrogate, iris_split, monkeypatch
    ):
        parts: list[tuple[CapturedGraph, CapturedGraph]] = []
        split = CapturedGraph.split

        def recording_split(self, head_outputs):
            pair = split(self, head_outputs)
            parts.append(pair)
            return pair

        monkeypatch.setattr(CapturedGraph, "split", recording_split)
        objective = AugmentedLagrangianObjective(
            power_budget=2.5e-4, mu=5.0, multiplier_every=2, warmup_epochs=4, anneal_epochs=3,
        )
        settings = TrainerSettings(epochs=20, lr=0.05, patience=50, capture_graph=True)
        train_model(_net(af_surrogates, neg_surrogate), iris_split, objective, settings=settings)
        # warmup capture + the recapture at the AL boundary
        assert len(parts) == 2
        for head, tail in parts:
            assert head.n_constant > 0
            assert head.const_reruns == 0  # λ/μ rewrites reach the tail only

    def test_surrogates_carry_no_gradient_after_training(
        self, af_surrogates, neg_surrogate, iris_split
    ):
        objective = AugmentedLagrangianObjective(power_budget=2.5e-4, mu=5.0, warmup_epochs=2)
        for capture in (True, False):
            settings = TrainerSettings(epochs=6, lr=0.05, capture_graph=capture)
            train_model(_net(af_surrogates, neg_surrogate), iris_split, objective, settings=settings)
            for param in _surrogate_params(af_surrogates, neg_surrogate):
                assert not param.requires_grad
                assert param.grad is None

    def test_in_place_input_write_reruns_folded_kernels(
        self, af_surrogates, neg_surrogate, iris_split
    ):
        net = _net(af_surrogates, neg_surrogate)
        x = Tensor(iris_split.x_train.copy())

        def build():
            logits, breakdown = net.forward_with_power(x)
            return (logits * logits).sum() + breakdown.total * 1e3, logits, breakdown.total

        program = Program(build, "test.step", backward=(0, "test.backward"))
        program.capture()
        graph = program.graph
        assert graph.n_constant > 0
        program.run()
        assert graph.const_reruns == 0
        rng = np.random.default_rng(3)
        for _ in range(2):
            np.copyto(x.data, rng.permutation(iris_split.x_train))
            net.zero_grad()
            outputs = program.run()
            program.backward()
            grads = [None if p.grad is None else p.grad.copy() for p in net.parameters()]

            ref_x = Tensor(x.data.copy())
            net.zero_grad()
            logits, breakdown = net.forward_with_power(ref_x)
            ref = ((logits * logits).sum() + breakdown.total * 1e3, logits, breakdown.total)
            ref[0].backward()
            for got, want in zip(outputs, ref):
                assert _bits(got.data) == _bits(want.data)
            for got, param in zip(grads, net.parameters()):
                assert got is not None and _bits(got) == _bits(param.grad)
        assert graph.const_reruns == 2

    def test_declared_inputs_never_fold(self, af_surrogates, neg_surrogate, iris_split):
        net = _net(af_surrogates, neg_surrogate)
        x = Tensor(iris_split.x_train.copy())

        def forward(xx):
            logits, breakdown = net.forward_with_power(xx)
            return logits, breakdown.total

        declared = capture_forward(forward, x)
        with no_grad(), graph_capture():
            outputs = forward(x)
        undeclared = CapturedGraph(outputs)
        assert declared.n_ops == undeclared.n_ops
        assert declared.kernel_names() == undeclared.kernel_names()
        assert 0 < undeclared.n_constant
        assert declared.n_constant < undeclared.n_constant


# ----------------------------------------------------------------------
class TestStamps:
    @staticmethod
    def _forward(w, x, lam):
        feature = (x * 2.0).exp()  # constant: reads only the non-grad x
        logits = (w * feature).tanh()
        total = logits.sum() + (lam * 3.0).sum()  # tail constants
        return logits, total

    def _graph(self):
        with graph_capture():
            w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
            x = Tensor(np.array([1.5, 0.25, -0.75]))
            lam = Tensor(np.array([0.3]))
            logits, total = self._forward(w, x, lam)
        graph = CapturedGraph((total, logits), backward_root=total)
        return (w, x, lam), (total, logits), graph

    def _assert_eager(self, leaves, outputs):
        ref_logits, ref_total = self._forward(*[Tensor(t.data.copy()) for t in leaves])
        assert _bits(outputs[0].data) == _bits(ref_total.data)
        assert _bits(outputs[1].data) == _bits(ref_logits.data)

    def test_each_part_stamps_only_its_own_constants(self):
        leaves, outputs, graph = self._graph()
        head, tail = graph.split((outputs[1],))
        assert (head.n_constant, tail.n_constant) == (2, 2)
        _w, x, lam = leaves
        head_leaves = {id(t) for t in head._const_leaves}
        tail_leaves = {id(t) for t in tail._const_leaves}
        assert id(x) in head_leaves and id(lam) not in head_leaves
        assert id(lam) in tail_leaves and id(x) not in tail_leaves
        np.copyto(lam.data, [1.7])
        head.replay_forward()
        tail.replay_forward()
        assert (head.const_reruns, tail.const_reruns) == (0, 1)
        self._assert_eager(leaves, outputs)

    def test_whole_graph_and_parts_never_trust_each_others_buffers(self):
        leaves, outputs, graph = self._graph()
        head, tail = graph.split((outputs[1],))
        _w, x, _lam = leaves
        x0 = x.data.copy()
        np.copyto(x.data, [0.1, 0.2, 0.3])
        head.replay_forward()  # the shared constant buffers now hold x1's values
        tail.replay_forward()
        np.copyto(x.data, x0)  # back to the bytes the whole graph stamped
        graph.replay_forward()
        self._assert_eager(leaves, outputs)
        np.copyto(x.data, [0.1, 0.2, 0.3])
        graph.replay_forward()
        np.copyto(x.data, x0)  # back to the bytes the head stamped
        head.replay_forward()
        tail.replay_forward()
        self._assert_eager(leaves, outputs)


# ----------------------------------------------------------------------
class TestSurrogateFreezing:
    def test_frozen_after_fit_and_after_load(self, tmp_path):
        dataset = generate_power_dataset(ActivationKind.RELU, n_q=64, seed=0)
        model = fit_surrogate(dataset, epochs=2, seed=0)
        params = list(model.network.parameters())
        assert params and all(not p.requires_grad and p.grad is None for p in params)
        path = tmp_path / "surrogate.npz"
        model.save(path)
        loaded = load_surrogate(path, dataset.space)
        assert all(not p.requires_grad for p in loaded.network.parameters())

    def test_prediction_still_differentiates_its_inputs(self, neg_surrogate):
        space = neg_surrogate.space
        q = [Tensor(np.array(v), requires_grad=True) for v in space.center()]
        v = Tensor(np.linspace(-0.5, 0.5, 6).reshape(-1, 1), requires_grad=True)
        neg_surrogate.predict_tensor(q, v).sum().backward()
        assert all(t.grad is not None and np.isfinite(t.grad).all() for t in (*q, v))
        assert all(p.grad is None for p in neg_surrogate.network.parameters())


# ----------------------------------------------------------------------
class TestServing:
    def test_serving_equals_eager_when_input_rewritten(
        self, af_surrogates, neg_surrogate, iris_split, tmp_path
    ):
        model = load_artifact(export_artifact(_net(af_surrogates, neg_surrogate), tmp_path / "m.pnz"))
        x = iris_split.x_test
        requests = [x, x, x[:5], x[3:9], x[:5], x[::-1], x]
        for rows in requests:
            assert np.array_equal(model.predict(rows), model.eager_logits(rows))


# ----------------------------------------------------------------------
class TestNewtonGprime:
    @pytest.mark.parametrize("iterations", [60, 3])
    @pytest.mark.parametrize("name", ["p-tanh", "p-ReLU", "p-Clipped_ReLU"])
    def test_replay_after_v_in_write_equals_eager(self, name, iterations):
        """A folded solve re-runs with its ``1/g'`` after an in-place write."""
        rng = np.random.default_rng(5)
        kind = ActivationKind.from_name(name)
        space = design_space(kind)
        model = TransferModel(kind, newton_iterations=iterations)
        v_in = Tensor(rng.uniform(-1.0, 1.0, size=(16, 3)))
        units = [Tensor(np.array(rng.normal())) for _ in range(space.dimension)]

        def forward(v, *us):
            q = [q_tensor_from_u(space, i, u) for i, u in enumerate(us)]
            return model.output_and_power(v, q)

        with no_grad(), graph_capture():
            outputs = forward(v_in, *units)
        graph = CapturedGraph(outputs)  # nothing declared: every kernel folds
        assert graph.n_constant == graph.n_ops
        for step in range(4):
            if step % 2 == 0:
                np.copyto(v_in.data, rng.uniform(-1.0, 1.0, size=v_in.data.shape))
            graph.replay_forward()
            with no_grad():
                fresh = forward(Tensor(v_in.data.copy()), *[Tensor(u.data.copy()) for u in units])
            for replayed, eager in zip(graph.outputs, fresh):
                assert _bits(replayed.data) == _bits(eager.data)
        assert graph.const_reruns == 2


# ----------------------------------------------------------------------
class TestMonteCarloCard:
    def test_card_only_change_between_chunks_matches_eager(self, af_surrogates, neg_surrogate):
        """θ and u draws repeat, the EGT card draws differ: replay == eager."""
        net = _net(af_surrogates, neg_surrogate, kind=ActivationKind.TANH)
        net.eval()
        x = np.random.default_rng(0).random((12, 4))
        program = EnsembleProgram(net, x, 3)
        spec = VariationSpec()
        rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
        first = sample_instance_stack(net, spec, rngs, base_thetas=program._base_thetas)
        other = [np.random.default_rng(s) for s in (7, 8, 9)]
        second = sample_instance_stack(net, spec, other, base_thetas=program._base_thetas)
        second.thetas, second.units = first.thetas, first.units
        assert any(not np.array_equal(a, b) for a, b in zip(first.vths, second.vths))
        for stack in (first, second, first):
            program.load(stack)
            logits, total = program.run()
            with no_grad():
                ref_logits, breakdown = net.forward_with_power(
                    program._x, thetas=program._theta_leaves, units=program._unit_leaves,
                    transfers=program._transfers,
                )
            assert _bits(logits) == _bits(ref_logits.data)
            assert _bits(total) == _bits(breakdown.total.data.reshape(-1))

    def test_solves_record_the_card_leaves(self, af_surrogates, neg_surrogate):
        net = _net(af_surrogates, neg_surrogate, kind=ActivationKind.TANH)
        program = EnsembleProgram(net, np.random.default_rng(0).random((6, 4)), 2)
        cards = {
            id(leaf) for transfer in program._transfers
            for leaf in (transfer.model.vth, transfer.model.k)
        }
        solves = [
            srcs for _mode, fwd, srcs, _out in program._program.graph._schedule
            if getattr(fwd, "__name__", "") == "solve"
        ]
        assert len(solves) == 2 * net.n_layers  # two inverter stages per p-tanh
        for srcs in solves:
            assert len(cards & {id(t) for t in srcs}) == 2
