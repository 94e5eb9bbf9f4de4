"""Tests for the printed activation layer and the full pNC network."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.circuits import PrintedNeuralNetwork, PNCConfig, PrintedActivation
from repro.pdk.params import ActivationKind, ALL_ACTIVATIONS
from repro.pdk.transfer import TransferModel


class TestPrintedActivation:
    def test_q_inside_design_space(self, af_surrogates, rng):
        for kind in ALL_ACTIVATIONS:
            act = PrintedActivation(kind, rng=rng, surrogate=af_surrogates[kind])
            assert act.space.contains(act.q_values())

    def test_set_q_roundtrip(self, af_surrogates, rng):
        act = PrintedActivation(ActivationKind.RELU, rng=rng, surrogate=af_surrogates[ActivationKind.RELU])
        target = act.space.center()
        act.set_q(target)
        np.testing.assert_allclose(act.q_values(), target, rtol=1e-6)

    def test_forward_shape(self, af_surrogates, rng):
        act = PrintedActivation(ActivationKind.TANH, rng=rng, surrogate=af_surrogates[ActivationKind.TANH])
        out = act(Tensor(rng.uniform(-0.5, 0.5, size=(7, 3))))
        assert out.shape == (7, 3)

    def test_eval_mode_disables_gradient_leak(self, af_surrogates, rng):
        act = PrintedActivation(ActivationKind.RELU, rng=rng, surrogate=af_surrogates[ActivationKind.RELU])
        x = Tensor(np.full((1, 1), -0.9))  # deep in the off region
        act.eval()
        v_eval = act(x).data.copy()
        act.train()
        v_train = act(x).data.copy()
        # leak is backward-only: forward values must agree in both modes
        np.testing.assert_allclose(v_eval, v_train, atol=1e-12)

    def test_power_per_circuit_positive(self, af_surrogates, rng):
        act = PrintedActivation(ActivationKind.RELU, rng=rng, surrogate=af_surrogates[ActivationKind.RELU])
        v = Tensor(rng.uniform(-0.5, 0.5, size=(10, 3)))
        per_circuit = act.power_per_circuit(v)
        assert per_circuit.shape == (3,)
        assert (per_circuit.data > 0).all()

    def test_power_batch_limit_subsamples(self, af_surrogates, rng):
        act = PrintedActivation(ActivationKind.RELU, rng=rng, surrogate=af_surrogates[ActivationKind.RELU])
        v = Tensor(rng.uniform(-0.5, 0.5, size=(1000, 2)))
        limited = act.power_per_circuit(v, batch_limit=16)
        full = act.power_per_circuit(v, batch_limit=1000)
        # subsampled estimate within a factor ~2 of the full batch mean
        ratio = limited.data / full.data
        assert (ratio > 0.3).all() and (ratio < 3.0).all()

    def test_analytic_power_mode(self, rng):
        act = PrintedActivation(ActivationKind.RELU, rng=rng, power_mode="analytic")
        v = Tensor(rng.uniform(-0.5, 0.8, size=(6, 2)))
        v_out, power = act.output_and_power(v)
        assert power.shape == v.shape
        assert (power.data >= 0).all()
        assert np.array_equal(v_out.data, act(v).data)

    def test_requires_surrogate_in_surrogate_mode(self, rng):
        with pytest.raises(ValueError):
            PrintedActivation(ActivationKind.RELU, rng=rng, surrogate=None, power_mode="surrogate")

    def test_project_clips_u(self, af_surrogates, rng):
        act = PrintedActivation(ActivationKind.RELU, rng=rng, surrogate=af_surrogates[ActivationKind.RELU])
        act.u_0.data = np.array(50.0)
        act.project_()
        assert float(act.u_0.data) == 10.0


def _make_net(kind, af_surrogates, neg_surrogate, seed=0, **config_kwargs):
    cfg = PNCConfig(kind=kind, **config_kwargs)
    return PrintedNeuralNetwork(4, 3, cfg, np.random.default_rng(seed), af_surrogates[kind], neg_surrogate)


class TestPrintedNeuralNetwork:
    def test_topology(self, af_surrogates, neg_surrogate):
        net = _make_net(ActivationKind.TANH, af_surrogates, neg_surrogate)
        assert net.n_layers == 2
        assert net.crossbars()[0].in_features == 4
        assert net.crossbars()[0].out_features == 3
        assert net.crossbars()[1].out_features == 3

    def test_forward_logits_shape(self, af_surrogates, neg_surrogate, rng):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        logits = net(Tensor(rng.random((11, 4))))
        assert logits.shape == (11, 3)

    def test_forward_with_power_components_positive(self, af_surrogates, neg_surrogate, rng):
        net = _make_net(ActivationKind.SIGMOID, af_surrogates, neg_surrogate)
        logits, breakdown = net.forward_with_power(Tensor(rng.random((9, 4))))
        values = breakdown.as_floats()
        assert values["crossbar"] > 0
        assert values["activation"] > 0
        assert values["total"] == pytest.approx(
            values["crossbar"] + values["activation"] + values["negation"]
        )

    def test_power_differentiable_end_to_end(self, af_surrogates, neg_surrogate, rng):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        _, breakdown = net.forward_with_power(Tensor(rng.random((5, 4))))
        breakdown.total.backward()
        grads = [p.grad for p in net.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)

    def test_power_estimate_matches_forward(self, af_surrogates, neg_surrogate, rng):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        x = Tensor(rng.random((6, 4)))
        with no_grad():
            _, breakdown = net.forward_with_power(x)
        assert net.power_estimate(x) == pytest.approx(float(breakdown.total.data), rel=1e-9)

    def test_device_count_positive_and_orders_by_kind(self, af_surrogates, neg_surrogate):
        # p-tanh circuits carry more components than p-ReLU ones, so at
        # matched θ the total device count must order accordingly.
        relu = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate, seed=5)
        tanh = _make_net(ActivationKind.TANH, af_surrogates, neg_surrogate, seed=5)
        for a, b in zip(relu.crossbars(), tanh.crossbars()):
            b.theta.data = a.theta.data.copy()
        assert tanh.device_count() > relu.device_count() > 0

    def test_hard_counts_keys(self, af_surrogates, neg_surrogate):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        counts = net.hard_counts()
        assert set(counts) == {"activation_circuits", "negation_circuits"}
        assert counts["activation_circuits"] <= 6  # at most 3 + 3 columns

    def test_state_dict_roundtrip_preserves_outputs(self, af_surrogates, neg_surrogate, rng):
        net = _make_net(ActivationKind.TANH, af_surrogates, neg_surrogate)
        x = Tensor(rng.random((3, 4)))
        with no_grad():
            before = net(x).data.copy()
        state = net.state_dict()
        for p in net.parameters():
            p.data = p.data + 0.3
        net.load_state_dict(state)
        with no_grad():
            after = net(x).data.copy()
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_soft_count_mode(self, af_surrogates, neg_surrogate, rng):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate, count_mode="soft")
        _, breakdown = net.forward_with_power(Tensor(rng.random((4, 4))))
        assert float(breakdown.total.data) > 0

    def test_invalid_count_mode_rejected(self, af_surrogates, neg_surrogate):
        with pytest.raises(ValueError):
            _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate, count_mode="bogus")

    def test_surrogate_mode_requires_surrogates(self):
        with pytest.raises(ValueError):
            PrintedNeuralNetwork(4, 3, PNCConfig(), np.random.default_rng(0), None, None)

    def test_signal_health_zero_when_disabled(self, af_surrogates, neg_surrogate, rng):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate, signal_health_weight=0.0)
        net.forward_with_power(Tensor(rng.random((8, 4))))
        assert float(net.signal_health.data) == 0.0

    def test_analytic_mode_without_surrogates(self, rng):
        cfg = PNCConfig(kind=ActivationKind.RELU, power_mode="analytic")
        net = PrintedNeuralNetwork(4, 2, cfg, rng)
        _, breakdown = net.forward_with_power(Tensor(rng.random((5, 4))))
        assert float(breakdown.total.data) > 0


def _stacked_leaves(nets: list[PrintedNeuralNetwork]) -> dict:
    """The nets' θ, u and logit-scale leaves stacked on a leading instance axis."""
    ref = nets[0]
    thetas = [
        Tensor(np.stack([net.crossbars()[layer].effective_theta().data for net in nets]),
               requires_grad=True)
        for layer in range(ref.n_layers)
    ]
    units = [
        [
            Tensor(np.array([float(getattr(net.activations()[layer], f"u_{i}").data)
                             for net in nets]).reshape(-1, 1, 1))
            for i in range(activation.space.dimension)
        ]
        for layer, activation in enumerate(ref.activations())
    ]
    scale = Tensor(np.array([net.logit_scale for net in nets]).reshape(-1, 1, 1))
    return {"thetas": thetas, "units": units, "logit_scale": scale}


class TestStackedDeviceCount:
    """The differentiable device count reduces trailing axes only, so a
    stacked forward yields one count per instance, equal to the 2-D call's."""

    @pytest.mark.parametrize("count_mode", ["straight_through", "soft"])
    def test_stacked_count_matches_per_instance_calls(self, count_mode, rng):
        config = PNCConfig(power_mode="analytic", count_mode=count_mode)
        nets = [PrintedNeuralNetwork(4, 3, config, np.random.default_rng(seed)) for seed in range(3)]
        leaves = _stacked_leaves(nets)
        x = Tensor(rng.random((10, 4)))
        nets[0].forward_with_power(x, **leaves)
        count = nets[0].soft_device_count
        assert count.shape == (3,)
        count.backward(np.ones(3))
        for i, net in enumerate(nets):
            net.forward_with_power(x)
            assert count.data[i].tobytes() == net.soft_device_count.data.tobytes()
            assert count.data[i] == net.device_count()
            net.soft_device_count.backward()
            for theta, crossbar in zip(leaves["thetas"], net.crossbars()):
                assert theta.grad[i].tobytes() == crossbar.theta.grad.tobytes()


class TestStackedForward:
    """One forward for every instance shape: stacked leaves of k nets must
    reproduce the k per-net 2-D calls bit for bit (values and θ gradients)."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("count_mode", ["straight_through", "soft"])
    @pytest.mark.parametrize("power_mode", ["surrogate", "analytic"])
    def test_stacked_leaves_match_per_instance_calls(
        self, power_mode, count_mode, k, af_surrogates, neg_surrogate, rng
    ):
        # batch 20 over a limit of 8 also exercises the power subsample
        config = PNCConfig(kind=ActivationKind.TANH, power_mode=power_mode,
                           count_mode=count_mode, power_batch_limit=8)
        surrogates = (
            (af_surrogates[ActivationKind.TANH], neg_surrogate)
            if power_mode == "surrogate" else (None, None)
        )
        nets = [PrintedNeuralNetwork(4, 3, config, np.random.default_rng(seed), *surrogates)
                for seed in range(k)]
        x = Tensor(rng.random((20, 4)))
        ref = nets[0]
        leaves = _stacked_leaves(nets)

        logits, breakdown = ref.forward_with_power(x, **leaves)
        health = ref.signal_health
        breakdown.total.backward(np.ones(k))
        with no_grad():
            signal_logits = ref.forward(x, **leaves)
        assert logits.shape == (k, 20, 3)
        assert breakdown.total.shape == health.shape == (k,)

        for i, net in enumerate(nets):
            net_logits, net_breakdown = net.forward_with_power(x)
            net_breakdown.total.backward()
            np.testing.assert_array_equal(logits.data[i], net_logits.data)
            with no_grad():
                np.testing.assert_array_equal(signal_logits.data[i], net.forward(x).data)
            for name in ("crossbar", "activation", "negation", "total"):
                assert getattr(breakdown, name).data[i] == getattr(net_breakdown, name).data
            assert health.data[i] == net.signal_health.data
            for theta, crossbar in zip(leaves["thetas"], net.crossbars()):
                np.testing.assert_array_equal(theta.grad[i], crossbar.theta.grad)

    def test_leaf_count_must_match_layers(self, af_surrogates, neg_surrogate, rng):
        net = _make_net(ActivationKind.TANH, af_surrogates, neg_surrogate)
        leaves = _stacked_leaves([net])
        with pytest.raises(ValueError, match="units"):
            net.forward_with_power(Tensor(rng.random((5, 4))), units=leaves["units"][:1])


#: Newton solves per activation circuit: the follower cells solve one node,
#: the inverter cascades one per stage.
STAGES = {
    ActivationKind.RELU: 1,
    ActivationKind.CLIPPED_RELU: 1,
    ActivationKind.SIGMOID: 2,
    ActivationKind.TANH: 2,
}


def _analytic_net(kind, seed=5):
    return PrintedNeuralNetwork(
        4, 3, PNCConfig(kind=kind, power_mode="analytic"), np.random.default_rng(seed)
    )


class TestOneSolvePerActivation:
    """The analytic power is the forward's own solve, not a second one."""

    @pytest.fixture
    def activation_solves(self, monkeypatch):
        """Count the Newton solves made inside an activation's transfer."""
        from repro.pdk import transfer as transfer_mod

        depth, counts = [0], {"activation": 0, "other": 0}
        solve, output_and_power = transfer_mod._implicit_solve, TransferModel.output_and_power

        def counting_solve(*args):
            counts["activation" if depth[0] else "other"] += 1
            return solve(*args)

        def nested(self, *args):
            depth[0] += 1
            try:
                return output_and_power(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(transfer_mod, "_implicit_solve", counting_solve)
        monkeypatch.setattr(TransferModel, "output_and_power", nested)
        return counts

    @pytest.mark.parametrize("kind", ALL_ACTIVATIONS, ids=lambda k: k.value)
    def test_forward_with_power(self, kind, activation_solves, rng):
        net = _analytic_net(kind)
        activation_solves.update(activation=0, other=0)
        _, breakdown = net.forward_with_power(Tensor(rng.random((9, 4))))
        assert activation_solves["activation"] == STAGES[kind] * net.n_layers
        assert float(breakdown.activation.data) > 0.0

    @pytest.mark.parametrize("kind", ALL_ACTIVATIONS, ids=lambda k: k.value)
    def test_profile_network(self, kind, activation_solves, rng):
        from repro.compile import profile_network

        net = _analytic_net(kind)
        activation_solves.update(activation=0, other=0)
        profiles = profile_network(net, rng.random((9, 4)))
        assert activation_solves["activation"] == STAGES[kind] * net.n_layers
        assert all((p.activation_power > 0.0).all() for p in profiles)

    def test_ensemble_schedule(self):
        """The captured Monte-Carlo forward holds one solve per stage per layer.

        Every layer of the 4→3→3 net has three activation circuits, so the
        activation solves are the ``(instances, batch, 3)`` ones; the
        negation solves see the crossbars' extended inputs (6 or 5 rows).
        """
        from repro.circuits.ensemble import EnsembleProgram

        net = _analytic_net(ActivationKind.TANH)
        program = EnsembleProgram(net, np.random.default_rng(0).random((6, 4)), 3)
        assert program.captured
        activation_solves = [
            out for _mode, fwd, _srcs, out in program._program.graph._schedule
            if getattr(fwd, "__name__", "") == "solve" and out.shape == (3, 6, 3)
        ]
        assert len(activation_solves) == STAGES[ActivationKind.TANH] * net.n_layers
