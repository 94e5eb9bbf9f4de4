"""Tests for VCVS solver support and full-network netlist verification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import PrintedNeuralNetwork, PNCConfig, export_network, verify_against_model
from repro.datasets import load_dataset
from repro.pdk.params import ActivationKind, ALL_ACTIVATIONS, design_space
from repro.pdk.circuits import add_activation, simulate_activation
from repro.spice import Circuit, solve_dc


class TestVCVS:
    def test_ideal_inversion(self):
        c = Circuit()
        c.add_vsource("vin", "in", "0", 0.42)
        c.add_vcvs("e1", "out", "0", "in", "0", -1.0)
        c.add_resistor("rl", "out", "0", 1e4)
        assert solve_dc(c).voltage("out") == pytest.approx(-0.42, abs=1e-9)

    def test_gain_two(self):
        c = Circuit()
        c.add_vsource("vin", "in", "0", 0.3)
        c.add_vcvs("e1", "out", "0", "in", "0", 2.0)
        c.add_resistor("rl", "out", "0", 1e4)
        assert solve_dc(c).voltage("out") == pytest.approx(0.6, abs=1e-9)

    def test_differential_control(self):
        c = Circuit()
        c.add_vsource("va", "a", "0", 0.7)
        c.add_vsource("vb", "b", "0", 0.2)
        c.add_vcvs("e1", "out", "0", "a", "b", 1.0)
        c.add_resistor("rl", "out", "0", 1e4)
        assert solve_dc(c).voltage("out") == pytest.approx(0.5, abs=1e-9)

    def test_control_nodes_draw_no_current(self):
        c = Circuit()
        c.add_vsource("vin", "in", "0", 0.5)
        c.add_resistor("rsrc", "in", "ctrl", 1e6)  # high-Z tap
        c.add_vcvs("e1", "out", "0", "ctrl", "0", 1.0)
        c.add_resistor("rl", "out", "0", 1e3)  # heavy load on the output
        op = solve_dc(c)
        # No control current → no drop across rsrc → ctrl = in exactly.
        assert op.voltage("ctrl") == pytest.approx(0.5, abs=1e-9)
        assert op.voltage("out") == pytest.approx(0.5, abs=1e-9)

    def test_duplicate_vcvs_name_rejected(self):
        c = Circuit()
        c.add_vcvs("e1", "a", "0", "b", "0", 1.0)
        with pytest.raises(ValueError):
            c.add_vcvs("e1", "c", "0", "d", "0", 1.0)


class TestActivationInstantiation:
    @pytest.mark.parametrize("kind", ALL_ACTIVATIONS)
    def test_matches_standalone_builder(self, kind):
        """A namespaced instance must behave like the standalone circuit."""
        q = design_space(kind).center()
        v_in = 0.35
        reference_out, _ = simulate_activation(kind, q, v_in)
        c = Circuit()
        c.add_vsource("vdd", "vdd", "0", 1.0)
        c.add_vsource("vss", "vss", "0", -1.0)
        c.add_vsource("vin", "in", "0", v_in)
        add_activation(c, kind, q, "in", "out", prefix="afX_")
        assert solve_dc(c).voltage("out") == pytest.approx(reference_out, abs=1e-6)

    def test_unique_prefixes_coexist(self):
        q = design_space(ActivationKind.RELU).center()
        c = Circuit()
        c.add_vsource("vdd", "vdd", "0", 1.0)
        c.add_vsource("vin", "in", "0", 0.5)
        add_activation(c, ActivationKind.RELU, q, "in", "o0", prefix="a0_")
        add_activation(c, ActivationKind.RELU, q, "in", "o1", prefix="a1_")
        op = solve_dc(c)
        assert op.voltage("o0") == pytest.approx(op.voltage("o1"), abs=1e-12)


def _make_net(kind, af_surrogates, neg_surrogate, seed=5):
    return PrintedNeuralNetwork(
        4, 3, PNCConfig(kind=kind), np.random.default_rng(seed),
        af_surrogates[kind], neg_surrogate,
    )


class TestExportNetwork:
    def test_export_structure(self, af_surrogates, neg_surrogate):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        exported = export_network(net, np.full(4, 0.5))
        assert len(exported.output_nodes) == 3
        assert len(exported.summing_nodes) == 2
        # rails + inputs present
        names = exported.circuit.element_names()
        assert {"vdd", "vss", "vin0", "vin3"} <= names

    def test_export_validates_input_shape(self, af_surrogates, neg_surrogate):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        with pytest.raises(ValueError):
            export_network(net, np.zeros(7))
        with pytest.raises(ValueError):
            export_network(net, np.zeros(4), negation="sorta")

    def test_solves_and_outputs_finite(self, af_surrogates, neg_surrogate):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        exported = export_network(net, np.array([0.2, 0.8, 0.5, 0.1]))
        outputs, power = exported.solve()
        assert np.isfinite(outputs).all()
        assert power > 0

    def test_pruned_resistors_not_printed(self, af_surrogates, neg_surrogate):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        # Prune one specific crossbar entry and check its resistor vanishes.
        net.crossbars()[0].theta.data[0, 0] = 1e-6
        exported = export_network(net, np.full(4, 0.5))
        assert "l0_r0_0" not in exported.circuit.element_names()


class TestVerification:
    def test_relu_model_matches_flat_netlist(self, af_surrogates, neg_surrogate):
        """The paper's layered abstraction is valid for low-Z circuits:
        follower outputs drive the next crossbar with mV-level deviation."""
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        data = load_dataset("iris")
        report = verify_against_model(net, data.features, n_samples=6)
        assert report.decision_agreement == 1.0
        assert report.max_output_deviation < 0.08  # < 80 mV

    def test_circuit_negation_power_same_order(self, af_surrogates, neg_surrogate):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        data = load_dataset("iris")
        report = verify_against_model(net, data.features, n_samples=6, negation="circuit")
        ratio = report.spice_powers.mean() / report.model_power
        assert 0.25 < ratio < 4.0

    def test_sigmoid_decisions_survive_loading(self, af_surrogates, neg_surrogate):
        # Gate dividers load the summing nodes; decisions must still agree
        # on a strong majority of samples.
        net = _make_net(ActivationKind.SIGMOID, af_surrogates, neg_surrogate, seed=6)
        data = load_dataset("iris")
        report = verify_against_model(net, data.features, n_samples=6)
        assert report.decision_agreement >= 0.5
        assert np.isfinite(report.spice_outputs).all()

    def test_builds_the_flat_circuit_once(self, af_surrogates, neg_surrogate, monkeypatch):
        """One build per call; each row re-drives its input sources and
        solves exactly as a fresh build at that row would."""
        import repro.circuits.netlist_export as netlist_export

        net = _make_net(ActivationKind.SIGMOID, af_surrogates, neg_surrogate, seed=6)
        x = load_dataset("iris").features[:4]
        builds = []
        build = netlist_export.export_network
        monkeypatch.setattr(
            netlist_export, "export_network",
            lambda *args, **kwargs: builds.append(args) or build(*args, **kwargs),
        )
        report = verify_against_model(net, x, n_samples=4, negation="circuit")
        assert len(builds) == 1
        for row, sample in enumerate(x):
            outputs, power = build(net, sample, negation="circuit").solve()
            assert report.spice_outputs[row].tobytes() == outputs.tobytes()
            assert report.spice_powers[row] == power

    def test_report_summary_renders(self, af_surrogates, neg_surrogate):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        data = load_dataset("iris")
        report = verify_against_model(net, data.features, n_samples=3)
        text = report.summary()
        assert "decision agreement" in text and "power" in text

    def test_training_mode_restored(self, af_surrogates, neg_surrogate):
        net = _make_net(ActivationKind.RELU, af_surrogates, neg_surrogate)
        net.train()
        verify_against_model(net, load_dataset("iris").features, n_samples=2)
        assert net.training


class TestSpiceTextExport:
    def _inverter(self):
        c = Circuit("inv")
        c.add_vsource("vdd", "vdd", "0", 1.0)
        c.add_vsource("vin", "in", "0", 0.4)
        c.add_resistor("rl", "vdd", "out", 100e3)
        c.add_egt("m1", "out", "in", "0", 200e-6, 50e-6)
        c.add_vcvs("e1", "mir", "0", "out", "0", -1.0)
        return c

    def test_contains_all_cards(self):
        from repro.spice.export import to_spice_text

        text = to_spice_text(self._inverter())
        assert text.startswith("* inv")
        assert "Rrl vdd out 100000" in text
        assert "Vvdd vdd 0 DC 1" in text
        assert "Ee1 mir 0 out 0 -1" in text
        assert "Mm1 out in 0 0 negt0" in text
        assert ".model negt0" in text
        assert text.rstrip().endswith(".end")

    def test_ground_aliases_map_to_zero(self):
        from repro.spice.export import to_spice_text

        c = Circuit()
        c.add_resistor("r1", "a", "gnd", 1e3)
        assert "Rr1 a 0 1000" in to_spice_text(c)

    def test_save_roundtrip(self, tmp_path):
        from repro.spice.export import save_spice_file

        path = tmp_path / "net.cir"
        save_spice_file(self._inverter(), path, title="custom title")
        content = path.read_text()
        assert content.startswith("* custom title")

    def test_full_network_exports(self, af_surrogates, neg_surrogate):
        from repro.spice.export import to_spice_text

        net = _make_net(ActivationKind.TANH, af_surrogates, neg_surrogate)
        exported = export_network(net, np.full(4, 0.5))
        text = to_spice_text(exported.circuit)
        # each layer's resistors, AF transistors and rails all present
        assert "l0_z0" in text and "l1_z0" in text
        assert text.count("\nM") >= 2 * 3 * 2  # >= two tanh EGTs per circuit
