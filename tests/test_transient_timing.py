"""Tests for the transient engine and timing/energy analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import PrintedNeuralNetwork, PNCConfig
from repro.pdk.params import ActivationKind, design_space
from repro.pdk.timing import (
    StepResponse,
    activation_step_response,
    energy_per_decision,
    network_step_response,
)
from repro.spice import Circuit, SolverError
from repro.spice.transient import (
    TransientResult,
    attach_gate_capacitances,
    gate_capacitance,
    solve_transient,
)


def rc_circuit(r=1e5, c=1e-8, v0=0.0):
    circuit = Circuit("rc")
    circuit.add_vsource("vin", "in", "0", v0)
    circuit.add_resistor("r", "in", "out", r)
    circuit.add_capacitor("c", "out", "0", c)
    return circuit


class TestBackwardEuler:
    def test_rc_charging_matches_analytic(self):
        circuit = rc_circuit()
        result = solve_transient(circuit, t_stop=5e-3, dt=1e-5, source_steps={"vin": 1.0})
        analytic = 1.0 - np.exp(-result.times / 1e-3)
        assert np.abs(result.voltage("out") - analytic).max() < 5e-3

    def test_rc_discharge(self):
        circuit = rc_circuit(v0=1.0)
        result = solve_transient(circuit, t_stop=5e-3, dt=1e-5, source_steps={"vin": 0.0})
        analytic = np.exp(-result.times / 1e-3)
        assert np.abs(result.voltage("out") - analytic).max() < 5e-3

    def test_halving_dt_halves_error(self):
        # backward Euler is first order: error ∝ dt.
        def max_error(dt):
            result = solve_transient(rc_circuit(), 5e-3, dt, source_steps={"vin": 1.0})
            analytic = 1.0 - np.exp(-result.times / 1e-3)
            return np.abs(result.voltage("out") - analytic).max()

        coarse, fine = max_error(4e-5), max_error(2e-5)
        assert fine < 0.7 * coarse

    def test_no_step_stays_at_dc(self):
        circuit = rc_circuit(v0=0.7)
        result = solve_transient(circuit, t_stop=1e-3, dt=5e-5)
        np.testing.assert_allclose(result.voltage("out"), 0.7, atol=1e-6)

    def test_settling_time_definition(self):
        circuit = rc_circuit()
        result = solve_transient(circuit, 8e-3, 1e-5, source_steps={"vin": 1.0})
        settle = result.settling_time("out", tolerance=np.exp(-1))
        # within 1/e of final after ~1 RC
        assert settle == pytest.approx(1e-3, rel=0.15)

    def test_validates_timing_args(self):
        with pytest.raises(ValueError):
            solve_transient(rc_circuit(), t_stop=0.0, dt=1e-5)
        with pytest.raises(ValueError):
            solve_transient(rc_circuit(), t_stop=1e-3, dt=1e-2)

    def test_validates_source_names(self):
        with pytest.raises(ValueError):
            solve_transient(rc_circuit(), 1e-3, 1e-5, source_steps={"nope": 1.0})

    def test_ground_waveform_zero(self):
        result = solve_transient(rc_circuit(), 1e-3, 1e-4, source_steps={"vin": 1.0})
        np.testing.assert_array_equal(result.voltage("gnd"), 0.0)

    def test_two_capacitor_ladder_monotone(self):
        circuit = Circuit("ladder")
        circuit.add_vsource("vin", "in", "0", 0.0)
        circuit.add_resistor("r1", "in", "a", 1e5)
        circuit.add_capacitor("c1", "a", "0", 1e-8)
        circuit.add_resistor("r2", "a", "b", 1e5)
        circuit.add_capacitor("c2", "b", "0", 1e-8)
        result = solve_transient(circuit, 2e-2, 1e-4, source_steps={"vin": 1.0})
        b = result.voltage("b")
        assert (np.diff(b) >= -1e-9).all()
        assert b[-1] == pytest.approx(1.0, abs=0.02)
        # second node lags the first
        assert result.settling_time("b") > result.settling_time("a")


class TestCapacitorElement:
    def test_positive_value_required(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            circuit.add_capacitor("c1", "a", "0", 0.0)

    def test_dc_ignores_capacitors(self):
        from repro.spice import solve_dc

        circuit = rc_circuit(v0=0.4)
        op = solve_dc(circuit)
        assert op.voltage("out") == pytest.approx(0.4, abs=1e-9)

    def test_gate_capacitance_scale(self):
        # 200µm × 50µm at 5 µF/cm² → 0.5 nF
        assert gate_capacitance(200e-6, 50e-6) == pytest.approx(0.5e-9, rel=1e-9)
        with pytest.raises(ValueError):
            gate_capacitance(-1.0, 1.0)

    def test_attach_gate_capacitances_counts(self):
        circuit = Circuit()
        circuit.add_vsource("vdd", "vdd", "0", 1.0)
        circuit.add_resistor("rl", "vdd", "out", 1e5)
        circuit.add_egt("m1", "out", "g", "0", 100e-6, 50e-6)
        circuit.add_egt("m2", "out", "g", "0", 100e-6, 50e-6)
        assert attach_gate_capacitances(circuit) == 2
        assert "cgs_m1" in circuit.element_names()


class TestActivationTiming:
    def test_all_kinds_settle(self):
        for kind in ActivationKind:
            q = design_space(kind).center()
            response = activation_step_response(kind, q, 0.0, 0.6)
            assert response.settling_time_s > 0
            assert np.isfinite(response.final_v)

    def test_bigger_gate_slower(self):
        space = design_space(ActivationKind.RELU)
        q_small = space.center()
        q_big = q_small.copy()
        q_big[1] = space.highs[1]  # max width → max gate capacitance
        small = activation_step_response(ActivationKind.RELU, q_small, 0.0, 0.6)
        big = activation_step_response(ActivationKind.RELU, q_big, 0.0, 0.6)
        assert big.settling_time_s > small.settling_time_s * 0.5  # not faster


class TestEnergyPerDecision:
    def test_product(self):
        assert energy_per_decision(1e-3, 2e-3) == pytest.approx(2e-6)

    def test_validates(self):
        with pytest.raises(ValueError):
            energy_per_decision(-1.0, 1.0)

    def test_network_report(self, af_surrogates, neg_surrogate):
        net = PrintedNeuralNetwork(
            4, 2, PNCConfig(kind=ActivationKind.RELU), np.random.default_rng(8),
            af_surrogates[ActivationKind.RELU], neg_surrogate,
        )
        report = network_step_response(net, np.array([0.4, 0.7, 0.1, 0.9]), n_steps=150)
        assert report.settling_time_s > 0
        assert report.static_power_w > 0
        assert report.energy_per_decision_j == pytest.approx(
            report.settling_time_s * report.static_power_w
        )
        assert "per decision" in report.summary()

    def test_network_report_builds_the_flat_circuit_once(
        self, af_surrogates, neg_surrogate, monkeypatch
    ):
        import repro.circuits.netlist_export as netlist_export

        net = PrintedNeuralNetwork(
            4, 2, PNCConfig(kind=ActivationKind.RELU), np.random.default_rng(8),
            af_surrogates[ActivationKind.RELU], neg_surrogate,
        )
        x = np.array([0.4, 0.7, 0.1, 0.9])
        builds = []
        build = netlist_export.export_network
        monkeypatch.setattr(
            netlist_export, "export_network",
            lambda *args, **kwargs: builds.append(args) or build(*args, **kwargs),
        )
        report = network_step_response(net, x, n_steps=20)
        assert len(builds) == 1
        # The static power is the settled circuit's, as a fresh build at x.
        assert report.static_power_w == build(net, x).solve()[1]
