"""Unit tests for the circuit simulator: EGT model, MNA solver, power."""

from __future__ import annotations

import numpy as np
import pytest

from repro.spice import (
    Circuit,
    EGTModel,
    Resistor,
    SolverError,
    VoltageSource,
    element_powers,
    rebuild_with_sources,
    solve_dc,
    source_power,
    total_power,
)
from repro.spice.egt import DEFAULT_NEGT, ekv


class TestEGTModel:
    def test_off_below_threshold(self):
        model = EGTModel()
        ids = model.ids(vg=0.0, vd=1.0, vs=0.0, width=100e-6, length=50e-6)
        on = model.ids(vg=1.0, vd=1.0, vs=0.0, width=100e-6, length=50e-6)
        assert 0 < ids < on * 1e-3

    def test_current_scales_with_geometry(self):
        model = EGTModel()
        narrow = model.ids(0.8, 1.0, 0.0, 50e-6, 50e-6)
        wide = model.ids(0.8, 1.0, 0.0, 500e-6, 50e-6)
        assert wide == pytest.approx(10 * narrow, rel=1e-12)

    def test_symmetric_zero_vds(self):
        model = EGTModel()
        assert model.ids(0.8, 0.3, 0.3, 100e-6, 50e-6) == pytest.approx(0.0, abs=1e-18)

    def test_reverse_vds_negative_current(self):
        model = EGTModel()
        assert model.ids(0.8, 0.0, 0.5, 100e-6, 50e-6) < 0

    def test_saturation_monotone_in_vgs(self):
        model = EGTModel()
        currents = [model.saturation_current(v, 100e-6, 50e-6) for v in np.linspace(0, 1, 11)]
        assert all(b > a for a, b in zip(currents, currents[1:]))

    def test_derivatives_match_finite_difference(self):
        model = EGTModel()
        vg, vd, vs, w, l = 0.45, 0.6, 0.1, 200e-6, 60e-6
        ids, d_vg, d_vd, d_vs = model.ids_and_derivatives(vg, vd, vs, w, l)
        eps = 1e-7
        num_vg = (model.ids(vg + eps, vd, vs, w, l) - model.ids(vg - eps, vd, vs, w, l)) / (2 * eps)
        num_vd = (model.ids(vg, vd + eps, vs, w, l) - model.ids(vg, vd - eps, vs, w, l)) / (2 * eps)
        num_vs = (model.ids(vg, vd, vs + eps, w, l) - model.ids(vg, vd, vs - eps, w, l)) / (2 * eps)
        assert d_vg == pytest.approx(num_vg, rel=1e-6)
        assert d_vd == pytest.approx(num_vd, rel=1e-6)
        assert d_vs == pytest.approx(num_vs, rel=1e-6)

    def test_model_card_validation(self):
        with pytest.raises(ValueError):
            EGTModel(k=-1.0)
        with pytest.raises(ValueError):
            EGTModel(n=0.5)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            DEFAULT_NEGT.specific_current(0.0, 50e-6)

    def test_ekv_f_asymptotics(self):
        # weak inversion: F(x) ~ e^x; strong inversion: F(x) ~ (x/2)^2
        assert ekv(-30.0)[0] == pytest.approx(np.exp(-30.0), rel=1e-3)
        assert ekv(40.0)[0] == pytest.approx(400.0, rel=1e-2)

    def test_ekv_f_prime_positive(self):
        xs = np.linspace(-20, 20, 41)
        assert (ekv(xs)[1] > 0).all()


class TestNetlist:
    def test_duplicate_names_rejected(self):
        c = Circuit()
        c.add_resistor("r1", "a", "0", 1e3)
        with pytest.raises(ValueError):
            c.add_vsource("r1", "a", "0", 1.0)

    def test_duplicate_names_rejected_across_every_kind(self):
        c = Circuit()
        c.add_vsource("vdd", "vdd", "0", 1.0)
        c.add_resistor("r1", "vdd", "a", 1e3)
        c.add_egt("m1", "a", "vdd", "0", 100e-6, 50e-6)
        c.add_vcvs("e1", "b", "0", "a", "0", -1.0)
        c.add_capacitor("c1", "a", "0", 1e-9)
        adders = (
            lambda name: c.add_resistor(name, "a", "0", 1e3),
            lambda name: c.add_vsource(name, "a", "0", 1.0),
            lambda name: c.add_egt(name, "a", "a", "0", 100e-6, 50e-6),
            lambda name: c.add_vcvs(name, "b", "0", "a", "0", 1.0),
            lambda name: c.add_capacitor(name, "a", "0", 1e-9),
        )
        for add in adders:
            for name in ("vdd", "r1", "m1", "e1", "c1"):
                with pytest.raises(ValueError, match=f"duplicate element name: {name}"):
                    add(name)
        assert c.element_names() == {"vdd", "r1", "m1", "e1", "c1"}

    def test_duplicate_names_rejected_on_a_redriven_circuit(self):
        c = Circuit()
        c.add_vsource("vin", "in", "0", 0.1)
        c.add_resistor("r1", "in", "0", 1e3)
        rebuilt = rebuild_with_sources(c, {"vin": 0.2})
        assert rebuilt.element_names() == {"vin", "r1"}
        with pytest.raises(ValueError, match="duplicate element name: r1"):
            rebuilt.add_vsource("r1", "in", "0", 1.0)
        with pytest.raises(ValueError, match="duplicate element name: vin"):
            rebuilt.add_resistor("vin", "in", "0", 1e3)
        rebuilt.add_resistor("r2", "in", "0", 1e3)
        assert "r2" not in c.element_names()  # the copy keeps its own name set

    def test_duplicate_names_rejected_in_constructor_lists(self):
        r = Resistor("x", "a", "0", 1e3)
        with pytest.raises(ValueError, match="duplicate element name: x"):
            Circuit(resistors=[r], sources=[VoltageSource("x", "a", "0", 1.0)])

    def test_nonpositive_resistance_rejected(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.add_resistor("r1", "a", "0", 0.0)

    def test_nodes_excludes_ground_aliases(self):
        c = Circuit()
        c.add_resistor("r1", "a", "gnd", 1e3)
        c.add_resistor("r2", "a", "0", 1e3)
        assert c.nodes() == ["a"]

    def test_transistor_geometry_validated(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.add_egt("m1", "d", "g", "s", -1.0, 50e-6)


class TestSolver:
    def test_voltage_divider(self):
        c = Circuit()
        c.add_vsource("v1", "in", "0", 2.0)
        c.add_resistor("r1", "in", "mid", 10e3)
        c.add_resistor("r2", "mid", "0", 30e3)
        op = solve_dc(c)
        assert op.voltage("mid") == pytest.approx(1.5, rel=1e-8)

    def test_series_source_current(self):
        c = Circuit()
        c.add_vsource("v1", "in", "0", 1.0)
        c.add_resistor("r1", "in", "0", 1e3)
        op = solve_dc(c)
        # MNA current flows into the + terminal: the source sees -1 mA.
        assert abs(op.source_currents["v1"]) == pytest.approx(1e-3, rel=1e-8)

    def test_floating_node_via_gmin(self):
        # A node connected only through a transistor gate still solves.
        c = Circuit()
        c.add_vsource("vdd", "vdd", "0", 1.0)
        c.add_resistor("rl", "vdd", "out", 100e3)
        c.add_egt("m1", "out", "gate", "0", 100e-6, 50e-6)
        c.add_vsource("vg", "gate", "0", 0.5)
        op = solve_dc(c)
        assert 0.0 < op.voltage("out") < 1.0

    def test_empty_circuit_raises(self):
        with pytest.raises(SolverError):
            solve_dc(Circuit())

    def test_two_sources_kirchhoff(self):
        c = Circuit()
        c.add_vsource("va", "a", "0", 1.0)
        c.add_vsource("vb", "b", "0", 0.2)
        c.add_resistor("r", "a", "b", 10e3)
        op = solve_dc(c)
        assert op.voltage("a") == pytest.approx(1.0)
        assert op.voltage("b") == pytest.approx(0.2)

    def test_inverter_transfer_monotone_decreasing(self):
        outputs = []
        for vin in np.linspace(0.0, 1.0, 6):
            c = Circuit()
            c.add_vsource("vdd", "vdd", "0", 1.0)
            c.add_vsource("vin", "in", "0", float(vin))
            c.add_resistor("rl", "vdd", "out", 100e3)
            c.add_egt("m1", "out", "in", "0", 200e-6, 50e-6)
            outputs.append(solve_dc(c).voltage("out"))
        assert all(b <= a + 1e-9 for a, b in zip(outputs, outputs[1:]))
        assert outputs[0] > 0.9 and outputs[-1] < 0.2

    def test_ground_voltage_zero(self):
        c = Circuit()
        c.add_vsource("v1", "a", "0", 1.0)
        c.add_resistor("r1", "a", "0", 1e3)
        op = solve_dc(c)
        assert op.voltage("0") == 0.0
        assert op.voltage("gnd") == 0.0


class TestPower:
    def _inverter(self, vin: float) -> Circuit:
        c = Circuit()
        c.add_vsource("vdd", "vdd", "0", 1.0)
        c.add_vsource("vin", "in", "0", vin)
        c.add_resistor("rl", "vdd", "out", 100e3)
        c.add_egt("m1", "out", "in", "0", 200e-6, 50e-6)
        return c

    def test_tellegen_dissipated_equals_delivered(self):
        for vin in (0.0, 0.3, 0.6, 1.0):
            c = self._inverter(vin)
            op = solve_dc(c)
            assert total_power(c, op) == pytest.approx(source_power(c, op), rel=1e-6, abs=1e-15)

    def test_resistor_power_formula(self):
        c = Circuit()
        c.add_vsource("v1", "a", "0", 1.0)
        c.add_resistor("r1", "a", "0", 1e4)
        op = solve_dc(c)
        powers = element_powers(c, op)
        assert powers["r1"] == pytest.approx(1e-4, rel=1e-9)

    def test_all_elements_reported(self):
        c = self._inverter(0.5)
        op = solve_dc(c)
        powers = element_powers(c, op)
        assert set(powers) == {"rl", "m1"}

    def test_power_nonnegative_for_passive_elements(self):
        c = self._inverter(0.7)
        op = solve_dc(c)
        for name, value in element_powers(c, op).items():
            assert value >= -1e-15, name
