"""Timing and energy-per-decision analysis of printed circuits.

Printed classifiers are duty-cycled: wake, apply the sensor voltages, wait
for the analog stack to settle, read the winning output, power down.  The
energy per classification is therefore

.. math::  E = P_{static} · t_{settle}

with the settling time dominated by the electrolyte gate capacitances
(nF-scale) against the printed resistances (10 kΩ–10 MΩ) — RC products from
microseconds to seconds depending on the design point.  This module
measures ``t_settle`` for activation circuits and for full flattened
networks via the backward-Euler transient engine, tying the paper's power
budgets to latency/energy budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pdk.circuits import build_activation_circuit, ACTIVATION_OUTPUT_NODE
from repro.pdk.params import PDK, DEFAULT_PDK, ActivationKind
from repro.spice.transient import attach_gate_capacitances, solve_transient


@dataclass
class StepResponse:
    """Step-response characterization of one circuit output."""

    settling_time_s: float
    initial_v: float
    final_v: float
    overshoot_v: float

    @property
    def swing(self) -> float:
        return abs(self.final_v - self.initial_v)


def activation_step_response(
    kind: ActivationKind,
    q: np.ndarray,
    v_from: float,
    v_to: float,
    pdk: PDK = DEFAULT_PDK,
    c_dl: float = 0.05,
    t_stop: float | None = None,
    n_steps: int = 400,
    tolerance: float = 0.02,
) -> StepResponse:
    """Step the activation input ``v_from → v_to``; measure output settling.

    The simulation horizon auto-scales from the circuit's worst RC product
    unless ``t_stop`` is given.
    """
    circuit = build_activation_circuit(kind, q, v_from, pdk=pdk)
    attach_gate_capacitances(circuit, c_dl=c_dl)
    if t_stop is None:
        worst_r = max(r.resistance for r in circuit.resistors)
        worst_c = max(c.capacitance for c in circuit.capacitors)
        t_stop = 20.0 * worst_r * worst_c
    dt = t_stop / n_steps
    result = solve_transient(circuit, t_stop=t_stop, dt=dt, source_steps={"vin": v_to})
    waveform = result.voltage(ACTIVATION_OUTPUT_NODE)
    final = float(waveform[-1])
    initial = float(waveform[0])
    if final >= initial:
        overshoot = max(0.0, float(waveform.max()) - final)
    else:
        overshoot = max(0.0, final - float(waveform.min()))
    return StepResponse(
        settling_time_s=result.settling_time(ACTIVATION_OUTPUT_NODE, tolerance=tolerance),
        initial_v=initial,
        final_v=final,
        overshoot_v=overshoot,
    )


def energy_per_decision(static_power_w: float, settling_time_s: float) -> float:
    """Energy of one duty-cycled classification (J)."""
    if static_power_w < 0 or settling_time_s < 0:
        raise ValueError("power and settling time must be non-negative")
    return static_power_w * settling_time_s


@dataclass
class NetworkTimingReport:
    """Latency/energy characterization of a flattened trained network."""

    settling_time_s: float
    static_power_w: float
    output_waveforms: dict[str, np.ndarray]
    times: np.ndarray

    @property
    def energy_per_decision_j(self) -> float:
        return energy_per_decision(self.static_power_w, self.settling_time_s)

    def summary(self) -> str:
        return (
            f"network settles in {self.settling_time_s * 1e3:.2f} ms at "
            f"{self.static_power_w * 1e3:.4f} mW → "
            f"{self.energy_per_decision_j * 1e6:.2f} uJ per decision"
        )


def network_step_response(
    net,
    x: np.ndarray,
    c_dl: float = 0.05,
    t_stop: float | None = None,
    n_steps: int = 300,
    tolerance: float = 0.05,
    negation: str = "ideal",
) -> NetworkTimingReport:
    """Wake-up transient of a full trained network.

    Flattens the network once (see :mod:`repro.circuits.netlist_export`),
    holds the inputs at 0 V, solves the resting state, then steps the inputs
    to the sample values and integrates until every output settles.
    """
    from repro.circuits.netlist_export import export_network

    x = np.asarray(x, dtype=np.float64).reshape(-1)
    exported = export_network(net, np.zeros_like(x), negation=negation)
    steps = exported.stimulus(x)
    # Static power of the settled (post-step) circuit, solved before the
    # gate capacitances join (they carry no DC current):
    _, power = exported.solve(x)
    circuit = exported.circuit
    attach_gate_capacitances(circuit, c_dl=c_dl)
    if t_stop is None:
        # Printable resistances only (≤ 10 MΩ) — ties and other synthetic
        # elements must not inflate the horizon.
        printable = [r.resistance for r in circuit.resistors if r.resistance <= 2e7]
        worst_r = max(printable) if printable else 1e6
        worst_c = max((c.capacitance for c in circuit.capacitors), default=1e-9)
        t_stop = 10.0 * worst_r * worst_c
    dt = t_stop / n_steps
    result = solve_transient(circuit, t_stop=t_stop, dt=dt, source_steps=steps)

    # Settling tolerance is swing-relative per node: a trained classifier's
    # outputs may move only millivolts between inputs (decisions ride on
    # small differences), so an absolute tolerance would read "already
    # settled".  The reported latency is floored at one integration step.
    def node_settle(node: str) -> float:
        waveform = result.voltage(node)
        swing = float(np.abs(waveform - waveform[0]).max())
        node_tol = max(1e-4, tolerance * swing)
        return result.settling_time(node, tolerance=node_tol)

    settle = max(dt, max(node_settle(node) for node in exported.output_nodes))
    return NetworkTimingReport(
        settling_time_s=settle,
        static_power_w=power,
        output_waveforms={node: result.voltage(node) for node in exported.output_nodes},
        times=result.times,
    )
