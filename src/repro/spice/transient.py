"""Backward-Euler transient analysis.

Printed electrolyte-gated circuits are *slow*: the electrolyte double layer
puts nanofarads on every gate, so printed classifiers settle in
milliseconds.  For duty-cycled sensing (the paper's smart-label /
smart-bandage applications) the energy per classification is
``P_static × t_settle`` — latency is a power-budget quantity.

This module integrates a :class:`~repro.spice.netlist.Circuit` containing
capacitors through time with backward Euler (A-stable — safe for the stiff
RC ratios printed circuits produce):

- each capacitor stamps its companion model ``G = C/Δt`` (the resistor's
  two-terminal stamp) plus a history current ``I_hist = −(C/Δt)·v_prev``
  into the Newton solve at every step,
- every step therefore reuses the same robust nonlinear DC machinery
  (EGTs linearized per iteration, VCVS, sources).

The initial condition defaults to the DC operating point with all
*stepped* sources at their initial values, so step responses start from a
consistent state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spice.netlist import Circuit, GROUND_NAMES, rebuild_with_sources
from repro.spice.solver import _MNA, SolverError, _newton, _two_terminal, solve_dc


@dataclass
class TransientResult:
    """Waveforms of a transient run."""

    times: np.ndarray
    node_voltages: dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of ``node`` (ground aliases return zeros)."""
        if node in GROUND_NAMES:
            return np.zeros_like(self.times)
        return self.node_voltages[node]

    def final(self, node: str) -> float:
        return float(self.voltage(node)[-1])

    def settling_time(self, node: str, tolerance: float = 0.02) -> float:
        """First time after which the node stays within ``tolerance`` (V) of
        its final value.  Returns the last timestamp if it never settles."""
        waveform = self.voltage(node)
        final = waveform[-1]
        outside = np.abs(waveform - final) > tolerance
        if not outside.any():
            return float(self.times[0])
        last_outside = int(np.flatnonzero(outside)[-1])
        if last_outside + 1 >= len(self.times):
            return float(self.times[-1])
        return float(self.times[last_outside + 1])


def solve_transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    source_steps: dict[str, float] | None = None,
    max_iter: int = 100,
    tol: float = 1e-10,
) -> TransientResult:
    """Integrate the circuit from its DC state for ``t_stop`` seconds.

    Parameters
    ----------
    circuit:
        Netlist; capacitors define the dynamics (a circuit without
        capacitors settles in one step).
    t_stop, dt:
        Simulation horizon and fixed backward-Euler step.
    source_steps:
        Optional ``{source_name: new_voltage}`` applied at t = 0⁺: the
        initial condition is the DC point with the *original* source values,
        then the sources step — the standard step-response setup.
    """
    if t_stop <= 0 or dt <= 0 or dt > t_stop:
        raise ValueError("need 0 < dt <= t_stop")
    # Post-step circuit: the stepped sources at their new values.
    stepped = rebuild_with_sources(circuit, source_steps or {})

    # Initial condition: DC with original sources.
    initial_op = solve_dc(circuit)

    nodes = stepped.nodes()
    node_index = {node: i for i, node in enumerate(nodes)}
    n_nodes = len(nodes)
    mna = _MNA(stepped, node_index)
    # Backward Euler: each capacitor is a conductance C/Δt, stamped like a
    # resistor, whose history term (C/Δt)·v_prev joins the right-hand side.
    caps = stepped.capacitors
    g_cap = np.zeros_like(mna.matrix)
    _two_terminal(
        g_cap,
        mna.slots(cap.node_a for cap in caps),
        mna.slots(cap.node_b for cap in caps),
        np.array([cap.capacitance / dt for cap in caps]),
    )
    matrix = mna.matrix + g_cap

    times = np.arange(0.0, t_stop + 0.5 * dt, dt)
    waveforms = np.zeros((len(times), n_nodes))
    waveforms[0] = [initial_op.voltage(node) for node in nodes]

    x = np.concatenate([waveforms[0], np.zeros(mna.dim - n_nodes)])
    for step in range(1, len(times)):
        result = _newton(
            mna,
            x,
            gmin=1e-12,
            max_iter=max_iter,
            tol=tol,
            v_limit=0.5,
            matrix=matrix,
            rhs=mna.rhs + g_cap @ np.append(x, 0.0),
        )
        if result is None:
            raise SolverError(f"transient step {step} failed to converge")
        x, _ = result
        waveforms[step] = x[:n_nodes]

    node_voltages = {node: waveforms[:, i].copy() for node, i in node_index.items()}
    return TransientResult(times=times, node_voltages=node_voltages)


def gate_capacitance(width: float, length: float, c_dl: float = 0.05) -> float:
    """Electrolyte double-layer gate capacitance (F).

    ``c_dl`` defaults to 5 µF/cm² = 0.05 F/m² — mid-range for printed
    electrolyte gating; the gate area is W × L.
    """
    if width <= 0 or length <= 0:
        raise ValueError("geometry must be positive")
    return c_dl * width * length


def attach_gate_capacitances(circuit: Circuit, c_dl: float = 0.05) -> int:
    """Add a gate–source capacitor for every EGT in the circuit.

    Returns the number of capacitors added.  Idempotent per name: raises on
    duplicate names if called twice.
    """
    count = 0
    for t in list(circuit.transistors):
        value = gate_capacitance(t.width, t.length, c_dl=c_dl)
        circuit.add_capacitor(f"cgs_{t.name}", t.gate, t.source, value)
        count += 1
    return count
