"""Netlist builders for the printed activation and negation circuits.

Each cell topology exists once, as an ``add_*`` helper that prints the cell
into any :class:`~repro.spice.netlist.Circuit` under a name prefix: the
standalone builders here wrap one cell in rails and an input source, and the
flat network export and the compiler's tiles
(:func:`repro.circuits.netlist_export.add_crossbar_block`) print one cell per
column or negated row.  ``q`` is the cell's physical parameter vector
(layout documented in :func:`repro.pdk.params.design_space`).
These netlists are the ground truth that the differentiable transfer models
(:mod:`repro.pdk.transfer`) and the surrogate power models are validated and
trained against — the reproduction's stand-in for pPDK + SPICE.

Topologies
----------
p-ReLU
    nEGT source follower: M1 drain at VDD, gate at the input, source at the
    output node loaded by R_s to ground.  Output ≈ k·(V_in − V_T) above the
    threshold, ≈ 0 below — the ReLU shape; power rises smoothly and
    monotonically with input (unbounded behaviour noted in the paper).

p-Clipped_ReLU
    A current-limited source follower (drain resistor R_d between VDD and
    M1) plus a diode-connected clamp EGT from the output to ground.  When
    the output climbs past the clamp threshold the diode conducts and the
    transfer clips; because R_d bounds the drain current, total dissipation
    plateaus near VDD²/(R_d + R_s) — the spike-then-stabilize power curve of
    Fig. 3(c).

p-sigmoid
    Two cascaded resistive-load inverters between VDD and ground.  The double
    inversion yields a monotonically increasing σ-shaped transfer 0→VDD.  At
    strongly negative inputs the second stage's driver is fully on, so power
    is higher for negative inputs — the asymmetry the paper reports.

p-tanh
    The same cascade but with the drivers sourced at VSS = −VDD and the
    inter-stage level shifted, producing a zero-centred tanh-like transfer
    −V⁻…+V⁺.

negation
    Single inverting amplifier (resistive divider + driver EGT between VDD
    and VSS) producing ≈ −V_in over the operating range.
"""

from __future__ import annotations

import numpy as np

from repro.pdk.params import PDK, DEFAULT_PDK, ActivationKind
from repro.spice import Circuit, solve_dc, total_power


#: Output node name of every standalone cell circuit.
ACTIVATION_OUTPUT_NODE = "out"


def add_activation(
    circuit: Circuit,
    kind: ActivationKind,
    q: np.ndarray,
    in_node: str,
    out_node: str,
    prefix: str = "",
) -> None:
    """Add one activation cell ``kind`` between ``in_node`` and ``out_node``.

    Element and internal-node names start with ``prefix``, so many cells
    coexist in one netlist; the cell ties to the ``vdd``/``vss`` rail nodes.
    """
    if kind is ActivationKind.RELU:
        r_s, w_1, l_1 = q
        circuit.add_egt(f"{prefix}m1", "vdd", in_node, out_node, w_1, l_1)
        circuit.add_resistor(f"{prefix}rs", out_node, "0", r_s)
        return

    if kind is ActivationKind.CLIPPED_RELU:
        r_d, r_s, w_1, l_1, w_c, l_c = q
        drain = f"{prefix}d"
        # R_d limits the drain current so the power flattens once the output
        # clips; the diode-connected clamp pins the output level.
        circuit.add_resistor(f"{prefix}rd", "vdd", drain, r_d)
        circuit.add_egt(f"{prefix}m1", drain, in_node, out_node, w_1, l_1)
        circuit.add_resistor(f"{prefix}rs", out_node, "0", r_s)
        circuit.add_egt(f"{prefix}mc", out_node, out_node, "0", w_c, l_c)
        return

    if kind is ActivationKind.SIGMOID:
        r_d1, r_d2, r_1, r_2, w_1, l_1, w_2, l_2 = q
        g1, mid = f"{prefix}g1", f"{prefix}mid"
        # Input divider sets the switching point.
        circuit.add_resistor(f"{prefix}rd1", in_node, g1, r_d1)
        circuit.add_resistor(f"{prefix}rd2", g1, "0", r_d2)
        circuit.add_resistor(f"{prefix}r1", "vdd", mid, r_1)
        circuit.add_egt(f"{prefix}m1", mid, g1, "0", w_1, l_1)
        circuit.add_resistor(f"{prefix}r2", "vdd", out_node, r_2)
        circuit.add_egt(f"{prefix}m2", out_node, mid, "0", w_2, l_2)
        return

    if kind is ActivationKind.TANH:
        r_d1, r_d2, r_1, r_d3, r_d4, r_2, w_1, l_1, w_2, l_2 = q
        g1, mid, g2 = f"{prefix}g1", f"{prefix}mid", f"{prefix}g2"
        # Input divider referenced to VSS centres the first-stage switch.
        circuit.add_resistor(f"{prefix}rd1", in_node, g1, r_d1)
        circuit.add_resistor(f"{prefix}rd2", g1, "vss", r_d2)
        circuit.add_resistor(f"{prefix}r1", "vdd", mid, r_1)
        circuit.add_egt(f"{prefix}m1", mid, g1, "vss", w_1, l_1)
        # Inter-stage divider keeps the second driver out of hard saturation.
        circuit.add_resistor(f"{prefix}rd3", mid, g2, r_d3)
        circuit.add_resistor(f"{prefix}rd4", g2, "vss", r_d4)
        circuit.add_resistor(f"{prefix}r2", "vdd", out_node, r_2)
        circuit.add_egt(f"{prefix}m2", out_node, g2, "vss", w_2, l_2)
        return

    raise ValueError(f"unhandled activation kind: {kind}")


def add_negation(
    circuit: Circuit,
    q: np.ndarray,
    in_node: str,
    out_node: str,
    prefix: str = "",
    suffix: str = "",
) -> None:
    """Add one negation cell: elements ``{prefix}rneg{suffix}`` and
    ``{prefix}mneg{suffix}`` between the ``vdd``/``vss`` rail nodes."""
    r_n, w_n, l_n = q
    circuit.add_resistor(f"{prefix}rneg{suffix}", "vdd", out_node, r_n)
    circuit.add_egt(f"{prefix}mneg{suffix}", out_node, in_node, "vss", w_n, l_n)


def build_activation_circuit(
    kind: ActivationKind,
    q: np.ndarray,
    v_in: float,
    pdk: PDK = DEFAULT_PDK,
) -> Circuit:
    """Build the netlist of activation circuit ``kind`` at input ``v_in``."""
    c = Circuit(name=f"{kind.value}@{v_in:.3f}")
    c.add_vsource("vdd", "vdd", "0", pdk.vdd)
    c.add_vsource("vin", "in", "0", float(v_in))
    if kind is ActivationKind.TANH:  # the only cell referenced to VSS
        c.add_vsource("vss", "vss", "0", pdk.vss)
    add_activation(c, kind, np.asarray(q, dtype=np.float64), "in", ACTIVATION_OUTPUT_NODE)
    return c


def activation_device_count(kind: ActivationKind) -> int:
    """Number of printed components (R + EGT) in one activation circuit.

    Used by the device-count metric of Table I: every printed component
    occupies area and ink, so the count per circuit matters alongside the
    number of circuits.
    """
    counts = {
        ActivationKind.RELU: 2,  # M1 + R_s
        ActivationKind.CLIPPED_RELU: 4,  # R_d + M1 + R_s + clamp
        ActivationKind.SIGMOID: 6,  # Rd1 + Rd2 + R1 + M1 + R2 + M2
        ActivationKind.TANH: 8,  # Rd1 + Rd2 + R1 + M1 + Rd3 + Rd4 + R2 + M2
    }
    return counts[kind]


NEGATION_DEVICE_COUNT = 2  # R_n + M_n


def simulate_activation(
    kind: ActivationKind,
    q: np.ndarray,
    v_in: float,
    pdk: PDK = DEFAULT_PDK,
) -> tuple[float, float]:
    """Solve the activation circuit at ``v_in``; return ``(v_out, power_W)``.

    For :class:`ActivationKind.TANH` the output node swings between the
    symmetric rails (the pull-up resistor fights a driver sourced at VSS), so
    the raw node voltage is already approximately zero-centred; no extra
    referencing is applied.
    """
    circuit = build_activation_circuit(kind, q, v_in, pdk=pdk)
    op = solve_dc(circuit)
    v_out = op.voltage(ACTIVATION_OUTPUT_NODE)
    return float(v_out), total_power(circuit, op)


def build_negation_circuit(
    q: np.ndarray,
    v_in: float,
    pdk: PDK = DEFAULT_PDK,
) -> Circuit:
    """Inverting amplifier approximating ``neg(V_in) ≈ −V_in``.

    A driver EGT pulls the output toward VSS as the input rises, against a
    load resistor from VDD; with symmetric rails and mid-range gain the small
    signal transfer is ≈ −1 around the origin.
    """
    c = Circuit(name=f"neg@{v_in:.3f}")
    c.add_vsource("vdd", "vdd", "0", pdk.vdd)
    c.add_vsource("vss", "vss", "0", pdk.vss)
    c.add_vsource("vin", "in", "0", float(v_in))
    add_negation(c, np.asarray(q, dtype=np.float64), "in", ACTIVATION_OUTPUT_NODE)
    return c


def simulate_negation(q: np.ndarray, v_in: float, pdk: PDK = DEFAULT_PDK) -> tuple[float, float]:
    """Solve the negation circuit; return ``(v_out, power_W)``."""
    circuit = build_negation_circuit(q, v_in, pdk=pdk)
    op = solve_dc(circuit)
    return float(op.voltage(ACTIVATION_OUTPUT_NODE)), total_power(circuit, op)
