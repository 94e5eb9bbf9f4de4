"""Flatten a trained printed network into one verifiable circuit netlist.

The training model evaluates the pNC layer by layer with idealized
interfaces (crossbar outputs are unloaded, negation is exactly −V).  Before
"printing", one wants a tape-out check: build the *entire* classifier as a
single flat netlist — every crossbar resistor, every negation circuit,
every activation circuit — solve its DC operating point with the MNA
simulator, and compare outputs, decisions, and power against the layered
model.  The deviations quantify exactly the interface idealizations:

- negation: ``ideal`` mode uses a gain −1 VCVS (matching the model's
  ``neg(V) = −V``); ``circuit`` mode prints the real inverting amplifier,
  exposing its finite gain,
- activation input loading: the p-sigmoid/p-tanh gate dividers draw current
  from the crossbar summing nodes, which the layered model ignores.

This module owns the pNC topology.  :func:`add_crossbar_block` prints any
(row range × column range) block of a layer — printed resistors, per-row
negation, dead-column ties and the columns' activation cells from
:mod:`repro.pdk.circuits`.  :func:`export_network` calls it once per whole
layer; the compiler's tiles (:func:`repro.compile.netlists.build_tile_circuit`)
call it once per tile.

Entry points: :func:`export_network` (netlist for one input sample) and
:func:`verify_against_model` (batch comparison report).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.pdk.circuits import add_activation, add_negation
from repro.pdk.params import ActivationKind
from repro.spice import Circuit, rebuild_with_sources, solve_dc, total_power

MICRO = 1.0e-6


def summing_node(layer: int, col: int) -> str:
    """Crossbar summing node of column ``col``."""
    return f"l{layer}_z{col}"


def output_node(layer: int, col: int) -> str:
    """Activation output node of column ``col``."""
    return f"l{layer}_a{col}"


def add_crossbar_block(
    circuit: Circuit,
    layer: int,
    theta: np.ndarray,
    printed: np.ndarray,
    drivers: Sequence[str],
    rows: range,
    cols: range,
    *,
    kind: ActivationKind,
    q: np.ndarray,
    neg_q: np.ndarray,
    negation: str,
    owner: bool = True,
) -> None:
    """Print the ``rows × cols`` block of layer ``layer``'s crossbar.

    ``theta`` holds the layer's effective conductances (µS) over all its
    extended rows, ``printed`` which of them survive pruning, and
    ``drivers`` the node driving each extended row (signals, bias rail,
    ground).  The block gets one printed resistor per printed entry into
    its column's summing node, a negation cell per row that needs one
    (ideal gain −1 VCVS or the printed inverter with parameters ``neg_q``),
    and, when it is the column's ``owner``, the column's activation cell
    ``kind``/``q`` — or, for a column with nothing printed, gain-0 VCVS
    ties pinning both of its nodes to ground.
    """
    negated: dict[int, str] = {}

    def negation_node(row: int) -> str:
        if row not in negated:
            node = f"l{layer}_neg{row}"
            if negation == "ideal":
                circuit.add_vcvs(f"l{layer}_eneg{row}", node, "0", drivers[row], "0", -1.0)
            else:
                add_negation(circuit, neg_q, drivers[row], node, f"l{layer}_", str(row))
            negated[row] = node
        return negated[row]

    for j in cols:
        z_node, a_node = summing_node(layer, j), output_node(layer, j)
        if not printed[:, j].any():
            # Dead column: neither resistors nor activation are printed; the
            # downstream crossbar sees a quiet wire (a tie adds no RC dynamics).
            if owner:
                circuit.add_vcvs(f"l{layer}_ztie{j}", z_node, "0", "0", "0", 0.0)
                circuit.add_vcvs(f"l{layer}_atie{j}", a_node, "0", "0", "0", 0.0)
            continue
        for i in rows:
            if not printed[i, j]:
                continue
            value = theta[i, j]
            driver = drivers[i] if value >= 0 else negation_node(i)
            circuit.add_resistor(f"l{layer}_r{i}_{j}", driver, z_node, 1.0 / (abs(value) * MICRO))
        if owner:
            add_activation(circuit, kind, q, z_node, a_node, prefix=f"l{layer}_af{j}_")


@dataclass
class ExportedNetwork:
    """A flattened pNC netlist plus its signal-node bookkeeping."""

    circuit: Circuit
    output_nodes: list[str]
    summing_nodes: list[list[str]]  # per layer

    @staticmethod
    def stimulus(x: np.ndarray) -> dict[str, float]:
        """Input-source voltages that apply sample ``x``."""
        return {f"vin{i}": float(value) for i, value in enumerate(np.ravel(x))}

    def solve(self, x: np.ndarray | None = None) -> tuple[np.ndarray, float]:
        """DC-solve at sample ``x`` (default: the exported one); return
        (output voltages, total dissipated power W).

        A new sample re-drives the input sources of the one built circuit.
        """
        circuit = self.circuit
        if x is not None:
            circuit = rebuild_with_sources(circuit, self.stimulus(x))
        op = solve_dc(circuit)
        outputs = np.array([op.voltage(node) for node in self.output_nodes])
        return outputs, total_power(circuit, op)


def export_network(
    net: PrintedNeuralNetwork,
    x: np.ndarray,
    negation: str = "ideal",
) -> ExportedNetwork:
    """Flatten ``net`` evaluated at input sample ``x`` into one netlist.

    Parameters
    ----------
    net:
        A (trained) printed network in any power mode.
    x:
        One input sample, shape ``(in_features,)`` — the features become
        input voltage sources.
    negation:
        ``"ideal"`` (gain −1 VCVS, matches the training model) or
        ``"circuit"`` (the real printed inverting amplifier).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != net.in_features:
        raise ValueError(f"expected {net.in_features} features, got {x.shape[0]}")
    if negation not in ("ideal", "circuit"):
        raise ValueError("negation must be 'ideal' or 'circuit'")

    pdk = net.config.pdk
    circuit = Circuit(name="pnc-flat")
    circuit.add_vsource("vdd", "vdd", "0", pdk.vdd)
    circuit.add_vsource("vss", "vss", "0", pdk.vss)
    signal_nodes: list[str] = []
    for i, value in enumerate(x):
        circuit.add_vsource(f"vin{i}", f"in{i}", "0", float(value))
        signal_nodes.append(f"in{i}")

    summing_nodes: list[list[str]] = []
    for layer, (crossbar, activation) in enumerate(zip(net.crossbars(), net.activations())):
        theta = crossbar.effective_theta().data
        rows, cols = theta.shape
        add_crossbar_block(
            circuit,
            layer,
            theta,
            np.abs(theta) > pdk.prune_threshold_us,
            signal_nodes + ["vdd", "0"],
            range(rows),
            range(cols),
            kind=activation.kind,
            q=activation.q_values(),
            neg_q=net.neg_q,
            negation=negation,
        )
        summing_nodes.append([summing_node(layer, j) for j in range(cols)])
        signal_nodes = [output_node(layer, j) for j in range(cols)]

    return ExportedNetwork(circuit, signal_nodes, summing_nodes)


@dataclass
class VerificationReport:
    """Model-vs-flat-netlist comparison over a batch of samples."""

    model_outputs: np.ndarray  # (n, out)
    spice_outputs: np.ndarray  # (n, out)
    model_decisions: np.ndarray
    spice_decisions: np.ndarray
    spice_powers: np.ndarray  # (n,)
    model_power: float

    @property
    def n_samples(self) -> int:
        return len(self.spice_powers)

    @property
    def decision_agreement(self) -> float:
        """Fraction of samples where model and flat netlist agree on argmax."""
        return float((self.model_decisions == self.spice_decisions).mean())

    @property
    def max_output_deviation(self) -> float:
        """Worst absolute output-voltage difference (V)."""
        return float(np.abs(self.model_outputs - self.spice_outputs).max())

    @property
    def mean_output_deviation(self) -> float:
        return float(np.abs(self.model_outputs - self.spice_outputs).mean())

    def summary(self) -> str:
        return (
            f"flat-netlist verification over {self.n_samples} samples:\n"
            f"  decision agreement : {self.decision_agreement * 100:.1f}%\n"
            f"  output |dV|        : mean {self.mean_output_deviation * 1e3:.2f} mV, "
            f"max {self.max_output_deviation * 1e3:.2f} mV\n"
            f"  power              : SPICE mean {self.spice_powers.mean() * 1e3:.4f} mW "
            f"vs model {self.model_power * 1e3:.4f} mW"
        )


def verify_against_model(
    net: PrintedNeuralNetwork,
    x: np.ndarray,
    n_samples: int = 16,
    negation: str = "ideal",
) -> VerificationReport:
    """Cross-validate the layered model against full flat-netlist SPICE.

    Builds the flattened classifier once, re-drives its input sources with
    each of the first ``n_samples`` rows of ``x``, and compares output voltages, argmax decisions and power against
    the training model's forward pass.
    """
    x = np.asarray(x, dtype=np.float64)
    x = x[: max(1, n_samples)]
    was_training = net.training
    net.eval()
    try:
        with no_grad():
            logits, breakdown = net.forward_with_power(Tensor(x))
        model_outputs = logits.data / net.logit_scale
        model_power = float(breakdown.total.data)

        exported = export_network(net, x[0], negation=negation)
        spice_outputs = np.zeros_like(model_outputs)
        spice_powers = np.zeros(len(x))
        for index, sample in enumerate(x):
            spice_outputs[index], spice_powers[index] = exported.solve(sample)
    finally:
        net.train(was_training)

    return VerificationReport(
        model_outputs=model_outputs,
        spice_outputs=spice_outputs,
        model_decisions=model_outputs.argmax(axis=1),
        spice_decisions=spice_outputs.argmax(axis=1),
        spice_powers=spice_powers,
        model_power=model_power,
    )
