"""The one-stamp MNA Newton against the per-element oracle.

:func:`repro.spice.solve_dc` stamps the linear part once and evaluates all
EGTs in one EKV call per iteration; :mod:`tests.mna_oracle` keeps the
per-element solver it replaced.  Both must land on the same operating point
within 1e-12 V on every circuit the package builds: the four activation
cells, the negation cell, the flat network export under both negation modes
and a merged tile group.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import PNCConfig, PrintedNeuralNetwork, export_network
from repro.circuits.negation import NEGATION_NOMINAL_Q
from repro.compile import TileConstraints, plan_layout, profile_network
from repro.compile.netlist_io import merge_circuits
from repro.compile.netlists import build_tile_circuit
from repro.pdk.circuits import build_activation_circuit, build_negation_circuit
from repro.pdk.params import ActivationKind, design_space
from repro.spice import Circuit, rebuild_with_sources, solve_dc
from tests.mna_oracle import oracle_solve_dc

VOLTS = 1e-12
STIMULUS = np.random.default_rng(3).random((4, 4))


def _assert_same_point(circuit: Circuit) -> None:
    got, want = solve_dc(circuit), oracle_solve_dc(circuit)
    assert got.node_voltages.keys() == want.node_voltages.keys()
    worst = max(abs(got.node_voltages[n] - v) for n, v in want.node_voltages.items())
    assert worst <= VOLTS, (circuit.name, worst)
    for name, current in want.source_currents.items():
        assert got.source_currents[name] == pytest.approx(current, rel=1e-9, abs=1e-15)


def _net(kind: ActivationKind) -> PrintedNeuralNetwork:
    net = PrintedNeuralNetwork(
        4, 3, PNCConfig(kind=kind, power_mode="analytic"), np.random.default_rng(7)
    )
    net.eval()
    return net


@pytest.mark.parametrize("kind", list(ActivationKind), ids=lambda k: k.value)
def test_activation_cells(kind):
    space = design_space(kind)
    rng = np.random.default_rng(list(ActivationKind).index(kind))
    for unit in [np.full(space.dimension, 0.5), *rng.uniform(0.05, 0.95, (3, space.dimension))]:
        q = space.from_unit(unit)
        for v_in in (-0.8, -0.2, 0.0, 0.35, 0.9):
            _assert_same_point(build_activation_circuit(kind, q, v_in))


def test_negation_cell():
    for v_in in np.linspace(-1.0, 1.0, 9):
        _assert_same_point(build_negation_circuit(NEGATION_NOMINAL_Q, float(v_in)))


@pytest.mark.parametrize("negation", ["ideal", "circuit"])
@pytest.mark.parametrize("kind", list(ActivationKind), ids=lambda k: k.value)
def test_flat_export(kind, negation):
    exported = export_network(_net(kind), STIMULUS[0], negation=negation)
    for x in STIMULUS:
        _assert_same_point(rebuild_with_sources(exported.circuit, exported.stimulus(x)))


def test_merged_tile_group():
    net = _net(ActivationKind.TANH)
    profiles = profile_network(net, STIMULUS)
    layout = plan_layout(profiles, TileConstraints(max_rows=4, max_cols=2))
    merged_groups = 0
    for layer in layout.layers:
        profile = profiles[layer.index]
        groups: dict[str, list] = {}
        for tile in layer.tiles:
            groups.setdefault(tile.group, []).append(tile)
        for group, tiles in groups.items():
            circuits = [
                build_tile_circuit(
                    profile, tile, net.config.pdk, negation="circuit",
                    default_vector=profile.inputs[0],
                )
                for tile in tiles
            ]
            merged_groups += len(tiles) > 1
            _assert_same_point(merge_circuits(circuits, name=group))
    assert merged_groups > 0
