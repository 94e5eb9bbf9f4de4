"""Per-tile netlist generation.

Each :class:`~repro.compile.placement.TilePlan` becomes one standalone
:class:`~repro.spice.netlist.Circuit` whose node names are **global to the
layer** — ``l{L}_x{i}`` inputs, ``l{L}_z{j}`` summing nodes, ``l{L}_a{j}``
activation outputs — so the tiles of one column group can be merged
node-for-node into the group circuit the verifier solves (and, on foil, the
inter-tile routes of the layout are exactly the shared node names).

A tile is the flat export's crossbar block builder,
:func:`repro.circuits.netlist_export.add_crossbar_block`, called over the
tile's (row band × column group) block with ``l{L}_x{i}`` drivers, plus:

- one stimulus source per signal row in the band (initialized to the first
  stimulus vector, so the shipped ``.cir`` solves standalone),
- vdd/vss rail sources (identical in every tile; deduplicated on merge).

Only the group's **owner** tile prints activation cells and dead-column
ties; every tile prints the negation cells its own rows need.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.netlist_export import add_crossbar_block
from repro.compile.constraints import CompileError
from repro.compile.placement import LayerProfile, TilePlan
from repro.pdk.params import PDK
from repro.spice import Circuit


# ----------------------------------------------------------------------
# Tile-side node / element naming shared by netlists, vectors and verify
# (summing and output nodes are the flat export's own names).
def input_node(layer: int, row: int) -> str:
    """Node carrying layer ``layer``'s input signal ``row``."""
    return f"l{layer}_x{row}"


def source_name(node: str) -> str:
    """Name of the stimulus source driving ``node``."""
    return f"v{node}"


def tile_signal_rows(profile: LayerProfile, tile: TilePlan) -> list[int]:
    """Signal-row indices (excluding bias/ground rails) in the tile's band."""
    n_signals = profile.rows - 2
    return [row for row in range(tile.row_start, tile.row_end) if row < n_signals]


# ----------------------------------------------------------------------
def build_tile_circuit(
    profile: LayerProfile,
    tile: TilePlan,
    pdk: PDK,
    negation: str = "ideal",
    default_vector: np.ndarray | None = None,
) -> Circuit:
    """Build the standalone netlist of one tile.

    ``default_vector`` supplies the initial stimulus (the layer's model-side
    input voltages, shape ``(M,)``); it defaults to zeros.  The verifier
    swaps the stimulus per test vector via
    :func:`repro.spice.rebuild_with_sources`.
    """
    if negation not in ("ideal", "circuit"):
        raise CompileError("negation must be 'ideal' or 'circuit'")
    layer = tile.layer
    circuit = Circuit(name=tile.id)
    circuit.add_vsource("vdd", "vdd", "0", pdk.vdd)
    circuit.add_vsource("vss", "vss", "0", pdk.vss)

    for row in tile_signal_rows(profile, tile):
        value = 0.0 if default_vector is None else float(default_vector[row])
        node = input_node(layer, row)
        circuit.add_vsource(source_name(node), node, "0", value)

    add_crossbar_block(
        circuit,
        layer,
        profile.theta,
        profile.printed,
        [input_node(layer, row) for row in range(profile.rows - 2)] + ["vdd", "0"],
        range(tile.row_start, tile.row_end),
        range(tile.col_start, tile.col_end),
        kind=profile.kind,
        q=profile.q,
        neg_q=profile.neg_q,
        negation=negation,
        owner=tile.owner,
    )
    return circuit
