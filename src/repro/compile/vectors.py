"""Per-tile stimulus / expected-response test vectors.

Every tile ships a JSON vector file: for each stimulus vector the voltages
to drive on the tile's input sources, and — on the group's owner tile — the
layered model's expected summing-node and activation-output voltages for
the group's columns.  Final-layer owner tiles additionally carry the
model's argmax decision, the hard sign-off criterion.

Verification is **layer-local**: each layer's tiles are driven by the
*model's* inputs to that layer (not the previous group's SPICE outputs), so
a voltage check isolates the tile under test instead of compounding
upstream deviations.  The decision check then runs on the final layer's
SPICE outputs, which is the quantity the printed classifier must get right.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.netlist_export import output_node, summing_node
from repro.compile.netlists import input_node, tile_signal_rows
from repro.compile.placement import LayerProfile, TilePlan


def layer_decisions(profiles: list[LayerProfile]) -> np.ndarray:
    """Model argmax decisions per stimulus vector (from final-layer outputs).

    The network's logit scale is a positive scalar, so the argmax over the
    raw output-neuron voltages equals the argmax over logits.
    """
    return profiles[-1].a.argmax(axis=1)


def tile_vectors(
    profiles: list[LayerProfile],
    tile: TilePlan,
    n_vectors: int,
) -> dict:
    """JSON-safe vector payload for one tile."""
    profile = profiles[tile.layer]
    final_layer = tile.layer == len(profiles) - 1
    decisions = layer_decisions(profiles) if (final_layer and tile.owner) else None
    n = min(n_vectors, profile.inputs.shape[0])
    signal_rows = tile_signal_rows(profile, tile)
    input_nodes = [input_node(tile.layer, row) for row in signal_rows]

    vectors = []
    for index in range(n):
        entry: dict = {
            "index": index,
            "inputs": {
                node: float(profile.inputs[index, row])
                for node, row in zip(input_nodes, signal_rows)
            },
        }
        if tile.owner:
            active = [
                j
                for j in range(tile.col_start, tile.col_end)
                if profile.active_cols[j]
            ]
            entry["expected_z"] = {
                summing_node(tile.layer, j): float(profile.z[index, j]) for j in active
            }
            entry["expected_a"] = {
                output_node(tile.layer, j): float(profile.a[index, j]) for j in active
            }
        if decisions is not None:
            entry["decision"] = int(decisions[index])
        vectors.append(entry)

    payload = {
        "tile": tile.id,
        "layer": tile.layer,
        "group": tile.group,
        "owner": tile.owner,
        "input_nodes": input_nodes,
        "n_vectors": n,
        "vectors": vectors,
    }
    if tile.owner:
        # The activation's analytic transfer (kind + design parameters) is
        # the functional contract the verifier holds each owner tile to:
        # a(z) must track the transfer at the *realized* summing voltage.
        payload["activation"] = {
            "kind": profile.kind.value,
            "q": [float(v) for v in np.asarray(profile.q).ravel()],
        }
    return payload
