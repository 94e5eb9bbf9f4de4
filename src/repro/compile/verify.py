"""Sign-off: DC-solve every tile group on its exported vectors.

Verification starts from the **files on disk** — checksums first, then the
``.cir`` texts re-parsed into circuits — so it validates the artifact a
foundry would receive, not the in-memory objects that produced it.  The
tiles of each column group merge into one circuit (their shared summing
nodes reconnect by name); for every stimulus vector the group is re-driven
via its stimulus sources and solved, and three gates apply:

1. **Transfer** — every owned active column's activation output must match
   the activation's analytic transfer *at the realized summing voltage*:
   ``|V_a − transfer(V_z)| <= tolerance_v``.  This verifies the tile
   implements its circuit without penalizing activation input loading,
   which legitimately shifts z (and hence a) away from the layered model's
   idealized values — those deviations are recorded as informational.
2. **Decision** — the final layer's SPICE outputs, assembled across groups,
   must argmax to the model's stored decision on *every* vector.
3. **Power** — each tile's measured dissipation (per-element powers summed
   over the tile's own elements) must stay under ``max_power_w`` times a
   safety margin, when a power constraint was compiled in.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.compile.bundle import (
    BundleError,
    load_manifest,
    tile_netlist_path,
    tile_vectors_path,
    verify_checksums,
)
from repro.autograd.tensor import Tensor, no_grad
from repro.circuits.netlist_export import output_node, summing_node
from repro.compile.constraints import CompileError
from repro.compile.netlist_io import merge_circuits, parse_spice_text
from repro.compile.netlists import source_name
from repro.pdk.params import ActivationKind
from repro.pdk.transfer import TransferModel
from repro.spice import rebuild_with_sources, solve_dc
from repro.spice.power import element_powers

#: Measured tile power may exceed the model-side estimate the packer used
#: (activation loading shifts summing-node voltages), so the hard gate
#: applies the compiled ``max_power_w`` with this multiplicative margin.
POWER_MARGIN = 1.5


@dataclass
class TileCheck:
    """Verification outcome of one tile."""

    tile: str
    group: str
    owner: bool
    max_transfer_deviation_v: float  # worst |V_a(spice) − transfer(V_z(spice))|
    max_a_deviation_v: float  # informational: |V_a(spice) − V_a(model)| (owner only)
    max_z_deviation_v: float  # informational
    mean_power_w: float
    ok: bool
    failures: list[str] = field(default_factory=list)


@dataclass
class VerifyReport:
    """Bundle-level verification result."""

    bundle: str
    n_tiles: int
    n_vectors: int
    tiles: list[TileCheck]
    decision_agreement: float
    failures: list[str]
    duration_s: float

    @property
    def ok(self) -> bool:
        return not self.failures and all(t.ok for t in self.tiles)

    def summary(self) -> str:
        worst_t = max((t.max_transfer_deviation_v for t in self.tiles), default=0.0)
        worst_a = max((t.max_a_deviation_v for t in self.tiles), default=0.0)
        lines = [
            f"bundle verification: {self.bundle}",
            f"  tiles             : {self.n_tiles} "
            f"({sum(1 for t in self.tiles if t.ok)} ok)",
            f"  vectors per tile  : {self.n_vectors}",
            f"  decision agreement: {self.decision_agreement * 100:.1f}%",
            f"  worst transfer dev: {worst_t * 1e3:.2f} mV",
            f"  worst |dV_a| model: {worst_a * 1e3:.2f} mV (informational)",
            f"  wall time         : {self.duration_s:.2f} s",
        ]
        for failure in self.failures:
            lines.append(f"  FAIL: {failure}")
        for tile in self.tiles:
            for failure in tile.failures:
                lines.append(f"  FAIL [{tile.tile}]: {failure}")
        if self.ok:
            lines.append("  PASS: all tiles reproduce the layered model")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "bundle": self.bundle,
            "ok": self.ok,
            "n_tiles": self.n_tiles,
            "n_vectors": self.n_vectors,
            "decision_agreement": self.decision_agreement,
            "failures": list(self.failures),
            "tiles": [
                {
                    "tile": t.tile,
                    "group": t.group,
                    "owner": t.owner,
                    "max_transfer_deviation_v": t.max_transfer_deviation_v,
                    "max_a_deviation_v": t.max_a_deviation_v,
                    "max_z_deviation_v": t.max_z_deviation_v,
                    "mean_power_w": t.mean_power_w,
                    "ok": t.ok,
                    "failures": list(t.failures),
                }
                for t in self.tiles
            ],
            "duration_s": self.duration_s,
        }


def verify_bundle(bundle_dir: str | Path, tolerance_v: float | None = None) -> VerifyReport:
    """Re-verify a compiled bundle from disk.

    Raises :class:`BundleError` for a structurally broken or tampered
    bundle; returns a report (possibly with ``ok=False``) when the bundle
    is intact but simulation disagrees with the recorded expectations.
    """
    start = time.perf_counter()
    out = Path(bundle_dir)
    manifest = load_manifest(out)
    verify_checksums(out, manifest)
    if tolerance_v is None:
        tolerance_v = float(manifest.get("tolerance_v", 0.05))
    constraints = manifest["constraints"]
    max_power = constraints.get("max_power_w")

    # Re-parse every tile from disk.
    tiles = manifest["tiles"]
    circuits: dict[str, object] = {}
    vectors: dict[str, dict] = {}
    for tile in tiles:
        tile_id = tile["id"]
        circuits[tile_id] = parse_spice_text((out / tile_netlist_path(tile_id)).read_text())
        vectors[tile_id] = json.loads((out / tile_vectors_path(tile_id)).read_text())

    n_vectors = min((v["n_vectors"] for v in vectors.values()), default=0)
    final_layer = max((t["layer"] for t in tiles), default=0)

    # Group tiles by their column group; each group solves as one circuit.
    groups: dict[str, list[dict]] = {}
    for tile in tiles:
        groups.setdefault(tile["group"], []).append(tile)

    checks: dict[str, TileCheck] = {
        tile["id"]: TileCheck(
            tile=tile["id"],
            group=tile["group"],
            owner=tile["owner"],
            max_transfer_deviation_v=0.0,
            max_a_deviation_v=0.0,
            max_z_deviation_v=0.0,
            mean_power_w=0.0,
            ok=True,
        )
        for tile in tiles
    }
    failures: list[str] = []
    # decision assembly: per vector index, {column: spice voltage} + expected
    spice_logits: dict[int, dict[int, float]] = {k: {} for k in range(n_vectors)}
    expected_decisions: dict[int, int] = {}

    for group_id, members in sorted(groups.items()):
        member_ids = [m["id"] for m in members]
        merged = merge_circuits([circuits[t] for t in member_ids], name=group_id)
        # Dissipating elements per tile, for power attribution in the
        # merged solve (sources/VCVS carry no entries in element_powers).
        tile_elements = {t: circuits[t].element_names() for t in member_ids}
        power_accum = {t: 0.0 for t in member_ids}
        owner = next(m for m in members if m["owner"])
        owner_vectors = vectors[owner["id"]]["vectors"]
        act = vectors[owner["id"]].get("activation")
        transfer = None
        q_tensors: list[Tensor] = []
        if act is not None:
            transfer = TransferModel(ActivationKind(act["kind"]))
            q_tensors = [Tensor(float(v)) for v in act["q"]]

        for k in range(n_vectors):
            overrides: dict[str, float] = {}
            for tile_id in member_ids:
                for node, value in vectors[tile_id]["vectors"][k]["inputs"].items():
                    overrides[source_name(node)] = float(value)
            try:
                solved = rebuild_with_sources(merged, overrides)
            except ValueError as exc:  # a vector drives a source no tile has
                raise CompileError(f"{group_id}: {exc}") from exc
            op = solve_dc(solved)

            powers = element_powers(solved, op)
            for tile_id, names in tile_elements.items():
                power_accum[tile_id] += sum(
                    p for name, p in powers.items() if name in names
                )

            entry = owner_vectors[k]
            check = checks[owner["id"]]
            expected_a = entry.get("expected_a", {})
            # Informational: deviation from the layered model's idealized a
            # (activation input loading legitimately shifts these).
            for node, expected in expected_a.items():
                check.max_a_deviation_v = max(
                    check.max_a_deviation_v, abs(op.voltage(node) - float(expected))
                )
            # Hard transfer gate: a(z) must track the activation's analytic
            # transfer at the summing voltage the circuit actually realized.
            if transfer is not None:
                for j in range(owner["col_start"], owner["col_end"]):
                    a_node = output_node(owner["layer"], j)
                    if a_node not in expected_a:
                        continue
                    z_sp = op.voltage(summing_node(owner["layer"], j))
                    a_sp = op.voltage(a_node)
                    with no_grad():
                        a_pred = float(
                            transfer.output_and_power(
                                Tensor(np.array([z_sp])), q_tensors
                            )[0].data[0]
                        )
                    deviation = abs(a_sp - a_pred)
                    check.max_transfer_deviation_v = max(
                        check.max_transfer_deviation_v, deviation
                    )
                    if deviation > tolerance_v:
                        check.ok = False
                        check.failures.append(
                            f"vector {k}: {a_node} = {a_sp:.4f} V but "
                            f"transfer({z_sp:.4f} V) = {a_pred:.4f} V "
                            f"(|dV| > {tolerance_v} V)"
                        )
            for node, expected in entry.get("expected_z", {}).items():
                check.max_z_deviation_v = max(
                    check.max_z_deviation_v, abs(op.voltage(node) - float(expected))
                )
            if owner["layer"] == final_layer:
                for j in range(owner["col_start"], owner["col_end"]):
                    spice_logits[k][j] = op.voltage(output_node(final_layer, j))
                if "decision" in entry:
                    expected_decisions[k] = int(entry["decision"])

        for tile_id in member_ids:
            check = checks[tile_id]
            check.mean_power_w = power_accum[tile_id] / max(n_vectors, 1)
            if max_power is not None and check.mean_power_w > max_power * POWER_MARGIN:
                check.ok = False
                check.failures.append(
                    f"measured power {check.mean_power_w:.3e} W exceeds "
                    f"max_power_w={max_power:.3e} W × margin {POWER_MARGIN}"
                )

    # Decision gate: assembled final-layer outputs must argmax to the
    # model's decision on every vector.
    agreed = 0
    for k in range(n_vectors):
        columns = spice_logits[k]
        if not columns or k not in expected_decisions:
            failures.append(f"vector {k}: final-layer outputs or decision missing")
            continue
        ordered = [columns[j] for j in sorted(columns)]
        decision = int(np.argmax(ordered))
        if decision == expected_decisions[k]:
            agreed += 1
        else:
            failures.append(
                f"vector {k}: SPICE decision {decision} != model decision "
                f"{expected_decisions[k]}"
            )

    return VerifyReport(
        bundle=str(out),
        n_tiles=len(tiles),
        n_vectors=n_vectors,
        tiles=list(checks.values()),
        decision_agreement=agreed / n_vectors if n_vectors else 0.0,
        failures=failures,
        duration_s=time.perf_counter() - start,
    )
