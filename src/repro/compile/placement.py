"""Placement: split trained layers into constraint-respecting crossbar tiles.

The compiler's first pass profiles the trained network on the stimulus batch
(:func:`profile_network`) — per-layer node voltages plus *physical* power
attribution per crossbar resistor, per negation row, and per activation
column, all from the analytic transfer models so live (surrogate-mode) nets
and artifact-rebuilt (analytic-mode) nets compile identically.

The second pass (:func:`plan_layout`) packs each layer onto a grid of tiles:

- **row bands** — the layer's extended rows (M signals + bias + pull-down)
  are cut into contiguous bands of at most ``max_rows``,
- **column groups** — columns start in bands of ``max_cols``; any band whose
  tiles exceed the device or power budget is halved recursively until every
  tile fits.  A single-column band that still violates is genuinely
  unschedulable → :class:`~repro.compile.constraints.InfeasibleError`.

Each (row band × column group) is one :class:`TilePlan`.  The **owner** tile
of a column group (row band 0) additionally hosts the group's activation
circuits.  Negation circuits are printed per tile (each tile negates its own
rows locally rather than routing negated rails between tiles), so summed
tile device counts can exceed :meth:`PrintedNeuralNetwork.device_count`.

Inter-tile nets are recorded as :class:`Route` entries: ``summing`` routes
join the split halves of a crossbar column onto the owner's summing node
within a layer; ``signal`` routes carry an activation output to every
next-layer tile whose row band includes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.compile.constraints import TileConstraints, InfeasibleError
from repro.pdk.circuits import activation_device_count, NEGATION_DEVICE_COUNT
from repro.pdk.params import ActivationKind
from repro.pdk.transfer import NegationModel
from repro.power.crossbar_power import crossbar_power_matrix_signed


# ----------------------------------------------------------------------
@dataclass
class LayerProfile:
    """Everything the packer and netlister need to know about one layer."""

    index: int
    kind: ActivationKind
    q: np.ndarray  # activation design parameters (shared by the layer)
    neg_q: np.ndarray  # negation design parameters (the net's)
    inputs: np.ndarray  # (n, M) model-side layer inputs (stimulus)
    v_ext: np.ndarray  # (n, R) extended inputs: signals + bias + ground
    z: np.ndarray  # (n, N) crossbar summing-node voltages
    a: np.ndarray  # (n, N) activation outputs
    theta: np.ndarray  # (R, N) effective surrogate conductances, µS
    printed: np.ndarray  # (R, N) bool: |θ| above the prune threshold
    active_cols: np.ndarray  # (N,) bool: column has any printed resistor
    negated_rows: np.ndarray  # (R, N) bool: printed AND θ < 0
    resistor_power: np.ndarray  # (R, N) batch-mean dissipation, W
    activation_power: np.ndarray  # (N,) batch-mean dissipation, W
    negation_power: np.ndarray  # (R,) batch-mean dissipation per negated row, W

    @property
    def rows(self) -> int:
        return self.theta.shape[0]

    @property
    def cols(self) -> int:
        return self.theta.shape[1]


def profile_network(net: PrintedNeuralNetwork, x: np.ndarray) -> list[LayerProfile]:
    """Evaluate ``net`` on stimulus ``x`` and attribute power per component.

    All power attribution uses the analytic transfer models (not training
    surrogates), so the estimate depends only on the trained parameters and
    the PDK — identical for a live net and its reloaded ``.pnz`` artifact.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.in_features:
        raise ValueError(f"stimulus must be (n, {net.in_features}), got {x.shape}")
    pdk = net.config.pdk
    threshold = pdk.prune_threshold_us
    neg_model = NegationModel(pdk=pdk)
    neg_q = [Tensor(v) for v in net.neg_q]

    profiles: list[LayerProfile] = []
    was_training = net.training
    net.eval()
    try:
        with no_grad():
            signal = Tensor(x)
            for index, (crossbar, activation) in enumerate(
                zip(net.crossbars(), net.activations())
            ):
                theta_t = crossbar.effective_theta()
                v_ext_t = crossbar.extend_inputs(signal)
                v_z_t = crossbar.forward(signal, theta=theta_t)
                a_t, af_power_t = activation.output_and_power(v_z_t)

                theta = theta_t.data.copy()
                printed = np.abs(theta) > threshold
                r_power = crossbar_power_matrix_signed(
                    theta_t, v_ext_t, -v_ext_t, v_z_t
                ).data.copy()
                _, neg_power_t = neg_model.output_and_power(v_ext_t, neg_q)

                profiles.append(
                    LayerProfile(
                        index=index,
                        kind=activation.kind,
                        q=activation.q_values(),
                        neg_q=np.asarray(net.neg_q, dtype=np.float64).copy(),
                        inputs=signal.data.copy(),
                        v_ext=v_ext_t.data.copy(),
                        z=v_z_t.data.copy(),
                        a=a_t.data.copy(),
                        theta=theta,
                        printed=printed,
                        active_cols=printed.any(axis=0),
                        negated_rows=printed & (theta < 0.0),
                        resistor_power=r_power,
                        activation_power=af_power_t.data.mean(axis=0).copy(),
                        negation_power=neg_power_t.data.mean(axis=0).copy(),
                    )
                )
                signal = a_t
    finally:
        net.train(was_training)
    return profiles


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TilePlan:
    """One physical crossbar tile: a (row band × column group) block."""

    id: str  # "t{layer}r{band}c{group}"
    layer: int
    row_start: int
    row_end: int  # extended-row slice [row_start, row_end)
    col_start: int
    col_end: int  # column slice [col_start, col_end)
    owner: bool  # hosts the group's activation circuits
    group: str  # "g{layer}c{group}" — tiles sharing summing nodes
    devices: int
    est_power_w: float

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "layer": self.layer,
            "row_start": self.row_start,
            "row_end": self.row_end,
            "col_start": self.col_start,
            "col_end": self.col_end,
            "owner": self.owner,
            "group": self.group,
            "devices": self.devices,
            "est_power_w": self.est_power_w,
        }


@dataclass(frozen=True)
class Route:
    """One inter-tile net.

    ``summing`` — a split crossbar column: the source tile's resistor
    currents join the owner tile's summing node.  ``signal`` — an activation
    output feeding a next-layer tile's input row.
    """

    kind: str  # "summing" | "signal"
    net: str  # global node name, e.g. "l0_z2" / "l0_a1"
    src: str  # tile id
    dst: str  # tile id

    def as_dict(self) -> dict:
        return {"kind": self.kind, "net": self.net, "src": self.src, "dst": self.dst}


@dataclass
class LayerLayout:
    """The tiling of one layer."""

    index: int
    rows: int
    cols: int
    row_bands: list[tuple[int, int]]
    col_groups: list[tuple[int, int]]
    tiles: list[TilePlan] = field(default_factory=list)


@dataclass
class Layout:
    """The full placed design: tiles plus inter-tile routing."""

    constraints: TileConstraints
    layers: list[LayerLayout]
    routes: list[Route]

    @property
    def tiles(self) -> list[TilePlan]:
        return [tile for layer in self.layers for tile in layer.tiles]

    def tile(self, tile_id: str) -> TilePlan:
        for t in self.tiles:
            if t.id == tile_id:
                return t
        raise KeyError(tile_id)

    @property
    def n_tiles(self) -> int:
        return sum(len(layer.tiles) for layer in self.layers)


# ----------------------------------------------------------------------
def _bands(total: int, size: int) -> list[tuple[int, int]]:
    """Cut ``[0, total)`` into contiguous chunks of at most ``size``."""
    return [(start, min(start + size, total)) for start in range(0, total, size)]


def _tile_cost(
    profile: LayerProfile,
    row_band: tuple[int, int],
    cols: tuple[int, int],
    owner: bool,
) -> tuple[int, float]:
    """(devices, estimated power W) of one candidate tile block."""
    r0, r1 = row_band
    c0, c1 = cols
    printed = profile.printed[r0:r1, c0:c1]
    devices = int(printed.sum())
    power = float(profile.resistor_power[r0:r1, c0:c1].sum())
    neg_rows = profile.negated_rows[r0:r1, c0:c1].any(axis=1)
    devices += int(neg_rows.sum()) * NEGATION_DEVICE_COUNT
    power += float(profile.negation_power[r0:r1][neg_rows].sum())
    if owner:
        active = profile.active_cols[c0:c1]
        devices += int(active.sum()) * activation_device_count(profile.kind)
        power += float(profile.activation_power[c0:c1][active].sum())
    return devices, power


def _check_group(
    profile: LayerProfile,
    row_bands: list[tuple[int, int]],
    cols: tuple[int, int],
    constraints: TileConstraints,
) -> dict | None:
    """Worst constraint violation of the candidate column group, or None."""
    worst: dict | None = None
    for band_index, band in enumerate(row_bands):
        devices, power = _tile_cost(profile, band, cols, owner=band_index == 0)
        if constraints.max_devices is not None and devices > constraints.max_devices:
            violation = {
                "reason": "tile_devices",
                "value": devices,
                "limit": constraints.max_devices,
            }
        elif constraints.max_power_w is not None and power > constraints.max_power_w:
            violation = {
                "reason": "tile_power",
                "value": power,
                "limit": constraints.max_power_w,
            }
        else:
            continue
        violation["row_band"] = list(band)
        if worst is None or violation["value"] / violation["limit"] > worst["value"] / worst["limit"]:
            worst = violation
    return worst


def _split_columns(
    profile: LayerProfile,
    row_bands: list[tuple[int, int]],
    cols: tuple[int, int],
    constraints: TileConstraints,
) -> list[tuple[int, int]]:
    """Recursively halve a column interval until every tile fits."""
    violation = _check_group(profile, row_bands, cols, constraints)
    if violation is None:
        return [cols]
    c0, c1 = cols
    if c1 - c0 <= 1:
        reason = violation["reason"]
        limit_name = "max_devices" if reason == "tile_devices" else "max_power_w"
        message = (
            f"layer {profile.index} column {c0} cannot fit any tile: a single-column "
            f"tile over rows {violation['row_band']} needs "
            f"{violation['value']:.6g} against {limit_name}={violation['limit']:.6g}"
        )
        raise InfeasibleError(
            message,
            {
                "reason": reason,
                "layer": profile.index,
                "column": c0,
                "row_band": violation["row_band"],
                "value": float(violation["value"]),
                "limit": float(violation["limit"]),
                "message": message,
                "constraints": constraints.as_dict(),
            },
        )
    mid = (c0 + c1) // 2
    return _split_columns(profile, row_bands, (c0, mid), constraints) + _split_columns(
        profile, row_bands, (mid, c1), constraints
    )


def plan_layout(profiles: list[LayerProfile], constraints: TileConstraints) -> Layout:
    """Pack every layer onto tiles; raises :class:`InfeasibleError` if impossible."""
    layers: list[LayerLayout] = []
    routes: list[Route] = []

    for profile in profiles:
        row_bands = _bands(profile.rows, constraints.max_rows)
        col_groups: list[tuple[int, int]] = []
        for band in _bands(profile.cols, constraints.max_cols):
            col_groups.extend(_split_columns(profile, row_bands, band, constraints))

        layout = LayerLayout(
            index=profile.index,
            rows=profile.rows,
            cols=profile.cols,
            row_bands=row_bands,
            col_groups=col_groups,
        )
        for group_index, cols in enumerate(col_groups):
            group_id = f"g{profile.index}c{group_index}"
            owner_id = f"t{profile.index}r0c{group_index}"
            for band_index, band in enumerate(row_bands):
                owner = band_index == 0
                devices, power = _tile_cost(profile, band, cols, owner=owner)
                tile = TilePlan(
                    id=f"t{profile.index}r{band_index}c{group_index}",
                    layer=profile.index,
                    row_start=band[0],
                    row_end=band[1],
                    col_start=cols[0],
                    col_end=cols[1],
                    owner=owner,
                    group=group_id,
                    devices=devices,
                    est_power_w=power,
                )
                layout.tiles.append(tile)
                if not owner:
                    # Any printed column in a non-owner band joins the
                    # owner's summing node over an inter-tile net.
                    for j in range(cols[0], cols[1]):
                        if profile.printed[band[0] : band[1], j].any():
                            routes.append(
                                Route("summing", f"l{profile.index}_z{j}", tile.id, owner_id)
                            )
        layers.append(layout)

    # Signal routes: layer ℓ activation outputs feed layer ℓ+1 input rows.
    for upstream, downstream in zip(layers[:-1], layers[1:]):
        profile = profiles[downstream.index]
        for j in range(upstream.cols):
            src = _owner_of_column(upstream, j)
            net = f"l{upstream.index}_a{j}"
            for tile in downstream.tiles:
                if tile.row_start <= j < tile.row_end and profile.printed[
                    j, tile.col_start : tile.col_end
                ].any():
                    routes.append(Route("signal", net, src, tile.id))

    return Layout(constraints=constraints, layers=layers, routes=routes)


def _owner_of_column(layer: LayerLayout, column: int) -> str:
    for tile in layer.tiles:
        if tile.owner and tile.col_start <= column < tile.col_end:
            return tile.id
    raise KeyError(f"layer {layer.index} has no owner tile for column {column}")
