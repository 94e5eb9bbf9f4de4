"""The compile pipeline: profile → place → netlist → vectors → bundle → verify.

:func:`compile_model` is the programmatic entry point behind ``repro
compile``.  It accepts any trained :class:`PrintedNeuralNetwork` (live or
rebuilt from a frozen ``.pnz`` artifact), packs it onto tiles under
:class:`TileConstraints`, writes the versioned bundle, and — unless told
otherwise — immediately re-verifies the bundle *from disk*, so a returned
``CompileResult.report.ok`` means the files that were just written
reproduce the layered model.

Instrumentation matches the rest of the pipeline: a ``compile.*`` trace
span around each phase, a ``compile_tiles_total`` counter,
a ``compile_verify_seconds`` histogram, and schema-valid ``compile`` run
events (one per phase) through the optional :class:`RunLogger`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.autograd.tensor import Tensor
from repro.circuits.pnc import PrintedNeuralNetwork
from repro.compile.bundle import (
    tile_netlist_path,
    tile_vectors_path,
    write_bundle,
)
from repro.compile.constraints import TileConstraints
from repro.compile.netlists import build_tile_circuit
from repro.compile.placement import Layout, plan_layout, profile_network
from repro.compile.vectors import tile_vectors
from repro.compile.verify import VerifyReport, verify_bundle
from repro.observability.metrics import get_registry
from repro.observability.tracing import trace_span
from repro.spice.export import to_spice_text

_TILES_TOTAL = get_registry().counter(
    "compile_tiles_total", "tiles produced by the compile-to-hardware backend"
)
_VERIFY_SECONDS = get_registry().histogram(
    "compile_verify_seconds", "wall time of per-tile bundle re-verification"
)


@dataclass
class CompileResult:
    """Everything one compile run produced."""

    layout: Layout
    bundle_dir: Path
    manifest: dict
    report: VerifyReport | None  # None when verify=False


def _emit(run_logger, phase: str, tiles: int, duration_s: float, status: str, **extra):
    if run_logger is not None:
        run_logger.emit(
            "compile", phase=phase, tiles=tiles, duration_s=duration_s, status=status, **extra
        )


def compile_model(
    net: PrintedNeuralNetwork,
    constraints: TileConstraints,
    x: np.ndarray,
    out_dir: str | Path,
    n_vectors: int = 8,
    negation: str = "ideal",
    tolerance_v: float = 0.05,
    provenance: dict | None = None,
    verify: bool = True,
    run_logger=None,
) -> CompileResult:
    """Compile ``net`` to a tiled, verified hardware bundle at ``out_dir``.

    Parameters
    ----------
    net:
        The trained printed network (any power mode).
    constraints:
        Per-tile envelope; infeasible constraints raise
        :class:`~repro.compile.constraints.InfeasibleError`.
    x:
        Stimulus rows ``(n, in_features)``; the first ``n_vectors`` rows
        become the exported test vectors (power attribution uses all rows).
    provenance:
        Free-form origin record for the manifest (artifact metadata, run
        id, CLI config).
    verify:
        Re-verify the bundle from disk before returning (default).
    """
    x = np.asarray(x, dtype=np.float64)
    pdk = net.config.pdk

    with trace_span("compile.place"):
        start = time.perf_counter()
        profiles = profile_network(net, x)
        layout = plan_layout(profiles, constraints)
        _emit(
            run_logger,
            "place",
            layout.n_tiles,
            time.perf_counter() - start,
            "ok",
            layers=len(profiles),
        )
    _TILES_TOTAL.inc(layout.n_tiles)

    n_vectors = min(max(1, n_vectors), x.shape[0])
    with trace_span("compile.netlist"):
        start = time.perf_counter()
        netlists: dict[str, str] = {}
        vectors: dict[str, dict] = {}
        for layer in layout.layers:
            profile = profiles[layer.index]
            for tile in layer.tiles:
                circuit = build_tile_circuit(
                    profile,
                    tile,
                    pdk,
                    negation=negation,
                    default_vector=profile.inputs[0],
                )
                netlists[tile.id] = to_spice_text(circuit, title=tile.id)
                vectors[tile.id] = tile_vectors(profiles, tile, n_vectors)
        _emit(
            run_logger,
            "netlist",
            layout.n_tiles,
            time.perf_counter() - start,
            "ok",
            vectors=n_vectors,
        )

    with trace_span("compile.bundle"):
        start = time.perf_counter()
        model_power = net.power_estimate(Tensor(x))
        manifest = {
            "provenance": provenance or {},
            "constraints": constraints.as_dict(),
            "negation": negation,
            "tolerance_v": tolerance_v,
            "model": {
                "in_features": net.in_features,
                "out_features": net.out_features,
                "kind": net.config.kind.value,
                "hidden": list(net.config.hidden),
                "logit_scale": net.logit_scale,
                "device_count": net.device_count(),
                "model_power_w": model_power,
                "layers": net.n_layers,
            },
            "layers": [
                {
                    "index": layer.index,
                    "rows": layer.rows,
                    "cols": layer.cols,
                    "row_bands": [list(band) for band in layer.row_bands],
                    "col_groups": [list(group) for group in layer.col_groups],
                }
                for layer in layout.layers
            ],
            "tiles": [
                {
                    **tile.as_dict(),
                    "netlist": tile_netlist_path(tile.id),
                    "vectors": tile_vectors_path(tile.id),
                }
                for tile in layout.tiles
            ],
            "routes": [route.as_dict() for route in layout.routes],
            "stimulus": {"n_vectors": n_vectors, "rows_profiled": int(x.shape[0])},
        }
        bundle_dir = write_bundle(out_dir, manifest, netlists, vectors)
        _emit(
            run_logger,
            "bundle",
            layout.n_tiles,
            time.perf_counter() - start,
            "ok",
            out=str(bundle_dir),
        )

    report: VerifyReport | None = None
    if verify:
        with trace_span("compile.verify"):
            report = verify_bundle(bundle_dir, tolerance_v=tolerance_v)
        _VERIFY_SECONDS.observe(report.duration_s)
        _emit(
            run_logger,
            "verify",
            layout.n_tiles,
            report.duration_s,
            "ok" if report.ok else "failed",
            vectors=report.n_vectors,
        )

    return CompileResult(
        layout=layout, bundle_dir=Path(bundle_dir), manifest=manifest, report=report
    )
