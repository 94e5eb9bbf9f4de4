"""Compile-to-hardware backend: tile mapping, SPICE sign-off, vector export.

Turns a trained printed network into a manufacturable, *verifiable*
artifact: a grid of crossbar tiles respecting per-tile physical constraints
(rows, columns, device count, power), one SPICE netlist and one
stimulus/expected-response vector file per tile, and a checksummed layout
manifest — re-verified from disk by DC-solving every tile group.

Public surface: :func:`compile_model`, :func:`verify_bundle`,
:class:`TileConstraints`, and the error taxonomy (:class:`CompileError` →
:class:`InfeasibleError` / :class:`BundleError`).  The CLI front end is
``repro compile``.
"""

from repro.compile.bundle import (
    BundleError,
    COMPILED_FORMAT,
    COMPILED_SCHEMA_VERSION,
    MANIFEST_NAME,
    load_manifest,
    verify_checksums,
)
from repro.compile.compiler import CompileResult, compile_model
from repro.compile.constraints import CompileError, InfeasibleError, TileConstraints
from repro.compile.netlist_io import merge_circuits, parse_spice_text
from repro.compile.placement import Layout, Route, TilePlan, plan_layout, profile_network
from repro.compile.verify import VerifyReport, verify_bundle

__all__ = [
    "BundleError",
    "COMPILED_FORMAT",
    "COMPILED_SCHEMA_VERSION",
    "CompileError",
    "CompileResult",
    "InfeasibleError",
    "Layout",
    "MANIFEST_NAME",
    "Route",
    "TileConstraints",
    "TilePlan",
    "VerifyReport",
    "compile_model",
    "load_manifest",
    "merge_circuits",
    "parse_spice_text",
    "plan_layout",
    "profile_network",
    "verify_bundle",
    "verify_checksums",
]
