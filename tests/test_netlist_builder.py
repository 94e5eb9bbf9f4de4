"""One pNC netlist builder: pinned bytes and tile == flat equivalence.

The flat export (:func:`repro.circuits.export_network`) and the compiler's
tiles (:func:`repro.compile.netlists.build_tile_circuit`) print the same
topology through one crossbar-block builder.  Two contracts hold it:

- **Pinned bytes.** The SHA-256 digests below were recorded from the
  builders as they stood before the flat exporter and the tile compiler
  shared one block builder: the ``to_spice_text`` of the flat export, and
  the bytes of every ``.cir`` and vector file of a compiled bundle.  The
  vector digests were recorded from the same builders with every float
  rounded to the netlist's printed precision, as bundles now store them.
  Every digest holds under baseline SIMD too.  A topology change must
  re-record them on purpose.
- **Tile == flat.** Under constraints large enough for one tile per layer,
  each tile holds the flat export's elements of that layer, in the same
  order, once its ``l{L}_x{i}`` inputs are renamed to the flat driver nodes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.circuits import PNCConfig, PrintedNeuralNetwork, export_network
from repro.compile import (
    CompileError,
    TileConstraints,
    compile_model,
    load_manifest,
    plan_layout,
    profile_network,
    verify_bundle,
)
from repro.compile.bundle import MANIFEST_NAME, file_sha256
from repro.compile.netlists import build_tile_circuit, input_node
from repro.pdk.params import ActivationKind
from repro.spice import rebuild_with_sources, solve_dc, total_power
from repro.spice.export import to_spice_text

NEGATIONS = ("ideal", "circuit")
CASES = [(kind, negation) for kind in ActivationKind for negation in NEGATIONS]
GENEROUS = TileConstraints(max_rows=999, max_cols=999)
MULTI_TILE = TileConstraints(max_rows=4, max_cols=2)
STIMULUS = np.random.default_rng(3).random((8, 4))


def _net(kind: ActivationKind) -> PrintedNeuralNetwork:
    """Seeded untrained 4→3→3 net (analytic power mode, no surrogates)."""
    net = PrintedNeuralNetwork(
        4, 3, PNCConfig(kind=kind, power_mode="analytic"), np.random.default_rng(7)
    )
    net.eval()
    return net


def flat_digest(kind: ActivationKind, negation: str) -> str:
    exported = export_network(_net(kind), STIMULUS[0], negation=negation)
    return hashlib.sha256(to_spice_text(exported.circuit).encode()).hexdigest()


def bundle_digests(kind: ActivationKind, negation: str, constraints, out) -> tuple[str, str]:
    """(digest of every ``.cir`` file's bytes, digest of every vector file's bytes)."""
    compile_model(
        _net(kind), constraints, STIMULUS, out, n_vectors=4, negation=negation, verify=False
    )
    checksums = load_manifest(out)["checksums"]
    return tuple(
        hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
        for files in (
            {path: digest for path, digest in checksums.items() if path.endswith(".cir")},
            {path: digest for path, digest in checksums.items() if not path.endswith(".cir")},
        )
    )


#: (kind, negation) → (flat export text, bundle ``.cir`` files, bundle vectors).
PINNED = {
    (ActivationKind.RELU, "ideal"): (
        "d95ca832894dab89593a930b22b4ac6e4052b87846c599e5dd0ca63a0e6e1b3f",
        "dc75620a62d31ae5d6254f5c5150e3122faf49ccf0eae79bf16a56b4bece1524",
        "961d312938f4fdd357ca614f554790981055cd8ed70e0832d1c9d4b78ae5fd22",
    ),
    (ActivationKind.RELU, "circuit"): (
        "6fde49fa398fe28e92975e7ca4d8ec1755bb6d9cd2e6695b73057a63778edef2",
        "581c48b985ac7b07e09028204c5e661160bb0c5a25fc9a072cc360ff5a0f5e4d",
        "961d312938f4fdd357ca614f554790981055cd8ed70e0832d1c9d4b78ae5fd22",
    ),
    (ActivationKind.CLIPPED_RELU, "ideal"): (
        "6c0364722422489217864a33dfcb5217b89d3bc3ec3a0f4cb705c8ff5200602d",
        "538951997ffc1458ae48f9ae0fe1efa1a145745998fa862daa13c59d594f7219",
        "be87a71c707d777218b81f4f90406c9bb9875b19cbd2fa9a50eb1e6a99a5aacf",
    ),
    (ActivationKind.CLIPPED_RELU, "circuit"): (
        "e4ce7a01373c90f3d72ada4db166b7442ee45088771d62d0ad16cd3081ec9f05",
        "6100bc2faa7dacac0800240a1546aafbd4f99070b268f7ec7e4e2064b25489b5",
        "be87a71c707d777218b81f4f90406c9bb9875b19cbd2fa9a50eb1e6a99a5aacf",
    ),
    (ActivationKind.SIGMOID, "ideal"): (
        "ffa7acdc44bdaf523a2e5b0afa3582486c0f0fbfc925b70547c63ff77fe8cd7b",
        "52c4ba8b7bc10004a2c31f872e5957a89ab76fd6d2528eaa5d8cc08e8387288c",
        "a9bbdfc3f721f94746ec8b320cb45bf547c61309b05644d3542c5c7340d14c2b",
    ),
    (ActivationKind.SIGMOID, "circuit"): (
        "286515908940aec0be972ce55ce87b805f57040f12ab774aa5f9da56fb78453c",
        "bea4d3475360b0d9a0852c84e935bc463657021ca6411f695ca8058d0db93f46",
        "a9bbdfc3f721f94746ec8b320cb45bf547c61309b05644d3542c5c7340d14c2b",
    ),
    (ActivationKind.TANH, "ideal"): (
        "a0023da51a5dd8efc3296591dc5f9880914816507c9cc5ff7d1933c5cceb951c",
        "323c7e28db1b2cdc4d16e893e03e5d4339f68ec5cbac626077e23825fac93c9b",
        "9a1d1520def415b8a321a8aa72d59c5271b2d9a547e48fce34d6b8e8231fe9d3",
    ),
    (ActivationKind.TANH, "circuit"): (
        "f9727d920d93377b2bddf49b87643e20c8409733c879e51a229f0be96d211cbb",
        "ff0ed3664559471cccdac76b0e3c9867c1f209b095796eec5c4a4624fb602da2",
        "9a1d1520def415b8a321a8aa72d59c5271b2d9a547e48fce34d6b8e8231fe9d3",
    ),
}
#: p-ReLU with circuit negation on ``MULTI_TILE``: (``.cir`` files, vectors).
PINNED_MULTI_TILE = (
    "ce8b03d1b68630c00ed6bdc391eada890852a2dd99494e158bff2010bc5b939f",
    "832f81c922a4295f888568fc9986b894cbeca0bf887ab62f3b1f9b99681d8652",
)


def _case_id(case) -> str:
    kind, negation = case
    return f"{kind.value}-{negation}"


class TestPinnedNetlistBytes:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_flat_export(self, case):
        assert flat_digest(*case) == PINNED[case][0]

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_one_tile_per_layer_bundle(self, case, tmp_path):
        assert bundle_digests(*case, GENEROUS, tmp_path / "bundle") == PINNED[case][1:]

    def test_multi_tile_bundle(self, tmp_path):
        digests = bundle_digests(
            ActivationKind.RELU, "circuit", MULTI_TILE, tmp_path / "bundle"
        )
        assert digests == PINNED_MULTI_TILE


def _renamed(element, nodes: dict[str, str]):
    """``element`` with every node in ``nodes`` renamed."""
    changes = {
        field.name: nodes.get(value, value)
        for field in dataclasses.fields(element)
        if field.name != "name" and isinstance(value := getattr(element, field.name), str)
    }
    return dataclasses.replace(element, **changes)


class TestTileMatchesFlat:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_each_layer_tile_is_the_flat_layer(self, case):
        """One tile per layer holds the flat export's elements of that
        layer in the same order, once its inputs carry the flat names."""
        kind, negation = case
        net = _net(kind)
        profiles = profile_network(net, STIMULUS)
        layout = plan_layout(profiles, GENEROUS)
        flat = export_network(net, STIMULUS[0], negation=negation).circuit
        for layer in layout.layers:
            (tile,) = layer.tiles
            profile = profiles[layer.index]
            circuit = build_tile_circuit(
                profile, tile, net.config.pdk, negation=negation,
                default_vector=profile.inputs[0],
            )
            L = layer.index
            drivers = {
                input_node(L, i): f"in{i}" if L == 0 else f"l{L - 1}_a{i}"
                for i in range(profile.rows - 2)
            }
            prefix = f"l{L}_"
            for group in ("resistors", "transistors", "vcvs"):
                tile_elements = [_renamed(e, drivers) for e in getattr(circuit, group)]
                flat_elements = [
                    e for e in getattr(flat, group) if e.name.startswith(prefix)
                ]
                assert tile_elements == flat_elements, (L, group)


class TestRestimulus:
    """``rebuild_with_sources``: build once, swap source voltages, solve."""

    def test_unknown_source_raises(self):
        circuit = export_network(_net(ActivationKind.RELU), STIMULUS[0]).circuit
        with pytest.raises(ValueError, match="unknown stimulus sources: \\['vin9'\\]"):
            rebuild_with_sources(circuit, {"vin0": 0.1, "vin9": 0.2})

    def test_only_the_named_sources_change(self):
        circuit = export_network(_net(ActivationKind.TANH), STIMULUS[0], "circuit").circuit
        before = dataclasses.astuple(circuit)
        rebuilt = rebuild_with_sources(circuit, {"vin1": -0.25})
        assert dataclasses.astuple(circuit) == before  # the original is untouched
        for group in ("resistors", "transistors", "vcvs", "capacitors"):
            assert getattr(rebuilt, group) == getattr(circuit, group)
        assert rebuilt.name == circuit.name
        assert [s.name for s in rebuilt.sources] == [s.name for s in circuit.sources]
        for old, new in zip(circuit.sources, rebuilt.sources):
            expected = -0.25 if old.name == "vin1" else old.voltage
            assert new == dataclasses.replace(old, voltage=expected)

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_redriven_solve_equals_a_fresh_build(self, case):
        kind, negation = case
        net = _net(kind)
        built = export_network(net, STIMULUS[0], negation=negation)
        for x in STIMULUS[1:3]:
            fresh = export_network(net, x, negation=negation).circuit
            redriven = rebuild_with_sources(built.circuit, built.stimulus(x))
            op_fresh, op_redriven = solve_dc(fresh), solve_dc(redriven)
            assert op_redriven.node_voltages == op_fresh.node_voltages
            assert op_redriven.source_currents == op_fresh.source_currents
            assert total_power(redriven, op_redriven) == total_power(fresh, op_fresh)

    def test_verify_bundle_reports_an_unknown_source_as_compile_error(self, tmp_path):
        out = tmp_path / "bundle"
        compile_model(_net(ActivationKind.RELU), GENEROUS, STIMULUS, out, n_vectors=2,
                      verify=False)
        manifest = load_manifest(out)
        rel = next(path for path in manifest["checksums"] if path.startswith("vectors/"))
        payload = json.loads((out / rel).read_text())
        payload["vectors"][0]["inputs"]["l0_x99"] = 0.5
        (out / rel).write_text(json.dumps(payload))
        # Re-seal the checksum so the stimulus, not the checksum, is at fault.
        manifest["checksums"][rel] = file_sha256(out / rel)
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CompileError, match="unknown stimulus sources.*vl0_x99"):
            verify_bundle(out)
