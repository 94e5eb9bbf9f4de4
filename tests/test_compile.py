"""Tests for the compile-to-hardware backend (repro.compile).

The acceptance contract: a trained classifier packed onto tiles *smaller
than its largest layer* must still reproduce the layered model's decisions
on every exported vector when the tile netlists are re-parsed from disk and
DC-solved; infeasible constraints must fail with a structured diagnostic;
a tampered bundle must be rejected before any simulation runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import PNCConfig, PrintedNeuralNetwork
from repro.compile import (
    BundleError,
    COMPILED_FORMAT,
    COMPILED_SCHEMA_VERSION,
    CompileError,
    InfeasibleError,
    TileConstraints,
    compile_model,
    load_manifest,
    plan_layout,
    profile_network,
    verify_bundle,
    verify_checksums,
)
from repro.compile.bundle import file_sha256
from repro.datasets import load_dataset, train_val_test_split
from repro.observability.events import ListSink, RunLogger, validate_event
from repro.pdk.params import ActivationKind
from repro.training import TrainerSettings, train_power_constrained

#: Tile envelope deliberately smaller than the largest iris layer (6
#: extended rows × 3 columns), so every compile below is multi-tile.
SMALL = TileConstraints(max_rows=4, max_cols=2)


def _analytic_net(seed: int = 7) -> PrintedNeuralNetwork:
    """Cheap untrained 4→3→3 net (analytic power mode, no surrogates)."""
    net = PrintedNeuralNetwork(
        4, 3,
        PNCConfig(kind=ActivationKind.RELU, power_mode="analytic"),
        np.random.default_rng(seed),
    )
    net.eval()
    return net


@pytest.fixture(scope="module")
def net():
    return _analytic_net()


@pytest.fixture(scope="module")
def stimulus():
    return np.random.default_rng(3).random((16, 4))


@pytest.fixture(scope="module")
def profiles(net, stimulus):
    return profile_network(net, stimulus)


@pytest.fixture(scope="module")
def compiled(net, stimulus, tmp_path_factory):
    """One shared compile run: (CompileResult, emitted events, bundle dir)."""
    sink = ListSink()
    out = tmp_path_factory.mktemp("bundle") / "compiled"
    result = compile_model(
        net, SMALL, stimulus, out, n_vectors=4, run_logger=RunLogger(sink)
    )
    return result, sink.events, out


# ----------------------------------------------------------------------
class TestTileConstraints:
    def test_validation(self):
        with pytest.raises(CompileError, match="max_rows"):
            TileConstraints(max_rows=0, max_cols=2)
        with pytest.raises(CompileError, match="max_cols"):
            TileConstraints(max_rows=4, max_cols=0)
        with pytest.raises(CompileError, match="max_power_w"):
            TileConstraints(max_rows=4, max_cols=2, max_power_w=0.0)
        with pytest.raises(CompileError, match="max_devices"):
            TileConstraints(max_rows=4, max_cols=2, max_devices=0)

    def test_dict_round_trip(self):
        c = TileConstraints(max_rows=4, max_cols=2, max_devices=30, max_power_w=1e-4)
        assert TileConstraints.from_dict(c.as_dict()) == c
        assert TileConstraints.from_dict(json.loads(json.dumps(c.as_dict()))) == c


class TestProfile:
    def test_one_profile_per_layer_with_extended_rows(self, net, profiles):
        assert len(profiles) == net.n_layers
        assert profiles[0].rows == 4 + 2  # M signals + bias + pull-down
        assert profiles[1].rows == 3 + 2
        assert profiles[0].cols == profiles[1].cols == 3

    def test_printed_mask_matches_prune_threshold(self, net, profiles):
        threshold = net.config.pdk.prune_threshold_us
        for profile in profiles:
            np.testing.assert_array_equal(
                profile.printed, np.abs(profile.theta) > threshold
            )
            np.testing.assert_array_equal(
                profile.negated_rows, profile.printed & (profile.theta < 0)
            )

    def test_power_attribution_is_finite_and_nonnegative(self, profiles):
        for profile in profiles:
            assert np.all(np.isfinite(profile.resistor_power))
            assert np.all(profile.resistor_power >= 0)
            assert np.all(profile.activation_power >= 0)

    def test_bad_stimulus_shape_raises(self, net):
        with pytest.raises(ValueError, match="stimulus"):
            profile_network(net, np.zeros((5, 9)))


class TestPlacement:
    def test_tiles_smaller_than_layer_split_into_bands_and_groups(self, profiles):
        layout = plan_layout(profiles, SMALL)
        assert layout.n_tiles == 8  # (2 bands × 2 groups) per layer
        assert layout.layers[0].row_bands == [(0, 4), (4, 6)]
        assert layout.layers[0].col_groups == [(0, 2), (2, 3)]

    def test_exactly_one_owner_per_group_at_band_zero(self, profiles):
        layout = plan_layout(profiles, SMALL)
        groups: dict[str, list] = {}
        for tile in layout.tiles:
            groups.setdefault(tile.group, []).append(tile)
        for members in groups.values():
            owners = [t for t in members if t.owner]
            assert len(owners) == 1
            assert owners[0].row_start == 0

    def test_tile_blocks_partition_every_printed_resistor(self, profiles):
        # Each printed resistor lands in exactly one tile: the tile blocks
        # of a layer are disjoint and cover the full (rows × cols) grid.
        layout = plan_layout(profiles, SMALL)
        for layer in layout.layers:
            profile = profiles[layer.index]
            covered = np.zeros((profile.rows, profile.cols), dtype=int)
            for tile in layer.tiles:
                covered[tile.row_start:tile.row_end, tile.col_start:tile.col_end] += 1
            np.testing.assert_array_equal(covered, 1)

    def test_summing_routes_join_nonowner_tiles_to_their_owner(self, profiles):
        layout = plan_layout(profiles, SMALL)
        summing = [r for r in layout.routes if r.kind == "summing"]
        assert summing, "split row bands must produce summing routes"
        for route in summing:
            src, dst = layout.tile(route.src), layout.tile(route.dst)
            assert not src.owner and dst.owner
            assert src.group == dst.group
            # The net names the summing node of a column the source holds.
            column = int(route.net.split("_z")[1])
            assert src.col_start <= column < src.col_end

    def test_signal_routes_feed_next_layer_rows(self, profiles):
        layout = plan_layout(profiles, SMALL)
        signal = [r for r in layout.routes if r.kind == "signal"]
        assert signal, "a two-layer net must route activations forward"
        for route in signal:
            src, dst = layout.tile(route.src), layout.tile(route.dst)
            assert src.owner and src.layer == dst.layer - 1
            row = int(route.net.split("_a")[1])
            assert dst.row_start <= row < dst.row_end

    def test_infeasible_power_raises_structured_diagnostic(self, profiles):
        tight = TileConstraints(max_rows=4, max_cols=2, max_power_w=1e-15)
        with pytest.raises(InfeasibleError) as excinfo:
            plan_layout(profiles, tight)
        diag = excinfo.value.diagnostic
        assert diag["reason"] == "tile_power"
        assert diag["limit"] == 1e-15
        assert diag["value"] > diag["limit"]
        assert isinstance(diag["layer"], int) and isinstance(diag["column"], int)
        assert diag["constraints"] == tight.as_dict()
        json.dumps(diag)  # must be JSON-serializable as-is

    def test_infeasible_device_budget_names_tile_devices(self, profiles):
        with pytest.raises(InfeasibleError) as excinfo:
            plan_layout(profiles, TileConstraints(max_rows=4, max_cols=2, max_devices=1))
        assert excinfo.value.diagnostic["reason"] == "tile_devices"

    def test_generous_constraints_give_one_tile_per_layer(self, profiles):
        layout = plan_layout(profiles, TileConstraints(max_rows=64, max_cols=64))
        assert layout.n_tiles == len(profiles)
        # Unsplit layers need no summing routes; the layer-to-layer signal
        # nets remain.
        assert not any(r.kind == "summing" for r in layout.routes)


# ----------------------------------------------------------------------
class TestCompiledBundle:
    def test_bundle_files_and_manifest(self, compiled):
        result, _, out = compiled
        manifest = load_manifest(out)
        assert manifest["format"] == COMPILED_FORMAT
        assert manifest["schema_version"] == COMPILED_SCHEMA_VERSION
        assert manifest["constraints"] == SMALL.as_dict()
        assert len(manifest["tiles"]) == result.layout.n_tiles == 8
        for tile in manifest["tiles"]:
            assert (out / tile["netlist"]).is_file()
            assert (out / tile["vectors"]).is_file()
        verify_checksums(out, manifest)

    def test_report_reproduces_layered_model(self, compiled):
        result, _, _ = compiled
        assert result.report is not None and result.report.ok
        assert result.report.decision_agreement == 1.0
        assert result.report.n_vectors == 4
        assert "PASS" in result.report.summary()

    def test_reverify_from_disk_alone(self, compiled):
        _, _, out = compiled
        report = verify_bundle(out)
        assert report.ok and report.decision_agreement == 1.0

    def test_compile_events_are_schema_valid_per_phase(self, compiled):
        result, events, out = compiled
        assert [e["phase"] for e in events] == ["place", "netlist", "bundle", "verify"]
        for event in events:
            validate_event(event)
            assert event["type"] == "compile"
            assert event["status"] == "ok"
            assert event["tiles"] == result.layout.n_tiles
        assert events[2]["out"] == str(out)

    def test_metrics_registry_sees_compile(self, compiled):
        from repro.observability import get_registry

        snapshot = get_registry().snapshot()
        text = json.dumps(snapshot)
        assert "compile_tiles_total" in text
        assert "compile_verify_seconds" in text

    def test_tampered_netlist_fails_checksums(self, net, stimulus, tmp_path):
        out = tmp_path / "compiled"
        compile_model(net, SMALL, stimulus, out, n_vectors=2, verify=False)
        victim = sorted((out / "tiles").glob("*.cir"))[0]
        victim.write_text(victim.read_text().replace("R", "Rx", 1))
        with pytest.raises(BundleError, match="checksum mismatch"):
            verify_bundle(out)

    def test_missing_file_fails_checksums(self, net, stimulus, tmp_path):
        out = tmp_path / "compiled"
        compile_model(net, SMALL, stimulus, out, n_vectors=2, verify=False)
        sorted((out / "vectors").glob("*.json"))[0].unlink()
        with pytest.raises(BundleError, match="missing"):
            verify_bundle(out)

    def test_wrong_decisions_fail_the_decision_gate(self, net, stimulus, tmp_path):
        # An intact (checksum-consistent) bundle whose recorded decisions
        # are wrong must fail verification, not sneak through.
        out = tmp_path / "compiled"
        compile_model(net, SMALL, stimulus, out, n_vectors=2, verify=False)
        manifest = load_manifest(out)
        final_layer = max(t["layer"] for t in manifest["tiles"])
        finals = [
            t for t in manifest["tiles"]
            if t["owner"] and t["layer"] == final_layer
        ]
        n_classes = max(t["col_end"] for t in finals)
        for owner in finals:  # every final-layer owner records the decision
            vec_path = out / owner["vectors"]
            payload = json.loads(vec_path.read_text())
            for entry in payload["vectors"]:
                entry["decision"] = (entry["decision"] + 1) % n_classes
            vec_path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
            manifest["checksums"][owner["vectors"]] = file_sha256(vec_path)
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n"
        )
        report = verify_bundle(out)
        assert not report.ok
        assert report.decision_agreement < 1.0
        assert any("decision" in f for f in report.failures)

    def test_not_a_bundle_raises(self, tmp_path):
        with pytest.raises(BundleError, match="manifest"):
            verify_bundle(tmp_path)

    def test_circuit_negation_mode_stays_within_voltage_tolerance(
        self, net, stimulus, tmp_path
    ):
        # Printed negation circuits instead of ideal inverters: activation
        # outputs shift by real millivolts but must stay inside the gate.
        # (Decision agreement under circuit negation is asserted on the
        # *trained* model below — this untrained random net has final-layer
        # margins of the same order as the negation error, so its argmax is
        # legitimately unstable.)
        result = compile_model(
            net, SMALL, stimulus, tmp_path / "c", n_vectors=2, negation="circuit"
        )
        for tile in result.report.tiles:
            assert tile.max_transfer_deviation_v <= 0.05
            assert tile.max_a_deviation_v <= 0.05
            assert not tile.failures

    def test_tanh_loading_passes_transfer_gate(self, stimulus, tmp_path):
        # ptanh input stages load the summing node, shifting z (and hence a)
        # away from the layered model's idealized values — sometimes by far
        # more than tolerance_v.  The hard gate is the activation's analytic
        # transfer at the *realized* z, which the circuit must always track;
        # the model-a deviation is recorded informationally.
        net = PrintedNeuralNetwork(
            4, 3,
            PNCConfig(kind=ActivationKind.TANH, power_mode="analytic"),
            np.random.default_rng(7),
        )
        net.eval()
        result = compile_model(net, SMALL, stimulus, tmp_path / "t", n_vectors=4)
        assert result.report.ok
        assert result.report.decision_agreement == 1.0
        for tile in result.report.tiles:
            assert tile.max_transfer_deviation_v <= 0.05
            assert not tile.failures


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained_iris(af_surrogates, neg_surrogate):
    """A briefly AL-trained iris classifier (the acceptance-criterion model)."""
    data = load_dataset("iris")
    split = train_val_test_split(data, seed=0)
    net = PrintedNeuralNetwork(
        data.n_features, data.n_classes,
        PNCConfig(kind=ActivationKind.RELU),
        np.random.default_rng(0),
        af_surrogates[ActivationKind.RELU], neg_surrogate,
    )
    train_power_constrained(
        net, split, power_budget=2e-4,
        warmup_epochs=2, anneal_epochs=4,
        settings=TrainerSettings(epochs=6, patience=6),
    )
    net.eval()
    return net, split


class TestTrainedModel:
    def test_multi_tile_layout_reproduces_decisions_on_all_vectors(
        self, trained_iris, tmp_path
    ):
        net, split = trained_iris
        result = compile_model(net, SMALL, split.x_test, tmp_path / "c", n_vectors=8)
        # The tiles are smaller than the largest layer, so the layout is
        # genuinely split — and the SPICE tiles must still agree with the
        # layered model on every exported vector.
        assert result.layout.n_tiles > net.n_layers
        assert result.report.ok
        assert result.report.decision_agreement == 1.0
        assert result.report.n_vectors == 8

    def test_trained_decisions_hold_under_circuit_negation(
        self, trained_iris, tmp_path
    ):
        net, split = trained_iris
        result = compile_model(
            net, SMALL, split.x_test, tmp_path / "c", n_vectors=4,
            negation="circuit",
        )
        assert result.report.decision_agreement == 1.0

    def test_artifact_round_trip_compiles_identically(self, trained_iris, tmp_path):
        from repro.serving import export_artifact, load_artifact

        net, split = trained_iris
        path = export_artifact(net, tmp_path / "model.pnz")
        rebuilt = load_artifact(path)
        live = compile_model(net, SMALL, split.x_test, tmp_path / "live",
                             n_vectors=2, verify=False)
        frozen = compile_model(rebuilt.net, SMALL, split.x_test, tmp_path / "frozen",
                               n_vectors=2, verify=False)
        # Same placement and byte-identical netlists: the analytic profiling
        # makes a live (surrogate-mode) net and its reloaded artifact agree.
        assert [t.as_dict() for t in live.layout.tiles] == [
            t.as_dict() for t in frozen.layout.tiles
        ]
        for tile in live.layout.tiles:
            assert (tmp_path / "live" / "tiles" / f"{tile.id}.cir").read_text() == (
                tmp_path / "frozen" / "tiles" / f"{tile.id}.cir"
            ).read_text()


    def test_artifact_neg_q_reaches_tiles_and_flat_export(self, tmp_path):
        """Circuit negation prints the net's own ``neg_q`` (restored from a
        ``.pnz``), not the nominal design, in tiles and flat export alike."""
        from repro.circuits import NEGATION_NOMINAL_Q, export_network
        from repro.compile.netlist_io import parse_spice_text
        from repro.serving import export_artifact, load_artifact

        net = _analytic_net()
        neg_q = np.array([300.0e3, 25.0e-6, 150.0e-6])  # exact in %.6g
        assert not np.array_equal(neg_q, NEGATION_NOMINAL_Q)
        net.neg_q = neg_q.copy()
        rebuilt = load_artifact(export_artifact(net, tmp_path / "model.pnz")).net
        assert rebuilt.neg_q.tolist() == neg_q.tolist()
        x = np.random.default_rng(3).random((4, 4))
        result = compile_model(rebuilt, SMALL, x, tmp_path / "c", n_vectors=2,
                               negation="circuit", verify=False)
        flat = export_network(rebuilt, x[0], negation="circuit").circuit
        circuits = [flat] + [
            parse_spice_text((tmp_path / "c" / "tiles" / f"{tile.id}.cir").read_text())
            for tile in result.layout.tiles
        ]
        tile_cards = 0
        for circuit in circuits:
            rneg = [r.resistance for r in circuit.resistors if "_rneg" in r.name]
            mneg = [(m.width, m.length) for m in circuit.transistors if "_mneg" in m.name]
            assert len(rneg) == len(mneg)
            assert set(rneg) <= {neg_q[0]} and set(mneg) <= {(neg_q[1], neg_q[2])}
            tile_cards += len(rneg) if circuit is not flat else 0
        assert tile_cards and any("_rneg" in r.name for r in flat.resistors)


# ----------------------------------------------------------------------
class TestCompileCLI:
    @pytest.fixture(scope="class")
    def artifact(self, trained_iris, tmp_path_factory):
        from repro.serving import export_artifact

        net, _ = trained_iris
        return export_artifact(net, tmp_path_factory.mktemp("art") / "model.pnz")

    def test_compile_verify_workflow(self, artifact, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "compiled"
        code = main([
            "compile", "--artifact", str(artifact), "--tile-rows", "4",
            "--tile-cols", "2", "--vectors", "4", "--dataset", "iris",
            "--out", str(out),
        ])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "tiles" in stdout and "PASS" in stdout
        assert main(["compile", "--verify-only", str(out)]) == 0

    def test_tampered_bundle_exits_5(self, artifact, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "compiled"
        assert main([
            "compile", "--artifact", str(artifact), "--tile-rows", "4",
            "--tile-cols", "2", "--vectors", "2", "--out", str(out),
        ]) == 0
        victim = sorted((out / "tiles").glob("*.cir"))[0]
        victim.write_text(victim.read_text().replace("R", "Rx", 1))
        capsys.readouterr()
        assert main(["compile", "--verify-only", str(out)]) == 5
        assert "checksum" in capsys.readouterr().err

    def test_infeasible_constraints_exit_4_with_json_diagnostic(
        self, artifact, tmp_path, capsys
    ):
        from repro.cli import main

        code = main([
            "compile", "--artifact", str(artifact), "--tile-rows", "4",
            "--tile-cols", "2", "--tile-power", "1e-15",
            "--out", str(tmp_path / "c"),
        ])
        err = capsys.readouterr().err
        assert code == 4
        start = err.index("{")
        diagnostic = json.loads(err[start:err.rindex("}") + 1])
        assert diagnostic["reason"] == "tile_power"
        assert diagnostic["constraints"]["max_power_w"] == 1e-15

    def test_compile_from_run_directory(self, trained_iris, tmp_path, capsys):
        from repro.cli import main
        from repro.serving import export_artifact
        from repro.serving.artifact import RUN_ARTIFACT_NAME

        net, _ = trained_iris
        run_dir = tmp_path / "runs" / "20260809-000000-abcd"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text("{}")
        export_artifact(net, run_dir / RUN_ARTIFACT_NAME)
        code = main([
            "compile", "--run", run_dir.name, "--dir", str(tmp_path / "runs"),
            "--tile-rows", "4", "--tile-cols", "2", "--vectors", "2",
            "--out", str(tmp_path / "compiled"),
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_run_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "runs").mkdir()
        code = main([
            "compile", "--run", "latest", "--dir", str(tmp_path / "runs"),
            "--tile-rows", "4", "--tile-cols", "2",
            "--out", str(tmp_path / "c"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_artifact_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "compile", "--artifact", str(tmp_path / "ghost.pnz"),
            "--tile-rows", "4", "--tile-cols", "2",
            "--out", str(tmp_path / "c"),
        ])
        assert code == 2
