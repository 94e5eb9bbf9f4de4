"""Tests for the serving subsystem: artifacts, engine, batching, HTTP.

The load-bearing guarantee is bit-identity: ``load_artifact(export_artifact
(net)).predict(x)`` must equal the training-time power-free validation
forward bitwise, and the batched HTTP server must return exactly the bytes a
serial ``load_artifact`` client would compute — regardless of how concurrent
requests coalesce.  Every equality assertion here is ``np.array_equal``
(bitwise), not ``allclose``.
"""

from __future__ import annotations

import json
import threading
import zipfile

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.circuits import PNCConfig, PrintedNeuralNetwork
from repro.datasets import load_dataset, train_val_test_split
from repro.observability.events import ListSink, RunLogger
from repro.pdk.params import ActivationKind
from repro.serving import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    InferenceEngine,
    MicroBatcher,
    ServingClient,
    ServingServer,
    export_artifact,
    load_artifact,
)
from repro.serving.artifact import ARRAYS_NAME, META_NAME, read_metadata
from repro.serving.client import ServingClientError
from repro.training import TrainerSettings, train_power_constrained, train_penalty


def _eager_logits(net: PrintedNeuralNetwork, x: np.ndarray) -> np.ndarray:
    """The training-time power-free validation forward (trainer._accuracy_only)."""
    with no_grad():
        return net.forward(Tensor(x)).data.copy()


def _analytic_net(in_features=4, out_features=3, seed=7) -> PrintedNeuralNetwork:
    """A cheap untrained net (no surrogates) for engine/server mechanics."""
    net = PrintedNeuralNetwork(
        in_features, out_features,
        PNCConfig(power_mode="analytic"),
        np.random.default_rng(seed),
    )
    net.eval()
    return net


# ----------------------------------------------------------------------
# Trained models (module-scoped: training is the slow part)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def al_iris(af_surrogates, neg_surrogate):
    """A (briefly) AL-trained iris network plus its split."""
    data = load_dataset("iris")
    split = train_val_test_split(data, seed=0)
    net = PrintedNeuralNetwork(
        data.n_features, data.n_classes, PNCConfig(),
        np.random.default_rng(0),
        af_surrogates[ActivationKind.TANH], neg_surrogate,
    )
    train_power_constrained(
        net, split, power_budget=2e-4,
        warmup_epochs=2, anneal_epochs=4,
        settings=TrainerSettings(epochs=6, patience=6),
    )
    net.eval()
    return net, split


@pytest.fixture(scope="module")
def penalty_seeds(af_surrogates, neg_surrogate):
    """A (briefly) penalty-trained seeds network plus its split."""
    data = load_dataset("seeds")
    split = train_val_test_split(data, seed=1)
    net = PrintedNeuralNetwork(
        data.n_features, data.n_classes,
        PNCConfig(kind=ActivationKind.RELU),
        np.random.default_rng(1),
        af_surrogates[ActivationKind.RELU], neg_surrogate,
    )
    train_penalty(net, split, alpha=0.5, settings=TrainerSettings(epochs=6, patience=6))
    net.eval()
    return net, split


# ----------------------------------------------------------------------
class TestArtifactRoundTrip:
    def test_al_model_bit_identical(self, al_iris, tmp_path):
        net, split = al_iris
        reference = _eager_logits(net, split.x_test)
        model = load_artifact(export_artifact(net, tmp_path / "al.pnz"))
        assert np.array_equal(model.eager_logits(split.x_test), reference)
        # the serving path (fixed-shape engine) must agree bitwise too
        assert np.array_equal(model.predict(split.x_test), reference)

    def test_penalty_model_bit_identical(self, penalty_seeds, tmp_path):
        net, split = penalty_seeds
        reference = _eager_logits(net, split.x_test)
        model = load_artifact(export_artifact(net, tmp_path / "penalty.pnz"))
        assert np.array_equal(model.eager_logits(split.x_test), reference)
        assert np.array_equal(model.predict(split.x_test), reference)

    def test_masked_model_roundtrips_masks(self, al_iris, tmp_path):
        from repro.training.finetune import generate_masks

        net, split = al_iris
        masks = generate_masks(net)
        try:
            for crossbar, keep, positive in zip(net.crossbars(), masks.keep, masks.force_positive):
                crossbar.set_masks(keep, positive)
            reference = _eager_logits(net, split.x_test)
            model = load_artifact(export_artifact(net, tmp_path / "masked.pnz"))
            for original, rebuilt in zip(net.crossbars(), model.net.crossbars()):
                assert np.array_equal(original._keep_mask, rebuilt._keep_mask)
                assert np.array_equal(original._positive_mask, rebuilt._positive_mask)
            assert np.array_equal(model.eager_logits(split.x_test), reference)
            assert np.array_equal(model.predict(split.x_test), reference)
        finally:
            for crossbar in net.crossbars():
                crossbar.set_masks(None, None)

    def test_calibrated_scalars_roundtrip(self, al_iris, tmp_path):
        net, _ = al_iris
        model = load_artifact(export_artifact(net, tmp_path / "scalars.pnz"))
        assert model.net.logit_scale == net.logit_scale
        assert np.array_equal(model.net.neg_q, net.neg_q)
        for original, rebuilt in zip(net.activations(), model.net.activations()):
            assert np.array_equal(original.q_values(), rebuilt.q_values())

    def test_metadata_power_and_provenance(self, tmp_path):
        net = _analytic_net()
        path = export_artifact(
            net, tmp_path / "meta.pnz", power_summary={"power_w": 1.5e-4, "feasible": True}
        )
        meta = read_metadata(path)
        assert meta["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert meta["power"] == {"power_w": 1.5e-4, "feasible": True}
        assert meta["provenance"] == {}  # no run dir attached
        assert meta["model"]["in_features"] == 4
        assert meta["model"]["kind"] == "p-tanh"
        assert meta["model"]["pdk"]["vdd"] == net.config.pdk.vdd
        assert meta["checksums"][ARRAYS_NAME]

    def test_run_provenance_embedded(self, tmp_path):
        from repro.observability.runs import RunContext

        ctx = RunContext.create(tmp_path, "train", {"dataset": "iris", "seed": 3},
                                argv=["train", "iris"], git_sha="cafe123")
        ctx.logger.close()
        net = _analytic_net()
        model = load_artifact(export_artifact(net, ctx.directory / "model.pnz",
                                              run_dir=ctx.directory))
        prov = model.meta["provenance"]
        assert prov["run_id"] == ctx.run_id
        assert prov["git_sha"] == "cafe123"
        assert prov["config"]["dataset"] == "iris"


# ----------------------------------------------------------------------
class TestArtifactRejection:
    def _write_tampered(self, path, out, mutate_meta=None, corrupt_arrays=False):
        with zipfile.ZipFile(path, "r") as bundle:
            meta = json.loads(bundle.read(META_NAME))
            arrays = bundle.read(ARRAYS_NAME)
        if mutate_meta:
            mutate_meta(meta)
        if corrupt_arrays:
            arrays = arrays[:-8] + bytes(8)
        with zipfile.ZipFile(out, "w") as bundle:
            bundle.writestr(META_NAME, json.dumps(meta))
            bundle.writestr(ARRAYS_NAME, arrays)
        return out

    @pytest.fixture()
    def artifact(self, tmp_path):
        return export_artifact(_analytic_net(), tmp_path / "ok.pnz")

    def test_corrupted_arrays_rejected(self, artifact, tmp_path):
        bad = self._write_tampered(artifact, tmp_path / "corrupt.pnz", corrupt_arrays=True)
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            load_artifact(bad)

    def test_future_schema_version_rejected(self, artifact, tmp_path):
        def bump(meta):
            meta["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        bad = self._write_tampered(artifact, tmp_path / "future.pnz", mutate_meta=bump)
        with pytest.raises(ArtifactError, match="newer than this code"):
            load_artifact(bad)

    def test_unknown_format_rejected(self, artifact, tmp_path):
        def rename(meta):
            meta["format"] = "something-else"
        bad = self._write_tampered(artifact, tmp_path / "fmt.pnz", mutate_meta=rename)
        with pytest.raises(ArtifactError, match="unknown artifact format"):
            load_artifact(bad)

    def test_truncated_file_rejected(self, artifact, tmp_path):
        data = artifact.read_bytes()
        bad = tmp_path / "truncated.pnz"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArtifactError):
            load_artifact(bad)

    def test_non_zip_rejected(self, tmp_path):
        bad = tmp_path / "noise.pnz"
        bad.write_bytes(b"definitely not a zip file")
        with pytest.raises(ArtifactError, match="not a readable artifact"):
            load_artifact(bad)

    def test_missing_members_rejected(self, tmp_path):
        bad = tmp_path / "empty.pnz"
        with zipfile.ZipFile(bad, "w") as bundle:
            bundle.writestr("unrelated.txt", "hi")
        with pytest.raises(ArtifactError, match="missing"):
            load_artifact(bad)


# ----------------------------------------------------------------------
class TestInferenceEngine:
    def test_grouping_invariance_bitwise(self):
        net = _analytic_net()
        engine = InferenceEngine(net, micro_batch=8)
        x = np.random.default_rng(2).random((23, 4))
        full = engine.run(x)
        rowwise = np.vstack([engine.run(x[i:i + 1]) for i in range(len(x))])
        assert np.array_equal(rowwise, full)
        halves = np.vstack([engine.run(x[:11]), engine.run(x[11:])])
        assert np.array_equal(halves, full)

    def test_matches_eager_forward(self):
        net = _analytic_net()
        engine = InferenceEngine(net, micro_batch=8)
        x = np.random.default_rng(3).random((12, 4))
        assert np.array_equal(engine.run(x), _eager_logits(net, x))

    def test_loaded_artifact_folds_parameter_only_kernels(self, tmp_path):
        """A loaded artifact's parameters are frozen: kernels reading only them fold."""
        net = _analytic_net()
        live = InferenceEngine(net, micro_batch=8)._program.graph
        model = load_artifact(export_artifact(net, tmp_path / "frozen.pnz"))
        assert all(not param.requires_grad for param in model.net.parameters())
        graph = model.engine._program.graph
        # The declared input buffer keeps every kernel that reads it moving.
        assert live.n_constant == 0
        assert graph.n_ops == live.n_ops
        assert 0 < graph.n_constant < graph.n_ops
        rng = np.random.default_rng(5)
        for rows in (1, 8, 13):
            x = rng.random((rows, 4))
            assert np.array_equal(model.predict(x), model.eager_logits(x))
            assert np.array_equal(model.predict(x), _eager_logits(net, x))
        # Requests rewrite only the input buffer, so folded kernels never re-run.
        assert graph.const_reruns == 0

    def test_recaptures_after_structural_change(self):
        net = _analytic_net()
        engine = InferenceEngine(net, micro_batch=4)
        x = np.random.default_rng(4).random((6, 4))
        engine.run(x)
        # installing masks bumps the process graph version → stale capture
        keep = np.abs(net.crossbar_0.theta.data) > 0.01
        net.crossbar_0.set_masks(keep, None)
        assert np.array_equal(engine.run(x), _eager_logits(net, x))

    def test_rejects_bad_inputs(self):
        engine = InferenceEngine(_analytic_net(), micro_batch=4)
        with pytest.raises(ValueError, match="feature rows"):
            engine.run(np.zeros((3, 9)))
        with pytest.raises(ValueError, match="feature rows"):
            engine.run(np.zeros(4))

    def test_rejects_degenerate_micro_batch(self):
        # B == 1 would route through the GEMV kernel and break grouping
        # invariance — the constructor must refuse it.
        with pytest.raises(ValueError, match="micro_batch"):
            InferenceEngine(_analytic_net(), micro_batch=1)

    def test_thread_safety_under_concurrent_runs(self):
        net = _analytic_net()
        engine = InferenceEngine(net, micro_batch=8)
        x = np.random.default_rng(5).random((16, 4))
        expected = engine.run(x)
        results, errors = [None] * 8, []

        def worker(slot):
            try:
                results[slot] = engine.run(x)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for got in results:
            assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_coalesced_results_equal_serial(self):
        net = _analytic_net()
        engine = InferenceEngine(net, micro_batch=8)
        x = np.random.default_rng(6).random((24, 4))
        expected = engine.run(x)
        with MicroBatcher(engine.run, max_batch=16, max_delay_s=0.01) as batcher:
            futures = [batcher.submit(x[i:i + 1]) for i in range(len(x))]
            got = np.vstack([f.result(timeout=10) for f in futures])
        assert np.array_equal(got, expected)

    def test_oversized_request_still_served(self):
        engine = InferenceEngine(_analytic_net(), micro_batch=4)
        x = np.random.default_rng(7).random((50, 4))
        with MicroBatcher(engine.run, max_batch=8, max_delay_s=0.001) as batcher:
            assert np.array_equal(batcher.predict(x), engine.run(x))

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda rows: rows, max_batch=4, max_delay_s=0.001)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(np.zeros((1, 2)))

    def test_engine_failure_propagates_to_futures(self):
        def boom(rows):
            raise RuntimeError("engine exploded")

        with MicroBatcher(boom, max_batch=4, max_delay_s=0.001) as batcher:
            future = batcher.submit(np.zeros((1, 2)))
            with pytest.raises(RuntimeError, match="engine exploded"):
                future.result(timeout=10)


# ----------------------------------------------------------------------
class TestServingServer:
    @pytest.fixture()
    def served(self, tmp_path):
        model = load_artifact(export_artifact(_analytic_net(), tmp_path / "srv.pnz"))
        sink = ListSink()
        server = ServingServer(model, port=0, run_logger=RunLogger(sink),
                               max_batch=16, max_delay_s=0.005)
        with server:
            yield model, server, sink

    def test_concurrent_clients_get_exact_serial_outputs(self, served):
        model, server, _ = served
        rng = np.random.default_rng(8)
        requests = [rng.random((rows, 4)) for rows in (1, 3, 1, 7, 2, 1, 5, 1)]
        expected = [model.predict(x) for x in requests]
        results, errors = [None] * len(requests), []

        def call(slot):
            try:
                client = ServingClient(server.url)
                results[slot] = client.predict_logits(requests[slot])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(requests))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    def test_predict_payload_labels_and_confidence(self, served):
        model, server, _ = served
        x = np.random.default_rng(9).random((4, 4))
        payload = ServingClient(server.url).predict(x)
        labels, confidence = model.predict_labels(x)
        assert [p["label"] for p in payload["predictions"]] == [int(l) for l in labels]
        assert payload["rows"] == 4
        for p, conf in zip(payload["predictions"], confidence):
            assert p["confidence"] == pytest.approx(float(conf))

    def test_healthz_model_metrics_endpoints(self, served):
        model, server, _ = served
        client = ServingClient(server.url)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["engine_captured"] is True
        descr = client.model()
        assert descr["model"]["in_features"] == model.in_features
        text = client.metrics_text()
        assert "repro_serving_requests_total" in text
        assert "repro_serving_request_latency_s" in text

    def test_bad_requests_are_400_unknown_paths_404(self, served):
        _, server, _ = served
        client = ServingClient(server.url)
        with pytest.raises(ServingClientError) as excinfo:
            client.predict(np.zeros((2, 9)))
        assert excinfo.value.status == 400
        with pytest.raises(ServingClientError) as excinfo:
            client._request_json("/nope")
        assert excinfo.value.status == 404

    def test_serve_events_emitted_and_schema_valid(self, served):
        _, server, sink = served
        client = ServingClient(server.url)
        client.healthz()
        client.predict(np.random.default_rng(10).random((3, 4)))
        events = [e for e in sink.events if e["type"] == "serve"]
        endpoints = [e["endpoint"] for e in events]
        assert "healthz" in endpoints and "predict" in endpoints
        predict_event = events[endpoints.index("predict")]
        assert predict_event["status"] == 200
        assert predict_event["rows"] == 3
        assert predict_event["duration_s"] >= 0

    def test_max_requests_self_shutdown(self, tmp_path):
        model = load_artifact(export_artifact(_analytic_net(), tmp_path / "fin.pnz"))
        server = ServingServer(model, port=0, max_requests=2)
        server.start()
        try:
            client = ServingClient(server.url)
            client.healthz()
            client.healthz()
            server._thread.join(timeout=10)
            assert not server._thread.is_alive()
        finally:
            server.close()


# ----------------------------------------------------------------------
class TestServingCli:
    def test_export_serve_predict_workflow(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        runs_base = tmp_path / "runs"
        assert main(["train", "iris", "--epochs", "2", "--seed", "0",
                     "--run-dir", str(runs_base)]) in (0, 1)  # feasibility not the point
        out = capsys.readouterr().out
        assert "artifact:" in out

        exported = tmp_path / "model.pnz"
        assert main(["export", "--run", "latest", "--dir", str(runs_base),
                     "-o", str(exported)]) == 0
        assert "exported" in capsys.readouterr().out
        model = load_artifact(exported)

        x = np.random.default_rng(11).random((3, model.in_features))
        csv_file = tmp_path / "rows.csv"
        csv_file.write_text(
            "a,b,c,d\n" + "\n".join(",".join(str(v) for v in row) for row in x)
        )
        assert main(["predict", str(exported), "--input", str(csv_file)]) == 0
        out = capsys.readouterr().out
        labels, _ = model.predict_labels(x)
        for index, label in enumerate(labels):
            assert f"{index:4d} {int(label):5d}" in out

    def test_predict_reads_json_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        from repro.cli import main

        artifact = export_artifact(_analytic_net(), tmp_path / "m.pnz")
        x = np.random.default_rng(12).random((2, 4))
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"rows": x.tolist()})))
        assert main(["predict", str(artifact)]) == 0
        assert "label" in capsys.readouterr().out

    def test_predict_rejects_bad_input(self, tmp_path, capsys):
        from repro.cli import main

        artifact = export_artifact(_analytic_net(), tmp_path / "m.pnz")
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\nx,y\n")
        assert main(["predict", str(artifact), "--input", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_export_without_artifact_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["datasets", "--run-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["export", "--run", "latest", "--dir", str(tmp_path)]) == 2
        assert "no model.pnz" in capsys.readouterr().err
