"""Frozen model artifacts: a trained pNC as one verifiable ``.pnz`` bundle.

Printed circuits are bespoke — every trained network is a distinct physical
design — so the serving unit is a *frozen run*: the crossbar conductances θ,
the fine-tuning masks, the learned activation parameters q, the calibrated
logit scale and the negation design, stamped with the provenance of the run
that produced them (git SHA, resolved config, seed) and the training-time
power summary.

Bundle layout (one zip file, conventional extension ``.pnz``)::

    model.pnz
        artifact.json       schema version, model config, provenance,
                            surrogate metadata, power summary, checksum
        arrays.npz          param::<name>      state-dict entries
                            mask::keep::<i>    per-crossbar prune mask
                            mask::positive::<i>  per-crossbar sign mask
                            meta::neg_q        negation design vector

``artifact.json`` records the SHA-256 of ``arrays.npz``; :func:`load_artifact`
refuses bundles whose bytes do not match (corruption) or whose schema version
is newer than this code (forward compatibility is explicit, never silent).

The rebuilt :class:`InferenceModel` reproduces the training-time power-free
validation forward **bit-identically**: the network is reconstructed with
``calibrate=False`` (no re-randomization), every parameter is restored
in place, and inference runs the exact op sequence of
``PrintedNeuralNetwork.forward``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import logging
import os
import zipfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.circuits import PNCConfig, PrintedNeuralNetwork
from repro.pdk.params import PDK, ActivationKind

logger = logging.getLogger(__name__)

#: Bundle layout version; bump on incompatible changes.
ARTIFACT_SCHEMA_VERSION = 1
ARTIFACT_FORMAT = "repro-pnc-artifact"

ARRAYS_NAME = "arrays.npz"
META_NAME = "artifact.json"

#: Conventional artifact filename inside a run directory.
RUN_ARTIFACT_NAME = "model.pnz"


class ArtifactError(RuntimeError):
    """The bundle is corrupted, incomplete, or from an unknown schema."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _surrogate_meta(surrogate) -> dict | None:
    """Fit metadata of one surrogate power model (best effort)."""
    if surrogate is None:
        return None
    meta: dict = {"label": getattr(surrogate, "label", "")}
    report = getattr(surrogate, "report", None)
    if report is not None and dataclasses.is_dataclass(report):
        meta["fit"] = dataclasses.asdict(report)
    return meta


def _provenance(run_dir: str | Path | None) -> dict:
    """Manifest subset identifying the producing run (empty without a run)."""
    if run_dir is None:
        return {}
    from repro.observability.runs import load_manifest

    manifest = load_manifest(run_dir)
    return {
        "run_id": manifest.get("run_id"),
        "command": manifest.get("command"),
        "git_sha": manifest.get("git_sha"),
        "seed": manifest.get("seed"),
        "created": manifest.get("created"),
        "config": manifest.get("config", {}),
        "manifest_schema_version": manifest.get("schema_version"),
    }


def export_artifact(
    net: PrintedNeuralNetwork,
    path: str | Path,
    run_dir: str | Path | None = None,
    power_summary: dict | None = None,
) -> Path:
    """Freeze ``net`` into a verifiable ``.pnz`` bundle at ``path``.

    Parameters
    ----------
    net:
        The trained network to freeze (state dict, masks, neg_q and logit
        scale are all captured).
    path:
        Destination file; written atomically (temp file + ``os.replace``).
    run_dir:
        Optional run directory whose ``manifest.json`` supplies provenance
        (git SHA, resolved config, seed).
    power_summary:
        Optional JSON-safe training outcome (power_w, test_accuracy,
        feasibility, device count) embedded verbatim.
    """
    path = Path(path)
    config = net.config

    payload: dict[str, np.ndarray] = {}
    for name, value in net.state_dict().items():
        payload[f"param::{name}"] = value
    for index, crossbar in enumerate(net.crossbars()):
        if crossbar._keep_mask is not None:
            payload[f"mask::keep::{index}"] = crossbar._keep_mask.astype(np.uint8)
        if crossbar._positive_mask is not None:
            payload[f"mask::positive::{index}"] = crossbar._positive_mask.astype(np.uint8)
    payload["meta::neg_q"] = np.asarray(net.neg_q, dtype=np.float64)

    arrays_buffer = io.BytesIO()
    np.savez(arrays_buffer, **payload)
    arrays_bytes = arrays_buffer.getvalue()

    surrogates = {
        "activation": _surrogate_meta(
            net.activations()[0].surrogate if net.activations() else None
        ),
        "negation": _surrogate_meta(net.neg_surrogate),
    }
    meta = {
        "format": ARTIFACT_FORMAT,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "model": {
            "in_features": net.in_features,
            "out_features": net.out_features,
            "kind": config.kind.value,
            "hidden": list(config.hidden),
            "count_mode": config.count_mode,
            "power_mode": config.power_mode,
            "power_batch_limit": config.power_batch_limit,
            "signal_health_weight": config.signal_health_weight,
            "signal_health_floor": config.signal_health_floor,
            "logit_scale": net.logit_scale,
            "device_count": net.device_count(),
            "pdk": dataclasses.asdict(config.pdk),
        },
        "surrogates": surrogates,
        "power": dict(power_summary or {}),
        "provenance": _provenance(run_dir),
        "checksums": {ARRAYS_NAME: _sha256(arrays_bytes)},
    }

    tmp = path.with_suffix(path.suffix + f".tmp-{os.getpid()}")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(tmp, "w", compression=zipfile.ZIP_DEFLATED) as bundle:
        bundle.writestr(META_NAME, json.dumps(meta, indent=2, sort_keys=False) + "\n")
        bundle.writestr(ARRAYS_NAME, arrays_bytes)
    os.replace(tmp, path)
    logger.info("exported artifact %s (%d arrays, %d bytes)", path, len(payload), path.stat().st_size)
    return path


def read_metadata(path: str | Path) -> dict:
    """Parse and sanity-check ``artifact.json`` without loading the arrays."""
    path = Path(path)
    try:
        with zipfile.ZipFile(path, "r") as bundle:
            names = set(bundle.namelist())
            if META_NAME not in names or ARRAYS_NAME not in names:
                raise ArtifactError(
                    f"{path}: not a {ARTIFACT_FORMAT} bundle "
                    f"(missing {META_NAME} or {ARRAYS_NAME})"
                )
            try:
                meta = json.loads(bundle.read(META_NAME).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ArtifactError(f"{path}: unreadable {META_NAME}: {exc}") from exc
    except (OSError, zipfile.BadZipFile) as exc:
        raise ArtifactError(f"{path}: not a readable artifact bundle: {exc}") from exc
    if meta.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(f"{path}: unknown artifact format {meta.get('format')!r}")
    version = meta.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ArtifactError(f"{path}: invalid schema_version {version!r}")
    if version > ARTIFACT_SCHEMA_VERSION:
        raise ArtifactError(
            f"{path}: artifact schema_version {version} is newer than this "
            f"code understands (max {ARTIFACT_SCHEMA_VERSION}); refusing to guess"
        )
    return meta


def load_artifact(path: str | Path) -> "InferenceModel":
    """Verify and rebuild a frozen model as an inference-only network.

    Checks the bundle structure, schema version and the recorded SHA-256 of
    the array payload before touching any value; any mismatch raises
    :class:`ArtifactError`.  The rebuilt network is constructed with
    ``calibrate=False`` and ``power_mode="analytic"`` (no surrogates are
    required at inference time — the signal path never evaluates them), then
    every parameter, mask and calibrated scalar is restored from the bundle.
    Every parameter is then frozen (``requires_grad = False``): an artifact's
    parameters never change, so a captured serving program folds every
    kernel that reads only them, e.g. ``q = f(u)``, θ_eff and ``i_s``.
    """
    path = Path(path)
    meta = read_metadata(path)
    with zipfile.ZipFile(path, "r") as bundle:
        arrays_bytes = bundle.read(ARRAYS_NAME)
    recorded = meta.get("checksums", {}).get(ARRAYS_NAME)
    actual = _sha256(arrays_bytes)
    if recorded != actual:
        raise ArtifactError(
            f"{path}: checksum mismatch for {ARRAYS_NAME} "
            f"(recorded {recorded}, actual {actual}) — corrupted artifact"
        )
    try:
        with np.load(io.BytesIO(arrays_bytes)) as payload:
            arrays = {name: payload[name] for name in payload.files}
    except Exception as exc:
        raise ArtifactError(f"{path}: unreadable {ARRAYS_NAME}: {exc}") from exc

    model_meta = meta["model"]
    config = PNCConfig(
        kind=ActivationKind(model_meta["kind"]),
        hidden=tuple(model_meta["hidden"]),
        power_mode="analytic",
        count_mode=model_meta.get("count_mode", "straight_through"),
        power_batch_limit=int(model_meta.get("power_batch_limit", 256)),
        signal_health_weight=float(model_meta.get("signal_health_weight", 0.0)),
        signal_health_floor=float(model_meta.get("signal_health_floor", 0.0)),
        pdk=PDK(**model_meta["pdk"]),
    )
    net = PrintedNeuralNetwork(
        int(model_meta["in_features"]),
        int(model_meta["out_features"]),
        config,
        np.random.default_rng(0),
        calibrate=False,
    )

    state = {
        name[len("param::"):]: value
        for name, value in arrays.items()
        if name.startswith("param::")
    }
    try:
        net.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise ArtifactError(f"{path}: state dict does not fit the declared topology: {exc}") from exc
    for param in net.parameters():
        param.requires_grad = False
    for index, crossbar in enumerate(net.crossbars()):
        keep = arrays.get(f"mask::keep::{index}")
        positive = arrays.get(f"mask::positive::{index}")
        if keep is not None or positive is not None:
            crossbar.set_masks(
                None if keep is None else keep.astype(bool),
                None if positive is None else positive.astype(bool),
            )
    if "meta::neg_q" in arrays:
        net.neg_q = arrays["meta::neg_q"].astype(np.float64)
    net.logit_scale = float(model_meta["logit_scale"])
    net.eval()
    return InferenceModel(net=net, meta=meta, path=path)


class InferenceModel:
    """A frozen pNC rebuilt for inference, with its artifact metadata.

    Two logits paths are exposed:

    - :meth:`eager_logits` — the natural-shape eager forward, the *identical*
      op sequence to the training-time power-free validation forward
      (``PrintedNeuralNetwork.forward``).  This is the bit-identity reference.
    - :meth:`predict` — the serving path through the fixed-shape
      :class:`~repro.serving.engine.InferenceEngine`: every row is evaluated
      at one constant micro-batch shape, so results are bitwise independent
      of how rows are grouped across requests (the property the batched
      HTTP server relies on).
    """

    def __init__(self, net: PrintedNeuralNetwork, meta: dict, path: Path | None = None):
        self.net = net
        self.meta = meta
        self.path = path
        self._engine = None

    # ------------------------------------------------------------------
    @property
    def in_features(self) -> int:
        return self.net.in_features

    @property
    def n_classes(self) -> int:
        return self.net.out_features

    @property
    def engine(self):
        """Lazily constructed fixed-shape replay engine."""
        if self._engine is None:
            from repro.serving.engine import InferenceEngine

            self._engine = InferenceEngine(self.net)
        return self._engine

    # ------------------------------------------------------------------
    def _validate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected rows of {self.in_features} features, got array of shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("feature rows must be finite")
        return x

    def eager_logits(self, x: np.ndarray) -> np.ndarray:
        """Natural-shape eager logits — the training-time validation forward."""
        from repro.autograd.tensor import Tensor, no_grad

        x = self._validate(x)
        with no_grad():
            return self.net.forward(Tensor(x)).data.copy()

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Logits ``(n, n_classes)`` via the fixed-shape serving engine."""
        return self.engine.run(self._validate(x))

    def predict_labels(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(labels, confidence)`` per row: argmax class + softmax probability."""
        logits = self.predict(x)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        probabilities = shifted / shifted.sum(axis=1, keepdims=True)
        labels = np.argmax(logits, axis=1)
        return labels, probabilities[np.arange(len(labels)), labels]

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-safe metadata served by the ``/model`` endpoint."""
        return {
            "format": self.meta.get("format"),
            "schema_version": self.meta.get("schema_version"),
            "created": self.meta.get("created"),
            "model": self.meta.get("model", {}),
            "power": self.meta.get("power", {}),
            "provenance": self.meta.get("provenance", {}),
            "surrogates": self.meta.get("surrogates", {}),
            "path": str(self.path) if self.path else None,
        }
