"""Frozen model artifacts + batched inference serving.

The first subsystem downstream of training: a trained printed neuromorphic
circuit is frozen into a self-contained, provenance-stamped artifact and
served — offline (``repro predict``) or over HTTP (``repro serve``) — by a
forward-only captured-graph engine with request coalescing.

- :mod:`repro.serving.artifact` — the versioned ``.pnz`` bundle
  (``export_artifact`` / ``load_artifact`` / :class:`InferenceModel`);
- :mod:`repro.serving.engine` — fixed-shape micro-batch replay engine
  (:class:`InferenceEngine`);
- :mod:`repro.serving.batching` — request-coalescing queue
  (:class:`MicroBatcher`);
- :mod:`repro.serving.server` — stdlib ``ThreadingHTTPServer`` JSON API
  (:class:`ServingServer`: ``/predict``, ``/healthz``, ``/model``,
  ``/metrics``);
- :mod:`repro.serving.client` — thin stdlib HTTP client
  (:class:`ServingClient`).

``ServingServer`` and ``ServingClient`` are exported lazily through a module
``__getattr__`` (PEP 562): they pull in the stdlib HTTP stack (``http.server``,
``http.client``, ``socketserver``, ``email``), which only ``repro serve`` and
remote callers use.  ``from repro.serving import ServingClient`` still works;
a process that only exports, loads or predicts from an artifact never imports
them.  ``tests/test_cold_start.py`` holds that line.
"""

import importlib

from repro.serving.artifact import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    InferenceModel,
    export_artifact,
    load_artifact,
)
from repro.serving.batching import MicroBatcher
from repro.serving.engine import InferenceEngine

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactError",
    "InferenceModel",
    "export_artifact",
    "load_artifact",
    "InferenceEngine",
    "MicroBatcher",
    "ServingServer",
    "ServingClient",
]

_LAZY = {
    "ServingServer": "repro.serving.server",
    "ServingClient": "repro.serving.client",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
