"""Stdlib HTTP serving of a frozen pNC artifact.

A :class:`ServingServer` wraps an :class:`~repro.serving.artifact.InferenceModel`
in a ``ThreadingHTTPServer`` JSON API:

====================  ======================================================
``POST /predict``     ``{"rows": [[...], ...]}`` → per-row label, confidence
                      and raw logits.  Concurrent requests coalesce through
                      the :class:`~repro.serving.batching.MicroBatcher`.
``GET /healthz``      liveness: status, uptime, rows served.
``GET /model``        the artifact's metadata (provenance, power, config).
``GET /metrics``      Prometheus text exposition of the process registry.
====================  ======================================================

Logits cross the wire as JSON floats; Python serializes floats by shortest
round-trip ``repr``, so the client-side parse restores bitwise the values
the engine produced — exactness survives HTTP.

Every request is instrumented (counters, latency histogram) and — when a
``RunLogger`` is attached — emitted as a schema-valid ``serve`` event, so a
serving process produces the same auditable run record as a training run.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time

import numpy as np

from repro.observability.metrics import get_registry
from repro.observability.tracing import new_trace_id, trace_context, trace_span
from repro.serving.artifact import InferenceModel
from repro.serving.batching import MicroBatcher
from repro.serving.httpbase import AppServer, JsonHandler

logger = logging.getLogger(__name__)

_REQUESTS = get_registry().counter("serving_requests_total", "HTTP requests handled")
_ERRORS = get_registry().counter("serving_request_errors", "HTTP requests answered with 4xx/5xx")
_ROWS = get_registry().counter("serving_rows_total", "feature rows served over HTTP")
#: Sub-millisecond-resolved buckets: single-row pNC inference sits in the
#: hundreds of microseconds, so the default seconds-flavoured bounds would
#: collapse p50/p95/p99 into the first bucket.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)
_LATENCY = get_registry().histogram(
    "serving_request_latency_s", "request wall time (seconds)", buckets=LATENCY_BUCKETS
)

#: Accepted X-Trace-Id shape — anything else is replaced, never echoed
#: (header values flow into logs and trace files verbatim).
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


def _request_trace_id(headers) -> str:
    """The request's X-Trace-Id, sanitized, or a freshly generated one."""
    candidate = headers.get("X-Trace-Id", "")
    if candidate and _TRACE_ID_RE.match(candidate):
        return candidate
    return new_trace_id()

#: Refuse absurd request bodies before json.loads touches them.
MAX_BODY_BYTES = 16 * 1024 * 1024


class _Handler(JsonHandler):
    # Set by AppServer on the server object, read here via self.server.app.

    @property
    def _ctx(self) -> "ServingServer":
        return self.app  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        started = time.monotonic()
        ctx = self._ctx
        if self.path == "/healthz":
            self._respond(
                200,
                {
                    "status": "ok",
                    "uptime_s": round(time.monotonic() - ctx.started_at, 3),
                    "rows_served": int(_ROWS.value),
                    "engine_captured": ctx.model.engine.is_captured,
                },
                "healthz",
                started,
            )
        elif self.path == "/model":
            self._respond(200, ctx.model.describe(), "model", started)
        elif self.path == "/metrics":
            self._respond_text(200, get_registry().render_prometheus(), "metrics", started)
        else:
            self._respond(404, {"error": f"unknown path {self.path}"}, "unknown", started)

    def do_POST(self) -> None:
        started = time.monotonic()
        if self.path != "/predict":
            self._respond(404, {"error": f"unknown path {self.path}"}, "unknown", started)
            return
        # The request's trace id is echoed on every /predict response —
        # even untraced servers keep the round trip intact — and bound as
        # the ambient trace context so batcher/engine spans join it.
        trace_id = _request_trace_id(self.headers)
        headers = {"X-Trace-Id": trace_id}
        with trace_context(trace_id):
            with trace_span("serving.request", "serving"):
                status, body, rows = self._predict(trace_id)
            # Respond only once the request span is recorded: a client that
            # reads the tracer after its response must find the span there.
            self._respond(status, body, "predict", started, rows=rows, headers=headers)

    def _predict(self, trace_id: str) -> tuple[int, dict, int]:
        """Parse, run and serialize one /predict request: ``(status, body, rows)``."""
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length <= 0 or length > MAX_BODY_BYTES:
                raise ValueError(f"invalid Content-Length {length}")
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
            rows = np.asarray(payload["rows"], dtype=np.float64)
            if rows.ndim == 1:
                rows = rows.reshape(1, -1)
            model = self._ctx.model
            if rows.ndim != 2 or rows.shape[1] != model.in_features:
                raise ValueError(
                    f"expected rows of {model.in_features} features, "
                    f"got shape {tuple(rows.shape)}"
                )
            if not np.all(np.isfinite(rows)):
                raise ValueError("feature rows must be finite")
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"bad request: {exc}"}, 0
        try:
            logits = self._ctx.batcher.predict(rows)
        except Exception as exc:  # engine/batcher failure — a server error
            logger.exception("predict failed")
            return 500, {"error": f"inference failed: {exc}"}, 0
        with trace_span("serving.serialize", "serving"):
            labels = np.argmax(logits, axis=1)
            shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
            probabilities = shifted / shifted.sum(axis=1, keepdims=True)
            confidence = probabilities[np.arange(len(labels)), labels]
            body = {
                "predictions": [
                    {"label": int(label), "confidence": float(conf)}
                    for label, conf in zip(labels, confidence)
                ],
                "logits": logits.tolist(),
                "rows": len(rows),
                "trace_id": trace_id,
            }
        return 200, body, len(rows)


class ServingServer(AppServer):
    """Threaded HTTP server over a frozen model, with coalesced batching.

    The HTTP lifecycle (bind, background/blocking serve, ``max_requests``
    self-shutdown) lives in :class:`repro.serving.httpbase.AppServer`;
    this class adds the model, the batcher, ``serving_*`` metrics and the
    per-request ``serve`` event.

    Parameters
    ----------
    model:
        The loaded :class:`InferenceModel` to serve.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read ``self.port``
        after construction).
    max_batch, max_delay_s:
        :class:`MicroBatcher` knobs — flush thresholds for coalescing.
    run_logger:
        Optional :class:`repro.observability.events.RunLogger`; every request
        is emitted as a ``serve`` event (sinks are not thread-safe, so
        emissions are serialized by a lock).
    max_requests:
        Optional self-shutdown after N requests — used by smoke tests to
        bound a server's lifetime without signals.
    """

    handler_class = _Handler
    thread_name = "serving-http"

    def __init__(
        self,
        model: InferenceModel,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_batch: int = 64,
        max_delay_s: float = 0.002,
        run_logger=None,
        max_requests: int | None = None,
    ):
        self.model = model
        self.batcher = MicroBatcher(model.engine.run, max_batch=max_batch, max_delay_s=max_delay_s)
        self.run_logger = run_logger
        self._emit_lock = threading.Lock()
        super().__init__(host=host, port=port, max_requests=max_requests)

    # ------------------------------------------------------------------
    def _account(self, endpoint: str, status: int, duration: float, rows: int, error) -> None:
        _REQUESTS.inc()
        _LATENCY.observe(duration)
        if status >= 400:
            _ERRORS.inc()
        if rows:
            _ROWS.inc(rows)
        self._emit_serve(endpoint, status, rows, duration, error)

    def _emit_serve(self, endpoint: str, status: int, rows: int, duration: float, error) -> None:
        if self.run_logger is None:
            return
        fields = {
            "endpoint": endpoint,
            "status": int(status),
            "rows": int(rows),
            "duration_s": float(duration),
        }
        if error:
            fields["error"] = str(error)
        with self._emit_lock:
            self.run_logger.emit("serve", **fields)

    # ------------------------------------------------------------------
    def start(self) -> "ServingServer":
        """Serve in a background thread (tests, embedding)."""
        logger.info("serving %s on %s", self.model.path or "<model>", self.url)
        super().start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (CLI path)."""
        logger.info("serving %s on %s", self.model.path or "<model>", self.url)
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting requests and drain the batcher."""
        super().shutdown()
        self.batcher.close()

    def __enter__(self) -> "ServingServer":
        return self.start()
