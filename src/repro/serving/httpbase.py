"""Shared stdlib HTTP plumbing for the repo's servers.

Two subsystems speak HTTP — model serving (:mod:`repro.serving.server`)
and the run dashboard (:mod:`repro.observability.dashboard`) — and both
need the same machinery: a ``ThreadingHTTPServer`` with daemon handler
threads, JSON/text responses with correct ``Content-Length``, per-request
accounting, a background-thread ``start()`` for tests and a blocking
``serve_forever()`` for the CLI, and the ``max_requests`` self-shutdown
trick (handing ``shutdown()`` to a helper thread, because calling it from
a handler thread the server is joining on deadlocks).

:class:`AppServer` owns that lifecycle; subclasses set
:attr:`~AppServer.handler_class` and override :meth:`~AppServer._account`
to wire in their own metrics/telemetry.  :class:`JsonHandler` is the
matching request-handler base: endpoints call :meth:`~JsonHandler._respond`
/ :meth:`~JsonHandler._respond_text`; a request is accounted before its
body is written, so a client holding its reply also sees its event, and
counted toward ``max_requests`` after the send.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

logger = logging.getLogger(__name__)


class JsonHandler(BaseHTTPRequestHandler):
    """Request-handler base: JSON/text responses, accounted before the send."""

    protocol_version = "HTTP/1.1"

    @property
    def app(self) -> "AppServer":
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        endpoint: str,
        started: float,
        rows: int,
        error,
        headers: dict[str, str] | None = None,
    ) -> None:
        # Account first: a client that reads events as soon as it has its
        # reply must find this request's.  The max_requests countdown waits
        # for the send, or a shutdown could cut the reply.
        self.app._account(endpoint, status, time.monotonic() - started, rows, error)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.app._note_request()

    def _respond(
        self,
        status: int,
        payload: dict,
        endpoint: str,
        started: float,
        rows: int = 0,
        headers: dict[str, str] | None = None,
    ) -> None:
        error = payload.get("error") if isinstance(payload, dict) else None
        self._send(status, json.dumps(payload).encode("utf-8"), "application/json",
                   endpoint, started, rows, error, headers)

    def _respond_text(
        self,
        status: int,
        text: str,
        endpoint: str,
        started: float,
        content_type: str = "text/plain; version=0.0.4",
    ) -> None:
        self._send(status, text.encode("utf-8"), content_type, endpoint, started, 0, None)


class AppServer:
    """Threaded-HTTP-server lifecycle: bind, start/serve, account, shut down.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read ``self.port``
        after construction).
    max_requests:
        Optional self-shutdown after N requests — used by smoke tests to
        bound a server's lifetime without signals.
    """

    #: Subclasses point this at their :class:`JsonHandler` subclass.
    handler_class: type = JsonHandler
    #: Name of the background serve thread (shows up in thread dumps).
    thread_name: str = "app-http"

    def __init__(self, host: str = "127.0.0.1", port: int = 8080, max_requests: int | None = None):
        self.max_requests = max_requests
        self.started_at = time.monotonic()
        self._requests_seen = 0
        self._thread: threading.Thread | None = None
        self._httpd = ThreadingHTTPServer((host, port), self.handler_class)
        self._httpd.daemon_threads = True
        self._httpd.app = self  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]

    # ------------------------------------------------------------------
    def _account(self, endpoint: str, status: int, duration: float, rows: int, error) -> None:
        """Per-request hook (metrics, telemetry), run before the response is
        written; the ``max_requests`` countdown runs after it is sent."""

    def _note_request(self) -> None:
        if self.max_requests is None:
            return
        self._requests_seen += 1
        if self._requests_seen >= self.max_requests:
            # shutdown() deadlocks when called from a handler thread the
            # server is joining on — hand it to a helper thread.
            threading.Thread(target=self.shutdown, daemon=True).start()

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AppServer":
        """Serve in a background thread (tests, embedding)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name=self.thread_name, daemon=True
        )
        self._thread.start()
        logger.info("%s listening on %s", self.thread_name, self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (CLI path)."""
        logger.info("%s listening on %s", self.thread_name, self.url)
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting requests and join the serve thread."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def close(self) -> None:
        self.shutdown()
        self._httpd.server_close()

    def __enter__(self) -> "AppServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
