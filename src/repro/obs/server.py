"""Live ops endpoint: serve ``/metrics``, ``/healthz``, and ``/run``.

:class:`MetricsServer` wraps a stdlib :class:`http.server.ThreadingHTTPServer`
on a daemon thread so a long-running engine, demo, or chaos run can be
scraped mid-flight:

* ``/metrics`` — the registry in Prometheus text exposition format
  (:func:`repro.obs.prom.render_prometheus`), served with the
  ``text/plain; version=0.0.4`` content type a scraper expects.
* ``/healthz`` — liveness probe (``ok``).
* ``/run`` — JSON run status from the ``run_status`` provider: current
  statement, budget spent/remaining, breaker states, cache hit ratio —
  whatever the owner wires in.

Reads are cheap snapshots of in-memory state; the GIL makes the scalar
reads the renderer performs safe against the single-threaded run loop
mutating counters concurrently (a scrape may observe a half-advanced
*set* of counters, never a torn individual value).
"""

from __future__ import annotations

import json
import socket
import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import CONTENT_TYPE, render_prometheus

RunStatusProvider = Callable[[], "dict[str, Any]"]


class _ThreadingHTTPServerV6(ThreadingHTTPServer):
    address_family = socket.AF_INET6


def _make_handler(server: "MetricsServer") -> type[BaseHTTPRequestHandler]:
    """Request handler class bound to one :class:`MetricsServer`.

    A factory (rather than a closure inside :meth:`MetricsServer.start`)
    so the error paths are unit-testable without a live socket.
    """

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt: str, *args: Any) -> None:  # noqa: ARG002
            pass  # ops endpoint: no per-request stderr chatter

        def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
            path = self.path.split("?", 1)[0]
            self._headers_sent = False
            try:
                if path == "/metrics":
                    body = render_prometheus(server.registry).encode("utf-8")
                    self._reply(200, CONTENT_TYPE, body)
                elif path == "/healthz":
                    self._reply(200, "text/plain; charset=utf-8", b"ok\n")
                elif path == "/run":
                    status = (
                        server.run_status() if server.run_status is not None else {}
                    )
                    body = json.dumps(status, default=str).encode("utf-8")
                    self._reply(200, "application/json; charset=utf-8", body)
                else:
                    self._reply(404, "text/plain; charset=utf-8", b"not found\n")
            except Exception as exc:  # never kill the serving thread
                # Two hazards in this fallback: (a) the failure may *be* a
                # dead socket (scraper disconnected mid-response), so the
                # recovery write can raise again and the stdlib dumps a
                # traceback; (b) if the status line already went out, a
                # second send_response would emit malformed HTTP. Only
                # reply when no headers were sent, and swallow socket
                # errors — there is nobody left to talk to.
                if self._headers_sent:
                    self.close_connection = True
                    return
                try:
                    self._reply(
                        500,
                        "text/plain; charset=utf-8",
                        f"error: {exc}\n".encode(),
                    )
                except OSError:
                    self.close_connection = True

        def _reply(self, code: int, content_type: str, body: bytes) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            # Headers are buffered until end_headers() flushes them; once
            # that flush is attempted the status line is (possibly
            # partially) on the wire and must never be re-sent.
            self._headers_sent = True
            self.end_headers()
            self.wfile.write(body)

    return Handler


class MetricsServer:
    """Background HTTP server exposing one registry and one status provider.

    Args:
        registry: The metrics registry ``/metrics`` renders.
        run_status: Zero-arg callable returning the ``/run`` JSON payload;
            omitted → ``/run`` serves ``{}``.
        host: Bind address (loopback by default — this is an ops endpoint,
            not a public service).
        port: TCP port; 0 picks an ephemeral free port (read it back from
            :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        run_status: "RunStatusProvider | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if not 0 <= port <= 65535:
            raise ConfigurationError(f"metrics port must be in [0, 65535], got {port}")
        self.registry = registry
        self.run_status = run_status
        self.host = host
        self._requested_port = port
        self._httpd: "ThreadingHTTPServer | None" = None
        self._thread: "threading.Thread | None" = None

    # ------------------------------------------------------------------ #

    def start(self) -> "MetricsServer":
        """Bind and begin serving on a daemon thread (idempotent)."""
        if self._httpd is not None:
            return self
        server_cls = ThreadingHTTPServer
        if ":" in self.host:  # IPv6 literal; the stdlib default is AF_INET
            server_cls = _ThreadingHTTPServerV6
        try:
            self._httpd = server_cls(
                (self.host, self._requested_port), _make_handler(self)
            )
        except OSError as exc:
            raise ConfigurationError(
                f"cannot bind metrics server to {self.host}:{self._requested_port}: {exc}"
            ) from exc
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            # How often the loop checks for shutdown: stop() waits up to this.
            kwargs={"poll_interval": 0.02},
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (resolves 0 → the ephemeral port actually chosen)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server (IPv6 hosts are bracketed)."""
        host = f"[{self.host}]" if ":" in self.host else self.host
        return f"http://{host}:{self.port}"

    def stop(self) -> None:
        """Shut down the server and join the serving thread (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()
