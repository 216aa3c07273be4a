"""The HTTP shell around :class:`~repro.serve.service.SynthesisService`.

Stdlib-only transport: a :class:`ThreadingHTTPServer` whose handler does
exactly three things — parse the JSON body, call ``service.handle``,
write the structured response with an explicit ``Content-Length``.  All
policy lives in the service; all lifecycle lives in
:class:`ServeRuntime`:

* ``start()`` binds and serves on a background thread (port 0 works and
  reports the ephemeral port, which is how tests and the benchmark boot
  throwaway servers).
* ``install_signal_handlers()`` + SIGTERM/SIGINT → **graceful drain**:
  mark draining (work answers 503, ``/readyz`` flips), stop accepting,
  wait up to ``REPRO_SERVE_DRAIN`` seconds for in-flight requests,
  flush every privacy ledger to disk, tear down the worker pool.  The
  signal handler itself only sets a flag and hands off to a thread —
  nothing blocking, nothing reentrant.
* ``stop()`` is the same path, callable directly (idempotent, so a
  signal racing an explicit shutdown is harmless).
"""

from __future__ import annotations

import json
import os
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.runtime.engine import shutdown_pool
from repro.serve.config import ServeConfig
from repro.serve.service import ServeResponse, SynthesisService
from repro.utils.logging import get_logger

__all__ = ["ServeRuntime"]

_logger = get_logger(__name__)


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default listen backlog is 5; under a burst of
    # concurrent clients a full accept queue makes the kernel drop the
    # handshake's final ACK and RST the client's first write.  The
    # admission gate is the real concurrency limit — the backlog just
    # has to absorb connection churn without resets.
    request_queue_size = 128
    service: SynthesisService


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body are two writes on an unbuffered socket; with Nagle
    # on, a keep-alive client waits out its delayed ACK (~40 ms) for the
    # body of every response after the first.
    disable_nagle_algorithm = True

    # http.server logs to stderr by default; route through our logger at
    # debug so test and CI output stays readable.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _logger.debug("http: " + format, *args)

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, verb: str) -> None:
        payload = None
        if verb == "POST":
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = 0
            raw = self.rfile.read(length) if length > 0 else b""
            if raw:
                try:
                    payload = json.loads(raw)
                except json.JSONDecodeError as exc:
                    self._respond(
                        ServeResponse(
                            400,
                            {
                                "error": {
                                    "code": "bad-json",
                                    "message": f"request body is not JSON: {exc}",
                                    "status": 400,
                                }
                            },
                        )
                    )
                    return
        path = self.path.split("?", 1)[0]
        response = self.server.service.handle(verb, path, payload)
        self._respond(response)

    def _respond(self, response: ServeResponse) -> None:
        # sort_keys is load-bearing: cold and cached responses must be
        # byte-for-byte identical on the wire.
        body = (json.dumps(response.body, sort_keys=True) + "\n").encode("utf-8")
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up first; its admission slot was already
            # released by the service layer.
            _logger.debug("client disconnected before response was written")


class ServeRuntime:
    """Boot, serve, and gracefully drain one ``repro serve`` process."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.service = SynthesisService(config)
        self._server = _ServeHTTPServer((config.host, config.port), _Handler)
        self._server.service = self.service
        self._thread: threading.Thread | None = None
        self._stop_lock = threading.Lock()
        self._stopping = False
        self._owner_pid = os.getpid()
        self.stopped = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — authoritative when port 0 was asked."""
        host, port = self._server.server_address[:2]
        return (str(host), int(port))

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve on a background thread; returns once accepting."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-accept",
            daemon=True,
        )
        self._thread.start()
        _logger.info(
            "repro serve listening on %s (queue=%d timeout=%gs n_jobs=%d)",
            self.base_url,
            self.config.queue_limit,
            self.config.timeout,
            self.config.n_jobs,
        )

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (flag + handoff thread only)."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, self._handle_signal)

    def _handle_signal(self, signum, frame) -> None:
        # Forked pool workers inherit this handler; a worker being
        # terminated must just die, not start a drain of its copied
        # runtime state (shared sockets, the same ledger files).
        if os.getpid() != self._owner_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        # Flip the drain flag synchronously (readyz answers 503 from this
        # instant); everything blocking runs on a dedicated thread, since
        # a signal handler must never wait on locks held by the thread it
        # interrupted.
        self.service.begin_drain()
        _logger.info("received %s; draining", signal.Signals(signum).name)
        threading.Thread(target=self.stop, name="repro-serve-drain", daemon=True).start()

    def stop(self) -> bool:
        """Drain and shut down; idempotent.  True = drained cleanly."""
        with self._stop_lock:
            if self._stopping:
                self.stopped.wait()
                return True
            self._stopping = True
        self.service.begin_drain()
        self._server.shutdown()
        drained = self.service.drain(self.config.drain_deadline)
        self._server.server_close()
        self.service.close()
        shutdown_pool()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.stopped.set()
        _logger.info("repro serve stopped (%s)", "drained" if drained else "abandoned stragglers")
        return drained

    def run(self) -> None:
        """Blocking entry point used by the CLI: serve until signalled."""
        self.install_signal_handlers()
        self.start()
        self.stopped.wait()
