"""Socket front end: JSON-lines over a Unix-domain or TCP socket.

Thread-per-connection (``socketserver.ThreadingMixIn``): connection
handling is I/O-bound line shuffling — the actual solving happens in the
service's worker pool (processes) or inline under budgets, so threads are
the right weight here.  Request dispatch is the pure function
:func:`handle_request`, testable without any socket.

The server is deliberately local-only (Unix socket, or TCP bound to
loopback by default): it is an application backend, not an internet-facing
endpoint — no auth, no TLS.
"""

from __future__ import annotations

import socketserver
import threading
from pathlib import Path

from ..errors import ProtocolError, ReproError
from .jobs import JobSpec
from .protocol import (MAX_LINE_BYTES, decode_line, encode_message,
                       validate_request)
from .service import CliqueService


def _error(exc: BaseException) -> dict:
    return {"ok": False, "error_type": type(exc).__name__, "error": str(exc)}


def _spec_from_message(message: dict) -> JobSpec:
    graph = None
    if message.get("edges") is not None:
        from ..graph import from_edges

        # validate_request admitted only non-negative int ids; from_edges
        # rejects a vertex count past the CSR id range before allocating.
        edges = message["edges"]
        n = max((max(e) for e in edges), default=-1) + 1
        graph = from_edges(n, edges)
    return JobSpec(
        target=message.get("target"),
        graph=graph,
        algo=message.get("algo", "lazymc"),
        config=message.get("config", {}),
        use_cache=message.get("use_cache", True),
        trace_id=message.get("trace_id"),
    )


def handle_request(service: CliqueService, message: dict) -> tuple[dict, bool]:
    """Dispatch one decoded request; returns ``(response, stop_server)``.

    Never raises: every failure becomes an ``ok=False`` response so one bad
    request cannot take down the connection, let alone the server.
    """
    try:
        validate_request(message)
        op = message["op"]
        if op == "ping":
            from .. import __version__

            return {"ok": True, "pong": True, "version": __version__}, False
        if op == "metrics":
            if message.get("format") == "prometheus":
                return {"ok": True, "format": "prometheus",
                        "text": service.to_prometheus()}, False
            return {"ok": True, "metrics": service.metrics_snapshot()}, False
        if op == "shutdown":
            return {"ok": True, "stopping": True}, True
        spec = _spec_from_message(message)
        return service.solve(spec).to_dict(), False
    except (ProtocolError, ReproError, ValueError, TypeError) as exc:
        return _error(exc), False


class _Handler(socketserver.StreamRequestHandler):
    def _read_line(self) -> bytes:
        """Next request line; raises ProtocolError past MAX_LINE_BYTES,
        after reading the rest of that line, so the next one parses."""
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) <= MAX_LINE_BYTES:
            return line
        while line and not line.endswith(b"\n"):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
        raise ProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes")

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        while True:
            try:
                line = self._read_line()
                if not line:
                    return
                message = decode_line(line)
            except ProtocolError as exc:
                response, stop = _error(exc), False
            else:
                response, stop = handle_request(self.server.service, message)
            plan = getattr(self.server, "fault_plan", None)
            if plan is not None and plan.on_proto():
                # Injected transport drop: the response line is lost and
                # the connection dies, exactly like a fault between server
                # and client — the client sees "server closed the
                # connection" and owns the retry.
                return
            try:
                self.wfile.write(encode_message(response))
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return
            if stop:
                # shutdown() blocks until the accept loop exits; that loop
                # runs in a different thread than this handler, so calling
                # it here is safe and makes the op synchronous.
                self.server.shutdown()
                return


class _ThreadingTCPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    daemon_threads = True
    allow_reuse_address = True


class _ThreadingUnixServer(socketserver.ThreadingMixIn,
                           socketserver.UnixStreamServer):
    daemon_threads = True


class CliqueServer:
    """A :class:`CliqueService` behind a local socket.

    ``socket_path`` selects a Unix-domain socket; otherwise TCP on
    ``host:port`` (``port=0`` lets the OS pick — read :attr:`address`).
    ``fault_plan`` arms the transport's ``drop:proto`` injection site
    (chaos testing of clients; see :mod:`repro.faults`).
    """

    def __init__(self, service: CliqueService,
                 socket_path: str | Path | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 fault_plan=None):
        self.service = service
        self.fault_plan = fault_plan
        self.socket_path = Path(socket_path) if socket_path is not None else None
        if self.socket_path is not None:
            if self.socket_path.exists():
                self.socket_path.unlink()
            self._server = _ThreadingUnixServer(str(self.socket_path), _Handler)
        else:
            self._server = _ThreadingTCPServer((host, port), _Handler)
        self._server.service = service
        self._server.fault_plan = fault_plan
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        """Human/CLI-usable address of the listening socket."""
        if self.socket_path is not None:
            return str(self.socket_path)
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    @property
    def port(self) -> int:
        """TCP port (0 for Unix-socket servers)."""
        if self.socket_path is not None:
            return 0
        return int(self._server.server_address[1])

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` or a shutdown op."""
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> None:
        """Serve on a background daemon thread (embedding and tests)."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="lazymc-serve", daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        """Stop the accept loop (idempotent; safe from any thread)."""
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def close(self) -> None:
        """Release the socket (and unlink a Unix socket file)."""
        self._server.server_close()
        if self.socket_path is not None and self.socket_path.exists():
            self.socket_path.unlink()

    def __enter__(self) -> "CliqueServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
        self.close()
