"""JSON-lines request/response protocol and the client helper.

One request per line, one response per line, UTF-8 JSON, no framing beyond
the newline — trivially scriptable (``echo '{"op":"ping"}' | nc -U sock``)
and language-agnostic.  Requests carry an ``op``:

``solve``
    ``{"op": "solve", "target": "CAroad", "algo": "lazymc",
    "config": {"max_work": 100000, "max_seconds": 5.0}, "use_cache": true}``;
    ``config`` overrides the solver knobs named in
    :data:`~repro.service.jobs.SERVICE_KNOBS`.
    Tiny ad-hoc graphs may be inlined instead of named:
    ``{"op": "solve", "edges": [[0, 1], [1, 2], [0, 2]]}``.
``metrics``
    Snapshot of the service metrics; ``{"format": "prometheus"}`` selects
    the text exposition instead of JSON.
``ping``
    Liveness check; echoes the package version.
``shutdown``
    Acknowledge, then stop the server.

Responses always carry ``"ok"``; protocol-level problems come back as
``{"ok": false, "error_type": "ProtocolError", ...}`` — the server never
drops a connection in response to a bad line.  A request line is at most
:data:`MAX_LINE_BYTES` bytes, its newline included.
"""

from __future__ import annotations

import json
import socket
from pathlib import Path

from ..errors import ProtocolError

#: Known operations, for early rejection with a helpful message.
OPS = ("solve", "metrics", "ping", "shutdown")

#: Longest request line the server reads, newline included (1 MiB: room
#: for tens of thousands of inline edges).  A longer line is answered
#: with a ProtocolError and skipped.
MAX_LINE_BYTES = 1 << 20

#: Keys a solve request may carry (anything else is a client bug worth
#: flagging loudly rather than silently ignoring).
_SOLVE_KEYS = {"op", "target", "edges", "algo", "config", "use_cache",
               "trace_id"}


def encode_message(message: dict) -> bytes:
    """One protocol line: compact JSON + newline, UTF-8."""
    return (json.dumps(message, separators=(",", ":"),
                       sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    """Parse one protocol line into a dict; :class:`ProtocolError` on junk."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from exc
    line = line.strip()
    if not line:
        raise ProtocolError("empty request line")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProtocolError("request nests too deeply") from exc
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    return message


def validate_request(message: dict) -> dict:
    """Check ``op`` and per-op shape; returns ``message`` for chaining."""
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; known: {', '.join(OPS)}")
    if op == "solve":
        unknown = set(message) - _SOLVE_KEYS
        if unknown:
            raise ProtocolError(
                f"unknown solve keys: {', '.join(sorted(unknown))}")
        has_target = message.get("target") is not None
        has_edges = message.get("edges") is not None
        if has_target == has_edges:
            raise ProtocolError("solve needs exactly one of target/edges")
        if not isinstance(message.get("use_cache", True), bool):
            raise ProtocolError("use_cache must be true or false")
        if has_edges and not _is_edge_list(message["edges"]):
            raise ProtocolError("edges must be a list of [u, v] pairs of "
                                "non-negative integer vertex ids")
    return message


def _is_edge_list(edges) -> bool:
    # ``type(...) is int``: JSON true/false decode to bool, an int
    # subclass, and must not pass as the ids 1/0.
    return isinstance(edges, list) and all(
        isinstance(e, list) and len(e) == 2
        and all(type(x) is int and x >= 0 for x in e) for e in edges)


def connect(socket_path: str | Path | None = None,
            host: str = "127.0.0.1", port: int | None = None) -> socket.socket:
    """Open a client socket: Unix-domain when a path is given, else TCP."""
    if socket_path is not None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(str(socket_path))
        return sock
    if port is None:
        raise ValueError("need a socket path or a port")
    return socket.create_connection((host, port))


class ServiceClient:
    """Line-oriented client over one persistent connection.

    Not thread-safe (one in-flight request per connection by design; open
    more clients for concurrency — the server is one thread per
    connection).
    """

    def __init__(self, socket_path: str | Path | None = None,
                 host: str = "127.0.0.1", port: int | None = None,
                 timeout: float | None = None):
        self._sock = connect(socket_path, host, port)
        if timeout is not None:
            self._sock.settimeout(timeout)
        self._reader = self._sock.makefile("rb")

    def request(self, message: dict) -> dict:
        """Send one request and block for its response."""
        self._sock.sendall(encode_message(message))
        line = self._reader.readline()
        if not line:
            raise ProtocolError("server closed the connection")
        return decode_line(line)

    def solve(self, target: str | None = None, *, edges=None,
              algo: str = "lazymc", config: dict | None = None,
              use_cache: bool = True, trace_id: str | None = None) -> dict:
        """Convenience wrapper building a ``solve`` request.

        ``config`` overrides solver knobs (e.g. ``{"max_work": 10**6,
        "engine": "seq"}``); a knob it leaves out takes the server's
        default.  ``trace_id`` asks the server to capture this job's
        search-tree trace under that id (requires the server to run with
        a trace directory; see ``lazymc serve --trace-dir``).
        """
        message: dict = {"op": "solve", "algo": algo, "use_cache": use_cache}
        if target is not None:
            message["target"] = target
        if edges is not None:
            message["edges"] = [[int(u), int(v)] for u, v in edges]
        if config:
            message["config"] = config
        if trace_id is not None:
            message["trace_id"] = trace_id
        return self.request(validate_request(message))

    def metrics(self, format: str = "json") -> dict:
        """Fetch the service metrics snapshot."""
        return self.request({"op": "metrics", "format": format})

    def ping(self) -> dict:
        """Liveness round-trip."""
        return self.request({"op": "ping"})

    def shutdown_server(self) -> dict:
        """Ask the server to stop (acknowledged before it exits)."""
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        """Close the connection."""
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
