"""Tests for the JSON-lines socket server and protocol."""

import socket

import pytest

from repro.errors import ProtocolError
from repro.service import (
    CliqueServer,
    CliqueService,
    ServiceClient,
    ServiceConfig,
    decode_line,
    encode_message,
    handle_request,
)
from repro.service.protocol import MAX_LINE_BYTES, validate_request

TRIANGLE = [[0, 1], [1, 2], [0, 2]]


@pytest.fixture()
def service():
    svc = CliqueService(ServiceConfig(workers=0, cache_capacity=16))
    yield svc
    svc.shutdown()


@pytest.fixture()
def server(service, tmp_path):
    srv = CliqueServer(service, socket_path=tmp_path / "lazymc.sock")
    srv.start()
    yield srv
    srv.shutdown()
    srv.close()


def client_for(server):
    return ServiceClient(socket_path=server.socket_path, timeout=60)


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "solve", "target": "CAroad"}
        assert decode_line(encode_message(message)) == message

    def test_decode_rejects_junk(self):
        for junk in (b"", b"not json\n", b'["a", "list"]\n'):
            with pytest.raises(ProtocolError):
                decode_line(junk)

    def test_decode_maps_deep_nesting_to_protocol_error(self):
        with pytest.raises(ProtocolError, match="nests too deeply"):
            decode_line(b"[" * 200000)

    def test_validate_rejects_unknown_op(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "frobnicate"})

    def test_validate_rejects_target_and_edges(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "solve", "target": "x", "edges": TRIANGLE})
        with pytest.raises(ProtocolError):
            validate_request({"op": "solve"})

    def test_validate_rejects_unknown_solve_keys(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "solve", "target": "x", "tmeout": 3})

    def test_legacy_flat_knob_is_an_unknown_solve_key(self):
        with pytest.raises(ProtocolError, match="unknown solve keys"):
            validate_request({"op": "solve", "target": "WormNet",
                              "threads": 1})


class TestHandleRequest:
    def test_ping(self, service):
        response, stop = handle_request(service, {"op": "ping"})
        assert response["ok"] and response["pong"] and not stop

    def test_unknown_op_is_response_not_exception(self, service):
        response, stop = handle_request(service, {"op": "nope"})
        assert not response["ok"]
        assert response["error_type"] == "ProtocolError"
        assert not stop

    def test_solve_inline_edges(self, service):
        response, _ = handle_request(
            service, {"op": "solve", "edges": TRIANGLE})
        assert response["ok"] and response["omega"] == 3

    @pytest.mark.parametrize("message, error_type", [
        ({"config": {"threads": 2.7}}, "ValueError"),
        ({"config": {"max_work": -5}}, "ValueError"),
        ({"config": {"max_work": "abc"}}, "ValueError"),
        ({"config": {"max_seconds": -1}}, "ValueError"),
        ({"config": {"max_seconds": "x"}}, "ValueError"),
        ({"config": {"filter_rounds": 3}}, "ValueError"),
        ({"config": [["threads", 2]]}, "ValueError"),
        ({"config": {"kernel_backend": "auto"}}, "ValueError"),
        ({"use_cache": "no"}, "ProtocolError"),
    ], ids=["threads-float", "max_work-negative", "max_work-str",
            "max_seconds-negative", "max_seconds-str", "config-unknown-key",
            "config-not-object", "kernel-auto", "use_cache-str"])
    def test_bad_solve_rejected_at_admission(self, service, message,
                                             error_type):
        response, stop = handle_request(
            service, {"op": "solve", "target": "WormNet", **message})
        assert not response["ok"] and not stop
        assert response["error_type"] == error_type
        assert service.metrics.counter("jobs_submitted") == 0

    @pytest.mark.parametrize("edges, error_type", [
        ([[0, 10**11]], "GraphConstructionError"),
        ([[0, 2**70]], "GraphConstructionError"),
        ([[0, 1.5]], "ProtocolError"),
        ([[0, True]], "ProtocolError"),
        ([[0, -1]], "ProtocolError"),
        ([[0, 1, 2]], "ProtocolError"),
        ([[0, "1"]], "ProtocolError"),
    ], ids=["id-1e11", "id-2^70", "id-float", "id-bool", "id-negative",
            "triple", "id-str"])
    def test_bad_inline_edges_are_structured(self, service, edges,
                                             error_type):
        response, stop = handle_request(
            service, {"op": "solve", "edges": edges})
        assert not response["ok"] and not stop
        assert response["error_type"] == error_type

    def test_bad_target_is_structured(self, service):
        response, _ = handle_request(
            service, {"op": "solve", "target": "no-such"})
        assert not response["ok"]
        assert response["error_type"] == "GraphLoadError"

    def test_shutdown_op_requests_stop(self, service):
        response, stop = handle_request(service, {"op": "shutdown"})
        assert response["ok"] and stop

    def test_metrics_json_and_prometheus(self, service):
        handle_request(service, {"op": "solve", "edges": TRIANGLE})
        response, _ = handle_request(service, {"op": "metrics"})
        assert response["metrics"]["counters"]["jobs_submitted"] == 1
        response, _ = handle_request(
            service, {"op": "metrics", "format": "prometheus"})
        assert "lazymc_jobs_submitted 1" in response["text"]


class TestSocketRoundTrip:
    def test_ping_solve_metrics(self, server, service):
        with client_for(server) as client:
            assert client.ping()["ok"]
            first = client.solve("CAroad")
            assert first["ok"] and first["omega"] == 4 and not first["cached"]
            second = client.solve("CAroad")
            assert second["cached"]
            metrics = client.metrics()["metrics"]
            assert metrics["counters"]["cache_hits"] == 1

    def test_degraded_query_over_socket(self, server):
        with client_for(server) as client:
            response = client.solve("WormNet", config={"max_work": 200})
            assert response["ok"]
            assert not response["exact"]
            assert response["timed_out"]
            assert response["omega"] >= 1

    def test_config_round_trip(self, server):
        with client_for(server) as client:
            response = client.solve("WormNet", config={
                "engine": "seq", "max_work": 10**6})
            assert response["ok"] and response["exact"]
            assert response["omega"] == 24
            assert response["engine"]["backend"] == "seq"

    def test_inline_edges_over_socket(self, server):
        with client_for(server) as client:
            response = client.solve(edges=TRIANGLE)
            assert response["omega"] == 3

    def test_malformed_line_keeps_connection_alive(self, server):
        with client_for(server) as client:
            client._sock.sendall(b"this is not json\n")
            bad = decode_line(client._reader.readline())
            assert not bad["ok"] and bad["error_type"] == "ProtocolError"
            assert client.ping()["ok"]      # same connection still works

    @pytest.mark.parametrize("line", [
        b"[" * 200000 + b"\n",
        b'{"op": "ping", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n',
    ], ids=["nested", "oversized"])
    def test_bad_line_gets_typed_reply(self, server, line):
        with client_for(server) as client:
            client._sock.sendall(line)
            bad = decode_line(client._reader.readline())
            assert not bad["ok"] and bad["error_type"] == "ProtocolError"
            assert client.ping()["ok"]      # same connection still works

    def test_truncated_line_gets_typed_reply(self, server):
        with client_for(server) as client:
            client._sock.sendall(b'{"op": "solve", "target": "Worm')
            client._sock.shutdown(socket.SHUT_WR)
            bad = decode_line(client._reader.readline())
            assert not bad["ok"] and bad["error_type"] == "ProtocolError"
        with client_for(server) as client:
            assert client.ping()["ok"]

    def test_shutdown_op_stops_server(self, server):
        with client_for(server) as client:
            assert client.shutdown_server()["ok"]
        server.shutdown()                   # joins the serve thread
        with pytest.raises((OSError, ProtocolError)):
            # Accept loop is gone: either connect() is refused or the
            # probe request times out without a response.
            with ServiceClient(socket_path=server.socket_path,
                               timeout=0.5) as probe:
                probe.ping()

    def test_concurrent_clients(self, server):
        import threading

        outcomes = []

        def query():
            with client_for(server) as client:
                outcomes.append(client.solve("CAroad")["omega"])

        threads = [threading.Thread(target=query) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert outcomes == [4, 4, 4, 4]
