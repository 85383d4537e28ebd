import json
import select
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from vidembed.data import ClassPrototypes, l2_normalize
from vidembed.retrieval import RetrievalIndex, query
from vidembed import server
from vidembed.server import MAX_BODY_BYTES, QueryService, _Handler, make_server


@pytest.fixture(scope="module")
def service():
    rng = np.random.default_rng(11)
    ids = [f"vid_{i:05d}" for i in range(40)]
    matrix = l2_normalize(rng.standard_normal((40, 8))).astype(np.float32)
    index = RetrievalIndex(ids, matrix, "max_pool", "test-fp")
    protos = ClassPrototypes(["class_000", "class_001"], l2_normalize(rng.standard_normal((2, 8))))
    return QueryService(index, protos)


@pytest.fixture(scope="module")
def base_url(service):
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address
    yield f"http://{host}:{port}"
    httpd.shutdown()
    httpd.server_close()
    thread.join()


def _post(base_url, body, path="/query"):
    req = urllib.request.Request(
        base_url + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_healthz(base_url):
    with urllib.request.urlopen(base_url + "/healthz") as resp:
        assert resp.status == 200
        assert json.loads(resp.read()) == {
            "status": "ok", "rows": 40, "dim": 8, "head_kind": "max_pool",
            "index_fingerprint": "test-fp",
        }


def test_unknown_path_404(base_url):
    try:
        urllib.request.urlopen(base_url + "/nope")
        status = 200
    except urllib.error.HTTPError as exc:
        status = exc.code
    assert status == 404


def test_malformed_json_400(base_url):
    status, body = _post(base_url, b"{not json")
    assert status == 400
    assert "error" in json.loads(body)


def test_deeply_nested_json_400(base_url):
    status, body = _post(base_url, b"[" * 200_000)
    assert status == 400
    assert "error" in json.loads(body)


_VEC = json.dumps({"embedding": [1.0] * 8, "k": 2})


@pytest.mark.parametrize(
    "body",
    [
        _VEC.replace('"k": 2', '"k": ' + "9" * 5000).encode(),
        _VEC.replace("[1.0,", "[" + "1" * 5000 + ",").encode(),
    ],
    ids=["k", "embedding"],
)
def test_int_over_4300_digits_400(base_url, body):
    """int() refuses such a literal; the decoder turns that into a 400."""
    status, reply = _post(base_url, body)
    assert (status, json.loads(reply)) == (400, {"error": "malformed JSON body"})


@pytest.mark.parametrize(
    "body",
    [_VEC.encode("utf-16"), _VEC.encode("utf-16-le"), _VEC.encode("utf-32"),
     _VEC.encode("utf-8-sig")],
    ids=["utf16", "utf16le", "utf32", "utf8_bom"],
)
def test_body_must_be_utf8_400(base_url, body):
    """Bodies are UTF-8 without a byte order mark (RFC 8259, section 8.1)."""
    assert _post(base_url, _VEC.encode())[0] == 200
    status, reply = _post(base_url, body)
    assert (status, json.loads(reply)) == (400, {"error": "malformed JSON body"})


def test_non_object_payload_400(base_url):
    status, _ = _post(base_url, b"[1, 2, 3]")
    assert status == 400


def test_missing_query_field_400(base_url):
    status, body = _post(base_url, json.dumps({"k": 3}).encode())
    assert status == 400
    assert "embedding" in json.loads(body)["error"]


def test_bad_k_400(base_url):
    for bad in (0, -1, "six", 2.5):
        status, _ = _post(
            base_url, json.dumps({"embedding": [1.0] * 8, "k": bad}).encode()
        )
        assert status == 400


def test_dim_mismatch_422(base_url):
    status, body = _post(base_url, json.dumps({"embedding": [1.0] * 5}).encode())
    assert status == 422
    assert "error" in json.loads(body)


def test_zero_vector_422(base_url):
    status, _ = _post(base_url, json.dumps({"embedding": [0.0] * 8}).encode())
    assert status == 422


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "int_beyond_float"],
)
def test_non_finite_embedding_422(service, bad):
    status, body = service.handle_query({"embedding": [1.0] * 7 + [bad]})
    assert status == 422
    assert "error" in body


def test_huge_embedding_not_zeroed(service):
    status, body = service.handle_query({"embedding": [1e308] * 8})
    assert status == 200
    assert body == service.handle_query({"embedding": [1.0] * 8})[1]
    assert body["results"][0]["score"] > 0


@pytest.mark.parametrize(
    "payload", [{"embedding": [1.0] * 8, "k": True}, {"embedding": [True] * 8}]
)
def test_bool_for_number_400(service, payload):
    status, _ = service.handle_query(payload)
    assert status == 400


def test_unknown_class_422(base_url):
    status, _ = _post(base_url, json.dumps({"class": "class_999"}).encode())
    assert status == 422


def test_class_query_no_prototypes_422():
    index = RetrievalIndex(
        ["a"], np.ones((1, 2), dtype=np.float32), "max_pool", "fp"
    )
    service = QueryService(index, prototypes=None)
    status, body = service.handle_query({"class": "class_000"})
    assert status == 422
    assert "prototypes" in body["error"]


def test_embedding_query_matches_library(service, base_url):
    rng = np.random.default_rng(23)
    for _ in range(5):
        vec = rng.standard_normal(8)
        status, body = _post(
            base_url, json.dumps({"embedding": vec.tolist(), "k": 7}).encode()
        )
        assert status == 200
        payload = json.loads(body)
        expected = query(service.index, vec, 7)
        assert [(r["video_id"], r["score"]) for r in payload["results"]] == expected.items
        assert payload["index_fingerprint"] == "test-fp"


def test_class_query_matches_library(service, base_url):
    status, body = _post(base_url, json.dumps({"class": "class_001"}).encode())
    assert status == 200
    payload = json.loads(body)
    expected = query(service.index, service.prototypes.vectors[1], 6)
    assert [(r["video_id"], r["score"]) for r in payload["results"]] == expected.items


def test_repeated_requests_identical(base_url):
    body = json.dumps({"embedding": [0.3, -0.1, 0.7, 0.2, -0.5, 0.1, 0.0, 0.9]}).encode()
    responses = set()
    for _ in range(100):
        status, resp = _post(base_url, body)
        assert status == 200
        responses.add(resp)
    assert len(responses) == 1


def test_concurrent_requests_identical(base_url):
    from concurrent.futures import ThreadPoolExecutor

    body = json.dumps({"embedding": [1.0] * 8, "k": 5}).encode()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: _post(base_url, body), range(32)))
    assert len({r for r in results}) == 1
    assert results[0][0] == 200


def _raw_post_status(base_url, content_length, body=b""):
    """Status of a POST /query sent over a raw socket with the given header."""
    host, port = base_url.removeprefix("http://").split(":")
    head = f"POST /query HTTP/1.1\r\nHost: {host}\r\nContent-Length: {content_length}\r\n\r\n"
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(head.encode() + body)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    status_line = reply.split(b"\r\n", 1)[0]
    return int(status_line.split()[1]), reply


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", "0x10", "1e3"])
def test_bad_content_length_400(base_url, value):
    status, reply = _raw_post_status(base_url, value)
    assert status == 400
    assert b"Content-Length" in reply


@pytest.mark.parametrize(
    "value", [str(MAX_BODY_BYTES + 1), "9" * 5000], ids=["over_cap", "5000_digits"]
)
def test_oversized_content_length_413(base_url, value):
    status, _ = _raw_post_status(base_url, value)
    assert status == 413


@pytest.mark.parametrize("pad", ["", "000"], ids=["plain", "leading_zeros"])
def test_raw_post_within_limit_answered(base_url, pad):
    body = json.dumps({"embedding": [1.0] * 8, "k": 2}).encode()
    status, reply = _raw_post_status(base_url, pad + str(len(body)), body)
    assert status == 200
    assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["results"]


class _Served:
    """A server of its own on a free port, run by serve_forever in a thread,
    with the threads it started: those alive now and not before it."""

    def __init__(self, service):
        self.before = set(threading.enumerate())
        self.httpd = make_server(service, port=0)
        self.loop = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.loop.start()
        host, port = self.httpd.server_address
        self.address = (host, port)
        self.url = f"http://{host}:{port}"

    def threads(self):
        return [t for t in threading.enumerate() if t not in self.before and t is not self.loop]

    def wait_threads(self, n, seconds=10):
        """Waits until exactly n threads of this server are alive."""
        deadline = time.monotonic() + seconds
        while len(self.threads()) != n and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.threads()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.loop.join(timeout=10)
        assert not self.loop.is_alive()


class _RecordingService(QueryService):
    """Records the thread that answers each query."""

    def __init__(self, service):
        super().__init__(service.index, service.prototypes)
        self.threads = []

    def handle_query(self, payload):
        self.threads.append(threading.current_thread())
        return super().handle_query(payload)


def test_sequential_connections_reuse_one_thread(service):
    recording = _RecordingService(service)
    served = _Served(recording)
    try:
        for _ in range(10):
            assert _post(served.url, _VEC.encode())[0] == 200
        assert len(recording.threads) == 10
        # a client may connect again before the last worker has closed its
        # connection and waits again, so a second thread can start
        assert len(set(recording.threads)) <= 3
    finally:
        served.close()


def test_idle_thread_exits(service, monkeypatch):
    monkeypatch.setattr(server, "IDLE_SECONDS", 0.2)
    served = _Served(service)
    try:
        assert _post(served.url, _VEC.encode())[0] == 200
        assert served.wait_threads(0) == []
        assert _post(served.url, _VEC.encode())[0] == 200
    finally:
        served.close()


def test_handler_timeout_below_stop_grace():
    """A slow client cannot delay a supervisor's shutdown past its usual
    10 s between SIGTERM and SIGKILL."""
    assert 0 < _Handler.timeout < 10


def test_stalled_clients_delay_no_one_and_close_ends_them(service, monkeypatch):
    """Clients stalled mid-headers each hold a thread of their own, so a
    query is answered meanwhile; server_close ends their reads at once
    rather than after the timeout, and joins every thread."""
    timeout = 30.0
    monkeypatch.setattr(_Handler, "timeout", timeout)
    served = _Served(service)
    socks = [socket.create_connection(served.address, timeout=10) for _ in range(6)]
    try:
        for sock in socks:
            sock.sendall(b"POST /query HTTP/1.1\r\nContent-Le")
        assert len(served.wait_threads(6)) == 6  # every connection accepted
        t0 = time.monotonic()
        assert _post(served.url, _VEC.encode())[0] == 200
        threads = served.threads()
        served.close()
        assert time.monotonic() - t0 < timeout / 3
        assert len(threads) == 7  # one per stalled client, one for the query
        assert not [t for t in threads if t.is_alive()]
        for sock in socks:
            sock.recv(4096)  # the connection ends without a reset
    finally:
        for sock in socks:
            sock.close()


def test_trickling_client_dropped_at_deadline(service, monkeypatch):
    """A client that sends a byte every 50 ms never trips a per-read
    timeout of 0.5 s, but the whole request must arrive within it."""
    timeout = 0.5
    monkeypatch.setattr(_Handler, "timeout", timeout)
    served = _Served(service)
    sock = socket.create_connection(served.address, timeout=10)
    try:
        t0 = time.monotonic()
        dropped = None
        for byte in b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 200:
            try:
                sock.sendall(bytes([byte]))
                if select.select([sock], [], [], 0.05)[0] and sock.recv(4096) == b"":
                    dropped = time.monotonic() - t0
            except (BrokenPipeError, ConnectionResetError):
                dropped = time.monotonic() - t0
            if dropped is not None:
                break
        assert dropped is not None and timeout * 0.8 < dropped < timeout + 2
        assert _post(served.url, _VEC.encode())[0] == 200
    finally:
        sock.close()
        served.close()
