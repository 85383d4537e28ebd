import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from vidembed.data import ClassPrototypes, l2_normalize
from vidembed.retrieval import RetrievalIndex, query
from vidembed.server import MAX_BODY_BYTES, QueryService, make_server


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
        assert json.loads(resp.read()) == {"status": "ok"}


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
