"""Minimal HTTP query service over an immutable retrieval index.

POST /query with {"embedding": [...] | "class": name, "k": int} returns the
ranked videos; GET /healthz reports liveness.  The index never changes while
serving, so identical requests get identical responses.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .errors import ConfigInvalid, DimMismatch, NonFiniteInput, NormUnderflow
from .retrieval import query

# Largest POST body read; a query is one embedding, a few KB of JSON.
MAX_BODY_BYTES = 1 << 20


class QueryService:
    def __init__(self, index, prototypes=None):
        self.index = index
        self.prototypes = prototypes

    def handle_query(self, payload):
        """Returns (http_status, response_dict)."""
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}
        k = payload.get("k", 6)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            return 400, {"error": "k must be a positive integer"}
        if "embedding" in payload:
            vec = payload["embedding"]
            if not isinstance(vec, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in vec
            ):
                return 400, {"error": "embedding must be a list of numbers"}
        elif "class" in payload:
            if self.prototypes is None:
                return 422, {"error": "no prototypes loaded; class queries unavailable"}
            try:
                vec = self.prototypes.vector(payload["class"])
            except ConfigInvalid as exc:
                return 422, {"error": str(exc)}
        else:
            return 400, {"error": "request needs an 'embedding' or 'class' field"}
        try:
            result = query(self.index, vec, k)
        except (DimMismatch, NonFiniteInput, NormUnderflow) as exc:
            return 422, {"error": str(exc)}
        return 200, result.response(self.index.fingerprint)


class _Handler(BaseHTTPRequestHandler):
    service = None

    def log_message(self, *args):
        pass

    def _send(self, status, body):
        data = json.dumps(body, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/healthz":
            self._send(200, {"status": "ok"})
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        if self.path != "/query":
            self._send(404, {"error": "not found"})
            return
        length = self.headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()):
            self._send(400, {"error": "Content-Length must be a non-negative integer"})
            return
        digits = length.lstrip("0") or "0"  # int() refuses over 4,300 digits
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            self._send(413, {"error": f"body over {MAX_BODY_BYTES} bytes"})
            return
        raw = self.rfile.read(int(digits))
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError):
            self._send(400, {"error": "malformed JSON body"})
            return
        status, body = self.service.handle_query(payload)
        self._send(status, body)


def make_server(service, host="127.0.0.1", port=0):
    """Concurrent HTTP server; safe because the index is read-only."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


def serve(service, host="127.0.0.1", port=8080):
    httpd = make_server(service, host, port)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
