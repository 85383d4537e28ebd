"""Minimal HTTP query service over an immutable retrieval index.

POST /query with {"embedding": [...] | "class": name, "k": int} returns the
ranked videos; GET /healthz reports liveness and what is served.  The index
never changes while serving, so identical requests get identical responses.
Each connection is answered by a thread of its own, reused across connections.
"""

from __future__ import annotations

import contextlib
import io
import json
import queue
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .data import decode_json
from .errors import ConfigInvalid, DimMismatch, MalformedContainer, NonFiniteInput, NormUnderflow
from .retrieval import query

# Largest POST body read; a query is one embedding, a few KB of JSON.
MAX_BODY_BYTES = 1 << 20
# Seconds an idle handler thread waits for another connection before it exits.
IDLE_SECONDS = 60


class QueryService:
    def __init__(self, index, prototypes=None):
        self.index = index
        self.prototypes = prototypes

    def health(self):
        """The /healthz body: liveness and which index is served."""
        index = self.index
        return {"status": "ok", "rows": len(index), "dim": index.matrix.shape[1],
                "head_kind": index.head_kind, "index_fingerprint": index.fingerprint}

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


class _DeadlineReader(io.RawIOBase):
    """Socket reads that all end by `deadline` (time.monotonic()): each one
    waits at most the time left, so a client that trickles bytes cannot
    stretch a request past it. Past it a read raises TimeoutError, which
    BaseHTTPRequestHandler turns into a closed connection."""

    def __init__(self, sock, deadline):
        self._sock = sock
        self._deadline = deadline

    def readable(self):
        return True

    def readinto(self, buffer):
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("request deadline passed")
        self._sock.settimeout(left)
        return self._sock.recv_into(buffer)


class _Handler(BaseHTTPRequestHandler):
    service = None
    # Seconds a whole request (line, headers and body) may take to arrive;
    # a client slower than that is disconnected without a response.
    timeout = 5

    def setup(self):
        super().setup()
        self.rfile.close()  # replaced by a reader that keeps the deadline
        deadline = time.monotonic() + self.timeout
        self.rfile = io.BufferedReader(_DeadlineReader(self.connection, deadline))

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
            self._send(200, self.service.health())
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
            payload = decode_json(raw, "request body")
        except MalformedContainer:
            self._send(400, {"error": "malformed JSON body"})
            return
        status, body = self.service.handle_query(payload)
        self._send(status, body)


class _ReusingServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that hands each connection to an idle worker
    thread and starts a new thread only when none is idle. Every connection
    is still answered at once by a thread of its own, without a thread start
    per connection. A worker left idle for IDLE_SECONDS exits."""

    def __init__(self, address, handler):
        # before super().__init__, which calls server_close if binding fails
        self._requests = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._idle = 0  # waiting workers, less the connections already queued for them
        self._workers = set()
        self._active = set()  # connections being answered
        self._closing = False
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._lock:
            if self._idle:
                self._idle -= 1
            else:
                worker = threading.Thread(target=self._work, name="vidembed-http", daemon=True)
                self._workers.add(worker)
                worker.start()
        self._requests.put((request, client_address))

    def _work(self):
        while True:
            try:
                item = self._requests.get(timeout=IDLE_SECONDS)
            except queue.Empty:
                with self._lock:
                    if self._idle:  # no queued connection is waiting for this worker
                        self._idle -= 1
                        self._workers.discard(threading.current_thread())
                        return
                continue
            if item is None:
                return
            request = item[0]
            with self._lock:
                self._active.add(request)
                if self._closing:
                    _end_reads(request)
            self.process_request_thread(*item)
            with self._lock:
                self._active.discard(request)
                self._idle += 1

    def server_close(self):
        """Close the socket, make the reads of the connections being
        answered return EOF at once, and join every worker."""
        super().server_close()
        with self._lock:
            self._closing = True
            for request in self._active:
                _end_reads(request)
            workers = list(self._workers)
        for _ in workers:
            self._requests.put(None)
        for worker in workers:
            worker.join()


def _end_reads(request):
    """Blocked and later reads of the connection return EOF; what has
    arrived is still answered."""
    with contextlib.suppress(OSError):  # closed by its worker meanwhile
        request.shutdown(socket.SHUT_RD)


def make_server(service, host="127.0.0.1", port=0):
    """Concurrent HTTP server; safe because the index is read-only."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return _ReusingServer((host, port), handler)


def serve(service, host="127.0.0.1", port=8080):
    httpd = make_server(service, host, port)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
