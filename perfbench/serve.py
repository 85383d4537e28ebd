"""serve_http workload: `vidembed gen` (20 classes x 100 videos), `vidembed
index --head max_pool`, then `vidembed serve --data` as its own process,
queried by one closed-loop client connection at a time from this process.

At N = 2,000 a query is cheap, so HTTP parsing, JSON and the per-connection
thread dominate; the same `retrieval.query` runs as many small calls, so a
selection change that adds per-call cost shows here. The client and the
server are pinned to different CPUs, so they do not take turns on one CPU.

A round is a fixed mix of requests: mostly embedding queries with k in
{1, 6, 50}, some class queries, and one request with a NaN component, which
the server answers with 200 and a NaN score (not JSON). That request counts
as failed until the server answers it with a 4xx.

End-to-end: `op_ms` is the round trip of one successful request, `pass_ms`
one round of requests, the NaN request included.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import socket
import subprocess
import time

import numpy as np

from perfbench import bench, checks, tracing

CLASSES, PER_CLASS = 20, 100
EMBEDDING_QUERIES, CLASS_QUERIES = 44, 5
KS = (1, 6, 50)
READY_TIMEOUT_S = 60.0


def _round(seed, class_names, dim):
    """The requests of one round: (kind, payload, body bytes), seeded order."""
    rng = np.random.default_rng([seed, 2000])
    reqs = []
    for i in range(EMBEDDING_QUERIES):
        v = rng.standard_normal(dim)
        reqs.append(("embedding", {"embedding": (v / np.linalg.norm(v)).tolist(), "k": KS[i % 3]}))
    names = rng.choice(class_names, size=CLASS_QUERIES, replace=False)
    for i, name in enumerate(names):
        reqs.append(("class", {"class": str(name), "k": KS[i % 3]}))
    # the known fault, on an input that does not depend on the seed
    reqs.append(("nan", {"embedding": [float("nan")] + [0.1] * (dim - 1), "k": 6}))
    reqs = [reqs[i] for i in rng.permutation(len(reqs))]
    return [(kind, payload, json.dumps(payload).encode()) for kind, payload in reqs]


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _get(port, path, timeout):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _post(port, body):
    """One closed-loop request on its own connection: (status, body, seconds)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        t0 = time.perf_counter()
        conn.connect()
        # http.client sends the headers and the body in two writes; without
        # TCP_NODELAY the body can wait for the server's delayed ACK
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.request("POST", "/query", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, data, time.perf_counter() - t0
    finally:
        conn.close()


@contextlib.contextmanager
def server_process(args, port, cpu, spans, log_path):
    """Start `vidembed serve` in a child, wait for /healthz, and always stop
    it and wait for its exit when the block ends, however it ends."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            bench.child_command(["cli"] + args + ["--port", str(port)], spans=spans,
                                label="cli.serve", cpu=cpu),
            cwd=bench.ROOT, env=bench.child_env(), stdout=log, stderr=log,
        )
    try:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            if proc.poll() is not None:
                with open(log_path, errors="replace") as f:
                    raise RuntimeError(f"server exited {proc.returncode}: {f.read()[-2000:]}")
            with contextlib.suppress(OSError):
                if _get(port, "/healthz", timeout=2)[0] == 200:
                    break
            if time.perf_counter() > deadline:
                raise RuntimeError("server not ready in time")
            time.sleep(0.01)
        yield proc
    finally:
        bench.stop_process(proc)


def run(run):
    data_dir = os.path.join(run.work, "data")
    prefix = os.path.join(run.work, "index")
    bench.run_child(["cli", "--seed", str(run.seed), "gen", "--out", data_dir,
                     "--classes", str(CLASSES), "--videos-per-class", str(PER_CLASS)],
                    spans=run.spans_path("gen"), label="cli.gen")
    bench.run_child(["cli", "index", "--data", data_dir, "--head", "max_pool", "--out", prefix],
                    spans=run.spans_path("index"), label="cli.index")
    with open(os.path.join(data_dir, "manifest.jsonl")) as f:
        header = json.loads(f.readline())
    requests = _round(run.seed, header["class_names"], header["dim"])

    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    client_cpu, server_cpu = (cpus[0], cpus[1]) if len(cpus) > 1 else (None, None)
    serve_args = ["serve", "--index", prefix, "--data", data_dir]
    t_spawn = time.perf_counter()
    rtts, rtts_all, round_s, failed = [], [], [], 0
    bodies = [dict() for _ in requests]  # distinct 200 bodies per request
    port = _free_port()
    with server_process(serve_args, port, server_cpu, run.spans_path("serve"),
                        os.path.join(run.work, "server.log")) as proc:
        ready_s = time.perf_counter() - t_spawn
        run.setup_done()
        if client_cpu is not None:
            os.sched_setaffinity(0, {client_cpu})
        try:
            t_begin = time.perf_counter()
            deadline = t_begin + run.seconds
            rounds = 0
            while rounds == 0 or time.perf_counter() < deadline:
                t0 = time.perf_counter()
                for j, (kind, _, body) in enumerate(requests):
                    status, data, dt = _post(port, body)
                    rtts_all.append(dt)
                    if kind == "nan":
                        failed += not 400 <= status < 500
                    elif status == 200 and _strict_ok(data, bodies[j]):
                        rtts.append(dt)
                    else:
                        failed += 1
                round_s.append(time.perf_counter() - t0)
                rounds += 1
            timed_s = time.perf_counter() - t_begin
        finally:
            os.sched_setaffinity(0, mask)
        peak_rss = bench.peak_rss_mb_of(proc.pid)

    correct = True
    try:
        _check_bodies(requests, bodies, prefix, data_dir, header["class_names"])
    except bench.CheckFailed as exc:
        print(f"serve_http: check failed: {exc}", flush=True)
        correct = False

    # An op is one successful request, a pass one round of requests.
    if run.tracer:
        server = tracing.Spans.load(run.spans_path("serve"))
        metrics = tracing.layer_metrics(
            server, _server_units(server, rtts_all, round_s, len(requests)), timed_s)
        layers = _per_layer(run, server, rtts_all, ready_s)
    else:
        metrics = {
            "op_ms": (1e3 * bench.median(rtts), "ms"),
            "pass_ms": (1e3 * bench.median(round_s), "ms"),
            "setup_s": (run.setup_s, "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    ms = [1e3 * t for t in rtts]
    reference = {
        "by_name": {"serve_latency_ms": 1e3 * bench.median(rtts)},
        "requests": len(rtts_all), "rounds": rounds, "timed_s": timed_s,
        "requests_per_s": len(rtts_all) / timed_s,
        "latency_ms": {"p50": bench.percentile(ms, 50), "p90": bench.percentile(ms, 90),
                       "p99": bench.percentile(ms, 99), "samples": len(ms)},
        "server_ready_s": ready_s,
    }
    if run.tracer:
        reference["layers"] = layers
    series = {"round_trip_ms": [1e3 * t for t in rtts_all], "round_s": round_s}
    return correct, len(rtts_all), failed, metrics, reference, series


def _strict_ok(data, seen):
    """Whether a 200 body parses as strict JSON; each distinct body is parsed once."""
    if data not in seen:
        try:
            seen[data] = checks.strict_json(data)
        except bench.CheckFailed:
            return False
    return True


def _check_bodies(requests, bodies, prefix, data_dir, class_names):
    """Every distinct 200 body is a correct top-k over the benchmark's own
    read of the index and the prototypes, with the sidecar's fingerprint."""
    matrix = checks.read_vemb(f"{prefix}.vemb")
    with open(f"{prefix}.json") as f:
        sidecar = json.load(f)
    ids = sidecar["ids"]
    position = {vid: i for i, vid in enumerate(ids)}
    protos = checks.read_vemb(os.path.join(data_dir, "prototypes.vemb"))
    for (kind, payload, _), seen in zip(requests, bodies):
        if kind == "nan":
            continue
        if not seen:
            raise bench.CheckFailed(f"no successful answer to a {kind} query")
        vec = (protos[class_names.index(payload["class"])] if kind == "class"
               else payload["embedding"])
        scores = checks.scores_of(matrix, vec)
        for parsed in seen.values():
            if parsed.get("index_fingerprint") != sidecar["fingerprint"]:
                raise bench.CheckFailed(
                    f"fingerprint {parsed.get('index_fingerprint')!r}, sidecar has "
                    f"{sidecar['fingerprint']!r}")
            items = [(r["video_id"], r["score"]) for r in parsed["results"]]
            checks.check_topk(items, scores, ids, position, payload["k"])


def _server_units(server, rtts_all, round_s, per_round):
    """The op and pass units of the traced server: the spans from one
    `do_POST` to the next are one request, `per_round` requests one round."""
    starts = np.flatnonzero(server.name == server.names.index("server.do_post"))
    if len(starts) != len(rtts_all):
        raise RuntimeError(f"{len(starts)} do_POST spans for {len(rtts_all)} requests")
    ends = list(starts[1:]) + [len(server.name)]
    ops = [(int(lo), int(hi)) for lo, hi in zip(starts, ends)]
    passes = [(ops[i][0], ops[i + per_round - 1][1]) for i in range(0, len(ops), per_round)]
    return {"op": (ops, rtts_all, 1), "pass": (passes, round_s, 1)}


def _per_layer(run, server, rtts_all, ready_s):
    """Reference figures of the traced run: server, transport and set-up."""
    gen = tracing.Spans.load(run.spans_path("gen"))
    index = tracing.Spans.load(run.spans_path("index"))
    handle = server.of("server.handle_query")
    if len(handle) != len(rtts_all):
        raise RuntimeError(f"{len(handle)} handle_query spans for {len(rtts_all)} requests")
    reads = np.concatenate([s.of("data.read_embeddings") for s in (gen, index, server)])
    nbytes = sum(float(s.values("data.read_embeddings").sum()) for s in (gen, index, server))
    return {
        "server.handle_query_ms": (1e3 * bench.median(handle), "ms"),
        "server.query_ms": (1e3 * bench.median(server.of("server.do_post")), "ms"),
        "server.transport_ms": (1e3 * bench.median(np.array(rtts_all) - handle), "ms"),
        "retrieval.query_ms": (1e3 * bench.median(server.of("retrieval.query")), "ms"),
        "cli.gen_s": (float(gen.of("cli.gen").sum()), "s"),
        "cli.index_s": (float(index.of("cli.index").sum()), "s"),
        "cli.serve_ready_s": (ready_s, "s"),
        "data.read_embeddings.calls": (float(len(reads)), "count"),
        "data.read_embeddings.mb": (nbytes / 2**20, "MB"),
        "data.read_embeddings_ms_per_call": (1e3 * bench.median(reads), "ms"),
        "data.load_sequence_ms_per_video": (1e3 * bench.median(index.of("data.load_sequence")), "ms"),
        "data.generate_synthetic_s": (float(gen.of("data.generate_synthetic").sum()), "s"),
    }
