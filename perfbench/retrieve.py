"""retrieve_1m workload: load a 1,000,000 x 32 index and send single
closed-loop queries to it.

Rows are float32 unit vectors under shuffled ids; 1% of them are exact
duplicates of other rows under other ids. Half the queries are random unit
vectors; the other half are placed so that a duplicated pair sits exactly at
ranks k and k+1, so the tie rule (ascending id) decides the k-th place.
`retrieval` and the VEMB reader in `data` dominate here; any faster top-k
selection must keep that tie contract.

End-to-end: `op_ms` is one `retrieval.query`, `pass_ms` one
`RetrievalIndex.load`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import time

import numpy as np

from perfbench import bench, checks, tracing

ROWS, DIM = 1_000_000, 32
DUPLICATE_SHARE = 0.01
QUERIES = (("random", 1), ("random", 10), ("random", 100),
           ("pair", 1), ("pair", 10), ("pair", 100))


def _place_pairs(matrix, ks, rng):
    """One query per k, each with a duplicated pair at ranks k and k+1.

    For a random query, the row at rank k (a row with no exact twin yet) is
    copied over a row that scores below every cut so far, so the copy ties
    with it at this query's cut without moving any earlier query's cut."""
    queries, pairs, cuts = [], [], []
    for k in ks:
        earlier = [checks.scores_of(matrix, p) for p in queries]
        while True:
            q = rng.standard_normal(matrix.shape[1])
            q /= np.linalg.norm(q)
            s = checks.scores_of(matrix, q)
            row = int(np.argpartition(-s, k - 1)[k - 1])
            if np.count_nonzero(s == s[row]) == 1 and all(
                e[row] < cut for e, cut in zip(earlier, cuts)
            ):
                break
        below = s < s[row]
        for e, cut in zip(earlier, cuts):
            below &= e < cut
        twin = int(rng.choice(np.flatnonzero(below)))
        matrix[twin] = matrix[row]
        queries.append(q)
        pairs.append((row, twin))
        cuts.append(s[row])
    return queries, pairs


def make_index(argv):
    """Set-up, run in a child: write the index and the query set."""
    parser = argparse.ArgumentParser(prog="make-index")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="index path prefix")
    parser.add_argument("--rows", type=int, default=ROWS)
    parser.add_argument("--dim", type=int, default=DIM)
    args = parser.parse_args(argv)
    retrieval = importlib.import_module("vidembed.retrieval")

    rng = np.random.default_rng([args.seed, 1_000_000])
    matrix = rng.standard_normal((args.rows, args.dim), dtype=np.float32)
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    n_dup = max(1, int(args.rows * DUPLICATE_SHARE))
    chosen = rng.permutation(args.rows)[: 2 * n_dup]
    matrix[chosen[n_dup:]] = matrix[chosen[:n_dup]]
    placed, placed_rows = _place_pairs(matrix, [k for kind, k in QUERIES if kind == "pair"], rng)
    ids = [f"v{i:07d}" for i in rng.permutation(args.rows)]
    retrieval.RetrievalIndex(ids, matrix, "synthetic", f"synthetic-seed{args.seed}").save(args.out)

    vectors, pairs = [], []
    for kind, _ in QUERIES:
        if kind == "random":
            q = rng.standard_normal(args.dim)
            vectors.append(q / np.linalg.norm(q))
            pairs.append(["", ""])
        else:
            vectors.append(placed.pop(0))
            pairs.append([ids[i] for i in placed_rows.pop(0)])
    with open(f"{args.out}.queries.json", "w") as f:
        json.dump({"vectors": np.array(vectors).tolist(), "k": [k for _, k in QUERIES],
                   "pairs": pairs}, f)
    return 0


def run(run):
    prefix = os.path.join(run.work, "index")
    bench.run_child(["make-index", "--seed", str(run.seed), "--out", prefix,
                     "--rows", str(ROWS), "--dim", str(DIM)])
    with open(f"{prefix}.queries.json") as f:
        spec = json.load(f)
    queries = list(zip(np.array(spec["vectors"]), spec["k"], spec["pairs"]))
    run.setup_done()

    retrieval = importlib.import_module("vidembed.retrieval")
    load_s, query_ms, floor_ms = [], [], []
    load_spans, query_spans = [], []  # span range [lo, hi) of every timed unit
    results = [None] * len(queries)
    changed = []
    t_begin = time.perf_counter()
    deadline = t_begin + run.seconds
    while not load_s or time.perf_counter() < deadline:
        index = None  # free the previous copy before loading the next
        lo = run.mark()
        t0 = time.perf_counter()
        index = retrieval.RetrievalIndex.load(prefix)
        load_s.append(time.perf_counter() - t0)
        load_spans.append((lo, run.mark()))
        for j, (q, k, _) in enumerate(queries):
            lo = run.mark()
            t0 = time.perf_counter()
            result = retrieval.query(index, q, k)
            query_ms.append(1e3 * (time.perf_counter() - t0))
            query_spans.append((lo, run.mark()))
            if results[j] is None:
                results[j] = result.items
            elif result.items != results[j]:
                changed.append(j)
            if run.tracer:
                q32 = (q / math.sqrt(float(q @ q))).astype(np.float32)
                t0 = time.perf_counter()
                index.matrix @ q32
                floor_ms.append(1e3 * (time.perf_counter() - t0))
    timed_s = time.perf_counter() - t_begin
    peak_rss = bench.peak_rss_mb_self()
    index = None

    correct = True
    try:
        if changed:
            raise bench.CheckFailed(f"queries {sorted(set(changed))} changed between rounds")
        matrix = checks.read_vemb(f"{prefix}.vemb")
        with open(f"{prefix}.json") as f:
            ids = json.load(f)["ids"]
        position = {vid: i for i, vid in enumerate(ids)}
        for (q, k, pair), items in zip(queries, results):
            checks.check_topk(items, checks.scores_of(matrix, q), ids, position, k)
            if pair[0]:
                checks.check_pair_cut(items, pair, k)
    except bench.CheckFailed as exc:
        print(f"retrieve_1m: check failed: {exc}", flush=True)
        correct = False

    # An op is one query, a pass one load of the index.
    reference = {"loads": len(load_s), "queries": len(query_ms), "timed_s": timed_s,
                 "by_name": {"index_load_s": bench.median(load_s),
                             "query_ms": bench.median(query_ms)}}
    if run.tracer:
        spans = tracing.Spans.of_tracer(run.tracer)
        metrics = tracing.layer_metrics(spans, {
            "op": (query_spans, [1e-3 * t for t in query_ms], 1),
            "pass": (load_spans, load_s, 1),
        }, timed_s)
        reference["layers"] = _per_layer(spans, len(load_s), floor_ms)
    else:
        metrics = {
            "op_ms": (bench.median(query_ms), "ms"),
            "pass_ms": (1e3 * bench.median(load_s), "ms"),
            "setup_s": (run.setup_s, "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    series = {"index_load_s": load_s, "query_ms": query_ms}
    return correct, len(load_s) + len(query_ms), 0, metrics, reference, series


def _per_layer(spans, loads, floor_ms):
    """Reference figures of the traced run: the load's parts and the query
    against the bare mat-vec."""
    reads = spans.of("data.read_embeddings")
    nbytes = spans.values("data.read_embeddings")
    return {
        "retrieval.index_init_s": (bench.median(spans.of("retrieval.index_init")), "s"),
        "retrieval.load_read_s": (bench.median(reads), "s"),
        "retrieval.load_self_s": (bench.median(spans.self_times("retrieval.load")), "s"),
        "retrieval.query_ms": (1e3 * bench.median(spans.of("retrieval.query")), "ms"),
        "retrieval.matvec_floor_ms": (bench.median(floor_ms), "ms"),
        "data.read_embeddings.calls": (len(reads) / loads, "count"),
        "data.read_embeddings.mb": (float(nbytes.sum()) / 2**20 / loads, "MB"),
        "data.read_embeddings_ms_per_call": (1e3 * bench.median(reads), "ms"),
    }
