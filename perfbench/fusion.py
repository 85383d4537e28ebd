"""fusion workload: train the LSTM and the transformer heads on an order-task
dataset (4 classes x 50 videos, T=20, D=32), then encode the dataset under the
trained LSTM and under max_pool.

Training calls use a fixed subset of 20 videos per class: a call on all 200
videos takes ~3 s, so a 30 s run would hold only 7 of them, and the machine's
speed swings by up to 1.8x within seconds; at 80 videos a run holds twice as
many units, and the loss fell between the two epochs for each of 30 seeds
tried (at 40 videos the transformer's did not for one of them).

`tensor`, `heads` and `optim` do nearly all the work here and none in the
other workloads. Training (forward, tape and backward) runs beside encoding
(forward only, no tape), so a change that speeds one at the other's cost
shows; LSTM against max_pool encoding separates a `heads` gain from a `data`
gain.

End-to-end: `op_ms` is one training sample under both heads (a round's two
`train.train` calls over their samples), `pass_ms` a round's encoding (the
dataset once under the LSTM and MAXPOOL_ENCODES times under max_pool).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import time

from perfbench import bench, checks, tracing

CLASSES, PER_CLASS, FRAMES, DIM = 4, 50, 20, 32
TRAIN_PER_CLASS = 20
# Two epochs per call, so each call's last-epoch loss can be checked against
# its first. Split and batch size are the TrainConfig defaults.
EPOCHS, SPLIT, BATCH = 2, 0.8, 16
# One max_pool encode takes ~10 ms against ~2 s for the rest of a round; ten
# per round give its median more units at little cost.
MAXPOOL_ENCODES = 10
TRAINED = ("lstm", "transformer")


def run(run):
    data_dir = os.path.join(run.work, "data")
    bench.run_child(
        ["cli", "--seed", str(run.seed), "gen", "--out", data_dir, "--task", "order",
         "--classes", str(CLASSES), "--videos-per-class", str(PER_CLASS),
         "--frames", str(FRAMES), "--dim", str(DIM)],
        spans=run.spans_path("gen"), label="cli.gen",
    )
    run.setup_done()

    data = importlib.import_module("vidembed.data")
    heads = importlib.import_module("vidembed.heads")
    train = importlib.import_module("vidembed.train")
    retrieval = importlib.import_module("vidembed.retrieval")
    manifest = data.DatasetManifest.load(os.path.join(data_dir, "manifest.jsonl"))
    protos = data.load_prototypes(data_dir)
    counts, records = {}, []
    for rec in manifest.records:
        counts[rec.label] = counts.get(rec.label, 0) + 1
        if counts[rec.label] <= TRAIN_PER_CLASS:
            records.append(rec)
    train_set = data.DatasetManifest(manifest.dim, manifest.class_names, records,
                                     manifest.seed, manifest.task)
    n_train = round(SPLIT * len(train_set.records))
    baseline = heads.HeadParams(heads.HeadSpec(kind="max_pool", d_in=DIM), {})

    rates = {f"train_samples_per_s.{h}": [] for h in TRAINED}
    rates.update({f"encode_videos_per_s.{h}": [] for h in ("lstm", "max_pool")})
    units = []  # (kind, head, first span index)
    ops, passes = ([], []), ([], [])  # (span ranges, wall seconds) of each round
    digests, losses, last = {}, [], {}
    t_begin = time.perf_counter()
    deadline = t_begin + run.seconds
    while not units or time.perf_counter() < deadline:
        op_lo, op_s = run.mark(), 0.0
        for head in TRAINED:
            config = train.TrainConfig(
                head=heads.HeadSpec(kind=head, d_in=DIM), epochs=EPOCHS,
                batch_size=BATCH, split=SPLIT, seed=run.seed,
            )
            lo = run.mark()
            t0 = time.perf_counter()
            params, history = train.train(train_set, protos, config, data_dir)
            dt = time.perf_counter() - t0
            op_s += dt
            units.append(("train", head, lo))
            rates[f"train_samples_per_s.{head}"].append(n_train * EPOCHS / dt)
            digests.setdefault(f"{head} parameters", set()).add(
                hashlib.sha256(params.to_bytes()).hexdigest())
            losses.append((f"{head} training", history.records[0].train_loss,
                           history.records[-1].train_loss))
            last[head] = params
        ops[0].append((op_lo, run.mark()))
        ops[1].append(op_s)
        pass_lo, pass_s = run.mark(), 0.0
        for head, params, repeats in (("lstm", last["lstm"], 1),
                                      ("max_pool", baseline, MAXPOOL_ENCODES)):
            for _ in range(repeats):
                lo = run.mark()
                t0 = time.perf_counter()
                index = retrieval.build_index(manifest, params, data_dir)
                dt = time.perf_counter() - t0
                pass_s += dt
                units.append(("encode", head, lo))
                rates[f"encode_videos_per_s.{head}"].append(len(index) / dt)
                digests.setdefault(f"{head} rows", set()).add(
                    hashlib.sha256(index.matrix.tobytes()).hexdigest())
                last[f"{head} index"] = index
        passes[0].append((pass_lo, run.mark()))
        passes[1].append(pass_s)
    timed_s = time.perf_counter() - t_begin
    peak_rss = bench.peak_rss_mb_self()
    end = run.mark()

    correct = True
    try:
        checks.check_identical(digests)
        checks.check_loss_decreases(losses)
        own_protos = checks.read_vemb(os.path.join(data_dir, "prototypes.vemb"))
        labels = _labels(os.path.join(data_dir, "manifest.jsonl"))
        for head, params in (("lstm", last["lstm"]), ("max_pool", baseline)):
            index = last[f"{head} index"]
            checks.check_unit_rows(index.matrix)
            acc, _ = train.evaluate(manifest, params, protos, data_dir)
            checks.check_accuracy(acc, index.matrix, own_protos, [labels[i] for i in index.ids])
    except bench.CheckFailed as exc:
        print(f"fusion: check failed: {exc}", flush=True)
        correct = False

    # An op is one training sample under both heads; a pass is a round's
    # encoding: the dataset once under the LSTM and MAXPOOL_ENCODES times
    # under max_pool.
    samples = n_train * EPOCHS
    reference = {"units": {k: len(v) for k, v in rates.items()}, "timed_s": timed_s,
                 "by_name": {name: bench.median(v) for name, v in rates.items()}}
    if run.tracer:
        spans = tracing.Spans.of_tracer(run.tracer)
        metrics = tracing.layer_metrics(
            spans, {"op": ops + (samples,), "pass": passes + (1,)}, timed_s)
        reference["layers"] = _per_layer(run, units, end, n_train)
    else:
        metrics = {
            "op_ms": (1e3 * bench.median(ops[1]) / samples, "ms"),
            "pass_ms": (1e3 * bench.median(passes[1]), "ms"),
            "setup_s": (run.setup_s, "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    series = dict(rates, op_s=ops[1], pass_s=passes[1])
    return correct, len(units), 0, metrics, reference, series


def _labels(manifest_path):
    """video_id -> label, read from the manifest's JSON lines."""
    with open(manifest_path) as f:
        records = [json.loads(line) for line in f if line.strip()][1:]
    return {r["video_id"]: r["label"] for r in records}


def _per_layer(run, units, end, n_train):
    """Reference figures of the traced run, by layer, primitive and head."""
    tracer = run.tracer
    bounds = [lo for _, _, lo in units] + [end]
    totals = {}  # (kind, head) -> {span name: [calls, seconds, value]}
    counts = {}
    self_s = {}
    for (kind, head, lo), hi in zip(units, bounds[1:]):
        agg = totals.setdefault((kind, head), {})
        for name, (calls, secs, value) in tracing.unit_totals(tracer, lo, hi).items():
            acc = agg.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += secs
            acc[2] += value
        counts[(kind, head)] = counts.get((kind, head), 0) + 1
        if kind == "train":
            self_s[head] = self_s.get(head, 0.0) + tracing.unit_self_seconds(tracer, lo)

    m = {}
    batches_per_call = EPOCHS * math.ceil(n_train / BATCH)
    for head in TRAINED:
        agg = totals[("train", head)]
        calls = counts[("train", head)]
        samples = calls * n_train * EPOCHS
        batches = calls * batches_per_call
        op_calls = 0
        for op in tracing.TENSOR_OPS:
            n, secs, _ = agg.get(f"tensor.{op}", (0, 0.0, 0.0))
            if n:
                op_calls += n
                m[f"tensor.{op}.calls_per_sample.{head}"] = (n / samples, "count")
                m[f"tensor.{op}.forward_ms_per_sample.{head}"] = (1e3 * secs / samples, "ms")
        m[f"tensor.op_calls_per_sample.{head}"] = (op_calls / samples, "count")
        m[f"tensor.backward_ms_per_sample.{head}"] = (1e3 * agg["tensor.backward"][1] / samples, "ms")
        m[f"heads.head_forward_ms_per_sample.{head}"] = (
            1e3 * agg["heads.head_forward"][1] / samples, "ms")
        m[f"optim.adam_step.calls_per_batch.{head}"] = (agg["optim.adam_step"][0] / batches, "count")
        m[f"optim.adam_step_ms_per_batch.{head}"] = (1e3 * agg["optim.adam_step"][1] / batches, "ms")
        m[f"train.self_ms_per_sample.{head}"] = (1e3 * self_s[head] / samples, "ms")
    for head in ("lstm", "max_pool"):
        agg = totals[("encode", head)]
        videos = counts[("encode", head)] * CLASSES * PER_CLASS
        n, secs, _ = agg["heads.embed_sequence"]
        m[f"heads.embed_ms_per_video.{head}"] = (1e3 * secs / n, "ms")
        m[f"retrieval.build_index_ms_per_video.{head}"] = (
            1e3 * agg["retrieval.build_index"][1] / videos, "ms")
    agg = totals[("encode", "max_pool")]
    encodes = counts[("encode", "max_pool")]
    n, secs, nbytes = agg["data.read_embeddings"]
    m["data.read_embeddings.calls"] = (n / encodes, "count")
    m["data.read_embeddings.mb"] = (nbytes / 2**20 / encodes, "MB")
    m["data.read_embeddings_ms_per_call"] = (1e3 * secs / n, "ms")
    n, secs, _ = agg["data.load_sequence"]
    m["data.load_sequence_ms_per_video"] = (1e3 * secs / n, "ms")
    gen = tracing.Spans.load(run.spans_path("gen"))
    m["data.generate_synthetic_s"] = (float(gen.of("data.generate_synthetic").sum()), "s")
    return m
