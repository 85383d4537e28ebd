"""The names the benchmark's traced runs wrap still exist and are still called.

`perfbench/tracing.py` wraps program functions where their callers look them
up, and skips an attribute that is gone, so a refactor that renames one or
stops calling it through that name would only show when a `--trace 1` run
fails to find its spans. These tests catch that in the test suite.
"""

import importlib
import math
from pathlib import Path

import pytest

from vidembed import retrieval
from vidembed.heads import HeadParams, HeadSpec
from vidembed.train import TrainConfig

# the package exports the train function under the module's name
train = importlib.import_module("vidembed.train")

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.tracing")


class _Recorder:
    """Stands in for a Tracer and records what instrument asks to wrap."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, measure=None):
        self.wrapped.append((owner, attr, name))


def test_every_instrumented_attribute_exists(tracing):
    recorder = _Recorder()
    tracing.instrument(recorder)
    assert len(recorder.wrapped) > len(tracing.TENSOR_OPS)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in recorder.wrapped
        if attr not in vars(owner)
    ]
    assert not missing


def test_build_index_leaves_the_spans_the_benchmark_reads(tracing, anchor_ds):
    manifest, _, out = anchor_ds
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        retrieval.build_index(manifest, HeadParams(HeadSpec(kind="max_pool", d_in=16), {}), out)
    finally:
        tracer.unwrap_all()
    calls = tracing.unit_totals(tracer, 0, tracer.mark())
    for name in ("retrieval.build_index", "heads.embed_sequence", "data.read_embeddings"):
        assert calls.get(name, (0,))[0] >= 1, name
    assert calls["data.load_sequence"][0] == len(manifest.records)


@pytest.mark.parametrize("kind", ["lstm", "transformer"])
def test_train_leaves_one_backward_forward_and_adam_span_per_batch(tracing, anchor_ds, kind):
    manifest, protos, out = anchor_ds
    config = TrainConfig(head=HeadSpec(kind=kind, d_in=16), epochs=2, batch_size=16)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        train.train(manifest, protos, config, out)
    finally:
        tracer.unwrap_all()
    calls = tracing.unit_totals(tracer, 0, tracer.mark())
    n_train = round(config.split * len(manifest.records))
    batches = config.epochs * math.ceil(n_train / config.batch_size)
    val_batches = config.epochs * math.ceil((len(manifest.records) - n_train) / config.batch_size)
    assert calls["train.train"][0] == 1
    assert calls["tensor.backward"][0] == batches
    assert calls["optim.adam_step"][0] == batches
    # all videos have one frame count, so a batch is one forward; validation too
    assert calls["heads.head_forward"][0] == batches + val_batches
