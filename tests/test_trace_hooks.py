"""The names the benchmark's traced runs wrap still exist and are still called.

`perfbench/tracing.py` wraps program functions where their callers look them
up, and skips an attribute that is gone, so a refactor that renames one or
stops calling it through that name would only show when a `--trace 1` run
fails to find its spans. These tests catch that in the test suite.
"""

import importlib
from pathlib import Path

import pytest

from vidembed import retrieval
from vidembed.heads import HeadParams, HeadSpec

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
