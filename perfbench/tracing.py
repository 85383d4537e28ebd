"""Spans for the traced benchmark runs.

`instrument` wraps the program's public functions where the calling module
looks them up (`train.py` imports `backward`, `adam_step` and `head_forward`
by name, while `heads.py` calls `tn.matmul` through the module), so every call
leaves one span: name, start, end, parent and an optional value (bytes read).
Spans stay in memory in flat arrays and are written out when the process
ends. A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from array import array

import numpy as np

from perfbench import bench

# The tensor primitives the fusion heads and the training loss call.
TENSOR_OPS = (
    "matmul", "add", "mul", "scale", "sigmoid", "tanh", "relu", "transpose",
    "row", "col_slice", "concat_cols", "concat_rows", "mean_rows",
    "layer_norm_rows", "softmax_rows", "l2norm_rows", "softmax_cross_entropy",
)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    def _open(self, name_id, t0):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(t0)
            self.end.append(t0)
            self.value.append(0.0)
        stack.append(idx)
        return idx

    def _close(self, idx, t1, value=0.0):
        self._local.stack.pop()
        self.end[idx] = t1
        self.value[idx] = value

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def mark(self):
        """Index of the next span; spans between two marks form one unit."""
        return len(self.start)

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(self.intern(name), time.perf_counter())
        try:
            yield
        finally:
            self._close(idx, time.perf_counter())

    def wrap(self, owner, attr, name, measure=None):
        """Replace owner.attr by a function that records a span per call.
        An attribute the program no longer has is left alone."""
        if attr not in vars(owner):
            return
        original = getattr(owner, attr)
        name_id = self.intern(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id, time.perf_counter())
            value = 0.0
            try:
                out = original(*args, **kwargs)
                if measure is not None:
                    value = measure(out)
                return out
            finally:
                tracer._close(idx, time.perf_counter(), value)

        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, traced)

    def unwrap_all(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self, lo=0, hi=None):
        """Spans [lo, hi) as numpy arrays: name ids, parents, durations, values."""
        hi = len(self.start) if hi is None else hi
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi])
        value = np.frombuffer(self.value)[lo:hi]
        return name, parent, dur, value

    def save(self, path):
        name, parent, _, value = self.arrays()
        np.savez(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            name=name, parent=parent, start=np.frombuffer(self.start),
            end=np.frombuffer(self.end), value=value,
        )


class Spans:
    """A read-only view of recorded spans, from a Tracer or a saved file."""

    def __init__(self, names, name, parent, dur, value):
        self.names, self.name, self.parent, self.dur, self.value = (
            list(names), name, parent, dur, value
        )

    @classmethod
    def of_tracer(cls, tracer):
        return cls(tracer.names, *tracer.arrays())

    @classmethod
    def load(cls, path):
        with np.load(path) as f:
            return cls(
                [str(n) for n in f["names"]], f["name"], f["parent"],
                f["end"] - f["start"], f["value"],
            )

    def of(self, name):
        """Durations of every span called `name`, in call order."""
        if name not in self.names:
            return np.empty(0)
        return self.dur[self.name == self.names.index(name)]

    def values(self, name):
        if name not in self.names:
            return np.empty(0)
        return self.value[self.name == self.names.index(name)]

    def self_times(self, name):
        """Duration minus direct children, for every span called `name`."""
        idx = np.flatnonzero(self.name == self.names.index(name))
        child = self.parent >= 0
        covered = np.bincount(
            self.parent[child], weights=self.dur[child], minlength=len(self.dur)
        )
        return self.dur[idx] - covered[idx]


    def breakdown(self, lo, hi):
        """One timed unit, spans [lo, hi): seconds in the program's top-level
        calls ("program"), in their own code outside traced callees ("self")
        and in calls with no traced callee ("leaf"); calls per layer (the
        span name's first part) and MB read by `data.read_embeddings`."""
        name, parent, dur = self.name[lo:hi], self.parent[lo:hi], self.dur[lo:hi]
        inner = parent >= lo
        top = ~inner
        has_child = np.zeros(hi - lo, dtype=bool)
        has_child[parent[inner] - lo] = True
        under_top = np.zeros(hi - lo, dtype=bool)
        under_top[inner] = top[parent[inner] - lo]
        program = float(dur[top].sum())
        calls = np.bincount(name, minlength=len(self.names))
        by_layer = dict.fromkeys(LAYERS, 0)
        for i in np.flatnonzero(calls):
            layer = self.names[i].split(".")[0]
            if layer in by_layer:
                by_layer[layer] += int(calls[i])
        return {
            "program": program,
            "self": program - float(dur[under_top].sum()),
            "leaf": float(dur[~has_child].sum()),
            "calls": by_layer,
            "read_mb": float(self.value[lo:hi][name == self._id("data.read_embeddings")].sum())
            / 2**20,
        }

    def _id(self, name):
        return self.names.index(name) if name in self.names else -1


# The layers whose calls the per-layer metrics count.
LAYERS = ("tensor", "heads", "optim", "train", "data", "retrieval", "server")


def layer_metrics(spans, units, timed_s):
    """The per-layer metrics every workload reports, medians over its units.

    `units` maps "op" and "pass" to (ranges, walls, items): the span range
    [lo, hi) and the wall seconds of every timed unit of that kind, and the
    number of items a unit holds (an op is reported per item)."""
    m = {}
    for kind, (ranges, walls, items) in units.items():
        parts = [spans.breakdown(lo, hi) for lo, hi in ranges]
        for key, label in (("program", "program_ms"), ("self", "program_self_ms"),
                           ("leaf", "leaf_ms")):
            m[f"{kind}.{label}"] = (1e3 * bench.median([p[key] for p in parts]) / items, "ms")
        m[f"{kind}.outside_ms"] = (
            1e3 * bench.median([w - p["program"] for p, w in zip(parts, walls)]) / items, "ms")
        for layer in LAYERS:
            m[f"{layer}.calls_per_{kind}"] = (
                bench.median([p["calls"][layer] for p in parts]) / items, "count")
        if kind == "pass":
            m["data.read_mb_per_pass"] = (bench.median([p["read_mb"] for p in parts]), "MB")
    m["trace.overhead_pct"] = (100 * len(spans.dur) * span_cost_seconds() / timed_s, "%")
    return m


def unit_totals(tracer, lo, hi):
    """Per span name: (calls, total seconds, total value) within spans [lo, hi)."""
    name, _, dur, value = tracer.arrays(lo, hi)
    n = len(tracer.names)
    calls = np.bincount(name, minlength=n)
    secs = np.bincount(name, weights=dur, minlength=n)
    vals = np.bincount(name, weights=value, minlength=n)
    return {
        tracer.names[i]: (int(calls[i]), float(secs[i]), float(vals[i]))
        for i in range(n)
        if calls[i]
    }


def unit_self_seconds(tracer, idx):
    """Self time of span idx: its duration minus its direct children's."""
    _, parent, dur, _ = tracer.arrays(idx, None)
    return float(dur[0] - dur[parent == idx].sum())


def instrument(tracer):
    """Wrap the program's public functions at every lookup site the
    benchmark's paths go through. Call once per process, before the calls."""
    mod = importlib.import_module
    tn = mod("vidembed.tensor")
    train = mod("vidembed.train")
    data = mod("vidembed.data")
    retrieval = mod("vidembed.retrieval")
    server = mod("vidembed.server")
    cli = mod("vidembed.cli")

    for op in TENSOR_OPS:
        tracer.wrap(tn, op, f"tensor.{op}")
    tracer.wrap(train, "backward", "tensor.backward")
    tracer.wrap(train, "adam_step", "optim.adam_step")
    tracer.wrap(train, "head_forward", "heads.head_forward")
    tracer.wrap(train, "train", "train.train")
    tracer.wrap(cli, "train", "train.train")
    tracer.wrap(retrieval, "embed_sequence", "heads.embed_sequence")

    nbytes = lambda arr: float(arr.nbytes)  # noqa: E731
    for owner in (data, retrieval, cli):
        tracer.wrap(owner, "read_embeddings", "data.read_embeddings", measure=nbytes)
    tracer.wrap(data.DatasetManifest, "load_sequence", "data.load_sequence")
    tracer.wrap(cli, "generate_synthetic", "data.generate_synthetic")

    tracer.wrap(retrieval, "build_index", "retrieval.build_index")
    tracer.wrap(cli, "build_index", "retrieval.build_index")
    tracer.wrap(retrieval.RetrievalIndex, "__init__", "retrieval.index_init")
    tracer.wrap(retrieval.RetrievalIndex, "load", "retrieval.load")
    for owner, attr in ((retrieval, "query"), (server, "query"), (cli, "run_query")):
        tracer.wrap(owner, attr, "retrieval.query")

    tracer.wrap(server.QueryService, "handle_query", "server.handle_query")
    tracer.wrap(server._Handler, "do_POST", "server.do_post")


def span_cost_seconds(samples=20000):
    """Measured cost of one traced call over a bare one, in seconds."""
    tracer = Tracer()

    class Owner:
        @staticmethod
        def noop():
            return None

    bare = Owner.noop
    t0 = time.perf_counter()
    for _ in range(samples):
        bare()
    t_bare = time.perf_counter() - t0
    tracer.wrap(Owner, "noop", "noop")
    traced = Owner.noop
    t0 = time.perf_counter()
    for _ in range(samples):
        traced()
    return max(time.perf_counter() - t0 - t_bare, 0.0) / samples
