"""Temporal fusion heads: mid-frame, max-pool, majority-vote, LSTM, and a
small pre-layer-norm transformer encoder.

All embedding-valued heads expect frame rows that are already unit-norm
(the loaders normalize on entry) and emit one unit-norm joint-space row per
video. `embed_sequence` is the one encode path: it groups videos by frame
count and runs each group through its head as one (B, T, D) batch.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import struct
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as tn
from .data import (
    atomic_write,
    decode_json,
    l2_normalize,
    read_embeddings_from,
    require_finite,
    stream_rng,
    vemb_bytes,
)
from .errors import (
    BadMagic,
    ConfigInvalid,
    EmptyDataset,
    HeadNotEmbedding,
    MalformedContainer,
    TruncatedFile,
    UnsupportedVersion,
)
from .tensor import Tensor

EMBEDDING_KINDS = ("mid_frame", "max_pool", "lstm", "transformer")
ALL_KINDS = EMBEDDING_KINDS + ("majority_vote",)
TRAINABLE_KINDS = ("lstm", "transformer")
_GATES = "ifgo"  # LSTM gates, in the column order of the fused gate products
_DERIVED_EXTENTS = ("d_out", "hidden", "d_model", "ffn")  # None: derived from d_in


@dataclass
class HeadSpec:
    kind: str
    d_in: int
    d_out: int | None = None
    hidden: int | None = None  # lstm
    d_model: int | None = None  # transformer
    layers: int = 2
    heads: int = 4
    ffn: int | None = None
    pooling: str = "cls"  # cls | mean

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ConfigInvalid(f"unknown head kind {self.kind!r}")
        for name in ("d_in", "d_out", "hidden", "d_model", "layers", "heads", "ffn"):
            value = getattr(self, name)
            if type(value) is not int and not (value is None and name in _DERIVED_EXTENTS):
                raise ConfigInvalid(f"{name} must be an integer, not {value!r}")
        if self.d_in < 1:
            raise ConfigInvalid("d_in must be positive")
        if self.d_out is None:
            self.d_out = self.d_in
        if self.hidden is None:
            self.hidden = self.d_in
        if self.d_model is None:
            self.d_model = self.d_in
        if self.ffn is None:
            self.ffn = 4 * self.d_model
        if min(self.d_out, self.hidden, self.d_model, self.heads, self.ffn) < 1:
            raise ConfigInvalid("all extents must be positive")
        if self.layers < 0:
            raise ConfigInvalid("layers must be >= 0")
        if self.kind == "transformer" and self.d_model % self.heads != 0:
            raise ConfigInvalid(
                f"d_model {self.d_model} not divisible by {self.heads} heads"
            )
        if self.pooling not in ("cls", "mean"):
            raise ConfigInvalid(f"unknown pooling {self.pooling!r}")


@dataclass
class HeadParams:
    spec: HeadSpec
    tensors: dict = field(default_factory=dict)

    def fingerprint(self):
        if not self.tensors:
            return f"baseline:{self.spec.kind}"
        return hashlib.sha256(self.to_bytes()).hexdigest()[:16]

    # --- serialization: JSON header + one VEMB section per tensor -----------

    def to_bytes(self):
        names = list(self.tensors.keys())
        header = json.dumps(
            {"spec": asdict(self.spec), "tensors": names}, sort_keys=True
        ).encode()
        out = io.BytesIO()
        out.write(b"VEMH" + struct.pack("<HI", 1, len(header)) + header)
        for name in names:
            out.write(vemb_bytes(self.tensors[name].data))
        return out.getvalue()

    @classmethod
    def from_bytes(cls, blob):
        if blob[:4] != b"VEMH":
            raise BadMagic("not a head-parameter container")
        if len(blob) < 10:
            raise TruncatedFile("container header incomplete")
        version, hlen = struct.unpack_from("<HI", blob, 4)
        if version != 1:
            raise UnsupportedVersion(f"container version {version}")
        if len(blob) < 10 + hlen:
            raise TruncatedFile("container header incomplete")
        header = decode_json(blob[10 : 10 + hlen], "container header")
        if not (isinstance(header, dict) and isinstance(header.get("spec"), dict)):
            raise MalformedContainer("container header needs a spec object")
        try:
            spec = HeadSpec(**header["spec"])
        except TypeError as exc:  # an unknown or a missing key
            raise MalformedContainer(f"bad head spec: {exc!r}") from exc
        names = header.get("tensors")
        if not (
            isinstance(names, list)
            and all(isinstance(n, str) for n in names)
            and len(set(names)) == len(names)
        ):
            raise MalformedContainer("container header needs a list of distinct tensor names")
        tensors = {}
        off = 10 + hlen
        for name in names:
            arr, used = read_embeddings_from(memoryview(blob)[off:])
            require_finite(arr, f"tensor {name} has NaN or infinite values")
            tensors[name] = Tensor(arr, requires_grad=True)
            off += used
        if off != len(blob):
            raise MalformedContainer(f"{len(blob) - off} bytes after the last tensor")
        # one layout entry past the blob's count shows whether the spec implies
        # more tensors, so the cost follows the blob's size, not the spec's extents
        layout = itertools.islice(_layout(spec), len(tensors) + 1)
        expected = {n: shape for n, shape, _ in layout}
        got = {n: t.shape for n, t in tensors.items()}
        if got != expected:
            missing = sorted(expected.keys() - got.keys())
            extra = sorted(got.keys() - expected.keys())
            misshapen = sorted(n for n in got.keys() & expected.keys() if got[n] != expected[n])
            raise MalformedContainer(
                f"tensors do not fit the {spec.kind} spec: missing {missing}, "
                f"extra {extra}, misshapen {misshapen}"
            )
        return cls(spec, tensors)

    def save(self, path):
        with atomic_write(path) as f:
            f.write(self.to_bytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())


# ---------------------------------------------------------------------------
# initialization


def _xavier(rng, fan_in, fan_out, shape):
    b = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-b, b, size=shape)


def _layout(spec):
    """(name, shape, init) of each tensor the spec implies, in draw order;
    init is (fan_in, fan_out) for a Xavier-uniform draw or a constant fill."""
    if spec.kind == "lstm":
        d, h = spec.d_in, spec.hidden
        for gate in _GATES:
            yield f"W_{gate}", (d, h), (d, h)
            yield f"U_{gate}", (h, h), (h, h)
            yield f"b_{gate}", (1, h), 1.0 if gate == "f" else 0.0
        yield "W_out", (h, spec.d_out), (h, spec.d_out)
        yield "b_out", (1, spec.d_out), 0.0
    elif spec.kind == "transformer":
        d, ffn = spec.d_model, spec.ffn
        yield "cls", (1, d), (d, d)
        if spec.d_in != d:
            yield "W_in", (spec.d_in, d), (spec.d_in, d)
            yield "b_in", (1, d), 0.0
        for layer in range(spec.layers):
            pre = f"l{layer}_"
            yield pre + "ln1_g", (1, d), 1.0
            yield pre + "ln1_b", (1, d), 0.0
            for name in ("wq", "wk", "wv", "wo"):
                yield pre + name, (d, d), (d, d)
            yield pre + "ln2_g", (1, d), 1.0
            yield pre + "ln2_b", (1, d), 0.0
            yield pre + "ffn_w1", (d, ffn), (d, ffn)
            yield pre + "ffn_b1", (1, ffn), 0.0
            yield pre + "ffn_w2", (ffn, d), (ffn, d)
            yield pre + "ffn_b2", (1, d), 0.0
        yield "W_out", (d, spec.d_out), (d, spec.d_out)
        yield "b_out", (1, spec.d_out), 0.0


def init_params(spec, seed, dtype=np.float32):
    """Xavier-uniform weights, zero biases (LSTM forget bias = 1), seeded."""
    rng = stream_rng(seed, f"init/{spec.kind}")
    tensors = {}
    for name, shape, init in _layout(spec):
        arr = _xavier(rng, *init, shape) if isinstance(init, tuple) else np.full(shape, init)
        tensors[name] = Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)
    return HeadParams(spec, tensors)


# ---------------------------------------------------------------------------
# parameter-free heads


def fuse_mid_frame(frames):
    """(B, T, D) frames -> (B, D) unit rows: each video's frame (T - 1) // 2."""
    return l2_normalize(frames[:, (frames.shape[1] - 1) // 2])


def fuse_max_pool(frames):
    """(B, T, D) frames -> (B, D) unit rows: the maximum over time per component."""
    return l2_normalize(frames.max(axis=1))


def classify_majority_vote(seq, protos):
    """Per-frame nearest prototype, then modal class.

    Ties break first by largest summed score over frames, then lowest index.
    """
    scores = seq.frames @ protos.vectors.T  # T x C
    votes = scores.argmax(axis=1)
    counts = Counter(votes.tolist())
    top = max(counts.values())
    tied = sorted(c for c, n in counts.items() if n == top)
    if len(tied) == 1:
        return tied[0]
    sums = scores.sum(axis=0)
    best = max(tied, key=lambda c: (sums[c], -c))
    return int(best)


# ---------------------------------------------------------------------------
# differentiable heads


def lstm_forward(x, params):
    """(T, D) or (B, T, D) unit-norm frames -> (1, d_out) or (B, d_out) unit rows.

    The four gates come from one (D, 4H) and one (H, 4H) product per step;
    the fused weights are concatenated from the stored per-gate tensors on
    every call, so gradients reach W_i..b_o unchanged.
    """
    p = params.tensors
    hid = params.spec.hidden
    w = tn.concat_cols([p[f"W_{g}"] for g in _GATES])
    u = tn.concat_cols([p[f"U_{g}"] for g in _GATES])
    b = tn.concat_cols([p[f"b_{g}"] for g in _GATES])
    batch = x.shape[0] if x.data.ndim == 3 else 1
    h = c = Tensor(np.zeros((batch, hid), dtype=x.dtype))
    for t in range(x.shape[-2]):
        z = tn.add(tn.add(tn.matmul(tn.row(x, t), w), tn.matmul(h, u)), b)
        s = tn.sigmoid(z)  # the g columns are unused
        i, f, o = (tn.col_slice(s, k * hid, (k + 1) * hid) for k in (0, 1, 3))
        g = tn.tanh(tn.col_slice(z, 2 * hid, 3 * hid))
        c = tn.add(tn.mul(f, c), tn.mul(i, g))
        h = tn.mul(o, tn.tanh(c))
    return tn.l2norm_rows(tn.add(tn.matmul(h, p["W_out"]), p["b_out"]))


def sinusoidal_positions(length, d_model, dtype=np.float32):
    pos = np.arange(length)[:, None].astype(np.float64)
    half = (d_model + 1) // 2
    freqs = np.exp(-math.log(10000.0) * (2 * np.arange(half)) / d_model)
    ang = pos * freqs[None, :]
    pe = np.zeros((length, 2 * half))
    pe[:, 0::2] = np.sin(ang)
    pe[:, 1::2] = np.cos(ang)
    return pe[:, :d_model].astype(dtype)


def transformer_forward(x, params):
    """Pre-layer-norm encoder with a learned CLS token and sinusoidal positions.

    x is (T, D) or (B, T, D); the output is (1, d_out) or (B, d_out).
    """
    spec = params.spec
    p = params.tensors
    h = x
    if "W_in" in p:
        h = tn.add(tn.matmul(h, p["W_in"]), p["b_in"])
    h = tn.concat_rows([p["cls"], h])
    pe = Tensor(sinusoidal_positions(h.shape[-2], spec.d_model, dtype=x.dtype))
    h = tn.add(h, pe)
    dk = spec.d_model // spec.heads
    inv_sqrt_dk = 1.0 / math.sqrt(dk)
    for layer in range(spec.layers):
        pre = f"l{layer}_"
        a = tn.layer_norm_rows(h, p[pre + "ln1_g"], p[pre + "ln1_b"])
        q = tn.transpose(_heads_t(tn.matmul(a, p[pre + "wq"]), dk))  # (B*heads, T, dk)
        kt = _heads_t(tn.matmul(a, p[pre + "wk"]), dk)  # (B*heads, dk, T)
        vt = _heads_t(tn.matmul(a, p[pre + "wv"]), dk)
        attn = tn.softmax_rows(tn.matmul(tn.scale(q, inv_sqrt_dk), kt))
        ctx_t = tn.matmul(vt, tn.transpose(attn))  # (B*heads, dk, T)
        ctx = tn.transpose(tn.reshape(ctx_t, h.shape[:-2] + (spec.d_model, h.shape[-2])))
        h = tn.add(h, tn.matmul(ctx, p[pre + "wo"]))
        b = tn.layer_norm_rows(h, p[pre + "ln2_g"], p[pre + "ln2_b"])
        ff = tn.relu(tn.add(tn.matmul(b, p[pre + "ffn_w1"]), p[pre + "ffn_b1"]))
        ff = tn.add(tn.matmul(ff, p[pre + "ffn_w2"]), p[pre + "ffn_b2"])
        h = tn.add(h, ff)
    pooled = tn.row(h, 0) if spec.pooling == "cls" else mean_over_frames(h)
    return tn.l2norm_rows(tn.add(tn.matmul(pooled, p["W_out"]), p["b_out"]))


def _heads_t(x, dk):
    """(..., T, heads*dk) -> (B*heads, dk, T): each head's columns, transposed."""
    t = x.shape[-2]
    return tn.reshape(tn.transpose(x), (-1, dk, t))


def mean_over_frames(h):
    """Mean over the frame positions, excluding the CLS row."""
    return tn.mean_rows(tn.row_slice(h, 1, h.shape[-2]))


_FUSERS = {"mid_frame": fuse_mid_frame, "max_pool": fuse_max_pool}
_FORWARDS = {"lstm": lstm_forward, "transformer": transformer_forward}


def head_forward(x, params):
    """Differentiable forward for a trainable head; x is a (T, D) tensor (a
    batch of one) or a (B, T, D) batch of equal-length videos."""
    forward = _FORWARDS.get(params.spec.kind)
    if forward is None:
        raise ConfigInvalid(f"{params.spec.kind} head has no differentiable forward")
    return forward(x, params)


def length_groups(seqs):
    """(positions, frames) for each frame count T, in first-seen order: the
    input positions of the videos with T frames and their (B, T, D) stack."""
    groups = {}
    for i, seq in enumerate(seqs):
        groups.setdefault(seq.frames.shape[0], []).append(i)
    return [(pos, np.stack([seqs[i].frames for i in pos])) for pos in groups.values()]


def embed_sequence(seqs, params):
    """Joint-space rows of a list of FrameSequence: an (N, d_out) array of
    unit rows, row i for seqs[i].

    Videos are grouped by frame count, without padding, and each group is
    one forward: `head_forward` on its (B, T, D) frames for a trainable
    head, a fuser over the time axis for mid_frame and max_pool. A row does
    not depend on the other videos in its group, up to the float rounding
    of the batched products.
    """
    kind = params.spec.kind
    if kind not in EMBEDDING_KINDS:
        raise HeadNotEmbedding(f"{kind} emits classes, not embeddings")
    if not seqs:
        raise EmptyDataset("no videos to embed")

    def encode(frames):
        if kind in _FUSERS:
            return _FUSERS[kind](frames)
        x = Tensor(frames.astype(params.tensors["W_out"].dtype, copy=False))
        return head_forward(x, params).data

    groups = length_groups(seqs)
    rows = np.concatenate([encode(frames) for _, frames in groups])
    out = np.empty_like(rows)
    out[np.concatenate([pos for pos, _ in groups])] = rows
    return out
