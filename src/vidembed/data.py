"""On-disk embedding format (VEMB), dataset manifests, frame sampling, and
the synthetic dataset generator.

VEMB layout (little-endian): magic 56 45 4D 42, u16 version=1, u16 flags=0,
u8 dtype (0=float32, 1=float64), u8 rank (1 or 2), rank x u32 extents,
row-major payload, u32 CRC-32 (IEEE) of the payload. Readers reject any
other version or flags.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagic,
    ChecksumMismatch,
    ConfigInvalid,
    DegenerateData,
    MalformedContainer,
    NonFiniteInput,
    NormUnderflow,
    TruncatedFile,
    UnsupportedVersion,
)

MAGIC = b"VEMB"
# Videos that DatasetManifest.normalized_chunks loads and normalizes together,
# so that build_index and evaluate encode them with one embed_sequence call.
ENCODE_CHUNK = 256
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}


def l2_normalize(v, min_norm=1e-12):
    """Scale vector(s) to unit L2 norm; rows are normalized independently."""
    arr = np.asarray(v, dtype=np.float64 if np.asarray(v).dtype != np.float32 else np.float32)
    if arr.ndim == 1:
        sq = float(np.vdot(arr, arr))  # arr @ arr, without an overflow warning
        if math.isinf(sq):  # overflowed: rescale by max |x|, so others stay bit-exact
            arr = arr / np.abs(arr).max()
            sq = float(np.vdot(arr, arr))
        n = math.sqrt(sq)
        if n < min_norm:
            raise NormUnderflow("vector norm below 1e-12")
        return arr / n
    with np.errstate(over="ignore"):  # an overflowed row is rescaled below
        norms = np.sqrt((arr * arr).sum(axis=-1, keepdims=True))
    if norms.max(initial=0.0) == np.inf:  # overflowed: rescale those rows by max |x|
        big = np.isinf(norms[..., 0])
        arr = arr.copy()
        arr[big] /= np.abs(arr[big]).max(axis=-1, keepdims=True)
        norms = np.sqrt((arr * arr).sum(axis=-1, keepdims=True))
    if np.any(norms < min_norm):
        raise NormUnderflow("row norm below 1e-12")
    return arr / norms


def require_finite(arr, message):
    """Raise NonFiniteInput(message) if `arr` has a NaN or infinite element;
    min and max propagate NaN and reach any inf without a temporary."""
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NonFiniteInput(message)


@contextlib.contextmanager
def atomic_write(path, mode="wb"):
    """Yield a file open on `path.tmp` and rename it over `path` when the
    block ends, so a reader sees the old file or the whole new one. On any
    error the temporary file is removed and the error re-raised. Text modes
    are UTF-8 with newline="" (rows are written exactly as given)."""
    tmp = f"{path}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def decode_json(text, what):
    """Parse one JSON document from a str or UTF-8 bytes. Text that is not
    UTF-8, not JSON, or nested too deeply for the parser raises
    MalformedContainer, naming `what`."""
    try:
        if not isinstance(text, str):
            text = str(text, "utf-8")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedContainer(f"{what}: {exc!r}") from exc


def sample_frames(n_frames, target):
    """Endpoint-inclusive uniform indices: idx_i = round_half_up(i*(N-1)/(T-1)).

    Duplicates appear when n_frames < target (index repetition upsampling).
    """
    if n_frames < 1 or target < 1:
        raise ConfigInvalid("n_frames and target must be >= 1")
    if target == 1:
        return [0]
    return [
        int(math.floor(i * (n_frames - 1) / (target - 1) + 0.5))
        for i in range(target)
    ]


# ---------------------------------------------------------------------------
# VEMB container


def vemb_bytes(matrix):
    """Serialize a rank-1 or rank-2 float array to a VEMB blob."""
    arr = np.ascontiguousarray(matrix)
    if arr.dtype not in _DTYPE_CODES:
        raise ConfigInvalid(f"unsupported dtype {arr.dtype}")
    if arr.ndim not in (1, 2):
        raise ConfigInvalid(f"unsupported rank {arr.ndim}")
    payload = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
    header = MAGIC + struct.pack("<HHBB", 1, 0, _DTYPE_CODES[arr.dtype], arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    crc = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    return header + payload + crc


def write_embeddings(path, matrix):
    """Write a rank-1 or rank-2 float array atomically (see atomic_write)."""
    with atomic_write(path) as f:
        f.write(vemb_bytes(matrix))


def read_embeddings_from(buf):
    """Parse a VEMB blob from a bytes-like object; returns (array, bytes_used).

    The array is a view of buf's payload when buf is writable and the payload
    is aligned for its dtype, and a copy otherwise, so it is always writable.
    """
    buf = memoryview(buf)
    if len(buf) < 4:
        raise TruncatedFile("shorter than magic")
    if bytes(buf[:4]) != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {bytes(buf[:4])!r}")
    if len(buf) < 10:
        raise TruncatedFile("header incomplete")
    version, flags, dtype_code, rank = struct.unpack_from("<HHBB", buf, 4)
    if version != 1:
        raise UnsupportedVersion(f"version {version}")
    if flags != 0:
        raise UnsupportedVersion(f"flags {flags:#06x}")
    if dtype_code not in _DTYPES or rank not in (1, 2):
        raise UnsupportedVersion(f"dtype {dtype_code}, rank {rank}")
    off = 10
    if len(buf) < off + 4 * rank:
        raise TruncatedFile("extents incomplete")
    extents = struct.unpack_from(f"<{rank}I", buf, off)
    off += 4 * rank
    dt = _DTYPES[dtype_code]
    nbytes = dt.itemsize * math.prod(extents)
    if len(buf) < off + nbytes + 4:
        raise TruncatedFile("payload incomplete")
    payload = buf[off : off + nbytes]
    (crc_stored,) = struct.unpack_from("<I", buf, off + nbytes)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise ChecksumMismatch("payload CRC-32 mismatch")
    arr = np.frombuffer(payload, dtype=dt).reshape(extents)
    arr = arr.astype(dt.newbyteorder("="), copy=False)
    if not (arr.flags.aligned and arr.flags.writeable):
        arr = arr.copy()
    return arr, off + nbytes + 4


def read_embeddings(path):
    """Read a VEMB file and return the array as a view of the read buffer.

    The buffer is placed so that a rank-2 payload (after an 18-byte header)
    starts on an 8-byte boundary and a rank-1 payload on a 4-byte one;
    read_embeddings_from copies a payload not aligned for its dtype. An
    unaligned view would make NumPy's matmul skip BLAS: a 1M x 32 float32
    mat-vec ran 6x slower.
    """
    with open(path, "rb") as f:
        raw = np.empty(os.fstat(f.fileno()).st_size // 8 + 2, dtype=np.float64)
        buf = raw.view(np.uint8)[6:]
        used = f.readinto(buf)
    arr, _ = read_embeddings_from(buf[:used])
    return arr


# ---------------------------------------------------------------------------
# dataset model


@dataclass
class FrameSequence:
    video_id: str
    frames: np.ndarray  # T x D
    label: int | None = None


@dataclass
class ClassPrototypes:
    names: list
    vectors: np.ndarray  # C x D, unit rows

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise ConfigInvalid("class names must be unique")
        if len(self.names) < 2:
            raise ConfigInvalid("need at least 2 classes")

    def vector(self, name):
        """The prototype row of class `name`; an unknown name raises ConfigInvalid."""
        if name not in self.names:
            raise ConfigInvalid(f"unknown class {name!r}")
        return self.vectors[self.names.index(name)]


@dataclass
class ManifestRecord:
    video_id: str
    path: str
    label: int
    frames: int


@dataclass
class DatasetManifest:
    dim: int
    class_names: list
    records: list = field(default_factory=list)
    seed: int | None = None
    task: str | None = None

    @property
    def num_classes(self):
        return len(self.class_names)

    def save(self, path):
        header = {key: getattr(self, key) for key in ("dim", "class_names", "seed", "task")}
        with atomic_write(path, "w") as f:
            for obj in [header, *map(vars, self.records)]:
                f.write(json.dumps(obj, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path):
        """Read a manifest: a header object with an int `dim` >= 1 and a list
        of string `class_names`, then one object per video with a string
        `video_id` and `path`, an int `frames` >= 1 and a class index
        `label`. Anything else raises MalformedContainer."""
        what = f"manifest {path}"
        with open(path, "rb") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
        if not lines:
            raise TruncatedFile("empty manifest")
        header = decode_json(lines[0], what)
        if not isinstance(header, dict):
            raise MalformedContainer(f"{what}: header is not a JSON object")
        dim, names = header.get("dim"), header.get("class_names")
        if not (_is_count(dim) and isinstance(names, list) and set(map(type, names)) <= {str}):
            raise MalformedContainer(f"{what}: header needs an int dim >= 1 and string class_names")
        m = cls(dim=dim, class_names=names, seed=header.get("seed"), task=header.get("task"))
        for ln in lines[1:]:
            rec = decode_json(ln, what)
            if not isinstance(rec, dict):
                raise MalformedContainer(f"{what}: record {rec!r} is not a JSON object")
            vid, rel, label, frames = (rec.get(k) for k in ("video_id", "path", "label", "frames"))
            if not (isinstance(vid, str) and isinstance(rel, str) and _is_count(frames)):
                raise MalformedContainer(
                    f"{what}: record needs a string video_id and path and an int frames >= 1"
                )
            if type(label) is not int or not 0 <= label < len(names):
                raise MalformedContainer(f"{what}: label {label!r} is not a class index")
            m.records.append(ManifestRecord(vid, rel, label, frames))
        return m

    def load_sequence(self, record, base_dir):
        frames = read_embeddings(os.path.join(base_dir, record.path))
        if frames.ndim != 2 or frames.shape != (record.frames, self.dim):
            raise ConfigInvalid(
                f"{record.video_id}: file shape {frames.shape} does not match manifest"
            )
        return FrameSequence(record.video_id, frames, record.label)

    def prototypes(self, base_dir):
        """The dataset's `prototypes.vemb`, named by this manifest's classes."""
        vectors = read_embeddings(os.path.join(base_dir, "prototypes.vemb"))
        return ClassPrototypes(self.class_names, vectors)

    def load_normalized(self, record, base_dir):
        """The sequence with L2-normalized float32 frames, as heads consume it."""
        seq = self.load_sequence(record, base_dir)
        frames = l2_normalize(seq.frames).astype(np.float32, copy=False)
        return FrameSequence(seq.video_id, frames, seq.label)

    def normalized_chunks(self, base_dir):
        """The records' normalized sequences in record order, as lists of at
        most ENCODE_CHUNK, so encoding a large manifest holds one chunk of
        frames at a time. One l2_normalize call covers a chunk's frame rows;
        for float32 files they equal load_normalized's bit for bit."""
        for start in range(0, len(self.records), ENCODE_CHUNK):
            chunk = self.records[start : start + ENCODE_CHUNK]
            seqs = [self.load_sequence(rec, base_dir) for rec in chunk]
            frames = l2_normalize(np.concatenate([s.frames for s in seqs]))
            frames = frames.astype(np.float32, copy=False)
            ends = np.cumsum([rec.frames for rec in chunk])[:-1]
            yield [
                FrameSequence(s.video_id, f, s.label) for s, f in zip(seqs, np.split(frames, ends))
            ]


def _is_count(x):
    return type(x) is int and x >= 1


def load_prototypes(data_dir):
    return DatasetManifest.load(os.path.join(data_dir, "manifest.jsonl")).prototypes(data_dir)


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass
class SynthConfig:
    classes: int
    videos_per_class: int
    frames: int
    dim: int
    sigma: float = 0.05
    rho: float = 0.5
    task: str = "anchor"  # anchor | order
    seed: int = 0

    def validate(self):
        if min(self.classes, self.videos_per_class, self.frames, self.dim) < 1:
            raise ConfigInvalid("all extents must be positive")
        if self.classes < 2:
            raise ConfigInvalid("need at least 2 classes")
        if not 0.0 < self.sigma < 1.0:
            raise ConfigInvalid("sigma must lie in (0, 1)")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigInvalid("rho must lie in [0, 1)")
        if self.task not in ("anchor", "order"):
            raise ConfigInvalid(f"unknown task {self.task!r}")
        if self.task == "order" and self.classes % 2 != 0:
            raise ConfigInvalid("order task needs an even class count")


def stream_rng(seed, stream=""):
    """Counter-based Philox generator keyed by (seed, blake2s(stream))."""
    h = int.from_bytes(hashlib.blake2s(stream.encode(), digest_size=8).digest(), "little")
    return np.random.Generator(np.random.Philox(key=((seed & 0xFFFFFFFFFFFFFFFF) << 64) | h))


def _orthonormal_rows(rng, c, d):
    """Random unit rows, Gram-Schmidt orthogonalized when d >= c."""
    raw = rng.standard_normal((c, d))
    if d < c:
        return l2_normalize(raw)
    out = np.zeros((c, d))
    for i in range(c):
        v = raw[i].copy()
        for j in range(i):
            v -= (v @ out[j]) * out[j]
        out[i] = l2_normalize(v)
    return out


def _ar1_noise(rng, t, d, rho):
    w = np.zeros((t, d))
    w[0] = rng.standard_normal(d)
    scale = math.sqrt(1.0 - rho * rho)
    for i in range(1, t):
        w[i] = rho * w[i - 1] + scale * rng.standard_normal(d)
    return w


def generate_synthetic(config, out_dir):
    """Write a synthetic dataset (manifest + per-video VEMB files + prototypes).

    anchor task: frames drift around a fixed class anchor with AR(1) noise.
    order task: class pairs (2c, 2c+1) traverse the same two anchors in
    opposite directions, so frame multisets match across the pair.
    An anchor set with sigma <= 0.1 in which nearest-prototype labels fewer
    than 99% of the frames correctly raises DegenerateData.
    """
    config.validate()
    os.makedirs(os.path.join(out_dir, "videos"), exist_ok=True)

    proto_rng = stream_rng(config.seed, "prototypes")
    protos = _orthonormal_rows(proto_rng, config.classes, config.dim)
    names = [f"class_{c:03d}" for c in range(config.classes)]

    if config.task == "order":
        anchor_rng = stream_rng(config.seed, "anchors")
        pair_anchors = _orthonormal_rows(anchor_rng, config.classes, config.dim)

    manifest = DatasetManifest(config.dim, names, seed=config.seed, task=config.task)

    t = config.frames
    recovered = 0  # frames whose nearest prototype is their own class's
    alphas = np.linspace(0.0, 1.0, t)[:, None] if t > 1 else np.array([[0.5]])
    for c in range(config.classes):
        for v in range(config.videos_per_class):
            vid = f"{names[c]}_v{v:04d}"
            rng = stream_rng(config.seed, f"video/{vid}")
            noise = config.sigma * _ar1_noise(rng, t, config.dim, config.rho)
            if config.task == "anchor":
                base = protos[c][None, :] + noise
            else:
                pair = c // 2
                p, q = pair_anchors[2 * pair], pair_anchors[2 * pair + 1]
                path_ = (1.0 - alphas) * p[None, :] + alphas * q[None, :]
                if c % 2 == 1:
                    path_ = path_[::-1]
                base = path_ + noise
            frames = l2_normalize(base).astype(np.float32)
            recovered += int(((frames @ protos.T).argmax(axis=1) == c).sum())
            rel = os.path.join("videos", f"{vid}.vemb")
            write_embeddings(os.path.join(out_dir, rel), frames)
            manifest.records.append(ManifestRecord(vid, rel, c, t))

    total = len(manifest.records) * t
    if config.task == "anchor" and config.sigma <= 0.1 and recovered < 0.99 * total:
        raise DegenerateData(f"anchor data not separable: {recovered}/{total} frames recovered")

    write_embeddings(os.path.join(out_dir, "prototypes.vemb"), protos.astype(np.float32))
    manifest.save(os.path.join(out_dir, "manifest.jsonl"))
    return manifest, ClassPrototypes(names, protos.astype(np.float32))

