import os
import struct
import sys
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vidembed import data
from vidembed.analysis import project_2d
from vidembed.data import (
    ClassPrototypes,
    DatasetManifest,
    ManifestRecord,
    SynthConfig,
    atomic_write,
    generate_synthetic,
    l2_normalize,
    load_prototypes,
    read_embeddings,
    read_embeddings_from,
    sample_frames,
    vemb_bytes,
    write_embeddings,
)
from vidembed.errors import (
    BadMagic,
    ChecksumMismatch,
    ConfigInvalid,
    DegenerateData,
    MalformedContainer,
    NormUnderflow,
    TruncatedFile,
    UnsupportedVersion,
    VidembedError,
)
from vidembed.heads import HeadParams, HeadSpec, init_params
from vidembed.retrieval import RetrievalIndex, build_index
from vidembed.train import EpochRecord, TrainConfig, TrainHistory, evaluate, train


def test_l2_normalize_axis_vector():
    assert np.array_equal(l2_normalize([2.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_l2_normalize_hand_arithmetic():
    assert np.allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8])


def test_l2_normalize_zero_raises():
    with pytest.raises(NormUnderflow):
        l2_normalize([0.0, 0.0])


def test_l2_normalize_overflowing_norm_rescaled():
    assert np.array_equal(l2_normalize([1e308, -1e308]), l2_normalize([1.0, -1.0]))
    assert np.allclose(l2_normalize([3e200, 4e200]), [0.6, 0.8])


def test_l2_normalize_rows_overflowing_norm_rescaled():
    with np.errstate(over="ignore"):  # the squared norm overflows before the rescale
        out = l2_normalize(np.full((2, 4), 1e20, np.float32))
        assert out.dtype == np.float32
        assert np.array_equal(out, np.full((2, 4), 0.5, np.float32))
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((3, 5))
        mixed = rows.copy()
        mixed[1] = [3e200, -4e200, 0.0, 0.0, 0.0]
        out = l2_normalize(mixed)
    assert np.allclose(out[1], [0.6, -0.8, 0.0, 0.0, 0.0])
    plain = l2_normalize(rows)
    assert np.array_equal(out[[0, 2]], plain[[0, 2]])  # other rows bit-identical


def _mixed_dataset(base, d=6):
    """Five videos with 3, 5, 3, 7 and 5 frames; the 7-frame one is float64."""
    rng = np.random.default_rng(12)
    manifest = DatasetManifest(dim=d, class_names=["a", "b"])
    (base / "videos").mkdir()
    for i, t in enumerate((3, 5, 3, 7, 5)):
        rel = f"videos/v{i}.vemb"
        frames = rng.standard_normal((t, d))
        write_embeddings(base / rel, frames if t == 7 else frames.astype(np.float32))
        manifest.records.append(ManifestRecord(f"v{i}", rel, i % 2, t))
    return manifest


def test_normalized_chunks_match_load_normalized(tmp_path, monkeypatch):
    """Chunked reads equal each video read and normalized on its own."""
    manifest = _mixed_dataset(tmp_path)
    singles = [manifest.load_sequence(rec, tmp_path) for rec in manifest.records]
    for one in singles:
        one.frames = l2_normalize(one.frames).astype(np.float32)
    for chunk in (2, 256):
        monkeypatch.setattr(data, "ENCODE_CHUNK", chunk)
        chunks = list(manifest.normalized_chunks(tmp_path))
        assert [records for records, _ in chunks] == [
            manifest.records[i : i + chunk] for i in range(0, 5, chunk)
        ]
        rows = []
        for records, groups in chunks:
            frames = [None] * len(records)
            for pos, stack in groups:
                assert stack.dtype == np.float32 and stack.shape[0] == len(pos)
                for i, f in zip(pos, stack):
                    assert frames[i] is None and records[i].frames == len(f)
                    frames[i] = f
            # one group per frame count, in first-seen order
            assert [stack.shape[1] for _, stack in groups] == list(
                dict.fromkeys(rec.frames for rec in records)
            )
            rows += frames
        seqs = list(manifest.normalized_sequences(tmp_path))
        for f, seq, one in zip(rows, seqs, singles, strict=True):
            assert np.array_equal(f, one.frames)  # bit for bit, the float64 file too
            assert (seq.video_id, seq.label) == (one.video_id, one.label)
            assert seq.frames.dtype == np.float32 and np.array_equal(seq.frames, one.frames)


def test_normalized_chunks_promote_per_group(tmp_path):
    """A float64 file promotes only the videos of its own frame count."""
    manifest = _mixed_dataset(tmp_path)
    manifest.records[3].frames = 5  # v3 (float64) now shares v1's and v4's group
    write_embeddings(tmp_path / "videos/v3.vemb", np.random.default_rng(1).standard_normal((5, 6)))
    (_, groups), = manifest.normalized_chunks(tmp_path)
    (pos3, stack3), (pos5, stack5) = groups
    raw = {i: manifest.load_sequence(manifest.records[i], tmp_path).frames for i in range(5)}
    assert pos3 == [0, 2] and pos5 == [1, 3, 4]
    assert np.array_equal(stack3, l2_normalize(np.stack([raw[0], raw[2]])))  # float32 throughout
    promoted = np.stack([raw[1].astype(np.float64), raw[3], raw[4].astype(np.float64)])
    assert np.array_equal(stack5, l2_normalize(promoted).astype(np.float32))


def _flip_payload_byte(path):
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0x01  # inside the payload of a rank-2 file
    path.write_bytes(bytes(blob))


def _entry_points(manifest, base):
    """build_index, evaluate and train over `manifest`, each as a thunk."""
    protos = ClassPrototypes(["a", "b"], l2_normalize(np.eye(2, manifest.dim)))
    max_pool = HeadParams(HeadSpec(kind="max_pool", d_in=manifest.dim), {})
    config = TrainConfig(head=HeadSpec(kind="lstm", d_in=manifest.dim), epochs=1, batch_size=2)
    return {
        "build_index": lambda: build_index(manifest, max_pool, base),
        "evaluate": lambda: evaluate(manifest, max_pool, protos, base),
        "train": lambda: train(manifest, protos, config, base),
    }


@pytest.mark.parametrize(
    "crc_bad, shape_bad, expected",
    [(1, 2, ChecksumMismatch), (2, 1, ConfigInvalid)],
    ids=["crc_flip_first", "shape_first"],
)
def test_first_bad_file_in_record_order_raises(tmp_path, crc_bad, shape_bad, expected):
    """v1 has 5 frames and v2 has 3, so a reader that went group by group
    would meet v2 first; records are read in order, so v1's defect raises."""
    manifest = _mixed_dataset(tmp_path)
    _flip_payload_byte(tmp_path / manifest.records[crc_bad].path)
    write_embeddings(tmp_path / manifest.records[shape_bad].path, np.ones((4, 6), np.float32))
    for run in _entry_points(manifest, tmp_path).values():
        with pytest.raises(expected) as info:
            run()
        if expected is ConfigInvalid:
            assert str(info.value).startswith(f"v{shape_bad}:")


# An audit hook cannot be removed, so this one records the paths the process
# opens only while a test has put a name in _RECORDING.
_OPENED = []
_RECORDING = []


def _audit_open(event, args):
    if event == "open" and _RECORDING:
        _OPENED.append(str(args[0]))


sys.addaudithook(_audit_open)


def test_each_video_file_opened_once(tmp_path):
    manifest = _mixed_dataset(tmp_path)
    videos = Counter(os.path.join(tmp_path, rec.path) for rec in manifest.records)
    for name, run in _entry_points(manifest, tmp_path).items():
        _OPENED.clear()
        _RECORDING.append(name)
        try:
            run()
        finally:
            _RECORDING.clear()
        assert Counter(p for p in _OPENED if p.endswith(".vemb")) == videos, name


@pytest.mark.filterwarnings("error")
def test_l2_normalize_rows_overflow_without_warning():
    out = l2_normalize(np.full((2, 4), 1e20, np.float32))
    assert np.array_equal(out, np.full((2, 4), 0.5, np.float32))
    mixed = np.array([[3e200, -4e200], [3.0, 4.0]])
    assert np.allclose(l2_normalize(mixed), [[0.6, -0.8], [0.6, 0.8]])


def test_load_normalized_unit_float32_rows(tmp_path):
    cfg = SynthConfig(classes=2, videos_per_class=2, frames=3, dim=4, seed=3)
    manifest, _ = generate_synthetic(cfg, tmp_path)
    rec = manifest.records[1]
    raw = manifest.load_sequence(rec, tmp_path)
    seq = list(manifest.normalized_sequences(tmp_path))[1]
    assert (seq.video_id, seq.label) == (rec.video_id, rec.label)
    assert seq.frames.dtype == np.float32
    assert np.array_equal(seq.frames, l2_normalize(raw.frames).astype(np.float32))


def test_l2_normalize_rows_unit():
    rng = np.random.default_rng(0)
    out = l2_normalize(rng.standard_normal((10, 7)))
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)


def test_sample_frames_identity():
    for n in (1, 2, 7, 100):
        assert sample_frames(n, n) == list(range(n))


def test_sample_frames_downsample():
    assert sample_frames(5, 3) == [0, 2, 4]


def test_sample_frames_upsample():
    assert sample_frames(3, 5) == [0, 1, 1, 2, 2]


def test_sample_frames_properties():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        t = int(rng.integers(1, 200))
        idx = sample_frames(n, t)
        assert len(idx) == t
        assert idx == sorted(idx)
        assert all(0 <= i < n for i in idx)
        assert idx[0] == 0
        if t > 1:
            assert idx[-1] == n - 1


# --- VEMB format -----------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vemb_round_trip_bit_exact(tmp_path, dtype):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 4)).astype(dtype)
    path = tmp_path / "m.vemb"
    write_embeddings(path, m)
    back = read_embeddings(path)
    assert back.dtype == m.dtype
    assert back.tobytes() == m.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5,), (3, 4)])
def test_vemb_read_aligned_and_writable(tmp_path, dtype, shape):
    m = np.arange(np.prod(shape), dtype=dtype).reshape(shape)
    path = tmp_path / "m.vemb"
    write_embeddings(path, m)
    back = read_embeddings(path)
    # aligned, so BLAS takes it without a copy; writable, because
    # grad_check perturbs parameters in place
    assert back.flags.aligned and back.flags.writeable
    assert back.tobytes() == m.tobytes()


@pytest.mark.parametrize("step", [1, 3, 7])
@pytest.mark.parametrize("shape", [(5,), (6, 4)], ids=["rank1", "rank2"])
def test_vemb_read_survives_short_reads(tmp_path, monkeypatch, step, shape):
    """The OS may return fewer bytes than asked; the reader asks again."""
    m = np.random.default_rng(5).standard_normal(shape).astype(np.float32)
    path = tmp_path / "m.vemb"
    write_embeddings(path, m)
    calls = []

    def short_readv(fd, buffers):
        got = os.read(fd, min(step, len(buffers[0])))
        buffers[0][: len(got)] = got
        calls.append(len(got))
        return len(got)

    monkeypatch.setattr(os, "readv", short_readv)
    back = read_embeddings(path)
    assert back.tobytes() == m.tobytes()
    assert back.flags.aligned and back.flags.writeable and not back.flags.owndata  # a view
    assert sum(calls) == path.stat().st_size and 0 not in calls  # no read past the end


def test_vemb_read_file_ending_early_truncated(tmp_path, monkeypatch):
    """A file that ends before its size at open reads as truncated."""
    path = tmp_path / "m.vemb"
    write_embeddings(path, np.ones((3, 4), np.float32))
    real = os.readv

    def ends_early(fd, buffers):  # the last 10 bytes never arrive
        return real(fd, [buffers[0][: max(len(buffers[0]) - 10, 0)]])

    monkeypatch.setattr(os, "readv", ends_early)
    with pytest.raises(TruncatedFile):
        read_embeddings(path)


def test_vemb_rank1_round_trip(tmp_path):
    v = np.arange(5.0, dtype=np.float32)
    path = tmp_path / "v.vemb"
    write_embeddings(path, v)
    back = read_embeddings(path)
    assert back.shape == (5,)
    assert back.tobytes() == v.tobytes()


def test_vemb_bad_magic(tmp_path):
    path = tmp_path / "bad.vemb"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(BadMagic):
        read_embeddings(path)


def test_vemb_checksum_mismatch(tmp_path):
    blob = bytearray(vemb_bytes(np.ones((2, 2), dtype=np.float32)))
    blob[-6] ^= 0x01  # flip one payload bit
    path = tmp_path / "corrupt.vemb"
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        read_embeddings(path)


def test_vemb_truncated(tmp_path):
    blob = vemb_bytes(np.ones((2, 2), dtype=np.float32))
    path = tmp_path / "short.vemb"
    path.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(TruncatedFile):
        read_embeddings(path)


def test_vemb_extents_overflow_truncated(tmp_path):
    blob = bytearray(vemb_bytes(np.ones((2, 2), dtype=np.float32)))
    blob[10:18] = b"\xff" * 8  # 2^32-1 x 2^32-1 elements
    path = tmp_path / "huge.vemb"
    path.write_bytes(bytes(blob))
    with pytest.raises(TruncatedFile):
        read_embeddings(path)


def test_vemb_unsupported_version(tmp_path):
    blob = bytearray(vemb_bytes(np.ones(2, dtype=np.float32)))
    blob[4] = 9  # version little-endian low byte
    path = tmp_path / "v9.vemb"
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersion):
        read_embeddings(path)


# --- VEMB parser properties: only a VidembedError may escape ----------------

_VEMB = vemb_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))


def _read_or_typed_error(blob):
    try:
        read_embeddings_from(blob)
    except VidembedError:
        pass  # any other exception fails the test


@given(st.binary(max_size=64) | st.binary(max_size=64).map(lambda b: b"VEMB" + b))
def test_vemb_parser_arbitrary_bytes(blob):
    _read_or_typed_error(blob)


@settings(max_examples=300)
@given(st.integers(0, len(_VEMB) - 1), st.integers(1, 255))
def test_vemb_parser_byte_flips(pos, mask):
    blob = bytearray(_VEMB)
    blob[pos] ^= mask
    _read_or_typed_error(blob)


def test_vemb_parser_every_truncation():
    for cut in range(len(_VEMB)):
        with pytest.raises(TruncatedFile):
            read_embeddings_from(_VEMB[:cut])


@given(hnp.arrays(st.sampled_from([np.float32, np.float64]),
                  hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5)))
def test_vemb_parser_round_trip(arr):
    blob = vemb_bytes(arr)
    back, used = read_embeddings_from(blob)
    assert used == len(blob)
    assert back.dtype == arr.dtype and back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_vemb_nonzero_flags_rejected(tmp_path):
    blob = bytearray(vemb_bytes(np.ones(2, dtype=np.float32)))
    blob[7] = 0x80  # flags high byte
    path = tmp_path / "flags.vemb"
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersion):
        read_embeddings(path)


@pytest.fixture(scope="module")
def vemb_path(tmp_path_factory):
    return tmp_path_factory.mktemp("vemb") / "m.vemb"


@example(b"garbage")
@given(st.binary(min_size=1, max_size=64))
def test_vemb_file_bytes_after_crc_rejected(vemb_path, extra):
    """The parser stops at the CRC (VEMH concatenates blobs), but a file is
    one blob and nothing after it."""
    vemb_path.write_bytes(_VEMB + extra)
    with pytest.raises(MalformedContainer, match=rf"^{len(extra)} bytes after the CRC$"):
        read_embeddings(vemb_path)


# --- VEMB writer: the array's own buffer, written as it is -------------------


def _vemb_reference(arr):
    """The blob built field by field from a copy of the payload."""
    arr = np.ascontiguousarray(arr)
    payload = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
    code = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}[arr.dtype]
    header = b"VEMB" + struct.pack("<HHBB", 1, 0, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + payload + struct.pack("<I", zlib.crc32(payload))


_WRITER_CASES = {
    "float32": np.arange(12, dtype=np.float32).reshape(3, 4) / 7,
    "float64": np.arange(12, dtype=np.float64).reshape(4, 3) / 7,
    "view": (np.arange(48, dtype=np.float32).reshape(6, 8) / 7)[::2, 1::3],  # not contiguous
    "rank1": np.arange(5, dtype=np.float32) / 7,
    "zero_rows": np.zeros((0, 4), np.float32),
}


@pytest.mark.parametrize("arr", _WRITER_CASES.values(), ids=_WRITER_CASES.keys())
def test_write_embeddings_matches_vemb_bytes(tmp_path, arr):
    path = tmp_path / "m.vemb"
    write_embeddings(path, arr)
    assert path.read_bytes() == vemb_bytes(arr) == _vemb_reference(arr)
    assert np.array_equal(read_embeddings(path), arr)


@pytest.mark.parametrize("dtype", [">f4", ">f8"])
def test_write_embeddings_rejects_big_endian(tmp_path, dtype):
    arr = np.ones((2, 3), dtype)
    with pytest.raises(ConfigInvalid):
        vemb_bytes(arr)
    with pytest.raises(ConfigInvalid):
        write_embeddings(tmp_path / "m.vemb", arr)
    assert list(tmp_path.iterdir()) == []


# --- synthetic generation --------------------------------------------------


def _gen(tmp_path, name, **kw):
    defaults = dict(
        classes=4, videos_per_class=5, frames=12, dim=16,
        sigma=0.05, rho=0.5, task="anchor", seed=7,
    )
    defaults.update(kw)
    cfg = SynthConfig(**defaults)
    out = tmp_path / name
    return generate_synthetic(cfg, out), out


def test_generate_deterministic(tmp_path):
    (m1, _), dir1 = _gen(tmp_path, "run1")
    (m2, _), dir2 = _gen(tmp_path, "run2")
    files1 = sorted(p.relative_to(dir1) for p in dir1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(dir2) for p in dir2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (dir1 / rel).read_bytes() == (dir2 / rel).read_bytes()


def test_generate_counts_and_shapes(tmp_path):
    (manifest, protos), out = _gen(tmp_path, "counts", classes=4, videos_per_class=10, frames=20)
    assert len(manifest.records) == 40
    for rec in manifest.records:
        frames = read_embeddings(out / rec.path)
        assert frames.shape == (20, 16)
        assert np.allclose(np.linalg.norm(frames, axis=1), 1.0, atol=1e-5)
    assert protos.vectors.shape == (4, 16)
    assert np.allclose(np.linalg.norm(protos.vectors, axis=1), 1.0, atol=1e-5)


def test_generated_prototypes_orthogonal(tmp_path):
    (_, protos), _ = _gen(tmp_path, "ortho")
    gram = protos.vectors.astype(np.float64) @ protos.vectors.astype(np.float64).T
    assert np.allclose(gram, np.eye(4), atol=1e-5)


def test_temporal_correlation_exceeds_cross_class(tmp_path):
    (manifest, _), out = _gen(tmp_path, "corr", sigma=0.09, rho=0.8)
    seqs = [manifest.load_sequence(r, out) for r in manifest.records]
    consec = []
    for s in seqs:
        f = s.frames.astype(np.float64)
        consec.extend((f[:-1] * f[1:]).sum(axis=1))
    cross = []
    rng = np.random.default_rng(3)
    for _ in range(500):
        a, b = rng.integers(len(seqs), size=2)
        if seqs[a].label == seqs[b].label:
            continue
        fa = seqs[a].frames[rng.integers(seqs[a].frames.shape[0])]
        fb = seqs[b].frames[rng.integers(seqs[b].frames.shape[0])]
        cross.append(float(fa.astype(np.float64) @ fb))
    assert np.mean(consec) > np.mean(cross)


def test_anchor_frames_separable(tmp_path):
    (manifest, protos), out = _gen(tmp_path, "sep", sigma=0.1)
    total = correct = 0
    for rec in manifest.records:
        frames = read_embeddings(out / rec.path)
        pred = (frames @ protos.vectors.T).argmax(axis=1)
        correct += int((pred == rec.label).sum())
        total += frames.shape[0]
    assert correct >= 0.99 * total


def test_generate_reads_back_no_file(tmp_path, monkeypatch):
    def no_read(path):
        raise AssertionError(f"generate_synthetic read {path}")

    monkeypatch.setattr(data, "read_embeddings", no_read)
    (manifest, _), _ = _gen(tmp_path, "noread", sigma=0.1)
    assert len(manifest.records) == 20


def test_generate_rejects_inseparable_anchor_data(tmp_path):
    # 12 prototypes in 2 dimensions sit too close for the noise to keep apart
    with pytest.raises(DegenerateData, match="not separable"):
        _gen(tmp_path, "crowded", classes=12, dim=2, sigma=0.1)
    assert not (tmp_path / "crowded" / "manifest.jsonl").exists()
    _gen(tmp_path, "noisy", classes=12, dim=2, sigma=0.2)  # the check applies to sigma <= 0.1


def test_order_task_pairs_share_frame_statistics(tmp_path):
    (manifest, _), out = _gen(
        tmp_path, "order", task="order", videos_per_class=20, sigma=0.05
    )
    seqs = [manifest.load_sequence(r, out) for r in manifest.records]
    mean_by_class = {}
    for c in range(4):
        frames = np.concatenate([s.frames for s in seqs if s.label == c])
        mean_by_class[c] = frames.mean(axis=0)
    # paired classes traverse the same anchors, so first moments match
    assert np.allclose(mean_by_class[0], mean_by_class[1], atol=0.02)
    assert np.allclose(mean_by_class[2], mean_by_class[3], atol=0.02)
    # distinct pairs use different anchors
    assert not np.allclose(mean_by_class[0], mean_by_class[2], atol=0.1)


def test_order_task_needs_even_classes():
    with pytest.raises(ConfigInvalid):
        SynthConfig(
            classes=3, videos_per_class=2, frames=4, dim=8, task="order"
        ).validate()


def test_config_validation():
    bad = [
        dict(classes=1, videos_per_class=1, frames=1, dim=1),
        dict(classes=2, videos_per_class=1, frames=1, dim=4, sigma=0.0),
        dict(classes=2, videos_per_class=1, frames=1, dim=4, rho=1.0),
        dict(classes=2, videos_per_class=1, frames=1, dim=4, task="nope"),
    ]
    for kw in bad:
        with pytest.raises(ConfigInvalid):
            SynthConfig(**kw).validate()


def test_manifest_round_trip(tmp_path):
    (manifest, _), out = _gen(tmp_path, "mrt")
    loaded = DatasetManifest.load(out / "manifest.jsonl")
    assert loaded.dim == manifest.dim
    assert loaded.class_names == manifest.class_names
    assert len(loaded.records) == len(manifest.records)
    assert loaded.records[0] == manifest.records[0]


def test_load_prototypes(tmp_path):
    (_, protos), out = _gen(tmp_path, "lp")
    loaded = load_prototypes(out)
    assert loaded.names == protos.names
    assert np.array_equal(loaded.vectors, protos.vectors)


def test_manifest_shape_mismatch_detected(tmp_path):
    (manifest, _), out = _gen(tmp_path, "mm")
    rec = manifest.records[0]
    write_embeddings(out / rec.path, np.ones((3, 16), dtype=np.float32))
    with pytest.raises(ConfigInvalid):
        manifest.load_sequence(rec, out)


_HEADER = b'{"class_names": ["a", "b"], "dim": 4}'
_RECORD = b'{"frames": 2, "label": 0, "path": "v.vemb", "video_id": "v"}'


@pytest.mark.parametrize(
    "text",
    [
        b"\xff\xfe",
        b"{not json\n" + _RECORD,
        b'{"class_names": ["a", "b"]}\n' + _RECORD,
        b"[4]\n" + _RECORD,
        _HEADER + b'\n{"frames": 2, "path": "v.vemb", "video_id": "v"}',
        _HEADER + b"\n" + _RECORD[:-1],
        _HEADER + b"\n7",
        _HEADER + b"\n" + _RECORD.replace(b'"label": 0', b'"label": 2'),
        _HEADER + b"\n" + _RECORD.replace(b'"label": 0', b'"label": -1'),
        _HEADER + b"\n" + _RECORD.replace(b'"label": 0', b'"label": true'),
        _HEADER + b"\n" + _RECORD.replace(b'"label": 0', b'"label": "0"'),
        b"[" * 200_000,
        _HEADER + b"\n" + b"[" * 200_000,
        _HEADER.replace(b'"dim": 4', b'"dim": 0') + b"\n" + _RECORD,
        _HEADER.replace(b'"dim": 4', b'"dim": "4"') + b"\n" + _RECORD,
        _HEADER.replace(b'"dim": 4', b'"dim": true') + b"\n" + _RECORD,
        _HEADER.replace(b'["a", "b"]', b'"ab"') + b"\n" + _RECORD,
        _HEADER.replace(b'["a", "b"]', b'["a", 2]') + b"\n" + _RECORD,
        _HEADER + b"\n" + _RECORD.replace(b'"path": "v.vemb"', b'"path": 7'),
        _HEADER + b"\n" + _RECORD.replace(b'"video_id": "v"', b'"video_id": 7'),
        _HEADER + b"\n" + _RECORD.replace(b'"frames": 2', b'"frames": 0'),
        _HEADER + b"\n" + _RECORD.replace(b'"frames": 2', b'"frames": "2"'),
        _HEADER + b"\n" + _RECORD.replace(b'"frames": 2', b'"frames": 2.0'),
    ],
    ids=["not_utf8", "header_not_json", "header_no_dim", "header_not_object",
         "record_no_label", "record_not_json", "record_not_object", "label_too_big",
         "label_negative", "label_bool", "label_str", "header_deep", "record_deep",
         "dim_zero", "dim_str", "dim_bool", "class_names_str", "class_name_int",
         "path_int", "video_id_int", "frames_zero", "frames_str", "frames_float"],
)
def test_manifest_load_malformed_typed(tmp_path, text):
    path = tmp_path / "manifest.jsonl"
    path.write_bytes(text + b"\n")
    with pytest.raises(MalformedContainer):
        DatasetManifest.load(path)


# --- manifest parser properties: only a VidembedError may escape ------------

_MANIFEST = (
    b'{"class_names": ["a", "b\\u00e9"], "dim": 4, "seed": 3, "task": "anchor"}\n'
    b'{"frames": 2, "label": 0, "path": "videos/v0.vemb", "video_id": "v0"}\n'
    b'{"frames": 5, "label": 1, "path": "videos/v1.vemb", "video_id": "v1"}\n'
)


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    return tmp_path_factory.mktemp("manifest") / "manifest.jsonl"


def _manifest_or_typed_error(path, blob):
    path.write_bytes(bytes(blob))
    try:
        return DatasetManifest.load(path)
    except VidembedError:
        return None  # any other exception fails the test


@given(st.binary(max_size=96) | st.binary(max_size=96).map(lambda b: _MANIFEST[:40] + b))
def test_manifest_parser_arbitrary_bytes(manifest_path, blob):
    _manifest_or_typed_error(manifest_path, blob)


@settings(max_examples=200)
@given(st.integers(0, len(_MANIFEST) - 1), st.integers(1, 255))
def test_manifest_parser_byte_flips(manifest_path, pos, mask):
    blob = bytearray(_MANIFEST)
    blob[pos] ^= mask
    _manifest_or_typed_error(manifest_path, blob)


def test_manifest_parser_every_truncation(manifest_path):
    for cut in range(len(_MANIFEST)):
        _manifest_or_typed_error(manifest_path, _MANIFEST[:cut])


def test_manifest_parser_round_trip(manifest_path):
    manifest = _manifest_or_typed_error(manifest_path, _MANIFEST)
    assert manifest.class_names == ["a", "b\u00e9"] and len(manifest.records) == 2
    manifest.save(manifest_path)
    assert manifest_path.read_bytes() == _MANIFEST


# --- atomic writes -----------------------------------------------------------


@pytest.mark.parametrize("mode", ["wb", "w"])
def test_atomic_write_error_leaves_target_unchanged(tmp_path, mode):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(target, mode) as f:
            f.write(b"new" if "b" in mode else "new")
            raise RuntimeError("fails mid-write")
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
    with atomic_write(target, mode) as f:
        f.write(b"a\r\nb\n" if "b" in mode else "a\r\nb\n\u00e9")
    assert target.read_bytes() == (b"a\r\nb\n" if "b" in mode else "a\r\nb\n\u00e9".encode())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def _history():
    return TrainHistory([EpochRecord(1, 0.5, 0.6, 0.7, 0.8, 1.0)])


_WRITERS = {
    "vemb": lambda path: write_embeddings(path, np.ones((2, 3), dtype=np.float32)),
    "manifest": lambda path: DatasetManifest(4, ["a", "b"]).save(path),
    "vemh": lambda path: init_params(HeadSpec(kind="lstm", d_in=2), seed=0).save(path),
    "index": lambda path: RetrievalIndex(["x"], np.ones((1, 2)), "max_pool", "f").save(path),
    "history_csv": lambda path: _history().to_csv(path),
    "projection_csv": lambda path: project_2d(np.eye(3)).to_csv(path),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_every_writer_renames_into_place(tmp_path, monkeypatch, writer):
    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(data.os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        _WRITERS[writer](tmp_path / "artifact")
    assert list(tmp_path.iterdir()) == []
