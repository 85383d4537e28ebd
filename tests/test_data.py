import numpy as np
import pytest

from vidembed import data
from vidembed.data import (
    DatasetManifest,
    SynthConfig,
    generate_synthetic,
    l2_normalize,
    load_prototypes,
    read_embeddings,
    sample_frames,
    vemb_bytes,
    write_embeddings,
)
from vidembed.errors import (
    BadMagic,
    ChecksumMismatch,
    ConfigInvalid,
    MalformedContainer,
    NormUnderflow,
    TruncatedFile,
    UnsupportedVersion,
)


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


def test_normalized_chunks_match_load_normalized(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "ENCODE_CHUNK", 2)
    cfg = SynthConfig(classes=2, videos_per_class=3, frames=3, dim=4, seed=4)
    manifest, _ = generate_synthetic(cfg, tmp_path)
    chunks = list(manifest.normalized_chunks(tmp_path))
    assert [len(c) for c in chunks] == [2, 2, 2]
    for rec, seq in zip(manifest.records, [s for c in chunks for s in c]):
        one = manifest.load_normalized(rec, tmp_path)
        assert (seq.video_id, seq.label) == (one.video_id, one.label)
        assert seq.frames.dtype == np.float32
        assert np.array_equal(seq.frames, one.frames)


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
    seq = manifest.load_normalized(rec, tmp_path)
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


def test_vemb_nonzero_flags_rejected(tmp_path):
    blob = bytearray(vemb_bytes(np.ones(2, dtype=np.float32)))
    blob[7] = 0x80  # flags high byte
    path = tmp_path / "flags.vemb"
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersion):
        read_embeddings(path)


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
