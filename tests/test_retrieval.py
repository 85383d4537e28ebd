import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vidembed import data, retrieval
from vidembed.data import (
    DatasetManifest,
    FrameSequence,
    ManifestRecord,
    l2_normalize,
    length_groups,
    write_embeddings,
)
from vidembed.errors import (
    DimMismatch,
    DuplicateId,
    EmptyDataset,
    HeadNotEmbedding,
    MalformedContainer,
    NonFiniteInput,
    NormUnderflow,
    VidembedError,
)
from vidembed.heads import HeadParams, HeadSpec, embed_sequence, init_params
from vidembed.retrieval import RetrievalIndex, brute_force_topk, build_index, query


def _normalized(manifest, rec, base):
    """The record's video as the encoders take it: unit float32 frame rows."""
    frames = manifest.load_sequence(rec, base).frames
    return FrameSequence(rec.video_id, l2_normalize(frames).astype(np.float32), rec.label)


def _random_index(rng, n, d):
    ids = [f"vid_{i:05d}" for i in rng.permutation(n)]
    matrix = l2_normalize(rng.standard_normal((n, d))).astype(np.float32)
    return RetrievalIndex(ids, matrix, "max_pool", "test")


def test_query_self_similarity():
    rng = np.random.default_rng(0)
    index = _random_index(rng, 50, 8)
    result = query(index, index.matrix[7], k=1)
    assert result.items[0][0] == index.ids[7]
    assert result.items[0][1] == pytest.approx(1.0, abs=1e-6)


def test_query_default_k_is_6():
    rng = np.random.default_rng(1)
    index = _random_index(rng, 20, 8)
    result = query(index, rng.standard_normal(8))
    assert len(result.items) == 6


def test_query_scores_sorted_and_bounded():
    rng = np.random.default_rng(2)
    index = _random_index(rng, 100, 16)
    result = query(index, rng.standard_normal(16), k=30)
    scores = [s for _, s in result.items]
    assert scores == sorted(scores, reverse=True)
    assert all(-1 - 1e-6 <= s <= 1 + 1e-6 for s in scores)


def test_query_k_larger_than_n():
    rng = np.random.default_rng(3)
    index = _random_index(rng, 4, 8)
    result = query(index, rng.standard_normal(8), k=10)
    assert len(result.items) == 4


def test_query_dim_mismatch():
    rng = np.random.default_rng(4)
    index = _random_index(rng, 5, 8)
    with pytest.raises(DimMismatch):
        query(index, np.ones(7))


def test_query_zero_vector_rejected():
    rng = np.random.default_rng(5)
    index = _random_index(rng, 5, 8)
    with pytest.raises(NormUnderflow):
        query(index, np.zeros(8))


def test_query_tie_break_ascending_id():
    matrix = np.stack([np.array([1.0, 0.0], dtype=np.float32)] * 3)
    index = RetrievalIndex(["zebra", "apple", "mango"], matrix, "max_pool", "fp")
    result = query(index, [1.0, 0.0], k=3)
    assert result.ids() == ["apple", "mango", "zebra"]


def test_brute_force_degenerate_cases():
    matrix = np.array([[0.6, 0.8]], dtype=np.float32)
    res = brute_force_topk(matrix, ["only"], [-1.0, 0.0], k=5)
    assert res.ids() == ["only"]
    assert res.items[0][1] < 0  # negative score still returned


def test_query_matches_brute_force_oracle():
    rng = np.random.default_rng(6)
    checked = 0
    for n in (1, 2, 100, 1000):
        index = _random_index(rng, n, 16)
        for k in (1, 6, n, n + 5):
            for _ in range(4):
                q = rng.standard_normal(16)
                fast = query(index, q, k)
                slow = brute_force_topk(index.matrix, index.ids, q, k)
                assert fast.items == slow.items
                checked += 1
    assert checked >= 60


# ids mixing NUL, ASCII, Latin-1, CJK and astral characters, so that prefixes,
# trailing NULs and multi-unit code points all occur
_ID_CHARS = ["\0", "a", "b", "\u00e9", "\u65e5", "\U0001f600"]
_ids = st.text(alphabet=st.sampled_from(_ID_CHARS), max_size=3)


@given(st.data())
def test_query_matches_oracle_with_duplicate_rows(data):
    n = data.draw(st.integers(1, 12))
    ids = data.draw(
        st.lists(_ids, min_size=n, max_size=n, unique=True))
    # rows drawn from a small pool of small-integer vectors: many exact
    # duplicates and many equal scores at the cut
    pool = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                              min_size=1, max_size=3))
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    q = data.draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    assume(any(q))
    k = data.draw(st.integers(1, n + 2))
    index = RetrievalIndex(ids, np.array(rows, dtype=np.float32), "max_pool", "fp")
    assert query(index, q, k).items == brute_force_topk(index.matrix, index.ids, q, k).items


@given(st.lists(_ids, min_size=1, max_size=12, unique=True))
@example(["a\0", "a", "\0", "", "a\0\0"])
def test_ties_follow_python_id_order(ids):
    # identical rows tie on every score, so the ids alone set the order; ids
    # that differ only in trailing NULs are distinct
    index = RetrievalIndex(ids, np.ones((len(ids), 2), dtype=np.float32), "max_pool", "fp")
    for k in range(1, len(ids) + 2):
        assert query(index, [1.0, 0.0], k).ids() == sorted(ids)[:k]


class _CollidingId(str):
    """A str id whose hash collides with every other one."""

    def __hash__(self):
        return 7


def test_id_hash_collisions_compare_exact_ids():
    ids = [_CollidingId(s) for s in ("b", "a", "c")]
    matrix = np.zeros((4, 2), dtype=np.float32)
    assert len(RetrievalIndex(ids, matrix[:3], "max_pool", "fp")) == 3
    with pytest.raises(DuplicateId):
        RetrievalIndex(ids + [_CollidingId("a")], matrix, "max_pool", "fp")


@given(st.lists(_ids, min_size=1, max_size=8), st.data())
def test_duplicate_ids_rejected(ids, data):
    ids = ids + [data.draw(st.sampled_from(ids))]
    with pytest.raises(DuplicateId):
        RetrievalIndex(ids, np.zeros((len(ids), 2), dtype=np.float32), "max_pool", "fp")


def test_query_nan_rows_rank_last():
    matrix = np.array([[1, 0], [np.nan, 0], [0, 1], [np.nan, 1], [1, 1]], dtype=np.float32)
    # the constructor rejects NaN rows, so put them in after it has run
    index = RetrievalIndex(["a", "b", "c", "d", "e"], np.nan_to_num(matrix), "max_pool", "fp")
    index.matrix[:] = matrix
    for k in range(1, 7):
        result = query(index, [1.0, 0.0], k)
        # the full sort the selection replaces: NaN scores last, then by id
        assert result.ids() == ["a", "e", "c", "b", "d"][:k]


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, 10**400],
    ids=["nan", "inf", "-inf", "int_beyond_float"],
)
def test_query_non_finite_rejected(bad):
    rng = np.random.default_rng(8)
    index = _random_index(rng, 5, 4)
    with pytest.raises(NonFiniteInput):
        query(index, [1.0, bad, 0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_index_rejects_non_finite_rows(tmp_path, bad):
    matrix = np.eye(3, dtype=np.float32)
    matrix[1, 2] = bad
    with pytest.raises(NonFiniteInput):
        RetrievalIndex(["a", "b", "c"], matrix, "max_pool", "fp")
    # the same row read back from an index file
    RetrievalIndex(["a", "b", "c"], np.eye(3), "max_pool", "fp").save(tmp_path / "idx")
    write_embeddings(tmp_path / "idx.vemb", matrix)
    with pytest.raises(NonFiniteInput):
        RetrievalIndex.load(tmp_path / "idx")


def test_query_huge_components_rescaled():
    rng = np.random.default_rng(9)
    index = _random_index(rng, 20, 4)
    huge = query(index, [1e308, -1e308, 1e308, 0.0], 5)
    assert huge.items == query(index, [1.0, -1.0, 1.0, 0.0], 5).items
    assert huge.items[0][1] > 0


def test_index_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    index = _random_index(rng, 30, 8)
    prefix = str(tmp_path / "idx")
    index.save(prefix)
    loaded = RetrievalIndex.load(prefix)
    assert loaded.ids == index.ids
    assert np.array_equal(loaded.matrix, index.matrix)
    assert loaded.head_kind == index.head_kind
    assert loaded.fingerprint == index.fingerprint
    q = rng.standard_normal(8)
    assert query(loaded, q, 5).items == query(index, q, 5).items


@pytest.mark.parametrize("n", [0, 1, retrieval._ID_SLICE, retrieval._ID_SLICE + 3])
def test_index_sidecar_is_sorted_json_dumps(tmp_path, n):
    ids = [f"v\u00e9\"{i}" for i in range(n)]
    RetrievalIndex(ids, np.ones((n, 2)), "max_pool", "fp").save(tmp_path / "idx")
    sidecar = {"ids": ids, "head_kind": "max_pool", "fingerprint": "fp"}
    assert (tmp_path / "idx.json").read_bytes() == json.dumps(sidecar, sort_keys=True).encode()


def test_index_save_copies_no_payload(tmp_path):
    """Neither the rows nor the whole sidecar text is held twice: the traced
    peak of a save stays under 1/8 of the payload (a copy of the rows alone
    would be 8/8)."""
    n = 100_000
    matrix = np.random.default_rng(3).standard_normal((n, 32), dtype=np.float32)
    index = RetrievalIndex([f"v{i:07d}" for i in range(n)], matrix, "max_pool", "fp")
    tracemalloc.start()
    try:
        index.save(tmp_path / "idx")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix.nbytes / 8
    assert RetrievalIndex.load(tmp_path / "idx").matrix.tobytes() == matrix.tobytes()


def test_index_ids_must_match_rows():
    with pytest.raises(VidembedError):
        RetrievalIndex(["a", "b"], np.eye(3), "max_pool", "fp")
    with pytest.raises(VidembedError):
        RetrievalIndex(["a", "b"], np.ones(2), "max_pool", "fp")


_SIDECAR = {"ids": ["a", "b", "c"], "head_kind": "max_pool", "fingerprint": "fp"}


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        b"\xff\xfe",
        json.dumps([_SIDECAR]),
        json.dumps({**_SIDECAR, "ids": ["a", "b"]}),
        json.dumps({**_SIDECAR, "ids": ["a", "b", "c", "d"]}),
        json.dumps({**_SIDECAR, "ids": ["a", "b", 3]}),
        json.dumps({**_SIDECAR, "ids": ["a", "b", None]}),
        json.dumps({**_SIDECAR, "ids": "abc"}),
        json.dumps({**_SIDECAR, "head_kind": 1}),
        json.dumps({**_SIDECAR, "fingerprint": None}),
    ]
    + [json.dumps({k: v for k, v in _SIDECAR.items() if k != key}) for key in _SIDECAR],
    ids=["not_json", "not_utf8", "not_object", "fewer_ids", "more_ids", "int_id",
         "null_id", "ids_str", "head_kind_int", "fingerprint_null",
         "no_ids", "no_head_kind", "no_fingerprint"],
)
def test_index_sidecar_malformed(tmp_path, text):
    RetrievalIndex(_SIDECAR["ids"], np.eye(3), "max_pool", "fp").save(tmp_path / "idx")
    sidecar = tmp_path / "idx.json"
    if isinstance(text, bytes):
        sidecar.write_bytes(text)
    else:
        sidecar.write_text(text)
    with pytest.raises(MalformedContainer):
        RetrievalIndex.load(tmp_path / "idx")


def test_index_sidecar_deeply_nested(tmp_path):
    RetrievalIndex(_SIDECAR["ids"], np.eye(3), "max_pool", "fp").save(tmp_path / "idx")
    (tmp_path / "idx.json").write_text("[" * 200_000)
    with pytest.raises(MalformedContainer):
        RetrievalIndex.load(tmp_path / "idx")


# --- index sidecar parser properties: only a VidembedError may escape -------

_SIDECAR_BYTES = json.dumps({**_SIDECAR, "ids": ["a", "b\u00e9", "c"]}, sort_keys=True).encode()


@pytest.fixture(scope="module")
def index_prefix(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("sidecar") / "idx"
    RetrievalIndex(_SIDECAR["ids"], np.eye(3), "max_pool", "fp").save(prefix)
    return prefix


def _index_or_typed_error(prefix, blob):
    prefix.with_suffix(".json").write_bytes(bytes(blob))
    try:
        return RetrievalIndex.load(prefix)
    except VidembedError:
        return None  # any other exception fails the test


@given(st.binary(max_size=96) | st.binary(max_size=96).map(lambda b: _SIDECAR_BYTES[:20] + b))
def test_sidecar_parser_arbitrary_bytes(index_prefix, blob):
    _index_or_typed_error(index_prefix, blob)


@settings(max_examples=200)
@given(st.integers(0, len(_SIDECAR_BYTES) - 1), st.integers(1, 255))
def test_sidecar_parser_byte_flips(index_prefix, pos, mask):
    blob = bytearray(_SIDECAR_BYTES)
    blob[pos] ^= mask
    _index_or_typed_error(index_prefix, blob)


def test_sidecar_parser_every_truncation(index_prefix):
    for cut in range(len(_SIDECAR_BYTES)):
        assert _index_or_typed_error(index_prefix, _SIDECAR_BYTES[:cut]) is None


def test_sidecar_parser_round_trip(index_prefix):
    index = _index_or_typed_error(index_prefix, _SIDECAR_BYTES)
    assert index.ids == ["a", "b\u00e9", "c"]
    index.save(index_prefix)
    assert index_prefix.with_suffix(".json").read_bytes() == _SIDECAR_BYTES


def test_build_index_rows_match_fuse(anchor_ds):
    manifest, protos, out = anchor_ds
    params = HeadParams(HeadSpec(kind="max_pool", d_in=16), {})
    index = build_index(manifest, params, out)
    assert len(index) == len(manifest.records)
    for i, rec in enumerate(manifest.records[:5]):
        row = embed_sequence(length_groups([_normalized(manifest, rec, out)]), params)[0]
        assert np.array_equal(index.matrix[i], row.astype(np.float32))
        assert index.ids[i] == rec.video_id


_MIXED_LENGTHS = (3, 5, 3, 7, 5)


def _mixed_manifest(base, d=6):
    """A manifest whose videos have 3, 5, 3, 7 and 5 frames."""
    rng = np.random.default_rng(12)
    manifest = DatasetManifest(dim=d, class_names=["a", "b"])
    (base / "videos").mkdir()
    for i, t in enumerate(_MIXED_LENGTHS):
        rel = f"videos/v{i}.vemb"
        write_embeddings(base / rel, rng.standard_normal((t, d)).astype(np.float32))
        manifest.records.append(ManifestRecord(f"v{i}", rel, i % 2, t))
    return manifest


@pytest.mark.parametrize(
    "spec",
    [
        HeadSpec(kind="max_pool", d_in=6),
        HeadSpec(kind="mid_frame", d_in=6),
        HeadSpec(kind="lstm", d_in=6, hidden=5, d_out=4),
        HeadSpec(kind="transformer", d_in=6, d_model=4, layers=2, heads=2),
        HeadSpec(kind="transformer", d_in=6, layers=1, heads=2, pooling="mean"),
    ],
    ids=["max_pool", "mid_frame", "lstm", "transformer_cls", "transformer_mean"],
)
@pytest.mark.parametrize("chunk", [256, 2])
def test_build_index_mixed_lengths_manifest_order(tmp_path, monkeypatch, spec, chunk):
    monkeypatch.setattr(data, "ENCODE_CHUNK", chunk)
    manifest = _mixed_manifest(tmp_path)
    params = init_params(spec, seed=6, dtype=np.float64)
    index = build_index(manifest, params, tmp_path)
    assert index.ids == [rec.video_id for rec in manifest.records]
    seqs = [_normalized(manifest, rec, tmp_path) for rec in manifest.records]
    singles = np.stack([embed_sequence(length_groups([seq]), params)[0] for seq in seqs])
    if params.tensors:  # float64 forwards: batched rows within 1e-10 of single ones
        rows = embed_sequence(length_groups(seqs), params)
        assert rows.dtype == np.float64
        assert np.abs(rows - singles).max() < 1e-10
        assert np.array_equal(index.matrix, rows.astype(np.float32))
    else:
        assert np.array_equal(index.matrix, singles)


def test_build_index_deterministic(anchor_ds):
    manifest, protos, out = anchor_ds
    params = init_params(HeadSpec(kind="lstm", d_in=16), seed=3)
    i1 = build_index(manifest, params, out)
    i2 = build_index(manifest, params, out)
    assert i1.ids == i2.ids
    assert np.array_equal(i1.matrix, i2.matrix)
    assert i1.fingerprint == i2.fingerprint


def test_build_index_rejects_majority_vote(anchor_ds):
    manifest, protos, out = anchor_ds
    with pytest.raises(HeadNotEmbedding):
        build_index(manifest, HeadParams(HeadSpec(kind="majority_vote", d_in=16), {}), out)


def test_build_index_empty_manifest(anchor_ds):
    _, protos, out = anchor_ds
    empty = DatasetManifest(dim=16, class_names=protos.names)
    with pytest.raises(EmptyDataset):
        build_index(empty, HeadParams(HeadSpec(kind="max_pool", d_in=16), {}), out)


def test_concurrent_queries_match_serial(anchor_ds):
    from concurrent.futures import ThreadPoolExecutor

    manifest, protos, out = anchor_ds
    params = HeadParams(HeadSpec(kind="max_pool", d_in=16), {})
    index = build_index(manifest, params, out)
    queries = [protos.vectors[i % 5] for i in range(20)]
    serial = [query(index, q, 6).items for q in queries]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda q: query(index, q, 6).items, queries))
    assert serial == parallel


def test_prototype_query_returns_own_class(anchor_ds):
    manifest, protos, out = anchor_ds
    params = HeadParams(HeadSpec(kind="max_pool", d_in=16), {})
    index = build_index(manifest, params, out)
    for c, name in enumerate(protos.names):
        result = query(index, protos.vectors[c], 6)
        for vid, _ in result.items:
            assert vid.startswith(name)
