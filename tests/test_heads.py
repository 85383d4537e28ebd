import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidembed import tensor as tn
from vidembed.data import ClassPrototypes, FrameSequence, l2_normalize
from vidembed.errors import (
    ChecksumMismatch,
    ConfigInvalid,
    EmptyDataset,
    HeadNotEmbedding,
    MalformedContainer,
    NonFiniteInput,
    NormUnderflow,
    TruncatedFile,
    VidembedError,
)
from vidembed.heads import (
    HeadParams,
    HeadSpec,
    classify_majority_vote,
    embed_sequence,
    fuse_max_pool,
    fuse_mid_frame,
    head_forward,
    init_params,
    lstm_forward,
    transformer_forward,
)
from vidembed.optim import grad_check
from vidembed.tensor import Tensor


def _seq(frames, vid="v0", label=None):
    return FrameSequence(vid, np.asarray(frames, dtype=np.float64), label)


def _rand_seq(rng, t, d):
    return _seq(l2_normalize(rng.standard_normal((t, d))))


def _one(frames):
    """One video's frames as a (1, T, D) batch."""
    return np.asarray(frames, dtype=np.float64)[None]


def _embed(seq, params):
    """The row of a single video."""
    return embed_sequence([seq], params)[0]


# --- spec and init ---------------------------------------------------------


def test_spec_defaults():
    s = HeadSpec(kind="transformer", d_in=8)
    assert s.d_out == 8 and s.d_model == 8 and s.ffn == 32
    assert s.layers == 2 and s.heads == 4 and s.pooling == "cls"


def test_spec_rejects_indivisible_heads():
    with pytest.raises(ConfigInvalid):
        HeadSpec(kind="transformer", d_in=8, heads=3)


def test_spec_rejects_unknown_kind():
    with pytest.raises(ConfigInvalid):
        HeadSpec(kind="avg_pool", d_in=8)


def test_init_xavier_bound():
    params = init_params(HeadSpec(kind="lstm", d_in=4, hidden=4), seed=0)
    bound = math.sqrt(6.0 / 8.0)
    for name, t in params.tensors.items():
        if name.startswith(("W_", "U_")) and name != "W_out":
            assert np.abs(t.data).max() <= bound + 1e-7


def test_init_lstm_forget_bias():
    params = init_params(HeadSpec(kind="lstm", d_in=4), seed=0)
    assert np.array_equal(params.tensors["b_f"].data, np.ones((1, 4)))
    assert np.array_equal(params.tensors["b_i"].data, np.zeros((1, 4)))


def test_init_deterministic():
    spec = HeadSpec(kind="transformer", d_in=8, layers=1, heads=2)
    p1 = init_params(spec, seed=42)
    p2 = init_params(spec, seed=42)
    assert p1.tensors.keys() == p2.tensors.keys()
    for name in p1.tensors:
        assert np.array_equal(p1.tensors[name].data, p2.tensors[name].data)


# --- parameter-free heads --------------------------------------------------


def test_mid_frame_single():
    emb = fuse_mid_frame(_one([[0.0, 2.0]]))
    assert np.allclose(emb, [[0.0, 1.0]])


def test_mid_frame_odd_even():
    frames = np.eye(4)
    assert np.allclose(fuse_mid_frame(_one(frames[:3]))[0], frames[1])
    assert np.allclose(fuse_mid_frame(_one(frames))[0], frames[1])  # floor(3/2)
    assert np.allclose(fuse_mid_frame(_one(np.eye(5)))[0], np.eye(5)[2])


def test_max_pool_hand_arithmetic():
    emb = fuse_max_pool(_one([[1.0, -2.0], [3.0, 0.0]]))
    assert np.allclose(emb, [[1.0, 0.0]])


def test_max_pool_single_frame():
    emb = fuse_max_pool(_one([[3.0, 4.0]]))
    assert np.allclose(emb, [[0.6, 0.8]])


def test_max_pool_permutation_invariant():
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((6, 5))
    base = fuse_max_pool(_one(frames))
    for _ in range(5):
        perm = rng.permutation(6)
        assert np.array_equal(fuse_max_pool(_one(frames[perm])), base)


def test_fusers_work_per_video():
    # each row of a (B, T, D) batch is that video's own fused row
    rng = np.random.default_rng(10)
    batch = rng.standard_normal((4, 5, 3))
    for fuse in (fuse_mid_frame, fuse_max_pool):
        rows = fuse(batch)
        assert rows.shape == (4, 3)
        for b in range(4):
            assert np.array_equal(rows[b], fuse(batch[b : b + 1])[0])


def test_majority_vote_clear_majority():
    protos = ClassPrototypes(["a", "b"], np.eye(2))
    seq = _seq([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
    assert classify_majority_vote(seq, protos) == 0


def test_majority_vote_score_tiebreak():
    protos = ClassPrototypes(["a", "b"], np.eye(2))
    # one vote each; class 1 has the larger summed score
    seq = _seq([[0.6, 0.55], [0.1, 0.9]])
    assert classify_majority_vote(seq, protos) == 1


def test_majority_vote_final_tiebreak_lowest_index():
    protos = ClassPrototypes(["a", "b"], np.eye(2))
    seq = _seq([[1.0, 0.0], [0.0, 1.0]])  # tied votes, tied sums
    assert classify_majority_vote(seq, protos) == 0


def test_majority_vote_permutation_invariant():
    rng = np.random.default_rng(1)
    protos = ClassPrototypes(["a", "b", "c"], l2_normalize(rng.standard_normal((3, 6))))
    frames = l2_normalize(rng.standard_normal((9, 6)))
    base = classify_majority_vote(_seq(frames), protos)
    for _ in range(5):
        perm = rng.permutation(9)
        assert classify_majority_vote(_seq(frames[perm]), protos) == base


# --- LSTM ------------------------------------------------------------------


def test_lstm_zero_everything_underflows():
    spec = HeadSpec(kind="lstm", d_in=2)
    params = init_params(spec, seed=0, dtype=np.float64)
    for t in params.tensors.values():
        t.data[:] = 0.0
    with pytest.raises(NormUnderflow):
        lstm_forward(Tensor(np.zeros((3, 2))), params)


def test_lstm_hand_recurrence():
    # D=H=1, zero weights, forget bias 1, b_out=[1]: h_T = 0, output = [1]
    spec = HeadSpec(kind="lstm", d_in=1, hidden=1)
    params = init_params(spec, seed=0, dtype=np.float64)
    for name, t in params.tensors.items():
        t.data[:] = 1.0 if name in ("b_f", "b_out") else 0.0
    out = lstm_forward(Tensor(np.ones((4, 1))), params)
    assert np.allclose(out.data, [[1.0]])


def test_lstm_matches_reference_recurrence():
    # the stored per-gate tensors keep their meaning under the fused products
    spec = HeadSpec(kind="lstm", d_in=3, hidden=4, d_out=2)
    params = init_params(spec, seed=9, dtype=np.float64)
    p = {name: t.data for name, t in params.tensors.items()}
    frames = l2_normalize(np.random.default_rng(9).standard_normal((5, 3)))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = c = np.zeros((1, 4))
    for x in frames:
        gate = {k: x @ p[f"W_{k}"] + h @ p[f"U_{k}"] + p[f"b_{k}"] for k in "ifgo"}
        c = sig(gate["f"]) * c + sig(gate["i"]) * np.tanh(gate["g"])
        h = sig(gate["o"]) * np.tanh(c)
    out = h @ p["W_out"] + p["b_out"]
    expected = out / np.linalg.norm(out)
    assert np.abs(lstm_forward(Tensor(frames), params).data - expected).max() < 1e-12


def test_lstm_unit_norm_and_deterministic():
    rng = np.random.default_rng(2)
    spec = HeadSpec(kind="lstm", d_in=6, hidden=5, d_out=4)
    params = init_params(spec, seed=1)
    seq = _rand_seq(rng, 7, 6)
    e1 = _embed(seq, params)
    e2 = _embed(seq, params)
    assert np.array_equal(e1, e2)
    assert np.linalg.norm(e1) == pytest.approx(1.0, abs=1e-5)
    assert e1.shape == (4,)


def test_lstm_order_capable():
    rng = np.random.default_rng(3)
    params = init_params(HeadSpec(kind="lstm", d_in=8), seed=5)
    frames = l2_normalize(rng.standard_normal((6, 8)))
    fwd = _embed(_seq(frames), params)
    rev = _embed(_seq(frames[::-1].copy()), params)
    assert float(fwd @ rev) < 0.99


# --- transformer -----------------------------------------------------------


def test_transformer_zero_layers_ignores_input():
    spec = HeadSpec(kind="transformer", d_in=4, layers=0, heads=2)
    params = init_params(spec, seed=0)
    rng = np.random.default_rng(4)
    a = _embed(_rand_seq(rng, 3, 4), params)
    b = _embed(_rand_seq(rng, 6, 4), params)
    assert np.allclose(a, b)


def test_transformer_uniform_attention_when_qk_zero():
    # softmax of equal scores is uniform over positions
    scores = tn.softmax_rows(Tensor(np.zeros((5, 5))))
    assert np.allclose(scores.data, 1.0 / 5.0)
    spec = HeadSpec(kind="transformer", d_in=4, layers=1, heads=2)
    params = init_params(spec, seed=0, dtype=np.float64)
    for name in ("l0_wq", "l0_wk"):
        params.tensors[name].data[:] = 0.0
    rng = np.random.default_rng(5)
    out = transformer_forward(Tensor(l2_normalize(rng.standard_normal((3, 4)))), params)
    assert np.all(np.isfinite(out.data))
    assert np.linalg.norm(out.data) == pytest.approx(1.0, abs=1e-6)


def test_transformer_unit_norm_and_deterministic():
    rng = np.random.default_rng(6)
    spec = HeadSpec(kind="transformer", d_in=8, layers=2, heads=4, d_out=6)
    params = init_params(spec, seed=2)
    seq = _rand_seq(rng, 5, 8)
    e1 = _embed(seq, params)
    e2 = _embed(seq, params)
    assert np.array_equal(e1, e2)
    assert np.linalg.norm(e1) == pytest.approx(1.0, abs=1e-5)
    assert e1.shape == (6,)


def test_transformer_single_frame_cls():
    spec = HeadSpec(kind="transformer", d_in=4, layers=1, heads=2)
    params = init_params(spec, seed=3)
    emb = _embed(_seq([[1.0, 0.0, 0.0, 0.0]]), params)
    assert np.all(np.isfinite(emb))
    assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-5)


def test_transformer_mean_pooling():
    spec = HeadSpec(kind="transformer", d_in=4, layers=1, heads=2, pooling="mean")
    params = init_params(spec, seed=4)
    rng = np.random.default_rng(7)
    emb = _embed(_rand_seq(rng, 4, 4), params)
    assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-5)


def test_transformer_order_capable():
    rng = np.random.default_rng(1)
    params = init_params(HeadSpec(kind="transformer", d_in=8, layers=2, heads=2), seed=5)
    frames = l2_normalize(rng.standard_normal((6, 8)))
    fwd = _embed(_seq(frames), params)
    rev = _embed(_seq(frames[::-1].copy()), params)
    assert float(fwd @ rev) < 0.99


def test_transformer_input_projection():
    spec = HeadSpec(kind="transformer", d_in=6, d_model=4, layers=1, heads=2, d_out=4)
    params = init_params(spec, seed=5)
    assert "W_in" in params.tensors
    rng = np.random.default_rng(9)
    emb = _embed(_rand_seq(rng, 3, 6), params)
    assert emb.shape == (4,)


# --- batched forward -------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        HeadSpec(kind="lstm", d_in=6, hidden=5, d_out=4),
        HeadSpec(kind="transformer", d_in=6, d_model=4, layers=2, heads=2),
        HeadSpec(kind="transformer", d_in=4, layers=1, heads=2, pooling="mean"),
    ],
    ids=["lstm", "transformer_cls", "transformer_mean"],
)
def test_batch_matches_single_forwards(spec):
    params = init_params(spec, seed=8, dtype=np.float64)
    rng = np.random.default_rng(8)
    videos = [l2_normalize(rng.standard_normal((5, spec.d_in))) for _ in range(3)]
    batched = head_forward(Tensor(np.stack(videos)), params).data
    assert batched.shape == (3, spec.d_out)
    for i, frames in enumerate(videos):
        single = head_forward(Tensor(frames), params).data
        assert single.shape == (1, spec.d_out)
        assert np.abs(batched[i] - single[0]).max() < 1e-10


@pytest.mark.parametrize(
    "spec",
    [
        HeadSpec(kind="mid_frame", d_in=4),
        HeadSpec(kind="max_pool", d_in=4),
        HeadSpec(kind="lstm", d_in=4, hidden=5, d_out=3),
        HeadSpec(kind="transformer", d_in=4, layers=1, heads=2),
    ],
    ids=lambda spec: spec.kind,
)
def test_embed_sequence_rows_in_input_order(spec):
    params = init_params(spec, seed=3, dtype=np.float64)
    rng = np.random.default_rng(3)
    seqs = [_rand_seq(rng, t, 4) for t in (4, 2, 4, 1, 2)]
    rows = embed_sequence(seqs, params)
    assert rows.shape == (5, spec.d_out)
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-12
    for seq, row in zip(seqs, rows):
        assert np.abs(row - _embed(seq, params)).max() < 1e-10


def test_embed_sequence_typed_errors():
    with pytest.raises(EmptyDataset):
        embed_sequence([], HeadParams(HeadSpec(kind="max_pool", d_in=2), {}))
    with pytest.raises(EmptyDataset):
        embed_sequence([], init_params(HeadSpec(kind="lstm", d_in=2), seed=0))
    with pytest.raises(HeadNotEmbedding):
        embed_sequence([_seq([[1.0, 0.0]])], HeadParams(HeadSpec(kind="majority_vote", d_in=2), {}))


# --- gradient integrity ----------------------------------------------------


def _head_gradcheck(spec, seed=0, t=4, tmp_path=None):
    params = init_params(spec, seed=seed, dtype=np.float64)
    if tmp_path is not None:  # check the parameters as read back from a file
        params.save(tmp_path / "head.vemh")
        params = HeadParams.load(tmp_path / "head.vemh")
    rng = np.random.default_rng(seed + 100)
    frames = l2_normalize(rng.standard_normal((t, spec.d_in)))

    def loss_fn(p):
        emb = head_forward(Tensor(frames), params)
        return tn.softmax_cross_entropy(tn.scale(emb, 10.0), 0)

    return grad_check(loss_fn, params.tensors)


def test_lstm_gradcheck_small():
    report = _head_gradcheck(HeadSpec(kind="lstm", d_in=4, hidden=3))
    assert report.passed, str(report)


def test_transformer_gradcheck_small():
    report = _head_gradcheck(
        HeadSpec(kind="transformer", d_in=4, layers=1, heads=2, pooling="mean")
    )
    assert report.passed, str(report)


def test_gradcheck_after_save_load(tmp_path):
    report = _head_gradcheck(HeadSpec(kind="lstm", d_in=4, hidden=3), tmp_path=tmp_path)
    assert report.passed, str(report)


# --- serialization ---------------------------------------------------------


def test_params_from_bytes_writable_and_exact():
    params = init_params(HeadSpec(kind="lstm", d_in=4), seed=5, dtype=np.float64)
    loaded = HeadParams.from_bytes(params.to_bytes())
    for name, tensor in params.tensors.items():
        assert loaded.tensors[name].data.flags.writeable
        assert loaded.tensors[name].data.tobytes() == tensor.data.tobytes()


def test_params_corrupt_payload_detected():
    blob = bytearray(init_params(HeadSpec(kind="lstm", d_in=4), seed=5).to_bytes())
    blob[-6] ^= 0x01  # a payload byte of the last tensor
    with pytest.raises(ChecksumMismatch):
        HeadParams.from_bytes(blob)


def _container(header, payload=b""):
    return b"VEMH" + struct.pack("<HI", 1, len(header)) + header + payload


def test_params_short_blob_truncated():
    blob = init_params(HeadSpec(kind="lstm", d_in=4), seed=5).to_bytes()
    for cut in (5, 9, 20):
        with pytest.raises(TruncatedFile):
            HeadParams.from_bytes(blob[:cut])


@pytest.mark.parametrize(
    "header",
    [
        b"{not json",
        b"\xff\xfe",
        b"[1, 2]",
        b'{"tensors": []}',
        b'{"spec": {"kind": "lstm", "d_in": 4}}',
        b'{"spec": {"kind": "lstm", "d_in": 4, "colour": 1}, "tensors": []}',
        b'{"spec": {"kind": "lstm", "d_in": 4}, "tensors": "W_i"}',
        b'{"spec": {"kind": "lstm", "d_in": 4}, "tensors": ["b", "b"]}',
    ],
    ids=["not_json", "not_utf8", "not_object", "no_spec", "no_tensors", "unknown_spec_key",
         "names_not_list", "duplicate_names"],
)
def test_params_bad_header_typed(header):
    with pytest.raises(MalformedContainer):
        HeadParams.from_bytes(_container(header))


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "lstm", "d_in": 4.5},
        {"kind": "transformer", "d_in": 4, "layers": 1.5},
        {"kind": "lstm", "d_in": True},
        {"kind": "transformer", "d_in": 4, "heads": 2.0},
    ],
    ids=["float_d_in", "float_layers", "bool_d_in", "float_heads"],
)
def test_params_spec_extents_must_be_int(spec):
    header = json.dumps({"spec": spec, "tensors": []}).encode()
    with pytest.raises(ConfigInvalid):
        HeadParams.from_bytes(_container(header))

def test_params_deeply_nested_header_typed():
    with pytest.raises(MalformedContainer):
        HeadParams.from_bytes(_container(b"[" * 200_000))
    with pytest.raises(MalformedContainer):
        HeadParams.from_bytes(_container(b'{"spec": ' + b"[" * 200_000))


def test_params_trailing_bytes_rejected():
    blob = init_params(HeadSpec(kind="lstm", d_in=4), seed=5).to_bytes()
    HeadParams.from_bytes(blob)
    with pytest.raises(MalformedContainer):
        HeadParams.from_bytes(blob + b"\x00")


def _lstm_blob(edit):
    params = init_params(HeadSpec(kind="lstm", d_in=4), seed=5)
    edit(params.tensors)
    return params.to_bytes()


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t.clear(),
        lambda t: t.pop("W_out"),
        lambda t: t.update(extra=Tensor(np.zeros((1, 4), dtype=np.float32))),
        lambda t: t.update(b_out=Tensor(np.zeros((1, 5), dtype=np.float32))),
        lambda t: t.update(b_out=Tensor(np.zeros(4, dtype=np.float32))),
    ],
    ids=["no_tensors", "missing", "extra", "misshapen", "wrong_rank"],
)
def test_params_tensors_must_fit_spec(edit):
    with pytest.raises(MalformedContainer):
        HeadParams.from_bytes(_lstm_blob(edit))


@pytest.mark.parametrize(
    "spec",
    [{"kind": "lstm", "d_in": 1000}, {"kind": "transformer", "d_in": 4, "layers": 10000}],
    ids=["lstm_d_in_1000", "transformer_10000_layers"],
)
def test_params_check_costs_what_the_blob_holds(spec):
    # the expected shapes come from the spec without drawing its weights
    blob = _container(json.dumps({"spec": spec, "tensors": []}).encode())
    tracemalloc.start()
    try:
        with pytest.raises(MalformedContainer):
            HeadParams.from_bytes(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_params_non_finite_tensor_rejected(bad):
    blob = _lstm_blob(lambda t: t["b_f"].data.__setitem__((0, 1), bad))
    with pytest.raises(NonFiniteInput, match="b_f"):
        HeadParams.from_bytes(blob)


def test_params_errors_are_vidembed_errors():
    assert issubclass(MalformedContainer, VidembedError)
    assert issubclass(TruncatedFile, VidembedError)


def test_params_round_trip(tmp_path):
    spec = HeadSpec(kind="transformer", d_in=8, layers=1, heads=2)
    params = init_params(spec, seed=7)
    path = tmp_path / "head.vemh"
    params.save(path)
    loaded = HeadParams.load(path)
    assert loaded.spec == spec
    assert list(loaded.tensors) == list(params.tensors)
    for name in params.tensors:
        assert np.array_equal(loaded.tensors[name].data, params.tensors[name].data)
    assert loaded.fingerprint() == params.fingerprint()


def test_params_fingerprint_changes_with_weights():
    spec = HeadSpec(kind="lstm", d_in=4)
    p1 = init_params(spec, seed=1)
    p2 = init_params(spec, seed=2)
    assert p1.fingerprint() != p2.fingerprint()


# --- VEMH parser properties: only a VidembedError may escape ----------------

_VEMH = init_params(HeadSpec(kind="transformer", d_in=2, layers=1, heads=2), seed=3).to_bytes()


def _params_or_typed_error(blob):
    try:
        HeadParams.from_bytes(blob)
    except VidembedError:
        pass  # any other exception fails the test


@given(st.binary(max_size=64) | st.binary(max_size=64).map(lambda b: b"VEMH" + b))
def test_params_parser_arbitrary_bytes(blob):
    _params_or_typed_error(blob)


@settings(max_examples=300)
@given(st.integers(0, len(_VEMH) - 1), st.integers(1, 255))
def test_params_parser_byte_flips(pos, mask):
    blob = bytearray(_VEMH)
    blob[pos] ^= mask
    _params_or_typed_error(blob)


def test_params_parser_every_truncation():
    for cut in range(len(_VEMH)):
        with pytest.raises(VidembedError):
            HeadParams.from_bytes(_VEMH[:cut])


@given(
    st.sampled_from(["lstm", "transformer"]), st.integers(1, 4), st.integers(1, 3),
    st.integers(0, 2), st.sampled_from([1, 2]), st.sampled_from(["cls", "mean"]),
    st.sampled_from([np.float32, np.float64]),
)
def test_params_parser_round_trip(kind, d_in, width, layers, heads, pooling, dtype):
    spec = HeadSpec(kind=kind, d_in=d_in, d_out=width, hidden=width, d_model=heads * width,
                    layers=layers, heads=heads, pooling=pooling)
    blob = init_params(spec, seed=d_in, dtype=dtype).to_bytes()
    loaded = HeadParams.from_bytes(blob)
    assert loaded.spec == spec
    assert loaded.to_bytes() == blob
