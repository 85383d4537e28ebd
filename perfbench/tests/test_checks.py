"""Each output check accepts a right answer and rejects a wrong one."""

import json
import math
import struct
import zlib

import numpy as np
import pytest

from perfbench import checks
from perfbench.bench import CheckFailed


def _vemb(arr, crc_over_header=False):
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    header = b"VEMB" + struct.pack("<HHBB", 1, 0, 0, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.tobytes()
    crc = zlib.crc32(header + payload if crc_over_header else payload)
    return header + payload + struct.pack("<I", crc)


@pytest.mark.parametrize("crc_over_header", [False, True])
def test_read_vemb_round_trip(tmp_path, crc_over_header):
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "a.vemb"
    path.write_bytes(_vemb(arr, crc_over_header))
    assert np.array_equal(checks.read_vemb(path), arr)


def test_read_vemb_matches_program_writer(tmp_path):
    from vidembed.data import write_embeddings

    arr = np.random.default_rng(0).standard_normal((5, 3)).astype(np.float32)
    write_embeddings(tmp_path / "p.vemb", arr)
    assert np.array_equal(checks.read_vemb(tmp_path / "p.vemb"), arr)


def test_read_vemb_rejects_corruption(tmp_path):
    blob = bytearray(_vemb(np.ones((2, 2))))
    blob[-6] ^= 0xFF
    (tmp_path / "bad.vemb").write_bytes(bytes(blob))
    with pytest.raises(CheckFailed, match="CRC"):
        checks.read_vemb(tmp_path / "bad.vemb")
    (tmp_path / "short.vemb").write_bytes(bytes(blob[:-1]))
    with pytest.raises(CheckFailed):
        checks.read_vemb(tmp_path / "short.vemb")


def test_strict_json_rejects_nan_body():
    assert checks.strict_json(b'{"results": [], "x": 1.5}') == {"results": [], "x": 1.5}
    body = json.dumps({"results": [{"video_id": "a", "score": math.nan}]}).encode()
    with pytest.raises(CheckFailed, match="strict JSON"):
        checks.strict_json(body)
    with pytest.raises(CheckFailed):
        checks.strict_json(b'{"score": Infinity}')
    with pytest.raises(CheckFailed, match="overflows"):
        checks.strict_json(b'{"score": 1e400}')


@pytest.fixture
def tied_index():
    """Twelve unit rows; rows 0 and 7 are one vector under two ids."""
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 4)).astype(np.float32)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    m[7] = m[0]
    ids = [f"v{i:02d}" for i in (5, 11, 2, 8, 0, 9, 1, 3, 10, 4, 6, 7)]
    return m, ids, {vid: i for i, vid in enumerate(ids)}


def _oracle(m, ids, q, k):
    s = checks.scores_of(m, q)
    order = sorted(range(len(ids)), key=lambda i: (-float(s[i]), ids[i]))
    return [(ids[i], float(s[i])) for i in order[:k]], s


def test_topk_accepts_oracle(tied_index):
    m, ids, pos = tied_index
    for k in (1, 2, 5, 12, 20):
        items, s = _oracle(m, ids, m[0], k)
        checks.check_topk(items, s, ids, pos, k)


def test_topk_rejects_swapped_tie(tied_index):
    m, ids, pos = tied_index
    items, s = _oracle(m, ids, m[0], 3)
    assert items[0][1] == items[1][1]  # rows 0 and 7 tie at the top
    with pytest.raises(CheckFailed, match="tie"):
        checks.check_topk([items[1], items[0], items[2]], s, ids, pos, 3)


def test_topk_rejects_wrong_id_kept_at_the_cut(tied_index):
    m, ids, pos = tied_index
    items, s = _oracle(m, ids, m[0], 2)
    winner = items[0]
    loser = (ids[0] if ids[0] != winner[0] else ids[7], winner[1])
    checks.check_pair_cut([winner], [ids[0], ids[7]], 1)
    with pytest.raises(CheckFailed, match="tie at the cut"):
        checks.check_topk([loser], s, ids, pos, 1)
    with pytest.raises(CheckFailed, match="pair"):
        checks.check_pair_cut([loser], [ids[0], ids[7]], 1)


def test_topk_rejects_dropped_top_row(tied_index):
    m, ids, pos = tied_index
    q = m[3]
    items, s = _oracle(m, ids, q, 4)
    longer, _ = _oracle(m, ids, q, 5)
    with pytest.raises(CheckFailed, match="left out"):
        checks.check_topk(longer[1:], s, ids, pos, 4)


def test_topk_rejects_bad_scores_and_lengths(tied_index):
    m, ids, pos = tied_index
    items, s = _oracle(m, ids, m[2], 3)
    with pytest.raises(CheckFailed, match="results for k"):
        checks.check_topk(items[:2], s, ids, pos, 3)
    with pytest.raises(CheckFailed, match="differ"):
        checks.check_topk([(items[0][0], items[0][1] + 1e-3)] + items[1:], s, ids, pos, 3)
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_topk([(items[0][0], math.nan)] + items[1:], s, ids, pos, 3)
    with pytest.raises(CheckFailed, match="increase"):
        checks.check_topk(items[::-1], s, ids, pos, 3)


def test_unit_rows_rejects_non_unit_row():
    m = np.eye(3, dtype=np.float32)
    checks.check_unit_rows(m)
    m[1] *= 1.001
    with pytest.raises(CheckFailed, match="norms"):
        checks.check_unit_rows(m)


def test_accuracy_identical_and_loss_checks():
    rows = np.eye(3)
    checks.check_accuracy(2 / 3, rows, np.eye(3), [0, 1, 0])
    with pytest.raises(CheckFailed, match="accuracy"):
        checks.check_accuracy(1.0, rows, np.eye(3), [0, 1, 0])
    checks.check_identical({"rows": {"a"}})
    with pytest.raises(CheckFailed, match="different outputs"):
        checks.check_identical({"rows": {"a", "b"}})
    checks.check_loss_decreases([("lstm", 1.0, 0.5)])
    with pytest.raises(CheckFailed, match="not below"):
        checks.check_loss_decreases([("lstm", 1.0, 1.0)])
