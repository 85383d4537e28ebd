"""Output checks, computed apart from the program's own code paths: the
benchmark parses VEMB files and JSON bodies itself and scores rows with its
own NumPy product. Every check raises CheckFailed with the reason."""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from perfbench.bench import CheckFailed

SCORE_TOL = 1e-6
NORM_TOL = 1e-5
_VEMB_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def read_vemb(path):
    """The benchmark's own VEMB reader: header by struct, CRC by zlib.crc32.

    The CRC may cover the payload alone or the header and the payload, so the
    reader accepts either placement."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != b"VEMB" or len(buf) < 10:
        raise CheckFailed(f"{path}: not a VEMB file")
    _, _, code, rank = struct.unpack_from("<HHBB", buf, 4)
    if code not in _VEMB_DTYPES or rank not in (1, 2):
        raise CheckFailed(f"{path}: dtype {code}, rank {rank}")
    shape = struct.unpack_from(f"<{rank}I", buf, 10)
    off = 10 + 4 * rank
    dt = _VEMB_DTYPES[code]
    end = off + dt.itemsize * math.prod(shape)
    if len(buf) != end + 4:
        raise CheckFailed(f"{path}: {len(buf)} bytes, expected {end + 4}")
    (crc,) = struct.unpack_from("<I", buf, end)
    if crc not in (zlib.crc32(buf[off:end]), zlib.crc32(buf[:end])):
        raise CheckFailed(f"{path}: CRC mismatch")
    return np.frombuffer(buf, dtype=dt, count=math.prod(shape), offset=off).reshape(shape)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


def _finite_float(token):
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"JSON number {token} overflows a double")
    return value


def strict_json(body):
    """Parse a response body as strict JSON: NaN, Infinity and numbers that
    overflow a double are rejected."""
    try:
        return json.loads(body, parse_constant=_reject_constant, parse_float=_finite_float)
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckFailed(f"body is not strict JSON: {exc}") from None


def scores_of(matrix, vector):
    """Cosine scores of every row against a query, as float32 products of the
    unit query with the stored rows."""
    q = np.asarray(vector, dtype=np.float64).reshape(-1)
    q = (q / math.sqrt(float(q @ q))).astype(np.float32)
    return np.asarray(matrix, dtype=np.float32) @ q


def check_topk(items, scores, ids, position, k):
    """`items` [(id, score)] must be a top-k of `scores` under the tie rule.

    position maps an id to its row in `scores`/`ids`. Returned scores match
    the benchmark's within SCORE_TOL and do not increase; no other row beats
    the last one by more than SCORE_TOL; equal scores come in ascending id
    order; and where rows tie exactly at the cut, the smaller ids are kept."""
    n = min(k, len(ids))
    if len(items) != n:
        raise CheckFailed(f"{len(items)} results for k={k} over {len(ids)} rows")
    got_ids = [vid for vid, _ in items]
    got = np.array([s for _, s in items], dtype=np.float64)
    if len(set(got_ids)) != n:
        raise CheckFailed("duplicate ids in a result")
    try:
        rows = np.array([position[vid] for vid in got_ids], dtype=np.int64)
    except KeyError as exc:
        raise CheckFailed(f"unknown id {exc} in a result") from None
    if not np.all(np.isfinite(got)):
        raise CheckFailed("non-finite score in a result")
    own = scores[rows].astype(np.float64)
    if np.any(np.abs(got - own) > SCORE_TOL):
        raise CheckFailed(f"scores differ from the benchmark's by up to {np.abs(got - own).max():.3g}")
    if np.any(np.diff(got) > 0):
        raise CheckFailed("scores increase down the list")
    for a, b, sa, sb in zip(got_ids, got_ids[1:], got, got[1:]):
        if sa == sb and a > b:
            raise CheckFailed(f"tie out of id order: {a} before {b}")
    rest = np.ones(len(ids), dtype=bool)
    rest[rows] = False
    if n < len(ids) and float(scores[rest].max()) > own.min() + SCORE_TOL:
        raise CheckFailed("a row left out scores above the last row returned")
    last = scores[rows[-1]]
    tied = np.flatnonzero(scores == last)
    if len(tied) > 1:
        kept = sorted(ids[i] for i in tied if not rest[i])
        expected = sorted(ids[i] for i in tied)[: len(kept)]
        if kept != expected:
            raise CheckFailed(f"tie at the cut kept {kept}, expected {expected}")


def check_pair_cut(items, pair_ids, k):
    """A duplicated pair placed at ranks k and k+1: the smaller id is kept."""
    got = [vid for vid, _ in items]
    keep, drop = sorted(pair_ids)
    if len(got) < k or got[k - 1] != keep or drop in got:
        raise CheckFailed(f"pair {keep}/{drop} at the cut of k={k}: got {got[-2:]}")


def check_unit_rows(matrix, tol=NORM_TOL):
    norms = np.linalg.norm(np.asarray(matrix, dtype=np.float64), axis=1)
    if not np.all(np.abs(norms - 1.0) <= tol):
        worst = float(np.nanmax(np.abs(norms - 1.0)))
        raise CheckFailed(f"row norms differ from 1 by up to {worst:.3g}")


def check_identical(digests):
    """Each key saw one digest across its repeated calls with one seed."""
    for key, seen in digests.items():
        if len(seen) != 1:
            raise CheckFailed(f"{key}: {len(seen)} different outputs from one seed")


def check_loss_decreases(losses):
    for key, first, last in losses:
        if not last < first:
            raise CheckFailed(f"{key}: last-epoch train loss {last} not below first {first}")


def check_accuracy(program_acc, rows, prototypes, labels):
    """The program's accuracy equals argmax(rows . prototypes) against labels."""
    pred = np.argmax(np.asarray(rows, dtype=np.float64) @ np.asarray(prototypes, np.float64).T, axis=1)
    own = float(np.mean(pred == np.asarray(labels)))
    if program_acc != own:
        raise CheckFailed(f"evaluate gave accuracy {program_acc}, index rows give {own}")
