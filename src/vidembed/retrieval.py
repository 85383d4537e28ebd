"""Encode-once video embedding index and exact top-k dot-product retrieval."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import (
    atomic_write,
    decode_json,
    l2_normalize,
    read_embeddings,
    require_finite,
    write_embeddings,
)
from .errors import (
    DimMismatch,
    DuplicateId,
    EmptyDataset,
    HeadNotEmbedding,
    MalformedContainer,
    NonFiniteInput,
    ShapeMismatch,
)
from .heads import EMBEDDING_KINDS, embed_sequence


@dataclass
class RankedResult:
    items: list  # [(video_id, score)], scores non-increasing

    def ids(self):
        return [vid for vid, _ in self.items]

    def response(self, fingerprint):
        """The JSON body that `vidembed query` prints and POST /query returns."""
        return {
            "results": [{"video_id": vid, "score": score} for vid, score in self.items],
            "index_fingerprint": fingerprint,
        }


class RetrievalIndex:
    """Immutable N x D store of unit-norm video embeddings."""

    def __init__(self, ids, matrix, head_kind, fingerprint):
        self.ids = list(ids)
        self.matrix = m = np.ascontiguousarray(matrix, dtype=np.float32)
        if m.ndim != 2 or len(m) != len(self.ids):
            raise ShapeMismatch(f"{len(self.ids)} ids for a matrix of shape {m.shape}")
        require_finite(m, "index rows have NaN or infinite components")
        self.head_kind = head_kind
        self.fingerprint = fingerprint
        # equal ids have equal hashes, so only a hash collision needs the
        # exact (slower) comparison of the strings themselves
        hashes = np.fromiter(map(hash, self.ids), np.int64, len(self.ids))
        hashes.sort()
        if np.any(hashes[1:] == hashes[:-1]) and len(set(self.ids)) < len(self.ids):
            raise DuplicateId("video ids must be unique")

    def __len__(self):
        return len(self.ids)

    def save(self, prefix):
        write_embeddings(f"{prefix}.vemb", self.matrix)
        sidecar = {"ids": self.ids, "head_kind": self.head_kind, "fingerprint": self.fingerprint}
        with atomic_write(f"{prefix}.json", "w") as f:
            json.dump(sidecar, f, sort_keys=True)

    @classmethod
    def load(cls, prefix):
        """Read `prefix.vemb` and its `prefix.json` sidecar; a sidecar that is
        not an object with a string id per row and string `head_kind` and
        `fingerprint` raises MalformedContainer."""
        matrix = read_embeddings(f"{prefix}.vemb")
        with open(f"{prefix}.json", "rb") as f:
            sidecar = decode_json(f.read(), "index sidecar")
        if not isinstance(sidecar, dict):
            raise MalformedContainer("index sidecar is not a JSON object")
        ids = sidecar.get("ids")
        head_kind = sidecar.get("head_kind")
        fingerprint = sidecar.get("fingerprint")
        if not (isinstance(head_kind, str) and isinstance(fingerprint, str)):
            raise MalformedContainer("index sidecar needs string head_kind and fingerprint")
        if not isinstance(ids, list) or not set(map(type, ids)) <= {str}:
            raise MalformedContainer("index sidecar ids must be a list of strings")
        if matrix.ndim != 2 or len(ids) != len(matrix):
            raise MalformedContainer(f"{len(ids)} ids for {matrix.shape} embeddings")
        return cls(ids, matrix, head_kind, fingerprint)


def build_index(manifest, params, base_dir):
    """Fuse every video in the manifest into one index row, in manifest order;
    deterministic. Each chunk of videos is one embed_sequence call."""
    if params.spec.kind not in EMBEDDING_KINDS:
        raise HeadNotEmbedding(f"{params.spec.kind} head emits classes, not embeddings")
    if not manifest.records:
        raise EmptyDataset("manifest has no videos")
    rows = [embed_sequence(seqs, params) for seqs in manifest.normalized_chunks(base_dir)]
    ids = [rec.video_id for rec in manifest.records]
    return RetrievalIndex(ids, np.concatenate(rows), params.spec.kind, params.fingerprint())


def query(index, text_embedding, k=6):
    """Top-k rows by dot product; ties break by ascending video_id.

    Exact: one partition finds the k-th largest score, and only the rows
    scoring at least that much (every row tied at the cut included) are
    put in Python's order of their ids, then stably sorted by score.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        q = np.asarray(text_embedding, dtype=np.float64).reshape(-1)
    except OverflowError as exc:  # an int too large for a float64
        raise NonFiniteInput(str(exc)) from exc
    if q.shape[0] != index.matrix.shape[1]:
        raise DimMismatch(f"query dim {q.shape[0]} vs index dim {index.matrix.shape[1]}")
    if not np.isfinite(q).all():
        raise NonFiniteInput("query has NaN or infinite components")
    q = l2_normalize(q).astype(np.float32)
    scores = index.matrix @ q
    neg = -scores  # NaN scores sort last, in partition and argsort alike
    if k < len(neg):
        cut = np.partition(neg, k - 1)[k - 1]
        # "not >" keeps NaN rows too, for when fewer than k scores are numbers
        rows = np.flatnonzero(~(neg > cut))
    else:
        rows = np.arange(len(neg))
    ids = index.ids
    rows = np.array(sorted(rows.tolist(), key=ids.__getitem__), dtype=np.intp)
    top = rows[np.argsort(neg[rows], kind="stable")][:k]
    return RankedResult([(ids[i], s) for i, s in zip(top.tolist(), scores[top].tolist())])


def brute_force_topk(matrix, ids, text_embedding, k):
    """Exhaustive full-sort oracle with the same scoring and tie contract.

    Scores are computed with the identical float32 product as query(); only
    the selection (python sort over all rows) differs.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(text_embedding, dtype=np.float64).reshape(-1)
    m = np.ascontiguousarray(matrix, dtype=np.float32)
    if q.shape[0] != m.shape[1]:
        raise DimMismatch(f"query dim {q.shape[0]} vs matrix dim {m.shape[1]}")
    q = l2_normalize(q).astype(np.float32)
    scores = m @ q
    ranked = sorted(
        ((vid, float(s)) for vid, s in zip(ids, scores)),
        key=lambda p: (-p[1], p[0]),
    )
    return RankedResult(ranked[: min(k, len(ids))])
