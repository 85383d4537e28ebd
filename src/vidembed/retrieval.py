"""Encode-once video embedding index and exact top-k dot-product retrieval."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .data import l2_normalize, read_embeddings, write_embeddings
from .errors import (
    DimMismatch,
    DuplicateId,
    EmptyDataset,
    HeadNotEmbedding,
    NonFiniteInput,
)
from .heads import EMBEDDING_KINDS, embed_sequence


@dataclass
class RankedResult:
    items: list  # [(video_id, score)], scores non-increasing
    query: np.ndarray

    def ids(self):
        return [vid for vid, _ in self.items]


class RetrievalIndex:
    """Immutable N x D store of unit-norm video embeddings."""

    def __init__(self, ids, matrix, head_kind, fingerprint):
        self.ids = list(ids)
        self.matrix = m = np.ascontiguousarray(matrix, dtype=np.float32)
        # min and max propagate NaN and reach any inf without a temporary
        if m.size and not (np.isfinite(m.min()) and np.isfinite(m.max())):
            raise NonFiniteInput("index rows have NaN or infinite components")
        self.head_kind = head_kind
        self.fingerprint = fingerprint
        # rank of each row's id in ascending id order, for the tie rule.
        # NumPy orders str ids as Python does, except that it ignores
        # trailing NULs; ids equal up to those are rejected as duplicates.
        names = np.array(self.ids)
        order = np.argsort(names)
        names = names[order]
        if np.any(names[1:] == names[:-1]):
            raise DuplicateId("video ids must be unique (trailing NULs ignored)")
        self._id_rank = np.empty(len(order), dtype=np.int64)
        self._id_rank[order] = np.arange(len(order))

    def __len__(self):
        return len(self.ids)

    def save(self, prefix):
        write_embeddings(f"{prefix}.vemb", self.matrix)
        sidecar = {
            "ids": self.ids,
            "head_kind": self.head_kind,
            "fingerprint": self.fingerprint,
        }
        tmp = f"{prefix}.json.tmp"
        with open(tmp, "w") as f:
            json.dump(sidecar, f, sort_keys=True)
        os.replace(tmp, f"{prefix}.json")

    @classmethod
    def load(cls, prefix):
        matrix = read_embeddings(f"{prefix}.vemb")
        with open(f"{prefix}.json") as f:
            sidecar = json.load(f)
        return cls(sidecar["ids"], matrix, sidecar["head_kind"], sidecar["fingerprint"])


def build_index(manifest, params, base_dir):
    """Fuse every video in the manifest into one index row; deterministic."""
    if params.spec.kind not in EMBEDDING_KINDS:
        raise HeadNotEmbedding(f"{params.spec.kind} head emits classes, not embeddings")
    if not manifest.records:
        raise EmptyDataset("manifest has no videos")
    rows = [
        embed_sequence(manifest.load_normalized(rec, base_dir), params).vector
        for rec in manifest.records
    ]
    ids = [rec.video_id for rec in manifest.records]
    return RetrievalIndex(ids, np.stack(rows), params.spec.kind, params.fingerprint())


def query(index, text_embedding, k=6):
    """Top-k rows by dot product; ties break by ascending video_id.

    Exact: one partition finds the k-th largest score, and only the rows
    scoring at least that much (every row tied at the cut included) are
    sorted by (-score, id rank).
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
    neg = -scores  # NaN scores sort last, in partition and lexsort alike
    if k < len(neg):
        cut = np.partition(neg, k - 1)[k - 1]
        # "not >" keeps NaN rows too, for when fewer than k scores are numbers
        rows = np.flatnonzero(~(neg > cut))
    else:
        rows = np.arange(len(neg))
    top = rows[np.lexsort((index._id_rank[rows], neg[rows]))][:k]
    return RankedResult([(index.ids[i], float(scores[i])) for i in top], q)


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
    return RankedResult(ranked[: min(k, len(ids))], q)
