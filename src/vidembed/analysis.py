"""Metrics and figure-data emitters: precision@k, 2-D PCA projection via
power iteration, and the frame-cluster separation ratio.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import atomic_write, stream_rng
from .errors import DegenerateData, EmptyResult, InsufficientData


def precision_at_k(result, relevant_ids):
    """Fraction of retrieved items that are relevant."""
    if not result.items:
        raise EmptyResult("ranked result is empty")
    relevant = set(relevant_ids)
    hits = sum(1 for vid, _ in result.items if vid in relevant)
    return hits / len(result.items)


@dataclass
class Projection2D:
    ids: list
    labels: list
    coords: np.ndarray  # N x 2
    explained: tuple  # variance fractions, non-increasing

    def to_csv(self, path):
        with atomic_write(path, "w") as f:
            w = csv.writer(f)
            w.writerow(["id", "label", "x", "y"])
            for i, (vid, lab) in enumerate(zip(self.ids, self.labels)):
                w.writerow([vid, lab, f"{self.coords[i, 0]:.8f}", f"{self.coords[i, 1]:.8f}"])


def _power_iteration(cov, rng, tol=1e-9, max_iter=10_000):
    v = rng.standard_normal(cov.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(max_iter):
        w = cov @ v
        n = np.linalg.norm(w)
        if n < 1e-300:
            return v, 0.0
        w /= n
        if np.linalg.norm(w - v) < tol or np.linalg.norm(w + v) < tol:
            v = w
            break
        v = w
    lam = float(v @ cov @ v)
    return v, lam


def project_2d(embeddings, labels=None, ids=None):
    """Top-2 principal components by power iteration with deflation.

    Sign convention: the largest-magnitude loading of each component is
    positive.  Explained variance fractions are relative to total variance.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    if n < 3:
        raise InsufficientData("need at least 3 points")
    centered = x - x.mean(axis=0)
    total_var = float((centered * centered).sum() / (n - 1))
    if total_var < 1e-12:
        raise DegenerateData("total variance below 1e-12")
    cov = centered.T @ centered / (n - 1)
    rng = stream_rng(12345, "pca-start")
    comps, lams = [], []
    deflated = cov.copy()
    for _ in range(2):
        v, lam = _power_iteration(deflated, rng)
        if v[np.abs(v).argmax()] < 0:
            v = -v
        comps.append(v)
        lams.append(max(lam, 0.0))
        deflated = deflated - lam * np.outer(v, v)
    comps = np.stack(comps)
    coords = centered @ comps.T
    explained = (lams[0] / total_var, lams[1] / total_var)
    n_pts = x.shape[0]
    return Projection2D(
        ids=list(ids) if ids is not None else [str(i) for i in range(n_pts)],
        labels=list(labels) if labels is not None else [0] * n_pts,
        coords=coords,
        explained=explained,
    )


def cluster_separation(video_labels, video_frames):
    """(mean intra-video pairwise cosine distance) / (mean inter-class one).

    video_frames: list of T_i x D unit-norm frame matrices, aligned with
    video_labels.  A ratio < 1 means frames of one video sit closer together
    than frames drawn from different classes.
    """
    if len(video_labels) != len(video_frames):
        raise InsufficientData("labels and frame groups must align")
    if len(video_frames) < 2 or len(set(video_labels)) < 2:
        raise InsufficientData("need >= 2 videos from >= 2 classes")

    # mean pairwise cosine over unit vectors reduces to sums of row sums
    intra_cos_sum = 0.0
    intra_pairs = 0
    for frames in video_frames:
        t = frames.shape[0]
        if t < 2:
            continue
        s = frames.sum(axis=0)
        intra_cos_sum += (float(s @ s) - t) / 2.0
        intra_pairs += t * (t - 1) // 2
    if intra_pairs == 0:
        raise InsufficientData("no video has >= 2 frames (no intra pairs)")

    by_class = {}
    counts = {}
    for lab, frames in zip(video_labels, video_frames):
        by_class[lab] = by_class.get(lab, 0.0) + frames.sum(axis=0)
        counts[lab] = counts.get(lab, 0) + frames.shape[0]
    labs = sorted(counts)
    inter_cos_sum = 0.0
    inter_pairs = 0
    for i, a in enumerate(labs):
        for b in labs[i + 1 :]:
            inter_cos_sum += float(by_class[a] @ by_class[b])
            inter_pairs += counts[a] * counts[b]

    intra_dist = 1.0 - intra_cos_sum / intra_pairs
    inter_dist = 1.0 - inter_cos_sum / inter_pairs
    if inter_dist <= 1e-12:
        raise DegenerateData("inter-class distance vanishes (identical embeddings)")
    return intra_dist / inter_dist
