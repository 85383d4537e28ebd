"""Dot-product classification against frozen prototypes: training loop
(Adam, cross-entropy over temperature-scaled cosine logits) and evaluation.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .data import l2_normalize, stream_rng
from .errors import ConfigInvalid, DimMismatch, EmptyDataset, HeadNotTrainable
from .heads import (
    TRAINABLE_KINDS,
    classify_majority_vote,
    embed_sequence,
    head_forward,
    init_params,
)
from .optim import AdamState, adam_step
from .tensor import GradTape, Tensor, backward


@dataclass
class TrainConfig:
    head: "HeadSpec"
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    temperature: float = 10.0
    split: float = 0.8

    def validate(self):
        if self.lr <= 0 or self.epochs < 1 or self.temperature <= 0:
            raise ConfigInvalid("lr, epochs, temperature must be positive")
        if not 0.0 < self.split < 1.0:
            raise ConfigInvalid("split must lie in (0, 1)")
        if self.batch_size < 1:
            raise ConfigInvalid("batch_size must be >= 1")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    train_acc: float
    val_acc: float
    seconds: float


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "train_loss", "val_loss", "train_acc", "val_acc"])
            for r in self.records:
                w.writerow(
                    [
                        r.epoch,
                        f"{r.train_loss:.6f}",
                        f"{r.val_loss:.6f}",
                        f"{r.train_acc:.6f}",
                        f"{r.val_acc:.6f}",
                    ]
                )


def logits(v, protos, temperature=10.0):
    """Temperature-scaled dot products of a unit video vector with prototypes."""
    vec = np.asarray(v.vector if hasattr(v, "vector") else v)
    if vec.shape[-1] != protos.vectors.shape[1]:
        raise DimMismatch(
            f"embedding dim {vec.shape[-1]} vs prototype dim {protos.vectors.shape[1]}"
        )
    return temperature * (protos.vectors @ vec)


def split_dataset(sequences, split, seed):
    """Deterministic seeded shuffle, then fractional train/val cut."""
    perm = stream_rng(seed, "split").permutation(len(sequences))
    n_train = int(round(split * len(sequences)))
    train = [sequences[i] for i in perm[:n_train]]
    val = [sequences[i] for i in perm[n_train:]]
    return train, val


def _length_groups(seqs):
    """(frames (B, T, D), labels (B,)) for each frame count T, in first-seen order."""
    groups = {}
    for seq in seqs:
        groups.setdefault(seq.frames.shape[0], []).append(seq)
    return [
        (Tensor(np.stack([s.frames for s in g])), np.array([s.label for s in g]))
        for g in groups.values()
    ]


def minibatch_loss(batch, params, protos_t, temperature):
    """Summed cross-entropy of a mini-batch: one batched forward per group of
    equal-length videos, no padding.  Returns (scalar loss tensor,
    per-sample losses, number of correct predictions)."""
    total, losses, correct = None, [], 0
    for x, labels in _length_groups(batch):
        emb = head_forward(x, params)  # (B, d_out), unit rows
        z = tn.scale(tn.matmul(emb, protos_t), temperature)
        loss = tn.softmax_cross_entropy(z, labels)
        part = tn.sum_all(loss)
        total = part if total is None else tn.add(total, part)
        losses.append(loss.data)
        correct += int((z.data.argmax(axis=1) == labels).sum())
    return total, np.concatenate(losses), correct


def train(manifest, protos, config, base_dir):
    """Train an LSTM or transformer head; returns (HeadParams, TrainHistory).

    Each mini-batch is one forward and one backward on one tape; the Adam
    step takes the batch mean of the per-sample gradients.
    """
    config.validate()
    if config.head.kind not in TRAINABLE_KINDS:
        raise HeadNotTrainable(f"{config.head.kind} head has no parameters to train")
    if not manifest.records:
        raise EmptyDataset("manifest has no videos")

    sequences = [manifest.load_normalized(r, base_dir) for r in manifest.records]
    train_set, val_set = split_dataset(sequences, config.split, config.seed)
    if not train_set:
        raise EmptyDataset("train split is empty")

    params = init_params(config.head, config.seed, dtype=np.float32)
    states = {
        name: AdamState(p.shape, dtype=np.float32, lr=config.lr)
        for name, p in params.tensors.items()
    }
    protos_t = Tensor(l2_normalize(protos.vectors).astype(np.float32).T)

    shuffle_rng = stream_rng(config.seed, "epoch-shuffle")
    history = TrainHistory()
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_set))
        losses, correct = [], 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_set[i] for i in order[start : start + config.batch_size]]
            for p in params.tensors.values():
                p.grad = None
            with GradTape() as tape:
                loss, batch_losses, batch_correct = minibatch_loss(
                    batch, params, protos_t, config.temperature
                )
            backward(tape, loss)
            losses.append(batch_losses)
            correct += batch_correct
            inv = 1.0 / len(batch)
            for name, p in params.tensors.items():
                adam_step(p, p.grad * inv, states[name])
        val_loss, val_acc = _validate(
            val_set, params, protos_t, config.temperature, config.batch_size
        )
        history.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(np.concatenate(losses), dtype=np.float64)),
                val_loss=val_loss,
                train_acc=correct / len(train_set),
                val_acc=val_acc,
                seconds=time.perf_counter() - t0,
            )
        )
    return params, history


def _validate(val_set, params, protos_t, temperature, batch_size):
    if not val_set:
        return float("nan"), float("nan")
    losses, correct = [], 0
    for start in range(0, len(val_set), batch_size):
        _, batch_losses, batch_correct = minibatch_loss(
            val_set[start : start + batch_size], params, protos_t, temperature
        )
        losses.append(batch_losses)
        correct += batch_correct
    return float(np.mean(np.concatenate(losses), dtype=np.float64)), correct / len(val_set)


def evaluate(manifest, params, protos, base_dir, temperature=10.0):
    """Top-1 accuracy and per-class confusion counts for any head."""
    if not manifest.records:
        raise EmptyDataset("manifest has no videos")
    c = protos.vectors.shape[0]
    confusion = np.zeros((c, c), dtype=np.int64)

    correct = 0
    for rec in manifest.records:
        seq = manifest.load_normalized(rec, base_dir)
        if params.spec.kind == "majority_vote":
            pred = classify_majority_vote(seq, protos)
        else:
            pred = int(logits(embed_sequence(seq, params), protos, temperature).argmax())
        confusion[rec.label, pred] += 1
        correct += pred == rec.label
    return correct / len(manifest.records), confusion
