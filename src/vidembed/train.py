"""Dot-product classification against frozen prototypes: training loop
(Adam, cross-entropy over temperature-scaled cosine logits) and evaluation.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .data import atomic_write, l2_normalize, length_groups, require_finite, stream_rng
from .errors import ConfigInvalid, DimMismatch, EmptyDataset, HeadNotTrainable, NonFiniteInput
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
        if not (0 < self.lr < math.inf and 0 < self.temperature < math.inf) or self.epochs < 1:
            raise ConfigInvalid("lr and temperature must be finite and positive, epochs >= 1")
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
        with atomic_write(path, "w") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "train_loss", "val_loss", "train_acc", "val_acc"])
            for r in self.records:
                stats = (r.train_loss, r.val_loss, r.train_acc, r.val_acc)
                w.writerow([r.epoch, *(f"{x:.6f}" for x in stats)])


def logits(rows, protos, temperature=10.0):
    """Temperature-scaled dot products of unit video rows with the prototypes:
    a (d,) vector gives (C,) logits, an (N, d) array (N, C)."""
    rows = np.asarray(rows)
    if rows.shape[-1] != protos.vectors.shape[1]:
        raise DimMismatch(
            f"embedding dim {rows.shape[-1]} vs prototype dim {protos.vectors.shape[1]}"
        )
    return temperature * (rows @ protos.vectors.T)


def split_dataset(sequences, split, seed):
    """Deterministic seeded shuffle, then fractional train/val cut."""
    perm = stream_rng(seed, "split").permutation(len(sequences))
    n_train = int(round(split * len(sequences)))
    train = [sequences[i] for i in perm[:n_train]]
    val = [sequences[i] for i in perm[n_train:]]
    return train, val


def minibatch_loss(batch, params, protos_t, temperature):
    """Summed cross-entropy of a mini-batch: one batched forward per group of
    equal-length videos, no padding.  Returns (scalar loss tensor,
    per-sample losses, number of correct predictions)."""
    total, losses, correct = None, [], 0
    for pos, frames in length_groups(batch):
        labels = np.array([batch[i].label for i in pos])
        emb = head_forward(Tensor(frames), params)  # (B, d_out), unit rows
        z = tn.scale(tn.matmul(emb, protos_t), temperature)
        loss = tn.softmax_cross_entropy(z, labels)
        part = tn.sum_all(loss)
        total = part if total is None else tn.add(total, part)
        losses.append(loss.data)
        correct += int((z.data.argmax(axis=1) == labels).sum())
    return total, np.concatenate(losses), correct


def train(manifest, protos, config, base_dir):
    """Train an LSTM or transformer head; returns (HeadParams, TrainHistory).

    Each mini-batch is one forward and one backward on one tape, then one
    Adam step on the batch mean of the per-sample gradients. A batch or
    validation loss, or a step that leaves a parameter, NaN or infinite
    raises NonFiniteInput.
    """
    config.validate()
    if config.head.kind not in TRAINABLE_KINDS:
        raise HeadNotTrainable(f"{config.head.kind} head has no parameters to train")
    if not manifest.records:
        raise EmptyDataset("manifest has no videos")

    sequences = list(manifest.normalized_sequences(base_dir))
    train_set, val_set = split_dataset(sequences, config.split, config.seed)
    if not train_set:
        raise EmptyDataset("train split is empty")

    params = init_params(config.head, config.seed, dtype=np.float32)
    # one Adam update per mini-batch, over all the head's parameters as one
    # flat vector; each tensor's data is a view of its slice
    tensors = params.tensors
    ends = np.cumsum([p.data.size for p in tensors.values()])
    flat = Tensor(np.concatenate([p.data.reshape(-1) for p in tensors.values()]))
    state = AdamState(flat.shape, dtype=np.float32, lr=config.lr)
    protos_t = Tensor(l2_normalize(protos.vectors).astype(np.float32).T)

    shuffle_rng = stream_rng(config.seed, "epoch-shuffle")
    history = TrainHistory()
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_set))
        losses, correct = [], 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_set[i] for i in order[start : start + config.batch_size]]
            for p in tensors.values():
                p.grad = None
            # weights that one step made huge but finite overflow here, and
            # the loss check turns that into an error
            with np.errstate(over="ignore", invalid="ignore"):
                with GradTape() as tape:
                    loss, batch_losses, batch_correct = minibatch_loss(
                        batch, params, protos_t, config.temperature
                    )
                _require_finite_loss(loss.data, "batch", epoch)
                backward(tape, loss)
            losses.append(batch_losses)
            correct += batch_correct
            grad = np.concatenate([p.grad.reshape(-1) for p in tensors.values()])
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                adam_step(flat, grad * (1.0 / len(batch)), state)
            for p, part in zip(tensors.values(), np.split(flat.data, ends[:-1])):
                p.data = part.reshape(p.shape)
            _require_finite_params(tensors, flat.data, epoch)
        val_loss, val_acc = _validate(
            val_set, params, protos_t, config.temperature, config.batch_size, epoch
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


def _require_finite_params(tensors, flat, epoch):
    """NonFiniteInput naming the first tensor an Adam step left non-finite."""
    try:
        require_finite(flat, "")
    except NonFiniteInput:
        name = next(n for n, p in tensors.items() if not np.isfinite(p.data).all())
        raise NonFiniteInput(f"epoch {epoch}: the Adam step left tensor {name} with NaN or "
                             "infinite values; the learning rate is too large") from None


def _require_finite_loss(loss, which, epoch):
    """NonFiniteInput when the weights have diverged: with finite weights the
    loss is bounded, since the logits are scaled cosines."""
    if not np.isfinite(loss).all():
        raise NonFiniteInput(f"epoch {epoch}: the {which} loss is NaN or infinite; "
                             "the learning rate is too large")


def _validate(val_set, params, protos_t, temperature, batch_size, epoch):
    if not val_set:
        return float("nan"), float("nan")
    losses, correct = [], 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
        for start in range(0, len(val_set), batch_size):
            _, batch_losses, batch_correct = minibatch_loss(
                val_set[start : start + batch_size], params, protos_t, temperature
            )
            losses.append(batch_losses)
            correct += batch_correct
        val_loss = float(np.mean(np.concatenate(losses), dtype=np.float64))
    _require_finite_loss(val_loss, "validation", epoch)
    return val_loss, correct / len(val_set)


def evaluate(manifest, params, protos, base_dir):
    """Top-1 accuracy and per-class confusion counts for any head.

    An embedding head encodes each chunk of videos with one embed_sequence
    call on its frame-count groups and scores it with one (N, d) @ (d, C)
    product; majority_vote classifies video by video."""
    if not manifest.records:
        raise EmptyDataset("manifest has no videos")
    if params.spec.kind == "majority_vote":
        preds = [classify_majority_vote(s, protos) for s in manifest.normalized_sequences(base_dir)]
    else:
        preds = np.concatenate([
            logits(embed_sequence(groups, params), protos).argmax(axis=1)
            for _, groups in manifest.normalized_chunks(base_dir)
        ])
    labels = np.array([rec.label for rec in manifest.records])
    preds = np.array(preds, dtype=np.int64)
    c = protos.vectors.shape[0]
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    return int((preds == labels).sum()) / len(labels), confusion
