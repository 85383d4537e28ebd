import numpy as np
import pytest

from vidembed.data import ClassPrototypes, DatasetManifest, FrameSequence, l2_normalize
from vidembed.errors import ConfigInvalid, DimMismatch, EmptyDataset, HeadNotTrainable
from vidembed.heads import HeadParams, HeadSpec, init_params
from vidembed.optim import grad_check
from vidembed.tensor import GradTape, Tensor, backward
from vidembed.retrieval import build_index
from vidembed.train import TrainConfig, evaluate, logits, minibatch_loss, train

_SMALL_HEADS = [
    HeadSpec(kind="lstm", d_in=4, hidden=3),
    HeadSpec(kind="transformer", d_in=4, layers=1, heads=2),
]


def _videos(lengths, d=4, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return [
        FrameSequence(f"v{i}", l2_normalize(rng.standard_normal((t, d))), i % classes)
        for i, t in enumerate(lengths)
    ]


def _protos_t(d=4, classes=3, seed=1):
    rng = np.random.default_rng(seed)
    return Tensor(l2_normalize(rng.standard_normal((classes, d))).T)


def test_logits_orthonormal_prototype():
    protos = ClassPrototypes([f"c{i}" for i in range(4)], np.eye(4))
    z = logits(np.array([1.0, 0.0, 0.0, 0.0]), protos, temperature=10.0)
    assert np.allclose(z, [10.0, 0.0, 0.0, 0.0])
    rows = np.eye(4)[[2, 0]]
    assert np.allclose(logits(rows, protos, temperature=10.0), 10.0 * rows)


def test_logits_cosine_60_degrees():
    protos = ClassPrototypes(["a", "b"], np.eye(2))
    v = np.array([0.5, np.sqrt(3) / 2])  # 60 degrees from p0
    z = logits(v, protos, temperature=1.0)
    assert z[0] == pytest.approx(0.5)


def test_logits_argmax_temperature_invariant():
    rng = np.random.default_rng(0)
    protos = ClassPrototypes(
        [f"c{i}" for i in range(6)], l2_normalize(rng.standard_normal((6, 8)))
    )
    for _ in range(25):
        v = l2_normalize(rng.standard_normal(8))
        preds = {
            tau: int(logits(v, protos, temperature=tau).argmax())
            for tau in (0.1, 1.0, 10.0, 100.0)
        }
        assert len(set(preds.values())) == 1


def test_logits_dim_mismatch():
    protos = ClassPrototypes(["a", "b"], np.eye(2))
    with pytest.raises(DimMismatch):
        logits(np.ones(3), protos)


@pytest.mark.parametrize("spec", _SMALL_HEADS, ids=["lstm", "transformer"])
def test_batched_gradient_equals_summed_per_sample(spec):
    params = init_params(spec, seed=4, dtype=np.float64)
    batch, protos_t = _videos([5, 5, 5]), _protos_t()

    def grads(videos):
        for p in params.tensors.values():
            p.grad = None
        with GradTape() as tape:
            loss, losses, _ = minibatch_loss(videos, params, protos_t, 10.0)
        backward(tape, loss)
        return {n: p.grad.copy() for n, p in params.tensors.items()}, losses

    batched, losses = grads(batch)
    singles = [grads([v]) for v in batch]
    assert np.allclose(losses, [l[0] for _, l in singles], rtol=0, atol=1e-12)
    for name, g in batched.items():
        summed = sum(s[name] for s, _ in singles)
        assert np.abs(g - summed).max() < 1e-10, name


@pytest.mark.parametrize("spec", _SMALL_HEADS, ids=["lstm", "transformer"])
def test_gradcheck_mixed_length_minibatch(spec):
    params = init_params(spec, seed=6, dtype=np.float64)
    batch, protos_t = _videos([3, 5, 3, 5, 5], seed=2), _protos_t()
    report = grad_check(
        lambda p: minibatch_loss(batch, params, protos_t, 10.0)[0], params.tensors
    )
    assert report.passed, str(report)


def test_minibatch_loss_groups_by_length():
    params = init_params(_SMALL_HEADS[0], seed=7, dtype=np.float64)
    batch, protos_t = _videos([2, 4, 2, 3], seed=3), _protos_t()
    loss, losses, correct = minibatch_loss(batch, params, protos_t, 10.0)
    singles = [minibatch_loss([v], params, protos_t, 10.0) for v in batch]
    # groups run in first-seen length order: lengths 2, 2, then 4, then 3
    expected = [singles[i][1][0] for i in (0, 2, 1, 3)]
    assert np.allclose(losses, expected, rtol=0, atol=1e-12)
    assert loss.item() == pytest.approx(sum(expected), abs=1e-12)
    assert correct == sum(s[2] for s in singles)


def test_train_rejects_baseline_heads(anchor_ds):
    manifest, protos, out = anchor_ds
    cfg = TrainConfig(head=HeadSpec(kind="max_pool", d_in=16), epochs=1)
    with pytest.raises(HeadNotTrainable):
        train(manifest, protos, cfg, out)


@pytest.mark.parametrize("field", ["lr", "temperature"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_train_config_needs_finite_positive_settings(field, value):
    cfg = TrainConfig(head=HeadSpec(kind="lstm", d_in=4), **{field: value})
    with pytest.raises(ConfigInvalid):
        cfg.validate()


def test_train_rejects_empty_dataset(anchor_ds):
    _, protos, out = anchor_ds
    empty = DatasetManifest(dim=16, class_names=protos.names)
    cfg = TrainConfig(head=HeadSpec(kind="lstm", d_in=16), epochs=1)
    with pytest.raises(EmptyDataset):
        train(empty, protos, cfg, out)


def test_train_history_length_and_learning(anchor_ds):
    manifest, protos, out = anchor_ds
    cfg = TrainConfig(head=HeadSpec(kind="lstm", d_in=16), epochs=20, seed=1)
    params, history = train(manifest, protos, cfg, out)
    assert len(history.records) == 20
    assert [r.epoch for r in history.records] == list(range(1, 21))
    assert history.records[-1].train_acc >= 0.95
    assert all(np.isfinite(r.train_loss) for r in history.records)


def test_train_early_loss_mostly_decreasing(anchor_ds):
    manifest, protos, out = anchor_ds
    cfg = TrainConfig(head=HeadSpec(kind="transformer", d_in=16), epochs=5, seed=2)
    _, history = train(manifest, protos, cfg, out)
    losses = [r.train_loss for r in history.records]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
    assert drops >= 3  # 4 of 5 transitions over a 5-epoch window, minus one grace


def test_train_deterministic(anchor_ds):
    manifest, protos, out = anchor_ds
    cfg = TrainConfig(head=HeadSpec(kind="lstm", d_in=16), epochs=3, seed=5)
    p1, h1 = train(manifest, protos, cfg, out)
    p2, h2 = train(manifest, protos, cfg, out)
    for name in p1.tensors:
        assert np.array_equal(p1.tensors[name].data, p2.tensors[name].data)
    for r1, r2 in zip(h1.records, h2.records):
        assert (r1.train_loss, r1.val_loss, r1.train_acc, r1.val_acc) == (
            r2.train_loss, r2.val_loss, r2.train_acc, r2.val_acc
        )


def test_history_csv(tmp_path, anchor_ds):
    manifest, protos, out = anchor_ds
    cfg = TrainConfig(head=HeadSpec(kind="lstm", d_in=16), epochs=2, seed=1)
    _, history = train(manifest, protos, cfg, out)
    csv_path = tmp_path / "hist.csv"
    history.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,train_acc,val_acc"
    assert len(lines) == 3


def test_evaluate_baselines_on_anchor(anchor_ds):
    manifest, protos, out = anchor_ds
    for kind in ("mid_frame", "max_pool", "majority_vote"):
        params = HeadParams(HeadSpec(kind=kind, d_in=16), {})
        acc, confusion = evaluate(manifest, params, protos, out)
        # anchor task is separable by construction, baselines should ace it
        assert acc >= 0.95
        assert confusion.sum() == len(manifest.records)
        assert confusion.shape == (5, 5)


@pytest.mark.parametrize("kind", ["max_pool", "mid_frame", "lstm", "transformer"])
def test_evaluate_is_argmax_of_index_scores(anchor_ds, kind):
    manifest, protos, out = anchor_ds
    params = init_params(HeadSpec(kind=kind, d_in=16), seed=2)
    acc, confusion = evaluate(manifest, params, protos, out)
    index = build_index(manifest, params, out)
    preds = (index.matrix @ protos.vectors.T).argmax(axis=1)
    labels = np.array([rec.label for rec in manifest.records])
    assert acc == np.mean(preds == labels)
    expected = np.zeros_like(confusion)
    np.add.at(expected, (labels, preds), 1)
    assert np.array_equal(confusion, expected)


def test_evaluate_empty_dataset(anchor_ds):
    _, protos, out = anchor_ds
    empty = DatasetManifest(dim=16, class_names=protos.names)
    with pytest.raises(EmptyDataset):
        evaluate(empty, HeadParams(HeadSpec(kind="max_pool", d_in=16), {}), protos, out)


def test_evaluate_random_labels_near_chance(tmp_path):
    from vidembed.data import SynthConfig, generate_synthetic

    cfg = SynthConfig(
        classes=5, videos_per_class=120, frames=2, dim=8,
        sigma=0.05, rho=0.0, task="anchor", seed=13,
    )
    manifest, protos = generate_synthetic(cfg, tmp_path / "big")
    rng = np.random.default_rng(17)
    for rec in manifest.records:
        rec.label = int(rng.integers(5))
    params = HeadParams(HeadSpec(kind="mid_frame", d_in=8), {})
    acc, _ = evaluate(manifest, params, protos, tmp_path / "big")
    # 600 samples, chance 0.2: allow ~4 sigma of binomial noise
    assert abs(acc - 0.2) < 0.07


def test_overfitting_with_tiny_train_set(tmp_path):
    from vidembed.data import SynthConfig, generate_synthetic

    # few videos/class and a harder task: val loss ends above train loss
    cfg = SynthConfig(
        classes=4, videos_per_class=8, frames=8, dim=16,
        sigma=0.3, rho=0.5, task="order", seed=19,
    )
    manifest, protos = generate_synthetic(cfg, tmp_path / "tiny")
    tc = TrainConfig(head=HeadSpec(kind="lstm", d_in=16), epochs=30, seed=3, split=0.625)
    _, history = train(manifest, protos, tc, tmp_path / "tiny")
    last = history.records[-1]
    assert last.val_loss > last.train_loss
