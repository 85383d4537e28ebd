"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from vidembed.analysis import cluster_separation, precision_at_k, project_2d
from vidembed.cli import cli_run
from vidembed.data import (
    SynthConfig,
    generate_synthetic,
    l2_normalize,
    length_groups,
    read_embeddings,
    stream_rng,
    vemb_bytes,
)
from vidembed.errors import BadMagic, ChecksumMismatch, TruncatedFile
from vidembed.heads import HeadParams, HeadSpec, embed_sequence, init_params
from vidembed.optim import grad_check
from vidembed.retrieval import (
    RetrievalIndex,
    brute_force_topk,
    build_index,
    query,
)
from vidembed.tensor import Tensor, softmax_cross_entropy
from vidembed.train import TrainConfig, logits, train


def _criterion(num, desc, budget_s, fn):
    start = time.monotonic()
    try:
        fn()
    except Exception:
        print(f"\ncriterion {num}: FAIL  ({desc})")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"\ncriterion {num}: PASS  ({desc}) [{elapsed:.1f}s]")


def test_criterion_1_gradient_integrity():
    def run():
        from vidembed import tensor as tn
        from vidembed.heads import head_forward

        rng = stream_rng(0, "acceptance-gradcheck")
        x = l2_normalize(rng.standard_normal((4, 6)))
        for spec in (
            HeadSpec(kind="lstm", d_in=6),
            HeadSpec(kind="transformer", d_in=6, layers=1, heads=2),
        ):
            params = init_params(spec, seed=0, dtype=np.float64)

            def loss_fn(p):
                emb = head_forward(Tensor(x), params)
                return tn.softmax_cross_entropy(tn.scale(emb, 10.0), 0)

            report = grad_check(loss_fn, params.tensors, h=1e-5, tol=1e-4)
            assert report.passed, str(report)

    _criterion(1, "autodiff matches central differences on both heads", 60, run)


def test_criterion_2_qualitative_ordering(tmp_path):
    def run():
        cfg = SynthConfig(
            classes=4, videos_per_class=70, frames=20, dim=32,
            sigma=0.05, rho=0.5, task="order", seed=42,
        )
        manifest, protos = generate_synthetic(cfg, tmp_path / "order")
        base = tmp_path / "order"
        split = 50 / 70  # 50 train / 20 val videos per class in expectation

        from vidembed.data import DatasetManifest
        from vidembed.train import evaluate, split_dataset

        _, val_records = split_dataset(manifest.records, split, seed=0)
        val_manifest = DatasetManifest(
            dim=32, class_names=manifest.class_names, records=val_records,
        )
        for kind in ("mid_frame", "max_pool"):
            params = HeadParams(HeadSpec(kind=kind, d_in=32), {})
            acc, _ = evaluate(val_manifest, params, protos, base)
            assert acc <= 0.60, f"{kind} val accuracy {acc:.3f} > 0.60"

        for kind in ("lstm", "transformer"):
            tc = TrainConfig(
                head=HeadSpec(kind=kind, d_in=32), epochs=50, seed=0, split=split,
            )
            _, history = train(manifest, protos, tc, base)
            best = max(r.val_acc for r in history.records)
            assert best >= 0.95, f"{kind} best val accuracy {best:.3f} < 0.95"

    _criterion(2, "order task separates trained heads from frame baselines", 300, run)


def test_criterion_3_anchor_learnability(anchor_ds):
    def run():
        manifest, protos, out = anchor_ds
        for kind in ("lstm", "transformer"):
            tc = TrainConfig(head=HeadSpec(kind=kind, d_in=16), epochs=50, seed=0)
            _, history = train(manifest, protos, tc, out)
            assert len(history.records) == 50
            assert history.records[-1].train_acc >= 0.95

    _criterion(3, "anchor task trains to >=0.95 with exactly 50 history rows", 180, run)


def test_criterion_4_retrieval_exactness():
    def run():
        rng = np.random.default_rng(99)
        checked = 0
        for n in (1, 2, 100, 1000):
            ids = [f"vid_{i:05d}" for i in rng.permutation(n)]
            matrix = l2_normalize(rng.standard_normal((n, 16))).astype(np.float32)
            index = RetrievalIndex(ids, matrix, "max_pool", "acc")
            for k in (1, 6, n, n + 5):
                for _ in range(13):
                    q = rng.standard_normal(16)
                    fast = query(index, q, k)
                    slow = brute_force_topk(matrix, ids, q, k)
                    assert fast.items == slow.items
                    checked += 1
        assert checked >= 200

    _criterion(4, "query matches brute-force oracle on 200+ instances", 30, run)


def test_criterion_5_retrieval_quality(anchor_ds):
    def run():
        manifest, protos, out = anchor_ds  # sigma=0.05, 10 videos/class
        relevant = {
            c: {r.video_id for r in manifest.records if r.label == c}
            for c in range(len(protos.names))
        }
        heads = [HeadParams(HeadSpec(kind="max_pool", d_in=16), {})]
        tc = TrainConfig(head=HeadSpec(kind="lstm", d_in=16), epochs=20, seed=0)
        trained, _ = train(manifest, protos, tc, out)
        heads.append(trained)
        for params in heads:
            index = build_index(manifest, params, out)
            for c in range(len(protos.names)):
                result = query(index, protos.vectors[c], 6)
                p = precision_at_k(result, relevant[c])
                assert p == 1.0, f"{params.spec.kind} class {c}: precision {p}"

    _criterion(5, "precision@6 is 1.0 for max-pool and trained-LSTM indices", 60, run)


def test_criterion_6_cluster_claim(anchor_ds):
    def run():
        manifest, _, out = anchor_ds
        labels, groups, frames = [], [], []
        for rec in manifest.records:
            seq = manifest.load_sequence(rec, out)
            arr = l2_normalize(seq.frames)
            labels.append(rec.label)
            groups.append(arr)
            frames.append(arr)
        assert cluster_separation(labels, groups) < 1.0

        pts = np.concatenate(frames).astype(np.float64)
        proj = project_2d(pts)
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / (pts.shape[0] - 1)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        total = eigvals.sum()
        assert abs(proj.explained[0] - eigvals[0] / total) < 1e-6
        assert abs(proj.explained[1] - eigvals[1] / total) < 1e-6

    _criterion(6, "frames cluster per video; PCA matches dense eigensolver", 30, run)


def test_criterion_7_pipeline_determinism(tmp_path, capsys):
    def run():
        outputs = []
        for name in ("a", "b"):
            root = tmp_path / name
            data = root / "data"
            assert cli_run(
                ["--seed", "3", "gen", "--out", str(data), "--classes", "3",
                 "--videos-per-class", "6", "--frames", "8", "--dim", "16"]
            ) == 0
            assert cli_run(
                ["--seed", "3", "train", "--data", str(data), "--head", "lstm",
                 "--out", str(root / "lstm.vemh"),
                 "--history", str(root / "hist.csv"), "--epochs", "5"]
            ) == 0
            assert cli_run(
                ["index", "--data", str(data), "--head", "lstm",
                 "--params", str(root / "lstm.vemh"), "--out", str(root / "idx")]
            ) == 0
            assert cli_run(
                ["query", "--index", str(root / "idx"), "--class", "class_000",
                 "--data", str(data)]
            ) == 0
            stdout = capsys.readouterr().out
            tree = {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()
            }
            outputs.append((tree, stdout.strip().splitlines()[-1]))
        assert outputs[0] == outputs[1]

    _criterion(7, "gen/train/index/query rerun is byte-identical", 600, run)


def test_criterion_8_format_robustness(tmp_path):
    def run():
        rng = np.random.default_rng(5)
        arr = rng.standard_normal((7, 4)).astype(np.float32)
        blob = vemb_bytes(arr)

        from vidembed.data import read_embeddings_from, write_embeddings

        back, used = read_embeddings_from(blob)
        assert used == len(blob)
        assert back.tobytes() == arr.tobytes() and back.dtype == arr.dtype

        path = tmp_path / "r.vemb"
        write_embeddings(path, arr)
        assert np.array_equal(read_embeddings(path), arr)

        with pytest.raises(BadMagic):
            read_embeddings_from(b"XEMB" + blob[4:])
        corrupted = bytearray(blob)
        corrupted[-6] ^= 0x01  # flip a payload bit
        with pytest.raises(ChecksumMismatch):
            read_embeddings_from(bytes(corrupted))
        with pytest.raises(TruncatedFile):
            read_embeddings_from(blob[:-3])

    _criterion(8, "VEMB round trip exact; corruption detected", 5, run)


def test_criterion_9_numeric_hygiene(anchor_ds):
    def run():
        z = Tensor(np.zeros(25))
        loss = softmax_cross_entropy(z, 0)
        assert abs(float(loss.data[0]) - np.log(25)) < 1e-6

        manifest, protos, out = anchor_ds
        for kind in ("mid_frame", "max_pool", "lstm", "transformer"):
            if kind in ("lstm", "transformer"):
                params = init_params(HeadSpec(kind=kind, d_in=16), seed=1)
            else:
                params = HeadParams(HeadSpec(kind=kind, d_in=16), {})
            seqs = [manifest.load_sequence(rec, out) for rec in manifest.records[:10]]
            for seq in seqs:  # unit float32 frame rows, as the encoders take them
                seq.frames = l2_normalize(seq.frames).astype(np.float32)
            rows = embed_sequence(length_groups(seqs), params)
            assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-5

        rng = np.random.default_rng(9)
        from vidembed.data import ClassPrototypes

        cp = ClassPrototypes(
            [f"c{i}" for i in range(6)], l2_normalize(rng.standard_normal((6, 8)))
        )
        for _ in range(25):
            v = l2_normalize(rng.standard_normal(8))
            preds = {
                int(logits(v, cp, temperature=tau).argmax())
                for tau in (0.1, 1.0, 10.0, 100.0)
            }
            assert len(preds) == 1

    _criterion(9, "stable CE, unit-norm embeddings, temperature-invariant argmax", 10, run)
