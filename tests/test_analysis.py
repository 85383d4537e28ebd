import numpy as np
import pytest

from vidembed.analysis import cluster_separation, precision_at_k, project_2d
from vidembed.data import l2_normalize
from vidembed.errors import DegenerateData, EmptyResult, InsufficientData
from vidembed.retrieval import RankedResult


def _result(ids):
    return RankedResult([(i, 1.0 - n * 0.01) for n, i in enumerate(ids)])


def test_precision_all_relevant():
    assert precision_at_k(_result(list("abcdef")), set("abcdef")) == 1.0


def test_precision_none_relevant():
    assert precision_at_k(_result(list("abcdef")), {"z"}) == 0.0


def test_precision_half_relevant():
    assert precision_at_k(_result(list("abcdef")), {"a", "b", "c"}) == 0.5


def test_precision_empty_result():
    with pytest.raises(EmptyResult):
        precision_at_k(RankedResult([]), {"a"})


def test_precision_monotone_in_relevant_set():
    ids = list("abcdef")
    rng = np.random.default_rng(0)
    relevant = set("abcd")
    base = precision_at_k(_result(ids), relevant)
    for _ in range(10):
        smaller = set(rng.choice(sorted(relevant), size=2, replace=False))
        assert precision_at_k(_result(ids), smaller) <= base
    # order of the relevant set never matters
    assert precision_at_k(_result(ids), list("dcba")) == base


# --- 2-D projection --------------------------------------------------------


def test_project_preserves_2d_geometry():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((40, 2)) * [3.0, 1.0]
    proj = project_2d(pts)
    d_orig = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    d_proj = np.linalg.norm(proj.coords[:, None] - proj.coords[None, :], axis=-1)
    assert np.allclose(d_orig, d_proj, atol=1e-8)


def test_project_rank1_second_component_vanishes():
    rng = np.random.default_rng(2)
    direction = rng.standard_normal(8)
    pts = np.outer(rng.standard_normal(30), direction)
    proj = project_2d(pts)
    assert proj.explained[1] < 1e-9
    assert proj.explained[0] == pytest.approx(1.0, abs=1e-9)


def test_project_matches_dense_eigensolver():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((100, 16)) @ np.diag(np.linspace(3, 0.1, 16))
    proj = project_2d(pts)
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / (pts.shape[0] - 1)
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    total = eigvals.sum()
    assert proj.explained[0] == pytest.approx(eigvals[0] / total, abs=1e-6)
    assert proj.explained[1] == pytest.approx(eigvals[1] / total, abs=1e-6)


def test_project_explained_properties():
    rng = np.random.default_rng(4)
    for _ in range(5):
        pts = rng.standard_normal((30, 6))
        proj = project_2d(pts)
        assert proj.explained[0] >= proj.explained[1] >= 0.0
        assert proj.explained[0] + proj.explained[1] <= 1.0 + 1e-9


def test_project_degenerate_data():
    with pytest.raises(DegenerateData):
        project_2d(np.ones((10, 4)))


def test_project_too_few_points():
    with pytest.raises(InsufficientData):
        project_2d(np.eye(2))


def test_project_csv(tmp_path):
    rng = np.random.default_rng(5)
    proj = project_2d(rng.standard_normal((5, 3)), labels=[0, 0, 1, 1, 1])
    path = tmp_path / "proj.csv"
    proj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,label,x,y"
    assert len(lines) == 6


# --- cluster separation ----------------------------------------------------


def test_cluster_separation_single_frame_videos():
    with pytest.raises(InsufficientData):
        cluster_separation([0, 1], [np.eye(2)[:1], np.eye(2)[1:]])


def test_cluster_separation_identical_frames_is_zero():
    a = np.tile(np.array([[1.0, 0.0]]), (4, 1))
    b = np.tile(np.array([[0.0, 1.0]]), (4, 1))
    assert cluster_separation([0, 1], [a, b]) == 0.0


def test_cluster_separation_requires_two_classes():
    a = np.eye(3)
    with pytest.raises(InsufficientData):
        cluster_separation([0, 0], [a, a])


def test_cluster_separation_identical_everything_degenerate():
    a = np.tile(np.array([[1.0, 0.0]]), (3, 1))
    with pytest.raises(DegenerateData):
        cluster_separation([0, 1], [a, a.copy()])


def test_cluster_separation_matches_naive_oracle():
    rng = np.random.default_rng(6)
    labels, groups = [], []
    for c in range(3):
        center = l2_normalize(rng.standard_normal(8))
        for _ in range(3):
            frames = l2_normalize(center + 0.2 * rng.standard_normal((4, 8)))
            labels.append(c)
            groups.append(frames)
    ratio = cluster_separation(labels, groups)

    intra = []
    for frames in groups:
        t = frames.shape[0]
        for i in range(t):
            for j in range(i + 1, t):
                intra.append(1.0 - float(frames[i] @ frames[j]))
    inter = []
    for gi in range(len(groups)):
        for gj in range(len(groups)):
            if gj <= gi or labels[gi] == labels[gj]:
                continue
            for fa in groups[gi]:
                for fb in groups[gj]:
                    inter.append(1.0 - float(fa @ fb))
    assert ratio == pytest.approx(np.mean(intra) / np.mean(inter), rel=1e-9)
    assert ratio < 1.0


def test_cluster_separation_on_anchor_data(anchor_ds):
    manifest, _, out = anchor_ds
    labels, groups = [], []
    for rec in manifest.records:
        seq = manifest.load_sequence(rec, out)
        labels.append(rec.label)
        groups.append(l2_normalize(seq.frames))
    assert cluster_separation(labels, groups) < 1.0
