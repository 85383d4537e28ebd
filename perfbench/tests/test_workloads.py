"""The workloads at tiny sizes: one round each, untraced and traced, and the
server process is stopped and waited for however a serve_http run ends."""

import json
import subprocess

import pytest

from perfbench import bench, checks, fusion, retrieve, run, serve


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "WORK_DIR", str(tmp_path / "work"))
    monkeypatch.setattr(bench, "RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setattr(fusion, "PER_CLASS", 6)
    monkeypatch.setattr(fusion, "FRAMES", 5)
    monkeypatch.setattr(fusion, "DIM", 8)
    monkeypatch.setattr(fusion, "MAXPOOL_ENCODES", 2)
    monkeypatch.setattr(retrieve, "ROWS", 3000)
    monkeypatch.setattr(retrieve, "DIM", 8)
    monkeypatch.setattr(serve, "CLASSES", 4)
    monkeypatch.setattr(serve, "PER_CLASS", 5)
    monkeypatch.setattr(serve, "EMBEDDING_QUERIES", 6)
    monkeypatch.setattr(serve, "CLASS_QUERIES", 2)


@pytest.fixture
def popen_log(monkeypatch):
    """Every process serve_http starts, to check that each has exited."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(serve.subprocess, "Popen", Recorded)
    return started


def _result(capsys, workload, trace=0, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


MANIFEST = json.load(open(f"{bench.ROOT}/BENCHMARK.json"))
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def _expected(key):
    return {m["name"]: m["unit"] for m in MANIFEST[key]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_round(capsys, workload):
    code, result = _result(capsys, workload)
    assert code == 0 and result["correct"]
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == _expected("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "serve_http":
        per_round = serve.EMBEDDING_QUERIES + serve.CLASS_QUERIES + 1
        assert result["attempted"] % per_round == 0
        assert result["failed"] * per_round == result["attempted"]  # the NaN request
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(capsys, workload):
    runs = [_result(capsys, workload, trace=1, seed=s) for s in (3, 3)]
    counts = []
    for code, result in runs:
        assert code == 0 and result["correct"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == _expected("per_layer")
        assert all(m["value"] > 0 for m in result["metrics"].values() if m["unit"] not in ("count", "MB"))
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] in ("count", "MB")})
    assert counts[0] and counts[0] == counts[1]


def test_fusion_reports_wrong_rows(capsys, monkeypatch):
    def skewed(matrix, tol=checks.NORM_TOL):
        real(matrix[:, :-1], tol)

    real = checks.check_unit_rows
    monkeypatch.setattr(checks, "check_unit_rows", skewed)
    code, result = _result(capsys, "fusion")
    assert code == 1 and result["correct"] is False


def test_serve_stops_server_when_a_check_fails(capsys, monkeypatch, popen_log):
    def wrong(*args, **kwargs):
        raise bench.CheckFailed("planted")

    monkeypatch.setattr(checks, "check_topk", wrong)
    code, result = _result(capsys, "serve_http")
    assert code == 1 and result["correct"] is False
    assert popen_log and all(p.returncode is not None for p in popen_log)


def test_serve_stops_server_when_start_up_fails(capsys, monkeypatch, popen_log):
    def refused(*args, **kwargs):
        raise ConnectionRefusedError

    monkeypatch.setattr(serve, "_get", refused)
    monkeypatch.setattr(serve, "READY_TIMEOUT_S", 1.0)
    code = run.main(["--workload", "serve_http", "--seed", "1", "--seconds", "0"])
    assert code == 1
    assert popen_log and all(p.returncode is not None for p in popen_log)


def test_missing_program_fails_plainly(tmp_path):
    import shutil

    root = tmp_path / "checkout"
    shutil.copytree(bench.ROOT + "/perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "fusion", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "program is missing" in proc.stderr
