import json

import numpy as np
import pytest

from vidembed.cli import _build_parser, cli_run
from vidembed.data import DatasetManifest, load_prototypes, write_embeddings
from vidembed.heads import HeadParams, HeadSpec, init_params
from vidembed.retrieval import RetrievalIndex, query


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


GEN = ["--classes", "3", "--videos-per-class", "4", "--frames", "6", "--dim", "8"]


def test_gen_deterministic(tmp_path):
    for name in ("a", "b"):
        rc = cli_run(["--seed", "7", "gen", "--out", str(tmp_path / name)] + GEN)
        assert rc == 0
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


def test_unknown_subcommand_exit_2(tmp_path, capsys):
    rc = cli_run(["frobnicate"])
    assert rc == 2
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_exit_2():
    assert cli_run(["gen", "--out", "x", "--bogus-flag", "1"]) == 2


def test_missing_required_flag_exit_2():
    assert cli_run(["train", "--head", "lstm"]) == 2


def test_runtime_failure_exit_1(tmp_path):
    rc = cli_run(["eval", "--data", str(tmp_path / "nope"), "--head", "max_pool"])
    assert rc == 1


def test_end_to_end_train_eval_query(tmp_path, capsys):
    data = tmp_path / "data"
    gen_flags = ["--classes", "3", "--videos-per-class", "8", "--frames", "6", "--dim", "8"]
    assert cli_run(["--seed", "5", "gen", "--out", str(data)] + gen_flags) == 0
    params_path = tmp_path / "lstm.vemh"
    hist_path = tmp_path / "hist.csv"
    rc = cli_run(
        [
            "--seed", "5", "train", "--data", str(data), "--head", "lstm",
            "--out", str(params_path), "--history", str(hist_path),
            "--epochs", "30",
        ]
    )
    assert rc == 0
    assert params_path.exists()
    assert len(hist_path.read_text().splitlines()) == 31

    rc = cli_run(
        ["eval", "--data", str(data), "--head", "lstm", "--params", str(params_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    acc = float(out.strip().splitlines()[-1].split()[-1])
    assert acc >= 0.95

    prefix = tmp_path / "idx"
    rc = cli_run(
        [
            "index", "--data", str(data), "--head", "lstm",
            "--params", str(params_path), "--out", str(prefix),
        ]
    )
    assert rc == 0

    rc = cli_run(
        [
            "query", "--index", str(prefix), "--class", "class_000",
            "--data", str(data), "--k", "4",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(payload["results"]) == 4

    # CLI output matches the library query exactly
    index = RetrievalIndex.load(str(prefix))
    protos = load_prototypes(data)
    lib = query(index, protos.vectors[0], 4)
    assert [(r["video_id"], r["score"]) for r in payload["results"]] == lib.items


def test_encode_alias_matches_index(tmp_path):
    data = tmp_path / "data"
    cli_run(["--seed", "2", "gen", "--out", str(data)] + GEN)
    init_params(HeadSpec(kind="lstm", d_in=8), seed=2).save(tmp_path / "lstm.vemh")
    for head in (["max_pool"], ["lstm", "--params", str(tmp_path / "lstm.vemh")]):
        for cmd in ("encode", "index"):
            rc = cli_run([cmd, "--data", str(data), "--head"] + head
                         + ["--out", str(tmp_path / cmd)])
            assert rc == 0
        # byte-identical index rows and sidecar
        for ext in (".vemb", ".json"):
            assert (tmp_path / f"encode{ext}").read_bytes() == (tmp_path / f"index{ext}").read_bytes()


@pytest.mark.parametrize(
    "cmd, spec",
    [
        ("eval", HeadSpec(kind="transformer", d_in=8, layers=1, heads=2)),
        ("eval", HeadSpec(kind="lstm", d_in=4)),
        ("index", HeadSpec(kind="transformer", d_in=8, layers=1, heads=2)),
        ("index", HeadSpec(kind="lstm", d_in=4)),
    ],
    ids=["eval_kind", "eval_dim", "index_kind", "index_dim"],
)
def test_params_must_match_head_and_data(tmp_path, capsys, cmd, spec):
    data = tmp_path / "data"
    cli_run(["--seed", "2", "gen", "--out", str(data)] + GEN)
    head = tmp_path / "head.vemh"
    init_params(spec, seed=2).save(head)
    argv = [cmd, "--data", str(data), "--head", "lstm", "--params", str(head)]
    if cmd == "index":
        argv += ["--out", str(tmp_path / "x")]
    assert cli_run(argv) == 1
    assert "matching" in capsys.readouterr().err
    assert not (tmp_path / "x.vemb").exists()


def test_malformed_manifest_exit_1(tmp_path, capsys):
    data = tmp_path / "data"
    cli_run(["--seed", "2", "gen", "--out", str(data)] + GEN)
    manifest = data / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    record = json.loads(lines[1])
    del record["label"]
    manifest.write_text("\n".join([lines[0], json.dumps(record)] + lines[2:]) + "\n")
    assert cli_run(["eval", "--data", str(data), "--head", "max_pool"]) == 1
    assert "label" in capsys.readouterr().err


def test_malformed_index_sidecar_exit_1(tmp_path, capsys):
    data = tmp_path / "data"
    cli_run(["--seed", "2", "gen", "--out", str(data)] + GEN)
    prefix = tmp_path / "ix"
    cli_run(["index", "--data", str(data), "--head", "max_pool", "--out", str(prefix)])
    sidecar = json.loads((tmp_path / "ix.json").read_text())
    del sidecar["fingerprint"]
    (tmp_path / "ix.json").write_text(json.dumps(sidecar))
    capsys.readouterr()
    argv = ["query", "--index", str(prefix), "--class", "class_000", "--data", str(data)]
    assert cli_run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fingerprint" in err
    assert "Traceback" not in err


def test_project_command(tmp_path, capsys):
    data = tmp_path / "data"
    cli_run(["--seed", "3", "gen", "--out", str(data)] + GEN)
    out_csv = tmp_path / "proj.csv"
    assert cli_run(["project", "--data", str(data), "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "id,label,x,y"
    assert len(lines) == 1 + 3 * 4 * 6  # one row per frame


def test_gradcheck_command(capsys):
    assert cli_run(["gradcheck", "--head", "lstm", "--frames", "3", "--dim", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_query_vector_file(tmp_path, capsys):
    data = tmp_path / "data"
    cli_run(["--seed", "4", "gen", "--out", str(data)] + GEN)
    cli_run(["index", "--data", str(data), "--head", "mid_frame", "--out", str(tmp_path / "ix")])
    vec = np.zeros(8, dtype=np.float32)
    vec[0] = 1.0
    write_embeddings(tmp_path / "q.vemb", vec)
    rc = cli_run(
        ["query", "--index", str(tmp_path / "ix"), "--vector", str(tmp_path / "q.vemb")]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(payload["results"]) == 6


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("classes = 5\nframes = 3\n")
    out = tmp_path / "ds"
    rc = cli_run(
        ["--config", str(cfg), "gen", "--out", str(out), "--frames", "4",
         "--videos-per-class", "2", "--dim", "8"]
    )
    assert rc == 0
    manifest = DatasetManifest.load(out / "manifest.jsonl")
    assert len(manifest.class_names) == 5  # from config file
    assert manifest.records[0].frames == 4  # flag wins over config


def test_config_cannot_choose_the_command(tmp_path, capsys):
    data = tmp_path / "data"
    cli_run(["--seed", "2", "gen", "--out", str(data)] + GEN)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = serve\nfunc = serve\nconfig = other.cfg\n")
    capsys.readouterr()
    rc = cli_run(["--config", str(cfg), "eval", "--data", str(data), "--head", "max_pool"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("accuracy")
    assert "Traceback" not in captured.err


def test_config_abbreviated_flag_wins(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frames = 3\n")
    out = tmp_path / "ds"
    rc = cli_run(["--config", str(cfg), "gen", "--out", str(out), "--fr", "5",
                  "--videos-per-class", "2", "--dim", "8"])
    assert rc == 0
    assert DatasetManifest.load(out / "manifest.jsonl").records[0].frames == 5


@pytest.mark.parametrize("flag", [[], ["--seed", "7"], ["--se", "7"], ["--seed=7"]],
                         ids=["config", "flag", "abbreviated", "equals"])
def test_config_seed_and_flag_precedence(tmp_path, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n")
    out = tmp_path / "ds"
    assert cli_run(["--config", str(cfg)] + flag + ["gen", "--out", str(out)] + GEN) == 0
    assert DatasetManifest.load(out / "manifest.jsonl").seed == (7 if flag else 3)


@pytest.mark.parametrize(
    "line, argv, flag",
    [
        ("k = true", ["query", "--index", "ix", "--vector", "q.vemb"], "--k"),
        ("task = spiral", ["gen", "--out", "ds"], "--task"),
    ],
    ids=["bad_int", "bad_choice"],
)
def test_config_value_parsed_like_flag(tmp_path, capsys, monkeypatch, line, argv, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(line + "\n")
    assert cli_run(["--config", "run.cfg"] + argv) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_config_cannot_override_exclusive_flag(tmp_path, capsys):
    data = tmp_path / "data"
    cli_run(["--seed", "4", "gen", "--out", str(data)] + GEN)
    cli_run(["index", "--data", str(data), "--head", "mid_frame", "--out", str(tmp_path / "ix")])
    write_embeddings(tmp_path / "q.vemb", np.ones(8, dtype=np.float32))
    argv = ["query", "--index", str(tmp_path / "ix"), "--vector", str(tmp_path / "q.vemb")]
    capsys.readouterr()
    assert cli_run(argv) == 0
    expected = capsys.readouterr().out
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"class = class_000\ndata = {data}\n")
    assert cli_run(["--config", str(cfg)] + argv) == 0
    assert capsys.readouterr().out == expected  # the --vector query, not the class


@pytest.mark.parametrize("cmd", sorted(_build_parser()[1]))
def test_every_command_has_a_function(cmd, capsys):
    assert cli_run([cmd, "--help"]) == 0
    assert "usage:" in capsys.readouterr().out
    assert callable(_build_parser()[1][cmd].get_default("func"))


def test_inputs_not_mutated(tmp_path):
    data = tmp_path / "data"
    cli_run(["--seed", "9", "gen", "--out", str(data)] + GEN)
    before = _tree_bytes(data)
    cli_run(["eval", "--data", str(data), "--head", "max_pool"])
    cli_run(["index", "--data", str(data), "--head", "max_pool", "--out", str(tmp_path / "x")])
    assert _tree_bytes(data) == before


def test_eval_has_no_temperature_flag(tmp_path, capsys):
    data = tmp_path / "data"
    cli_run(["--seed", "3", "gen", "--out", str(data)] + GEN)
    argv = ["eval", "--data", str(data), "--head", "max_pool"]
    assert cli_run(argv + ["--temperature", "10"]) == 2
    assert "--temperature" in capsys.readouterr().err
    assert cli_run(argv) == 0
    expected = capsys.readouterr().out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("temperature = 10\n")  # not an eval option, so ignored
    assert cli_run(["--config", str(cfg)] + argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "flag, value",
    [("--lr", "nan"), ("--lr", "inf"), ("--temperature", "nan"), ("--temperature", "inf")],
)
def test_train_non_finite_settings_exit_1(tmp_path, capsys, flag, value):
    data = tmp_path / "data"
    cli_run(["--seed", "3", "gen", "--out", str(data)] + GEN)
    out = tmp_path / "lstm.vemh"
    argv = ["train", "--data", str(data), "--head", "lstm", "--out", str(out), "--epochs", "1"]
    capsys.readouterr()
    assert cli_run(argv + [flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eval_non_finite_params_exit_1(tmp_path, capsys, bad):
    data = tmp_path / "data"
    cli_run(["--seed", "3", "gen", "--out", str(data)] + GEN)
    params = init_params(HeadSpec(kind="lstm", d_in=8), seed=2)
    params.tensors["U_f"].data[1, 2] = bad
    params.save(tmp_path / "bad.vemh")
    capsys.readouterr()
    rc = cli_run(["eval", "--data", str(data), "--head", "lstm", "--params",
                  str(tmp_path / "bad.vemh")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "U_f" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_train_huge_lr_exit_1_writes_nothing(tmp_path, capsys):
    data = tmp_path / "data"
    cli_run(["--seed", "3", "gen", "--out", str(data), "--task", "anchor", "--classes", "4",
             "--videos-per-class", "10", "--frames", "8", "--dim", "8"])
    capsys.readouterr()
    out, history = tmp_path / "head.vemh", tmp_path / "history.csv"
    rc = cli_run(["--seed", "3", "train", "--data", str(data), "--head", "lstm",
                  "--lr", "1e38", "--epochs", "3", "--out", str(out), "--history", str(history)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: epoch 1:") and "NaN or infinite" in err
    assert "Traceback" not in err and "Warning" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags, which", [
    (["--lr", "1e38", "--epochs", "3"], "batch"),
    (["--lr", "1e30", "--epochs", "1", "--batch-size", "64"], "validation"),
], ids=["next_batch", "one_batch_then_validation"])
def test_train_transformer_diverging_loss_exit_1_no_warnings(tmp_path, capsys, flags, which):
    """An Adam step leaves the weights finite but huge, so the next forward
    overflows: the next batch's loss is checked before its backward, and
    the validation loss after the epoch's last step. The overflow warnings
    stay inside training."""
    data = tmp_path / "data"
    cli_run(["--seed", "3", "gen", "--out", str(data), "--task", "anchor", "--classes", "4",
             "--videos-per-class", "10", "--frames", "8", "--dim", "8"])
    capsys.readouterr()
    out = tmp_path / "head.vemh"
    rc = cli_run(["--seed", "3", "train", "--data", str(data), "--head", "transformer",
                  "--out", str(out)] + flags)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: epoch 1: the {which} loss is NaN or infinite")
    assert "Traceback" not in err and "Warning" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("cmd", ["train", "eval"])
def test_manifest_loaded_once(tmp_path, monkeypatch, cmd):
    data = tmp_path / "data"
    cli_run(["--seed", "3", "gen", "--out", str(data)] + GEN)
    loads, real_load = [], DatasetManifest.load.__func__

    def counting_load(cls, path):
        loads.append(path)
        return real_load(cls, path)

    monkeypatch.setattr(DatasetManifest, "load", classmethod(counting_load))
    argv = {
        "train": ["train", "--head", "lstm", "--out", str(tmp_path / "p.vemh"), "--epochs", "1"],
        "eval": ["eval", "--head", "max_pool"],
    }[cmd]
    assert cli_run(argv + ["--data", str(data)]) == 0
    assert len(loads) == 1


def _prototypes_error(tmp_path, capsys, monkeypatch, cmd, vectors):
    """stderr of `cmd` on a 4-class, D=8 set whose prototypes.vemb holds
    `vectors`; the command must exit 1 without starting the server."""
    data = tmp_path / "data"
    cli_run(["--seed", "3", "gen", "--out", str(data), "--classes", "4", "--videos-per-class",
             "3", "--frames", "5", "--dim", "8"])
    prefix = str(tmp_path / "ix")
    cli_run(["index", "--data", str(data), "--head", "max_pool", "--out", prefix])
    write_embeddings(data / "prototypes.vemb", vectors)
    served = []
    # the server would answer class queries from these prototypes
    monkeypatch.setattr(
        "vidembed.server.serve",
        lambda service, *_: served.append(service.handle_query({"class": "class_003"})),
    )
    argv = {
        "eval": ["eval", "--data", str(data), "--head", "max_pool"],
        "query": ["query", "--index", prefix, "--class", "class_003", "--data", str(data)],
        "serve": ["serve", "--index", prefix, "--data", str(data)],
    }[cmd]
    capsys.readouterr()
    assert cli_run(argv) == 1
    assert not served
    return capsys.readouterr().err


@pytest.mark.parametrize("shape", [(8,), (3, 8), (4, 5)], ids=["rank_1", "three_rows", "dim_5"])
@pytest.mark.parametrize("cmd", ["eval", "query", "serve"])
def test_prototypes_shape_checked_exit_1(tmp_path, capsys, monkeypatch, cmd, shape):
    """prototypes.vemb must hold one row per class of the manifest's dim."""
    err = _prototypes_error(tmp_path, capsys, monkeypatch, cmd, np.ones(shape, np.float32))
    assert err == f"error: prototypes: file shape {shape} does not match manifest (4, 8)\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("cmd", ["eval", "query", "serve"])
def test_prototypes_non_finite_exit_1(tmp_path, capsys, monkeypatch, cmd, bad):
    """One NaN or infinite prototype component is NonFiniteInput, not chance accuracy."""
    vectors = np.ones((4, 8), np.float32)
    vectors[2, 0] = bad
    err = _prototypes_error(tmp_path, capsys, monkeypatch, cmd, vectors)
    assert err == "error: prototypes have NaN or infinite components\n"
