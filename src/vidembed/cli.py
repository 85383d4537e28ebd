"""Command-line entry point: gen / train / eval / encode / index / query /
project / gradcheck / serve.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  A --config file of
key=value lines supplies defaults; explicit flags always win.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import tensor as tn
from .data import (
    DatasetManifest,
    SynthConfig,
    generate_synthetic,
    l2_normalize,
    load_prototypes,
    read_embeddings,
    stream_rng,
)
from .errors import ConfigInvalid, VidembedError
from .heads import (
    ALL_KINDS,
    EMBEDDING_KINDS,
    TRAINABLE_KINDS,
    HeadParams,
    HeadSpec,
    head_forward,
    init_params,
)
from .optim import grad_check
from .retrieval import RetrievalIndex, build_index, query as run_query
from .tensor import Tensor
from .train import TrainConfig, evaluate, train


def _build_parser():
    parser = argparse.ArgumentParser(prog="vidembed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None, help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--videos-per-class", type=int, default=10)
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--task", choices=["anchor", "order"], default="anchor")

    p = sub.add_parser("train", help="train a temporal fusion head")
    p.add_argument("--data", required=True)
    p.add_argument("--head", choices=list(TRAINABLE_KINDS), required=True)
    p.add_argument("--out", required=True, help="parameter container path")
    p.add_argument("--history", default=None, help="per-epoch CSV path")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--temperature", type=float, default=10.0)
    p.add_argument("--split", type=float, default=0.8)

    p = sub.add_parser("eval", help="evaluate a head on a labeled dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--head", choices=list(ALL_KINDS), required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--temperature", type=float, default=10.0)

    p = sub.add_parser("index", aliases=["encode"], help="build a retrieval index (encode once)")
    p.add_argument("--data", required=True)
    p.add_argument("--head", choices=list(EMBEDDING_KINDS), required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--out", required=True, help="index path prefix")

    p = sub.add_parser("query", help="top-k retrieval against an index")
    p.add_argument("--index", required=True, help="index path prefix")
    p.add_argument("--k", type=int, default=6)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--class", dest="class_name", help="class name resolved via prototypes")
    g.add_argument("--vector", help="rank-1 VEMB file with the query embedding")
    p.add_argument("--data", default=None, help="dataset dir (for --class prototypes)")

    p = sub.add_parser("project", help="2-D PCA of frame embeddings")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--head", choices=list(TRAINABLE_KINDS), required=True)
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--dim", type=int, default=6)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--heads", type=int, default=2)

    p = sub.add_parser("serve", help="HTTP query service over an index")
    p.add_argument("--index", required=True)
    p.add_argument("--data", default=None, help="dataset dir for class-name queries")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    return parser


def _load_config_file(path):
    values = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigInvalid(f"bad config line: {line!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _apply_config(args, argv):
    if args.config is None:
        return
    given = set()
    for tok in argv:
        if tok.startswith("--"):
            given.add(tok[2:].split("=", 1)[0].replace("-", "_"))
    for key, raw in _load_config_file(args.config).items():
        if key in given or not hasattr(args, key):
            continue
        current = getattr(args, key)
        if isinstance(current, bool):
            value = raw.lower() in ("1", "true", "yes")
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float):
            value = float(raw)
        else:
            value = raw
        setattr(args, key, value)


def _load_head(kind, params_path, dim):
    if kind not in TRAINABLE_KINDS:
        return HeadParams(HeadSpec(kind=kind, d_in=dim), {})
    if params_path is None:
        raise ConfigInvalid(f"{kind} head needs --params")
    params = HeadParams.load(params_path)
    spec = params.spec
    if spec.kind != kind or spec.d_in != dim:
        raise ConfigInvalid(
            f"{params_path} holds a {spec.kind} head over {spec.d_in}-d frames; "
            f"--head {kind} on {dim}-d data needs a matching one"
        )
    return params


def cli_run(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args, argv)
        return _dispatch(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except VidembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args):
    cmd = args.command
    if cmd == "gen":
        cfg = SynthConfig(
            classes=args.classes,
            videos_per_class=args.videos_per_class,
            frames=args.frames,
            dim=args.dim,
            sigma=args.sigma,
            rho=args.rho,
            task=args.task,
            seed=args.seed,
        )
        manifest, _ = generate_synthetic(cfg, args.out)
        print(f"wrote {len(manifest.records)} videos to {args.out}")
        return 0

    if cmd == "train":
        manifest = DatasetManifest.load(f"{args.data}/manifest.jsonl")
        protos = load_prototypes(args.data)
        config = TrainConfig(
            head=HeadSpec(kind=args.head, d_in=manifest.dim),
            lr=args.lr,
            epochs=args.epochs,
            batch_size=args.batch_size,
            seed=args.seed,
            temperature=args.temperature,
            split=args.split,
        )
        params, history = train(manifest, protos, config, args.data)
        params.save(args.out)
        if args.history:
            history.to_csv(args.history)
        last = history.records[-1]
        print(
            f"epoch {last.epoch}: train_acc={last.train_acc:.4f} "
            f"val_acc={last.val_acc:.4f}"
        )
        return 0

    if cmd == "eval":
        manifest = DatasetManifest.load(f"{args.data}/manifest.jsonl")
        protos = load_prototypes(args.data)
        params = _load_head(args.head, args.params, manifest.dim)
        acc, _ = evaluate(manifest, params, protos, args.data, temperature=args.temperature)
        print(f"accuracy {acc:.4f}")
        return 0

    if cmd in ("encode", "index"):
        manifest = DatasetManifest.load(f"{args.data}/manifest.jsonl")
        params = _load_head(args.head, args.params, manifest.dim)
        index = build_index(manifest, params, args.data)
        index.save(args.out)
        print(f"indexed {len(index)} videos under {args.out}")
        return 0

    if cmd == "query":
        index = RetrievalIndex.load(args.index)
        if args.class_name is not None:
            if args.data is None:
                raise ConfigInvalid("--class queries need --data for the prototypes")
            protos = load_prototypes(args.data)
            if args.class_name not in protos.names:
                raise ConfigInvalid(f"unknown class {args.class_name!r}")
            vec = protos.vectors[protos.names.index(args.class_name)]
        else:
            vec = read_embeddings(args.vector)
        result = run_query(index, vec, args.k)
        print(
            json.dumps(
                {
                    "results": [
                        {"video_id": vid, "score": score} for vid, score in result.items
                    ],
                    "index_fingerprint": index.fingerprint,
                },
                sort_keys=True,
            )
        )
        return 0

    if cmd == "project":
        from .analysis import project_2d

        manifest = DatasetManifest.load(f"{args.data}/manifest.jsonl")
        frames, labels, ids = [], [], []
        for rec in manifest.records:
            seq = manifest.load_sequence(rec, args.data)
            arr = l2_normalize(seq.frames)
            for i in range(arr.shape[0]):
                frames.append(arr[i])
                labels.append(rec.label)
                ids.append(f"{rec.video_id}/f{i:04d}")
        proj = project_2d(np.stack(frames), labels, ids)
        proj.to_csv(args.out)
        print(
            f"explained variance: {proj.explained[0]:.6f}, {proj.explained[1]:.6f}"
        )
        return 0

    if cmd == "gradcheck":
        spec_kwargs = {"kind": args.head, "d_in": args.dim}
        if args.head == "transformer":
            spec_kwargs.update(layers=args.layers, heads=args.heads)
        spec = HeadSpec(**spec_kwargs)
        params = init_params(spec, args.seed, dtype=np.float64)
        rng = stream_rng(args.seed, "gradcheck-input")
        x = l2_normalize(rng.standard_normal((args.frames, args.dim)))
        report = _gradcheck_head(params, x)
        print(report)
        return 0 if report.passed else 1

    if cmd == "serve":
        from .server import QueryService, serve as run_serve

        index = RetrievalIndex.load(args.index)
        protos = load_prototypes(args.data) if args.data else None
        print(f"serving index ({len(index)} videos) on {args.host}:{args.port}")
        run_serve(QueryService(index, protos), args.host, args.port)
        return 0

    raise ConfigInvalid(f"unknown command {cmd!r}")


def _gradcheck_head(params, frames):
    """Check every head parameter against central differences on a CE loss."""

    def loss_fn(p):
        emb = head_forward(Tensor(frames), params)
        z = tn.scale(emb, 10.0)
        return tn.softmax_cross_entropy(z, 0)

    return grad_check(loss_fn, params.tensors)


def main():
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
