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


def _gen(args):
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


def _train(args):
    manifest = DatasetManifest.load(f"{args.data}/manifest.jsonl")
    config = TrainConfig(
        head=HeadSpec(kind=args.head, d_in=manifest.dim),
        lr=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        temperature=args.temperature,
        split=args.split,
    )
    params, history = train(manifest, manifest.prototypes(args.data), config, args.data)
    params.save(args.out)
    if args.history:
        history.to_csv(args.history)
    last = history.records[-1]
    print(f"epoch {last.epoch}: train_acc={last.train_acc:.4f} val_acc={last.val_acc:.4f}")
    return 0


def _eval(args):
    manifest = DatasetManifest.load(f"{args.data}/manifest.jsonl")
    protos = manifest.prototypes(args.data)
    params = _load_head(args.head, args.params, manifest.dim)
    acc, _ = evaluate(manifest, params, protos, args.data)
    print(f"accuracy {acc:.4f}")
    return 0


def _index(args):
    manifest = DatasetManifest.load(f"{args.data}/manifest.jsonl")
    params = _load_head(args.head, args.params, manifest.dim)
    index = build_index(manifest, params, args.data)
    index.save(args.out)
    print(f"indexed {len(index)} videos under {args.out}")
    return 0


def _query(args):
    index = RetrievalIndex.load(args.index)
    if args.class_name is not None:
        if args.data is None:
            raise ConfigInvalid("--class queries need --data for the prototypes")
        vec = load_prototypes(args.data).vector(args.class_name)
    else:
        vec = read_embeddings(args.vector)
    result = run_query(index, vec, args.k)
    print(json.dumps(result.response(index.fingerprint), sort_keys=True))
    return 0


def _project(args):
    from .analysis import project_2d

    manifest = DatasetManifest.load(f"{args.data}/manifest.jsonl")
    frames, labels, ids = [], [], []
    for seqs in manifest.normalized_chunks(args.data):
        for seq in seqs:
            frames.append(seq.frames)
            labels += [seq.label] * len(seq.frames)
            ids += [f"{seq.video_id}/f{i:04d}" for i in range(len(seq.frames))]
    proj = project_2d(np.concatenate(frames), labels, ids)
    proj.to_csv(args.out)
    print(f"explained variance: {proj.explained[0]:.6f}, {proj.explained[1]:.6f}")
    return 0


def _gradcheck(args):
    """Check every head parameter against central differences on a CE loss."""
    spec_kwargs = {"kind": args.head, "d_in": args.dim}
    if args.head == "transformer":
        spec_kwargs.update(layers=args.layers, heads=args.heads)
    params = init_params(HeadSpec(**spec_kwargs), args.seed, dtype=np.float64)
    rng = stream_rng(args.seed, "gradcheck-input")
    x = l2_normalize(rng.standard_normal((args.frames, args.dim)))

    def loss_fn(p):
        z = tn.scale(head_forward(Tensor(x), params), 10.0)
        return tn.softmax_cross_entropy(z, 0)

    report = grad_check(loss_fn, params.tensors)
    print(report)
    return 0 if report.passed else 1


def _serve(args):
    from .server import QueryService, serve as run_serve

    index = RetrievalIndex.load(args.index)
    protos = load_prototypes(args.data) if args.data else None
    print(f"serving index ({len(index)} videos) on {args.host}:{args.port}")
    run_serve(QueryService(index, protos), args.host, args.port)
    return 0


def _build_parser():
    """The top-level parser and its subparsers by command name; each
    subparser carries its command's function as the `func` default."""
    parser = argparse.ArgumentParser(prog="vidembed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None, help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.set_defaults(func=_gen)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--videos-per-class", type=int, default=10)
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--task", choices=["anchor", "order"], default="anchor")

    p = sub.add_parser("train", help="train a temporal fusion head")
    p.set_defaults(func=_train)
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
    p.set_defaults(func=_eval)
    p.add_argument("--data", required=True)
    p.add_argument("--head", choices=list(ALL_KINDS), required=True)
    p.add_argument("--params", default=None)

    p = sub.add_parser("index", aliases=["encode"], help="build a retrieval index (encode once)")
    p.set_defaults(func=_index)
    p.add_argument("--data", required=True)
    p.add_argument("--head", choices=list(EMBEDDING_KINDS), required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--out", required=True, help="index path prefix")

    p = sub.add_parser("query", help="top-k retrieval against an index")
    p.set_defaults(func=_query)
    p.add_argument("--index", required=True, help="index path prefix")
    p.add_argument("--k", type=int, default=6)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--class", dest="class_name", help="class name resolved via prototypes")
    g.add_argument("--vector", help="rank-1 VEMB file with the query embedding")
    p.add_argument("--data", default=None, help="dataset dir (for --class prototypes)")

    p = sub.add_parser("project", help="2-D PCA of frame embeddings")
    p.set_defaults(func=_project)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.set_defaults(func=_gradcheck)
    p.add_argument("--head", choices=list(TRAINABLE_KINDS), required=True)
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--dim", type=int, default=6)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--heads", type=int, default=2)

    p = sub.add_parser("serve", help="HTTP query service over an index")
    p.set_defaults(func=_serve)
    p.add_argument("--index", required=True)
    p.add_argument("--data", default=None, help="dataset dir for class-name queries")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    return parser, sub.choices


def _set_config_defaults(parser, subparser, path):
    """Make a key=value file's values the parsers' defaults: `seed` on the
    top-level parser, and each key that names one of `subparser`'s long
    options (`-` or `_`) on `subparser`; other keys are ignored. Values stay
    strings, so the next parse converts them with the option's type, and a
    flag given on the command line wins."""
    # a default for one of --class/--vector would pair with the other's flag
    exclusive = {a for g in subparser._mutually_exclusive_groups for a in g._group_actions}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigInvalid(f"bad config line: {line!r}")
            key, _, raw = (part.strip() for part in line.partition("="))
            key = key.replace("_", "-")
            if key == "seed":
                parser.set_defaults(seed=raw)
                continue
            action = subparser._option_string_actions.get(f"--{key}")
            if action is None or action.nargs == 0 or action in exclusive:
                continue
            if action.choices is not None and raw not in action.choices:
                subparser.error(f"argument --{key}: invalid choice: {raw!r}")
            subparser.set_defaults(**{action.dest: raw})


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
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _set_config_defaults(parser, commands[args.command], args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (VidembedError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
