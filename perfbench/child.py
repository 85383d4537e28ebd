"""Child-process entry of the benchmark: runs the program's CLI (`gen`,
`index`, `serve`) or the retrieve_1m index set-up, traced when --spans is
given. SIGTERM ends it cleanly, so a traced server still writes its spans.

    python3 -m perfbench.child [--spans FILE] [--label NAME] [--cpu N] cli ARGS...
    python3 -m perfbench.child [--spans FILE] [--label NAME] make-index ARGS...
"""

from __future__ import annotations

import contextlib
import importlib
import os
import signal
import sys


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv):
    opts = {}
    while argv and argv[0] in ("--spans", "--label", "--cpu"):
        opts[argv[0][2:]] = argv[1]
        argv = argv[2:]
    if "cpu" in opts:
        # before numpy is imported, so its BLAS threads inherit the mask
        os.sched_setaffinity(0, {int(opts["cpu"])})
    signal.signal(signal.SIGTERM, _interrupt)

    from perfbench import retrieve, tracing

    target, args = argv[0], argv[1:]
    tracer = None
    if "spans" in opts:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    code = 1
    try:
        with tracer.span(opts.get("label", target)) if tracer else contextlib.nullcontext():
            if target == "cli":
                code = importlib.import_module("vidembed.cli").cli_run(args)
            elif target == "make-index":
                code = retrieve.make_index(args)
            else:
                print(f"unknown child target {target!r}", file=sys.stderr)
                code = 2
    except KeyboardInterrupt:
        code = 0
    finally:
        if tracer is not None:
            tracer.save(opts["spans"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
