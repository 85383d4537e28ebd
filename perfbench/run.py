"""Benchmark of vidembed: one command, three workloads.

    python3 perfbench/run.py --workload fusion|retrieve_1m|serve_http \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It puts the checkout's `src/` on the import
path itself. With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
"""

import time

_START = time.perf_counter()  # set-up is timed from the start of the process

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fusion", "retrieve_1m", "serve_http")


class Run:
    """One benchmark run: its arguments, work directory, tracer and clocks."""

    def __init__(self, args, work, tracer):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.work = work
        self.tracer = tracer
        self.setup_s = None

    def setup_done(self):
        """Ends set-up: one cold set-up, timed from the process's start."""
        self.setup_s = time.perf_counter() - _START

    def spans_path(self, name):
        """Where a child writes its spans, when this run is traced."""
        return os.path.join(self.work, f"{name}.spans.npz") if self.trace else None

    def mark(self):
        return self.tracer.mark() if self.tracer else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.path and os.path.abspath(sys.path[0]) == os.path.join(ROOT, "perfbench"):
        sys.path.pop(0)
    sys.path.insert(0, ROOT)
    from perfbench import bench

    if not bench.program_present():
        print(f"perfbench: the program is missing: no src/vidembed under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(1, bench.SRC)

    from perfbench import fusion, retrieve, serve, tracing

    workload = {"fusion": fusion, "retrieve_1m": retrieve, "serve_http": serve}[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    try:
        with bench.work_dir(args.workload) as work:
            run = Run(args, work, tracer)
            correct, attempted, failed, metrics, reference, series = workload.run(run)
            if tracer is not None:
                bench.keep_spans(tracer, work, args.workload)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    bench.emit(args.workload, args.seed, args.trace, correct, attempted, failed,
               metrics, reference, series)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
