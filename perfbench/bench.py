"""Shared plumbing: paths, child processes, timing helpers, machine record and
the result line."""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
RESULTS_DIR = os.path.join(ROOT, ".perfbench_results")


class CheckFailed(Exception):
    """A program output broke a property the benchmark checks."""


def program_present():
    return os.path.isfile(os.path.join(SRC, "vidembed", "__init__.py"))


def median(values):
    values = sorted(values)
    if not values:
        raise CheckFailed("no timed units completed")
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    values = sorted(values)
    rank = max(1, -(-len(values) * q // 100))
    return values[int(rank) - 1]


def peak_rss_mb_self():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid):
    """VmHWM of a running child process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for process {pid}")


@contextlib.contextmanager
def work_dir(workload):
    path = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)


def child_command(args, spans=None, label=None, cpu=None):
    cmd = [sys.executable, "-m", "perfbench.child"]
    if spans is not None:
        cmd += ["--spans", spans]
    if label is not None:
        cmd += ["--label", label]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    return cmd + list(args)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(args, spans=None, label=None, timeout=150):
    """Run a child to completion; raise with its stderr when it fails."""
    proc = subprocess.run(
        child_command(args, spans, label), cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(args[:3])} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return proc.stdout


def stop_process(proc, timeout=10.0):
    """SIGTERM, then SIGKILL after `timeout`; always waits for the exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def keep_spans(tracer, work, stem):
    """Write this process's spans, and keep the children's, beside the results;
    a traced run replaces the spans of the workload's previous one."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tracer.save(os.path.join(RESULTS_DIR, f"{stem}.spans.npz"))
    for name in os.listdir(work):
        if name.endswith(".spans.npz"):
            shutil.copy(os.path.join(work, name), os.path.join(RESULTS_DIR, f"{stem}.{name}"))


def _blas_threads():
    """Thread count of the loaded OpenBLAS, if one is mapped into the process."""
    try:
        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info():
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def emit(workload, seed, trace, correct, attempted, failed, metrics, extra=None, series=None):
    """Write the result file and print the result as the last stdout line.

    `extra` holds reference figures, printed and kept; `series` holds every
    timed unit, kept in the result file only."""
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, workload=workload, seed=seed, trace=trace,
                  machine=machine_info(), reference=extra or {}, series=series or {},
                  time=time.time())
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"machine": record["machine"], "reference": record["reference"]}))
    print(json.dumps(result), flush=True)
