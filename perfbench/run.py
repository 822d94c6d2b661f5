"""Run one gsaudit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build-log-sphere --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a span trace with ``--trace 1``.  Lines before it say the same for people,
name each workload's own metric, and give the environment.  Temporary files
and the span dump go under ``.perfbench/`` in the checkout.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 11

if not (SRC / "gsaudit" / "__init__.py").is_file():
    sys.exit(f"perfbench: no gsaudit sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gsaudit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def closed_loop(workload, seconds, run_op):
    """Operations back to back while the next would likely end within ``seconds``.

    An operation that raises is recorded as None and counted as failed.
    """
    outcomes, op_seconds = [], []
    begin = time.perf_counter()
    while workload.limit is None or len(outcomes) < workload.limit:
        index = len(outcomes)

        def attempt():
            try:
                return workload.step(index)
            except Exception:
                traceback.print_exc()
                return None

        started = time.perf_counter()
        outcomes.append(run_op(index, attempt))
        op_seconds.append(time.perf_counter() - started)
        if time.perf_counter() - begin + op_seconds[-1] > seconds:
            break
    return outcomes, op_seconds, time.perf_counter() - begin


def setup_seconds(args, first: float) -> list[float]:
    """Set-up times: this process's own, then fresh processes doing only set-up."""
    samples = [first]
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        probe = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=120, check=True)
        samples.append(float(probe.stdout.split()[-1]))
    return samples


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None when that cannot be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """Commit of the checkout, or None when it is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def main(argv=None):
    args = parse_args(argv)
    if Path(gsaudit.__file__).resolve().parent != SRC / "gsaudit":
        sys.exit(f"perfbench: imported gsaudit from {gsaudit.__file__}, not {SRC}")
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        setup_first = time.perf_counter() - _STARTED
        if args.setup_probe:
            print(repr(setup_first))
            return 0
        return measure(args, workload, setup_first)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workload, setup_first):
    env = environment()
    trace = None
    run_op = lambda index, fn: fn()  # noqa: E731
    if args.trace:
        from tracer import Tracer

        trace = Tracer()
        trace.install()
        run_op = trace.run_op
    try:
        outcomes, op_seconds, wall_s = closed_loop(workload, args.seconds, run_op)
    finally:
        if trace is not None:
            trace.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed, problems = workload.check(outcomes)
    rate, own_metrics = workload.report(outcomes, op_seconds)

    head = (f"{workload.name} seed={args.seed} trace={args.trace}: {len(outcomes)} ops "
            f"in {wall_s:.2f} s, per op median {statistics.median(op_seconds):.4f} s, "
            f"max {max(op_seconds):.4f} s (n={len(op_seconds)})")
    print(head)
    print("  op seconds: " + " ".join(f"{t:.4f}" for t in op_seconds))
    for name, value, unit in own_metrics:
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  {'failed':34s} {failed}/{len(outcomes)}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    if trace is not None:
        trace.require_calls(workload.name)
        metrics = trace.layer_metrics(wall_s)
        trace.write(OUT / f"trace-{workload.name}-seed{args.seed}.json", env)
    else:
        setups = setup_seconds(args, setup_first)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ops_per_s": (rate, "1/s"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
