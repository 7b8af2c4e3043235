"""Benchmark for adaptive_mc: one workload per process, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-clamped --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` installs the outside-in tracer for one repetition and prints
the per-layer metrics plus the tracing overhead; spans are written to
``.perfbench_out/<workload>/spans.csv``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every check passed, 1 when a
correctness check failed, and 2 when the workload could not run or left
its regime (no result line then).  ``--workload all`` runs every workload
in its own process and prints one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One BLAS thread for every run: the CLI pools already use both cores,
# and on the 2-core reference machine one BLAS thread measured lower and
# steadier dense-clamped run_s and verify time than the OpenBLAS default.
BLAS_THREADS = "1"
# The CLI worker count; equals os.cpu_count() on the reference machine,
# set explicitly so the CLI pools size the same everywhere.
CLI_THREADS = "2"

WORKLOAD_NAMES = ("dense-clamped", "tall-subsampled", "cli-suite")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "adaptive_mc_threads": os.environ["ADAPTIVE_MC_THREADS"],
        "git_sha": _git_sha(),
    }


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args):
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import adaptive_mc
    except ImportError as exc:
        print(f"error: cannot import adaptive_mc from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(adaptive_mc.__file__).startswith(src + os.sep):
        print(f"error: adaptive_mc was imported from {adaptive_mc.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import gate
    import metrics
    import speed
    import workloads

    env = environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))
    out_dir = os.path.join(".perfbench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    try:
        meas = workloads.WORKLOADS[args.workload].measure(
            args.seed, args.seconds, bool(args.trace))
    except gate.RegimeError as exc:
        print(f"error: {args.workload} left its regime: {exc}",
              file=sys.stderr)
        return 2

    if args.trace:
        values = workloads.layer_metrics(meas)
        meas.tracer.write(os.path.join(out_dir, "spans.csv"))
    else:
        values = metrics.with_units(meas.end_to_end(_peak_rss_mb()),
                                    metrics.END_TO_END)
        # Not gated, printed for the reader: failures over attempts, and
        # per unit of timed work (cli-suite: per subcommand) the sample
        # count, the median wall time and the median at reference speed.
        failed_frac = meas.failed / meas.attempted
        print(f"  {'failed_frac':<34} {failed_frac:.6g} ratio")
        units = {"setup": meas.setup_times, **meas.run_times}
        for name, timings in units.items():
            print(f"  {name + ' samples':<34} n={len(timings)} wall "
                  f"{speed.median_elapsed(timings):.6g} s, at reference "
                  f"speed {speed.median_normalized(timings):.6g} s")
        references = [t.reference for ts in units.values() for t in ts]
        print(f"  {'reference_work median':<34} "
              f"{statistics.median(references):.6g} s "
              f"(reference speed: {speed.REFERENCE_S} s)")
    for name, v in values.items():
        print(f"  {name:<34} {v['value']:.6g} {v['unit']}")
    correct = meas.failed == 0
    with open(os.path.join(out_dir, "env.json"), "w", encoding="ascii") as fh:
        json.dump(env, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": meas.attempted,
                      "failed": meas.failed, "metrics": values}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is its own."""
    results, worst = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"{name}:")
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        if proc.returncode in (0, 1) and lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return worst


def _pin_environment():
    """Fix thread counts before numpy loads; child processes inherit them."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["ADAPTIVE_MC_THREADS"] = CLI_THREADS


def main(argv=None):
    args = _parse(argv)
    _pin_environment()
    os.chdir(ROOT)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
