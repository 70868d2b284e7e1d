"""Benchmark entry point for the spindtc CLI.

    python3 perfbench/run.py --workload phase_map|trajectory|qfi_scan \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It times the workload's set-up in fresh
interpreters (the median of SETUP_PROBES), then runs the workload itself in
one more fresh interpreter (perfbench/workload.py) with one BLAS thread per
process and at most nproc sweep workers. Times are in nominal seconds (see
calibration.py). The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics`, the end-to-end
metrics with --trace 0 and the per-layer metrics with --trace 1. Any other
outcome exits non-zero without printing a result.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("phase_map", "trajectory", "qfi_scan")
SETUP_PROBES = 9
DEADLINE_S = 170        # the whole run, set-up probes included


def _environment(root: Path) -> dict:
    env = dict(os.environ)
    threads = "1"
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               # the workloads ask for 2 sweep workers; never more than nproc
               DTC_WORKERS=str(len(os.sched_getaffinity(0))))
    return env


def _run(argv, env, timeout) -> subprocess.CompletedProcess:
    """Run a child in its own session; on timeout kill it and its workers."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "spindtc" / "cli.py").is_file():
        print(f"error: no spindtc sources under {root / 'src'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    env = _environment(root)
    script = [sys.executable, str(BENCH / "workload.py"),
              "--workload", args.workload]

    def remaining():
        return DEADLINE_S - (time.perf_counter() - started)

    calibrator = calibration.Calibrator("medium")
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            t0 = time.perf_counter()
            probe = _run(script + ["--probe"], env, remaining())
            setups.append(time.perf_counter() - t0)
            calibrator.sample(setups[-1])
            if probe.returncode != 0:
                print(f"error: set-up probe exited {probe.returncode}",
                      file=sys.stderr)
                return 1
        child = _run(script + ["--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], env, remaining())
    except subprocess.TimeoutExpired:
        print(f"error: the run did not finish within {DEADLINE_S} s",
              file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: workload process exited {child.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not args.trace:
        print(f"{args.workload}: set-up probes " +
              " ".join(f"{t:.3f}" for t in setups), file=sys.stderr)
        setup_s = statistics.median(setups) / calibrator.factor()
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
