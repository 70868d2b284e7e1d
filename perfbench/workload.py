"""One workload in a fresh interpreter: set-up, rounds of CLI commands, checks.

run.py starts this file as

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

from the root of a checkout, with PYTHONPATH=src and the thread settings of
the README. Each round runs the workload's commands in process through
`spindtc.cli.parse_and_dispatch`; only the commands are timed. Their outputs
are checked after each command against `reference.py`. The last stdout line
is a JSON object that run.py completes. With --probe the process only does
the workload's set-up (the `spindtc` import and a warm-up command) and
exits, so that run.py can time set-up in fresh interpreters.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibration
import reference
import tracing

ROOT = Path.cwd()
WORK_ROOT = ROOT / ".perfbench"

TRAJECTORY_HEADER = "n,m_sat_x,m_c_x,entropy,fidelity"
QFI_HEADER = "n_sat,two_s,n_periods,f_ll,f_gg,f_lg,g_scalar,gain"
SWEEP_HEADER = "lambda,g,avg_m_sat,avg_m_c,avg_entropy,o_rel_sat,o_rel_c"

VALUE_TOL = 1e-9            # trajectory and phase-map values
REVIVAL_TOL = 1e-10         # fidelity at a revival
REVIVAL_EPSILON = 1e-8      # `classify`'s default revival tolerance
QFI_SCALE_TOL = 1e-3        # criterion 09: elements within 1e-3 of the scale

_cli = None                 # spindtc.cli, imported by load_program()


def load_program():
    """Import spindtc.cli from this checkout's src/ (and only from there)."""
    global _cli
    from spindtc import cli
    origin = Path(cli.__file__).resolve()
    if not origin.is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"spindtc imported from {origin}, not from {ROOT / 'src'}")
    _cli = cli


@dataclass
class Command:
    argv: list
    seconds: float
    cpu_s: float
    exit_code: int
    stdout: str
    stderr: str


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def run_cli(argv, tracer=None) -> Command:
    """One timed in-process CLI command, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        index = tracer.begin("cli.dispatch") if tracer else None
        try:
            code = _cli.parse_and_dispatch(argv)
        except Exception:
            # the installed `spindtc` script would exit 1 with this traceback
            code = 1
            traceback.print_exc()
        finally:
            if index is not None:
                tracer.end(index)
    seconds = time.perf_counter() - t0
    return Command(list(argv), seconds, _cpu_seconds() - cpu0, code,
                   out.getvalue(), err.getvalue())


@dataclass
class Op:
    """One command of a round and the verdict on its output."""

    label: str
    command: Command
    problem: str | None = None      # output check failure, None if correct
    items: int = 0                  # items the command completes
    known_fault: str | None = None  # set when it fails by a named fault

    @property
    def failed(self) -> bool:
        return self.command.exit_code != 0 or self.problem is not None


def _rows(path: Path, header: str) -> list[list[float]]:
    """Float rows of a CSV written by the program, after its header line."""
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[:1]} != {header!r}")
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _checked(label: str, command: Command, check, items: int) -> Op:
    """Run check() on a command that exited 0; a malformed or missing output
    (ValueError, IndexError, OSError) is the op's problem."""
    problem = None
    if command.exit_code == 0:
        try:
            check()
        except (ValueError, IndexError, OSError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
    ok = command.exit_code == 0 and problem is None
    return Op(label, command, problem, items if ok else 0)


def _close(got, want, tol, what):
    if not abs(got - want) <= tol:
        raise ValueError(f"{what}: {float(got)!r} vs reference {float(want)!r} "
                         f"(tol {float(tol):.3g})")


# ---------------------------------------------------------------- phase_map

class PhaseMap:
    """`sweep` at (8, 2), 200 periods, stride 2, 2 workers, checkpointed.

    The grid is the 9 x 5 subgrid (every 8th lambda, every 8th g) of
    criterion 11's 65 x 33 grid over [0, 4pi] x [0, 2pi]; it keeps the
    lambda = 2pi column and the point (pi, pi/2). A round is the fresh scan,
    a resume from the finished checkpoint, and a resume from a copy whose
    last record is cut mid-write.
    """

    name = "phase_map"
    processes = 2           # sweep workers, and calibration processes
    kernel = "small"
    n_sat, two_s, periods, stride = 8, 4, 200, 2
    lambda_steps, g_steps = 9, 5
    samples = 12
    truncated_fault = ("truncated-checkpoint resume: run_grid raises "
                       "'truncated or missized record' instead of dropping the "
                       "incomplete trailing record (ROADMAP item 4(a))")

    def __init__(self, work: Path):
        self.work = work
        self.ckpt = work / "map.ckpt"
        self.csv = work / "map.csv"
        self.resumed_csv = work / "map_resumed.csv"
        self.cut_ckpt = work / "map_cut.ckpt"
        self.cut_csv = work / "map_cut.csv"

    def warmup(self):
        return [["evolve", "--n-sat", "8", "--spin", "2", "--lambda", "pi",
                 "--g", "pi/2", "--periods", "0",
                 "--output", str(self.work / "warmup.csv")]]

    def prepare(self, seed: int) -> None:
        self.lams = np.linspace(0.0, 4 * np.pi, self.lambda_steps)
        self.gs = np.linspace(0.0, 2 * np.pi, self.g_steps)
        n_points = self.lambda_steps * self.g_steps
        rng = np.random.default_rng(seed)
        picked = sorted(int(i) for i in
                        rng.choice(n_points, self.samples, replace=False))
        self.reference = {}
        for index in picked:
            i, j = divmod(index, self.g_steps)
            self.reference[index] = reference.phase_map_point(
                self.n_sat, self.two_s, self.lams[i], self.gs[j],
                self.periods, self.stride)
        self.lambda_2pi = int(np.argmin(np.abs(self.lams - 2 * np.pi)))

    def argv(self, ckpt: Path, out: Path):
        return ["sweep", "--n-sat", "8", "--spin", "2",
                "--lambda-min", "0", "--lambda-max", "4pi",
                "--lambda-steps", str(self.lambda_steps),
                "--g-min", "0", "--g-max", "2pi",
                "--g-steps", str(self.g_steps),
                "--periods", str(self.periods), "--stride", str(self.stride),
                "--workers", "2", "--checkpoint", str(ckpt),
                "--output", str(out)]

    def _check_map(self):
        rows = _rows(self.csv, SWEEP_HEADER)
        if len(rows) != self.lambda_steps * self.g_steps:
            raise ValueError(f"{len(rows)} phase-map rows")
        for index, row in enumerate(rows):
            i, j = divmod(index, self.g_steps)
            _close(row[0], self.lams[i], VALUE_TOL, f"row {index} lambda")
            _close(row[1], self.gs[j], VALUE_TOL, f"row {index} g")
            if i == self.lambda_2pi and not row[4] < 1e-8:
                raise ValueError(f"lambda = 2pi row {index}: entropy {row[4]!r}")
        for index, want in self.reference.items():
            for col, name in enumerate(SWEEP_HEADER.split(",")[2:]):
                _close(rows[index][2 + col], want[col], VALUE_TOL,
                       f"row {index} {name}")

    def _same_as_fresh(self, path: Path):
        def check():
            if path.read_bytes() != self.csv.read_bytes():
                raise ValueError(f"{path.name} differs from the fresh map")
        return check

    def round(self, run) -> list:
        self.work.mkdir(parents=True, exist_ok=True)
        for path in (self.ckpt, self.csv, self.resumed_csv, self.cut_ckpt,
                     self.cut_csv):
            path.unlink(missing_ok=True)
        n_points = self.lambda_steps * self.g_steps
        fresh = _checked("sweep", run(self.argv(self.ckpt, self.csv)),
                         self._check_map, n_points)
        resumed = _checked("sweep resume",
                           run(self.argv(self.ckpt, self.resumed_csv)),
                           self._same_as_fresh(self.resumed_csv), 0)
        _cut_last_record(self.ckpt, self.cut_ckpt)
        cut = _checked("sweep resume from a cut record",
                       run(self.argv(self.cut_ckpt, self.cut_csv)),
                       self._same_as_fresh(self.cut_csv), 0)
        if "truncated or missized record" in cut.command.stderr:
            cut.known_fault = self.truncated_fault
        return [fresh, resumed, cut]


def _cut_last_record(src: Path, dst: Path) -> None:
    """Copy a DTC1 checkpoint with its last record cut halfway, as a crash
    in the middle of a write leaves it."""
    data = src.read_bytes() if src.exists() else b""
    pos, last = 4, None
    while pos + 4 <= len(data):
        last = pos
        pos += 4 + int.from_bytes(data[pos:pos + 4], "little")
    if last is not None:
        data = data[:last + 4 + (pos - last - 4) // 2]
    dst.write_bytes(data)


# --------------------------------------------------------------- trajectory

class Trajectory:
    """`evolve` at (16, 5/2) over two revivals of its period 12 and at
    (9, 5/2) on the eternal DTC point (2pi, 3.0), then `classify --regime
    special` on four shapes, all recording every period."""

    name = "trajectory"
    processes = 1
    kernel = "medium"

    def __init__(self, work: Path):
        self.work = work
        # (n_sat, two_s, spin, lambda, g, lambda flag, g flag, periods)
        self.evolves = [
            (16, 5, "5/2", np.pi, np.pi / 2, "pi", "pi/2", 24),
            (9, 5, "5/2", 2 * np.pi, 3.0, "2pi", "3.0", 200),
        ]
        self.classify = [(8, 4, "2"), (8, 5, "5/2"), (9, 4, "2"), (9, 5, "5/2")]
        self.classify_periods = 64

    def warmup(self):
        return [["evolve", "--n-sat", "16", "--spin", "5/2", "--lambda", "pi",
                 "--g", "pi/2", "--periods", "0",
                 "--output", str(self.work / "warmup.csv")]]

    def prepare(self, seed: int) -> None:
        self.reference = [reference.trajectory(n, ts, lam, g, p).columns()
                          for n, ts, _, lam, g, _, _, p in self.evolves]
        self.revivals = []
        for n, ts, _ in self.classify:
            traj = reference.trajectory(n, ts, np.pi, np.pi / 2,
                                        self.classify_periods)
            self.revivals.append(reference.first_revival(traj, REVIVAL_EPSILON))

    def _check_evolve(self, path: Path, want):
        def check():
            rows = _rows(path, TRAJECTORY_HEADER)
            if len(rows) != len(want):
                raise ValueError(f"{path.name}: {len(rows)} rows, want {len(want)}")
            names = TRAJECTORY_HEADER.split(",")
            for n, (row, ref) in enumerate(zip(rows, want), start=1):
                if row[0] != n:
                    raise ValueError(f"{path.name}: row {n} has n = {row[0]}")
                for col in range(4):
                    _close(row[1 + col], ref[col], VALUE_TOL,
                           f"{path.name} n={n} {names[1 + col]}")
                if ref[3] > 1 - REVIVAL_EPSILON:
                    _close(row[4], 1.0, REVIVAL_TOL,
                           f"{path.name} revival fidelity at n={n}")
        return check

    def _check_classify(self, command: Command, want):
        def check():
            lines = [ln for ln in command.stdout.splitlines()
                     if ln.startswith("predicted ")]
            if len(lines) != 1 or not lines[0].endswith(f"measured {want}"):
                raise ValueError(f"classify printed {lines}, reference first "
                                 f"revival {want}")
        return check

    def round(self, run) -> list:
        self.work.mkdir(parents=True, exist_ok=True)
        ops = []
        for spec, want in zip(self.evolves, self.reference):
            n, _, spin, _, _, lam, g, periods = spec
            out = self.work / f"evolve_{n}.csv"
            out.unlink(missing_ok=True)
            command = run(["evolve", "--n-sat", str(n), "--spin", spin,
                           "--lambda", lam, "--g", g, "--periods", str(periods),
                           "--output", str(out)])
            ops.append(_checked(f"evolve {n}", command,
                                self._check_evolve(out, want), periods))
        for (n, _, spin), want in zip(self.classify, self.revivals):
            command = run(["classify", "--n-sat", str(n), "--spin", spin,
                           "--regime", "special"])
            ops.append(_checked(f"classify {n} {spin}", command,
                                self._check_classify(command, want),
                                self.classify_periods))
        return ops


# ----------------------------------------------------------------- qfi_scan

class QfiScan:
    """`qfi` at (pi, pi/2): a size scan at s = 2 and at s = 1/2 (with the
    singular (3, 1/2) row), both at n = 48, and a time scan at (9, 5/2)."""

    name = "qfi_scan"
    processes = 1
    kernel = "medium"

    def __init__(self, work: Path):
        self.work = work
        # (label, spin, two_s, flags, rows as (n_sat, n)); `qfi` requires
        # --n-sat even when only --sizes is given
        self.scans = [
            ("sizes s=2", "2", 4, ["--n-sat", "2", "--sizes",
                                   ",".join(str(n) for n in range(2, 13))],
             [(n, 48) for n in range(2, 13)]),
            ("sizes s=1/2", "1/2", 1, ["--n-sat", "2", "--sizes", "2,3,5,6,7"],
             [(n, 48) for n in (2, 3, 5, 6, 7)]),
            ("periods (9, 5/2)", "5/2", 5,
             ["--n-sat", "9", "--periods-list",
              ",".join(str(8 * k) for k in range(1, 13))],
             [(9, 8 * k) for k in range(1, 13)]),
        ]

    def warmup(self):
        return [["qfi", "--n-sat", "2", "--spin", "2", "--lambda", "pi",
                 "--g", "pi/2", "--sizes", "12", "--periods", "0",
                 "--output", str(self.work / "warmup.csv")]]

    def prepare(self, seed: int) -> None:
        self.reference = [[reference.fisher(n, two_s, np.pi, np.pi / 2, p)
                           for n, p in rows]
                          for _, _, two_s, _, rows in self.scans]

    def _check(self, path: Path, two_s: int, rows, want):
        def check():
            got = _rows(path, QFI_HEADER)
            if [tuple(r[:3]) for r in got] != [(n, two_s, p) for n, p in rows]:
                raise ValueError(f"{path.name}: rows {[r[:3] for r in got]}")
            for row, ref in zip(got, want):
                what = f"{path.name} (n_sat={row[0]:g}, n={row[2]:g})"
                tol = QFI_SCALE_TOL * ref.scale
                _close(row[3], ref.f_ll, tol, f"{what} f_ll")
                _close(row[4], ref.f_gg, tol, f"{what} f_gg")
                _close(row[5], ref.f_lg, tol, f"{what} f_lg")
                if ref.singular and not math.isnan(row[7]):
                    raise ValueError(f"{what}: singular Fisher matrix written "
                                     f"with gain {row[7]!r}, not nan")
                if not ref.singular and not row[7] > 0:
                    raise ValueError(f"{what}: gain {row[7]!r}")
        return check

    def round(self, run) -> list:
        self.work.mkdir(parents=True, exist_ok=True)
        ops = []
        for k, ((label, spin, two_s, flags, rows), want) in enumerate(
                zip(self.scans, self.reference)):
            out = self.work / f"qfi_{k}.csv"
            out.unlink(missing_ok=True)
            command = run(["qfi", "--spin", spin, "--lambda", "pi",
                           "--g", "pi/2", *flags, "--output", str(out)])
            ops.append(_checked(f"qfi {label}", command,
                                self._check(out, two_s, rows, want), len(rows)))
        return ops


WORKLOADS = {w.name: w for w in (PhaseMap, Trajectory, QfiScan)}


# --------------------------------------------------------------------- main

class Tally:
    """Operations attempted and failed, and what is reported about them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong_output = False
        self._told = set()

    def add(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            if not op.failed:
                continue
            self.failed += 1
            if op.command.exit_code == 0:
                self.wrong_output = True
                message = f"wrong output from {op.label}: {op.problem}"
            elif op.known_fault:
                message = f"known fault, counted as failed: {op.known_fault}"
            else:
                message = (f"{op.label} exited {op.command.exit_code}: "
                           f"{op.command.stderr.strip()}")
            if message not in self._told:
                self._told.add(message)
                print(message, file=sys.stderr)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0       # ru_maxrss is in KiB on Linux


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _measure(args, workload, calibrator, tracer):
    """Rounds until --seconds are spent; the tally and the metrics."""
    tally = Tally()
    walls, cpus, items, factors = [], [], [], []
    untraced_walls = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        # a traced run alternates untraced and traced rounds, for the overhead
        traced = tracer is not None and len(untraced_walls) > len(walls)
        if traced:
            tracing.instrument(tracer)

        def run(argv):
            command = run_cli(argv, tracer if traced else None)
            calibrator.sample(command.seconds)
            return command

        ops = workload.round(run)
        if traced:
            tracer.unwrap()
        tally.add(ops)
        factor = calibrator.factor()
        wall = sum(op.command.seconds for op in ops) / factor
        if tracer is not None and not traced:
            untraced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(sum(op.command.cpu_s for op in ops) / factor)
            items.append(sum(op.items for op in ops))
            factors.append(factor)
        now = time.perf_counter()
        if walls and now - start + (now - begun) > args.seconds:
            break

    print(f"{args.workload}: round walls " + " ".join(
        f"{w * f:.3f}/{f:.3f}" for w, f in zip(walls, factors)),
        file=sys.stderr)
    if tracer is None:
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "items_per_s": _metric(statistics.median(
                i / w for i, w in zip(items, walls)), "1/s"),
            "cpu_s": _metric(statistics.median(cpus), "s"),
            # before the calibration helper is reaped and joins the children
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }
    else:
        metrics = tracing.layer_metrics(tracer, len(walls),
                                        statistics.median(factors))
        traced_wall = statistics.median(walls)
        untraced_wall = statistics.median(untraced_walls)
        metrics["tracing.wall_s"] = _metric(traced_wall, "s")
        metrics["tracing.untraced_wall_s"] = _metric(untraced_wall, "s")
        metrics["tracing.overhead"] = _metric(traced_wall / untraced_wall,
                                              "ratio")
        tracer.write(WORK_ROOT / f"trace_{args.workload}.csv")
    return tally, metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    work = WORK_ROOT / args.workload
    workload = WORKLOADS[args.workload](work / ("probe" if args.probe else "run"))
    workload.work.mkdir(parents=True, exist_ok=True)
    load_program()
    for argv in workload.warmup():
        if run_cli(argv).exit_code != 0:
            print(f"warm-up {argv} failed", file=sys.stderr)
            return 1
    if args.probe:
        return 0

    failures = reference.self_check()
    if failures:
        print("reference self-check failed: " + "; ".join(failures),
              file=sys.stderr)
        return 3
    workload.prepare(args.seed)

    tracer = None
    if args.trace:
        # one sweep worker, so that every span is recorded in this process
        os.environ["DTC_WORKERS"] = "1"
        tracer = tracing.Tracer()

    # the traced run's sweep uses one worker
    processes = 1 if args.trace else min(workload.processes,
                                         len(os.sched_getaffinity(0)))
    calibrator = calibration.Calibrator(workload.kernel, processes)
    try:
        tally, metrics = _measure(args, workload, calibrator, tracer)
    finally:
        calibrator.close()
    print(json.dumps({"correct": not tally.wrong_output,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
