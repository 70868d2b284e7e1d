"""Command-line front end: trajectories, classification, sweeps, Fisher
information scans and milestone-state inspection.

evolve, classify, sweep and qfi run on the collective layout
(hilbert.CollectiveShape); states prints amplitudes in the 2^n basis.

Angles accept raw radians or a pi suffix ("2pi", "pi", "0.5pi", "pi/2");
spins are rational strings ("1/2", "2", "5/2") so only integer two_s values
exist internally. A key=value config file supplies defaults that explicit
flags override. Exit codes: 0 success, 2 bad arguments, 1 runtime failure.
"""

import argparse
import functools
import itertools
import sys

import numpy as np

from .errors import SpinDtcError, ShapeError, NotTabulatedError
from .hilbert import (SystemShape, CollectiveShape, x_polarized_state,
                      split_index)
from .floquet import DriveParams, precompute, evolve
from .observables import trajectory_records
from .diagnostics import predict_dtc_class, detect_period, classify_subsystem
from .analytic_states import (MilestoneSpec, milestone_state, parity_case_of,
                              supported_time_indices)
from .metrology import qfi_scan, sensing_gain
from .sweep import GridSpec, run_grid, write_csv, write_lines

TRAJECTORY_HEADER = "n,m_sat_x,m_c_x,entropy,fidelity"
QFI_HEADER = "n_sat,two_s,n_periods,f_ll,f_gg,f_lg,g_scalar,gain"

# --regime value -> (prediction table, default drive point); the
# regular-class points are reported, the class-label-to-point mapping is not
# a settled fact
_REGIMES = {
    "lambda2pi": ("lambda_2pi", (2 * np.pi, 3.0)),
    "special": ("special_ho", (np.pi, np.pi / 2)),
    "regular1": ("regular_class_1", (np.pi, np.pi / 4)),
    "regular2": ("regular_class_2", (np.pi / 2, np.pi / 2)),
}


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def parse_angle(text: str) -> float:
    """Radians, or a multiple of pi: 'pi', '2pi', '0.5pi', 'pi/2', '3pi/2'.

    Every number in it, and the angle, must be finite, and a denominator
    nonzero.
    """
    t = text.strip().lower()
    try:
        if "pi" in t:
            head, _, tail = t.partition("pi")
            mult = 1.0 if head in ("", "+") else (-1.0 if head == "-" else _finite(head))
            if tail.startswith("/"):
                mult /= _finite(tail[1:])
            elif tail:
                raise ValueError(tail)
            return _finite(mult * np.pi)
        return _finite(t)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None


def parse_spin(text: str) -> int:
    """Spin string to two_s: '1/2' -> 1, '2' -> 4, '5/2' -> 5."""
    t = text.strip()
    try:
        if "/" in t:
            num, den = t.split("/")
            if int(den) != 2:
                raise ValueError(den)
            two_s = int(num)
            if two_s % 2 == 0:
                raise ValueError(num)
        else:
            two_s = 2 * int(t)
        if two_s < 1:
            raise ValueError(t)
        return two_s
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"spin must look like '1/2', '2' or '5/2', got {text!r}") from None


def parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


def read_config(path: str) -> dict:
    """key=value lines; blank lines and # comments ignored."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ShapeError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The spindtc parser; config (from read_config) replaces flag defaults.

    Config values are strings, so argparse converts each with its flag's
    own type. A key that is no flag's destination raises ShapeError.
    """
    parser = argparse.ArgumentParser(
        prog="spindtc",
        description="Exact dynamics of a kicked central-spin system: "
                    "time-crystal trajectories, phase maps and Fisher scans.")
    parser.add_argument("--config", help="key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def shape_flags(p):
        p.add_argument("--n-sat", dest="n_sat", type=int, required=False,
                       help="number of satellite spin-1/2 particles")
        p.add_argument("--spin", dest="spin", type=parse_spin, required=False,
                       help="central spin as a rational string: 1/2, 2, 5/2")

    def drive_flags(p, lam_default=None, g_default=None):
        p.add_argument("--lambda", dest="lam", type=parse_angle, default=lam_default,
                       help="interaction angle (radians or e.g. 2pi, pi/2)")
        p.add_argument("--g", dest="g", type=parse_angle, default=g_default,
                       help="kick angle for every spin (radians or pi form)")

    p = sub.add_parser("evolve", help="write a stroboscopic trajectory CSV")
    shape_flags(p)
    drive_flags(p)
    p.add_argument("--periods", type=int, help="drive periods to run")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")

    p = sub.add_parser("classify", help="tabulated DTC prediction vs measured period")
    shape_flags(p)
    p.add_argument("--regime", choices=sorted(_REGIMES), default=None,
                   help="which classification table to use")
    drive_flags(p)
    p.add_argument("--periods", type=int, default=64,
                   help="trajectory length for the measurement (default %(default)s)")
    p.add_argument("--epsilon", type=float, default=1e-8,
                   help="revival fidelity tolerance (default %(default)s)")

    p = sub.add_parser("sweep", help="(lambda, g) grid scan to a phase-map CSV")
    shape_flags(p)
    p.add_argument("--lambda-min", dest="lambda_min", type=parse_angle,
                   default="0", help="lowest lambda (default %(default)s)")
    p.add_argument("--lambda-max", dest="lambda_max", type=parse_angle,
                   default="4pi", help="highest lambda (default %(default)s)")
    p.add_argument("--lambda-steps", dest="lambda_steps", type=int, default=65,
                   help="grid points along lambda (default %(default)s)")
    p.add_argument("--g-min", dest="g_min", type=parse_angle, default="0",
                   help="lowest g (default %(default)s)")
    p.add_argument("--g-max", dest="g_max", type=parse_angle, default="2pi",
                   help="highest g (default %(default)s)")
    p.add_argument("--g-steps", dest="g_steps", type=int, default=33,
                   help="grid points along g (default %(default)s)")
    p.add_argument("--periods", type=int, default=200,
                   help="drive periods per point (default %(default)s)")
    p.add_argument("--stride", type=int, default=2,
                   help="stroboscopic sampling stride (default %(default)s)")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted; the scan runs in one process")
    p.add_argument("--checkpoint", default=None,
                   help="binary checkpoint path for resumable scans")
    p.add_argument("--output", default=None, required=False, help="CSV destination")

    p = sub.add_parser("qfi", help="Fisher matrix scan vs time and system size")
    shape_flags(p)
    drive_flags(p)
    p.add_argument("--periods-list", dest="periods_list", type=parse_int_list,
                   default=None, help="comma list of period counts, e.g. 8,16,24")
    p.add_argument("--sizes", type=parse_int_list, default=None,
                   help="comma list of satellite counts scanned at fixed periods")
    p.add_argument("--periods", type=int, default=48,
                   help="period count used with --sizes (default %(default)s)")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")

    p = sub.add_parser("states", help="print milestone-state amplitudes")
    shape_flags(p)
    p.add_argument("--time", type=int, default=None,
                   help="milestone period index (omit to list supported ones)")

    if config:
        known = set()
        for p in sub.choices.values():
            dests = {a.dest for a in p._actions} - {"help"}
            p.set_defaults(**{k: v for k, v in config.items() if k in dests})
            known |= dests
        unknown = sorted(set(config) - known)
        if unknown:
            raise ShapeError(f"unknown config key {unknown[0]!r}")
    return parser


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ShapeError(f"missing required option --{name.replace('_', '-')}")


def _write_output(path, lines) -> None:
    """The lines to path through sweep.write_lines, which leaves any earlier
    file whole if the write fails, or to stdout without a path."""
    if path:
        write_lines(path, lines)
        return
    for line in lines:
        sys.stdout.write(line + "\n")


def _cmd_evolve(args) -> int:
    _require(args, "n_sat", "spin", "lam", "g", "periods")
    shape = CollectiveShape(args.n_sat, args.spin)
    state = x_polarized_state(shape)
    tables = precompute(shape, DriveParams.symmetric(args.lam, args.g))
    traj = evolve(state, tables, args.periods, trajectory_records)
    _write_output(args.output, itertools.chain([TRAJECTORY_HEADER], (
        f"{r.n},{r.m_sat_x:.17g},{r.m_c_x:.17g},"
        f"{r.entropy:.17g},{r.fidelity_initial:.17g}" for r in traj)))
    return 0


def _cmd_classify(args) -> int:
    _require(args, "n_sat", "spin", "regime")
    if args.regime not in _REGIMES:     # a config value skips argparse's choices
        raise ShapeError(f"unknown regime {args.regime!r}")
    regime, (lam_d, g_d) = _REGIMES[args.regime]
    pred = predict_dtc_class(args.n_sat, args.spin, regime)
    lam = args.lam if args.lam is not None else lam_d
    g = args.g if args.g is not None else g_d

    shape = CollectiveShape(args.n_sat, args.spin)
    state = x_polarized_state(shape)
    tables = precompute(shape, DriveParams.symmetric(lam, g))
    traj = evolve(state, tables, args.periods, trajectory_records)
    print(f"shape ({args.n_sat}, s={args.spin}/2) at lambda={lam:.10g}, g={g:.10g}")
    if regime == "lambda_2pi":
        m_sat = [0.5] + [r.m_sat_x for r in traj]
        m_c = [shape.s] + [r.m_c_x for r in traj]
        meas_sat = classify_subsystem(m_sat, g, 0.5)
        meas_c = classify_subsystem(m_c, g, shape.s)
        print(f"predicted satellites {pred.satellite_behavior}, central "
              f"{pred.central_behavior} ({pred.label})")
        print(f"measured satellites {meas_sat}, central {meas_c}")
        return 0
    report = detect_period(traj, args.epsilon)
    measured = report.detected_period if report.detected_period is not None else "none"
    print(f"predicted {pred.period}, measured {measured}")
    if regime.startswith("regular"):
        print("note: which regular class sits at which drive point is "
              "reported as measured, not asserted")
    return 0


def _cmd_sweep(args) -> int:
    _require(args, "n_sat", "spin", "output")
    spec = GridSpec((args.lambda_min, args.lambda_max, args.lambda_steps),
                    (args.g_min, args.g_max, args.g_steps),
                    CollectiveShape(args.n_sat, args.spin), args.periods,
                    args.stride)
    records = run_grid(spec, checkpoint_path=args.checkpoint)
    write_csv(records, args.output)
    print(f"wrote {len(records)} records to {args.output}")
    return 0


def _cmd_qfi(args) -> int:
    _require(args, "spin", "lam", "g")
    scans = []      # (n_sat, period counts), every row of the CSV in order
    if args.periods_list:
        _require(args, "n_sat")
        scans.append((args.n_sat, args.periods_list))
    if args.sizes:
        scans += [(n_sat, [args.periods]) for n_sat in args.sizes]
    if not scans:
        raise ShapeError("need --periods-list and/or --sizes")
    results = qfi_scan([(CollectiveShape(n_sat, args.spin), counts)
                        for n_sat, counts in scans],
                       DriveParams.symmetric(args.lam, args.g))
    lines = [QFI_HEADER]
    for (n_sat, _), matrices in zip(scans, results):
        for q in matrices:
            try:
                gain = sensing_gain(q)
            except SpinDtcError:
                gain = float("nan")
            n = q.n_periods
            lines.append(f"{n_sat},{args.spin},{n},{q.f_ll:.17g},{q.f_gg:.17g},"
                         f"{q.f_lg:.17g},{q.g_scalar:.17g},{gain:.17g}")
            if q.estimators_disagree:
                print(f"warning: estimators disagree beyond 1% of the matrix "
                      f"scale at (n_sat={n_sat}, n={n})", file=sys.stderr)
    _write_output(args.output, lines)
    return 0


def _cmd_states(args) -> int:
    _require(args, "n_sat", "spin")
    shape = SystemShape(args.n_sat, args.spin)
    case = parity_case_of(shape)
    if args.time is None:
        print(f"parity case {case}; milestone times: "
              f"{', '.join(str(t) for t in supported_time_indices(case))}")
        return 0
    state = milestone_state(shape, MilestoneSpec(case, args.time))
    print(f"milestone at t={args.time}T, parity case {case}, dim {shape.dim}")
    print("index,k_sat,l_c,re,im")
    for i, a in enumerate(state.amplitudes):
        if abs(a) < 1e-12:
            continue
        k_sat, l_c = split_index(shape, i)
        print(f"{i},{k_sat},{l_c},{a.real:.12g},{a.imag:.12g}")
    return 0


_COMMANDS = {
    "evolve": _cmd_evolve,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "qfi": _cmd_qfi,
    "states": _cmd_states,
}


@functools.lru_cache(maxsize=1)
def _flag_parser() -> argparse.ArgumentParser:
    """build_parser() with the flags' own defaults, built once per process:
    parsing leaves a parser as it was."""
    return build_parser()


def parse_and_dispatch(argv) -> int:
    try:
        args = _flag_parser().parse_args(argv)
        if args.config:
            args = build_parser(read_config(args.config)).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, SpinDtcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except (ShapeError, NotTabulatedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpinDtcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
