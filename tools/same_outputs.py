"""Run a fixed list of spindtc commands against one src directory and keep
every output, so that two trees can be compared byte for byte.

Each command runs in a fresh interpreter with PYTHONPATH set to the given
src directory and one BLAS thread, in its own directory under the output
directory, where it writes its CSVs and checkpoints by relative paths. Its
exit code, stdout and stderr go into the files exit_code, stdout and stderr
beside them. The script prints only the output directory, so

    python3 tools/same_outputs.py parent/src > a
    python3 tools/same_outputs.py src > b
    diff -r "$(cat a)" "$(cat b)"

shows every byte in which the two trees' outputs differ.

The commands: evolve on and off the closed-form lines lambda = 0 and 2pi
mod 4pi, with a negative period count on both; every classify regime, with
zero and negative period counts; the regular regimes at a shape their
tables do not cover, regular1 at (9, 2) and regular2 at (8, 5/2); special
and lambda2pi at (1, 1/2), the smallest shape, where the start revives at
period 8, not at the table's 24; classify --regime lambda2pi at all four
parity classes, (8, 2), (8, 5/2), (9, 2) and (9, 5/2), so that both the
'sinusoidal' and the 'period doubling' reading of each subsystem run; the
revival search's stopping rule:
classify --regime special at (8, 2), (8, 5/2), (9, 2) and (9, 5/2), which
revive at periods 4, 12, 12 and 24, at (9, 5/2) with --periods 24 and 23
(the revival on the last period, and one period short of it), and at
(8, 2) at (1.3, 0.7), where nothing revives within 64 periods; the
benchmark's three qfi scans;
phase-map sweeps at (8, 2) and (9, 5/2), fresh, resumed from a checkpoint
whose last record is cut mid-write, resumed from the first eighth of a
checkpoint, and at stride 3; two sweeps off the default ranges, where the
scan's key bookkeeping has more to do: a 17 x 13 grid at (8, 5/2) over
lambda in [0.3, 5.1] and g in [-1, 2], whose folds miss the grid (137 of
its 221 points computed, 84 by symmetry), and a one-point lambda axis at
(9, 2), lambda = pi with 9 g values over [-pi, pi] (3 of 9 computed); and
states at (8, 2), (8, 5/2), (9, 2) and
(9, 5/2), one parity class each, listing the milestone times and printing
every milestone, then an unsupported time and a 2^n basis over the
amplitude budget.

Usage: python3 tools/same_outputs.py SRC [OUT]   (OUT: a new directory;
a fresh temporary one when omitted)
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_SHAPE_9 = ["--n-sat", "9", "--spin", "5/2"]
_SHAPE_8 = ["--n-sat", "8", "--spin", "2"]
_SHAPE_8_HALF = ["--n-sat", "8", "--spin", "5/2"]
_SHAPE_9_INT = ["--n-sat", "9", "--spin", "2"]
_SHAPE_1_HALF = ["--n-sat", "1", "--spin", "1/2"]
_MAP_9X5 = ["--lambda-steps", "9", "--g-steps", "5"]


def _evolve(shape, lam, g, periods, output=True):
    return (["evolve", *shape, f"--lambda={lam}", "--g", g, "--periods",
             str(periods)] + (["--output", "traj.csv"] if output else []))


def _classify(regime, shape, *extra):
    return ["classify", *shape, "--regime", regime, *extra]


def _qfi(spin, *flags):
    return ["qfi", "--spin", spin, "--lambda", "pi", "--g", "pi/2", *flags,
            "--output", "qfi.csv"]


def _sweep(shape, *extra):
    return ["sweep", *shape, *extra, "--checkpoint", "map.ckpt",
            "--output", "map.csv"]


def _states(n_sat, spin, *time):
    return ["states", "--n-sat", n_sat, "--spin", spin, *time]


# (n_sat, spin, milestone times) of each parity class
_MILESTONES = [("8", "2", (1, 2, 3, 4)), ("8", "5/2", (3, 6, 12)),
               ("9", "2", (3, 6, 12)), ("9", "5/2", (1, 2, 3, 4, 5, 6, 12, 24))]


# (name, argv, checkpoint to start from: (earlier command, cut) or None)
COMMANDS = [
    ("evolve-16-pi", _evolve(["--n-sat", "16", "--spin", "5/2"], "pi", "pi/2",
                             24), None),
    ("evolve-9-2pi", _evolve(_SHAPE_9, "2pi", "3.0", 200), None),
    ("evolve-8-0", _evolve(_SHAPE_8, "0", "1.1", 60), None),
    ("evolve-3-minus-2pi", _evolve(["--n-sat", "3", "--spin", "1"], "-2pi",
                                   "0.3", 60, output=False), None),
    ("evolve-9-1.3", _evolve(_SHAPE_9, "1.3", "0.7", 100, output=False),
     None),
    ("evolve-9-2pi-negative", _evolve(_SHAPE_9, "2pi", "3.0", -1), None),
    ("evolve-9-pi-negative", _evolve(_SHAPE_9, "pi", "pi/2", -1), None),
    ("classify-lambda2pi", _classify("lambda2pi", _SHAPE_9), None),
    ("classify-lambda2pi-8-2", _classify("lambda2pi", _SHAPE_8), None),
    ("classify-lambda2pi-8-5over2", _classify("lambda2pi", _SHAPE_8_HALF),
     None),
    ("classify-lambda2pi-9-2", _classify("lambda2pi", _SHAPE_9_INT), None),
    ("classify-special", _classify("special", _SHAPE_8), None),
    ("classify-special-8-5over2", _classify("special", _SHAPE_8_HALF), None),
    ("classify-special-9-2", _classify("special", _SHAPE_9_INT), None),
    ("classify-special-9-5over2", _classify("special", _SHAPE_9), None),
    ("classify-special-9-at-24", _classify("special", _SHAPE_9, "--periods",
                                           "24"), None),
    ("classify-special-9-at-23", _classify("special", _SHAPE_9, "--periods",
                                           "23"), None),
    ("classify-special-8-1.3", _classify("special", _SHAPE_8, "--lambda",
                                         "1.3", "--g", "0.7"), None),
    ("classify-regular1", _classify("regular1", _SHAPE_8), None),
    ("classify-regular2", _classify("regular2", _SHAPE_8), None),
    ("classify-regular1-9-2", _classify("regular1", _SHAPE_9_INT), None),
    ("classify-regular2-8-5over2", _classify("regular2", _SHAPE_8_HALF),
     None),
    ("classify-special-1-1over2", _classify("special", _SHAPE_1_HALF), None),
    ("classify-lambda2pi-1-1over2", _classify("lambda2pi", _SHAPE_1_HALF),
     None),
    ("classify-lambda2pi-zero", _classify("lambda2pi", _SHAPE_9, "--periods",
                                          "0"), None),
    ("classify-lambda2pi-negative", _classify("lambda2pi", _SHAPE_9,
                                              "--periods", "-1"), None),
    ("classify-special-zero", _classify("special", _SHAPE_8, "--periods",
                                        "0"), None),
    ("classify-special-negative", _classify("special", _SHAPE_8, "--periods",
                                            "-1"), None),
    ("qfi-sizes-2", _qfi("2", "--n-sat", "2", "--sizes",
                         ",".join(str(n) for n in range(2, 13))), None),
    ("qfi-sizes-half", _qfi("1/2", "--n-sat", "2", "--sizes", "2,3,5,6,7"),
     None),
    ("qfi-periods-9", _qfi("5/2", "--n-sat", "9", "--periods-list",
                           ",".join(str(8 * k) for k in range(1, 13))), None),
    ("sweep-8-9x5", _sweep(_SHAPE_8, *_MAP_9X5, "--workers", "2"), None),
    ("sweep-8-9x5-cut", _sweep(_SHAPE_8, *_MAP_9X5, "--workers", "2"),
     ("sweep-8-9x5", "cut")),
    ("sweep-9-default", _sweep(_SHAPE_9), None),
    ("sweep-9-default-eighth", _sweep(_SHAPE_9),
     ("sweep-9-default", "eighth")),
    ("sweep-8-default-stride-3", _sweep(_SHAPE_8, "--stride", "3"), None),
    ("sweep-8-5over2-asymmetric", _sweep(
        _SHAPE_8_HALF, "--lambda-min", "0.3", "--lambda-max", "5.1",
        "--lambda-steps", "17", "--g-min=-1", "--g-max", "2", "--g-steps",
        "13", "--periods", "60"), None),
    ("sweep-9-2-one-lambda", _sweep(
        _SHAPE_9_INT, "--lambda-min", "pi", "--lambda-max", "pi",
        "--lambda-steps", "1", "--g-min=-pi", "--g-max", "pi", "--g-steps",
        "9", "--periods", "40"), None),
]
for n_sat, spin, times in _MILESTONES:
    label = f"states-{n_sat}-{spin.replace('/', 'over')}"
    COMMANDS.append((label, _states(n_sat, spin), None))
    COMMANDS += [(f"{label}-t{t}", _states(n_sat, spin, "--time", str(t)), None)
                 for t in times]
COMMANDS += [
    ("states-8-2-unsupported", _states("8", "2", "--time", "6"), None),
    ("states-30-1over2-over-budget", _states("30", "1/2", "--time", "3"),
     None),
]


def _cut(data: bytes, how: str) -> bytes:
    """A checkpoint's bytes with its last record cut halfway ('cut'), as a
    crash mid-write leaves it, or with the first eighth of its records
    after the header kept ('eighth'). Every record has the length of the
    first, which its 4-byte little-endian prefix gives."""
    magic = 4
    frame = 4 + int.from_bytes(data[magic:magic + 4], "little")
    if how == "cut":
        return data[:len(data) - frame // 2]
    records = (len(data) - magic) // frame - 1
    return data[:magic + frame * (1 + records // 8)]


def run(src: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for k, (name, argv, start) in enumerate(COMMANDS):
        work = out / f"{k:02d}-{name}"
        work.mkdir()
        if start is not None:
            source, how = start
            earlier = next(out.glob(f"*-{source}")) / "map.ckpt"
            (work / "map.ckpt").write_bytes(_cut(earlier.read_bytes(), how))
        done = subprocess.run([sys.executable, "-m", "spindtc.cli", *argv],
                              cwd=work, env=env, capture_output=True)
        (work / "exit_code").write_text(f"{done.returncode}\n")
        (work / "stdout").write_bytes(done.stdout)
        (work / "stderr").write_bytes(done.stderr)


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Run a fixed list of spindtc commands against SRC and "
                    "keep every output in OUT.")
    parser.add_argument("src", type=Path, help="the src directory to run")
    parser.add_argument("out", type=Path, nargs="?", default=None,
                        help="new output directory (default: a fresh "
                             "temporary one)")
    args = parser.parse_args()
    if not (args.src / "spindtc" / "cli.py").is_file():
        parser.error(f"{args.src} holds no spindtc package")
    if args.out is None:
        out = Path(tempfile.mkdtemp(prefix="same_outputs."))
    else:
        out = args.out
        out.mkdir(parents=True)
    try:
        run(args.src.resolve(), out)
    except BaseException:
        shutil.rmtree(out, ignore_errors=True)
        raise
    print(out)


if __name__ == "__main__":
    main()
