"""In-memory spans around the program's layers, for the traced run.

Public functions are wrapped at the name where their caller looks them up
(`spindtc.sweep.evolve` is what `compute_point` calls, `spindtc.cli.evolve`
what the `evolve` command calls). A name the program no longer has is left
alone, and the metrics built on it read 0. Spans are (name, start, end,
parent) and stay in memory until `write` is called at the end of the run.
"""

import os
from collections import Counter
from time import perf_counter


def _arg(args, kwargs, position, name):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _amplitude_count(state):
    amps = getattr(state, "amplitudes", None)
    return getattr(amps, "size", 0)


def _file_size(path):
    try:
        return os.path.getsize(path) if path else 0
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, span: str | None = None,
             count=None, before=None) -> None:
        """Replace module.attr by a wrapper recording a span and counts.

        before(args, kwargs) runs ahead of the call; count(counts, args,
        kwargs, result, before_value) runs after a call that returned.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            return

        def wrapper(*args, **kwargs):
            ahead = before(args, kwargs) if before else None
            index = self.begin(span) if span else None
            try:
                result = original(*args, **kwargs)
            finally:
                if index is not None:
                    self.end(index)
            if count:
                count(self.counts, args, kwargs, result, ahead)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def totals(self) -> tuple[Counter, Counter]:
        """Per span name: total duration and self time (duration minus the
        part covered by direct children)."""
        total, child = Counter(), Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[index]
        return total, own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index},{name},{start:.9f},{end:.9f},{parent}\n")


def _count_calls(key):
    def count(counts, args, kwargs, result, ahead):
        counts[key] += 1
    return count


def _count_evolve(counts, args, kwargs, result, ahead):
    state = _arg(args, kwargs, 0, "state")
    periods = _arg(args, kwargs, 2, "n_periods") or 0
    counts["floquet.periods"] += periods
    counts["floquet.amp_updates"] += _amplitude_count(state) * periods


def _count_metrology_evolve(counts, args, kwargs, result, ahead):
    _count_evolve(counts, args, kwargs, result, ahead)
    counts["metrology.evolve_calls"] += 1


def _checkpoint_size(args, kwargs):
    return _file_size(_arg(args, kwargs, 2, "checkpoint_path"))


def _count_checkpoint_bytes(counts, args, kwargs, result, ahead):
    path = _arg(args, kwargs, 2, "checkpoint_path")
    counts["sweep.checkpoint_bytes"] += _file_size(path) - ahead


def _count_resumed(counts, args, kwargs, result, ahead):
    counts["sweep.points_resumed"] += len(result)


def _count_csv_bytes(counts, args, kwargs, result, ahead):
    counts["sweep.csv_bytes"] += _file_size(_arg(args, kwargs, 1, "destination"))


def instrument(tracer: Tracer) -> None:
    """Wrap every layer the per-layer metrics are built from."""
    from spindtc import (cli, floquet, metrology, observables, spin_algebra,
                         sweep)

    tracer.wrap(floquet, "apply_kick", "floquet.kick")
    tracer.wrap(floquet, "apply_interaction", "floquet.interaction")
    tracer.wrap(cli, "evolve", "floquet.evolve", _count_evolve)
    tracer.wrap(sweep, "evolve", "floquet.evolve", _count_evolve)
    tracer.wrap(metrology, "evolve", "floquet.evolve", _count_metrology_evolve)
    for module in (cli, sweep, metrology):
        tracer.wrap(module, "precompute", "floquet.precompute")

    tracer.wrap(observables, "record", "observables.record",
                _count_calls("observables.records"))
    tracer.wrap(observables, "magnetization", "observables.magnetization")
    tracer.wrap(observables, "reduced_central_density", "hilbert.entropy")
    tracer.wrap(observables, "von_neumann_entropy", "hilbert.entropy")
    tracer.wrap(observables, "fidelity", "hilbert.fidelity")
    for module in (observables, spin_algebra, floquet):
        tracer.wrap(module, "spin_matrices",
                    count=_count_calls("spin_algebra.spin_matrices_calls"))

    tracer.wrap(cli, "detect_period", "diagnostics.detect_period")
    tracer.wrap(sweep, "stroboscopic_average", "diagnostics.averages")
    tracer.wrap(sweep, "relative_order_parameter", "diagnostics.averages")

    tracer.wrap(cli, "qfi_matrix", "metrology.qfi_matrix",
                _count_calls("metrology.rows"))

    tracer.wrap(sweep, "compute_point", "sweep.compute_point",
                _count_calls("sweep.points_computed"))
    tracer.wrap(cli, "run_grid", "sweep.run_grid", _count_checkpoint_bytes,
                before=_checkpoint_size)
    tracer.wrap(sweep, "read_checkpoint", "sweep.read_checkpoint",
                _count_resumed)
    tracer.wrap(cli, "write_csv", "sweep.write_csv", _count_csv_bytes)


# metric name -> (span name, "total" or "self")
SPAN_METRICS = {
    "floquet.interaction_s": ("floquet.interaction", "total"),
    "floquet.kick_s": ("floquet.kick", "total"),
    "floquet.evolve_self_s": ("floquet.evolve", "self"),
    "floquet.precompute_s": ("floquet.precompute", "total"),
    "observables.record_s": ("observables.record", "total"),
    "observables.magnetization_s": ("observables.magnetization", "total"),
    "hilbert.entropy_s": ("hilbert.entropy", "total"),
    "hilbert.fidelity_s": ("hilbert.fidelity", "total"),
    "diagnostics.detect_period_s": ("diagnostics.detect_period", "total"),
    "diagnostics.averages_s": ("diagnostics.averages", "total"),
    "metrology.qfi_matrix_s": ("metrology.qfi_matrix", "total"),
    "sweep.compute_point_s": ("sweep.compute_point", "total"),
    "sweep.run_grid_self_s": ("sweep.run_grid", "self"),
    "sweep.read_checkpoint_s": ("sweep.read_checkpoint", "total"),
    "sweep.write_csv_s": ("sweep.write_csv", "total"),
    "cli.dispatch_s": ("cli.dispatch", "total"),
    "cli.self_s": ("cli.dispatch", "self"),
}

COUNT_METRICS = {
    "floquet.amp_updates": "count",
    "floquet.periods": "count",
    "observables.records": "count",
    "spin_algebra.spin_matrices_calls": "count",
    "metrology.rows": "count",
    "metrology.evolve_calls": "count",
    "sweep.points_computed": "count",
    "sweep.points_resumed": "count",
    "sweep.checkpoint_bytes": "bytes",
    "sweep.csv_bytes": "bytes",
}


def layer_metrics(tracer: Tracer, rounds: int, factor: float) -> dict:
    """Per-round layer times (divided by the speed factor) and counts, in
    the result's metric format."""
    total, own = tracer.totals()
    out = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        value = (total if kind == "total" else own)[span] / rounds / factor
        out[metric] = {"value": value, "unit": "s"}
    for metric, unit in COUNT_METRICS.items():
        out[metric] = {"value": tracer.counts[metric] / rounds, "unit": unit}
    return out
