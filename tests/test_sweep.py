import itertools
import os
import struct

import numpy as np
import pytest

from spindtc.errors import ShapeError, CheckpointError
from spindtc.hilbert import CollectiveShape, x_polarized_state
from spindtc import cli
from spindtc.floquet import precompute, evolve
from spindtc.observables import trajectory_columns
from spindtc.diagnostics import (stroboscopic_average,
                                 relative_order_parameter, lambda_2pi_taxonomy)
from spindtc import observables, sweep
from spindtc.sweep import (GridSpec, run_grid,
                           read_checkpoint, write_csv, fold, CSV_HEADER,
                           CHECKPOINT_MAGIC, _pack_records)

import fold_reference


def _small_spec(periods=16, stride=2):
    return GridSpec((0.0, 2 * np.pi, 3), (0.1, np.pi, 3),
                    CollectiveShape(3, 1), periods, stride)


def test_grid_spec_validation():
    sh = CollectiveShape(3, 1)
    with pytest.raises(ShapeError):
        GridSpec((0, 1, 0), (0, 1, 2), sh, 10, 2)
    with pytest.raises(ShapeError):
        GridSpec((1, 0, 2), (0, 1, 2), sh, 10, 2)
    with pytest.raises(ShapeError):
        GridSpec((0, 1, 2), (0, 1, 2), sh, 1, 2)


def test_grid_spec_rejects_non_finite_ranges():
    sh = CollectiveShape(3, 1)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ShapeError, match="finite"):
            GridSpec((0, bad, 2), (0, 1, 2), sh, 10, 2)
        with pytest.raises(ShapeError, match="finite"):
            GridSpec((0, 1, 2), (bad, 1, 1), sh, 10, 2)


def test_compute_point_rejects_non_finite_angles():
    # a NaN angle on a one-point grid is a ShapeError, not numpy's
    # LinAlgError from the entropy of NaN densities
    for lam, g in ((float("nan"), 1.0), (1.0, float("inf"))):
        with pytest.raises(ShapeError, match="finite"):
            run_grid(GridSpec((lam, lam, 1), (g, g, 1), CollectiveShape(8, 4),
                              10, 2))


def test_grid_axes_and_count():
    spec = _small_spec()
    assert spec.n_points == 9
    assert len(spec.lambdas) == 3
    assert spec.gs[0] == pytest.approx(0.1)
    # the axes are built once and cannot be written; equal specs compare
    # and hash by their fields alone
    for axis in (spec.lambdas, spec.gs):
        with pytest.raises(ValueError):
            axis[0] = 1.0
    assert spec.gs is spec.gs
    assert spec == _small_spec() and hash(spec) == hash(_small_spec())
    assert list(GridSpec((2.5, 9.0, 1), (0.0, 1.0, 2), spec.shape, 4,
                         2).lambdas) == [2.5]


def test_run_grid_row_major_order():
    spec = _small_spec()
    table = run_grid(spec)
    assert table.shape == (9, 7) and table.dtype == float
    lams = spec.lambdas
    gs = spec.gs
    for i, lam in enumerate(lams):
        for j, g in enumerate(gs):
            assert table[i * 3 + j, :2].tolist() == [lam, g]


def test_worker_determinism():
    spec = _small_spec()
    assert run_grid(spec).tolist() == run_grid(spec).tolist() \
        == run_grid(spec).tolist()


def _count_work(monkeypatch):
    """Rows times periods of every evolve call the sweep makes: at a fixed
    shape, the work of its drive."""
    work = []

    def counted(state, tables, n_periods, observe=None):
        work.append(state[..., 0, 0].size * n_periods)
        return evolve(state, tables, n_periods, observe)

    monkeypatch.setattr(observables, "evolve", counted)
    return work


def _evolved_values(shape, lam, g, periods, stride):
    """The five map averages of (lam, g) from a direct floquet.evolve of
    the x-polarized start, each reduced by its definition: a path that
    shares neither observables.series nor _scan's reductions."""
    tables = precompute(shape, lam, g, g)
    traj = evolve(x_polarized_state(shape), tables, periods,
                  trajectory_columns)
    # one row per period n = 1..periods
    series = np.column_stack(traj[:3])
    sampled = series[stride - 1:periods // stride * stride:stride]
    # o_rel: the mean of (-1)^n M(n) minus the mean of M(n)
    weights = ((-1.0) ** np.arange(1, periods + 1) - 1.0) / periods
    return [*sampled[:, :2].mean(axis=0), series[:, 2].mean(),
            *(weights @ series[:, :2])]


def _criterion_11_subgrid(lambda_every, g_every):
    # every lambda_every-th lambda and g_every-th g of criterion 11's
    # 65 x 33 grid over [0, 4pi] x [0, 2pi] at (8, 2), 200 periods
    return GridSpec((0.0, 4 * np.pi, 64 // lambda_every + 1),
                    (0.0, 2 * np.pi, 32 // g_every + 1),
                    CollectiveShape(8, 4), 200, 2)


def _distinct_keys(spec) -> set:
    """The distinct evolution keys of spec's grid, as (lambda, g) tuples."""
    return set(map(tuple, sweep._canonical_points(spec)[0].tolist()))


def _at_canonical_grid_point(spec, index):
    """The one-point grid at the key run_grid evolves grid point index at,
    mapped back to the point: its record, if the scan is right."""
    keys, mirrored = sweep._canonical_points(spec)
    lams, gs = spec.lambdas, spec.gs
    i, j = divmod(index, len(gs))
    lam, g = keys[index]
    rec = run_grid(GridSpec((lam, lam, 1), (g, g, 1), spec.shape,
                            spec.periods, spec.stride))[0]
    return [float(lams[i]), float(gs[j]),
            *sweep._mirror(rec[2:], mirrored[index]).tolist()]


def test_row_independent_of_batch(monkeypatch):
    # 17 x 17 = 289 points with 21 keys, evolved in stacks of 8, 8 and 5
    # rows; each row is a one-point grid's, a stack of one, at its canonical
    # grid point: (pi, pi/2) itself, (3pi, 3pi/2) -> (pi, pi/2),
    # (2pi, 0) -> (0, 0) and (4pi, 13pi/8) -> (0, 3pi/8)
    spec = _criterion_11_subgrid(4, 2)
    assert sweep._stack_rows(CollectiveShape(8, 4)) == 271
    monkeypatch.setattr(sweep, "_stack_rows", lambda shape: 8)
    assert len(_distinct_keys(spec)) == 21
    records = run_grid(spec).tolist()
    for i, j in ((4, 4), (12, 12), (8, 0), (16, 13)):
        index = i * 17 + j
        assert (index, _at_canonical_grid_point(spec, index)) \
            == (index, records[index])
    # criterion 11's own 65 x 33 axes give the same rows bitwise
    assert _at_canonical_grid_point(_criterion_11_subgrid(1, 1), 16 * 33 + 24) \
        == records[4 * 17 + 12]


# one shape of each (n_sat, 2s) parity class: (4, 1), (2, 3/2), (3, 1),
# (3, 1/2); only the first has lambda period 2pi
_PARITY_CLASSES = [CollectiveShape(4, 2), CollectiveShape(2, 3),
                   CollectiveShape(3, 2), CollectiveShape(3, 1)]


def test_fold_keeps_canonical_points():
    # the cell is [0, pi] or [0, 2pi] in lambda, by the lambda period, times
    # [0, pi/2] at an even stride or [0, pi] at an odd one
    rng = np.random.default_rng(5)
    for shape, stride in itertools.product(_PARITY_CLASSES, (1, 2)):
        lam_max = np.pi if shape.n_sat % 2 == 0 and shape.two_s % 2 == 0 \
            else 2 * np.pi
        g_max = np.pi / 2 if stride % 2 == 0 else np.pi
        lams = [0.0, lam_max / 2, lam_max, *np.linspace(0, lam_max, 33),
                *rng.uniform(0, lam_max, 50)]
        gs = [0.0, g_max / 2, g_max, *np.linspace(0, g_max, 17),
              *rng.uniform(0, g_max, 50)]
        for lam, g in zip(lams, gs):
            lam, g = float(lam), float(g)
            lam_c, g_c, mirrored = fold(lam, g, shape, stride)
            assert [lam_c.hex(), g_c.hex(), mirrored] == \
                [lam.hex(), g.hex(), False]


def test_fold_maps_mirror_images_onto_one_point():
    lam, g = 1.3, 0.7
    for shape, stride in itertools.product(_PARITY_CLASSES, (1, 2, 3, 4)):
        for image in ((4 * np.pi - lam, g), (-lam, g), (lam + 4 * np.pi, g),
                      (lam, 2 * np.pi - g), (lam, -g), (-lam, g - 2 * np.pi)):
            assert fold(*image, shape, stride) == \
                pytest.approx((lam, g, False), abs=1e-14)
        # lambda + 2pi and 2pi - lambda fold onto lambda only where
        # e^{i 2pi J^x S^x} = 1; elsewhere both are 2pi - lambda
        period_2pi = shape.n_sat % 2 == 0 and shape.two_s % 2 == 0
        for image in ((lam + 2 * np.pi, g), (2 * np.pi - lam, g)):
            want = lam if period_2pi else 2 * np.pi - lam
            assert fold(*image, shape, stride) == \
                pytest.approx((want, g, False), abs=1e-14)
        # pi - g, pi + g and g - pi are mirror images of g at an even
        # stride; at an odd one they fold onto pi - g
        for image in ((lam, np.pi - g), (lam, np.pi + g), (-lam, g - np.pi)):
            want = (lam, g, True) if stride % 2 == 0 else \
                (lam, np.pi - g, False)
            assert fold(*image, shape, stride) == \
                pytest.approx(want, abs=1e-14)


def test_benchmark_grid_evolves_2_of_its_45_points(tmp_path, monkeypatch):
    # the 9 x 5 grid over [0, 4pi] x [0, 2pi] at (8, 2), stride 2: 4
    # canonical points, (0, 0) and (0, pi/2), (pi/2, pi/2), (pi, pi/2); the
    # last two are evolved once each, so 2/45 of the drive of evolving
    # every point, and the two on lambda = 0 have closed forms; a resume
    # from its checkpoint with the last record cut drives nothing, and
    # writes the file as the fresh run did
    spec = _criterion_11_subgrid(8, 8)
    keys, mirrored = sweep._canonical_points(spec)
    assert sorted(_distinct_keys(spec)) == [
        (0.0, 0.0), (0.0, np.pi / 2), (np.pi / 2, np.pi / 2),
        (np.pi, np.pi / 2)]
    work = _count_work(monkeypatch)
    path = tmp_path / "map.ckpt"
    records = run_grid(spec, checkpoint_path=str(path)).tolist()
    assert sum(work) == 2 * spec.periods
    # mirror rows repeat their canonical row, which is on this grid, with
    # both o_rel negated at a mirror image under g -> pi - g
    by_point = {tuple(r[:2]): r for r in records}
    for rec, key, mirror in zip(records, keys.tolist(), mirrored):
        canonical = by_point[tuple(key)][2:]
        assert rec[2:] == sweep._mirror(canonical, mirror).tolist()
    # the g = pi column
    assert [index for index, mirror in enumerate(mirrored) if mirror] == \
        list(range(2, 45, 5))
    whole = path.read_bytes()
    path.write_bytes(whole[:-32])
    work.clear()
    assert run_grid(spec, checkpoint_path=str(path)).tolist() == records
    assert sum(work) == 0
    assert path.read_bytes() == whole


@pytest.mark.parametrize("shape", _PARITY_CLASSES,
                         ids=lambda sh: f"{sh.n_sat}-{sh.two_s}")
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_grid_matches_unfolded_scan(tmp_path, monkeypatch, shape, stride):
    # every row of a folded 9 x 9 scan over [0, 4pi] x [0, 2pi] is the row
    # of evolving its own point; a resume from the checkpoint with its last
    # record, at (4pi, 2pi), cut evolves nothing, since (0, 0) is stored
    spec = GridSpec((0.0, 4 * np.pi, 9), (0.0, 2 * np.pi, 9), shape, 12,
                    stride)
    points = [(float(lam), float(g))
              for lam in spec.lambdas for g in spec.gs]
    path = tmp_path / "map.ckpt"
    records = run_grid(spec, checkpoint_path=str(path)).tolist()
    unfolded = sweep._scan(shape, points, spec.periods, stride)
    for rec, point, values in zip(records, points, unfolded):
        assert tuple(rec[:2]) == point
        np.testing.assert_allclose(rec[2:], values, rtol=0, atol=1e-12)
    whole = path.read_bytes()
    path.write_bytes(whole[:-32])
    work = _count_work(monkeypatch)
    assert run_grid(spec, checkpoint_path=str(path)).tolist() == records
    assert sum(work) == 0
    assert path.read_bytes() == whole


@pytest.mark.parametrize("shape", _PARITY_CLASSES,
                         ids=lambda sh: f"{sh.n_sat}-{sh.two_s}")
@pytest.mark.parametrize("stride", [1, 2])
def test_no_kick_line_takes_the_record_of_the_origin(monkeypatch, shape,
                                                     stride):
    # at g = 0 the x-polarized start is an eigenvector of the drive, so
    # every (lambda, 0) and (lambda, 2pi) row, and at an even stride every
    # (lambda, pi) row with both o_rel negated, is the (0, 0) row
    spec = GridSpec((0.0, 4 * np.pi, 9), (0.0, 2 * np.pi, 5), shape, 12,
                    stride)
    points = [(float(lam), float(g))
              for lam in spec.lambdas for g in spec.gs]
    for lam, _ in points:
        assert fold(lam, 0.0, shape, stride) == \
            fold(lam, 2 * np.pi, shape, stride) == (0.0, 0.0, False)
        if stride % 2 == 0:
            assert fold(lam, np.pi, shape, stride) == (0.0, 0.0, True)
    work = _count_work(monkeypatch)
    records = run_grid(spec).tolist()
    origin = records[0][2:]
    line = [(k, False) for k in range(0, 45, 5)] + \
        [(k, False) for k in range(4, 45, 5)]
    if stride % 2 == 0:
        line += [(k, True) for k in range(2, 45, 5)]
    for index, mirrored in line:
        assert records[index][2:] == sweep._mirror(origin, mirrored).tolist()
    # g = pi/2 and 3pi/2 fold onto the lambdas of the cell, and at an odd
    # stride so does g = pi: one evolution each, but none on lambda = 0 or
    # 2pi, which have closed forms; the line's record is the start's, with
    # no evolution
    lams_evolved = 2 if shape.n_sat % 2 == 0 and shape.two_s % 2 == 0 else 3
    assert sum(work) == spec.periods * lams_evolved * (2 if stride % 2 else 1)
    # each row of the line is its own point's, evolved directly
    for index, _ in line:
        np.testing.assert_allclose(
            records[index][2:],
            _evolved_values(shape, *points[index], spec.periods, stride),
            rtol=0, atol=1e-12)
    # a 51-step g axis puts pi an ulp above pi, which folds an ulp above 0
    # at an even stride: the grid value 0 keys it, and so does (0, 0)
    spec = GridSpec((0.0, 4 * np.pi, 9), (0.0, 2 * np.pi, 51), shape, 12,
                    stride)
    assert spec.gs[25] > np.pi
    keys, _ = sweep._canonical_points(spec)
    line = [*range(0, 459, 51), *range(50, 459, 51)]
    if stride % 2 == 0:
        line += range(25, 459, 51)
    assert {tuple(keys[index]) for index in line} == {(0.0, 0.0)}


@pytest.mark.parametrize("shape", _PARITY_CLASSES,
                         ids=lambda sh: f"{sh.n_sat}-{sh.two_s}")
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("periods", [12, 13])
def test_no_kick_record_is_the_start_series(monkeypatch, shape, stride,
                                            periods):
    # the (0, 0) record is the reductions of the start's constant series
    # (1/2, s, 0), bitwise, on a grid and on a one-point grid at any lambda
    # with g = 0, and neither evolves anything for it
    start = [0.5] * (periods + 1), [shape.s] * (periods + 1)
    count = periods // stride
    want = [stroboscopic_average(start[0], stride, count),
            stroboscopic_average(start[1], stride, count), 0.0,
            relative_order_parameter(start[0], periods)[2],
            relative_order_parameter(start[1], periods)[2]]
    if periods % 2 == 0:
        assert want == [0.5, shape.s, 0.0, -0.5, -shape.s]
    work = _count_work(monkeypatch)
    # the lambda axis of the no-kick line alone
    spec = GridSpec((0.0, 4 * np.pi, 9), (0.0, 0.0, 1), shape, periods,
                    stride)
    records = run_grid(spec).tolist()
    for lam in (0.0, 1.3, np.pi, 4 * np.pi - 0.1):
        records += run_grid(GridSpec((lam, lam, 1), (0.0, 0.0, 1), shape,
                                     periods, stride)).tolist()
    assert work == []
    for rec in records:
        assert [v.hex() for v in rec[2:]] == [float(v).hex() for v in want]


@pytest.mark.parametrize("shape", _PARITY_CLASSES,
                         ids=lambda sh: f"{sh.n_sat}-{sh.two_s}")
def test_no_kick_record_matches_a_direct_evolution(shape):
    # the start's record at g = 0 is what evolving the start gives there,
    # which _scan, no longer evolving g = 0, cannot check by itself
    for lam in (0.0, 0.7, 2.9, np.pi, 5.1, 4 * np.pi - 0.3):
        np.testing.assert_allclose(
            run_grid(GridSpec((lam, lam, 1), (0.0, 0.0, 1), shape, 24,
                              2))[0][2:],
            _evolved_values(shape, lam, 0.0, 24, 2), rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", _PARITY_CLASSES,
                         ids=lambda sh: f"{sh.n_sat}-{sh.two_s}")
def test_engine_follows_the_closed_form_on_lambda_0_and_2pi(shape):
    # at lambda = 0 the drive is the kick alone; at lambda = 2pi the
    # interaction is also a pi turn about x of each subsystem that the
    # lambda = 2pi table says doubles its period. The state stays a product:
    # the entropy is 0, a magnetization is 1/2 or s times cos of its x angle
    # phi (n g, or for a turned subsystem g at odd n and 0 at even n), and
    # the fidelity to the start is cos^{2 n_sat}(phi_J/2) cos^{4s}(phi_c/2).
    # The engine checks the closed form that _scan writes for these rows
    periods = 60
    n = np.arange(1, periods + 1)
    taxonomy = lambda_2pi_taxonomy(shape)
    for lam, g in itertools.product((0.0, 2 * np.pi), (0.3, 1.1, 3.0)):
        phi_j, phi_c = (
            np.where(lam == 2 * np.pi and behavior == "period doubling",
                     n % 2, n) * g
            for behavior in taxonomy[:2])
        want = np.stack([n, 0.5 * np.cos(phi_j), shape.s * np.cos(phi_c),
                         np.zeros(periods),
                         np.cos(phi_j / 2) ** (2 * shape.n_sat)
                         * np.cos(phi_c / 2) ** (2 * shape.two_s)], axis=1)
        traj = evolve(x_polarized_state(shape),
                      precompute(shape, lam, g, g),
                      periods, trajectory_columns)
        np.testing.assert_allclose(np.column_stack((n, *traj)), want, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(
            run_grid(GridSpec((lam, lam, 1), (g, g, 1), shape, periods,
                              2))[0][2:],
            _evolved_values(shape, lam, g, periods, 2), rtol=0, atol=1e-12)


def _closed_form_rows_before_sharing(shape, points, periods, stride):
    """The five map averages _scan wrote for points on lambda = 0 and 2pi
    before observables.product_series held the closed form: its series
    operations and reductions as they were, vectorised over the points."""
    lams, gs = np.asarray(points, dtype=float).T
    n = np.arange(periods + 1)[:, None]
    turned = lams == 2 * np.pi
    satellite = np.where(turned & (shape.two_s % 2 == 1), n % 2, n) * gs
    central = np.where(turned & (shape.n_sat % 2 == 1), n % 2, n) * gs
    m_sat, m_c = 0.5 * np.cos(satellite), shape.s * np.cos(central)
    entropy = np.zeros((periods, len(points)))
    count = periods // stride
    return np.stack((stroboscopic_average(m_sat, stride, count),
                     stroboscopic_average(m_c, stride, count),
                     np.ascontiguousarray(entropy.T).mean(axis=-1),
                     relative_order_parameter(m_sat, periods)[2],
                     relative_order_parameter(m_c, periods)[2]), axis=-1)


@pytest.mark.parametrize("shape", _PARITY_CLASSES,
                         ids=lambda sh: f"{sh.n_sat}-{sh.two_s}")
def test_closed_form_rows_are_unchanged(monkeypatch, shape):
    # _scan takes its lambda = 0 and 2pi series from the shared closed form,
    # and writes bitwise the rows it wrote from its own copy of it, on
    # canonical and other g, with no evolution
    gs = [0.0, 0.3, 1.1, 3.0, np.pi / 2, np.pi, 5.9, -2.0, 7.3, 100.0]
    points = [(lam, g) for lam in (0.0, 2 * np.pi) for g in gs]
    work = _count_work(monkeypatch)
    for periods, stride in ((24, 2), (25, 1), (31, 3), (200, 2)):
        got = sweep._scan(shape, points, periods, stride)
        want = _closed_form_rows_before_sharing(shape, points, periods, stride)
        assert got.tobytes() == want.tobytes()
    assert work == []


def test_default_grid_no_kick_rows_at_9_5_2(tmp_path):
    # at (9, 5/2) the evolved (0, 0) row drifted above 1/2 and below zero
    # entropy; every row keyed to (0, 0) now reads the start's exact record
    out = tmp_path / "map.csv"
    assert cli.parse_and_dispatch(["sweep", "--n-sat", "9", "--spin", "5/2",
                                   "--output", str(out)]) == 0
    rows = [line.split(",", 2) for line in out.read_text().splitlines()[2:]]
    gs = np.linspace(0.0, 2 * np.pi, 33)
    by_g = {"%.17g" % gs[0]: "0.5,2.5,0,-0.5,-2.5",
            "%.17g" % gs[16]: "0.5,2.5,0,0.5,2.5",
            "%.17g" % gs[32]: "0.5,2.5,0,-0.5,-2.5"}
    line = [values for _, g, values in rows if g in by_g]
    assert len(rows) == 2145 and len(line) == 195
    assert line == [by_g[g] for _, g, _ in rows if g in by_g]


def _folds(spec):
    keys, mirrored = sweep._canonical_points(spec)
    return [(lam.hex(), g.hex()) for lam, g in keys], list(mirrored)


@pytest.mark.parametrize("shape", _PARITY_CLASSES,
                         ids=lambda sh: f"{sh.n_sat}-{sh.two_s}")
@pytest.mark.parametrize("stride", [1, 2])
def test_array_fold_matches_the_per_point_reference(shape, stride):
    # the array fold and snap give bitwise the keys and mirror flags of the
    # per-point loop on Python floats, on the default grid, the 51-step g
    # axis, the off-grid 7 x 5 grid and single-step axes
    specs = [GridSpec((0.0, 4 * np.pi, 65), (0.0, 2 * np.pi, 33), shape,
                      200, stride),
             GridSpec((0.0, 4 * np.pi, 9), (0.0, 2 * np.pi, 51), shape, 12,
                      stride),
             GridSpec((0.1, 3.9, 7), (0.05, 2.9, 5), shape, 24, stride),
             GridSpec((2.5, 2.5, 1), (0.0, 2 * np.pi, 33), shape, 12, stride),
             GridSpec((0.0, 4 * np.pi, 65), (np.pi, np.pi, 1), shape, 12,
                      stride),
             GridSpec((4 * np.pi, 4 * np.pi, 1), (0.0, 0.0, 1), shape, 12,
                      stride)]
    for spec in specs:
        keys, mirrored = fold_reference.canonical_points(spec)
        assert _folds(spec) == \
            ([(lam.hex(), g.hex()) for lam, g in keys], mirrored)


def test_off_grid_folds_keep_their_floats(monkeypatch):
    # no fold of this grid lands on it, so every point is evolved, as with
    # float keys, and each row is its own point's to 1e-12
    spec = GridSpec((0.1, 3.9, 7), (0.05, 2.9, 5), CollectiveShape(8, 4), 24, 2)
    points = [(float(lam), float(g))
              for lam in spec.lambdas for g in spec.gs]
    keys, _ = sweep._canonical_points(spec)
    assert keys.tolist() == [list(fold(*point, spec.shape, spec.stride)[:2])
                             for point in points]
    work = _count_work(monkeypatch)
    records = run_grid(spec)
    assert sum(work) == spec.n_points * spec.periods
    unfolded = sweep._scan(spec.shape, points, spec.periods, spec.stride)
    for rec, values in zip(records, unfolded):
        np.testing.assert_allclose(rec[2:], values, rtol=0, atol=1e-12)


def test_stack_rows_follow_the_entry_budget():
    # per-row kick factors grow as (n_sat+1)^2: (8, 2) keeps stacks of at
    # least 256 points, larger shapes get shorter stacks, and a shape whose
    # row alone is over the budget gets one point a stack
    assert sweep._stack_rows(CollectiveShape(8, 4)) >= 256
    assert sweep._stack_rows(CollectiveShape(41, 5)) \
        < sweep._stack_rows(CollectiveShape(9, 5))
    assert sweep._stack_rows(CollectiveShape(5000, 4)) == 1


def test_resume_mid_chunk(tmp_path, monkeypatch):
    # the checkpoint holds the fingerprint and the first 20 of 289 records,
    # which hold 7 of the grid's 21 keys: the fresh run's stacks of 8 rows
    # were keys 0-7, 8-15 and 16-20, the resume's are the other 14 keys in
    # two stacks of 8 and 6, and every row must come out the same. The
    # same scan without a checkpoint, run in an empty directory, leaves it
    # empty and returns bitwise the same table, and it reads no file: not
    # even os.devnull, here a regular file holding another grid's whole
    # checkpoint, which stays as it is
    spec = _criterion_11_subgrid(4, 2)
    monkeypatch.setattr(sweep, "_stack_rows", lambda shape: 8)
    path = tmp_path / "mid.bin"
    fresh = run_grid(spec, checkpoint_path=str(path))
    whole = path.read_bytes()
    path.write_bytes(whole[:len(CHECKPOINT_MAGIC) + 64 * 21])
    assert len(read_checkpoint(str(path), spec)) == 20
    work = _count_work(monkeypatch)
    resumed = run_grid(spec, checkpoint_path=str(path))
    assert work == [8 * spec.periods, 6 * spec.periods]
    assert path.read_bytes() == whole
    other = tmp_path / "null"
    run_grid(_small_spec(), checkpoint_path=str(other))
    held = other.read_bytes()
    monkeypatch.setattr(os, "devnull", str(other))
    bare = tmp_path / "bare"
    bare.mkdir()
    monkeypatch.chdir(bare)
    assert run_grid(spec).tobytes() == fresh.tobytes() == resumed.tobytes()
    assert list(bare.iterdir()) == []
    assert other.read_bytes() == held


def test_disentangled_column_at_lambda_2pi():
    sh = CollectiveShape(5, 3)
    for g in (0.3, 1.1, 2.0, 3.0):
        rec = run_grid(GridSpec((2 * np.pi, 2 * np.pi, 1), (g, g, 1), sh,
                                24, 2))[0]
        assert rec[4] < 1e-8     # avg_entropy


def test_special_point_revival_average():
    rec = run_grid(GridSpec((np.pi, np.pi, 1), (np.pi / 2, np.pi / 2, 1),
                            CollectiveShape(8, 5), 24, 12))[0]
    assert rec[2] == pytest.approx(0.5, abs=1e-8)     # avg_m_sat


def test_csv_round_trip(tmp_path):
    spec = _small_spec()
    records = run_grid(spec)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(records, str(p1))
    # the comment line and the column names, then one row per record
    assert p1.read_text().splitlines()[1] == CSV_HEADER
    back = np.loadtxt(p1, delimiter=",", skiprows=2)
    write_csv(back, str(p2))
    assert p1.read_text() == p2.read_text()
    assert back.tolist() == records.tolist()


def test_csv_empty_and_errors(tmp_path):
    p = tmp_path / "empty.csv"
    write_csv(np.empty((0, 7)), str(p))
    text = p.read_text().splitlines()
    assert text[0].startswith("#")
    assert text[1] == "lambda,g,avg_m_sat,avg_m_c,avg_entropy,o_rel_sat,o_rel_c"
    assert len(text) == 2       # no rows


def test_checkpoint_round_trip(tmp_path):
    # record 7 of this 3 x 4 grid sits at (1, 2)
    spec = GridSpec((0.0, 2.0, 3), (-1.0, 2.0, 4), CollectiveShape(3, 1), 16, 2)
    path = tmp_path / "c.bin"
    rec = [1.0, 2.0, 0.25, -0.5, 0.01, 0.1, -0.1]
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(_pack_records([sweep._SPEC_INDEX], [sweep._fingerprint(spec)]))
        fh.write(_pack_records([7], [rec]))
    frames = read_checkpoint(str(path), spec)
    assert frames["index"].tolist() == [7]
    assert frames["values"][0].tolist() == rec
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE")
    with pytest.raises(CheckpointError):
        read_checkpoint(str(bad), spec)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(CHECKPOINT_MAGIC + b"\x3c\x00\x00\x00\x01")
    with pytest.raises(CheckpointError):
        read_checkpoint(str(trunc), spec)


def test_checkpoint_with_a_corrupt_middle_prefix_is_rejected(tmp_path):
    # the body is a whole number of records, but one length prefix in the
    # middle is not the records' length: read and resume both refuse it,
    # and the resume leaves the file as it is
    spec = _small_spec()
    path = tmp_path / "map.ckpt"
    run_grid(spec, checkpoint_path=str(path))
    data = bytearray(path.read_bytes())
    data[len(CHECKPOINT_MAGIC) + 4 * sweep._FRAME.itemsize] += 1
    path.write_bytes(data)
    with pytest.raises(CheckpointError, match="truncated or missized record"):
        read_checkpoint(str(path), spec)
    with pytest.raises(CheckpointError, match="truncated or missized record"):
        run_grid(spec, checkpoint_path=str(path))
    assert path.read_bytes() == data


def test_checkpoint_holds_the_records_known_before_a_failed_stack(
        tmp_path, monkeypatch):
    # stacks of 8 keys; the second stack's evolution fails. The checkpoint
    # then holds the header and the records of every point ahead of the
    # first point of that stack's first key, as the fresh run wrote them,
    # and a resume finishes the scan as the fresh run did
    spec = _criterion_11_subgrid(4, 2)
    monkeypatch.setattr(sweep, "_stack_rows", lambda shape: 8)
    fresh_path = tmp_path / "fresh.ckpt"
    fresh = run_grid(spec, checkpoint_path=str(fresh_path)).tolist()
    keys, _ = sweep._canonical_points(spec)
    firsts = sorted({tuple(key): k for k, key
                     in reversed(list(enumerate(keys.tolist())))}.values())
    ahead = firsts[8]
    calls = []

    def failing(state, tables, n_periods, observe=None):
        calls.append(n_periods)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return evolve(state, tables, n_periods, observe)

    path = tmp_path / "map.ckpt"
    with monkeypatch.context() as m:
        m.setattr(observables, "evolve", failing)
        with pytest.raises(KeyboardInterrupt):
            run_grid(spec, checkpoint_path=str(path))
    header = len(CHECKPOINT_MAGIC) + sweep._FRAME.itemsize
    assert ahead > 8
    assert path.read_bytes() == \
        fresh_path.read_bytes()[:header + ahead * sweep._FRAME.itemsize]
    assert run_grid(spec, checkpoint_path=str(path)).tolist() == fresh
    assert path.read_bytes() == fresh_path.read_bytes()


def test_checkpoint_resume_no_recompute(tmp_path, monkeypatch):
    spec = _small_spec()
    full = run_grid(spec).tolist()
    path = str(tmp_path / "resume.bin")
    lams = spec.lambdas
    gs = spec.gs
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(_pack_records([sweep._SPEC_INDEX], [sweep._fingerprint(spec)]))
        for index in range(5):
            i, j = divmod(index, 3)
            lam, g = float(lams[i]), float(gs[j])
            rec = run_grid(GridSpec((lam, lam, 1), (g, g, 1),
                                    CollectiveShape(3, 1), spec.periods,
                                    spec.stride))[0]
            fh.write(_pack_records([index], [rec]))
    work = _count_work(monkeypatch)
    resumed = run_grid(spec, checkpoint_path=path).tolist()
    ops_resumed = sum(work)
    work.clear()
    run_grid(spec)
    ops_full = sum(work)
    assert resumed == full
    # the g = pi column folds onto (0, 0), so a fresh scan has 7 keys and
    # evolves the 2 at lambda = pi, the rest having closed forms; records
    # 0-4 hold 5 of the keys, both lambda = pi keys among them, so the
    # resume evolves nothing
    assert ops_full == 2 * spec.periods
    assert ops_resumed == 0


def test_checkpoint_written_during_run(tmp_path):
    spec = _small_spec()
    path = str(tmp_path / "fresh.bin")
    table = run_grid(spec, checkpoint_path=path)
    frames = read_checkpoint(path, spec)
    assert frames["index"].tolist() == list(range(9))
    assert frames["values"].tolist() == table.tolist()


@pytest.mark.parametrize("kept", [2, 34])
def test_resume_from_cut_record(tmp_path, monkeypatch, kept):
    # a crash mid-write leaves the last record cut after `kept` of its 64
    # bytes; the resume drops it, recomputes that point and leaves the file
    # whole, byte for byte as an uninterrupted run writes it. Every point of
    # this grid is in the cell, so no stored record shares the last point's
    # key, (2pi, 1.2), whose record is the closed form's, with no evolution.
    # The fresh scan, this resume and a resume from the whole file each
    # open the checkpoint once
    spec = GridSpec((0.0, 2 * np.pi, 3), (0.1, 1.2, 3), CollectiveShape(3, 1),
                    16, 2)
    assert len(_distinct_keys(spec)) == spec.n_points
    path = tmp_path / "cut.bin"
    opened = []

    def counted(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    def scan(report=None):
        # the scan's rows, and how often it opened the checkpoint
        before = opened.count(str(path))
        rows = run_grid(spec, checkpoint_path=str(path), report=report)
        return rows.tolist(), opened.count(str(path)) - before

    monkeypatch.setattr(sweep, "open", counted, raising=False)
    fresh, fresh_opens = scan()
    whole = path.read_bytes()
    path.write_bytes(whole[:len(whole) - 64 + kept])
    with pytest.raises(CheckpointError):
        read_checkpoint(str(path), spec)
    work = _count_work(monkeypatch)
    report = []
    resumed, cut_opens = scan(report.append)
    assert resumed == fresh
    # the cut point's row alone
    assert report == ["computed 1 of 9 points (0 by symmetry, 8 resumed)"]
    assert sum(work) == 0
    assert path.read_bytes() == whole
    again, whole_opens = scan()
    assert again == fresh
    assert [fresh_opens, cut_opens, whole_opens] == [1, 1, 1]
    assert path.read_bytes() == whole
    assert len(read_checkpoint(str(path), spec)) == spec.n_points


def test_resume_rejects_checkpoint_of_another_grid(tmp_path):
    ckpt = tmp_path / "other.bin"
    path = str(ckpt)
    run_grid(GridSpec((0.0, 2 * np.pi, 3), (0.2, np.pi, 3), CollectiveShape(3, 1),
                      16, 2), checkpoint_path=path)
    written = ckpt.read_bytes()
    other = GridSpec((1.0, 3.0, 3), (0.5, 1.5, 3), CollectiveShape(5, 1), 16, 2)
    with pytest.raises(CheckpointError, match="record 0 is at"):
        run_grid(other, checkpoint_path=path)
    # same axes on a smaller grid: records 0..5 fit, record 6 does not
    smaller = GridSpec((0.0, np.pi, 2), (0.2, np.pi, 3), CollectiveShape(3, 1), 16, 2)
    with pytest.raises(CheckpointError, match="index 6 is outside"):
        run_grid(smaller, checkpoint_path=path)
    assert ckpt.read_bytes() == written


@pytest.mark.parametrize("n_sat,spin,periods,stride", [
    (6, "2", 40, 4), (4, "1/2", 16, 2), (3, "1", 16, 2), (3, "1/2", 18, 2),
    (3, "1/2", 16, 4)])
def test_resume_rejects_checkpoint_of_another_spec(tmp_path, n_sat, spin,
                                                   periods, stride):
    # same axes, so every record sits on the grid; only the fingerprint
    # record after the magic tells the scans apart from the (3, 1/2) one
    path = str(tmp_path / "spec.bin")
    axes = ((0.5, 2.0, 2), (0.3, 1.0, 2))
    run_grid(GridSpec(*axes, CollectiveShape(3, 1), 16, 2), checkpoint_path=path)
    written = (tmp_path / "spec.bin").read_bytes()
    shape = CollectiveShape(n_sat, cli.parse_spin(spin))
    with pytest.raises(CheckpointError, match="written for"):
        run_grid(GridSpec(*axes, shape, periods, stride), checkpoint_path=path)
    assert cli.parse_and_dispatch([
        "sweep", "--n-sat", str(n_sat), "--spin", spin,
        "--lambda-min", "0.5", "--lambda-max", "2.0", "--lambda-steps", "2",
        "--g-min", "0.3", "--g-max", "1.0", "--g-steps", "2",
        "--periods", str(periods), "--stride", str(stride),
        "--checkpoint", path, "--output", str(tmp_path / "out.csv")]) == 1
    assert (tmp_path / "spec.bin").read_bytes() == written


def test_csv_write_is_atomic(tmp_path):
    path = tmp_path / "map.csv"
    table = run_grid(_small_spec())
    write_csv(table, str(path))
    before = path.read_bytes()
    # a row the formatter rejects fails the write part-way
    bad = table.astype(object)
    bad[4, 3] = "x"     # avg_m_c
    with pytest.raises(TypeError):
        write_csv(bad, str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["map.csv"]


def test_empty_checkpoint_starts_fresh(tmp_path, monkeypatch):
    # a scan killed before its first stack finished: the header is already
    # on disk, and a file left empty by an earlier kill is a fresh start
    spec = _small_spec()
    path = tmp_path / "map.ckpt"
    path.write_bytes(b"")
    header = len(CHECKPOINT_MAGIC) + sweep._FRAME.itemsize

    def killed(*args):
        assert path.read_bytes()[:len(CHECKPOINT_MAGIC)] == CHECKPOINT_MAGIC
        assert path.stat().st_size == header
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(sweep, "_scan", killed)
        with pytest.raises(KeyboardInterrupt):
            run_grid(spec, checkpoint_path=str(path))
    assert len(read_checkpoint(str(path), spec)) == 0
    path.write_bytes(b"")
    fresh = run_grid(spec).tolist()
    assert run_grid(spec, checkpoint_path=str(path)).tolist() == fresh
    assert read_checkpoint(str(path), spec)["values"].tolist() == fresh


def test_collective_grid_beyond_the_full_layout():
    # n_sat = 64 at s = 2 is far past the 2^n layout's capacity
    spec = GridSpec((0.5, 2.5, 3), (0.3, 1.9, 3), CollectiveShape(64, 4), 12, 2)
    records = run_grid(spec).tolist()
    lams, gs = spec.lambdas, spec.gs
    assert records == [run_grid(GridSpec((lam, lam, 1), (g, g, 1), spec.shape,
                                         12, 2))[0].tolist()
                       for lam in lams.tolist() for g in gs.tolist()]


def test_resume_from_cut_fingerprint(tmp_path):
    # a kill inside the header's fingerprint record: the resume writes the
    # header anew, so a later scan of another spec is still rejected
    spec = _small_spec()
    path = tmp_path / "map.ckpt"
    run_grid(spec, checkpoint_path=str(path))
    path.write_bytes(path.read_bytes()[:len(CHECKPOINT_MAGIC) + 30])
    assert run_grid(spec, checkpoint_path=str(path)).tolist() \
        == run_grid(spec).tolist()
    with pytest.raises(CheckpointError, match="written for"):
        run_grid(_small_spec(periods=32), checkpoint_path=str(path))


def test_checkpoint_without_fingerprint_is_rejected(tmp_path):
    # a 2 x 2 checkpoint at (3, 1/2), 16 periods, with its fingerprint
    # record deleted: nothing ties its records to a scan, so a 32-period
    # resume exits 1 instead of returning the 16-period values, and leaves
    # the file as it is
    path = tmp_path / "map.ckpt"
    argv = ["sweep", "--n-sat", "3", "--spin", "1/2", "--lambda-steps", "2",
            "--g-steps", "2", "--checkpoint", str(path),
            "--output", str(tmp_path / "map.csv")]
    assert cli.parse_and_dispatch(argv + ["--periods", "16"]) == 0
    data = path.read_bytes()
    data = data[:len(CHECKPOINT_MAGIC)] + \
        data[len(CHECKPOINT_MAGIC) + sweep._FRAME.itemsize:]
    path.write_bytes(data)
    spec = GridSpec((0.0, 4 * np.pi, 2), (0.0, 2 * np.pi, 2),
                    CollectiveShape(3, 1), 16, 2)
    with pytest.raises(CheckpointError, match="no spec fingerprint"):
        read_checkpoint(str(path), spec)
    assert cli.parse_and_dispatch(argv + ["--periods", "32"]) == 1
    assert path.read_bytes() == data


def _packed_record(index, values) -> bytes:
    """One checkpoint record, field by field: the length prefix 60, the
    grid index as a uint32 and seven float64 values, little-endian."""
    return struct.pack("<4sI7d", (60).to_bytes(4, "little"), index, *values)


# the sweep command of _small_spec()
_SMALL_ARGV = ["sweep", "--n-sat", "3", "--spin", "1/2",
               "--lambda-min", "0", "--lambda-max", "2pi", "--lambda-steps", "3",
               "--g-min", "0.1", "--g-max", "pi", "--g-steps", "3",
               "--periods", "16", "--stride", "2"]


def test_checkpoint_bytes_are_pinned(tmp_path):
    # the checkpoint of the 3 x 3 grid at (3, 1/2), whose g > pi/2 columns
    # hold mirror points, is the magic, the fingerprint record at index
    # 2^32 - 1 (n_sat, two_s, periods, stride, lambda steps, g steps and
    # record version 5) and each point's row in grid order. A file of that
    # layout with its first 4 rows resumes to the same CSV and checkpoint,
    # byte for byte, as the fresh scan
    spec = _small_spec()
    assert sweep._canonical_points(spec)[1].tolist() == [False, True, True] * 3
    argv = _SMALL_ARGV
    path, fresh = tmp_path / "map.ckpt", tmp_path / "fresh.csv"
    assert cli.parse_and_dispatch(
        argv + ["--checkpoint", str(path), "--output", str(fresh)]) == 0
    records = run_grid(spec).tolist()
    want = b"DTC1" + _packed_record(2 ** 32 - 1, (3, 1, 16, 2, 3, 3, 5)) + \
        b"".join(_packed_record(index, rec)
                 for index, rec in enumerate(records))
    assert path.read_bytes() == want
    path.write_bytes(want[:4 + 64 * 5])
    resumed = tmp_path / "resumed.csv"
    assert cli.parse_and_dispatch(
        argv + ["--checkpoint", str(path), "--output", str(resumed)]) == 0
    assert resumed.read_bytes() == fresh.read_bytes()
    assert path.read_bytes() == want


def test_checkpoint_with_a_repeated_index_is_rejected(tmp_path):
    # the 3 x 3 grid at (3, 1/2) with the fingerprint and index 0 twice, the
    # second copy with all five averages 9.0: which copy a resume would use
    # is not defined, so the file is rejected, and sweep exits 1 without a
    # CSV
    spec = _small_spec()
    rec = run_grid(GridSpec((0.0, 0.0, 1), (0.1, 0.1, 1), spec.shape,
                            spec.periods, spec.stride))[0].tolist()
    path = tmp_path / "map.ckpt"
    path.write_bytes(b"DTC1"
                     + _packed_record(2 ** 32 - 1, (3, 1, 16, 2, 3, 3, 5))
                     + _packed_record(0, rec)
                     + _packed_record(0, rec[:2] + [9.0] * 5))
    with pytest.raises(CheckpointError, match="grid index 0 more than once"):
        read_checkpoint(str(path), spec)
    out = tmp_path / "map.csv"
    assert cli.parse_and_dispatch(
        _SMALL_ARGV + ["--checkpoint", str(path), "--output", str(out)]) == 1
    assert not out.exists()
