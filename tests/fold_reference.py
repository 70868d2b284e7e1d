"""Per-point fold and grid snap on Python floats.

Shared test reference for `sweep.fold` and `sweep._canonical_points`, which
fold and snap whole grids as numpy array passes. This is the scalar form
they replaced: one point at a time, in Python float arithmetic, so a test
can require the array passes to give bitwise the same keys and mirror
flags.
"""

import math

import numpy as np

from spindtc.sweep import _SNAP


def fold(lam: float, g: float, shape, stride: int) -> tuple[float, float, bool]:
    """The canonical point of (lam, g) and whether (lam, g) is a mirror
    image of it, as sweep.fold documents."""
    period = 2 * math.pi if shape.n_sat % 2 == 0 and shape.two_s % 2 == 0 \
        else 4 * math.pi
    lam %= period
    if lam > period / 2:
        lam = period - lam
    g %= 2 * math.pi
    if g > math.pi:
        g = 2 * math.pi - g
    mirrored = stride % 2 == 0 and g > math.pi / 2
    if mirrored:
        g = math.pi - g
    if g == 0.0:
        lam = 0.0
    return lam, g, mirrored


def on_grid(value: float, axis: np.ndarray) -> float:
    """The value of axis, a np.linspace, that value lies within _SNAP steps
    of, else value itself."""
    if len(axis) == 1:
        return value
    step = (axis[-1] - axis[0]) / (len(axis) - 1)
    nearest = float(axis[min(max(round((value - axis[0]) / step), 0),
                             len(axis) - 1)])
    return nearest if abs(value - nearest) <= _SNAP * step else value


def canonical_points(spec) -> tuple[list, list[bool]]:
    """The evolution key of each grid point of spec, row-major, and whether
    the point is a mirror image of it: each point's fold, each folded angle
    snapped onto the grid, and lambda 0 where g lands on 0."""
    lams, gs = spec.lambdas, spec.gs
    keys, mirrored = [], []
    for lam in lams:
        for g in gs:
            lam_c, g_c, mirror = fold(float(lam), float(g), spec.shape,
                                      spec.stride)
            g_c = on_grid(g_c, gs)
            keys.append((on_grid(lam_c, lams) if g_c else 0.0, g_c))
            mirrored.append(mirror)
    return keys, mirrored
