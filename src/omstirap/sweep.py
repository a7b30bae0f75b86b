"""Parallel 1-D/2-D parameter sweeps and iso-level contour extraction.

Each grid cell is one scenario, run in the picture :func:`pick_picture`
chooses.  The cells go through :func:`~omstirap.protocols.run_batches`:
cells that share a batch key (the same picture, dims, collapse rates, initial
state and tolerances) run as the columns of one DP45 ensemble, in batches cut
in grid order that do not depend on the worker count, and each column takes
exactly the steps it takes alone, so the grids are bitwise identical for any
worker count.  A cell that fails with one of the package's own errors records
the error class, message and failure time and leaves NaN in the grids; any
other exception is a bug and aborts the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidArgumentError, OmstirapError
from .model import DriveSchedule, SystemParams, TWO_PI
from .protocols import Scenario, _floats, _integrator_totals, run_batches, summary_keys
from .adiabatic import resonance_check

#: frequency-difference band (rad/s) below which the co-rotating cross
#: couplings are kept (picture 'bs'); the plain rotating-wave picture drops
#: terms at |w1 - w2|, which is only valid well outside this band.
NEAR_DEGENERATE_BAND = TWO_PI * 0.2e6

#: detuning tolerance (rad/s) for flagging the 2 w_j walk resonances, where
#: the two-mode-squeezing terms must be retained (picture 'full').
RESONANCE_TOL = TWO_PI * 2e3


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a path, its values, and optional linked rules.

    Paths: ``params.<field>``, ``schedule.<field>``, or the derived paths
    ``sigma`` (sets both pulse widths, and tau when ``tau_sigma_ratio`` is
    given; no other path takes a ratio), ``delta`` (mechanical frequency
    difference, moves omega2), and the shorthand
    ``alpha0``/``tau``/``kappa``/``temperature``.
    """

    path: str
    values: tuple
    scale: str = "linear"
    tau_sigma_ratio: float | None = None

    def __post_init__(self):
        vals = _floats(self.values, "axis values")
        if len(vals) < 2:
            raise InvalidArgumentError("axis needs at least 2 values")
        diffs = np.diff(vals)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise InvalidArgumentError("axis values must be strictly monotone")
        if self.scale not in ("linear", "log"):
            raise InvalidArgumentError(f"unknown scale {self.scale!r}")
        if self.scale == "log" and min(vals) <= 0:
            raise InvalidArgumentError("log axis needs positive values")
        object.__setattr__(self, "values", vals)
        if self.tau_sigma_ratio is not None:
            if self.path != "sigma":
                raise InvalidArgumentError(
                    f"tau_sigma_ratio links tau to a 'sigma' axis, not to {self.path!r}")
            ratio, = _floats((self.tau_sigma_ratio,), "tau_sigma_ratio")
            if not ratio > 0:
                raise InvalidArgumentError(f"tau_sigma_ratio must be > 0, got {ratio}")
            object.__setattr__(self, "tau_sigma_ratio", ratio)


@dataclass(frozen=True)
class SweepResult:
    """Grids per metric; ``failures`` holds (cell, error class, message, time).

    The time is where an integration failed (the ``time`` of a
    ``StiffnessError`` or ``IntegrationDivergedError``), None for any other error.
    ``integrator`` totals the finished cells' ``summary["integrator"]``: the
    step, rhs and sample counts summed, the least ``h_min`` and the largest
    ``h_max`` (None when no cell finished).  ``batches`` holds per batch its
    cell count, wall time and the ``blas_threads`` setting of its observables
    pass (None when it could not be set or no cell finished).
    """

    axes: tuple[SweepAxis, ...]
    fields: dict
    failures: tuple = ()
    integrator: dict | None = None
    batches: tuple = ()


_SHORTHAND = {
    "alpha0": "schedule.alpha0",
    "tau": "schedule.tau",
    "kappa": "params.kappa",
    "temperature": "params.temperature",
    "omega1": "params.omega1",
    "omega2": "params.omega2",
}


def _retuned(params: SystemParams, **updates) -> SystemParams:
    """Replace params fields, keeping resonant detunings locked to omegas."""
    lock1 = params.delta1 == params.omega1
    lock2 = params.delta2 == params.omega2
    new = replace(params, **updates)
    relock = {}
    if lock1 and "delta1" not in updates:
        relock["delta1"] = new.omega1
    if lock2 and "delta2" not in updates:
        relock["delta2"] = new.omega2
    return replace(new, **relock) if relock else new


_PATH_BLOCKS = {"params": SystemParams, "schedule": DriveSchedule}


def resolve_path(path: str) -> tuple[str, str | None]:
    """An axis path as (``'sigma'``/``'delta'``, None) or (``'params'``/``'schedule'``, field).

    Shorthands are expanded; a path that names nothing sweepable is a
    ConfigError.
    """
    resolved = _SHORTHAND.get(path, path)
    if resolved in ("sigma", "delta"):
        return resolved, None
    block, _, name = resolved.partition(".")
    if block in _PATH_BLOCKS and name in _PATH_BLOCKS[block].__dataclass_fields__:
        return block, name
    raise ConfigError(f"unknown parameter path {path!r}")


def apply_axis_value(scenario: Scenario, axis: SweepAxis, value: float) -> Scenario:
    """Bind one axis value onto a scenario, applying linked-parameter rules."""
    kind, name = resolve_path(axis.path)
    if kind == "sigma":
        updates = {"sigma1": value, "sigma2": value}
        if axis.tau_sigma_ratio is not None:
            updates["tau"] = value / axis.tau_sigma_ratio
        return replace(scenario, schedule=_update_schedules(scenario, updates))
    if kind == "delta":
        params = _retuned(scenario.params, omega2=scenario.params.omega1 + value)
        return replace(scenario, params=params)
    if kind == "params":
        return replace(scenario, params=_retuned(scenario.params, **{name: value}))
    return replace(scenario, schedule=_update_schedules(scenario, {name: value}))


def _update_schedules(scenario: Scenario, updates: dict) -> tuple:
    return tuple(replace(s, **updates) for s in scenario.schedule)


def pick_picture(scenario: Scenario) -> str:
    """Per-cell Hamiltonian picture.

    Near frequency degeneracy the rotating-wave picture is blind to the
    cross couplings that dominate the physics, so cells inside the
    near-degenerate band run with the beam-splitter-complete picture; cells
    on a 2 w_j walk resonance additionally need the two-mode-squeezing
    terms and run the full picture.  Elsewhere the plain rotating-wave
    picture is accurate and far cheaper.
    """
    p = scenario.params
    if resonance_check(p.delta1, p.delta2, p.omega1, p.omega2, RESONANCE_TOL) != "none":
        return "full"
    if abs(p.omega1 - p.omega2) < NEAR_DEGENERATE_BAND:
        return "bs"
    return "rwa"


def _failure(exc: OmstirapError) -> tuple:
    """(error class, message, time of failure or None) of a failed cell."""
    return type(exc).__name__, str(exc), getattr(exc, "time", None)


def run_sweep(
    base: Scenario,
    axes: Sequence[SweepAxis],
    metrics: Sequence[str] = ("final_n2",),
    worker_count: int = 1,
) -> SweepResult:
    """Run a scenario grid over one or two axes.

    ``metrics`` are summary keys of :func:`run_scenario` (for example
    ``final_n2``, ``fidelity``, ``peak_negativity``); one that the base
    scenario's summary does not carry is rejected before any cell runs.
    The cells run through :func:`~omstirap.protocols.run_batches`, whose
    records become ``batches``: each batch of cells that share a
    :func:`~omstirap.protocols.batch_key` is one DP45 ensemble and one job.
    Every cell steps as it does alone, and aggregation order is
    deterministic regardless of worker scheduling.
    """
    axes = tuple(axes)
    if len(axes) not in (1, 2):
        raise InvalidArgumentError("sweeps support 1 or 2 axes")
    for axis in axes:
        # unknown parameter paths and metrics are config errors up front; value
        # errors inside a cell are recorded per-cell instead
        resolve_path(axis.path)
    if not all(isinstance(m, str) for m in metrics):
        raise InvalidArgumentError(f"metrics must be summary keys, not {list(metrics)!r}")
    missing = sorted(set(metrics) - summary_keys(base))
    if missing:
        raise InvalidArgumentError(f"no run of this sweep reports the metric(s) {missing}; "
                                   f"its summaries carry {sorted(summary_keys(base))}")
    shape = tuple(len(a.values) for a in axes)
    cells, failures = [], []
    for idx in np.ndindex(*shape):
        try:
            scenario = base
            for axis, i in zip(axes, idx):
                scenario = apply_axis_value(scenario, axis, axis.values[i])
            cells.append((idx, replace(scenario, picture=pick_picture(scenario))))
        except OmstirapError as exc:  # domain and integration failures are per-cell results
            failures.append((idx, *_failure(exc)))

    summaries, records = run_batches([scenario for _, scenario in cells], worker_count)
    grids = {m: np.full(shape, np.nan) for m in metrics}
    for (idx, _), summary in zip(cells, summaries):
        if isinstance(summary, OmstirapError):
            failures.append((idx, *_failure(summary)))
        else:
            for m in metrics:
                grids[m][idx] = summary[m]
    return SweepResult(axes=axes, fields=grids, failures=tuple(sorted(failures)),
                       integrator=_integrator_totals(summaries), batches=tuple(records))


# ---------------------------------------------------------------------------
# marching-squares contour extraction

_EDGES = {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 0)}  # corner index pairs
_CASES = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
    11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
}


def extract_contours(
    result: SweepResult, field_name: str, levels: Sequence[float]
) -> dict:
    """Iso-level polylines of a 2-D sweep field, in axis coordinates.

    Standard marching squares with linear interpolation (in log coordinates
    for log-scaled axes); saddle cells are disambiguated by the cell-center
    mean.  Returns {level: [polyline arrays of shape (k, 2)]}; polylines
    are closed loops or terminate on the grid boundary.  Cells touching a
    NaN are skipped.
    """
    if len(result.axes) != 2:
        raise InvalidArgumentError("contour extraction needs a 2-D sweep")
    if field_name not in result.fields:
        raise InvalidArgumentError(f"unknown field {field_name!r}")
    f = result.fields[field_name]
    xs = _axis_coords(result.axes[0])
    ys = _axis_coords(result.axes[1])
    out = {}
    for level in levels:
        segments = []
        for i in range(f.shape[0] - 1):
            for j in range(f.shape[1] - 1):
                corners = (
                    (xs[i], ys[j], f[i, j]),
                    (xs[i + 1], ys[j], f[i + 1, j]),
                    (xs[i + 1], ys[j + 1], f[i + 1, j + 1]),
                    (xs[i], ys[j + 1], f[i, j + 1]),
                )
                if any(math.isnan(c[2]) for c in corners):
                    continue
                segments.extend(_cell_segments(corners, level))
        out[level] = [_restore_scale(p, result.axes) for p in _chain(segments)]
    return out


def _axis_coords(axis: SweepAxis) -> np.ndarray:
    v = np.asarray(axis.values, dtype=float)
    return np.log(v) if axis.scale == "log" else v


def _restore_scale(polyline: np.ndarray, axes) -> np.ndarray:
    p = polyline.copy()
    if axes[0].scale == "log":
        p[:, 0] = np.exp(p[:, 0])
    if axes[1].scale == "log":
        p[:, 1] = np.exp(p[:, 1])
    return p


def _cell_segments(corners, level):
    case = 0
    for bit, (_, _, val) in enumerate(corners):
        if val >= level:
            case |= 1 << bit
    if case in (0, 15):
        return []
    if case in (5, 10):
        center = sum(c[2] for c in corners) / 4.0
        # center above the level connects the high corners diagonally
        if (center >= level) == (case == 5):
            pairs = [(3, 0), (1, 2)] if case == 5 else [(0, 1), (2, 3)]
        else:
            pairs = [(0, 1), (2, 3)] if case == 5 else [(3, 0), (1, 2)]
    else:
        pairs = _CASES[case]
    segs = []
    for e1, e2 in pairs:
        segs.append((_edge_point(corners, e1, level), _edge_point(corners, e2, level)))
    return segs


def _edge_point(corners, edge, level):
    i, j = _EDGES[edge]
    x1, y1, v1 = corners[i]
    x2, y2, v2 = corners[j]
    if v1 == v2:
        t = 0.5
    else:
        t = (level - v1) / (v2 - v1)
    t = min(1.0, max(0.0, t))
    return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))


def _chain(segments) -> list[np.ndarray]:
    """Join segments into polylines by matching endpoints."""
    remaining = [tuple(map(tuple, s)) for s in segments]
    polylines = []
    tol = 1e-12

    def close(p, q):
        return abs(p[0] - q[0]) <= tol * (1 + abs(p[0])) and abs(p[1] - q[1]) <= tol * (
            1 + abs(p[1])
        )

    while remaining:
        a, b = remaining.pop(0)
        line = [a, b]
        grew = True
        while grew:
            grew = False
            for k, (p, q) in enumerate(remaining):
                if close(line[-1], p):
                    line.append(q)
                elif close(line[-1], q):
                    line.append(p)
                elif close(line[0], q):
                    line.insert(0, p)
                elif close(line[0], p):
                    line.insert(0, q)
                else:
                    continue
                remaining.pop(k)
                grew = True
                break
        polylines.append(np.asarray(line))
    return polylines
