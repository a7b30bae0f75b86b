import math
from dataclasses import replace

import numpy as np
import pytest

from omstirap import protocols, sweep
from omstirap.errors import (
    ConfigError,
    IntegrationDivergedError,
    InvalidArgumentError,
    StiffnessError,
)
from omstirap.model import DriveCoefficients, DriveSchedule, SystemParams, TWO_PI
from omstirap.protocols import (
    InitialStateSpec,
    Scenario,
    batches,
    run_batches,
    run_interferometry,
    run_scenario,
    run_scenarios,
)
from omstirap.sweep import (
    SweepAxis,
    SweepResult,
    apply_axis_value,
    extract_contours,
    pick_picture,
    resolve_path,
    run_sweep,
)


def _fast_scenario(**kw):
    p = SystemParams.from_ordinary(temperature_k=0.01)
    sigma = 0.15e-3
    s = DriveSchedule("stirap", 2000.0, sigma / 1.43, sigma, sigma)
    defaults = dict(
        params=p, schedule=s, initial=InitialStateSpec("fock", n=1), dims=(2, 3, 3),
        horizon=(-0.6e-3, 0.6e-3), sample_count=9,
        lossless=True,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def test_axis_validation():
    with pytest.raises(InvalidArgumentError):
        SweepAxis("alpha0", (1.0,))
    with pytest.raises(InvalidArgumentError):
        SweepAxis("alpha0", (1.0, 3.0, 2.0))
    with pytest.raises(InvalidArgumentError):
        SweepAxis("alpha0", (-1.0, 1.0), scale="log")
    # apply_axis_value reads the ratio only on 'sigma': elsewhere it would be dropped
    for path in ("alpha0", "tau", "schedule.sigma1", "delta"):
        with pytest.raises(InvalidArgumentError, match=f"tau_sigma_ratio .* not to '{path}'"):
            SweepAxis(path, (1.0, 2.0), tau_sigma_ratio=1.43)
    assert SweepAxis("sigma", (1.0, 2.0), tau_sigma_ratio=1.43).tau_sigma_ratio == 1.43


def test_apply_axis_paths():
    scen = _fast_scenario()
    out = apply_axis_value(scen, SweepAxis("alpha0", (1.0, 2.0)), 1500.0)
    assert out.schedule[0].alpha0 == 1500.0
    out = apply_axis_value(scen, SweepAxis("kappa", (1.0, 2.0)), TWO_PI * 4e3)
    assert out.params.kappa == TWO_PI * 4e3
    out = apply_axis_value(
        scen, SweepAxis("sigma", (1.0, 2.0), tau_sigma_ratio=1.43), 0.4e-3
    )
    sched = out.schedule[0]
    assert sched.sigma1 == sched.sigma2 == 0.4e-3
    assert np.isclose(sched.tau, 0.4e-3 / 1.43)
    out = apply_axis_value(scen, SweepAxis("delta", (1.0, 2.0)), TWO_PI * 5e4)
    assert np.isclose(out.params.omega2, out.params.omega1 + TWO_PI * 5e4)
    assert out.params.delta2 == out.params.omega2  # resonant retune
    with pytest.raises(ConfigError):
        apply_axis_value(scen, SweepAxis("params.bogus", (1.0, 2.0)), 1.0)


def test_resolve_path_expands_shorthands_and_rejects_unknown_paths():
    assert resolve_path("kappa") == ("params", "kappa")
    assert resolve_path("tau") == ("schedule", "tau")
    assert resolve_path("schedule.theta") == ("schedule", "theta")
    assert resolve_path("delta") == ("delta", None)
    assert resolve_path("sigma") == ("sigma", None)
    for bad in ("params.bogus", "schedule.", "bogus", "system.kappa"):
        with pytest.raises(ConfigError, match="unknown parameter path"):
            resolve_path(bad)


def test_run_sweep_checks_its_axes_and_metrics_before_any_cell(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("bad input must be rejected before any cell runs")

    monkeypatch.setattr(sweep, "run_batches", no_run)
    scen, alpha = _fast_scenario(), SweepAxis("alpha0", (1500.0, 2000.0))
    with pytest.raises(ConfigError, match="parameter path is a string, not 5"):
        run_sweep(scen, [SweepAxis(5, (1.0, 2.0))])
    # a bare string is one key, not a sequence of one-letter keys
    for metrics in ((), [], "final_n2", ("final_n2", 5)):
        with pytest.raises(InvalidArgumentError, match="metrics must be summary keys"):
            run_sweep(scen, [alpha], metrics=metrics, workers=1)


def test_picture_selection_rules():
    scen = _fast_scenario()
    assert pick_picture(scen) == "rwa"
    near = apply_axis_value(scen, SweepAxis("delta", (1.0, 2.0)), TWO_PI * 3e4)
    assert pick_picture(near) == "bs"
    resonant = apply_axis_value(
        scen, SweepAxis("params.omega1", (1.0, 2.0)), 3 * scen.params.omega2
    )
    assert pick_picture(resonant) == "full"


def test_degenerate_sweep_equals_scenario():
    scen = _fast_scenario()
    res = run_sweep(scen, [SweepAxis("alpha0", (2000.0, 2500.0))], metrics=("final_n2",))
    direct = run_scenario(scen).summary["final_n2"]
    assert res.fields["final_n2"][0] == direct


def test_sweep_determinism_across_worker_counts():
    scen = _fast_scenario()
    axes = [
        SweepAxis("alpha0", (1500.0, 2000.0, 2500.0)),
        SweepAxis("sigma", (0.12e-3, 0.18e-3), tau_sigma_ratio=1.43),
    ]
    r1 = run_sweep(scen, axes, metrics=("final_n2", "final_n1"), workers=1)
    r2 = run_sweep(scen, axes, metrics=("final_n2", "final_n1"), workers=3)
    for m in ("final_n2", "final_n1"):
        assert np.array_equal(r1.fields[m], r2.fields[m])
    assert r1.failures == r2.failures == ()


def test_failed_cells_recorded_not_fatal(monkeypatch):
    scen = _fast_scenario()
    # a zero-width pulse is rejected by DriveSchedule validation inside the cell;
    # two other widths stand for integrations that fail at a known time
    failing = {0.1e-3: StiffnessError(1.25e-4),
               0.12e-3: IntegrationDivergedError(2.5e-4, 1e-3, 1e-4)}

    original = protocols.run_scenarios  # run_scenario calls it through the patched name

    def run(scenarios):
        return [failing.get(s.schedule[0].sigma1) or original([s])[0] for s in scenarios]

    monkeypatch.setattr(protocols, "run_scenarios", run)
    axes = [SweepAxis("schedule.sigma1", (-1e-4, 0.1e-3, 0.12e-3, 0.15e-3))]
    res = run_sweep(scen, axes, metrics=("final_n2",), workers=1)
    assert len(res.failures) == 3
    assert res.failures[0][0] == (0,)
    assert res.failures[0][1] == "InvalidArgumentError"
    assert "pulse widths" in res.failures[0][2]
    assert res.failures[0][3] is None
    assert [f[1:] for f in res.failures[1:]] == [
        ("StiffnessError", str(failing[0.1e-3]), 1.25e-4),
        ("IntegrationDivergedError", str(failing[0.12e-3]), 2.5e-4)]
    assert np.isnan(res.fields["final_n2"][:3]).all()
    assert not math.isnan(res.fields["final_n2"][3])


def test_programming_error_in_cell_propagates(monkeypatch):
    def broken(scenarios):
        raise TypeError("bug in a cell")

    monkeypatch.setattr(protocols, "run_scenarios", broken)
    axes = [SweepAxis("alpha0", (1500.0, 2000.0))]
    with pytest.raises(TypeError, match="bug in a cell"):
        run_sweep(_fast_scenario(), axes, metrics=("final_n2",), workers=1)


def test_omega_swap_symmetry():
    # swapping the two mechanical modes (frequencies, pulse roles, initial
    # mode and measured mode) relabels the tensor factors and must give the
    # same transfer within solver tolerance
    p = SystemParams.from_ordinary(temperature_k=0.01)
    sigma = 0.15e-3
    fwd = DriveSchedule("stirap", 2000.0, sigma / 1.43, sigma, sigma)
    scen = Scenario(
        params=p, schedule=fwd, initial=InitialStateSpec("fock", n=1),
        dims=(2, 3, 3), horizon=(-0.6e-3, 0.6e-3), sample_count=9,
    )
    direct = run_scenario(scen).summary["final_n2"]
    swapped_params = SystemParams.from_ordinary(
        temperature_k=0.01, omega1_hz=1.8e6, omega2_hz=1.2e6
    )
    rev = DriveSchedule("reversed_fractional", 2000.0, sigma / 1.43, sigma, sigma,
                        theta=math.pi / 2)
    swapped = Scenario(
        params=swapped_params, schedule=rev,
        initial=InitialStateSpec("fock", n=0, mode2=InitialStateSpec("fock", n=1)),
        dims=(2, 3, 3), horizon=(-0.6e-3, 0.6e-3), sample_count=9,
    )
    mirrored = run_scenario(swapped).summary["final_n1"]
    assert abs(direct - mirrored) < 1e-3


def test_kappa_alpha_corners():
    # strong drive with a narrow cavity transfers cleanly; a wide cavity
    # with weak drive degrades
    p = SystemParams.from_ordinary(temperature_k=0.01)
    s = DriveSchedule("stirap", 2000.0, 0.6e-3 / 1.43, 0.6e-3, 0.6e-3)
    scen = Scenario(
        params=p, schedule=s, initial=InitialStateSpec("fock", n=1), dims=(2, 3, 3),
        horizon=(-2e-3, 2e-3), sample_count=9,
    )
    axes = [
        SweepAxis("kappa", (TWO_PI * 2e2, TWO_PI * 2e4), scale="log"),
        SweepAxis("alpha0", (250.0, 4000.0)),
    ]
    res = run_sweep(scen, axes, metrics=("final_n2",), workers=1)
    grid = res.fields["final_n2"]
    assert grid[0, 1] > 0.99  # low kappa, high drive
    assert grid[1, 0] < 0.5  # high kappa, weak drive
    assert grid[0, 1] > grid[1, 1] > grid[1, 0]


def test_contours_constant_field_empty():
    ax = SweepAxis("alpha0", tuple(np.linspace(0, 1, 6)))
    ay = SweepAxis("tau", tuple(np.linspace(0, 1, 6)))
    res = SweepResult(axes=(ax, ay), fields={"f": np.full((6, 6), 0.3)})
    assert extract_contours(res, "f", [0.9])[0.9] == []
    assert extract_contours(res, "f", [0.1])[0.1] == []


def test_contours_linear_ramp():
    ax = SweepAxis("alpha0", tuple(np.linspace(0, 1, 11)))
    ay = SweepAxis("tau", tuple(np.linspace(0, 1, 11)))
    x = np.meshgrid(ax.values, ay.values, indexing="ij")[0]
    res = SweepResult(axes=(ax, ay), fields={"f": x.astype(float)})
    lines = extract_contours(res, "f", [0.47])[0.47]
    assert len(lines) == 1
    np.testing.assert_allclose(lines[0][:, 0], 0.47, atol=1e-12)
    assert lines[0][:, 1].min() == 0.0 and lines[0][:, 1].max() == 1.0


def test_contours_log_axis_interpolation():
    ax = SweepAxis("kappa", tuple(np.geomspace(1.0, 100.0, 9)), scale="log")
    ay = SweepAxis("tau", tuple(np.linspace(0, 1, 5)))
    grid = np.log(np.meshgrid(ax.values, ay.values, indexing="ij")[0])
    res = SweepResult(axes=(ax, ay), fields={"f": grid})
    level = math.log(10.0)
    lines = extract_contours(res, "f", [level])[level]
    assert len(lines) == 1
    np.testing.assert_allclose(lines[0][:, 0], 10.0, rtol=1e-9)


# the two ways to cut a saddle on the unit square, each line joining the points where the
# level crosses the two edges next to the corner it cuts off
_CUT_10_01 = {((0.625, 0.0), (1.0, 0.375)), ((0.0, 0.625), (0.375, 1.0))}
_CUT_00_11 = {((0.0, 0.375), (0.375, 0.0)), ((0.625, 1.0), (1.0, 0.625))}


@pytest.mark.parametrize("corners, level, expected", [
    # f(0,0) = f(1,1) = 1 and f(1,0) = f(0,1) = 0.2, so the center is 0.6: at level 0.5 it
    # joins the high corners and the lines cut off the low ones, at 0.7 the high ones
    ((1.0, 0.2, 1.0, 0.2), 0.5, _CUT_10_01),
    ((1.0, 0.2, 1.0, 0.2), 0.7, _CUT_00_11),
    # f(1,0) = f(0,1) = 1 and f(0,0) = f(1,1) = 0.2
    ((0.2, 1.0, 0.2, 1.0), 0.5, _CUT_00_11),
    ((0.2, 1.0, 0.2, 1.0), 0.7, _CUT_10_01),
])
def test_contours_resolve_a_saddle_by_its_center(corners, level, expected):
    f00, f10, f11, f01 = corners
    axes = (SweepAxis("alpha0", (0.0, 1.0)), SweepAxis("tau", (0.0, 1.0)))
    res = SweepResult(axes=axes, fields={"f": np.array([[f00, f01], [f10, f11]])})
    lines = extract_contours(res, "f", [level])[level]
    assert {tuple(sorted(map(tuple, np.round(line, 12).tolist()))) for line in lines} == expected


def test_contours_skip_the_cells_that_touch_a_nan():
    # f = x on x, y in {0, 1, 2}: the 0.5 line is x = 0.5, but the cell x, y in [0, 1] x [1, 2]
    # has a NaN corner, so the line stops at y = 1
    ax = SweepAxis("alpha0", (0.0, 1.0, 2.0))
    ay = SweepAxis("tau", (0.0, 1.0, 2.0))
    f = np.array([[0.0, 0.0, np.nan], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    (line,) = extract_contours(SweepResult(axes=(ax, ay), fields={"f": f}), "f", [0.5])[0.5]
    assert sorted(line.tolist()) == [[0.5, 0.0], [0.5, 1.0]]


def test_contours_log_y_axis_interpolation():
    # f = log y on a log y axis: the level log 10 is the line y = 10 across the x range
    ax = SweepAxis("alpha0", (0.0, 1.0, 2.0))
    ay = SweepAxis("kappa", tuple(np.geomspace(1.0, 100.0, 5)), scale="log")
    grid = np.log(np.meshgrid(ax.values, ay.values, indexing="ij")[1])
    level = math.log(10.0)
    (line,) = extract_contours(SweepResult(axes=(ax, ay), fields={"f": grid}), "f",
                               [level])[level]
    np.testing.assert_allclose(line[:, 1], 10.0, rtol=1e-12)
    assert sorted(line[:, 0]) == [0.0, 1.0, 2.0]


def test_contours_chain_segments_joined_at_either_end():
    # a 4 x 3 field with both saddle kinds; each line's segments meet end to start,
    # end to end and start to start.  Each point is the level's place on a grid edge,
    # a + (0.5 - f_a) / (f_b - f_a) from the corner a towards the corner b
    f = np.array([[0.15, 0.96, 0.4], [0.3, 0.85, 0.12], [0.73, 0.19, 0.39],
                  [0.23, 0.84, 0.39]])
    axes = (SweepAxis("alpha0", (1.0, 2.0, 3.0, 4.0)), SweepAxis("tau", (1.0, 2.0, 3.0)))
    lines = extract_contours(SweepResult(axes=axes, fields={"f": f}), "f", [0.5])[0.5]
    expected = [
        [(2 + 20 / 43, 1), (2, 1 + 4 / 11), (1, 2 - 46 / 81)],
        [(1, 3 - 5 / 28), (2, 3 - 38 / 73), (3 - 31 / 66, 2), (3, 1 + 23 / 54), (3.46, 1)],
        # the saddle at x in [3, 4], y in [1, 2] has its center 0.4975 below the level,
        # so its high corners (3, 1) and (4, 2) stay apart
        [(4, 1 + 27 / 61), (4 - 34 / 65, 2), (4, 2 + 34 / 45)],
    ]
    assert len(lines) == len(expected)
    for line, points in zip(lines, expected):
        np.testing.assert_allclose(line, points, rtol=1e-12)


def test_contours_require_2d():
    ax = SweepAxis("alpha0", (0.0, 1.0))
    res = SweepResult(axes=(ax,), fields={"f": np.array([0.0, 1.0])})
    with pytest.raises(InvalidArgumentError):
        extract_contours(res, "f", [0.5])


def _delta_alpha_grid():
    """An open-system delta x alpha0 grid across the bs/rwa band, as in sweep-mixed,
    at dims (2,3,3): its base, its axes and its cells as run_sweep builds them."""
    base = _fast_scenario(lossless=False)
    axes = [SweepAxis("delta", (TWO_PI * 2e4, TWO_PI * 3e5)),
            SweepAxis("alpha0", (1000.0, 2000.0, 3000.0, 4000.0))]
    cells = []
    for delta in axes[0].values:
        for alpha0 in axes[1].values:
            cell = apply_axis_value(apply_axis_value(base, axes[0], delta), axes[1], alpha0)
            cells.append(replace(cell, picture=pick_picture(cell)))
    return base, axes, cells


def test_batched_cells_match_their_solo_runs():
    _, _, cells = _delta_alpha_grid()
    groups = batches(cells)
    # gamma2 and nbar2 move with delta: one batch per delta row
    assert groups == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert [cells[g[0]].picture for g in groups] == ["bs", "rwa"]
    for group in groups:
        results = run_scenarios([cells[i] for i in group])
        assert len({r.summary["wall_time_s"] for r in results}) == 1  # the batch's
        for i, batched in zip(group, results):
            solo = run_scenario(cells[i])
            assert batched.summary["integrator"] == solo.summary["integrator"]
            for key, value in solo.summary.items():
                if isinstance(value, float) and key != "wall_time_s":
                    assert abs(batched.summary[key] - value) <= 1e-12, key
            for key, series in solo.trajectory.observables.items():
                assert np.max(np.abs(batched.trajectory.observables[key] - series)) <= 1e-12


def test_a_bs_batch_is_bitwise_its_solo_runs():
    # each row of a batch is stepped alone: its stage products, error scale and
    # samples are those of its solo run, bit for bit
    _, _, cells = _delta_alpha_grid()
    group = batches(cells)[0]
    assert len(group) == 4 and cells[group[0]].picture == "bs"
    results = run_scenarios([cells[i] for i in group])
    for i, batched in zip(group, results):
        cell = cells[i]
        assert not DriveCoefficients(cell.picture, [(cell.params, cell.schedule)]).real
        solo = run_scenario(cell)
        # alone, the cell keeps the same pieces and steps the same coordinates
        assert batched.summary["integrator"] == solo.summary["integrator"]
        assert batched.trajectory.samples.tobytes() == solo.trajectory.samples.tobytes()
        floats = [key for key, value in solo.summary.items()
                  if isinstance(value, float) and key != "wall_time_s"]
        assert floats
        for key in floats:
            assert batched.summary[key].hex() == solo.summary[key].hex(), key


def test_a_batch_needs_one_batch_key():
    _, _, cells = _delta_alpha_grid()
    with pytest.raises(InvalidArgumentError, match="batch_key"):
        run_scenarios([cells[0], cells[4]])


def test_mixed_picture_grid_is_identical_at_one_and_two_workers():
    base, axes, cells = _delta_alpha_grid()
    assert {c.picture for c in cells} == {"bs", "rwa"}
    r1 = run_sweep(base, axes, metrics=("final_n2", "final_n1"), workers=1)
    r2 = run_sweep(base, axes, metrics=("final_n2", "final_n1"), workers=2)
    for m in r1.fields:
        assert np.array_equal(r1.fields[m], r2.fields[m], equal_nan=True)
    assert r1.failures == r2.failures == ()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_batches_returns_interleaved_batch_keys_in_input_order(workers):
    _, _, cells = _delta_alpha_grid()
    order = [i + row for i in range(4) for row in (0, 4)]  # alpha-major: the keys alternate
    assert batches([cells[i] for i in order]) == [[0, 2, 4, 6], [1, 3, 5, 7]]
    summaries, records = run_batches([cells[i] for i in order], workers)
    assert [r["cells"] for r in records] == [4, 4]
    for i, batched in zip(order, summaries):
        solo = run_scenario(cells[i]).summary
        assert batched["integrator"] == solo["integrator"]
        for key, value in solo.items():
            if isinstance(value, float) and key != "wall_time_s":
                assert abs(batched[key] - value) <= 1e-12, (i, key)


def test_one_batch_runs_in_this_process_at_any_worker_count(monkeypatch):
    # a pool for a single job would add only its start-up: the worker count is
    # capped at the job count, and one job runs here
    _, _, cells = _delta_alpha_grid()
    one_batch = [c for c in cells if c.picture == "rwa"]
    assert len(one_batch) == 4 and len(batches(one_batch)) == 1
    alone, _ = run_batches(one_batch, 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started for one job")

    monkeypatch.setattr(protocols, "ProcessPoolExecutor", no_pool)
    summaries, records = run_batches(one_batch, 2)
    assert [r["cells"] for r in records] == [4]

    def timeless(summary):
        return {k: v for k, v in summary.items() if k not in ("timing", "wall_time_s")}

    assert [timeless(s) for s in summaries] == [timeless(s) for s in alone]


def test_a_failure_before_integration_fails_only_its_batch(monkeypatch):
    original = protocols.run_scenarios

    def bs_fails(scenarios):  # as a state that cannot be built would
        if scenarios[0].picture == "bs":
            raise InvalidArgumentError("no bs batch")
        return original(scenarios)

    monkeypatch.setattr(protocols, "run_scenarios", bs_fails)
    _, _, cells = _delta_alpha_grid()
    summaries, records = run_batches(cells, 1)
    assert all(isinstance(s, InvalidArgumentError) for s in summaries[:4])
    assert all(isinstance(s, dict) for s in summaries[4:])
    assert [r["cells"] for r in records] == [4, 4] and records[0]["blas_threads"] is None

    # 17 fringe points are a batch of 16 and one of 1: the second one's failure is raised
    def last_point_fails(scenarios):
        if len(scenarios) == 1:
            raise InvalidArgumentError("no last point")
        return original(scenarios)

    monkeypatch.setattr(protocols, "run_scenarios", last_point_fails)
    sigma = 0.15e-3
    base = _fast_scenario(schedule=DriveSchedule("fractional", 2000.0, sigma / 1.25, sigma,
                                                 sigma, theta=math.pi / 4))
    with pytest.raises(InvalidArgumentError, match="no last point"):
        run_interferometry(base, np.linspace(-math.pi, math.pi, 17), wait=1e-3)
