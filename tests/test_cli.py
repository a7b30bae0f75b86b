import contextlib
import csv
import functools
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import omstirap
from omstirap import analysis, cli, protocols, sweep
from omstirap.cli import main
from omstirap.errors import (
    ConfigError,
    IntegrationDivergedError,
    StiffnessError,
    TruncationWarning,
)
from omstirap.hilbert import HilbertSpace
from omstirap.model import TWO_PI
from omstirap.presets import ALIASES, PRESETS, preset_config, preset_names
from omstirap.protocols import (
    FringeResult,
    Scenario,
    TargetSpec,
    build_initial_state,
    run_interferometry,
)
from omstirap.sweep import SweepAxis, SweepResult

FAST_SIM = {
    "system": {"temperature_k": 0.0},
    "dims": [2, 3, 3],
    "sample_count": 9,
    "lossless": True,
}


def _write(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_presets_resolve():
    for name in preset_names():
        cfg = preset_config(name)
        assert isinstance(cfg, dict) and cfg
    assert preset_config("fig1") == PRESETS[ALIASES["fig1"]]
    # deep copy, not a live reference
    cfg = preset_config("fig1")
    cfg["system"]["temperature_k"] = 99.0
    assert PRESETS[ALIASES["fig1"]]["system"]["temperature_k"] == 0.01


def test_simulate_emits_csv_and_summary(tmp_path):
    cfg = _write(tmp_path, FAST_SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "bell-lossless", "--config", cfg,
                 "--out", str(out)]) == 0
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_s", "n1", "n2", "nc", "negativity", "fidelity",
                       "alpha1", "alpha2"]
    assert len(rows) == 1 + 9
    for row in rows[1:]:
        assert all(math.isfinite(float(v)) for v in row)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"]["fidelity"] > 0.99
    assert summary["effective_config"]["dims"] == [2, 3, 3]


def test_simulate_summary_reports_integrator_stats(tmp_path):
    cfg = _write(tmp_path, dict(FAST_SIM, lossless=False))
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "bell-lossless", "--config", cfg,
                 "--out", str(out)]) == 0
    stats = json.loads((out / "summary.json").read_text())["summary"]["integrator"]
    assert set(stats) == {"accepted", "rejected", "rhs_evals", "clamped", "interpolated",
                          "h_min", "h_max", "state_size", "norm_size", "pieces"}
    assert stats["accepted"] >= 8  # at least one step per sample interval
    assert 0 < stats["clamped"] <= stats["accepted"]
    assert stats["rhs_evals"] == 2 + 6 * (stats["accepted"] + stats["rejected"])
    assert 0.0 < stats["h_min"] <= stats["h_max"]
    timing = json.loads((out / "summary.json").read_text())["summary"]["timing"]
    assert set(timing) == {"setup_s", "integrate_s", "observables_s"}
    assert all(value >= 0.0 for value in timing.values())


def test_simulate_roundtrip_reproducible(tmp_path):
    cfg = _write(tmp_path, FAST_SIM)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--preset", "bell-lossless", "--config", cfg, "--out", str(out1)])
    # re-run from the emitted effective config: outputs must be identical
    effective = json.loads((out1 / "summary.json").read_text())["effective_config"]
    cfg2 = _write(tmp_path, effective, "effective.json")
    main(["simulate", "--config", cfg2, "--out", str(out2)])
    assert (out1 / "trajectory.csv").read_text() == (out2 / "trajectory.csv").read_text()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    for s in (s1, s2):  # wall times
        s["summary"].pop("wall_time_s")
        s["summary"].pop("timing")
    s1.pop("preset")
    s2.pop("preset")
    assert s1 == s2


def test_unknown_key_rejected(tmp_path):
    cfg = _write(tmp_path, {"system": {"omega1_mhz": 1.2}})
    out = tmp_path / "out"
    code = main(["simulate", "--preset", "bell-lossless", "--config", cfg,
                 "--out", str(out)])
    assert code == 2


def test_unknown_key_named_in_message(tmp_path, capsys):
    cfg = _write(tmp_path, {"system": {"omega1_mhz": 1.2}})
    main(["simulate", "--preset", "bell-lossless", "--config", cfg,
          "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert "omega1_mhz" in err


def test_unknown_preset_exits_2(tmp_path):
    assert main(["simulate", "--preset", "nope", "--out", str(tmp_path / "o")]) == 2


def test_missing_target_rejected(tmp_path):
    payload = dict(FAST_SIM)
    payload["schedule"] = {"kind": "stirap", "alpha0": 2000.0, "tau_s": 1e-4,
                           "sigma1_s": 1.5e-4, "sigma2_s": 1.5e-4}
    payload["initial"] = {"kind": "fock", "n": 1}
    cfg = _write(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_adiabaticity_reference_values(tmp_path):
    out = tmp_path / "ad"
    assert main(["adiabaticity", "--preset", "adiabaticity-stirap",
                 "--out", str(out)]) == 0
    rep = json.loads((out / "adiabaticity.json").read_text())["report"]
    lo, hi = rep["tau_over_sigma_window"]
    assert round(lo, 2) == 0.29 and round(hi, 2) == 0.89
    out2 = tmp_path / "ad2"
    main(["adiabaticity", "--preset", "adiabaticity-fstirap", "--out", str(out2)])
    rep2 = json.loads((out2 / "adiabaticity.json").read_text())["report"]
    lo2, hi2 = rep2["tau_over_sigma_window"]
    assert round(lo2, 2) == 0.35 and round(hi2, 2) == 1.18


def test_plan_reference_values(tmp_path):
    out = tmp_path / "plan"
    assert main(["plan", "--preset", "plan-heralding", "--out", str(out)]) == 0
    plan = json.loads((out / "plan.json").read_text())["plan"]
    assert abs(plan["t_herald_s"] - 0.7) < 0.05
    assert plan["p_final"] < 0.075
    assert abs(plan["nbar_f"] - 0.10) < 0.02
    assert abs(plan["readout_success"] - 0.998) < 0.001
    assert np.isclose(plan["visibility"], 0.07425, rtol=1e-9)


def test_verify_lossless_fringe(tmp_path):
    out = tmp_path / "vf"
    cfg = _write(tmp_path, {"verify": {"phi2_count": 9, "phi2_span_rad": 2 * math.pi}})
    assert main(["verify", "--preset", "verify-lossless", "--config", cfg,
                 "--out", str(out)]) == 0
    fit = json.loads((out / "fringe.json").read_text())["fit"]
    assert fit["visibility"] >= 0.99
    with open(out / "fringe.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["phi2_rad", "p1"]
    assert len(rows) == 10


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


def test_verify_preset_takes_phase_values(tmp_path):
    # the preset leaves the phase grid to its defaults, so an override may give phi2_values
    out = tmp_path / "o"
    cfg = _write(tmp_path, {"verify": {"phi2_values": [0, 1, 2]}})
    assert main(["verify", "--preset", "verify-lossless", "--config", cfg,
                 "--out", str(out)]) == 0
    with open(out / "fringe.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["phi2_rad", "p1"]
    assert [float(row[0]) for row in rows[1:]] == [0.0, 1.0, 2.0]


def test_fringe_json_reports_the_work_of_its_points(tmp_path):
    assert main(["verify", "--preset", "verify-lossless", "--out", str(tmp_path / "o")]) == 0
    meta = json.loads((tmp_path / "o" / "fringe.json").read_text())
    # the preset takes every default of the phase grid and the fringe
    base = cli.build_scenario(preset_config("verify-lossless"))
    phi1, wait = (_default(run_interferometry, name) for name in ("phi1", "wait"))
    stats = [protocols.run_scenario(protocols._fringe_scenario(
        base, phi1, float(p2), wait, True)).summary["integrator"] for p2 in cli._phase_grid()]
    summed = ("accepted", "rejected", "rhs_evals", "clamped", "interpolated")
    assert meta["integrator"] == {**{k: sum(s[k] for s in stats) for k in summed},
                                  "h_min": min(s["h_min"] for s in stats),
                                  "h_max": max(s["h_max"] for s in stats)}
    # 17 points, at most 16 to a batch
    assert meta["batch_count"] == len(meta["batches"]) == 2
    assert [b["cells"] for b in meta["batches"]] == [16, 1]
    for batch in meta["batches"]:
        assert batch["wall_time_s"] > 0.0
        assert batch["blas_threads"] is None or batch["blas_threads"]["used"] == 1


def test_sweep_small_grid(tmp_path):
    payload = {
        "system": {"temperature_k": 0.0},
        "schedule": {"kind": "stirap", "alpha0": 2000.0, "tau_s": 0.15e-3 / 1.43,
                     "sigma1_s": 0.15e-3, "sigma2_s": 0.15e-3},
        "dims": [2, 3, 3],
        "initial": {"kind": "fock", "n": 1},
        "horizon": {"start_s": -0.6e-3, "end_s": 0.6e-3},
        "sample_count": 9,
        "lossless": True,
        "sweep": {
            "axes": [{"path": "alpha0", "values": [1500.0, 2500.0]},
                     {"path": "sigma", "values": [0.12e-3, 0.18e-3],
                      "tau_sigma_ratio": 1.43}],
            "metrics": ["final_n2"],
            "workers": 1,
        },
    }
    cfg = _write(tmp_path, payload)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha0", "sigma", "final_n2"]
    assert len(rows) == 5
    meta = json.loads((out / "sweep.json").read_text())
    assert meta["failures"] == []
    assert len(meta["axes"]) == 2


def test_sweep_json_reports_the_integrator_work_batches_and_blas_setting(tmp_path):
    # kappa moves the collapse rates, so each kappa row is a batch of its own
    axes = [{"path": "kappa", "values": [1e3, 4e3]}, {"path": "alpha0", "values": [1500.0, 2500.0]}]
    payload = {
        "system": {"temperature_k": 0.0},
        "schedule": {"kind": "stirap", "alpha0": 2000.0, "tau_s": 0.15e-3 / 1.43,
                     "sigma1_s": 0.15e-3, "sigma2_s": 0.15e-3},
        "dims": [2, 3, 3],
        "initial": {"kind": "fock", "n": 1},
        "horizon": {"start_s": -0.6e-3, "end_s": 0.6e-3},
        "sample_count": 5,
        "sweep": {"axes": axes, "metrics": ["final_n2"], "workers": 1},
    }
    cfg = _write(tmp_path, payload)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    meta = json.loads((tmp_path / "o" / "sweep.json").read_text())
    base = cli.build_scenario(cli.load_config(None, cfg))
    kappas, alphas = (cli._axis_from_config(a) for a in axes)
    stats = []
    for kappa in kappas.values:
        for alpha0 in alphas.values:
            cell = sweep.apply_axis_value(sweep.apply_axis_value(base, kappas, kappa),
                                          alphas, alpha0)
            cell = replace(cell, picture=sweep.pick_picture(cell))
            stats.append(protocols.run_scenario(cell).summary["integrator"])
    summed = ("accepted", "rejected", "rhs_evals", "clamped", "interpolated")
    assert meta["integrator"] == {**{k: sum(s[k] for s in stats) for k in summed},
                                  "h_min": min(s["h_min"] for s in stats),
                                  "h_max": max(s["h_max"] for s in stats)}
    assert meta["batch_count"] == len(meta["batches"]) == 2
    for batch in meta["batches"]:
        assert batch["cells"] == 2 and batch["wall_time_s"] > 0.0
        assert batch["blas_threads"] is None or batch["blas_threads"]["used"] == 1


def test_axis_units_converted(tmp_path):
    # kappa axis values are ordinary Hz in the config and rad/s internally;
    # the emitted CSV reports the config units
    payload = {
        "system": {"temperature_k": 0.0},
        "schedule": {"kind": "stirap", "alpha0": 2000.0, "tau_s": 0.15e-3 / 1.43,
                     "sigma1_s": 0.15e-3, "sigma2_s": 0.15e-3},
        "dims": [2, 3, 3],
        "initial": {"kind": "fock", "n": 1},
        "horizon": {"start_s": -0.6e-3, "end_s": 0.6e-3},
        "sample_count": 5,
        "sweep": {"axes": [{"path": "kappa", "values": [1e3, 4e3]}],
                  "metrics": ["final_n2"], "workers": 1},
    }
    cfg = _write(tmp_path, payload)
    out = tmp_path / "swk"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "sweep.json").read_text())
    np.testing.assert_allclose(meta["axes"][0]["values"], [1000.0, 4000.0], rtol=1e-12)


# ------------------------------------------------- config schema and exit codes

def _run(tmp_path, command, preset, override):
    """Run ``command`` (the subcommand, then any flags) on ``preset`` with ``override``."""
    cfg = _write(tmp_path, override)
    return main([*command.split(), "--preset", preset, "--config", cfg,
                 "--out", str(tmp_path / "o")])


BAD_INPUT = {
    "dims-not-integers": ("simulate", "bell-lossless", {"dims": ["a", 3, 3]}),
    # json reads NaN; a NaN start stepped forever
    "horizon-start-nan": ("simulate", "bell-lossless", {"horizon": {"start_s": math.nan}},
                          "horizon"),
    "target-alpha-nan": ("simulate", "bell-lossless",
                         {"target": {"kind": "product_coherent", "alpha": math.nan}}, "alpha"),
    "fock-above-dim": ("simulate", "bell-lossless",
                       {"dims": [2, 3, 3], "initial": {"kind": "fock", "n": 7}}),
    # a sweep's base checks its initial state against its dims, as a target, before any cell
    "sweep-fock-above-dim": ("sweep", "sweep-kappa-alpha", {"initial": {"kind": "fock", "n": 7}},
                             "fock occupation 7 outside dim 4"),
    "dims-two-modes": ("simulate", "bell-lossless", {"dims": [3, 3]}, "three mode dims"),
    "dims-one-level": ("simulate", "bell-lossless", {"dims": [2, 1, 3]}, "each >= 2"),
    # dims and sample_count are integers: a fraction is an error, not truncated
    "dims-fraction": ("simulate", "bell-lossless", {"dims": [2, 3.7, 3]}, "invalid dims", "3.7"),
    "sample-count-fraction": ("simulate", "bell-lossless", {"sample_count": 5.9},
                              "invalid scenario", "5.9"),
    "picture-unknown": ("simulate", "bell-lossless", {"picture": "lab"}, "unknown picture"),
    "target-kind-unknown": ("simulate", "bell-lossless", {"target": {"kind": "bell"}},
                            "unknown target kind 'bell'"),
    # the target block is read by the key rule of every block: no truncated integers
    "target-n-fraction": ("simulate", "bell-lossless",
                          {"target": {"kind": "fock_mode2", "n": 1.5}}, "invalid target", "1.5"),
    "target-weights-missing": ("simulate", "bell-lossless",
                               {"target": {"kind": "weights_mode2"}}),
    "axis-without-count": ("sweep", "sweep-kappa-alpha",
                           {"sweep": {"axes": [{"path": "kappa", "start": 1e3,
                                                "stop": 2e3}]}}),
    "coherent-truncated": ("simulate", "bell-lossless",
                           {"initial": {"kind": "coherent", "alpha": 3}}),
    "verify-two-phases": ("verify", "verify-lossless", {"verify": {"phi2_count": 2}}),
    # boolean keys take only JSON booleans: the string "false" is no flag
    "lossless-string": ("simulate", "bell-lossless", {"lossless": "false"}),
    "lossless-integer": ("simulate", "bell-lossless", {"lossless": 0}),
    "include-forward-string": ("verify", "verify-lossless",
                               {"verify": {"include_forward": "false"}}),
    "exact-pulse-width-null": ("adiabaticity", "adiabaticity-stirap",
                               {"adiabaticity": {"exact_pulse_width": None}}),
    # every block must be a JSON object, and schedules a list of them
    "schedule-not-object": ("simulate", "bell-lossless", {"schedule": 5}),
    "schedules-not-list": ("simulate", "fstirap-reverse-10mK", {"schedules": 5}),
    "schedules-item-not-object": ("simulate", "fstirap-reverse-10mK", {"schedules": [5]}),
    "initial-not-object": ("simulate", "bell-lossless", {"initial": "fock"}),
    "initial.mode2-not-object": ("simulate", "bell-lossless", {"initial": {"mode2": [1]}}),
    "target-not-object": ("simulate", "bell-lossless", {"target": 5}),
    "horizon-not-object": ("simulate", "bell-lossless", {"horizon": 5}),
    "integrator-not-object": ("simulate", "bell-lossless", {"integrator": [1e-8]}),
    "system-not-object": ("simulate", "bell-lossless", {"system": 5}),
    "sweep-not-object": ("sweep", "sweep-kappa-alpha", {"sweep": 5}),
    "plan-not-object": ("plan", "plan-heralding", {"plan": [1]}),
    "adiabaticity-not-object": ("adiabaticity", "adiabaticity-stirap", {"adiabaticity": "x"}),
    "verify-not-object": ("verify", "verify-lossless", {"verify": [1]}),
    # a list key given a scalar is named, and a sweep rejects it before any cell runs
    "sweep-axes-scalar": ("sweep", "sweep-kappa-alpha", {"sweep": {"axes": 5}}, "sweep.axes"),
    "sweep-metrics-scalar": ("sweep", "sweep-kappa-alpha", {"sweep": {"metrics": 5}},
                             "sweep.metrics"),
    "contour-levels-scalar": ("sweep", "sweep-kappa-alpha", {"sweep": {"contour_levels": 5}},
                              "sweep.contour_levels"),
    "contour-levels-not-numbers": ("sweep", "sweep-kappa-alpha",
                                   {"sweep": {"contour_levels": ["a"]}}, "sweep.contour_levels"),
    # target weights go through the explicit-weights recipe
    "target-weights-too-long": ("simulate", "bell-lossless",
                                {"target": {"kind": "weights_mode2", "weights": [0, 1, 0, 0]}},
                                "explicit weights exceed"),
    "target-weights-zero": ("simulate", "bell-lossless",
                            {"target": {"kind": "weights_mode2", "weights": [0, 0]}},
                            "explicit weights must have positive mass"),
    "eval-time-string": ("simulate", "bell-lossless", {"eval_time_s": "x"}),
    # an eval_time outside the horizon would start the run before it or read past its end
    "eval-time-before-horizon": ("simulate", "table2-stirap-10mK", {"eval_time_s": -1.0},
                                 "outside the horizon"),
    # an explicit state must be Hermitian and positive
    "explicit-negative-weight": ("simulate", "bell-lossless",
                                 {"initial": {"kind": "explicit", "weights": [1, -0.5]},
                                  "dims": [2, 3, 3], "sample_count": 5,
                                  "target": {"kind": "fock_mode2"}}, "weights must be >= 0"),
    "explicit-non-hermitian-matrix": ("simulate", "bell-lossless",
                                      {"initial": {"kind": "explicit",
                                                   "matrix": [[0.5, 0.9], [0.1, 0.5]]},
                                       "dims": [2, 2, 3], "sample_count": 5,
                                       "target": {"kind": "fock_mode2"}}, "not Hermitian"),
    # every run computes every series: there is no top-level metrics key
    "metrics-root-key": ("sweep", "sweep-kappa-alpha", {"metrics": ["n1"]},
                         "unknown key(s) ['metrics'] in config root"),
    # the worker count is read with the other sweep keys, before the first cell
    "sweep-workers-string": ("sweep", "sweep-kappa-alpha", {"sweep": {"workers": "x"}},
                             "invalid sweep"),
    "sweep-workers-null": ("sweep", "sweep-kappa-alpha", {"sweep": {"workers": None}},
                           "invalid sweep"),
    # one rule for every worker count: a positive integer, neither truncated nor replaced
    "sweep-workers-fraction": ("sweep", "sweep-kappa-alpha", {"sweep": {"workers": 2.5}},
                               "invalid sweep", "2.5"),
    "sweep-workers-flag-negative": ("sweep --workers -4", "sweep-kappa-alpha", {},
                                    "positive integer", "-4"),
    "sweep-workers-flag-zero": ("sweep --workers 0", "sweep-kappa-alpha", {},
                                "positive integer", "not 0"),
    "verify-workers-fraction": ("verify", "verify-lossless", {"verify": {"workers": 2.5}},
                                "invalid verify", "2.5"),
    "verify-workers-flag-negative": ("verify --workers -4", "verify-lossless", {},
                                     "positive integer", "-4"),
    "verify-workers-flag-zero": ("verify --workers 0", "verify-lossless", {},
                                 "positive integer", "not 0"),
    # a NaN or infinite physics input raises instead of dropping a term or a pulse
    "kappa-nan": ("simulate", "table2-stirap-10mK", {"system": {"kappa_hz": math.nan}},
                  "kappa must be finite"),
    "sigma-inf": ("simulate", "table2-stirap-10mK", {"schedule": {"sigma1_s": math.inf}},
                  "pulse widths must be finite"),
    "sweep-metrics-empty": ("sweep", "sweep-kappa-alpha", {"sweep": {"metrics": []}},
                            "sweep.metrics"),
    "contour-field-not-a-metric": ("sweep", "sweep-kappa-alpha",
                                   {"sweep": {"contour_field": "nosuch",
                                              "contour_levels": [0.5]}}, "'nosuch'"),
    # an explicit matrix is checked as a density matrix, trace included
    "explicit-matrix-trace-2": ("simulate", "bell-lossless",
                                {"initial": {"kind": "explicit", "matrix": [[1, 0], [0, 1]]},
                                 "dims": [2, 2, 3], "sample_count": 5,
                                 "target": {"kind": "fock_mode2"}}, "trace"),
    # a sweep metric that no run's summary carries is rejected before the first cell
    "sweep-metric-not-reported": ("sweep", "sweep-kappa-alpha",
                                  {"sweep": {"metrics": ["final_n3"]}}, "'final_n3'"),
    # verify-lossless has no target; degenerate-diagnostics sets a root picture, which no
    # sweep takes
    "sweep-fidelity-without-target": ("sweep", "verify-lossless",
                                      {"sweep": {"axes": [{"path": "kappa",
                                                           "values": [1e3, 2e3]}],
                                                 "metrics": ["fidelity"]}}, "'fidelity'"),
    "tau-sigma-ratio-string": ("sweep", "sweep-tau-sigma",
                               {"sweep": {"axes": [{"path": "sigma", "values": [1e-4, 2e-4],
                                                    "tau_sigma_ratio": "x"}]}}, "'x'"),
    # the ratio links tau to sigma; on any other axis it was read by no one
    "tau-sigma-ratio-on-alpha0": ("sweep", "sweep-kappa-alpha",
                                  {"sweep": {"axes": [{"path": "alpha0", "values": [1e3, 2e3],
                                                       "tau_sigma_ratio": 1.43}]}},
                                  "tau_sigma_ratio", "'alpha0'"),
    # contours need a plane: a one-axis sweep wrote none and said nothing
    "contour-levels-one-axis": ("sweep", "sweep-delta-sigma",
                                {"sweep": {"axes": [{"path": "delta",
                                                     "values": [1e3, 2e3]}]}},
                                "sweep.contour_levels", "two axes"),
    # only a boolean key takes a boolean: no n = 1 or kappa = 2 pi rad/s from true
    "target-n-boolean": ("simulate", "bell-lossless",
                         {"target": {"kind": "fock_mode2", "n": True}}, "target.n", "True"),
    "kappa-boolean": ("simulate", "table2-stirap-10mK", {"system": {"kappa_hz": True}},
                      "system.kappa_hz", "True"),
    "contour-levels-boolean": ("sweep", "sweep-kappa-alpha",
                               {"sweep": {"contour_levels": [True]}}, "sweep.contour_levels"),
    # a metric that is no string is named, not sorted against the summary keys
    "sweep-metric-not-a-string": ("sweep", "sweep-kappa-alpha",
                                  {"sweep": {"metrics": ["final_n3", 5]}},
                                  "metrics must be summary keys"),
    # the axis count and the verify grid are read by the key rule: no truncated integers
    "axis-count-fraction": ("sweep", "sweep-kappa-alpha",
                            {"sweep": {"axes": [{"path": "kappa", "start": 1e3, "stop": 2e3,
                                                 "count": 2.7}]}}, "invalid sweep axis", "2.7"),
    "verify-phi2-count-fraction": ("verify", "verify-lossless", {"verify": {"phi2_count": 3.9}},
                                   "invalid verify", "3.9"),
    "tau-sigma-ratio-zero": ("sweep", "sweep-tau-sigma",
                             {"sweep": {"axes": [{"path": "sigma", "values": [1e-4, 2e-4],
                                                  "tau_sigma_ratio": 0}]}},
                             "tau_sigma_ratio must be > 0"),
    # a bool is no number where a list or an axis number is read: no weight or ratio of 1.0
    "explicit-weights-boolean": ("simulate", "bell-lossless",
                                 {"initial": {"kind": "explicit", "weights": [True, False]},
                                  "dims": [2, 3, 3], "sample_count": 5,
                                  "target": {"kind": "fock_mode2"}}, "explicit weights",
                                 "booleans"),
    "target-weights-boolean": ("simulate", "bell-lossless",
                               {"target": {"kind": "weights_mode2", "weights": [False, True]}},
                               "target weights", "booleans"),
    "tau-sigma-ratio-boolean": ("sweep", "sweep-tau-sigma",
                                {"sweep": {"axes": [{"path": "sigma", "values": [1e-4, 2e-4],
                                                     "tau_sigma_ratio": True}]}},
                                "tau_sigma_ratio", "booleans"),
    # a block that sets one value two ways names both keys instead of dropping one
    "verify-phi2-values-and-count": ("verify", "verify-lossless",
                                     {"verify": {"phi2_values": [0, 1, 2], "phi2_count": 99}},
                                     "'phi2_values'", "'phi2_count'"),
    "adiabaticity-omega0-and-g": ("adiabaticity", "adiabaticity-stirap",
                                  {"adiabaticity": {"omega0_hz": 2e4, "g_hz": 99}},
                                  "'omega0_hz'", "'g_hz'"),
    # each sweep cell runs in the picture pick_picture chooses: a root picture was dropped
    "sweep-root-picture": ("sweep", "sweep-kappa-alpha", {"picture": "full"},
                           "'picture'", "'sweep'"),
}


@pytest.mark.parametrize("command", ["simulate", "adiabaticity", "plan"])
def test_workers_flag_only_where_it_acts(tmp_path, command):
    # only sweep and verify run a pool; the other commands took the flag and ignored it
    preset = {"simulate": "bell-lossless", "adiabaticity": "adiabaticity-stirap",
              "plan": "plan-heralding"}[command]
    with pytest.raises(SystemExit) as info:
        main([command, "--preset", preset, "--workers", "2", "--out", str(tmp_path / "o")])
    assert info.value.code == 2


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_2(tmp_path, capsys, monkeypatch, case):
    def no_run(*args, **kwargs):
        raise AssertionError("bad input must be rejected before any integration")

    monkeypatch.setattr(sweep, "run_batches", no_run)  # run_sweep's own checks still run
    monkeypatch.setattr(protocols, "evolve", no_run)
    command, preset, override, *named = BAD_INPUT[case]
    assert _run(tmp_path, command, preset, override) == 2
    err = capsys.readouterr().err
    assert all(text in err for text in named)


UNKNOWN_KEY = {
    "system": ("simulate", "bell-lossless", "omega3_hz", {"system": {"omega3_hz": 1.0}}),
    "schedule": ("simulate", "bell-lossless", "sigma_s", {"schedule": {"sigma_s": 1e-4}}),
    "initial": ("simulate", "bell-lossless", "occupation",
                {"initial": {"occupation": 1}}),
    "initial.mode2": ("simulate", "bell-lossless", "temperature_k",
                      {"initial": {"mode2": {"kind": "thermal", "temperature_k": 0.1}}}),
    "integrator": ("simulate", "bell-lossless", "atol", {"integrator": {"atol": 1e-9}}),
    "integrator.max_step_s": ("simulate", "bell-lossless", "max_step_s",
                              {"integrator": {"max_step_s": 1e-6}}),
    "horizon": ("simulate", "bell-lossless", "mid_s", {"horizon": {"mid_s": 0.0}}),
    # the scenario reads these blocks with its root keys, but takes no new spelling there
    "integrator.sample_count": ("simulate", "bell-lossless", "sample_count",
                                {"integrator": {"sample_count": 5}}),
    "horizon.start_hz": ("simulate", "bell-lossless", "start_hz",
                         {"horizon": {"start_hz": 0.0}}),
    "target": ("simulate", "bell-lossless", "nbar", {"target": {"nbar": 0.1}}),
    "plan": ("plan", "plan-heralding", "gamma_c_hz", {"plan": {"gamma_c_hz": 1.0}}),
    "adiabaticity": ("adiabaticity", "adiabaticity-stirap", "omega1_rads",
                     {"adiabaticity": {"omega1_rads": 1.0}}),
    "verify": ("verify", "verify-lossless", "base", {"verify": {"base": 1}}),
    "sweep": ("sweep", "sweep-kappa-alpha", "cells", {"sweep": {"cells": 4}}),
    "sweep.auto_picture": ("sweep", "sweep-kappa-alpha", "auto_picture",
                           {"sweep": {"auto_picture": False}}),
    "sweep axis": ("sweep", "sweep-kappa-alpha", "unit",
                   {"sweep": {"axes": [{"path": "kappa", "values": [1e3, 2e3],
                                        "unit": "Hz"}]}}),
    # a unit suffix only where it names a unit: not on a name that has one, nor on an int
    "system.omega1_hz_hz": ("simulate", "bell-lossless", "omega1_hz_hz",
                            {"system": {"omega1_hz_hz": 1e6}}),
    "initial.n_hz": ("simulate", "bell-lossless", "n_hz", {"initial": {"n_hz": 1}}),
}


@pytest.mark.parametrize("block", sorted(UNKNOWN_KEY))
def test_unknown_key_in_each_block_exits_2_and_is_named(tmp_path, capsys, block):
    command, preset, key, override = UNKNOWN_KEY[block]
    assert _run(tmp_path, command, preset, override) == 2
    assert repr(key) in capsys.readouterr().err



def test_adiabaticity_omega0_is_read_under_every_spelling(tmp_path):
    # 2 pi x 5 kHz, half the default 2 g alpha0 of the preset
    reports = []
    for override in ({}, {"omega0": TWO_PI * 5e3}, {"omega0_hz": 5e3},
                     {"omega0_rads": TWO_PI * 5e3}):
        assert _run(tmp_path, "adiabaticity", "adiabaticity-stirap",
                    {"adiabaticity": override}) == 0
        reports.append(json.loads((tmp_path / "o" / "adiabaticity.json").read_text())["report"])
    default, *spelled = reports
    assert spelled[0] == spelled[1] == spelled[2] != default

def test_repeated_parameter_rejected(tmp_path, capsys):
    # the preset already gives gamma_m_rads
    assert _run(tmp_path, "plan", "plan-heralding", {"plan": {"gamma_m_hz": 0.3}}) == 2
    err = capsys.readouterr().err
    assert "'gamma_m_hz'" in err and "'gamma_m_rads'" in err


def test_build_reads_keys_by_the_unit_rule():
    def toy(freq: float, width: float, count: int, phase: complex = 0j, flag: bool = False):
        return dict(freq=freq, width=width, count=count, phase=phase, flag=flag)

    got = cli._build(toy, {"freq_hz": "2", "width_s": 1e-3, "count": "3", "phase_rad": 1},
                     "toy")
    assert got == {"freq": 2 * TWO_PI, "width": 1e-3, "count": 3, "phase": 1 + 0j,
                   "flag": False}
    assert type(got["phase"]) is complex
    assert cli._build(toy, {"freq": 5, "width": 1, "count": 2}, "toy")["freq"] == 5.0
    with pytest.raises(ConfigError, match="invalid toy"):
        cli._build(toy, {"freq_hz": "abc", "width_s": 1.0, "count": 1}, "toy")
    with pytest.raises(ConfigError, match="invalid toy"):  # a required parameter is missing
        cli._build(toy, {"freq_hz": 1.0}, "toy")
    with pytest.raises(ConfigError, match="toy must be a JSON object"):
        cli._build(toy, [], "toy")
    with pytest.raises(ConfigError, match="unknown key 'count'"):  # fixed is not a key
        cli._build(toy, {"freq_hz": 1.0, "width_s": 1.0, "count": 1}, "toy", count=2)


@pytest.mark.parametrize("path, unit", [
    ("delta", TWO_PI), ("kappa", TWO_PI), ("omega2", TWO_PI), ("params.g1", TWO_PI),
    ("params.delta2", TWO_PI), ("alpha0", 1.0), ("sigma", 1.0), ("tau", 1.0),
    ("temperature", 1.0), ("params.q1", 1.0), ("schedule.theta", 1.0),
])
def test_axis_frequencies_are_quoted_in_hz(path, unit):
    axis = cli._axis_from_config({"path": path, "values": [1.0, 2.0]})
    assert axis.values == (unit * 1.0, unit * 2.0)
    np.testing.assert_array_equal(cli._axis_output_values(axis), [1.0, 2.0])


@pytest.mark.parametrize("name", [n for n in preset_names() if "target" in preset_config(n)])
def test_every_preset_target_fits_its_dims_and_one_more_level(name):
    # a scenario re-built at other dims re-checks its target and scores it there
    scenario = cli.build_scenario(preset_config(name))
    keep = TargetSpec.REDUCTIONS[scenario.target.kind]
    for mode in (None, 0, 1, 2):
        dims = list(scenario.dims)
        if mode is not None:
            dims[mode] += 1
        grown = replace(scenario, dims=tuple(dims))
        state = grown.target.state(grown.dims)
        assert state.space.dims == tuple(dims[analysis.MODE_NAMES[m]] for m in keep)


def test_summary_wall_time_is_the_runs_own(tmp_path, monkeypatch):
    results = []

    def recording(scenario):
        results.append(protocols.run_scenario(scenario))
        return results[-1]

    monkeypatch.setattr(cli, "run_scenario", recording)
    cfg = _write(tmp_path, FAST_SIM)
    assert main(["simulate", "--preset", "bell-lossless", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())["summary"]
    assert summary["wall_time_s"] == results[0].summary["wall_time_s"]


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_builds_through_its_command(tmp_path, monkeypatch, name):
    # verify-50mK-thermal keeps 5 levels of its nbar = 0.5 thermal mode, a tail of 4.115e-3
    expected = (pytest.warns(TruncationWarning, match="tail mass 4.115e-03")
                if name == "verify-50mK-thermal" else contextlib.nullcontext())
    with expected:
        _builds_through_its_command(tmp_path, monkeypatch, name)


def _builds_through_its_command(tmp_path, monkeypatch, name):
    cfg = preset_config(name)
    for command in ("plan", "adiabaticity"):
        if command in cfg:
            assert main([command, "--preset", name, "--out", str(tmp_path)]) == 0
            return
    assert isinstance(cli.build_scenario(cfg), Scenario)
    for block in cfg.get("sweep", {}).get("axes", []):
        assert isinstance(cli._axis_from_config(block), SweepAxis)
    if "verify" in cfg:
        calls = []

        @functools.wraps(run_interferometry)
        def fake(base, phi2_grid, **kwargs):
            calls.append((base, phi2_grid, kwargs))
            zeros = np.zeros(len(phi2_grid))
            return FringeResult(np.asarray(phi2_grid), zeros, 0.0, 0.0, 0.0)

        monkeypatch.setattr(cli, "run_interferometry", fake)
        assert main(["verify", "--preset", name, "--out", str(tmp_path)]) == 0
        (base, phi2, kwargs), = calls
        block = cfg["verify"]
        assert base == cli.build_scenario(cfg)
        assert len(phi2) == block.get("phi2_count", _default(cli._phase_grid, "phi2_count"))
        for key, name in (("wait_s", "wait"), ("workers", "workers"),
                          ("include_forward", "include_forward")):
            default = _default(run_interferometry, name)
            assert kwargs.get(name, default) == block.get(key, default)


def test_initial_matrix_matches_weights():
    cfg = preset_config("table2-stirap-50mK")
    weights = cfg["initial"]["weights"]
    by_matrix = dict(cfg, initial={"kind": "explicit",
                                   "matrix": np.diag(weights + [0.0]).tolist()})
    space = HilbertSpace(tuple(cfg["dims"]))
    rho_w = build_initial_state(space, cli.build_scenario(cfg).initial)
    rho_m = build_initial_state(space, cli.build_scenario(by_matrix).initial)
    np.testing.assert_allclose(rho_m.matrix, rho_w.matrix, rtol=0, atol=1e-15)


def test_sweep_json_records_failure_time(tmp_path, monkeypatch):
    failures = (((0,), "StiffnessError", "step size underflow", 1.25e-4),
                ((1,), "InvalidArgumentError", "pulse widths must be > 0", None))

    def failed_sweep(base, axes, metrics, worker_count):
        fields = {m: np.full(len(axes[0].values), np.nan) for m in metrics}
        return SweepResult(axes=tuple(axes), fields=fields, failures=failures)

    monkeypatch.setattr(cli, "run_sweep", failed_sweep)
    override = {"sweep": {"axes": [{"path": "kappa", "values": [1e3, 2e3]}]}}
    assert _run(tmp_path, "sweep", "sweep-kappa-alpha", override) == 0
    meta = json.loads((tmp_path / "o" / "sweep.json").read_text())
    assert meta["failures"] == [
        {"cell": [0], "error": "StiffnessError", "message": "step size underflow",
         "time_s": 1.25e-4},
        {"cell": [1], "error": "InvalidArgumentError", "message": "pulse widths must be > 0",
         "time_s": None}]


def test_summary_does_not_depend_on_the_blas_thread_count(tmp_path):
    src = Path(cli.__file__).parents[1]
    # dims (3,13,13): its 169 x 169 partial transposes are where two threads differed
    coherent507 = Path(__file__).parents[1] / "bench" / "coherent507.json"
    for source in (("--preset", "table2-stirap-1K"), ("--config", str(coherent507))):
        summaries = []
        for threads in ("1", "2"):
            out = tmp_path / f"{source[0].lstrip('-')}-blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-c", "import sys; from omstirap.cli import main; "
                            "sys.exit(main(sys.argv[1:]))", "simulate", *source,
                            "--out", str(out)], env=env, check=True, timeout=300)
            summary = json.loads((out / "summary.json").read_text())
            summary["summary"].pop("wall_time_s")
            summary["summary"].pop("timing")
            # the setting a run finds differs by design; its pass runs on one thread
            assert summary["summary"].pop("blas_threads") == {"seen": int(threads), "used": 1}
            summaries.append(summary)
        assert summaries[0] == summaries[1], source


_PURE_RUN = """
import hashlib, json, sys
from omstirap.cli import build_scenario
from omstirap.protocols import run_scenario
traj = run_scenario(build_scenario(json.load(open(sys.argv[1])))).trajectory
print(traj.stats, hashlib.sha256(b"".join(s.matrix.tobytes() for s in traj.states)).hexdigest())
"""


def test_pure_path_states_do_not_depend_on_the_blas_thread_count():
    # criterion 1 at dims (3,13,13): the pure-state integrator renormalizes every step
    src = Path(cli.__file__).parents[1]
    config = Path(__file__).parents[1] / "bench" / "coherent507.json"
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        runs.append(subprocess.run([sys.executable, "-c", _PURE_RUN, str(config)], env=env,
                                   check=True, timeout=300, capture_output=True, text=True).stdout)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_integration_failure_exits_3(tmp_path, capsys, monkeypatch, workers):
    def diverged(*args, **kwargs):
        raise IntegrationDivergedError(1.5e-3, 0.5, 1e-4)

    # the fringe points run in forked workers, which inherit the stub
    monkeypatch.setattr(protocols, "run_scenarios", diverged)
    assert main(["verify", "--preset", "verify-lossless", "--workers", str(workers),
                 "--out", str(tmp_path / "o")]) == 3
    assert "integration failed: trace drift 5.000e-01 exceeded 1e-04" in capsys.readouterr().err



def test_an_error_inside_the_fringe_run_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken fringe point")

    # only reading the verify block reports a ValueError as a config error
    monkeypatch.setattr(protocols, "run_scenarios", broken)
    with pytest.raises(ValueError, match="broken fringe point"):
        main(["verify", "--preset", "verify-lossless", "--out", str(tmp_path / "o")])

def test_simulate_integration_failure_exits_3(tmp_path, capsys, monkeypatch):
    def underflow(*args, **kwargs):
        raise StiffnessError(-1.25e-3)

    monkeypatch.setattr(protocols, "evolve", underflow)
    assert _run(tmp_path, "simulate", "table2-stirap-10mK", {}) == 3
    assert "step size underflow at t = -1.250000e-03 s" in capsys.readouterr().err


def test_sweep_json_records_contours(tmp_path, monkeypatch):
    def stub_sweep(base, axes, metrics, worker_count):
        # final_n2 rises along the first axis only: the 0.5 contour is one vertical line
        field = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        return SweepResult(axes=tuple(axes), fields={m: field for m in metrics})

    monkeypatch.setattr(cli, "run_sweep", stub_sweep)
    override = {"sweep": {"axes": [{"path": "kappa", "values": [1e3, 3e3]},
                                   {"path": "alpha0", "values": [1e3, 2e3, 3e3]}],
                          "contour_levels": [0.5]}}
    assert _run(tmp_path, "sweep", "sweep-kappa-alpha", override) == 0
    meta = json.loads((tmp_path / "o" / "sweep.json").read_text())
    (line,) = meta["contours"]["0.5"]
    line = np.asarray(line)
    np.testing.assert_allclose(line[:, 0], TWO_PI * 2e3)  # axis units: rad/s
    np.testing.assert_allclose(sorted(line[:, 1]), [1e3, 2e3, 3e3])


def test_cli_import_leaves_root_finding_and_special_functions_unloaded():
    # adiabatic imports brentq and lambertw where it calls them, and the two
    # matrix-exponential callers import scipy.linalg
    src = str(Path(omstirap.__file__).resolve().parents[1])
    code = ("import sys, omstirap.cli; print(sorted(m for m in "
            "('scipy.optimize', 'scipy.special', 'scipy.linalg') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "[]"


def test_cli_import_does_not_look_up_the_blas_library():
    # the lookup happens at the first observables pass, outside the timed start-up
    src = str(Path(omstirap.__file__).resolve().parents[1])
    code = ("import ctypes; opened = []; cdll = ctypes.CDLL.__init__\n"
            "def spy(self, name, *a, **k):\n"
            "    opened.extend([name] if 'openblas' in str(name) else []); cdll(self, name, *a, **k)\n"
            "ctypes.CDLL.__init__ = spy\n"
            "import omstirap.cli, omstirap.blas\n"
            "print(omstirap.blas._openblas.cache_info().currsize, opened)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "0 []"
