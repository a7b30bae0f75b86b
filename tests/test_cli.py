import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from omstirap.cli import main
from omstirap.presets import ALIASES, PRESETS, preset_config, preset_names

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
    assert set(stats) == {"accepted", "rejected", "rhs_evals", "h_min", "h_max"}
    assert stats["accepted"] >= 8  # at least one step per sample interval
    assert stats["rhs_evals"] == 2 + 6 * (stats["accepted"] + stats["rejected"])
    assert 0.0 < stats["h_min"] <= stats["h_max"]


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
    s1["summary"].pop("wall_time_s")
    s2["summary"].pop("wall_time_s")
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
        "metrics": ["n1", "n2"],
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
        "metrics": ["n2"],
        "sweep": {"axes": [{"path": "kappa", "values": [1e3, 4e3]}],
                  "metrics": ["final_n2"], "workers": 1},
    }
    cfg = _write(tmp_path, payload)
    out = tmp_path / "swk"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "sweep.json").read_text())
    np.testing.assert_allclose(meta["axes"][0]["values"], [1000.0, 4000.0], rtol=1e-12)
