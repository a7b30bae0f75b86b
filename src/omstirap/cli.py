"""Command-line entry point: config parsing, dispatch, data emission.

Commands: ``simulate``, ``sweep``, ``adiabaticity``, ``verify``, ``plan``.
Config files are JSON in ordinary units (``*_hz`` frequencies as f = w/2pi,
``*_s`` seconds, ``*_k`` kelvin, ``*_rad`` angles); the conversion to
angular rates happens once, here.  Unknown keys are rejected.  Exit codes:
0 success, 2 configuration error, 3 integration failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .adiabatic import adiabaticity_bounds
from .errors import ConfigError, IntegrationDivergedError, StiffnessError
from .hilbert import HilbertSpace, StateVector, coherent_state, fock_state
from .model import TWO_PI, DriveSchedule, SystemParams
from .presets import preset_config, preset_names
from .protocols import (
    InitialStateSpec,
    PlannerInputs,
    Scenario,
    TargetSpec,
    cooling_steady_state,
    detection_budget,
    run_interferometry,
    run_scenario,
    visibility_model,
)
from .sweep import SweepAxis, extract_contours, run_sweep

_SYSTEM_KEYS = {
    "omega1_hz", "omega2_hz", "kappa_hz", "g1_hz", "g2_hz", "q1", "q2",
    "temperature_k", "delta1_hz", "delta2_hz", "omega_c_hz",
}
_SCHEDULE_KEYS = {
    "kind", "alpha0", "tau_s", "sigma1_s", "sigma2_s", "theta_rad",
    "phase1_rad", "phase2_rad", "t0_s",
}
_INITIAL_KEYS = {
    "kind", "n", "alpha", "nbar", "weights", "signal_rate_hz", "dcr_hz", "mode2",
}
_TARGET_KEYS = {"kind", "weights", "n", "alpha", "theta_rad"}
_INTEGRATOR_KEYS = {"rel_tol", "abs_tol", "max_step_s"}
_AXIS_KEYS = {"path", "start", "stop", "count", "values", "scale", "tau_sigma_ratio"}
_SWEEP_KEYS = {"axes", "metrics", "workers", "auto_picture", "contour_levels",
               "contour_field"}
_VERIFY_KEYS = {"phi1_rad", "phi2_count", "phi2_span_rad", "phi2_values", "wait_s",
                "workers", "include_forward"}
_PLAN_KEYS = {
    "g_hz", "kappa_hz", "delta_hz", "omega_m_hz", "gamma_m_rads", "gamma_m_hz",
    "n_th", "cool_duration_s", "blue_duration_s", "readout_duration_s",
    "readout_g_hz", "eta_d", "eta_r", "dcr_hz", "stokes_probability", "rho00",
    "wait_s",
}
_ADIABATICITY_KEYS = {"theta_rad", "sigma_s", "tau_s", "alpha0", "g_hz",
                      "omega0_rads", "n_o", "exact_pulse_width"}
_TOP_KEYS = {
    "system", "schedule", "schedules", "dims", "initial", "horizon",
    "sample_count", "eval_time_s", "picture", "lossless", "integrator",
    "target", "metrics", "sweep", "verify", "plan", "adiabaticity",
}

#: axis paths whose config values are ordinary frequencies
_HZ_PATHS = {"kappa", "delta", "omega1", "omega2", "params.kappa",
             "params.omega1", "params.omega2", "params.delta1", "params.delta2",
             "params.g1", "params.g2"}


def _check_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(preset: str | None, config_path: str | None) -> dict:
    cfg: dict = {}
    if preset:
        try:
            cfg = preset_config(preset)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, user)
    if not cfg:
        raise ConfigError("no preset and no config file given")
    _check_keys(cfg, _TOP_KEYS, "config root")
    return cfg


def build_system(block: dict) -> SystemParams:
    _check_keys(block, _SYSTEM_KEYS, "system")
    try:
        return SystemParams.from_ordinary(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid system block: {exc}") from exc


def build_schedule(block: dict) -> DriveSchedule:
    _check_keys(block, _SCHEDULE_KEYS, "schedule")
    try:
        return DriveSchedule(
            kind=block.get("kind", "stirap"),
            alpha0=float(block.get("alpha0", 2000.0)),
            tau=float(block["tau_s"]),
            sigma1=float(block["sigma1_s"]),
            sigma2=float(block["sigma2_s"]),
            theta=float(block.get("theta_rad", math.pi / 2)),
            phase1=float(block.get("phase1_rad", 0.0)),
            phase2=float(block.get("phase2_rad", 0.0)),
            t0=float(block.get("t0_s", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid schedule block: {exc}") from exc


def build_initial(block: dict) -> InitialStateSpec:
    _check_keys(block, _INITIAL_KEYS, "initial")
    mode2 = block.get("mode2")
    try:
        return InitialStateSpec(
            kind=block.get("kind", "fock"),
            n=int(block.get("n", 0)),
            alpha=complex(block.get("alpha", 0.0)),
            nbar=float(block.get("nbar", 0.0)),
            weights=block.get("weights"),
            signal_rate=float(block.get("signal_rate_hz", 0.0)),
            dcr=float(block.get("dcr_hz", 0.0)),
            mode2=build_initial(mode2) if mode2 else None,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid initial block: {exc}") from exc


def build_target(block: dict, dims) -> TargetSpec:
    _check_keys(block, _TARGET_KEYS, "target")
    kind = block.get("kind")
    d1, d2 = dims[1], dims[2]
    pair = HilbertSpace((d1, d2))
    if kind == "psi_minus":
        amps = np.zeros(pair.total_dim, dtype=complex)
        amps[pair.index((1, 0))] = 1 / math.sqrt(2)
        amps[pair.index((0, 1))] = -1 / math.sqrt(2)
        return TargetSpec("mech12", StateVector(pair, amps))
    if kind == "superposition_minus_mode2":
        amps = np.zeros(pair.total_dim, dtype=complex)
        amps[pair.index((0, 0))] = 1 / math.sqrt(2)
        amps[pair.index((0, 1))] = -1 / math.sqrt(2)
        return TargetSpec("mech12", StateVector(pair, amps))
    if kind == "weights_mode2":
        w = np.zeros(d2)
        for i, v in enumerate(block["weights"]):
            w[i] = v
        from .hilbert import DensityMatrix

        state = DensityMatrix(HilbertSpace((d2,)), np.diag((w / w.sum()).astype(complex)))
        return TargetSpec("mech2", state)
    if kind == "fock_mode1":
        return TargetSpec("mech12", fock_state(pair, int(block.get("n", 1)), 0))
    if kind == "fock_mode2":
        return TargetSpec("mech12", fock_state(pair, 0, int(block.get("n", 1))))
    if kind == "product_coherent":
        alpha = complex(block.get("alpha", 1.0))
        theta = float(block.get("theta_rad", math.pi / 4))
        c1 = coherent_state(d1, alpha * math.cos(theta)).amplitudes
        c2 = coherent_state(d2, -alpha * math.sin(theta)).amplitudes
        return TargetSpec("mech12", StateVector(pair, np.kron(c1, c2)))
    raise ConfigError(f"unknown target kind {kind!r}")


def build_scenario(cfg: dict, picture_override: str | None = None) -> Scenario:
    params = build_system(cfg.get("system", {}))
    if "schedules" in cfg and "schedule" in cfg:
        raise ConfigError("give either 'schedule' or 'schedules', not both")
    if "schedules" in cfg:
        schedule = tuple(build_schedule(b) for b in cfg["schedules"])
    else:
        schedule = build_schedule(cfg.get("schedule", {}))
    dims = tuple(int(d) for d in cfg.get("dims", [2, 5, 5]))
    if len(dims) != 3:
        raise ConfigError("dims must list exactly three mode dimensions")
    horizon_block = cfg.get("horizon", {"start_s": -2e-3, "end_s": 2e-3})
    _check_keys(horizon_block, {"start_s", "end_s"}, "horizon")
    integ = cfg.get("integrator", {})
    _check_keys(integ, _INTEGRATOR_KEYS, "integrator")
    metrics = tuple(cfg.get("metrics", ("n1", "n2", "nc", "negativity", "fidelity")))
    target = build_target(cfg["target"], dims) if "target" in cfg else None
    if target is None:
        metrics = tuple(m for m in metrics if m != "fidelity")
    try:
        return Scenario(
            params=params,
            schedule=schedule,
            initial=build_initial(cfg.get("initial", {"kind": "fock", "n": 1})),
            dims=dims,
            horizon=(float(horizon_block["start_s"]), float(horizon_block["end_s"])),
            sample_count=int(cfg.get("sample_count", 81)),
            metrics=metrics,
            target=target,
            eval_time=cfg.get("eval_time_s"),
            picture=picture_override or cfg.get("picture", "rwa"),
            lossless=bool(cfg.get("lossless", False)),
            rel_tol=float(integ.get("rel_tol", 1e-8)),
            abs_tol=float(integ.get("abs_tol", 1e-10)),
            max_step=integ.get("max_step_s"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def _axis_from_config(block: dict) -> SweepAxis:
    _check_keys(block, _AXIS_KEYS, "sweep axis")
    path = block["path"]
    if "values" in block:
        values = [float(v) for v in block["values"]]
    else:
        start, stop, count = float(block["start"]), float(block["stop"]), int(block["count"])
        if block.get("scale") == "log":
            values = list(np.geomspace(start, stop, count))
        else:
            values = list(np.linspace(start, stop, count))
    if path in _HZ_PATHS:
        values = [TWO_PI * v for v in values]
    return SweepAxis(
        path=path,
        values=tuple(values),
        scale=block.get("scale", "linear"),
        tau_sigma_ratio=block.get("tau_sigma_ratio"),
    )


def _axis_output_values(axis: SweepAxis) -> np.ndarray:
    vals = np.asarray(axis.values, dtype=float)
    return vals / TWO_PI if axis.path in _HZ_PATHS else vals


def _json_dump(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _provenance(cfg: dict, args) -> dict:
    return {
        "engine_version": __version__,
        "preset": args.preset,
        "effective_config": cfg,
    }


def cmd_simulate(args) -> int:
    cfg = load_config(args.preset, args.config)
    for key in ("sweep", "verify", "plan", "adiabaticity"):
        cfg.pop(key, None)
    # the trajectory CSV has a fixed column contract
    cfg["metrics"] = ["n1", "n2", "nc", "negativity", "fidelity"]
    scenario = build_scenario(cfg, picture_override=args.picture)
    if scenario.target is None:
        raise ConfigError("simulate needs a target block (fidelity column)")
    t0 = time.perf_counter()
    result = run_scenario(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    traj = result.trajectory
    with open(out / "trajectory.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "n1", "n2", "nc", "negativity", "fidelity",
                         "alpha1", "alpha2"])
        obs = traj.observables
        for i, t in enumerate(traj.times):
            writer.writerow(
                [repr(float(t))]
                + [repr(float(obs[c][i])) for c in
                   ("n1", "n2", "nc", "negativity", "fidelity", "alpha1", "alpha2")]
            )
    payload = _provenance(cfg, args)
    payload["summary"] = dict(result.summary)
    payload["summary"]["wall_time_s"] = time.perf_counter() - t0
    _json_dump(out / "summary.json", payload)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.preset, args.config)
    block = cfg.get("sweep")
    if not block:
        raise ConfigError("sweep command needs a 'sweep' block")
    _check_keys(block, _SWEEP_KEYS, "sweep")
    base = build_scenario(cfg, picture_override=args.picture)
    axes = [_axis_from_config(a) for a in block.get("axes", [])]
    if not axes:
        raise ConfigError("sweep block needs at least one axis")
    metrics = tuple(block.get("metrics", ["final_n2"]))
    workers = args.workers or int(block.get("workers", 1))
    t0 = time.perf_counter()
    result = run_sweep(
        base,
        axes,
        metrics=metrics,
        worker_count=workers,
        auto_picture=bool(block.get("auto_picture", True)),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    axis_vals = [_axis_output_values(a) for a in result.axes]
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [a.path for a in result.axes] + list(metrics)
        writer.writerow(header)
        for idx in np.ndindex(*(len(a.values) for a in result.axes)):
            row = [repr(float(axis_vals[k][i])) for k, i in enumerate(idx)]
            row += [repr(float(result.fields[m][idx])) for m in metrics]
            writer.writerow(row)
    payload = _provenance(cfg, args)
    payload["axes"] = [
        {"path": a.path, "scale": a.scale, "values": list(_axis_output_values(a))}
        for a in result.axes
    ]
    payload["metrics"] = list(metrics)
    payload["failures"] = [
        {"cell": list(idx), "error": kind, "message": message}
        for idx, kind, message in result.failures
    ]
    if block.get("contour_levels") and len(axes) == 2:
        fieldname = block.get("contour_field", metrics[0])
        contours = extract_contours(result, fieldname, block["contour_levels"])
        payload["contours"] = {
            str(level): [line.tolist() for line in lines]
            for level, lines in contours.items()
        }
    payload["wall_time_s"] = time.perf_counter() - t0
    _json_dump(out / "sweep.json", payload)
    return 0


def cmd_adiabaticity(args) -> int:
    cfg = load_config(args.preset, args.config)
    block = cfg.get("adiabaticity")
    if not block:
        raise ConfigError("adiabaticity command needs an 'adiabaticity' block")
    _check_keys(block, _ADIABATICITY_KEYS, "adiabaticity")
    try:
        if "omega0_rads" in block:
            omega0 = float(block["omega0_rads"])
        else:
            omega0 = 2.0 * TWO_PI * float(block.get("g_hz", 2.5)) * float(
                block.get("alpha0", 2000.0)
            )
        report = adiabaticity_bounds(
            theta=float(block["theta_rad"]),
            sigma=float(block["sigma_s"]),
            tau=float(block["tau_s"]),
            omega0=omega0,
            n_o=float(block.get("n_o", 5.0)),
            exact_pulse_width=bool(block.get("exact_pulse_width", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid adiabaticity block: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = _provenance(cfg, args)
    payload["report"] = {
        "theta_dot_max": report.theta_dot_max,
        "omega_at_zero_rads": report.omega_at_zero,
        "t_theta_width_s": report.t_theta_width,
        "t_omega_width_s": report.t_omega_width,
        "two_tau_over_sigma_lower": report.lower_bound,
        "two_tau_over_sigma_upper": report.upper_bound,
        "tau_over_sigma_window": list(report.tau_over_sigma_window),
        "satisfied": report.satisfied,
    }
    _json_dump(out / "adiabaticity.json", payload)
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.preset, args.config)
    block = cfg.get("verify")
    if not block:
        raise ConfigError("verify command needs a 'verify' block")
    _check_keys(block, _VERIFY_KEYS, "verify")
    base = build_scenario(cfg, picture_override=args.picture)
    phi1 = float(block.get("phi1_rad", 0.0))
    if "phi2_values" in block:
        phi2 = np.asarray([float(v) for v in block["phi2_values"]])
    else:
        span = float(block.get("phi2_span_rad", 4 * math.pi))
        count = int(block.get("phi2_count", 17))
        phi2 = np.linspace(-span / 2, span / 2, count)
    workers = args.workers or int(block.get("workers", 1))
    t0 = time.perf_counter()
    fringe = run_interferometry(
        base,
        phi2,
        phi1=phi1,
        wait=float(block.get("wait_s", 4e-3)),
        workers=workers,
        include_forward=bool(block.get("include_forward", True)),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "fringe.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phi2_rad", "p1"])
        for p2, p1 in zip(fringe.phi2_values, fringe.p1_values):
            writer.writerow([repr(float(p2)), repr(float(p1))])
    payload = _provenance(cfg, args)
    payload["fit"] = {
        "amplitude": fringe.amplitude,
        "visibility": fringe.visibility,
        "phase_rad": fringe.phase,
    }
    payload["wall_time_s"] = time.perf_counter() - t0
    _json_dump(out / "fringe.json", payload)
    return 0


def cmd_plan(args) -> int:
    cfg = load_config(args.preset, args.config)
    block = cfg.get("plan")
    if not block:
        raise ConfigError("plan command needs a 'plan' block")
    _check_keys(block, _PLAN_KEYS, "plan")
    if "gamma_m_rads" in block and "gamma_m_hz" in block:
        raise ConfigError("give gamma_m_rads or gamma_m_hz, not both")
    gamma_m = float(block.get("gamma_m_rads", TWO_PI * block.get("gamma_m_hz", 0.0)))
    try:
        inputs = PlannerInputs(
            g=TWO_PI * float(block["g_hz"]),
            kappa=TWO_PI * float(block["kappa_hz"]),
            delta=TWO_PI * float(block["delta_hz"]),
            omega_m=TWO_PI * float(block["omega_m_hz"]),
            gamma_m=gamma_m,
            n_th=float(block["n_th"]),
            cool_duration=float(block.get("cool_duration_s", 5e-3)),
            blue_duration=float(block.get("blue_duration_s", 1e-4)),
            readout_duration=float(block.get("readout_duration_s", 5e-4)),
            readout_g=TWO_PI * float(block.get("readout_g_hz", 0.0)),
            eta_d=float(block.get("eta_d", 1.0)),
            eta_r=float(block.get("eta_r", 1.0)),
            dcr=float(block.get("dcr_hz", 0.0)),
            stokes_probability=float(block.get("stokes_probability", 0.1)),
            rho00=float(block.get("rho00", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid plan block: {exc}") from exc
    gamma_opt, nbar_min, nbar_f = cooling_steady_state(inputs)
    t_herald, p_final, t_readout, readout_success = detection_budget(inputs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = _provenance(cfg, args)
    payload["plan"] = {
        "gamma_opt_rads": gamma_opt,
        "nbar_min": nbar_min,
        "nbar_f": nbar_f,
        "t_herald_s": t_herald,
        "p_final": p_final,
        "t_readout_s": t_readout,
        "readout_success": readout_success,
        "visibility": visibility_model(inputs, float(block.get("wait_s", 0.0))),
    }
    _json_dump(out / "plan.json", payload)
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "adiabaticity": cmd_adiabaticity,
    "verify": cmd_verify,
    "plan": cmd_plan,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="omstirap",
        description="Open-system simulation of optomechanical STIRAP",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--preset", help=f"one of: {', '.join(preset_names())}")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--picture", choices=("full", "rwa", "bs"), default=None)
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StiffnessError, IntegrationDivergedError) as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
