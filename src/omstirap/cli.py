"""Command-line entry point: config parsing, dispatch, data emission.

Commands: ``simulate``, ``sweep``, ``adiabaticity``, ``verify``, ``plan``.
Config files are JSON.  The ``system``, ``schedule``, ``initial``, ``target``,
``plan``, ``adiabaticity`` and ``verify`` blocks take the parameters of the
constructor they feed as keys, with its defaults and annotated scalar types.
A key names a parameter exactly or, for a float or complex parameter whose
name carries no unit suffix yet, after one unit suffix: ``_hz`` (f = w/2pi)
is multiplied by 2pi; ``_rads``, ``_rad``, ``_s`` and ``_k`` pass through.
Sweep axes on ``delta`` or on a ``params.`` field that the system block sets
in ``_hz`` are in Hz too.  Unknown and repeated keys, a block that is not a
JSON object and a boolean key set to anything but ``true``/``false`` are
rejected.  Exit codes: 0 success, 2 configuration or domain error, 3
integration failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .adiabatic import adiabaticity_bounds
from .errors import ConfigError, IntegrationDivergedError, OmstirapError, StiffnessError
from .model import TWO_PI, DriveSchedule, SystemParams
from .presets import preset_config, preset_names
from .protocols import (
    InitialStateSpec,
    PlannerInputs,
    Scenario,
    TargetSpec,
    check_workers,
    cooling_steady_state,
    detection_budget,
    run_interferometry,
    run_scenario,
    visibility_model,
)
from .sweep import SweepAxis, extract_contours, resolve_path, run_sweep

_INTEGRATOR_KEYS = {"rel_tol", "abs_tol"}
_AXIS_KEYS = {"path", "start", "stop", "count", "values", "scale", "tau_sigma_ratio"}
_SWEEP_KEYS = {"axes", "metrics", "workers", "contour_levels", "contour_field"}
_TOP_KEYS = {"system", "schedule", "schedules", "dims", "initial", "horizon",
             "sample_count", "eval_time_s", "picture", "lossless", "integrator",
             "target", "sweep", "verify", "plan", "adiabaticity"}

#: unit suffix of a config key -> factor from the config unit to the parameter's
_UNITS = {"_hz": TWO_PI, "_rads": 1.0, "_rad": 1.0, "_s": 1.0, "_k": 1.0}
_SCALARS = {t.__name__: t for t in (float, int, complex, bool, str)}
_ORDINARY = inspect.signature(SystemParams.from_ordinary).parameters


def _check_keys(block: dict, allowed: set | None, where: str):
    """Reject a ``block`` that is not a JSON object or has a key outside ``allowed``.

    ``allowed=None`` checks only that it is an object.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, not {block!r}")
    unknown = set() if allowed is None else set(block) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _list(block: dict, key: str, default, where: str) -> list:
    """``block[key]``, or ``default`` when absent, which must be a JSON list."""
    value = block.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a JSON list, not {value!r}")
    return value


@contextmanager
def _invalid(where: str):
    """Report a malformed value inside ``where`` as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing key {exc} in {where}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


@functools.cache
def _schema(fn) -> tuple:
    """Per parameter of ``fn``: (scalar type or None, optional); per key: (parameter, factor).

    Only a float or complex parameter whose name has no unit suffix takes one.
    """
    types = {}
    for name, param in inspect.signature(fn).parameters.items():
        ann = param.annotation
        ann = ann if isinstance(ann, str) else getattr(ann, "__name__", "")
        types[name] = (_SCALARS.get(ann.removesuffix(" | None")), ann.endswith(" | None"))
    keys = {name + unit: (name, factor) for name in types for unit, factor in _UNITS.items()
            if types[name][0] in (float, complex) and not name.endswith(tuple(_UNITS))}
    keys.update((name, (name, 1.0)) for name in types)
    return types, keys


def _flag(value, where: str) -> bool:
    """A JSON boolean; anything else (the string "false", 0, null) is an error."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, not {value!r}")
    return value


def _integer(value) -> int:
    """``int(value)``, except that a fractional float raises instead of truncating."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _build(fn, block: dict, where: str, **fixed):
    """Call ``fn`` with ``block`` read by the module's key rule, plus ``fixed``.

    The parameters in ``fixed`` are set by the caller and are not keys.
    """
    _check_keys(block, None, where)
    types, keys = _schema(fn)
    kwargs, seen = {}, {}
    with _invalid(where):
        for key, value in block.items():
            name, factor = keys.get(key, (None, None))
            if name is None or name in fixed:
                raise ConfigError(f"unknown key {key!r} in {where}; keys are "
                                  f"{sorted(set(types) - set(fixed))}; a float key without a "
                                  f"unit may add one of {list(_UNITS)}")
            if name in seen:
                raise ConfigError(f"repeated key {key!r} in {where}: "
                                  f"{seen[name]!r} already sets {name}")
            seen[name] = key
            scalar, optional = types[name]
            if scalar is bool:
                value = _flag(value, f"{where}.{key}")
            elif scalar is not None and not (optional and value is None):
                value = _integer(value) if scalar is int else scalar(value)
            kwargs[name] = value if factor == 1.0 else factor * value
        return fn(**kwargs, **fixed)


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


def build_initial(block: dict, where: str = "initial") -> InitialStateSpec:
    _check_keys(block, None, where)
    rest = dict(block)
    mode2 = rest.pop("mode2", None)
    return _build(InitialStateSpec, {"kind": "fock", **rest}, where,
                  mode2=build_initial(mode2, f"{where}.mode2") if mode2 else None)


def build_scenario(cfg: dict) -> Scenario:
    params = _build(SystemParams.from_ordinary, cfg.get("system", {}), "system")
    if "schedules" in cfg and "schedule" in cfg:
        raise ConfigError("give either 'schedule' or 'schedules', not both")
    blocks = _list(cfg, "schedules", [cfg.get("schedule", {})], "schedules")
    for b in blocks:
        _check_keys(b, None, "schedule")
    schedules = tuple(
        _build(DriveSchedule, {"kind": "stirap", "alpha0": 2000.0, **b}, "schedule")
        for b in blocks
    )
    with _invalid("dims"):
        dims = tuple(int(d) for d in cfg.get("dims", [2, 5, 5]))
    horizon_block = cfg.get("horizon", {"start_s": -2e-3, "end_s": 2e-3})
    _check_keys(horizon_block, {"start_s", "end_s"}, "horizon")
    integ = cfg.get("integrator", {})
    _check_keys(integ, _INTEGRATOR_KEYS, "integrator")
    target = _build(TargetSpec, cfg["target"], "target") if "target" in cfg else None
    initial = build_initial(cfg.get("initial", {"kind": "fock", "n": 1}))
    with _invalid("scenario"):
        return Scenario(
            params=params,
            schedule=schedules,
            initial=initial,
            dims=dims,
            horizon=(float(horizon_block["start_s"]), float(horizon_block["end_s"])),
            sample_count=int(cfg.get("sample_count", 81)),
            target=target,
            eval_time=None if cfg.get("eval_time_s") is None else float(cfg["eval_time_s"]),
            picture=cfg.get("picture", "rwa"),
            lossless=_flag(cfg.get("lossless", False), "lossless"),
            rel_tol=float(integ.get("rel_tol", 1e-8)),
            abs_tol=float(integ.get("abs_tol", 1e-10)),
        )


def _axis_unit(path: str) -> float:
    """Config-to-internal factor of a sweep axis: frequencies are quoted in Hz."""
    kind, name = resolve_path(path)
    if kind == "delta" or kind == "params" and f"{name}_hz" in _ORDINARY:
        return _UNITS["_hz"]
    return 1.0


def _axis_from_config(block: dict) -> SweepAxis:
    _check_keys(block, _AXIS_KEYS, "sweep axis")
    with _invalid("sweep axis"):
        path = block["path"]
        if "values" in block:
            values = [float(v) for v in block["values"]]
        else:
            start, stop, count = float(block["start"]), float(block["stop"]), int(block["count"])
            if block.get("scale") == "log":
                values = list(np.geomspace(start, stop, count))
            else:
                values = list(np.linspace(start, stop, count))
        unit = _axis_unit(path)
        return SweepAxis(
            path=path,
            values=tuple(unit * v for v in values),
            scale=block.get("scale", "linear"),
            tau_sigma_ratio=block.get("tau_sigma_ratio"),
        )


def _axis_output_values(axis: SweepAxis) -> np.ndarray:
    return np.asarray(axis.values, dtype=float) / _axis_unit(axis.path)


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
    scenario = build_scenario(cfg)
    if scenario.target is None:
        raise ConfigError("simulate needs a target block (fidelity column)")
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
    payload["summary"] = result.summary
    _json_dump(out / "summary.json", payload)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.preset, args.config)
    block = cfg.get("sweep")
    if not block:
        raise ConfigError("sweep command needs a 'sweep' block")
    _check_keys(block, _SWEEP_KEYS, "sweep")
    base = build_scenario(cfg)
    axes = [_axis_from_config(a) for a in _list(block, "axes", [], "sweep.axes")]
    if not axes:
        raise ConfigError("sweep block needs at least one axis")
    metrics = tuple(_list(block, "metrics", ["final_n2"], "sweep.metrics"))
    if not metrics:
        raise ConfigError("sweep.metrics must name at least one summary key")
    levels = _list(block, "contour_levels", [], "sweep.contour_levels")
    if not all(isinstance(v, (int, float)) for v in levels):
        raise ConfigError(f"sweep.contour_levels must list numbers, not {levels!r}")
    contour_field = block.get("contour_field", metrics[0])
    if contour_field not in metrics:
        raise ConfigError(f"sweep.contour_field {contour_field!r} is not one of the "
                          f"sweep's metrics {list(metrics)}")
    workers = args.workers if args.workers is not None else block.get("workers", 1)
    with _invalid("sweep"):
        check_workers(workers)
    t0 = time.perf_counter()
    result = run_sweep(base, axes, metrics=metrics, worker_count=workers)
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
        {"cell": list(idx), "error": kind, "message": message, "time_s": time_s}
        for idx, kind, message, time_s in result.failures
    ]
    if levels and len(axes) == 2:
        contours = extract_contours(result, contour_field, levels)
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
    _check_keys(block, None, "adiabaticity")
    block = dict(block)
    g_hz, alpha0 = block.pop("g_hz", 2.5), block.pop("alpha0", 2000.0)
    fixed = {}
    if "omega0_rads" not in block:
        with _invalid("adiabaticity"):  # peak Rabi rate Omega_0 = 2 g alpha0
            fixed["omega0"] = 2.0 * TWO_PI * float(g_hz) * float(alpha0)
    report = _build(adiabaticity_bounds, block, "adiabaticity", **fixed)
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
    base = build_scenario(cfg)
    _check_keys(block, None, "verify")
    block = dict(block)
    grid = {k: block.pop(k) for k in ("phi2_values", "phi2_span_rad", "phi2_count")
            if k in block}
    with _invalid("verify"):
        if "phi2_values" in grid:
            phi2 = np.asarray([float(v) for v in grid["phi2_values"]])
        else:
            span = float(grid.get("phi2_span_rad", 4 * math.pi))
            phi2 = np.linspace(-span / 2, span / 2, int(grid.get("phi2_count", 17)))
    if args.workers is not None:
        block["workers"] = args.workers
    t0 = time.perf_counter()
    fringe = _build(run_interferometry, block, "verify", base=base, phi2_grid=phi2)
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
    _check_keys(block, None, "plan")
    block = dict(block)
    wait = {"wait_s": block.pop("wait_s", 0.0)}
    inputs = _build(PlannerInputs, block, "plan")
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
        "visibility": _build(visibility_model, wait, "plan", inputs=inputs),
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
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (StiffnessError, IntegrationDivergedError) as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 3
    except OmstirapError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
