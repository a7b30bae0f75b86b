"""Command-line entry point: config parsing, dispatch, data emission.

Commands: ``simulate``, ``sweep``, ``adiabaticity``, ``verify``, ``plan``.
Config files are JSON, and one key rule reads every value.  The ``system``,
``schedule``, ``initial``, ``target``, ``plan``, ``adiabaticity`` and
``verify`` blocks, and the scenario's root keys with its ``horizon`` and
``integrator`` blocks, take the parameters of the function they feed as
keys, with its defaults and annotated scalar types.  The sweep-axis numbers,
``count`` included, take the same scalar types.  A key names a parameter
exactly or, for a float or complex parameter whose name carries no unit
suffix yet, after one unit suffix: ``_hz`` (f = w/2pi) is multiplied by 2pi;
``_rads``, ``_rad``, ``_s`` and ``_k`` pass through.  A boolean parameter takes only
``true``/``false`` and no other scalar parameter takes a boolean; an integer
one takes no fraction.  Sweep axes on ``delta`` or on a ``params.`` field
that the system block sets in ``_hz`` are in Hz too.  Unknown and repeated
keys and a block that is not a JSON object are rejected, and so is a key that
no run would read: a root ``picture`` beside a sweep, whose cells run in the
picture ``pick_picture`` chooses, and a ``sweep.contour_field`` with no
contour levels.  Exit codes: 0 success, 2 configuration or domain error, 3
integration failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
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


def _scalar(scalar, value, where: str):
    """``value`` read as ``scalar``: only a bool is a bool, and an int has no fraction."""
    if isinstance(value, bool) != (scalar is bool):
        wanted = "true or false" if scalar is bool else scalar.__name__
        raise ConfigError(f"{where} must be {wanted}, not {value!r}")
    if scalar is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return scalar(value)


def _read(fn, block: dict, where: str, **fixed) -> dict:
    """The arguments of ``fn``: ``block`` read by the module's key rule, plus ``fixed``.

    The parameters in ``fixed`` are set by the caller and are not keys.
    """
    _check_keys(block, None, where)
    types, keys = _schema(fn)
    kwargs, seen = dict(fixed), {}
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
            if scalar is not None and not (optional and value is None):
                value = _scalar(scalar, value, f"{where}.{key}")
            kwargs[name] = value if factor == 1.0 else factor * value
    return kwargs


def _build(fn, block: dict, where: str, **fixed):
    """``fn`` called with :func:`_read`'s arguments; its TypeError or ValueError
    is a config error too, as ``fn`` is a constructor or a config helper."""
    kwargs = _read(fn, block, where, **fixed)
    with _invalid(where):
        return fn(**kwargs)


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


def _horizon(start_s: float, end_s: float) -> tuple:
    """The ``horizon`` block's (start, end)."""
    return start_s, end_s


def build_scenario(cfg: dict) -> Scenario:
    """The :class:`Scenario` of ``cfg``, whose root keys and ``integrator`` keys
    are the scenario's own; the other blocks build its recipes."""
    if "schedules" in cfg and "schedule" in cfg:
        raise ConfigError("give either 'schedule' or 'schedules', not both")
    blocks = _list(cfg, "schedules", [cfg.get("schedule", {})], "schedules")
    for b in blocks:
        _check_keys(b, None, "schedule")
    integ = cfg.get("integrator", {})
    _check_keys(integ, _INTEGRATOR_KEYS, "integrator")
    fixed = {
        "params": _build(SystemParams.from_ordinary, cfg.get("system", {}), "system"),
        "schedule": tuple(_build(DriveSchedule, {"kind": "stirap", "alpha0": 2000.0, **b},
                                 "schedule") for b in blocks),
        "initial": build_initial(cfg.get("initial", {"kind": "fock", "n": 1})),
    }
    for key, fn in (("target", TargetSpec), ("horizon", _horizon)):
        if key in cfg:
            fixed[key] = _build(fn, cfg[key], key)
    keys = _schema(Scenario)[1]
    root = {key: value for key, value in cfg.items() if key in keys and key not in fixed}
    return _build(Scenario, {**root, **integ}, "scenario", **fixed)


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
        grid = sorted({"start", "stop", "count"} & set(block))
        if "values" in block and grid:
            raise ConfigError(f"sweep axis gives 'values' and the grid key(s) {grid}; "
                              f"give 'values' or 'start', 'stop' and 'count'")
        if "values" in block:
            values = [_scalar(float, v, "sweep axis.values") for v in block["values"]]
        else:
            start, stop = (_scalar(float, block[k], f"sweep axis.{k}") for k in ("start", "stop"))
            count = _scalar(int, block["count"], "sweep axis.count")
            spacing = np.geomspace if block.get("scale") == "log" else np.linspace
            values = list(spacing(start, stop, count))
        unit = _axis_unit(path)
        return SweepAxis(
            path=path,
            values=tuple(unit * v for v in values),
            scale=block.get("scale", "linear"),
            tau_sigma_ratio=block.get("tau_sigma_ratio"),
        )


def _axis_output_values(axis: SweepAxis) -> np.ndarray:
    return np.asarray(axis.values, dtype=float) / _axis_unit(axis.path)


def _write(args, cfg: dict, name: str, payload: dict, table: tuple = ()):
    """Write the JSON file ``name`` into ``--out``: the provenance and ``payload``.

    ``table``, a (file name, header, rows) triple, is written before it as CSV,
    each number as the repr of its float.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if table:
        csv_name, header, rows = table
        with open(out / csv_name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([repr(float(v)) for v in row] for row in rows)
    provenance = {"engine_version": __version__, "preset": args.preset, "effective_config": cfg}
    text = json.dumps({**provenance, **payload}, indent=2, sort_keys=True)
    (out / name).write_text(text + "\n", encoding="utf-8")


def cmd_simulate(args) -> int:
    cfg = load_config(args.preset, args.config)
    for key in ("sweep", "verify", "plan", "adiabaticity"):
        cfg.pop(key, None)
    result = run_scenario(build_scenario(cfg))
    traj = result.trajectory
    # the fidelity column, like the summary's fidelity keys, needs a target
    columns = [c for c in ("n1", "n2", "nc", "negativity", "fidelity", "alpha1", "alpha2")
               if c in traj.observables]
    rows = zip(traj.times, *(traj.observables[c] for c in columns))
    _write(args, cfg, "summary.json", {"summary": result.summary},
           ("trajectory.csv", ["t_s", *columns], rows))
    return 0


def _work(result) -> dict:
    """The ``integrator``, ``batch_count`` and ``batches`` keys of a sweep's or a
    fringe's JSON: the work of its runs, as :func:`~omstirap.protocols.run_batches`
    reports it."""
    return {"integrator": result.integrator, "batch_count": len(result.batches),
            "batches": list(result.batches)}


def cmd_sweep(args) -> int:
    cfg = load_config(args.preset, args.config)
    block = cfg.get("sweep")
    if not block:
        raise ConfigError("sweep command needs a 'sweep' block")
    _check_keys(block, _SWEEP_KEYS, "sweep")
    if "picture" in cfg:
        raise ConfigError("a sweep runs each cell in the picture pick_picture chooses, so it "
                          "takes no root key 'picture' beside its 'sweep' block")
    base = build_scenario(cfg)
    axes = [_axis_from_config(a) for a in _list(block, "axes", [], "sweep.axes")]
    if not axes:
        raise ConfigError("sweep block needs at least one axis")
    metrics = tuple(_list(block, "metrics", ["final_n2"], "sweep.metrics"))
    if not metrics:
        raise ConfigError("sweep.metrics must name at least one summary key")
    levels = _list(block, "contour_levels", [], "sweep.contour_levels")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in levels):
        raise ConfigError(f"sweep.contour_levels must list numbers, not {levels!r}")
    if levels and len(axes) != 2:
        raise ConfigError(f"sweep.contour_levels needs two axes, not {len(axes)}; an empty "
                          f"list drops the levels")
    if "contour_field" in block and not levels:
        raise ConfigError("sweep.contour_field names the field of the contours, but the "
                          "sweep sets no contour_levels")
    contour_field = block.get("contour_field", metrics[0])
    if contour_field not in metrics:
        raise ConfigError(f"sweep.contour_field {contour_field!r} is not one of the "
                          f"sweep's metrics {list(metrics)}")
    workers = args.workers if args.workers is not None else block.get("workers", 1)
    with _invalid("sweep"):
        check_workers(workers)
    t0 = time.perf_counter()
    result = run_sweep(base, axes, metrics=metrics, workers=workers)
    axis_vals = [_axis_output_values(a) for a in result.axes]
    rows = ([*(axis_vals[k][i] for k, i in enumerate(idx)),
             *(result.fields[m][idx] for m in metrics)]
            for idx in np.ndindex(*(len(a.values) for a in result.axes)))
    payload = {
        "axes": [{"path": a.path, "scale": a.scale, "values": list(values)}
                 for a, values in zip(result.axes, axis_vals)],
        "metrics": list(metrics),
        "failures": [{"cell": list(idx), "error": kind, "message": message, "time_s": time_s}
                     for idx, kind, message, time_s in result.failures],
        **_work(result),
    }
    if levels:
        contours = extract_contours(result, contour_field, levels)
        payload["contours"] = {
            str(level): [line.tolist() for line in lines]
            for level, lines in contours.items()
        }
    payload["wall_time_s"] = time.perf_counter() - t0
    _write(args, cfg, "sweep.json", payload,
           ("sweep.csv", [a.path for a in result.axes] + list(metrics), rows))
    return 0


def cmd_adiabaticity(args) -> int:
    cfg = load_config(args.preset, args.config)
    block = cfg.get("adiabaticity")
    if not block:
        raise ConfigError("adiabaticity command needs an 'adiabaticity' block")
    report = _build(adiabaticity_bounds, block, "adiabaticity")
    _write(args, cfg, "adiabaticity.json", {"report": {
        "theta_dot_max": report.theta_dot_max,
        "omega_at_zero_rads": report.omega_at_zero,
        "t_theta_width_s": report.t_theta_width,
        "t_omega_width_s": report.t_omega_width,
        "two_tau_over_sigma_lower": report.lower_bound,
        "two_tau_over_sigma_upper": report.upper_bound,
        "tau_over_sigma_window": list(report.tau_over_sigma_window),
        "satisfied": report.satisfied,
    }})
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.preset, args.config)
    block = cfg.get("verify")
    if block is None:  # an empty block takes every default
        raise ConfigError("verify command needs a 'verify' block")
    base = build_scenario(cfg)
    _check_keys(block, None, "verify")
    if args.workers is not None:
        block = {**block, "workers": args.workers}
    t0 = time.perf_counter()
    # read as config, but run outside it: an error inside the fringe run is no config error
    fringe = run_interferometry(**_read(run_interferometry, block, "verify", base=base))
    fit = {"amplitude": fringe.amplitude, "visibility": fringe.visibility,
           "phase_rad": fringe.phase}
    _write(args, cfg, "fringe.json",
           {"fit": fit, **_work(fringe), "wall_time_s": time.perf_counter() - t0},
           ("fringe.csv", ["phi2_rad", "p1"], zip(fringe.phi2_values, fringe.p1_values)))
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
    _write(args, cfg, "plan.json", {"plan": {
        "gamma_opt_rads": gamma_opt,
        "nbar_min": nbar_min,
        "nbar_f": nbar_f,
        "t_herald_s": t_herald,
        "p_final": p_final,
        "t_readout_s": t_readout,
        "readout_success": readout_success,
        "visibility": _build(visibility_model, wait, "plan", inputs=inputs),
    }})
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
        if name in ("sweep", "verify"):
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
