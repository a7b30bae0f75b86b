"""Named run configurations in the CLI config schema.

Canonical names describe the physics; the short aliases (fig1, table2-*)
refer to the standard benchmark set this engine reproduces.  All values are
ordinary frequencies (Hz), seconds and kelvin; the CLI converts once.
"""

from __future__ import annotations

import copy
import math

TABLE_SYSTEM = {
    "omega1_hz": 1.2e6,
    "omega2_hz": 1.8e6,
    "kappa_hz": 2e3,
    "g1_hz": 2.5,
    "g2_hz": 2.5,
    "q1": 1e9,
    "q2": 1e9,
    "temperature_k": 0.01,
}

HERALDED_WEIGHTS = [0.0, 0.89, 0.10, 0.01]
BLUE_MODE2_NBAR = 0.1198  # post-blue-pulse thermal occupancy of mode 2

_SIGMA = 0.6e-3
_SIGMA_SHORT = 0.15e-3


def _system(temperature_k: float) -> dict:
    sys = dict(TABLE_SYSTEM)
    sys["temperature_k"] = temperature_k
    return sys


def _stirap_schedule(sigma: float) -> dict:
    return {
        "kind": "stirap",
        "alpha0": 2000.0,
        "tau_s": sigma / 1.43,
        "sigma1_s": sigma,
        "sigma2_s": sigma,
    }


def _fractional_schedule(sigma: float, theta: float = math.pi / 4, t0: float = 0.0) -> dict:
    return {
        "kind": "fractional",
        "alpha0": 2000.0,
        "tau_s": sigma / 1.25,
        "sigma1_s": sigma,
        "sigma2_s": sigma,
        "theta_rad": theta,
        "t0_s": t0,
    }


PRESETS: dict[str, dict] = {}

PRESETS["stirap-10mK-superposition"] = {
    "system": _system(0.01),
    "schedule": _stirap_schedule(_SIGMA),
    "dims": [2, 5, 5],
    "initial": {"kind": "superposition_01"},
    "horizon": {"start_s": -2e-3, "end_s": 2e-3},
    "sample_count": 81,
    "eval_time_s": 2e-3,
    "target": {"kind": "superposition_minus_mode2"},
}

PRESETS["stirap-50mK-heralded"] = {
    "system": _system(0.05),
    "schedule": _stirap_schedule(_SIGMA),
    "dims": [2, 5, 5],
    "initial": {"kind": "explicit", "weights": HERALDED_WEIGHTS},
    "horizon": {"start_s": -2e-3, "end_s": 2e-3},
    "sample_count": 81,
    "eval_time_s": 2e-3,
    "target": {"kind": "weights_mode2", "weights": HERALDED_WEIGHTS},
}

PRESETS["stirap-1K-short"] = {
    "system": _system(1.0),
    "schedule": _stirap_schedule(_SIGMA_SHORT),
    "dims": [2, 5, 5],
    "initial": {"kind": "explicit", "weights": HERALDED_WEIGHTS},
    "horizon": {"start_s": -0.6e-3, "end_s": 0.8e-3},
    "sample_count": 141,
    "eval_time_s": 0.5e-3,
    "target": {"kind": "weights_mode2", "weights": HERALDED_WEIGHTS},
}

PRESETS["fstirap-10mK-fock"] = {
    "system": _system(0.01),
    "schedule": _fractional_schedule(_SIGMA),
    "dims": [2, 5, 5],
    "initial": {"kind": "fock", "n": 1},
    "horizon": {"start_s": -2e-3, "end_s": 2e-3},
    "sample_count": 81,
    "eval_time_s": 2e-3,
    "target": {"kind": "psi_minus"},
}

PRESETS["fstirap-50mK-heralded"] = {
    "system": _system(0.05),
    "schedule": _fractional_schedule(_SIGMA),
    "dims": [2, 5, 5],
    "initial": {"kind": "explicit", "weights": HERALDED_WEIGHTS},
    "horizon": {"start_s": -2e-3, "end_s": 2e-3},
    "sample_count": 81,
    "eval_time_s": 2e-3,
    "target": {"kind": "psi_minus"},
}

PRESETS["fstirap-1K-short"] = {
    "system": _system(1.0),
    "schedule": _fractional_schedule(_SIGMA_SHORT),
    "dims": [2, 5, 5],
    "initial": {
        "kind": "explicit",
        "weights": HERALDED_WEIGHTS,
        "mode2": {"kind": "thermal", "nbar": BLUE_MODE2_NBAR},
    },
    "horizon": {"start_s": -0.6e-3, "end_s": 0.8e-3},
    "sample_count": 141,
    "eval_time_s": 0.5e-3,
    "target": {"kind": "psi_minus"},
}

PRESETS["fstirap-reverse-10mK"] = {
    "system": _system(0.01),
    "schedules": [
        _fractional_schedule(_SIGMA),
        {**_fractional_schedule(_SIGMA, t0=4e-3), "kind": "reversed_fractional"},
    ],
    "dims": [2, 5, 5],
    "initial": {"kind": "fock", "n": 1},
    "horizon": {"start_s": -2e-3, "end_s": 6e-3},
    "sample_count": 161,
    "eval_time_s": 4.8e-3,
    "target": {"kind": "fock_mode1", "n": 1},
}

PRESETS["bell-lossless"] = {
    "system": _system(0.0),
    "schedule": _fractional_schedule(_SIGMA),
    "dims": [2, 3, 3],
    "initial": {"kind": "fock", "n": 1},
    "horizon": {"start_s": -2.4e-3, "end_s": 2.4e-3},
    "sample_count": 25,
    "lossless": True,
    "eval_time_s": 2.4e-3,
    "target": {"kind": "psi_minus"},
}

PRESETS["degenerate-diagnostics"] = {
    "system": {**_system(0.01), "omega2_hz": 1.2e6},
    "schedule": _stirap_schedule(_SIGMA_SHORT),
    "dims": [2, 4, 4],
    "initial": {"kind": "fock", "n": 1},
    "horizon": {"start_s": -0.55e-3, "end_s": 0.55e-3},
    "sample_count": 45,
    "picture": "full",
    "integrator": {"rel_tol": 1e-6, "abs_tol": 1e-9},
}

# the verify presets leave phi1 (0), the wait (4 ms), the workers (1) and, but for the
# thermal one, phi2_values (17 points over [-2 pi, 2 pi]) to run_interferometry's defaults
PRESETS["verify-lossless"] = {
    "system": _system(0.0),
    "schedule": _fractional_schedule(_SIGMA),
    "dims": [2, 3, 3],
    "initial": {"kind": "fock", "n": 1},
    "lossless": True,
    "verify": {},
}

PRESETS["verify-50mK-thermal"] = {
    "system": _system(0.05),
    "schedule": _fractional_schedule(_SIGMA),
    "dims": [2, 5, 5],
    "initial": {
        "kind": "thermal",
        "nbar": 0.5,
        "mode2": {"kind": "thermal", "nbar": 0.5},
    },
    "verify": {"phi2_values": [-2 * math.pi + k * math.pi / 2 for k in range(9)],
               "include_forward": False},
}

PRESETS["verify-50mK-heralded"] = {
    "system": _system(0.05),
    "schedule": _fractional_schedule(_SIGMA),
    "dims": [2, 5, 5],
    "initial": {"kind": "explicit", "weights": HERALDED_WEIGHTS},
    "verify": {},
}

# omega0 is left to adiabaticity_bounds' default 2 g alpha0 at g = 2.5 Hz and alpha0 = 2000
PRESETS["adiabaticity-stirap"] = {
    "adiabaticity": {
        "theta_rad": math.pi / 2,
        "sigma_s": _SIGMA,
        "tau_s": _SIGMA / 1.43,
        "n_o": 5.0,
    }
}

PRESETS["adiabaticity-fstirap"] = {
    "adiabaticity": {
        "theta_rad": math.pi / 4,
        "sigma_s": _SIGMA,
        "tau_s": _SIGMA / 1.25,
        "n_o": 5.0,
    }
}

PRESETS["plan-heralding"] = {
    "plan": {
        "g_hz": 1600.0,
        "kappa_hz": 2e3,
        "delta_hz": -1.2e6,
        "omega_m_hz": 1.2e6,
        "gamma_m_rads": 1.8529,
        "n_th": 1736.3,
        "cool_duration_s": 5e-3,
        "blue_duration_s": 1e-4,
        "readout_duration_s": 5e-4,
        "readout_g_hz": 5000.0,
        "eta_d": 0.075,
        "eta_r": 0.99,
        "dcr_hz": 10.0,
        "stokes_probability": 0.1,
        "rho00": 0.098,
        "wait_s": 0.0,
    }
}

PRESETS["sweep-kappa-alpha"] = {
    "system": _system(0.01),
    "schedule": _stirap_schedule(_SIGMA),
    "dims": [2, 4, 4],
    "initial": {"kind": "fock", "n": 1},
    "horizon": {"start_s": -2e-3, "end_s": 2e-3},
    "sample_count": 21,
    "target": {"kind": "fock_mode2", "n": 1},
    "sweep": {
        "axes": [
            {"path": "kappa", "start": 2e2, "stop": 2e4, "count": 41, "scale": "log"},
            {"path": "alpha0", "start": 250.0, "stop": 4000.0, "count": 41},
        ],
        "metrics": ["final_n2", "fidelity"],
        "workers": 4,
    },
}

PRESETS["sweep-tau-sigma"] = {
    "system": _system(0.01),
    "schedule": _stirap_schedule(_SIGMA),
    "dims": [2, 4, 4],
    "initial": {"kind": "fock", "n": 1},
    "horizon": {"start_s": -4e-3, "end_s": 4e-3},
    "sample_count": 21,
    "target": {"kind": "fock_mode2", "n": 1},
    "sweep": {
        "axes": [
            {"path": "tau", "start": 0.05e-3, "stop": 1.0e-3, "count": 41},
            {"path": "sigma", "start": 0.1e-3, "stop": 1.2e-3, "count": 41},
        ],
        "metrics": ["final_n2", "fidelity"],
        "workers": 4,
    },
}

PRESETS["sweep-delta-sigma"] = {
    "system": _system(0.01),
    "schedule": _stirap_schedule(_SIGMA),
    "dims": [2, 4, 4],
    "initial": {"kind": "fock", "n": 1},
    "horizon": {"start_s": -5.8e-3, "end_s": 5.8e-3},
    "sample_count": 21,
    "target": {"kind": "fock_mode2", "n": 1},
    "sweep": {
        "axes": [
            {"path": "delta", "start": 0.2e3, "stop": 24e3, "count": 25, "scale": "log"},
            {"path": "sigma", "start": 0.3e-3, "stop": 1.2e-3, "count": 13,
             "tau_sigma_ratio": 1.43},
        ],
        "metrics": ["final_n2"],
        "workers": 4,
        "contour_levels": [0.125],
    },
}

ALIASES = {
    "fig1": "stirap-10mK-superposition",
    "fig2": "stirap-1K-short",
    "fig3": "fstirap-reverse-10mK",
    "fig5": "fstirap-1K-short",
    "table2-stirap-10mK": "stirap-10mK-superposition",
    "table2-stirap-50mK": "stirap-50mK-heralded",
    "table2-stirap-1K": "stirap-1K-short",
    "table2-fstirap-10mK": "fstirap-10mK-fock",
    "table2-fstirap-50mK": "fstirap-50mK-heralded",
    "table2-fstirap-1K": "fstirap-1K-short",
}


def preset_config(name: str) -> dict:
    """Deep copy of a named preset (aliases resolved)."""
    key = ALIASES.get(name, name)
    if key not in PRESETS:
        known = sorted(set(PRESETS) | set(ALIASES))
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(known)}")
    return copy.deepcopy(PRESETS[key])


def preset_names() -> list[str]:
    return sorted(set(PRESETS) | set(ALIASES))
