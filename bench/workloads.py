"""The benchmark's three workloads and the checks on their outputs.

Every op is one ``omstirap.cli.main`` call that writes into its own output
directory; its check reads those files back and returns one line per failed
unit (an empty list when the output is correct), or raises when no unit can
be checked.  A unit is what
``ops_per_s`` and ``error_rate`` count: one scenario for ``simulate``, one
cell for ``sweep``.  The seed only reorders the ``presets`` ops and picks
the mixing angle of ``coherent-507``; the program sees nothing else of it.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
NAMES = ("presets", "coherent-507", "sweep-mixed")

#: criterion 2: transfer fidelity sqrt(F) of each table-2 row, +- 0.05
TABLE2 = {
    "table2-stirap-10mK": 0.98,
    "table2-stirap-50mK": 0.93,
    "table2-stirap-1K": 0.82,
    "table2-fstirap-10mK": 0.98,
    "table2-fstirap-50mK": 0.87,
    "table2-fstirap-1K": 0.77,
}
PRESET_OPS = tuple(TABLE2) + ("fig3",)
#: criterion 3: peak negativity (reference, tolerance) of fig1, fig2 and fig5
PEAK_NEGATIVITY = {
    "table2-stirap-10mK": (0.25, 0.04),
    "table2-stirap-1K": (0.22, 0.05),
    "table2-fstirap-1K": (0.25, 0.05),
}

#: criterion 1: every angle has the analytic product-coherent image
COHERENT_THETAS = (math.pi / 6, math.pi / 4, math.pi / 3)

SWEEP_WORKERS = 2
SWEEP_REFERENCE = HERE / "reference" / "sweep_mixed.json"
#: sweep fields may move by integrator-level differences, not by physics
SWEEP_FIELD_ATOL = 1e-4
#: contour points may move by this share of the contour's extent per axis
SWEEP_CONTOUR_RTOL = 1e-2


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    out: Path
    units: int
    check: Callable[[Path], list]


@dataclass(frozen=True)
class Workload:
    """``ops`` are measured untraced.  ``traced_ops`` are the same calls with
    any sweep pool at one worker, so that every cell runs where the
    benchmark's wrappers can time it."""

    name: str
    ops: tuple
    traced_ops: tuple
    workers: int = 1

    @property
    def units(self) -> int:
        return sum(op.units for op in self.ops)


def build(name: str, seed: int, out_root: Path) -> Workload:
    rng = random.Random(seed)
    base = out_root / name
    if name == "presets":
        order = list(PRESET_OPS)
        rng.shuffle(order)
        ops = tuple(
            Op(p, ("simulate", "--preset", p, "--out", str(base / p)), base / p, 1,
               _preset_check(p))
            for p in order
        )
        return Workload(name, ops, ops)
    if name == "coherent-507":
        theta = rng.choice(COHERENT_THETAS)
        cfg = json.loads((HERE / "coherent507.json").read_text(encoding="utf-8"))
        cfg["schedule"]["theta_rad"] = cfg["target"]["theta_rad"] = theta
        base.mkdir(parents=True, exist_ok=True)
        config = base / "config.json"
        config.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        out = base / "run"
        op = Op(f"coherent-theta={theta:.6f}",
                ("simulate", "--config", str(config), "--out", str(out)), out, 1,
                _coherent_check)
        return Workload(name, (op,), (op,))
    if name == "sweep-mixed":
        config = HERE / "sweep_mixed.json"
        axes = json.loads(config.read_text(encoding="utf-8"))["sweep"]["axes"]
        cells = math.prod(len(axis["values"]) for axis in axes)

        def sweep_op(workers: int) -> Op:
            out = base / f"workers{workers}"
            argv = ("sweep", "--preset", "sweep-kappa-alpha", "--config", str(config),
                    "--workers", str(workers), "--out", str(out))
            return Op(f"sweep-workers={workers}", argv, out, cells, _sweep_check)

        return Workload(name, (sweep_op(SWEEP_WORKERS),), (sweep_op(1),), SWEEP_WORKERS)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def config_refs(workload: Workload) -> list:
    """(preset, config path) of every op, as ``cli.load_config`` takes them."""
    refs = []
    for op in workload.ops:
        opts = dict(zip(op.argv[1::2], op.argv[2::2]))
        refs.append((opts.get("--preset"), opts.get("--config")))
    return refs


# ---------------------------------------------------------------- checks

def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))["summary"]


def _columns(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(rows[0])}


def _near(problems: list, label: str, value: float, ref: float, tol: float):
    if not abs(value - ref) <= tol:  # NaN fails too
        problems.append(f"{label} {value:.4f} outside {ref} +- {tol}")


def _preset_check(name: str) -> Callable[[Path], list]:
    def check(out: Path) -> list:
        summary = _summary(out)
        traj = _columns(out / "trajectory.csv")
        problems: list = []
        if name in TABLE2:
            _near(problems, "fidelity_sqrt", summary["fidelity_sqrt"], TABLE2[name], 0.05)
        if name in PEAK_NEGATIVITY:
            _near(problems, "peak negativity", summary["peak_negativity"],
                  *PEAK_NEGATIVITY[name])
        if name == "table2-stirap-1K":
            post = max(n for t, n in zip(traj["t_s"], traj["negativity"]) if t >= 0.5e-3)
            if not post < 0.05:
                problems.append(f"post-pulse negativity {post:.4f} not < 0.05")
        if name == "fig3":
            # criterion 4: return fidelity; criterion 3: the negativity plateau
            _near(problems, "return fidelity", summary["fidelity"], 0.971, 0.02)
            plateau = [n for t, n in zip(traj["t_s"], traj["negativity"])
                       if 0.5e-3 <= t <= 3.5e-3]
            _near(problems, "plateau mean", sum(plateau) / len(plateau), 0.48, 0.04)
            drift = max(plateau) - min(plateau)
            if not drift < 0.02:
                problems.append(f"plateau drift {drift:.4f} not < 0.02")
        return ["; ".join(problems)] if problems else []

    return check


def _coherent_check(out: Path) -> list:
    summary = _summary(out)
    fid, neg = summary["fidelity"], summary["final_negativity"]
    if fid >= 0.999 and neg <= 1e-4:
        return []
    return [f"F={fid:.6f} (>= 0.999), negativity={neg:.2e} (<= 1e-4)"]


def _sweep_check(out: Path) -> list:
    ref = json.loads(SWEEP_REFERENCE.read_text(encoding="utf-8"))
    payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    if header != ref["header"] or len(rows) != len(ref["rows"]):
        # no cell can be checked, so every cell fails
        raise ValueError(f"sweep.csv layout {header} x {len(rows)} differs from the reference")
    n_axes = len(payload["axes"])
    bad = {}
    for i, (row, want) in enumerate(zip(rows, ref["rows"])):
        got = [float(v) for v in row]
        if got[:n_axes] != want[:n_axes]:
            bad[i] = f"axis values {got[:n_axes]} != {want[:n_axes]}"
        elif not all(abs(g - w) <= SWEEP_FIELD_ATOL for g, w in zip(got[n_axes:], want[n_axes:])):
            bad[i] = f"fields {got[n_axes:]} != reference {want[n_axes:]}"
    shape = [len(a["values"]) for a in payload["axes"]]
    for failure in payload["failures"]:
        i, j = failure["cell"]
        bad[i * shape[1] + j] = f"cell failed: {failure['error']}"
    problems = [f"cell {rows[i][:n_axes]}: {why}" for i, why in sorted(bad.items())]
    problem = _contour_problem(payload.get("contours", {}), ref["contours"])
    if problem:
        problems.append(problem)
    return problems


def _contour_problem(got: dict, want: dict) -> str | None:
    if sorted(got) != sorted(want):
        return f"contour levels {sorted(got)} != {sorted(want)}"
    for level, lines in want.items():
        points = [p for line in lines for p in line]
        tol = [SWEEP_CONTOUR_RTOL * (max(p[k] for p in points) - min(p[k] for p in points))
               for k in (0, 1)]
        if [len(line) for line in got[level]] != [len(line) for line in lines]:
            return f"contour {level}: polyline lengths differ from the reference"
        for line_got, line_want in zip(got[level], lines):
            for p, q in zip(line_got, line_want):
                if not all(abs(p[k] - q[k]) <= tol[k] for k in (0, 1)):
                    return f"contour {level}: point {p} != reference {q}"
    return None
