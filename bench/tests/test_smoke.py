"""Smoke test of the benchmark harness.

    python3 -m pytest bench/tests -q

Runs the harness on one cheap op (the ``bell-lossless`` preset) instead of a
real workload, so it takes seconds.
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _tiny(tmp_path, check) -> workloads.Workload:
    out = tmp_path / "bell"
    op = workloads.Op("bell-lossless",
                      ("simulate", "--preset", "bell-lossless", "--out", str(out)),
                      out, 1, check)
    return workloads.Workload("smoke", (op,), (op,))


def _run(capsys, workload, trace: int) -> tuple:
    assert run.main(["--seconds", "0", "--trace", str(trace)], workload=workload) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tmp_path, capsys, trace, kind):
    result, _ = _run(capsys, _tiny(tmp_path, lambda out: []), trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared(kind)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_traced_run_counts_the_integrator_work(tmp_path, capsys):
    result, _ = _run(capsys, _tiny(tmp_path, lambda out: []), 1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["model.h_evals"] > 0 and m["dynamics.runs"] == 1
    assert m["dynamics.rk_attempts"] == (m["model.h_evals"] - 2) / 6
    assert m["analysis.calls"] > 0 and m["cli.bytes_written"] > 0


def test_tracer_skips_a_name_the_package_dropped(monkeypatch):
    run._import_program()
    from omstirap import protocols

    monkeypatch.delattr(protocols, "evolve_pure")
    original = protocols.evolve
    tracer = tracing.Tracer()
    with tracer.installed():
        assert protocols.evolve is not original
    assert protocols.evolve is original
    assert tracer.missing == ["omstirap.protocols.evolve_pure"]


def test_failing_output_check_raises_error_rate(tmp_path, capsys):
    result, lines = _run(capsys, _tiny(tmp_path, lambda out: ["wrong on purpose"]), 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.split()[:2] == ["error_rate", "1"] for line in lines)
    assert any("wrong on purpose" in line for line in lines)


def test_preset_check_rejects_a_wrong_fidelity(tmp_path):
    check = workloads._preset_check("table2-stirap-50mK")
    (tmp_path / "trajectory.csv").write_text("t_s,negativity\n0.0,0.0\n", encoding="utf-8")
    for fidelity_sqrt, problems in ((0.93, 0), (0.85, 1)):
        summary = {"summary": {"fidelity_sqrt": fidelity_sqrt}}
        (tmp_path / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
        assert len(check(tmp_path)) == problems


def test_sweep_check_flags_the_cells_that_moved(tmp_path):
    ref = json.loads(workloads.SWEEP_REFERENCE.read_text(encoding="utf-8"))
    rows = [list(r) for r in ref["rows"]]
    rows[3][2] += 10 * workloads.SWEEP_FIELD_ATOL
    with open(tmp_path / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([ref["header"]] + [[repr(v) for v in r] for r in rows])
    axes = [{"values": [0] * 4}, {"values": [0] * 5}]
    payload = {"axes": axes, "failures": [{"cell": [3, 4], "error": "StiffnessError"}],
               "contours": ref["contours"]}
    (tmp_path / "sweep.json").write_text(json.dumps(payload), encoding="utf-8")
    problems = workloads._sweep_check(tmp_path)
    assert len(problems) == 2
    assert "fields" in problems[0] and "StiffnessError" in problems[1]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "presets", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
