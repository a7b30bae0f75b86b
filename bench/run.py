"""Benchmark omstirap end to end and per layer.

    python3 bench/run.py --workload presets --seed 1 --seconds 30 --trace 0

Runs one workload (``presets``, ``coherent-507`` or ``sweep-mixed``, see
README.md) in this process through ``omstirap.cli.main``, built from the
``src/`` next to this directory, and checks every output.  A run measures
whole batches back to back and starts no batch that would end after
``--seconds`` (it always measures one).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it adds one traced batch and reports
the per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs, the environment record and the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import environment
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh interpreters that time the set-up; setup_s is their median
SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "model.h_evals": "count",
    "model.h_s": "s",
    "model.h_us": "us",
    "dynamics.runs": "count",
    "dynamics.evolve_s": "s",
    "dynamics.self_s": "s",
    "dynamics.rhs_us": "us",
    "dynamics.rk_attempts": "count",
    "analysis.s": "s",
    "analysis.calls": "count",
    "protocols.run_scenario_s": "s",
    "protocols.self_s": "s",
    "sweep.cells": "count",
    "sweep.cells_failed": "count",
    "sweep.cells_rwa": "count",
    "sweep.cells_bs": "count",
    "sweep.cells_full": "count",
    "sweep.cell_p50_s": "s",
    "sweep.cell_max_s": "s",
    "sweep.parallel_efficiency": "ratio",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Batch:
    wall_s: float
    cpu_s: float
    units: int
    failed: int
    bytes_written: int
    op_wall_s: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _call(cli_main, op, tracer) -> str | None:
    argv = list(op.argv)
    try:
        code = cli_main(argv) if tracer is None else tracer.run_op(op.name, cli_main, argv)
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        return f"raised {type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}"


def run_batch(ops, cli_main, tracer=None) -> Batch:
    """Run every op back to back; check the outputs after the clock stops."""
    for op in ops:
        shutil.rmtree(op.out, ignore_errors=True)
    errors, op_wall = {}, {}
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for op in ops:
        t_op = time.perf_counter()
        errors[op.name] = _call(cli_main, op, tracer)
        op_wall[op.name] = time.perf_counter() - t_op
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0

    failed, problems, written = 0, [], 0
    for op in ops:
        found = []
        if errors[op.name] is None:
            try:
                found = op.check(op.out)
            except Exception as exc:  # unreadable output fails the check
                errors[op.name] = f"output check raised {type(exc).__name__}: {exc}"
        if errors[op.name] is not None:
            failed += op.units
            problems.append(f"{op.name}: {errors[op.name]}")
        else:
            failed += min(op.units, len(found))
            problems += [f"{op.name}: {p}" for p in found]
        written += sum(f.stat().st_size for f in op.out.rglob("*") if f.is_file())
    return Batch(wall, cpu, sum(op.units for op in ops), failed, written, op_wall, problems)


def run_batches(ops, cli_main, seconds: float) -> list:
    batches, start = [], time.perf_counter()
    while True:
        batches.append(run_batch(ops, cli_main))
        typical = statistics.median(b.wall_s for b in batches)
        if time.perf_counter() - start + typical > seconds:
            return batches


def measure_setup(refs: list) -> list:
    """Set-up time in fresh interpreters, one after another."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(refs)]
    return [float(subprocess.run(probe, check=True, capture_output=True, text=True,
                                 timeout=120).stdout)
            for _ in range(SETUP_SAMPLES)]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def end_to_end(batches: list, setup: list) -> dict:
    return {
        "wall_s": statistics.median(b.wall_s for b in batches),
        "ops_per_s": statistics.median(b.units / b.wall_s for b in batches),
        "cpu_s": statistics.median(b.cpu_s for b in batches),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(tracer, traced: Batch, reference: list, untraced: list, workers: int) -> dict:
    """``reference`` ran the traced ops untraced; ``untraced`` ran the
    workload's own ops (for a sweep, at its full worker count)."""
    values = tracer.layer_metrics()
    untraced_wall = statistics.median(b.wall_s for b in untraced)
    reference_wall = statistics.median(b.wall_s for b in reference)
    values["sweep.parallel_efficiency"] = values["protocols.run_scenario_s"] / (workers * untraced_wall)
    values["cli.bytes_written"] = traced.bytes_written
    values["trace.wall_s"] = traced.wall_s
    values["trace.untraced_wall_s"] = reference_wall
    values["trace.overhead_s"] = traced.wall_s - reference_wall
    return values


def _import_program():
    """Import omstirap from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import omstirap.cli

    origin = Path(omstirap.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"omstirap imported from {origin}, not from {SRC}")
    return omstirap.cli


def main(argv=None, workload=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=workload is None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = _import_program()
    except ImportError as exc:
        print(f"cannot import omstirap from {SRC}: {exc}", file=sys.stderr)
        return 2
    env = environment.record(ROOT)
    wl = workload or workloads.build(args.workload, args.seed, OUT)
    setup = measure_setup(workloads.config_refs(wl))

    batches = run_batches(wl.ops, cli.main, args.seconds)
    tracer = None
    if args.trace:
        reference = batches if wl.traced_ops == wl.ops else [run_batch(wl.traced_ops, cli.main)]
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_batch(wl.traced_ops, cli.main, tracer)
        metrics, units = per_layer(tracer, traced, reference, batches, wl.workers), PER_LAYER
        batches = batches + ([] if reference is batches else reference) + [traced]
    else:
        metrics, units = end_to_end(batches, setup), END_TO_END
    metrics = {name: metrics[name] for name in units}
    env["loadavg_after"] = environment.loadavg()

    attempted = sum(b.units for b in batches)
    failed = sum(b.failed for b in batches)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_s": setup,
              "attempted": attempted, "failed": failed,
              "not_traced": tracer.missing if tracer is not None else None,
              "batches": [asdict(b) for b in batches], "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    if tracer is not None:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.span_records()),
                                               encoding="utf-8")

    for b in batches:
        for problem in b.problems:
            print(f"FAILED {problem}")
    if tracer is not None and tracer.missing:
        print(f"not traced, gone from the package: {', '.join(tracer.missing)}")
    blas = ", ".join(f"{lib['library']} {lib.get('threads')} threads"
                     for lib in env["blas_libraries"])
    print(f"{wl.name}: {len(batches)} batch(es) of {wl.units} op(s), seed {args.seed}; "
          f"BLAS {blas}; threadpoolctl importable: {env['threadpoolctl_importable']}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':28s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
