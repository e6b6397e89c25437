"""Workload process of the benchmark: replays one workload's command passes.

``run.py`` starts this script in a fresh process with BLAS pinned to one
thread, in one of three modes:

``probe``    import numpy and spinsync, run the first command once and print
             the monotonic clock, so the parent can time set-up from launch;
``measure``  an untimed warm-up pass that the correctness gate checks, then
             timed passes until the time budget is used;
``trace``    a warm-up pass, then untraced and traced passes in turn; reports
             per-layer counts and self times and checks that traced output is
             byte-identical to untraced output.

Every command's time is also rescaled by the calibration kernel run just
before and after it (see ``calibration.py``).  The result is printed as one
JSON line on stdout.  spinsync is imported from the ``src`` directory of the
checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from calibration import REFERENCE_S, kernel_median  # noqa: E402
from workloads import Command, config_path, generate  # noqa: E402


@dataclass
class CommandRun:
    seconds: float
    ok: bool
    digests: dict[str, str] = field(default_factory=dict)
    out_bytes: int = 0
    error: str = ""
    #: REFERENCE_S over the calibration kernel's time around this command
    speed_scale: float = 1.0

    @property
    def norm_seconds(self) -> float:
        return self.seconds * self.speed_scale


def output_path(cmd: Command, workdir: Path, i: int) -> Path:
    return workdir / "out" / f"c{i:02d}.{cmd.fmt}"


def run_command(cmd: Command, config: Path, out: Path) -> CommandRun:
    """Run one CLI command in-process; the time covers ``cli.main`` only."""
    from spinsync import cli

    out.parent.mkdir(exist_ok=True)
    for old in out.parent.glob(out.stem + "*" + out.suffix):
        old.unlink()
    argv = [*cmd.argv, "--config", str(config), "--out", str(out),
            "--format", cmd.fmt]
    err = io.StringIO()
    gc.collect()  # each command starts from the collector state of a fresh CLI run
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            ok = cli.main(argv) == 0
    except SystemExit as exc:  # argparse rejects the command line
        ok = exc.code == 0
    except Exception:  # a leaked error still counts as one failed command
        ok = False
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    run = CommandRun(seconds, ok, error=err.getvalue().strip())
    if ok:
        for path in sorted(out.parent.glob(out.stem + "*" + out.suffix)):
            data = path.read_bytes()
            run.digests[path.name] = hashlib.sha256(data).hexdigest()
            run.out_bytes += len(data)
    return run


def run_pass(commands, configs, workdir: Path, tracer=None) -> list[CommandRun]:
    """Run every command once, timing the calibration kernel between them."""
    runs = []
    before = kernel_median()
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.command = i
        run = run_command(cmd, configs[i], output_path(cmd, workdir, i))
        after = kernel_median()
        run.speed_scale = REFERENCE_S / (0.5 * (before + after))
        before = after
        runs.append(run)
    return runs


def check_pass(commands, runs, workdir: Path) -> tuple[float, list[int]]:
    """Correctness gate on a pass's outputs: (max_rel_err, rows per command)."""
    import reference

    worst, rows = 0.0, []
    for i, (cmd, run) in enumerate(zip(commands, runs)):
        if not run.ok:
            rows.append(0)
            continue
        err, n = reference.check_command(cmd, output_path(cmd, workdir, i))
        worst = max(worst, err)
        rows.append(n)
    return worst, rows


def same_outputs(a: list[CommandRun], b: list[CommandRun]) -> bool:
    return all(x.ok == y.ok and x.digests == y.digests for x, y in zip(a, b))


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _first_errors(commands, runs) -> dict[str, str]:
    return {cmd.kind: run.error.splitlines()[-1] if run.error else "failed"
            for cmd, run in zip(commands, runs) if not run.ok}


def measure(commands, configs, workdir: Path, seconds: float) -> dict:
    from reference import REL_TOL

    warm = run_pass(commands, configs, workdir)
    max_rel_err, rows = check_pass(commands, warm, workdir)
    runs_all, passes, rates, raw_rates = [], [], [], []
    rows_written = 0
    identical = True
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        runs = run_pass(commands, configs, workdir)
        passes.append(time.perf_counter() - pass_start)
        identical &= same_outputs(warm, runs)
        pass_rows = sum(n for run, n in zip(runs, rows) if run.ok)
        rates.append(pass_rows / sum(run.norm_seconds for run in runs))
        raw_rates.append(pass_rows / sum(run.seconds for run in runs))
        rows_written += pass_rows
        runs_all.extend(runs)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(passes) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [run.norm_seconds for run in runs_all]
    raw = [run.seconds for run in runs_all]
    kinds = [cmd.kind for cmd in commands] * len(passes)
    return {
        "mode": "measure",
        "env": environment(),
        "max_rel_err": max_rel_err,
        "rel_tol": REL_TOL,
        "outputs_repeat": identical,
        "attempted": len(runs_all),
        "failed": sum(not run.ok for run in runs_all),
        "passes": len(passes),
        "rows": rows_written,
        # medians over passes and commands, so that a stretch of other load
        # on the machine does not pull the figures
        "rows_per_s": statistics.median(rates),
        "cmd_s_p50": statistics.median(latencies),
        "cmd_s_p90": _p90(latencies),
        "cmd_samples": len(latencies),
        "raw": {
            "rows_per_s": statistics.median(raw_rates),
            "cmd_s_p50": statistics.median(raw),
            "cmd_s_p90": _p90(raw),
            "speed_scale_p50": statistics.median(r.speed_scale for r in runs_all),
        },
        "peak_rss_mb": peak_rss_mb,
        "kind_s_p50": {
            kind: statistics.median(t for t, k in zip(latencies, kinds) if k == kind)
            for kind in dict.fromkeys(kinds)
        },
        "errors": _first_errors(commands, warm),
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# per-layer metrics derived from one traced pass; names follow "module.function"
COUNTED = (
    "lindblad.build_liouvillian", "lindblad.steady_state", "perturbation.first_order",
    "perturbation.sync_measure", "perturbation.coherence_response",
    "catalog.align_squeeze_phase", "spin.max_shifted_phase",
    "spin.phase_distribution_terms", "perturbation.full_steady_state",
    "catalog.optimize_signal", "signals.build_hext",
)
PER_ROW = ("lindblad.build_liouvillian", "lindblad.steady_state",
           "perturbation.first_order")
TIMED = COUNTED + ("lindblad.dissipator_superop", "catalog.pmax_forcing_curve",
                   "catalog.arnold_tongue")
LINALG = tuple(f"linalg.{name}" for name in ("svd", "solve", "lstsq", "eig"))


def layer_metrics(tracer, runs: list[CommandRun], rows: list[int]) -> dict:
    """Counts and normalized self times of one traced pass."""
    summary = tracer.summary([run.speed_scale for run in runs])

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0 if key == "self_s" else 0)

    rows_written = sum(n for n, run in zip(rows, runs) if run.ok)
    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = get(name, "calls")
    for name in PER_ROW:
        out[f"{name}.calls_per_row"] = get(name, "calls") / rows_written
    for name in TIMED:
        out[f"{name}.self_s"] = get(name, "self_s")
    peak_calls = get("spin.max_shifted_phase", "calls")
    out["spin.max_shifted_phase.general_frac"] = (
        tracer.general_peak_calls / peak_calls if peak_calls else 0.0
    )
    out["cli.self_s"] = sum(v["self_s"] for k, v in summary.items()
                            if k.startswith("cli."))
    out["cli.out_bytes"] = sum(run.out_bytes for run in runs)
    for name in LINALG:
        out[f"{name}.calls"] = get(name, "calls")
    linalg_calls = sum(get(name, "calls") for name in LINALG)
    out["linalg.self_s"] = sum(get(name, "self_s") for name in LINALG)
    out["linalg.calls_per_row"] = linalg_calls / rows_written
    return out


def builds_per_row(tracer, commands, runs, rows) -> dict[str, float]:
    """Generator builds per written row, by command kind (successful ones)."""
    calls = tracer.calls_by_command("lindblad.build_liouvillian")
    return {cmd.kind: calls.get(i, 0) / rows[i]
            for i, (cmd, run) in enumerate(zip(commands, runs)) if run.ok and rows[i]}


def trace(commands, configs, workdir: Path, seconds: float, spans_path: Path) -> dict:
    from reference import REL_TOL
    from tracing import Tracer

    warm = run_pass(commands, configs, workdir)
    max_rel_err, rows = check_pass(commands, warm, workdir)
    plain_s, traced_s, layers = [], [], []
    identical = True
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        runs = run_pass(commands, configs, workdir)
        identical &= same_outputs(warm, runs)
        plain_s.append(sum(r.norm_seconds for r in runs))
        tracer = Tracer()
        with tracer:
            runs = run_pass(commands, configs, workdir, tracer)
        identical &= same_outputs(warm, runs)
        traced_s.append(sum(r.norm_seconds for r in runs))
        attempted += len(runs)
        failed += sum(not r.ok for r in runs)
        layers.append(layer_metrics(tracer, runs, rows))
        if len(layers) == 1:
            first, per_kind = tracer, builds_per_row(tracer, commands, runs, rows)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(plain_s) + statistics.fmean(traced_s) > seconds:
            break
    first.write(spans_path)
    metrics = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key.endswith("self_s"):
            metrics[key] = statistics.median(values)
        else:
            # counts come from the input alone and must repeat exactly
            identical &= all(v == values[0] for v in values)
            metrics[key] = values[0]
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    )
    return {
        "mode": "trace",
        "env": environment(),
        "max_rel_err": max_rel_err,
        "rel_tol": REL_TOL,
        "outputs_repeat": identical,
        "attempted": attempted,
        "failed": failed,
        "passes": len(layers),
        "rows_per_pass": sum(rows),
        "builds_per_row": per_kind,
        "metrics": metrics,
        "errors": _first_errors(commands, warm),
    }


def probe(commands, configs, workdir: Path) -> dict:
    import numpy  # noqa: F401  (set-up covers the numpy import)

    run = run_command(commands[0], configs[0], output_path(commands[0], workdir, 0))
    end = time.monotonic()
    return {"mode": "probe", "end_monotonic": end, "ok": run.ok,
            "speed_scale": REFERENCE_S / kernel_median()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    commands = generate(args.workload, args.seed)
    workdir = Path(args.workdir)
    configs = [config_path(workdir, i) for i in range(len(commands))]
    if args.mode == "probe":
        result = probe(commands, configs, workdir)
    elif args.mode == "measure":
        result = measure(commands, configs, workdir, args.seconds)
    else:
        result = trace(commands, configs, workdir, args.seconds, Path(args.spans))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
