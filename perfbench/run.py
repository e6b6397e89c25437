"""Benchmark entry point for spinsync.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for why each was chosen): sweep_aligned,
sweep_misaligned, forcing, tongue_optimize.  Each is a seeded closed loop with
one client that replays a fixed list of ``spinsync`` CLI commands through
``spinsync.cli.main`` inside a single workload process with BLAS pinned to one
thread.

``--trace 0`` reports the end-to-end metrics: set-up time (median of several
fresh processes, each importing numpy and spinsync and running the first
command), rows written per second of command time, per-command latency
percentiles and peak memory.  ``--trace 1`` reports per-layer counts and self
times from a run with every layer wrapped.  Both runs pass every written value
through the correctness gate in ``reference.py``.  Times are rescaled to a
reference core speed by ``calibration.py``; the raw figures are printed too.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
spinsync is imported from the ``src`` directory of the checkout this script
sits in; scratch output goes to ``.bench_build/perfbench`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WHY, generate, write_configs  # noqa: E402

SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit for ``end_to_end`` and ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the workload process started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(common: list[str], deadline: float) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        result = _child(["probe", *common], deadline)
        if not result["ok"]:
            raise BenchError("the first command failed in the set-up probe")
        samples.append((result["end_monotonic"] - launched) * result["speed_scale"])
    return samples


def _print_env(env: dict) -> None:
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))


def run(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    commands = generate(args.workload, args.seed)
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    write_configs(commands, workdir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir)]
    try:
        print(f"workload {args.workload} (seed {args.seed}): {WHY[args.workload]}")
        print(f"commands per pass: {len(commands)}; "
              f"rows per pass if all succeed: {sum(c.rows for c in commands)}")
        if args.trace:
            spans = workdir.parent / f"spans-{args.workload}-{args.seed}.csv"
            res = _child(["trace", *common, "--seconds", str(args.seconds),
                          "--spans", str(spans)], deadline)
            values = res["metrics"]
            print(f"traced passes: {res['passes']}; spans of the first: {spans}")
            print("generator builds per row by command kind: "
                  + json.dumps(res["builds_per_row"]))
        else:
            setup = _setup_seconds(common, deadline)
            res = _child(["measure", *common, "--seconds", str(args.seconds)], deadline)
            values = dict(res, setup_s=statistics.median(setup))
            print(f"setup_s samples ({SETUP_PROBES} fresh processes): "
                  + ", ".join(f"{s:.4f}" for s in setup))
            print(f"timed passes: {res['passes']}; rows written: {res['rows']}; "
                  f"latency samples: {res['cmd_samples']}")
            print("times are normalized to the calibration kernel (calibration.py); "
                  "raw wall-clock figures: " + json.dumps(res["raw"]))
            print("median latency by command kind (s): "
                  + json.dumps(res["kind_s_p50"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}
    _print_env(res["env"])
    for kind, error in res["errors"].items():
        print(f"failed command {kind}: {error}")
    fail_frac = res["failed"] / res["attempted"]
    correct = res["max_rel_err"] <= res["rel_tol"] and res["outputs_repeat"]
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  fail_frac = {fail_frac!r} ratio "
          f"({res['failed']} of {res['attempted']} commands attempted)")
    print(f"  max_rel_err = {res['max_rel_err']!r} ratio "
          f"(tolerance {res['rel_tol']!r}); "
          f"outputs byte-identical across passes: {res['outputs_repeat']}")
    return {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinsync" / "cli.py").is_file():
        sys.stderr.write(f"no spinsync sources under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        return 2
    try:
        result = run(args)
    except BenchError as err:
        sys.stderr.write(f"benchmark failed: {err}\n")
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    if not result["correct"]:
        sys.stderr.write("correctness gate failed\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
