"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402  (puts the repository's src on sys.path)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Command, config_path, generate, write_configs  # noqa: E402


def _bindings() -> dict[tuple[str, str], int]:
    import numpy.linalg

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "spinsync" or name.startswith("spinsync.")}
    modules["numpy.linalg"] = numpy.linalg
    return {(name, attr): id(obj) for name, mod in modules.items()
            for attr, obj in vars(mod).items() if callable(obj)}


def _prepared(commands, workdir: Path):
    write_configs(commands, workdir)
    return [config_path(workdir, i) for i in range(len(commands))]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_commands(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)


@pytest.mark.parametrize("workload", ["forcing", "sweep_aligned"])
def test_same_seed_same_output_bytes(workload, tmp_path):
    passes = []
    for name in ("a", "b"):
        commands = generate(workload, 11)
        configs = _prepared(commands, tmp_path / name)
        passes.append(worker.run_pass(commands, configs, tmp_path / name))
    assert worker.same_outputs(*passes)
    assert all(run.digests for run in passes[0] if run.ok)


def test_wrappers_removed_after_traced_run(tmp_path):
    import spinsync.catalog
    from spinsync import lindblad

    commands = generate("sweep_aligned", 3)
    configs = _prepared(commands, tmp_path)
    original = lindblad.build_liouvillian
    before = _bindings()
    tracer = Tracer()
    with tracer:
        # names imported by value are patched in each namespace
        assert spinsync.catalog.build_liouvillian is not original
        assert spinsync.catalog.build_liouvillian.__wrapped__ is original
        worker.run_pass(commands, configs, tmp_path, tracer)
    assert _bindings() == before
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == len(commands)
    assert summary["lindblad.build_liouvillian"]["calls"] > 0
    assert summary["linalg.svd"]["calls"] > 0


def test_wrappers_removed_when_the_run_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("interrupted")
    assert _bindings() == before


def test_failing_command_counts_against_attempted(tmp_path):
    good = generate("forcing", 5)[0]
    bad = Command(("sync",), {"scenario": {"name": "no_such_cycle"}}, "csv", 1,
                  "sync:invalid")
    commands = [good, bad]
    configs = _prepared(commands, tmp_path)
    result = worker.measure(commands, configs, tmp_path, seconds=0.0)
    assert result["attempted"] == 2 * result["passes"]
    assert result["failed"] == result["passes"]
    assert result["rows"] == good.rows * result["passes"]
    assert "no_such_cycle" in result["errors"]["sync:invalid"]


def test_gate_flags_a_wrong_value(tmp_path):
    import reference

    commands = generate("forcing", 2)
    configs = _prepared(commands, tmp_path)
    runs = worker.run_pass(commands, configs, tmp_path)
    err, _ = worker.check_pass(commands, runs, tmp_path)
    assert err <= reference.REL_TOL
    out = worker.output_path(commands[0], tmp_path, 0)
    lines = out.read_text().splitlines()
    cells = lines[20].split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-5))  # p_max of one row
    lines[20] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    err, _ = worker.check_pass(commands, runs, tmp_path)
    assert err > reference.REL_TOL


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forcing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json(tmp_path):
    import run

    declared = run.declared_metrics()
    commands = generate("forcing", 1)
    configs = _prepared(commands, tmp_path)
    tracer = Tracer()
    with tracer:
        runs = worker.run_pass(commands, configs, tmp_path, tracer)
    layer = worker.layer_metrics(tracer, runs, [cmd.rows for cmd in commands])
    assert set(layer) | {"trace_overhead_frac"} == set(declared["per_layer"])
    result = worker.measure(commands, configs, tmp_path, seconds=0.0)
    assert set(declared["end_to_end"]) - {"setup_s"} <= set(result)
