"""Seeded workload generator for the spinsync benchmark.

Each workload is a fixed list of ``spinsync`` CLI commands (one *pass*).  The
benchmark replays the pass as a closed loop with a single client: each command
starts after the previous one returned.  Only the numbers inside the JSON
configs depend on the seed; the command shapes and grid sizes do not, so
timings from different seeds measure the same amount of work.

The generator uses the standard-library ``random`` module only, so the parent
process can write the configs without importing numpy.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: points on the log-rate axis and on the detuning axis of every sync sweep
SWEEP_RATE_POINTS = 8
SWEEP_DETUNING_POINTS = 6
#: the Arnold tongue grid (detunings x strengths)
TONGUE_DETUNINGS = 161
TONGUE_STRENGTHS = 201
#: the forcing figures take their strength grids from the CLI
FORCING_R_VALUES = 4

# Latency percentiles pool every command of a pass.  The number of commands
# per pass and of repeats of each kind are chosen so that the median and the
# 90th percentile fall inside the latencies of one command kind rather than
# on the step between two kinds (tongue_optimize: 4 optimizer runs, 2 JSON
# tongues, 2 CSV tongues, then 2 fig5 runs as the slowest fifth).

WHY = {
    "sweep_aligned": (
        "2-axis sync sweeps whose phase distribution has one harmonic or two "
        "aligned ones: per-row generator builds, steady states and sector "
        "solves dominate and the peak search takes its closed fast path"
    ),
    "sweep_misaligned": (
        "the same sweeps with a squeezing tone at a fixed phase, so both "
        "harmonics are misaligned and the grid-plus-bisection peak search "
        "runs on every row"
    ),
    "forcing": (
        "forcing figures fig3a, fig3b and fig8app: the only exact driven "
        "steady-state path (9x9 SVD, lstsq and a generator rebuild per "
        "strength); sector solves and the peak search do no work"
    ),
    "tongue_optimize": (
        "Arnold tongues written as CSV and JSON, both optimizer families and "
        "fig5: the response is reused across many rows or objective calls, "
        "so output formatting and the golden-section loop dominate"
    ),
}

WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``argv`` minus ``--config/--out``, plus its config.

    ``fmt`` is the output format, ``rows`` the number of grid cells the
    command writes when it succeeds, and ``kind`` a short label used to group
    per-command counts in the report.
    """

    argv: tuple[str, ...]
    config: dict
    fmt: str
    rows: int
    kind: str


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _pair(rng: random.Random) -> list[float]:
    """A complex tone as a JSON [re, im] pair with modulus in [0.3, 1]."""
    mag = rng.uniform(0.3, 1.0)
    arg = rng.uniform(0.0, 2.0 * math.pi)
    return [mag * math.cos(arg), mag * math.sin(arg)]


def _detuning_axis(rng: random.Random) -> dict:
    return {
        "name": "detuning",
        "min": -rng.uniform(2.0, 20.0),
        "max": rng.uniform(2.0, 20.0),
        "points": SWEEP_DETUNING_POINTS,
        "scale": "linear",
    }


def _rate_axis(rng: random.Random, name: str, top: float | None = None) -> dict:
    """Log axis over the paper's rate-ratio range 1-1e4 (gamma_g = 1)."""
    if top is None:
        lo, hi = _log_uniform(rng, 0.0, 1.5), _log_uniform(rng, 2.5, 4.0)
    else:
        lo, hi = _log_uniform(rng, 0.0, 1.0), top
    return {
        "name": name,
        "min": lo,
        "max": hi,
        "points": SWEEP_RATE_POINTS,
        "scale": "log",
    }


def _scenario(rng: random.Random, name: str) -> dict:
    if name == "cooperativity":
        return {
            "name": name,
            "cooperativity": _log_uniform(rng, -1.0, 1.0),
            "gamma_10": 1.0,
            "gamma_0m1": 1.0,
            "detuning": 0.0,
        }
    scen = {"name": name, "gamma_g": 1.0, "gamma_d": 10.0, "detuning": 0.0}
    if name == "asymmetric_equatorial":
        scen["gamma_dp"] = rng.uniform(0.05, 0.5)
    return scen


def _signal(rng: random.Random, family: str, squeeze: str) -> dict:
    """Signal config; ``squeeze`` is "none", "auto" or "fixed"."""
    if family == "semiclassical":
        return {"family": family, "phase": rng.uniform(0.0, 2.0 * math.pi)}
    if family == "equatorial_angles":
        return {
            "family": family,
            "zeta": rng.uniform(0.1, 0.5 * math.pi - 0.1),
            "chi": rng.uniform(0.0, 2.0 * math.pi),
        }
    if family == "vdp_params":
        sig = {
            "family": family,
            "c": rng.uniform(0.5, 2.0),
            "zeta": rng.uniform(0.1, 0.5 * math.pi - 0.1),
            "chi": rng.uniform(0.0, 2.0 * math.pi),
            "tau_ratio": rng.uniform(0.2, 2.0),
        }
        sig["squeeze_phase"] = (
            "auto" if squeeze == "auto" else rng.uniform(0.0, 2.0 * math.pi)
        )
        return sig
    # family == "tones"
    sig = {"family": family, "t01": _pair(rng), "tm10": _pair(rng)}
    if squeeze == "auto":
        sig["tm11"] = rng.uniform(0.2, 1.0)
        sig["squeeze_phase"] = "auto"
    else:
        sig["tm11"] = _pair(rng)
    return sig


# (scenario, signal family, swept rate) per slot of a sweep pass.  The last
# slot reaches gamma_d = 1e12, the dynamic range quoted for the degeneracy
# defect; it stays in the workload whether or not it succeeds.
_ALIGNED_SLOTS = (
    ("equatorial", "semiclassical", "gamma_d"),
    ("equatorial", "equatorial_angles", "gamma_d"),
    ("vdp", "vdp_params", "gamma_d"),
    ("vdp", "tones", "gamma_d"),
    ("asymmetric_equatorial", "tones", "gamma_d"),
    ("cooperativity", "tones", "gamma_0m1"),
    ("equatorial", "semiclassical", "gamma_d"),
)
# The pure equatorial cycle leaves |-1> empty, so a squeezing tone cannot
# couple to it and its peak search would stay on the single-harmonic path.
# The misaligned pass therefore runs its equatorial slots on the asymmetric
# equatorial cycle, whose third channel populates |-1>.
_MISALIGNED_SLOTS = (
    ("asymmetric_equatorial", "tones", "gamma_d"),
    ("asymmetric_equatorial", "vdp_params", "gamma_d"),
    ("vdp", "vdp_params", "gamma_d"),
    ("vdp", "tones", "gamma_d"),
    ("asymmetric_equatorial", "tones", "gamma_d"),
    ("cooperativity", "tones", "gamma_0m1"),
    ("asymmetric_equatorial", "tones", "gamma_d"),
)
WIDE_RANGE_TOP = 1e12


def _sweeps(rng: random.Random, misaligned: bool) -> list[Command]:
    slots = _MISALIGNED_SLOTS if misaligned else _ALIGNED_SLOTS
    commands = []
    for i, (scen_name, family, rate) in enumerate(slots):
        wide = i == len(slots) - 1
        if misaligned:
            squeeze = "fixed"
        else:
            squeeze = "auto" if family in ("vdp_params", "tones") else "none"
        cfg = {
            "eta": 0.1,
            "scenario": _scenario(rng, scen_name),
            "signal": _signal(rng, family, squeeze),
            "sweep": [
                _rate_axis(rng, rate, WIDE_RANGE_TOP if wide else None),
                _detuning_axis(rng),
            ],
        }
        kind = f"sync:{scen_name}:{family}:{squeeze}" + (":wide" if wide else "")
        commands.append(
            Command(
                ("sync",),
                cfg,
                "csv",
                SWEEP_RATE_POINTS * SWEEP_DETUNING_POINTS,
                kind,
            )
        )
    return commands


def _forcing(rng: random.Random) -> list[Command]:
    fig3a = {"gamma_ratio": _log_uniform(rng, -0.3, 0.3)}
    fig3b = {"gamma_ratio": _log_uniform(rng, 0.7, 1.3)}
    fig8 = {
        "gamma_ratio": _log_uniform(rng, 1.5, 2.5),
        "r_values": sorted(
            rng.uniform(0.3, 10.0) for _ in range(FORCING_R_VALUES)
        ),
    }
    return [
        Command(("figure", "fig3a"), {"figure": fig3a}, "csv", 151, "figure:fig3a"),
        Command(("figure", "fig3b"), {"figure": fig3b}, "csv", 151, "figure:fig3b"),
        Command(
            ("figure", "fig8app"),
            {"figure": fig8},
            "csv",
            121 * FORCING_R_VALUES,
            "figure:fig8app",
        ),
    ]


def _tongue_config(rng: random.Random, scen_name: str, family: str) -> dict:
    # The validity boundary grows about linearly with |detuning| once gamma_d
    # exceeds the band, so strengths up to eta * width mask a similar share of
    # cells for every seed; masked cells are written differently.
    scen = _scenario(rng, scen_name)
    scen["gamma_d"] = _log_uniform(rng, 2.0, 4.0)
    width = rng.uniform(15.0, 20.0)
    sig = _signal(rng, family, "none")
    if family == "equatorial_angles":
        sig["zeta"] = rng.uniform(0.5, 1.1)
    return {
        "eta": 0.1,
        "scenario": scen,
        "signal": sig,
        "sweep": [
            {"name": "detuning", "min": -width, "max": width,
             "points": TONGUE_DETUNINGS},
            {"name": "epsilon", "min": 0.0, "max": 0.1 * width,
             "points": TONGUE_STRENGTHS},
        ],
    }


def _tongue_optimize(rng: random.Random) -> list[Command]:
    cells = TONGUE_DETUNINGS * TONGUE_STRENGTHS
    commands = []
    for scen_name, family in (
        ("equatorial", "semiclassical"),
        ("vdp", "equatorial_angles"),
    ):
        cfg = _tongue_config(rng, scen_name, family)
        for fmt in ("csv", "json"):
            commands.append(
                Command(("tongue",), cfg, fmt, cells, f"tongue:{scen_name}:{fmt}")
            )
    # The vdp descent takes up to ten times longer for some gamma_d above 100;
    # fig5's inset covers ratios 10-1e4 on fixed points, so the seeded runs
    # stay below 100 to keep the work per pass alike across seeds.
    for scen_name, family, top in (("equatorial", "equatorial_angles", 4.0),
                                   ("equatorial", "equatorial_angles", 4.0),
                                   ("vdp", "vdp_general", 2.0),
                                   ("vdp", "vdp_general", 2.0)):
        scen = _scenario(rng, scen_name)
        scen["gamma_d"] = _log_uniform(rng, 0.0, top)
        scen["detuning"] = rng.uniform(-2.0, 2.0)
        cfg = {"eta": 0.1, "scenario": scen, "signal": {"family": family}}
        commands.append(
            Command(("optimize",), cfg, "csv", 1, f"optimize:{family}")
        )
    for lo_exp in (1.0, 2.0):
        fig5 = {"gamma_ratio": _log_uniform(rng, lo_exp, lo_exp + 1.0)}
        commands.append(
            Command(("figure", "fig5"), {"figure": fig5}, "csv", 65 * 61 + 13,
                    "figure:fig5")
        )
    return commands


def generate(workload: str, seed: int) -> list[Command]:
    """The command list (one pass) of ``workload`` for ``seed``."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{int(seed)}")
    if workload == "sweep_aligned":
        return _sweeps(rng, misaligned=False)
    if workload == "sweep_misaligned":
        return _sweeps(rng, misaligned=True)
    if workload == "forcing":
        return _forcing(rng)
    return _tongue_optimize(rng)


def config_path(workdir: Path, index: int) -> Path:
    return workdir / "configs" / f"c{index:02d}.json"


def write_configs(commands: list[Command], workdir: Path) -> None:
    """Write each command's JSON config into ``workdir``."""
    (workdir / "configs").mkdir(parents=True, exist_ok=True)
    for i, cmd in enumerate(commands):
        config_path(workdir, i).write_text(
            json.dumps(cmd.config, sort_keys=True), encoding="utf-8"
        )
