import contextlib
import csv
import functools
import inspect
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsync
from spinsync import _floatrepr, catalog, cli, lindblad, perturbation, validate
from spinsync.catalog import align_squeeze_phase, arnold_tongue, vdp_limit_cycle
from spinsync.cli import main
from spinsync.errors import SpinsyncError
from spinsync.signals import (
    SignalSpec,
    VdpSignalParams,
    build_hext,
    from_vdp_params,
    semiclassical,
)
from spinsync.spin import SQRT2

from conftest import exact_driven_state, kronecker_build, kronecker_commutator

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


EQUATORIAL = {
    "scenario": {"name": "equatorial", "gamma_g": 1.0, "gamma_d": 1.0},
    "signal": {"family": "semiclassical", "phase": 0.0},
    "eta": 0.1,
}

# each signal family with every key it reads, in the order of its builder
SIGNALS = {
    "semiclassical": {"phase": 0.3},
    "equatorial_angles": {"zeta": 0.4, "chi": 0.5},
    "vdp_params": {"c": 1.2, "zeta": 0.4, "chi": 0.5, "tau_ratio": 0.6,
                   "squeeze_phase": 0.7},
    "tones": {"t01": [0.5, 0.2], "tm10": 0.7, "tm11": [0, -0.3],
              "squeeze_phase": "auto"},
}
# the keys of each family that a sync sweep may set: those that are numbers
SIGNAL_AXES = {
    "semiclassical": ["phase"],
    "equatorial_angles": ["zeta", "chi"],
    "vdp_params": ["c", "zeta", "chi", "tau_ratio"],
    "tones": [],
}


class TestSteady:
    def test_equatorial_populations(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EQUATORIAL)
        code, out, _ = run_cli(capsys, "steady", "--config", cfg)
        assert code == 0
        row = read_csv(out)[0]
        pops = [float(row[k]) for k in ("p_plus", "p_zero", "p_minus")]
        assert pops == [0.0, 1.0, 0.0]

    def test_vdp_deep_quantum(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EQUATORIAL)
        code, out, _ = run_cli(
            capsys,
            "steady",
            "--config",
            cfg,
            "--set",
            "scenario.name=vdp",
            "--set",
            "scenario.gamma_d=1000",
        )
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["p_zero"]) == pytest.approx(1000 / 3001)
        assert float(row["p_minus"]) == pytest.approx(2000 / 3001)

    def test_cooperativity(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "scenario": {"name": "cooperativity", "cooperativity": 3.0},
                "eta": 0.1,
            },
        )
        code, out, _ = run_cli(capsys, "steady", "--config", cfg)
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["p_zero"]) == pytest.approx(12 / 13)
        assert float(row["p_minus"]) == pytest.approx(1 / 13)

    def test_invalid_rate_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EQUATORIAL)
        code, _, err = run_cli(
            capsys, "steady", "--config", cfg, "--set", "scenario.gamma_d=-1"
        )
        assert code == 2
        assert "ValueError" in err

    @pytest.mark.parametrize("field", ["detuning", "gamma_d"])
    def test_non_finite_input_exits_two(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, EQUATORIAL)
        code, _, err = run_cli(
            capsys, "steady", "--config", cfg, "--set", f"scenario.{field}=Infinity"
        )
        assert code == 2
        assert field in err

    def test_bad_eta_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**EQUATORIAL, "eta": 1.5})
        code, _, err = run_cli(capsys, "steady", "--config", cfg)
        assert code == 2
        assert "ConfigError" in err


class TestSync:
    def test_destructive_interference_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EQUATORIAL)
        code, out, _ = run_cli(capsys, "sync", "--config", cfg)
        assert code == 0
        row = read_csv(out)[0]
        assert row["flag"] == "destructive_interference"
        assert float(row["S"]) == 0.0

    def test_zero_response_flag(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                **EQUATORIAL,
                "signal": {"family": "tones", "t01": 0, "tm10": 0, "tm11": 1.0},
            },
        )
        code, out, _ = run_cli(capsys, "sync", "--config", cfg)
        assert code == 0
        row = read_csv(out)[0]
        assert row["flag"] == "zero_response"
        assert row["epsilon"] == "inf"

    def test_zero_response_rows_of_a_batched_sweep(self, tmp_path, capsys):
        # on vdp(g, g) p0 = p+, so the t01 tone alone (zeta = 0) does not couple
        cfg = write_config(
            tmp_path,
            {
                "scenario": {"name": "vdp", "gamma_g": 1.0, "gamma_d": 1.0},
                "signal": {"family": "equatorial_angles", "chi": 0.0},
                "eta": 0.1,
                "sweep": [
                    {"name": "zeta", "min": 0.0, "max": 0.5, "points": 2},
                    {"name": "detuning", "min": -1.0, "max": 1.0, "points": 3},
                ],
            },
        )
        code, out, _ = run_cli(capsys, "sync", "--config", cfg)
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 6
        for row in rows:
            zero = float(row["zeta"]) == 0.0
            assert (row["flag"] == "zero_response") == zero
            assert (row["epsilon"] == "inf") == zero
            assert (row["locked_phase"] == "nan") == zero
            assert (float(row["S"]) == 0.0) == zero

    # the measure depends on the rates and the tones only through ratios; a
    # cutoff of ||rho1|| at 1e-12 ||rho0|| once reported both scaled runs as
    # zero_response, with S = 0 and epsilon = inf
    @pytest.mark.parametrize(
        "scaled, factor",
        [
            (["scenario.gamma_g=1e13", "scenario.gamma_d=3e13"], 1e13),
            (["signal.t01=5e-14", "signal.tm10=5e-14"], 1.0 / 5e-14),
        ],
    )
    def test_measure_at_scaled_rates_or_tones(self, capsys, scaled, factor):
        base = [
            "scenario.name=equatorial", "scenario.gamma_g=1", "scenario.gamma_d=3",
            "signal.family=tones", "signal.t01=1", "signal.tm10=1",
        ]
        rows = []
        for sets in (base, base + scaled):
            code, out, _ = run_cli(capsys, "sync", *(f"--set={x}" for x in sets))
            assert code == 0
            rows.append(read_csv(out)[0])
        unscaled, row = rows
        assert row["flag"] == unscaled["flag"] == ""
        for key in ("S", "S_over_eta", "locked_phase"):
            assert float(row[key]) == pytest.approx(float(unscaled[key]), rel=1e-15)
        eps = float(row["epsilon"]) / factor
        assert eps == pytest.approx(float(unscaled["epsilon"]), rel=1e-15)

    def test_optimal_equatorial_value(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                **EQUATORIAL,
                "signal": {
                    "family": "equatorial_angles",
                    "zeta": math.pi / 4,
                    "chi": math.pi,
                },
            },
        )
        code, out, _ = run_cli(capsys, "sync", "--config", cfg)
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["S_over_eta"]) == pytest.approx(3 * math.sqrt(2) / 16)

    @pytest.mark.parametrize(
        "signal, spec",
        [
            (
                {"family": "tones", "t01": [0.5, 0.2], "tm10": 0.7, "tm11": [0, -0.3]},
                SignalSpec(0.5 + 0.2j, 0.7, -0.3j),
            ),
            (
                {"family": "vdp_params", "zeta": 0.4, "tau_ratio": 0.6,
                 "squeeze_phase": 0.3},
                from_vdp_params(VdpSignalParams(1.0, 0.4, 0.0, 0.6), 0.3),
            ),
        ],
    )
    def test_signal_as_configured(self, tmp_path, capsys, signal, spec):
        # [re, im] tones and a numeric squeezing phase, taken as given
        cfg = write_config(tmp_path, {**VDP_AUTO, "signal": signal})
        code, out, _ = run_cli(capsys, "sync", "--config", cfg)
        assert code == 0
        want = perturbation.sync_measure(vdp_limit_cycle(1.0, 10.0), spec)
        assert read_csv(out)[0]["S"] == repr(want.value)

    def test_sweep_rows(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "scenario": {"name": "equatorial", "gamma_g": 1.0, "gamma_d": 10.0},
                "signal": {"family": "semiclassical"},
                "eta": 0.1,
                "sweep": [
                    {"name": "detuning", "min": 0.0, "max": 2.0, "points": 3}
                ],
            },
        )
        code, out, _ = run_cli(capsys, "sync", "--config", cfg)
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert [float(r["detuning"]) for r in rows] == [0.0, 1.0, 2.0]

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                **EQUATORIAL,
                "sweep": [{"name": "flux", "min": 0, "max": 1, "points": 4}],
            },
        )
        code, _, err = run_cli(capsys, "sync", "--config", cfg)
        assert code == 2
        assert "ConfigError" in err

    @pytest.mark.parametrize(
        "command, names",
        [("sync", ["detuning", "detuning"]), ("tongue", ["detuning", "epsilon", "detuning"])],
    )
    def test_repeated_axis_rejected(self, tmp_path, capsys, command, names):
        sweep = [
            {"name": name, "min": 0.1, "max": 1, "points": 3 - i % 2}
            for i, name in enumerate(names)
        ]
        cfg = write_config(tmp_path, {**EQUATORIAL, "sweep": sweep})
        code, _, err = run_cli(capsys, command, "--config", cfg)
        assert code == 2
        assert err.startswith("ConfigError") and "'detuning' is given twice" in err

    @pytest.mark.parametrize("command", ["sync", "tongue"])
    def test_unread_axis_key_rejected(self, tmp_path, capsys, command):
        # a misspelt scale would otherwise give a linear axis
        sweep = [
            {"name": "detuning", "min": 0.5, "max": 2, "points": 3, "sacle": "log"},
            {"name": "epsilon", "min": 0.0, "max": 0.1, "points": 2},
        ]
        cfg = write_config(tmp_path, {**EQUATORIAL, "sweep": sweep})
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == 2
        assert out == ""
        assert err == (
            "ConfigError: sweep axis 'detuning' does not read sacle; "
            "it reads name, min, max, points, scale\n"
        )

    @pytest.mark.parametrize(
        "axis, message",
        [
            ({"scale": "logarithmic"}, "scale must be 'linear' or 'log', got 'logarithmic'"),
            ({"points": 2.7}, "points must be an integer, got 2.7"),
            ({"points": "nan"}, "points must be an integer, got nan"),
        ],
    )
    def test_malformed_axis_rejected(self, tmp_path, capsys, axis, message):
        sweep = [{"name": "detuning", "min": 0.5, "max": 2, "points": 3, **axis}]
        cfg = write_config(tmp_path, {**EQUATORIAL, "sweep": sweep})
        code, _, err = run_cli(capsys, "sync", "--config", cfg)
        assert code == 2
        assert err.startswith("ConfigError") and message in err

    # numpy refuses an axis of 1e20 points before it allocates anything
    @pytest.mark.parametrize(
        "command, axes",
        [("sync", ["detuning"]), ("tongue", ["detuning", "epsilon"])],
    )
    def test_huge_axis_rejected(self, tmp_path, capsys, command, axes):
        sweep = [{"name": name, "min": 0.5, "max": 2, "points": 3} for name in axes]
        sweep[-1]["points"] = 1e20
        cfg = write_config(tmp_path, {**EQUATORIAL, "sweep": sweep})
        code, _, err = run_cli(capsys, command, "--config", cfg)
        assert code == 2
        assert err.startswith("ConfigError")
        assert f"sweep axis {axes[-1]!r} cannot hold {10**20} points" in err

    def test_integral_float_points_accepted(self, tmp_path, capsys):
        sweep = [{"name": "detuning", "min": 0.5, "max": 2, "points": 3.0, "scale": "log"}]
        cfg = write_config(tmp_path, {**EQUATORIAL, "sweep": sweep})
        code, out, _ = run_cli(capsys, "sync", "--config", cfg)
        assert code == 0
        assert [float(r["detuning"]) for r in read_csv(out)] == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize(
        "family, axis",
        [
            ("semiclassical", "zeta"),
            ("equatorial_angles", "phase"),
            ("equatorial_angles", "tau_ratio"),
            ("vdp_params", "phase"),
            ("tones", "chi"),
        ],
    )
    def test_axis_ignored_by_signal_family_rejected(
        self, tmp_path, capsys, family, axis
    ):
        cfg = write_config(
            tmp_path,
            {
                **EQUATORIAL,
                "signal": {"family": family, **SIGNALS[family]},
                "sweep": [{"name": axis, "min": 0.1, "max": 1.0, "points": 3}],
            },
        )
        code, _, err = run_cli(capsys, "sync", "--config", cfg)
        assert code == 2
        assert err.startswith(f"ConfigError: sweep axis {axis!r} not recognized")

    @pytest.mark.parametrize("family", sorted(SIGNALS))
    def test_signal_axes_are_the_numeric_keys(self, tmp_path, capsys, family):
        allowed = sorted(["gamma_g", "gamma_d", "detuning", *SIGNAL_AXES[family]])
        for key in SIGNALS[family]:
            cfg = write_config(
                tmp_path,
                {
                    **EQUATORIAL,
                    "signal": {"family": family, **SIGNALS[family]},
                    "sweep": [{"name": key, "min": 0.1, "max": 1.0, "points": 2}],
                },
            )
            code, out, err = run_cli(capsys, "sync", "--config", cfg)
            if key in SIGNAL_AXES[family]:
                assert code == 0
                assert [float(row[key]) for row in read_csv(out)] == [0.1, 1.0]
            else:
                assert (code, out) == (2, "")
                assert err == (
                    f"ConfigError: sweep axis {key!r} not recognized; "
                    f"allowed: {allowed}\n"
                )

    def test_invalid_cells_named_by_row(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                **EQUATORIAL,
                "sweep": [
                    {"name": "gamma_d", "min": -1.0, "max": 1.0, "points": 3},
                    {"name": "detuning", "min": 0.0, "max": 1.0, "points": 2},
                ],
            },
        )
        code, _, err = run_cli(capsys, "sync", "--config", cfg)
        assert code == 2
        # rows 0-3 carry gamma_d = -1 and 0
        assert err.startswith("InvalidValueError: gamma_d must be positive")
        assert "got [-1.0, -1.0, 0.0, 0.0] at stack index [0, 1, 2, 3]" in err

    def test_signal_axis_of_the_family_sweeps(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "scenario": {"name": "equatorial", "gamma_g": 1.0, "gamma_d": 3.0},
                "signal": {"family": "equatorial_angles", "chi": 0.5},
                "eta": 0.1,
                "sweep": [{"name": "zeta", "min": 0.2, "max": 1.2, "points": 3}],
            },
        )
        code, out, _ = run_cli(capsys, "sync", "--config", cfg)
        assert code == 0
        assert len({row["S"] for row in read_csv(out)}) == 3

    @pytest.mark.parametrize("family", sorted(SIGNALS))
    @pytest.mark.parametrize("command", ["sync", "perturb", "tongue"])
    def test_json_config_echo_round_trips(self, tmp_path, capsys, command, family):
        config = {
            **EQUATORIAL,
            "eta": 0.2,
            "signal": {"family": family, **SIGNALS[family]},
            "sweep": TONGUE_AXES if command == "tongue" else [],
        }
        cfg = write_config(tmp_path, config)
        code, out, _ = run_cli(capsys, command, "--config", cfg, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        # the echo holds the keys as given, and no default of another family
        assert payload["config"]["signal"] == config["signal"]
        echoed = write_config(tmp_path, payload["config"], "echo.json")
        code2, out2, _ = run_cli(
            capsys, command, "--config", echoed, "--format", "json"
        )
        assert code2 == 0
        assert json.loads(out2) == payload

    # each was dropped, and the run wrote the same rows as without it
    @pytest.mark.parametrize("family", sorted(SIGNALS))
    @pytest.mark.parametrize("command", ["sync", "perturb", "tongue"])
    def test_signal_key_the_family_does_not_read(
        self, tmp_path, capsys, command, family
    ):
        unread = "phase" if family == "vdp_params" else "tau_ratio"
        config = {
            **EQUATORIAL,
            "signal": {"family": family, **SIGNALS[family], unread: 0.3},
            "sweep": TONGUE_AXES if command == "tongue" else [],
        }
        cfg = write_config(tmp_path, config)
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert (code, out) == (2, "")
        reads = ", ".join(f"signal.{key}" for key in SIGNALS[family])
        assert err == (
            f"ConfigError: signal {family} does not read signal.{unread}; "
            f"it reads {reads}\n"
        )


@pytest.mark.parametrize(
    "sets, key",
    [
        (["scenario.name=vdp"], "gamma_g"),
        (
            [
                "scenario.name=equatorial",
                "scenario.gamma_g=1",
                "scenario.gamma_d=1",
                'sweep=[{"name": "gamma_d", "max": 2, "points": 3}]',
            ],
            "'min'",
        ),
        (["sweep=[3]"], "sweep"),
        (["scenario=3"], "scenario"),
        (["signal=3"], "signal"),
        (["sweep=3"], "sweep"),
    ],
)
def test_malformed_config_names_the_key(capsys, sets, key):
    argv = ["sync"]
    for item in sets:
        argv += ["--set", item]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("ConfigError") and key in err


class TestPerturb:
    def test_first_order_entries(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "scenario": {"name": "equatorial", "gamma_g": 1.0, "gamma_d": 3.0},
                "signal": {"family": "semiclassical"},
                "eta": 0.1,
            },
        )
        code, out, _ = run_cli(capsys, "perturb", "--config", cfg)
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["rho1_10_im"]) == pytest.approx(-math.sqrt(2) / 2 / 3)
        assert float(row["rho1_0m1_im"]) == pytest.approx(math.sqrt(2) / 2)
        assert float(row["norm0"]) == pytest.approx(1.0)

    # the strength is formed from ||rho1|| / 2^e as the measure forms it, so
    # it neither vanishes where ||rho1|| overflows nor overflows into a
    # ZeroResponseError where rho1 is subnormal
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "tone, epsilon, norm1",
        [("1e308", "4.97518595104992e-310", "inf"), ("1e-320", "inf", "2.01e-320")],
    )
    def test_epsilon_at_the_ends_of_the_double_range(
        self, capsys, tone, epsilon, norm1
    ):
        sets = ["scenario.name=equatorial", "scenario.gamma_g=1", "scenario.gamma_d=10",
                "signal.family=tones", f"signal.t01={tone}", f"signal.tm10={tone}"]
        argv = [arg for key in sets for arg in ("--set", key)]
        rows = {}
        for command in ("perturb", "sync"):
            code, out, err = run_cli(capsys, command, *argv)
            assert code == 0, err
            rows[command] = read_csv(out)[0]
        assert rows["perturb"]["epsilon"] == rows["sync"]["epsilon"] == epsilon
        assert rows["perturb"]["norm1"] == norm1


class TestTongue:
    def test_requires_both_axes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EQUATORIAL)
        code, _, err = run_cli(capsys, "tongue", "--config", cfg)
        assert code == 2
        assert "ConfigError" in err

    def test_grid_and_masking(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "scenario": {"name": "equatorial", "gamma_g": 1.0, "gamma_d": 100.0},
                "signal": {"family": "semiclassical"},
                "eta": 0.1,
                "sweep": [
                    {"name": "detuning", "min": -5.0, "max": 5.0, "points": 5},
                    {"name": "epsilon", "min": 0.0, "max": 0.5, "points": 6},
                ],
            },
        )
        code, out, _ = run_cli(capsys, "tongue", "--config", cfg)
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 30
        for row in rows:
            delta = float(row["detuning"])
            expected = 0.1 / math.sqrt(
                1 / (100.0**2 + delta**2) + 1 / (1.0 + delta**2)
            )
            assert float(row["epsilon_max"]) == pytest.approx(expected, abs=1e-9)
            masked = row["masked"] == "true"
            assert masked == (float(row["epsilon"]) > expected)
            if masked:
                assert row["S"] == "nan"


    UNIT_RATE = {
        "unit_rate": 2.0,
        "scenario": {"name": "equatorial", "gamma_g": 1.0, "gamma_d": 3.0},
        "signal": {"family": "semiclassical"},
        "eta": 0.1,
        "sweep": [
            {"name": "detuning", "min": -1.0, "max": 1.0, "points": 3},
            {"name": "epsilon", "min": 0.0, "max": 0.3, "points": 4},
        ],
    }

    def test_negative_strengths_refused(self, tmp_path, capsys):
        sweep = [
            {"name": "detuning", "min": -1.0, "max": 1.0, "points": 3},
            {"name": "epsilon", "min": -1.0, "max": 1.0, "points": 3},
        ]
        cfg = write_config(tmp_path, {**self.UNIT_RATE, "sweep": sweep})
        code, out, err = run_cli(capsys, "tongue", "--config", cfg)
        assert code == 2
        assert out == ""
        # the strengths as configured, before the unit_rate scaling
        assert err == (
            "ConfigError: sweep axis 'epsilon' must be non-negative and finite, "
            "got [-1.0] at axis position [0]\n"
        )

    def test_unit_rate_scales_both_axes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.UNIT_RATE)
        code, out, _ = run_cli(capsys, "tongue", "--config", cfg)
        assert code == 0
        rows = read_csv(out)
        # the axes are written as configured
        assert sorted({float(r["detuning"]) for r in rows}) == [-1.0, 0.0, 1.0]
        at_one = {r["epsilon_max"] for r in rows if float(r["detuning"]) == 1.0}
        sets = ["--set", "sweep=[]", "--set", "scenario.detuning=1.0"]
        code, out, _ = run_cli(capsys, "sync", "--config", cfg, *sets)
        assert code == 0
        epsilon = read_csv(out)[0]["epsilon"]
        assert at_one == {epsilon}
        assert float(epsilon) == pytest.approx(0.2582, abs=1e-4)

    # the cooperativity cycle's default gamma_10 and gamma_0m1 were left
    # unscaled, so unit_rate changed their ratio to the configured detuning
    def test_unit_rate_scales_default_rates(self, capsys):
        base = ["unit_rate=2", "scenario.name=cooperativity",
                "scenario.cooperativity=1", "scenario.detuning=0.5"]
        rows = []
        for sets in (base, base + ["scenario.gamma_10=1", "scenario.gamma_0m1=1"]):
            code, out, _ = run_cli(capsys, "sync", *(f"--set={x}" for x in sets))
            assert code == 0
            rows.append(out)
        assert rows[0] == rows[1]

    def test_unit_rate_matches_doubled_rates(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.UNIT_RATE)
        doubled = {
            **self.UNIT_RATE,
            "unit_rate": 1.0,
            "scenario": {"name": "equatorial", "gamma_g": 2.0, "gamma_d": 6.0},
            "sweep": [
                {"name": "detuning", "min": -2.0, "max": 2.0, "points": 3},
                {"name": "epsilon", "min": 0.0, "max": 0.6, "points": 4},
            ],
        }
        ref = write_config(tmp_path, doubled, "doubled.json")
        code, out, _ = run_cli(capsys, "tongue", "--config", cfg)
        code_ref, out_ref, _ = run_cli(capsys, "tongue", "--config", ref)
        assert code == code_ref == 0
        columns = ("S", "epsilon_max", "masked")
        got = [[r[k] for k in columns] for r in read_csv(out)]
        assert got == [[r[k] for k in columns] for r in read_csv(out_ref)]
        assert {r[2] for r in got} == {"true", "false"}


class TestOptimizeAndBound:
    def test_optimize_cli(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "scenario": {"name": "equatorial", "gamma_g": 1.0, "gamma_d": 1.0},
                "signal": {"family": "equatorial_angles"},
                "eta": 0.1,
            },
        )
        code, out, _ = run_cli(capsys, "optimize", "--config", cfg)
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["S_over_eta"]) == pytest.approx(3 * math.sqrt(2) / 16)

    # the family is required: the default signal (semiclassical) and a signal
    # without a family are refused alike
    @pytest.mark.parametrize("sets", [[], ["--set", "signal={}"]])
    def test_optimize_needs_a_family(self, capsys, sets):
        argv = ["optimize", "--set", "scenario.name=equatorial", *sets]
        argv += ["--set", "scenario.gamma_g=1", "--set", "scenario.gamma_d=1"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "ConfigError: optimize expects signal.family 'equatorial_angles' "
            "or 'vdp_general'\n"
        )

    # a signal key past the family was dropped, and the run exited 0
    def test_optimize_refuses_unread_signal_keys(self, capsys):
        argv = ["optimize", "--set", "scenario.name=vdp", "--set", "scenario.gamma_g=1"]
        argv += ["--set", "scenario.gamma_d=3", "--set", "signal.family=vdp_general"]
        code, out, err = run_cli(capsys, *argv, "--set", "signal.bogus=0.3")
        assert (code, out) == (2, "")
        assert err == (
            "ConfigError: optimize does not read signal.bogus; it reads signal.family\n"
        )

    def test_bound_cli_with_params(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "eta": 0.1,
                "bound": {
                    "pop0": 1.0,
                    "asymmetry": 0.0,
                    "adjacent": 3 * math.pi / (4 * math.sqrt(2)),
                    "extremal": 1.0,
                },
            },
        )
        code, out, _ = run_cli(capsys, "bound", "--config", cfg)
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["smax_spin"]) == pytest.approx(0.028805841, abs=1e-9)
        assert float(row["smax_oscillator"]) == pytest.approx(0.019492420, abs=1e-9)
        assert float(row["S"]) == pytest.approx(float(row["smax_spin"]), abs=1e-12)


# the figure.<key> overrides each figure reads, in the order it names them;
# fig4-fig7 write S/eta, which does not depend on eta
FIGURE_KEYS = {
    "fig2": ("gamma_g", "gamma_d", "eta"),
    "fig3a": ("gamma_g", "gamma_ratio", "eta"),
    "fig3b": ("gamma_g", "gamma_ratio", "eta"),
    "fig4": ("gamma_g", "gamma_ratio"),
    "fig5": ("gamma_g", "gamma_ratio"),
    "fig6": ("gamma_g", "gamma_d"),
    "fig7": ("gamma_g", "gamma_ratios"),
    "fig8app": ("gamma_g", "gamma_ratio", "r_values"),
}


class TestFigures:
    def test_unknown_figure(self, capsys):
        code, _, err = run_cli(capsys, "figure", "fig99")
        assert code == 2
        assert err == (
            "ConfigError: figure id must be one of ['fig2', 'fig3a', 'fig3b', "
            "'fig4', 'fig5', 'fig6', 'fig7', 'fig8app'], got 'fig99'\n"
        )

    def test_fig2_boundary_column(self, tmp_path, capsys):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = run_cli(capsys, "figure", "fig2", "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path.read_text())
        for row in rows[:500]:
            delta = float(row["detuning"])
            formula = 0.1 / math.sqrt(
                1 / (100.0**2 + delta**2) + 1 / (1.0 + delta**2)
            )
            assert float(row["epsilon_max"]) == pytest.approx(formula, abs=1e-12)

    # the top strength squared the rates: gamma_d = 1e300 raised an
    # OverflowError, and gamma_g = 1e200, 1e-200 and 3e-308 warned of an
    # overflow or a division by zero
    @pytest.mark.parametrize(
        "setting",
        ["gamma_d=1e300", "gamma_d=1e-300", "gamma_g=1e200", "gamma_g=1e-200",
         "gamma_g=3e-308"],
    )
    def test_fig2_at_extreme_rates(self, tmp_path, capsys, setting):
        out_path = tmp_path / "fig2.csv"
        argv = ["figure", "fig2", "--set", f"figure.{setting}", "--out", str(out_path)]
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        rows = read_csv(out_path.read_text())
        strengths = [float(row["epsilon"]) for row in rows]
        bounds = [float(row["epsilon_max"]) for row in rows]
        assert all(map(math.isfinite, strengths + bounds))
        # the grid reaches 5% past the largest boundary, at the edge detuning
        assert max(strengths) == pytest.approx(1.05 * max(bounds), rel=1e-12)

    def test_fig7_peaks_at_geometric_mean(self, tmp_path, capsys):
        out_path = tmp_path / "fig7.csv"
        code, _, _ = run_cli(capsys, "figure", "fig7", "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path.read_text())
        for ratio in (100.0, 10000.0):
            sub = [
                (float(r["delta"]), float(r["S_over_eta"]))
                for r in rows
                if float(r["gamma_ratio"]) == ratio
            ]
            peak_delta = max(sub, key=lambda t: t[1])[0]
            assert peak_delta == pytest.approx(math.sqrt(ratio), rel=0.05)

    @pytest.mark.parametrize("fig_id", ["fig3a", "fig3b"])
    def test_fig3_undriven_row_is_the_target_state(self, fig_id):
        # the eps = 0 row takes rho0 itself, not a driven solve at eps = 0
        (_, header, columns), = cli.figure_datasets(fig_id, {})
        col = dict(zip(header, columns))
        assert col["epsilon"][0] == 0.0
        assert col["p_avg"][0].tobytes() == np.float64(0.0).tobytes()
        assert col["p_max"][0].tobytes() == np.float64(0.0).tobytes()
        assert (col["p_max"][1:] > 0.0).all()

    # the columns the forcing figures read from the driven solve's
    # coordinates are p_avg and p_max of full_steady_state's states, bit for
    # bit
    @pytest.mark.parametrize("fig_id, ratio", [("fig3a", 1.0), ("fig3b", 10.0)])
    def test_fig3_columns_equal_full_states(self, fig_id, ratio):
        (_, header, columns), = cli.figure_datasets(fig_id, {})
        col = dict(zip(header, columns))
        lc = catalog.equatorial_limit_cycle(1.0, ratio)
        rho0 = lindblad.steady_state(lindblad.build_liouvillian(lc))
        eps = col["epsilon"][1:]
        states = perturbation.full_steady_state(lc, semiclassical(0.0), eps)
        assert col["p_avg"][1:].tobytes() == perturbation.p_avg(states, rho0).tobytes()
        assert col["p_max"][1:].tobytes() == perturbation.p_max(states, rho0).tobytes()

    def test_fig8app_columns_equal_full_states(self):
        (_, header, columns), = cli.figure_datasets("fig8app", {})
        col = dict(zip(header, columns))
        lc = vdp_limit_cycle(1.0, 100.0)
        rho0 = lindblad.steady_state(lindblad.build_liouvillian(lc))
        for r, eps, curve in zip(col["r"][:, 0], col["epsilon"], col["p_max"]):
            signal = SignalSpec(r, 1.0 / SQRT2, 0j)
            states = perturbation.full_steady_state(lc, signal, eps)
            assert curve.tobytes() == perturbation.p_max(states, rho0).tobytes()

    def test_fig3_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "figure", "fig3a", "--out", str(a))[0] == 0
        assert run_cli(capsys, "figure", "fig3a", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_spells_negative_infinity(self):
        assert cli._cells(np.array([-math.inf])) == ["-inf"]
        assert cli._cells(np.array([math.inf, math.nan])) == ["inf", "nan"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fig5_needs_out(self, capsys, fmt):
        # its main and inset tables cannot share one stream
        code, out, err = run_cli(capsys, "figure", "fig5", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("ConfigError: ")
        assert "fig5 and fig5_inset" in err

    def test_fig5_emits_inset_series(self, tmp_path, capsys):
        out_path = tmp_path / "fig5.csv"
        code, _, _ = run_cli(capsys, "figure", "fig5", "--out", str(out_path))
        assert code == 0
        inset = read_csv((tmp_path / "fig5_inset.csv").read_text())
        final = [float(r["S_over_eta"]) for r in inset][-1]
        assert final == pytest.approx(
            math.sqrt(40 + 22.5 * math.pi**2) / (24 * math.pi), rel=1e-3
        )

    @pytest.mark.parametrize("fig_id", sorted(FIGURE_KEYS))
    def test_figure_rejects_keys_it_does_not_read(self, tmp_path, capsys, fig_id):
        keys = FIGURE_KEYS[fig_id]
        # the dataset function's keyword parameters are the keys it reads
        assert tuple(inspect.signature(cli._FIGURES[fig_id]).parameters) == keys
        out = str(tmp_path / "out.csv")
        read = ", ".join(f"figure.{key}" for key in keys)
        for key in sorted({k for ks in FIGURE_KEYS.values() for k in ks} - set(keys)):
            code, _, err = run_cli(
                capsys, "figure", fig_id, "--set", f"figure.{key}=2", "--out", out
            )
            assert code == 2
            assert err == (
                f"ConfigError: figure {fig_id} does not read figure.{key}; "
                f"it reads {read}\n"
            )
        # an eta from the top level is never an error, read or not
        code, _, err = run_cli(
            capsys, "figure", fig_id, "--set", "eta=0.2", "--set", "figure.gamma_g=2",
            "--out", out,
        )
        assert (code, err) == (0, "")

    # every one of fig3a's 150 driven strengths fails at gamma_g = 1e20 (the
    # unit anchor against rates of 1e20): the message names the first five
    # and the count instead of all 150
    def test_many_failing_strengths_named_by_count(self, capsys):
        code, _, err = run_cli(
            capsys, "figure", "fig3a", "--set", "figure.gamma_g=1e20"
        )
        assert code == 2
        assert err.startswith("DegenerateSteadyStateError")
        assert err.rstrip().endswith(
            "at epsilon, got [1e+18, 2e+18, 3e+18, 4e+18, 5e+18, ...] "
            "at stack index [0, 1, 2, 3, 4, ...] (150 cells)"
        )


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert "benchmark table" in out
        assert out.count("[PASS]") >= 20
        assert "[FAIL]" not in out


class TestValidateBuilds:
    """The random-scenario checks build each random cycle once and run the
    first-order kernel once per build, whose population step rejects a
    degenerate draw; no other population solve is made."""

    # criterion 2: 1418 draws for 1000 kept scenarios, plus the tightness
    # construction's two builds; criterion 9: 274 draws for 200
    @pytest.mark.parametrize(
        "group, builds",
        [
            (validate.check_fundamental_bound, 1420),
            (validate.check_structural_invariants, 274),
        ],
    )
    def test_one_build_per_draw(self, monkeypatch, group, builds):
        modules = (lindblad, perturbation, catalog, validate)
        built = _count_calls(monkeypatch, lindblad, "build_liouvillian", modules)
        kernels = _count_calls(monkeypatch, perturbation, "_response_maps", modules[1:])
        pops = _count_calls(monkeypatch, lindblad, "_populations", modules[:2])
        assert all(result.passed for result in group())
        assert len(built) == len(kernels) == len(pops) == builds

    def test_benchmark_table_builds(self, monkeypatch):
        # one build aligns the squeezed vdp signals, one per row measures
        modules = (lindblad, perturbation, catalog, validate)
        built = _count_calls(monkeypatch, lindblad, "build_liouvillian", modules)
        assert all(result.passed for result in validate.check_table_one())
        assert len(built) == 6


VDP_AUTO = {
    "scenario": {"name": "vdp", "gamma_g": 1.0, "gamma_d": 10.0},
    "signal": {"family": "vdp_params", "tau_ratio": 0.7, "squeeze_phase": "auto"},
    "eta": 0.1,
}
TONGUE_AXES = [
    {"name": "detuning", "min": -2.0, "max": 2.0, "points": 5},
    {"name": "epsilon", "min": 0.0, "max": 0.1, "points": 4},
]


def _count_calls(monkeypatch, home, name, modules):
    """Record the arguments of every call of ``home.name`` made through any
    of ``modules``."""
    calls = []
    original = getattr(home, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


class TestGeneratorBuilds:
    """Generator builds and first-order kernel calls per command: a sweep is
    one stacked build and one kernel call."""

    @pytest.fixture
    def builds(self, monkeypatch):
        modules = (lindblad, perturbation, catalog, cli)
        return _count_calls(monkeypatch, lindblad, "build_liouvillian", modules)

    @pytest.fixture
    def kernels(self, monkeypatch):
        modules = (perturbation, catalog, cli)
        return _count_calls(monkeypatch, perturbation, "_response_maps", modules)

    def test_sync_sweep_builds_once(self, tmp_path, capsys, builds, kernels):
        cfg = write_config(
            tmp_path,
            {
                **VDP_AUTO,
                "sweep": [
                    {"name": "gamma_d", "min": 5.0, "max": 50.0, "points": 2},
                    {"name": "detuning", "min": -1.0, "max": 1.0, "points": 3},
                ],
            },
        )
        code, out, _ = run_cli(capsys, "sync", "--config", cfg)
        assert code == 0
        assert len(read_csv(out)) == 6
        assert len(builds) == 1
        assert builds[0][0].shape == (2, 3)
        assert len(kernels) == 1

    def test_perturb_builds_once(self, tmp_path, capsys, builds):
        cfg = write_config(tmp_path, VDP_AUTO)
        code, out, _ = run_cli(capsys, "perturb", "--config", cfg)
        assert code == 0
        assert len(read_csv(out)) == 1
        assert len(builds) == 1

    def test_tongue_builds_once(self, tmp_path, capsys, builds, kernels):
        cfg = write_config(tmp_path, {**EQUATORIAL, "sweep": TONGUE_AXES})
        code, out, _ = run_cli(capsys, "tongue", "--config", cfg)
        assert code == 0
        assert len(read_csv(out)) == 20
        assert len(builds) == 1
        assert len(kernels) == 1

    def test_optimize_builds_once(self, tmp_path, capsys, builds):
        cfg = write_config(
            tmp_path, {**VDP_AUTO, "signal": {"family": "vdp_general"}}
        )
        code, out, _ = run_cli(capsys, "optimize", "--config", cfg)
        assert code == 0
        assert len(builds) == 1

    # fig5: its grid's cycle and the 13 of the inset in one stack
    @pytest.mark.parametrize("fig_id", ["fig4", "fig5", "fig7"])
    def test_figure_builds_once(self, tmp_path, capsys, builds, kernels, fig_id):
        out = str(tmp_path / f"{fig_id}.csv")
        code, _, _ = run_cli(capsys, "figure", fig_id, "--out", out)
        assert code == 0
        assert len(builds) == 1
        assert len(kernels) == 1

    # fig5: the 13 optima of its inset from one call on their stacked maps
    def test_fig5_inset_is_one_optimum(
        self, tmp_path, capsys, builds, kernels, monkeypatch
    ):
        optima = _count_calls(monkeypatch, catalog, "_optimum", (catalog, cli))
        code, _, _ = run_cli(capsys, "figure", "fig5", "--out", str(tmp_path / "f.csv"))
        assert code == 0
        assert (len(builds), len(kernels), len(optima)) == (1, 1, 1)
        assert optima[0][1].shape == (13, 2, 2)

    # the exact driven solve that the figures and full_steady_state share,
    # called from perturbation alone; its arguments are the cycle's forms,
    # the signal Hamiltonian and the strengths
    @pytest.fixture
    def driven(self, monkeypatch):
        name = "_driven_coordinates"
        return _count_calls(monkeypatch, perturbation, name, (perturbation,))

    @pytest.fixture
    def factorizations(self, monkeypatch):
        """The name, operand shape and keywords of every ``np.linalg.svd``,
        ``pinv``, ``lstsq``, ``inv`` and ``solve`` call."""
        calls = []
        for name in ("svd", "pinv", "lstsq", "inv", "solve"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, np.shape(a), kwargs))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        return calls

    # fig3a/b: one curve of 150 driven strengths; fig8app: 4 curves of 121
    @pytest.mark.parametrize(
        "fig_id, curves, points",
        [("fig3a", 1, 150), ("fig3b", 1, 150), ("fig8app", 4, 121)],
    )
    def test_forcing_figure_solves_once_per_curve(
        self, capsys, builds, driven, factorizations, fig_id, curves, points
    ):
        code, out, _ = run_cli(capsys, "figure", fig_id)
        assert code == 0
        assert len(builds) == 1
        assert [np.shape(args[2]) for args in driven] == [(points,)] * curves
        # the curves of a figure share one set of the cycle's forms
        assert len({id(args[0]) for args in driven}) == 1
        # one stacked inverse of the anchored 9x9 operators per curve and no
        # 9x9 SVD: the only SVDs are the rank tests of the sector blocks
        full = [call[:2] for call in factorizations if call[1][-2:] == (9, 9)]
        assert full == [("inv", (points, 9, 9))] * curves
        assert not [call for call in factorizations if call[0] in ("pinv", "lstsq")]

    # rate ratios of 1e11, then 1e14 and 1e15, once raised a spurious
    # degeneracy error on driven strengths, and 1e20 a spurious singular
    # coherence block; the exact states are well defined there
    @pytest.mark.parametrize("ratio", [1e11, 1e14, 1e15, 1e20, 1e100])
    def test_forcing_figure_at_wide_rate_ratio(self, capsys, ratio):
        code, out, _ = run_cli(
            capsys, "figure", "fig3b", "--set", f"figure.gamma_ratio={ratio!r}"
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 151
        lc = catalog.equatorial_limit_cycle(1.0, ratio)
        gen, l1 = kronecker_build(lc), kronecker_commutator(build_hext(semiclassical(0.0)))
        pops0 = lindblad.steady_state(lindblad.build_liouvillian(lc)).diagonal().real
        dps = 40 + 3 * round(math.log10(ratio))
        for row in rows[1::15]:
            eps = float(row["epsilon"])
            pops = exact_driven_state(gen, l1, eps, dps).diagonal().real - pops0
            assert abs(float(row["p_avg"]) - (pops[0] - pops[2])) <= 1e-13
            assert abs(float(row["p_max"]) - np.abs(pops).max()) <= 1e-13

    def test_pmax_failure_sweep_builds_once(self, builds, driven):
        strengths = np.logspace(-2, 3, 11)
        sweep = catalog.pmax_failure_sweep([0.5, 2.5], strengths, 1.0, 100.0)
        assert len(builds) == 1
        assert len(driven) == 2
        assert driven[0][0] is driven[1][0]
        lc = vdp_limit_cycle(1.0, 100.0)
        for r, data in sweep.items():
            signal = SignalSpec(r + 0j, 1.0 / SQRT2 + 0j, 0j)
            curve = catalog.pmax_forcing_curve(lc, signal, strengths)
            assert data["curve"].tobytes() == curve.tobytes()

    def test_tongue_with_auto_phase_builds_once(
        self, tmp_path, capsys, builds, kernels
    ):
        cfg = write_config(tmp_path, {**VDP_AUTO, "sweep": TONGUE_AXES})
        code, out, _ = run_cli(capsys, "tongue", "--config", cfg)
        assert code == 0
        assert len(builds) == 1
        assert len(kernels) == 1
        # the squeezing tone is aligned at the scenario's detuning
        lc = vdp_limit_cycle(1.0, 10.0)
        params = VdpSignalParams(1.0, 0.25 * math.pi, 0.0, 0.7)
        sig = align_squeeze_phase(lc, from_vdp_params(params, 0.0))
        grid = arnold_tongue(lc, sig, np.linspace(-2, 2, 5), np.linspace(0, 0.1, 4))
        got = [float(r["S"]) for r in read_csv(out)]
        np.testing.assert_array_equal(got, grid.value.ravel())


class TestJsonSpelling:
    def test_zero_response_row(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                **EQUATORIAL,
                "signal": {"family": "tones", "t01": 0, "tm10": 0, "tm11": 1.0},
            },
        )
        code, out, _ = run_cli(capsys, "sync", "--config", cfg, "--format", "json")
        assert code == 0
        assert '\n  "epsilon": "inf",\n' in out
        assert '\n  "locked_phase": "nan",\n' in out
        payload = json.loads(out)
        assert payload["flag"] == "zero_response"

    def test_tongue_null_at_masked_cells(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "scenario": {"name": "equatorial", "gamma_g": 1.0, "gamma_d": 100.0},
                "signal": {"family": "semiclassical"},
                "eta": 0.1,
                "sweep": [
                    {"name": "detuning", "min": -5.0, "max": 5.0, "points": 5},
                    {"name": "epsilon", "min": 0.0, "max": 0.5, "points": 6},
                ],
            },
        )
        code, out, _ = run_cli(capsys, "tongue", "--config", cfg, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        nulls = [[value is None for value in row] for row in payload["S"]]
        assert nulls == payload["masked"]
        assert {False, True} == {cell for row in nulls for cell in row}
        assert all(isinstance(v, float) for row in payload["S"] for v in row if v)


def _spelled(value) -> str:
    """The CSV spelling of a value parsed from the JSON output."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _flat_json(payload: dict) -> dict:
    """The fields of a JSON payload by CSV column name: nested objects
    flattened, the populations array by level and complex [re, im] pairs as
    ``<name>_re``, ``<name>_im``; the config echo left out."""
    flat = {}
    for key, value in payload.items():
        if key == "config":
            continue
        if isinstance(value, dict):
            flat |= _flat_json(value)
        elif key == "populations":
            flat |= dict(zip(("p_plus", "p_zero", "p_minus"), value))
        elif isinstance(value, list):
            flat[f"{key}_re"], flat[f"{key}_im"] = value
        else:
            flat[key] = value
    return flat


SWEPT_VDP = {
    "scenario": {"name": "vdp", "gamma_g": 1.0, "gamma_d": 10.0},
    "signal": {"family": "tones", "t01": [0.5, 0.2], "tm10": 0.7, "tm11": 0.0},
    "eta": 0.1,
    "sweep": [
        {"name": "gamma_d", "min": 1.0, "max": 100.0, "points": 3, "scale": "log"},
        {"name": "detuning", "min": -1.0, "max": 1.0, "points": 2},
    ],
}


class TestJsonMatchesCsv:
    """Each JSON output re-parses, and its values are the cells of the CSV
    output of the same command."""

    @pytest.mark.parametrize("fig_id", sorted(cli._FIGURES))
    def test_figure(self, tmp_path, capsys, fig_id):
        csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
        assert run_cli(capsys, "figure", fig_id, "--out", str(csv_path))[0] == 0
        code, _, _ = run_cli(
            capsys, "figure", fig_id, "--format", "json", "--out", str(json_path)
        )
        assert code == 0
        suffixes = ["", "_inset"] if fig_id == "fig5" else [""]
        for suffix in suffixes:
            text = (tmp_path / f"out{suffix}.csv").read_text()
            payload = json.loads((tmp_path / f"out{suffix}.json").read_text())
            assert payload["figure"] == fig_id + suffix
            header, *rows = list(csv.reader(io.StringIO(text)))
            assert payload["columns"] == header
            assert [list(map(_spelled, row)) for row in payload["rows"]] == rows
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"out{suffix}.{ext}" for suffix in suffixes for ext in ("csv", "json")
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["steady"],
            ["perturb"],
            ["optimize", "--set", "signal.family=vdp_general"],
            ["bound"],
            ["bound", "--set", 'bound={"adjacent": [1.0, 0.5], "extremal": 0.3}'],
        ],
    )
    def test_single_row_commands(self, capsys, argv):
        argv = argv + ["--set", "scenario.name=vdp", "--set", "scenario.gamma_g=1"]
        argv += ["--set", "scenario.gamma_d=3"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        (row,) = read_csv(out)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == argv[0]
        flat = _flat_json(payload)
        assert {key: _spelled(flat[key]) for key in row} == row

    def test_keyed_sync_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEPT_VDP)
        code, out, _ = run_cli(capsys, "sync", "--config", cfg)
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 6
        code, out, _ = run_cli(capsys, "sync", "--config", cfg, "--format", "json")
        assert code == 0
        keyed = [_flat_json(row) for row in json.loads(out)["rows"]]
        assert [{k: _spelled(v) for k, v in row.items()} for row in keyed] == rows


# The per-cell writers the column writers replaced, kept as their oracle.


def old_fmt_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def old_table(columns: dict) -> tuple[list[str], list[list]]:
    header, values = [], []
    for name, column in columns.items():
        column = np.ravel(column)
        if np.iscomplexobj(column):
            header += [f"{name}_re", f"{name}_im"]
            values += [column.real.tolist(), column.imag.tolist()]
        else:
            header.append(name)
            values.append(column.tolist())
    return header, [list(row) for row in zip(*values)]


def old_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(old_fmt_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def old_jsonify(obj):
    if isinstance(obj, dict):
        return {k: old_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return old_jsonify(obj.tolist())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return str(obj)
    return obj


def old_json(payload) -> str:
    return json.dumps(old_jsonify(payload), indent=2, sort_keys=True) + "\n"


def stdout_of(write, *args) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        write(None, *args)
    return buffer.getvalue()


EDGE_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324]
EDGE_FLOATS += [1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True)
# The per-cell JSON writer left the parts of a complex number unconverted,
# so it wrote a non-finite part as NaN or Infinity; the oracle holds for
# finite parts only.
FINITE = st.sampled_from(EDGE_FLOATS[:2] + EDGE_FLOATS[5:]) | st.floats(
    allow_nan=False, allow_infinity=False
)
TEXT = st.text(max_size=6)


def column_of(length: int, parts=FLOATS):
    """A column of ``length`` values of one kind, drawn from a small pool so
    that values repeat (as on an axis) or from the whole range; a complex
    column has real and imaginary parts drawn from ``parts``."""

    def of(values):
        pooled = st.lists(values, min_size=1, max_size=3).flatmap(
            lambda pool: st.lists(
                st.sampled_from(pool), min_size=length, max_size=length
            )
        )
        return pooled | st.lists(values, min_size=length, max_size=length)

    return st.one_of(
        of(FLOATS).map(lambda v: np.array(v, dtype=float)),
        of(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
        of(TEXT).map(lambda v: np.array(v, dtype=str)),
        of(st.integers(-(2**62), 2**62)).map(lambda v: np.array(v, dtype=np.int64)),
        st.tuples(of(parts), of(parts)).map(
            lambda p: np.array([complex(*z) for z in zip(*p)], dtype=complex)
        ),
    )


@st.composite
def tables(draw, parts=FLOATS):
    length = draw(st.integers(0, 40))
    names = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True)
    columns = {name: draw(column_of(length, parts)) for name in draw(names)}
    if length == 1:
        # a scalar is a column of one
        columns["scalar"] = draw(FLOATS | st.booleans())
    return columns


@st.composite
def grid_tables(draw):
    """Columns over one grid of 1-3 axes as the producers hand them over:
    each a broadcast view with zero strides on a drawn subset of the axes,
    some transposed, and a scalar in a table of one cell."""
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    names = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True)
    columns = {}
    for name in draw(names):
        transposed = draw(st.booleans())
        view_shape = shape[::-1] if transposed else shape
        flags = st.lists(st.booleans(), min_size=len(shape), max_size=len(shape))
        repeated = draw(flags)
        core = tuple(1 if r else n for r, n in zip(repeated, view_shape))
        values = draw(column_of(math.prod(core))).reshape(core)
        view = np.broadcast_to(values, view_shape)
        columns[name] = view.T if transposed else view
    if math.prod(shape) == 1:
        columns["scalar"] = draw(FLOATS | st.booleans())
    return columns


ARRAYS = st.one_of(
    st.integers(0, 4).flatmap(
        lambda n: column_of(n, FINITE).map(
            lambda c: c.astype(object) if n == 3 else c
        )
    ),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda shape: column_of(shape[0] * shape[1], FINITE).map(
            lambda c: c.reshape(shape)
        )
    ),
    FLOATS.map(np.array),
    st.lists(st.none() | FLOATS, max_size=5).map(
        lambda v: np.array(v + [None], dtype=object)
    ),
    st.lists(st.tuples(FLOATS, st.booleans()), max_size=6).map(
        lambda v: np.ma.masked_array([x for x, _ in v], [m for _, m in v], dtype=float)
    ),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    FLOATS,
    TEXT,
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    FLOATS.map(np.float64),
    st.floats(allow_nan=True, width=32).map(np.float32),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
)
PAYLOADS = st.recursive(
    SCALARS | ARRAYS,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=12,
)


def wide_exponent_column(seed: int = 12) -> np.ndarray:
    """Normal floats of every decimal exponent and random bit patterns (nan,
    inf and subnormals among them), longer than one kernel block."""
    rng = np.random.default_rng(seed)
    n = _floatrepr._BLOCK + 3000
    normal = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-307, 308, n)
    bits = rng.integers(0, 2**64, 3000, dtype=np.uint64).view(np.float64)
    return np.concatenate([normal, bits])


def edge_column() -> np.ndarray:
    """Signed zeros and nans, infinities, the subnormal and normal extremes,
    the fixed/scientific switch, and every power of 2 and 10 with both of
    its neighbours, with either sign."""
    powers = np.concatenate(
        [np.ldexp(1.0, np.arange(-1074, 1024)), [float(f"1e{e}") for e in range(-323, 309)]]
    )
    edges = [0.0, math.nan, math.inf, 5e-324, 2.0**-1022, 1.7976931348623157e308,
             1e-5, 1e-4, 1e16, 9999999999999998.0]
    column = np.concatenate(
        [edges, powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)]
    )
    return np.concatenate([column, -column])


def same_lines(text: str, expected: str) -> None:
    """Fail at the first line where ``text`` differs from ``expected``,
    rather than through pytest's diff of two long tables, which takes
    minutes."""
    if text != expected:
        got, want = text.splitlines(keepends=True), expected.splitlines(keepends=True)
        pairs = enumerate(zip(got, want))
        line = next((i for i, (a, b) in pairs if a != b), min(len(got), len(want)))
        pytest.fail(
            f"line {line} of {len(got)} (expected {len(want)}): "
            f"{got[line:line + 1]} != {want[line:line + 1]}"
        )


def kernel_cells(values: np.ndarray) -> list[str]:
    """``repr`` of each value of one block as the kernel lays it out, with
    no search for repeats: each row of ``_floatrepr._rows`` without its
    zero bytes."""
    rows = _floatrepr._rows(values).view(np.uint8).reshape(len(values), -1)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


# magnitudes outside (1e-280, 1e280), which the kernel leaves to repr
EXTREME_FLOATS = [1e-300, -2.5e-290, 2.0**-1060, 1e290, -3.1e305]


@st.composite
def long_tables(draw):
    """Tables of _KERNEL_MIN to 3000 rows over a grid of two axes, as a long
    tongue or sweep hands them over: broadcast axis and constant columns, a
    bool mask whose cells are nan in a float column, a complex column and a
    str column without NUL, in any order and maybe transposed. A float
    column is drawn from a small pool, so that it repeats, or of every
    decimal exponent with EDGE_FLOATS and EXTREME_FLOATS strewn in."""
    outer = draw(st.integers(1, 40))
    inner = draw(st.integers(-(-_floatrepr._KERNEL_MIN // outer), 3000 // outer))
    shape = (outer, inner)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.lists(FLOATS, min_size=1, max_size=4))

    def floats(*shape):
        if draw(st.booleans()):
            return rng.choice(pool, shape)
        values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-307, 308, shape)
        strewn = rng.random(shape) < 0.1
        values[strewn] = rng.choice(EDGE_FLOATS + EXTREME_FLOATS, strewn.sum())
        return values

    mask = rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    measure = floats(*shape)
    measure[mask] = math.nan
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = floats(*shape), floats(*shape)
    # a long table's str cell may not hold NUL, which a zero byte cannot pad
    cell = st.text(st.characters(codec="utf-8", exclude_characters="\0"), max_size=6)
    words = np.array(draw(st.lists(cell, min_size=1, max_size=3)), dtype=str)
    columns = {
        "outer": np.broadcast_to(floats(outer, 1), shape),
        "inner": np.broadcast_to(floats(inner), shape),
        "S": measure,
        "masked": mask,
        "z": z,
        "word": rng.choice(words, shape),
        "constant": np.broadcast_to(floats(1, 1), shape),
    }
    transposed = draw(st.booleans())
    names = draw(st.permutations(list(columns)))
    return {name: columns[name].T if transposed else columns[name] for name in names}


CSV_BLOCK = cli._CSV_BLOCK


def one_detuning_tongue(rows: int) -> dict:
    """The columns of an equatorial tongue at one detuning over ``rows``
    strengths, about a third of its cells masked: its epsilon_max column
    and, past one row, its detuning column are zero-stride views."""
    lc = catalog.equatorial_limit_cycle(1.0, 300.0)
    detunings, strengths = np.array([4.0]), np.linspace(0.0, 0.6, rows)
    grid = arnold_tongue(lc, semiclassical(0.0), detunings, strengths)
    return cli._tongue_columns(grid, detunings, strengths)


def csv_blocks(text: str) -> list[str]:
    """A CSV text cut as the writer writes it: _CSV_BLOCK rows at a time,
    the header line leading the first block."""
    lines = text.splitlines(keepends=True)
    cuts = [0, *range(1 + CSV_BLOCK, len(lines), CSV_BLOCK), len(lines)]
    return ["".join(lines[a:b]) for a, b in zip(cuts, cuts[1:])]


@functools.cache
def equatorial_tongue() -> np.ndarray:
    """The measure over a 161 x 201 tongue of the equatorial cycle at gamma_d
    = 300, masked cells nan: 32361 values, half of them masked."""
    lc = catalog.equatorial_limit_cycle(1.0, 300.0)
    detunings, strengths = np.linspace(-15, 15, 161), np.linspace(0, 1.5, 201)
    values = arnold_tongue(lc, semiclassical(0.0), detunings, strengths).value.ravel()
    values.flags.writeable = False
    return values


class TestColumnWriters:
    """The column writers spell every value as the per-cell writers did."""

    @pytest.mark.parametrize("make", [wide_exponent_column, edge_column])
    def test_long_columns_match_per_cell_writers(self, make):
        column = make()
        distinct = np.unique(column.view(np.uint64))
        assert len(distinct) >= _floatrepr._KERNEL_MIN  # spelled by the kernel
        assert cli._cells(column) == list(map(repr, column.tolist()))
        columns = {"x": column, "b": np.arange(len(column)) % 3 == 0}
        expected = old_csv(*old_table(columns))
        assert stdout_of(cli._write_csv, *cli._table(columns)) == expected
        assert stdout_of(cli._write_json, {"x": column}) == old_json({"x": column})

    @settings(max_examples=200, deadline=None)
    @given(st.lists(FLOATS, min_size=1, max_size=60))
    def test_kernel_matches_repr(self, values):
        assert kernel_cells(np.array(values, dtype=float)) == list(map(repr, values))

    def test_power_table_is_double_double(self):
        # each row: 10**(16 - k) as hi + lo, and hi in Veltkamp halves whose
        # products with the halves of a double are exact
        table = _floatrepr._powers()
        assert len(table) == _floatrepr._K_MAX - _floatrepr._K_MIN + 1
        for k, (hi, lo, hi_hi, hi_lo) in enumerate(table.tolist(), start=_floatrepr._K_MIN):
            exact = Fraction(10) ** (16 - k)
            assert abs(exact - Fraction(hi)) <= Fraction(math.ulp(hi)) / 2
            assert abs(exact - Fraction(hi) - Fraction(lo)) <= Fraction(math.ulp(lo)) / 2
            assert hi_hi + hi_lo == hi
            for half in (hi_hi, hi_lo):
                # its significand: the numerator without its trailing zero bits
                numerator = abs(half.as_integer_ratio()[0])
                assert numerator == 0 or (numerator // (numerator & -numerator)).bit_length() <= 26

    @pytest.mark.parametrize(
        "length",
        [_floatrepr._BLOCK - 1, _floatrepr._BLOCK + 1, 3 * _floatrepr._BLOCK + 1],
    )
    @pytest.mark.parametrize("kind", ["linspace", "logspace", "round", "tongue"])
    def test_kernel_matches_repr_across_blocks(self, kind, length):
        column = {
            "linspace": lambda: np.linspace(-15.0, 15.0, length),
            "logspace": lambda: np.logspace(-3.0, 3.0, length),
            "round": lambda: np.arange(length) / 8.0,
            "tongue": lambda: equatorial_tongue()[:length],
        }[kind]()
        assert len(column) == length
        assert _floatrepr.reprs(column) == list(map(repr, column.tolist()))

    def test_kernel_certifies_a_tongue(self):
        # a kernel that left every value to repr would spell them right, slowly
        values = equatorial_tongue()
        spelled = values[np.isfinite(values) & (values != 0)]
        assert len(spelled) > 10000
        assert _floatrepr._shortest(np.abs(spelled))[3].mean() >= 0.999
        assert cli._cells(values) == list(map(repr, values.tolist()))

    def test_kernel_searches_digits_only_where_there_are_some(self, monkeypatch):
        # nan, inf, zero and out-of-range cells have no digits to search: a
        # kernel that searched a stand-in for them would spell them right,
        # slowly
        rng = np.random.default_rng(5)
        block = _floatrepr._BLOCK
        special = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                            -(2.0**-1030), 1e-281, 1e281, -1.7976931348623157e308])
        finite = rng.uniform(-5.0, 5.0, block) * 10.0 ** rng.integers(-30, 30, block)
        mixed = np.where(rng.random(block) < 0.5, rng.choice(special, block), finite)
        # blocks of mixed cells, of cells without digits and of finite cells
        column = np.concatenate([mixed, rng.choice(special, block), finite])
        searched = []
        shortest = _floatrepr._shortest

        def spy(x):
            searched.append(x.copy())
            return shortest(x)

        monkeypatch.setattr(_floatrepr, "_shortest", spy)
        # block by block: reprs would spell this repeating column's
        # distinct values in blocks of its own
        cells = [cell for part in np.split(column, 3) for cell in kernel_cells(part)]
        assert cells == list(map(repr, column.tolist()))
        assert len(searched) == 2
        searched = np.concatenate(searched)
        magnitude = np.abs(column)
        has_digits = (magnitude > _floatrepr._TINY) & (magnitude < _floatrepr._HUGE)
        assert 0 < has_digits[:block].sum() < block
        assert searched.tolist() == magnitude[has_digits].tolist()

    @pytest.mark.parametrize("length", [_floatrepr._BLOCK - 1, _floatrepr._BLOCK + 1])
    @pytest.mark.parametrize(
        "pool",
        [
            [math.nan],
            [0.0, -0.0],
            [math.inf, -math.inf],
            [math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf],
            "nan payloads",
        ],
    )
    def test_cells_without_digits_are_left_to_repr(self, pool, length, monkeypatch):
        # no digit search, and no warning from one, on a block without
        # digits: a column that repeats them is spelled once per value, and
        # nans of distinct payloads do not repeat
        if pool == "nan payloads":
            bits = np.arange(length, dtype=np.uint64) | np.uint64(0x7FF8000000000000)
            column = bits.view(np.float64)
        else:
            column = np.random.default_rng(9).choice(pool, length)
        searched = []
        monkeypatch.setattr(_floatrepr, "_shortest", searched.append)
        expected = list(map(repr, column.tolist()))
        assert _floatrepr.reprs(column) == expected
        assert kernel_cells(column) == expected
        assert searched == []

    def test_repr_spells_only_what_the_kernel_cannot(self, monkeypatch):
        # zeros, infinities and nans strewn through finite values of every
        # exponent take their rows from a table: repr spells only the
        # magnitudes outside (_TINY, _HUGE) and the undecided cells
        rng = np.random.default_rng(40)
        n = 40000
        finite = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-320, 309, n)
        special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
        column = np.where(rng.random(n) < 0.3, rng.choice(special, n), finite)
        left = []
        repr_rows = _floatrepr._repr_rows

        def spy(values):
            left.append(values.copy())
            return repr_rows(values)

        monkeypatch.setattr(_floatrepr, "_repr_rows", spy)
        cells = [cell for part in np.array_split(column, 5) for cell in kernel_cells(part)]
        assert cells == list(map(repr, column.tolist()))
        left = np.abs(np.concatenate(left))
        outside = (left <= _floatrepr._TINY) | (left >= _floatrepr._HUGE)
        assert np.isfinite(left).all() and (left > 0).all()
        assert outside.mean() > 0.9

    @pytest.mark.parametrize("fig_id", sorted(cli._FIGURES))
    def test_figure_tables_match_per_cell_writer(self, fig_id):
        # real grids: fig2's masked tongue, fig6's symmetric grid and
        # fig5's short inset among them
        for _, header, columns in cli.figure_datasets(fig_id, {}):
            expected = old_csv(*old_table(dict(zip(header, columns))))
            assert stdout_of(cli._write_csv, header, columns) == expected

    @pytest.mark.parametrize(
        "columns",
        [
            {"a": np.array([]), "b": np.array([], dtype=bool)},
            {"x": np.array([1.5, math.nan, -0.0, 1e300])},
            {"x": np.append(np.linspace(-1.0, 1.0, 2 * _floatrepr._KERNEL_MIN), EDGE_FLOATS)},
        ],
        ids=["no rows", "one column", "one column spelled by the kernel"],
    )
    def test_csv_table_shapes(self, columns):
        expected = old_csv(*old_table(columns))
        assert stdout_of(cli._write_csv, *cli._table(columns)) == expected
        if not len(next(iter(columns.values()))):
            assert expected == ",".join(columns) + "\n"

    @pytest.mark.parametrize(
        "rows",
        [0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 1],
        ids=str,
    )
    def test_csv_block_boundaries(self, tmp_path, rows):
        columns = one_detuning_tongue(rows)
        assert 0 in columns["epsilon_max"].strides
        assert rows < 3 or 0 < columns["masked"].mean() < 1
        expected = old_csv(*old_table(columns))
        header, values = cli._table(columns)
        assert stdout_of(cli._write_csv, header, values) == expected
        cli._write_csv(str(tmp_path / "t.csv"), header, values)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

    @settings(max_examples=40, deadline=None)
    @given(long_tables())
    def test_long_tables_match_per_cell_writer(self, tmp_path_factory, columns):
        # written as bytes a block at a time
        expected = old_csv(*old_table(columns))
        header, values = cli._table(columns)
        same_lines(stdout_of(cli._write_csv, header, values), expected)
        path = tmp_path_factory.getbasetemp() / "long.csv"
        cli._write_csv(str(path), header, values)
        same_lines(path.read_bytes().decode(), expected)

    def test_long_non_ascii_str_column(self, tmp_path):
        # a UTF-8 character other than NUL has no zero byte, so a block is
        # decoded whole
        n = 1500
        columns = {"word": np.full(n, "é"), "x": np.linspace(-1.0, 1.0, n)}
        expected = old_csv(*old_table(columns))
        header, values = cli._table(columns)
        same_lines(stdout_of(cli._write_csv, header, values), expected)
        cli._write_csv(str(tmp_path / "t.csv"), header, values)
        same_lines((tmp_path / "t.csv").read_bytes().decode(), expected)

    def test_long_nul_cell_is_refused(self, tmp_path):
        # a zero byte cannot pad a NUL cell, so it is refused before the
        # output is opened
        columns = {"word": np.full(1500, "a\0b"), "x": np.zeros(1500)}
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="NUL"):
            cli._write_csv(str(path), *cli._table(columns))
        assert not path.exists()

    def test_csv_writes_bounded_blocks(self, tmp_path, monkeypatch):
        # a fig2-sized tongue, 161 x 211 cells: each write gets one block
        ((_, header, columns),) = cli.figure_datasets("fig2", {})
        assert columns[0].size == 161 * 211
        writes = []

        def spying_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write

            def spy(text):
                writes.append(text)
                return write(text)

            fh.write = spy
            return fh

        monkeypatch.setattr(cli, "open", spying_open, raising=False)
        path = tmp_path / "fig2.csv"
        cli._write_csv(str(path), header, columns)
        text = stdout_of(cli._write_csv, header, columns)
        assert path.read_bytes() == text.encode()
        assert writes == csv_blocks(text)
        assert len(writes) == -(-columns[0].size // CSV_BLOCK)

    def test_csv_tongue_with_masked_rows(self):
        lc = catalog.equatorial_limit_cycle(1.0, 300.0)
        detunings, strengths = np.linspace(-15, 15, 41), np.linspace(0, 1.5, 31)
        grid = arnold_tongue(lc, semiclassical(0.0), detunings, strengths)
        assert 0 < grid.masked.mean() < 1
        columns = cli._tongue_columns(grid, detunings, strengths)
        expected = old_csv(*old_table(columns))
        assert stdout_of(cli._write_csv, *cli._table(columns)) == expected

    @settings(max_examples=100, deadline=None)
    @given(tables())
    def test_csv_matches_per_cell_writer(self, columns):
        expected = old_csv(*old_table(columns))
        assert stdout_of(cli._write_csv, *cli._table(columns)) == expected

    @settings(max_examples=150, deadline=None)
    @given(grid_tables())
    def test_broadcast_views_match_per_cell_writers(self, columns):
        expected = old_csv(*old_table(columns))
        header, values = cli._table(columns)
        assert stdout_of(cli._write_csv, header, values) == expected
        rows = [list(row) for row in zip(*(np.ravel(v).tolist() for v in values))]
        text = stdout_of(cli._write_json, {"rows": cli._Rows(values)})
        assert text == old_json({"rows": rows})
        # keyed by name, complex columns as [re, im] pairs: a view writes
        # what its contiguous copy writes
        views = {name: np.asarray(column) for name, column in columns.items()}
        copies = [np.array(column).ravel() for column in views.values()]
        keyed = cli._Rows(list(views.values()), list(views))
        text = stdout_of(cli._write_json, {"rows": keyed})
        copied = cli._Rows(copies, list(views))
        assert text == stdout_of(cli._write_json, {"rows": copied})

    def test_grid_axes_spelled_once_per_value(self, tmp_path, capsys, monkeypatch):
        # a tongue's axis and boundary columns repeat 161 or 201 values over
        # its 32361 cells; only its measure columns are spelled cell by cell
        sizes = []
        repr_bytes = cli.repr_bytes

        def spy(values):
            sizes.append(np.size(values))
            return repr_bytes(values)

        monkeypatch.setattr(cli, "repr_bytes", spy)
        axes = [
            {"name": "detuning", "min": -15.0, "max": 15.0, "points": 161},
            {"name": "epsilon", "min": 0.0, "max": 1.5, "points": 201},
        ]
        scenario = {"name": "equatorial", "gamma_g": 1.0, "gamma_d": 300.0}
        cfg = write_config(tmp_path, {**EQUATORIAL, "scenario": scenario, "sweep": axes})
        code, out, _ = run_cli(capsys, "tongue", "--config", cfg)
        cells = 161 * 201
        assert code == 0
        assert out.count("\n") == 1 + cells
        # detuning, epsilon, S, S_over_eta, epsilon_max
        assert sizes == [161, 201, cells, cells, 161]

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_csv_edge_values(self, repeats):
        # repeated values are spelled once per distinct bit pattern
        n = len(EDGE_FLOATS) * repeats
        columns = {"x": np.array(EDGE_FLOATS * repeats), "b": np.arange(n) % 3 == 0}
        expected = old_csv(*old_table(columns))
        assert expected.splitlines()[1:3] == ["-0.0,true", "0.0,false"]
        assert stdout_of(cli._write_csv, *cli._table(columns)) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(TEXT, PAYLOADS, max_size=4))
    def test_json_matches_json_dumps(self, payload):
        assert stdout_of(cli._write_json, payload) == old_json(payload)

    def test_json_spells_non_finite_complex_parts(self):
        text = stdout_of(cli._write_json, {"z": complex(math.nan, -math.inf)})
        assert json.loads(text) == {"z": ["nan", "-inf"]}

    @settings(max_examples=60, deadline=None)
    @given(tables(FINITE))
    def test_json_rows_match_per_row_records(self, columns):
        header, values = cli._table(columns)
        rows = [list(row) for row in zip(*(v.tolist() for v in values))]
        payload = {"rows": cli._Rows(values)}
        assert stdout_of(cli._write_json, payload) == old_json({"rows": rows})
        # keyed by name: complex columns are [re, im] pairs
        named = {name: np.ravel(column) for name, column in columns.items()}
        length = min(len(c) for c in named.values())
        records = [
            {name: column.tolist()[i] for name, column in named.items()}
            for i in range(length)
        ]
        payload = {"rows": cli._Rows(list(named.values()), list(named))}
        assert stdout_of(cli._write_json, payload) == old_json({"rows": records})


class TestParserReuse:
    ARGV = [
        ["sync", "--set", "scenario.name=equatorial", "--set", "scenario.gamma_g=1",
         "--set", "scenario.gamma_d=3", "--format", "json"],
        ["sync", "--set", "scenario.name=vdp", "--set", "scenario.gamma_g=2",
         "--set", "scenario.gamma_d=5"],
    ]

    def test_two_calls_in_one_process_match_fresh_processes(self, capsys):
        in_process = [run_cli(capsys, *argv) for argv in self.ARGV]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "spinsync.cli", *argv],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            for argv in self.ARGV
        ]
        assert [p.returncode for p in fresh] == [code for code, _, _ in in_process]
        assert [p.stdout for p in fresh] == [out for _, out, _ in in_process]
        assert json.loads(in_process[0][1])["config"]["scenario"]["gamma_d"] == 3

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


GAMMA_D_SWEEP = 'sweep=[{"name": "gamma_d", "min": 1, "max": 2, "points": 2}]'


class TestUserErrors:
    def test_library_errors_share_one_base(self):
        errors = [
            obj
            for obj in vars(spinsync).values()
            if isinstance(obj, type) and issubclass(obj, Exception)
        ]
        assert {e.__name__ for e in errors} == {
            "SpinsyncError", "InvalidValueError", "MixedSectorError",
            "DegenerateLimitCycleError", "SingularCoherenceBlockError",
            "ZeroResponseError", "DegenerateSteadyStateError",
        }
        assert all(issubclass(e, SpinsyncError) for e in errors)
        assert issubclass(SpinsyncError, ValueError)
        with pytest.raises(SpinsyncError):
            catalog.equatorial_limit_cycle(-1.0, 1.0)

    def test_internal_value_error_propagates(self, tmp_path, capsys, monkeypatch):
        def broken(_):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "steady_state", broken)
        cfg = write_config(tmp_path, EQUATORIAL)
        with pytest.raises(ValueError, match="internal fault"):
            main(["steady", "--config", cfg])

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["steady", "--set", "scenario.gamma_d=abc"], "scenario.gamma_d"),
            (["sync", "--set", "signal.phase=abc"], "signal.phase"),
            (["sync", "--set", "unit_rate=null"], "unit_rate"),
            (["bound", "--set", 'bound={"pop0": "x"}'], "bound.pop0"),
            (["figure", "fig3a", "--set", "figure.gamma_ratio=abc"], "figure.gamma_ratio"),
            (
                ["sync", "--set", 'sweep=[{"name": "detuning", "min": 0, "max": 1, '
                 '"points": "many"}]'],
                "points",
            ),
        ],
    )
    def test_non_numeric_config_value_exits_two(self, tmp_path, capsys, argv, key):
        cfg = write_config(tmp_path, EQUATORIAL)
        code, _, err = run_cli(capsys, *argv, "--config", cfg)
        assert code == 2
        assert err.startswith("ConfigError") and key in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sync", "--set", "eta"], "--set expects key=value, got 'eta'"),
            (["sync", "--set", "eta.x=1"], "cannot override 'eta.x': 'eta' is a leaf"),
            (
                ["sync", "--set", "scenario.name=ring"],
                "scenario.name must be one of ['asymmetric_equatorial', "
                "'cooperativity', 'equatorial', 'vdp'], got 'ring'",
            ),
            (
                ["sync", "--set", 'signal={"family": "tones", "t01": [1, 2, 3]}'],
                "signal.t01 must be a number or [re, im] pair, got [1, 2, 3]",
            ),
            (
                ["bound", "--set", "bound.adjacent=[1,2,3]"],
                "bound.adjacent must be a number or [re, im] pair, got [1, 2, 3]",
            ),
            (
                ["sync", "--set", 'signal={"family": "tones", "t01": [0, 0]}'],
                "signal tones are all zero",
            ),
            (
                ["sync", "--set", 'signal={"family": "chirp"}'],
                "signal.family must be one of ['equatorial_angles', "
                "'semiclassical', 'tones', 'vdp_params'], got 'chirp'",
            ),
            # a bad scenario or family is named before the sweep axes it
            # decides; each was reported as an axis that is not recognized
            (
                ["sync", "--set", "scenario.name=bogus", "--set", GAMMA_D_SWEEP],
                "scenario.name must be one of ['asymmetric_equatorial', "
                "'cooperativity', 'equatorial', 'vdp'], got 'bogus'",
            ),
            (
                ["sync", "--set", "signal.family=bogus", "--set", GAMMA_D_SWEEP],
                "signal.family must be one of ['equatorial_angles', "
                "'semiclassical', 'tones', 'vdp_params'], got 'bogus'",
            ),
            # the family's default is the default config's: a section given
            # whole names its family
            (
                ["sync", "--set", 'signal={"phase": 0.3}'],
                "signal.family must be one of ['equatorial_angles', "
                "'semiclassical', 'tones', 'vdp_params'], got None",
            ),
            # an unhashable name leaked a TypeError
            (
                ["sync", "--set", "scenario.name=[1]"],
                "scenario.name must be one of ['asymmetric_equatorial', "
                "'cooperativity', 'equatorial', 'vdp'], got [1]",
            ),
            # each was dropped, and the run wrote the same row as without it
            (
                ["sync", "--set", "signal.zeta=0.3"],
                "signal semiclassical does not read signal.zeta; it reads "
                "signal.phase",
            ),
            (
                ["sync", "--set", "signal.family=equatorial_angles"],
                "signal equatorial_angles does not read signal.phase; it reads "
                "signal.zeta, signal.chi",
            ),
            (
                ["sync", "--set",
                 'signal={"family": "equatorial_angles", "tau_ratio": 0.3}'],
                "signal equatorial_angles does not read signal.tau_ratio; it "
                "reads signal.zeta, signal.chi",
            ),
            # JSON's true and false were read as 1 and 0
            (
                ["sync", "--set", "scenario.gamma_d=true"],
                "scenario.gamma_d must be a number, got True",
            ),
            (["sync", "--set", "eta=false"], "eta must be a number, got False"),
            (
                ["figure", "fig7", "--set", "figure.gamma_ratios=[true, 2]"],
                "figure.gamma_ratios must be a number, got True",
            ),
            (
                ["bound", "--set", "bound.adjacent=[0, true]"],
                "bound.adjacent must be a number, got True",
            ),
            (
                ["sync", "--set", 'signal={"family": "tones", "t01": true}'],
                "signal.t01 must be a number, got True",
            ),
            (
                ["sync", "--set", 'sweep=[{"name": "detuning", "min": 0, "max": 1, '
                 '"points": true}]'],
                "sweep axis 'detuning' points must be a number, got True",
            ),
            (
                ["sync", "--set",
                 'sweep=[{"name": "detuning", "min": 0, "max": 1, "points": 1}]'],
                "sweep axis 'detuning' needs points >= 2",
            ),
            (
                ["sync", "--set", 'sweep=[{"name": "gamma_d", "min": 0, "max": 1, '
                 '"points": 3, "scale": "log"}]'],
                "log axis 'gamma_d' needs positive bounds",
            ),
            (
                ["sync", "--set", "signal.family=vdp_params", "--set", "sweep=["
                 + ", ".join(
                     f'{{"name": "{n}", "min": 0.1, "max": 1, "points": 2}}'
                     for n in ("detuning", "gamma_d", "zeta")
                 ) + "]"],
                "sync supports at most two sweep axes",
            ),
            (
                ["optimize", "--set", "signal.family=semiclassical"],
                "optimize expects signal.family 'equatorial_angles' or 'vdp_general'",
            ),
            # a config section is read against the signature of what it builds,
            # top-level keys against the keys a config has
            (
                ["sync", "--set", "scenario.gamma_dp=0.3"],
                "scenario equatorial does not read scenario.gamma_dp; it reads "
                "scenario.gamma_g, scenario.gamma_d, scenario.detuning",
            ),
            (
                ["bound", "--set", "bound.pop=0.5"],
                "bound does not read bound.pop; it reads bound.pop0, "
                "bound.asymmetry, bound.adjacent, bound.extremal",
            ),
            *(
                (
                    ["figure", fig_id, "--set", "figure.eta=0.3"],
                    f"figure {fig_id} does not read figure.eta; it reads "
                    + ", ".join(f"figure.{key}" for key in FIGURE_KEYS[fig_id]),
                )
                for fig_id in ("fig4", "fig5", "fig6", "fig7")
            ),
            (
                ["figure", "fig7", "--set", "figure.gamma_ratios=5"],
                "figure.gamma_ratios must be a non-empty JSON list of numbers, got 5",
            ),
            # each wrote a table of the header only
            *(
                (
                    ["figure", fig_id, "--set", f"figure.{key}=[]"],
                    f"figure.{key} must be a non-empty JSON list of numbers, got []",
                )
                for fig_id, key in (("fig7", "gamma_ratios"), ("fig8app", "r_values"))
            ),
            # each wrote one row, whatever the axis
            *(
                (
                    [*argv, "--set", "sweep=" + json.dumps(TONGUE_AXES[:1])],
                    f"{argv[0]} does not read sweep; only sync and tongue read sweep",
                )
                for argv in (
                    ["steady"],
                    ["perturb"],
                    ["optimize", "--set", "signal.family=equatorial_angles"],
                    ["bound"],
                    ["figure", "fig5"],
                )
            ),
            (
                ["sync", "--set", "gamma_ratio=100"],
                "config does not read gamma_ratio; it reads eta, unit_rate, "
                "scenario, signal, sweep, figure, bound",
            ),
            (
                ["sync", "--set", 'scenario={"name": "vdp", "gamma_g": 1}'],
                "scenario vdp: missing a required argument: 'gamma_d'",
            ),
            (
                ["sync", "--set", 'signal={"family": "tones", "t01": 1, '
                 '"squeeze_phase": 0.3}'],
                'tones take signal.squeeze_phase "auto" only, got 0.3',
            ),
            (["sync", "--set", "unit_rate=0"], "unit_rate must lie in (0, inf), got 0.0"),
            (
                ["figure", "fig2", "--set", "figure.eta=2"],
                "figure.eta must lie in (0, 1), got 2.0",
            ),
            # each wrote rows of nan, or leaked a LinAlgError from the driven state
            (
                ["sync", "--set", "signal.phase=Infinity"],
                "signal.phase must be finite, got inf",
            ),
            (
                ["sync", "--set", 'signal={"family": "tones", "t01": NaN}'],
                "signal.t01 must be finite, got nan",
            ),
            (
                ["sync", "--set", 'signal={"family": "tones", "tm10": [1, NaN]}'],
                "signal.tm10 must be finite, got nan",
            ),
            (
                ["tongue", "--set", 'sweep=[{"name": "detuning", "min": NaN, "max": 1, '
                 '"points": 3}, {"name": "epsilon", "min": 0, "max": 0.1, "points": 3}]'],
                "sweep axis 'detuning' min must be finite, got nan",
            ),
            (
                ["figure", "fig8app", "--set", "figure.r_values=[NaN]"],
                "figure.r_values must be finite, got nan",
            ),
            # finite bounds whose difference overflows made the axis
            # [nan, inf, 1e308], with numpy's RuntimeWarnings
            (
                ["sync", "--set", 'sweep=[{"name": "detuning", "min": -1e308, '
                 '"max": 1e308, "points": 3}]'],
                "sweep axis 'detuning' from -1e+308 to 1e+308: max - min overflows",
            ),
            # optimize reads signal.family alone; the rest was dropped
            (
                ["optimize", "--set", "signal.family=vdp_general", "--set",
                 "signal.bogus=0.3"],
                "optimize does not read signal.phase, signal.bogus; it reads "
                "signal.family",
            ),
        ],
    )
    def test_config_error_message(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path, EQUATORIAL)
        code, _, err = run_cli(capsys, *argv, "--config", cfg)
        assert code == 2
        assert err == f"ConfigError: {message}\n"

    # fig6 leaked a ZeroDivisionError at a zero rate and wrote a table at a
    # negative one
    @pytest.mark.parametrize(
        "key, value",
        [("gamma_d", "0"), ("gamma_g", "0"), ("gamma_d", "-1")],
    )
    def test_fig6_rejects_bad_rates(self, capsys, key, value):
        argv = ["figure", "fig6", "--set", f"figure.{key}={value}"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"InvalidValueError: {key} must be positive and finite, "
            f"got [{float(value)!r}]\n"
        )

    # a subnormal rate leaked a LinAlgError from the sector solves (or, for
    # vdp's gamma_d, wrote a row); rates of 1e308 overflowed the generator
    # and were reported as a degenerate cycle after a RuntimeWarning
    SUBNORMAL = (
        "InvalidValueError: a positive rate must be at least "
        "2.2250738585072014e-308, the smallest normal double, got [1e-310]\n"
    )

    @pytest.mark.parametrize(
        "config, argv",
        [
            (EQUATORIAL, ["sync", "--set", "scenario.gamma_d=1e-310"]),
            (EQUATORIAL, ["sync", "--set", "scenario.gamma_g=1e-310"]),
            (EQUATORIAL, ["sync", "--set", "scenario.name=vdp", "--set", "scenario.gamma_g=1e-310"]),
            (EQUATORIAL, ["sync", "--set", "scenario.name=vdp", "--set", "scenario.gamma_d=1e-310"]),
            (TestTongue.UNIT_RATE, ["tongue", "--set", "unit_rate=1e-310"]),
        ],
    )
    def test_subnormal_rate_rejected(self, tmp_path, capsys, config, argv):
        cfg = write_config(tmp_path, config)
        code, out, err = run_cli(capsys, *argv, "--config", cfg)
        assert (code, out, err) == (2, "", self.SUBNORMAL)

    def test_overflowing_generator_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EQUATORIAL)
        sets = ["scenario.name=vdp", "scenario.gamma_g=1e308", "scenario.gamma_d=1e308"]
        argv = [arg for key in sets for arg in ("--set", key)]
        code, out, err = run_cli(capsys, "steady", "--config", cfg, *argv)
        assert (code, out) == (2, "")
        assert err == "InvalidValueError: rates or detuning too large: the generator overflows\n"

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [EQUATORIAL])
        code, _, err = run_cli(capsys, "sync", "--config", cfg)
        assert code == 2
        assert err == "ConfigError: config must be a JSON object\n"

    def test_every_workload_config_is_read(self, tmp_path, capsys, monkeypatch):
        # the benchmark's commands set only keys their builders read
        monkeypatch.syspath_prepend(str(ROOT))
        from perfbench import workloads

        for name in workloads.WORKLOADS:
            for i, cmd in enumerate(workloads.generate(name, 1)):
                cfg = write_config(tmp_path, cmd.config, f"{name}{i}.json")
                out = str(tmp_path / f"{name}{i}.{cmd.fmt}")
                argv = [*cmd.argv, "--config", cfg, "--out", out, "--format", cmd.fmt]
                assert run_cli(capsys, *argv)[::2] == (0, "")
