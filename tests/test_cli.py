import csv
import io
import json
import math

import numpy as np
import pytest

from spinsync import catalog, cli, lindblad, perturbation
from spinsync.catalog import align_squeeze_phase, arnold_tongue, vdp_limit_cycle
from spinsync.cli import main
from spinsync.signals import VdpSignalParams, from_vdp_params


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
                "signal": {"family": family, "t01": 1.0, "tm10": 1.0},
                "sweep": [{"name": axis, "min": 0.1, "max": 1.0, "points": 3}],
            },
        )
        code, _, err = run_cli(capsys, "sync", "--config", cfg)
        assert code == 2
        assert "ConfigError" in err and repr(axis) in err

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

    def test_json_config_echo_round_trips(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**EQUATORIAL, "eta": 0.2})
        code, out, _ = run_cli(
            capsys, "sync", "--config", cfg, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        echoed = write_config(tmp_path, payload["config"], "echo.json")
        code2, out2, _ = run_cli(
            capsys, "sync", "--config", echoed, "--format", "json"
        )
        assert code2 == 0
        assert json.loads(out2) == payload


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


class TestFigures:
    def test_unknown_figure(self, capsys):
        code, _, err = run_cli(capsys, "figure", "fig99")
        assert code == 2
        assert "ConfigError" in err

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

    def test_fig3_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "figure", "fig3a", "--out", str(a))[0] == 0
        assert run_cli(capsys, "figure", "fig3a", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fig5_emits_inset_series(self, tmp_path, capsys):
        out_path = tmp_path / "fig5.csv"
        code, _, _ = run_cli(capsys, "figure", "fig5", "--out", str(out_path))
        assert code == 0
        inset = read_csv((tmp_path / "fig5_inset.csv").read_text())
        final = [float(r["S_over_eta"]) for r in inset][-1]
        assert final == pytest.approx(
            math.sqrt(40 + 22.5 * math.pi**2) / (24 * math.pi), rel=1e-3
        )


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert "benchmark table" in out
        assert out.count("[PASS]") >= 20
        assert "[FAIL]" not in out


VDP_AUTO = {
    "scenario": {"name": "vdp", "gamma_g": 1.0, "gamma_d": 10.0},
    "signal": {"family": "vdp_params", "tau_ratio": 0.7, "squeeze_phase": "auto"},
    "eta": 0.1,
}
TONGUE_AXES = [
    {"name": "detuning", "min": -2.0, "max": 2.0, "points": 5},
    {"name": "epsilon", "min": 0.0, "max": 0.1, "points": 4},
]


class TestGeneratorBuilds:
    """Generator builds per command: a detuning scan shares one build."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = lindblad.build_liouvillian

        def counting(spec):
            calls.append(spec)
            return original(spec)

        for module in (lindblad, perturbation, catalog, cli):
            monkeypatch.setattr(module, "build_liouvillian", counting)
        return calls

    def test_sync_sweep_builds_once_per_detuning_scan(
        self, tmp_path, capsys, builds
    ):
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
        assert len(builds) == 2

    def test_perturb_builds_once(self, tmp_path, capsys, builds):
        cfg = write_config(tmp_path, VDP_AUTO)
        code, out, _ = run_cli(capsys, "perturb", "--config", cfg)
        assert code == 0
        assert len(read_csv(out)) == 1
        assert len(builds) == 1

    def test_tongue_builds_once(self, tmp_path, capsys, builds):
        cfg = write_config(tmp_path, {**EQUATORIAL, "sweep": TONGUE_AXES})
        code, out, _ = run_cli(capsys, "tongue", "--config", cfg)
        assert code == 0
        assert len(read_csv(out)) == 20
        assert len(builds) == 1

    def test_tongue_with_auto_phase_builds_once(self, tmp_path, capsys, builds):
        cfg = write_config(tmp_path, {**VDP_AUTO, "sweep": TONGUE_AXES})
        code, out, _ = run_cli(capsys, "tongue", "--config", cfg)
        assert code == 0
        assert len(builds) == 1
        # the squeezing tone is aligned at the scenario's detuning
        lc = vdp_limit_cycle(1.0, 10.0)
        params = VdpSignalParams(1.0, 0.25 * math.pi, 0.0, 0.7)
        sig = align_squeeze_phase(lc, from_vdp_params(params, 0.0))
        grid = arnold_tongue(lc, sig, np.linspace(-2, 2, 5), np.linspace(0, 0.1, 4))
        got = [float(r["S"]) for r in read_csv(out)]
        np.testing.assert_array_equal(got, grid.value.ravel())
