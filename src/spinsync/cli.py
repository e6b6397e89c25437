"""Command-line front end.

    spinsync steady|sync|perturb|tongue|optimize|bound|figure|validate
             [--config FILE] [--out FILE] [--format csv|json]
             [--set key=value ...]

Configuration is a single JSON document; all rates are in units of the
``unit_rate`` field (default 1).  ``--set`` overrides dotted keys, e.g.
``--set scenario.gamma_d=50``.  CSV output is long format with one row per
grid cell; masked forcing-regime cells carry an explicit boolean column.
Identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import copy
import inspect
import json
import math
import sys

import numpy as np

from . import catalog
from .catalog import (
    TongueGrid,
    _align_on_maps,
    _tongue_grid,
    arnold_tongue,
    make_limit_cycle,
    optimize_signal,
    pmax_forcing_curve,
    smax,
    vdp_optimal_squeeze_ratio,
)
from .lindblad import (
    DegenerateLimitCycleError,
    LimitCycleSpec,
    MixedSectorError,
    build_liouvillian,
    steady_state,
)
from .perturbation import (
    DegenerateSteadyStateError,
    SingularCoherenceBlockError,
    ZeroResponseError,
    _apply_maps,
    _driven_steady_state,
    _perturbation_result,
    _response_maps,
    _sync_result,
    epsilon_for_threshold,
    hs_norm,
    p_avg,
    p_max,
    sync_from_coherences,
    sync_measure,
)
from .signals import (
    SignalSpec,
    VdpSignalParams,
    build_hext,
    from_equatorial_angles,
    from_vdp_params,
    semiclassical,
)
from .spin import SQRT2
from .validate import run_all

FIGURE_IDS = ("fig2", "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7", "fig8app")

# the keys of each scenario are the parameters of its builder
_SCENARIO_SIGNATURES = {n: inspect.signature(b) for n, b in catalog.SCENARIOS.items()}
_SCENARIO_KEYS = {n: tuple(sig.parameters) for n, sig in _SCENARIO_SIGNATURES.items()}

_RATE_KEYS = ("gamma_g", "gamma_d", "gamma_dp", "gamma_10", "gamma_0m1", "detuning")

# signal parameters that each family reads, and so may sweep
_SIGNAL_AXES = {
    "semiclassical": ("phase",),
    "equatorial_angles": ("zeta", "chi"),
    "vdp_params": ("zeta", "chi", "tau_ratio"),
    "tones": (),
}


class ConfigError(ValueError):
    """Invalid run configuration."""


# ---------------------------------------------------------------------------
# configuration handling


def _parse_set(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _apply_override(cfg: dict, key: str, value: object) -> None:
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override {key!r}: {part!r} is a leaf")
    node[parts[-1]] = value


def load_config(path: str | None, sets: list[str]) -> dict:
    cfg: dict = {
        "eta": 0.1,
        "unit_rate": 1.0,
        "scenario": {},
        "signal": {"family": "semiclassical", "phase": 0.0},
        "sweep": [],
    }
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        for key, value in loaded.items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    for item in sets:
        key, value = _parse_set(item)
        _apply_override(cfg, key, value)
    eta = cfg.get("eta", 0.1)
    if not (isinstance(eta, (int, float)) and 0.0 < eta < 1.0):
        raise ConfigError(f"eta must lie in (0, 1), got {eta}")
    for key in ("scenario", "signal", "figure", "bound"):
        if not isinstance(cfg.get(key, {}), dict):
            raise ConfigError(f"{key} must be a JSON object, got {cfg[key]!r}")
    sweep = cfg["sweep"]
    if not (isinstance(sweep, list) and all(isinstance(a, dict) for a in sweep)):
        raise ConfigError(f"sweep must be a JSON array of objects, got {sweep!r}")
    return cfg


def build_scenario(cfg: dict) -> LimitCycleSpec:
    scen = cfg.get("scenario", {})
    name = scen.get("name")
    if name not in _SCENARIO_KEYS:
        raise ConfigError(
            f"scenario.name must be one of {sorted(_SCENARIO_KEYS)}, got {name!r}"
        )
    unit = float(cfg.get("unit_rate", 1.0))
    params = {}
    for key in _SCENARIO_KEYS[name]:
        if key in scen:
            value = float(scen[key])
            if key in _RATE_KEYS:
                value *= unit
            params[key] = value
    try:
        _SCENARIO_SIGNATURES[name].bind(**params)
    except TypeError as err:
        raise ConfigError(f"scenario {name!r}: {err}") from None
    return make_limit_cycle(name, **params)


def _as_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"tone must be a number or [re, im] pair, got {value!r}")


def _signal_spec(cfg: dict) -> tuple[SignalSpec, bool]:
    """The configured signal and whether its squeezing phase is "auto"."""
    sig = cfg.get("signal", {})
    family = sig.get("family", "semiclassical")
    if family == "semiclassical":
        return semiclassical(float(sig.get("phase", 0.0))), False
    if family == "equatorial_angles":
        zeta, chi = float(sig.get("zeta", 0.25 * math.pi)), float(sig.get("chi", 0.0))
        return from_equatorial_angles(zeta, chi), False
    if family == "vdp_params":
        params = VdpSignalParams(
            c=float(sig.get("c", 1.0)),
            zeta=float(sig.get("zeta", 0.25 * math.pi)),
            chi=float(sig.get("chi", 0.0)),
            tau_ratio=float(sig.get("tau_ratio", 0.0)),
        )
        phase = sig.get("squeeze_phase", "auto")
        if phase == "auto":
            return from_vdp_params(params, 0.0), True
        return from_vdp_params(params, float(phase)), False
    if family == "tones":
        spec = SignalSpec(
            _as_complex(sig.get("t01", 0.0)),
            _as_complex(sig.get("tm10", 0.0)),
            _as_complex(sig.get("tm11", 0.0)),
        )
        if spec.t01 == 0 and spec.tm10 == 0 and spec.tm11 == 0:
            raise ConfigError("signal tones are all zero")
        return spec, sig.get("squeeze_phase") == "auto"
    raise ConfigError(f"unknown signal family {family!r}")


def _sweep_axes(cfg: dict, allowed: tuple[str, ...]) -> list[tuple[str, np.ndarray]]:
    axes = []
    for axis in cfg.get("sweep", []):
        name = axis.get("name")
        if name not in allowed:
            raise ConfigError(
                f"sweep axis {name!r} not recognized; allowed: {sorted(allowed)}"
            )
        points = int(axis.get("points", 0))
        if points < 2:
            raise ConfigError(f"sweep axis {name!r} needs points >= 2")
        try:
            lo, hi = float(axis["min"]), float(axis["max"])
        except KeyError as err:
            raise ConfigError(f"sweep axis {name!r} needs {err.args[0]!r}") from None
        if axis.get("scale", "linear") == "log":
            if lo <= 0 or hi <= 0:
                raise ConfigError(f"log axis {name!r} needs positive bounds")
            values = np.logspace(math.log10(lo), math.log10(hi), points)
        else:
            values = np.linspace(lo, hi, points)
        axes.append((name, values))
    return axes


def _point_config(cfg: dict, assignment: dict[str, float]) -> dict:
    out = copy.deepcopy(cfg)
    for name, value in assignment.items():
        if name in _SCENARIO_KEYS.get(out["scenario"].get("name", ""), ()):
            out["scenario"][name] = value
        else:
            out["signal"][name] = value
    return out


# ---------------------------------------------------------------------------
# output helpers


def _fmt_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf"
        return repr(float(x))  # shortest representation that round-trips
    return str(x)


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_value(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return str(obj)
    return obj


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit(args, payload: dict, header: list[str], rows: list[list]) -> None:
    if args.format == "json":
        _write_json(args.out, payload)
    else:
        _write_csv(args.out, header, rows)


# ---------------------------------------------------------------------------
# commands


def cmd_steady(args) -> int:
    cfg = load_config(args.config, args.set or [])
    lc = build_scenario(cfg)
    rho0 = steady_state(build_liouvillian(lc))
    pops = rho0.diagonal().real
    payload = {
        "command": "steady",
        "config": cfg,
        "populations": {
            "p_plus": pops[0],
            "p_zero": pops[1],
            "p_minus": pops[2],
        },
        "norm_rho0": hs_norm(rho0),
    }
    header = ["p_plus", "p_zero", "p_minus", "norm_rho0"]
    rows = [[float(pops[0]), float(pops[1]), float(pops[2]), hs_norm(rho0)]]
    _emit(args, payload, header, rows)
    return 0


def _leading_orders(cfg: dict, detunings=None) -> tuple[np.ndarray, list]:
    """rho0 and one rho1 per detuning (default: the scenario's own) from one
    build, an "auto" squeezing phase aligned at each detuning."""
    sig, auto = _signal_spec(cfg)
    lc = build_scenario(cfg)
    if detunings is None:
        detunings = [lc.detuning]
    rho0, map1, map2 = _response_maps(build_liouvillian(lc), detunings)
    rho1s = []
    for m1, m2 in zip(map1, map2.tolist()):
        aligned = _align_on_maps(m1, m2, sig) if auto else sig
        rho1s.append(_apply_maps(m1, m2, aligned))
    return rho0, rho1s


def _sync_point(rho0: np.ndarray, rho1: np.ndarray, eta: float) -> dict:
    res = _sync_result(rho0, rho1, eta)
    if res.zero_response:
        flag = "zero_response"
    elif res.value < 1e-12 * res.eta:
        flag = "destructive_interference"
    else:
        flag = ""
    return {
        "S": res.value,
        "S_over_eta": res.value / res.eta,
        "epsilon": res.epsilon,
        "locked_phase": res.locked_phase,
        "amp1": res.terms.amp1,
        "amp2": res.terms.amp2,
        "flag": flag,
        "rho1_10": complex(rho1[0, 1]),
        "rho1_0m1": complex(rho1[1, 2]),
        "rho1_1m1": complex(rho1[0, 2]),
    }


_SYNC_COLUMNS = [
    "S",
    "S_over_eta",
    "epsilon",
    "locked_phase",
    "amp1",
    "amp2",
    "flag",
    "rho1_10_re",
    "rho1_10_im",
    "rho1_0m1_re",
    "rho1_0m1_im",
    "rho1_1m1_re",
    "rho1_1m1_im",
]


def _sync_row(point: dict) -> list:
    return [
        point["S"],
        point["S_over_eta"],
        point["epsilon"],
        point["locked_phase"],
        point["amp1"],
        point["amp2"],
        point["flag"],
        point["rho1_10"].real,
        point["rho1_10"].imag,
        point["rho1_0m1"].real,
        point["rho1_0m1"].imag,
        point["rho1_1m1"].real,
        point["rho1_1m1"].imag,
    ]


def cmd_sync(args) -> int:
    cfg = load_config(args.config, args.set or [])
    scen_name = cfg.get("scenario", {}).get("name", "")
    family = cfg.get("signal", {}).get("family", "semiclassical")
    allowed = _SCENARIO_KEYS.get(scen_name, ()) + _SIGNAL_AXES.get(family, ())
    axes = _sweep_axes(cfg, allowed)
    if len(axes) > 2:
        raise ConfigError("sync supports at most two sweep axes")
    names = [name for name, _ in axes]
    grids = [values for _, values in axes]
    eta = float(cfg.get("eta", 0.1))
    # One build per cell of the other axes; the detuning axis is one batch,
    # and without it the batch is the scenario's own detuning.
    batch = names.index("detuning") if "detuning" in names else None
    outer = [i for i in range(len(axes)) if i != batch]
    points = {}
    for cell in np.ndindex(*[len(grids[i]) for i in outer]):
        point_cfg = _point_config(
            cfg, {names[i]: float(grids[i][c]) for i, c in zip(outer, cell)}
        )
        detunings = None
        if batch is not None:
            detunings = grids[batch] * float(point_cfg.get("unit_rate", 1.0))
        rho0, rho1s = _leading_orders(point_cfg, detunings)
        for j, rho1 in enumerate(rho1s):
            idx = list(cell)
            if batch is not None:
                idx.insert(batch, j)
            points[tuple(idx)] = _sync_point(rho0, rho1, eta)
    cells = list(np.ndindex(*[len(g) for g in grids]))
    if args.format == "json":
        if not axes:
            payload = {"command": "sync", "config": cfg, **points[()]}
        else:
            records = [
                {n: float(g[i]) for n, g, i in zip(names, grids, idx)} | points[idx]
                for idx in cells
            ]
            payload = {"command": "sync", "config": cfg, "rows": records}
        _write_json(args.out, payload)
    else:
        rows = [
            [float(g[i]) for g, i in zip(grids, idx)] + _sync_row(points[idx])
            for idx in cells
        ]
        _write_csv(args.out, names + _SYNC_COLUMNS, rows)
    return 0


def cmd_perturb(args) -> int:
    cfg = load_config(args.config, args.set or [])
    rho0, (rho1,) = _leading_orders(cfg)
    res = _perturbation_result(rho0, rho1, float(cfg.get("eta", 0.1)))
    payload = {
        "command": "perturb",
        "config": cfg,
        "populations": res.rho0.diagonal().real,
        "rho1_10": complex(res.rho1[0, 1]),
        "rho1_0m1": complex(res.rho1[1, 2]),
        "rho1_1m1": complex(res.rho1[0, 2]),
        "epsilon": res.epsilon,
        "norm0": res.norm0,
        "norm1": res.norm1,
        "eta": res.eta,
    }
    header = [
        "p_plus",
        "p_zero",
        "p_minus",
        "rho1_10_re",
        "rho1_10_im",
        "rho1_0m1_re",
        "rho1_0m1_im",
        "rho1_1m1_re",
        "rho1_1m1_im",
        "epsilon",
        "norm0",
        "norm1",
    ]
    pops = res.rho0.diagonal().real
    rows = [
        [
            float(pops[0]),
            float(pops[1]),
            float(pops[2]),
            res.rho1[0, 1].real,
            res.rho1[0, 1].imag,
            res.rho1[1, 2].real,
            res.rho1[1, 2].imag,
            res.rho1[0, 2].real,
            res.rho1[0, 2].imag,
            res.epsilon,
            res.norm0,
            res.norm1,
        ]
    ]
    _emit(args, payload, header, rows)
    return 0


def _tongue_rows(grid: TongueGrid) -> tuple[list[str], list[list]]:
    header = ["detuning", "epsilon", "S", "S_over_eta", "epsilon_max", "masked"]
    rows = []
    for i, eps in enumerate(grid.strengths):
        for j, delta in enumerate(grid.detunings):
            val = grid.value[i, j]
            rows.append(
                [
                    float(delta),
                    float(eps),
                    float(val),
                    float(val) / grid.eta,
                    float(grid.eps_max[j]),
                    bool(grid.masked[i, j]),
                ]
            )
    return header, rows


def cmd_tongue(args) -> int:
    cfg = load_config(args.config, args.set or [])
    lc = build_scenario(cfg)
    sig, auto = _signal_spec(cfg)
    axes = dict(_sweep_axes(cfg, ("detuning", "epsilon")))
    if set(axes) != {"detuning", "epsilon"}:
        raise ConfigError("tongue needs sweep axes 'detuning' and 'epsilon'")
    liou = build_liouvillian(lc)
    if auto and sig.tm11 != 0:
        # as align_squeeze_phase: aligned at the scenario's detuning
        _, map1, map2 = _response_maps(liou)
        sig = _align_on_maps(map1, map2, sig)
    grid = _tongue_grid(
        liou, sig, axes["detuning"], axes["epsilon"], float(cfg.get("eta", 0.1))
    )
    if args.format == "json":
        payload = {
            "command": "tongue",
            "config": cfg,
            "detunings": grid.detunings,
            "strengths": grid.strengths,
            "eps_max": grid.eps_max,
            "S": np.where(grid.masked, None, grid.value),
            "masked": grid.masked,
        }
        _write_json(args.out, payload)
    else:
        _write_csv(args.out, *_tongue_rows(grid))
    return 0


def cmd_optimize(args) -> int:
    cfg = load_config(args.config, args.set or [])
    lc = build_scenario(cfg)
    family = cfg.get("signal", {}).get("family", "equatorial_angles")
    if family not in ("equatorial_angles", "vdp_general"):
        raise ConfigError(
            "optimize expects signal.family 'equatorial_angles' or 'vdp_general'"
        )
    report = optimize_signal(lc, family, eta=float(cfg.get("eta", 0.1)))
    payload = {
        "command": "optimize",
        "config": cfg,
        "family": report.family,
        "params": report.params,
        "S": report.value,
        "S_over_eta": report.value / report.eta,
        "signal": {
            "t01": report.signal.t01,
            "tm10": report.signal.tm10,
            "tm11": report.signal.tm11,
        },
    }
    header = list(report.params) + ["S", "S_over_eta"]
    rows = [
        [report.params[k] for k in report.params]
        + [report.value, report.value / report.eta]
    ]
    _emit(args, payload, header, rows)
    return 0


def cmd_bound(args) -> int:
    cfg = load_config(args.config, args.set or [])
    eta = float(cfg.get("eta", 0.1))
    payload = {
        "command": "bound",
        "config": cfg,
        "smax_spin": smax(eta, "spin"),
        "smax_oscillator": smax(eta, "oscillator"),
        "eta": eta,
    }
    header = ["smax_spin", "smax_oscillator", "eta"]
    rows = [[smax(eta, "spin"), smax(eta, "oscillator"), eta]]
    bound_cfg = cfg.get("bound")
    if bound_cfg:
        params = catalog.BoundParams(
            pop0=float(bound_cfg.get("pop0", 1.0)),
            asymmetry=float(bound_cfg.get("asymmetry", 0.0)),
            adjacent=_as_complex(bound_cfg.get("adjacent", 0.0)),
            extremal=_as_complex(bound_cfg.get("extremal", 0.0)),
        )
        norm_term, coh_term, product = catalog.bound_terms(params, eta)
        payload.update(
            {"norm_term": norm_term, "coherence_term": coh_term, "S": product}
        )
        header += ["norm_term", "coherence_term", "S"]
        rows[0] += [norm_term, coh_term, product]
    _emit(args, payload, header, rows)
    return 0


def cmd_validate(args) -> int:
    results = run_all()
    table = [r for r in results if r.criterion == 1]
    sys.stdout.write("benchmark table (S/eta):\n")
    for r in table:
        sys.stdout.write(f"  {r.name.split(', ', 1)[1]}: {r.actual}\n")
    failures = 0
    for r in results:
        sys.stdout.write(r.line() + "\n")
        failures += 0 if r.passed else 1
    sys.stdout.write(
        f"{len(results) - failures}/{len(results)} checks passed\n"
    )
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# figure datasets


def _figure_fig2(cfg: dict):
    gg = float(cfg.get("gamma_g", 1.0))
    gd = float(cfg.get("gamma_d", 100.0))
    eta = float(cfg.get("eta", 0.1))
    lc = catalog.equatorial_limit_cycle(gg, gd)
    detunings = np.linspace(-20.0 * gg, 20.0 * gg, 161)
    eps_hi = eta / math.sqrt(
        1.0 / (gd**2 + detunings.max() ** 2) + 1.0 / (gg**2 + detunings.max() ** 2)
    )
    strengths = np.linspace(0.0, 1.05 * eps_hi, 211)
    grid = arnold_tongue(lc, semiclassical(0.0), detunings, strengths, eta)
    header, rows = _tongue_rows(grid)
    return [("", header, rows)]


def _figure_forcing(cfg: dict, ratio: float):
    gg = float(cfg.get("gamma_g", 1.0))
    gd = gg * float(cfg.get("gamma_ratio", ratio))
    eta = float(cfg.get("eta", 0.1))
    liou = build_liouvillian(catalog.equatorial_limit_cycle(gg, gd))
    sig = semiclassical(0.0)
    rho0, map1, map2 = _response_maps(liou)
    eps_eta = epsilon_for_threshold(rho0, _apply_maps(map1, map2, sig), eta)
    h = build_hext(sig)
    strengths = np.linspace(0.0, 1.5 * gg, 151)
    rows = []
    for eps in strengths:
        rho = _driven_steady_state(liou, h, eps) if eps > 0 else rho0
        rows.append(
            [
                float(eps),
                p_avg(rho, rho0),
                p_max(rho, rho0),
                eps_eta,
                bool(eps > eps_eta),
            ]
        )
    header = ["epsilon", "p_avg", "p_max", "epsilon_max", "forcing"]
    return [("", header, rows)]


def _figure_fig4(cfg: dict):
    gg = float(cfg.get("gamma_g", 1.0))
    gd = gg * float(cfg.get("gamma_ratio", 1000.0))
    eta = float(cfg.get("eta", 0.1))
    detunings = np.linspace(-10.0 * gg, 10.0 * gg, 41)
    taus = np.logspace(0.0, 3.0, 61)
    header = ["detuning", "tau_ratio", "S_over_eta", "tau_opt"]
    rows = []
    for delta in detunings:
        lc = catalog.vdp_limit_cycle(gg, gd, delta)
        rho0, map1, map2 = _response_maps(build_liouvillian(lc))
        tau_opt = vdp_optimal_squeeze_ratio(gg, gd, delta)
        for tau in taus:
            sig = _align_on_maps(
                map1, map2, SignalSpec(1.0, 1.0 / SQRT2, tau / SQRT2)
            )
            res = _sync_result(rho0, _apply_maps(map1, map2, sig), eta)
            rows.append(
                [float(delta), float(tau), res.value / eta, float(tau_opt)]
            )
    return [("", header, rows)]


def _figure_fig5(cfg: dict):
    gg = float(cfg.get("gamma_g", 1.0))
    gd = gg * float(cfg.get("gamma_ratio", 100.0))
    eta = float(cfg.get("eta", 0.1))
    lc = catalog.vdp_limit_cycle(gg, gd)
    rho0, map1, map2 = catalog.coherence_response(lc)
    pops = rho0.diagonal().real
    zetas = np.linspace(0.0, 0.5 * math.pi, 65)
    taus = np.logspace(-2.0, 1.0, 61)
    header = ["zeta", "tau_ratio", "S_over_eta", "tau_opt_for_zeta"]
    rows = []
    for zeta in zetas:
        r10, r0m1 = map1 @ np.array([math.cos(zeta), math.sin(zeta) / SQRT2])
        vals = sync_from_coherences(pops, (r10, r0m1, abs(map2) * taus / SQRT2), 1.0)
        tau_best = catalog.stationary_squeeze_ratio(r10, r0m1, map2)
        for tau, val in zip(taus, vals):
            rows.append([float(zeta), float(tau), float(val), tau_best])
    inset_header = ["gamma_ratio", "S_over_eta", "zeta_opt", "tau_ratio_opt"]
    inset_rows = []
    for ratio in np.logspace(1, 4, 13):
        rep = optimize_signal(
            catalog.vdp_limit_cycle(gg, gg * float(ratio)), "vdp_general", eta=eta
        )
        inset_rows.append(
            [
                float(ratio),
                rep.value / eta,
                rep.params["zeta"],
                rep.params["tau_ratio"],
            ]
        )
    return [("", header, rows), ("_inset", inset_header, inset_rows)]


def _figure_fig6(cfg: dict):
    gg = float(cfg.get("gamma_g", 1.0))
    gd = float(cfg.get("gamma_d", gg))
    eta = float(cfg.get("eta", 0.1))
    zetas = np.linspace(0.0, 0.5 * math.pi, 91)
    chis = np.linspace(0.0, 2.0 * math.pi, 181)
    header = ["zeta", "chi", "S_over_eta"]
    rows = []
    for zeta in zetas:
        for chi in chis:
            val = catalog.equatorial_sync_closed(zeta, chi, gg, gd, 0.0, 1.0)
            rows.append([float(zeta), float(chi), val])
    return [("", header, rows)]


def _figure_fig7(cfg: dict):
    gg = float(cfg.get("gamma_g", 1.0))
    eta = float(cfg.get("eta", 0.1))
    ratios = cfg.get("gamma_ratios", [1.0, 100.0, 10000.0])
    deltas = np.logspace(-2, 4, 181) * gg
    header = ["gamma_ratio", "delta", "S_over_eta", "S_over_eta_closed"]
    rows = []
    for ratio in ratios:
        gd = gg * float(ratio)
        for delta in deltas:
            zeta = math.atan(
                catalog.equatorial_response_geometry(gg, gd, delta)[0]
            )
            lc = catalog.equatorial_limit_cycle(gg, gd, delta)
            res = sync_measure(lc, from_equatorial_angles(zeta, 0.0), eta)
            closed = catalog.blockade_sync_closed(gg, gd, delta, eta)
            rows.append(
                [float(ratio), float(delta), res.value / eta, closed / eta]
            )
    return [("", header, rows)]


def _figure_fig8app(cfg: dict):
    gg = float(cfg.get("gamma_g", 1.0))
    gd = gg * float(cfg.get("gamma_ratio", 100.0))
    r_values = cfg.get("r_values", [0.5, 2.5, 4.0, 9.0])
    strengths = np.logspace(-2, 3, 121)
    header = ["r", "epsilon", "p_max"]
    rows = []
    for r in r_values:
        lc = catalog.vdp_limit_cycle(gg, gd)
        sig = SignalSpec(float(r), 1.0 / SQRT2, 0j)
        curve = pmax_forcing_curve(lc, sig, strengths)
        for eps, val in zip(strengths, curve):
            rows.append([float(r), float(eps), float(val)])
    return [("", header, rows)]


_FIGURES = {
    "fig2": _figure_fig2,
    "fig3a": lambda cfg: _figure_forcing(cfg, 1.0),
    "fig3b": lambda cfg: _figure_forcing(cfg, 10.0),
    "fig4": _figure_fig4,
    "fig5": _figure_fig5,
    "fig6": _figure_fig6,
    "fig7": _figure_fig7,
    "fig8app": _figure_fig8app,
}


def figure_datasets(fig_id: str, cfg: dict) -> list[tuple[str, list[str], list[list]]]:
    """Gridded dataset(s) for a named figure; suffix, header, rows."""
    if fig_id not in _FIGURES:
        raise ConfigError(
            f"unknown figure id {fig_id!r}; expected one of {sorted(_FIGURES)}"
        )
    return _FIGURES[fig_id](cfg)


def cmd_figure(args) -> int:
    cfg = load_config(args.config, args.set or [])
    overrides = cfg.get("figure", {})
    if "eta" in cfg:
        overrides.setdefault("eta", cfg["eta"])
    datasets = figure_datasets(args.id, overrides)
    for suffix, header, rows in datasets:
        if args.out is None:
            out = None
        elif suffix:
            stem, dot, ext = args.out.rpartition(".")
            out = f"{stem}{suffix}{dot}{ext}" if dot else args.out + suffix
        else:
            out = args.out
        if args.format == "json":
            _write_json(
                out,
                {
                    "command": "figure",
                    "figure": args.id + suffix,
                    "config": cfg,
                    "columns": header,
                    "rows": rows,
                },
            )
        else:
            _write_csv(out, header, rows)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsync",
        description="Synchronization analysis of spin-1 limit-cycle oscillators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a dotted config key",
        )

    for name, fn in (
        ("steady", cmd_steady),
        ("sync", cmd_sync),
        ("perturb", cmd_perturb),
        ("tongue", cmd_tongue),
        ("optimize", cmd_optimize),
        ("bound", cmd_bound),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("figure")
    p.add_argument("id", help=f"one of {', '.join(FIGURE_IDS)}")
    common(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("validate")
    p.set_defaults(func=cmd_validate)
    return parser


_USER_ERRORS = (
    ConfigError,
    MixedSectorError,
    DegenerateLimitCycleError,
    SingularCoherenceBlockError,
    DegenerateSteadyStateError,
    ZeroResponseError,
    FileNotFoundError,
    json.JSONDecodeError,
    ValueError,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
