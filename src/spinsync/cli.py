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
    _measure,
    _perturbation_result,
    _response_maps,
    hs_norm,
    p_avg,
    p_max,
    sync_from_coherences,
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

_POPULATIONS = ("p_plus", "p_zero", "p_minus")

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
        # shortest representation that round-trips; spells nan, inf, -inf
        return repr(float(x))
    return str(x)


def _table(columns: dict) -> tuple[list[str], list[list]]:
    """CSV header and rows of named columns of equal length, a scalar being
    a column of one; a complex column is written as ``<name>_re``,
    ``<name>_im``."""
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


def _emit(args, payload: dict, columns: dict) -> None:
    if args.format == "json":
        _write_json(args.out, payload)
    else:
        _write_csv(args.out, *_table(columns))


# ---------------------------------------------------------------------------
# commands


def cmd_steady(args) -> int:
    cfg = load_config(args.config, args.set or [])
    lc = build_scenario(cfg)
    rho0 = steady_state(build_liouvillian(lc))
    pops = dict(zip(_POPULATIONS, rho0.diagonal().real.tolist()))
    norm = {"norm_rho0": hs_norm(rho0)}
    payload = {"command": "steady", "config": cfg, "populations": pops, **norm}
    _emit(args, payload, pops | norm)
    return 0


def _leading_orders(cfg: dict, detunings=None):
    """rho0 and the first-order coherences (r10, r0m1, r1m1), one per
    detuning (default: the scenario's own), from one build, an "auto"
    squeezing phase aligned at each detuning."""
    sig, auto = _signal_spec(cfg)
    lc = build_scenario(cfg)
    if detunings is None:
        detunings = [lc.detuning]
    rho0, map1, map2 = _response_maps(build_liouvillian(lc), detunings)
    if auto:
        sig = _align_on_maps(map1, map2, sig)
    return rho0, _apply_maps(map1, map2, sig)


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
    groups = []
    for cell in np.ndindex(*[len(grids[i]) for i in outer]):
        point_cfg = _point_config(
            cfg, {names[i]: float(grids[i][c]) for i, c in zip(outer, cell)}
        )
        detunings = None
        if batch is not None:
            detunings = grids[batch] * float(point_cfg.get("unit_rate", 1.0))
        rho0, (r10, r0m1, r1m1) = _leading_orders(point_cfg, detunings)
        res = _measure(rho0.diagonal().real, (r10, r0m1, r1m1), eta)
        flag = np.where(res.value < 1e-12 * eta, "destructive_interference", "")
        groups.append(
            {
                "S": res.value,
                "S_over_eta": res.value / eta,
                "epsilon": res.epsilon,
                "locked_phase": res.locked_phase,
                "amp1": res.terms.amp1,
                "amp2": res.terms.amp2,
                "flag": np.where(res.zero_response, "zero_response", flag),
                "rho1_10": r10,
                "rho1_0m1": r0m1,
                "rho1_1m1": r1m1,
            }
        )
    mesh = np.meshgrid(*grids, indexing="ij")
    columns = {name: values.ravel() for name, values in zip(names, mesh)}
    # each group is one cell of the outer axes; the batch goes back in place
    shape = [len(grids[i]) for i in outer] + [-1]
    for key in groups[0]:
        column = np.reshape([group[key] for group in groups], shape)
        if batch is not None:
            column = np.moveaxis(column, -1, batch)
        columns[key] = column.ravel()
    if args.format == "json":
        values = [column.tolist() for column in columns.values()]
        records = [dict(zip(columns, row)) for row in zip(*values)]
        payload = {"command": "sync", "config": cfg}
        _write_json(args.out, payload | ({"rows": records} if axes else records[0]))
    else:
        _write_csv(args.out, *_table(columns))
    return 0


def cmd_perturb(args) -> int:
    cfg = load_config(args.config, args.set or [])
    rho0, coherences = _leading_orders(cfg)
    res = _perturbation_result(
        rho0, [c.item() for c in coherences], float(cfg.get("eta", 0.1))
    )
    pops = res.rho0.diagonal().real
    fields = {
        "rho1_10": complex(res.rho1[0, 1]),
        "rho1_0m1": complex(res.rho1[1, 2]),
        "rho1_1m1": complex(res.rho1[0, 2]),
        "epsilon": res.epsilon,
        "norm0": res.norm0,
        "norm1": res.norm1,
    }
    payload = {"command": "perturb", "config": cfg, "populations": pops, "eta": res.eta}
    _emit(args, payload | fields, dict(zip(_POPULATIONS, pops.tolist())) | fields)
    return 0


def _tongue_columns(grid: TongueGrid, detunings, strengths) -> dict:
    """One row per cell of the tongue, strengths outermost, with the axis
    values as given."""
    detuning, strength = np.meshgrid(detunings, strengths)
    return {
        "detuning": detuning,
        "epsilon": strength,
        "S": grid.value,
        "S_over_eta": grid.value / grid.eta,
        "epsilon_max": np.broadcast_to(grid.eps_max, grid.value.shape),
        "masked": grid.masked,
    }


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
    # both axes are in units of unit_rate, as the scenario rates
    unit, eta = float(cfg.get("unit_rate", 1.0)), float(cfg.get("eta", 0.1))
    grid = _tongue_grid(liou, sig, axes["detuning"] * unit, axes["epsilon"] * unit, eta)
    if args.format == "json":
        payload = {
            "command": "tongue",
            "config": cfg,
            "detunings": axes["detuning"],
            "strengths": axes["epsilon"],
            "eps_max": grid.eps_max,
            "S": np.where(grid.masked, None, grid.value),
            "masked": grid.masked,
        }
        _write_json(args.out, payload)
    else:
        columns = _tongue_columns(grid, axes["detuning"], axes["epsilon"])
        _write_csv(args.out, *_table(columns))
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
    measure = {"S": report.value, "S_over_eta": report.value / report.eta}
    payload = {
        "command": "optimize",
        "config": cfg,
        "family": report.family,
        "params": report.params,
        **measure,
        "signal": {
            "t01": report.signal.t01,
            "tm10": report.signal.tm10,
            "tm11": report.signal.tm11,
        },
    }
    _emit(args, payload, report.params | measure)
    return 0


def cmd_bound(args) -> int:
    cfg = load_config(args.config, args.set or [])
    eta = float(cfg.get("eta", 0.1))
    columns = {
        "smax_spin": smax(eta, "spin"),
        "smax_oscillator": smax(eta, "oscillator"),
        "eta": eta,
    }
    bound_cfg = cfg.get("bound")
    if bound_cfg:
        params = catalog.BoundParams(
            pop0=float(bound_cfg.get("pop0", 1.0)),
            asymmetry=float(bound_cfg.get("asymmetry", 0.0)),
            adjacent=_as_complex(bound_cfg.get("adjacent", 0.0)),
            extremal=_as_complex(bound_cfg.get("extremal", 0.0)),
        )
        norm_term, coh_term, product = catalog.bound_terms(params, eta)
        columns |= {"norm_term": norm_term, "coherence_term": coh_term, "S": product}
    _emit(args, {"command": "bound", "config": cfg, **columns}, columns)
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
    return [("", *_table(_tongue_columns(grid, detunings, strengths)))]


def _figure_forcing(cfg: dict, ratio: float):
    gg = float(cfg.get("gamma_g", 1.0))
    gd = gg * float(cfg.get("gamma_ratio", ratio))
    eta = float(cfg.get("eta", 0.1))
    liou = build_liouvillian(catalog.equatorial_limit_cycle(gg, gd))
    sig = semiclassical(0.0)
    rho0, map1, map2 = _response_maps(liou)
    res = _measure(rho0.diagonal().real, _apply_maps(map1, map2, sig), eta)
    eps_eta = float(res.epsilon)
    h = build_hext(sig)
    strengths = np.linspace(0.0, 1.5 * gg, 151)
    states = [_driven_steady_state(liou, h, e) if e > 0 else rho0 for e in strengths]
    columns = {
        "epsilon": strengths,
        "p_avg": [p_avg(rho, rho0) for rho in states],
        "p_max": [p_max(rho, rho0) for rho in states],
        "epsilon_max": np.full(len(strengths), eps_eta),
        "forcing": strengths > eps_eta,
    }
    return [("", *_table(columns))]


def _figure_fig4(cfg: dict):
    gg = float(cfg.get("gamma_g", 1.0))
    gd = gg * float(cfg.get("gamma_ratio", 1000.0))
    eta = float(cfg.get("eta", 0.1))
    detunings = np.linspace(-10.0 * gg, 10.0 * gg, 41)
    taus = np.logspace(0.0, 3.0, 61)
    liou = build_liouvillian(catalog.vdp_limit_cycle(gg, gd))
    rho0, map1, map2 = _response_maps(liou, detunings)
    # squeezing ratios down the rows of the grid, detunings along them
    sig = SignalSpec(1.0, 1.0 / SQRT2, taus[:, None] / SQRT2)
    sig = _align_on_maps(map1, map2, sig)
    res = _measure(rho0.diagonal().real, _apply_maps(map1, map2, sig), eta)
    delta, tau = np.meshgrid(detunings, taus, indexing="ij")
    tau_opt = [vdp_optimal_squeeze_ratio(gg, gd, d) for d in detunings]
    columns = {
        "detuning": delta,
        "tau_ratio": tau,
        "S_over_eta": res.value.T / eta,
        "tau_opt": np.broadcast_to(np.array(tau_opt)[:, None], delta.shape),
    }
    return [("", *_table(columns))]


def _figure_fig5(cfg: dict):
    gg = float(cfg.get("gamma_g", 1.0))
    gd = gg * float(cfg.get("gamma_ratio", 100.0))
    eta = float(cfg.get("eta", 0.1))
    lc = catalog.vdp_limit_cycle(gg, gd)
    rho0, map1, map2 = catalog.coherence_response(lc)
    pops = rho0.diagonal().real
    zetas = np.linspace(0.0, 0.5 * math.pi, 65)
    taus = np.logspace(-2.0, 1.0, 61)
    r10, r0m1, _ = _apply_maps(
        map1, map2, SignalSpec(np.cos(zetas), np.sin(zetas) / SQRT2)
    )
    # zetas down the rows of the grid, squeezing ratios along them
    r10, r0m1 = r10[:, None], r0m1[:, None]
    zeta, tau = np.meshgrid(zetas, taus, indexing="ij")
    vals = sync_from_coherences(pops, (r10, r0m1, abs(map2) * taus / SQRT2), 1.0)
    tau_best = catalog.stationary_squeeze_ratio(r10, r0m1, map2)
    columns = {
        "zeta": zeta,
        "tau_ratio": tau,
        "S_over_eta": vals,
        "tau_opt_for_zeta": np.broadcast_to(tau_best, zeta.shape),
    }
    ratios = np.logspace(1, 4, 13)
    reports = [
        optimize_signal(catalog.vdp_limit_cycle(gg, gg * r), "vdp_general", eta=eta)
        for r in ratios
    ]
    inset = {
        "gamma_ratio": ratios,
        "S_over_eta": [rep.value / eta for rep in reports],
        "zeta_opt": [rep.params["zeta"] for rep in reports],
        "tau_ratio_opt": [rep.params["tau_ratio"] for rep in reports],
    }
    return [("", *_table(columns)), ("_inset", *_table(inset))]


def _figure_fig6(cfg: dict):
    gg = float(cfg.get("gamma_g", 1.0))
    gd = float(cfg.get("gamma_d", gg))
    eta = float(cfg.get("eta", 0.1))
    zetas = np.linspace(0.0, 0.5 * math.pi, 91)
    chis = np.linspace(0.0, 2.0 * math.pi, 181)
    zeta, chi = np.meshgrid(zetas, chis, indexing="ij")
    vals = [
        catalog.equatorial_sync_closed(z, c, gg, gd, 0.0, 1.0)
        for z in zetas
        for c in chis
    ]
    return [("", *_table({"zeta": zeta, "chi": chi, "S_over_eta": vals}))]


def _figure_fig7(cfg: dict):
    gg = float(cfg.get("gamma_g", 1.0))
    eta = float(cfg.get("eta", 0.1))
    ratios = cfg.get("gamma_ratios", [1.0, 100.0, 10000.0])
    deltas = np.logspace(-2, 4, 181) * gg
    names = ("gamma_ratio", "delta", "S_over_eta", "S_over_eta_closed")
    columns = {name: [] for name in names}
    for ratio in ratios:
        gd = gg * float(ratio)
        # equal response amplitudes at every detuning, tone phase fixed at 0
        zeta = [
            math.atan(catalog.equatorial_response_geometry(gg, gd, d)[0])
            for d in deltas
        ]
        liou = build_liouvillian(catalog.equatorial_limit_cycle(gg, gd))
        rho0, map1, map2 = _response_maps(liou, deltas)
        sig = from_equatorial_angles(np.array(zeta), 0.0)
        res = _measure(rho0.diagonal().real, _apply_maps(map1, map2, sig), eta)
        columns["gamma_ratio"] += [float(ratio)] * len(deltas)
        columns["delta"] += deltas.tolist()
        columns["S_over_eta"] += (res.value / eta).tolist()
        columns["S_over_eta_closed"] += [
            catalog.blockade_sync_closed(gg, gd, d, eta) / eta for d in deltas
        ]
    return [("", *_table(columns))]


def _figure_fig8app(cfg: dict):
    gg = float(cfg.get("gamma_g", 1.0))
    gd = gg * float(cfg.get("gamma_ratio", 100.0))
    r_values = cfg.get("r_values", [0.5, 2.5, 4.0, 9.0])
    strengths = np.logspace(-2, 3, 121)
    lc = catalog.vdp_limit_cycle(gg, gd)
    curves = [
        pmax_forcing_curve(lc, SignalSpec(float(r), 1.0 / SQRT2, 0j), strengths)
        for r in r_values
    ]
    r, eps = np.meshgrid(np.asarray(r_values, dtype=float), strengths, indexing="ij")
    return [("", *_table({"r": r, "epsilon": eps, "p_max": curves}))]


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
