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
import functools
import inspect
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import catalog
from ._floatrepr import reprs
from .catalog import (
    TongueGrid,
    _align_on_maps,
    _optimum,
    _pmax_curves,
    _tongue_grid,
    arnold_tongue,
    make_limit_cycle,
    optimize_signal,
    smax,
    vdp_optimal_squeeze_ratio,
)
from .errors import SpinsyncError
from .lindblad import LimitCycleSpec, _target_state, build_liouvillian, steady_state
from .perturbation import (
    _apply_maps,
    _driven_steady_state,
    _measure,
    _norms,
    _perturbation_result,
    _response_maps,
    _strength,
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


def _number(value, name: str, kind=float):
    """A config value as a float (or ``kind``), or a ConfigError naming it."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


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


def build_scenario(cfg: dict, swept: dict | None = None) -> LimitCycleSpec:
    """The configured limit cycle, stacked over the arrays that ``swept``
    puts in place of configured keys."""
    swept = swept or {}
    scen = cfg.get("scenario", {})
    name = scen.get("name")
    if name not in _SCENARIO_KEYS:
        raise ConfigError(
            f"scenario.name must be one of {sorted(_SCENARIO_KEYS)}, got {name!r}"
        )
    unit = _number(cfg.get("unit_rate", 1.0), "unit_rate")
    params = {}
    for key in _SCENARIO_KEYS[name]:
        if key in swept:
            value = swept[key]
        elif key in scen:
            value = _number(scen[key], f"scenario.{key}")
        else:
            continue
        if key in _RATE_KEYS:
            value = value * unit  # a copy: a swept axis is written unscaled
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
        return complex(_number(value[0], "tone"), _number(value[1], "tone"))
    raise ConfigError(f"tone must be a number or [re, im] pair, got {value!r}")


def _signal_spec(cfg: dict, swept: dict | None = None) -> tuple[SignalSpec, bool]:
    """The configured signal, with arrays from ``swept`` in place of configured
    keys, and whether its squeezing phase is "auto"."""
    sig = cfg.get("signal", {})
    swept = swept or {}

    def number(key: str, default: float):
        if key in swept:
            return swept[key]
        return _number(sig.get(key, default), f"signal.{key}")

    family = sig.get("family", "semiclassical")
    if family == "semiclassical":
        return semiclassical(number("phase", 0.0)), False
    if family == "equatorial_angles":
        zeta, chi = number("zeta", 0.25 * math.pi), number("chi", 0.0)
        return from_equatorial_angles(zeta, chi), False
    if family == "vdp_params":
        params = VdpSignalParams(
            c=number("c", 1.0),
            zeta=number("zeta", 0.25 * math.pi),
            chi=number("chi", 0.0),
            tau_ratio=number("tau_ratio", 0.0),
        )
        if sig.get("squeeze_phase", "auto") == "auto":
            return from_vdp_params(params, 0.0), True
        return from_vdp_params(params, number("squeeze_phase", 0.0)), False
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
        if name in (seen for seen, _ in axes):
            raise ConfigError(f"sweep axis {name!r} is given twice")
        points = _number(axis.get("points", 0), f"sweep axis {name!r} points")
        if not points.is_integer():
            raise ConfigError(
                f"sweep axis {name!r} points must be an integer, got {points!r}"
            )
        points = int(points)
        if points < 2:
            raise ConfigError(f"sweep axis {name!r} needs points >= 2")
        scale = axis.get("scale", "linear")
        if scale not in ("linear", "log"):
            raise ConfigError(
                f"sweep axis {name!r} scale must be 'linear' or 'log', got {scale!r}"
            )
        try:
            lo, hi = axis["min"], axis["max"]
        except KeyError as err:
            raise ConfigError(f"sweep axis {name!r} needs {err.args[0]!r}") from None
        lo = _number(lo, f"sweep axis {name!r} min")
        hi = _number(hi, f"sweep axis {name!r} max")
        space = np.linspace
        if scale == "log":
            if lo <= 0 or hi <= 0:
                raise ConfigError(f"log axis {name!r} needs positive bounds")
            lo, hi, space = math.log10(lo), math.log10(hi), np.logspace
        try:
            axes.append((name, space(lo, hi, points)))
        except (ValueError, MemoryError) as err:  # numpy refuses the size
            raise ConfigError(
                f"sweep axis {name!r} cannot hold {points} points: {err}"
            ) from None
    return axes


# ---------------------------------------------------------------------------
# output writers: each column is spelled once, then joined into rows

_BOOL_CELLS = np.array(["false", "true"], dtype=object)


def _float_cells(values: np.ndarray) -> list[str]:
    """repr of each float: the shortest spelling that round-trips, with nan,
    inf and -inf bare (a long column by the numpy kernel of ``reprs``).  A
    column that repeats its values (an axis or a broadcast) is spelled once
    per distinct value."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    # distinct by bit pattern: -0.0 and 0.0 compare equal but spell apart
    bits = values.view(np.uint64)
    if len(bits) > 1:
        ordered = np.sort(bits)
        distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
        if 2 * len(distinct) <= len(bits):
            spelled = reprs(distinct.view(np.float64))
            inverse = np.searchsorted(distinct, bits)
            return np.array(spelled, dtype=object)[inverse].tolist()
    return reprs(values)


def _cells(column: np.ndarray) -> list[str]:
    """CSV spelling of each value of a 1-D column: floats by repr, bools as
    true/false, anything else by str."""
    kind = column.dtype.kind
    if kind == "f":
        return _float_cells(column)
    if kind == "b":
        return _BOOL_CELLS[column.view(np.uint8)].tolist()
    return list(map(str, column.tolist()))


def _json_cells(column: np.ndarray) -> list[str]:
    """JSON spelling of each value of a 1-D real column: the CSV spelling,
    with non-finite floats as the strings "nan", "inf" and "-inf", strings
    quoted and masked cells null."""
    if np.ma.isMaskedArray(column):
        unmasked = ~np.ma.getmaskarray(column)
        cells = np.full(len(column), "null", dtype=object)
        cells[unmasked] = _json_cells(np.asarray(column)[unmasked])
        return cells.tolist()
    if column.dtype.kind == "U":
        return list(map(json.dumps, column.tolist()))
    cells = _cells(column)
    if column.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            cells[i] = f'"{cells[i]}"'
    return cells


def _table(columns: dict) -> tuple[list[str], list[np.ndarray]]:
    """Header and 1-D value columns of named columns of equal length, a
    scalar being a column of one; a complex column is written as
    ``<name>_re``, ``<name>_im``."""
    header, values = [], []
    for name, column in columns.items():
        column = np.ravel(column)
        if np.iscomplexobj(column):
            header += [f"{name}_re", f"{name}_im"]
            values += [column.real, column.imag]
        else:
            header.append(name)
            values.append(column)
    return header, values


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_csv(path: str | None, header: list[str], columns: list[np.ndarray]) -> None:
    cells = [_cells(column) for column in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    _write_text(path, "\n".join(lines) + "\n")


class _Rows(NamedTuple):
    """Table rows for the JSON writer, one per index of the 1-D columns:
    each a list of cells, or with ``keys`` an object keyed by column name."""

    columns: list
    keys: list[str] | None = None


def _json_list(opening: str, items: list[str], closing: str, level: int) -> str:
    """A JSON array or object of already spelled items, laid out as
    ``json.dumps(..., indent=2)`` lays it out at nesting depth ``level``."""
    if not items:
        return opening + closing
    pad = "\n" + "  " * (level + 1)
    # one join, so a long body is copied once
    return "".join((opening, pad, ("," + pad).join(items), "\n", "  " * level, closing))


def _json_elements(array: np.ndarray, level: int) -> list[str]:
    """JSON text of each element along the first axis of an array of one or
    more dimensions, at depth ``level``; a complex number is a [re, im] pair."""
    if array.dtype.kind not in "biufcU":  # objects: one value at a time
        return [_json(value, level) for value in array.tolist()]
    if np.iscomplexobj(array):
        array = np.stack((array.real, array.imag), axis=-1)
    return _nest(_json_cells(array.ravel()), array.shape, level)


def _nest(cells: list[str], shape: tuple[int, ...], level: int) -> list[str]:
    if len(shape) == 1:
        return cells
    step = math.prod(shape[1:])
    parts = (cells[i * step : (i + 1) * step] for i in range(shape[0]))
    return [_json_list("[", _nest(p, shape[1:], level + 1), "]", level) for p in parts]


def _json_rows(rows: _Rows, level: int) -> str:
    cells = [_json_elements(column, level + 2) for column in rows.columns]
    opening, closing = "[]"
    if rows.keys is not None:
        opening, closing = "{}"
        keyed = sorted(zip(rows.keys, cells))
        cells = [list(map(f"{json.dumps(k)}: ".__add__, c)) for k, c in keyed]
    inner, tail = "\n" + "  " * (level + 2), "\n" + "  " * (level + 1) + closing
    # the rows as one item: each row's cells, then all rows, in one join each
    between = tail + ",\n" + "  " * (level + 1) + opening + inner
    body = between.join(map(("," + inner).join, zip(*cells)))
    return _json_list("[", [opening + inner + body + tail] if body else [], "]", level)


def _json(obj, level: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` of a payload with string
    keys, numpy arrays and scalars and complex numbers (as [re, im]), with
    arrays spelled a column at a time: non-finite floats are the strings
    "nan", "inf" and "-inf" and masked cells are null."""
    if isinstance(obj, _Rows):
        return _json_rows(obj, level)
    if isinstance(obj, dict):
        pairs = sorted(obj.items())
        items = [f"{json.dumps(k)}: {_json(v, level + 1)}" for k, v in pairs]
        return _json_list("{", items, "}", level)
    if isinstance(obj, (list, tuple)):
        return _json_list("[", [_json(v, level + 1) for v in obj], "]", level)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            return _json(obj.tolist(), level)
        return _json_list("[", _json_elements(obj, level + 1), "]", level)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return _json([obj.real, obj.imag], level)
    if isinstance(obj, float) and not math.isfinite(obj):
        return f'"{obj!r}"'
    return json.dumps(obj)


def _write_json(path: str | None, payload: dict) -> None:
    _write_text(path, _json(payload) + "\n")


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


def _leading_orders(cfg: dict, swept: dict | None = None):
    """rho0's populations and the first-order coherences (r10, r0m1, r1m1) from
    one build over the ``swept`` keys; an "auto" squeezing phase is aligned."""
    sig, auto = _signal_spec(cfg, swept)
    pops, map1, map2 = _response_maps(build_liouvillian(build_scenario(cfg, swept)))
    if auto:
        sig = _align_on_maps(map1, map2, sig)
    return pops, _apply_maps(map1, map2, sig)


def cmd_sync(args) -> int:
    cfg = load_config(args.config, args.set or [])
    scen_name = cfg.get("scenario", {}).get("name", "")
    family = cfg.get("signal", {}).get("family", "semiclassical")
    allowed = _SCENARIO_KEYS.get(scen_name, ()) + _SIGNAL_AXES.get(family, ())
    axes = _sweep_axes(cfg, allowed)
    if len(axes) > 2:
        raise ConfigError("sync supports at most two sweep axes")
    eta = float(cfg.get("eta", 0.1))
    # one row per cell of the mesh of the axes, all from one build
    mesh = np.meshgrid(*(values for _, values in axes), indexing="ij")
    swept = {name: values for (name, _), values in zip(axes, mesh)}
    pops, (r10, r0m1, r1m1) = _leading_orders(cfg, swept)
    res = _measure(pops, (r10, r0m1, r1m1), eta)
    flag = np.where(res.value < 1e-12 * eta, "destructive_interference", "")
    columns = swept | {
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
    # a column that does not vary over an axis is repeated along it
    shape = tuple(len(values) for _, values in axes)
    columns = {k: np.broadcast_to(v, shape).ravel() for k, v in columns.items()}
    if args.format == "json":
        if axes:
            fields = {"rows": _Rows(list(columns.values()), list(columns))}
        else:
            fields = {name: column[0] for name, column in columns.items()}
        _write_json(args.out, {"command": "sync", "config": cfg} | fields)
    else:
        _write_csv(args.out, *_table(columns))
    return 0


def cmd_perturb(args) -> int:
    cfg = load_config(args.config, args.set or [])
    pops, coherences = _leading_orders(cfg)
    res = _perturbation_result(pops, coherences, float(cfg.get("eta", 0.1)))
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
    # both axes are in units of unit_rate, as the scenario rates
    unit = _number(cfg.get("unit_rate", 1.0), "unit_rate")
    eta = float(cfg.get("eta", 0.1))
    detunings = axes["detuning"] * unit
    align = auto and sig.tm11 != 0
    # as align_squeeze_phase, an "auto" squeezing tone is aligned at the
    # scenario's detuning, built as one more cell at the end of the stack
    stack = np.append(detunings, lc.detuning) if align else detunings
    pops, map1, map2 = _response_maps(build_liouvillian(lc.with_detuning(stack)))
    if align:
        sig = _align_on_maps(map1[-1], map2[-1], sig)
    n = len(detunings)
    coherences = _apply_maps(map1[:n], map2[:n], sig)
    grid = _tongue_grid(pops[:n], coherences, detunings, axes["epsilon"] * unit, eta)
    if args.format == "json":
        payload = {
            "command": "tongue",
            "config": cfg,
            "detunings": axes["detuning"],
            "strengths": axes["epsilon"],
            "eps_max": grid.eps_max,
            "S": np.ma.masked_array(grid.value, grid.masked),
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
    family = cfg.get("signal", {}).get("family")
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
            pop0=_number(bound_cfg.get("pop0", 1.0), "bound.pop0"),
            asymmetry=_number(bound_cfg.get("asymmetry", 0.0), "bound.asymmetry"),
            adjacent=_as_complex(bound_cfg.get("adjacent", 0.0)),
            extremal=_as_complex(bound_cfg.get("extremal", 0.0)),
        )
        norm_term, coh_term, product = catalog.bound_terms(params, eta)
        columns |= {"norm_term": norm_term, "coherence_term": coh_term, "S": product}
    _emit(args, {"command": "bound", "config": cfg, **columns}, columns)
    return 0


def cmd_validate(args) -> int:
    # imported here: validate computes its quadrature rule on import
    from .validate import run_all

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


def _figure_number(cfg: dict, key: str, default: float) -> float:
    return _number(cfg.get(key, default), f"figure.{key}")


def _figure_fig2(cfg: dict):
    gg = _figure_number(cfg, "gamma_g", 1.0)
    gd = _figure_number(cfg, "gamma_d", 100.0)
    eta = _figure_number(cfg, "eta", 0.1)
    lc = catalog.equatorial_limit_cycle(gg, gd)
    detunings = np.linspace(-20.0 * gg, 20.0 * gg, 161)
    eps_hi = eta / math.sqrt(
        1.0 / (gd**2 + detunings.max() ** 2) + 1.0 / (gg**2 + detunings.max() ** 2)
    )
    strengths = np.linspace(0.0, 1.05 * eps_hi, 211)
    grid = arnold_tongue(lc, semiclassical(0.0), detunings, strengths, eta)
    return [("", *_table(_tongue_columns(grid, detunings, strengths)))]


def _figure_forcing(cfg: dict, ratio: float):
    gg = _figure_number(cfg, "gamma_g", 1.0)
    gd = gg * _figure_number(cfg, "gamma_ratio", ratio)
    eta = _figure_number(cfg, "eta", 0.1)
    liou = build_liouvillian(catalog.equatorial_limit_cycle(gg, gd))
    sig = semiclassical(0.0)
    pops, map1, map2 = _response_maps(liou)
    eps_eta = float(_strength(*_norms(pops, _apply_maps(map1, map2, sig)), eta))
    rho0 = _target_state(pops)
    h = build_hext(sig)
    strengths = np.linspace(0.0, 1.5 * gg, 151)
    # the undriven row is rho0 itself; the driven rows are one stacked solve
    driven = strengths > 0
    states = np.repeat(rho0[None], len(strengths), axis=0)
    states[driven] = _driven_steady_state(liou, h, strengths[driven])
    columns = {
        "epsilon": strengths,
        "p_avg": p_avg(states, rho0),
        "p_max": p_max(states, rho0),
        "epsilon_max": np.full(len(strengths), eps_eta),
        "forcing": strengths > eps_eta,
    }
    return [("", *_table(columns))]


def _figure_fig4(cfg: dict):
    gg = _figure_number(cfg, "gamma_g", 1.0)
    gd = gg * _figure_number(cfg, "gamma_ratio", 1000.0)
    eta = _figure_number(cfg, "eta", 0.1)
    detunings = np.linspace(-10.0 * gg, 10.0 * gg, 41)
    taus = np.logspace(0.0, 3.0, 61)
    liou = build_liouvillian(catalog.vdp_limit_cycle(gg, gd, detunings))
    pops, map1, map2 = _response_maps(liou)
    # squeezing ratios down the rows of the grid, detunings along them
    sig = SignalSpec(1.0, 1.0 / SQRT2, taus[:, None] / SQRT2)
    sig = _align_on_maps(map1, map2, sig)
    res = _measure(pops, _apply_maps(map1, map2, sig), eta)
    delta, tau = np.meshgrid(detunings, taus, indexing="ij")
    tau_opt = vdp_optimal_squeeze_ratio(gg, gd, detunings)
    columns = {
        "detuning": delta,
        "tau_ratio": tau,
        "S_over_eta": res.value.T / eta,
        "tau_opt": np.broadcast_to(tau_opt[:, None], delta.shape),
    }
    return [("", *_table(columns))]


def _figure_fig5(cfg: dict):
    gg = _figure_number(cfg, "gamma_g", 1.0)
    gd = gg * _figure_number(cfg, "gamma_ratio", 100.0)
    eta = _figure_number(cfg, "eta", 0.1)
    ratios = np.logspace(1, 4, 13)
    # the grid's cycle, then the 13 cycles of the inset, as one stack
    lc = catalog.vdp_limit_cycle(gg, np.append(gd, gg * ratios))
    stack = _response_maps(build_liouvillian(lc))
    pops, map1, map2 = (x[0] for x in stack)
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
    reports = [
        _optimum(p, m1, complex(m2), "vdp_general", eta)
        for p, m1, m2 in zip(*(x[1:] for x in stack))
    ]
    inset = {
        "gamma_ratio": ratios,
        "S_over_eta": [rep.value / eta for rep in reports],
        "zeta_opt": [rep.params["zeta"] for rep in reports],
        "tau_ratio_opt": [rep.params["tau_ratio"] for rep in reports],
    }
    return [("", *_table(columns)), ("_inset", *_table(inset))]


def _figure_fig6(cfg: dict):
    gg = _figure_number(cfg, "gamma_g", 1.0)
    gd = _figure_number(cfg, "gamma_d", gg)
    eta = _figure_number(cfg, "eta", 0.1)
    zetas = np.linspace(0.0, 0.5 * math.pi, 91)
    chis = np.linspace(0.0, 2.0 * math.pi, 181)
    zeta, chi = np.meshgrid(zetas, chis, indexing="ij")
    vals = catalog.equatorial_sync_closed(zeta, chi, gg, gd, 0.0, 1.0)
    return [("", *_table({"zeta": zeta, "chi": chi, "S_over_eta": vals}))]


def _figure_fig7(cfg: dict):
    gg = _figure_number(cfg, "gamma_g", 1.0)
    eta = _figure_number(cfg, "eta", 0.1)
    ratios = [
        _number(r, "figure.gamma_ratios")
        for r in cfg.get("gamma_ratios", [1.0, 100.0, 10000.0])
    ]
    deltas = np.logspace(-2, 4, 181) * gg
    # rate ratios down the rows of the grid, detunings along them
    gd = gg * np.array(ratios)[:, None]
    ratio, delta = np.meshgrid(ratios, deltas, indexing="ij")
    columns = {
        "gamma_ratio": ratio,
        "delta": delta,
        "S_over_eta": catalog.blockade_sync(gg, gd, deltas, eta) / eta,
        "S_over_eta_closed": catalog.blockade_sync_closed(gg, gd, deltas, eta) / eta,
    }
    return [("", *_table(columns))]


def _figure_fig8app(cfg: dict):
    gg = _figure_number(cfg, "gamma_g", 1.0)
    gd = gg * _figure_number(cfg, "gamma_ratio", 100.0)
    r_values = [
        _number(r, "figure.r_values") for r in cfg.get("r_values", [0.5, 2.5, 4.0, 9.0])
    ]
    strengths = np.logspace(-2, 3, 121)
    liou = build_liouvillian(catalog.vdp_limit_cycle(gg, gd))
    signals = [SignalSpec(r, 1.0 / SQRT2, 0j) for r in r_values]
    curves = _pmax_curves(liou, signals, strengths)
    r, eps = np.meshgrid(r_values, strengths, indexing="ij")
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


def figure_datasets(
    fig_id: str, cfg: dict
) -> list[tuple[str, list[str], list[np.ndarray]]]:
    """Gridded dataset(s) for a named figure; suffix, header, 1-D columns."""
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
    for suffix, header, columns in datasets:
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
                    "rows": _Rows(columns),
                },
            )
        else:
            _write_csv(out, header, columns)
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
    p.add_argument("id", help=f"one of {', '.join(_FIGURES)}")
    common(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("validate")
    p.set_defaults(func=cmd_validate)
    return parser


# any other error is a fault of the program, not of its input
_USER_ERRORS = (ConfigError, SpinsyncError, FileNotFoundError, json.JSONDecodeError)


# one parser per process; build_parser still returns a fresh one
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
