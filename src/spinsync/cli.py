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

from . import catalog, lindblad
from ._floatrepr import _KERNEL_MIN, repr_bytes, reprs
from .catalog import (
    SCENARIOS,
    TongueGrid,
    _align_on_maps,
    _optimum,
    _pmax_curves,
    _tongue_grid,
    arnold_tongue,
    optimize_signal,
    smax,
    vdp_optimal_squeeze_ratio,
)
from .errors import SpinsyncError
from .lindblad import LimitCycleSpec, build_liouvillian, steady_state
from .perturbation import (
    _apply_maps,
    _measure,
    _perturbation_result,
    _population_shifts,
    _response_maps,
    _scaled_norms,
    _scaled_strength,
    hs_norm,
    sync_from_coherences,
)
from .signals import (
    SignalSpec,
    VdpSignalParams,
    from_equatorial_angles,
    from_vdp_params,
    semiclassical,
)
from .spin import SQRT2

# a builder's signature is the schema of its config section; making one for a
# partial costs about 2% of a fig3a command, so each is made once
_signature = functools.cache(inspect.signature)

_CONFIG_KEYS = ("eta", "unit_rate", "scenario", "signal", "sweep", "figure", "bound")
_AXIS_KEYS = ("name", "min", "max", "points", "scale")

_POPULATIONS = ("p_plus", "p_zero", "p_minus")

_RATE_KEYS = ("gamma_g", "gamma_d", "gamma_dp", "gamma_10", "gamma_0m1", "detuning")


class ConfigError(ValueError):
    """Invalid run configuration."""


# ---------------------------------------------------------------------------
# configuration handling


def _number(value, name: str, integer: bool = False):
    """A config value as a finite float (with ``integer``, an int), or a
    ConfigError naming it."""
    try:
        # float() would read JSON's true and false as 1 and 0
        number = float(None if isinstance(value, bool) else value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not (number.is_integer() if integer else math.isfinite(number)):
        kind = "an integer" if integer else "finite"
        raise ConfigError(f"{name} must be {kind}, got {number!r}")
    return int(number) if integer else number


def _positive(value, name: str, below: float = math.inf) -> float:
    """A config value as a number in (0, ``below``), or a ConfigError naming it."""
    number = _number(value, name)
    if not 0.0 < number < below:
        raise ConfigError(f"{name} must lie in (0, {below:g}), got {number!r}")
    return number


def _as_complex(value, name: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(_number(value, name))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], name), _number(value[1], name))
    raise ConfigError(f"{name} must be a number or [re, im] pair, got {value!r}")


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
        "signal": {"family": "semiclassical"},
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
    unread = ", ".join(key for key in cfg if key not in _CONFIG_KEYS)
    if unread:
        reads = ", ".join(_CONFIG_KEYS)
        raise ConfigError(f"config does not read {unread}; it reads {reads}")
    cfg["eta"] = _positive(cfg["eta"], "eta", 1.0)
    cfg["unit_rate"] = _positive(cfg["unit_rate"], "unit_rate")
    for key in ("scenario", "signal", "figure", "bound"):
        if not isinstance(cfg.get(key, {}), dict):
            raise ConfigError(f"{key} must be a JSON object, got {cfg[key]!r}")
    sweep = cfg["sweep"]
    if not (isinstance(sweep, list) and all(isinstance(a, dict) for a in sweep)):
        raise ConfigError(f"sweep must be a JSON array of objects, got {sweep!r}")
    return cfg


def _config(args) -> dict:
    """The configuration of a command; one that reads no sweep axes refuses
    them, rather than write the same table for every value."""
    cfg = load_config(args.config, args.set or [])
    if cfg["sweep"] and args.command not in ("sync", "tongue"):
        raise ConfigError(
            f"{args.command} does not read sweep; only sync and tongue read sweep"
        )
    return cfg


def _section_args(owner: str, builder, given: dict, swept: dict | None = None) -> dict:
    """Keyword arguments of ``builder``, its defaults included, from its
    config section ``given`` (named by ``owner``, e.g. "figure fig2"), with
    the arrays of ``swept`` in place of configured keys.  The signature is the
    schema: a value is read by its parameter's default (a tuple: a JSON list
    of numbers; complex: a number or [re, im] pair; else a number, or "auto"
    for a squeeze_phase), and an unknown or a missing required key is
    refused."""
    section = owner.split()[0]
    signature = _signature(builder)
    params = signature.parameters
    unread = ", ".join(f"{section}.{key}" for key in given if key not in params)
    if unread:
        reads = ", ".join(f"{section}.{key}" for key in params)
        raise ConfigError(f"{owner} does not read {unread}; it reads {reads}")
    args = {}
    for key, value in given.items():
        name, default = f"{section}.{key}", params[key].default
        if isinstance(default, tuple):
            if not (isinstance(value, list) and value):
                raise ConfigError(
                    f"{name} must be a non-empty JSON list of numbers, got {value!r}"
                )
            args[key] = tuple(_number(v, name) for v in value)
        elif isinstance(default, complex):
            args[key] = _as_complex(value, name)
        elif key == "squeeze_phase" and value == "auto":
            args[key] = value
        else:
            args[key] = _number(value, name)
    args |= {key: value for key, value in (swept or {}).items() if key in params}
    try:
        bound = signature.bind(**args)
    except TypeError as err:
        raise ConfigError(f"{owner}: {err}") from None
    bound.apply_defaults()
    return bound.arguments


def _vdp_params(
    c=1.0, zeta=0.25 * math.pi, chi=0.0, tau_ratio=0.0, squeeze_phase="auto"
) -> SignalSpec:
    phase = 0.0 if squeeze_phase == "auto" else squeeze_phase
    return from_vdp_params(VdpSignalParams(c, zeta, chi, tau_ratio), phase)


def _tones(t01=0j, tm10=0j, tm11=0j, squeeze_phase=None) -> SignalSpec:
    if t01 == tm10 == tm11 == 0:
        raise ConfigError("signal tones are all zero")
    # tm11's own phase is the squeezing phase: only "auto" changes it
    if squeeze_phase not in (None, "auto"):
        raise ConfigError(
            f'tones take signal.squeeze_phase "auto" only, got {squeeze_phase!r}'
        )
    return SignalSpec(t01, tm10, tm11)


# Each signal family's builder; its keyword parameters are the signal.<key>
# overrides it reads.
_SIGNALS = {
    "semiclassical": semiclassical,
    "equatorial_angles": from_equatorial_angles,
    "vdp_params": _vdp_params,
    "tones": _tones,
}

# the sections that name their builder: the naming key and the builders
_NAMED = {"scenario": ("name", SCENARIOS), "signal": ("family", _SIGNALS)}


def _named(table: dict, key: str, name):
    """The builder ``name`` of ``table``, named by the config value ``key``."""
    if not (isinstance(name, str) and name in table):
        raise ConfigError(f"{key} must be one of {sorted(table)}, got {name!r}")
    return table[name]


def _section(cfg: dict, section: str) -> tuple[str, object, dict]:
    """The owner, the builder and the other keys of a section of ``_NAMED``."""
    key, table = _NAMED[section]
    given = dict(cfg.get(section, {}))
    name = given.pop(key, None)
    return f"{section} {name}", _named(table, f"{section}.{key}", name), given


def build_scenario(cfg: dict, swept: dict | None = None) -> LimitCycleSpec:
    """The configured limit cycle, stacked over the arrays that ``swept``
    puts in place of configured keys."""
    owner, builder, given = _section(cfg, "scenario")
    params = _section_args(owner, builder, given, swept)
    for key in params.keys() & _RATE_KEYS:
        # a copy: a swept axis is written unscaled
        params[key] = params[key] * cfg["unit_rate"]
    return builder(**params)


def build_signal(cfg: dict, swept: dict | None = None) -> tuple[SignalSpec, bool]:
    """The configured signal, with the arrays of ``swept`` in place of
    configured keys, and whether its squeezing phase is "auto": aligned on
    the cycle (see catalog.align_squeeze_phase)."""
    owner, builder, given = _section(cfg, "signal")
    args = _section_args(owner, builder, given, swept)
    return builder(**args), args.get("squeeze_phase") == "auto"


def _sweep_axes(cfg: dict, allowed: tuple[str, ...]) -> list[tuple[str, np.ndarray]]:
    axes = []
    for axis in cfg.get("sweep", []):
        name = axis.get("name")
        unread = ", ".join(key for key in axis if key not in _AXIS_KEYS)
        if unread:
            reads = ", ".join(_AXIS_KEYS)
            raise ConfigError(
                f"sweep axis {name!r} does not read {unread}; it reads {reads}"
            )
        if name not in allowed:
            raise ConfigError(
                f"sweep axis {name!r} not recognized; allowed: {sorted(allowed)}"
            )
        if name in (seen for seen, _ in axes):
            raise ConfigError(f"sweep axis {name!r} is given twice")
        points = _number(axis.get("points", 0), f"sweep axis {name!r} points", True)
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
        elif not math.isfinite(hi - lo):
            raise ConfigError(
                f"sweep axis {name!r} from {lo!r} to {hi!r}: max - min overflows"
            )
        try:
            axes.append((name, space(lo, hi, points)))
        except (ValueError, MemoryError) as err:  # numpy refuses the size
            raise ConfigError(
                f"sweep axis {name!r} cannot hold {points} points: {err}"
            ) from None
    return axes


# ---------------------------------------------------------------------------
# output writers: each column is spelled once, then its cells are laid out in rows

_BOOL_CELLS = np.array(["false", "true"], dtype=object)


def _cells(column: np.ndarray) -> list[str]:
    """CSV spelling of each value of a column of any shape, in row-major
    order: floats by repr (nan, inf and -inf bare; a long column by
    ``reprs``, once per distinct value if it repeats them), bools as
    true/false, anything else by str.
    A column that repeats its values along zero-stride axes (a grid axis or
    a broadcast constant) is spelled once per element of its core, the
    column cut to length 1 along those axes."""
    core = _core(column)
    if core is not None:
        cells = np.array(_cells(core), dtype=object).reshape(core.shape)
        return np.broadcast_to(cells, column.shape).ravel().tolist()
    kind = column.dtype.kind
    if kind == "f":
        return reprs(np.ascontiguousarray(column, dtype=np.float64).ravel())
    column = column.ravel()
    if kind == "b":
        return _BOOL_CELLS[column.view(np.uint8)].tolist()
    return list(map(str, column.tolist()))


def _core(column: np.ndarray) -> np.ndarray | None:
    """A column cut to length 1 along its zero-stride axes (a grid axis or a
    broadcast constant), or None where that cuts nothing."""
    if 0 in column.strides:
        core = column[tuple(slice(0, 1) if s == 0 else slice(None) for s in column.strides)]
        if core.size < column.size:
            return core
    return None


def _json_cells(column: np.ndarray) -> list[str]:
    """JSON spelling of each value of a real column of any shape, in
    row-major order: the CSV spelling, with non-finite floats as the strings
    "nan", "inf" and "-inf", strings quoted and masked cells null."""
    if np.ma.isMaskedArray(column):
        unmasked = np.flatnonzero(~np.ma.getmaskarray(column))
        cells = ["null"] * column.size
        spelled = _json_cells(np.asarray(column).ravel()[unmasked])
        for i, cell in zip(unmasked.tolist(), spelled):
            cells[i] = cell
        return cells
    if column.dtype.kind == "U":
        return list(map(json.dumps, column.ravel().tolist()))
    cells = _cells(column)
    if column.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            cells[i] = f'"{cells[i]}"'
    return cells


def _table(columns: dict) -> tuple[list[str], list[np.ndarray]]:
    """Header and value columns of named columns of equal size, each of any
    shape and written in row-major order; a scalar is a column of one and a
    complex column is written as ``<name>_re``, ``<name>_im``.  A column is
    kept as given, a broadcast view included, so the writers spell the
    values it repeats once."""
    header, values = [], []
    for name, column in columns.items():
        column = np.atleast_1d(column)
        if np.iscomplexobj(column):
            header += [f"{name}_re", f"{name}_im"]
            values += [column.real, column.imag]
        else:
            header.append(name)
            values.append(column)
    return header, values


def _write_text(path: str | None, texts) -> None:
    """Write each string of ``texts`` in turn to the file ``path``, or to
    stdout when it is None."""
    if path is None:
        sys.stdout.writelines(texts)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(texts)


def _write_csv(path: str | None, header: list[str], columns: list[np.ndarray]) -> None:
    # Each column is spelled once, before the output is opened. Under
    # _KERNEL_MIN rows repr spells every float either way, and laying its
    # strings out as bytes took 11-49% longer than one join; from there on
    # the kernel's rows go straight into each block of bytes, 2-40% faster
    # (every table the benchmark writes and synthetic ones, BENCH_33.json).
    head = ",".join(header) + "\n"
    if columns and columns[0].size >= _KERNEL_MIN:
        spelled = [_cell_bytes(column) for column in columns]
        _write_text(path, _csv_blocks(head, spelled, columns[0].size))
        return
    cells = [_cells(column) for column in columns]
    rows = len(cells[0]) if cells else 0
    step = 2 * len(cells)
    # every cell followed by its separator, in one list and one join
    body = [","] * (1 + step * rows)
    body[0] = head
    body[step::step] = ["\n"] * rows
    for i, spelled in enumerate(cells):
        body[1 + 2 * i :: step] = spelled
    _write_text(path, ["".join(body)])


_BOOL_BYTES = np.array([b"false", b"true"]).view(np.uint8).reshape(2, -1)


def _cell_bytes(column: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The CSV spelling of each value of a column of any shape, in row-major
    order, as zero-padded UTF-8: a uint8 matrix of one row per spelled cell
    and the row of each value in it, or None where value i has row i.  It
    spells what ``_cells`` spells, each cell once: a column that repeats
    its values along zero-stride axes once per element of its core, a long
    float column once per distinct value, a bool column as two rows.  A str
    cell may not hold a NUL character, which a zero byte cannot pad."""
    core = _core(column)
    if core is not None:
        rows, index = _cell_bytes(core)
        if index is None:
            index = np.arange(core.size)
        return rows, np.broadcast_to(index.reshape(core.shape), column.shape).ravel()
    kind = column.dtype.kind
    if kind == "f":
        return repr_bytes(np.ascontiguousarray(column, dtype=np.float64).ravel())
    if kind == "b":
        return _BOOL_BYTES, column.ravel().view(np.uint8)
    cells = _cells(column)
    if any("\0" in cell for cell in cells):
        raise ValueError("a CSV cell of a long table cannot hold a NUL character")
    rows = np.array([cell.encode() for cell in cells], dtype=bytes)
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize), None


#: rows per block of a long CSV table
_CSV_BLOCK = 1024


def _csv_blocks(head: str, spelled: list, size: int):
    """The text of a CSV table of ``size`` rows, _CSV_BLOCK rows at a time
    and the header line ``head`` leading the first block, from the spelled
    cells of its columns (see ``_cell_bytes``).  A block is one reused byte
    matrix: each column fills a field as wide as its widest cell, the
    separators after each field are set once, and the zero bytes are
    deleted from the block's text."""
    ends = np.cumsum([rows.shape[1] + 1 for rows, _ in spelled])
    block = np.zeros((_CSV_BLOCK, ends[-1]), dtype=np.uint8)
    block[:, ends - 1] = ord(",")
    block[:, -1] = ord("\n")
    # a cell as one value, so that a gather copies whole cells
    fields = []
    for (rows, index), end in zip(spelled, ends):
        cell = np.dtype((np.void, rows.shape[1]))
        field = block[:, end - 1 - rows.shape[1] : end - 1].view(cell)[:, 0]
        fields.append((rows.view(cell).ravel(), index, field))
    for start in range(0, size, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, size)
        for cells, index, field in fields:
            part = cells[start:stop] if index is None else np.take(cells, index[start:stop])
            field[: stop - start] = part
        yield head + block[: stop - start].tobytes().translate(None, b"\0").decode()
        head = ""


class _Rows(NamedTuple):
    """Table rows for the JSON writer, one per element of the columns (of
    one size, any shape) in row-major order: each a list of cells, or with
    ``keys`` an object keyed by column name."""

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
    return _nest(_json_values(array, level + array.ndim - 1), array.shape, level)


def _json_values(array: np.ndarray, level: int) -> list[str]:
    """JSON text of each value of an array of any shape, in row-major order;
    a complex number is a [re, im] pair at depth ``level``."""
    if not np.iscomplexobj(array):
        return _json_cells(array)
    parts = [""] * (2 * array.size)
    parts[::2], parts[1::2] = _json_cells(array.real), _json_cells(array.imag)
    return _nest(parts, (array.size, 2), level)


def _nest(cells: list[str], shape: tuple[int, ...], level: int) -> list[str]:
    if len(shape) == 1:
        return cells
    step = math.prod(shape[1:])
    parts = (cells[i * step : (i + 1) * step] for i in range(shape[0]))
    return [_json_list("[", _nest(p, shape[1:], level + 1), "]", level) for p in parts]


def _json_rows(rows: _Rows, level: int) -> str:
    cells = [_json_values(column, level + 2) for column in rows.columns]
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
    _write_text(path, [_json(payload) + "\n"])


def _emit(args, payload: dict, columns: dict) -> None:
    if args.format == "json":
        _write_json(args.out, payload)
    else:
        _write_csv(args.out, *_table(columns))


# ---------------------------------------------------------------------------
# commands


def cmd_steady(args) -> int:
    cfg = _config(args)
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
    sig, auto = build_signal(cfg, swept)
    pops, map1, map2 = _response_maps(build_liouvillian(build_scenario(cfg, swept)))
    if auto:
        sig = _align_on_maps(map1, map2, sig)
    return pops, _apply_maps(map1, map2, sig)


def cmd_sync(args) -> int:
    cfg = _config(args)
    # an axis sets a key of the scenario or the signal family that is read as
    # a real number: one with a float default, or none
    allowed = [
        p.name
        for part in _NAMED
        for p in _signature(_section(cfg, part)[1]).parameters.values()
        if p.default is p.empty or type(p.default) is float
    ]
    axes = _sweep_axes(cfg, allowed)
    if len(axes) > 2:
        raise ConfigError("sync supports at most two sweep axes")
    eta = cfg["eta"]
    # one row per cell of the mesh of the axes, all from one build
    mesh = np.meshgrid(*(values for _, values in axes), indexing="ij", copy=False)
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
    columns = dict(zip(columns, np.broadcast_arrays(*columns.values())))
    if args.format == "json":
        if axes:
            fields = {"rows": _Rows(list(columns.values()), list(columns))}
        else:
            fields = {name: column[()] for name, column in columns.items()}
        _write_json(args.out, {"command": "sync", "config": cfg} | fields)
    else:
        _write_csv(args.out, *_table(columns))
    return 0


def cmd_perturb(args) -> int:
    cfg = _config(args)
    pops, coherences = _leading_orders(cfg)
    res = _perturbation_result(pops, coherences, cfg["eta"])
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
    detuning, strength = np.meshgrid(detunings, strengths, copy=False)
    return {
        "detuning": detuning,
        "epsilon": strength,
        "S": grid.value,
        "S_over_eta": grid.value / grid.eta,
        "epsilon_max": np.broadcast_to(grid.eps_max, grid.value.shape),
        "masked": grid.masked,
    }


def cmd_tongue(args) -> int:
    cfg = _config(args)
    lc = build_scenario(cfg)
    sig, auto = build_signal(cfg)
    axes = dict(_sweep_axes(cfg, ("detuning", "epsilon")))
    if set(axes) != {"detuning", "epsilon"}:
        raise ConfigError("tongue needs sweep axes 'detuning' and 'epsilon'")
    bad = ~((axes["epsilon"] >= 0.0) & (axes["epsilon"] < math.inf))
    if bad.any():  # named as configured, before the unit_rate scaling
        at = lindblad._where(bad, axes["epsilon"], "axis position")
        raise ConfigError(f"sweep axis 'epsilon' must be non-negative and finite{at}")
    # both axes are in units of unit_rate, as the scenario rates
    unit, eta = cfg["unit_rate"], cfg["eta"]
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
    cfg = _config(args)
    lc = build_scenario(cfg)
    signal = cfg.get("signal", {})
    family = signal.get("family")
    if family not in ("equatorial_angles", "vdp_general"):
        raise ConfigError(
            "optimize expects signal.family 'equatorial_angles' or 'vdp_general'"
        )
    unread = ", ".join(f"signal.{key}" for key in signal if key != "family")
    if unread:
        raise ConfigError(f"optimize does not read {unread}; it reads signal.family")
    report = optimize_signal(lc, family, eta=cfg["eta"])
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
    cfg = _config(args)
    eta = cfg["eta"]
    columns = {
        "smax_spin": smax(eta, "spin"),
        "smax_oscillator": smax(eta, "oscillator"),
        "eta": eta,
    }
    bound_cfg = cfg.get("bound")
    if bound_cfg:
        # pop0 defaults to 1: the limit-cycle state |0><0|
        kwargs = _section_args("bound", catalog.BoundParams, {"pop0": 1.0} | bound_cfg)
        params = catalog.BoundParams(**kwargs)
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


def _figure_fig2(*, gamma_g=1.0, gamma_d=100.0, eta=0.1):
    lc = catalog.equatorial_limit_cycle(gamma_g, gamma_d)
    detunings = np.linspace(-20.0 * gamma_g, 20.0 * gamma_g, 161)
    d_max = detunings.max()
    eps_hi = eta / math.hypot(
        1.0 / math.hypot(gamma_d, d_max), 1.0 / math.hypot(gamma_g, d_max)
    )
    strengths = np.linspace(0.0, 1.05 * eps_hi, 211)
    grid = arnold_tongue(lc, semiclassical(0.0), detunings, strengths, eta)
    return [("", *_table(_tongue_columns(grid, detunings, strengths)))]


def _figure_forcing(*, gamma_g=1.0, gamma_ratio, eta=0.1):
    gd = gamma_g * gamma_ratio
    liou = build_liouvillian(catalog.equatorial_limit_cycle(gamma_g, gd))
    sig = semiclassical(0.0)
    pops, map1, map2 = _response_maps(liou)
    norms = _scaled_norms(pops, _apply_maps(map1, map2, sig))
    eps_eta = float(_scaled_strength(*norms, eta)[0])
    strengths = np.linspace(0.0, 1.5 * gamma_g, 151)
    # the undriven row is rho0 itself; the driven rows are one stacked solve
    driven = strengths > 0
    shift = np.zeros(strengths.shape + (3,))
    shift[driven] = _population_shifts(liou, pops, [sig], strengths[driven])[0]
    columns = {
        "epsilon": strengths,
        "p_avg": shift[:, 0] - shift[:, 2],
        "p_max": np.abs(shift).max(axis=-1),
        "epsilon_max": np.broadcast_to(eps_eta, strengths.shape),
        "forcing": strengths > eps_eta,
    }
    return [("", *_table(columns))]


def _figure_fig4(*, gamma_g=1.0, gamma_ratio=1000.0):
    gd = gamma_g * gamma_ratio
    detunings = np.linspace(-10.0 * gamma_g, 10.0 * gamma_g, 41)
    taus = np.logspace(0.0, 3.0, 61)
    liou = build_liouvillian(catalog.vdp_limit_cycle(gamma_g, gd, detunings))
    pops, map1, map2 = _response_maps(liou)
    # squeezing ratios down the rows of the grid, detunings along them
    sig = SignalSpec(1.0, 1.0 / SQRT2, taus[:, None] / SQRT2)
    sig = _align_on_maps(map1, map2, sig)
    res = _measure(pops, _apply_maps(map1, map2, sig), 1.0)
    delta, tau = np.meshgrid(detunings, taus, indexing="ij", copy=False)
    tau_opt = vdp_optimal_squeeze_ratio(gamma_g, gd, detunings)
    columns = {
        "detuning": delta,
        "tau_ratio": tau,
        "S_over_eta": res.value.T,
        "tau_opt": np.broadcast_to(tau_opt[:, None], delta.shape),
    }
    return [("", *_table(columns))]


def _figure_fig5(*, gamma_g=1.0, gamma_ratio=100.0):
    ratios = np.logspace(1, 4, 13)
    # the grid's cycle, then the 13 cycles of the inset, as one stack
    lc = catalog.vdp_limit_cycle(gamma_g, gamma_g * np.append(gamma_ratio, ratios))
    stack = _response_maps(build_liouvillian(lc))
    pops, map1, map2 = (x[0] for x in stack)
    zetas = np.linspace(0.0, 0.5 * math.pi, 65)
    taus = np.logspace(-2.0, 1.0, 61)
    r10, r0m1, _ = _apply_maps(
        map1, map2, SignalSpec(np.cos(zetas), np.sin(zetas) / SQRT2)
    )
    # zetas down the rows of the grid, squeezing ratios along them
    r10, r0m1 = r10[:, None], r0m1[:, None]
    zeta, tau = np.meshgrid(zetas, taus, indexing="ij", copy=False)
    vals = sync_from_coherences(pops, (r10, r0m1, abs(map2) * taus / SQRT2), 1.0)
    tau_best = catalog.stationary_squeeze_ratio(r10, r0m1, map2)
    columns = {
        "zeta": zeta,
        "tau_ratio": tau,
        "S_over_eta": vals,
        "tau_opt_for_zeta": np.broadcast_to(tau_best, zeta.shape),
    }
    report = _optimum(*(x[1:] for x in stack), "vdp_general", 1.0)
    inset = {
        "gamma_ratio": ratios,
        "S_over_eta": report.value,
        "zeta_opt": report.params["zeta"],
        "tau_ratio_opt": report.params["tau_ratio"],
    }
    return [("", *_table(columns)), ("_inset", *_table(inset))]


def _figure_fig6(*, gamma_g=1.0, gamma_d=None):
    gd = gamma_g if gamma_d is None else gamma_d
    zetas = np.linspace(0.0, 0.5 * math.pi, 91)
    chis = np.linspace(0.0, 2.0 * math.pi, 181)
    zeta, chi = np.meshgrid(zetas, chis, indexing="ij", copy=False)
    vals = catalog.equatorial_sync_closed(zeta, chi, gamma_g, gd, 0.0, 1.0)
    return [("", *_table({"zeta": zeta, "chi": chi, "S_over_eta": vals}))]


def _figure_fig7(*, gamma_g=1.0, gamma_ratios=(1.0, 100.0, 10000.0)):
    deltas = np.logspace(-2, 4, 181) * gamma_g
    # rate ratios down the rows of the grid, detunings along them
    gd = gamma_g * np.array(gamma_ratios)[:, None]
    ratio, delta = np.meshgrid(gamma_ratios, deltas, indexing="ij", copy=False)
    columns = {
        "gamma_ratio": ratio,
        "delta": delta,
        "S_over_eta": catalog.blockade_sync(gamma_g, gd, deltas, 1.0),
        "S_over_eta_closed": catalog.blockade_sync_closed(gamma_g, gd, deltas, 1.0),
    }
    return [("", *_table(columns))]


def _figure_fig8app(*, gamma_g=1.0, gamma_ratio=100.0, r_values=(0.5, 2.5, 4.0, 9.0)):
    strengths = np.logspace(-2, 3, 121)
    liou = build_liouvillian(catalog.vdp_limit_cycle(gamma_g, gamma_g * gamma_ratio))
    signals = [SignalSpec(r, 1.0 / SQRT2, 0j) for r in r_values]
    curves = _pmax_curves(liou, signals, strengths)
    r, eps = np.meshgrid(r_values, strengths, indexing="ij", copy=False)
    return [("", *_table({"r": r, "epsilon": eps, "p_max": curves}))]


# Each figure's dataset function; its keyword parameters are the figure.<key>
# overrides it reads.  fig4-fig7 write S/eta, the measure at eta = 1 (it is
# linear in eta), and so take no eta.
_FIGURES = {
    "fig2": _figure_fig2,
    "fig3a": functools.partial(_figure_forcing, gamma_ratio=1.0),
    "fig3b": functools.partial(_figure_forcing, gamma_ratio=10.0),
    "fig4": _figure_fig4,
    "fig5": _figure_fig5,
    "fig6": _figure_fig6,
    "fig7": _figure_fig7,
    "fig8app": _figure_fig8app,
}


def figure_datasets(
    fig_id: str, cfg: dict
) -> list[tuple[str, list[str], list[np.ndarray]]]:
    """Gridded dataset(s) for a named figure from its ``figure`` config
    section; suffix, header, columns (of one size, any shape, cells in
    row-major order)."""
    dataset = _named(_FIGURES, "figure id", fig_id)
    kwargs = _section_args(f"figure {fig_id}", dataset, cfg)
    if "eta" in kwargs:
        _positive(kwargs["eta"], "figure.eta", 1.0)
    return dataset(**kwargs)


def cmd_figure(args) -> int:
    cfg = _config(args)
    overrides = cfg.get("figure", {})
    # a top-level eta is the default of figure.eta, for a figure that reads one
    if "eta" in _signature(_named(_FIGURES, "figure id", args.id)).parameters:
        overrides.setdefault("eta", cfg["eta"])
    datasets = figure_datasets(args.id, overrides)
    if args.out is None and len(datasets) > 1:
        names = " and ".join(args.id + suffix for suffix, _, _ in datasets)
        raise ConfigError(
            f"figure {args.id} writes the tables {names}, which cannot share "
            "stdout; give --out FILE"
        )
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
