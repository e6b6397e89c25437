"""Correctness gate: independent references for every value the workloads write.

Sweep, tongue and optimizer rows are checked against the catalog's closed
forms (``equatorial_first_order_closed``, ``vdp_first_order_closed`` and
``equatorial_sync_closed``).  ``vdp_squeeze_sync_closed`` is a deep-quantum
asymptote rather than an exact value, so it cannot serve as an exact
reference.  The cooperativity cycle has no closed form, and the forcing
figures need the exact driven state; both use the dense 9x9 reference built
here from the spin matrices, with its own vectorization and a
trace-augmented least-squares solve.  The phase-distribution peak is found
from the roots of dS/dphi written as a quartic in e^{i phi}.

``check_command`` returns the largest relative deviation over the values a
command wrote, together with the number of rows it wrote.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from spinsync.catalog import (
    EQUATORIAL_OPTIMAL_VALUE,
    equatorial_first_order_closed,
    equatorial_sync_closed,
    vdp_first_order_closed,
)
from spinsync.signals import SignalSpec

SQRT2 = math.sqrt(2.0)
COS1 = 3.0 / (8.0 * SQRT2)
COS2 = 1.0 / (2.0 * math.pi)

#: largest accepted relative deviation from the references
REL_TOL = 1e-7
# Values whose reference is smaller than these floors are compared on the
# floor instead, so that rounding-level quantities cannot blow up the ratio.
# Populations are O(1) and both solvers resolve them to about 1e-14 absolute,
# while the smallest forcing deformations are near 1e-7.
_S_FLOOR = 1e-12
_POP_FLOOR = 1e-4

_SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
_SP = np.array([[0, SQRT2, 0], [0, 0, SQRT2], [0, 0, 0]], dtype=complex)
_SM = _SP.conj().T
_I3 = np.eye(3, dtype=complex)
_TRACE = np.eye(3).flatten(order="F")


def rel_err(actual: float, expected: float, floor: float = 1e-300) -> float:
    if isinstance(actual, float) and isinstance(expected, float):
        if math.isnan(actual) and math.isnan(expected):
            return 0.0
    return abs(actual - expected) / max(abs(expected), floor)


# ---------------------------------------------------------------------------
# signals and cycles


def signal_tones(sig: dict) -> tuple[complex, complex, complex, bool]:
    """Tones (t01, tm10, tm11) of a signal config and whether the squeezing
    phase is auto-aligned (tm11 is then returned with zero phase)."""
    family = sig.get("family", "semiclassical")
    if family == "semiclassical":
        tone = 0.5 * complex(math.cos(sig["phase"]), -math.sin(sig["phase"]))
        return tone, tone, 0j, False
    if family == "equatorial_angles":
        zeta, chi = sig["zeta"], sig["chi"]
        return math.cos(zeta) * np.exp(1j * chi), complex(math.sin(zeta)), 0j, False
    if family == "vdp_params":
        c, zeta, chi, tau = sig["c"], sig["zeta"], sig["chi"], sig["tau_ratio"]
        auto = sig["squeeze_phase"] == "auto"
        phase = 0.0 if auto else sig["squeeze_phase"]
        return (
            c * math.cos(zeta) * np.exp(1j * chi),
            c * math.sin(zeta) / SQRT2 + 0j,
            tau * c * np.exp(1j * phase) / SQRT2,
            auto,
        )
    auto = sig.get("squeeze_phase") == "auto"

    def tone(v):
        return complex(v[0], v[1]) if isinstance(v, list) else complex(v)

    tm11 = tone(sig.get("tm11", 0.0))
    return tone(sig["t01"]), tone(sig["tm10"]), abs(tm11) + 0j if auto else tm11, auto


def _dissipators(scen: dict) -> list[tuple[np.ndarray, float]]:
    name = scen["name"]
    if name == "cooperativity":
        def unit(i, j):
            m = np.zeros((3, 3), dtype=complex)
            m[i, j] = 1.0
            return m

        g10, g0m1 = scen["gamma_10"], scen["gamma_0m1"]
        return [
            (unit(1, 0), g10),
            (unit(2, 1), g0m1),
            (unit(1, 2), 4.0 * scen["cooperativity"] * g0m1),
        ]
    gg, gd = scen["gamma_g"], scen["gamma_d"]
    if name == "vdp":
        return [(_SZ @ _SP - _SP @ _SZ / SQRT2, gg), (_SM @ _SM / SQRT2, gd)]
    ops = [(_SP @ _SZ, gg), (_SM @ _SZ, gd)]
    if name == "asymmetric_equatorial":
        ops.append((_SZ @ _SM, scen["gamma_dp"]))
    return ops


def _commutator_superop(h: np.ndarray) -> np.ndarray:
    """-i[H, .] on column-stacked matrices."""
    return -1j * (np.kron(_I3, h) - np.kron(h.T, _I3))


def dense_generator(scen: dict) -> np.ndarray:
    gen = np.zeros((9, 9), dtype=complex)
    for op, rate in _dissipators(scen):
        odo = op.conj().T @ op
        gen += rate * (
            np.kron(op.conj(), op) - 0.5 * np.kron(_I3, odo) - 0.5 * np.kron(odo.T, _I3)
        )
    return gen + scen.get("detuning", 0.0) * _commutator_superop(_SZ)


def signal_hamiltonian(t01: complex, tm10: complex, tm11: complex) -> np.ndarray:
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1], h[1, 2], h[0, 2] = SQRT2 * t01, SQRT2 * tm10, 2.0 * tm11
    return h + h.conj().T


def _augmented_solve(gen: np.ndarray, rhs: np.ndarray, trace: float) -> np.ndarray:
    aug = np.vstack([gen, _TRACE])
    sol = np.linalg.lstsq(aug, np.concatenate([rhs, [trace]]), rcond=None)[0]
    return sol.reshape(3, 3, order="F")


def dense_steady_state(gen: np.ndarray) -> np.ndarray:
    rho = _augmented_solve(gen, np.zeros(9, dtype=complex), 1.0)
    return 0.5 * (rho + rho.conj().T)


def dense_first_order(scen: dict, tones) -> tuple[np.ndarray, tuple]:
    gen = dense_generator(scen)
    rho0 = dense_steady_state(gen)
    drive = _commutator_superop(signal_hamiltonian(*tones)) @ rho0.flatten(order="F")
    rho1 = _augmented_solve(gen, -drive, 0.0)
    return rho0.diagonal().real, (rho1[0, 1], rho1[1, 2], rho1[0, 2])


def first_order(scen: dict, tones) -> tuple[np.ndarray, tuple]:
    """Populations of rho0 and coherences (rho1_10, rho1_0m1, rho1_1m1)."""
    spec = SignalSpec(*tones)
    name, delta = scen["name"], scen.get("detuning", 0.0)
    if name == "equatorial":
        coh, pops = equatorial_first_order_closed(
            spec, scen["gamma_g"], scen["gamma_d"], 0.0, delta
        )
    elif name == "asymmetric_equatorial":
        coh, pops = equatorial_first_order_closed(
            spec, scen["gamma_g"], scen["gamma_d"], scen["gamma_dp"], delta
        )
    elif name == "vdp":
        coh, pops = vdp_first_order_closed(
            spec, scen["gamma_g"], scen["gamma_d"], delta
        )
    else:
        return dense_first_order(scen, tones)
    return np.asarray(pops), coh


# ---------------------------------------------------------------------------
# the measure


def peak(a1: float, p1: float, a2: float, p2: float) -> float:
    """max over phi of a1 cos(phi + p1) + a2 cos(2 phi + p2).

    Stationary points solve a quartic in z = e^{i phi}; every root's angle is
    a candidate, polished by Newton steps on the derivative.
    """
    if a1 == 0.0 and a2 == 0.0:
        return 0.0
    e1, e2 = np.exp(1j * p1), np.exp(1j * p2)
    coeffs = [-2.0 * a2 * e2, -a1 * e1, 0.0, a1 * np.conj(e1), 2.0 * a2 * np.conj(e2)]
    candidates = list(np.angle(np.roots(coeffs))) + [-p1, -0.5 * p2]
    best = -math.inf
    for x in candidates:
        for _ in range(3):
            d1 = -a1 * math.sin(x + p1) - 2.0 * a2 * math.sin(2.0 * x + p2)
            d2 = -a1 * math.cos(x + p1) - 4.0 * a2 * math.cos(2.0 * x + p2)
            if d2 == 0.0:
                break
            x -= d1 / d2
        best = max(best, a1 * math.cos(x + p1) + a2 * math.cos(2.0 * x + p2))
    return best


def measure(pops, coh, eta: float, auto: bool):
    """(S, epsilon, coherences) with the squeezing tone aligned if ``auto``."""
    r10, r0m1, r1m1 = (complex(c) for c in coh)
    single = r10 + r0m1
    if auto and single != 0:
        r1m1 = abs(r1m1) * np.exp(2j * np.angle(single))
    norm1 = math.sqrt(2.0 * (abs(r10) ** 2 + abs(r0m1) ** 2 + abs(r1m1) ** 2))
    eps = eta * float(np.linalg.norm(pops)) / norm1
    pk = peak(COS1 * abs(single), float(np.angle(single)),
              COS2 * abs(r1m1), float(np.angle(r1m1)))
    return eps * pk, eps, (r10, r0m1, r1m1)


# ---------------------------------------------------------------------------
# per-command checks


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _vec_err(actual, expected) -> float:
    a, b = np.asarray(actual, dtype=complex), np.asarray(expected, dtype=complex)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _point(cfg: dict, assignment: dict[str, float]) -> tuple[dict, dict]:
    scen, sig = dict(cfg["scenario"]), dict(cfg["signal"])
    for name, value in assignment.items():
        (scen if name in scen or name == "detuning" else sig)[name] = value
    return scen, sig


def _check_sync(cmd, path: Path) -> tuple[float, int]:
    cfg = cmd.config
    eta = cfg["eta"]
    axes = [axis["name"] for axis in cfg["sweep"]]
    rows = _read_csv(path)
    worst = 0.0
    for row in rows:
        scen, sig = _point(cfg, {n: float(row[n]) for n in axes})
        t01, tm10, tm11, auto = signal_tones(sig)
        pops, coh = first_order(scen, (t01, tm10, tm11))
        s_ref, eps_ref, coh_ref = measure(pops, coh, eta, auto)
        s = float(row["S"])
        written = [complex(float(row[f"rho1_{k}_re"]), float(row[f"rho1_{k}_im"]))
                   for k in ("10", "0m1", "1m1")]
        errs = [
            rel_err(s, s_ref, _S_FLOOR * eta),
            rel_err(float(row["S_over_eta"]), s_ref / eta, _S_FLOOR),
            rel_err(float(row["epsilon"]), eps_ref),
            _vec_err(written, coh_ref),
        ]
        if scen["name"] == "equatorial":
            family = sig["family"]
            zeta, chi = (
                (0.25 * math.pi, 0.0) if family == "semiclassical"
                else (sig["zeta"], sig["chi"])
            )
            closed = equatorial_sync_closed(
                zeta, chi, scen["gamma_g"], scen["gamma_d"], scen["detuning"], eta
            )
            errs.append(rel_err(s, closed, _S_FLOOR * eta))
        worst = max(worst, *errs)
    return worst, len(rows)


def _tongue_reference(cfg: dict, detunings):
    eta = cfg["eta"]
    t01, tm10, tm11, auto = signal_tones(cfg["signal"])
    eps_max, peaks = [], []
    for delta in detunings:
        scen = dict(cfg["scenario"], detuning=float(delta))
        pops, coh = first_order(scen, (t01, tm10, tm11))
        s_ref, eps_ref, _ = measure(pops, coh, eta, auto)
        eps_max.append(eps_ref)
        peaks.append(s_ref / eps_ref)
    return np.array(eps_max), np.array(peaks)


def _tongue_errors(cfg, detunings, strengths, value, masked, eps_max) -> float:
    eta = cfg["eta"]
    ref_eps, ref_peak = _tongue_reference(cfg, detunings)
    worst = float(np.max(np.abs(eps_max - ref_eps) / ref_eps))
    ref_value = strengths[:, None] * ref_peak[None, :]
    ref_masked = strengths[:, None] > ref_eps[None, :]
    # a mask flip only counts when the strength is not at the boundary itself
    near = np.abs(strengths[:, None] - ref_eps[None, :]) <= REL_TOL * ref_eps[None, :]
    if np.any((masked != ref_masked) & ~near):
        worst = max(worst, 1.0)
    keep = ~masked & ~ref_masked
    diff = np.abs(value[keep] - ref_value[keep])
    scale = np.maximum(np.abs(ref_value[keep]), _S_FLOOR * eta)
    if diff.size:
        worst = max(worst, float(np.max(diff / scale)))
    return worst


def _check_tongue(cmd, path: Path) -> tuple[float, int]:
    cfg = cmd.config
    if cmd.fmt == "json":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        strengths = np.array(data["strengths"], dtype=float)
        masked = np.array(data["masked"], dtype=bool)
        value = np.array(
            [[math.nan if v is None else v for v in row] for row in data["S"]]
        )
        err = _tongue_errors(cfg, np.array(data["detunings"]), strengths, value,
                             masked, np.array(data["eps_max"], dtype=float))
        return err, value.size
    rows = _read_csv(path)
    detunings = np.array(sorted({float(r["detuning"]) for r in rows}))
    strengths = np.array(sorted({float(r["epsilon"]) for r in rows}))
    shape = (len(strengths), len(detunings))
    value = np.array([float(r["S"]) for r in rows]).reshape(shape)
    over_eta = np.array([float(r["S_over_eta"]) for r in rows]).reshape(shape)
    masked = np.array([r["masked"] == "true" for r in rows]).reshape(shape)
    eps_max = np.array([float(r["epsilon_max"]) for r in rows]).reshape(shape)[0]
    err = _tongue_errors(cfg, detunings, strengths, value, masked, eps_max)
    err = max(err, _tongue_errors(cfg, detunings, strengths, over_eta * cfg["eta"],
                                  masked, eps_max))
    return err, len(rows)


def _check_optimize(cmd, path: Path) -> tuple[float, int]:
    cfg = cmd.config
    eta, scen = cfg["eta"], cfg["scenario"]
    (row,) = _read_csv(path)
    s = float(row["S"])
    zeta, chi = float(row["zeta"]), float(row["chi"])
    if cfg["signal"]["family"] == "equatorial_angles":
        at_params = equatorial_sync_closed(
            zeta, chi, scen["gamma_g"], scen["gamma_d"], scen["detuning"], eta
        )
        errs = [rel_err(s, at_params), rel_err(s, EQUATORIAL_OPTIMAL_VALUE * eta)]
    else:
        tau = float(row["tau_ratio"])
        tones = (math.cos(zeta) * np.exp(1j * chi), math.sin(zeta) / SQRT2 + 0j,
                 tau / SQRT2 + 0j)
        pops, coh = first_order(scen, tones)
        errs = [rel_err(s, measure(pops, coh, eta, True)[0])]
    errs.append(rel_err(float(row["S_over_eta"]), s / eta))
    return max(errs), 1


def _check_fig5(cmd, path: Path) -> tuple[float, int]:
    ratio = cmd.config["figure"]["gamma_ratio"]
    scen = {"name": "vdp", "gamma_g": 1.0, "gamma_d": ratio, "detuning": 0.0}
    worst = 0.0
    rows = _read_csv(path)
    for row in rows:
        zeta, tau = float(row["zeta"]), float(row["tau_ratio"])
        tones = (complex(math.cos(zeta)), math.sin(zeta) / SQRT2 + 0j, tau / SQRT2 + 0j)
        pops, coh = first_order(scen, tones)
        worst = max(worst, rel_err(float(row["S_over_eta"]),
                                   measure(pops, coh, 1.0, True)[0], _S_FLOOR))
    inset = _read_csv(path.with_name(path.stem + "_inset" + path.suffix))
    for row in inset:
        cyc = dict(scen, gamma_d=float(row["gamma_ratio"]))
        zeta, tau = float(row["zeta_opt"]), float(row["tau_ratio_opt"])
        tones = (complex(math.cos(zeta)), math.sin(zeta) / SQRT2 + 0j, tau / SQRT2 + 0j)
        pops, coh = first_order(cyc, tones)
        worst = max(worst, rel_err(float(row["S_over_eta"]),
                                   measure(pops, coh, 1.0, True)[0]))
    return worst, len(rows) + len(inset)


def _driven_pops(gen, lh, rho0, eps: float) -> np.ndarray:
    rho = rho0 if eps == 0.0 else dense_steady_state(gen + eps * lh)
    return rho.diagonal().real - rho0.diagonal().real


def _check_forcing(cmd, path: Path) -> tuple[float, int]:
    fig = cmd.config["figure"]
    eta = fig.get("eta", 0.1)
    rows = _read_csv(path)
    worst = 0.0
    if cmd.argv[1] == "fig8app":
        scen = {"name": "vdp", "gamma_g": 1.0, "gamma_d": fig["gamma_ratio"]}
        gen = dense_generator(scen)
        rho0 = dense_steady_state(gen)
        lhs = {}
        for row in rows:
            r = float(row["r"])
            if r not in lhs:
                lhs[r] = _commutator_superop(signal_hamiltonian(r, 1.0 / SQRT2, 0j))
            diff = _driven_pops(gen, lhs[r], rho0, float(row["epsilon"]))
            worst = max(worst, rel_err(float(row["p_max"]), float(np.abs(diff).max()),
                                       _POP_FLOOR))
        return worst, len(rows)
    scen = {"name": "equatorial", "gamma_g": 1.0, "gamma_d": fig["gamma_ratio"]}
    tones = (0.5 + 0j, 0.5 + 0j, 0j)
    gen = dense_generator(scen)
    rho0 = dense_steady_state(gen)
    lh = _commutator_superop(signal_hamiltonian(*tones))
    pops, coh = dense_first_order(scen, tones)
    eps_max = measure(pops, coh, eta, False)[1]
    for row in rows:
        eps = float(row["epsilon"])
        diff = _driven_pops(gen, lh, rho0, eps)
        errs = [
            rel_err(float(row["p_avg"]), float(diff[0] - diff[2]), _POP_FLOOR),
            rel_err(float(row["p_max"]), float(np.abs(diff).max()), _POP_FLOOR),
            rel_err(float(row["epsilon_max"]), eps_max),
        ]
        near = abs(eps - eps_max) <= REL_TOL * eps_max
        if (row["forcing"] == "true") != (eps > eps_max) and not near:
            errs.append(1.0)
        worst = max(worst, *errs)
    return worst, len(rows)


def check_command(cmd, path: Path) -> tuple[float, int]:
    """(max relative error, rows written) for one successful command."""
    verb = cmd.argv[0]
    if verb == "sync":
        return _check_sync(cmd, path)
    if verb == "tongue":
        return _check_tongue(cmd, path)
    if verb == "optimize":
        return _check_optimize(cmd, path)
    if cmd.argv[1] == "fig5":
        return _check_fig5(cmd, path)
    return _check_forcing(cmd, path)
