#!/usr/bin/env python3
# When is a signal still a perturbation?  Population-based deformation
# measures can stay blind: the average occupation misses symmetric transfers,
# and even the per-level maximum can dip back toward zero while the cycle is
# strongly forced.  The threshold rule on the correction norm has no such
# blind spots.
import numpy as np

from spinsync import (
    build_liouvillian,
    equatorial_limit_cycle,
    epsilon_for_threshold,
    first_order,
    full_steady_state,
    p_avg,
    p_max,
    semiclassical,
    steady_state,
)
from spinsync.catalog import pmax_failure_sweep

eta = 0.1

# balanced equatorial cycle: symmetric population transfer hides from p_avg
lc = equatorial_limit_cycle(1.0, 1.0)
rho0 = steady_state(build_liouvillian(lc))
signal = semiclassical(0.0)
eps_eta = epsilon_for_threshold(rho0, first_order(lc, signal), eta)
print(f"threshold rule permits eps <= {eps_eta:.4f}")
print("\n  eps     p_avg        p_max")
eps_grid = np.array([0.05, 0.2, 0.5, 1.0, 2.0])
rhos = full_steady_state(lc, signal, eps_grid)  # one stacked exact solve
for eps, pa, pm in zip(eps_grid, p_avg(rhos, rho0), p_max(rhos, rho0)):
    print(f"{eps:5.2f}  {pa:+.2e}  {pm:.4f}")
print("p_avg stays zero at every strength; p_max reveals the deformation.")

# van der Pol cycle with two unequal tones: p_max itself becomes ambiguous
strengths = np.logspace(-2, 3, 101)
sweep = pmax_failure_sweep([0.5, 2.5], strengths, 1.0, 100.0)
for r, data in sweep.items():
    info = data["analysis"]
    if info["has_interior_peak"]:
        print(
            f"\ntone ratio r = {r}: p_max peaks at eps = "
            f"{info['peak_strength']:.2f} (value {info['peak_value']:.3f}), "
            f"dips to {info['dip_value']:.3f}, then rises again;"
            " a single threshold crosses it up to three times."
        )
    else:
        print(f"\ntone ratio r = {r}: p_max grows monotonically to a plateau.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for r, data in sweep.items():
        ax.loglog(strengths, np.maximum(data["curve"], 1e-12), label=f"r = {r}")
    ax.set_xlabel("signal strength")
    ax.set_ylabel("max population change")
    ax.legend()
    fig.tight_layout()
    fig.savefig("forcing_diagnostics.png", dpi=130)
    print("\nwrote forcing_diagnostics.png")
except ImportError:
    print("\nmatplotlib not available; skipped the figure")
