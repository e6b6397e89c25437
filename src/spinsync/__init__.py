"""Synchronization of a spin-1 limit-cycle oscillator to an external signal.

Library layout:

- :mod:`spinsync.spin` -- spin-1 operators, coherent states, Husimi function
  and the two-harmonic phase distribution.
- :mod:`spinsync.lindblad` -- rotationally invariant limit-cycle generators,
  sector decomposition and steady states.
- :mod:`spinsync.signals` -- three-tone signal Hamiltonians.
- :mod:`spinsync.perturbation` -- the first-order kernel (rho0 and the
  tone-to-coherence maps), perturbative orders, the threshold rule for the
  permitted strength, the synchronization measure, exact driven steady
  states and deformation diagnostics.
- :mod:`spinsync.catalog` -- named limit cycles, closed-form benchmarks,
  signal optimization, Arnold tongues and the fundamental bound.
- :mod:`spinsync.errors` -- the base of the errors spinsync raises.
- :mod:`spinsync.cli` -- the ``spinsync`` command-line front end.
- :mod:`spinsync.validate` -- the acceptance checks behind ``spinsync validate``.
"""

from . import catalog, errors, lindblad, perturbation, signals, spin
from .catalog import (
    BoundParams,
    OptimumReport,
    TongueGrid,
    align_squeeze_phase,
    arnold_tongue,
    asymmetric_equatorial_limit_cycle,
    blockade_sync,
    blockade_sync_closed,
    bound_terms,
    cooperativity_limit_cycle,
    equatorial_limit_cycle,
    equatorial_optimal_angles,
    equatorial_sync_closed,
    make_limit_cycle,
    optimize_signal,
    smax,
    tightness_scenario,
    vdp_limit_cycle,
    vdp_oscillator_equivalence,
    vdp_squeeze_sync_closed,
)
from .errors import InvalidValueError, SpinsyncError
from .lindblad import (
    DegenerateLimitCycleError,
    LimitCycleSpec,
    Liouvillian,
    MixedSectorError,
    build_liouvillian,
    sector_of,
    steady_state,
)
from .perturbation import (
    DegenerateSteadyStateError,
    PerturbationResult,
    SingularCoherenceBlockError,
    SyncResult,
    ZeroResponseError,
    coherence_response,
    epsilon_for_threshold,
    first_order,
    full_steady_state,
    hs_norm,
    p_avg,
    p_max,
    perturbation_result,
    perturbative_orders,
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
from .spin import (
    CoherentState,
    PhaseDistributionTerms,
    coherent_state,
    husimi_q,
    max_shifted_phase,
    oscillator_phase_terms,
    phase_distribution_terms,
    rotation_z,
    spin_operators,
)

__version__ = "0.1.0"
