"""Invariant-based shortcut-to-adiabaticity pulse design and verification
for chainwise-coupled three- and five-level molecular schemes."""

from .qcore import (
    DecayVector,
    DensityMatrix,
    HamiltonianRule,
    IntegrationError,
    StateTrajectory,
    StateVector,
    TimeGrid,
    fidelity,
    population,
    propagate_density,
    propagate_state,
)
from .schemes import (
    EffThreeLevel,
    EffTwoLevel,
    LambdaParams,
    MParams,
    RegimeWarning,
    StarkBalanceError,
    adiabaticity_margin,
    build_lambda,
    build_m,
    reduce_lambda,
    reduce_m,
    stack_channels,
)
from .invariants import (
    ThreeLevelAux,
    TwoLevelAux,
    eigenstates2,
    eigenstates3,
    invariant2,
    invariant2_rule,
    invariant3,
    invariant3_rule,
    invariant_residual,
    lr_phase,
    solve_aux_polynomials,
)
from .protocols import (
    DeltaTwoMode,
    PulseSchedule,
    Segment,
    build_roundtrip,
    design_chainwise,
    design_protocol1,
    design_protocol2,
    effective_rule,
    hamiltonian_rule,
    peak_amplitude,
)
from .sweeps import (
    GridMap,
    ScenarioResult,
    SweepSpec,
    run_scenario,
    sweep_efficiency,
    sweep_peak_amplitude,
)

__version__ = "0.1.0"
