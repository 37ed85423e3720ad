"""zenodense: superdense-coding simulation and analytics on Zeno-gate Bell analyzers.

The library models three complete Bell-state analyzers (dual quantum-Zeno,
IFM-chain, and single quantum-Zeno), the optical primitives they are built
from, and the resulting throughput efficiency of superdense coding, both in
closed form and by reproducible Monte-Carlo sampling.
"""

from .analyzers import (
    ALL_BELL_STATES,
    AnalyzerKind,
    AnalyzerOutcome,
    BellState,
    DetectorPair,
    PHOTON_LOST,
    analyze,
    click_pair,
    qz_ancilla_survival,
    qz_collapsed_state,
    semi_counterfactual_stats,
    survival_probability,
)
from .bell import COMPOSITE_LABELS
from .core import (
    DensityMatrix,
    Operator,
    OutcomeDistribution,
    PureState,
    hadamard,
    shot_stream,
)
from .ifm import AbsorberState, blocked_survival, ifm_detect, ifm_evolve
from .metrics import (
    EXPERIMENTAL_BENCHMARK_R,
    EfficiencyCurve,
    efficiency_curve,
    min_n_for_target,
    p_survival,
    r_analytic,
    resource_counts,
)
from .optics import beam_splitter, cycle_angle, pbs_route, polarization_rotator
from .protocol import (
    MESSAGES,
    EfficiencyEstimate,
    RunOutcome,
    decode,
    encode,
    run_protocol,
    simulate,
)
from .zeno import (
    DqzOutcome,
    cycle_survival,
    dqz_apply,
    dqz_asymptotic,
    dqz_cycle_operator,
    dqz_element_sim,
    dqz_element_survival,
    post_gate_target,
    qz_gate,
)

__version__ = "0.1.0"
