"""Gauge-invariant quantum thermodynamics for degenerate driven systems.

The central object is the twirled (gauge-averaged) state: the projection of
a density matrix onto the commutant of its instantaneous Hamiltonian's
degeneracy structure. Entropy, work, and heat built from it are invariant
under the unitaries that act trivially on the energy observable, which
splits the usual quantities into invariant and coherence parts and yields
fluctuation relations that hold with degenerate spectra.
"""
from .dynamics import (
    ClausiusReport,
    ConnectionCheck,
    EvolutionResult,
    Protocol,
    StreamedRun,
    ThermoLedger,
    WorkHeatSeries,
    clausius_report,
    connection_cross_check,
    evolve,
    integration_tolerance,
    ledger,
    stream_run,
    work_heat_series,
)
from .fluctuation import (
    AbsoluteContinuityError,
    FtReport,
    SampledFtReport,
    TwoPointEnsemble,
    build_ensemble,
    sample_trajectories,
    verify_ft,
)
from .gauge import (
    DegeneracyStructure,
    cluster_spectrum,
    default_cluster_tol_abs,
    sample_gauge_element,
    twirl,
    twirl_oracle,
)
from .invariants import (
    EntropyReport,
    LevelDistribution,
    entropy_report,
    level_distribution,
    noneq_free_energy,
    s_gauge,
    stochastic_entropies,
    stochastic_entropy,
    thermal_level_distribution,
)
from .linalg import (
    ValidationError,
    bures_angle,
    fidelity,
    gibbs_state,
    haar_unitaries,
    haar_unitary,
    relative_entropy,
    von_neumann_entropy,
)
from .models import (
    ModelSpec,
    ThirdLawScan,
    build_protocol,
    curie_weiss,
    curie_weiss_protocol,
    landau_zener,
    landau_zener_protocol,
    random_protocol,
    third_law_scan,
)

__version__ = "0.1.0"

__all__ = [
    "AbsoluteContinuityError",
    "ClausiusReport",
    "ConnectionCheck",
    "DegeneracyStructure",
    "EntropyReport",
    "EvolutionResult",
    "FtReport",
    "LevelDistribution",
    "ModelSpec",
    "Protocol",
    "SampledFtReport",
    "StreamedRun",
    "ThermoLedger",
    "ThirdLawScan",
    "TwoPointEnsemble",
    "ValidationError",
    "WorkHeatSeries",
    "build_ensemble",
    "build_protocol",
    "bures_angle",
    "clausius_report",
    "cluster_spectrum",
    "connection_cross_check",
    "curie_weiss",
    "curie_weiss_protocol",
    "default_cluster_tol_abs",
    "entropy_report",
    "evolve",
    "fidelity",
    "gibbs_state",
    "haar_unitaries",
    "haar_unitary",
    "integration_tolerance",
    "landau_zener",
    "landau_zener_protocol",
    "ledger",
    "level_distribution",
    "noneq_free_energy",
    "random_protocol",
    "relative_entropy",
    "s_gauge",
    "sample_gauge_element",
    "sample_trajectories",
    "stochastic_entropies",
    "stochastic_entropy",
    "stream_run",
    "thermal_level_distribution",
    "third_law_scan",
    "twirl",
    "twirl_oracle",
    "verify_ft",
    "von_neumann_entropy",
    "work_heat_series",
]
