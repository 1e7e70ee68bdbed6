"""Exact-diagonalization laboratory for fidelity susceptibility and
entanglement in the Lipkin-Meshkov-Glick model."""

from .analytic import (
    AnalyticPoint,
    CriticalPointError,
    IsotropicPointError,
    alpha,
    analytic_point,
    chi_g_analytic,
    chi_r_analytic,
    entropy_analytic,
    greens,
    loglog_slope,
    mu,
    theta0,
)
from .fidelity import (
    FidelityError,
    SweepPoint,
    auto_delta,
    bures_distance_sq,
    fs_finite_difference,
    fs_spectral,
    sweep_point,
    uhlmann_fidelity,
)
from .model import (
    BandedHamiltonian,
    DickeGroundState,
    EigensolverError,
    ModelParams,
    build_hamiltonian,
    energy_density,
    ground_state,
)
from .reduced import (
    Bipartition,
    ReducedDensity,
    ReducedDensityError,
    reduce_state,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticPoint",
    "BandedHamiltonian",
    "Bipartition",
    "CriticalPointError",
    "DickeGroundState",
    "EigensolverError",
    "FidelityError",
    "IsotropicPointError",
    "ModelParams",
    "ReducedDensity",
    "ReducedDensityError",
    "SweepPoint",
    "alpha",
    "analytic_point",
    "auto_delta",
    "build_hamiltonian",
    "bures_distance_sq",
    "chi_g_analytic",
    "chi_r_analytic",
    "energy_density",
    "entropy_analytic",
    "fs_finite_difference",
    "fs_spectral",
    "greens",
    "ground_state",
    "loglog_slope",
    "mu",
    "reduce_state",
    "sweep_point",
    "theta0",
    "uhlmann_fidelity",
    "von_neumann_entropy",
    "__version__",
]
