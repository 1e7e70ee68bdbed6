"""Exact-diagonalization laboratory for fidelity susceptibility and
entanglement in the Lipkin-Meshkov-Glick model.

The public names load their submodule on first access (PEP 562), so
``import lmglab`` alone loads no numpy and leaves the environment as it
is; ``lmglab.cli`` sets the BLAS thread count before it loads numpy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    **dict.fromkeys((
        "CriticalPointError",
        "IsotropicPointError",
        "alpha",
        "chi_g_analytic",
        "chi_r_analytic",
        "entropy_analytic",
        "greens",
        "loglog_slope",
        "mu",
    ), "analytic"),
    **dict.fromkeys((
        "FidelityError",
        "SweepPoint",
        "auto_delta",
        "bures_distance_sq",
        "fs_finite_difference",
        "fs_spectral",
        "sweep_point",
        "uhlmann_fidelity",
    ), "fidelity"),
    **dict.fromkeys((
        "DickeGroundState",
        "EigensolverError",
        "ModelParams",
        "ground_state",
    ), "model"),
    **dict.fromkeys((
        "Bipartition",
        "ReducedDensity",
        "ReducedDensityError",
        "reduce_state",
        "von_neumann_entropy",
    ), "reduced"),
}

__all__ = sorted(_SUBMODULE) + ["__version__"]


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
