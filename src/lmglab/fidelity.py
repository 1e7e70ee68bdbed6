"""Uhlmann fidelity, Bures distance, and fidelity susceptibility.

The fidelity susceptibility chi is the leading coefficient of the
fidelity between neighboring states, F = 1 - chi * delta^2 / 2.  Two
independent routes are provided for reduced (mixed) states:

* finite difference: chi = 2 [1 - F(rho(h - d/2), rho(h + d/2))] / d^2,
* spectral: the Bures-metric sum over the eigensystem of rho(h) with
  d_h rho approximated by a central difference.

All fidelity paths use density matrices or absolute overlaps, so
eigenvector sign flips between neighboring h cannot corrupt results.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import DickeGroundState, ModelParams, ground_state
from .reduced import (
    Bipartition,
    ReducedDensity,
    parity_blocks,
    reduce_state,
    von_neumann_entropy,
)

# Pairs closer than this in eigenvalue are skipped in the spectral sum;
# their Bures weight vanishes quadratically, so skipping is exact to
# roundoff order.
DEGENERACY_TOL = 1e-10
# Modes below this population are dropped from the (dp)^2/p term.
POPULATION_CUTOFF = 1e-12
# eta may exceed 1 only by numerical slack.
ETA_SLACK = 1e-6


class FidelityError(RuntimeError):
    """Non-finite or invalid intermediate in a susceptibility evaluation."""

    def __init__(self, message: str, h: float, delta: float):
        super().__init__(f"{message} [h={h}, delta={delta}]")
        self.h = h
        self.delta = delta


class DeltaProbeWarning(UserWarning):
    """Finite-difference step robustness probe detected drift above 0.1%."""


@dataclass(frozen=True)
class SweepPoint:
    """Numeric results at one field value."""

    h: float
    delta: float
    chi_g: float
    chi_r: float
    eta: float
    entropy: float
    method: str


def uhlmann_fidelity(rho: ReducedDensity, sigma: ReducedDensity) -> float:
    """Mixed-state fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)).

    The square roots of the eigenvalues of sqrt(rho) sigma sqrt(rho) are
    exactly the singular values of sqrt(rho) sqrt(sigma), so the sum is
    taken over those singular values.  This matters numerically: the
    reduced matrices here are nearly low rank, and taking sqrt of
    eigenvalue-level roundoff (~1e-16 per spurious mode) would bury the
    1 - F ~ chi*delta^2/2 signal under ~1e-8 noise per mode.  Both
    arguments are parity-block diagonal, so sqrt(rho) sqrt(sigma) is too,
    and the sum runs over the singular values of the two parity blocks.
    Singular values are nonnegative by construction (the clamp at zero is
    built in); the result is clipped into [0, 1].  Symmetric in its
    arguments to ~1e-10.  Both arguments are ReducedDensity, whose cached
    eigendecomposition enforces the PSD floor and clamps at zero.
    """
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValueError(
            f"dimension mismatch: {len(rho.matrix)} vs {len(sigma.matrix)}"
        )
    fid = 0.0
    for (w_r, v_r), (w_s, v_s) in zip(rho.blocks, sigma.blocks):
        # sqrt(rho_b) sqrt(sigma_b) = v_r [sqrt(w_r) (v_r^T v_s) sqrt(w_s)] v_s^T;
        # the orthogonal outer factors do not change singular values.
        core = np.sqrt(w_r)[:, None] * (v_r.T @ v_s) * np.sqrt(w_s)[None, :]
        fid += float(np.linalg.svd(core, compute_uv=False).sum())
    return min(max(fid, 0.0), 1.0)


def bures_distance_sq(rho: ReducedDensity, sigma: ReducedDensity) -> float:
    """Squared Bures distance 2 [1 - F(rho, sigma)]."""
    return 2.0 * (1.0 - uhlmann_fidelity(rho, sigma))


def fs_finite_difference(
    value_at: Callable[[float], object], h: float, delta: float
) -> float:
    """Susceptibility from the fidelity of states a step delta apart.

    ``value_at`` maps a field value to either a pure-state coefficient
    vector (fidelity is then the absolute overlap) or a ReducedDensity.
    The stencil is symmetric, h +- delta/2, except at the domain boundary
    h = 0 where it degrades to the one-sided pair (0, delta).
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    lo = h - 0.5 * delta
    hi = h + 0.5 * delta
    if lo < 0.0:
        lo, hi = 0.0, delta
    a = value_at(lo)
    b = value_at(hi)
    if isinstance(a, np.ndarray) and a.ndim == 1:
        fid = min(abs(float(np.dot(a, np.asarray(b)))), 1.0)
    else:
        fid = uhlmann_fidelity(a, b)
    chi = 2.0 * (1.0 - fid) / delta**2
    if not math.isfinite(chi):
        raise FidelityError(f"non-finite susceptibility {chi}", h, delta)
    return chi


def fs_spectral(
    rho_minus: ReducedDensity,
    rho: ReducedDensity,
    rho_plus: ReducedDensity,
    delta: float,
    h: float = math.nan,
) -> float:
    """Susceptibility from the Bures-metric sum over the spectrum of rho.

    With {p_n, psi_n} the eigensystem of rho(h) and
    d_rho = (rho(h+delta) - rho(h-delta)) / (2 delta),

        chi = sum_n (d_h p_n)^2 / (4 p_n)
            + (1/2) sum_{n != m} |<psi_n|d_rho|psi_m>|^2 / (p_n + p_m),

    using d_h p_n = <psi_n|d_rho|psi_n>.  Modes with p_n < 1e-12 are
    dropped from the first term and pairs with |p_n - p_m| < 1e-10 are
    skipped in the second.  All three matrices are parity-block diagonal,
    so overlaps between the two parity blocks are exactly zero and both
    sums run over the pairs within each block, with d_rho's block in that
    block's eigenbasis.  ``h`` is the field at the stencil's centre; it
    only labels the FidelityError raised when chi is not finite.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    chi = 0.0
    for (w, v), plus, minus in zip(
        rho.blocks, parity_blocks(rho_plus.matrix), parity_blocks(rho_minus.matrix)
    ):
        overlap = v.T @ ((plus - minus) / (2.0 * delta)) @ v

        dp = np.diag(overlap)
        occupied = w >= POPULATION_CUTOFF
        chi += float((dp[occupied] ** 2 / (4.0 * w[occupied])).sum())

        pair_mask = np.abs(w[:, None] - w[None, :]) >= DEGENERACY_TOL
        np.fill_diagonal(pair_mask, False)
        denom = w[:, None] + w[None, :]
        chi += float(0.5 * (overlap[pair_mask] ** 2 / denom[pair_mask]).sum())

    if not math.isfinite(chi):
        raise FidelityError(f"non-finite susceptibility {chi}", h, delta)
    return chi


def auto_delta(h: float) -> float:
    """Default finite-difference step 1e-3 * max(1, |h|)."""
    return 1e-3 * max(1.0, abs(h))


def sweep_point(
    params: ModelParams,
    part: Bipartition,
    delta: float | None = None,
    method: str = "finite-difference",
    probe: bool | None = None,
) -> SweepPoint:
    """Global and reduced susceptibility, eta and entropy at one h.

    ``delta=None`` selects the automatic step and (unless ``probe`` is
    forced off) re-evaluates chi_g at delta/2, warning if the two differ
    by more than 0.1%.  chi_g always comes from pure-state overlaps;
    ``method`` selects how chi_r is computed from the reduced matrices.
    """
    if params.n != part.n:
        raise ValueError(f"bipartition n={part.n} does not match params n={params.n}")
    if method not in ("finite-difference", "spectral"):
        raise ValueError(f"unknown method {method!r}")
    use_auto = delta is None
    step = auto_delta(params.h) if use_auto else float(delta)
    if probe is None:
        probe = use_auto

    # Ground states of this call by field value: the chi_g and chi_r
    # stencils share their fields, so each distinct h is solved once.
    states: dict[float, DickeGroundState] = {}

    def state_at(h: float) -> DickeGroundState:
        if h not in states:
            states[h] = ground_state(replace(params, h=h))
        return states[h]

    def coefficients_at(h: float) -> np.ndarray:
        return state_at(h).coefficients

    chi_g = fs_finite_difference(coefficients_at, params.h, step)
    if probe:
        chi_half = fs_finite_difference(coefficients_at, params.h, 0.5 * step)
        scale = max(abs(chi_g), abs(chi_half), 1e-300)
        if abs(chi_g - chi_half) / scale > 1e-3:
            warnings.warn(
                f"chi_g drifts {abs(chi_g - chi_half) / scale:.2e} when halving "
                f"delta={step:.3e} at h={params.h}; step may be too coarse",
                DeltaProbeWarning,
                stacklevel=2,
            )

    def reduced_at(h: float) -> ReducedDensity:
        return reduce_state(state_at(h), part)

    rho_mid = reduced_at(params.h)
    entropy = von_neumann_entropy(rho_mid)

    if method == "finite-difference":
        chi_r = fs_finite_difference(reduced_at, params.h, step)
    else:
        if params.h - step < 0.0:
            # Forward stencil at the h = 0 boundary: pass rho(h) as the
            # lower point with half the spacing.
            chi_r = fs_spectral(
                rho_mid, rho_mid, reduced_at(params.h + step), 0.5 * step, params.h
            )
        else:
            chi_r = fs_spectral(
                reduced_at(params.h - step),
                rho_mid,
                reduced_at(params.h + step),
                step,
                params.h,
            )

    if chi_g <= 0.0:
        raise FidelityError(
            f"chi_g = {chi_g} is not positive; eta undefined", params.h, step
        )
    eta = chi_r / chi_g
    point = SweepPoint(
        h=params.h,
        delta=step,
        chi_g=chi_g,
        chi_r=chi_r,
        eta=eta,
        entropy=entropy,
        method=method,
    )
    _check_point(point)
    return point


def _check_point(point: SweepPoint) -> None:
    for name in ("chi_g", "chi_r", "eta", "entropy"):
        if not math.isfinite(getattr(point, name)):
            raise FidelityError(f"{name} is not finite", point.h, point.delta)
    if point.chi_r < 0.0 or point.chi_g < 0.0:
        raise FidelityError("negative susceptibility", point.h, point.delta)
    if not (0.0 <= point.eta <= 1.0 + ETA_SLACK):
        raise FidelityError(
            f"eta = {point.eta} outside [0, 1 + {ETA_SLACK}]", point.h, point.delta
        )

