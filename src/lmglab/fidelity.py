"""Uhlmann fidelity, Bures distance, and fidelity susceptibility.

The fidelity susceptibility chi is the leading coefficient of the
fidelity between neighboring states, F = 1 - chi * delta^2 / 2.  Two
independent routes are provided for reduced (mixed) states:

* finite difference: chi = 2 [1 - F(rho(h - d/2), rho(h + d/2))] / d^2,
* spectral: the Bures-metric sum over the eigensystem of rho(h) with
  d_h rho approximated by a central difference.

All fidelity paths use density matrices or absolute overlaps, so
eigenvector sign flips between neighboring h cannot corrupt results.
Both routes run per parity block over the windows in which the reduced
density matrices hold their Schmidt factors (see ``lmglab.reduced``): the
fidelity over the overlap of two windows, the spectral sum over the union
of three.  The fidelity is the nuclear norm of the product of the two
factors, which are purifications of the blocks, so it decomposes neither
matrix; the finite-difference route decomposes only rho(h), for the
entropy.  The spectral sum uses the eigensystem of rho(h), the thin SVD of
its Schmidt factors, whose squared singular values are never negative, and
applies d_rho to its modes through the factors of rho(h +- delta): no
route forms a density matrix as a dense array.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import DickeGroundState, ModelParams, ground_state
from .reduced import Bipartition, ReducedDensity, reduce_state, von_neumann_entropy

# Pairs closer than this in eigenvalue are skipped in the spectral sum;
# their Bures weight vanishes quadratically, so skipping is exact to
# roundoff order.
DEGENERACY_TOL = 1e-10
# Modes below this population are dropped from the (dp)^2/p term.
POPULATION_CUTOFF = 1e-12
# eta may exceed 1 only by numerical slack.
ETA_SLACK = 1e-6
# sweep_point's routes for chi_r, which the CLI calls its numeric methods.
NUMERIC_METHODS = ("finite-difference", "spectral")


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
    and the sum runs over the two parity blocks.  Per block, the Schmidt
    factors A and B of rho_b = A A^T and sigma_b = B B^T are purifications
    (A. Uhlmann, Rep. Math. Phys. 9, 273 (1976); R. Jozsa, J. Mod. Opt.
    41, 2315 (1994)): with A = U s V^T, sqrt(rho_b) = U s U^T, so the
    singular values of sqrt(rho_b) sqrt(sigma_b) are those of A^T B, and
    F_b = ||A_K^T B_K||_*, where A_K and B_K are the factors' rows on the
    overlap K of their windows.
    Their columns need not align.  The sum is taken over the singular
    values of R B_K, with R the triangular factor of A_K^T = Q R, a core
    of at most K rows; no decomposition of rho or sigma is needed.  The
    result, a sum of singular values, is clipped to at most 1 and is
    symmetric in its arguments to ~1e-10; arguments of different subsystem
    size raise ValueError.
    """
    _check_same_size(rho, sigma)
    fid = 0.0
    for (o_r, a), (o_s, b) in zip(rho.windows, sigma.windows):
        # Rows outside either window contribute nothing; Q has orthonormal
        # columns and does not change singular values.
        lo = max(o_r, o_s)
        hi = max(lo, min(o_r + len(a), o_s + len(b)))
        core = np.linalg.qr(a[lo - o_r:hi - o_r].T, mode="r") @ b[lo - o_s:hi - o_s]
        fid += float(np.linalg.svd(core, compute_uv=False).sum())
    return min(fid, 1.0)


def _check_same_size(*rhos: ReducedDensity) -> None:
    if len({rho.m_sub for rho in rhos}) > 1:
        sizes = " vs ".join(str(rho.m_sub + 1) for rho in rhos)
        raise ValueError(f"dimension mismatch: {sizes}")


def _check_delta(delta: float) -> None:
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and positive, got {delta}")
    # A normal delta**2 keeps chi = 2 (1 - F) / delta**2 finite.
    if not sys.float_info.min <= delta * delta <= sys.float_info.max:
        raise ValueError(f"delta {delta!r} has a square that is not a normal float")


def bures_distance_sq(a, b) -> float:
    """Squared Bures distance 2 [1 - F(a, b)] of two pure or two reduced states.

    For two coefficient vectors F = |<a|b>|, so neither vector's sign
    matters; for two ReducedDensity arguments F is ``uhlmann_fidelity``.
    F is clipped to at most 1, so the distance is never negative.
    """
    fid = uhlmann_fidelity(a, b) if isinstance(a, ReducedDensity) else abs(float(np.dot(a, b)))
    return 2.0 * (1.0 - min(fid, 1.0))


def fs_finite_difference(
    value_at: Callable[[float], object], h: float, delta: float
) -> float:
    """Susceptibility bures_distance_sq / delta^2 of states a step delta apart.

    ``value_at`` maps a field value to either a pure-state coefficient
    vector or a ReducedDensity (see ``bures_distance_sq``).  The stencil
    is symmetric, h +- delta/2, except at the domain boundary h = 0 where
    it degrades to the one-sided pair (0, delta).  A delta that is not
    finite and positive, or whose square is not a normal float, raises
    ValueError before ``value_at`` is called.
    """
    _check_delta(delta)
    lo = h - 0.5 * delta
    hi = h + 0.5 * delta
    if lo < 0.0:
        lo, hi = 0.0, delta
    chi = bures_distance_sq(value_at(lo), value_at(hi)) / delta**2
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
    sums run over the pairs within each block.  d_rho is nonzero only on
    the union of the three windows, so each block's sums run there.  With
    U the modes of rho(h) (the left singular vectors of its factor) and A_+
    and A_- the factors of rho(h +- delta), all placed on the union window,

        d_rho U = (A_+ (A_+^T U) - A_- (A_-^T U)) / (2 delta),

    so d_rho is never formed, and X = U^T d_rho U.  The window's other
    basis vectors are null modes (p = 0): a pair of two is skipped, and a
    mode with p_n >= 1e-10 paired with each of them, both ways round,
    adds ||(d_rho U - U X)_n||^2 / p_n in all, the weight of d_rho psi_n
    outside rho(h)'s modes.  Arguments of different subsystem size raise
    ValueError.  ``h`` is the field at the stencil's centre; it only
    labels the FidelityError raised when chi is not finite.
    """
    _check_delta(delta)
    _check_same_size(rho_minus, rho, rho_plus)
    chi = 0.0
    for r, (offset, u, p) in enumerate(rho.spectra):
        if not len(u):
            continue
        windows = ((offset, u), rho_plus.windows[r], rho_minus.windows[r])
        lo = min(o for o, a in windows if len(a))
        size = max(o + len(a) for o, a in windows if len(a)) - lo

        def on_union(o, a):
            placed = np.zeros((size, a.shape[1]))
            placed[o - lo:o - lo + len(a)] = a
            return placed

        modes, a_plus, a_minus = (on_union(o, a) for o, a in windows)
        d_modes = (a_plus @ (a_plus.T @ modes) - a_minus @ (a_minus.T @ modes)) / (
            2.0 * delta
        )
        overlap = modes.T @ d_modes

        dp = np.diag(overlap)
        occupied = p >= POPULATION_CUTOFF
        chi += float((dp[occupied] ** 2 / (4.0 * p[occupied])).sum())

        pair_mask = np.abs(p[:, None] - p[None, :]) >= DEGENERACY_TOL
        np.fill_diagonal(pair_mask, False)
        denom = p[:, None] + p[None, :]
        chi += float(0.5 * (overlap[pair_mask] ** 2 / denom[pair_mask]).sum())

        # Each mode's pairs with the null modes, whose p = 0.
        weighted = p >= DEGENERACY_TOL
        outside = (d_modes - modes @ overlap)[:, weighted]
        chi += float((np.einsum("ij,ij->j", outside, outside) / p[weighted]).sum())

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
    cache: dict | None = None,
) -> SweepPoint:
    """Global and reduced susceptibility, eta and entropy at one h.

    ``delta=None`` selects the automatic step and re-evaluates chi_g at
    delta/2, warning if the two differ by more than 0.1%.  chi_g always
    comes from pure-state overlaps; ``method`` selects how chi_r is
    computed from the reduced matrices.
    A stencil across a k-parity level crossing raises FidelityError.

    Each distinct stencil field is solved once per call.  ``cache``, a dict
    this call reads and fills, shares work between calls: it holds ground
    states by their ``ModelParams``, and the reduced density matrices of
    one point and subsystem size, which that size's methods share.  Before
    it reduces, a call drops every matrix of another (params, part).  Every
    lookup is checked against the k-parity sector of the first field this
    call looks up, so a shared cache changes no result and no error.
    """
    if params.n != part.n:
        raise ValueError(f"bipartition n={part.n} does not match params n={params.n}")
    if method not in NUMERIC_METHODS:
        raise ValueError(f"unknown method {method!r}")
    step = auto_delta(params.h) if delta is None else float(delta)

    # The chi_g and chi_r stencils share their fields.
    cache = {} if cache is None else cache
    first = None  # the state of the first field this call looks up

    def state_at(h: float) -> DickeGroundState:
        nonlocal first
        key = replace(params, h=h)
        if key not in cache:
            cache[key] = ground_state(key)
        state = cache[key]
        if first is None:
            first = state
        elif state.sector != first.sector:
            # Across a k-parity level crossing the states are orthogonal.
            msg = f"stencil field h={h} lies across a k-parity level crossing"
            raise FidelityError(msg, params.h, step)
        return state

    def coefficients_at(h: float) -> np.ndarray:
        return state_at(h).coefficients

    chi_g = fs_finite_difference(coefficients_at, params.h, step)
    if delta is None:
        chi_half = fs_finite_difference(coefficients_at, params.h, 0.5 * step)
        scale = max(abs(chi_g), abs(chi_half), 1e-300)
        if abs(chi_g - chi_half) / scale > 1e-3:
            warnings.warn(
                f"chi_g drifts {abs(chi_g - chi_half) / scale:.2e} when halving "
                f"delta={step:.3e} at h={params.h}; step may be too coarse",
                DeltaProbeWarning,
                stacklevel=2,
            )

    # A ground state's key is its ModelParams, a reduction's (params, part, field).
    for key in [key for key in cache if isinstance(key, tuple) and key[:2] != (params, part)]:
        del cache[key]

    def reduced_at(h: float) -> ReducedDensity:
        state = state_at(h)
        key = (params, part, h)
        if key not in cache:
            cache[key] = reduce_state(state, part)
        return cache[key]

    rho_mid = reduced_at(params.h)
    entropy = von_neumann_entropy(rho_mid)

    if method == "finite-difference":
        chi_r = fs_finite_difference(reduced_at, params.h, step)
    else:
        # Forward stencil at the h = 0 boundary: rho(h) is its lower point.
        forward = params.h - step < 0.0
        minus = rho_mid if forward else reduced_at(params.h - step)
        spacing = 0.5 * step if forward else step
        chi_r = fs_spectral(minus, rho_mid, reduced_at(params.h + step), spacing, params.h)

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
    # The routes return finite chi, chi_r >= 0 and chi_g > 0, so eta is
    # nonnegative or +inf, which the bound rejects.
    if not math.isfinite(point.entropy):
        raise FidelityError("entropy is not finite", point.h, point.delta)
    if not (0.0 <= point.eta <= 1.0 + ETA_SLACK):
        raise FidelityError(
            f"eta = {point.eta} outside [0, 1 + {ETA_SLACK}]", point.h, point.delta
        )

