"""Closed-form thermodynamic-limit results for the LMG model.

Everything here is a function of (h, gamma, tau) with at most an explicit
extensive N-dependence; no diagonalization is involved.  The reduced
state of a subsystem fraction tau is controlled by three parameters: a
phase-dependent ratio alpha, the Green's functions G^{++} and G^{--} of
the collective bosonic mode, and the correlation parameter mu >= 1 that
sets the thermal-like spectrum of the reduced density matrix.  All three
are elementary functions of h, so the susceptibilities take their
h-derivatives exactly, by the chain rule; no step size is involved.

Both the global and reduced susceptibilities diverge at the critical
point h = 1; evaluations inside a small guard window around it raise
instead of returning silent infinities.

Note on the broken phase: alpha = sqrt((1-h^2)/(1-gamma)) exceeds 1 once
1 - h^2 > 1 - gamma (e.g. gamma = 0.5, h = 0).  The closed forms are
evaluated as written in that regime; the susceptibilities stay real and
positive there.
"""

from __future__ import annotations

import math

import numpy as np

CRITICAL_GUARD = 1e-6


class CriticalPointError(ValueError):
    """Evaluation requested inside the singular window around h = 1."""


class IsotropicPointError(ValueError):
    """gamma = 1 is outside the supported anisotropy range."""


def _check_field(h: float) -> None:
    if not (math.isfinite(h) and h >= 0.0):
        raise ValueError(f"field must be finite and >= 0, got {h}")


def _check_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"particle count must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"particle count must be >= 2, got {n}")


def _check_anisotropy(gamma: float) -> None:
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"anisotropy must lie in [0, 1], got {gamma}")


def _check_alpha(alpha_value: float) -> None:
    if not (math.isfinite(alpha_value) and alpha_value > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha_value}")


def _check_tau(tau: float) -> None:
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must lie in (0, 1], got {tau}")


def _check_point_args(h: float, gamma: float) -> None:
    _check_field(h)
    if not (0.0 <= gamma < 1.0):
        if gamma == 1.0:
            raise IsotropicPointError("gamma = 1 is singular for the closed forms")
        raise ValueError(f"anisotropy must lie in [0, 1), got {gamma}")
    if abs(h - 1.0) < CRITICAL_GUARD:
        raise CriticalPointError(
            f"h = {h} is within {CRITICAL_GUARD:.0e} of the critical point"
        )


def alpha(h: float, gamma: float) -> float:
    """Phase-dependent ratio entering the Green's functions.

    sqrt((h-1)/(h-gamma)) in the symmetric phase, sqrt((1-h^2)/(1-gamma))
    in the broken phase.  Vanishes as h -> 1 from either side.
    """
    _check_point_args(h, gamma)
    if h > 1.0:
        return math.sqrt((h - 1.0) / (h - gamma))
    return math.sqrt((1.0 - h * h) / (1.0 - gamma))


def mu(alpha_value: float, tau: float) -> float:
    """Correlation parameter of the reduced state, >= 1.

    mu = alpha^{-1/2} sqrt([tau*alpha + (1-tau)] [tau + alpha*(1-tau)]);
    exactly 1 for tau = 1 (pure subsystem) and diverging like
    sqrt(tau(1-tau)/alpha) as alpha -> 0.
    """
    _check_alpha(alpha_value)
    _check_tau(tau)
    if tau == 1.0:
        return 1.0
    prod = (tau * alpha_value + (1.0 - tau)) * (tau + alpha_value * (1.0 - tau))
    return math.sqrt(prod) / math.sqrt(alpha_value)


def greens(alpha_value: float, tau: float) -> tuple[float, float]:
    """Green's functions (G^{++}, G^{--}) of the subsystem mode.

    G^{++} = 1 + (1/alpha - 1) tau and G^{--} = (1 - alpha) tau - 1.
    They satisfy -G^{++} G^{--} = mu^2 identically.
    """
    _check_alpha(alpha_value)
    _check_tau(tau)
    g_pp = 1.0 + (1.0 / alpha_value - 1.0) * tau
    g_mm = (1.0 - alpha_value) * tau - 1.0
    return g_pp, g_mm


def chi_g_analytic(h: float, gamma: float, n: int) -> float:
    """Thermodynamic-limit global fidelity susceptibility.

    Broken phase (h < 1):
        N / (4 sqrt((1-h^2)(1-gamma)))
        + h^2 (h^2-gamma)^2 / (32 (1-gamma)^2 (1-h^2)^2)
    Symmetric phase (h > 1):
        (1-gamma)^2 / (32 (h-gamma)^2 (h-1)^2)

    Extensive (grows with N) below the transition, intensive above it.
    """
    _check_point_args(h, gamma)
    _check_size(n)
    if h < 1.0:
        one_m_h2 = 1.0 - h * h
        extensive = n / (4.0 * math.sqrt(one_m_h2 * (1.0 - gamma)))
        intensive = (
            h * h * (h * h - gamma) ** 2
            / (32.0 * (1.0 - gamma) ** 2 * one_m_h2**2)
        )
        return extensive + intensive
    return (1.0 - gamma) ** 2 / (32.0 * (h - gamma) ** 2 * (h - 1.0) ** 2)


def _alpha_derivative(h: float, gamma: float, alpha_value: float) -> float:
    """d alpha / dh on either side of the transition, given alpha(h, gamma)."""
    if h > 1.0:
        return (1.0 - gamma) / (2.0 * alpha_value * (h - gamma) ** 2)
    return -h / ((1.0 - gamma) * alpha_value)


def chi_r_analytic(h: float, gamma: float, tau: float, n: int) -> float:
    """Thermodynamic-limit reduced fidelity susceptibility.

    chi = (d_h mu)^2 / (4 (mu^2 - 1))
        + mu^2 / (4 (mu^2 + 1)) * [d_h ln|mu / G^{++}|]^2

    plus, in the broken phase only, the extensive term
    N tau / (4 G^{++} (1 - h^2)), whose G^{++} enters through the mode's
    Bogoliubov angle, e^{2 varphi} = mu / G^{++}; the reduced spectrum
    decays as e^{-k epsilon}, epsilon = ln((mu+1)/(mu-1)).  The
    h-derivatives are exact, by the chain rule through alpha' = d_h alpha.
    With mu^2 = tau^2 + (1-tau)^2 + tau(1-tau)(alpha + 1/alpha) the first term
    is tau(1-tau)(1+alpha)^2 alpha'^2 / (16 mu^2 alpha^3), which has no
    0/0 where mu = 1 (tau = 1, or alpha = 1 on the curve h^2 = gamma),
    and d_h ln|mu / G^{++}| =
    alpha' [tau(1-tau)(alpha^2-1) / (2 alpha^2 mu^2) + tau / (alpha^2 G^{++})].
    At tau = 1 this is exactly chi_g in the symmetric phase.
    """
    _check_size(n)
    _check_tau(tau)
    a = alpha(h, gamma)
    d_alpha = _alpha_derivative(h, gamma, a)
    mu_sq = mu(a, tau) ** 2
    g_pp = greens(a, tau)[0]
    mix = tau * (1.0 - tau)
    pop_term = mix * (1.0 + a) ** 2 * d_alpha**2 / (16.0 * mu_sq * a**3)
    d_log_ratio = d_alpha * (
        mix * (a * a - 1.0) / (2.0 * a * a * mu_sq) + tau / (a * a * g_pp)
    )
    chi = pop_term + (mu_sq / (4.0 * (mu_sq + 1.0))) * d_log_ratio**2
    if h < 1.0:
        chi += n * tau / (4.0 * g_pp * (1.0 - h * h))
    return chi


def entropy_analytic(h: float, gamma: float, tau: float) -> float:
    """Thermodynamic-limit entanglement entropy of the tau-fraction block.

    E = ((mu+1)/2) ln((mu+1)/2) - ((mu-1)/2) ln((mu-1)/2) + x ln 2,
    with x = 1 in the broken phase (twofold ground degeneracy) and x = 0
    in the symmetric phase.  The mu = 1 limit returns x ln 2 exactly.
    """
    _check_tau(tau)
    mu0 = mu(alpha(h, gamma), tau)
    degeneracy = math.log(2.0) if h < 1.0 else 0.0
    if mu0 == 1.0:
        return degeneracy
    up = 0.5 * (mu0 + 1.0)
    down = 0.5 * (mu0 - 1.0)
    return up * math.log(up) - down * math.log(down) + degeneracy


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of ln y against ln x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points for a slope fit")
    coeffs = np.polyfit(lx, ly, 1)
    return float(coeffs[0])
