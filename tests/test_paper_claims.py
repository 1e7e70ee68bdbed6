"""The paper's two claims, checked through the library.

Claim 1 (off the transition): the finite-N susceptibilities approach the
thermodynamic closed forms as 1/N, and eta = chi_r / chi_g collapses onto
an N-independent curve of tau.  Claim 2 (at h = 1): eta rises toward 1
with N, and the entanglement entropy grows by less than (1/6) ln 2 per
doubling of N, the gain that the closed form's -(1/4) ln|h - 1| gives over
the N^(-2/3) critical window (Dusuel and Vidal, PRL 93, 237204 (2004)).

Every point is finite-difference at delta = 1e-4 and gamma = 0.5.  The
bounds are the theory's, not fits to the measured values: a ratio of 1/2
between consecutive relative deviations is the 1/N law, and, once the 1/N
term is cancelled, a ratio of 1/4 is the 1/N^2 law (Dusuel and Vidal, PRB
71, 224420 (2005), derive the 1/N corrections).
"""

import math

import pytest

from lmglab.analytic import chi_g_analytic, chi_r_analytic
from lmglab.fidelity import sweep_point
from lmglab.model import ModelParams
from lmglab.reduced import Bipartition

GAMMA = 0.5
DELTA = 1e-4
TAUS = (0.25, 0.5, 0.75)
OFF_CRITICAL_SIZES = (256, 512, 1024, 2048, 4096)
CRITICAL_SIZES = (128, 256, 512, 1024, 2048, 4096)


def points(h: float, n: int, taus) -> dict:
    """sweep_point per tau at one (N, h), sharing the ground states.

    ``cache`` keeps the ground states across the tau values; each call
    drops the reductions of the tau before it.
    """
    cache = {}
    return {tau: sweep_point(ModelParams(n, GAMMA, h), Bipartition(n, round(tau * n)),
                             delta=DELTA, cache=cache) for tau in taus}


@pytest.fixture(scope="module", params=[0.6, 1.5], ids=["broken", "symmetric"])
def off_critical(request):
    h = request.param
    return h, {n: points(h, n, TAUS) for n in OFF_CRITICAL_SIZES}


def test_deviation_from_closed_forms_halves_per_doubling(off_critical):
    h, grid = off_critical
    for tau in TAUS:
        chi_g = [abs(grid[n][tau].chi_g / chi_g_analytic(h, GAMMA, n) - 1)
                 for n in OFF_CRITICAL_SIZES]
        chi_r = [abs(grid[n][tau].chi_r / chi_r_analytic(h, GAMMA, tau, n) - 1)
                 for n in OFF_CRITICAL_SIZES]
        for devs in (chi_g, chi_r):
            ratios = [b / a for a, b in zip(devs, devs[1:])]
            assert all(0.45 <= r <= 0.55 for r in ratios), (h, tau, ratios)


def test_extrapolated_deviation_quarters_per_doubling(off_critical):
    # R(N) is the numeric value over the closed form, and R2(N) = 2R(N) - R(N/2)
    # cancels its 1/N term.  Above N = 2048 the finite-difference error at
    # delta = 1e-4 sets a floor under |R2 - 1|.
    h, grid = off_critical
    sizes = [n for n in OFF_CRITICAL_SIZES if n <= 2048]
    for tau in TAUS:
        chi_g = [grid[n][tau].chi_g / chi_g_analytic(h, GAMMA, n) for n in sizes]
        chi_r = [grid[n][tau].chi_r / chi_r_analytic(h, GAMMA, tau, n) for n in sizes]
        for r in (chi_g, chi_r):
            devs = [abs(2 * b - a - 1) for a, b in zip(r, r[1:])]
            ratios = [b / a for a, b in zip(devs, devs[1:])]
            assert all(0.15 <= x <= 0.35 for x in ratios), (h, tau, ratios)


def test_eta_collapses_over_n_but_not_over_tau(off_critical):
    h, grid = off_critical
    for tau in TAUS:
        etas = [grid[n][tau].eta for n in OFF_CRITICAL_SIZES]
        assert max(etas) - min(etas) < 1e-3, (h, tau, etas)
    for n in OFF_CRITICAL_SIZES:
        etas = [grid[n][tau].eta for tau in TAUS]
        assert max(etas) - min(etas) > 0.1, (h, n, etas)


def test_critical_eta_rises_and_entropy_gain_stays_below_bound():
    critical = [points(1.0, n, (0.5,))[0.5] for n in CRITICAL_SIZES]
    etas = [p.eta for p in critical]
    assert all(b > a for a, b in zip(etas, etas[1:])), etas
    assert etas[-1] < 1.0, etas
    gains = [b.entropy - a.entropy for a, b in zip(critical, critical[1:])]
    assert all(b > a for a, b in zip(gains, gains[1:])), gains
    assert gains[-1] < math.log(2.0) / 6.0, gains
