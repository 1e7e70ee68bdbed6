import math

import numpy as np
import pytest

from lmglab.analytic import (
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
from lmglab.fidelity import sweep_point
from lmglab.model import ModelParams
from lmglab.reduced import Bipartition


class TestTheta0:
    def test_values(self):
        assert theta0(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert theta0(1.0) == pytest.approx(0.0, abs=1e-15)
        assert theta0(2.0) == 0.0

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            theta0(-0.5)


class TestAlpha:
    def test_symmetric_branch_value(self):
        assert alpha(1.5, 0.5) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_vanishes_approaching_transition(self):
        assert alpha(1.0 + 1e-5, 0.5) < 5e-3
        assert alpha(1.0 - 1e-5, 0.5) < 7e-3

    def test_broken_branch_can_exceed_one(self):
        # 1 - h^2 > 1 - gamma here; the closed form is evaluated as written.
        assert alpha(0.0, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_critical_window_raises(self):
        with pytest.raises(CriticalPointError):
            alpha(1.0, 0.5)
        with pytest.raises(CriticalPointError):
            alpha(1.0 + 1e-7, 0.5)

    def test_isotropic_rejected(self):
        with pytest.raises(IsotropicPointError):
            alpha(1.5, 1.0)


class TestMu:
    def test_pure_subsystem_is_exactly_one(self):
        assert mu(0.37, 1.0) == 1.0

    def test_half_subsystem_closed_form(self):
        a = alpha(1.5, 0.5)
        assert mu(a, 0.5) == pytest.approx((1.0 + a) / (2.0 * math.sqrt(a)), rel=1e-14)
        assert mu(a, 0.5) == pytest.approx(1.015051, abs=1e-6)

    def test_small_alpha_divergence(self):
        # mu ~ sqrt(tau(1-tau)/alpha) as alpha -> 0
        tau = 0.3
        for a in (1e-4, 1e-6):
            assert mu(a, tau) == pytest.approx(
                math.sqrt(tau * (1 - tau) / a), rel=1e-2
            )

    def test_at_least_one(self):
        for a in (0.05, 0.4, 1.0, 1.4):
            for tau in (0.1, 0.5, 0.9, 1.0):
                assert mu(a, tau) >= 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            mu(0.0, 0.5)
        with pytest.raises(ValueError):
            mu(0.5, 0.0)
        with pytest.raises(ValueError):
            mu(0.5, 1.5)


class TestGreens:
    def test_pure_subsystem(self):
        a = 0.6
        g_pp, g_mm = greens(a, 1.0)
        assert g_pp == pytest.approx(1.0 / a, rel=1e-14)
        assert g_mm == pytest.approx(-a, rel=1e-14)
        assert -g_pp * g_mm == pytest.approx(1.0, rel=1e-14)  # mu(tau=1)^2

    def test_half_subsystem_values(self):
        a = alpha(1.5, 0.5)
        g_pp, g_mm = greens(a, 0.5)
        assert g_pp == pytest.approx(1.2071067811865475, rel=1e-12)
        assert g_mm == pytest.approx(-0.8535533905932737, rel=1e-12)
        assert -g_pp * g_mm == pytest.approx(mu(a, 0.5) ** 2, rel=1e-13)

    def test_deep_symmetric_phase(self):
        g_pp, g_mm = greens(1.0 - 1e-12, 0.5)
        assert g_pp == pytest.approx(1.0, abs=1e-9)
        assert g_mm == pytest.approx(-1.0, abs=1e-9)

    def test_identity_on_grid(self):
        for h in np.linspace(0.05, 1.95, 30):
            if abs(h - 1.0) < 0.01:
                continue
            for gamma in np.linspace(0.0, 0.95, 10):
                a = alpha(float(h), float(gamma))
                for tau in np.linspace(1.0 / 30, 1.0, 30):
                    g_pp, g_mm = greens(a, float(tau))
                    assert abs(-g_pp * g_mm - mu(a, float(tau)) ** 2) < 1e-12

    def test_signs_for_proper_fraction(self):
        for h in (0.4, 1.7):
            a = alpha(h, 0.3)
            for tau in (0.2, 0.8):
                g_pp, g_mm = greens(a, tau)
                assert g_pp > 0.0
                assert g_mm < 0.0


class TestChiGAnalytic:
    def test_symmetric_value(self):
        assert chi_g_analytic(1.5, 0.5, 100) == pytest.approx(1.0 / 32.0, rel=1e-14)

    def test_large_field_decay(self):
        # chi_g ~ h^-4 at leading order
        ratio = chi_g_analytic(200.0, 0.5, 64) / chi_g_analytic(100.0, 0.5, 64)
        assert ratio == pytest.approx(2.0**-4, rel=0.05)

    def test_broken_phase_extensive(self):
        lo = chi_g_analytic(0.6, 0.5, 1000)
        hi = chi_g_analytic(0.6, 0.5, 2000)
        intensive = 0.36 * (0.36 - 0.5) ** 2 / (32.0 * 0.25 * 0.64**2)
        assert hi - lo == pytest.approx(
            1000.0 / (4.0 * math.sqrt(0.64 * 0.5)), rel=1e-12
        )
        assert lo - 1000.0 / (4.0 * math.sqrt(0.64 * 0.5)) == pytest.approx(
            intensive, rel=1e-10
        )

    def test_critical_point_raises(self):
        with pytest.raises(CriticalPointError):
            chi_g_analytic(1.0, 0.5, 64)

    def test_both_branches_diverge_toward_transition(self):
        for side in (+1.0, -1.0):
            values = [
                chi_g_analytic(1.0 + side * u, 0.5, 64) for u in (1e-2, 1e-3, 1e-4, 1e-5)
            ]
            assert all(a < b for a, b in zip(values, values[1:]))
            assert values[-1] > 1e6


def _chi_r_reference(h, gamma, tau, n):
    """chi_r from the docstring formulas at 40 digits, with mpmath derivatives."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        h, gamma, tau = mp.mpf(h), mp.mpf(gamma), mp.mpf(tau)

        def alpha_at(x):
            if x > 1:
                return mp.sqrt((x - 1) / (x - gamma))
            return mp.sqrt((1 - x * x) / (1 - gamma))

        def mu_at(x):
            a = alpha_at(x)
            return mp.sqrt((tau * a + (1 - tau)) * (tau + a * (1 - tau)) / a)

        def g_pp_at(x):
            return 1 + (1 / alpha_at(x) - 1) * tau

        mu0 = mu_at(h)
        d_mu = mp.diff(mu_at, h)
        d_log_ratio = mp.diff(lambda x: mp.log(abs(mu_at(x) / g_pp_at(x))), h)
        chi = d_mu**2 / (4 * (mu0**2 - 1)) + mu0**2 / (4 * (mu0**2 + 1)) * d_log_ratio**2
        if h < 1:
            chi += n * tau / (4 * g_pp_at(h) * (1 - h * h))
        return float(chi)


class TestChiRAnalytic:
    def test_exact_derivatives_against_mpmath(self):
        fields = (0.0, 0.1, 0.6, 0.99, 1 - 1e-5, 1 + 1e-5, 1.01, 1.5, 10.0, 100.0, 1000.0)
        for h in fields:
            for gamma in (0.25, 0.5):
                for tau in (1 / 256, 0.5, 0.9):
                    want = _chi_r_reference(h, gamma, tau, 256)
                    got = chi_r_analytic(h, gamma, tau, 256)
                    assert abs(got - want) <= 1e-10 * abs(want), (h, gamma, tau)
        # tau = 1 is evaluated exactly, and there equals chi_g above h = 1.
        for h in (1 + 1e-5, 1.01, 1.5, 10.0, 100.0, 1000.0):
            ratio = chi_r_analytic(h, 0.5, 1.0, 256) / chi_g_analytic(h, 0.5, 256)
            assert abs(ratio - 1.0) <= 1e-14
        # Deep in the symmetric phase eta reaches its limit tau (2 - tau).
        tau = 1 / 256
        for h in (100.0, 1000.0):
            eta = chi_r_analytic(h, 0.5, tau, 256) / chi_g_analytic(h, 0.5, 256)
            assert abs(eta / (tau * (2 - tau)) - 1.0) <= 1e-5

    def test_broken_divergence_exponent(self):
        # chi_r/N ~ (1-h)^(-1/2); fit close to the transition where the
        # O(sqrt(1-h)) corrections are negligible, with N large enough
        # that the intensive (1-h)^(-2) piece does not contaminate.
        u = np.logspace(-5, -4, 10)
        vals = np.array([chi_r_analytic(1.0 - x, 0.5, 0.5, 10**12) for x in u])
        assert loglog_slope(u, vals / 10**12) == pytest.approx(-0.5, abs=0.02)

    def test_symmetric_divergence_exponent(self):
        u = np.logspace(-5, -4, 10)
        vals = np.array([chi_r_analytic(1.0 + x, 0.5, 0.5, 10**12) for x in u])
        assert loglog_slope(u, vals) == pytest.approx(-2.0, abs=0.02)

    def test_eta_tends_to_one_at_transition(self):
        gaps = [1e-2, 1e-3, 1e-4, 1e-5]
        for side in (+1.0, -1.0):
            etas = [
                chi_r_analytic(1.0 + side * u, 0.5, 0.5, 10**9)
                / chi_g_analytic(1.0 + side * u, 0.5, 10**9)
                for u in gaps
            ]
            devs = [abs(e - 1.0) for e in etas]
            assert devs[0] > devs[1] > devs[2] > devs[3]
            if side < 0:
                assert devs[-1] < 5e-3
            else:
                # eta - 1 ~ sqrt(u) on the symmetric side (8.7e-3 at
                # u = 1e-5); Richardson-extrapolate the last two gaps.
                root = math.sqrt(10.0)
                limit = (root * etas[-1] - etas[-2]) / (root - 1.0)
                assert abs(limit - 1.0) < 1e-3

    def test_reduced_branches_diverge_toward_transition(self):
        for side in (+1.0, -1.0):
            values = [
                chi_r_analytic(1.0 + side * u, 0.5, 0.5, 64)
                for u in (1e-2, 1e-3, 1e-4, 1e-5)
            ]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_tau_one_returns_global_limit_in_symmetric_phase(self):
        # The tau -> 1 limit of the reduced form reproduces chi_g exactly
        # above the transition (both phases share the extensive term).
        value = chi_r_analytic(1.5, 0.5, 1.0, 256)
        assert value == pytest.approx(chi_g_analytic(1.5, 0.5, 256), rel=1e-5)

    def test_broken_phase_positive_even_for_alpha_above_one(self):
        assert chi_r_analytic(0.1, 0.5, 0.5, 128) > 0.0

    def test_removable_singularity_at_alpha_one(self):
        # h = sqrt(gamma) gives alpha = 1 and mu = 1 exactly; the value
        # must stay finite and continuous in h across that curve.
        at = chi_r_analytic(0.5, 0.25, 0.5, 64)
        near = chi_r_analytic(0.5 + 1e-4, 0.25, 0.5, 64)
        assert math.isfinite(at)
        assert abs(at - near) / at < 1e-2

    def test_near_critical_guard(self):
        with pytest.raises(CriticalPointError):
            chi_r_analytic(1.0 + 5e-7, 0.5, 0.5, 64)


class TestEntropyAnalytic:
    def test_pure_subsystem_limits(self):
        assert entropy_analytic(1.5, 0.5, 1.0) == 0.0
        assert entropy_analytic(0.5, 0.5, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_log_divergence_slope(self):
        u = np.logspace(-5, -4, 10)
        for side in (+1.0, -1.0):
            vals = np.array([entropy_analytic(1.0 + side * x, 0.5, 0.5) for x in u])
            slope = float(np.polyfit(np.log(u), vals, 1)[0])
            assert slope == pytest.approx(-0.25, abs=0.02)


class TestAnalyticPoint:
    def test_bundle_consistency(self):
        point = analytic_point(1.5, 0.5, 0.5, 256)
        assert point.alpha == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert point.eta == pytest.approx(point.chi_r / point.chi_g, rel=1e-14)
        assert point.epsilon == pytest.approx(
            math.log((point.mu + 1.0) / (point.mu - 1.0)), rel=1e-12
        )
        # exp(2 varphi) = mu / G^{++} ties the Bogoliubov angle to the
        # Green's function; this is what makes the extensive term of the
        # reduced susceptibility equal N tau / (4 G^{++} (1 - h^2)).
        assert math.exp(2.0 * point.varphi) == pytest.approx(
            point.mu / point.g_pp, rel=1e-12
        )

    def test_pure_subsystem_epsilon_infinite(self):
        point = analytic_point(1.5, 0.5, 1.0, 64)
        assert point.mu == 1.0
        assert math.isinf(point.epsilon)
        assert point.theta0 == 0.0

    def test_cross_module_against_numerics(self):
        point = analytic_point(1.5, 0.5, 0.5, 256)
        numeric = sweep_point(
            ModelParams(256, 0.5, 1.5), Bipartition(256, 128), probe=False
        )
        assert abs(numeric.chi_r - point.chi_r) / point.chi_r < 0.06
        assert abs(numeric.chi_g - point.chi_g) / point.chi_g < 0.06
        assert abs(numeric.entropy - point.entropy) / point.entropy < 0.02
