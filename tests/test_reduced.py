import math
from dataclasses import replace

import numpy as np
import pytest

from lmglab.analytic import entropy_analytic
from lmglab.model import ModelParams, ground_state
from lmglab.reduced import (
    TRACE_TOL,
    Bipartition,
    ReducedDensity,
    ReducedDensityError,
    _log_binomials,
    hypergeometric_weight,
    reduce_state,
    von_neumann_entropy,
)

from oracles import lift_reduced, lift_to_product_basis, partial_trace_first


class TestLogBinomials:
    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, 4, 63, 64, 511, 512, 1023, 1024, 4095, 4096]
    )
    def test_equals_log_of_exact_comb(self, n):
        # n = 0 is reached by the complement table when M = N.
        table = _log_binomials(n)
        expected = [math.log(math.comb(n, k)) for k in range(n + 1)]
        assert np.array_equal(table, expected)
        assert not table.flags.writeable


class TestHypergeometricWeight:
    def test_subsystem_is_everything(self):
        for m in range(5):
            for p in range(5):
                expected = 1.0 if p == m else 0.0
                assert hypergeometric_weight(p, 4, 4, m) == expected

    def test_direct_binomial_value(self):
        # C(1,0) C(1,1) / C(2,1) = 1/2
        assert hypergeometric_weight(0, 2, 1, 1) == pytest.approx(0.5, abs=1e-15)

    def test_out_of_support_is_zero(self):
        assert hypergeometric_weight(0, 10, 4, 8) == 0.0  # m - p > 2j2
        assert hypergeometric_weight(4, 10, 4, 2) == 0.0  # m - p < 0

    @pytest.mark.parametrize(
        "args",
        [
            (-1, 10, 4, 2),
            (5, 10, 4, 2),
            (2, 10, 12, 2),
            (0, 10, 4, -1),
            (0, 10, 4, 11),
        ],
    )
    def test_range_violations_raise(self, args):
        with pytest.raises(ValueError):
            hypergeometric_weight(*args)

    def test_normalization_over_p(self):
        # Vandermonde: sum_p H(p; 2j, 2j1, m) = 1, including large sizes.
        for two_j, two_j1 in [(6, 2), (40, 13), (400, 137), (400, 399)]:
            for m in range(0, two_j + 1, max(1, two_j // 7)):
                total = sum(
                    hypergeometric_weight(p, two_j, two_j1, m)
                    for p in range(two_j1 + 1)
                )
                assert abs(total - 1.0) < 1e-12, (two_j, two_j1, m)


class TestReduceState:
    def test_full_subsystem_is_pure_projector(self):
        state = ground_state(ModelParams(12, 0.5, 0.7))
        rho = reduce_state(state, Bipartition(12, 12))
        np.testing.assert_allclose(
            rho.matrix, np.outer(state.coefficients, state.coefficients), atol=1e-13
        )
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_polarized_limit_single_entry(self):
        # Residual squeezing corrections at h=100 are O((1-gamma)/8h) ~ 6e-4.
        state = ground_state(ModelParams(24, 0.5, 100.0))
        rho = reduce_state(state, Bipartition(24, 6)).matrix
        assert rho[6, 6] == pytest.approx(1.0, abs=1e-3)
        off = rho.copy()
        off[6, 6] = 0.0
        assert np.abs(off).max() < 1e-3

    def test_matches_brute_force_partial_trace(self):
        state = ground_state(ModelParams(6, 0.5, 0.7))
        psi = lift_to_product_basis(state.coefficients)
        brute = partial_trace_first(psi, 3, 6)
        ours = lift_reduced(reduce_state(state, Bipartition(6, 3)).matrix)
        np.testing.assert_allclose(ours, brute, atol=1e-10)

    def test_brute_force_grid(self):
        for n, gamma, h in [(5, 0.0, 1.2), (7, 0.5, 0.4), (8, 1.0, 0.9)]:
            state = ground_state(ModelParams(n, gamma, h))
            psi = lift_to_product_basis(state.coefficients)
            for m_sub in range(1, n):
                brute = partial_trace_first(psi, m_sub, n)
                ours = lift_reduced(reduce_state(state, Bipartition(n, m_sub)).matrix)
                np.testing.assert_allclose(ours, brute, atol=1e-10)

    @pytest.mark.parametrize("h", [0.5, 1.0, 1.5])
    def test_matches_scalar_hypergeometric_sum(self, h):
        # Independent reference at a size the 2^N oracles cannot reach:
        # rho[p, q] = sum_m C_m C_{q+m-p} sqrt(H(p; m)) sqrt(H(q; q+m-p)).
        n = 40
        state = ground_state(ModelParams(n, 0.5, h))
        c = state.coefficients
        for m_sub in [1, 13, 20, 39, 40]:
            w = np.sqrt(
                [
                    [hypergeometric_weight(p, n, m_sub, m) for m in range(n + 1)]
                    for p in range(m_sub + 1)
                ]
            )
            ref = np.zeros((m_sub + 1, m_sub + 1))
            for p in range(m_sub + 1):
                for q in range(m_sub + 1):
                    ref[p, q] = sum(
                        c[m] * c[q + m - p] * w[p, m] * w[q, q + m - p]
                        for m in range(max(0, p - q), min(n, n + p - q) + 1)
                    )
            ours = reduce_state(state, Bipartition(n, m_sub)).matrix
            np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-14)

    def test_odd_lags_vanish_for_definite_parity(self):
        state = ground_state(ModelParams(256, 0.5, 0.5))
        rho = reduce_state(state, Bipartition(256, 100)).matrix
        p, q = np.indices(rho.shape)
        assert np.all(rho[(p - q) % 2 == 1] == 0.0)

    @pytest.mark.parametrize("h", [0.9, 0.99, 1.1])
    def test_invariants_at_large_n(self, h):
        state = ground_state(ModelParams(2048, 0.5, h))
        rho = reduce_state(state, Bipartition(2048, 1024)).matrix
        assert abs(rho.trace() - 1.0) <= TRACE_TOL
        assert np.array_equal(rho, rho.T)

    def test_invariants_at_n_32768(self):
        # Smoke test of the binomial tables at large N; no timing is asserted.
        n = 32768
        rho = reduce_state(ground_state(ModelParams(n, 0.5, 0.9)), Bipartition(n, 1))
        assert abs(rho.matrix.trace() - 1.0) <= TRACE_TOL
        # Each weight is exp of a sum of log-binomials, so its relative error
        # is a few ulp of log C(n, m): up to 5.4e-12, at m = 9267, here.
        log_c = _log_binomials(n)
        for m in range(n + 1):
            total = sum(hypergeometric_weight(p, n, 1, m) for p in range(2))
            tol = max(1e-12, 4 * np.spacing(log_c[m]))
            assert abs(total - 1.0) <= tol, m

    def test_both_parity_sectors_raise(self):
        # The parity blocks need the state in a single k-parity sector.
        state = ground_state(ModelParams(8, 0.5, 0.7))
        mixed = replace(state, coefficients=np.full(9, 1.0 / 3.0))
        with pytest.raises(ReducedDensityError):
            reduce_state(mixed, Bipartition(8, 4))

    def test_size_mismatch_raises(self):
        state = ground_state(ModelParams(8, 0.5, 0.7))
        with pytest.raises(ValueError):
            reduce_state(state, Bipartition(10, 5))

    def test_invariants_on_grid(self):
        for h in np.linspace(0.2, 1.8, 9):
            state = ground_state(ModelParams(48, 0.3, float(h)))
            rho = reduce_state(state, Bipartition(48, 18))
            assert abs(rho.matrix.trace() - 1.0) < 1e-12
            assert np.array_equal(rho.matrix, rho.matrix.T)
            assert rho.eigenvalues[0] >= 0.0

    def test_complement_symmetry(self):
        state = ground_state(ModelParams(10, 0.5, 0.8))
        for m_sub in range(1, 10):
            s_a = von_neumann_entropy(reduce_state(state, Bipartition(10, m_sub)))
            s_b = von_neumann_entropy(reduce_state(state, Bipartition(10, 10 - m_sub)))
            assert abs(s_a - s_b) < 1e-8


class TestBipartition:
    def test_tau(self):
        assert Bipartition(8, 2).tau == 0.25

    @pytest.mark.parametrize("m_sub", [0, 9, -1])
    def test_invalid_sizes(self, m_sub):
        with pytest.raises(ValueError):
            Bipartition(8, m_sub)


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        rho = ReducedDensity(m_sub=1, matrix=np.diag([0.5, 0.5]))
        assert von_neumann_entropy(rho) == pytest.approx(np.log(2.0), abs=1e-14)

    def test_tiny_eigenvalues_contribute_zero(self):
        rho = ReducedDensity(m_sub=1, matrix=np.diag([1.0, 0.0]))
        assert von_neumann_entropy(rho) == 0.0
        # The 1e-15 mode alone would contribute ~3.5e-14; the cutoff drops
        # it, leaving only the -(1-1e-15) ln(1-1e-15) ~ 1e-15 remainder.
        rho = ReducedDensity(m_sub=1, matrix=np.diag([1.0 - 1e-15, 1e-15]))
        assert von_neumann_entropy(rho) < 2e-15

    def test_negative_eigenvalue_below_floor_raises(self):
        rho = ReducedDensity(m_sub=1, matrix=np.diag([1.0 + 1e-8, -1e-8]))
        with pytest.raises(ReducedDensityError):
            von_neumann_entropy(rho)

    def test_matches_closed_form_away_from_transition(self):
        state = ground_state(ModelParams(256, 0.5, 2.0))
        numeric = von_neumann_entropy(reduce_state(state, Bipartition(256, 128)))
        analytic = entropy_analytic(2.0, 0.5, 0.5)
        assert abs(numeric - analytic) / analytic < 0.02
